"""Uniformity epsilon, the mixing lemma, and the eigenvalue bound."""

import math

import numpy as np
import pytest

from cayleynorms import (
    center_regular,
    complete_graph,
    cut_norm_exact,
    cycle_graph,
    epsilon_uniformity,
    mixing_lemma_check,
    paley_graph,
    random_regular,
    second_eigenvalue,
    theorem3_check,
)


def test_epsilon_complete_graph_closed_form():
    for n in (6, 8, 12):
        est = epsilon_uniformity(complete_graph(n).matrix, n - 1)
        assert est.exact
        assert est.value == pytest.approx((n / 4) / ((n - 1) * n))
    assert epsilon_uniformity(complete_graph(8).matrix, 7).value == pytest.approx(2 / 56)


def test_epsilon_perfect_matching():
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = a[2, 3] = a[3, 2] = 1.0
    est = epsilon_uniformity(a, 1)
    centered_cut = cut_norm_exact(center_regular(a, 1)).value
    assert est.value == pytest.approx(centered_cut / 4)


def test_epsilon_two_disjoint_k4():
    k4 = complete_graph(4).matrix
    a = np.zeros((8, 8))
    a[:4, :4] = k4
    a[4:, 4:] = k4
    est = epsilon_uniformity(a, 3)
    # component discrepancy: 12 ordered pairs vs (3/8)*16 = 6
    assert est.value == pytest.approx(6 / 24)


def test_epsilon_rejects_irregular():
    bad = np.zeros((3, 3))
    bad[0, 1] = bad[1, 0] = 1.0
    with pytest.raises(ValueError, match="regular"):
        epsilon_uniformity(bad, 1)
    with pytest.raises(ValueError, match="0/1"):
        epsilon_uniformity(np.full((3, 3), 0.5), 1)


def test_epsilon_bracket_mode_above_exact_cap():
    g = random_regular(28, 3, seed=5)
    est = epsilon_uniformity(g.matrix, 3)
    assert not est.exact
    assert 0 <= est.lower <= est.upper
    with pytest.raises(ValueError):
        _ = est.value


def test_epsilon_degree_inferred():
    a = cycle_graph(10).matrix
    assert epsilon_uniformity(a).value == epsilon_uniformity(a, 2).value


def test_mixing_lemma_paley13_exhaustive():
    g = paley_graph(13)
    lam = second_eigenvalue(g.matrix)
    assert mixing_lemma_check(g.matrix, 6, lam)
    # an undersized lambda must be caught
    assert not mixing_lemma_check(g.matrix, 6, 0.1)


def test_mixing_lemma_k4():
    a = complete_graph(4).matrix
    assert mixing_lemma_check(a, 3, 1.0)


def test_mixing_lemma_empty_sets_are_fine():
    a = np.zeros((3, 3))
    assert mixing_lemma_check(a, 0, 0.0)


def test_mixing_lemma_sampled_mode():
    g = random_regular(20, 4, seed=2)
    lam = second_eigenvalue(g.matrix)
    assert mixing_lemma_check(g.matrix, 4, lam + 1e-9, samples=20_000)
    assert not mixing_lemma_check(g.matrix, 4, 0.01, samples=20_000)


def test_theorem3_paley13():
    r = theorem3_check(paley_graph(13).matrix, 6)
    assert r.passed
    assert r.lam == pytest.approx((1 + math.sqrt(13)) / 2, abs=1e-9)
    assert r.ratio <= 8.0


def test_theorem3_cycle12():
    r = theorem3_check(cycle_graph(12).matrix, 2)
    assert r.passed
    assert r.lam == pytest.approx(2.0, abs=1e-9)
    assert r.lam <= 8 * r.epsilon * 2


def test_theorem3_complete8_closed_form():
    r = theorem3_check(complete_graph(8).matrix, 7)
    assert r.passed
    assert r.lam == pytest.approx(1.0, abs=1e-9)
    assert r.epsilon == pytest.approx(1 / 28)
    assert 8 * r.epsilon * 7 == pytest.approx(2.0)


def test_uniformity_checks_reject_complex_and_non_finite():
    c6 = cycle_graph(6).matrix
    holed = c6.copy()
    holed[0, 1] = math.nan
    for call in (lambda a: epsilon_uniformity(a, 2),
                 lambda a: mixing_lemma_check(a, 2, 2.0),
                 lambda a: theorem3_check(a, 2)):
        with pytest.raises(ValueError, match="real matrix"):
            call(c6 + 1j * np.eye(6))
        with pytest.raises(ValueError, match="finite"):
            call(holed)
