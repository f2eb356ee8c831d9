"""Uniformity epsilon, the mixing lemma, and the eigenvalue bound."""

import math

import numpy as np
import pytest

from cayleynorms import (
    CapacityError,
    center_regular,
    complete_graph,
    cut_norm_exact,
    cycle_graph,
    epsilon_uniformity,
    mixing_lemma_check,
    paley_graph,
    petersen_graph,
    random_regular,
    second_eigenvalue,
    theorem3_check,
)
from cayleynorms import norms


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
    assert mixing_lemma_check(np.zeros((0, 0)), 0, 0.0)


def test_mixing_lemma_sampled_mode():
    g = random_regular(20, 4, seed=2)
    lam = second_eigenvalue(g.matrix)
    assert mixing_lemma_check(g.matrix, 4, lam + 1e-9)
    assert not mixing_lemma_check(g.matrix, 4, 0.01)


def _all_pair_deviations(a, d):
    """|e(S,T) - (d/n)|S||T|| and |S||T| for every pair (S, T), by brute force."""
    n = a.shape[0]
    x = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.float64)
    sizes = np.outer(x.sum(axis=1), x.sum(axis=1))
    return np.abs(x @ a @ x.T - (d / n) * sizes), sizes


# The intransitive rr7/rr8 graphs have worst pairs whose smaller S holds
# vertex 0 or whose worst T is the small side of a negative deviation, so
# they test the complement pairing of S and of T.
@pytest.mark.parametrize("g", [
    cycle_graph(7), cycle_graph(10), complete_graph(6), complete_graph(9),
    petersen_graph(), paley_graph(5), random_regular(7, 4, seed=0),
    random_regular(8, 2, seed=0), random_regular(8, 3, seed=0),
    random_regular(8, 4, seed=1), random_regular(9, 4, seed=1),
    random_regular(10, 3, seed=1),
], ids=lambda g: g.provenance)
def test_mixing_lemma_matches_all_pairs(g, monkeypatch):
    dev, sizes = _all_pair_deviations(g.matrix, g.degree)
    pairs = sizes > 0
    threshold = float((dev[pairs] / np.sqrt(sizes[pairs])).max())
    assert threshold > 0
    # one block, then one block per row of the high half's table
    for entries in (norms._BLOCK_ENTRIES, 1):
        monkeypatch.setattr(norms, "_BLOCK_ENTRIES", entries)
        for factor in (0.5, 0.9, 1.0, 1.1):
            lam = factor * threshold
            every_pair = not np.any(dev > lam * np.sqrt(sizes) + 1e-9 * g.degree)
            assert every_pair == (factor >= 1.0)
            assert mixing_lemma_check(g.matrix, g.degree, lam) == every_pair


def test_mixing_lemma_refutes_below_threshold_past_14_vertices():
    # exact thresholds: 2.0656 for rr20 (seed 2), 1.7879 for rr22 (seed 0)
    assert not mixing_lemma_check(random_regular(20, 4, seed=2).matrix, 4, 1.85)
    assert not mixing_lemma_check(random_regular(22, 4, seed=0).matrix, 4, 1.77)


def test_mixing_lemma_capacity_error():
    g = random_regular(27, 4, seed=0)
    with pytest.raises(CapacityError, match="capped at 26 vertices"):
        mixing_lemma_check(g.matrix, 4, 4.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_mixing_lemma_rejects_a_non_finite_lambda(lam):
    # NaN fails every comparison, so unchecked it would pass every pair
    g = paley_graph(13)
    with pytest.raises(ValueError, match="lam must be finite"):
        mixing_lemma_check(g.matrix, 6, lam)


def test_mixing_lemma_negative_lambda_fails():
    g = paley_graph(13)
    assert not mixing_lemma_check(g.matrix, 6, -1.0)


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
