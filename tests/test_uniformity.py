"""Uniformity epsilon, the mixing lemma, and the eigenvalue bound."""

import math

import numpy as np
import pytest

from cayleynorms import (
    BMConfig,
    Bracket,
    CapacityError,
    Check,
    GroupFunction,
    analyze,
    bipartite_cayley_deviation,
    center_regular,
    complete_graph,
    cut_norm_exact,
    cycle_graph,
    cyclic_group,
    epsilon_uniformity,
    example1_graph,
    grothendieck_bounds,
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


def _witness_discrepancy(g, witness):
    """n |e(S, T) - d |S| |T| / n| for the witness (S, T), counted in integers."""
    s, t = witness
    e = sum(int(g.matrix[i, j]) for i in s for j in t)
    return abs(g.n * e - g.degree * len(s) * len(t))


EPSILON_FAMILIES = [
    cycle_graph(5), cycle_graph(12), cycle_graph(20), complete_graph(4), complete_graph(9),
    complete_graph(16), paley_graph(5), paley_graph(13), paley_graph(17),
    random_regular(12, 3, seed=0), random_regular(18, 4, seed=1), random_regular(24, 5, seed=2),
    example1_graph(6, 16, seed=0), example1_graph(4, 20, seed=1),
]


@pytest.mark.parametrize("g", EPSILON_FAMILIES, ids=lambda g: g.provenance)
def test_epsilon_bracket_above_the_cap_contains_the_exact_value(g, monkeypatch):
    exact = epsilon_uniformity(g.matrix, g.degree).value
    monkeypatch.setattr(norms, "EXACT_ENUM_LIMIT", g.n - 1)
    est = epsilon_uniformity(g.matrix, g.degree)
    assert not est.exact
    assert est.lower <= exact <= est.upper
    # the zero-margin ends, not [G_lower / 8, G_upper]
    groth = grothendieck_bounds(center_regular(g.matrix, g.degree))
    scale = g.degree * g.n
    rounding = 5 * g.n ** 2 * np.finfo(np.float64).eps / 4
    assert est.upper == (groth.upper / 4 + rounding) / scale
    # the lower end is its witness's discrepancy over d n, rounded down
    dev = _witness_discrepancy(g, est.witness)
    assert est.lower == math.nextafter(dev / (g.degree * g.n ** 2), 0.0)
    assert est.lower >= groth.lower / (4 * norms.K_G) / scale


@pytest.mark.parametrize("g", EPSILON_FAMILIES, ids=lambda g: g.provenance)
def test_exact_epsilon_is_the_correctly_rounded_discrepancy_of_its_witness(g):
    est = epsilon_uniformity(g.matrix, g.degree)
    assert est.exact
    # int / int is correctly rounded, so this is the exact rational, rounded
    dev = _witness_discrepancy(g, est.witness)
    assert est.value == dev / (g.degree * g.n ** 2)
    # n A - d J keeps the lex-first witness of A - (d/n) J
    cut = cut_norm_exact(center_regular(g.matrix, g.degree))
    assert est.witness == cut.witness


def test_exact_epsilon_of_complete9_is_5_over_162():
    # the cut summed on the float rounding of A - (d/n) J read 3 ulp low
    assert epsilon_uniformity(complete_graph(9).matrix, 8).value == 5 / 162


def test_epsilon_above_the_cap_runs_no_ascent(monkeypatch):
    def no_ascent(*args, **kwargs):
        raise AssertionError("epsilon_uniformity ran the Grothendieck ascent")

    monkeypatch.setattr(norms, "_grothendieck_bm_stack", no_ascent)
    g = random_regular(64, 4, seed=4)
    est = epsilon_uniformity(g.matrix, 4)
    assert not est.exact
    assert est.lower == math.nextafter(_witness_discrepancy(g, est.witness) / (4 * 64 ** 2), 0.0)
    assert est.upper / est.lower < 1.35


@pytest.mark.parametrize("p", [37, 101])
def test_epsilon_bracket_on_paley_graphs_is_narrow(p):
    g = paley_graph(p)
    est = epsilon_uniformity(g.matrix, g.degree)
    assert not est.exact
    assert 0 < est.lower and est.upper / est.lower < 1.2


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
    for size in (norms._BLOCK_BYTES, 1):
        monkeypatch.setattr(norms, "_BLOCK_BYTES", size)
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
    check, eps = theorem3_check(paley_graph(13).matrix, 6)
    assert check.passed
    assert check.lhs == pytest.approx((1 + math.sqrt(13)) / 2, abs=1e-9)
    assert check.lhs / (eps.value * 6) <= 8.0


def test_theorem3_cycle12():
    check, eps = theorem3_check(cycle_graph(12).matrix, 2)
    assert check.passed
    assert check.lhs == pytest.approx(2.0, abs=1e-9)
    assert check.lhs <= 8 * eps.value * 2


def test_theorem3_complete8_closed_form():
    check, eps = theorem3_check(complete_graph(8).matrix, 7)
    assert check.passed
    assert check.lhs == pytest.approx(1.0, abs=1e-9)
    assert eps.value == pytest.approx(1 / 28)
    assert 8 * eps.value * 7 == pytest.approx(2.0)


def test_every_interval_producer_returns_a_bracket():
    a = center_regular(cycle_graph(8).matrix, 2)
    cfg = BMConfig(restarts=2)
    groth = grothendieck_bounds(a, cfg)
    assert isinstance(groth, Bracket) and not groth.exact and groth.witness is None
    cut = cut_norm_exact(a)
    assert isinstance(cut, Bracket) and cut.exact and cut.lower == cut.upper == cut.value
    rows, cols = cut.witness
    assert cut.value == abs(a[np.ix_(rows, cols)].sum())
    report = analyze(a, cfg)
    assert report.groth == groth and report.cut == cut
    g = paley_graph(13)
    exact = epsilon_uniformity(g.matrix, g.degree)
    assert isinstance(exact, Bracket) and exact.exact and exact.witness is not None
    assert exact.lower == exact.upper == exact.value
    wide = epsilon_uniformity(random_regular(28, 3, seed=5).matrix, 3)
    assert isinstance(wide, Bracket) and not wide.exact and wide.witness is not None
    with pytest.raises(ValueError, match="only bracketed"):
        _ = wide.value
    check, eps = theorem3_check(g.matrix, g.degree)
    assert isinstance(check, Check) and check.name == "lambda_le_8_eps_d"
    assert eps == exact
    assert (check.lhs, check.rhs) == (second_eigenvalue(g.matrix), 8.0 * eps.value * g.degree)
    with pytest.raises(ValueError, match="only bracketed"):
        theorem3_check(random_regular(28, 3, seed=5).matrix, 3)
    sigma, bracket = bipartite_cayley_deviation(
        GroupFunction.indicator(cyclic_group(4), [1]), cfg)
    assert isinstance(sigma, float) and isinstance(bracket, Bracket)
    assert bracket.lower <= 4 * sigma * (1 + 1e-9) and 4 * sigma <= bracket.upper * (1 + 1e-9)


def test_theorem3_check_above_the_cap_fails_before_any_solver(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a solver ran")

    monkeypatch.setattr(norms, "second_eigenvalue", never)
    monkeypatch.setattr(norms, "epsilon_uniformity", never)
    msg = (r"theorem3_check needs the exact epsilon, which is only bracketed above "
           r"EXACT_ENUM_LIMIT = 26 vertices \(got 28\)")
    with pytest.raises(ValueError, match=msg):
        theorem3_check(random_regular(28, 3, seed=5).matrix, 3)


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
