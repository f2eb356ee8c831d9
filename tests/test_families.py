"""Graph family constructors and bipartite Cayley deviations."""

import math
import warnings

import numpy as np
import pytest

from cayleynorms import (
    BMConfig,
    GroupFunction,
    RegularGraph,
    bipartite_cayley_deviation,
    cayley_matrix,
    bipartite_deviation,
    complete_graph,
    cycle_graph,
    cyclic_group,
    example1_graph,
    find_transitive_automorphisms,
    paley_graph,
    petersen_graph,
    quadratic_residues,
    random_regular,
    second_eigenvalue,
    spectral_norm,
    symmetric_spectrum,
)


def test_paley13_basic():
    g = paley_graph(13)
    assert g.degree == 6
    assert np.all(g.matrix.sum(axis=1) == 6)
    assert second_eigenvalue(g.matrix) == pytest.approx((1 + math.sqrt(13)) / 2, abs=1e-9)


def test_paley5_is_the_five_cycle():
    assert quadratic_residues(5) == [1, 4]
    assert np.array_equal(paley_graph(5).matrix, cycle_graph(5).matrix)


def test_paley_rejects_bad_primes():
    with pytest.raises(ValueError, match="mod 4"):
        paley_graph(7)
    with pytest.raises(ValueError, match="prime"):
        paley_graph(9)


def test_paley_graphs_are_vertex_transitive():
    for p in (5, 13):
        assert find_transitive_automorphisms(paley_graph(p).matrix) is not None


def test_paley_conference_spectrum_up_to_17():
    for p in (5, 13, 17):
        lam = second_eigenvalue(paley_graph(p).matrix)
        assert lam == pytest.approx((1 + math.sqrt(p)) / 2, abs=1e-9)
        spectrum = symmetric_spectrum(paley_graph(p).matrix)
        # eigenvalues are the degree and (-1 +- sqrt(p))/2
        lo = (-1 - math.sqrt(p)) / 2
        hi = (-1 + math.sqrt(p)) / 2
        others = sorted(set(np.round(spectrum[1:], 9)))
        assert others == pytest.approx([lo, hi], abs=1e-9)


def test_cycle_and_complete_validate():
    assert cycle_graph(12).degree == 2
    assert complete_graph(9).degree == 8
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_petersen_shape():
    g = petersen_graph()
    assert g.n == 10 and g.degree == 3
    assert np.array_equal(g.matrix, g.matrix.T)


def test_regular_graph_invariants_enforced():
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        RegularGraph(3, 1, bad)
    loop = np.eye(2)
    with pytest.raises(ValueError, match="diagonal"):
        RegularGraph(2, 1, loop)
    with pytest.raises(ValueError, match="row sums"):
        RegularGraph(2, 1, np.zeros((2, 2)))


def test_example1_sizes_and_eigenvalue():
    g = example1_graph(8, 24, seed=0)
    assert np.all(g.matrix.sum(axis=1) == 8)
    # |U| = |V| = 4: vertices 0..3 and 4..7; W1 fills the rest (16 = d^2/4)
    y = np.zeros(24)
    y[:4] = 1.0
    y[4:8] = -1.0
    assert np.abs(g.matrix @ y + 4 * y).max() <= 1e-12
    spectrum = symmetric_spectrum(g.matrix)
    assert min(abs(spectrum + 4.0)) <= 1e-9
    # U-V is complete bipartite, U and V internally empty
    assert np.array_equal(g.matrix[:4, 4:8], np.ones((4, 4)))
    assert not g.matrix[:4, :4].any()
    assert not g.matrix[4:8, 4:8].any()


def test_example1_small_case():
    g = example1_graph(4, 12, seed=1)
    assert np.all(g.matrix.sum(axis=1) == 4)
    # each W1 vertex owns one U-V edge, in lex order against ascending index
    pairs = [tuple(np.nonzero(g.matrix[w, :4])[0]) for w in range(4, 8)]
    assert pairs == [(0, 2), (0, 3), (1, 2), (1, 3)]
    y = np.zeros(12)
    y[:2] = 1.0
    y[2:4] = -1.0
    assert np.abs(g.matrix @ y + 2 * y).max() <= 1e-12


def test_example1_rejects_infeasible():
    with pytest.raises(ValueError, match="too small"):
        example1_graph(8, 20)
    with pytest.raises(ValueError, match="even"):
        example1_graph(5, 24)


def test_example1_deterministic_under_seed():
    a = example1_graph(8, 24, seed=3).matrix
    b = example1_graph(8, 24, seed=3).matrix
    assert np.array_equal(a, b)
    c = example1_graph(8, 24, seed=4).matrix
    assert not np.array_equal(a, c)


def test_random_regular_matching():
    g = random_regular(4, 1, seed=0)
    assert np.all(g.matrix.sum(axis=1) == 1)


def test_random_regular_forced_complete():
    g = random_regular(6, 5, seed=3)
    assert np.array_equal(g.matrix, np.ones((6, 6)) - np.eye(6))


def test_random_regular_row_sums_and_seed():
    g = random_regular(16, 3, seed=7)
    assert np.all(g.matrix.sum(axis=1) == 3)
    assert np.array_equal(g.matrix, random_regular(16, 3, seed=7).matrix)


def test_random_regular_rejects_odd_product():
    with pytest.raises(ValueError, match="even"):
        random_regular(5, 3)


def test_bipartite_deviation_trivial_cases():
    assert bipartite_deviation(np.ones((4, 6)), 1.0) == 0.0
    assert bipartite_deviation(np.ones((3, 3)), 1.0) == 0.0


def test_bipartite_deviation_keeps_complex_input():
    # the imaginary part was silently dropped, giving 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bipartite_deviation(1j * np.eye(2), 0.0) == 1.0
        assert bipartite_deviation(np.eye(2), 1j) == pytest.approx(math.sqrt(5.0), rel=1e-12)


def _pins_n_sigma(bracket, n_sigma):
    """Does the bracket pin ||B - pJ||_G = n sigma_max within 1e-6 relative?"""
    scale = max(n_sigma, 1e-300)
    return (bracket.lower >= n_sigma - 1e-6 * scale
            and bracket.upper <= n_sigma + 1e-6 * scale)


def test_bipartite_cayley_z4_report():
    g = cyclic_group(4)
    f = GroupFunction.indicator(g, [1])
    cfg = BMConfig(rank=8, restarts=8)
    sigma, bracket = bipartite_cayley_deviation(f, cfg)
    # the default centering is the edge density 1/4
    assert (sigma, bracket) == bipartite_cayley_deviation(f, cfg, p=0.25)
    # B - J/4 for a permutation matrix: sigma via the dense oracle
    centered = cayley_matrix(f) - 0.25
    want = np.linalg.svd(centered, compute_uv=False)[0]
    assert sigma == pytest.approx(want, rel=1e-10)
    assert _pins_n_sigma(bracket, 4 * sigma)


def test_bipartite_identity_on_weighted_functions():
    g = cyclic_group(5)
    rng = np.random.Generator(np.random.Philox(13))
    f = GroupFunction(g, rng.standard_normal(5))  # not symmetric, fine
    with pytest.raises(ValueError, match="weighted"):
        bipartite_cayley_deviation(f)
    sigma, bracket = bipartite_cayley_deviation(f, BMConfig(rank=10, restarts=8), p=0.0)
    assert _pins_n_sigma(bracket, 5 * sigma)


def test_bipartite_cayley_deviation_rejects_complex_f():
    # a character of Z8: its Cayley matrix has rank one and sigma 8, while
    # its real part alone has sigma 4
    g = cyclic_group(8)
    f = GroupFunction(g, np.exp(2j * np.pi * np.arange(8) / 8))
    assert spectral_norm(cayley_matrix(f)) == pytest.approx(8.0, rel=1e-12)
    with pytest.raises(ValueError, match="real matrix"):
        bipartite_cayley_deviation(f, p=0.0)


def test_bipartite_deviation_translation_invariance():
    g = cyclic_group(6)
    f = GroupFunction.indicator(g, [1, 2])
    b = cayley_matrix(f)
    base = bipartite_deviation(b, 2 / 6)
    for h in range(6):
        img = g.mul[:, h]
        relabeled = b[np.ix_(img, img)]
        assert bipartite_deviation(relabeled, 2 / 6) == pytest.approx(base, rel=1e-10)
