"""Spectral, cut, infinity-to-one and Grothendieck norms, with oracles."""

import itertools
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cayleynorms import (
    BMConfig,
    Bracket,
    CapacityError,
    abelian_character_norm,
    build_irrep_table,
    GroupFunction,
    VectorAssignment,
    analyze,
    cayley_matrix,
    center_regular,
    complete_graph,
    cut_norm_exact,
    cycle_graph,
    cyclic_group,
    dihedral_group,
    example1_graph,
    grothendieck_bm,
    grothendieck_bounds,
    group_spectral,
    infty_one_exact,
    paley_graph,
    parse_group_spec,
    petersen_graph,
    random_regular,
    second_eigenvalue,
    spectral_norm,
    spectral_via_irreps,
    symmetric_group,
    symmetric_spectrum,
    translate_witness,
    verify_sandwich,
)
from cayleynorms import norms, serial, verify
from cayleynorms.norms import _bm_ascent, default_bm_rank

TWO = np.array([[1.0, -1.0], [-1.0, 1.0]])


# ---------------------------------------------------------------------------
# spectral norm


def test_spectral_all_ones():
    for n in (1, 4, 9):
        assert spectral_norm(np.ones((n, n))) == pytest.approx(n, abs=1e-10)


def test_spectral_two_by_two():
    assert spectral_norm(TWO) == pytest.approx(2.0, abs=1e-12)


def test_spectral_zero_matrix():
    assert spectral_norm(np.zeros((3, 5))) == 0.0


def test_spectral_paley_equals_degree():
    a = paley_graph(13).matrix
    assert spectral_norm(a) == pytest.approx(6.0, abs=1e-9)
    # independent oracle: full eigendecomposition
    assert spectral_norm(a) == pytest.approx(
        max(abs(np.linalg.eigvalsh(a))), rel=1e-10
    )


def test_spectral_matches_eigh_on_random_symmetric():
    rng = np.random.Generator(np.random.Philox(17))
    for n in (3, 8, 15):
        for _ in range(10):
            m = rng.standard_normal((n, n))
            m = m + m.T
            want = max(abs(np.linalg.eigvalsh(m)))
            assert spectral_norm(m) == pytest.approx(want, rel=1e-10)


def test_spectral_matches_svd_on_rectangular_and_complex():
    rng = np.random.Generator(np.random.Philox(18))
    a = rng.standard_normal((5, 9))
    assert spectral_norm(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0],
                                             rel=1e-10)
    c = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert spectral_norm(c) == pytest.approx(np.linalg.svd(c, compute_uv=False)[0],
                                             rel=1e-10)


# ---------------------------------------------------------------------------
# symmetric spectrum


def test_spectrum_cycle_matches_character_formula():
    for n in (4, 7, 12):
        a = cycle_graph(n).matrix
        got = np.sort(symmetric_spectrum(a))
        want = np.sort([2 * math.cos(2 * math.pi * k / n) for k in range(n)])
        assert np.allclose(got, want, atol=1e-10)
    a4 = cycle_graph(4).matrix
    assert sorted(symmetric_spectrum(a4).tolist()) == pytest.approx([-2, 0, 0, 2])
    assert second_eigenvalue(a4) == pytest.approx(2.0)


def test_spectrum_petersen_multiplicities():
    s = symmetric_spectrum(petersen_graph().matrix)
    rounded = [round(x) for x in s]
    assert np.allclose(s, rounded, atol=1e-10)
    assert sorted(rounded) == [-2] * 4 + [1] * 5 + [3]
    assert second_eigenvalue(petersen_graph().matrix) == pytest.approx(2.0)


def test_spectrum_paley_conference_formula():
    for p in (13, 17):
        lam = second_eigenvalue(paley_graph(p).matrix)
        assert lam == pytest.approx((1 + math.sqrt(p)) / 2, abs=1e-9)


def test_spectrum_sorted_by_absolute_value():
    rng = np.random.Generator(np.random.Philox(4))
    m = rng.standard_normal((9, 9))
    s = symmetric_spectrum(m + m.T)
    assert np.all(np.diff(np.abs(s)) <= 1e-12)


def test_spectrum_rejects_asymmetric():
    asym = np.array([[0.0, 1.0], [0.5, 0.0]])
    # the tolerance is relative to max|a|: below 1e-12 asymmetry still counts
    for c in (1.0, 1e-13, 1e-300):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_spectrum(c * asym)
        assert symmetric_spectrum(c * (asym + asym.T)) == pytest.approx([-1.5 * c, 1.5 * c])


def test_spectral_agrees_with_spectrum_top():
    rng = np.random.Generator(np.random.Philox(5))
    for _ in range(5):
        m = rng.standard_normal((11, 11))
        m = m + m.T
        assert spectral_norm(m) == pytest.approx(abs(symmetric_spectrum(m)[0]),
                                                 rel=1e-10)


def test_centered_regular_spectral_is_lambda2():
    for g in (cycle_graph(9), complete_graph(7), paley_graph(13), petersen_graph()):
        centered = center_regular(g.matrix, g.degree)
        assert spectral_norm(centered) == pytest.approx(
            second_eigenvalue(g.matrix), rel=1e-10
        )


SCALES = (1e-300, 1e-150, 1e150, 1e200)


def test_spectral_is_homogeneous_at_extreme_scales():
    rng = np.random.Generator(np.random.Philox(19))
    pool = [rng.standard_normal((7, 5)), center_regular(paley_graph(13).matrix, 6),
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))]
    for a in pool:
        base = spectral_norm(a)
        for c in SCALES:
            assert spectral_norm(c * a) == pytest.approx(c * base, rel=1e-14)


# Every norm of this matrix overflows float64: sigma_1 = 1.7e308 sqrt(2),
# and the cut and infinity-to-one norms are 3.4e308.
OVERFLOWING = np.array([[1.7e308, -1.7e308], [1.7e308, 1.7e308]])


@pytest.mark.parametrize("fn", [spectral_norm, cut_norm_exact, infty_one_exact,
                                grothendieck_bm, grothendieck_bounds, analyze])
def test_overflowing_sums_are_a_value_error(fn):
    with pytest.raises(ValueError, match="overflows"):
        fn(OVERFLOWING)


# Finite norms whose checks overflow: cut 3e307, infinity-to-one and both
# bracket ends 1.2e308, so K_G io1, 8 cut and 8 cut on the transitive
# sandwich are inf.
HUGE_CHECKS = 3e307 * np.array([[1.0, -1.0], [-1.0, 1.0]])
# Past the enumeration cap, sqrt(27 * 27) 1e308 overflows, but the ascent's
# dual certificate gives a finite upper end.
HUGE_UPPER = np.zeros((27, 27))
HUGE_UPPER[0, 0] = 1e308
# Its lower end fits, but every upper term overflows: the spectral bound
# 27 c, and the dual c (1 + about 40 u), whose rounding and assumed SVD
# slack put it past the largest double, 8 u above c.  The test asserts both
# overflows, so a tighter proof of the slack shows here.  The two largest
# doubles overflow the ascent's objective instead.
OVERFLOWING_UPPER = np.zeros((27, 27))
OVERFLOWING_UPPER[0, 0] = sys.float_info.max * (1 - 2.0 ** -50)


def test_overflowing_check_side_or_upper_end_is_a_value_error():
    for a, name in ((HUGE_CHECKS, "groth_lower_le_kg_infty_one"),
                    (OVERFLOWING_UPPER, "bracket_ordered")):
        with pytest.raises(ValueError, match=f"^{name} overflows"):
            analyze(a, BMConfig(restarts=2))
    with pytest.raises(ValueError, match="^bracket_ordered overflows"):
        grothendieck_bounds(OVERFLOWING_UPPER, BMConfig(restarts=2))
    b, e = norms._scaled(OVERFLOWING_UPPER)
    restart0 = grothendieck_bm(OVERFLOWING_UPPER, BMConfig(restarts=1))[1]
    assert math.isfinite(norms._objective_lower(b, e, restart0.left, restart0.right)[0])
    assert norms._dual_upper(b, e, restart0.left, restart0.right) == math.inf
    assert norms._spectral_upper(spectral_norm(OVERFLOWING_UPPER), 27, 27) == math.inf
    bracket = grothendieck_bounds(HUGE_UPPER, BMConfig(restarts=2))
    assert 1e308 * (1 - 1e-14) <= bracket.lower <= 1e308 <= bracket.upper <= 1e308 * (1 + 1e-13)
    with pytest.raises(ValueError, match="^x overflows"):
        norms._check("x", 1.0, math.inf)
    with pytest.raises(ValueError, match="^x overflows"):
        norms._check("x", math.nan, 1.0)
    # the bracket itself fits: only the checks built on it overflow
    bracket = grothendieck_bounds(HUGE_CHECKS, BMConfig(restarts=2))
    assert bracket.lower == infty_one_exact(HUGE_CHECKS) == 1.2e308
    assert math.isfinite(bracket.upper)


def test_large_entries_whose_sums_fit_keep_working():
    a = np.array([[1e307, -1e307, 3e306], [1e307, 1e307, -2e307]])
    report = analyze(a)
    assert report.all_passed
    assert report.cut.value == _cut_by_matmul(a).max()
    assert report.infty_one == pytest.approx(_io1_brute(a), rel=1e-15)
    assert report.spectral == spectral_norm(a) > 1e307


def test_spectral_on_equal_top_singular_values():
    # centered C20: the eigenvalues 2 cos(2 pi k / 20), k != 0, and a 0;
    # centered K9 = J/9 - I: -1 eight times and a 0
    c20 = center_regular(cycle_graph(20).matrix, 2)
    want = sorted([0.0] + [2 * math.cos(2 * math.pi * k / 20) for k in range(1, 20)])
    assert np.allclose(np.sort(symmetric_spectrum(c20)), want, atol=1e-13)
    assert spectral_norm(c20) == pytest.approx(2.0, rel=1e-14)
    assert second_eigenvalue(cycle_graph(20).matrix) == pytest.approx(2.0, rel=1e-14)
    k9 = center_regular(complete_graph(9).matrix, 8)
    assert np.allclose(np.sort(symmetric_spectrum(k9)), [-1.0] * 8 + [0.0], atol=1e-13)
    assert spectral_norm(k9) == pytest.approx(1.0, rel=1e-14)
    assert second_eigenvalue(complete_graph(9).matrix) == pytest.approx(1.0, rel=1e-14)


def test_spectral_accepts_finite_complex():
    a = np.diag([3j, 1.0 + 1.0j])
    assert spectral_norm(a) == pytest.approx(3.0, rel=1e-15)
    assert spectral_norm(np.zeros((2, 3), dtype=complex)) == 0.0
    assert spectral_norm(np.zeros((0, 3))) == 0.0


def test_solvers_and_analyze_reject_bad_input():
    for bad in (np.nan, np.inf, -np.inf):
        a = np.ones((3, 3))
        a[1, 1] = bad
        for fn in (spectral_norm, symmetric_spectrum, grothendieck_bm, analyze):
            with pytest.raises(ValueError, match="finite"):
                fn(a)
    with pytest.raises(ValueError, match="finite"):
        spectral_norm(np.array([[1.0, complex(np.nan, 0.0)]]))
    # analyze used to warn and drop the imaginary part
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="real"):
            analyze(np.eye(2) + 1j * np.eye(2))


# ---------------------------------------------------------------------------
# cut norm


def _cut_brute(a):
    m, n = a.shape
    best = -1.0
    for rows in itertools.product((0, 1), repeat=m):
        for cols in itertools.product((0, 1), repeat=n):
            v = abs(sum(a[i, j] for i in range(m) for j in range(n)
                        if rows[i] and cols[j]))
            best = max(best, v)
    return best


def test_cut_two_by_two_with_witness():
    res = cut_norm_exact(TWO)
    assert res.value == pytest.approx(_cut_brute(TWO))  # 16-case oracle
    assert res.value == pytest.approx(1.0)
    assert res.witness[0] == (0,)
    assert res.witness[1] == (0,)


def test_cut_all_ones():
    assert cut_norm_exact(np.ones((5, 5))).value == pytest.approx(25.0)


def test_cut_centered_complete_eight():
    a = center_regular(np.ones((8, 8)) - np.eye(8), 7)
    res = cut_norm_exact(a)
    assert res.value == pytest.approx(2.0)  # max_k |k^2/8 - k| = 2
    assert res.value == pytest.approx(_cut_brute(a))
    assert len(res.witness[0]) == 4


def test_cut_matches_brute_force_random():
    rng = np.random.Generator(np.random.Philox(31))
    for _ in range(10):
        a = rng.standard_normal((4, 5))
        assert cut_norm_exact(a).value == pytest.approx(_cut_brute(a), abs=1e-12)


def test_cut_witness_attains_value():
    rng = np.random.Generator(np.random.Philox(32))
    for _ in range(10):
        a = rng.standard_normal((6, 6))
        res = cut_norm_exact(a)
        attained = abs(a[np.ix_(*res.witness)].sum())
        assert attained == pytest.approx(res.value, rel=1e-12)


def test_cut_transpose_and_permutation_invariance():
    rng = np.random.Generator(np.random.Philox(33))
    a = rng.standard_normal((7, 7))
    v = cut_norm_exact(a).value
    assert cut_norm_exact(a.T).value == pytest.approx(v, rel=1e-12)
    p = rng.permutation(7)
    q = rng.permutation(7)
    assert cut_norm_exact(a[np.ix_(p, q)]).value == pytest.approx(v, rel=1e-12)


def test_cut_zero_matrix_witness_is_empty():
    res = cut_norm_exact(np.zeros((6, 4)))
    assert res.value == 0.0
    assert res.witness[0] == ()
    assert res.witness[1] == ()


def test_cut_capacity_error(monkeypatch):
    with pytest.raises(CapacityError, match="grothendieck_bounds"):
        cut_norm_exact(np.zeros((27, 3)))
    # the cap is read at call time
    monkeypatch.setattr(norms, "EXACT_ENUM_LIMIT", 27)
    assert cut_norm_exact(np.zeros((27, 3))).value == 0.0


# ---------------------------------------------------------------------------
# infinity-to-one norm


def _io1_brute(a):
    m, n = a.shape
    best = 0.0
    for x in itertools.product((-1, 1), repeat=m):
        for y in itertools.product((-1, 1), repeat=n):
            best = max(best, abs(np.asarray(x) @ a @ np.asarray(y)))
    return best


def test_io1_two_by_two():
    assert infty_one_exact(TWO) == pytest.approx(4.0)
    assert infty_one_exact(TWO) == pytest.approx(_io1_brute(TWO))


def test_io1_zero_and_all_ones():
    assert infty_one_exact(np.zeros((3, 4))) == 0.0
    assert infty_one_exact(np.ones((5, 5))) == pytest.approx(25.0)


def test_io1_matches_brute_force_random():
    rng = np.random.Generator(np.random.Philox(41))
    for _ in range(10):
        a = rng.standard_normal((5, 4))
        assert infty_one_exact(a) == pytest.approx(_io1_brute(a), abs=1e-12)


def test_io1_capacity_error():
    with pytest.raises(CapacityError):
        infty_one_exact(np.zeros((30, 2)))


# ---------------------------------------------------------------------------
# exact enumeration: oracles, the zero-margin shortcut, edge inputs


def _subsets(k):
    """Every subset of range(k) as a sorted tuple."""
    return itertools.chain.from_iterable(
        itertools.combinations(range(k), r) for r in range(k + 1))


def _cut_oracle(q):
    """Exact cut norm of a matrix of Fractions and the lexicographically
    smallest (row set, column set) among all exactly tied maximizers."""
    m, n = len(q), len(q[0])
    best, witness = Fraction(-1), None
    for rows in _subsets(m):
        c = [sum((q[i][j] for i in rows), Fraction(0)) for j in range(n)]
        for cols in _subsets(n):
            v = abs(sum((c[j] for j in cols), Fraction(0)))
            if v > best or (v == best and (rows, cols) < witness):
                best, witness = v, (rows, cols)
    return best, witness


def _io1_oracle(q):
    m, n = len(q), len(q[0])
    best = Fraction(0)
    for x in itertools.product((-1, 1), repeat=m):
        s = [sum((x[i] * q[i][j] for i in range(m)), Fraction(0)) for j in range(n)]
        for y in itertools.product((-1, 1), repeat=n):
            best = max(best, abs(sum((s[j] * y[j] for j in range(n)), Fraction(0))))
    return best


def _fractions(a):
    return [[Fraction(float(v)) for v in row] for row in a]


def _cut_by_matmul(a):
    """Reference: every (S, T) value from bit-unpacked 0/1 matrices."""
    m, n = a.shape
    xs = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(float)
    ys = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    return np.abs(xs @ a @ ys.T)


def _key(mask, k):
    return tuple(i for i in range(k) if (mask >> i) & 1)


ORACLE_SHAPES = ((1, 6), (6, 1), (2, 5), (3, 6), (5, 3), (6, 4), (6, 6))


def _zero_column_sums(b):
    """b with its last row replaced so that every column sums to zero."""
    b = b.copy()
    b[-1] = -b[:-1].sum(axis=0)
    return b


def test_cut_and_io1_match_fraction_oracle_on_integer_and_gaussian():
    rng = np.random.Generator(np.random.Philox(90))
    for m, n in ORACLE_SHAPES:
        ints = rng.integers(-3, 4, size=(m, n)).astype(float)
        # one margin zero, the other not: no zero-margin shortcut
        half_centered = (_zero_column_sums(ints), _zero_column_sums(ints.T).T)
        for a in (ints, *half_centered,
                  rng.choice([-1.0, 1.0], size=(m, n)),
                  rng.integers(0, 2, size=(m, n)).astype(float),
                  rng.standard_normal((m, n))):
            q = _fractions(a)
            value, witness = _cut_oracle(q)
            res = cut_norm_exact(a)
            # the value is the witness sum, correctly rounded
            assert res.value == float(value)
            assert res.witness == witness
            assert infty_one_exact(a) == float(_io1_oracle(q))


def test_centered_graph_witness_is_lex_min_over_exact_ties():
    # A - (d/n) J: ties are decided on the rational matrix, which a rounds
    graphs = [cycle_graph(5), cycle_graph(6), complete_graph(6), complete_graph(5),
              random_regular(6, 3, seed=1), random_regular(6, 2, seed=3)]
    for g in graphs:
        a = center_regular(g.matrix, g.degree)
        q = [[Fraction(int(v)) - Fraction(g.degree, g.n) for v in row] for row in g.matrix]
        value, witness = _cut_oracle(q)
        res = cut_norm_exact(a)
        assert res.witness == witness
        assert res.value == pytest.approx(float(value), rel=0, abs=g.n ** 2 * 2.0 ** -50)
        assert infty_one_exact(a) == pytest.approx(float(_io1_oracle(q)), rel=0,
                                                   abs=g.n ** 2 * 2.0 ** -50)
        # every transposed and permuted copy has the same value
        p = np.random.Generator(np.random.Philox(g.n)).permutation(g.n)
        assert cut_norm_exact(a[np.ix_(p, p)].T).value == pytest.approx(res.value, rel=1e-15)


def test_centered_row_witness_is_lex_min_over_all_exact_ties():
    # every row set's doubled cut value from integer bit-unpacked sums,
    # at the size where float sums tie differently from exact ones
    for g in (paley_graph(17), cycle_graph(16), random_regular(16, 4, seed=7)):
        w = g.n * g.matrix.astype(np.int64) - g.degree
        masks = np.arange(1 << g.n)
        c = ((masks[:, None] >> np.arange(g.n)) & 1) @ w
        doubled = np.abs(c).sum(axis=1) + np.abs(c.sum(axis=1))
        tied = np.nonzero(doubled == doubled.max())[0]
        want = min(_key(int(s), g.n) for s in tied)
        assert cut_norm_exact(center_regular(g.matrix, g.degree)).witness[0] == want


def test_zero_margin_shortcut_equals_full_enumeration():
    for n in (8, 10, 12, 14, 16):
        for d in (3, 4):
            g = random_regular(n, d, seed=n + d)
            w, zero_margins = norms._enumeration_form(center_regular(g.matrix, d))
            assert zero_margins and w.dtype == np.int16
            cut2, mask, first = norms._cut_rows(w, True)
            assert (cut2, mask) == norms._cut_rows(w, False)[:2]
            io1, io1_mask = norms._infty_one_signs(w)
            assert io1 == 2 * cut2  # io1 = 4 cut with zero margins
            assert io1_mask == first  # the one pass finds the sign enumeration's mask


def test_enumeration_form_covers_integer_and_centered_inputs():
    w, zero = norms._enumeration_form(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert w.dtype == np.int16 and zero
    g = paley_graph(17)
    w, zero = norms._enumeration_form(center_regular(g.matrix, g.degree))
    assert w.dtype == np.int16 and zero
    assert np.array_equal(w, 17 * g.matrix.astype(np.int64) - 8)
    # not integral for k = 1 or k = ncols: stays in float64
    a = np.array([[0.5, 1.0 / 3.0], [1.0, 0.0]])
    w, zero = norms._enumeration_form(a)
    assert w is a and not zero
    # too large for exact sums
    w, _ = norms._enumeration_form(np.full((2, 2), 2.0 ** 52))
    assert w.dtype == np.float64
    # int16 while 3 m n max|N| < 2^15, float32 exactly while it is below 2^24,
    # int64 from there on
    for shape in ((2, 2), (26, 26), (26, 40)):
        m, n = shape
        for bound, narrow, wide in ((2 ** 15, np.int16, np.float32),
                                    (2 ** 24, np.float32, np.int64)):
            below = (bound - 1) // (3 * m * n)
            assert norms._enumeration_form(np.full(shape, float(below)))[0].dtype == narrow
            assert norms._enumeration_form(np.full(shape, below + 1.0))[0].dtype == wide
    # every +-1 matrix up to the enumeration cap, and every centered graph up
    # to 22 vertices: max|N| = max(d, n - d) is largest for the complete graph
    assert norms._enumeration_form(np.ones((26, 26)))[0].dtype == np.int16
    g = random_regular(26, 13, seed=0)
    w, zero = norms._enumeration_form(center_regular(g.matrix, g.degree))
    assert w.dtype == np.int16 and zero
    for g, want in ((complete_graph(22), np.int16), (complete_graph(23), np.float32)):
        w, zero = norms._enumeration_form(center_regular(g.matrix, g.degree))
        assert w.dtype == want and zero


def _exact_norm_inputs():
    """Graphs, +-1, integer, Gaussian, single-row and empty matrices."""
    for n in range(4, 21):
        g = cycle_graph(n)
        yield f"cycle{n}", center_regular(g.matrix, g.degree)
    for n in range(4, 17):
        g = complete_graph(n)
        yield f"complete{n}", center_regular(g.matrix, g.degree)
        yield f"complete{n}-raw", g.matrix
    for q in (5, 13, 17):
        g = paley_graph(q)
        yield f"paley{q}", center_regular(g.matrix, g.degree)
    for seed in range(3):
        g = example1_graph(6, 16, seed=seed)
        yield f"example1-6-16-{seed}", center_regular(g.matrix, g.degree)
    for n, d, seed in ((10, 3, 0), (12, 4, 1), (14, 5, 2), (16, 3, 3), (17, 4, 4)):
        g = random_regular(n, d, seed=seed)
        yield f"rr{n}-{d}", center_regular(g.matrix, d)
        yield f"rr{n}-{d}-raw", g.matrix
    rng = np.random.Generator(np.random.Philox(94))
    for m, n in ((1, 1), (1, 7), (7, 1), (3, 5), (6, 9), (9, 6), (12, 12), (14, 3)):
        yield f"signs{m}x{n}", rng.choice([-1.0, 1.0], size=(m, n))
        ints = rng.integers(-4, 5, size=(m, n)).astype(float)
        yield f"ints{m}x{n}", ints
        yield f"ints{m}x{n}-zero-cols", _zero_column_sums(ints)
        yield f"gauss{m}x{n}", rng.standard_normal((m, n))
    for shape in ((0, 0), (0, 4), (4, 0)):
        yield f"empty{shape}", np.zeros(shape)


@pytest.mark.parametrize("a", [pytest.param(a, id=name) for name, a in _exact_norm_inputs()])
def test_shared_enumeration_equals_both_public_norms_bit_for_bit(a):
    cut, io1, _, one_pass = norms._exact_norms(a, "cut norm")
    want_cut, want_io1 = cut_norm_exact(a), infty_one_exact(a)
    assert cut == want_cut and float.hex(cut.value) == float.hex(want_cut.value)
    assert float.hex(io1) == float.hex(want_io1)
    assert one_pass == (a.size > 0 and norms._enumeration_form(a)[1])


def test_int64_enumeration_form_matches_brute_force():
    # 3 m n max|N| >= 2^24: too large for exact float32 sums
    rng = np.random.Generator(np.random.Philox(95))
    for shape in ((5, 4), (4, 6), (7, 7)):
        a = rng.integers(-2 ** 20, 2 ** 20, size=shape).astype(float)
        a[0, 0] = 2.0 ** 20
        w, _ = norms._enumeration_form(a)
        assert w.dtype == np.int64
        assert cut_norm_exact(a).value == _cut_by_matmul(a).max()
        assert infty_one_exact(a) == _io1_brute(a)
        for b in (_zero_column_sums(a), _zero_column_sums(_zero_column_sums(a).T).T):
            w, zero = norms._enumeration_form(b)
            assert w.dtype == np.int64
            cut, io1, _, _ = norms._exact_norms(b, "cut norm")
            assert cut.value == _cut_by_matmul(b).max()
            assert io1 == _io1_brute(b)


def _max_l1_reference(rows, *, base=None, pinned=False, choose=None):
    """The unscreened enumeration loop: every block in the dtype of `rows`,
    2^16 entries a block, numpy's default sum dtype."""
    m = rows.shape[0]
    h = (m + 1) // 2
    step = 2 if pinned else 1
    low = norms._subset_sums(rows[:h])[::step]
    if base is not None:
        low = low + base
    low = np.ascontiguousarray(low.T)
    low_masks = np.arange(0, 1 << h, step, dtype=np.int64)
    high = norms._subset_sums(rows[h:])
    cols, width = low.shape
    per_block = max(1, (1 << 16) // (cols * width))
    buf = np.empty((per_block, cols, width), dtype=rows.dtype)
    best = best_key = None
    best_mask = first_mask = 0
    for first in range(0, high.shape[0], per_block):
        block = buf[: min(per_block, high.shape[0] - first)]
        np.add(low, high[first:first + len(block), :, None], out=block)
        np.abs(block, out=block)
        vals = block.sum(axis=1)
        top = vals.max()
        if best is not None and (top < best or (
                top == best and (choose is None or best_key == ()))):
            continue
        hi_idx, lo_idx = np.nonzero(vals == top)
        masks = ((first + hi_idx) << h) | low_masks[lo_idx]
        if best is None or top > best:
            first_mask = int(masks[0])
        key, mask = (None, first_mask) if choose is None else choose(masks)
        if best is None or top > best or key < best_key:
            best, best_key, best_mask = top, key, mask
    return best, best_mask, first_mask


def _screen_inputs():
    """Near ties, extreme scales, tiny rows, a dominant column and integer
    forms, with the dtype of each one's enumeration form."""
    rng = np.random.Generator(np.random.Philox(97))
    for i, (m, n) in enumerate(((14, 10), (16, 8), (17, 11), (15, 7)) * 3):
        b = rng.choice([-1.0, 0.0, 1.0], size=(m, n))
        g = rng.standard_normal((m, n))
        for delta in (0.0, 1e-16, 1e-14, 1e-9, 1e-7):
            a = b / 3 + delta * g
            yield f"tie{i}-{delta}", a, np.float64
            if i % 3 == 0:
                yield f"tie{i}-{delta}-2^900", a * 2.0 ** 900, np.float64
                yield f"tie{i}-{delta}-2^-900", a * 2.0 ** -900, np.float64
    a = rng.standard_normal((16, 10))
    # cast to float32 unscaled, the first overflows and the second is subnormal
    yield "gauss-1e39", a * 1e39, np.float64
    yield "gauss-1e-40", a * 1e-40, np.float64
    # rows 2^-140 below the others: in the screen's int16 units they round to 0
    tiny = rng.choice([-1.0, 0.0, 1.0], size=(16, 10)) / 3
    tiny[::3] *= 2.0 ** -140
    yield "subnormal-rows", tiny, np.float64
    yield "int64-form", rng.integers(-2 ** 20, 2 ** 20, size=(14, 9)).astype(float), np.int64
    yield "int64-form-ties", rng.choice([-2.0 ** 20, 0.0, 2.0 ** 20], size=(16, 9)), np.int64
    yield "int16-form", rng.choice([-1.0, 1.0], size=(17, 11)), np.int16
    gr = random_regular(18, 5, seed=2)
    yield "int16-centered", center_regular(gr.matrix, gr.degree), np.int16
    # 3 m n max|N| between 2^15 and 2^24: float32 forms, the last with zero margins
    for m, n in ((14, 18), (15, 11), (16, 9), (17, 7)):
        ints = rng.integers(-300, 301, size=(m, n)).astype(float)
        yield f"float32-form-{m}x{n}", ints, np.float32
    yield "float32-form-zero-margins", _zero_column_sums(_zero_column_sums(ints).T).T, np.float32
    # one dominant column: in the screen's units every other entry rounds to 0
    dom = rng.standard_normal((16, 10))
    dom[:, 4] *= 2.0 ** 40
    yield "dominant-column-2^900", dom * 2.0 ** 860, np.float64
    yield "dominant-column-2^-900", dom * 2.0 ** -940, np.float64


def _blocks(rows, *, base=None, pinned=False, choose=None):
    """The number of blocks `_max_l1` splits its enumeration of `rows` into."""
    m = rows.shape[0]
    h = (m + 1) // 2
    width = 1 << (h - pinned)
    per_block = max(1, norms._BLOCK_BYTES // rows.itemsize // (rows.shape[1] * width))
    return -(-(1 << (m - h)) // per_block)


def _enumeration_calls(w):
    """The calls `_cut_rows` (with and without zero margins) and
    `_infty_one_signs` make on the form w: (args, kwargs) each."""
    m = w.shape[0]

    def choose(masks):
        mask = norms._lex_min_mask(masks, m)
        return norms._subset_key(mask, m), mask

    yield (np.column_stack([w, w.sum(axis=1, dtype=w.dtype)]),), {"choose": choose}
    yield (w,), {"pinned": True, "choose": choose}
    yield (-2 * w,), {"base": w.sum(axis=0, dtype=w.dtype), "pinned": True}


@pytest.mark.parametrize("a, dtype",
                         [pytest.param(a, d, id=name) for name, a, d in _screen_inputs()])
def test_enumeration_matches_the_unscreened_loop_bit_for_bit(a, dtype):
    w = norms._enumeration_form(a)[0]
    assert w.dtype == dtype
    # the reference's default sum dtype widens int16: give it the same values in int64
    wide = w.astype(np.int64) if w.dtype == np.int16 else w
    for (args, kwargs), (ref_args, ref_kwargs) in zip(_enumeration_calls(w),
                                                      _enumeration_calls(wide)):
        if w.dtype != np.int16:
            # only a block after the first is screened
            assert _blocks(*args, **kwargs) > 1
        got = norms._max_l1(*args, **kwargs)
        want = _max_l1_reference(*ref_args, **ref_kwargs)
        assert type(got[0]) in (int, float)
        assert float.hex(float(got[0])) == float.hex(float(want[0]))
        assert got[1:] == want[1:]


def test_enumeration_overflow_past_the_first_block_is_a_value_error():
    # Column 0 of the high rows holds 2e307: a cut row set overflows float64
    # only with five of them, past the first block.  The screen's total T of
    # column maxima is then past the float64 range, so no block is screened.
    a = np.random.Generator(np.random.Philox(98)).standard_normal((16, 10))
    a[8:, 0] = 2e307
    w = np.column_stack([a, a.sum(axis=1)])
    assert _blocks(w) > 1
    for fn in (cut_norm_exact, infty_one_exact, analyze):
        with pytest.raises(ValueError, match="overflows"):
            fn(a)


def test_analyze_enumerates_once_at_zero_margins(monkeypatch):
    calls = []
    real = norms._max_l1

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(norms, "_max_l1", counting)
    g = paley_graph(13)
    for a, passes in ((center_regular(g.matrix, g.degree), 1), (g.matrix, 2),
                      (np.random.Generator(np.random.Philox(96)).standard_normal((6, 5)), 2)):
        calls.clear()
        report = analyze(a)
        assert len(calls) == passes
        m = a.shape[0]
        assert report.work["cut_subsets"] == (1 << m) >> (passes == 1)
        assert report.work["infty_one_signs"] == (0 if passes == 1 else 1 << (m - 1))


def test_subset_sums_match_bit_unpacking():
    rng = np.random.Generator(np.random.Philox(91))
    for rows in (rng.integers(0, 2, size=(7, 5)).astype(float),
                 rng.integers(-3, 4, size=(6, 4))):
        k = rows.shape[0]
        masks = np.arange(1 << k)
        x = (masks[:, None] >> np.arange(k)) & 1
        assert np.array_equal(norms._subset_sums(rows), x @ rows)


def test_cut_and_io1_beyond_one_table_block():
    # m = _CHUNK_BITS + 1 rows, m > n; integer entries keep the reference exact
    m = norms._CHUNK_BITS + 1
    rng = np.random.Generator(np.random.Philox(92))
    a = rng.integers(-2, 3, size=(m, 3)).astype(float)
    vals = _cut_by_matmul(a)
    best = vals.max()
    s_idx, t_idx = np.nonzero(vals == best)
    witness = min((_key(int(s), m), _key(int(t), 3)) for s, t in zip(s_idx, t_idx))
    res = cut_norm_exact(a)
    assert res.value == best
    assert res.witness == witness
    signs = 1.0 - 2.0 * ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1)
    assert infty_one_exact(a) == np.abs(signs @ a).sum(axis=1).max()
    # float path on the same shape
    g = rng.standard_normal((m, 3))
    want = _cut_by_matmul(g).max()
    assert cut_norm_exact(g).value == pytest.approx(want, rel=1e-13)
    assert infty_one_exact(g) == pytest.approx(np.abs(signs @ g).sum(axis=1).max(), rel=1e-13)


def test_cut_and_io1_single_row_and_wide():
    a = np.array([[3.0, -1.0, 2.0, 0.0]])
    res = cut_norm_exact(a)
    assert (res.value, res.witness) == (5.0, ((0,), (0, 2)))
    assert infty_one_exact(a) == 6.0
    rng = np.random.Generator(np.random.Philox(93))
    wide = rng.integers(-2, 3, size=(3, 9)).astype(float)
    assert cut_norm_exact(wide).value == _cut_by_matmul(wide).max()
    assert cut_norm_exact(wide.T).value == cut_norm_exact(wide).value
    assert infty_one_exact(wide.T) == infty_one_exact(wide)


def test_enumeration_empty_inputs_are_positive_zero():
    for shape in ((0, 3), (3, 0), (0, 0)):
        res = cut_norm_exact(np.zeros(shape))
        assert res.witness == ((), ())
        assert math.copysign(1.0, res.value) == 1.0 and res.value == 0.0
        io1 = infty_one_exact(np.zeros(shape))
        assert math.copysign(1.0, io1) == 1.0 and io1 == 0.0
    res = cut_norm_exact(np.zeros((3, 3)))
    assert math.copysign(1.0, res.value) == 1.0
    text = serial.report_to_text(analyze(np.zeros((3, 3))))
    assert '"value": -0' not in text


def test_enumeration_rejects_non_finite_and_complex():
    for bad in (np.nan, np.inf, -np.inf):
        a = np.ones((3, 3))
        a[1, 2] = bad
        for fn in (cut_norm_exact, infty_one_exact):
            with pytest.raises(ValueError, match="finite"):
                fn(a)
    c = np.ones((2, 2)) + 1j * np.eye(2)
    for fn in (cut_norm_exact, infty_one_exact):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="real"):
                fn(c)


# ---------------------------------------------------------------------------
# Grothendieck ascent and bounds


def test_bm_rank1_two_by_two_reaches_sign_optimum():
    val, assignment = grothendieck_bm(TWO, BMConfig(rank=1))
    assert val == pytest.approx(4.0, rel=1e-10)
    assert abs(assignment.objective) == pytest.approx(4.0, rel=1e-10)


def test_bm_all_ones_any_rank():
    for k in (1, 3, 8):
        val, _ = grothendieck_bm(np.ones((4, 4)), BMConfig(rank=k))
        assert val == pytest.approx(16.0, rel=1e-10)


def test_bm_centered_paley_matches_n_spectral():
    a = center_regular(paley_graph(13).matrix, 6)
    val, _ = grothendieck_bm(a, BMConfig(rank=27, restarts=8))
    target = 13 * (1 + math.sqrt(13)) / 2
    assert val == pytest.approx(target, rel=1e-9)


def test_bm_zero_matrix_short_circuits():
    val, assignment = grothendieck_bm(np.zeros((3, 3)), BMConfig(rank=2))
    assert val == 0.0
    assert assignment.objective == 0.0


def test_bm_objective_monotone_within_restart():
    rng = np.random.Generator(np.random.Philox(55))
    a = rng.standard_normal((8, 8))
    x, y = rng.standard_normal((1, 8, 4)), rng.standard_normal((1, 8, 4))
    _, _, _, (trace,) = _bm_ascent(a, x, y, 200, 1e-12)
    assert all(b >= a_ - 1e-12 for a_, b in zip(trace, trace[1:]))


# The ascent against a reference: the per-restart loop that the stacked
# ascent replaced, kept here as an oracle for bit-identical iterates.


def _reference_renormalize(w, previous):
    norms_ = np.linalg.norm(w, axis=1, keepdims=True)
    return np.where(norms_ > 0.0, w / np.maximum(norms_, 1e-300), previous)


def _reference_restart(a, k, max_sweeps, tol, rng):
    m, n = a.shape
    x = rng.standard_normal((m, k))
    x = _reference_renormalize(x, x)
    y = rng.standard_normal((n, k))
    y = _reference_renormalize(y, y)
    ay = a @ y
    trace = []
    prev = -math.inf
    obj = 0.0
    for _ in range(max_sweeps):
        x = _reference_renormalize(ay, x)
        y = _reference_renormalize(a.T @ x, y)
        ay = a @ y
        obj = float(np.sum(ay * x))
        trace.append(obj)
        if obj - prev <= tol * max(abs(obj), 1e-300):
            break
        prev = obj
    return obj, x, y, trace


def _scaled_rank(a, cfg):
    m, n = a.shape
    k = cfg.rank if cfg.rank is not None else default_bm_rank(m, n)
    e = math.frexp(float(np.abs(a).max()))[1]
    return np.ldexp(a, -e), e, k


def _reference_restarts(a, cfg):
    """Per-restart (objective, x, y, trace) of the old loop, in restart order."""
    scaled, _, k = _scaled_rank(a, cfg)
    return [_reference_restart(scaled, k, norms._BM_MAX_SWEEPS, norms._BM_TOL,
                               np.random.Generator(np.random.Philox(cfg.seed).jumped(r)))
            for r in range(cfg.restarts)]


def _reference_bm(a, cfg):
    """(value, objective, left, right) of the old loop: the first best restart wins."""
    best_obj, best_xy = -math.inf, None
    for obj, x, y, _ in _reference_restarts(a, cfg):
        if obj > best_obj:
            best_obj, best_xy = obj, (x, y)
    best_obj = math.ldexp(best_obj, _scaled_rank(a, cfg)[1])
    return abs(best_obj), best_obj, best_xy[0], best_xy[1]


def _assert_same_as_reference(a, cfg, name):
    scaled, _, k = _scaled_rank(a, cfg)
    starts = norms._bm_starts(*a.shape, k, cfg.restarts, cfg.seed)
    stacked = zip(*norms._bm_ascent(scaled, *starts, norms._BM_MAX_SWEEPS, norms._BM_TOL))
    for r, (got, want) in enumerate(zip(stacked, _reference_restarts(a, cfg), strict=True)):
        assert got[0] == want[0] and got[3] == want[3], (name, r)
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2]), (name, r)
    value, objective, left, right = _reference_bm(a, cfg)
    val, assignment = grothendieck_bm(a, cfg)
    assert (val, assignment.objective) == (value, objective), name
    assert np.array_equal(assignment.left, left), name
    assert np.array_equal(assignment.right, right), name


def _bm_corpus():
    rng = np.random.Generator(np.random.Philox(57))
    gauss = rng.standard_normal((9, 11))
    sign = rng.choice([-1.0, 1.0], size=(8, 8))
    rr = random_regular(24, 4, seed=1)
    yield "gaussian", gauss, BMConfig()
    yield "sign", sign, BMConfig()
    yield "paley13", center_regular(paley_graph(13).matrix, 6), BMConfig()
    yield "rr24", center_regular(rr.matrix, rr.degree), BMConfig()
    yield "rank1", gauss, BMConfig(rank=1)
    yield "rank_full", gauss, BMConfig(rank=25)
    yield "restarts1", sign, BMConfig(restarts=1)
    yield "restarts16", sign, BMConfig(restarts=16)
    yield "1x1", np.array([[-2.5]]), BMConfig()
    yield "1xn", rng.standard_normal((1, 7)), BMConfig()
    yield "m>n", rng.standard_normal((12, 3)), BMConfig()
    for c in (1e-300, 1e200):
        yield f"scale{c:g}", c * gauss, BMConfig()
    yield "ones", np.ones((4, 4)), BMConfig()
    # a zero row and a zero column: those rows of x and y keep their start
    holes = rng.standard_normal((6, 7))
    holes[2, :] = 0.0
    holes[:, 4] = 0.0
    yield "zero_row_and_column", holes, BMConfig()


def test_bm_stack_matches_sequential_restarts_bit_for_bit():
    for name, a, cfg in _bm_corpus():
        _assert_same_as_reference(a, cfg, name)


def test_bm_stack_ties_pick_the_first_restart():
    # rank 2 on the all-ones matrix: several restarts end on the largest
    # objective, at different vectors
    a, cfg = np.ones((4, 4)), BMConfig(rank=2)
    restarts = _reference_restarts(a, cfg)
    best = max(obj for obj, *_ in restarts)
    tied = [x for obj, x, _, _ in restarts if obj == best]
    assert len(tied) >= 2 and not np.array_equal(tied[0], tied[1])
    _assert_same_as_reference(a, cfg, "ones_rank2")


def test_bm_stack_with_restarts_cut_off_by_max_sweeps(monkeypatch):
    # with the sweep cap between the shortest and the longest restart, some
    # restarts leave the stack converged and the rest are still in it when
    # the sweeps run out
    a = np.random.Generator(np.random.Philox(58)).choice([-1.0, 1.0], size=(8, 8))
    lengths = [len(t) for *_, t in _reference_restarts(a, BMConfig())]
    cap = (min(lengths) + max(lengths)) // 2
    assert min(lengths) < cap < max(lengths)
    monkeypatch.setattr(norms, "_BM_MAX_SWEEPS", cap)
    _assert_same_as_reference(a, BMConfig(), "cut_off")


# The stack entry against the same oracle: every matrix of a stack gets the
# result of the old loop on that matrix alone.


def _assert_stack_matches_reference(mats, cfg, name):
    got = norms._grothendieck_bm_stack(mats, cfg)
    assert len(got) == len(mats), name
    for i, (a, (val, assignment)) in enumerate(zip(mats, got)):
        if np.any(a):
            value, objective, left, right = _reference_bm(a, cfg)
        else:
            k = cfg.rank if cfg.rank is not None else default_bm_rank(*a.shape)
            value = objective = 0.0
            left, right = np.zeros((a.shape[0], k)), np.zeros((a.shape[1], k))
            left[:, 0] = right[:, 0] = 1.0
        assert (val, assignment.objective) == (value, objective), (name, i)
        assert np.array_equal(assignment.left, left), (name, i)
        assert np.array_equal(assignment.right, right), (name, i)


def _assert_slots_match_reference(mats, cfg, name):
    """Every slot of one `_bm_ascent` over an (r, m, n) stack of the matrices,
    restarts of a matrix in consecutive slots, equals that restart of the
    old loop on the matrix alone: objective, x, y and the whole trace."""
    scaled = [_scaled_rank(a, cfg)[0] for a in mats]
    k = _scaled_rank(mats[0], cfg)[2]
    x, y = norms._bm_starts(*mats[0].shape, k, cfg.restarts, cfg.seed)
    c = len(mats)
    stacked = zip(*norms._bm_ascent(np.repeat(np.stack(scaled), cfg.restarts, axis=0),
                                    np.tile(x, (c, 1, 1)), np.tile(y, (c, 1, 1)),
                                    norms._BM_MAX_SWEEPS, norms._BM_TOL))
    want = [w for a in mats for w in _reference_restarts(a, cfg)]
    for slot, (got, ref) in enumerate(zip(stacked, want, strict=True)):
        assert got[0] == ref[0] and got[3] == ref[3], (name, slot)
        assert np.array_equal(got[1], ref[1]) and np.array_equal(got[2], ref[2]), (name, slot)


def _bm_stacks():
    """The `_bm_corpus` matrices grouped by shape, one stack per shape with
    more than one distinct matrix, and two more sign matrices for the 8 x 8
    stack: the 9 x 11 stack holds the Gaussian matrix at scales 1, 1e-300
    and 1e200, three different power-of-two exponents."""
    by_shape = {}
    for _, a, _ in _bm_corpus():
        group = by_shape.setdefault(a.shape, [])
        if not any(np.array_equal(a, b) for b in group):
            group.append(a)
    rng = np.random.Generator(np.random.Philox(59))
    by_shape[(8, 8)] += [rng.choice([-1.0, 1.0], size=(8, 8)) for _ in range(2)]
    return {shape: group for shape, group in by_shape.items() if len(group) > 1}


def test_bm_stack_entry_matches_each_matrix_alone():
    stacks = _bm_stacks()
    assert {(9, 11), (8, 8)} <= set(stacks)
    for shape, mats in stacks.items():
        _assert_stack_matches_reference(mats, BMConfig(), shape)
        _assert_slots_match_reference(mats, BMConfig(), shape)


@pytest.mark.parametrize("cfg", [BMConfig(restarts=1), BMConfig(restarts=16),
                                 BMConfig(rank=1), BMConfig(rank=20)],
                         ids=["restarts1", "restarts16", "rank1", "rank_full"])
def test_bm_stack_entry_at_extreme_restarts_and_ranks(cfg):
    for shape, mats in _bm_stacks().items():
        _assert_stack_matches_reference(mats, cfg, shape)
    _assert_slots_match_reference(_bm_stacks()[(9, 11)], cfg, "9x11")


def test_bm_stack_entry_with_a_zero_matrix_inside():
    mats = _bm_stacks()[(8, 8)]
    mats = [mats[0], np.zeros((8, 8)), *mats[1:], np.zeros((8, 8))]
    _assert_stack_matches_reference(mats, BMConfig(), "zeros")
    assert norms._grothendieck_bm_stack([np.zeros((3, 2))] * 2, BMConfig(rank=2))[1][0] == 0.0


def test_bm_stack_entry_ascends_one_stack_per_shape(monkeypatch):
    # interleaved shapes: the three 5 x 6 matrices ascend as one stack, the
    # lone nonzero 8 x 8 on its matrix shared by its slots, and the zero
    # 3 x 2 and 0 x 4 matrices without an ascent
    rng = np.random.Generator(np.random.Philox(60))
    gauss = [rng.standard_normal((5, 6)) for _ in range(3)]
    mats = [gauss[0], rng.choice([-1.0, 1.0], size=(8, 8)), np.zeros((3, 2)), gauss[1],
            np.zeros((0, 4)), np.zeros((8, 8)), gauss[2]]
    calls = []
    ascent = norms._bm_ascent
    monkeypatch.setattr(norms, "_bm_ascent",
                        lambda a, *rest: calls.append(a.shape) or ascent(a, *rest))
    _assert_stack_matches_reference(mats, BMConfig(), "shapes")
    assert calls == [(24, 5, 6), (8, 8)]


def test_bm_stack_entry_ascends_every_matrix_c_ordered():
    # BLAS may round products by C- and Fortran-ordered matrices differently
    # (with OpenBLAS they do at rank 1 and on 20 x 20 matrices); a
    # Fortran-ordered matrix ascends as its C-ordered copy, alone or stacked
    rng = np.random.Generator(np.random.Philox(61))
    for shape, cfg in (((7, 9), BMConfig(rank=1)), ((20, 20), BMConfig(restarts=2))):
        mats = [rng.standard_normal(shape) for _ in range(4)]
        mixed = [np.asfortranarray(a) if i % 2 else a for i, a in enumerate(mats)]
        _assert_stack_matches_reference(mats, cfg, shape)
        for a, (val, w) in zip(mats, norms._grothendieck_bm_stack(mixed, cfg)):
            for alone in (grothendieck_bm(a, cfg), grothendieck_bm(np.asfortranarray(a), cfg)):
                assert val == alone[0] and np.array_equal(w.left, alone[1].left)
                assert np.array_equal(w.right, alone[1].right)


def test_analyze_report_does_not_depend_on_memory_order():
    rng = np.random.Generator(np.random.Philox(63))
    for shape in ((20, 20), (7, 9), (12, 5)):
        a = rng.standard_normal(shape)
        want = serial.report_to_text(analyze(a))
        assert serial.report_to_text(analyze(np.asfortranarray(a))) == want, shape
        strided = np.zeros((2 * shape[0], 3 * shape[1]))[::2, ::3]
        strided[...] = a
        assert serial.report_to_text(analyze(strided)) == want, shape


def test_bm_stack_entry_mixed_shapes_equal_their_lone_calls():
    assert norms._grothendieck_bm_stack([], BMConfig()) == []
    rng = np.random.Generator(np.random.Philox(64))
    cfg = BMConfig(restarts=3)
    mats = [rng.standard_normal(shape) for shape in ((2, 3), (3, 2), (2, 3), (4, 4), (3, 2))]
    for a, (val, w) in zip(mats, norms._grothendieck_bm_stack(mats, cfg), strict=True):
        alone = grothendieck_bm(a, cfg)
        assert float.hex(val) == float.hex(alone[0])
        assert np.array_equal(w.left, alone[1].left) and np.array_equal(w.right, alone[1].right)
    with pytest.raises(ValueError, match="finite"):
        norms._grothendieck_bm_stack([np.ones((2, 2)), np.full((2, 2), np.nan)])


def test_bm_is_always_a_valid_lower_bound():
    rng = np.random.Generator(np.random.Philox(56))
    for _ in range(5):
        a = rng.standard_normal((5, 6))
        val, assignment = grothendieck_bm(a, BMConfig(rank=3, restarts=2))
        direct = abs(float(np.sum(a * (assignment.left @ assignment.right.T))))
        assert direct == pytest.approx(val, rel=1e-9)
        norms = np.linalg.norm(assignment.left, axis=1)
        assert norms.max() <= 1 + 1e-12


def test_bm_is_homogeneous_at_extreme_scales():
    # squared row norms overflow at 1e200 and underflow at 1e-300 unless the
    # ascent rescales; unscaled it returned 0 there
    rng = np.random.Generator(np.random.Philox(21))
    a = rng.standard_normal((6, 5))
    cfg = BMConfig(restarts=2)
    base, _ = grothendieck_bm(a, cfg)
    for c in SCALES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, w = grothendieck_bm(c * a, cfg)
        assert val == pytest.approx(c * base, rel=1e-9)
        assert w.objective == pytest.approx(c * base, rel=1e-9)


def test_bm_deterministic_given_seed():
    rng_a = grothendieck_bm(TWO, BMConfig(rank=3, seed=7))
    rng_b = grothendieck_bm(TWO, BMConfig(rank=3, seed=7))
    assert rng_a[0] == rng_b[0]
    assert np.array_equal(rng_a[1].left, rng_b[1].left)


def test_bm_config_validation():
    with pytest.raises(ValueError):
        BMConfig(rank=0)
    with pytest.raises(ValueError):
        BMConfig(restarts=0)
    for field, bad, message in (("seed", 1.5, "seed must be an integer, got 1.5"),
                                ("rank", 2.5, "rank must be an integer, got 2.5"),
                                ("restarts", 2.0, "restarts must be an integer, got 2.0"),
                                ("seed", "3", "seed must be an integer, got '3'"),
                                ("seed", -1, "seed must be >= 0, got -1")):
        with pytest.raises(ValueError) as exc:
            BMConfig(**{field: bad})
        assert str(exc.value) == message
    cfg = BMConfig(rank=np.int64(2), restarts=np.int32(3), seed=np.uint8(4))
    plain = BMConfig(rank=2, restarts=3, seed=4)
    assert grothendieck_bm(TWO, cfg)[0] == grothendieck_bm(TWO, plain)[0]
    assert default_bm_rank(13, 13) == min(26, math.ceil(math.sqrt(52)) + 2)


def test_vector_assignment_rejects_long_vectors():
    with pytest.raises(ValueError, match="norm"):
        VectorAssignment(left=np.full((1, 2), 1.0), right=np.eye(2), objective=0.0)


def test_bounds_two_by_two():
    bracket = grothendieck_bounds(TWO)
    assert bracket.lower == pytest.approx(4.0, abs=1e-9)
    assert bracket.upper == pytest.approx(4.0, abs=1e-9)


def test_bounds_zero():
    assert grothendieck_bounds(np.zeros((4, 4))) == Bracket(0.0, 0.0)


def test_transpose_and_permutation_invariance():
    # ||A||_inf->1, ||A|| and ||A||_G do not change under A -> A^T or A -> P A Q,
    # so every copy's bracket lies above every copy's infinity-to-one norm and
    # below every copy's upper bound (all bracket the same ||A||_G)
    rng = np.random.Generator(np.random.Philox(34))
    for a in (rng.integers(-3, 4, size=(6, 9)).astype(np.float64),
              rng.standard_normal((7, 5))):
        m, n = a.shape
        pq = a[np.ix_(rng.permutation(m), rng.permutation(n))]
        copies = (a, a.T, pq, pq.T)
        io1 = [infty_one_exact(c) for c in copies]
        spec = [spectral_norm(c) for c in copies]
        brackets = [grothendieck_bounds(c, BMConfig(restarts=2)) for c in copies]
        assert io1 == [io1[0]] * 4
        assert spec == pytest.approx([spec[0]] * 4, rel=1e-14)
        for bracket in brackets:
            for value, other in zip(io1, brackets):
                assert value <= bracket.lower <= other.upper


def test_bounds_tight_on_vertex_transitive():
    for g in (cycle_graph(8), petersen_graph()):
        a = center_regular(g.matrix, g.degree)
        cfg = BMConfig(rank=16, restarts=8)
        bracket = grothendieck_bounds(a, cfg)
        assert bracket.upper - bracket.lower <= 1e-6 * bracket.upper


# ---------------------------------------------------------------------------
# The singular-subspace witness, and the ascent it makes unnecessary on
# vertex-transitive input


def _dyadic(v):
    """The entries of a float array as Python ints N and one shift s, v = N 2^s."""
    mant, ex = np.frexp(np.asarray(v, dtype=np.float64))
    shift = int(ex.min()) - 53
    ints = (mant * 2.0 ** 53).astype(np.int64)
    out = np.empty(ints.shape, dtype=object)
    out.flat[:] = [int(i) << (int(x) - 53 - shift) for i, x in zip(ints.flat, ex.flat)]
    return out, shift


def _proved_by(a, lower, x, y) -> bool:
    """Whether lower <= |F| / (X Y) in exact arithmetic, for the objective F of
    the rows of x and y on a, and X, Y their largest row norms."""
    (aa, sa), (xx, sx), (yy, sy) = _dyadic(a), _dyadic(x), _dyadic(y)
    f = Fraction(int(((aa @ yy) * xx).sum())) * Fraction(2) ** (sa + sx + sy)
    nx = Fraction(int((xx * xx).sum(axis=1).max())) * Fraction(2) ** (2 * sx)
    ny = Fraction(int((yy * yy).sum(axis=1).max())) * Fraction(2) ** (2 * sy)
    return lower >= 0.0 and Fraction(lower) ** 2 * nx * ny <= f * f


def _no_ascent(*args, **kwargs):
    raise AssertionError("the Grothendieck ascent ran")


@pytest.mark.parametrize("g", [paley_graph(13), paley_graph(17), paley_graph(29),
                               paley_graph(37), cycle_graph(20), petersen_graph()],
                         ids=["paley13", "paley17", "paley29", "paley37", "cycle20",
                              "petersen"])
def test_transitive_input_closes_the_bracket_without_the_ascent(g, monkeypatch):
    monkeypatch.setattr(norms, "_grothendieck_bm_stack", _no_ascent)
    a = center_regular(g.matrix, g.degree)
    report = analyze(a)
    assert report.work["bm_restarts"] == 0
    # the report still echoes the configuration
    assert report.bm_restarts == 8 and report.bm_rank == default_bm_rank(g.n, g.n)
    assert report.work["bm_rank"] == report.bm_rank
    assert report.groth.upper / report.groth.lower - 1 <= norms._BM_TOL
    assert sum("ascent skipped" in note for note in report.notes) == 1
    assert report.transitive is True and report.all_passed
    assert report.assignment.objective == pytest.approx(g.n * report.spectral, rel=1e-12)
    bracket = grothendieck_bounds(a)
    assert bracket.upper / bracket.lower - 1 <= norms._BM_TOL


def test_non_transitive_input_still_ascends():
    for a in (center_regular(example1_graph(6, 20, seed=2).matrix, 6),
              np.random.Generator(np.random.Philox(65)).standard_normal((20, 20))):
        report = analyze(a)
        assert report.work["bm_restarts"] == 1
        assert report.assignment.left.shape[1] == default_bm_rank(20, 20)
        assert not any("ascent skipped" in note for note in report.notes)
        # restart 0's value goes into the bracket deflated, never raised
        value, _ = grothendieck_bm(a, BMConfig(restarts=1))
        assert value * (1 - 1e-12) <= report.groth.lower <= value


def _count_ascents(monkeypatch) -> list[int]:
    """Record the restarts of every `_grothendieck_bm_stack` call."""
    calls: list[int] = []
    stack = norms._grothendieck_bm_stack

    def counted(mats, cfg=None):
        calls.append((cfg or BMConfig()).restarts)
        return stack(mats, cfg)

    monkeypatch.setattr(norms, "_grothendieck_bm_stack", counted)
    return calls


@pytest.mark.parametrize("a", [center_regular(example1_graph(6, 20, seed=2).matrix, 6),
                               np.random.Generator(np.random.Philox(65)).standard_normal((20, 20))],
                         ids=["example1-6-20-2", "gauss20x20"])
def test_restart_zero_alone_closes_the_bracket_with_its_dual(a, monkeypatch):
    calls = _count_ascents(monkeypatch)
    report = analyze(a)
    assert calls == [1] and report.work["bm_restarts"] == 1
    assert report.bm_restarts == 8
    assert report.groth.upper / report.groth.lower - 1 <= norms._DUAL_TARGET
    assert [note for note in report.notes if note.startswith("ascent")] == [
        "ascent: restart 0 alone; the dual certificate set the upper end, proved relative "
        f"gap {report.groth.upper / report.groth.lower - 1:.2e}"]
    # restart 0 alone is slot 0 of the eight-restart stack, bit for bit
    b, e = norms._scaled(a)
    k = default_bm_rank(*a.shape)
    _, left, right, _ = _bm_ascent(b, *norms._bm_starts(*a.shape, k, 8, 0), 500, norms._BM_TOL)
    assert np.array_equal(left[0], report.assignment.left)
    assert np.array_equal(right[0], report.assignment.right)


def test_restart_zero_short_of_the_target_falls_back_to_every_restart(monkeypatch):
    # at rank 2 the ascent stops at points that are not stationary for the
    # SDP, so restart 0's dual leaves a gap of 0.33
    a = np.random.Generator(np.random.Philox(67)).standard_normal((30, 30))
    cfg = BMConfig(rank=2)
    calls = _count_ascents(monkeypatch)
    report = analyze(a, cfg)
    assert calls == [1, 8] and report.work["bm_restarts"] == 9
    assert sum("so all 8 restarts ran" in note for note in report.notes) == 1
    # the lower end is the best-of-8 ascent's, as without restart 0 alone
    _, best = grothendieck_bm(a, cfg)
    lower = norms._objective_lower(*norms._scaled(a), best.left, best.right)[0]
    assert lower > norms._subspace_witness(a)[0]
    assert float.hex(report.groth.lower) == float.hex(lower)
    assert report.assignment.objective == best.objective
    # with a single restart there is nothing to fall back to
    calls.clear()
    assert analyze(a, BMConfig(rank=2, restarts=1)).work["bm_restarts"] == 1
    assert calls == [1]


def test_dual_upper_end_scales_with_the_input():
    a = np.random.Generator(np.random.Philox(68)).standard_normal((30, 28))
    base = grothendieck_bounds(a)
    assert base.upper / base.lower - 1 <= norms._DUAL_TARGET
    b, e = norms._scaled(a)
    _, restart0 = grothendieck_bm(a, BMConfig(restarts=1))
    dual = norms._dual_upper(b, e, restart0.left, restart0.right)
    assert base.upper == dual
    for c in (1e-300, 1e200):
        bracket = grothendieck_bounds(c * a)
        assert bracket.lower == pytest.approx(c * base.lower, rel=1e-12)
        assert bracket.upper == pytest.approx(c * base.upper, rel=1e-12)
    # a power of two changes no bit of the ascent or of the dual
    for s in (-997, 664):
        assert norms._dual_upper(b, e + s, restart0.left, restart0.right) == math.ldexp(dual, s)
        bracket = grothendieck_bounds(np.ldexp(a, s))
        assert (bracket.lower, bracket.upper) == (math.ldexp(base.lower, s),
                                                  math.ldexp(base.upper, s))


def test_dual_bracket_edge_cases():
    rng = np.random.Generator(np.random.Philox(69))
    holes = rng.standard_normal((30, 30))
    holes[4] = 0.0
    holes[:, 7] = 0.0
    row, col = rng.standard_normal((1, 30)), rng.standard_normal((30, 1))
    for a in (holes, row, col, row.T @ col.T):
        bracket = grothendieck_bounds(a)
        assert 0.0 < bracket.lower <= bracket.upper
        if a is holes:
            assert bracket.upper / bracket.lower - 1 <= norms._DUAL_TARGET
        _, restart0 = grothendieck_bm(a, BMConfig(restarts=1))
        dual = norms._dual_upper(*norms._scaled(a), restart0.left, restart0.right)
        assert bracket.lower <= dual
        if min(a.shape) == 1:
            # ||a||_G = sum |a_ij| for a single row or column
            assert Fraction(bracket.lower) <= sum(map(Fraction, np.abs(a).ravel())) <= Fraction(dual)


@pytest.mark.parametrize("shape", [(2, 4000), (4000, 2)], ids=["2x4000", "4000x2"])
def test_skinny_input_closes_with_restart_zero_and_svds_of_its_own_shape(shape, monkeypatch):
    # the dual's test is one SVD of the input scaled by the multipliers, never
    # an eigenproblem of side m + n (4002^2 doubles here)
    a = np.random.Generator(np.random.Philox(70)).standard_normal(shape)
    calls = _count_ascents(monkeypatch)
    shapes = []
    svd = np.linalg.svd

    def recorded(x, *args, **kwargs):
        shapes.append(x.shape)
        return svd(x, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("no eigenproblem on this path")

    monkeypatch.setattr(np.linalg, "svd", recorded)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    report = analyze(a)
    assert calls == [1] and report.work["bm_restarts"] == 1
    assert report.groth.upper / report.groth.lower - 1 <= norms._DUAL_TARGET
    assert [note for note in report.notes if note.startswith("ascent")] == [
        "ascent: restart 0 alone; the dual certificate set the upper end, proved relative "
        f"gap {report.groth.upper / report.groth.lower - 1:.2e}"]
    # spectral norm, witness and dual: three SVDs, each of a 2 x 4000 matrix
    assert shapes == [shape] * 3


def _bench_non_transitive_inputs(seed):
    """The non-transitive analyze inputs of bench/workloads.py for one seed."""
    def rng(k):
        return np.random.Generator(np.random.Philox(seed * 1000 + k))

    for k in range(2, 10):
        yield center_regular(example1_graph(6, 20, seed=seed * 1000 + k).matrix, 6)
    for k, n in ((0, 17), (1, 17), (2, 80)):
        yield center_regular(random_regular(n, 4, seed=seed * 1000 + k).matrix, 4)
    yield np.random.Generator(np.random.Philox(0)).choice([-1.0, 1.0], size=(18, 18))
    for k, (m, n) in ((1, (19, 16)), (2, (20, 20)), (4, (20, 18)), (6, (20, 24))):
        yield rng(k).standard_normal((m, n))
    for k, (m, n) in ((3, (20, 22)), (5, (20, 20))):
        yield rng(k).choice([-1.0, 1.0], size=(m, n))


def test_bench_non_transitive_brackets_close_after_restart_zero(monkeypatch):
    # the enumeration's terms would only help: leave them out
    monkeypatch.setattr(norms, "EXACT_ENUM_LIMIT", 0)
    mats = [a for seed in (0, 1) for a in _bench_non_transitive_inputs(seed)]
    best = norms._grothendieck_bm_stack(mats, BMConfig())
    for a, (_, vectors) in zip(mats, best, strict=True):
        bracket = grothendieck_bounds(a)
        assert bracket.upper / bracket.lower - 1 <= 1e-4
        lower8 = norms._objective_lower(*norms._scaled(a), vectors.left, vectors.right)[0]
        assert abs(bracket.lower / lower8 - 1) <= 1e-7


def test_bracket_holds_the_norm_of_gaussian_outer_products():
    # fl(u v^T) keeps the sign of u_i v_j, so ||a||_G = ||a||_inf->1 = sum |a_ij|
    # exactly; the infinity-to-one recount, rounded to nearest, sat above it
    for seed in range(400):
        rng = np.random.Generator(np.random.Philox(seed))
        m, n = (int(d) for d in rng.integers(1, 7, size=2))
        a = np.outer(rng.standard_normal(m), rng.standard_normal(n))
        exact = sum(map(Fraction, np.abs(a).ravel()))
        bracket = grothendieck_bounds(a)
        assert Fraction(bracket.lower) <= exact <= Fraction(bracket.upper), seed


def test_witness_bracket_edge_cases():
    rotation = np.linalg.qr(np.random.Generator(np.random.Philox(66)).standard_normal((3, 3)))[0]
    cases = [
        # a zero row and a zero column
        (np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]), Fraction(4)),
        (np.array([[3.0, -1.5, 0.0, 2.0]]), Fraction(13, 2)),
        (np.array([[3.0], [-1.5], [0.0], [2.0]]), Fraction(13, 2)),
        (np.zeros((0, 0)), Fraction(0)),
        (1e-300 * TWO, 4 * Fraction(1e-300)),
        (3e307 * TWO, 4 * Fraction(3e307)),
        # two top singular values 1e-12 apart: the witness takes both
        (np.diag([1.0, 1.0 - 1e-12]), 1 + Fraction(1.0 - 1e-12)),
        (rotation @ np.diag([1.0, 1.0 - 1e-12, 0.25]) @ rotation.T, None),
    ]
    for a, exact in cases:
        bracket = grothendieck_bounds(a)
        assert bracket.lower <= bracket.upper
        if exact is not None:
            assert Fraction(bracket.lower) <= exact <= Fraction(bracket.upper)
        if a.any():
            lower, witness = norms._subspace_witness(a)
            assert lower <= bracket.lower and _proved_by(a, lower, witness.left, witness.right)
            if exact is not None:
                assert Fraction(lower) <= exact
    # a zero row stays zero in the witness
    _, witness = norms._subspace_witness(cases[0][0])
    assert not witness.left[2].any() and not witness.right[2].any()
    for a, _ in cases[-2:]:
        assert norms._subspace_witness(a)[1].left.shape[1] == 2


def test_lower_ends_lie_below_their_own_vectors_exact_objective():
    # the singular-subspace witness and the ascent, each through
    # _objective_lower, against the exact objective of the same vectors
    mats = [center_regular(g.matrix, g.degree) for _, g, _ in verify.transitive_suite_graphs()]
    mats += [center_regular(paley_graph(p).matrix, (p - 1) // 2) for p in (13, 17, 29, 37)]
    for a in mats:
        lower, witness = norms._subspace_witness(a)
        assert _proved_by(a, lower, witness.left, witness.right)
        _, ascent = grothendieck_bm(a)
        lower, _ = norms._objective_lower(*norms._scaled(a), ascent.left, ascent.right)
        assert _proved_by(a, lower, ascent.left, ascent.right)


def test_factor4_lower_end_is_at_most_four():
    # the ascent's float objective read 4.000000000000001; ||TWO||_G is 4
    bracket = grothendieck_bounds(TWO, BMConfig(rank=4, restarts=8, seed=0))
    assert bracket.lower <= 4.0 <= bracket.upper
    _, ascent = grothendieck_bm(TWO, BMConfig(rank=4, restarts=8, seed=0))
    assert norms._objective_lower(*norms._scaled(TWO), ascent.left, ascent.right)[0] <= 4.0


# ---------------------------------------------------------------------------
# group-function norms and witnesses


def test_group_spectral_examples():
    g = cyclic_group(5)
    assert group_spectral(GroupFunction.constant(g, 1.0)) == pytest.approx(1.0)
    z2 = cyclic_group(2)
    assert group_spectral(GroupFunction(z2, np.array([1.0, -1.0]))) == pytest.approx(1.0)
    z12 = cyclic_group(12)
    f = GroupFunction.indicator(z12, [1, 11])
    assert group_spectral(f) == pytest.approx(2 / 12, rel=1e-10)


def _group_spectral_corpus():
    """Real, complex, indicator and constant functions on five groups."""
    for spec in ("D5", "D128", "D384", "Z16xZ16", "S5"):
        g = parse_group_spec(spec)
        n = g.order
        rng = np.random.Generator(np.random.Philox(n))
        yield spec, "real", GroupFunction(g, rng.standard_normal(n))
        yield spec, "complex", GroupFunction(
            g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        yield spec, "indicator", GroupFunction.indicator(
            g, np.flatnonzero(rng.random(n) < 0.3).tolist())
        yield spec, "constant", GroupFunction.constant(g, -2.5)


def test_group_spectral_matches_the_svd():
    for spec, kind, f in _group_spectral_corpus():
        want = spectral_norm(cayley_matrix(f)) / f.group.order
        assert group_spectral(f) == pytest.approx(want, rel=1e-13, abs=0.0), (spec, kind)


def test_group_spectral_is_exactly_scale_invariant():
    for spec in ("D5", "Z16xZ16", "S5"):
        g = parse_group_spec(spec)
        rng = np.random.Generator(np.random.Philox(g.order))
        for values in (rng.standard_normal(g.order),
                       rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)):
            base = group_spectral(GroupFunction(g, values))
            for k in (-600, 600):
                # 2^k values stay normal, so the product is exact
                scaled = group_spectral(GroupFunction(g, values * 2.0**k))
                assert scaled == math.ldexp(base, k), (spec, k)


def test_group_spectral_near_the_float64_limit():
    # ||A(f)|| = 3.4e308 overflows, ||f|| = ||A(f)|| / 2 does not
    f = GroupFunction(parse_group_spec("Z2"), np.array([1.7e308, 1.7e308]))
    assert group_spectral(f) == pytest.approx(1.7e308, rel=1e-15)


def test_group_spectral_zero_and_non_finite():
    g = parse_group_spec("D5")
    assert group_spectral(GroupFunction(g, np.zeros(g.order))) == 0.0
    assert group_spectral(GroupFunction(g, np.zeros(g.order, dtype=complex))) == 0.0
    for bad in (np.nan, np.inf, complex(0.0, np.inf)):
        values = np.ones(g.order, dtype=type(bad))
        values[3] = bad
        with pytest.raises(ValueError, match="finite"):
            group_spectral(GroupFunction(g, values))


def test_translate_witness_constant():
    g = cyclic_group(4)
    one = GroupFunction.constant(g, 1.0)
    w = translate_witness(one, one, one)
    assert w.objective == pytest.approx(1.0, abs=1e-12)


def test_translate_witness_z2():
    g = cyclic_group(2)
    f = GroupFunction(g, np.array([1.0, -1.0]))
    w = translate_witness(f, f, f)  # ||f||_2 = 1 under averaging
    assert w.objective == pytest.approx(1.0, abs=1e-12)


def test_translate_witness_from_singular_pair():
    g = symmetric_group(3)
    rng = np.random.Generator(np.random.Philox(61))
    f = GroupFunction(g, rng.standard_normal(6))
    a = cayley_matrix(f)
    u, s, vt = np.linalg.svd(a)
    x = GroupFunction(g, math.sqrt(6) * u[:, 0])
    y = GroupFunction(g, math.sqrt(6) * vt[0])
    w = translate_witness(f, x, y)
    assert abs(w.objective) == pytest.approx(s[0] / 6, abs=1e-10)


def test_translate_witness_identity_is_exact():
    g = dihedral_group(3)
    rng = np.random.Generator(np.random.Philox(62))
    f = GroupFunction(g, rng.standard_normal(6))
    x = GroupFunction(g, rng.standard_normal(6))
    y = GroupFunction(g, rng.standard_normal(6))
    from cayleynorms import function_norm

    x = GroupFunction(g, x.values / function_norm(x, 2))
    y = GroupFunction(g, y.values / function_norm(y, 2))
    w = translate_witness(f, x, y)
    scalar = float(np.mean(f.values[g.ghinv] * np.outer(x.values, y.values)))
    assert abs(w.objective - scalar) <= 1e-12


def test_translate_witness_rejects_large_vectors():
    g = cyclic_group(3)
    f = GroupFunction.constant(g, 1.0)
    big = GroupFunction.constant(g, 1.1)
    with pytest.raises(ValueError, match="unit ball"):
        translate_witness(f, big, f)


# ---------------------------------------------------------------------------
# sandwich verification and reports


def test_analyze_two_by_two_report():
    report = analyze(TWO)
    assert report.cut.value == pytest.approx(1.0)
    assert report.infty_one == pytest.approx(4.0)
    assert report.spectral == pytest.approx(2.0)
    assert report.groth.lower == pytest.approx(4.0, abs=1e-9)
    assert report.groth.upper == pytest.approx(4.0, abs=1e-9)
    assert report.transitive is True
    assert report.all_passed
    names = {c.name for c in report.checks}
    assert "transitive_cut_le_n_spectral" in names


def test_analyze_all_ones_j4():
    report = analyze(np.ones((4, 4)))
    assert report.spectral == pytest.approx(4.0)
    assert report.cut.value == pytest.approx(16.0)
    assert report.infty_one == pytest.approx(16.0)
    assert report.groth.lower == pytest.approx(16.0, rel=1e-9)
    assert report.groth.upper == pytest.approx(16.0, rel=1e-9)
    assert report.all_passed


def test_analyze_capacity_noted_not_raised():
    report = analyze(np.eye(28), BMConfig(restarts=2))
    assert report.cut is None
    assert report.infty_one is None
    assert report.notes
    slack = 1e-9 * max(report.groth.upper, 1.0)
    assert report.groth.upper >= report.groth.lower - slack


def test_sandwich_chain_on_matrix_pool():
    rng = np.random.Generator(np.random.Philox(77))
    pool = [
        TWO,
        np.ones((3, 5)),
        center_regular(complete_graph(8).matrix, 7),
        rng.standard_normal((6, 9)),
        rng.integers(0, 2, size=(8, 8)).astype(float) * 2 - 1,
    ]
    for a in pool:
        report = analyze(a, BMConfig(rank=12, restarts=8))
        cut, io1 = report.cut.value, report.infty_one
        tol = 1e-9 * max(1.0, report.groth.upper)
        assert cut <= io1 + tol
        assert io1 <= 4 * cut + tol
        assert io1 <= report.groth.lower + tol
        assert report.groth.lower <= report.groth.upper + tol
        m, n = a.shape
        assert report.groth.upper <= math.sqrt(m * n) * report.spectral + tol
        assert report.groth.upper <= 1.783 * io1 + tol
        assert report.all_passed, [c.name for c in report.checks if not c.passed]


def test_verify_sandwich_corollary_only_with_certificate():
    report = analyze(np.ones((3, 5)))
    names = {c.name for c in report.checks}
    assert "transitive_cut_le_n_spectral" not in names
    checks = verify_sandwich(report)
    assert all(c.passed for c in checks)


def test_analyze_bracket_at_extreme_scales():
    rng = np.random.Generator(np.random.Philox(20))
    pool = [rng.standard_normal((5, 4)), center_regular(cycle_graph(6).matrix, 2),
            np.eye(3)]
    for a in pool:
        for c in SCALES:
            report = analyze(c * a, BMConfig(restarts=2))
            assert math.isfinite(report.groth.lower) and math.isfinite(report.groth.upper)
            assert 0.0 < report.groth.lower <= report.groth.upper
            assert report.all_passed, (c, [x.name for x in report.checks if not x.passed])
            bracket = grothendieck_bounds(c * a, BMConfig(restarts=2))
            assert 0.0 < bracket.lower <= bracket.upper


def test_spectral_upper_bound_covers_sigma_at_every_scale():
    # sigma_hat of 1e-300 I3 can round below 1e-300; the inflated bound may not
    report = analyze(1e-300 * np.eye(3))
    assert report.infty_one == 3e-300
    # ||1e-300 I3||_G is three times the double nearest 1e-300, which lies
    # below 3e-300: the infinity-to-one lower term steps one ulp down
    assert Fraction(report.groth.lower) <= 3 * Fraction(1e-300)
    assert report.groth.upper >= report.groth.lower == math.nextafter(3e-300, 0.0)
    m, n = 5, 9
    assert norms._spectral_upper(2.0, m, n) > math.sqrt(m * n) * 2.0
    assert norms._spectral_upper(2.0, m, n) <= math.sqrt(m * n) * 2.0 * (1 + 1e-13)


def test_check_tolerance_is_scale_relative():
    # an inverted bracket at tiny scale fails (an absolute floor of 1e-9 passed it)
    assert not norms._check("inverted", 3e-300, 0.0).passed
    assert not norms._check("inverted", 3e-300, 3e-300 * (1 - 1e-8)).passed
    assert norms._check("ordered", 0.0, 0.0).passed
    # the same relative gap gets the same verdict at every scale
    for lhs, rhs in ((3.0, 2.9999999999999996), (3.0, 3.0 * (1 - 1e-8))):
        verdict = norms._check("x", lhs, rhs).passed
        for c in (1e-300, 1e-150, 1e150):
            assert norms._check("x", c * lhs, c * rhs).passed == verdict


def test_report_rejects_inverted_bracket_at_any_scale():
    for lower, upper in ((3e-300, 0.0), (3.0, 3.0 * (1 - 1e-8)),
                         (3e-300, 3e-300 * (1 - 1e-8))):
        with pytest.raises(ValueError, match="inconsistent bracket"):
            Bracket(lower, upper)
    Bracket(3e-300, 3e-300)


def test_analyze_without_rows_reports_zeros():
    for shape in ((0, 0), (0, 3)):
        report = analyze(np.zeros(shape))
        assert (report.rows, report.cols) == shape
        assert report.spectral == 0.0 and report.infty_one == 0.0
        assert report.cut.value == 0.0 and report.cut.witness[0] == ()
        assert report.groth.lower == 0.0 and report.groth.upper == 0.0
        assert report.all_passed
        assert report.work["infty_one_signs"] == 0
        serial.report_to_text(report)


# ---------------------------------------------------------------------------
# The verify suites that stack their ascents and SVDs, against the
# per-matrix loops they replaced


def _suite_grothendieck_loop():
    cfg = BMConfig(rank=16, restarts=8, seed=0)
    out = []
    for name, g, _ in verify.transitive_suite_graphs():
        ac = center_regular(g.matrix, g.degree)
        ns = g.n * spectral_norm(ac)
        val, _ = grothendieck_bm(ac, cfg)
        ok = val >= (1.0 - 1e-6) * ns
        out.append(verify._check(
            f"grothendieck:{name}", ok,
            f"bm={val:.9g} n||A||={ns:.9g} relgap={(ns - val) / ns if ns else 0:.2e}",
        ))
    return out


def _suite_random_sign_loop():
    cfg = BMConfig(rank=16, restarts=8, seed=0)
    lb_fail = ub_fail = 0
    worst_lb = worst_ub = 0.0
    for i in range(100):
        rng = np.random.Generator(np.random.Philox(1000 + i))
        a = rng.integers(0, 2, size=(8, 8)).astype(np.float64) * 2.0 - 1.0
        io1 = infty_one_exact(a)
        bm, _ = grothendieck_bm(a, cfg)
        if not io1 <= bm + 1e-9:
            lb_fail += 1
        if not bm <= norms.K_G * io1 + 1e-9:
            ub_fail += 1
        worst_lb = max(worst_lb, io1 - bm)
        worst_ub = max(worst_ub, bm / (norms.K_G * io1))
    return [
        verify._check("random_sign:bm_reaches_sign_optimum", lb_fail == 0,
                      f"failures={lb_fail}/100, worst io1-bm={worst_lb:.2e}"),
        verify._check("random_sign:bm_below_kg_bound", ub_fail == 0,
                      f"failures={ub_fail}/100, worst bm/(K_G io1)={worst_ub:.4f}"),
    ]


def _suite_abelian_loop():
    out = []
    for n in range(1, 25):
        g = cyclic_group(n)
        table = build_irrep_table(g)
        rng = np.random.Generator(np.random.Philox(0))
        err = 0.0
        for _ in range(50):
            f = GroupFunction(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            cn_val = abelian_character_norm(f, table).value
            dense = group_spectral(f)
            err = max(err, abs(cn_val - dense) / max(dense, 1e-300))
        out.append(verify._check(f"abelian:Z{n}", err <= 1e-10, f"max rel err {err:.2e}"))
    return out


def _fourier_spectral_loop(spec):
    """The fourier suite's spectral_via_irreps check, one `group_spectral`
    per function; the four other draws per round are the convolution's f2."""
    g = parse_group_spec(spec)
    table = build_irrep_table(g)
    n = g.order
    rng = np.random.Generator(np.random.Philox(0))
    spec_err = 0.0
    for _ in range(50):
        f = GroupFunction(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        rng.standard_normal(n)
        rng.standard_normal(n)
        via = spectral_via_irreps(f, table)
        dense = group_spectral(f)
        spec_err = max(spec_err, abs(via - dense) / max(dense, 1e-300))
    return verify._check(f"fourier:{spec}:spectral_via_irreps", spec_err <= 1e-8,
                         f"max rel err {spec_err:.2e}")


def test_stacked_ascent_reaches_n_spectral_on_every_suite_graph():
    # the rank-16, 8-restart ascent, stacked, reaches (1 - 1e-6) n||A|| on
    # every suite graph, line for line as its per-matrix loop does
    cfg = BMConfig(rank=16, restarts=8, seed=0)
    graphs = [(name, g.n, center_regular(g.matrix, g.degree))
              for name, g, _ in verify.transitive_suite_graphs()]
    checks = []
    for (name, n, ac), (val, _) in zip(
            graphs, norms._grothendieck_bm_stack([ac for _, _, ac in graphs], cfg)):
        ns = n * spectral_norm(ac)
        checks.append(verify._check(
            f"grothendieck:{name}", val >= (1.0 - 1e-6) * ns,
            f"bm={val:.9g} n||A||={ns:.9g} relgap={(ns - val) / ns if ns else 0:.2e}",
        ))
    assert checks == _suite_grothendieck_loop()
    assert all(c.passed for c in checks)


def test_stacked_suites_equal_their_per_matrix_loops():
    assert verify.suite_random_sign() == _suite_random_sign_loop()
    assert verify.suite_abelian() == _suite_abelian_loop()
    checks = {c.name: c for c in verify.suite_fourier()}
    for spec in verify._FOURIER_GROUPS:
        want = _fourier_spectral_loop(spec)
        assert checks[want.name] == want


def test_suite_stacks_are_bit_identical_to_lone_calls():
    cfg = BMConfig(rank=16, restarts=8, seed=0)
    mats = [center_regular(g.matrix, g.degree)
            for _, g, _ in verify.transitive_suite_graphs()][:12]
    values = [val for val, _ in norms._grothendieck_bm_stack(mats, cfg)]
    assert values == [grothendieck_bm(a, cfg)[0] for a in mats]
