"""Spectral, cut, infinity-to-one and Grothendieck norms, with oracles."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cayleynorms import (
    BMConfig,
    CapacityError,
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
    grothendieck_bm,
    grothendieck_bounds,
    group_spectral,
    infty_one_exact,
    paley_graph,
    petersen_graph,
    random_regular,
    second_eigenvalue,
    spectral_norm,
    symmetric_group,
    symmetric_spectrum,
    translate_witness,
    verify_sandwich,
)
from cayleynorms import norms, serial
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
    assert res.row_set == (0,)
    assert res.col_set == (0,)


def test_cut_all_ones():
    assert cut_norm_exact(np.ones((5, 5))).value == pytest.approx(25.0)


def test_cut_centered_complete_eight():
    a = center_regular(np.ones((8, 8)) - np.eye(8), 7)
    res = cut_norm_exact(a)
    assert res.value == pytest.approx(2.0)  # max_k |k^2/8 - k| = 2
    assert res.value == pytest.approx(_cut_brute(a))
    assert len(res.row_set) == 4


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
        attained = abs(a[np.ix_(res.row_set, res.col_set)].sum())
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
    assert res.row_set == ()
    assert res.col_set == ()


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
            assert (res.row_set, res.col_set) == witness
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
        assert (res.row_set, res.col_set) == witness
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
        assert cut_norm_exact(center_regular(g.matrix, g.degree)).row_set == want


def test_zero_margin_shortcut_equals_full_enumeration():
    for n in (8, 10, 12, 14, 16):
        for d in (3, 4):
            g = random_regular(n, d, seed=n + d)
            w, zero_margins = norms._enumeration_form(center_regular(g.matrix, d))
            assert zero_margins and w.dtype == np.int64
            cut2, mask = norms._cut_rows(w, True)
            assert (cut2, mask) == norms._cut_rows(w, False)
            io1, _ = norms._infty_one_signs(w)
            assert io1 == 2 * cut2  # io1 = 4 cut with zero margins


def test_enumeration_form_covers_integer_and_centered_inputs():
    w, zero = norms._enumeration_form(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert w.dtype == np.int64 and zero
    g = paley_graph(17)
    w, zero = norms._enumeration_form(center_regular(g.matrix, g.degree))
    assert w.dtype == np.int64 and zero
    assert np.array_equal(w, 17 * g.matrix.astype(np.int64) - 8)
    # not integral for k = 1 or k = ncols: stays in float64
    a = np.array([[0.5, 1.0 / 3.0], [1.0, 0.0]])
    w, zero = norms._enumeration_form(a)
    assert w is a and not zero
    # too large for exact sums
    w, _ = norms._enumeration_form(np.full((2, 2), 2.0 ** 52))
    assert w.dtype == np.float64


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
    assert (res.row_set, res.col_set) == witness
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
    assert (res.value, res.row_set, res.col_set) == (5.0, (0,), (0, 2))
    assert infty_one_exact(a) == 6.0
    rng = np.random.Generator(np.random.Philox(93))
    wide = rng.integers(-2, 3, size=(3, 9)).astype(float)
    assert cut_norm_exact(wide).value == _cut_by_matmul(wide).max()
    assert cut_norm_exact(wide.T).value == cut_norm_exact(wide).value
    assert infty_one_exact(wide.T) == infty_one_exact(wide)


def test_enumeration_empty_inputs_are_positive_zero():
    for shape in ((0, 3), (3, 0), (0, 0)):
        res = cut_norm_exact(np.zeros(shape))
        assert (res.row_set, res.col_set) == ((), ())
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
    _, _, _, (trace,) = _bm_ascent(a, 4, 200, 1e-12, [rng])
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
    rngs = [np.random.Generator(np.random.Philox(cfg.seed).jumped(r))
            for r in range(cfg.restarts)]
    stacked = zip(*norms._bm_ascent(scaled, k, norms._BM_MAX_SWEEPS, norms._BM_TOL, rngs))
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
    assert default_bm_rank(13, 13) == min(26, math.ceil(math.sqrt(52)) + 2)


def test_vector_assignment_rejects_long_vectors():
    with pytest.raises(ValueError, match="norm"):
        VectorAssignment(left=np.full((1, 2), 1.0), right=np.eye(2), objective=0.0)


def test_bounds_two_by_two():
    lower, upper = grothendieck_bounds(TWO)
    assert lower == pytest.approx(4.0, abs=1e-9)
    assert upper == pytest.approx(4.0, abs=1e-9)


def test_bounds_zero():
    assert grothendieck_bounds(np.zeros((4, 4))) == (0.0, 0.0)


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
        for lower, _ in brackets:
            for value, (_, upper) in zip(io1, brackets):
                assert value <= lower <= upper


def test_bounds_tight_on_vertex_transitive():
    for g in (cycle_graph(8), petersen_graph()):
        a = center_regular(g.matrix, g.degree)
        cfg = BMConfig(rank=16, restarts=8)
        lower, upper = grothendieck_bounds(a, cfg)
        assert upper - lower <= 1e-6 * upper


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
    assert report.groth_lower == pytest.approx(4.0, abs=1e-9)
    assert report.groth_upper == pytest.approx(4.0, abs=1e-9)
    assert report.transitive is True
    assert report.all_passed
    names = {c.name for c in report.checks}
    assert "transitive_cut_le_n_spectral" in names


def test_analyze_all_ones_j4():
    report = analyze(np.ones((4, 4)))
    assert report.spectral == pytest.approx(4.0)
    assert report.cut.value == pytest.approx(16.0)
    assert report.infty_one == pytest.approx(16.0)
    assert report.groth_lower == pytest.approx(16.0, rel=1e-9)
    assert report.groth_upper == pytest.approx(16.0, rel=1e-9)
    assert report.all_passed


def test_analyze_capacity_noted_not_raised():
    report = analyze(np.eye(28), BMConfig(restarts=2))
    assert report.cut is None
    assert report.infty_one is None
    assert report.notes
    slack = 1e-9 * max(report.groth_upper, 1.0)
    assert report.groth_upper >= report.groth_lower - slack


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
        tol = 1e-9 * max(1.0, report.groth_upper)
        assert cut <= io1 + tol
        assert io1 <= 4 * cut + tol
        assert io1 <= report.groth_lower + tol
        assert report.groth_lower <= report.groth_upper + tol
        m, n = a.shape
        assert report.groth_upper <= math.sqrt(m * n) * report.spectral + tol
        assert report.groth_upper <= 1.783 * io1 + tol
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
            assert math.isfinite(report.groth_lower) and math.isfinite(report.groth_upper)
            assert 0.0 < report.groth_lower <= report.groth_upper
            assert report.all_passed, (c, [x.name for x in report.checks if not x.passed])
            lower, upper = grothendieck_bounds(c * a, BMConfig(restarts=2))
            assert 0.0 < lower <= upper


def test_spectral_upper_bound_covers_sigma_at_every_scale():
    # sigma_hat of 1e-300 I3 can round below 1e-300; the inflated bound may not
    report = analyze(1e-300 * np.eye(3))
    assert report.infty_one == 3e-300
    assert report.groth_upper >= report.groth_lower == 3e-300
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
    fields = dict(rows=1, cols=1, spectral=0.0, cut=None, infty_one=None,
                  bm_rank=1, bm_restarts=1)
    for lower, upper in ((3e-300, 0.0), (3.0, 3.0 * (1 - 1e-8)),
                         (3e-300, 3e-300 * (1 - 1e-8))):
        with pytest.raises(ValueError, match="inconsistent bracket"):
            norms.NormReport(groth_lower=lower, groth_upper=upper, **fields)
    norms.NormReport(groth_lower=3e-300, groth_upper=3e-300, **fields)


def test_analyze_without_rows_reports_zeros():
    for shape in ((0, 0), (0, 3)):
        report = analyze(np.zeros(shape))
        assert (report.rows, report.cols) == shape
        assert report.spectral == 0.0 and report.infty_one == 0.0
        assert report.cut.value == 0.0 and report.cut.row_set == ()
        assert report.groth_lower == 0.0 and report.groth_upper == 0.0
        assert report.all_passed
        assert report.work["infty_one_signs"] == 0
        serial.report_to_text(report)
