"""The four matrix norms and the identities/inequalities relating them.

Spectral norm and symmetric spectra: LAPACK through numpy (svd, eigvalsh).
Cut and infinity-to-one norms, and the mixing-lemma check: exact subset
enumeration (capped at EXACT_ENUM_LIMIT = 26 rows), with the inner optimum in
closed form.  Grothendieck norm: bracketed, by `_bracket` alone, between a
low-rank block-coordinate ascent (a feasible lower bound) and the cheapest of
three upper bounds (sqrt(mn)||A|| inflated by the SVD's backward error, K_G
times the infinity-to-one norm, 8 times the cut norm).  Two-number inequality verdicts are `_check`'s (1e-9 of the larger side).

The enumeration reads each row subset's column sums as L[lo] + H[hi] from
two subset-sum tables over the low and high halves of the rows: one vector
add, abs and sum per subset.  When k * A is integral for k = 1 or k = ncols
(every 0/1 or +-1 matrix, every degree-centered graph matrix A - (d/n) J)
it runs on rint(k * A) in int64, so the maximum, its ties and the
lexicographically smallest witness are decided exactly; other input is
compared in float64 as computed.  When every row and column sum is exactly
zero (the paper's setting), a row set and its complement have the same cut
value |c_S|_1 / 2 and ||A||_inf->1 = 4 ||A||_cut, so the cut visits only the
row sets without row 0; the infinity-to-one norm pins row 0 on every input.
Reported values are recomputed from their witnesses with math.fsum.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cayley import (
    AUTOMORPHISM_SEARCH_LIMIT,
    _real_matrix,
    cayley_matrix,
    center_regular,
    find_transitive_automorphisms,
)
from .errors import CapacityError
from .groups import GroupFunction, function_norm

# Upper bound on the real Grothendieck constant (the known bound is
# pi / (2 log(1 + sqrt 2)) = 1.782...; we consume a number strictly above it).
K_G = 1.783

EXACT_ENUM_LIMIT = 26
# Rows per chunk of the former bit-unpacking enumeration.  The enumeration no
# longer uses it; bench/tracer.py derives its computed-work counters from it.
_CHUNK_BITS = 16


# ---------------------------------------------------------------------------
# Spectral norm and symmetric spectra


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value, from LAPACK's SVD (singular values only).

    Real or complex input; an empty matrix gives 0.0 and non-finite entries
    are a ValueError.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("spectral_norm needs a matrix")
    if not np.isfinite(a).all():
        raise ValueError("spectral_norm needs finite entries")
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


# LAPACK's SVD is backward stable: the computed singular values are the exact
# ones of A + E with ||E||_2 <= p(m, n) eps ||A||_2 (LAPACK Users' Guide,
# section 4.9), so by Weyl's inequality sigma_1 <= sigma_hat / (1 - p eps).
# The guide calls p(m, n) a modestly growing function of the dimensions; we
# take p = 8 max(m, n), which also covers the 1 / (1 - p eps) expansion and
# the three roundings in forming sqrt(mn) sigma_hat (1 + p eps).  Against
# 40-digit SVDs of Gaussian, +-1 and centered circulant matrices up to 32 x 35,
# sigma_hat was off by at most 2.6 eps relative.
_SVD_ERROR_PER_DIM = 8.0


def _spectral_upper(spectral: float, m: int, n: int) -> float:
    """An upper bound on sqrt(mn) sigma_1(A) >= ||A||_G from the computed
    sigma_hat = `spectral`: sqrt(mn) sigma_hat inflated by the SVD's error."""
    slack = _SVD_ERROR_PER_DIM * max(m, n) * float(np.finfo(np.float64).eps)
    return math.sqrt(m * n) * spectral * (1.0 + slack)


def symmetric_spectrum(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, from LAPACK's eigvalsh.

    Eigenvalues are returned sorted by absolute value, descending (stable
    on ties), so the second entry is the usual lambda_2 of a regular graph.
    Non-square, asymmetric (beyond 1e-12 of max|a|), complex or non-finite
    input is a ValueError.
    """
    a = _real_matrix(a, "symmetric_spectrum")
    if a.shape[0] != a.shape[1]:
        raise ValueError("symmetric_spectrum needs a square matrix")
    if a.size and float(np.abs(a - a.T).max()) > 1e-12 * float(np.abs(a).max()):
        raise ValueError("matrix is not symmetric within 1e-12 of its largest entry")
    eigs = np.linalg.eigvalsh((a + a.T) / 2.0)
    order = np.argsort(-np.abs(eigs), kind="stable")
    return eigs[order]


def second_eigenvalue(a: np.ndarray) -> float:
    """|lambda_2|: second largest eigenvalue in absolute value of a symmetric matrix."""
    spectrum = symmetric_spectrum(a)
    return float(abs(spectrum[1])) if spectrum.size > 1 else 0.0


# ---------------------------------------------------------------------------
# Exact cut and infinity-to-one norms by subset enumeration
#
# Both norms are a maximum of |c|_1 over the 2^m row subsets S, where c is a
# vector of column sums of S (with one extra column for the cut, signed sums
# for the infinity-to-one norm).  The rows split into a low half of
# h = ceil(m/2) rows and a high half; S is the mask lo | hi << h and its
# column sums are L[lo] + H[hi], read from two subset-sum tables, so each
# subset costs one vector add, abs and sum.

# Target subset-column entries per enumeration block.  A block is at least
# one whole row of the high table (every low mask against one high mask), so
# past about 20 rows it is one to a few such rows, above this target.
_BLOCK_ENTRIES = 1 << 16
# k * a counts as integral when every entry is within this fraction of
# k * max|a| of an integer: a few roundings of how such matrices are built
# (d / n, then 1 - d / n).
_INTEGRAL_RTOL = 2.0 ** -50


@dataclass(frozen=True)
class CutNormResult:
    """Exact cut norm together with a maximizing (row set, column set)."""

    value: float
    row_set: tuple[int, ...]
    col_set: tuple[int, ...]


def _enumeration_form(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """The matrix the enumeration runs on, and whether its margins are all zero.

    When k * a is integral (within _INTEGRAL_RTOL) for k = 1 or k = ncols and
    every sum the enumeration forms, at most m * n * max|k * a|, stays below
    2^53, this is N = rint(k * a) in int64: scaling by k > 0 keeps maximizers,
    so the maximum, its ties and the zero margins are decided exactly for
    N / k, the matrix that `a` rounds.  That covers every 0/1 and +-1 matrix
    and every degree-centered graph matrix A - (d/n) J.  Otherwise it is `a`
    itself, compared in float64 as computed, and never has zero margins.
    """
    m, n = a.shape
    scale = float(np.abs(a).max())
    for k in (1, n):
        ka = k * a
        ints = np.rint(ka)
        if (float(np.abs(ka - ints).max()) <= _INTEGRAL_RTOL * k * scale
                and m * n * float(np.abs(ints).max()) < 2.0 ** 53):
            w = ints.astype(np.int64)
            return w, not w.sum(axis=0).any() and not w.sum(axis=1).any()
    return a, False


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """Table t with t[mask] = sum of rows[i] over the set bits i of mask, by doubling."""
    t = np.zeros((1 << rows.shape[0],) + rows.shape[1:], dtype=rows.dtype)
    for i, row in enumerate(rows):
        np.add(t[: 1 << i], row, out=t[1 << i: 2 << i])
    return t


def _max_l1(rows: np.ndarray, *, base=None, pinned: bool = False,
            choose=None) -> tuple[float, int]:
    """Largest |base + sum of rows[i] over i in S|_1 over row subsets S, and a
    mask attaining it; S never holds row 0 when pinned.

    Masks are visited in ascending order and the first attaining one is
    returned, unless ``choose(masks) -> (key, mask)`` picks among the tied
    masks of each block; then the mask with the smallest key wins, and a key
    of () (the empty set, the smallest there is) ends the contest.
    """
    m = rows.shape[0]
    h = (m + 1) // 2
    step = 2 if pinned else 1
    low = _subset_sums(rows[:h])[::step]
    if base is not None:
        low = low + base
    # columns x low masks, so each subset's l1 norm is a sum down a column
    low = np.ascontiguousarray(low.T)
    low_masks = np.arange(0, 1 << h, step, dtype=np.int64)
    high = _subset_sums(rows[h:])
    cols, width = low.shape
    per_block = max(1, _BLOCK_ENTRIES // (cols * width))
    buf = np.empty((per_block, cols, width), dtype=rows.dtype)
    best = best_key = None
    best_mask = 0
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
        key, mask = (None, int(masks[0])) if choose is None else choose(masks)
        if best is None or top > best or key < best_key:
            best, best_key, best_mask = top, key, mask
    return best, best_mask


def _subset_key(mask: int, m: int) -> tuple[int, ...]:
    return tuple(i for i in range(m) if (mask >> i) & 1)


def _lex_min_mask(masks: np.ndarray, m: int) -> int:
    """The mask whose index set is lexicographically smallest (as a sorted tuple)."""
    cur = masks
    chosen = 0
    for i in range(m):
        if np.any(cur == chosen):
            return chosen
        bit = 1 << i
        with_bit = cur[(cur & bit) != 0]
        if with_bit.size:
            cur = with_bit
            chosen |= bit
    return chosen


def _cut_rows(w: np.ndarray, zero_margins: bool) -> tuple[float, int]:
    """Twice the cut norm of w, and the lexicographically smallest row mask
    attaining it.

    For a row set with column sums c the best column set gives
    max(sum c+, sum c-) = (|c|_1 + |sum c|) / 2, so a last column holding
    each row's sum makes twice the value one l1 norm.  With zero margins the
    complement's column sums are -c and sum c = 0: only sets without row 0
    are visited, their value is |c|_1, and each tie brings its complement.
    """
    m = w.shape[0]
    full = (1 << m) - 1

    def choose(masks):
        if zero_margins:
            masks = np.concatenate([masks, full ^ masks])
        mask = _lex_min_mask(masks, m)
        return _subset_key(mask, m), mask

    if zero_margins:
        return _max_l1(w, pinned=True, choose=choose)
    return _max_l1(np.column_stack([w, w.sum(axis=1)]), choose=choose)


def _infty_one_signs(w: np.ndarray) -> tuple[float, int]:
    """The infinity-to-one norm of w and the first mask S attaining it, for
    x = 1 - 2 1_S with x_0 = +1: x^T w = t - 2 c_S for the column sums t of
    w and c_S of S.
    """
    return _max_l1(-2 * w, base=w.sum(axis=0), pinned=True)


def _column_witness(c: np.ndarray) -> tuple[int, ...]:
    """Best column set for fixed row-set column sums c, lex-min on ties.

    The optimum is either the positive or the negative side; a zero column
    joins the set only when a later column is a genuine member, which is
    what makes the reported set lexicographically minimal.
    """
    n = c.shape[0]

    def build(member: np.ndarray) -> tuple[int, ...]:
        idx = np.nonzero(member)[0]
        if idx.size == 0:
            return ()
        last = int(idx[-1])
        return tuple(
            t for t in range(n) if member[t] or (c[t] == 0 and t < last)
        )

    pos_val = np.maximum(c, 0).sum()
    neg_val = -np.minimum(c, 0).sum()
    if pos_val > neg_val:
        return build(c > 0)
    if neg_val > pos_val:
        return build(c < 0)
    return min(build(c > 0), build(c < 0))


def cut_norm_exact(a: np.ndarray) -> CutNormResult:
    """Exact cut norm: max over row/column subsets of |sum of the submatrix|.

    Enumerates the row subsets with split subset-sum tables; the inner column
    optimum is closed-form.  Ties are broken by the lexicographically
    smallest row set, then column set, decided exactly whenever
    `_enumeration_form` finds an integer form.  With zero margins only half
    the row sets are visited.  The value is recomputed from the witness with
    math.fsum, so it does not depend on summation order.  An empty matrix
    has value 0.0 and empty witness sets; more than EXACT_ENUM_LIMIT rows is
    a CapacityError, complex or non-finite input a ValueError.
    """
    a = _real_matrix(a, "cut_norm_exact")
    m, n = a.shape
    if m > EXACT_ENUM_LIMIT:
        raise CapacityError(
            f"cut norm enumeration is capped at {EXACT_ENUM_LIMIT} rows (got {m}); "
            "use grothendieck_bounds for larger matrices"
        )
    if a.size == 0:
        return CutNormResult(value=0.0, row_set=(), col_set=())
    w, zero_margins = _enumeration_form(a)
    _, mask = _cut_rows(w, zero_margins)
    rows = _subset_key(mask, m)
    cols = _column_witness(w[list(rows)].sum(axis=0))
    value = abs(math.fsum(a[np.ix_(rows, cols)].ravel())) if rows and cols else 0.0
    return CutNormResult(value=value, row_set=rows, col_set=cols)


def infty_one_exact(a: np.ndarray) -> float:
    """Exact infinity-to-one norm: max of |x^T A y| over x, y with +-1 entries.

    Enumerates sign vectors x with the first entry pinned to +1 (the x <-> -x
    symmetry) with split subset-sum tables; the optimal y is the sign pattern
    of A^T x, so the inner value is the l1 norm of A^T x.  The value is
    recomputed from the sign witnesses with math.fsum.  An empty matrix has
    value 0.0; more than EXACT_ENUM_LIMIT rows is a CapacityError, complex or
    non-finite input a ValueError.
    """
    a = _real_matrix(a, "infty_one_exact")
    m, _ = a.shape
    if m > EXACT_ENUM_LIMIT:
        raise CapacityError(
            f"infinity-to-one enumeration is capped at {EXACT_ENUM_LIMIT} rows (got {m}); "
            "use grothendieck_bounds for larger matrices"
        )
    if a.size == 0:
        return 0.0
    w, _ = _enumeration_form(a)
    _, mask = _infty_one_signs(w)
    x = 1 - 2 * ((mask >> np.arange(m)) & 1)
    y = np.where(x @ w < 0, -1, 1)
    return abs(math.fsum((a * np.outer(x, y)).ravel()))


# ---------------------------------------------------------------------------
# Grothendieck norm: low-rank ascent lower bound, cheap upper bounds


@dataclass(frozen=True)
class BMConfig:
    """Configuration for the low-rank block-coordinate ascent.

    ``rank=None`` selects min(m+n, ceil(sqrt(2(m+n))) + 2); rank >= m+n
    realizes the full Grothendieck norm, smaller ranks target the
    intermediate rank-k norms.
    """

    rank: Optional[int] = None
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.rank is not None and self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


@dataclass(frozen=True)
class VectorAssignment:
    """Unit-ball vectors x_1..x_m, y_1..y_n and their bilinear objective."""

    left: np.ndarray
    right: np.ndarray
    objective: float

    def __post_init__(self):
        for name, arr in (("left", self.left), ("right", self.right)):
            norms = np.linalg.norm(np.atleast_2d(arr), axis=1)
            if norms.size and float(norms.max()) > 1.0 + 1e-12:
                raise ValueError(
                    f"{name} vector {int(norms.argmax())} has norm "
                    f"{float(norms.max())} > 1"
                )


# Every ascent stops after _BM_MAX_SWEEPS sweeps, or at the first sweep that
# raises its objective by at most _BM_TOL relative.
_BM_MAX_SWEEPS = 500
_BM_TOL = 1e-10


def default_bm_rank(m: int, n: int) -> int:
    return max(1, min(m + n, math.ceil(math.sqrt(2.0 * (m + n))) + 2))


def _renormalize(w: np.ndarray, out: np.ndarray, sq: np.ndarray, norms: np.ndarray) -> None:
    """Write the rows of w (last axis) scaled to unit norm into out.

    A row of w with zero norm leaves out's row as it was.  ``sq`` (w's
    shape) and ``norms`` (w's shape with a last axis of 1) are scratch, so
    that a sweep allocates nothing of the stack's size.
    """
    np.multiply(w, w, out=sq)
    np.add.reduce(sq, axis=-1, keepdims=True, out=norms)
    np.sqrt(norms, out=norms)
    nonzero = norms > 0.0
    np.maximum(norms, 1e-300, out=norms)
    np.divide(w, norms, out=out, where=nonzero)


def _bm_ascent(a: np.ndarray, k: int, max_sweeps: int, tol: float, rngs):
    """Run one ascent per generator in ``rngs``, all as one stack.

    Restart i draws its x, then its y, from ``rngs[i]``.  A sweep updates
    the whole stack with one ``a @ y`` and one ``a.T @ x`` (one GEMM per
    restart) and one renormalisation per side.  A restart leaves the stack
    at the sweep where its own stopping rule fires; restarts still in it
    after ``max_sweeps`` sweeps end as they stand.  Each restart's iterates
    are those of an ascent run on its own.  Returns per-restart lists of the
    objective, x, y (views into one stacked buffer) and the per-sweep
    objective trace.
    """
    m, n = a.shape
    r = len(rngs)
    x_all = np.empty((r, m, k))
    y_all = np.empty((r, n, k))
    for i, rng in enumerate(rngs):
        x_all[i] = rng.standard_normal((m, k))
        y_all[i] = rng.standard_normal((n, k))
    # `carry` holds a @ y between sweeps and a.T @ x within one; `scratch`
    # holds the squares and the objective product.  Live restarts occupy the
    # first slots of every buffer.
    carry, scratch = np.empty(r * max(m, n) * k), np.empty(r * max(m, n) * k)
    norms_m, norms_n = np.empty((r, m, 1)), np.empty((r, n, 1))

    def stack(c):
        cm, cn = c * m * k, c * n * k
        return (x_all[:c], y_all[:c], carry[:cm].reshape(c, m, k), carry[:cn].reshape(c, n, k),
                scratch[:cm].reshape(c, m, k), scratch[:cn].reshape(c, n, k),
                norms_m[:c], norms_n[:c])

    x, y, ay, aty, sq_m, sq_n, nm, nn = stack(r)
    _renormalize(x, x, sq_m, nm)
    _renormalize(y, y, sq_n, nn)
    np.matmul(a, y, out=ay)  # each sweep's objective product is the next sweep's x update
    objective = [0.0] * r
    traces: list[list[float]] = [[] for _ in range(r)]
    slots = list(range(r))  # the restart in each slot
    live = r
    prev = np.full(r, -np.inf)
    for _ in range(max_sweeps):
        _renormalize(ay, x, sq_m, nm)
        np.matmul(a.T, x, out=aty)
        _renormalize(aty, y, sq_n, nn)
        np.matmul(a, y, out=ay)
        np.multiply(ay, x, out=sq_m)
        obj = np.add.reduce(sq_m.reshape(live, -1), axis=1)
        for i, v in zip(slots, obj.tolist()):
            objective[i] = v
            traces[i].append(v)
        done = obj - prev <= tol * np.maximum(np.abs(obj), 1e-300)
        prev = obj
        if done.any():
            # swap each finished restart with the last live one; its x and y
            # stay in their slot past the live ones
            for j in np.flatnonzero(done)[::-1].tolist():
                live -= 1
                if j != live:
                    pair, swapped = [j, live], [live, j]
                    for b in (x, y, ay, prev):
                        b[pair] = b[swapped]
                    slots[j], slots[live] = slots[live], slots[j]
            if not live:
                break
            prev = prev[:live]
            x, y, ay, aty, sq_m, sq_n, nm, nn = stack(live)
    left: list = [None] * r
    right: list = [None] * r
    for s, i in enumerate(slots):
        left[i], right[i] = x_all[s], y_all[s]
    return objective, left, right, traces


def grothendieck_bm(a: np.ndarray, cfg: Optional[BMConfig] = None) -> tuple[float, VectorAssignment]:
    """Lower-bound the Grothendieck norm by rank-k block-coordinate ascent.

    Every iterate is feasible, so the best objective over restarts is a
    valid lower bound on ||A||_G; as an estimate of the optimum it is
    heuristic.  Restart r uses the seeded generator jumped r times, making
    the result deterministic and independent of evaluation order.  The
    restarts ascend as one stack, one matrix product per side per sweep;
    each leaves the stack at the sweep where its own stopping rule fires,
    so its iterates are identical to those of restarts run one after
    another.  The first restart with the largest objective wins.  Complex
    or non-finite input is a ValueError.
    """
    a = _real_matrix(a, "grothendieck_bm")
    cfg = cfg or BMConfig()
    m, n = a.shape
    k = cfg.rank if cfg.rank is not None else default_bm_rank(m, n)
    if not np.any(a):
        x = np.zeros((m, k))
        y = np.zeros((n, k))
        x[:, 0] = 1.0
        y[:, 0] = 1.0
        return 0.0, VectorAssignment(left=x, right=y, objective=0.0)
    # The objective is 1-homogeneous: ascend on a / 2^e with max|a| / 2^e in
    # [1/2, 1), a scaling that is exact in floating point and keeps squared
    # row norms clear of overflow and underflow at any input scale.
    e = math.frexp(float(np.abs(a).max()))[1]
    scaled = np.ldexp(a, -e)
    rngs = [np.random.Generator(np.random.Philox(cfg.seed).jumped(r)) for r in range(cfg.restarts)]
    objective, left, right, _ = _bm_ascent(scaled, k, _BM_MAX_SWEEPS, _BM_TOL, rngs)
    best = max(range(cfg.restarts), key=objective.__getitem__)
    best_obj = math.ldexp(objective[best], e)
    return abs(best_obj), VectorAssignment(left=left[best].copy(), right=right[best].copy(),
                                            objective=best_obj)


def _bracket(m: int, n: int, spectral: float, bm: float, io1: Optional[float],
             cut: Optional[CutNormResult]) -> tuple[float, float]:
    """The bracket of `grothendieck_bounds` from computed norms (None: not run)."""
    lower, upper = bm, _spectral_upper(spectral, m, n)
    if io1 is not None:
        lower, upper = max(lower, io1), min(upper, K_G * io1)
    if cut is not None:
        upper = min(upper, 8.0 * cut.value)
    return lower, upper


def grothendieck_bounds(a: np.ndarray, cfg: Optional[BMConfig] = None) -> tuple[float, float]:
    """A certified bracket [lower, upper] for the Grothendieck norm.

    lower = max(ascent value, exact infinity-to-one norm when feasible);
    upper = min(`_spectral_upper`, K_G * infinity-to-one, 8 * cut norm), the
    last two only when the exact enumerations are feasible.  `analyze` and
    the `factor4` verify suite get theirs from the same rule, `_bracket`.
    """
    a = _real_matrix(a, "grothendieck_bounds")
    m, n = a.shape
    bm, _ = grothendieck_bm(a, cfg)
    io1 = cut = None
    if m <= EXACT_ENUM_LIMIT:
        io1 = infty_one_exact(a)
        cut = cut_norm_exact(a)
    return _bracket(m, n, spectral_norm(a), bm, io1, cut)


# ---------------------------------------------------------------------------
# Group-function norms and witnesses


def group_spectral(f: GroupFunction) -> float:
    """Spectral norm of a group function: ||A(f)|| / |G| (averaging scaling)."""
    return spectral_norm(cayley_matrix(f)) / f.group.order


def translate_witness(f: GroupFunction, x: GroupFunction, y: GroupFunction) -> VectorAssignment:
    """Grothendieck witness from translates x_g(h) = x(gh), y_h(a) = y(ha).

    The vectors live in L2(G) under the averaging inner product (stored
    scaled by 1/sqrt(n) so euclidean norms coincide).  The averaging
    identity makes the vector objective equal the scalar objective
    mean f(gh^-1) x(g) y(h) term by term, so optimal scalar witnesses give
    a vector assignment achieving the spectral norm.
    """
    for other in (x, y):
        if not other.group.same_as(f.group):
            raise ValueError("witness functions must live on the same group as f")
    for name, w in (("x", x), ("y", y)):
        nw = function_norm(w, 2)
        if nw > 1.0 + 1e-9:
            raise ValueError(f"||{name}||_2 = {nw} exceeds the unit ball by more than 1e-9")
    g = f.group
    n = g.order
    scale = math.sqrt(n)
    tx = x.values[g.mul] / (scale * max(1.0, function_norm(x, 2)))
    ty = y.values[g.mul] / (scale * max(1.0, function_norm(y, 2)))
    fmat = f.values[g.ghinv]
    objective = float(np.sum(fmat * (tx @ ty.T)) / (n * n))
    return VectorAssignment(left=tx, right=ty, objective=objective)


# ---------------------------------------------------------------------------
# Reports and inequality checks


@dataclass(frozen=True)
class Check:
    """One verified inequality lhs <= rhs with its margin."""

    name: str
    lhs: float
    rhs: float
    tol: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.margin >= -self.tol


def _check(name: str, lhs: float, rhs: float) -> Check:
    tol = 1e-9 * max(abs(lhs), abs(rhs))
    return Check(name=name, lhs=float(lhs), rhs=float(rhs), tol=tol)


@dataclass
class NormReport:
    """All computed norms, bounds, witnesses and verification flags for one matrix."""

    rows: int
    cols: int
    spectral: float
    cut: Optional[CutNormResult]
    infty_one: Optional[float]
    groth_lower: float
    groth_upper: float
    bm_rank: int
    bm_restarts: int
    assignment: Optional[VectorAssignment] = None
    transitive: Optional[bool] = None
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    work: dict[str, int] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        ordered = _check("bracket_ordered", self.groth_lower, self.groth_upper)
        if not ordered.passed:
            raise ValueError(f"inconsistent bracket: lower {ordered.lhs} > upper {ordered.rhs}")

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_sandwich(report: NormReport) -> list[Check]:
    """Check every applicable norm inequality of a report, recording margins.

    Failures are reported in the returned checks, never raised.  The
    vertex-transitive cut/spectral sandwich is checked only when the report
    carries a positive transitivity flag for a square matrix.
    """
    n = report.rows
    checks: list[Check] = []
    cut = report.cut.value if report.cut is not None else None
    io1 = report.infty_one
    if cut is not None and io1 is not None:
        checks.append(_check("cut_le_infty_one", cut, io1))
        checks.append(_check("infty_one_le_4cut", io1, 4.0 * cut))
    checks.append(_check("bracket_ordered", report.groth_lower, report.groth_upper))
    if io1 is not None:
        checks.append(_check("infty_one_le_groth_upper", io1, report.groth_upper))
        checks.append(_check("groth_lower_le_kg_infty_one", report.groth_lower, K_G * io1))
    if cut is not None:
        checks.append(_check("cut_le_groth_upper", cut, report.groth_upper))
        checks.append(_check("groth_lower_le_8cut", report.groth_lower, 8.0 * cut))
    if report.transitive and cut is not None and report.rows == report.cols:
        checks.append(_check("transitive_cut_le_n_spectral", cut, n * report.spectral))
        checks.append(_check("transitive_n_spectral_le_8cut", n * report.spectral, 8.0 * cut))
    return checks


def analyze(a: np.ndarray, cfg: Optional[BMConfig] = None) -> NormReport:
    """Compute every norm of a matrix and verify the sandwich inequalities.

    Capacity misses (cut and infinity-to-one above EXACT_ENUM_LIMIT rows,
    transitivity above the search limit) are recorded as notes rather than
    raised, so a report is always produced.  Complex or non-finite input is
    a ValueError; a matrix without rows or columns gets a report of zeros.
    """
    a = _real_matrix(a, "analyze")
    m, n = a.shape
    cfg = cfg or BMConfig()
    notes: list[str] = []
    timings: dict[str, float] = {}
    work: dict[str, int] = {}

    t0 = time.perf_counter()
    spectral = spectral_norm(a)
    timings["spectral"] = time.perf_counter() - t0

    cut = None
    io1 = None
    try:
        t0 = time.perf_counter()
        cut = cut_norm_exact(a)
        timings["cut"] = time.perf_counter() - t0
        work["cut_subsets"] = 1 << m
        t0 = time.perf_counter()
        io1 = infty_one_exact(a)
        timings["infty_one"] = time.perf_counter() - t0
        work["infty_one_signs"] = (1 << m) >> 1
    except CapacityError as exc:
        notes.append(str(exc))

    t0 = time.perf_counter()
    k = cfg.rank if cfg.rank is not None else default_bm_rank(m, n)
    bm_value, assignment = grothendieck_bm(a, cfg)
    timings["bm"] = time.perf_counter() - t0
    work["bm_rank"] = k
    work["bm_restarts"] = cfg.restarts

    lower, upper = _bracket(m, n, spectral, bm_value, io1, cut)

    transitive = None
    if m == n and n <= AUTOMORPHISM_SEARCH_LIMIT:
        t0 = time.perf_counter()
        transitive = find_transitive_automorphisms(a) is not None
        timings["transitivity"] = time.perf_counter() - t0
    elif m == n:
        notes.append(
            f"transitivity not attempted: n = {n} exceeds the search cap "
            f"{AUTOMORPHISM_SEARCH_LIMIT}"
        )

    report = NormReport(
        rows=m, cols=n, spectral=spectral, cut=cut, infty_one=io1,
        groth_lower=lower, groth_upper=upper, bm_rank=k,
        bm_restarts=cfg.restarts, assignment=assignment,
        transitive=transitive, notes=notes, work=work, timings=timings,
    )
    report.checks = verify_sandwich(report)
    return report


# ---------------------------------------------------------------------------
# Uniformity, mixing and the eigenvalue-vs-discrepancy bound


@dataclass(frozen=True)
class UniformityEstimate:
    """Smallest epsilon in the uniformity definition, exact or bracketed."""

    lower: float
    upper: float
    exact: bool

    @property
    def value(self) -> float:
        if not self.exact:
            raise ValueError("epsilon was only bracketed, not computed exactly")
        return self.lower


def _require_regular(a, d: Optional[float], name: str) -> tuple[np.ndarray, float]:
    a = _real_matrix(a, name)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("adjacency matrix must be square")
    if not np.isin(a, (0.0, 1.0)).all():
        raise ValueError("adjacency matrix must be 0/1")
    rows = a.sum(axis=1)
    cols = a.sum(axis=0)
    if d is None:
        d = float(rows[0]) if n else 0.0
    if not (np.all(rows == d) and np.all(cols == d)):
        raise ValueError("matrix is not d-regular")
    return a, float(d)


def epsilon_uniformity(a: np.ndarray, d: Optional[float] = None) -> UniformityEstimate:
    """Smallest epsilon with every (S, T) discrepancy at most epsilon * d * n.

    Exact (via the cut norm of the degree-centered matrix) up to the
    enumeration cap; above it, a bracket derived from the Grothendieck
    bounds via cut <= G <= 8 cut.  Complex or non-finite input is a ValueError.
    """
    a, d = _require_regular(a, d, "epsilon_uniformity")
    n = a.shape[0]
    if d == 0 or n == 0:
        return UniformityEstimate(0.0, 0.0, True)
    centered = center_regular(a, d)
    if n <= EXACT_ENUM_LIMIT:
        eps = cut_norm_exact(centered).value / (d * n)
        return UniformityEstimate(eps, eps, True)
    lower, upper = grothendieck_bounds(centered)
    return UniformityEstimate(lower / 8.0 / (d * n), upper / (d * n), False)


def mixing_lemma_check(a: np.ndarray, d: float, lam: float) -> bool:
    """Check |e(S,T) - (d/n)|S||T|| <= lam sqrt(|S||T|) over every vertex-set pair.

    e(S,T) counts ordered adjacent pairs, so the deviation is z_S . 1_T for
    the column sums z_S of S's rows of A - (d/n) J.  The worst T of each size
    j holds the j largest or the j smallest entries of z_S, and regularity
    makes z_S sum to 0, so the j smallest sum to minus the n - j largest: one
    sort per S checks all T.  As z_{S^c} = -z_S, only the sets S without
    vertex 0 are visited, against the smaller bound of S and S^c.  They come
    in blocks from the subset-sum tables of the two halves of the vertices,
    in int64 scaled by n; the first violating block ends the check.  Above
    EXACT_ENUM_LIMIT vertices it is a CapacityError; complex or non-finite
    input, a non-finite lam included, is a ValueError.
    """
    a, d = _require_regular(a, d, "mixing_lemma_check")
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    n = a.shape[0]
    if n > EXACT_ENUM_LIMIT:
        raise CapacityError(
            f"mixing-lemma enumeration is capped at {EXACT_ENUM_LIMIT} vertices "
            f"(got {n})"
        )
    tol = 1e-9 * d  # d is an integer degree; d = 0 leaves only exact zeros
    # row i of n A - d J: n z_S is exact in int64
    rows = (n * a - d).astype(np.int64)
    h = (n + 1) // 2
    low = _subset_sums(rows[:h])[::2]
    low_sizes = _subset_sums(np.ones(h, dtype=np.int64))[::2]
    high = _subset_sums(rows[h:])
    high_sizes = _subset_sums(np.ones(n - h, dtype=np.int64))
    # bound[k, j - 1]: n (lam sqrt(k j) + tol) for the smaller sizes k of
    # S, S^c and j of T, T^c
    small = np.arange(n + 1)
    small = np.minimum(small, n - small)
    bound = n * (lam * np.sqrt(np.outer(small, small[1:n])) + tol)
    per_block = max(1, _BLOCK_ENTRIES // max(1, low.size))
    for first in range(0, high.shape[0], per_block):
        last = min(first + per_block, high.shape[0])
        z = low + high[first:last, None]
        z.sort(axis=-1)
        # largest[..., j - 1]: the sum of the j largest entries, for j < n
        largest = np.cumsum(z[..., :0:-1], axis=-1)
        if np.any(largest > bound[low_sizes + high_sizes[first:last, None]]):
            return False
    return True


@dataclass(frozen=True)
class UniformityVsEigenvalue:
    """Result of the lambda <= 8 epsilon d comparison."""

    passed: bool
    lam: float
    epsilon: float
    degree: float

    @property
    def ratio(self) -> float:
        denom = self.epsilon * self.degree
        return self.lam / denom if denom > 0 else math.inf


def theorem3_check(a: np.ndarray, d: Optional[float] = None) -> UniformityVsEigenvalue:
    """Verify lambda <= 8 epsilon d with exact epsilon and report lambda/(epsilon d);
    complex or non-finite input is a ValueError."""
    a, d = _require_regular(a, d, "theorem3_check")
    lam = second_eigenvalue(a)
    eps = epsilon_uniformity(a, d).value
    passed = _check("lambda_le_8_eps_d", lam, 8.0 * eps * d).passed
    return UniformityVsEigenvalue(passed=passed, lam=lam, epsilon=eps, degree=d)
