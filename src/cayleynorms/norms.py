"""The four matrix norms and the identities/inequalities relating them.

Spectral norm and symmetric spectra: LAPACK through numpy (svd, eigvalsh);
the dense norm of a Cayley matrix from eigvalsh of its Gram matrix.
Cut and infinity-to-one norms, and the mixing-lemma check: exact subset
enumeration (capped at EXACT_ENUM_LIMIT = 26 rows), with the inner optimum in
closed form.  Grothendieck norm: bracketed, by `_bracket` alone, between
proved lower bounds and the cheapest of three upper bounds (sqrt(mn)||A||
inflated by the SVD's backward error, K_G times the infinity-to-one norm,
and the ascent's dual certificate).  The lower terms are the
infinity-to-one norm, rounded toward zero where its recount rounded up, and
the objectives of unit vectors, deflated by `_objective_lower` by a bound
on their float evaluation error: first the singular-subspace witness (the
normalized rows of the top singular subspaces, from one SVD), which
reaches n ||A|| = ||A||_G on a vertex-transitive matrix, the paper's
corollary; then, only while the bracket is wider than the ascent's own
tolerance _BM_TOL, a low-rank block-coordinate ascent.  Its restart 0 runs
alone, and its vectors also give the dual certificate `_dual_upper`, a
weighted spectral bound (weak duality for the SDP whose value is ||A||_G,
one SVD of the input scaled by the ascent's multipliers); the other
restarts run only when that leaves the bracket wider than _DUAL_TARGET =
1e-4 relative.  Two-number inequality verdicts are `_check`'s
(1e-9 of the larger side; a side that is not finite is a ValueError saying
"overflows").  Every certified interval, the Grothendieck bracket and the
uniformity epsilon alike, is a `Bracket`, whose ends `_check` orders; so is
the exact cut norm, a one-point Bracket witnessed by (row set, column set).
Each solver has one private entry, `_exact_norms` for the enumeration and
`_grothendieck_bm_stack` (one stack per matrix shape) for the ascent; a value
computed there or in `spectral_norm` that overflows float64 is a ValueError.
The uniformity epsilon of a d-regular graph is computed on the integer
matrix n A - d J: exactly by the enumeration up to the cap, and above it
bracketed, with no ascent, between the value of one +-1 pair found by sign
updates from the top singular vectors (exact in float64) and the spectral
upper bound.

The enumeration reads each row subset's column sums as L[lo] + H[hi] from
two subset-sum tables over the low and high halves of the rows: one vector
add, abs and sum per subset.  When k * A is integral for k = 1 or k = ncols
(every 0/1 or +-1 matrix, every degree-centered graph matrix A - (d/n) J)
it runs on N = rint(k * A), in the narrowest of int16 (3 m n max|N| < 2^15),
float32 (< 2^24) and int64 in which every table entry, block sum and
maximum is an exactly represented integer, so the maximum, its ties and the
lexicographically smallest witness are decided exactly; other input is
compared in float64 as computed.  Each block after the first of every form
wider than int16 is computed in int16 first, from copies of the tables
scaled by a power of two and rounded, and the exact pass runs only when the
int16 maximum plus a proven slack of cols + 2 units reaches the best so far,
which changes no result.  When every row and column sum is exactly zero
(the paper's setting), a row set and its complement have the same cut value
|c_S|_1 / 2 and ||A||_inf->1 = 4 ||A||_cut, so the cut visits only the row
sets without row 0, and `analyze` takes both norms from that one
enumeration; the infinity-to-one norm pins row 0 on every input.
Reported values are recomputed from their witnesses with math.fsum.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .cayley import (
    AUTOMORPHISM_SEARCH_LIMIT,
    _real_matrix,
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

    Real or complex input; an empty matrix gives 0.0, and non-finite entries
    and a largest singular value that overflows float64 are a ValueError.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("spectral_norm needs a matrix")
    if not np.isfinite(a).all():
        raise ValueError("spectral_norm needs finite entries")
    if a.size == 0:
        return 0.0
    sigma = float(np.linalg.svd(a, compute_uv=False)[0])
    if not math.isfinite(sigma):
        raise ValueError("spectral_norm overflows: the largest singular value "
                         "exceeds the float64 range")
    return sigma


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

# Bytes per enumeration block: 2^16 entries of an 8-byte form, twice and four
# times as many of a float32 and an int16 one, so the narrower forms also pay
# less Python overhead per subset.  A block is at least one whole row of the
# high table (every low mask against one high mask), so past about 20 rows it
# is one to a few such rows, above this target.
_BLOCK_BYTES = 1 << 19
# k * a counts as integral when every entry is within this fraction of
# k * max|a| of an integer: a few roundings of how such matrices are built
# (d / n, then 1 - d / n).
_INTEGRAL_RTOL = 2.0 ** -50


def _enumeration_form(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """The matrix the enumeration runs on, and whether its margins are all zero.

    When k * a is integral (within _INTEGRAL_RTOL) for k = 1 or k = ncols and
    every sum the enumeration forms, at most m * n * max|k * a|, stays below
    2^53, this is N = rint(k * a): scaling by k > 0 keeps maximizers, so the
    maximum, its ties and the zero margins are decided exactly for N / k,
    the matrix that `a` rounds.  That covers every 0/1 and +-1 matrix and
    every degree-centered graph matrix A - (d/n) J.  3 m n max|N| bounds
    every table entry (|t - 2 c_S| <= 3 m max|N| per column) and every block
    sum, and picks the narrowest of three tiers in which each is exact:
    int16 below 2^15 (every +-1 and 0/1 matrix up to the enumeration cap,
    every centered graph up to 22 vertices), float32 below 2^24 (each an
    exactly represented integer), int64 beyond.  Other input is `a` itself,
    compared in float64 as computed, and never has zero margins.  `_max_l1`
    screens the blocks of every form but int16 in int16 first.
    """
    m, n = a.shape
    scale = float(np.abs(a).max())
    for k in (1, n):
        ka = k * a
        ints = np.rint(ka)
        largest = m * n * float(np.abs(ints).max())
        if (float(np.abs(ka - ints).max()) <= _INTEGRAL_RTOL * k * scale
                and largest < 2.0 ** 53):
            w = ints.astype(np.int16 if 3 * largest < 2.0 ** 15
                            else np.float32 if 3 * largest < 2.0 ** 24 else np.int64)
            return w, not w.sum(axis=0).any() and not w.sum(axis=1).any()
    return a, False


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """Table t with t[mask] = sum of rows[i] over the set bits i of mask, by doubling."""
    t = np.zeros((1 << rows.shape[0],) + rows.shape[1:], dtype=rows.dtype)
    for i, row in enumerate(rows):
        np.add(t[: 1 << i], row, out=t[1 << i: 2 << i])
    return t


# The int16 screen in front of every form wider than int16.  T is the float64
# sum over the columns of max|L| + max|H| for the low and high tables L and H
# as stored, and 2^e the power of two with X / 2 <= T / 2^e < X, where
# X = 2^15 - cols - 2, up to the rounding of T / X.  The screen reads
# Lq = rint(L / 2^e) and Hq = rint(H / 2^e) in int16, each within 1/2 of its
# scaled value: the scaling is exact except where it underflows, and there
# the entry rounds to 0 either way; an int64 entry above 2^53 is converted to
# float64 first, which moves it by at most 2^-38 units of 2^e.
# - No int16 add, abs or column sum overflows: over the columns,
#   max|Lq| + max|Hq| sums to at most T / 2^e + cols + 2^-20 < X + cols + 1
#   < 2^15.
# - For one subset, with s = sum_c |L_c + H_c| < 2^15 units, the int16 value
#   is within cols (1 + 2^-37) units of s, each column within one; the exact
#   pass's value is s on an integer form, and in float64 (one add per column,
#   cols - 1 in the sum, all rounding relatively at every scale, since a sum
#   that underflows is exact) within cols 2^-53 s, less than one unit, of s.
# So a block whose int16 maximum lies below best / 2^e - (cols + 2), which
# float64 forms to within 2^-37 units, holds no value that reaches best: the
# exact loop would discard the block anyway, and ties still reach it.  The
# screen runs only when 2 T is finite: every float64 sum is then below 2 T,
# so no skipped block hides the non-finite maximum that is the OverflowError
# below.  It also needs cols + 2 <= 2^14, so that the bar can rise above 0.


def _max_l1(rows: np.ndarray, *, base=None, pinned: bool = False,
            choose=None) -> tuple[float, int, int]:
    """Largest |base + sum of rows[i] over i in S|_1 over row subsets S, a
    chosen mask attaining it, and the first (smallest) mask attaining it; S
    never holds row 0 when pinned.

    Masks are visited in ascending order.  The chosen mask is the first one,
    unless ``choose(masks) -> (key, mask)`` picks among the tied masks of
    each block; then the mask with the smallest key wins, and a key of ()
    (the empty set, the smallest there is) ends the contest.  Every table
    and sum keeps the dtype of `rows`, which `base` shares, and the maximum
    is returned as a Python number.  The blocks after the first of every
    form but int16 are screened in int16, which changes no result.  A
    non-finite block maximum (a float64 sum overflowed) is an OverflowError.
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
    per_block = max(1, _BLOCK_BYTES // rows.itemsize // (cols * width))
    total = math.inf
    # the first block always runs exactly: only later ones are worth a screen
    if rows.dtype != np.int16 and high.shape[0] > per_block and cols + 2 <= 1 << 14:
        total = float(np.abs(low).max(axis=1).sum(dtype=np.float64)
                      + np.abs(high).max(axis=0).sum(dtype=np.float64))
    screened = math.isfinite(2 * total)
    buf = np.empty((per_block, cols, width), dtype=rows.dtype)
    if screened:
        e = math.frexp(total / ((1 << 15) - cols - 2))[1]
        low16, high16 = (np.rint(np.ldexp(t, -e)).astype(np.int16) for t in (low, high))
        # only the int16 block's maximum outlives it: it lives in buf's bytes
        buf16 = buf.reshape(-1).view(np.int16)[:buf.size].reshape(buf.shape)
    best = best_key = None
    best_mask = first_mask = 0
    for first in range(0, high.shape[0], per_block):
        count = min(per_block, high.shape[0] - first)
        if screened and best is not None:
            block = buf16[:count]
            np.add(low16, high16[first:first + count, :, None], out=block)
            np.abs(block, out=block)
            if int(block.sum(axis=1, dtype=np.int16).max()) < bar:
                continue
        block = buf[:count]
        np.add(low, high[first:first + count, :, None], out=block)
        np.abs(block, out=block)
        vals = block.sum(axis=1, dtype=rows.dtype)
        top = vals.max()
        if not math.isfinite(top):
            raise OverflowError("a subset sum overflowed float64")
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
            if screened:
                bar = math.ldexp(float(best), -e) - (cols + 2)
    return best.item(), best_mask, first_mask


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


def _cut_rows(w: np.ndarray, zero_margins: bool) -> tuple[float, int, int]:
    """Twice the cut norm of w, the lexicographically smallest row mask
    attaining it, and the first mask the enumeration found attaining it.

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
    return _max_l1(np.column_stack([w, w.sum(axis=1, dtype=w.dtype)]), choose=choose)


def _infty_one_signs(w: np.ndarray) -> tuple[float, int]:
    """The infinity-to-one norm of w and the first mask S attaining it, for
    x = 1 - 2 1_S with x_0 = +1: x^T w = t - 2 c_S for the column sums t of
    w and c_S of S.
    """
    best, mask, _ = _max_l1(-2 * w, base=w.sum(axis=0, dtype=w.dtype), pinned=True)
    return best, mask


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


def _exact_norms(a: np.ndarray, what: str, cut: bool = True, io1: bool = True,
                 lower: bool = False,
                 ) -> tuple[Optional[Bracket], Optional[float], Optional[float], bool]:
    """The cut norm (if `cut`, else None) as an exact `Bracket` whose witness
    is (row set, column set), the infinity-to-one norm (if `io1`, else None)
    of a real matrix, the same rounded toward zero where its recount rounded
    up (if `io1` and `lower`, else None; a proved lower bound for the
    Grothendieck bracket), and whether one enumeration gave both.

    Each value is recomputed with math.fsum from its witness: the row set
    and its best column set, or x = 1 - 2 1_S and y the sign pattern of
    x^T w for the enumeration form w.  With zero margins the column sums t
    of w are 0, so on every row set without row 0 the infinity-to-one
    objective |t - 2 c_S|_1 is exactly twice the cut objective |c_S|_1 on
    the same tables: the first mask attaining the cut maximum is the mask
    `_infty_one_signs` finds, and the same recompute gives the same bits.
    An empty matrix gives 0.0 and empty sets.  More than EXACT_ENUM_LIMIT
    rows is a CapacityError, and an enumeration maximum or a witness sum
    that overflows float64 a ValueError, both naming `what`.
    """
    m = a.shape[0]
    if m > EXACT_ENUM_LIMIT:
        raise CapacityError(
            f"{what} enumeration is capped at {EXACT_ENUM_LIMIT} rows (got {m}); "
            "use grothendieck_bounds for larger matrices"
        )
    cut_result = Bracket(0.0, 0.0, True, ((), ())) if cut else None
    io1_value = 0.0 if io1 else None
    io1_lower = 0.0 if io1 and lower else None
    if a.size == 0:
        return cut_result, io1_value, io1_lower, False
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            w, zero_margins = _enumeration_form(a)
            one_pass = cut and io1 and zero_margins
            if cut:
                _, mask, first = _cut_rows(w, zero_margins)
                rows = _subset_key(mask, m)
                cols = _column_witness(w[list(rows)].sum(axis=0))
                value = abs(math.fsum(a[np.ix_(rows, cols)].ravel())) if rows and cols else 0.0
                cut_result = Bracket(value, value, True, (rows, cols))
            if io1:
                if not one_pass:
                    _, first = _infty_one_signs(w)
                x = 1 - 2 * ((first >> np.arange(m)) & 1)
                y = np.where(x @ w < 0, -1, 1)
                terms = (a * np.outer(x, y)).ravel()
                total = math.fsum(terms)
                io1_value = abs(total)
                if lower:
                    # fsum rounds to nearest: step toward zero where that rounded up
                    io1_lower = io1_value
                    if math.fsum(np.append(terms if total >= 0.0 else -terms, -io1_value)) < 0.0:
                        io1_lower = math.nextafter(io1_value, 0.0)
    except OverflowError:
        raise ValueError(f"{what} enumeration overflows: a sum of entries exceeds "
                         "the float64 range") from None
    return cut_result, io1_value, io1_lower, one_pass


def cut_norm_exact(a: np.ndarray) -> Bracket:
    """Exact cut norm: max over row/column subsets of |sum of the submatrix|,
    as an exact `Bracket` whose witness is a maximizing (row set, column set).

    Enumerates the row subsets with split subset-sum tables; the inner column
    optimum is closed-form.  Ties are broken by the lexicographically
    smallest row set, then column set, decided exactly whenever
    `_enumeration_form` finds an integer form.  With zero margins only half
    the row sets are visited.  The value is recomputed from the witness with
    math.fsum, so it does not depend on summation order.  An empty matrix
    has value 0.0 and empty witness sets; more than EXACT_ENUM_LIMIT rows is
    a CapacityError, complex or non-finite input a ValueError, and so is a
    sum of entries that overflows float64.
    """
    return _exact_norms(_real_matrix(a, "cut_norm_exact"), "cut norm", io1=False)[0]


def infty_one_exact(a: np.ndarray) -> float:
    """Exact infinity-to-one norm: max of |x^T A y| over x, y with +-1 entries.

    Enumerates sign vectors x with the first entry pinned to +1 (the x <-> -x
    symmetry) with split subset-sum tables; the optimal y is the sign pattern
    of A^T x, so the inner value is the l1 norm of A^T x.  The value is
    recomputed from the sign witnesses with math.fsum.  An empty matrix has
    value 0.0; more than EXACT_ENUM_LIMIT rows is a CapacityError, complex or
    non-finite input a ValueError, and so is a sum of entries that overflows
    float64.
    """
    return _exact_norms(_real_matrix(a, "infty_one_exact"), "infinity-to-one", cut=False)[1]


# ---------------------------------------------------------------------------
# Grothendieck norm: low-rank ascent lower bound, cheap upper bounds


@dataclass(frozen=True)
class BMConfig:
    """Configuration for the low-rank block-coordinate ascent.

    ``rank=None`` selects min(m+n, ceil(sqrt(2(m+n))) + 2); rank >= m+n
    realizes the full Grothendieck norm, smaller ranks target the
    intermediate rank-k norms.  ``grothendieck_bm`` runs all ``restarts``;
    in `grothendieck_bounds` and `analyze` they are a cap: restart 0 runs
    alone, and all of them only when its dual certificate leaves the
    bracket wider than 1e-4 relative.
    """

    rank: Optional[int] = None
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        for name, least in (("rank", 1), ("restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            if name == "rank" and value is None:
                continue
            try:
                value = operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")


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
    # a masked divide is the slower loop; it is needed only with a zero row
    np.divide(w, norms, out=out, where=True if nonzero.all() else nonzero)


def _bm_starts(m: int, n: int, k: int, restarts: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The restarts' start pairs: restart r draws its x, then its y, from
    the generator ``Philox(seed)`` jumped r times.  Returns x (r, m, k) and
    y (r, n, k), not normalised."""
    x, y = np.empty((restarts, m, k)), np.empty((restarts, n, k))
    for r in range(restarts):
        rng = np.random.Generator(np.random.Philox(seed).jumped(r))
        x[r] = rng.standard_normal((m, k))
        y[r] = rng.standard_normal((n, k))
    return x, y


def _bm_ascent(a: np.ndarray, x_all: np.ndarray, y_all: np.ndarray, max_sweeps: int, tol: float):
    """Run one ascent per restart slot, all as one stack.

    Slot i starts from ``x_all[i]``, ``y_all[i]`` (r, m, k) and (r, n, k),
    normalised here, and ascends on ``a``, which is either one (m, n) matrix
    shared by every slot or an (r, m, n) stack, one matrix per slot.  A
    sweep updates the whole stack with one ``a @ y`` and one ``a.T @ x``
    (one GEMM per slot) and one renormalisation per side.  A slot leaves
    the stack at the sweep where its own stopping rule fires, swapping its
    matrix, x, y, ``a @ y`` and previous objective with the last live slot's;
    slots still in it after ``max_sweeps`` sweeps end as they stand.  Each
    slot's iterates are bit-identical to those of an ascent run alone on its
    own matrix: every GEMM is the one a lone run makes, on the same shapes
    and strides, and every other step is elementwise or reduces along one
    slot's own rows.  ``x_all``, ``y_all`` and a stacked ``a`` are
    overwritten.  Returns per-slot lists of the objective, x, y (views into
    ``x_all`` and ``y_all``) and the per-sweep objective trace.
    """
    r, m, k = x_all.shape
    n = y_all.shape[1]
    shared = a.ndim == 2
    # `carry` holds a @ y between sweeps and a.T @ x within one; `scratch`
    # holds the squares and the objective product.  Live slots occupy the
    # first slots of every buffer.
    carry, scratch = np.empty(r * max(m, n) * k), np.empty(r * max(m, n) * k)
    norms_m, norms_n = np.empty((r, m, 1)), np.empty((r, n, 1))

    def stack(c):
        cm, cn = c * m * k, c * n * k
        return (a if shared else a[:c], x_all[:c], y_all[:c],
                carry[:cm].reshape(c, m, k), carry[:cn].reshape(c, n, k),
                scratch[:cm].reshape(c, m, k), scratch[:cn].reshape(c, n, k),
                norms_m[:c], norms_n[:c])

    mat, x, y, ay, aty, sq_m, sq_n, nm, nn = stack(r)
    _renormalize(x, x, sq_m, nm)
    _renormalize(y, y, sq_n, nn)
    np.matmul(mat, y, out=ay)  # each sweep's objective product is the next sweep's x update
    objective = [0.0] * r
    traces: list[list[float]] = [[] for _ in range(r)]
    slots = list(range(r))  # the restart slot held in each stack position
    live = r
    prev = np.full(r, -np.inf)
    for _ in range(max_sweeps):
        _renormalize(ay, x, sq_m, nm)
        np.matmul(mat.swapaxes(-1, -2), x, out=aty)
        _renormalize(aty, y, sq_n, nn)
        np.matmul(mat, y, out=ay)
        np.multiply(ay, x, out=sq_m)
        obj = np.add.reduce(sq_m.reshape(live, -1), axis=1)
        for i, v in zip(slots, obj.tolist()):
            objective[i] = v
            traces[i].append(v)
        done = obj - prev <= tol * np.maximum(np.abs(obj), 1e-300)
        prev = obj
        if done.any():
            # swap each finished slot with the last live one; its matrix, x
            # and y stay in their position past the live ones
            for j in np.flatnonzero(done)[::-1].tolist():
                live -= 1
                if j != live:
                    pair, swapped = [j, live], [live, j]
                    for b in (x, y, ay, prev) if shared else (mat, x, y, ay, prev):
                        b[pair] = b[swapped]
                    slots[j], slots[live] = slots[live], slots[j]
            if not live:
                break
            prev = prev[:live]
            mat, x, y, ay, aty, sq_m, sq_n, nm, nn = stack(live)
    left: list = [None] * r
    right: list = [None] * r
    for s, i in enumerate(slots):
        left[i], right[i] = x_all[s], y_all[s]
    return objective, left, right, traces


def _grothendieck_bm_stack(
        mats, cfg: Optional[BMConfig] = None) -> list[tuple[float, VectorAssignment]]:
    """`grothendieck_bm` of each of several matrices, of any shapes.

    Returns one ``(value, VectorAssignment)`` per matrix, each bit-identical
    to ``grothendieck_bm`` of that matrix alone.  The nonzero matrices of
    one shape ascend together as one `_bm_ascent`, one stack per shape in
    order of the shape's first appearance, each matrix scaled by its own
    power of two; the restarts' start pairs are drawn once per shape and
    copied into every matrix's slots.  A shape with one nonzero matrix
    ascends on that matrix, shared by its slots.  Every matrix ascends
    C-ordered, as `_real_matrix` gives it, whatever its memory order on
    input.  An objective that overflows float64 once scaled back is a
    ValueError.
    """
    cfg = cfg or BMConfig()
    mats = [_real_matrix(a, "grothendieck_bm") for a in mats]
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, a in enumerate(mats):
        by_shape.setdefault(a.shape, []).append(i)
    r = cfg.restarts
    out: list = [None] * len(mats)
    for (m, n), idx in by_shape.items():
        k = cfg.rank if cfg.rank is not None else default_bm_rank(m, n)
        nonzero = []
        for i in idx:
            if np.any(mats[i]):
                nonzero.append(i)
            else:
                x, y = np.zeros((m, k)), np.zeros((n, k))
                x[:, 0] = 1.0
                y[:, 0] = 1.0
                out[i] = 0.0, VectorAssignment(left=x, right=y, objective=0.0)
        if not nonzero:
            continue
        # The objective is 1-homogeneous: ascend on a / 2^e with max|a| / 2^e
        # in [1/2, 1), a scaling that is exact in floating point and keeps
        # squared row norms clear of overflow and underflow at any input scale.
        exps = [math.frexp(float(np.abs(mats[i]).max()))[1] for i in nonzero]
        scaled = [np.ldexp(mats[i], -e) for i, e in zip(nonzero, exps)]
        c = len(nonzero)
        a = scaled[0] if c == 1 else np.repeat(np.stack(scaled), r, axis=0)
        x0, y0 = _bm_starts(m, n, k, r, cfg.seed)
        objective, left, right, _ = _bm_ascent(
            a, np.tile(x0, (c, 1, 1)), np.tile(y0, (c, 1, 1)), _BM_MAX_SWEEPS, _BM_TOL)
        for j, (i, e) in enumerate(zip(nonzero, exps)):
            # the first restart with the largest objective wins
            best = max(range(j * r, (j + 1) * r), key=objective.__getitem__)
            try:
                best_obj = math.ldexp(objective[best], e)
            except OverflowError:
                raise ValueError("grothendieck_bm overflows: the ascent's objective "
                                 "exceeds the float64 range") from None
            out[i] = (abs(best_obj), VectorAssignment(
                left=left[best].copy(), right=right[best].copy(), objective=best_obj))
    return out


def grothendieck_bm(a: np.ndarray, cfg: Optional[BMConfig] = None) -> tuple[float, VectorAssignment]:
    """Lower-bound the Grothendieck norm by rank-k block-coordinate ascent.

    Every iterate is feasible, so the best objective over restarts is a
    valid lower bound on ||A||_G; as an estimate of the optimum it is
    heuristic.  Restart r uses the seeded generator jumped r times, making
    the result deterministic and independent of evaluation order.  The
    ascent runs on a / 2^e with max|a| / 2^e in [1/2, 1), and the zero
    matrix gives 0 without one.  The restarts are the slots of one
    `_bm_ascent` stack sharing the matrix, one matrix product per slot and
    side per sweep; each slot leaves the stack at the sweep where its own
    stopping rule fires, so its iterates are identical to those of restarts
    run one after another, and the same as when the matrix ascends in
    `_grothendieck_bm_stack` together with others.  The first restart with
    the largest objective wins.  Complex or non-finite input is a ValueError,
    and so is a value that overflows float64.
    """
    return _grothendieck_bm_stack([a], cfg)[0]


def _scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(a / 2^e, e) with max|a| / 2^e in [1/2, 1), as `_grothendieck_bm_stack`
    scales, for a nonzero finite real matrix; the scaling is exact."""
    e = math.frexp(float(np.abs(a).max()))[1]
    return np.ldexp(a, -e), e


def _objective_lower(b: np.ndarray, e: int, x: np.ndarray,
                     y: np.ndarray) -> tuple[float, float]:
    """A proved lower bound on ||2^e b||_G from the rows of x (m x t) and y
    (n x t), and their float objective, both scaled back by 2^e; b is a
    matrix from `_scaled`.

    F = sum_i <x_i, (b y)_i> is evaluated as F_hat: b y by BLAS, then each
    row's dot product and their sum.  With u = 2^-53, k = m + n + t, X and Y
    the largest exact row norms and S = sum |b_ij| >= 1/2:
    - every product b_ij y_jk x_ik passes through at most k roundings, in
      any summation order and with or without FMA (Higham, *Accuracy and
      Stability of Numerical Algorithms*, section 3.1), so |F_hat - F| <=
      gamma_k S X Y, plus at most 2^-1074 for each of the m t (n + 1)
      products that underflows;
    - the rows divided by X and Y lie in the unit ball, so ||b||_G >=
      |F| / (X Y);
    - X^2 <= (s_x + t 2^-1074) / (1 - gamma_t) for the largest squared row
      norm s_x as computed, likewise Y^2, and S <= S_hat / (1 - gamma_{mn})
      for its float sum S_hat.
    The bound is q (1 - (t + 8) u) - (k + 2) u (1 + 4 m n u) S_hat for the
    float quotient q = |F_hat| / sqrt(s_x s_y), evaluated in float64, or 0
    when it is negative or s_x or s_y is below 2^-900 (a zero row contributes
    nothing).  The first factor covers gamma_t, the three roundings of q and
    the two of the product and the difference, so the first term stays at
    most |F_hat| / (X Y).  The second term is at least gamma_k S after its
    own three roundings while k^2 u < 1 and m n u < 1/4, and its spare 2 u
    S_hat >= u covers the underflow terms, below 2^-170 relative once s_x,
    s_y >= 2^-900.  Scaling back by 2^e is exact unless the result is
    subnormal, where one step down undoes the rounding.  A value that
    overflows float64 is a ValueError.
    """
    m, n = b.shape
    t = x.shape[1]
    value = float(np.add.reduce(np.add.reduce((b @ y) * x, axis=1)))
    sx, sy = (float(np.add.reduce(v * v, axis=1).max()) for v in (x, y))
    lower = 0.0
    if min(sx, sy) >= 2.0 ** -900:
        total = float(np.add.reduce(np.abs(b), axis=None))
        lower = max(0.0, abs(value) / math.sqrt(sx * sy) * (1.0 - (t + 8) * 2.0 ** -53)
                    - (m + n + t + 2) * 2.0 ** -53 * (1.0 + m * n * 2.0 ** -51) * total)
    try:
        lower, value = math.ldexp(lower, e), math.ldexp(value, e)
    except OverflowError:
        raise ValueError("the Grothendieck lower end overflows: it exceeds the "
                         "float64 range") from None
    if 0.0 < lower < 2.0 ** -1022:
        lower = math.nextafter(lower, 0.0)
    return lower, value


# The witness counts every singular value within this relative band of
# sigma_1 as a copy of it, far wider than the spread that rounding gives a
# repeated singular value (a few max(m, n) eps).  A wrong count weakens the
# bound but never breaks it.
_SUBSPACE_BAND = 2.0 ** -26


def _subspace_witness(a: np.ndarray) -> tuple[float, VectorAssignment]:
    """The singular-subspace witness of a nonzero real matrix: its
    `_objective_lower` and its vectors.

    From one SVD of a / 2^e, U and V (m x t and n x t) span the left and
    right singular subspaces of sigma_1, of multiplicity t; x_i = U_i /
    ||U_i|| and y_j = V_j / ||V_j||, and a zero row stays zero.  These are
    unit vectors for every matrix.  If a is vertex-transitive, U U^T commutes
    with every automorphism, so its diagonal is t / n, likewise V V^T's, and
    the objective is (n / t) tr(U^T a V) = n sigma_1 = ||a||_G (the paper's
    corollary, with its witness).
    """
    b, e = _scaled(a)
    u, s, vt = np.linalg.svd(b, full_matrices=False)
    t = int(np.count_nonzero(s >= s[0] * (1.0 - _SUBSPACE_BAND)))
    x, y = u[:, :t], vt[:t].T
    rx, ry = (np.sqrt(np.add.reduce(w * w, axis=1, keepdims=True)) for w in (x, y))
    x = np.divide(x, rx, out=np.zeros_like(x), where=rx > 0.0)
    y = np.divide(y, ry, out=np.zeros_like(y), where=ry > 0.0)
    lower, objective = _objective_lower(b, e, x, y)
    return lower, VectorAssignment(left=x, right=y, objective=objective)


def _dual_upper(b: np.ndarray, e: int, x: np.ndarray, y: np.ndarray) -> float:
    """A proved upper bound on ||2^e b||_G from the rows of x (m x k) and y
    (n x k), by a weighted spectral bound; b is a matrix from `_scaled`.

    For any positive r in R^m and c in R^n, and unit vectors x_i, y_j,
    sum b_ij <x_i, y_j> = tr(X^T C Y) with C = D_r^(-1/2) b D_c^(-1/2) and
    the rows of X, Y scaled to lengths sqrt(r_i), sqrt(c_j), so by
    Cauchy-Schwarz ||b||_G <= sigma_1(C) sqrt(sum r sum c); r = c = 1 is the
    spectral bound.  It is weak duality for the SDP whose value is ||b||_G
    with the multipliers w = (r, c) / 2 scaled until diag w - B' is positive
    semidefinite, and the ascent's stationary point makes it tight at
    r_i = ||(b y)_i||, c_j = ||(b^T x)_j|| (Burer & Monteiro 2003), taken
    as computed.  Zero rows and columns of b, which add nothing to any
    objective, are dropped, so the test is one SVD, of an m' x n' matrix; a
    kept multiplier below 2^-500 (a degenerate ascent) gives inf.

    With u = 2^-53 and N = max(m', n'), the float C_hat is C with each
    entry off by at most gamma_6 relative plus 2^-824 for an underflow (the
    reciprocal square roots are at most 2^250), so ||C - C_hat||_2 <=
    gamma_6 sqrt(min(m', n')) sigma_1(C) + 2^-824 sqrt(m' n').  The SVD's
    sigma_hat of C_hat is taken to be backward stable with the same assumed
    p = 8 N as `_spectral_upper`.  So sigma_1(C) <= (sigma_hat + 2^-823
    sqrt(m' n')) (1 + 8 N eps + 8 sqrt(min(m', n')) u), whose spare covers
    the expansions of the two divisions.  Its product with the square roots
    of the two fsums passes through eight roundings, and the factor 1 + 16u
    rounds it up past them.  The bound is at least max|b| >= 1/2, so
    scaling back by 2^e is exact unless the result is subnormal, where one
    step up undoes the rounding; a result that overflows float64 is inf,
    which the bracket rejects as overflowing.
    """
    u = 2.0 ** -53
    rows, cols = np.any(b, axis=1), np.any(b, axis=0)
    r = np.sqrt(np.add.reduce((b @ y) ** 2, axis=1))[rows]
    c = np.sqrt(np.add.reduce((b.T @ x) ** 2, axis=1))[cols]
    if min(r.min(), c.min()) < 2.0 ** -500:
        return math.inf
    kept = b[np.ix_(rows, cols)] if not (rows.all() and cols.all()) else b
    m, n = kept.shape
    sigma = float(np.linalg.svd(kept * (1.0 / np.sqrt(r))[:, None] * (1.0 / np.sqrt(c)),
                                compute_uv=False)[0])
    slack = _SVD_ERROR_PER_DIM * max(m, n) * 2 * u + 8 * math.sqrt(min(m, n)) * u
    sigma = (sigma + 2.0 ** -823 * math.sqrt(m * n)) * (1.0 + slack)
    upper = sigma * math.sqrt(math.fsum(r.tolist())) * math.sqrt(math.fsum(c.tolist()))
    try:
        upper = math.ldexp(upper * (1.0 + 16 * u), e)
    except OverflowError:
        return math.inf
    if upper < 2.0 ** -1022:
        upper = math.nextafter(upper, math.inf)
    return upper


# The ascent stops after restart 0 when its dual certificate proves the
# bracket within this relative gap; otherwise every configured restart runs.
_DUAL_TARGET = 1e-4


def _bracket(a: np.ndarray, spectral: float, io1: Optional[float], io1_lower: Optional[float],
             cfg: BMConfig, timings: dict[str, float],
             ) -> tuple[Bracket, VectorAssignment, int, Optional[str]]:
    """The bracket of `grothendieck_bounds` from computed norms (io1 None: not
    run; io1_lower: io1 rounded toward zero where its recount rounded up),
    the vectors behind its lower end, the number of ascent restarts run and
    a note on how the bracket closed.

    upper = min(`_spectral_upper`, K_G * io1); lower = max(io1_lower, the
    singular-subspace witness's `_objective_lower`).  When the relative gap
    upper / lower - 1 is then at most _BM_TOL, the ascent's own stopping
    tolerance, the ascent is skipped and the witness vectors are returned.
    Otherwise restart 0 of the ascent runs alone: its vectors give one more
    lower term through `_objective_lower` and one more upper term through
    `_dual_upper`.  When the gap is still above _DUAL_TARGET, all cfg.restarts
    restarts run as `grothendieck_bm` runs them (restart 0 among them), and
    the winner's vectors replace restart 0's in the lower end and give a
    second dual term.  The zero matrix runs `grothendieck_bm` alone, which
    ascends nothing.  The witness, the ascent and the dual record their
    seconds in `timings` under "witness", "bm" and "dual".
    """
    m, n = a.shape
    uppers = {"the spectral bound": _spectral_upper(spectral, m, n)}
    lower = 0.0
    if io1 is not None:
        lower = io1_lower
        uppers["K_G times the infinity-to-one norm"] = K_G * io1
    if not np.any(a):
        t0 = time.perf_counter()
        _, assignment = grothendieck_bm(a, cfg)
        timings["bm"] = time.perf_counter() - t0
        return Bracket(lower, min(uppers.values())), assignment, cfg.restarts, None

    def gap(low: float) -> float:
        return min(uppers.values()) / low - 1.0 if low > 0.0 else math.inf

    t0 = time.perf_counter()
    witness_lower, witness = _subspace_witness(a)
    timings["witness"] = time.perf_counter() - t0
    lower = max(lower, witness_lower)
    if gap(lower) <= _BM_TOL:
        source = ("the infinity-to-one norm" if lower == io1_lower
                  else "the singular-subspace witness")
        return Bracket(lower, min(uppers.values())), witness, 0, (
            f"ascent skipped: {source} set the lower end within {_BM_TOL:g} relative "
            f"of the upper end; the witness is the top singular subspace, "
            f"width {witness.left.shape[1]}"
        )

    b, e = _scaled(a)
    timings["bm"] = timings["dual"] = 0.0

    def ascend(restarts: int) -> tuple[float, VectorAssignment]:
        t0 = time.perf_counter()
        _, vectors = grothendieck_bm(a, replace(cfg, restarts=restarts))
        t1 = time.perf_counter()
        dual = _dual_upper(b, e, vectors.left, vectors.right)
        timings["bm"] += t1 - t0
        timings["dual"] += time.perf_counter() - t1
        uppers["the dual certificate"] = min(dual, uppers.get("the dual certificate", math.inf))
        return max(lower, _objective_lower(b, e, vectors.left, vectors.right)[0]), vectors

    ascended = 1
    low, assignment = ascend(1)
    note = "ascent: restart 0 alone; "
    if gap(low) > _DUAL_TARGET and cfg.restarts > 1:
        note = (f"ascent: restart 0's proved relative gap {gap(low):.2e} exceeded "
                f"{_DUAL_TARGET:g}, so all {cfg.restarts} restarts ran; ")
        ascended += cfg.restarts
        low, assignment = ascend(cfg.restarts)
    upper = min(uppers.values())
    source = next(name for name, value in uppers.items() if value == upper)
    note += f"{source} set the upper end, proved relative gap {gap(low):.2e}"
    return Bracket(low, upper), assignment, ascended, note


def grothendieck_bounds(a: np.ndarray, cfg: Optional[BMConfig] = None) -> Bracket:
    """A certified `Bracket` [lower, upper] for the Grothendieck norm.

    lower = max(exact infinity-to-one norm when feasible, rounded toward
    zero where its recount rounded up, the proved lower bound of the
    singular-subspace witness, and of the ascent's vectors when the ascent
    runs); upper = min(`_spectral_upper`, K_G * infinity-to-one, the second
    only when the exact enumeration is feasible, and the ascent's dual
    certificate when the ascent runs).  A cut-norm term 8 cut would never
    be the minimum, since K_G io1 <= 4 K_G cut < 8 cut.  The ascent runs
    only when the other terms leave a relative gap above _BM_TOL; on a
    vertex-transitive matrix the witness alone closes it.  Then restart 0
    runs alone, and all cfg.restarts restarts only when its dual leaves a
    gap above 1e-4.  `analyze` and the `factor4` verify suite get theirs
    from the same rule, `_bracket`.  An end that overflows float64 is a
    ValueError.
    """
    a = _real_matrix(a, "grothendieck_bounds")
    m, n = a.shape
    io1 = io1_lower = None
    if m <= EXACT_ENUM_LIMIT:
        _, io1, io1_lower, _ = _exact_norms(a, "infinity-to-one", cut=False, lower=True)
    return _bracket(a, spectral_norm(a), io1, io1_lower, cfg or BMConfig(), {})[0]


# ---------------------------------------------------------------------------
# Group-function norms and witnesses


def group_spectral(f: GroupFunction) -> float:
    """Spectral norm of a group function: ||A(f)|| / |G| (averaging scaling).

    f is scaled by a power of two to b = f / 2^e with max|b| in [1/2, 1),
    exactly, so lambda_max(B^H B) of its Cayley matrix B lies in [1/4, n^2]
    at any input scale, and ||A(f)|| = 2^e sqrt(lambda_max(B^H B)).  B^H B
    is itself a Cayley matrix, of its first column c = B^H b, so one
    matrix-vector product and one gather form it.  LAPACK's eigvalsh
    computes its eigenvalues only; the tridiagonalisation costs 4/3 n^3
    flops against the 8/3 n^3 of the SVD's bidiagonalisation.  The value
    agrees with `spectral_norm` to a few eps relative, but no backward-error
    bound is claimed, so certified bounds stay on the SVD.  At most two
    n x n matrices are alive at once, as in the SVD of A.  A non-finite
    value is a ValueError.
    """
    v = f.values
    if not np.isfinite(v).all():
        raise ValueError("group_spectral needs finite values")
    e = math.frexp(float(np.abs(v).max()))[1]
    # ldexp takes no complex input: scale the real and imaginary parts
    b = np.ldexp(v.view(np.float64), -e).view(v.dtype)
    ghinv = f.group.ghinv
    # B[:, 0] = b, so c = B^H b, and (B^H B)[g, h] = c(g h^-1)
    c = (b[ghinv].T @ b.conj()).conj()
    lam = float(np.linalg.eigvalsh(c[ghinv])[-1])
    # divide before scaling back: ||A(f)|| / n <= max|f| is representable, ||A(f)|| may not be
    return math.ldexp(math.sqrt(max(lam, 0.0)) / f.group.order, e)


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
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ValueError(f"{name} overflows: {lhs!r} <= {rhs!r} leaves the float64 range")
    tol = 1e-9 * max(abs(lhs), abs(rhs))
    return Check(name=name, lhs=float(lhs), rhs=float(rhs), tol=tol)


@dataclass(frozen=True)
class Bracket:
    """A certified interval [lower, upper] holding one value.

    ``exact`` says that the value is the lower end itself; ``witness``, when
    given, is what attains the lower end.  Ends out of order by `_check`'s
    rule, or not finite, are a ValueError.
    """

    lower: float
    upper: float
    exact: bool = False
    witness: Optional[tuple] = None

    def __post_init__(self):
        ordered = _check("bracket_ordered", self.lower, self.upper)
        if not ordered.passed:
            raise ValueError(f"inconsistent bracket: lower {ordered.lhs} > upper {ordered.rhs}")

    @property
    def value(self) -> float:
        if not self.exact:
            raise ValueError("the value was only bracketed, not computed exactly")
        return self.lower


@dataclass
class NormReport:
    """All computed norms, bounds, witnesses and verification flags for one matrix."""

    rows: int
    cols: int
    spectral: float
    cut: Optional[Bracket]
    infty_one: Optional[float]
    groth: Bracket
    bm_rank: int
    bm_restarts: int
    assignment: Optional[VectorAssignment] = None
    transitive: Optional[bool] = None
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    work: dict[str, int] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_sandwich(report: NormReport) -> list[Check]:
    """Check every applicable norm inequality of a report, recording margins.

    Failures are reported in the returned checks, never raised; a side that
    overflows float64 is a ValueError.  The vertex-transitive cut/spectral
    sandwich is checked only when the report carries a positive transitivity
    flag for a square matrix.
    """
    n = report.rows
    checks: list[Check] = []
    cut = report.cut.value if report.cut is not None else None
    io1 = report.infty_one
    if cut is not None and io1 is not None:
        checks.append(_check("cut_le_infty_one", cut, io1))
        checks.append(_check("infty_one_le_4cut", io1, 4.0 * cut))
    # Bracket already orders its ends; this entry stays for the report's bytes
    checks.append(_check("bracket_ordered", report.groth.lower, report.groth.upper))
    if io1 is not None:
        checks.append(_check("infty_one_le_groth_upper", io1, report.groth.upper))
        checks.append(_check("groth_lower_le_kg_infty_one", report.groth.lower, K_G * io1))
    if cut is not None:
        checks.append(_check("cut_le_groth_upper", cut, report.groth.upper))
        checks.append(_check("groth_lower_le_8cut", report.groth.lower, 8.0 * cut))
    if report.transitive and cut is not None and report.rows == report.cols:
        checks.append(_check("transitive_cut_le_n_spectral", cut, n * report.spectral))
        checks.append(_check("transitive_n_spectral_le_8cut", n * report.spectral, 8.0 * cut))
    return checks


def analyze(a: np.ndarray, cfg: Optional[BMConfig] = None) -> NormReport:
    """Compute every norm of a matrix and verify the sandwich inequalities.

    Capacity misses (cut and infinity-to-one above EXACT_ENUM_LIMIT rows,
    transitivity above the search limit) are recorded as notes rather than
    raised, so a report is always produced.  The Grothendieck bracket is
    `_bracket`'s, and work["bm_restarts"] counts the ascent restarts it ran,
    while bm_rank and bm_restarts still echo `cfg`.  When the bracket closes
    without the ascent, the assignment is the singular-subspace witness,
    work["bm_restarts"] is 0 and a note says which term set the lower end.
    Otherwise the assignment is restart 0's, work["bm_restarts"] is 1 and a
    note names the term that set the upper end and the proved relative gap;
    when restart 0's dual leaves a gap above 1e-4 and cfg.restarts > 1,
    every configured restart runs too, the assignment is the best one's,
    work["bm_restarts"] is 1 + cfg.restarts and the note says so.  Complex or non-finite input is a
    ValueError; a matrix without rows or columns gets a report of zeros.
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

    cut = io1 = io1_lower = None
    try:
        t0 = time.perf_counter()
        cut, io1, io1_lower, one_pass = _exact_norms(a, "cut norm", lower=True)
        timings["enumeration"] = time.perf_counter() - t0
        # the subsets and sign vectors actually visited
        work["cut_subsets"] = (1 << m) >> one_pass
        work["infty_one_signs"] = 0 if one_pass else (1 << m) >> 1
    except CapacityError as exc:
        notes.append(str(exc))

    groth, assignment, restarts, note = _bracket(a, spectral, io1, io1_lower, cfg, timings)
    k = cfg.rank if cfg.rank is not None else default_bm_rank(m, n)
    work["bm_rank"] = k
    work["bm_restarts"] = restarts
    if note is not None:
        notes.append(note)

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
        groth=groth, bm_rank=k,
        bm_restarts=cfg.restarts, assignment=assignment,
        transitive=transitive, notes=notes, work=work, timings=timings,
    )
    report.checks = verify_sandwich(report)
    return report


# ---------------------------------------------------------------------------
# Uniformity, mixing and the eigenvalue-vs-discrepancy bound


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


# The +-1 witness search above the enumeration cap starts from the signs of
# this many top left and this many top right singular vectors.
_WITNESS_STARTS = 4


def _sign(v: np.ndarray) -> np.ndarray:
    """The +-1 signs of v as float64, with sgn(0) = +1."""
    return np.where(v < 0, -1.0, 1.0)


def _sign_witness(c: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """A large value V = |x^T w y| over +-1 vectors x, y, and the x and y
    attaining it, for an n x n integer matrix w with max|w| <= n and a float
    matrix c close to a positive multiple of it.

    The starts are the signs of the top _WITNESS_STARTS left singular
    vectors of c, as x, and of its top right ones, as y, all from one LAPACK
    SVD.  From each start y = sgn(w^T x) and x = sgn(w y) alternate, all
    starts as one stack, while some start's value strictly rises; no update
    lowers a value.  The first start with the largest value wins.
    """
    u, _, vt = np.linalg.svd(c)
    # Every product is by +-1 vectors: each partial sum BLAS forms of w^T x or
    # w y, in whatever order, is an integer of magnitude at most n^2, and each
    # partial sum of an l1 norm below one at most n^3.  Both stay below 2^53
    # while n < 208,000, far past any dense n x n matrix that fits in memory,
    # so every value here is an exact integer in float64.
    k = _WITNESS_STARTS
    x = np.hstack([_sign(u[:, :k]), _sign(w @ _sign(vt[:k].T))])
    z = w.T @ x
    y, val = _sign(z), np.abs(z).sum(axis=0)
    while True:
        z = w @ y
        new = np.abs(z).sum(axis=0)
        if not (new > val).any():
            break
        x, val = _sign(z), new
        z = w.T @ x
        new = np.abs(z).sum(axis=0)
        if not (new > val).any():
            break
        y, val = _sign(z), new
    best = int(np.argmax(val))
    return float(val[best]), x[:, best], y[:, best]


def epsilon_uniformity(a: np.ndarray, d: Optional[float] = None) -> Bracket:
    """Smallest epsilon with every (S, T) discrepancy at most epsilon * d * n,
    as a `Bracket` whose witness is a pair (S, T) of vertex sets with
    discrepancy |e(S, T) - d |S| |T| / n| the lower end times d n, up to its
    rounding.

    N = n A - d J is an integer matrix whose rows and columns sum to zero,
    which `_require_regular` guarantees: it accepts only 0/1 matrices with
    every row and column sum d.  So epsilon d n = ||A - (d/n) J||_cut =
    ||N||_cut / n = ||N||_inf->1 / (4 n), and x = 1 - 2 1_S, y = 1 - 2 1_T
    give x^T N y = 4 (n e(S, T) - d |S| |T|).
    - Up to the enumeration cap epsilon is exact: ||N||_cut / (d n^2), a
      correctly rounded quotient of integers, with the cut's (row set,
      column set) as the witness.
    - Above it, it is bracketed.  The lower end is V / (4 d n^2) rounded
      down, for the V = |x^T N y| of `_sign_witness`, with S = {i: x_i = -1}
      and T = {j: y_j = -1} as the witness.  The upper end is
      (G_upper / 4 + r) / (d n) with r = 5 n^2 eps / 4, eps = 2^-52, and
      G_upper the `_spectral_upper` bound on n sigma_1(B) for the float
      matrix B that rounds C = A - (d/n) J: ||C||_cut = ||C||_inf->1 / 4 <=
      ||C||_G / 4 <= n sigma_1(C) / 4, each entry of B is within
      e = (eps / 2)(1 + eps) of C's, so sigma_1(C) <= sigma_1(B) + n e, and
      r is exact and exceeds n^2 e / 4 by more than the two roundings in
      forming the end lose, at most eps of G_upper / 4 + r <= n^2 / 2 as
      sigma_1 <= d <= n.
    Complex or non-finite input is a ValueError.
    """
    a, d = _require_regular(a, d, "epsilon_uniformity")
    n = a.shape[0]
    if d == 0 or n == 0:
        return Bracket(0.0, 0.0, True, ((), ()))
    # n A - d J: integers of magnitude at most n, exact in float64
    counts = n * a - d
    if n <= EXACT_ENUM_LIMIT:
        cut = cut_norm_exact(counts)
        eps = cut.value / (d * n * n)
        return Bracket(eps, eps, True, cut.witness)
    centered = center_regular(a, d)
    value, x, y = _sign_witness(centered, counts)
    witness = (tuple(np.flatnonzero(x < 0).tolist()), tuple(np.flatnonzero(y < 0).tolist()))
    upper = _spectral_upper(spectral_norm(centered), n, n)
    rounding = 5.0 * n * n * float(np.finfo(np.float64).eps) / 4.0
    return Bracket(math.nextafter(value / (4.0 * d * n * n), 0.0),
                   (upper / 4.0 + rounding) / (d * n), False, witness)


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
    per_block = max(1, _BLOCK_BYTES // low.itemsize // max(1, low.size))
    for first in range(0, high.shape[0], per_block):
        last = min(first + per_block, high.shape[0])
        z = low + high[first:last, None]
        z.sort(axis=-1)
        # largest[..., j - 1]: the sum of the j largest entries, for j < n
        largest = np.cumsum(z[..., :0:-1], axis=-1)
        if np.any(largest > bound[low_sizes + high_sizes[first:last, None]]):
            return False
    return True


def theorem3_check(a: np.ndarray, d: Optional[float] = None) -> tuple[Check, Bracket]:
    """The check lambda_le_8_eps_d (lhs lambda, rhs 8 epsilon d) with exact
    epsilon, and the epsilon bracket it used.  Epsilon that is only
    bracketed (above EXACT_ENUM_LIMIT vertices), complex or non-finite input
    is a ValueError, raised before any solver runs."""
    a, d = _require_regular(a, d, "theorem3_check")
    if a.shape[0] > EXACT_ENUM_LIMIT:
        raise ValueError(
            "theorem3_check needs the exact epsilon, which is only bracketed above "
            f"EXACT_ENUM_LIMIT = {EXACT_ENUM_LIMIT} vertices (got {a.shape[0]})"
        )
    lam = second_eigenvalue(a)
    eps = epsilon_uniformity(a, d)
    return _check("lambda_le_8_eps_d", lam, 8.0 * eps.value * d), eps
