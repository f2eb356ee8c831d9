"""The four matrix norms and the identities/inequalities relating them.

Spectral norm and symmetric spectra: LAPACK through numpy (svd, eigvalsh).
Cut and infinity-to-one norms: exact subset enumeration (capped at 26 rows),
with the inner optimum in closed form.  Grothendieck norm: bracketed, by
`_bracket` alone, between a low-rank block-coordinate ascent (a feasible lower
bound) and the cheapest of three upper bounds (sqrt(mn)||A|| inflated by the
SVD's backward error, K_G times the infinity-to-one norm, 8 times the cut
norm).  Two-number inequality verdicts are `_check`'s (1e-9 of the larger side).

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

from .cayley import cayley_matrix, center_regular, find_transitive_automorphisms
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


def _real_matrix(a, name: str) -> np.ndarray:
    """`a` as a float64 matrix; complex or non-finite entries are a ValueError."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"{name} needs a matrix")
    if np.iscomplexobj(a):
        raise ValueError(f"{name} needs a real matrix, got dtype {a.dtype}")
    a = a.astype(np.float64, copy=False)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} needs finite entries")
    return a


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


def cut_norm_exact(a: np.ndarray, *, max_rows: int = EXACT_ENUM_LIMIT) -> CutNormResult:
    """Exact cut norm: max over row/column subsets of |sum of the submatrix|.

    Enumerates the row subsets with split subset-sum tables; the inner column
    optimum is closed-form.  Ties are broken by the lexicographically
    smallest row set, then column set, decided exactly whenever
    `_enumeration_form` finds an integer form.  With zero margins only half
    the row sets are visited.  The value is recomputed from the witness with
    math.fsum, so it does not depend on summation order.  An empty matrix
    has value 0.0 and empty witness sets; complex or non-finite input is a
    ValueError.
    """
    a = _real_matrix(a, "cut_norm_exact")
    m, n = a.shape
    if m > max_rows:
        raise CapacityError(
            f"cut norm enumeration is capped at {max_rows} rows (got {m}); "
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


def infty_one_exact(a: np.ndarray, *, max_rows: int = EXACT_ENUM_LIMIT) -> float:
    """Exact infinity-to-one norm: max of |x^T A y| over x, y with +-1 entries.

    Enumerates sign vectors x with the first entry pinned to +1 (the x <-> -x
    symmetry) with split subset-sum tables; the optimal y is the sign pattern
    of A^T x, so the inner value is the l1 norm of A^T x.  The value is
    recomputed from the sign witnesses with math.fsum.  An empty matrix has
    value 0.0; complex or non-finite input is a ValueError.
    """
    a = _real_matrix(a, "infty_one_exact")
    m, _ = a.shape
    if m > max_rows:
        raise CapacityError(
            f"infinity-to-one enumeration is capped at {max_rows} rows (got {m}); "
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
    max_sweeps: int = 500
    tol: float = 1e-10
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


def default_bm_rank(m: int, n: int) -> int:
    return max(1, min(m + n, math.ceil(math.sqrt(2.0 * (m + n))) + 2))


def _unit_rows(w: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    return w / np.maximum(norms, 1e-300)


def _renormalize(w: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Normalize rows of w; rows that sum to zero keep their previous vector."""
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    return np.where(norms > 0.0, w / np.maximum(norms, 1e-300), previous)


def _bm_restart(a: np.ndarray, k: int, max_sweeps: int, tol: float, rng):
    """One ascent run; returns (objective, x, y, per-sweep objective trace)."""
    m, n = a.shape
    x = _unit_rows(rng.standard_normal((m, k)))
    y = _unit_rows(rng.standard_normal((n, k)))
    trace: list[float] = []
    prev = -math.inf
    obj = 0.0
    for _ in range(max_sweeps):
        x = _renormalize(a @ y, x)
        y = _renormalize(a.T @ x, y)
        obj = float(np.sum((a @ y) * x))
        trace.append(obj)
        if obj - prev <= tol * max(abs(obj), 1e-300):
            break
        prev = obj
    return obj, x, y, trace


def grothendieck_bm(a: np.ndarray, cfg: Optional[BMConfig] = None) -> tuple[float, VectorAssignment]:
    """Lower-bound the Grothendieck norm by rank-k block-coordinate ascent.

    Every iterate is feasible, so the best objective over restarts is a
    valid lower bound on ||A||_G; as an estimate of the optimum it is
    heuristic.  Restart r uses the seeded generator jumped r times, making
    the result deterministic and independent of evaluation order.  Complex
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
    best_obj = -math.inf
    best_xy = None
    for r in range(cfg.restarts):
        rng = np.random.Generator(np.random.Philox(cfg.seed).jumped(r))
        obj, x, y, _ = _bm_restart(scaled, k, cfg.max_sweeps, cfg.tol, rng)
        if obj > best_obj:
            best_obj = obj
            best_xy = (x, y)
    x, y = best_xy
    best_obj = math.ldexp(best_obj, e)
    return abs(best_obj), VectorAssignment(left=x, right=y, objective=best_obj)


def _bracket(m: int, n: int, spectral: float, bm: float, io1: Optional[float],
             cut: Optional[CutNormResult]) -> tuple[float, float]:
    """The bracket of `grothendieck_bounds` from computed norms (None: not run)."""
    lower, upper = bm, _spectral_upper(spectral, m, n)
    if io1 is not None:
        lower, upper = max(lower, io1), min(upper, K_G * io1)
    if cut is not None:
        upper = min(upper, 8.0 * cut.value)
    return lower, upper


def grothendieck_bounds(a: np.ndarray, cfg: Optional[BMConfig] = None, *,
                        exact_limit: int = EXACT_ENUM_LIMIT) -> tuple[float, float]:
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
    if m <= exact_limit:
        io1 = infty_one_exact(a, max_rows=exact_limit)
        cut = cut_norm_exact(a, max_rows=exact_limit)
    return _bracket(m, n, spectral_norm(a), bm, io1, cut)


# ---------------------------------------------------------------------------
# Group-function norms and witnesses


def group_spectral(f: GroupFunction) -> float:
    """Spectral norm of a group function: ||A(f)|| / |G| (averaging scaling)."""
    cm = cayley_matrix(f.group, f)
    return spectral_norm(cm.matrix) / f.group.order


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


def verify_sandwich(a: np.ndarray, report: NormReport) -> list[Check]:
    """Check every applicable norm inequality, recording margins.

    Failures are reported in the returned checks, never raised.  The
    vertex-transitive cut/spectral sandwich is checked only when the report
    carries a positive transitivity flag.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
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
    if report.transitive and cut is not None and a.shape[0] == a.shape[1]:
        checks.append(_check("transitive_cut_le_n_spectral", cut, n * report.spectral))
        checks.append(_check("transitive_n_spectral_le_8cut", n * report.spectral, 8.0 * cut))
    return checks


def analyze(a: np.ndarray, cfg: Optional[BMConfig] = None, *,
            exact_limit: int = EXACT_ENUM_LIMIT,
            transitivity_limit: int = 64) -> NormReport:
    """Compute every norm of a matrix and verify the sandwich inequalities.

    Capacity misses (cut and infinity-to-one above the exact limit,
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
        cut = cut_norm_exact(a, max_rows=exact_limit)
        timings["cut"] = time.perf_counter() - t0
        work["cut_subsets"] = 1 << m
        t0 = time.perf_counter()
        io1 = infty_one_exact(a, max_rows=exact_limit)
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
    if m == n and n <= transitivity_limit:
        t0 = time.perf_counter()
        transitive = find_transitive_automorphisms(a) is not None
        timings["transitivity"] = time.perf_counter() - t0
    elif m == n:
        notes.append(
            f"transitivity not attempted: n = {n} exceeds the search cap {transitivity_limit}"
        )

    report = NormReport(
        rows=m, cols=n, spectral=spectral, cut=cut, infty_one=io1,
        groth_lower=lower, groth_upper=upper, bm_rank=k,
        bm_restarts=cfg.restarts, assignment=assignment,
        transitive=transitive, notes=notes, work=work, timings=timings,
    )
    report.checks = verify_sandwich(a, report)
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


def epsilon_uniformity(a: np.ndarray, d: Optional[float] = None, *,
                       exact_limit: int = EXACT_ENUM_LIMIT,
                       cfg: Optional[BMConfig] = None) -> UniformityEstimate:
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
    if n <= exact_limit:
        eps = cut_norm_exact(centered, max_rows=exact_limit).value / (d * n)
        return UniformityEstimate(eps, eps, True)
    lower, upper = grothendieck_bounds(centered, cfg, exact_limit=exact_limit)
    return UniformityEstimate(lower / 8.0 / (d * n), upper / (d * n), False)


def mixing_lemma_check(a: np.ndarray, d: float, lam: float, *,
                       exhaustive_limit: int = 14, samples: int = 100_000,
                       seed: int = 0) -> bool:
    """Check |e(S,T) - (d/n)|S||T|| <= lam sqrt(|S||T|) over vertex-set pairs.

    e(S,T) counts ordered adjacent pairs.  Exhaustive for n up to the limit:
    for each S the worst T of each size is extremal for the sorted shifted
    column sums, so all 2^n * 2^n pairs reduce to 2^n * n closed-form checks.
    Above the limit, a seeded random sample of pairs.  Complex or non-finite
    input is a ValueError.
    """
    a, d = _require_regular(a, d, "mixing_lemma_check")
    n = a.shape[0]
    tol = 1e-9 * d  # d is an integer degree; d = 0 leaves only exact zeros
    if n <= exhaustive_limit:
        sizes = _subset_sums(np.ones((n, 1)))[:, 0]
        z = _subset_sums(a) - (d / n) * sizes[:, None]
        zs = np.sort(z, axis=1)
        prefix = np.cumsum(zs, axis=1)
        suffix = np.cumsum(zs[:, ::-1], axis=1)
        for j in range(1, n + 1):
            bound = lam * np.sqrt(sizes * j) + tol
            if np.any(suffix[:, j - 1] > bound) or np.any(-prefix[:, j - 1] > bound):
                return False
        return True
    rng = np.random.Generator(np.random.Philox(seed))
    block = 4096
    done = 0
    while done < samples:
        cnt = min(block, samples - done)
        xs = rng.integers(0, 2, size=(cnt, n)).astype(np.float64)
        ys = rng.integers(0, 2, size=(cnt, n)).astype(np.float64)
        e = np.einsum("ij,jk,ik->i", xs, a, ys)
        ssz = xs.sum(axis=1)
        tsz = ys.sum(axis=1)
        lhs = np.abs(e - (d / n) * ssz * tsz)
        if np.any(lhs > lam * np.sqrt(ssz * tsz) + tol):
            return False
        done += cnt
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
