"""Irreducible representations and the Fourier transform on a finite group.

Everything here is complex-valued.  Irrep tables are built in closed form
for abelian groups (multiplicative characters, for any abelian table) and
dihedral groups (rotation-reflection matrices at exact angles 2 pi k / m);
other groups take a user-supplied table, validated on ingestion (the
homomorphism property is checked on a generating set of the group).

A table stores its irreps of each dimension d as one read-only (K, n, d, d)
array (`IrrepTable.stacks`), and the transform its coefficients as one
(K, d, d) array per stack; the per-irrep lists `irreps` and `coeffs` are
views into them.  The transform is ``fhat(rho) = mean_g f(g) rho(g)``, one
vector-matrix product per dimension, bit-identical to one tensordot per
irrep; its inverse, the Plancherel identity and the convolution theorem
follow the averaging normalization, and the spectral norm of f equals the
largest singular value among the coefficient matrices
(`FourierCoefficients.sigma1`, one batched SVD per dimension).  The witness
takes the top singular pair from LAPACK's SVD of the attaining coefficient
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .groups import GroupFunction, GroupTable, _generating_set


@dataclass(frozen=True)
class Irrep:
    """A unitary irreducible representation: one d x d matrix per element."""

    dim: int
    matrices: np.ndarray  # (|G|, dim, dim) complex

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrices, dtype=np.complex128)
        if m.ndim != 3 or m.shape[1:] != (self.dim, self.dim):
            raise ValueError(
                f"matrix stack has shape {m.shape}, expected (n, {self.dim}, {self.dim})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrices", m)

    @property
    def characters(self) -> np.ndarray:
        return np.trace(self.matrices, axis1=1, axis2=2)


@dataclass(frozen=True)
class IrrepStack:
    """The irreps of one dimension d in a table, stacked: ``matrices[k]`` is
    the (|G|, d, d) stack of irrep ``index[k]`` (ascending table positions)."""

    dim: int
    index: np.ndarray  # (K,) int
    matrices: np.ndarray  # (K, |G|, d, d) complex, made read-only

    def __post_init__(self):
        self.matrices.setflags(write=False)


@dataclass(frozen=True)
class IrrepTable:
    """A complete list of pairwise-inequivalent unitary irreps of one group,
    stored as one stack per irrep dimension, ascending."""

    group: GroupTable
    stacks: tuple[IrrepStack, ...]

    def __post_init__(self):
        n = self.group.order
        for b in self.stacks:
            if b.matrices.shape[1] != n:
                raise ValueError(f"irrep {b.index[0]}: {b.matrices.shape[1]} matrices "
                                 f"for a group of order {n}")
        positions = np.sort(np.concatenate([b.index for b in self.stacks] or [[]]))
        if not np.array_equal(positions, np.arange(len(positions))):
            raise ValueError("the stacks must hold each table position 0..K-1 once")

    @classmethod
    def from_irreps(cls, group: GroupTable, irreps: Sequence[Irrep]) -> IrrepTable:
        """The table listing `irreps` in order; each is copied once into its
        dimension's stack.  An irrep without one matrix per group element is a
        ValueError."""
        n = group.order
        for i, r in enumerate(irreps):
            if len(r.matrices) != n:
                raise ValueError(f"irrep {i}: {len(r.matrices)} matrices for a group of order {n}")
        stacks = []
        for d in sorted({r.dim for r in irreps}):
            index = np.array([i for i, r in enumerate(irreps) if r.dim == d])
            stacks.append(IrrepStack(d, index, np.stack([irreps[i].matrices for i in index])))
        return cls(group, tuple(stacks))

    def in_table_order(self, per_stack) -> list:
        """Items given stack by stack, one per irrep in stack order (the rows of
        an array aligned with `stacks`), listed by table position."""
        out = [None] * sum(len(b.index) for b in self.stacks)
        for b, items in zip(self.stacks, per_stack, strict=True):
            for i, item in zip(b.index.tolist(), items, strict=True):
                out[i] = item
        return out

    @cached_property
    def irreps(self) -> tuple[Irrep, ...]:
        """Each irrep in table order, its matrices a view into its stack."""
        return tuple(self.in_table_order(
            [Irrep(dim=b.dim, matrices=m) for m in b.matrices] for b in self.stacks))

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(self.in_table_order([b.dim] * len(b.index) for b in self.stacks))

    @property
    def max_dim(self) -> int:
        return max(b.dim for b in self.stacks)


@dataclass(frozen=True)
class FourierCoefficients:
    """The coefficient matrices fhat(rho) as one (K, d, d) array per entry of
    `table.stacks`."""

    table: IrrepTable
    stacks: tuple[np.ndarray, ...]

    def __post_init__(self):
        got = [np.shape(c) for c in self.stacks]
        want = [(len(b.index), b.dim, b.dim) for b in self.table.stacks]
        if got != want:
            raise ValueError(f"coefficient stacks of shapes {got} do not match the "
                             f"irrep table's {want}")

    @cached_property
    def coeffs(self) -> tuple[np.ndarray, ...]:
        """Each coefficient matrix in table order, a view into its stack."""
        return tuple(self.table.in_table_order(self.stacks))

    @cached_property
    def sigma1(self) -> np.ndarray:
        """sigma_1 of each coefficient, from one full SVD per stack of same-dimension
        ones: bit-identical to one SVD per matrix, which compute_uv=False is not."""
        sigma = np.empty(len(self.table.dims))
        for b, c in zip(self.table.stacks, self.stacks):
            sigma[b.index] = np.linalg.svd(c)[1][:, 0]
        sigma.setflags(write=False)
        return sigma


# ---------------------------------------------------------------------------
# Building tables: abelian characters and dihedral representations


def _abelian_characters(g: GroupTable) -> np.ndarray:
    """All |G| multiplicative characters of an abelian group, trivial one first.

    Characters are grown along a chain of subgroups: each new generator of
    index k admits exactly k extensions of every character of the previous
    subgroup (the k-th roots of the already-determined value at its k-th
    power), so exactly |G| characters come out, with no search.  Every value
    is an n-th root of unity, so a character is carried as integer exponents
    q with chi = exp(2 pi i q / n), and each value is rounded only once: it is
    gathered from one table of the n roots.
    """
    n = g.order
    q = np.zeros((1, n), dtype=np.int64)  # exponents on the subgroup so far
    member = np.arange(n) == 0
    while not member.all():
        members = np.flatnonzero(member)
        gen = int(np.flatnonzero(~member)[0])
        # powers of gen until it falls into the current subgroup
        powers = [gen]
        while not member[powers[-1]]:
            powers.append(int(g.mul[powers[-1], gen]))
        index = len(powers)  # smallest k with gen^k in the subgroup
        # chi(gen^index) = exp(2 pi i c / n), c in (-n/2, n/2]; on a subgroup of order
        # h, n / h divides c, so index divides c and n: the roots are (c + t n) / index
        c = q[:, powers[-1]] % n
        c = np.where(2 * c > n, c - n, c)
        w = ((c[:, None] + n * np.arange(index)) // index).reshape(-1, 1)
        base = np.repeat(q[:, members], index, axis=0)
        q = np.repeat(q, index, axis=0)
        for k, p in enumerate(powers[:-1], start=1):
            coset = g.mul[members, p]
            q[:, coset] = base + k * w
            member[coset] = True
    return np.exp(2j * np.pi * np.arange(n) / n)[q % n]


def _find_dihedral_pair(g: GroupTable) -> Optional[tuple[int, int]]:
    """Return (r, s) with r of order n/2, s an involution inverting r, or None."""
    n = g.order
    if n % 2 or n < 6:
        return None
    m = n // 2
    for r in range(1, n):
        times_r, rotations = g.mul[:, r].tolist(), [0]
        while (acc := times_r[rotations[-1]]) != 0:
            rotations.append(acc)
        if len(rotations) != m:
            continue
        rotations = set(rotations)
        for s in range(1, n):
            if s in rotations or g.mul[s, s] != 0:
                continue
            if g.mul[g.mul[s, r], s] == g.inv[r]:
                return r, s
        return None
    return None


def _dihedral_stacks(g: GroupTable, r: int, s: int) -> tuple[IrrepStack, IrrepStack]:
    """The dihedral irreps: a stack of sign characters, then one of
    rotation-reflection matrices."""
    n = g.order
    m = n // 2
    # normal form: every element is r^i or r^i s
    times_r, rotations = g.mul[:, r].tolist(), [0]
    for _ in range(m - 1):
        rotations.append(times_r[rotations[-1]])
    reflections = g.mul[rotations, s]
    form = np.full((n, 2), -1, dtype=np.int64)
    form[rotations, 0], form[rotations, 1] = np.arange(m), 0
    form[reflections, 0], form[reflections, 1] = np.arange(m), 1
    if np.any(form < 0):
        raise ValueError("element decomposition r^i s^a failed; group is not dihedral")
    i_of, a_of = form[:, 0], form[:, 1]

    # sign characters: (-1)^(p i + q a), with p = 1 only for even m
    pq = np.array([(0, 0), (0, 1), (1, 0), (1, 1)][: 4 if m % 2 == 0 else 2])
    signs = ((-1.0) ** (pq[:, :1] * i_of + pq[:, 1:] * a_of)).astype(np.complex128)
    # rho_j(r^i s^a) = rot(2 pi (j i mod m) / m) diag(1, (-1)^a), j = 1..(m-1)//2
    # gathered from the m angles 2 pi k / m, each computed as the direct form would
    j = np.arange(1, (m - 1) // 2 + 1)[:, None]
    angle = 2.0 * np.pi * np.arange(m) / m
    k = (j * i_of) % m
    cos, sin, sign = np.cos(angle)[k], np.sin(angle)[k], 1 - 2 * a_of
    mats = np.empty(k.shape + (2, 2), dtype=np.complex128)
    mats[..., 0, 0], mats[..., 0, 1] = cos, -sin * sign
    mats[..., 1, 0], mats[..., 1, 1] = sin, cos * sign
    return (IrrepStack(1, np.arange(len(pq)), signs.reshape(len(pq), n, 1, 1)),
            IrrepStack(2, np.arange(len(pq), len(pq) + len(j)), mats))


def build_irrep_table(g: GroupTable) -> IrrepTable:
    """Irrep table for the built-in families: any abelian group, or dihedral.

    Other groups must supply their table through parse_irreps; the error
    message says so.  The returned table passes validate_irrep_table.
    """
    n = g.order
    if g.is_abelian:
        chars = _abelian_characters(g).reshape(n, n, 1, 1)
        return IrrepTable(g, (IrrepStack(1, np.arange(n), chars),))
    pair = _find_dihedral_pair(g)
    if pair is not None:
        return IrrepTable(g, _dihedral_stacks(g, *pair))
    raise ValueError(
        f"no built-in irreps for group {g.label or '?'} (order {g.order}); "
        "supply a table via parse_irreps"
    )


# ---------------------------------------------------------------------------
# Validation


# Equivalent irreps have equal characters, and irreps within tol of
# representations have characters within about 2 d tol of equal; inequivalent
# irreducible characters are orthogonal.  So of two irreps that pass their own
# checks, only a pair whose characters agree on every generator can have an
# inner product above tol, and the full product is taken for those pairs
# alone (and for every pair with an irrep that failed a check).  The filter is
# far looser than that discrepancy and far tighter than the gap
# 2 sin(pi / n) > 1e-3 between distinct n-th roots of unity (n <= 5040), so
# distinct characters of degree 1 never pass it; ones of degree >= 2 can agree
# on the generators and be inequivalent.
_SAME_ON_GENERATORS = 1e-6


def _agreeing_pairs(values: np.ndarray, slack: float,
                    failed: np.ndarray) -> list[tuple[int, int]]:
    """The pairs i < j, in row-major order, whose rows of `values` (irrep,
    generator) agree within slack in every column, or with i or j failed;
    rows are compared a chunk at a time on the first column, and only the
    matches on the rest."""
    k = len(values)
    if values.shape[1] == 0:
        return [(i, j) for i in range(k) for j in range(i + 1, k)]
    first, step, pairs = values[:, 0], max(1, 2**20 // k), []
    for a in range(0, k, step):
        rows = np.arange(a, min(a + step, k))
        close = (np.abs(first[rows, None] - first) <= slack) | failed | failed[rows, None]
        i, j = np.nonzero(close & (np.arange(k) > rows[:, None]))
        i += a
        keep = (np.abs(values[i] - values[j]) <= slack).all(axis=1) | failed[i] | failed[j]
        pairs.extend(zip(i[keep].tolist(), j[keep].tolist()))
    return pairs


# Irreps per block of the per-element checks: a block's rho(x) s products
# hold about _HOMOMORPHISM_BLOCK_ENTRIES complex entries, and at least one irrep.
_HOMOMORPHISM_BLOCK_ENTRIES = 1 << 16


def _element_errors(m: np.ndarray, g: GroupTable,
                    gens: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """For a stack m [irrep, x, d, d] and irrep j: the largest entry err[c, j]
    of check c over all x, and the first x attaining it, at[c, j].  Check 0 is
    unitarity, |rho(x) rho(x)^H - I|; check 1 is |rho(x^-1) - rho(x)^H|;
    check 2 + t is |rho(x) rho(s) - rho(x s)| for s = gens[t].  For
    characters (d = 1) these are |chi|^2 - 1, chi[inv] - conj(chi) and
    elementwise products; larger products are one GEMM per irrep.  The
    irreps go a block at a time, so each block's arrays stay small."""
    k, n, d = m.shape[:3]
    err = np.empty((2 + len(gens), k))
    at = np.empty((2 + len(gens), k), dtype=np.int64)
    step = max(1, _HOMOMORPHISM_BLOCK_ENTRIES // (n * d * d))
    eye = np.eye(d)
    for lo in range(0, k, step):
        block = m[lo:lo + step]
        rows = block.reshape(len(block), -1, d)  # rho(x) stacked over x
        flat = block.reshape(len(block), n, d * d)  # [irrep, x, entry]
        adj = block.conj().swapaxes(2, 3)

        def record(c, diff):
            e = np.abs(diff).reshape(len(block), -1)  # [irrep, (x, entry)]
            worst = e.argmax(axis=1)
            err[c, lo:lo + step] = e[np.arange(len(block)), worst]
            at[c, lo:lo + step] = worst // (d * d)

        # rho(x) rho(x)^H by outer products: matmul is slow on stacks of tiny matrices
        record(0, sum(block[..., :, c, None] * adj[..., c, None, :] for c in range(d)) - eye)
        record(1, np.take(block, g.inv, axis=1) - adj)
        for t, s in enumerate(gens):
            prod = flat * flat[:, s, None] if d == 1 else \
                (rows @ block[:, s]).reshape(flat.shape)
            prod -= np.take(flat, g.mul[:, s], axis=1)
            record(2 + t, prod)
    return err, at


# Once the group axioms hold, every element is a word ((s_1 s_2) ...) s_k of
# k <= L generators (L the depth of `_generating_set`).  Let delta be the
# largest entry of rho(x s) - rho(x) rho(s) over all x and generators s.  For
# a prefix b of a word and its next letter s,
#   rho(a b s) - rho(a) rho(b s) = [rho(a b s) - rho(a b) rho(s)]
#       + [rho(a b) - rho(a) rho(b)] rho(s) + rho(a) [rho(b) rho(s) - rho(b s)];
# unitary factors keep the spectral norm, which is at most d times the largest
# entry, so each letter adds at most 2 d delta to ||rho(ab) - rho(a) rho(b)||.
# Generator products within tol / (2 d L) thus put every product within tol,
# up to a factor 1 + O(L d tol) that the unitarity tolerance allows.
def validate_irrep_table(table: IrrepTable, *, tol: float = 1e-10) -> list[str]:
    """Check every invariant of an irrep table on its own group; return diagnostics.

    No diagnostics means valid.  Batched over the irreps of each dimension
    d: identity image, unitarity, rho(g^-1) = rho(g)*, the homomorphism
    property on the generators of `_generating_set` within tol / (2 d L) (so
    every product is within tol), and irreducibility via the character norm;
    then completeness (sum of squared dims) and pairwise character
    orthogonality, taken in full only for pairs whose characters agree on
    the generators or that hold an irrep failing a check above.
    """
    g = table.group
    n = g.order
    _, gens, depth = _generating_set(g.mul)
    found, chars = {}, [None] * len(table.dims)
    for b in table.stacks:
        d, idx, m = b.dim, b.index, b.matrices  # m: [irrep, x, d, d]
        ident = ~np.isclose(m[:, 0], np.eye(d), atol=tol).all(axis=(1, 2))
        trace = m[:, :, 0, 0] if d == 1 else np.trace(m, axis1=2, axis2=3)
        norm = np.mean(np.abs(trace) ** 2, axis=1)
        err, at = _element_errors(m, g, gens)
        bound = tol / (2 * d * max(depth, 1))
        for j, i in enumerate(idx):
            chars[i] = trace[j]
            out = found[i] = []
            if ident[j]:
                out.append(f"irrep {i}: rho(identity) != I")
            if err[0, j] > tol:
                out.append(f"irrep {i}: non-unitary at g={at[0, j]} (err {err[0, j]:.2e})")
            if err[1, j] > tol:
                out.append(f"irrep {i}: rho(g^-1) != rho(g)* at g={at[1, j]}")
            if err[2:, j].max(initial=0.0) > bound:
                t = 2 + err[2:, j].argmax()
                out.append(f"irrep {i}: rho(ab) != rho(a)rho(b) at (a,b)=({at[t, j]},{gens[t - 2]}) "
                           f"(err {err[t, j]:.2e}, generator bound {bound:.2e})")
            if abs(norm[j] - 1.0) > tol:
                out.append(f"irrep {i}: not irreducible, mean |Tr rho|^2 = {norm[j]:.6f} != 1")
    problems = [text for i in sorted(found) for text in found[i]]
    total = sum(d**2 for d in table.dims)
    if total != n:
        problems.append(f"incomplete table: sum of dim^2 is {total}, expected {n}")
    if chars:
        slack = max(_SAME_ON_GENERATORS, 4 * table.max_dim * tol)
        failed = np.array([bool(found[i]) for i in range(len(chars))])
        for i, j in _agreeing_pairs(np.array([c[gens] for c in chars]), slack, failed):
            overlap = abs(np.vdot(chars[j], chars[i])) / n
            if overlap > tol:
                problems.append(
                    f"irreps {i} and {j} are equivalent (character inner product "
                    f"{overlap:.2e})"
                )
    return problems


def ensure_valid_irreps(table: IrrepTable) -> IrrepTable:
    problems = validate_irrep_table(table)
    if problems:
        raise ValueError("invalid irrep table:\n  " + "\n  ".join(problems))
    return table


# ---------------------------------------------------------------------------
# Transform, inverse, Plancherel building blocks


def fourier_transform(f: GroupFunction, table: IrrepTable) -> FourierCoefficients:
    """fhat(rho) = mean_g f(g) rho(g), one coefficient matrix per irrep, from
    one vector-matrix product per irrep dimension d.

    Non-finite values are a ValueError, and so is a coefficient that
    overflows float64 (the sum is formed before the division by |G|)."""
    if not f.group.same_as(table.group):
        raise ValueError("function and irrep table live on different groups")
    if not np.isfinite(f.values).all():
        raise ValueError("fourier_transform needs finite values")
    n = f.group.order
    with np.errstate(over="ignore", invalid="ignore"):
        stacks = tuple((np.matmul(f.values, b.matrices.reshape(len(b.index), n, b.dim**2)) / n)
                       .reshape(-1, b.dim, b.dim) for b in table.stacks)
    if not all(np.isfinite(c).all() for c in stacks):
        raise ValueError("fourier_transform overflows: a coefficient exceeds the "
                         "float64 range")
    return FourierCoefficients(table, stacks)


def fourier_inverse(coeffs: FourierCoefficients) -> GroupFunction:
    """Reconstruct f(g) = sum_rho d_rho <fhat(rho), rho(g)>_HS."""
    table = coeffs.table
    values = np.zeros(table.group.order, dtype=np.complex128)
    for b, c in zip(table.stacks, coeffs.stacks):
        # <c_k, rho_k(g)>_HS = sum_ij c_kij conj(rho_k(g)_ij), summed over the stack
        values += b.dim * np.einsum("kij,kgij->g", c, b.matrices.conj())
    return GroupFunction(table.group, values)


def spectral_via_irreps(f: GroupFunction, table: IrrepTable) -> float:
    """||f|| as the maximum spectral norm over the coefficient matrices."""
    return float(fourier_transform(f, table).sigma1.max())


def schur_average(rho: Irrep, sigma: Irrep, m: np.ndarray, group: GroupTable) -> np.ndarray:
    """mean_g rho(g) M sigma(g^-1): (Tr M / d) I when rho = sigma, else 0."""
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (rho.dim, sigma.dim):
        raise ValueError(f"M has shape {m.shape}, expected ({rho.dim}, {sigma.dim})")
    if rho.matrices.shape[0] != group.order or sigma.matrices.shape[0] != group.order:
        raise ValueError("irreps do not match the group order")
    sig_inv = sigma.matrices[group.inv]
    return np.einsum("gij,jk,gkl->il", rho.matrices, m, sig_inv) / group.order


# ---------------------------------------------------------------------------
# Witnesses and the abelian special case


@dataclass(frozen=True)
class SvdWitness:
    """Unit vectors x, y: G -> C^d whose bilinear objective equals ||f||."""

    x: np.ndarray  # (|G|, d) complex
    y: np.ndarray
    objective: float
    irrep_index: int
    fhat: FourierCoefficients  # the transform the singular pair came from


# Conjugate irreps give a real function's coefficients the same sigma_1 in
# exact arithmetic, so the computed values of such a tie differ only by
# rounding.  Each coefficient is a mean of n terms, whose computed value
# carries the summation error of about n eps, and LAPACK's SVD adds a
# backward error of 8 d eps (norms._SVD_ERROR_PER_DIM), with d <= sqrt(n).
# A band of 8 n eps below the maximum covers both, so the witness irrep is
# decided by the table order, not by the last bit of sigma_1.
_TIE_BAND_PER_ELEMENT = 8.0


def svd_witness(f: GroupFunction, table: IrrepTable) -> SvdWitness:
    """Build the Grothendieck witness from the top singular pair of fhat.

    With sigma the irrep attaining ||f|| and (u1, v1) the top singular pair
    of fhat(sigma), the translates x(g) = sigma(g^-1) u1 and
    y(h) = sigma(h^-1) v1 are unit vectors with
    <x(g), y(h)> = u1^H sigma(gh^-1) v1, so the objective
    |mean f(gh^-1) <x(g), y(h)>| contracts to u1^H fhat(sigma) v1, the top
    singular value, which is ||f||.  Of the irreps whose sigma_1 lies within
    8 n eps of the maximum (a tie up to rounding, n the group order), the
    one with the lowest table index is used.
    """
    fhat = fourier_transform(f, table)
    sigma = fhat.sigma1
    band = 1.0 - _TIE_BAND_PER_ELEMENT * f.group.order * float(np.finfo(np.float64).eps)
    best = int(np.flatnonzero(sigma >= band * sigma.max())[0])
    b, c = next((b, c) for b, c in zip(table.stacks, fhat.stacks) if best in b.index)
    k = b.index.tolist().index(best)
    u, _, vh = np.linalg.svd(c[k])
    u1, v1 = u[:, 0], vh[0].conj()  # fhat(sigma) v1 = sigma_1 u1
    g = table.group
    mats_inv = b.matrices[k][g.inv]
    x = mats_inv @ u1
    y = mats_inv @ v1
    fmat = f.values[g.ghinv]
    # objective = mean_{g,h} f(gh^-1) x(g)^H y(h) = x^H (F y) / n^2, by BLAS; a real F
    # multiplies y's interleaved real and imaginary parts, so F is never made complex
    if np.iscomplexobj(fmat):
        fy = fmat @ y
    else:
        fy = (fmat @ y.view(np.float64)).view(np.complex128)
    objective = abs(np.vdot(x, fy)) / g.order**2
    return SvdWitness(x=x, y=y, objective=float(objective), irrep_index=best, fhat=fhat)


@dataclass(frozen=True)
class CharacterNorm:
    """max_chi |mean f conj(chi)| over multiplicative characters, with the argmax."""

    value: float
    index: int
    character: np.ndarray


def abelian_character_norm(f: GroupFunction, table: Optional[IrrepTable] = None) -> CharacterNorm:
    """||f|| for abelian groups via characters; the argmax character witnesses it.

    For abelian groups the spectral norm equals the complex infinity-to-one
    norm, attained at a multiplicative character.
    """
    g = f.group
    if not g.is_abelian:
        raise ValueError("character norm is defined for abelian groups only")
    table = table or build_irrep_table(g)
    if not table.group.same_as(g):
        raise ValueError("function and irrep table live on different groups")
    if table.max_dim != 1:
        raise ValueError("abelian irrep table must consist of characters")
    chars = table.stacks[0].matrices[:, :, 0, 0]
    corr = np.abs(chars.conj() @ f.values) / g.order
    idx = int(np.argmax(corr))
    return CharacterNorm(value=float(corr[idx]), index=idx, character=chars[idx])
