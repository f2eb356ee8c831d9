"""Irreducible representations and the Fourier transform on a finite group.

Everything here is complex-valued.  Irrep tables are built in closed form
for abelian groups (multiplicative characters, for any abelian table) and
dihedral groups (rotation-reflection matrices at exact angles 2 pi k / m);
other groups take a user-supplied table, validated on ingestion (the
homomorphism property is checked on a generating set of the group).

The transform is ``fhat(rho) = mean_g f(g) rho(g)``; its inverse, the
Plancherel identity and the convolution theorem follow the averaging
normalization, and the spectral norm of f equals the largest singular
value among the coefficient matrices (`FourierCoefficients.sigma1`, one
batched SVD per dimension).  The witness takes the top singular pair from
LAPACK's SVD of the attaining coefficient matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

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
class IrrepTable:
    """A complete list of pairwise-inequivalent unitary irreps of one group."""

    group: GroupTable
    irreps: tuple[Irrep, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.irreps)

    @property
    def max_dim(self) -> int:
        return max(self.dims)


@dataclass(frozen=True)
class FourierCoefficients:
    """Per-irrep coefficient matrices fhat(rho), shaped like the table."""

    table: IrrepTable
    coeffs: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.coeffs) != len(self.table.irreps):
            raise ValueError("coefficient count does not match the irrep table")
        for c, r in zip(self.coeffs, self.table.irreps):
            if c.shape != (r.dim, r.dim):
                raise ValueError(
                    f"coefficient shape {c.shape} does not match irrep dim {r.dim}"
                )

    @cached_property
    def sigma1(self) -> np.ndarray:
        """sigma_1 of each coefficient, from one full SVD per stack of same-dimension
        ones: bit-identical to one SVD per matrix, which compute_uv=False is not."""
        dims = np.array(self.table.dims)
        sigma = np.empty(len(dims))
        for d in np.unique(dims):
            idx = np.flatnonzero(dims == d)
            sigma[idx] = np.linalg.svd(np.stack([self.coeffs[i] for i in idx]))[1][:, 0]
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
    q with chi = exp(2 pi i q / n), and each value is rounded only once.
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
    return np.exp(2j * np.pi * (q % n) / n)


def _find_dihedral_pair(g: GroupTable) -> Optional[tuple[int, int]]:
    """Return (r, s) with r of order n/2, s an involution inverting r, or None."""
    n = g.order
    if n % 2 or n < 6:
        return None
    m = n // 2
    for r in range(1, n):
        rotations = [0]
        while (acc := int(g.mul[rotations[-1], r])) != 0:
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


def _dihedral_irreps(g: GroupTable, r: int, s: int) -> list[Irrep]:
    n = g.order
    m = n // 2
    # normal form: every element is r^i or r^i s
    form = np.full((n, 2), -1, dtype=np.int64)
    acc = 0
    for i in range(m):
        form[acc] = (i, 0)
        form[g.mul[acc, s]] = (i, 1)
        acc = int(g.mul[acc, r])
    if np.any(form < 0):
        raise ValueError("element decomposition r^i s^a failed; group is not dihedral")
    i_of, a_of = form[:, 0], form[:, 1]

    # sign characters: (-1)^(p i + q a), with p = 1 only for even m
    irreps = [
        Irrep(dim=1, matrices=((-1.0) ** (p * i_of + q * a_of)).reshape(n, 1, 1))
        for p, q in ((0, 0), (0, 1), (1, 0), (1, 1))[: 4 if m % 2 == 0 else 2]
    ]
    # rho_j(r^i s^a) = rot(2 pi (j i mod m) / m) diag(1, (-1)^a), j = 1..(m-1)//2
    j = np.arange(1, (m - 1) // 2 + 1)[:, None]
    theta = 2.0 * np.pi * ((j * i_of) % m) / m
    cos, sin, sign = np.cos(theta), np.sin(theta), 1 - 2 * a_of
    mats = np.empty(theta.shape + (2, 2), dtype=np.complex128)
    mats[..., 0, 0], mats[..., 0, 1] = cos, -sin * sign
    mats[..., 1, 0], mats[..., 1, 1] = sin, cos * sign
    irreps.extend(Irrep(dim=2, matrices=mat) for mat in mats)
    return irreps


def build_irrep_table(g: GroupTable) -> IrrepTable:
    """Irrep table for the built-in families: any abelian group, or dihedral.

    Other groups must supply their table through parse_irreps; the error
    message says so.  The returned table passes validate_irrep_table.
    """
    if g.is_abelian:
        chars = _abelian_characters(g)
        irreps = tuple(
            Irrep(dim=1, matrices=chi.reshape(g.order, 1, 1)) for chi in chars
        )
        return IrrepTable(group=g, irreps=irreps)
    pair = _find_dihedral_pair(g)
    if pair is not None:
        return IrrepTable(group=g, irreps=tuple(_dihedral_irreps(g, *pair)))
    raise ValueError(
        f"no built-in irreps for group {g.label or '?'} (order {g.order}); "
        "supply a table via parse_irreps"
    )


# ---------------------------------------------------------------------------
# Validation


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
    orthogonality.
    """
    g = table.group
    n = g.order
    _, gens, depth = _generating_set(g.mul)
    found = {i: [f"irrep {i}: {r.matrices.shape[0]} matrices for a group of order {n}"]
             for i, r in enumerate(table.irreps) if r.matrices.shape[0] != n}
    for d in sorted(set(table.dims)):
        idx = [i for i, r in enumerate(table.irreps) if r.dim == d and i not in found]
        if not idx:
            continue
        m = np.stack([table.irreps[i].matrices for i in idx])  # [irrep, x, d, d]
        adj, eye = m.conj().swapaxes(2, 3), np.eye(d)
        ident = ~np.isclose(m[:, 0], eye, atol=tol).all(axis=(1, 2))
        # rho(x) rho(x)^H by outer products: matmul is slow on stacks of tiny matrices
        mmh = sum(m[..., :, k, None] * adj[..., k, None, :] for k in range(d))
        unit = np.abs(mmh - eye).max(axis=(2, 3))
        inv = np.abs(np.take(m, g.inv, axis=1) - adj).max(axis=(2, 3))
        norm = np.mean(np.abs(np.trace(m, axis1=2, axis2=3)) ** 2, axis=1)
        rows = m.reshape(len(idx), -1, d)  # rho(x) stacked over x, one GEMM per irrep
        err = np.empty((len(gens), len(idx)))
        at = np.empty((len(gens), len(idx)), dtype=np.int64)
        for t, s in enumerate(gens):
            e = np.abs((rows @ m[:, s]).reshape(m.shape) - np.take(m, g.mul[:, s], axis=1))
            e = e.reshape(len(idx), -1)  # [irrep, (x, entry)]
            worst = e.argmax(axis=1)
            err[t], at[t] = e[np.arange(len(idx)), worst], worst // (d * d)
        bound = tol / (2 * d * max(depth, 1))
        for j, i in enumerate(idx):
            out = found[i] = []
            if ident[j]:
                out.append(f"irrep {i}: rho(identity) != I")
            if unit[j].max() > tol:
                out.append(f"irrep {i}: non-unitary at g={unit[j].argmax()} "
                           f"(err {unit[j].max():.2e})")
            if inv[j].max() > tol:
                out.append(f"irrep {i}: rho(g^-1) != rho(g)* at g={inv[j].argmax()}")
            if err[:, j].max(initial=0.0) > bound:
                t = err[:, j].argmax()
                out.append(f"irrep {i}: rho(ab) != rho(a)rho(b) at (a,b)=({at[t, j]},{gens[t]}) "
                           f"(err {err[t, j]:.2e}, generator bound {bound:.2e})")
            if abs(norm[j] - 1.0) > tol:
                out.append(f"irrep {i}: not irreducible, mean |Tr rho|^2 = {norm[j]:.6f} != 1")
    problems = [text for i in sorted(found) for text in found[i]]
    total = sum(r.dim**2 for r in table.irreps)
    if total != n:
        problems.append(f"incomplete table: sum of dim^2 is {total}, expected {n}")
    if all(r.matrices.shape[0] == n for r in table.irreps):
        chars = np.array([r.characters for r in table.irreps]).reshape(-1, n)
        gram = np.abs(chars @ chars.conj().T) / n
        for i, j in np.argwhere(np.triu(gram > tol, 1)):
            problems.append(
                f"irreps {i} and {j} are equivalent (character inner product "
                f"{gram[i, j]:.2e})"
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
    """fhat(rho) = mean_g f(g) rho(g), one coefficient matrix per irrep."""
    if not f.group.same_as(table.group):
        raise ValueError("function and irrep table live on different groups")
    coeffs = tuple(
        np.tensordot(f.values, rho.matrices, axes=(0, 0)) / f.group.order
        for rho in table.irreps
    )
    return FourierCoefficients(table=table, coeffs=coeffs)


def fourier_inverse(coeffs: FourierCoefficients) -> GroupFunction:
    """Reconstruct f(g) = sum_rho d_rho <fhat(rho), rho(g)>_HS."""
    table = coeffs.table
    values = np.zeros(table.group.order, dtype=np.complex128)
    for rho, c in zip(table.irreps, coeffs.coeffs):
        # <c, rho(g)>_HS = sum_ij c_ij conj(rho(g)_ij)
        values += rho.dim * np.einsum("ij,gij->g", c, rho.matrices.conj())
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
    u, _, vh = np.linalg.svd(fhat.coeffs[best])
    u1, v1 = u[:, 0], vh[0].conj()  # fhat(sigma) v1 = sigma_1 u1
    rho = table.irreps[best]
    g = table.group
    mats_inv = rho.matrices[g.inv]
    x = mats_inv @ u1
    y = mats_inv @ v1
    fmat = f.values[g.ghinv]
    # objective = mean_{g,h} f(gh^-1) x(g)^H y(h) = tr(X^H F Y) / n^2
    objective = abs(np.einsum("gd,gh,hd->", x.conj(), fmat, y)) / g.order**2
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
    if any(r.dim != 1 for r in table.irreps):
        raise ValueError("abelian irrep table must consist of characters")
    chars = np.stack([r.matrices[:, 0, 0] for r in table.irreps])
    corr = np.abs(chars.conj() @ f.values) / g.order
    idx = int(np.argmax(corr))
    return CharacterNorm(value=float(corr[idx]), index=idx, character=chars[idx])
