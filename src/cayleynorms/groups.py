"""Finite groups as multiplication tables, and functions defined on them.

Elements are integers ``0..n-1`` with the identity always at index 0.
Permutations compose left-to-right: the product ``gh`` acts as
``(gh)(s) = h(g(s))``.  All norms of group functions use the averaging
measure, so the 2-norm of ``f`` is ``sqrt(mean |f(g)|^2)``, not the
euclidean norm of the value vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, GroupAxiomError

# Associativity is verified on every constructed table: exhaustively up to
# this order, on random triples above it.
EXHAUSTIVE_AXIOM_LIMIT = 256
_AXIOM_SAMPLES = 200_000

# Largest multiplication table we agree to materialize (7! elements).
MAX_TABLE_ORDER = 5040

# Default cap on permutation-group closure enumeration.
CLOSURE_CAP = 10**6


# ---------------------------------------------------------------------------
# Group tables


@dataclass(frozen=True)
class GroupTable:
    """A finite group of order ``order`` with identity at index 0.

    ``mul[a, b]`` is the product ab; ``inv[a]`` is the inverse of a.
    Instances are immutable; the arrays are marked read-only.
    """

    order: int
    mul: np.ndarray
    inv: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.mul.setflags(write=False)
        self.inv.setflags(write=False)

    @cached_property
    def ghinv(self) -> np.ndarray:
        """Index table ``ghinv[g, h] = g * h^-1``, the Cayley-matrix layout."""
        t = self.mul[:, self.inv]
        t.setflags(write=False)
        return t

    @cached_property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def multiply(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = self.inverse(g), -k
        acc = 0
        for _ in range(k):
            acc = int(self.mul[acc, g])
        return acc

    def element_order(self, g: int) -> int:
        k, acc = 1, g
        while acc != 0:
            acc = int(self.mul[acc, g])
            k += 1
        return k

    def same_as(self, other: "GroupTable") -> bool:
        return self is other or (
            self.order == other.order and np.array_equal(self.mul, other.mul)
        )


def _check_axioms(mul: np.ndarray, label: str) -> np.ndarray:
    """Validate group axioms for a candidate table; return the inverse table.

    Assumes the identity is already at index 0.  Associativity is checked
    exhaustively up to EXHAUSTIVE_AXIOM_LIMIT, on sampled triples above.
    """
    n = mul.shape[0]
    if mul.ndim != 2 or mul.shape != (n, n):
        raise GroupAxiomError(f"{label}: multiplication table must be square")
    if n == 0:
        raise GroupAxiomError(f"{label}: empty table")
    if mul.min() < 0 or mul.max() >= n:
        bad = np.argwhere((mul < 0) | (mul >= n))[0]
        raise GroupAxiomError(
            f"{label}: closure fails, mul[{bad[0]},{bad[1]}] = "
            f"{mul[bad[0], bad[1]]} is outside [0, {n})"
        )
    rng_n = np.arange(n)
    if not np.array_equal(mul[0], rng_n):
        g = int(np.nonzero(mul[0] != rng_n)[0][0])
        raise GroupAxiomError(f"{label}: index 0 is not a left identity at g={g}")
    if not np.array_equal(mul[:, 0], rng_n):
        g = int(np.nonzero(mul[:, 0] != rng_n)[0][0])
        raise GroupAxiomError(f"{label}: index 0 is not a right identity at g={g}")

    inv = np.full(n, -1, dtype=mul.dtype)
    for g in range(n):
        hits = np.nonzero(mul[g] == 0)[0]
        if hits.size == 0:
            raise GroupAxiomError(f"{label}: element {g} has no inverse")
        if hits.size > 1:
            raise GroupAxiomError(
                f"{label}: element {g} has multiple right inverses {hits.tolist()}"
            )
        inv[g] = hits[0]
        if mul[inv[g], g] != 0:
            raise GroupAxiomError(
                f"{label}: inverse of {g} is one-sided (mul[{inv[g]},{g}] != 0)"
            )

    if n <= EXHAUSTIVE_AXIOM_LIMIT:
        for a in range(n):
            left = mul[mul[a]]          # [b, c] -> (ab)c
            right = mul[a][mul]         # [b, c] -> a(bc)
            if not np.array_equal(left, right):
                b, c = map(int, np.argwhere(left != right)[0])
                raise GroupAxiomError(
                    f"{label}: associativity fails at (a,b,c) = ({a},{b},{c})"
                )
    else:
        rng = np.random.Generator(np.random.Philox(0))
        abc = rng.integers(0, n, size=(_AXIOM_SAMPLES, 3))
        left = mul[mul[abc[:, 0], abc[:, 1]], abc[:, 2]]
        right = mul[abc[:, 0], mul[abc[:, 1], abc[:, 2]]]
        if not np.array_equal(left, right):
            i = int(np.nonzero(left != right)[0][0])
            a, b, c = map(int, abc[i])
            raise GroupAxiomError(
                f"{label}: associativity fails at (a,b,c) = ({a},{b},{c})"
            )
    return inv


def _finish_table(mul: np.ndarray, label: str) -> GroupTable:
    mul = np.ascontiguousarray(mul, dtype=np.int32)
    inv = _check_axioms(mul, label or "group")
    return GroupTable(order=mul.shape[0], mul=mul, inv=inv, label=label)


def cyclic_group(n: int) -> GroupTable:
    """Z_n with addition mod n."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    _check_capacity(n)
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    return _finish_table(mul, f"Z{n}")


def dihedral_group(m: int) -> GroupTable:
    """D_m of order 2m: indices 0..m-1 are rotations r^i, m..2m-1 are r^i s."""
    if m < 1:
        raise ValueError(f"dihedral parameter must be >= 1, got {m}")
    _check_capacity(2 * m)
    idx = np.arange(2 * m)
    i, f = idx % m, idx // m
    # (r^i s^fa)(r^j s^fb) = r^(i + (-1)^fa j) s^(fa+fb)
    k = (i[:, None] + (1 - 2 * f[:, None]) * i[None, :]) % m
    mul = k + m * ((f[:, None] + f[None, :]) % 2)
    return _finish_table(mul, f"D{m}")


def symmetric_group(m: int) -> GroupTable:
    """S_m with elements enumerated in lexicographic one-line order."""
    if m < 1:
        raise ValueError(f"symmetric parameter must be >= 1, got {m}")
    if math.factorial(m) > 10**6:
        raise CapacityError(f"S_{m} has {m}! > 1e6 elements")
    _check_capacity(math.factorial(m))
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    n = perms.shape[0]
    radix = m ** np.arange(m, dtype=np.int64)
    lookup = np.full(m**m, -1, dtype=np.int64)
    lookup[perms @ radix] = np.arange(n)
    mul = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        # (gh)(s) = h(g(s)): row b of perms[:, perms[a]] is b after a
        mul[a] = lookup[perms[:, perms[a]] @ radix]
    return _finish_table(mul, f"S{m}")


def product_group(g: GroupTable, h: GroupTable) -> GroupTable:
    """Direct product with element (a, b) encoded as a*|H| + b."""
    _check_capacity(g.order * h.order)
    nh = h.order
    mul = (g.mul[:, :, None, None] * nh + h.mul[None, None, :, :])
    mul = mul.transpose(0, 2, 1, 3).reshape(g.order * nh, g.order * nh)
    label = f"{g.label or 'G'}x{h.label or 'H'}"
    return _finish_table(mul, label)


def _check_capacity(order: int) -> None:
    if order > MAX_TABLE_ORDER:
        raise CapacityError(
            f"group order {order} exceeds the table cap {MAX_TABLE_ORDER}"
        )


def build_standard_group(family: str, *params) -> GroupTable:
    """Dispatch on a family name: cyclic(n), dihedral(m), symmetric(m), product(G,H)."""
    family = family.lower()
    if family == "cyclic":
        return cyclic_group(int(params[0]))
    if family == "dihedral":
        return dihedral_group(int(params[0]))
    if family == "symmetric":
        return symmetric_group(int(params[0]))
    if family == "product":
        g, h = params
        return product_group(g, h)
    raise ValueError(f"unknown group family {family!r}")


def parse_group_spec(spec: str) -> GroupTable:
    """Build a group from a compact spec string like ``Z12``, ``D4`` or ``Z2xZ2``.

    Accepted atoms: ``Z<n>``/``C<n>`` (cyclic), ``D<m>`` (dihedral, order 2m),
    ``S<m>`` (symmetric).  Atoms joined with ``x`` form direct products.
    """
    s = spec.replace(" ", "")
    if not s:
        raise ValueError("empty group spec")
    groups = []
    for atom in s.split("x"):
        kind, num = atom[:1].upper(), atom[1:]
        if not num.isdigit():
            raise ValueError(f"unrecognized group atom {atom!r} in {spec!r}")
        if kind in ("Z", "C"):
            groups.append(cyclic_group(int(num)))
        elif kind == "D":
            groups.append(dihedral_group(int(num)))
        elif kind == "S":
            groups.append(symmetric_group(int(num)))
        else:
            raise ValueError(f"unrecognized group atom {atom!r} in {spec!r}")
    out = groups[0]
    for right in groups[1:]:
        out = product_group(out, right)
    return out


def build_from_table(raw: Sequence[Sequence[int]] | np.ndarray, label: str = "") -> GroupTable:
    """Validate a raw multiplication table, relabeling the identity to index 0."""
    mul = np.asarray(raw)
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
        raise GroupAxiomError("table must be square")
    n = mul.shape[0]
    _check_capacity(n)
    idx = np.arange(n)
    e = -1
    for g in range(n):
        if np.array_equal(mul[g], idx) and np.array_equal(mul[:, g], idx):
            e = g
            break
    if e < 0:
        raise GroupAxiomError("table has no two-sided identity element")
    if e != 0:
        relabel = idx.copy()
        relabel[[0, e]] = relabel[[e, 0]]
        mul = relabel[mul[relabel][:, relabel]]
    return _finish_table(mul, label)


# ---------------------------------------------------------------------------
# Permutations and permutation groups


@dataclass(frozen=True)
class Permutation:
    """A bijection of ``0..n-1`` stored in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"not a permutation of [0,{n}): {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(n))
        for cyc in cycles:
            for i, a in enumerate(cyc):
                images[a] = cyc[(i + 1) % len(cyc)]
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, s: int) -> int:
        return self.images[s]

    def then(self, other: "Permutation") -> "Permutation":
        """The group product self*other, acting as s -> other(self(s))."""
        return Permutation(tuple(other.images[i] for i in self.images))

    def inverse(self) -> "Permutation":
        images = [0] * len(self.images)
        for s, t in enumerate(self.images):
            images[t] = s
        return Permutation(tuple(images))


@dataclass(frozen=True)
class PermGroup:
    """A permutation group given by generators together with its full element list."""

    degree: int
    generators: tuple[Permutation, ...]
    elements: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_transitive(self) -> bool:
        seen = {p.images[0] for p in self.elements}
        return len(seen) == self.degree

    @cached_property
    def table(self) -> GroupTable:
        """The abstract multiplication table of this group (identity at 0)."""
        index = {p.images: i for i, p in enumerate(self.elements)}
        n = self.order
        mul = np.empty((n, n), dtype=np.int64)
        for i, p in enumerate(self.elements):
            for j, q in enumerate(self.elements):
                mul[i, j] = index[p.then(q).images]
        return _finish_table(mul, f"perm_group_deg{self.degree}")


def group_closure(
    degree: int, gens: Sequence[Permutation], cap: int = CLOSURE_CAP
) -> PermGroup:
    """Enumerate the subgroup generated by ``gens``.

    Breadth-first from the identity, applying generators in list order, so
    the element ordering is deterministic.  Raises CapacityError past ``cap``.
    """
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    ident = Permutation.identity(degree)
    elements = [ident]
    seen = {ident.images}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = p.then(g)
                if q.images not in seen:
                    if len(elements) >= cap:
                        raise CapacityError(
                            f"closure exceeded the cap of {cap} elements"
                        )
                    seen.add(q.images)
                    elements.append(q)
                    nxt.append(q)
        frontier = nxt
    return PermGroup(degree=degree, generators=tuple(gens), elements=tuple(elements))


# ---------------------------------------------------------------------------
# Group functions


@dataclass(frozen=True)
class GroupFunction:
    """A map f: G -> R (or C), stored as a length-|G| value array."""

    group: GroupTable
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.shape != (self.group.order,):
            raise ValueError(
                f"value array has shape {values.shape}, expected ({self.group.order},)"
            )
        dtype = np.complex128 if np.iscomplexobj(values) else np.float64
        values = np.ascontiguousarray(values, dtype=dtype)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, group: GroupTable, c: float | complex) -> "GroupFunction":
        return cls(group, np.full(group.order, c))

    @classmethod
    def indicator(cls, group: GroupTable, support: Iterable[int]) -> "GroupFunction":
        values = np.zeros(group.order)
        for g in support:
            if not 0 <= g < group.order:
                raise ValueError(f"element index {g} outside [0, {group.order})")
            values[g] = 1.0
        return cls(group, values)

    def is_symmetric(self) -> bool:
        """True when f(g) = f(g^-1) for every g (the undirected case)."""
        return bool(np.array_equal(self.values, self.values[self.group.inv]))


def convolve(f1: GroupFunction, f2: GroupFunction) -> GroupFunction:
    """Convolution under the averaging measure: (f1*f2)(g) = mean_h f1(g h^-1) f2(h)."""
    if not f1.group.same_as(f2.group):
        raise ValueError("group mismatch between convolution operands")
    g = f1.group
    out = f1.values[g.ghinv] @ f2.values / g.order
    return GroupFunction(g, out)


def function_norm(f: GroupFunction, p: float) -> float:
    """Averaging-measure p-norm: (mean |f|^p)^(1/p); p = inf gives max |f|."""
    if p != math.inf and p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    mags = np.abs(f.values)
    if p == math.inf:
        return float(mags.max()) if mags.size else 0.0
    return float(np.mean(mags**p) ** (1.0 / p))
