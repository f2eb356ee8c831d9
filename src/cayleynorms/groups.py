"""Finite groups as multiplication tables, and functions defined on them.

Elements are integers ``0..n-1`` with the identity always at index 0.
A permutation is a row of images, an int array; permutations compose
left-to-right: the product ``gh`` acts as ``(gh)(s) = h(g(s))``, which is
the row ``h[g]``.  All norms of group functions use the averaging
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

# Largest multiplication table we agree to materialize (7! elements), and
# so the largest permutation group a closure enumerates.
MAX_TABLE_ORDER = 5040

# Entries gathered at once when composing many permutations.
_BLOCK_ENTRIES = 1 << 22


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

    def same_as(self, other: "GroupTable") -> bool:
        return self is other or (
            self.order == other.order and np.array_equal(self.mul, other.mul)
        )


def _table_entries(raw, label: str) -> np.ndarray:
    """The table as int32, once every entry as given (before a cast could round
    0.7 or wrap 2**32) is found to be an integer in [0, n)."""
    mul = np.asarray(raw)
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1] or mul.size == 0:
        raise GroupAxiomError(f"{label}: multiplication table must be square and non-empty")
    n = mul.shape[0]
    if mul.dtype.kind in "iuf":
        ok = (mul >= 0) & (mul < n) & (mul == np.round(mul) if mul.dtype.kind == "f" else True)
    else:  # bool, complex, text, or Python integers too wide for int64
        ok = np.array([isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                       and 0 <= v < n for v in mul.ravel().tolist()]).reshape(n, n)
    if not ok.all():
        i, j = map(int, np.argwhere(~ok)[0])
        raise GroupAxiomError(f"{label}: entry mul[{i},{j}] = {mul[i].tolist()[j]!r} "
                              f"is not an integer in [0, {n})")
    return np.ascontiguousarray(mul, dtype=np.int32)


def _generating_set(mul: np.ndarray) -> tuple[list[int], np.ndarray, int]:
    """Greedy generators of a table's product closure: the picks (which alone
    generate it), the picks with their squares g^(2^k), 2^k < n, and the depth L.

    Each round picks the smallest element not yet reached, and a breadth-first
    search over right products in the table itself, which assumes no
    associativity, finds the reached set.  Every element is then a word
    ((s_1 s_2) ...) s_k with k <= L; the squares keep L small (D385: picks 1
    and 385, 11 generators, L = 5; any abelian group: L <= 2 log2 n).
    """
    n = mul.shape[0]
    picks, gens = [], []
    depth = np.where(np.arange(n) == 0, 0, -1)  # -1: not reached yet
    while depth.min() < 0:
        g = int(np.flatnonzero(depth < 0)[0])
        picks.append(g)
        for _ in range((n - 1).bit_length()):
            if g == 0 or g in gens:
                break
            gens.append(g)
            g = int(mul[g, g])
        depth[1:] = -1
        frontier, level = np.zeros(1, dtype=np.int64), 0
        while frontier.size:
            level += 1
            reached = mul[np.ix_(frontier, gens)].ravel()
            depth[reached[depth[reached] < 0]] = level
            frontier = np.flatnonzero(depth == level)
    return picks, np.array(gens, dtype=np.int64), int(depth.max())


def _check_axioms(mul: np.ndarray, label: str) -> np.ndarray:
    """Validate group axioms for a table of indices in [0, n); return the inverses.

    Assumes the identity is already at index 0.  Associativity is exact by
    Light's test (Clifford & Preston, *Algebraic Theory of Semigroups* I,
    1961, section 1.2): the y with (xy)z = x(yz) for all x, z are closed under
    the product, so one n x n comparison per pick of `_generating_set` suffices.
    """
    n = mul.shape[0]
    rng_n = np.arange(n)
    for side, line in (("left", mul[0]), ("right", mul[:, 0])):
        if not np.array_equal(line, rng_n):
            g = int(np.argmax(line != rng_n))
            raise GroupAxiomError(f"{label}: index 0 is not a {side} identity at g={g}")

    is_unit = mul == 0
    hits = is_unit.sum(axis=1)
    inv = is_unit.argmax(axis=1).astype(mul.dtype)
    bad = (hits != 1) | (mul[inv, rng_n] != 0)
    if bad.any():
        g = int(np.argmax(bad))
        if hits[g] == 0:
            raise GroupAxiomError(f"{label}: element {g} has no inverse")
        if hits[g] > 1:
            raise GroupAxiomError(
                f"{label}: element {g} has multiple right inverses "
                f"{np.flatnonzero(is_unit[g]).tolist()}"
            )
        raise GroupAxiomError(f"{label}: inverse of {g} is one-sided (mul[{inv[g]},{g}] != 0)")

    for b in _generating_set(mul)[0]:
        left = np.take(mul, mul[:, b], axis=0)    # [a, c] -> (ab)c
        right = np.take(mul, mul[b], axis=1)      # [a, c] -> a(bc)
        if not np.array_equal(left, right):
            a, c = map(int, np.argwhere(left != right)[0])
            raise GroupAxiomError(f"{label}: associativity fails at (a,b,c) = ({a},{b},{c})")
    return inv


def _finish_table(raw, label: str) -> GroupTable:
    mul = _table_entries(raw, label or "group")
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
    mul = _table_entries(raw, label or "group")
    n = mul.shape[0]
    _check_capacity(n)
    idx = np.arange(n)
    ident = np.flatnonzero((mul == idx).all(axis=1) & (mul == idx[:, None]).all(axis=0))
    if ident.size == 0:
        raise GroupAxiomError("table has no two-sided identity element")
    e = int(ident[0])
    if e != 0:
        relabel = idx.copy()
        relabel[[0, e]] = relabel[[e, 0]]
        mul = relabel[mul[relabel][:, relabel]]
    return _finish_table(mul, label)


# ---------------------------------------------------------------------------
# Groups of permutations


@dataclass(frozen=True)
class PermGroup:
    """A permutation group: its generators (k x degree) and its elements
    (order x degree, the identity first), each a read-only int64 row of images."""

    degree: int
    generators: np.ndarray
    elements: np.ndarray

    def __post_init__(self):
        self.generators.setflags(write=False)
        self.elements.setflags(write=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_transitive(self) -> bool:
        return np.unique(self.elements[:, :1]).size == self.degree

    @cached_property
    def table(self) -> GroupTable:
        """The abstract multiplication table of this group (identity at 0).

        An element is told apart from the others by its images of a base,
        a few points chosen greedily.  Their images form a mixed-radix key,
        re-ranked after each point so that it stays below order * degree.
        The products of a block of rows with every element are composed by
        one gather of the base images, O(order * degree) memory per block,
        and each product's index is found from the sorted keys.
        """
        _check_capacity(self.order)
        n, d = self.order, self.degree
        perms = self.elements
        base, stages = [], []
        key = np.zeros(n, dtype=np.int64)
        distinct = 1
        for point in range(d):
            if distinct == n:
                break
            values, ranked = np.unique(key * d + perms[:, point], return_inverse=True)
            if len(values) > distinct:
                base.append(point)
                stages.append(values)
                key, distinct = ranked.reshape(n), len(values)
        index = np.empty(n, dtype=np.int64)
        index[key] = np.arange(n)
        # images[i, t, j] = perms[j, perms[i, base[t]]]: the base images of i then j
        columns = perms.T
        block = max(1, d // max(1, len(base)))
        mul = np.empty((n, n), dtype=np.int64)
        for start in range(0, n, block):
            images = columns[perms[start:start + block, base]]
            key = np.zeros(images.shape[::2], dtype=np.int64)
            for t, values in enumerate(stages):
                key = np.searchsorted(values, key * d + images[:, t])
            mul[start:start + block] = index[key]
        return _finish_table(mul, f"perm_group_deg{self.degree}")


def group_closure(degree: int, gens) -> PermGroup:
    """Enumerate the subgroup generated by the rows of ``gens``.

    Breadth-first from the identity: each frontier row p in turn, followed
    by each generator g in turn, gives the product g[p], and new products
    are kept in that order, so the element order is deterministic.  A row
    that is not a permutation of range(degree) is a ValueError; more than
    MAX_TABLE_ORDER elements, which no table could hold, is a CapacityError.
    """
    rows = np.asarray(gens)
    if rows.size == 0:
        rows = np.empty((0, degree), dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != degree:
        raise ValueError(f"generators must be rows of {degree} images, got shape {rows.shape}")
    bad = np.flatnonzero((np.sort(rows, axis=1) != np.arange(degree)).any(axis=1))
    if bad.size:
        raise ValueError(f"generator {bad[0]} is not a permutation of [0,{degree}): "
                         f"{rows[bad[0]].tolist()}")
    gens = rows.astype(np.int64)
    # rows are told apart by their bytes in the narrowest type that holds them
    key_type = np.min_scalar_type(max(degree - 1, 0))
    width = degree * key_type.itemsize
    frontier = np.arange(degree, dtype=np.int64)[None]
    seen = {frontier.astype(key_type).tobytes()}
    found = [frontier]
    block = max(1, _BLOCK_ENTRIES // max(1, len(gens) * degree))
    while len(frontier):
        fresh = []
        for start in range(0, len(frontier), block):
            p = frontier[start:start + block]
            # row i * k + j is generator j after frontier row i
            cand = np.swapaxes(gens[:, p], 0, 1).reshape(len(p) * len(gens), degree)
            keys = cand.astype(key_type).tobytes()
            new = []
            for i in range(len(cand)):
                key = keys[i * width:(i + 1) * width]
                if key not in seen:
                    if len(seen) >= MAX_TABLE_ORDER:
                        raise CapacityError(
                            f"group closure reached {len(seen) + 1} elements: "
                            f"its order exceeds the table cap {MAX_TABLE_ORDER}"
                        )
                    seen.add(key)
                    new.append(i)
            fresh.append(cand[new])
        frontier = np.concatenate(fresh)
        found.append(frontier)
    return PermGroup(degree=degree, generators=gens, elements=np.concatenate(found))


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
