"""Cayley matrices, automorphism certificates, and lifts to group functions.

A weighted Cayley graph on a group G with weight function f has matrix
entries ``a[g, h] = f(g h^-1)``.  The base vertex for transitivity
certificates and lifts is index 0 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .errors import CapacityError
from .groups import _BLOCK_ENTRIES, GroupFunction, GroupTable, PermGroup, group_closure

AUTOMORPHISM_SEARCH_LIMIT = 64


@dataclass(frozen=True)
class TransitiveCertificate:
    """One automorphism per vertex mapping the base vertex 0 onto it.

    ``perms`` is a read-only n x n int64 array whose row t is an automorphism
    with ``perms[t, 0] = t``; ``subgroup`` is the closure of all the rows,
    a transitive group of automorphisms.  The closure is enumerated lazily:
    for highly symmetric matrices it can pass the table cap MAX_TABLE_ORDER,
    in which case accessing it raises CapacityError while the transitivity
    decision itself stands.
    """

    perms: np.ndarray

    def __post_init__(self):
        self.perms.setflags(write=False)

    @cached_property
    def subgroup(self) -> PermGroup:
        return group_closure(self.perms.shape[1], self.perms)


def cayley_matrix(f: GroupFunction) -> np.ndarray:
    """The read-only matrix ``a[g, h] = f(g h^-1)`` of f on its own group.

    Every row sums to sum_s f(s), and the matrix is symmetric exactly when
    f(g) = f(g^-1) for every g (the undirected case).  The matrix is
    C-ordered like every other matrix the library builds; indexing by the
    column-major ``ghinv`` alone would give a Fortran-ordered array.
    """
    a = np.ascontiguousarray(f.values[f.group.ghinv])
    a.setflags(write=False)
    return a


def cayley_from_set(group: GroupTable, subset: Iterable[int]) -> np.ndarray:
    """Cayley matrix of the indicator of a subset S; undirected iff S = S^-1."""
    return cayley_matrix(GroupFunction.indicator(group, subset))


def center_regular(a: np.ndarray, d: float) -> np.ndarray:
    """Return ``A - (d/n) J`` for a square matrix A."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if a.ndim != 2 or a.shape != (n, n):
        raise ValueError("center_regular needs a square matrix")
    return a - (d / n)


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


class _Search:
    """Individualization-refinement search for automorphisms of one matrix.

    A node colours the disjoint union of the domain copy (vertices 0..n-1)
    and the image copy (n..2n-1) of the matrix with one partition: ``cls``
    gives each vertex a class id, and ``size[c]`` is the number of domain
    (equally, image) vertices in class c.  An automorphism consistent with
    the node maps every domain vertex into the image part of its own class,
    so a class whose two parts differ in size prunes the node.  Classes are
    only ever split, so an individualized vertex stays a singleton.

    Refinement hashes labels instead of comparing them: entries get integer
    codes by float equality (``+ 0.0`` makes -0.0 and 0.0 one code), the
    label of the pair (x, y) is ``(code a[x, y], code a[y, x])``, and each
    label and each class id gets a random uint64 weight, the most common
    off-diagonal label weight 0.  A vertex x hears
    ``sum_w weight(label(x, w)) weight(class w)`` (mod 2^64, so exact and
    order-independent) over the vertices w of the splitter classes in the
    same copy.  That sum is a function of the multiset of (label, class)
    pairs, so equal multisets never separate; a collision only leaves a
    class unsplit, which costs pruning power and never soundness.  The
    fixed seed makes the search's work, never its result, repeatable.
    """

    _SEED = 0x5EED_CA11

    def __init__(self, a: np.ndarray):
        n = self.n = a.shape[0]
        self.a = a
        rng = np.random.default_rng(self._SEED)
        _, code = np.unique(a.ravel() + 0.0, return_inverse=True)
        code = code.reshape(n, n)
        off = ~np.eye(n, dtype=bool)
        labels, inverse, counts = np.unique(
            (code * (code.max() + 1) + code.T)[off], return_inverse=True, return_counts=True
        )
        weight = self._weights(rng, labels.size)
        weight[np.argmax(counts)] = 0
        h = np.zeros((n, n), dtype=np.uint64)
        h[off] = weight[inverse]
        self.h2 = np.zeros((2 * n, 2 * n), dtype=np.uint64)
        self.h2[:n, :n] = self.h2[n:, n:] = h
        # every class has a vertex in each copy, so there are at most n
        self.class_weight = self._weights(rng, n)
        _, root, size = np.unique(np.diag(code), return_inverse=True, return_counts=True)
        cls, size = np.concatenate([root, root]), size.tolist()
        # the two copies are equal, so refining the root never prunes
        self.refine(cls, size, list(range(2 * n)))
        self.root = (cls, size)

    @staticmethod
    def _weights(rng: np.random.Generator, k: int) -> np.ndarray:
        return rng.integers(1, np.iinfo(np.uint64).max, size=k, dtype=np.uint64, endpoint=True)

    def refine(self, cls: np.ndarray, size: list[int], queue: list[int]) -> bool:
        """Split classes in place until the colouring is stable; False when pruned.

        ``queue`` holds the vertices of the splitter classes.  Only vertices
        with a non-default label into the queue hear a nonzero sum, so only
        their classes are examined.  Each examined class splits by the sum;
        the new pieces are the next splitters, and the piece that keeps the
        old id is not queued, since it is the old class minus the queued
        pieces (Hopcroft).
        """
        n = self.n
        while queue:
            q = np.array(queue)
            heard = self.h2[:, q] @ self.class_weight[cls[q]]
            touched = np.flatnonzero(heard)
            pieces: dict[int, dict[int, list[int]]] = {}
            for x, c, s in zip(touched.tolist(), cls[touched].tolist(), heard[touched].tolist()):
                pieces.setdefault(c, {}).setdefault(s, []).append(x)
            queue = []
            for c, by_sum in pieces.items():
                split = list(by_sum.values())
                if sum(map(len, split)) == 2 * size[c]:
                    split = split[1:]
                for piece in split:
                    dom = sum(x < n for x in piece)
                    if 2 * dom != len(piece):
                        return False
                    cls[piece] = len(size)
                    size.append(dom)
                    size[c] -= dom
                    queue += piece
        return True

    def individualize(self, cls: np.ndarray, size: list[int], x: int,
                      y: int) -> Optional[tuple[np.ndarray, list[int]]]:
        """The refined node after mapping domain vertex x to image vertex y, or None if pruned."""
        cls, size = cls.copy(), list(size)
        pair = [x, self.n + y]
        size[cls[x]] -= 1
        cls[pair] = len(size)
        size.append(1)
        return (cls, size) if self.refine(cls, size, pair) else None

    def first_automorphism(self, cls: np.ndarray, size: list[int]) -> Optional[np.ndarray]:
        """The lexicographically first automorphism consistent with a refined node.

        Branches on the smallest domain vertex whose class is not a
        singleton, trying its images in ascending order: every smaller
        vertex is forced, so depth-first order meets the automorphisms in
        lexicographic order.  A discrete colouring forces the map, which is
        checked once against the matrix.
        """
        n = self.n
        dom, img = cls[:n], cls[n:]
        open_ = np.flatnonzero(np.asarray(size)[dom] > 1)
        if not open_.size:
            image_of = np.empty(len(size), dtype=np.int64)
            image_of[img] = np.arange(n)
            p = image_of[dom]
            return p if np.array_equal(self.a[np.ix_(p, p)], self.a) else None
        x = int(open_[0])
        for y in np.flatnonzero(img == dom[x]).tolist():
            child = self.individualize(cls, size, x, y)
            if child is not None:
                p = self.first_automorphism(*child)
                if p is not None:
                    return p
        return None


def find_transitive_automorphisms(a: np.ndarray) -> Optional[TransitiveCertificate]:
    """Decide vertex-transitivity constructively for a square matrix.

    Returns a certificate whose ``perms[t]`` is the lexicographically first
    automorphism sending the base vertex 0 to t, or None if some vertex is
    unreachable.  The search is individualization-refinement (McKay and
    Piperno, Practical graph isomorphism II, 2014): colour refinement of the
    domain and image copies jointly, with incremental cell splitting, prunes
    every branch whose two copies' colour classes differ in size.  Its worst
    case is still exponential, so matrices above AUTOMORPHISM_SEARCH_LIMIT
    are rejected.  Complex or non-finite input is a ValueError.
    """
    a = _real_matrix(a, "automorphism search")
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("automorphism search needs a square matrix")
    if n > AUTOMORPHISM_SEARCH_LIMIT:
        raise CapacityError(
            f"automorphism search capped at n = {AUTOMORPHISM_SEARCH_LIMIT}, got {n}"
        )
    if n < 2:
        # no vertex or one: the identity, if any, is the whole certificate
        return TransitiveCertificate(perms=np.zeros((n, n), dtype=np.int64))
    search = _Search(a)
    cls, size = search.root
    if np.any(cls[:n] != cls[0]):
        # refinement alone tells some vertex from vertex 0
        return None
    perms = np.empty((n, n), dtype=np.int64)
    # the identity is the lexicographically first permutation of all
    perms[0] = np.arange(n)
    for t in range(1, n):
        node = search.individualize(cls, size, 0, t)
        p = None if node is None else search.first_automorphism(*node)
        if p is None:
            return None
        perms[t] = p
    return TransitiveCertificate(perms=perms)


def cayley_certificate(group: GroupTable) -> TransitiveCertificate:
    """The right-translation certificate of every Cayley matrix on a group.

    The map g -> g*t is an automorphism sending the identity to t, so Cayley
    matrices are always vertex-transitive; no search is needed.
    """
    return TransitiveCertificate(perms=group.mul.T.astype(np.int64))


def lift_to_group(a: np.ndarray, group: PermGroup) -> GroupFunction:
    """Lift a vertex-transitive matrix to a function on a transitive group.

    Given a transitive group of automorphisms (as permutations of the index
    set), returns f with ``f(g) = a[g(0), 0]`` on the group's abstract
    table.  The point of the construction is that the lift multiplies the
    spectral norm by n and the Grothendieck norm by n^2; those identities
    are checked by the norms module, not here.  An empty matrix is a
    ValueError.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if a.ndim != 2 or a.shape != (n, n) or n == 0:
        raise ValueError("lift needs a non-empty square matrix")
    if group.degree != n:
        raise ValueError(f"group degree {group.degree} != matrix size {n}")
    elements = group.elements
    block = max(1, _BLOCK_ENTRIES // (n * n))
    for start in range(0, group.order, block):
        p = elements[start:start + block]
        bad = np.argwhere(a[p[:, :, None], p[:, None, :]] != a)
        if bad.size:
            g_idx, s, t = bad[0].tolist()
            raise ValueError(
                f"element {start + g_idx} is not an automorphism: entry (s,t) = "
                f"({s},{t}) maps to a different value"
            )
    if not group.is_transitive():
        raise ValueError("group does not act transitively on the index set")
    return GroupFunction(group.table, a[elements[:, 0], 0])
