"""Group tables, permutation closures, convolution, function norms."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from cayleynorms import (
    CapacityError,
    GroupAxiomError,
    GroupFunction,
    build_from_table,
    cayley_certificate,
    cayley_from_set,
    complete_graph,
    convolve,
    cycle_graph,
    cyclic_group,
    dihedral_group,
    find_transitive_automorphisms,
    function_norm,
    group_closure,
    paley_graph,
    parse_group_spec,
    petersen_graph,
    product_group,
    symmetric_group,
)
from cayleynorms import groups
from cayleynorms import serial
from cayleynorms.cayley import _Search


def test_cyclic4_arithmetic():
    g = cyclic_group(4)
    assert g.mul[1, 3] == 0
    assert g.inv[1] == 3
    assert g.order == 4


def test_dihedral4_is_nonabelian():
    g = dihedral_group(4)
    assert g.order == 8
    # exhaustive commutativity scan
    noncommuting = [
        (a, b) for a in range(8) for b in range(8) if g.mul[a, b] != g.mul[b, a]
    ]
    assert noncommuting
    assert g.mul[1, 4] != g.mul[4, 1]
    assert not g.is_abelian


def _dihedral_reference(m):
    """D_m by the presentation rule, one product at a time."""
    n = 2 * m
    mul = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        i, fa = a % m, a // m
        for b in range(n):
            j, fb = b % m, b // m
            # (r^i s^fa)(r^j s^fb) = r^(i + (-1)^fa j) s^(fa+fb)
            k = (i - j) % m if fa else (i + j) % m
            mul[a, b] = k + m * ((fa + fb) % 2)
    return mul


@pytest.mark.parametrize("m", list(range(1, 13)) + [384])
def test_dihedral_table_matches_presentation_rule(m):
    assert np.array_equal(dihedral_group(m).mul, _dihedral_reference(m))


def _broadcast_tables(m):
    """Z_m and D_m by the closed-form broadcasts of their rules, in the
    tables' int32 (every intermediate is below 4m, and int64 % is slower)."""
    idx = np.arange(m, dtype=np.int32)
    cyc = (idx[:, None] + idx[None, :]) % m
    idx = np.arange(2 * m, dtype=np.int32)
    i, f = idx % m, idx // m
    k = (i[:, None] + (1 - 2 * f[:, None]) * i[None, :]) % m
    return cyc, k + m * ((f[:, None] + f[None, :]) % 2)


def test_cyclic_and_dihedral_tables_equal_the_broadcast_formulas(monkeypatch):
    # every finished table keeps the raw one, so it is enough to compare the
    # raw table each constructor hands to `_finish_table`, for every m up to
    # 400 and two larger ones
    for m in (1, 2, 7, 768):
        cyc, dih = _broadcast_tables(m)
        assert np.array_equal(cyclic_group(m).mul, cyc), m
        assert np.array_equal(dihedral_group(m).mul, dih), m
    raw = []
    monkeypatch.setattr(groups, "_finish_table", lambda mul, label: raw.append(mul))
    for m in list(range(1, 401)) + [768, 1260]:
        cyclic_group(m)
        dihedral_group(m)
        cyc, dih = _broadcast_tables(m)
        assert np.array_equal(raw[-2], cyc) and np.array_equal(raw[-1], dih), m


def test_klein_four_group_self_inverse():
    g = product_group(cyclic_group(2), cyclic_group(2))
    assert g.order == 4
    assert np.array_equal(g.inv, np.arange(4))
    assert g.is_abelian


def test_symmetric_group_capacity():
    with pytest.raises(CapacityError):
        symmetric_group(10)  # 10! elements, past the table cap


def test_table_order_cap():
    with pytest.raises(CapacityError):
        cyclic_group(6000)


def test_parse_group_spec():
    assert parse_group_spec("Z12").order == 12
    assert parse_group_spec("D4").order == 8
    assert parse_group_spec("Z2xZ2").order == 4
    assert parse_group_spec("S3").order == 6
    with pytest.raises(ValueError):
        parse_group_spec("Q8")


def test_every_family_satisfies_axioms():
    # construction validates; spot-check mul/inv consistency on top
    for g in (cyclic_group(7), dihedral_group(5), symmetric_group(4),
              product_group(cyclic_group(3), dihedral_group(3))):
        n = g.order
        assert np.array_equal(g.mul[0], np.arange(n))
        for a in range(n):
            assert g.mul[a, g.inv[a]] == 0
            assert g.mul[g.inv[a], a] == 0


def test_build_from_table_z2():
    g = build_from_table([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.inv[1] == 1


def test_build_from_table_idempotent_nonidentity_rejected():
    with pytest.raises(GroupAxiomError, match="inverse"):
        build_from_table([[0, 1], [1, 1]])


def test_build_from_table_relabels_identity_to_zero():
    z3 = cyclic_group(3)
    # move the identity to index 2 by swapping labels 0 <-> 2
    relabel = np.array([2, 1, 0])
    shuffled = relabel[z3.mul[relabel][:, relabel]]
    g = build_from_table(shuffled)
    assert np.array_equal(g.mul[0], np.arange(3))


def test_build_from_table_associativity_diagnostic():
    # Z6 with an intercalate swap: still a latin square with identity and
    # two-sided inverses, but (1*1)*2 != 1*(1*2)
    raw = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    raw[1][1], raw[1][4] = 5, 2
    raw[4][4], raw[4][1] = 5, 2
    with pytest.raises(GroupAxiomError, match="associativity"):
        build_from_table(raw)


def test_build_from_table_rejects_nonsquare():
    with pytest.raises(GroupAxiomError):
        build_from_table([[0, 1]])


def _swapped_intercalate(n, a, b):
    """Z_n (n even) with the 2x2 subsquare on rows a, a + n/2 and columns
    b, b + n/2 swapped: still a latin square with identity 0 and two-sided
    inverses, but no longer associative."""
    h = n // 2
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    for r in (a, a + h):
        mul[r, [b, b + h]] = mul[r, [b + h, b]]
    return mul


def test_single_swapped_intercalate_at_order_770_is_caught():
    # a sample of 200,000 random triples (Philox(0)) misses this swap, which
    # touches 4 of the 592,900 products
    mul = _swapped_intercalate(770, 1, 197)
    assert (np.sort(mul, axis=0) == np.arange(770)[:, None]).all()
    assert (np.sort(mul, axis=1) == np.arange(770)).all()
    with pytest.raises(GroupAxiomError, match="associativity") as info:
        build_from_table(mul)
    a, b, c = map(int, re.search(r"\(a,b,c\) = \((\d+),(\d+),(\d+)\)",
                                 str(info.value)).groups())
    assert mul[mul[a, b], c] != mul[a, mul[b, c]]


@pytest.mark.parametrize("bad, shown", [
    (0.7, "0.7"),
    (2**32, "4294967296"),
    (2**64, "18446744073709551616"),
    (-1, "-1"),
    (float("nan"), "nan"),
    (float("inf"), "inf"),
])
def test_build_from_table_rejects_entries_that_are_not_indices(bad, shown):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GroupAxiomError,
                           match=re.escape(f"mul[1,1] = {shown} is not an integer in [0, 2)")):
            build_from_table([[0, 1], [1, bad]])


def test_build_from_table_accepts_integral_floats():
    g = build_from_table(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert g.mul.dtype == np.int32
    assert g.mul.tolist() == [[0, 1], [1, 0]]


def test_parse_group_rejects_entries_that_are_not_indices():
    obj = serial.group_to_obj(cyclic_group(2))
    obj["mul"] = [0, 1, 1, 0.5]
    with pytest.raises(GroupAxiomError, match=re.escape("mul[1,1] = 0.5 is not an integer")):
        serial.parse_group(obj)
    obj["mul"] = [0, 1, 1, 2**32]
    with pytest.raises(GroupAxiomError, match=re.escape("mul[1,1] = 4294967296")):
        serial.parse_group(obj)
    obj = serial.group_to_obj(cyclic_group(2))
    obj["inv"] = [0, 1.5]
    with pytest.raises(ValueError, match="inverse"):
        serial.parse_group(obj)


def test_group_serialization_round_trip_byte_equality():
    g = dihedral_group(4)
    text = serial.group_to_text(g)
    g2 = serial.parse_group(text)
    assert serial.group_to_text(g2) == text
    assert np.array_equal(g2.mul, g.mul)


def _cycles(n, *cycles):
    """The image row of a product of disjoint cycles on range(n)."""
    images = list(range(n))
    for cyc in cycles:
        for i, a in enumerate(cyc):
            images[a] = cyc[(i + 1) % len(cyc)]
    return images


S3_GENS = [_cycles(3, (0, 1)), _cycles(3, (0, 1, 2))]


def _reference_closure(degree, gens):
    """The tuple closure that the array closure replaced, on plain tuples:
    breadth-first, frontier-major and generator-minor, p then g is g[p]."""
    ident = tuple(range(degree))
    elements, seen, frontier = [ident], {ident}, [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[i] for i in p)
                if q not in seen:
                    seen.add(q)
                    elements.append(q)
                    nxt.append(q)
        frontier = nxt
    return elements


def test_permutation_composition_convention():
    # (gh)(s) = h(g(s)): the product of rows g then h is the row h[g]
    g, h = [1, 0, 2], [0, 2, 1]
    group = group_closure(3, [g, h])
    rows = group.elements.tolist()
    gh = group.table.mul[rows.index(g), rows.index(h)]
    assert rows[gh] == [h[g[s]] for s in range(3)]


def test_permutation_inverse_and_validation():
    group = group_closure(5, [_cycles(5, (0, 1, 2))])
    e = group.elements
    for i, j in enumerate(group.table.inv):
        assert e[j][e[i]].tolist() == list(range(5))
    for bad in ([[0, 0, 1]], [[0.5, 1, 2]], [[0, 1]], [0, 1, 2]):
        with pytest.raises(ValueError):
            group_closure(3, bad)


def test_permutation_rows_are_read_only_int64():
    group = group_closure(3, S3_GENS)
    # for n < 2 the certificate is empty (0, n) rows, "transitive" as it is not None
    small = [find_transitive_automorphisms(np.ones((n, n))) for n in (0, 1)]
    assert [rows.shape for rows in small] == [(0, 0), (0, 1)]
    for rows in (group.generators, group.elements, cayley_certificate(dihedral_group(4)), *small):
        assert rows.dtype == np.int64 and not rows.flags.writeable
    assert group.generators.tolist() == S3_GENS


def _brute_force_closure_order(degree, gens):
    """Independent oracle: pairwise-product fixpoint."""
    elems = {tuple(range(degree))} | {tuple(g) for g in gens}
    while True:
        new = {tuple(b[i] for i in a) for a in elems for b in elems} - elems
        if not new:
            return len(elems)
        elems |= new


def test_closure_s3():
    g = group_closure(3, S3_GENS)
    assert g.order == 6
    assert g.elements[0].tolist() == [0, 1, 2]
    assert g.order == _brute_force_closure_order(3, S3_GENS)


def test_closure_trivial_and_cyclic():
    assert group_closure(4, []).order == 1
    assert group_closure(0, []).order == 1
    ncycle = _cycles(8, tuple(range(8)))
    g = group_closure(8, [ncycle])
    assert g.order == 8
    powers = {tuple(range(8))}
    p = tuple(ncycle)
    while p not in powers:
        powers.add(p)
        p = tuple(ncycle[i] for i in p)
    assert set(map(tuple, g.elements.tolist())) == powers


def test_closure_matches_brute_force_on_random_gens():
    rng = np.random.Generator(np.random.Philox(3))
    for _ in range(5):
        gens = [rng.permutation(4).tolist() for _ in range(2)]
        assert group_closure(4, gens).order == _brute_force_closure_order(4, gens)


def _per_vertex_automorphisms(a):
    """Row t: the lexicographically first automorphism sending vertex 0 to t.
    Their closure is often larger than that of the few generators
    `find_transitive_automorphisms` returns, so it gives the closure tests
    their larger groups."""
    search = _Search(np.ascontiguousarray(a, dtype=np.float64))
    return np.array([search.automorphism_to(t) for t in range(a.shape[0])])


def _closure_cases():
    for p in (13, 29, 37):
        yield f"paley{p}", _per_vertex_automorphisms(paley_graph(p).matrix)
    yield "petersen", _per_vertex_automorphisms(petersen_graph().matrix)
    yield "complete6", _per_vertex_automorphisms(complete_graph(6).matrix)
    yield "cycle12", _per_vertex_automorphisms(cycle_graph(12).matrix)
    d4 = dihedral_group(4)
    yield "D4{1,3,4}", _per_vertex_automorphisms(cayley_from_set(d4, [1, 3, 4]))
    yield "D4 translations", cayley_certificate(d4)
    rng = np.random.Generator(np.random.Philox(7))
    for k in range(20):
        d = int(rng.integers(2, 8))
        yield f"random{k}", np.array([rng.permutation(d) for _ in range(2)])


def test_closure_matches_the_tuple_closure():
    orders = {}
    for name, gens in _closure_cases():
        got = group_closure(gens.shape[1], gens)
        want = _reference_closure(gens.shape[1], gens.tolist())
        assert got.elements.tolist() == [list(e) for e in want], name
        orders[name] = got.order
    assert [orders[k] for k in ("paley13", "paley29", "paley37", "petersen", "complete6",
                                "cycle12", "D4{1,3,4}", "D4 translations")] == [
        78, 406, 666, 120, 720, 24, 48, 8]


def test_closure_cap(monkeypatch):
    monkeypatch.setattr(groups, "MAX_TABLE_ORDER", 4)
    with pytest.raises(CapacityError, match="reached 5 elements: its order exceeds the table cap 4"):
        group_closure(3, S3_GENS)
    monkeypatch.setattr(groups, "MAX_TABLE_ORDER", 6)
    assert group_closure(3, S3_GENS).order == 6


def test_closure_to_table_identity_first():
    table = group_closure(3, S3_GENS).table
    assert table.order == 6
    assert not table.is_abelian


def test_perm_group_table_is_capped_before_it_allocates():
    # S_8, of order 40320 > 5040, built directly: its closure stops at the cap
    gens = np.array([_cycles(8, (0, 1)), _cycles(8, tuple(range(8)))])
    g = groups.PermGroup(degree=8, generators=gens,
                         elements=np.array(list(itertools.permutations(range(8)))))
    assert g.order == 40320
    with pytest.raises(CapacityError, match="group order 40320 exceeds the table cap 5040"):
        g.table


def _reference_perm_table(group):
    # every product p q composed in full, as the row q[p], and found by its whole
    # row of images, not by the images of a base as the table itself is
    rows = group.elements.astype(np.min_scalar_type(group.degree))
    products = rows[:, rows]  # [j, i] is element j after element i

    def whole_row(a):
        return np.ascontiguousarray(a).view(np.dtype((np.void, group.degree * a.itemsize)))[..., 0]

    keys = whole_row(rows)
    order = np.argsort(keys)
    at = np.searchsorted(keys[order], whole_row(products))
    found = order[np.minimum(at, group.order - 1)]
    assert np.array_equal(rows[found], products)  # each product is an element
    return found.T


def test_perm_group_table_matches_the_double_loop():
    groups_ = [group_closure(4, []), group_closure(3, S3_GENS)]
    for a in (paley_graph(13).matrix, paley_graph(29).matrix, paley_graph(37).matrix,
              cayley_from_set(dihedral_group(4), [1, 3, 4])):
        groups_.append(group_closure(a.shape[0], _per_vertex_automorphisms(a)))
    assert [g.order for g in groups_[2:]] == [78, 406, 666, 48]
    for g in groups_:
        want = _reference_perm_table(g)
        assert np.array_equal(g.table.mul, want)
        p, q = g.elements[-1], g.elements[g.order // 2]
        assert np.array_equal(g.elements[want[-1, g.order // 2]], q[p])


def test_convolution_identity_point_mass():
    g = cyclic_group(6)
    f = GroupFunction(g, np.arange(6, dtype=float))
    delta = np.zeros(6)
    delta[0] = 6.0  # scaled point mass: value n at the identity
    assert np.allclose(convolve(f, GroupFunction(g, delta)).values, f.values)


def test_convolution_of_constants():
    g = dihedral_group(3)
    c1 = GroupFunction.constant(g, 2.0)
    c2 = GroupFunction.constant(g, -1.5)
    assert np.allclose(convolve(c1, c2).values, -3.0)


def test_convolution_z4_indicator():
    g = cyclic_group(4)
    f = GroupFunction.indicator(g, [1, 3])
    out = convolve(f, f)
    # direct summation oracle
    expected = np.zeros(4)
    for gg in range(4):
        expected[gg] = sum(
            f.values[g.mul[gg, g.inv[h]]] * f.values[h] for h in range(4)
        ) / 4
    assert np.allclose(out.values, expected)
    assert out.values[0] == pytest.approx(2 / 4)


def test_convolution_is_associative():
    rng = np.random.Generator(np.random.Philox(11))
    for g in (cyclic_group(24), dihedral_group(6), symmetric_group(4)):
        f1 = GroupFunction(g, rng.standard_normal(g.order))
        f2 = GroupFunction(g, rng.standard_normal(g.order))
        f3 = GroupFunction(g, rng.standard_normal(g.order))
        left = convolve(convolve(f1, f2), f3)
        right = convolve(f1, convolve(f2, f3))
        assert np.abs(left.values - right.values).max() < 1e-12


def test_convolution_group_mismatch():
    f1 = GroupFunction.constant(cyclic_group(4), 1.0)
    f2 = GroupFunction.constant(cyclic_group(5), 1.0)
    with pytest.raises(ValueError, match="mismatch"):
        convolve(f1, f2)


def test_function_norm_examples():
    g = cyclic_group(2)
    one = GroupFunction.constant(g, 1.0)
    for p in (1, 2, 4, math.inf):
        assert function_norm(one, p) == pytest.approx(1.0)
    f = GroupFunction(g, np.array([3.0, -4.0]))
    assert function_norm(f, 2) == pytest.approx(math.sqrt(25 / 2))
    assert function_norm(f, math.inf) == 4.0
    with pytest.raises(ValueError):
        function_norm(f, 0.5)


def test_function_norm_rejects_nan_p():
    f = GroupFunction(cyclic_group(2), np.array([3.0, -4.0]))
    with pytest.raises(ValueError, match="p must be >= 1 or inf, got nan"):
        function_norm(f, math.nan)


def test_function_norm_monotone_in_p():
    rng = np.random.Generator(np.random.Philox(2))
    g = dihedral_group(5)
    for _ in range(10):
        f = GroupFunction(g, rng.standard_normal(10))
        norms = [function_norm(f, p) for p in (1, 2, 4, math.inf)]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_group_function_shape_validation():
    with pytest.raises(ValueError):
        GroupFunction(cyclic_group(3), np.ones(4))
