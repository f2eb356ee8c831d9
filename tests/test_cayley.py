"""Cayley matrices, automorphism certificates, lifts."""

import itertools
import time
import warnings

import numpy as np
import pytest

from cayleynorms import (
    CapacityError,
    GroupFunction,
    analyze,
    cayley_certificate,
    cayley_from_set,
    cayley_matrix,
    center_regular,
    complete_graph,
    cycle_graph,
    cyclic_group,
    dihedral_group,
    example1_graph,
    find_transitive_automorphisms,
    group_closure,
    lift_to_group,
    paley_graph,
    petersen_graph,
    quadratic_residues,
    random_regular,
    serial,
)
from cayleynorms.cayley import AUTOMORPHISM_SEARCH_LIMIT, _Search
from cayleynorms.cli import main
from cayleynorms.verify import _dihedral4_graphs


def test_cayley_matrix_z2():
    g = cyclic_group(2)
    a = cayley_matrix(GroupFunction(g, np.array([1.0, -1.0])))
    assert np.array_equal(a, [[1.0, -1.0], [-1.0, 1.0]])
    assert np.array_equal(a, a.T)
    assert not a.flags.writeable


def test_cayley_matrix_cycle_indicator():
    for n in (5, 8):
        g = cyclic_group(n)
        a = cayley_matrix(GroupFunction.indicator(g, [1, n - 1]))
        expected = np.zeros((n, n))
        for i in range(n):
            expected[i, (i + 1) % n] = expected[i, (i - 1) % n] = 1.0
        assert np.array_equal(a, expected)
        assert np.array_equal(a, a.T)


def test_cayley_matrix_defining_formula():
    g = dihedral_group(3)
    rng = np.random.Generator(np.random.Philox(0))
    f = GroupFunction(g, rng.standard_normal(6))
    m = cayley_matrix(f)
    for a in range(6):
        for b in range(6):
            assert m[a, b] == f.values[g.mul[a, g.inv[b]]]
    assert m.flags.c_contiguous


def test_cayley_asymmetric_flag_and_row_sums():
    g = cyclic_group(5)
    a = cayley_matrix(GroupFunction.indicator(g, [1]))
    assert not np.array_equal(a, a.T)
    # every row sums to sum_s f(s) = 1
    assert np.all(a.sum(axis=1) == 1.0)


def test_cayley_matrix_is_symmetric_exactly_when_f_is():
    for g in (cyclic_group(6), dihedral_group(3), dihedral_group(4)):
        for values in itertools.product((0.0, 1.0), repeat=g.order):
            f = GroupFunction(g, np.array(values))
            a = cayley_matrix(f)
            assert np.array_equal(a, a.T) == np.array_equal(f.values, f.values[g.inv])


def test_cayley_rows_are_value_permutations():
    g = dihedral_group(4)
    f = GroupFunction(g, np.arange(8, dtype=float))
    a = cayley_matrix(f)
    want = np.sort(f.values)
    for i in range(8):
        assert np.array_equal(np.sort(a[i]), want)
        assert np.array_equal(np.sort(a[:, i]), want)


def test_cayley_from_set_paley13():
    g = cyclic_group(13)
    residues = sorted({(x * x) % 13 for x in range(1, 13)})
    assert residues == [1, 3, 4, 9, 10, 12]
    assert quadratic_residues(13) == residues
    a = cayley_from_set(g, residues)
    assert np.array_equal(a, a.T)
    assert np.all(a.sum(axis=1) == 6.0)
    assert np.array_equal(a, paley_graph(13).matrix)


def test_cayley_from_set_edge_cases():
    g = cyclic_group(4)
    assert not cayley_from_set(g, []).any()
    assert np.array_equal(cayley_from_set(g, range(4)), np.ones((4, 4)))
    with pytest.raises(ValueError):
        cayley_from_set(g, [7])


def test_center_regular():
    n = 6
    j = np.ones((n, n))
    assert not center_regular(j, n).any()
    kn = j - np.eye(n)
    assert np.allclose(center_regular(kn, n - 1), j / n - np.eye(n))
    pal = paley_graph(13)
    centered = center_regular(pal.matrix, 6)
    assert np.allclose(centered.sum(axis=1), 0.0)


def test_center_regular_of_the_empty_matrix():
    assert center_regular(np.zeros((0, 0)), 0).shape == (0, 0)


def test_center_regular_rejects_complex_and_non_finite():
    # a complex matrix was silently cast to its real part
    for bad, match in ((np.eye(3) + 1j * np.eye(3), "real"),
                       (np.full((3, 3), np.nan), "finite"), (np.full((3, 3), np.inf), "finite")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                center_regular(bad, 1)


def test_find_transitive_automorphisms_petersen():
    cert = find_transitive_automorphisms(petersen_graph().matrix)
    assert cert is not None
    a = petersen_graph().matrix
    assert cert.dtype == np.int64 and not cert.flags.writeable
    # the targets 1, 2, 3 and 4 are each the smallest vertex that the earlier
    # rows do not send 0 to
    assert cert.tolist() == [[1, 0, 2, 3, 4, 7, 8, 5, 6, 9],
                             [2, 0, 1, 3, 5, 7, 9, 4, 6, 8],
                             [3, 0, 1, 2, 6, 8, 9, 4, 5, 7],
                             [4, 0, 5, 6, 1, 7, 8, 2, 3, 9]]
    for img in cert:
        assert np.array_equal(a[np.ix_(img, img)], a)
    subgroup = group_closure(10, cert)
    assert subgroup.is_transitive() and subgroup.order == 120


def test_find_transitive_automorphisms_star_absent():
    star = np.zeros((4, 4))
    star[0, 1:] = star[1:, 0] = 1.0
    assert find_transitive_automorphisms(star) is None


def test_find_transitive_automorphisms_cayley_always_present():
    g = dihedral_group(3)
    assert find_transitive_automorphisms(cayley_from_set(g, [1, 2, 3])) is not None


def test_automorphism_search_capacity():
    with pytest.raises(CapacityError):
        find_transitive_automorphisms(np.zeros((65, 65)))


def _brute_force_transitive(a):
    """Oracle: scan all n! permutations for automorphisms reaching every vertex."""
    n = a.shape[0]
    reached = set()
    for images in itertools.permutations(range(n)):
        img = np.asarray(images)
        if np.array_equal(a[np.ix_(img, img)], a):
            reached.add(images[0])
    return len(reached) == n


def test_search_matches_brute_force_small():
    cases = []
    c5 = np.zeros((5, 5))
    for i in range(5):
        c5[i, (i + 1) % 5] = c5[i, (i - 1) % 5] = 1.0
    cases.append(c5)
    path = np.zeros((4, 4))
    for i in range(3):
        path[i, i + 1] = path[i + 1, i] = 1.0
    cases.append(path)
    star = np.zeros((4, 4))
    star[0, 1:] = star[1:, 0] = 1.0
    cases.append(star)
    k4_minus_edge = np.ones((4, 4)) - np.eye(4)
    k4_minus_edge[0, 1] = k4_minus_edge[1, 0] = 0.0
    cases.append(k4_minus_edge)
    rng = np.random.Generator(np.random.Philox(9))
    m = rng.integers(0, 2, size=(5, 5)).astype(float)
    cases.append((m + m.T) % 2)
    for a in cases:
        assert (find_transitive_automorphisms(a) is not None) == _brute_force_transitive(a)


def test_certificate_is_lexicographically_first_per_vertex():
    # C4 automorphisms mapping 0 -> 1: the reflection (1,0,3,2) precedes the
    # rotation (1,2,3,0) in lexicographic order, so it must be the one found;
    # its orbit of 0 is {0, 1}, so the next target is 2, reached first by the
    # reflection (2,1,0,3), and then every vertex is reached
    a = np.zeros((4, 4))
    for i in range(4):
        a[i, (i + 1) % 4] = a[i, (i - 1) % 4] = 1.0
    cert = find_transitive_automorphisms(a)
    assert cert.tolist() == [[1, 0, 3, 2], [2, 1, 0, 3]]


def test_right_translations_are_automorphisms():
    for g in (cyclic_group(7), dihedral_group(4), cyclic_group(12)):
        rng = np.random.Generator(np.random.Philox(g.order))
        f = GroupFunction(g, rng.standard_normal(g.order))
        a = cayley_matrix(f)
        for h in range(g.order):
            img = g.mul[:, h]
            assert np.array_equal(a[np.ix_(img, img)], a)


def test_cayley_certificate_is_right_translation():
    g = dihedral_group(4)
    cert = cayley_certificate(g)
    a = cayley_from_set(g, [1, 3, 4])
    for t, sigma in enumerate(cert):
        assert sigma[0] == t
        assert np.array_equal(sigma, g.mul[:, t])
        assert np.array_equal(a[np.ix_(sigma, sigma)], a)
    subgroup = group_closure(8, cert)
    assert subgroup.is_transitive()
    assert subgroup.order == 8


def test_lift_cycle_rotations():
    n = 6
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[i, (i - 1) % n] = 1.0
    rot = [(i + 1) % n for i in range(n)]
    g = group_closure(n, [rot])
    f = lift_to_group(a, g)
    ones = np.flatnonzero(f.values == 1.0)
    # exactly the two rotations mapping 0 to a neighbour of 0
    assert sorted(g.elements[ones, 0].tolist()) == [1, n - 1]
    assert f.values.sum() == 2.0


def test_lift_all_ones():
    a = np.ones((4, 4))
    f = lift_to_group(a, group_closure(4, [[1, 2, 3, 0]]))
    assert np.all(f.values == 1.0)


def test_lift_petersen_counts_by_orbit_stabilizer():
    a = petersen_graph().matrix
    cert = find_transitive_automorphisms(a)
    subgroup = group_closure(10, cert)
    f = lift_to_group(a, subgroup)
    order = subgroup.order
    assert float(f.values.sum()) == pytest.approx(3 * order / 10)


def test_lift_rejects_non_automorphism():
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 1.0
    bad = group_closure(4, [[1, 2, 3, 0]])
    with pytest.raises(ValueError, match=r"element 1 is not an automorphism: entry \(s,t\) = \(0,1\)"):
        lift_to_group(a, bad)


def test_lift_rejects_intransitive_group():
    a = np.zeros((4, 4))
    with pytest.raises(ValueError, match="transitively"):
        lift_to_group(a, group_closure(4, [[1, 0, 3, 2]]))


def test_lift_rejects_an_empty_matrix():
    with pytest.raises(ValueError, match="non-empty"):
        lift_to_group(np.zeros((0, 0)), group_closure(0, []))


def test_lift_rejects_complex_and_non_finite():
    # a complex matrix was silently cast to its real part
    z4 = group_closure(4, [[1, 2, 3, 0]])
    circulant = cayley_matrix(GroupFunction(cyclic_group(4), np.array([0.0, 1.0, 0.0, 1.0])))
    for bad, match in ((circulant + 1j * np.eye(4), "real"), (circulant + np.nan, "finite")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                lift_to_group(bad, z4)


def test_lift_then_cayley_reproduces_matrix_under_regular_action():
    g = dihedral_group(3)
    rng = np.random.Generator(np.random.Philox(21))
    f = GroupFunction(g, rng.standard_normal(6))
    a = cayley_matrix(f)
    cert = cayley_certificate(g)
    subgroup = group_closure(6, cert)
    lifted = lift_to_group(a, subgroup)
    a2 = cayley_matrix(lifted)
    # relabel vertex i of the rebuilt matrix by where element i sends the base
    relabel = subgroup.elements[:, 0]
    assert np.array_equal(a2, a[np.ix_(relabel, relabel)])


# ---------------------------------------------------------------------------
# The search against a reference: the prefix-compare backtracking that the
# individualization-refinement search replaced, kept here as an oracle for
# the lexicographically first automorphism sending 0 to a vertex, and the
# certificate's orbit rule over such an oracle.


def _orbit_of_zero(rows):
    """The vertices that compositions of the rows send 0 to, by a depth-first walk."""
    orbit, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for q in rows:
            if q[v] not in orbit:
                orbit.add(q[v])
                stack.append(q[v])
    return orbit


def _orbit_rule(n, first_to):
    """Row j is first_to(t) for the smallest t outside the orbit of 0 under
    rows 0..j-1; None as soon as first_to(t) is None."""
    rows = []
    for t in range(n):
        if t in _orbit_of_zero(rows):
            continue
        p = first_to(t)
        if p is None:
            return None
        rows.append(p)
    return rows


def _reference_extend(a, target, compat):
    n = a.shape[0]
    if not compat[0, target]:
        return None
    images = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    images[0] = target
    used[target] = True
    cursor = np.zeros(n, dtype=np.int64)
    s = 1
    while 0 < s < n:
        found = False
        img_prefix = images[:s]
        for v in range(cursor[s], n):
            if used[v] or not compat[s, v]:
                continue
            if not np.array_equal(a[img_prefix, v], a[:s, s]):
                continue
            if not np.array_equal(a[v, img_prefix], a[s, :s]):
                continue
            images[s] = v
            used[v] = True
            cursor[s] = v + 1
            found = True
            break
        if found:
            s += 1
            if s < n:
                cursor[s] = 0
        else:
            cursor[s] = 0
            s -= 1
            if s >= 1:
                used[images[s]] = False
                images[s] = -1
    if s == 0:
        return None
    return tuple(int(x) for x in images)


def _reference_certificate(a):
    """The certificate's rows by the orbit rule over the reference search, or None."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    row = [np.sort(a[s]).tobytes() for s in range(n)]
    col = [np.sort(a[:, s]).tobytes() for s in range(n)]
    diag = [a[s, s] for s in range(n)]
    compat = np.array([[row[s] == row[v] and col[s] == col[v] and diag[s] == diag[v]
                        for v in range(n)] for s in range(n)])
    return _orbit_rule(n, lambda t: _reference_extend(a, t, compat))


def _certificate(a):
    cert = find_transitive_automorphisms(a)
    return None if cert is None else [tuple(p) for p in cert.tolist()]


def _triangular8():
    pairs = list(itertools.combinations(range(8), 2))
    return pairs, np.array([[float(p != q and bool(set(p) & set(q))) for q in pairs]
                            for p in pairs])


def _weighted_cayley_matrices():
    for g in (cyclic_group(12), dihedral_group(4), dihedral_group(5)):
        rng = np.random.Generator(np.random.Philox(g.order))
        for values in (rng.standard_normal(g.order), rng.integers(-2, 3, g.order) * 1.0):
            yield f"{g.order}-asymmetric", cayley_matrix(GroupFunction(g, values))
            sym = values + values[g.inv]
            yield f"{g.order}-symmetric", cayley_matrix(GroupFunction(g, sym))


def _reference_cases():
    for p in (5, 13, 17, 29, 37):
        yield f"paley{p}", paley_graph(p).matrix
    for n in range(3, 25):
        yield f"cycle{n}", cycle_graph(n).matrix
    for n in range(2, 11):
        yield f"complete{n}", complete_graph(n).matrix
    yield "petersen", petersen_graph().matrix
    yield "T8", _triangular8()[1]
    for name, g in _dihedral4_graphs():
        yield name, g.matrix
    yield from _weighted_cayley_matrices()


@pytest.mark.parametrize("name,a", [pytest.param(name, a, id=name) for name, a in _reference_cases()])
def test_certificates_match_reference_search(name, a):
    a = np.asarray(a, dtype=np.float64)
    for b in (a, a - a.sum(axis=1).mean() / a.shape[0]):
        want = _reference_certificate(b)
        assert want is not None, name
        assert _certificate(b) == want, name


def test_certificates_match_brute_force_with_planted_symmetry():
    """Seeded weighted, directed n <= 6 matrices invariant under a planted permutation."""
    rng = np.random.Generator(np.random.Philox(2024))
    found = refuted = 0
    for trial in range(60):
        n = int(rng.integers(2, 7))
        # every other trial plants an n-cycle, whose powers act transitively
        relabel = rng.permutation(n)
        sigma = np.empty(n, dtype=np.int64)
        sigma[relabel] = relabel[(np.arange(n) + 1) % n]
        if trial % 2:
            sigma = rng.permutation(n)
        # colour the ordered pairs by their orbit under sigma
        orbit = -np.ones((n, n), dtype=np.int64)
        k = 0
        for x, y in itertools.product(range(n), repeat=2):
            while orbit[x, y] < 0:
                orbit[x, y] = k
                x, y = sigma[x], sigma[y]
            k += 1
        values = rng.integers(-2, 3, size=k) * (1.0 if trial % 4 < 2 else -0.5)
        a = values[orbit]
        # permutations come in lexicographic order
        autos = [images for images in itertools.permutations(range(n))
                 if np.array_equal(a[np.ix_(images, images)], a)]
        want = _orbit_rule(n, lambda t: next((p for p in autos if p[0] == t), None))
        assert _certificate(a) == want, (trial, a.tolist())
        found += want is not None
        refuted += want is None
    assert found >= 20 and refuted >= 10


def _chang_graphs():
    pairs, t8 = _triangular8()

    def cycle(vs):
        return {tuple(sorted((vs[i], vs[(i + 1) % len(vs)]))) for i in range(len(vs))}

    switchings = ({(0, 1), (2, 3), (4, 5), (6, 7)}, cycle(range(8)),
                  cycle([0, 1, 2]) | cycle([3, 4, 5, 6, 7]))
    for switch in switchings:
        inside = np.array([p in switch for p in pairs])
        flip = np.not_equal.outer(inside, inside)
        yield np.where(flip, 1.0 - t8, t8)


def test_chang_graphs_are_refuted():
    # Seidel switchings of T(8): SRG(28, 12, 6, 4) like T(8), which colour
    # refinement cannot split at the root, but not vertex-transitive
    for a in _chang_graphs():
        assert np.all(a.sum(axis=1) == 12.0) and np.array_equal(a, a.T)
        sq = a @ a
        adjacent = a == 1.0
        off = ~adjacent & ~np.eye(28, dtype=bool)
        assert np.all(sq[adjacent] == 6.0) and np.all(sq[off] == 4.0)
        assert find_transitive_automorphisms(a) is None
        assert find_transitive_automorphisms(center_regular(a, 12)) is None


def _transitivity_corpus():
    """Cycles, complete graphs, Paley graphs (raw and centered), Petersen,
    random regular graphs, directed dihedral Cayley graphs, Example 1 graphs,
    disjoint unions of cycles, the Chang graphs and Gaussian matrices."""
    yield "empty", np.zeros((0, 0))
    yield "one-vertex", np.ones((1, 1))
    for n in (3, 4, 5, 7, 8, 12, 16, 20, 27, 33, 48, 64):
        yield f"cycle{n}", cycle_graph(n).matrix
    for n in (2, 3, 5, 9, 16):
        yield f"complete{n}", complete_graph(n).matrix
    for p in (5, 13, 17, 29, 37, 41, 53, 61):
        g = paley_graph(p)
        yield f"paley{p}", g.matrix
        yield f"paley{p}-centered", center_regular(g.matrix, g.degree)
    yield "petersen", petersen_graph().matrix
    for n, d, seed in ((6, 3, 0), (8, 3, 1), (10, 3, 2), (12, 4, 3), (16, 3, 4), (17, 4, 5),
                       (20, 5, 6), (24, 4, 7), (30, 3, 8), (40, 6, 9)):
        yield f"rr{n}-{d}", random_regular(n, d, seed=seed).matrix
    rng = np.random.Generator(np.random.Philox(53))
    for m in (3, 4, 5, 8, 12, 16):
        d = dihedral_group(m)
        for k in (1, 2, 3):
            subset = rng.choice(np.arange(1, d.order), size=k, replace=False).tolist()
            yield f"D{m}-directed{subset}", cayley_from_set(d, subset)
    for d, n, seed in ((4, 12, 0), (6, 16, 1), (6, 20, 2), (8, 24, 3)):
        g = example1_graph(d, n, seed=seed)
        yield f"example1-{d}-{n}", center_regular(g.matrix, g.degree)
    for sizes in ((3, 4), (3, 3, 6), (5, 5), (4, 8)):
        a = np.zeros((sum(sizes), sum(sizes)))
        start = 0
        for k in sizes:
            a[start:start + k, start:start + k] = cycle_graph(k).matrix
            start += k
        yield f"cycles{sizes}", a
    for i, a in enumerate(_chang_graphs()):
        yield f"chang{i}", a
    for n in (2, 4, 9, 16):
        yield f"gauss{n}", rng.standard_normal((n, n))


def _per_vertex_verdict(a):
    """The search with no orbit closure: when the root colouring is one class,
    a search 0 -> t for every vertex t."""
    n = a.shape[0]
    if n < 2:
        return True
    search = _Search(a)
    # the root shortcut: no automorphism reaches a target the root colouring separates
    if np.any(search.root[0][:n] != search.root[0][0]):
        return False
    return all(search.automorphism_to(t) is not None for t in range(1, n))


def test_orbit_closure_agrees_with_the_full_search():
    verdicts = {}
    for name, a in _transitivity_corpus():
        n = a.shape[0]
        cert = find_transitive_automorphisms(a)
        verdicts[name] = cert is not None
        assert verdicts[name] == _per_vertex_verdict(a), name
        if cert is not None:
            for p in cert:
                assert np.array_equal(a[np.ix_(p, p)], a), name
            assert _orbit_of_zero(cert.tolist()) == set(range(max(n, 1))), name
    assert sum(verdicts.values()) > 50 and len(verdicts) - sum(verdicts.values()) > 20
    assert verdicts["cycles(5, 5)"] and not verdicts["cycles(3, 4)"]


def test_a_target_the_root_colouring_separates_has_no_automorphism():
    # such a target is pruned at once; it raised IndexError before
    separated = 0
    for name, a in _transitivity_corpus():
        n = a.shape[0]
        if n < 2:
            continue
        search = _Search(a)
        cls = search.root[0]
        for t in np.flatnonzero(cls[:n] != cls[0]).tolist():
            assert search.automorphism_to(t) is None, (name, t)
            separated += 1
    assert separated > 20


def test_random_four_regular_refutations_are_fast():
    # graphs on which the backtracking search did not finish in 30 s
    cases = ((28, 1), (30, 0), (30, 1), (30, 2), (32, 0), (32, 1), (32, 2))
    graphs = [random_regular(n, 4, seed=s) for n, s in cases]
    t0 = time.perf_counter()
    for g in graphs:
        assert find_transitive_automorphisms(center_regular(g.matrix, 4)) is None
    assert time.perf_counter() - t0 < 1.0


def test_signed_zero_does_not_refute_a_cayley_matrix():
    # a[2, 2] = -0.0 on a Cayley matrix of Z3
    a = np.array([[0.0, 1.0, 2.0], [2.0, 0.0, 1.0], [1.0, 2.0, -0.0]])
    cert = find_transitive_automorphisms(a)
    assert cert is not None
    assert cert.tolist() == [[1, 2, 0]]
    assert analyze(a).transitive is True


def test_signed_zero_through_cli_analyze(tmp_path):
    src = tmp_path / "m.json"
    src.write_text('{"kind": "matrix", "rows": 3, "cols": 3, '
                   '"entries": [0, 1, 2, 2, 0, 1, 1, 2, -0.0]}')
    assert np.signbit(serial.parse_matrix(src.read_text())[2, 2])
    out = tmp_path / "report.json"
    assert main(["analyze", str(src), "--out", str(out), "--quiet"]) == 0
    assert serial.parse_report(out.read_text())["transitive"] is True


@pytest.mark.parametrize("bad,match", [
    pytest.param(np.array([[0.0, np.nan], [np.nan, 0.0]]), "finite", id="nan"),
    pytest.param(np.array([[0.0, np.inf], [np.inf, 0.0]]), "finite", id="inf"),
    pytest.param(np.array([[0.0, -np.inf], [-np.inf, 0.0]]), "finite", id="-inf"),
    pytest.param(np.array([[0.0, 1j], [1j, 0.0]]), "real", id="complex"),
    pytest.param(np.zeros((2, 3)), "square", id="non-square"),
])
def test_search_rejects_invalid_input(bad, match):
    with pytest.raises(ValueError, match=match):
        find_transitive_automorphisms(bad)


def test_analyze_attempts_transitivity_up_to_the_search_cap():
    assert AUTOMORPHISM_SEARCH_LIMIT == 64
    assert analyze(cycle_graph(64).matrix).transitive is True
    report = analyze(cycle_graph(65).matrix)
    assert report.transitive is None
    assert "transitivity not attempted: n = 65 exceeds the search cap 64" in report.notes
