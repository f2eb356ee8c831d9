"""Irrep tables, the group Fourier transform, and its witnesses."""

import math
import re

import numpy as np
import pytest

from cayleynorms import (
    GroupFunction,
    BMConfig,
    abelian_character_norm,
    build_from_table,
    build_irrep_table,
    cayley_matrix,
    convolve,
    cyclic_group,
    dihedral_group,
    fourier_inverse,
    fourier_transform,
    grothendieck_bm,
    group_spectral,
    parse_group_spec,
    product_group,
    schur_average,
    spectral_norm,
    spectral_via_irreps,
    svd_witness,
    svd_witness as _svd_witness,
    validate_irrep_table,
)
from cayleynorms.fourier import Irrep, IrrepTable, ensure_valid_irreps

SHIPPED = ("Z8", "Z12", "Z2xZ2", "D4", "D5")


def _random_complex_function(g, rng):
    return GroupFunction(g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order))


# ---------------------------------------------------------------------------
# table construction and validation


def test_z4_characters():
    g = cyclic_group(4)
    table = build_irrep_table(g)
    assert table.dims == (1, 1, 1, 1)
    chars = {tuple(np.round(r.matrices[:, 0, 0], 12)) for r in table.irreps}
    expected = {tuple(np.round([1j ** (k * x) for x in range(4)], 12)) for k in range(4)}
    assert chars == expected


def test_klein_four_characters_are_signs():
    g = product_group(cyclic_group(2), cyclic_group(2))
    table = build_irrep_table(g)
    assert table.dims == (1, 1, 1, 1)
    for r in table.irreps:
        vals = r.matrices[:, 0, 0]
        assert np.allclose(np.abs(vals.imag), 0.0, atol=1e-12)
        assert set(np.round(vals.real).tolist()) <= {-1.0, 1.0}


def test_dihedral4_table_shape():
    table = build_irrep_table(dihedral_group(4))
    assert sorted(table.dims) == [1, 1, 1, 1, 2]
    assert sum(d * d for d in table.dims) == 8
    assert validate_irrep_table(table) == []


def test_dihedral5_table_shape():
    table = build_irrep_table(dihedral_group(5))
    assert sorted(table.dims) == [1, 1, 2, 2]
    assert validate_irrep_table(table) == []


def test_every_shipped_table_validates():
    for spec in SHIPPED:
        g = parse_group_spec(spec)
        assert validate_irrep_table(build_irrep_table(g)) == []


def test_abelian_builder_handles_relabelled_tables():
    z6 = cyclic_group(6)
    relabel = np.array([3, 1, 2, 0, 4, 5])
    shuffled = relabel[z6.mul[relabel][:, relabel]]
    g = build_from_table(shuffled)
    table = build_irrep_table(g)
    assert validate_irrep_table(table) == []
    assert len(table.irreps) == 6


def test_unsupported_family_points_to_parse_irreps():
    g = product_group(cyclic_group(2), dihedral_group(4))  # order 16, not dihedral
    with pytest.raises(ValueError, match="parse_irreps"):
        build_irrep_table(g)


def test_validate_checks_the_tables_own_group():
    # Z4's characters on a table whose group is the Klein group Z2xZ2
    z4 = cyclic_group(4)
    klein = product_group(cyclic_group(2), cyclic_group(2))
    mislabelled = IrrepTable.from_irreps(klein, build_irrep_table(z4).irreps)
    problems = validate_irrep_table(mislabelled)
    assert problems
    assert any("rho(ab) != rho(a)rho(b)" in p for p in problems)
    with pytest.raises(ValueError, match="invalid irrep table"):
        ensure_valid_irreps(mislabelled)


def test_validate_catches_incomplete_table():
    g = dihedral_group(4)
    table = build_irrep_table(g)
    partial = IrrepTable.from_irreps(g, table.irreps[:-1])
    problems = validate_irrep_table(partial)
    assert any("incomplete" in p for p in problems)


def test_validate_catches_non_unitary():
    g = cyclic_group(3)
    table = build_irrep_table(g)
    mats = table.irreps[1].matrices.copy()
    mats[1] *= 2.0
    bad = IrrepTable.from_irreps(g, (table.irreps[0],
                                     Irrep(dim=1, matrices=mats),
                                     table.irreps[2]))
    problems = validate_irrep_table(bad)
    assert any("unitary" in p or "rho(ab)" in p for p in problems)


def test_validate_catches_reducible_fake_irrep():
    g = dihedral_group(4)
    table = build_irrep_table(g)
    ones = [r for r in table.irreps if r.dim == 1]
    # direct sum of two characters passed off as a 2-dim irrep
    stack = np.zeros((8, 2, 2), dtype=complex)
    stack[:, 0, 0] = ones[0].matrices[:, 0, 0]
    stack[:, 1, 1] = ones[1].matrices[:, 0, 0]
    fake = Irrep(dim=2, matrices=stack)
    problems = validate_irrep_table(IrrepTable.from_irreps(g, (fake,)))
    assert any("not irreducible" in p for p in problems)
    # its character norm is 2, the reducibility fingerprint
    char_norm = float(np.mean(np.abs(fake.characters) ** 2))
    assert char_norm == pytest.approx(2.0, abs=1e-10)


def test_validate_names_a_repeated_irrep():
    g = dihedral_group(4)
    table = build_irrep_table(g)
    doubled = IrrepTable.from_irreps(g, table.irreps + (table.irreps[1],))
    problems = validate_irrep_table(doubled)
    assert [p for p in problems if "equivalent" in p] == [
        "irreps 1 and 5 are equivalent (character inner product 1.00e+00)"
    ]


def test_a_short_matrix_stack_is_refused_at_construction():
    g = dihedral_group(4)
    table = build_irrep_table(g)
    short = Irrep(dim=1, matrices=table.irreps[1].matrices[:5])
    irreps = (table.irreps[0], short) + table.irreps[2:]
    with pytest.raises(ValueError, match=r"^irrep 1: 5 matrices for a group of order 8$"):
        IrrepTable.from_irreps(g, irreps)
    # stacks given directly: a short one, or positions that are not 0..K-1 once each
    from cayleynorms.fourier import IrrepStack

    ones, two = table.stacks
    with pytest.raises(ValueError, match=r"^irrep 0: 5 matrices for a group of order 8$"):
        IrrepTable(g, (IrrepStack(1, ones.index, ones.matrices[:, :5].copy()), two))
    for index in ([0, 0, 1, 2], [0, 1, 2, 5]):
        with pytest.raises(ValueError, match="each table position"):
            IrrepTable(g, (IrrepStack(1, np.array(index), ones.matrices.copy()), two))


def test_dihedral_characters_are_exact_cosines():
    m = 384
    table = build_irrep_table(dihedral_group(m))
    two = [r for r in table.irreps if r.dim == 2]
    assert len(two) == (m - 1) // 2
    i = np.arange(m)  # index i is the rotation r^i
    for j, rho in enumerate(two, start=1):
        want = 2.0 * np.cos(2.0 * np.pi * ((j * i) % m) / m)
        assert np.abs(rho.characters[:m] - want).max() <= 1e-14


@pytest.mark.parametrize("spec", ["D385", "Z2xZ4", "Z4xZ4"])
def test_odd_dihedral_and_shuffled_abelian_tables_validate(spec):
    g = parse_group_spec(spec)
    if g.is_abelian:
        perm = np.random.Generator(np.random.Philox(9)).permutation(g.order)
        g = build_from_table(np.argsort(perm)[g.mul[perm][:, perm]])
    assert validate_irrep_table(build_irrep_table(g)) == []


@pytest.mark.parametrize("spec", [f"D{m}" for m in range(3, 13)] + ["D128", "D384"]
                         + [f"Z{n}" for n in range(1, 31)] + ["Z257", "Z1000", "Z16xZ16"])
def test_builtin_tables_validate(spec):
    g = parse_group_spec(spec)
    assert validate_irrep_table(build_irrep_table(g)) == []


def test_cyclic_characters_are_rounded_once():
    # chi_j(k) = exp(2 pi i jk / n) against long double: the angle 2 pi q / n
    # is rounded a few times, where a chain of k products drifts by k eps
    n = 257
    chars = np.stack([r.matrices[:, 0, 0] for r in build_irrep_table(cyclic_group(n)).irreps])
    j = np.rint(np.angle(chars[:, 1]) * n / (2 * np.pi)).astype(np.int64) % n
    angle = 2 * np.pi * np.longdouble((j[:, None] * np.arange(n)) % n) / n
    assert sorted(j.tolist()) == list(range(n))
    assert np.abs(chars.real - np.cos(angle)).max() <= 16 * np.finfo(float).eps
    assert np.abs(chars.imag - np.sin(angle)).max() <= 16 * np.finfo(float).eps


@pytest.mark.parametrize("spec", ["D4", "D385"])
def test_validate_catches_a_homomorphism_only_corruption(spec):
    # conjugating rho(x) and rho(x^-1) by one unitary keeps unitarity,
    # rho(x^-1) = rho(x)* and the characters, so only the homomorphism
    # check can see it
    g = parse_group_spec(spec)
    table = build_irrep_table(g)
    idx = table.dims.index(2)
    u = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    mats = table.irreps[idx].matrices.copy()
    for x in (3, g.inv[3]):
        mats[x] = u @ mats[x] @ u.conj().T
    irreps = list(table.irreps)
    irreps[idx] = Irrep(dim=2, matrices=mats)
    problems = validate_irrep_table(IrrepTable.from_irreps(g, tuple(irreps)))
    assert len(problems) == 1
    assert problems[0].startswith(f"irrep {idx}: rho(ab) != rho(a)rho(b) at (a,b)=")
    a, b = map(int, re.search(r"\(a,b\)=\((\d+),(\d+)\)", problems[0]).groups())
    assert np.abs(mats[g.mul[a, b]] - mats[a] @ mats[b]).max() > 1e-10


def test_validate_rejects_a_smooth_phase_error_that_passes_on_generators():
    # chi(k) exp(i A sin(2 pi k / n)) keeps |chi| = 1 and chi(-k) = conj chi(k);
    # on Z9 every generator product is within tol, but a pair is off by more
    from cayleynorms.groups import _generating_set

    n, tol = 9, 1e-10
    g = cyclic_group(n)
    table = build_irrep_table(g)
    phase = np.sin(2 * np.pi * np.arange(n) / n)
    _, gens, _ = _generating_set(g.mul)
    spread = np.abs(phase[g.mul] - phase[:, None] - phase[None, :])
    chi = table.irreps[1].matrices[:, 0, 0] * np.exp(0.95j * tol * phase / spread[:, gens].max())
    err = np.abs(chi[g.mul] - chi[:, None] * chi[None, :])
    assert err[:, gens].max() <= tol < err.max()
    irreps = list(table.irreps)
    irreps[1] = Irrep(dim=1, matrices=chi.reshape(n, 1, 1))
    problems = validate_irrep_table(IrrepTable.from_irreps(g, tuple(irreps)), tol=tol)
    assert len(problems) == 1
    assert problems[0].startswith("irrep 1: rho(ab) != rho(a)rho(b)")


def test_validate_diagnostics_do_not_depend_on_the_block_size(monkeypatch):
    # the unitarity, inverse and homomorphism checks take the irreps a block
    # at a time; one irrep per block, or a few, must report what one block of
    # them all does
    from cayleynorms import fourier

    tables = []
    for spec in ("Z12", "D5", "Z2xZ3xZ4"):
        g = parse_group_spec(spec)
        irreps = list(build_irrep_table(g).irreps)
        for i in (1, len(irreps) - 1):
            mats = irreps[i].matrices.copy()
            mats[3] *= np.exp(0.1j)
            irreps[i] = Irrep(dim=irreps[i].dim, matrices=mats)
        mats = irreps[-1].matrices.copy()
        mats[5] *= 1.001
        irreps[-1] = Irrep(dim=irreps[-1].dim, matrices=mats)
        tables.append(IrrepTable.from_irreps(g, tuple(irreps)))
    monkeypatch.setattr(fourier, "_HOMOMORPHISM_BLOCK_ENTRIES", 1 << 30)
    want = [validate_irrep_table(t) for t in tables]
    for text in ("rho(ab)", "non-unitary", "rho(g^-1)"):
        assert all(any(text in p for p in problems) for problems in want), text
    for entries in (1, 30):
        monkeypatch.setattr(fourier, "_HOMOMORPHISM_BLOCK_ENTRIES", entries)
        assert [validate_irrep_table(t) for t in tables] == want


def test_builtin_and_parsed_irreps_are_views_into_the_table_stacks():
    from cayleynorms import serial
    from cayleynorms.verify import load_s3_irreps

    tables = [build_irrep_table(parse_group_spec(spec))
              for spec in ("Z12", "D4", "D5", "D128", "Z16xZ16")]
    d5 = tables[2].group
    tables += [serial.parse_irreps(serial.irreps_to_text(tables[2]), d5), load_s3_irreps()]
    for table in tables:
        assert [b.dim for b in table.stacks] == sorted(set(table.dims))
        positions = np.concatenate([b.index for b in table.stacks])
        assert positions.tolist() == list(range(len(table.irreps)))
        for b in table.stacks:
            assert not b.matrices.flags.writeable
            for k, i in enumerate(b.index):
                assert np.shares_memory(table.irreps[i].matrices, b.matrices)
                assert np.array_equal(table.irreps[i].matrices, b.matrices[k])


def test_a_table_built_from_a_list_stacks_by_dimension():
    # dims out of order: each stack lists its irreps by table position
    g = dihedral_group(5)
    irreps = build_irrep_table(g).irreps
    listed = (irreps[2], irreps[0], irreps[3], irreps[1])
    table = IrrepTable.from_irreps(g, listed)
    assert [(b.dim, b.index.tolist()) for b in table.stacks] == [(1, [1, 3]), (2, [0, 2])]
    assert np.array_equal(table.stacks[1].matrices[1], irreps[3].matrices)
    assert table.stacks is table.stacks  # stacked once
    # the per-irrep views come back in the listed order
    assert table.dims == (2, 1, 2, 1)
    assert all(np.array_equal(a.matrices, b.matrices)
               for a, b in zip(table.irreps, listed, strict=True))
    f = GroupFunction(g, np.arange(g.order) - 4.5)
    assert all(np.array_equal(a, b) for a, b in zip(
        fourier_transform(f, table).coeffs, _transform_by_tensordot(f, table), strict=True))


@pytest.mark.parametrize("spec", ["Z1", "Z12", "Z257", "Z2xZ4", "Z16xZ16", "Z1000"])
def test_root_table_characters_equal_the_exp_form_bit_for_bit(spec):
    # chi = exp(2 pi i q / n), gathered from the n roots, is what exp gives for q
    g = parse_group_spec(spec)
    n = g.order
    chars = build_irrep_table(g).stacks[0].matrices[:, :, 0, 0]
    q = np.rint(np.angle(chars) * n / (2 * np.pi)).astype(np.int64) % n
    assert np.array_equal(chars, np.exp(2j * np.pi * q / n))


@pytest.mark.parametrize("m", list(range(3, 41)) + [128, 384, 385, 399, 768])
def test_dihedral_rotations_equal_the_direct_cos_and_sin_bit_for_bit(m):
    # cos and sin gathered from the m angles 2 pi k / m are what np.cos and
    # np.sin give for the angle of each (rotation, irrep) pair
    mats = build_irrep_table(dihedral_group(m)).stacks[1].matrices
    cos, sin = mats[..., 0, 0].real, mats[..., 1, 0].real
    q = np.rint(np.arctan2(sin, cos) * m / (2 * np.pi)).astype(np.int64) % m
    theta = 2.0 * np.pi * q / m
    assert np.array_equal(cos, np.cos(theta)) and np.array_equal(sin, np.sin(theta))


def test_coefficient_stacks_must_match_the_table():
    from cayleynorms.fourier import FourierCoefficients

    table = build_irrep_table(dihedral_group(4))
    good = [np.zeros((len(b.index), b.dim, b.dim), dtype=complex) for b in table.stacks]
    FourierCoefficients(table, tuple(good))
    for bad in (good[:1], good[::-1], [good[0][:-1], good[1]], [good[0], good[1][..., :1]]):
        with pytest.raises(ValueError, match="do not match the irrep table"):
            FourierCoefficients(table, tuple(bad))


def _equivalent_pairs_by_gram(table, tol=1e-10):
    """The pairs the full character Gram matrix calls equivalent, as diagnostics."""
    n = table.group.order
    chars = np.array([r.characters for r in table.irreps])
    gram = np.abs(chars @ chars.conj().T) / n
    return [f"irreps {i} and {j} are equivalent (character inner product {gram[i, j]:.2e})"
            for i, j in np.argwhere(np.triu(gram > tol, 1))]


@pytest.mark.parametrize("filter_width", [None, 10.0])
def test_validate_names_equivalent_pairs_as_the_full_gram_does(filter_width, monkeypatch):
    # repeated characters, a repeated 2-dim irrep and a unitary conjugate of
    # another, and an irrep with phase noise far above tol, which fails its
    # own checks and so is compared in full with every other; a filter of
    # width 10 lets every pair through to the full product, as for characters
    # of degree >= 2 that agree on the generators
    from cayleynorms import fourier

    if filter_width is not None:
        monkeypatch.setattr(fourier, "_SAME_ON_GENERATORS", filter_width)
    g = dihedral_group(8)
    irreps = build_irrep_table(g).irreps
    u = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    conj = Irrep(dim=2, matrices=u @ irreps[5].matrices @ u.conj().T)
    noise = np.random.Generator(np.random.Philox(8)).normal(0.0, 1e-3, irreps[5].matrices.shape)
    noisy = Irrep(dim=2, matrices=irreps[5].matrices * np.exp(1j * noise))
    for extra, count in (((), 0), ((irreps[1],), 1), ((irreps[4], conj), 2),
                         ((irreps[0], irreps[6], irreps[0]), 4), ((noisy,), None)):
        table = IrrepTable.from_irreps(g, irreps + extra)
        want = _equivalent_pairs_by_gram(table)
        got = [p for p in validate_irrep_table(table) if "equivalent" in p]
        assert got == want
        assert len(got) == count if count is not None else len(got) > 1
    z1 = build_irrep_table(cyclic_group(1)).irreps
    thrice = IrrepTable.from_irreps(cyclic_group(1), z1 * 3)
    assert [p for p in validate_irrep_table(thrice) if "equivalent" in p] == \
        _equivalent_pairs_by_gram(thrice)


# ---------------------------------------------------------------------------
# transform, inversion, Plancherel, convolution


def test_transform_constant_function():
    g = dihedral_group(4)
    table = build_irrep_table(g)
    co = fourier_transform(GroupFunction.constant(g, 1.0), table)
    for r, c in zip(table.irreps, co.coeffs):
        if r.dim == 1 and np.allclose(r.matrices, 1.0):
            assert np.allclose(c, 1.0)
        else:
            assert np.allclose(c, 0.0, atol=1e-12)


def test_transform_scaled_point_mass_gives_identities():
    g = dihedral_group(3)
    table = build_irrep_table(g)
    values = np.zeros(6)
    values[0] = 6.0
    co = fourier_transform(GroupFunction(g, values), table)
    for r, c in zip(table.irreps, co.coeffs):
        assert np.allclose(c, np.eye(r.dim), atol=1e-12)


def test_transform_cycle_indicator_matches_direct_sums():
    n = 8
    g = cyclic_group(n)
    table = build_irrep_table(g)
    f = GroupFunction.indicator(g, [1, n - 1])
    co = fourier_transform(f, table)
    for r, c in zip(table.irreps, co.coeffs):
        chi = r.matrices[:, 0, 0]
        direct = (chi[1] + chi[n - 1]) / n  # direct summation oracle
        assert c[0, 0] == pytest.approx(direct, abs=1e-12)


def test_inverse_roundtrip_random():
    rng = np.random.Generator(np.random.Philox(71))
    g = dihedral_group(4)
    table = build_irrep_table(g)
    for _ in range(10):
        f = _random_complex_function(g, rng)
        back = fourier_inverse(fourier_transform(f, table))
        assert np.abs(back.values - f.values).max() < 1e-12


def test_inverse_of_single_matrix_unit():
    g = dihedral_group(4)
    table = build_irrep_table(g)
    stacks = tuple(np.zeros((len(b.index), b.dim, b.dim), dtype=complex) for b in table.stacks)
    two_dim = next(s for s, b in enumerate(table.stacks) if b.dim == 2)
    stacks[two_dim][0, 0, 0] = 1.0
    from cayleynorms.fourier import FourierCoefficients

    f = fourier_inverse(FourierCoefficients(table=table, stacks=stacks))
    rho = table.irreps[table.stacks[two_dim].index[0]]
    assert np.allclose(f.values, 2.0 * rho.matrices[:, 0, 0].conj(), atol=1e-12)


def test_plancherel_on_shipped_groups():
    rng = np.random.Generator(np.random.Philox(72))
    for spec in SHIPPED:
        g = parse_group_spec(spec)
        table = build_irrep_table(g)
        for _ in range(50):
            f = _random_complex_function(g, rng)
            lhs = float(np.mean(np.abs(f.values) ** 2))
            rhs = sum(float(r.dim * np.sum(np.abs(c) ** 2))
                      for r, c in zip(table.irreps, fourier_transform(f, table).coeffs))
            assert abs(lhs - rhs) <= 1e-10 * max(lhs, 1.0)


def test_convolution_theorem_on_shipped_groups():
    rng = np.random.Generator(np.random.Philox(73))
    for spec in SHIPPED:
        g = parse_group_spec(spec)
        table = build_irrep_table(g)
        f1 = _random_complex_function(g, rng)
        f2 = _random_complex_function(g, rng)
        conv = fourier_transform(convolve(f1, f2), table)
        c1 = fourier_transform(f1, table)
        c2 = fourier_transform(f2, table)
        for cc, a, b in zip(conv.coeffs, c1.coeffs, c2.coeffs):
            assert np.abs(cc - a @ b).max() <= 1e-10


# ---------------------------------------------------------------------------
# spectral norm via irreps, Schur, witnesses


def test_spectral_via_irreps_examples():
    g = dihedral_group(4)
    table = build_irrep_table(g)
    assert spectral_via_irreps(GroupFunction.constant(g, 1.0), table) == pytest.approx(1.0)
    z2 = cyclic_group(2)
    t2 = build_irrep_table(z2)
    f = GroupFunction(z2, np.array([1.0, -1.0]))
    assert spectral_via_irreps(f, t2) == pytest.approx(1.0, abs=1e-12)


def test_spectral_via_irreps_matches_dense():
    rng = np.random.Generator(np.random.Philox(74))
    for spec in SHIPPED:
        g = parse_group_spec(spec)
        table = build_irrep_table(g)
        for _ in range(10):
            f = _random_complex_function(g, rng)
            via = spectral_via_irreps(f, table)
            dense = spectral_norm(cayley_matrix(f)) / g.order
            assert via == pytest.approx(dense, rel=1e-10)


def test_overflowing_transform_is_a_value_error():
    # ||f|| = 1.7e308 is representable, the transform's sum 3.4e308 is not
    z2 = cyclic_group(2)
    table = build_irrep_table(z2)
    f = GroupFunction(z2, np.array([1.7e308, 1.7e308]))
    for fn in (fourier_transform, spectral_via_irreps, svd_witness):
        with pytest.raises(ValueError, match="overflows"):
            fn(f, table)
    assert group_spectral(f) == 1.7e308
    fits = GroupFunction(z2, np.array([8e307, 8e307]))
    assert spectral_via_irreps(fits, table) == pytest.approx(8e307, rel=1e-15)
    assert svd_witness(fits, table).irrep_index == 0
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            fourier_transform(GroupFunction(z2, np.array([1.0, bad])), table)


def test_schur_average_closed_forms():
    g = dihedral_group(4)
    table = build_irrep_table(g)
    rho2 = next(r for r in table.irreps if r.dim == 2)
    assert np.allclose(schur_average(rho2, rho2, np.eye(2), g), np.eye(2), atol=1e-12)
    e12 = np.zeros((2, 2))
    e12[0, 1] = 1.0
    assert np.abs(schur_average(rho2, rho2, e12, g)).max() < 1e-12
    triv, sign = table.irreps[0], table.irreps[1]
    assert np.abs(schur_average(triv, sign, np.ones((1, 1)), g)).max() < 1e-12
    with pytest.raises(ValueError, match="shape"):
        schur_average(rho2, triv, np.eye(2), g)


def test_svd_witness_trivial_and_sign():
    g = cyclic_group(4)
    table = build_irrep_table(g)
    w = svd_witness(GroupFunction.constant(g, 1.0), table)
    assert w.objective == pytest.approx(1.0, abs=1e-12)
    z2 = cyclic_group(2)
    f = GroupFunction(z2, np.array([1.0, -1.0]))
    w2 = svd_witness(f, build_irrep_table(z2))
    assert w2.objective == pytest.approx(1.0, abs=1e-12)
    sign_char = build_irrep_table(z2).irreps[w2.irrep_index].matrices[:, 0, 0]
    assert np.allclose(sign_char, [1.0, -1.0])


def test_svd_witness_of_zero_function():
    for spec in ("Z6", "D4"):
        g = parse_group_spec(spec)
        w = svd_witness(GroupFunction.constant(g, 0.0), build_irrep_table(g))
        assert w.objective == 0.0
        for vecs in (w.x, w.y):
            assert np.linalg.norm(vecs, axis=1).max() <= 1 + 1e-12


def test_svd_witness_matches_spectral_norm():
    rng = np.random.Generator(np.random.Philox(75))
    for spec in SHIPPED:
        g = parse_group_spec(spec)
        table = build_irrep_table(g)
        for _ in range(10):
            f = _random_complex_function(g, rng)
            w = _svd_witness(f, table)
            target = spectral_via_irreps(f, table)
            assert w.objective == pytest.approx(target, rel=1e-8)
            assert np.linalg.norm(w.x, axis=1).max() <= 1 + 1e-12


@pytest.mark.parametrize("spec", ["D4", "D5", "D128", "Z16xZ16"])
def test_svd_witness_objective_matches_the_three_operand_einsum(spec):
    # the objective x^H (F y) / n^2 by BLAS, against the contraction it replaced
    rng = np.random.Generator(np.random.Philox(76))
    g = parse_group_spec(spec)
    table = build_irrep_table(g)
    for f in (GroupFunction(g, rng.standard_normal(g.order)),
              _random_complex_function(g, rng)):
        w = svd_witness(f, table)
        want = abs(np.einsum("gd,gh,hd->", w.x.conj(), f.values[g.ghinv], w.y)) / g.order**2
        assert w.objective == pytest.approx(want, rel=1e-12, abs=0)


def _transform_by_tensordot(f, table):
    """The reference transform: one tensordot per irrep."""
    return [np.tensordot(f.values, rho.matrices, axes=(0, 0)) / f.group.order
            for rho in table.irreps]


def test_batched_transform_is_the_per_irrep_tensordot_bit_for_bit():
    from cayleynorms.verify import load_s3_irreps

    rng = np.random.Generator(np.random.Philox(14))
    tables = [build_irrep_table(parse_group_spec(spec)) for spec in
              ("Z12", "Z2xZ2", "D4", "D5", "Z16xZ16", "D128", "D384", "Z1000")]
    for table in tables + [load_s3_irreps()]:
        for f in (GroupFunction(table.group, rng.standard_normal(table.group.order)),
                  _random_complex_function(table.group, rng)):
            fhat = fourier_transform(f, table)
            want = _transform_by_tensordot(f, table)
            assert all(a.shape == b.shape and np.array_equal(a, b)
                       for a, b in zip(fhat.coeffs, want, strict=True))
            for b, c in zip(table.stacks, fhat.stacks, strict=True):
                assert np.array_equal(c, np.stack([want[i] for i in b.index]))


def _report_tables():
    from cayleynorms.verify import load_s3_irreps

    for spec in ("D5", "D384", "Z16xZ16"):
        yield build_irrep_table(parse_group_spec(spec))
    yield load_s3_irreps()  # a user-supplied table, dims 1, 1, 2


def test_sigma1_is_the_per_matrix_svd_bit_for_bit():
    # one batched SVD per dimension gives exactly what one SVD per matrix gives
    rng = np.random.Generator(np.random.Philox(12))
    for table in _report_tables():
        for f in (GroupFunction(table.group, rng.standard_normal(table.group.order)),
                  _random_complex_function(table.group, rng)):
            fhat = fourier_transform(f, table)
            want = [np.linalg.svd(c)[1][0] for c in fhat.coeffs]
            assert fhat.sigma1.shape == (len(table.irreps),)
            assert all(a == b for a, b in zip(fhat.sigma1, want))
            assert spectral_via_irreps(f, table) == max(want)


def test_svd_witness_carries_its_transform():
    rng = np.random.Generator(np.random.Philox(13))
    for table in _report_tables():
        f = _random_complex_function(table.group, rng)
        w = svd_witness(f, table)
        ref = fourier_transform(f, table)
        assert w.fhat.table is table
        assert all(np.array_equal(a, b) for a, b in zip(w.fhat.coeffs, ref.coeffs))
        assert w.objective == pytest.approx(float(w.fhat.sigma1.max()), rel=1e-12)


def test_svd_witness_breaks_conjugate_ties_by_table_order():
    # conjugate characters tie exactly on a real function; the witness must
    # take the lowest index within the rounding band, not the last-bit winner
    rng = np.random.Generator(np.random.Philox(31))
    eps = float(np.finfo(np.float64).eps)
    for n in range(5, 31):
        g = cyclic_group(n)
        table = build_irrep_table(g)
        chars = np.array([rho.matrices[:, 0, 0] for rho in table.irreps])
        conj = [int(np.flatnonzero(np.abs(chars - c.conj()).max(axis=1) < 1e-9)[0]) for c in chars]
        for _ in range(4):
            f = GroupFunction(g, rng.standard_normal(n))
            w = svd_witness(f, table)
            sigma = np.abs(chars @ f.values) / n
            in_band = np.flatnonzero(sigma >= (1.0 - 8 * n * eps) * sigma.max())
            assert w.irrep_index == in_band[0]
            assert w.irrep_index <= conj[w.irrep_index]
            target = spectral_via_irreps(f, table)
            assert w.objective == pytest.approx(target, rel=1e-12)


def test_abelian_character_norm_examples():
    g = cyclic_group(6)
    const = GroupFunction.constant(g, -2.5)
    res = abelian_character_norm(const)
    assert res.value == pytest.approx(2.5)
    z12 = cyclic_group(12)
    ind = GroupFunction.indicator(z12, [1, 11])
    res12 = abelian_character_norm(ind)
    assert res12.value == pytest.approx(2 / 12)
    assert res12.value == pytest.approx(group_spectral(ind), rel=1e-10)
    # a character correlates only with itself
    table = build_irrep_table(z12)
    chi3 = GroupFunction(z12, table.irreps[3].matrices[:, 0, 0])
    res_chi = abelian_character_norm(chi3, table)
    assert res_chi.value == pytest.approx(1.0, abs=1e-12)
    assert res_chi.index == 3
    corr = [abs(np.mean(chi3.values * r.matrices[:, 0, 0].conj()))
            for r in table.irreps]
    assert sum(c > 1e-9 for c in corr) == 1


def test_abelian_character_norm_rejects_nonabelian():
    g = dihedral_group(4)
    with pytest.raises(ValueError, match="abelian"):
        abelian_character_norm(GroupFunction.constant(g, 1.0))


def test_abelian_character_norm_rejects_table_of_another_group():
    z4 = cyclic_group(4)
    f = GroupFunction(z4, np.array([2.0, 1.0, -1.0, -2.0]))
    assert abelian_character_norm(f).value == pytest.approx(group_spectral(f), rel=1e-12)
    klein = product_group(cyclic_group(2), cyclic_group(2))
    with pytest.raises(ValueError, match="different groups"):
        abelian_character_norm(f, build_irrep_table(klein))


def test_ascent_rank_twice_max_irrep_dim_reaches_full_norm():
    # complex rank k suffices when every irrep has dim <= k; realized over the
    # reals with rank 2k via the isometric embedding of C^k
    rng = np.random.Generator(np.random.Philox(76))
    for spec in SHIPPED:
        g = parse_group_spec(spec)
        table = build_irrep_table(g)
        k = 2 * table.max_dim
        for _ in range(3):
            f = GroupFunction(g, rng.standard_normal(g.order))
            a = cayley_matrix(f)
            target = g.order * spectral_norm(a)
            val, _ = grothendieck_bm(a, BMConfig(rank=k, restarts=16))
            assert val >= (1 - 1e-6) * target


def test_real_rank_one_is_not_enough_on_z3():
    # the real sign optimum can sit strictly below n||A||: rank 1 stalls at
    # the infinity-to-one norm 4 while the full norm is 4.5
    g = cyclic_group(3)
    f = GroupFunction(g, np.array([1.0, -0.5, -0.5]))
    a = cayley_matrix(f)
    assert 3 * spectral_norm(a) == pytest.approx(4.5, abs=1e-9)
    val1, _ = grothendieck_bm(a, BMConfig(rank=1, restarts=16))
    assert val1 == pytest.approx(4.0, abs=1e-9)
    val2, _ = grothendieck_bm(a, BMConfig(rank=2, restarts=16))
    assert val2 >= 4.5 - 1e-6
