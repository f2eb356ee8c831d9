"""Norms and quasirandomness checks for Cayley graphs and vertex-transitive matrices.

The library computes four matrix norms (spectral, cut, infinity-to-one,
Grothendieck) together with the group-side machinery needed to cross-verify
the identities and inequalities relating them: finite-group tables, Cayley
matrices, automorphism certificates, lifts of transitive matrices to group
functions, and the non-abelian Fourier transform.
"""

from .errors import CapacityError, GroupAxiomError
from .groups import (
    GroupFunction,
    GroupTable,
    PermGroup,
    build_from_table,
    convolve,
    cyclic_group,
    dihedral_group,
    function_norm,
    group_closure,
    parse_group_spec,
    product_group,
    symmetric_group,
)
from .cayley import (
    cayley_certificate,
    cayley_from_set,
    cayley_matrix,
    center_regular,
    find_transitive_automorphisms,
    lift_to_group,
)
from .norms import (
    BMConfig,
    Bracket,
    Check,
    NormReport,
    VectorAssignment,
    K_G,
    analyze,
    cut_norm_exact,
    epsilon_uniformity,
    grothendieck_bm,
    grothendieck_bounds,
    group_spectral,
    infty_one_exact,
    mixing_lemma_check,
    second_eigenvalue,
    spectral_norm,
    symmetric_spectrum,
    theorem3_check,
    translate_witness,
    verify_sandwich,
)
from .fourier import (
    CharacterNorm,
    FourierCoefficients,
    Irrep,
    IrrepTable,
    SvdWitness,
    abelian_character_norm,
    build_irrep_table,
    fourier_inverse,
    fourier_transform,
    schur_average,
    spectral_via_irreps,
    svd_witness,
    validate_irrep_table,
)
from .families import (
    RegularGraph,
    bipartite_cayley_deviation,
    bipartite_deviation,
    complete_graph,
    cycle_graph,
    example1_graph,
    paley_graph,
    petersen_graph,
    quadratic_residues,
    random_regular,
)

__version__ = "0.1.0"
