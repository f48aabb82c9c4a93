"""Hyperplane combinatorics of finite CAT(0) cube complexes.

The package represents a finite CAT(0) cube complex by its 1-skeleton, a
median graph, and derives from it the hyperplane structure, the contact,
crossing and reduced crossing graphs, interaction sets, the clique-based
reconstruction of the skeleton from the contact graph, and balls in
right-angled Artin and Coxeter groups with their exotic automorphisms.
"""

from .errors import (
    AmbiguousClique,
    BallTooSmall,
    CliqueLimitExceeded,
    CubetactError,
    GeneratorsAdjacent,
    HyperplaneNotPreserved,
    LemmaViolation,
    NotACone,
    NotAnAutomorphism,
    NotConnected,
    NotInterior,
    NotMedian,
    SizeLimitExceeded,
    StarNotContained,
    UnknownClique,
    UnknownGenerator,
    UnknownHyperplane,
    UnknownVertex,
)
from .median import (
    BUILTIN_COMPLEXES,
    Column,
    CubeComplex,
    LinkGraph,
    RowTable,
    builtin_complex,
    complex_from_json,
    complex_to_dot,
    complex_to_json,
    extremality,
    hyperplane_complex,
    hyperplane_report,
    hyperplanes_at,
    is_cone,
    is_extremal,
    link_graph,
    random_median_complex,
    separating,
    validate_complex,
    vertex_cap,
)
from .contact import (
    ContactFamily,
    InteractionSets,
    REDUCED_MODES,
    all_interaction_sets,
    build_contact_family,
    family_to_json,
    graph_to_dot,
    interaction,
    interaction_sets,
    pushforward_reduced,
)
from .reconstruction import (
    CliqueAtlas,
    adjacency_criterion,
    clique_atlas,
    induce_iota,
    induce_rho,
    kernel_subgroup,
    maximal_cliques,
    reconstruct,
    rho_vertex,
    verify_automorphism,
)
from .ragroups import (
    ARTIN,
    BUILTIN_GRAPHS,
    Ball,
    COXETER,
    DavisPhi,
    DefiningGraph,
    HalfspaceTwist,
    ball_to_json,
    build_ball,
    builtin_defining_graph,
    davis_phi,
    extension_graph_ball,
    graph_from_json,
    graph_to_json,
    halfspace_twist,
    normal_form,
    parse_word,
    format_word,
    star_inclusion_I_check,
    syllable_distance,
    syllable_shuffle,
)

__version__ = "0.1.0"
