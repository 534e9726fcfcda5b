"""Exact refinement engine for Cayley graphs over finite abelian groups."""

from .groups import (
    GroupElement,
    GroupSpec,
    divisor_count,
    element_power,
    parse_group_spec,
    power_class_count,
    power_equivalence_classes,
    unit_multipliers,
)
from .group_ring import (
    GroupRingElement,
    exponentiation_closure,
    extract_by_coefficient,
    induced_partition,
    is_exponentiation_stable,
    multiply,
    power_map,
    refine,
    refine_con,
    simple_quantity,
    stabilize_refine,
    stabilize_refine_con,
)
from .partition import OrderedPartition, RefinementTrace, meet, refine_to_stable
from .spectral import (
    StabilizerData,
    eigenvalue_classes,
    numeric_spectrum,
    predicted_individualized_partition,
    stabilizer_subgroup,
)
from .tinhofer import (
    CanonicalForm,
    IsoResult,
    TinhoferReport,
    canonical_form_prime_circulant,
    has_tinhofer_property,
    individualize,
    tinhofer_iso_test,
)
from .wl import (
    CayleyGraph,
    DiGraph,
    GraphFormatError,
    PairColoring,
    VertexColoring,
    build_cayley,
    cr_refine,
    cr_stabilize,
    cr_step,
    induced_smodule,
    initial_cayley_smodule,
    initial_pair_coloring,
    is_cayley_partition,
    pair_coloring_from_smodule,
    parse_adjacency,
    parse_cayley_graph,
    uniform_coloring,
    wl2_stabilize,
    wl2_step,
)

__version__ = "0.1.0"
