"""Exact Farey-graph combinatorics for tight contact structures on
Dehn surgeries on the right-handed trefoil."""

from .slopes import (
    ContinuedFraction,
    DomainError,
    INF,
    ONE,
    ParseError,
    Slope,
    ZERO,
    cf_minus,
    cw_interval_contains,
    det,
    farey_sum,
    is_edge,
    make_slope,
    neighbors_in_interval,
    parse_slope,
    rationals_in,
    slope_sort_key,
)
from .paths import (
    BlockDecomposition,
    FareyPath,
    blocks,
    edge_runs,
    lengthen_through,
    minimal_path,
)
from .tori import (
    DecoratedPath,
    ShuffleClass,
    SolidTorusStructure,
    consistently_shorten,
    count_tight,
    enumerate_tight,
    is_tight,
    lengthen_decorated,
    phi,
    shuffle_canonical,
    signed_blocks,
)
from .cables import (
    MobiusMap,
    cable_surgery_slope,
    legendrian_cable_surgery,
    reglue_map,
)
from .atlas import (
    Fillability,
    FillabilityVerdict,
    MixedTorus,
    TightStructureId,
    TrianglePosition,
    classify,
    enumerate_structures,
    exceptional_slopes,
    n_of,
    structure_cells,
    structure_record,
    triangle_position,
    verdict_summary,
)

__version__ = "0.1.0"
