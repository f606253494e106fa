"""Exact-arithmetic secret-key rate toolkit for hypergraphical sources."""

from .bounds import (
    BoundCertificate,
    OuterRegionQuery,
    alpha,
    corollary_bound,
    generate_certificates,
    outer_capacity_curve,
    outer_check,
    outer_min_rate,
    pin_capacity_curve,
    pin_communication_complexity,
    thm1_bound,
    thm3_bound,
    tree_pin_check,
    tree_pin_region,
)
from .capacity import CapacityReport, capacity, check_concavity, rco
from .entropy import EntropyOracle, cond_entropy, entropy
from .errors import ConsistencyError, DomainError, SkratesError, SourceFormatError
from .greedy import (
    CoverMeasure,
    SetFunctionOracle,
    greedy_mu,
    greedy_value,
    independent_rank_oracle,
    laminate,
    modular_constancy_check,
    thm3_weights,
)
from .lp import LinearProgram, LpSolution, solve
from .mmi import MmiResult, conditional_partition_info, mmi, partition_info
from .packing import (
    TreePacking,
    enumerate_spanning_trees,
    max_packing,
    packing_to_rates,
    verify_packing,
)
from .protocol import (
    LinearProtocol,
    SecrecyReport,
    build_tree_protocol,
    measured_rates,
    verify_protocol,
)
from .source import (
    Edge,
    HypergraphSource,
    Partition,
    RatePoint,
    WeightFunction,
    dumps_source,
    enumerate_partitions,
    is_pin,
    load_source,
    singletons,
    vertex_degrees,
    weight_function,
)

__version__ = "0.1.0"

# The exhaustive histogram has one implementation, in pure Python.
BACKEND = "python"
