"""Spanning-subgraph embedding, spread matchings, and robustness experiments."""

from .graphs import Graph, parse_graph, format_graph, read_graph
from .density import one_density, max_one_density
from .regularity import (
    RegPairParams,
    check_regular_pair,
    check_super_regular_pair,
)
from .tailbounds import hypergeo_chernoff_bound
from .partition import (
    EquitablePartition,
    CliqueFactor,
    equitable_coloring,
    clique_factor,
    distance_power_graph,
    closed_second_neighborhood,
)
from .switching import (
    PartialEmbedding,
    switching_embed,
    delta_e_upper_bound,
)
from .matching import hall_check
from .spread import (
    FBInstance,
    FBParams,
    CoupledSample,
    SpreadEstimate,
    sample_coupled,
    sample_spread_matching,
    estimate_matching_spread,
)
from .pipeline import (
    PartitionedHost,
    PartitionedPattern,
    RGAConfig,
    generate_regular_host,
    partition_pattern,
    rga_embed,
    complete_with_buffers,
    estimate_vertex_spread,
    pushforward_edge_spread,
)
from .robustness import (
    ThresholdScan,
    sample_gp,
    contains_spanning,
    threshold_scan,
    scan_thm91_grid,
)

__version__ = "0.1.0"
