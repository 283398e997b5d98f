"""Lin-Lu-Yau Ricci curvature, gravitational action, and edge-length
equations of motion on weighted graphs."""

from .action import (
    ActionReport,
    action_ghy,
    action_plain,
    action_region_plain,
    ratio_bounds,
    tree_action_hex,
)
from .curvature import (
    edge_curvatures,
    kappa,
    kappa_t,
    kappa_tree_closed,
)
from .dynamics import (
    EomReport,
    Setting,
    interior_edges,
    nogo_indicator,
    scale_setting,
    verify_solution,
)
from .errors import GraphGravError
from .generators import (
    HexRegionSpec,
    constant_setting,
    find_perfect_matching,
    gen_complete,
    gen_cycle,
    gen_hex_region,
    gen_tree,
    geometric_half_half_stats,
    half_half_setting,
    hex_strong_fixed_edges,
    matching_setting,
    t1_next_ratios,
    t1_setting,
    two_progression_setting,
    two_progression_x,
)
from .graph import (
    GeodesicTable,
    Region,
    WeightedGraph,
    build_graph,
    edge_key,
    extract_region,
    sigma_edges,
)
from .search import SearchResult, extremize_action, newton_solve_teom
from .transport import (
    Distribution,
    TransportPlan,
    neighbor_distribution,
    wasserstein,
)

__version__ = "0.1.0"
