"""Lin-Lu-Yau Ricci curvature, gravitational action, and edge-length
equations of motion on weighted graphs."""

from .action import (
    ActionReport,
    action_ghy,
    action_plain,
    action_region_plain,
    bound_upper_global,
    boundary_minimizer,
    boundary_term,
    partial_action_complete,
    partial_cost,
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
    geometric_half_half_stats,
    interior_edges,
    is_tree,
    nogo_indicator,
    scale_setting,
    setting_from_json,
    setting_from_pairs,
    setting_to_json,
    t1_next_ratios,
    two_progression_x,
    verify_solution,
)
from .errors import GraphGravError
from .generators import (
    HexRegionSpec,
    Matching,
    constant_setting,
    find_perfect_matching,
    gen_complete,
    gen_cycle,
    gen_hex_region,
    gen_tree,
    half_half_setting,
    hex_strong_fixed_edges,
    matching_setting,
    t1_setting,
    two_progression_setting,
    valid_t1_chain,
)
from .graph import (
    GeodesicTable,
    Region,
    WeightedGraph,
    build_graph,
    edge_key,
    extract_region,
    graph_from_json,
    graph_to_json,
    local_sums,
    region_from_json,
    region_to_json,
    sigma_edges,
)
from .search import SearchResult, extremize_action, newton_solve_teom
from .transport import (
    Distribution,
    TransportPlan,
    edge_move_cost,
    neighbor_distribution,
    wasserstein,
    wasserstein_oracle,
)

__version__ = "0.1.0"
