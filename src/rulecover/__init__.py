"""Universal covers for carpenter's rule folding via the involute method."""

from .constructions import (
    CONSTRUCTIONS,
    FourEdgeParams,
    R2_AREA,
    ThreeEdgeParams,
    TwoEdgeParams,
    four_edge_area,
    optimize_construction,
    r2_cover,
    solve_two_edge,
    three_edge_area,
    two_edge_area,
)
from .geometry import (
    Arc,
    ArcPath,
    Seg,
    arc_path_area,
    region_diameter,
)
from .involute import (
    CoverBundle,
    GeneratingChain,
    InadmissibleChainError,
    chain_from_params,
    involute_cover,
    validate_chain,
)
from .search import ChainParams, SearchConfig, SearchTrace, local_search, perturb
from .smooth import (
    SmoothCoefficients,
    discretize_smooth,
    optimize_smooth,
    reproduce_appendix,
    smooth_area,
    solve_coefficients,
)
from .verify import (
    Fold,
    Rule,
    VerificationReport,
    fold_rule,
    random_rule,
    shrink_cover,
    verify_reachability,
)

__version__ = "0.1.0"
