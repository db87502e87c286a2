"""Median-split tree classifiers built from autonomous cells.

Two tree builders that grow a partition of the input space cell by cell,
where every cell decides to stop or split from its own points and its own
random stream alone, plus a deterministic cell-by-cell runtime and a
synthetic risk lab for benchmarking against known Bayes risks.
"""

__version__ = "0.1.0"

from .core import (
    DataView,
    Dataset,
    DatasetFormatError,
    Internal,
    LabeledPoint,
    Leaf,
    PartitionTree,
    TreeSchemaError,
    classify,
    deserialize_tree,
    load_csv,
    majority_label,
    predict_batch,
    route,
    route_depths,
    save_csv,
    serialize_tree,
    strict_rank,
    tree_stats,
    validate_tree,
)
from .lookahead import (
    AdmissibilityError,
    LookaheadConfig,
    build_lookahead,
    decide_stop_lookahead,
    empirical_error,
    k_plus,
    lookahead_error,
)
from .median import (
    FullTree,
    LevelSplit,
    MedianSplit,
    build_full_tree,
    full_level_split,
    leaf_bounds,
    locate_leaf,
    median_split,
)
from .randomized import (
    RandomizedConfig,
    build_ensemble,
    build_randomized,
    choose_dimension,
    decide_stop,
    ensemble_classify,
    phi,
    randomized_decision,
)
from .risklab import (
    RiskEstimate,
    SyntheticDistribution,
    bayes_classify,
    bayes_predictor,
    builtin_distributions,
    constant_predictor,
    depth_profile,
    empirical_risk,
    estimate_level_risk,
    get_distribution,
    risk_curve,
    tree_predictor,
    write_risk_csv,
)
from .runtime import (
    AutonomyReport,
    BuildTrace,
    CellBuildError,
    CellRng,
    CellTask,
    LeafDecision,
    SplitDecision,
    audit_autonomy,
    derive_child_seed,
    run_cells,
    splitmix64,
)
