"""folkmetrics: supertagger analytics for collaborative-tagging data.

Ingests (user, item, tag, time) annotation datasets, splits users into
supertaggers and non-supertaggers, and computes inequality, similarity,
consensus, motivation, and expertise metrics as machine-readable tables.
"""

from .consensus import (
    ConsensusSeries,
    TagDistribution,
    consensus_by_bin,
    item_cosine,
    item_tag_distribution,
    top_tag_match,
)
from .corpus import (
    Annotation,
    AnnotationColumns,
    DatasetSummary,
    FolksonomyIndex,
    ParseResult,
    SyntheticConfig,
    TimeGranularity,
    UserStats,
    build_index,
    generate_synthetic,
    parse_annotations,
    summary,
    user_stats,
    write_annotations,
)
from .errors import (
    ConvergenceWarning,
    DomainError,
    FolkmetricsError,
    FormatError,
    NotFoundError,
    UndefinedCorrelationError,
)
from .expertise import (
    AnnotationScore,
    annotation_score,
    annotation_weight,
    consensus_expertise_by_bin,
    user_annotation_scores,
    user_consensus_expertise,
)
from .motivation import (
    MotivationScores,
    MotivationSeries,
    motivation_by_bin,
    orphan_ratio,
    tpp,
    trr,
    user_motivation,
)
from .partition import (
    GroupSummary,
    ParetoCurve,
    Partition,
    PartitionSummary,
    gini,
    pareto_curve,
    partition_summary,
    rank_users,
    split_supertaggers,
)
from .similarity import (
    CurvePoint,
    FreqDist,
    SimilarityCurve,
    cosine_topn,
    default_n_grid,
    exogenous_popularity_diff,
    freq_dist,
    similarity_curve,
    spearman_topn,
    usage_distribution,
)
from .spear import (
    CreditBatch,
    SpearBatch,
    credit_batch,
    eligible_tags,
    spear_by_bin,
    spear_scores,
    user_mean_z,
)
from .stats import (
    BinRow,
    BinSpec,
    BinnedSeries,
    MedianIQR,
    binned_mean,
    cosine,
    log_bins,
    median_iqr,
    spearman,
)
from .taxonomy import (
    ConditionalTable,
    TaxonomyForest,
    annotation_coverage,
    conditional_table,
    depth_by_bin,
    induce_forest,
    induce_taxonomy,
    user_depth_expertise,
)

__version__ = "0.1.0"
