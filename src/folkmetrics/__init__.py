"""folkmetrics: supertagger analytics for collaborative-tagging data.

Ingests (user, item, tag, time) annotation datasets, splits users into
supertaggers and non-supertaggers, and computes inequality, similarity,
consensus, motivation, and expertise metrics as machine-readable tables.
"""

from .consensus import ConsensusSeries, consensus_by_bin
from .corpus import (
    Annotation,
    AnnotationColumns,
    DatasetSummary,
    FolksonomyIndex,
    ParseResult,
    SyntheticConfig,
    binned_by_user_count,
    build_index,
    generate_synthetic,
    parse_annotations,
    summary,
    write_annotations,
)
from .errors import (
    ConvergenceWarning,
    DomainError,
    FolkmetricsError,
    FormatError,
    UndefinedCorrelationError,
)
from .expertise import consensus_expertise
from .motivation import motivation_scores
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
    default_n_grid,
    exogenous_popularity_diff,
    freq_dist,
    similarity_curve,
    usage_distribution,
)
from .spear import (
    CreditBatch,
    SpearBatch,
    credit_batch,
    eligible_tags,
    spear_scores,
    user_mean_z,
)
from .stats import (
    BinRow,
    BinSpec,
    BinnedSeries,
    MedianIQR,
    binned_mean,
    log_bins,
    median_iqr,
)
from .taxonomy import (
    ConditionalTable,
    TaxonomyForest,
    annotation_coverage,
    conditional_table,
    depth_expertise,
    induce_forest,
    induce_taxonomy,
)

__version__ = "0.1.0"
