"""Attribute selection: evaluators, searches and rank aggregation."""

from .aggregate import aggregate_rank, render_ranking
from .evaluators import (
    CfsMeritScorer,
    correlation_eval,
    discretize_equal_frequency,
    gain_ratio,
    info_gain,
    merit_from_correlations,
    one_r_eval,
    pca_eval,
    rank_attributes,
    relieff_scores,
    symm_uncert,
)
from .search import (
    ranker_select,
    reduce_dataset,
    search_best_first,
    search_greedy_stepwise,
    tune_threshold,
)
from .selection import (
    EVALUATORS,
    SEARCHES,
    AttributeScore,
    PcaModel,
    SelectionResult,
    load_selection,
    save_selection,
)

__all__ = [
    "AttributeScore",
    "CfsMeritScorer",
    "EVALUATORS",
    "PcaModel",
    "SEARCHES",
    "SelectionResult",
    "aggregate_rank",
    "correlation_eval",
    "discretize_equal_frequency",
    "gain_ratio",
    "info_gain",
    "load_selection",
    "merit_from_correlations",
    "one_r_eval",
    "pca_eval",
    "rank_attributes",
    "ranker_select",
    "reduce_dataset",
    "relieff_scores",
    "render_ranking",
    "save_selection",
    "search_best_first",
    "search_greedy_stepwise",
    "symm_uncert",
    "tune_threshold",
]
