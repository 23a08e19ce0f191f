"""Search strategies over attribute subsets and rankings."""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

from ..dataset import Dataset, project
from ..errors import EmptyResult, SchemaMismatch
from ..evaluation import report_metric
from .selection import AttributeScore, SelectionResult

MeritFn = Callable[[tuple[str, ...]], float]


def search_best_first(
    attributes: Sequence[str],
    merit_fn: MeritFn,
    backtrack_limit: int = 5,
) -> SelectionResult:
    """Forward hill climb with a priority queue: repeatedly expand the
    most promising unexpanded subset by single-attribute additions; give
    up after ``backtrack_limit`` consecutive expansions that fail to
    improve on the best subset seen."""
    if backtrack_limit < 1:
        raise SchemaMismatch("best-first search needs a backtrack limit of at least 1")
    attrs = tuple(attributes)
    best_subset: tuple[str, ...] = ()
    best_merit = merit_fn(best_subset)
    heap: list[tuple[float, tuple[str, ...]]] = [(-best_merit, best_subset)]
    expanded: set[tuple[str, ...]] = set()
    stall = 0
    while heap and stall < backtrack_limit:
        _, node = heapq.heappop(heap)
        if node in expanded:
            continue
        expanded.add(node)
        improved = False
        for child in [tuple(sorted(node + (a,))) for a in attrs if a not in node]:
            if child in expanded:
                continue
            m = merit_fn(child)
            heapq.heappush(heap, (-m, child))
            if m > best_merit:
                best_merit = m
                best_subset = child
                improved = True
        stall = 0 if improved else stall + 1
    return SelectionResult(
        evaluator="cfs_subset",
        search="best_first",
        retained=tuple(sorted(best_subset)),
        params={"backtrack_limit": backtrack_limit, "direction": "forward",
                "merit": best_merit},
    )


def search_greedy_stepwise(
    attributes: Sequence[str],
    merit_fn: MeritFn,
    num_to_select: int | None = None,
    threshold: float | None = None,
    generate_ranking: bool = False,
) -> SelectionResult:
    """Strictly greedy forward selection: keep adding the single best
    attribute while that improves the merit. With ``generate_ranking``
    the walk continues through the whole attribute space, the selection
    order becomes a ranking (scored by the merit at addition) and the
    threshold / num_to_select cutoffs apply to it."""
    attrs = tuple(attributes)
    current: tuple[str, ...] = ()
    current_merit = merit_fn(current)
    order: list[AttributeScore] = []
    remaining = list(attrs)
    while remaining:
        scored = sorted(
            ((merit_fn(tuple(sorted(current + (a,)))), a) for a in remaining),
            key=lambda t: (-t[0], t[1]),
        )
        best_m, best_a = scored[0]
        if not generate_ranking and best_m <= current_merit:
            break
        current = tuple(sorted(current + (best_a,)))
        current_merit = best_m
        order.append(AttributeScore(best_a, float(best_m)))
        remaining.remove(best_a)

    if generate_ranking:
        retained = tuple(s.attribute for s in order if threshold is None or s.score > threshold)[:num_to_select]
        fields = {"scores": tuple(order), "threshold": threshold, "num_to_select": num_to_select,
                  "params": {"generate_ranking": True}}
    else:
        retained = current
        fields = {"params": {"generate_ranking": False, "merit": current_merit}}
    return SelectionResult(evaluator="cfs_subset", search="greedy_stepwise", retained=retained, **fields)


def ranker_select(
    scores: Sequence[AttributeScore],
    threshold: float,
    num_to_select: int | None = None,
    evaluator: str = "correlation",
) -> SelectionResult:
    """Sort score-descending (ties alphabetical), discard scores less
    than or equal to the threshold, then truncate to num_to_select."""
    ranked = sorted(scores, key=lambda s: (-s.score, s.attribute))
    retained = [s.attribute for s in ranked if s.score > threshold]
    if num_to_select is not None:
        retained = retained[:num_to_select]
    return SelectionResult(
        evaluator=evaluator,
        search="ranker",
        retained=tuple(retained),
        scores=tuple(ranked),
        threshold=threshold,
        num_to_select=num_to_select,
    )


def reduce_dataset(ds: Dataset, selection: SelectionResult) -> Dataset:
    """Project the dataset onto the retained attributes by name (class kept).

    A principal-component selection instead projects its source attributes,
    taken by name, onto component space and rescales each component
    linearly into [0, 1] by its training-set range, clipping values
    outside it, so each row maps the same whatever rows come with it.
    """
    if selection.pca is not None:
        ds = project(ds, selection.pca.source_attributes)
        Z = selection.pca.scaling.apply(selection.pca.transform_matrix(ds.X))
        return Dataset(attributes=selection.retained, X=Z, labels=ds.labels, scheme=ds.scheme)
    return project(ds, selection.retained)


def tune_threshold(
    ds_train: Dataset,
    ds_test: Dataset,
    scores: Sequence[AttributeScore],
    classifier_fn,
    metric: str = "precision",
    evaluator: str = "correlation",
):
    """Decremental threshold sweep.

    Walks the sorted unique score values from low to high (each step
    discards more attributes), evaluates ``classifier_fn(train, test)``
    on the reduced data and returns (threshold, selection, sweep): the
    smallest retained attribute set whose metric has not dropped below
    the full-feature baseline, its threshold, and the full sweep for
    reporting. With no such step, every attribute is kept at a threshold
    1 below the lowest score. ``metric`` must be one where higher is
    better, so not ``fpr``. With no scores it trains nothing and raises
    EmptyResult.
    """
    if metric == "fpr":
        raise SchemaMismatch("the sweep keeps steps whose metric did not drop, so it cannot tune fpr")
    score_list = list(scores)
    if not score_list:
        raise EmptyResult("no attribute scores to sweep")
    baseline = report_metric(classifier_fn(ds_train, ds_test), metric)
    floor = min(s.score for s in score_list) - 1.0

    sweep: list[dict] = [{
        "threshold": floor,
        "retained": len(score_list),
        "metric": baseline,
    }]
    best = ranker_select(score_list, threshold=floor, evaluator=evaluator)  # every attribute
    for t in sorted({float(s.score) for s in score_list}):
        selection = ranker_select(score_list, threshold=t, evaluator=evaluator)
        if not selection.retained:
            break
        reduced_train = reduce_dataset(ds_train, selection)
        reduced_test = reduce_dataset(ds_test, selection)
        try:
            value = report_metric(classifier_fn(reduced_train, reduced_test), metric)
        except EmptyResult:
            break
        sweep.append({"threshold": t, "retained": len(selection.retained), "metric": value})
        if value >= baseline - 1e-12 and len(selection.retained) < len(best.retained):
            best = selection
    return best.threshold, best, sweep
