"""Weighted aggregation of ranked attribute lists.

Seven top-21 rankings are merged by giving rank r (1-based) the weight
22 - r in each list and summing per attribute; the principal-component
evaluator produces no usable per-attribute ranking and never takes part.
The result is the ranking itself: (attribute, total weight) pairs by
descending weight, ties alphabetical.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ListTooLong, WrongListCount

LIST_COUNT = 7
MAX_RANKED = 21


def aggregate_rank(lists: Sequence[Sequence[str]]) -> list[tuple[str, int]]:
    if len(lists) != LIST_COUNT:
        raise WrongListCount(f"expected {LIST_COUNT} ranked lists, got {len(lists)}")
    totals: dict[str, int] = {}
    for ranked in lists:
        ranked = tuple(ranked)
        if len(ranked) > MAX_RANKED:
            raise ListTooLong(f"a ranked list holds {len(ranked)} attributes (max {MAX_RANKED})")
        for rank, attribute in enumerate(ranked, start=1):
            totals[attribute] = totals.get(attribute, 0) + (MAX_RANKED + 1 - rank)
    return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))


def render_ranking(ranking: Sequence[tuple[str, int]]) -> str:
    width = max([len("opcode")] + [len(a) for a, _ in ranking])
    lines = [f"{'rank':>4}  {'opcode':<{width}}  {'total weight':>12}"]
    for rank, (attribute, total) in enumerate(ranking, start=1):
        lines.append(f"{rank:>4}  {attribute:<{width}}  {total:>12}")
    return "\n".join(lines) + "\n"
