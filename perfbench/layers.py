"""Per-layer metrics from a traced pass, and what each is predicted to move.

Every ``*_ms`` metric is milliseconds per request spent inside the layer's
outermost spans (a nested call of the same layer is not counted twice),
except ``solve.self_ms``, which is the self time of ``core.solve.execute``
spans: their duration minus the time their child spans cover.  Per-request
means divide by the traced pass's request count (one query, one solve
request or one batch).  A layer a workload does not reach reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from tracing import Span, SpanIndex
from workload_defs import QUERY_NAMES

#: ``metric-name prefix -> (end-to-end metric, workload)`` it should move.
PREDICTIONS = (
    (
        (
            "sqlish.",
            "query.",
            "canonical.",
            "frontdoor.",
            "yannakakis.plan",
        ),
        "latency_p50_ms, throughput_rps on frontdoor-s1; no change on frontdoor-s10",
    ),
    (
        ("cache.", "certify.", "solve.calls", "solve.negative"),
        "reads: latency_p50_ms on frontdoor-s1; writes: latency_p50_ms on "
        "solve-hard, latency_tail_ms on frontdoor-s1",
    ),
    (
        ("yannakakis.execute", "yannakakis.tuples", "yannakakis.max_", "baseline."),
        "work_per_request, latency_p50_ms, latency_tail_ms, peak_rss_mb on "
        "frontdoor-s10; small share on frontdoor-s1",
    ),
    (
        ("candidate_bags.", "ctd.", "constrained.", "enumerate.", "solve.self"),
        "latency_p50_ms, latency_tail_ms on solve-hard; no change on frontdoor-*",
    ),
    (
        ("scheduler.", "parallel."),
        "throughput_rps on batch-dedup only",
    ),
    (
        ("solve.warm", "solve.cold"),
        "warm hit vs uncached solve per query on frontdoor-s1 "
        "(gate: a hit is never slower)",
    ),
    (("trace.",), "none: traced minus untraced latency_p50_ms"),
)


def prediction(metric: str) -> str:
    for prefixes, moves in PREDICTIONS:
        if metric.startswith(prefixes):
            return moves
    raise KeyError(f"no prediction recorded for per-layer metric {metric!r}")


def _warm_solve_spans(index: SpanIndex, labels: Dict[int, str]):
    """Per query, the durations of top-level solves served from the cache."""
    spans = index.spans
    warm: Dict[str, List[float]] = {}
    for i in index.named("solve.execute"):
        span = spans[i]
        if span.parent < 0 or spans[span.parent].name != "frontdoor.plan_query":
            continue
        if span.info[2] == "hit":
            warm.setdefault(labels[span.request], []).append(1e3 * span.duration)
    return warm


def layer_metrics(
    spans: List[Span],
    labels: Dict[int, str],
    requests: int,
    extras: Dict[str, float],
) -> Dict[str, float]:
    """All per-layer metrics of one traced pass of ``requests`` requests."""
    index = SpanIndex(spans)
    per = 1.0 / max(1, requests)
    metrics: Dict[str, float] = {
        "sqlish.parse_ms": index.total_ms("sqlish.parse") * per,
        "query.hypergraph_ms": index.total_ms("query.hypergraph") * per,
        "canonical.calls_per_request": index.count("canonical") * per,
        "canonical.ms_per_request": index.total_ms("canonical") * per,
        "frontdoor.plan_query_ms": index.total_ms("frontdoor.plan_query") * per,
        "yannakakis.plan_calls_per_query": index.count("yannakakis.plan") * per,
        "yannakakis.plan_ms": index.total_ms("yannakakis.plan") * per,
        "yannakakis.execute_ms": index.total_ms("yannakakis.execute") * per,
        "cache.get_ms": index.total_ms("cache.get") * per,
        "cache.put_ms": index.total_ms("cache.put") * per,
        "cache.rejected": float(index.count("cache.reject")),
        "certify.calls_per_request": index.count("certify") * per,
        "certify.ms_per_request": index.total_ms("certify") * per,
        "solve.calls_per_request": index.count("solve.execute") * per,
        "solve.self_ms": index.self_ms("solve.execute") * per,
        "candidate_bags.ms": index.total_ms("candidate_bags") * per,
        "ctd.ms": index.total_ms("ctd") * per,
        "constrained.ms": index.total_ms("constrained") * per,
        "enumerate.ms": index.total_ms("enumerate") * per,
        "scheduler.plan_ms": index.total_ms("scheduler.plan") * per,
        "parallel.pool_wait_ms": index.total_ms("parallel.pool_wait") * per,
    }
    gets = [spans[i].info for i in index.named("cache.get")]
    metrics["cache.hit_ratio"] = sum(map(bool, gets)) / len(gets) if gets else 0.0
    metrics["candidate_bags.count"] = per * sum(
        spans[i].info for i in index.named("candidate_bags")
    )
    negative = 0
    for i in index.named("solve.execute"):
        span = spans[i]
        if (
            span.parent >= 0
            and spans[span.parent].name == "solve.execute"
            and not span.info[1]
        ):
            negative += 1
    metrics["solve.negative_levels_per_request"] = negative * per

    tuples: Dict[str, float] = {}
    largest: Dict[str, float] = {}
    for i in index.named("yannakakis.execute"):
        label = labels.get(spans[i].request)
        if label in QUERY_NAMES:
            work, max_intermediate = spans[i].info
            tuples[label] = float(work)
            largest[label] = float(max_intermediate)
    warm = _warm_solve_spans(index, labels)
    for name in QUERY_NAMES:
        metrics[f"yannakakis.tuples.{name}"] = tuples.get(name, 0.0)
        metrics[f"yannakakis.max_intermediate.{name}"] = largest.get(name, 0.0)
        metrics[f"baseline.tuples.{name}"] = 0.0
        metrics[f"solve.warm_ms.{name}"] = (
            statistics.median(warm[name]) if name in warm else 0.0
        )
        metrics[f"solve.cold_ms.{name}"] = 0.0
    metrics.update(
        {
            "scheduler.solves_per_item": 0.0,
            "scheduler.fanout_ratio": 0.0,
            "scheduler.ungrouped_ratio": 0.0,
            "scheduler.fanout_rejected": 0.0,
        }
    )
    metrics.update(extras)
    metrics["solve.warm_slower_count"] = float(
        sum(
            1
            for name in QUERY_NAMES
            if 0.0 < metrics[f"solve.cold_ms.{name}"] < metrics[f"solve.warm_ms.{name}"]
        )
    )
    return metrics
