"""Equivalence properties of the multi-query batch scheduler.

The batch scheduler (:mod:`repro.runtime.scheduler`) answers duplicate
shapes by certified fan-out and may dispatch representative solves to a
worker pool.  It claims *observational identity* with the serial code:

* batch-plan results do not depend on the worker count, and the
  per-query answers do not depend on the order queries arrive in,
* pooled solves use exactly the cache the caller passed, never the
  workers' default cache directory.

The grids are seeded and deterministic, matching the house property-suite
style.
"""

import json
import os

import pytest

from repro.core.cache import DecompositionCache
from repro.core.solve import SolveRequest
from repro.hypergraph.hypergraph import Edge, Hypergraph
from repro.runtime.parallel import shutdown_pools
from repro.runtime.scheduler import BatchSolvePlan, run_plan


def _batch_tasks():
    def hg(edges):
        return Hypergraph(
            [Edge(name, frozenset(vs)) for name, vs in edges.items()]
        )

    cycle = {"e1": ["a", "b"], "e2": ["b", "c"], "e3": ["c", "d"], "e4": ["d", "a"]}
    twin = {"f1": ["p", "q"], "f2": ["q", "r"], "f3": ["r", "s"], "f4": ["s", "p"]}
    tri = {"t1": ["x", "y"], "t2": ["y", "z"], "t3": ["z", "x"]}
    tasks = []
    for name, shape, mode in (
        ("cycle-1", cycle, "enumerate"),
        ("tri-1", tri, "optimal"),
        ("cycle-2", twin, "enumerate"),
        ("cycle-3", cycle, "enumerate"),
        ("tri-2", tri, "optimal"),
    ):
        request = SolveRequest(
            hypergraph=hg(shape),
            mode=mode,
            width=2,
            constraint="concov",
            limit=2 if mode == "enumerate" else 1,
            label=name,
        )
        tasks.append(
            {"kind": "solve", "query": name, "request": request.to_payload()}
        )
    return tasks


def _strip(wire):
    return {k: v for k, v in wire.items() if k not in ("cache", "mode", "level")}


def test_batch_results_independent_of_worker_count():
    tasks = _batch_tasks()
    inline = run_plan(BatchSolvePlan.from_tasks(tasks), workers=0, cache=None)
    try:
        pooled = run_plan(BatchSolvePlan.from_tasks(tasks), workers=2, cache=None)
    finally:
        shutdown_pools()
    a = json.dumps([_strip(r) for r in inline.results], sort_keys=True, default=str)
    b = json.dumps([_strip(r) for r in pooled.results], sort_keys=True, default=str)
    assert a == b
    assert pooled.counters["fanout"] == inline.counters["fanout"] > 0


def test_batch_answers_independent_of_schedule_order():
    """Reordering the query set must not change any query's answer.

    Representative choice (and therefore the exact witness served to a
    fanned-out member) is input-order dependent by design; the *answers*
    — decided, width, number of certified decompositions — are not.
    """
    tasks = _batch_tasks()
    forward = run_plan(BatchSolvePlan.from_tasks(tasks), cache=None)
    reversed_tasks = list(reversed(tasks))
    backward = run_plan(BatchSolvePlan.from_tasks(reversed_tasks), cache=None)
    by_query_forward = {r["query"]: r for r in forward.results}
    by_query_backward = {r["query"]: r for r in backward.results}
    assert by_query_forward.keys() == by_query_backward.keys()
    for query, fwd in by_query_forward.items():
        bwd = by_query_backward[query]
        assert fwd["decided"] == bwd["decided"], query
        assert fwd["width"] == bwd["width"], query
        assert len(fwd["decompositions"]) == len(bwd["decompositions"]), query


@pytest.mark.parametrize("as_instance", (False, True))
def test_pooled_solves_use_the_callers_cache(tmp_path, monkeypatch, as_instance):
    """Worker solves write to the plan's cache, not ``$REPRO_CTD_CACHE``."""
    callers = tmp_path / "callers"
    ambient = tmp_path / "ambient"
    callers.mkdir()
    ambient.mkdir()
    monkeypatch.delenv("REPRO_CTD_CACHE_OFF", raising=False)
    monkeypatch.setenv("REPRO_CTD_CACHE", str(ambient))
    cache = DecompositionCache(str(callers)) if as_instance else str(callers)
    # Spawned workers inherit the environment at start-up: start a fresh pool.
    shutdown_pools()
    try:
        plan = BatchSolvePlan.from_tasks(_batch_tasks())
        report = run_plan(plan, workers=2, cache=cache)
    finally:
        shutdown_pools()
    assert all(isinstance(r, dict) and r.get("ok") for r in report.results)
    assert os.listdir(ambient) == []
    assert DecompositionCache(str(callers)).entries()
