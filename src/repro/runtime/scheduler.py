"""Multi-query batch solving: plan, hot memo, duplicate fan-out, scheduling.

One production client rarely asks for one decomposition — it brings a
workload's whole query set, full of repeated and near-repeated shapes.
This module turns such a set into a :class:`BatchSolvePlan`:

1. **Canonicalise up front.**  Every query hypergraph gets its
   isomorphism-invariant canonical form (:func:`repro.hypergraph.
   canonical.canonical_form`) — the same fingerprints the persistent
   decomposition cache is keyed by, computed once per query.
2. **Group exact duplicates.**  Queries with equal ``(fingerprint,
   cache kind)`` are the same solve up to vertex renaming; each group is
   solved once through its *representative* (the first member in input
   order) and fanned out to every other member through that member's own
   relabeling permutation, with per-member re-certification
   (:func:`repro.core.solve.serve_canonical_record`) — a fanned-out
   result is held to exactly the cache trust model: the record is
   evidence, the per-query certificate is the proof.  Requests whose
   kind is ``None`` (``soft-width``, data preferences without a
   ``data_key``) are never grouped or memoised.
3. **Schedule by similarity.**  Groups are ordered greedily by Jaccard
   similarity of their canonical edge-encoding sets, starting from the
   lexicographically smallest fingerprint — near-identical shapes run
   adjacently, which keeps the persistent cache's working set and the
   in-process :class:`HotMemo` maximally warm across repeated plans.

:func:`run_plan` executes a plan: hot memo → persistent cache →
representative solve (inline, or dispatched to a spawn worker pool via
the supervised batch runtime's worker runner), then fan-out.  Results
crossing a process boundary are independently re-certified by the
parent before they are memoised or served.  Fan-out only ever applies
*complete* results — a budget-truncated (anytime) representative answer
is never replicated to other queries; those members are solved
individually under their own caps.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.solve import (
    SolveRequest,
    _record_for,
    serve_canonical_record,
)
from repro.hypergraph.canonical import CanonicalForm, canonical_form

__all__ = [
    "HotMemo",
    "PlanItem",
    "PlanGroup",
    "BatchSolvePlan",
    "BatchReport",
    "run_plan",
]


class HotMemo:
    """In-process ``(fingerprint, kind) → canonical record`` memo.

    The per-plan (or per-service) twin of the persistent decomposition
    cache: records live only in this process, store bags as canonical
    vertex indices and are re-certified against each caller's hypergraph
    on every serve — never trusted.  Counters mirror the persistent
    cache's hit metrics.
    """

    def __init__(self) -> None:
        self._records: Dict[Tuple[str, str], Dict[str, object]] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def get(self, fingerprint: str, kind: Optional[str]) -> Optional[Dict[str, object]]:
        if kind is None:
            return None
        record = self._records.get((fingerprint, kind))
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def put(self, fingerprint: str, kind: Optional[str], record: Dict[str, object]) -> None:
        if kind is None:
            return
        self._records[(fingerprint, kind)] = record
        self.stores += 1

    def __len__(self) -> int:
        return len(self._records)


@dataclass
class PlanItem:
    """One query of the plan: its task dict, request and canonical form."""

    index: int
    task: Dict[str, object]
    request: SolveRequest
    canonical: CanonicalForm
    kind: Optional[str]

    @property
    def fingerprint(self) -> str:
        return self.canonical.fingerprint


@dataclass
class PlanGroup:
    """All queries sharing one ``(fingerprint, kind)`` — one solve."""

    fingerprint: str
    kind: str
    items: List[PlanItem] = field(default_factory=list)

    @property
    def representative(self) -> PlanItem:
        """The group's solved member: the first in input order."""
        return self.items[0]


def _similarity(a: frozenset, b: frozenset) -> float:
    """Jaccard similarity of two canonical edge-encoding sets."""
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


class BatchSolvePlan:
    """A workload's query set, canonicalised, grouped and scheduled."""

    def __init__(self, items: List[PlanItem]):
        self.items = items
        groups: Dict[Tuple[str, str], PlanGroup] = {}
        self.ungrouped: List[PlanItem] = []
        for item in items:
            if item.kind is None:
                # No cache kind — the answer may depend on more than the
                # shape (soft-width sub-searches, data preferences without
                # a named database), so sharing one solve across members
                # would not be sound.  Solved individually.
                self.ungrouped.append(item)
                continue
            key = (item.fingerprint, item.kind)
            group = groups.get(key)
            if group is None:
                group = groups[key] = PlanGroup(item.fingerprint, item.kind)
            group.items.append(item)
        self.groups = self._schedule(list(groups.values()))

    @classmethod
    def from_tasks(cls, tasks: Sequence[Dict[str, object]]) -> "BatchSolvePlan":
        """Build a plan from batch task dicts (``request`` wire payloads).

        Accepts the same specs the supervised batch runtime consumes
        (:func:`repro.experiments.harness.batch_task_specs`); malformed
        request payloads raise :class:`ValueError` — a batch must fail
        loudly at plan time, not mid-run.
        """
        items: List[PlanItem] = []
        for index, task in enumerate(tasks):
            request = SolveRequest.from_payload(task.get("request"))
            canonical = canonical_form(request.hypergraph)
            items.append(
                PlanItem(
                    index=index,
                    task=dict(task),
                    request=request,
                    canonical=canonical,
                    kind=request.cache_kind(),
                )
            )
        return cls(items)

    @staticmethod
    def _schedule(groups: List[PlanGroup]) -> List[PlanGroup]:
        """Greedy similarity order over canonical edge-encoding sets.

        Deterministic: start at the lexicographically smallest
        fingerprint, then repeatedly append the unvisited group most
        similar to the last scheduled one (ties broken by fingerprint,
        then kind).  O(n²) in the number of *distinct* shapes, which is
        the small side of a deduplicated workload.
        """
        if not groups:
            return []
        remaining = sorted(groups, key=lambda g: (g.fingerprint, g.kind))
        signatures = {
            id(group): frozenset(group.representative.canonical.encoding)
            for group in remaining
        }
        ordered = [remaining.pop(0)]
        while remaining:
            last = signatures[id(ordered[-1])]
            best_index = 0
            best_similarity = -1.0
            for i, group in enumerate(remaining):
                similarity = _similarity(last, signatures[id(group)])
                # Higher similarity wins; fingerprint ascending breaks ties
                # (``remaining`` is kept fingerprint-sorted, so the first
                # of equals is already the lexicographic winner).
                if similarity > best_similarity:
                    best_similarity = similarity
                    best_index = i
            ordered.append(remaining.pop(best_index))
        return ordered

    @property
    def query_count(self) -> int:
        return len(self.items)

    @property
    def solve_count(self) -> int:
        """Distinct solves the plan needs (groups + ungrouped queries)."""
        return len(self.groups) + len(self.ungrouped)

    def describe(self) -> str:
        return (
            f"{self.query_count} queries -> {len(self.groups)} shape groups "
            f"+ {len(self.ungrouped)} ungrouped solves"
        )


@dataclass
class BatchReport:
    """What one :func:`run_plan` produced, in the plan's input order."""

    results: List[Optional[Dict[str, object]]]
    counters: Dict[str, int]
    elapsed: float

    @property
    def queries_per_second(self) -> float:
        return len(self.results) / self.elapsed if self.elapsed > 0 else 0.0

    def summary(self) -> Dict[str, object]:
        return {
            "queries": len(self.results),
            "elapsed_s": round(self.elapsed, 6),
            "queries_per_second": round(self.queries_per_second, 3),
            **self.counters,
        }


def _wire(item: PlanItem, result, cache_label: str) -> Dict[str, object]:
    """A per-query wire dict (the supervised batch result format)."""
    wire = result.to_payload()
    wire["query"] = item.task.get("query") or item.request.label or f"q{item.index}"
    wire["cache"] = cache_label
    return wire


def _solve_inline(item: PlanItem, cache) -> "object":
    from repro.core.solve import DATA_PREFERENCES, execute

    database = query = None
    if item.request.preference in DATA_PREFERENCES and item.task.get("query"):
        # Cost preferences rank by database statistics; benchmark tasks
        # carry their workload coordinates, and the module-level memo in
        # the harness makes repeated loads of one workload free.
        from repro.experiments.harness import load_benchmark_workload

        database, query, _ = load_benchmark_workload(
            str(item.task["query"]),
            scale=float(item.task.get("scale") or 1.0),
            seed=item.task.get("seed"),
        )
    return execute(item.request, database=database, query=query, cache=cache)


def _record_from_result(item: PlanItem, result) -> Optional[Dict[str, object]]:
    """The canonical record of a complete, positive representative solve."""
    if not result.decided or not result.outcome.complete or not result.decompositions:
        return None
    return _record_for(item.canonical, result.decompositions, int(result.width))


def _fan_out(
    member: PlanItem, record: Dict[str, object], counters: Dict[str, int], label: str
) -> Optional[Dict[str, object]]:
    """Serve one member from a canonical record, re-certifying for *it*.

    Returns ``None`` when the record does not certify against this
    member's hypergraph (fingerprint collision, corrupt memo) — the
    caller then solves the member individually; a bad record degrades to
    a miss, never a wrong answer.
    """
    try:
        served = serve_canonical_record(
            member.request, member.canonical, record, time.perf_counter(), label
        )
    except (KeyError, TypeError, ValueError):
        counters["fanout_rejected"] += 1
        return None
    counters["fanout"] += 1
    return _wire(member, served, label)


def _pool_payload(item: PlanItem, cache_dir: Optional[str]) -> Dict[str, object]:
    payload = dict(item.task)
    payload["request"] = item.request.to_payload()
    payload.setdefault("mode", "ranked")
    # The worker must use exactly this plan's cache: a cache-less run
    # (benchmarks, equivalence tests) must not touch the persistent cache,
    # and an explicit directory must not fall back to the worker's default.
    if cache_dir is None:
        payload["cache_off"] = True
    else:
        payload["cache_dir"] = cache_dir
    return payload


def _certify_pool_result(item: PlanItem, wire: object):
    """Re-certify a worker's wire result against the parent's own request.

    The parent built the request itself, so the trusted hypergraph is the
    request's — the worker only contributed the decomposition claim.
    Returns a parent-side :class:`~repro.core.solve.SolveResult`, or
    ``None`` if the claim does not certify (the caller then solves the
    representative inline: a lying worker degrades to a retry, never a
    wrong answer).
    """
    from repro.core.certify import certify_ctd, decomposition_from_payload
    from repro.core.solve import SolveResult, constraint_object
    from repro.runtime.budget import SolveOutcome

    if not isinstance(wire, dict) or not wire.get("ok"):
        return None
    hypergraph = item.request.hypergraph
    payloads = wire.get("decompositions") or (
        [wire["decomposition"]] if wire.get("decomposition") else []
    )
    outcome_dict = wire.get("outcome") or {}
    outcome = SolveOutcome(
        status=str(outcome_dict.get("status", "complete")),
        work=int(outcome_dict.get("work") or 0),
        elapsed=float(outcome_dict.get("elapsed") or 0.0),
    )
    decided = bool(wire.get("decided"))
    width = wire.get("width")
    decompositions = []
    try:
        constraint = constraint_object(
            item.request.constraint,
            hypergraph,
            int(width if width is not None else item.request.width or 1),
        )
        for payload in payloads:
            ctd = decomposition_from_payload(hypergraph, payload)
            certification = certify_ctd(
                hypergraph,
                ctd,
                constraint=constraint,
                width_claim=int(width) if width is not None else None,
            )
            if not certification:
                return None
            decompositions.append(ctd)
    except (KeyError, TypeError, ValueError):
        return None
    if decided and not decompositions:
        return None
    return SolveResult(
        request=item.request,
        decided=decided,
        decompositions=decompositions,
        width=int(width) if width is not None and decided else None,
        outcome=outcome,
    )


def run_plan(
    plan: BatchSolvePlan,
    workers: int = 0,
    cache="auto",
    memo: Optional[HotMemo] = None,
) -> BatchReport:
    """Execute a plan and return per-query results plus reuse counters.

    ``workers > 1`` dispatches representative solves to a spawn worker
    pool (the supervised batch runtime's worker runner,
    :func:`repro.experiments.harness.execute_batch_task`); anything a
    worker returns is re-certified by the parent before it is memoised
    or served; workers read and write the directory ``cache`` resolves
    to in the parent.  ``workers <= 1`` solves inline.  ``memo`` carries
    the hot memo across plans (a fresh one is used per call by default).

    Results are deterministic in the plan's input order and independent
    of ``workers`` and of the group schedule: grouping, representative
    choice and fan-out permutations are all fixed by the plan itself.
    """
    started = time.perf_counter()
    memo = memo if memo is not None else HotMemo()
    counters = {
        "solves": 0,
        "memo_hits": 0,
        "cache_hits": 0,
        "fanout": 0,
        "fanout_rejected": 0,
        "solve_errors": 0,
        "groups": len(plan.groups),
        "grouped_queries": sum(len(g.items) for g in plan.groups),
        "ungrouped_queries": len(plan.ungrouped),
    }
    results: List[Optional[Dict[str, object]]] = [None] * len(plan.items)

    def solve_member(item: PlanItem):
        result = _solve_inline(item, cache)
        counters["solves"] += 1
        if result.cache_status == "hit":
            counters["cache_hits"] += 1
        results[item.index] = _wire(item, result, result.cache_status)
        return result

    # -- representatives needing a real solve ---------------------------------
    pending: List[PlanGroup] = []
    for group in plan.groups:
        record = memo.get(group.fingerprint, group.kind)
        if record is not None:
            counters["memo_hits"] += 1
            served_all = True
            for member in group.items:
                wire = _fan_out(member, record, counters, "memo")
                if wire is None:
                    served_all = False
                    solve_member(member)
                else:
                    results[member.index] = wire
            if served_all:
                continue
        else:
            pending.append(group)

    if workers > 1 and pending:
        from repro.core.cache import resolve_cache
        from repro.experiments.harness import execute_batch_task
        from repro.runtime.parallel import get_pool

        store = resolve_cache(cache)
        cache_dir = os.path.abspath(store.directory) if store is not None else None
        pool = get_pool(workers)
        payloads = [_pool_payload(group.representative, cache_dir) for group in pending]
        wires = pool.map(execute_batch_task, payloads)
        rep_results = []
        for group, wire in zip(pending, wires):
            certified = _certify_pool_result(group.representative, wire)
            rep_results.append(certified)
            counters["solves"] += 1
            if certified is None and isinstance(wire, dict) and not wire.get("ok"):
                counters["solve_errors"] += 1
    else:
        rep_results = [None] * len(pending)

    for group, pooled in zip(pending, rep_results):
        rep = group.representative
        if pooled is not None:
            rep_result = pooled
            results[rep.index] = _wire(rep, rep_result, "miss")
        else:
            rep_result = solve_member(rep)
        record = _record_from_result(rep, rep_result)
        if record is not None:
            memo.put(group.fingerprint, group.kind, record)
            for member in group.items[1:]:
                wire = _fan_out(member, record, counters, "fanout")
                if wire is None:
                    solve_member(member)
                else:
                    results[member.index] = wire
        elif (
            not rep_result.decided
            and rep_result.outcome.complete
            and len(group.items) > 1
        ):
            # A *complete* negative is a fact about the shape: every
            # isomorphic member shares it.  (Anytime negatives are
            # inconclusive and must not be replicated.)
            for member in group.items[1:]:
                counters["fanout"] += 1
                results[member.index] = _wire(member, rep_result, "fanout")
        else:
            # Anytime representative answer: other members get their own
            # governed solves rather than a replicated partial result.
            for member in group.items[1:]:
                solve_member(member)

    # -- ungrouped (kind None) queries ----------------------------------------
    for item in plan.ungrouped:
        solve_member(item)

    return BatchReport(
        results=results,
        counters=counters,
        elapsed=time.perf_counter() - started,
    )
