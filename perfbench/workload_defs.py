"""The four benchmark workloads: inputs from the seed, timed calls, answer checks.

Each workload is a closed loop with one client: the runner asks for the
``index``-th input (:meth:`Workload.request`, untimed), sends it through the
system's public entry point (:meth:`Workload.send`, timed), then checks the
reply or keeps what its check needs (:meth:`Workload.observe`, untimed).
Checks that need the whole run, or memory the timed loop must not see, run
after the loop (:meth:`Workload.check`).

Entry points are called through their modules (``frontdoor.run_query``,
``solve.execute``, ``scheduler.run_plan``) so the traced run's wrappers are
the ones called.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
from typing import Dict, List, Optional, Tuple

from repro.core import certify, solve
from repro.core.cache import DEFAULT_MAX_BYTES, DecompositionCache
from repro.db import frontdoor
from repro.db.executor import BaselineExecutor
from repro.hypergraph.canonical import canonical_form
from repro.hypergraph.generators import random_cyclic_query_hypergraph, random_hypergraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.runtime import parallel, scheduler
from repro.workloads.joblite import JOBLITE_QUERY_SQL
from repro.workloads.registry import (
    benchmark_queries,
    joblite_benchmark_queries,
    workload_entries,
)

# Imported here so that no timed request pays for a lazy import the solver
# makes on first use.
import repro.core.candidate_bags  # noqa: F401
import repro.core.constrained  # noqa: F401
import repro.core.ctd  # noqa: F401
import repro.core.enumerate  # noqa: F401
import repro.core.reference as reference
import repro.experiments.harness as harness
from tracing import Tracer

#: The 16 benchmark queries, in a fixed order: 6 paper queries, 10 JOB-lite.
QUERY_NAMES = tuple(q.name for q in benchmark_queries() + joblite_benchmark_queries())


def _rss_mb() -> float:
    """This process's peak resident set size in MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children_peak_mb() -> float:
    """Summed peak RSS of the live child processes, from ``/proc``."""
    import multiprocessing

    total = 0.0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as stream:
                for line in stream:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except OSError:
            continue
    return total


def _load_benchmark_queries(scale: float, seed: int):
    """``[(entry, source, database, query)]`` for the 16 queries at ``scale``.

    Each dataset is generated from its registered default seed plus the run
    seed, without the snapshot cache, so seed 0 gives the datasets every
    other part of the repository uses.  JOB-lite queries are sent as their
    SQL text; the paper queries as their :class:`ConjunctiveQuery`.
    """
    databases = {
        name: entry.load(scale=scale, seed=entry.default_seed + seed, cache=False)
        for name, entry in workload_entries().items()
    }
    loaded = []
    for entry in benchmark_queries() + joblite_benchmark_queries():
        database = databases[entry.dataset]
        query = entry.build_query(database)
        source = JOBLITE_QUERY_SQL.get(entry.name, query)
        loaded.append((entry, source, database, query))
    return loaded


class Workload:
    """One workload; subclasses fill in inputs, the timed call and checks."""

    name = ""
    #: Set-ups made per run; ``setup_s`` is their median.
    setup_repeats = 3
    #: The reported tail percentile: a standard one (90, 95, 99) with at
    #: least ten samples beyond it at :attr:`min_requests`.
    tail = 90.0
    #: The loop stops only at a multiple of this many requests, so every
    #: run sends the same mix.
    round_size = 1
    #: Requests every run sends at least, whatever ``--seconds`` says.
    min_requests = 150

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self._dirs = 0
        self.failed: set = set()

    def fresh_dir(self) -> str:
        self._dirs += 1
        path = os.path.join(self.scratch, f"{self.name}-{self._dirs}")
        os.makedirs(path)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` made (processes, large data)."""

    def request(self, index: int):
        raise NotImplementedError

    def send(self, request):
        raise NotImplementedError

    def observe(self, index: int, request, reply) -> Tuple[int, int]:
        """Check ``reply`` or keep what its check needs; return ``(items, work)``.

        Replies are not kept: a heap that grows over the run makes every
        garbage collection, and so the later requests, slower.
        """
        raise NotImplementedError

    def check(self) -> None:
        """Run the checks left for after the loop, adding to ``failed``."""

    def label(self, request) -> str:
        return ""

    def peak_rss_mb(self) -> float:
        return _rss_mb()

    def layer_extras(self) -> Dict[str, float]:
        """Per-layer metrics the workload measures itself (not from spans)."""
        return {}


#: One front-door round: the 16 queries, and jl08 a second time.  With an
#: even split the median fell on the gap between the 8th and 9th fastest
#: query and jumped between them from run to run; the odd round puts it
#: inside one query's own spread.  jl08 is the query ROADMAP's executor
#: work is about.
FRONTDOOR_ROUND = QUERY_NAMES + ("jl08",)


class FrontDoor(Workload):
    """``run_query`` on the 16 benchmark queries, in seeded rounds."""

    round_size = len(FRONTDOOR_ROUND)
    #: Uncached solves timed per query for ``solve.cold_ms.<query>``.
    cold_repeats = 5

    def __init__(self, seed: int, scratch: str, scale: float, warm: bool):
        super().__init__(seed, scratch)
        self.scale = scale
        self.warm = warm
        self.name = f"frontdoor-s{scale:g}"
        self.setup_repeats = 3 if warm else 15
        self.tail = 95.0 if warm else 99.0
        self.min_requests = self.round_size * (18 if warm else 90)
        self.records: List[Tuple[int, int, object, object, bool]] = []
        self.baselines: Dict[int, Tuple[object, int]] = {}

    def setup(self) -> None:
        self.queries = _load_benchmark_queries(self.scale, self.seed)
        self.cache = DecompositionCache(self.fresh_dir(), max_bytes=DEFAULT_MAX_BYTES)
        if self.warm:
            for entry, source, database, _ in self.queries:
                frontdoor.run_query(source, database, name=entry.name, cache=self.cache)

    def teardown(self) -> None:
        self.queries = []

    def request(self, index: int) -> int:
        order = [QUERY_NAMES.index(name) for name in FRONTDOOR_ROUND]
        random.Random(f"{self.name}:{self.seed}:{index // self.round_size}").shuffle(order)
        return order[index % self.round_size]

    def send(self, request: int):
        entry, source, database, _ = self.queries[request]
        return frontdoor.run_query(source, database, name=entry.name, cache=self.cache)

    def observe(self, index, request, reply) -> Tuple[int, int]:
        self.records.append(
            (index, request, reply.value, reply.rows, reply.complete)
        )
        if not reply.complete:
            self.failed.add(index)
        return 1, reply.execution_work

    def label(self, request: int) -> str:
        return QUERY_NAMES[request]

    def _baseline(self, position: int):
        if position not in self.baselines:
            _, _, database, query = self.queries[position]
            run = BaselineExecutor(database, query).execute()
            if query.aggregate is None:
                columns = tuple(sorted(map(str, query.variables())))
                rows = frontdoor.canonical_rows(run.result, columns)
                answer: object = (len(rows), rows)
            else:
                answer = (run.result, [(run.result,)])
            self.baselines[position] = (answer, run.work)
        return self.baselines[position][0]

    def check(self) -> None:
        for index, position, value, rows, complete in self.records:
            expected_value, expected_rows = self._baseline(position)
            if not complete or value != expected_value or rows != expected_rows:
                self.failed.add(index)
        self.records = []

    def layer_extras(self) -> Dict[str, float]:
        """Baseline tuples per query, and each query's uncached solve time.

        The uncached solve is the least-width request ``plan_query`` makes,
        sent to ``core.solve.execute`` with no cache and traced like the
        timed loop, so its span compares with the warm hit spans.
        """
        extras = {
            f"baseline.tuples.{QUERY_NAMES[position]}": float(work)
            for position, (_, work) in self.baselines.items()
        }
        for entry, _, database, query in self.queries:
            request = solve.SolveRequest(hypergraph=query.hypergraph(), mode="soft-width")
            probe = Tracer()
            probe.install()
            try:
                for repeat in range(self.cold_repeats):
                    probe.request = repeat
                    solve.execute(request, database=database, query=query, cache=None)
            finally:
                probe.uninstall()
            extras[f"solve.cold_ms.{entry.name}"] = statistics.median(
                1e3 * span.duration
                for span in probe.spans
                if span.name == "solve.execute" and span.parent < 0
            )
        return extras


def _relabel(shape: Hypergraph, rng: random.Random) -> Hypergraph:
    """An isomorphic copy with fresh vertex and edge names in shuffled order."""
    vertices = sorted(shape.vertices, key=str)
    names = rng.sample(range(10**6), len(vertices))
    rename = {vertex: f"x{name}" for vertex, name in zip(vertices, names)}
    edges = [
        (f"r{index}", sorted(rename[vertex] for vertex in edge.vertices))
        for index, edge in enumerate(shape.edges)
    ]
    rng.shuffle(edges)
    return Hypergraph(dict(edges))


#: One round of ``solve-hard``: ``(shape family, size, mode)``, each sent on a
#: fresh shape.  Enumeration runs on the smaller strata only: at limit 5 it
#: takes 0.4-3.5 s on the larger ones, which would leave a run too few
#: requests for a steady tail.
SOLVE_ROUND = tuple(
    (family, size, mode)
    for mode in ("soft-width", "optimal")
    for family, size in (
        ("cycle", 6),
        ("cycle", 8),
        ("cycle", 10),
        ("cycle", 12),
        ("random", 16),
        ("random", 21),
        ("random", 26),
    )
) + (
    ("cycle", 6, "enumerate"),
    ("cycle", 8, "enumerate"),
    ("random", 16, "enumerate"),
)

#: Every request asks for width at most 2: the rare width-3 shapes would
#: otherwise turn one soft-width search into a 15 s outlier.
SOLVE_WIDTH = 2


def _solve_request(mode: str, hypergraph: Hypergraph) -> solve.SolveRequest:
    if mode == "soft-width":
        return solve.SolveRequest(
            hypergraph=hypergraph, mode="soft-width", width=SOLVE_WIDTH
        )
    if mode == "optimal":
        return solve.SolveRequest(
            hypergraph=hypergraph,
            mode="optimal",
            width=SOLVE_WIDTH,
            constraint="concov",
            preference="nodecount",
        )
    return solve.SolveRequest(
        hypergraph=hypergraph, mode="enumerate", width=SOLVE_WIDTH, limit=5
    )


class SolveHard(Workload):
    """Cold ``core.solve.execute`` calls on a fixed corpus of synthetic shapes.

    The corpus holds :attr:`corpus_rounds` rounds of :data:`SOLVE_ROUND`,
    distinct up to isomorphism and drawn from fixed generator seeds, so every
    run solves the same mix whatever its length; with shapes drawn from the
    run seed, a few shapes costing ten times their stratum's median moved a
    run's median by up to a quarter.  The run sends the corpus in passes.
    Each pass starts on a fresh cache and sends every shape under new seeded
    labels in a seeded order, so every request misses and stores.
    """

    name = "solve-hard"
    setup_repeats = 15
    tail = 90.0
    corpus_rounds = 2
    round_size = corpus_rounds * len(SOLVE_ROUND)
    min_requests = 5 * round_size

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.negatives: List[Tuple[int, solve.SolveRequest]] = []

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:shapes")
        seen: set = set()
        self.corpus = [
            (mode, self._shape(rng, seen, family, size))
            for _ in range(self.corpus_rounds)
            for family, size, mode in SOLVE_ROUND
        ]

    @staticmethod
    def _shape(rng: random.Random, seen: set, family: str, size: int) -> Hypergraph:
        for _ in range(1000):
            if family == "cycle":
                shape = random_cyclic_query_hypergraph(
                    size, num_tails=rng.randint(1, 3), seed=rng.randrange(2**31)
                )
            else:
                shape = random_hypergraph(size, size // 2, 3, seed=rng.randrange(2**31))
            fingerprint = canonical_form(shape).fingerprint
            if fingerprint not in seen:
                seen.add(fingerprint)
                return shape
        raise RuntimeError(f"no fresh {family} shape of size {size} left")

    def request(self, index: int) -> solve.SolveRequest:
        position = index % self.round_size
        if position == 0:
            self.cache = DecompositionCache(self.fresh_dir(), max_bytes=DEFAULT_MAX_BYTES)
            rng = random.Random(f"{self.name}:{self.seed}:{index // self.round_size}")
            self.passing = [
                _solve_request(mode, _relabel(shape, rng)) for mode, shape in self.corpus
            ]
            rng.shuffle(self.passing)
        return self.passing[position]

    def send(self, request: solve.SolveRequest):
        return solve.execute(request, cache=self.cache)

    def observe(self, index, request, reply) -> Tuple[int, int]:
        if not reply.outcome.complete:
            self.failed.add(index)
        elif not reply.decided:
            self.negatives.append((index, request))
        elif not self._certified(request, reply):
            self.failed.add(index)
        return 1, sum(len(ctd.tree.nodes()) for ctd in reply.decompositions)

    def label(self, request: solve.SolveRequest) -> str:
        return request.mode

    def check(self) -> None:
        for index, request in self.negatives:
            if not self._negative_holds(request):
                self.failed.add(index)
        self.negatives = []

    @staticmethod
    def _certified(request: solve.SolveRequest, reply) -> bool:
        """Every returned CTD certifies at the returned width and constraint."""
        if request.mode == "enumerate" and len(reply.decompositions) > request.limit:
            return False
        constraint = solve.constraint_object(
            request.constraint, request.hypergraph, reply.width
        )
        return bool(reply.decompositions) and all(
            certify.certify_ctd(
                request.hypergraph, ctd, constraint=constraint, width_claim=reply.width
            )
            for ctd in reply.decompositions
        )

    @staticmethod
    def _negative_holds(request: solve.SolveRequest) -> bool:
        """"No CTD of width 2" has no certificate: ask the reference code.

        The frozenset reference implementations of Algorithm 1 (for
        ``soft-width`` and ``enumerate``) and Algorithm 2 (for ``optimal``)
        must find none either.
        """
        hypergraph = request.hypergraph
        bags = reference.reference_soft_candidate_bags(hypergraph, request.width)
        if request.mode != "optimal":
            return not reference.reference_candidate_td_decide(hypergraph, bags)
        found = reference.reference_constrained_ctd(
            hypergraph,
            bags,
            constraint=solve.constraint_object(
                request.constraint, hypergraph, request.width
            ),
            preference=solve.preference_object(request.preference),
        )
        return found is None


class BatchDedup(Workload):
    """Batches of relabeled query shapes through the batch scheduler's pool."""

    name = "batch-dedup"
    setup_repeats = 5
    tail = 90.0
    #: Relabelings of each of the 16 shapes in one batch.
    copies = 8
    #: Share of batch items sent as ``soft-width`` (never grouped today).
    soft_share = 0.25
    workers = 2

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.counters: Dict[str, int] = {}
        self.expected: Dict[Tuple[int, str], Optional[int]] = {}

    def setup(self) -> None:
        self.counters = {}
        self.shapes = [
            (entry.name, query.hypergraph(), entry.width)
            for entry, _, _, query in _load_benchmark_queries(1.0, self.seed)
        ]
        pool = parallel.get_pool(self.workers)
        # Every worker imports the solver stack before the first timed batch.
        _, shape, width = self.shapes[0]
        warm = solve.SolveRequest(hypergraph=shape, mode="decide", width=width)
        payload = {"request": warm.to_payload(), "cache_off": True}
        pool.map(harness.execute_batch_task, [payload] * (4 * self.workers))

    def teardown(self) -> None:
        parallel.shutdown_pools()

    def request(self, index: int):
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        items = []
        for position, (_, shape, width) in enumerate(self.shapes):
            for _ in range(self.copies):
                mode = "soft-width" if rng.random() < self.soft_share else "decide"
                items.append((position, mode, _relabel(shape, rng)))
        rng.shuffle(items)
        tasks = []
        for number, (position, mode, hypergraph) in enumerate(items):
            width = None if mode == "soft-width" else self.shapes[position][2]
            request = solve.SolveRequest(hypergraph=hypergraph, mode=mode, width=width)
            tasks.append(
                {
                    "request": request.to_payload(),
                    "query": f"{self.shapes[position][0]}/{number}",
                }
            )
        return items, tasks

    def send(self, request):
        _, tasks = request
        plan = scheduler.BatchSolvePlan.from_tasks(tasks)
        return scheduler.run_plan(plan, workers=self.workers, cache=None)

    def observe(self, index, request, reply) -> Tuple[int, int]:
        items, _ = request
        for (position, mode, hypergraph), wire in zip(items, reply.results):
            if not self._item_holds(hypergraph, wire, self._serial_width(position, mode)):
                self.failed.add(index)
                break
        for key, value in reply.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        self.counters["items"] = self.counters.get("items", 0) + len(items)
        return len(items), reply.counters["solves"]

    def _serial_width(self, position: int, mode: str) -> Optional[int]:
        """The width a serial ``execute`` of the unrelabeled shape returns."""
        key = (position, mode)
        if key not in self.expected:
            _, shape, width = self.shapes[position]
            if mode == "soft-width":
                width = None
            request = solve.SolveRequest(hypergraph=shape, mode=mode, width=width)
            self.expected[key] = solve.execute(request, cache=None).width
        return self.expected[key]

    def peak_rss_mb(self) -> float:
        return _rss_mb() + _children_peak_mb()

    @staticmethod
    def _item_holds(hypergraph: Hypergraph, wire, width: Optional[int]) -> bool:
        """The item's width matches a serial solve and its CTD certifies."""
        if not isinstance(wire, dict) or not wire.get("ok") or not wire.get("decided"):
            return False
        if wire.get("outcome", {}).get("status") != "complete":
            return False
        if width is None or wire.get("width") != width:
            return False
        payloads = wire.get("decompositions") or []
        if not payloads:
            return False
        for payload in payloads:
            ctd = certify.decomposition_from_payload(hypergraph, payload)
            if not certify.certify_ctd(hypergraph, ctd, width_claim=width):
                return False
        return True

    def layer_extras(self) -> Dict[str, float]:
        items = max(1, self.counters.get("items", 0))
        return {
            "scheduler.solves_per_item": self.counters.get("solves", 0) / items,
            "scheduler.fanout_ratio": self.counters.get("fanout", 0) / items,
            "scheduler.ungrouped_ratio": self.counters.get("ungrouped_queries", 0) / items,
            "scheduler.fanout_rejected": float(self.counters.get("fanout_rejected", 0)),
        }


#: Workload name -> ``factory(seed, scratch directory)``.
WORKLOADS = {
    "frontdoor-s1": lambda seed, scratch: FrontDoor(seed, scratch, 1.0, warm=False),
    "frontdoor-s10": lambda seed, scratch: FrontDoor(seed, scratch, 10.0, warm=True),
    "solve-hard": SolveHard,
    "batch-dedup": BatchDedup,
}

