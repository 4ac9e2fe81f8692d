"""The repository benchmark: one workload, one run, one JSON line of metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload frontdoor-s1 --seed 0 --seconds 10 --trace 0

The load is a closed loop with one client: each request is sent only after
the previous reply arrived.  ``--seed`` drives every input: the datasets
(each workload's registered default seed plus ``--seed``, so seed 0 gives
the repository's usual data), the synthetic shapes, the relabelings and the
request order.  Every request's answer is checked outside the timed calls.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs the workload once untraced and once with spans around
each layer's entry points, and prints the per-layer metrics (see
``layers.py``) together with the tracing overhead.  The last line of
standard output is the JSON result; everything before it is a readable
table.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, ".out")


def _pin_environment(scratch: str) -> None:
    """No ambient ``REPRO_*`` setting or default cache directory takes part.

    Every cache the benchmark uses is passed explicitly; turning the
    defaults off means a code path that falls back to ``"auto"`` reads and
    writes nothing.  Temporary files of this process and its children go to
    the run's scratch directory inside the checkout.
    """
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CTD_CACHE_OFF"] = "1"
    os.environ["REPRO_WORKLOAD_SNAPSHOTS_OFF"] = "1"
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process a spawn pool makes multiprocessing start.

    It would otherwise outlive the run by a moment, unreaped.  There is no
    public call for this; ``_stop`` closes the tracker's pipe and waits.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def percentile(values: List[float], share: float) -> float:
    """Linear-interpolation percentile (``share`` in percent)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * share / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Pass:
    """What one measured pass over a workload produced."""

    def __init__(self) -> None:
        self.setups: List[float] = []
        self.latencies: List[float] = []
        self.items = 0
        self.work = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.labels: Dict[int, str] = {}

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def end_to_end(self, tail: float) -> Dict[str, float]:
        busy = sum(self.latencies)
        return {
            "setup_s": statistics.median(self.setups),
            "latency_p50_ms": 1e3 * statistics.median(self.latencies),
            "latency_tail_ms": 1e3 * percentile(self.latencies, tail),
            "throughput_rps": self.items / busy,
            "peak_rss_mb": self.peak_rss_mb,
            "work_per_request": self.work / self.attempted,
        }


def measure(workload, seconds: float, setups: int, tracer=None) -> Pass:
    """Set up ``setups`` times, run the closed loop, then check every answer.

    The loop ends at the first round boundary past ``min_requests`` once
    the timed calls alone add up to ``seconds``.
    """
    result = Pass()
    workload.failed = set()
    for repeat in range(setups):
        if repeat:
            workload.teardown()
            gc.collect()
        started = time.perf_counter()
        workload.setup()
        result.setups.append(time.perf_counter() - started)
    if tracer is not None:
        tracer.install()
    try:
        index = 0
        busy = 0.0
        while True:
            request = workload.request(index)
            if tracer is not None:
                tracer.request = index
                result.labels[index] = workload.label(request)
            sent = time.perf_counter()
            try:
                reply = workload.send(request)
            except Exception:
                reply = None
                traceback.print_exc(file=sys.stderr)
            result.latencies.append(time.perf_counter() - sent)
            if tracer is not None:
                tracer.request = None
            busy += result.latencies[-1]
            if reply is None:
                workload.failed.add(index)
            else:
                items, work = workload.observe(index, request, reply)
                result.items += items
                result.work += work
            index += 1
            if (
                index % workload.round_size == 0
                and index >= workload.min_requests
                and busy >= seconds
            ):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.peak_rss_mb = workload.peak_rss_mb()
    workload.check()
    result.failed = len(workload.failed)
    return result


def _declared(kind: str) -> List[Dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        return json.load(stream)[kind]


def _report(declared: List[Dict[str, str]], values: Dict[str, float], notes) -> Dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        note = notes(name) if notes is not None else ""
        print(f"{name:42s} {values[name]:>16.4f} {unit:6s} {note}")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source under {ROOT}/src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workload_defs import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT)
    _pin_environment(scratch)
    workload = WORKLOADS[args.workload](args.seed, scratch)
    try:
        untraced = measure(workload, args.seconds, workload.setup_repeats)
        attempted, failed = untraced.attempted, untraced.failed
        print(
            f"# {args.workload} seed={args.seed}: {attempted} requests, "
            f"{failed} failed, tail=p{workload.tail:g}, "
            f"setups={len(untraced.setups)}"
        )
        if args.trace == 0:
            metrics = _report(
                _declared("end_to_end"), untraced.end_to_end(workload.tail), None
            )
        else:
            from layers import layer_metrics, prediction
            from tracing import Tracer

            tracer = Tracer()
            workload.teardown()
            traced = measure(workload, args.seconds, 1, tracer)
            attempted += traced.attempted
            failed += traced.failed
            tracer.write(
                os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"),
                traced.labels,
            )
            values = layer_metrics(
                tracer.spans, traced.labels, traced.attempted, workload.layer_extras()
            )
            values["trace.overhead_p50_ms"] = (
                traced.end_to_end(workload.tail)["latency_p50_ms"]
                - untraced.end_to_end(workload.tail)["latency_p50_ms"]
            )
            metrics = _report(_declared("per_layer"), values, prediction)
    finally:
        workload.teardown()
        _stop_resource_tracker()
        shutil.rmtree(scratch, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
