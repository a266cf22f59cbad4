"""Repository benchmark: one command, three workloads, named metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus-batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload solve-cold   --seed 1 --seconds 20 --trace 1

Workloads (see :mod:`workloads`): ``corpus-batch`` (in-process compiles of a
generated code base, problem cache warm across files), ``solve-cold``
(solve-bound linearized nests, caches cleared before every file) and
``serve-edit`` (one ``repro serve`` daemon, one client sending
``didChange`` + ``lint`` edits).

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the op
list untraced for half of the time, then again with span wrappers
installed (:mod:`spans`), and reports the per-layer metrics plus the tracing
overhead; it writes the raw spans of the first traced ops to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any correctness
mismatch makes the command exit 1.
"""

from __future__ import annotations

import argparse
import copy
import gc
import itertools
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import SpeedTrack  # noqa: E402
from workloads import SRC, WORKLOADS, OpResult  # noqa: E402

#: Cold starts per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Reference chunks run before and after each cold start to scale it.
SETUP_SPEED_SAMPLES = 40
#: Share of a traced run spent on the untraced reference segment.
UNTRACED_SHARE = 1 / 2
#: Raw spans are kept (and written out) for this many traced ops.
KEEP_SPAN_OPS = 50

#: Per-layer metrics: name -> (unit, workloads it is measured on, the
#: end-to-end metric it should move).  Every traced run prints all of them;
#: a metric is 0 on a workload that does not exercise its layer.
COMPILE = ("corpus-batch", "solve-cold")
SERVE = ("serve-edit",)
PER_LAYER = {
    "frontend.parse_ms": ("ms", COMPILE, "corpus-batch latency_p50_ms"),
    "analysis.front_ms": ("ms", COMPILE, "corpus-batch latency_p50_ms"),
    "ranges.derive_ms": ("ms", COMPILE, "corpus-batch latency_p50_ms"),
    "depgraph.pairs": ("count", COMPILE, "ops_per_s"),
    "depgraph.edges": ("count", COMPILE, "vectorized_frac"),
    "depgraph.self_ms": ("ms", COMPILE, "ops_per_s"),
    "depgraph.pair_build_ms": ("ms", COMPILE, "ops_per_s"),
    "core.lookups": ("count", COMPILE, "solve-cold latency_p50_ms"),
    "core.cache_hit_ratio": ("ratio", COMPILE, "solve-cold ops_per_s"),
    "core.solves": ("count", COMPILE, "solve-cold ops_per_s"),
    "core.solve_ms": ("ms", COMPILE, "solve-cold latency_p50_ms"),
    "core.canon_ms": ("ms", COMPILE, "solve-cold latency_p50_ms"),
    "core.group_ms": ("ms", COMPILE, "solve-cold latency_p50_ms"),
    "core.verdict.independent": ("count", COMPILE, "decided_frac"),
    "core.verdict.dependent": ("count", COMPILE, "decided_frac"),
    "core.verdict.maybe": ("count", COMPILE, "decided_frac"),
    "deptests.enumerate_calls": ("count", COMPILE, "solve-cold latency_p90_ms"),
    "deptests.enumerate_ms": ("ms", COMPILE, "solve-cold latency_p90_ms"),
    "deptests.direction_calls": ("count", COMPILE, "solve-cold latency_p90_ms"),
    "vectorizer.vectorize_ms": ("ms", COMPILE, "corpus-batch latency_p50_ms"),
    "vectorizer.verify_ms": ("ms", COMPILE, "corpus-batch latency_p50_ms"),
    "vectorizer.emit_ms": ("ms", COMPILE, "corpus-batch latency_p50_ms"),
    "vectorizer.vectorized_statements": ("count", COMPILE, "vectorized_frac"),
    "server.didchange_rtt_ms": ("ms", SERVE, "serve-edit latency_p50_ms"),
    "server.lint_rtt_ms": ("ms", SERVE, "serve-edit latency_p50_ms"),
    "server.replayed_pairs": ("count", SERVE, "serve-edit latency_p50_ms"),
    "server.evaluated_pairs": ("count", SERVE, "serve-edit latency_p90_ms"),
    "server.replay_ratio": ("ratio", SERVE, "serve-edit latency_p50_ms"),
    "server.replayed_responses": ("count", SERVE, "serve-edit latency_p50_ms"),
    "server.shed": ("count", SERVE, "serve-edit ok_frac"),
    "server.degraded_responses": ("count", SERVE, "serve-edit undegraded_frac"),
    "trace.untraced_ops_per_s": ("1/s", COMPILE + SERVE, "ops_per_s"),
    "trace.traced_ops_per_s": ("1/s", COMPILE + SERVE, "ops_per_s"),
    "trace.overhead_frac": ("ratio", COMPILE + SERVE, "ops_per_s"),
}

#: Per-op time metrics (mean milliseconds per traced op) -> span names.
SPAN_TIMES = {
    "frontend.parse_ms": ("frontend.parse",),
    "analysis.front_ms": (
        "analysis.normalize",
        "analysis.induction",
        "analysis.linearize",
        "analysis.linearize_common",
    ),
    "ranges.derive_ms": ("ranges.derive",),
    "depgraph.pair_build_ms": ("depgraph.pair_build",),
    "core.solve_ms": ("core.solve",),
    "core.canon_ms": ("core.canon",),
    "core.group_ms": ("core.group",),
    "deptests.enumerate_ms": ("deptests.enumerate",),
    "vectorizer.vectorize_ms": ("vectorizer.vectorize",),
    "vectorizer.verify_ms": ("vectorizer.verify",),
    "vectorizer.emit_ms": ("vectorizer.emit",),
}

#: Count metrics over the base pass -> span names whose calls they count.
SPAN_CALLS = {
    "core.solves": "core.solve",
    "deptests.enumerate_calls": "deptests.enumerate",
    "deptests.direction_calls": "deptests.direction",
}

#: Health counters of the daemon over the base pass.
SERVER_COUNTERS = (
    "replayed_pairs",
    "evaluated_pairs",
    "replayed_responses",
    "shed",
    "degraded_responses",
)


@dataclass
class Segment:
    """The ops of one timed segment, and what its first pass carried."""

    results: list[OpResult] = field(default_factory=list)
    #: One reference-chunk sample after every op (see :mod:`hostspeed`).
    speed: SpeedTrack = field(default_factory=SpeedTrack)
    failed_checks: int = 0
    #: The first full pass: every count-valued metric is taken over it, so
    #: counts repeat exactly for a given seed whatever the run length.
    base: list[OpResult] = field(default_factory=list)
    base_counters: dict = field(default_factory=dict)
    base_spans: dict = field(default_factory=dict)
    base_checks: list[OpResult] = field(default_factory=list)

    def seconds(self, normalized: bool = True) -> list[float]:
        """Per-op timed seconds, rescaled to the reference host unless
        ``normalized`` is false."""
        if not normalized:
            return [r.seconds for r in self.results]
        return [
            r.seconds * self.speed.scale(i) for i, r in enumerate(self.results)
        ]

    def ops_per_s(self, normalized: bool = True) -> float:
        return len(self.results) / sum(self.seconds(normalized))


def run_segment(workload, seconds: float, tracer=None) -> Segment:
    """Run passes 0, 1, ... until the timed ops add up to ``seconds``.

    Pass 0, the base pass, always runs to its end.  Only the ops' timed
    regions count towards ``seconds``: input generation, correctness checks
    and host-speed samples run between them.
    """
    segment = Segment()
    busy = 0.0
    for p in itertools.count():
        workload.begin_pass(p)
        counters = workload.health_counters()
        for k in range(workload.pass_size):
            if tracer is not None:
                tracer.begin_op(len(segment.results))
            result = workload.op(k)
            segment.results.append(result)
            busy += result.seconds
            if tracer is not None:
                tracer.end_op()
            segment.speed.sample()
            if p > 0 and busy >= seconds:
                break
        if p == 0:
            segment.failed_checks += workload.checkpoint()
            segment.base = list(segment.results)
            segment.base_counters = {
                name: value - counters.get(name, 0)
                for name, value in workload.health_counters().items()
            }
            if tracer is not None:
                segment.base_spans = copy.deepcopy(tracer.totals)
            segment.base_checks = workload.base_checks()
            segment.failed_checks += sum(
                1 for r in segment.base_checks if not r.ok
            )
        if busy >= seconds:
            if p > 0:
                segment.failed_checks += workload.checkpoint()
            return segment


# -- metrics ------------------------------------------------------------------


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (exclusive method, as ``statistics``)."""
    return statistics.quantiles(values, n=100)[q - 1]


def verdict_totals(results: list[OpResult]) -> dict[str, int]:
    totals: dict[str, int] = {}
    for result in results:
        for verdict, count in result.verdicts.items():
            totals[verdict] = totals.get(verdict, 0) + count
    return totals


def decided_frac(results: list[OpResult]) -> float:
    """Pairs whose verdict is not maybe, unbuildable or degraded."""
    verdicts = verdict_totals(results)
    undecided = sum(
        verdicts.get(v, 0) for v in ("maybe", "unbuildable", "degraded")
    )
    total = sum(verdicts.values())
    return (total - undecided) / total


def vectorized_frac(results: list[OpResult]) -> float:
    return sum(r.vectorized for r in results) / sum(
        r.assignments for r in results
    )


def end_to_end(workload, segment: Segment, setup: list[float]) -> dict:
    latencies = [s * 1000.0 for s in segment.seconds()]
    attempted = len(segment.results)
    ok = sum(1 for r in segment.results if r.ok) - segment.failed_checks
    # Decision and vectorization counts come from the op results where the
    # op carries them, else from the pass-end checks (serve-edit's lint
    # answers carry neither).
    counted = segment.base_checks or segment.base
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (quantile(latencies, 90), "ms"),
        "ops_per_s": (segment.ops_per_s(), "1/s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MiB"),
        "ok_frac": (ok / attempted, "fraction"),
        "undegraded_frac": (
            sum(1 for r in segment.results if not r.degraded) / attempted,
            "fraction",
        ),
        "decided_frac": (decided_frac(counted), "fraction"),
        "vectorized_frac": (vectorized_frac(counted), "fraction"),
    }
    return metrics


def per_layer(name: str, untraced: Segment, traced: Segment, tracer) -> dict:
    values = {metric: 0.0 for metric in PER_LAYER}
    ops = len(traced.results)
    totals = tracer.totals
    for metric, spans in SPAN_TIMES.items():
        values[metric] = (
            sum(totals.get(s, {}).get("total_ms", 0.0) for s in spans) / ops
        )
    values["depgraph.self_ms"] = (
        totals.get("depgraph.analyze", {}).get("self_ms", 0.0) / ops
    )
    base = traced.base
    for metric, span in SPAN_CALLS.items():
        values[metric] = traced.base_spans.get(span, {}).get("calls", 0)
    if name in COMPILE:
        verdicts = verdict_totals(base)
        hits = sum(r.cache_hits for r in base)
        lookups = hits + sum(r.cache_misses for r in base)
        values["depgraph.pairs"] = sum(r.pairs for r in base)
        values["depgraph.edges"] = sum(r.edges for r in base)
        values["core.lookups"] = lookups
        values["core.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        for verdict in ("independent", "dependent", "maybe"):
            values[f"core.verdict.{verdict}"] = verdicts.get(verdict, 0)
        values["vectorizer.vectorized_statements"] = sum(
            r.vectorized for r in base
        )
    else:
        for call in ("didchange", "lint"):
            values[f"server.{call}_rtt_ms"] = statistics.median(
                r.calls[call] * 1000.0 for r in traced.results
            )
        counters = traced.base_counters
        for counter in SERVER_COUNTERS:
            values[f"server.{counter}"] = counters.get(counter, 0)
        touched = counters.get("replayed_pairs", 0) + counters.get(
            "evaluated_pairs", 0
        )
        values["server.replay_ratio"] = (
            counters.get("replayed_pairs", 0) / touched if touched else 0.0
        )
    values["trace.untraced_ops_per_s"] = untraced.ops_per_s()
    values["trace.traced_ops_per_s"] = traced.ops_per_s()
    values["trace.overhead_frac"] = (
        untraced.ops_per_s() / traced.ops_per_s() - 1
    )
    return {
        metric: (value, PER_LAYER[metric][0]) for metric, value in values.items()
    }


# -- entry point --------------------------------------------------------------


def measure(args) -> tuple[dict, Segment, list[Segment]]:
    workload = WORKLOADS[args.workload](args.seed)
    try:
        setup: list[float] = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                speed = SpeedTrack()
                for _ in range(SETUP_SPEED_SAMPLES):
                    speed.sample()
                started = time.perf_counter()
                workload.setup_once()
                elapsed = time.perf_counter() - started
                for _ in range(SETUP_SPEED_SAMPLES):
                    speed.sample()
                setup.append(elapsed * speed.overall())
        workload.prepare()
        gc.collect()
        if not args.trace:
            segment = run_segment(workload, args.seconds)
            return end_to_end(workload, segment, setup), segment, [segment]

        from spans import Tracer

        untraced = run_segment(workload, args.seconds * UNTRACED_SHARE)
        # The traced segment starts from the same state: caches cleared, and
        # a fresh daemon whose worker has not solved the timed problems yet.
        workload.prepare()
        tracer = Tracer(keep_ops=KEEP_SPAN_OPS)
        # Spans wrap in-process calls; the daemon's layers are timed from
        # the client, one round trip per request.
        if args.workload in COMPILE:
            tracer.install()
        try:
            traced = run_segment(
                workload, args.seconds * (1 - UNTRACED_SHARE), tracer
            )
        finally:
            tracer.uninstall()
        tracer.dump(
            HERE / "out" / f"trace-{args.workload}-{args.seed}.jsonl"
        )
        metrics = per_layer(args.workload, untraced, traced, tracer)
        return metrics, traced, [untraced, traced]
    finally:
        workload.close()


def print_report(args, metrics: dict, segments: list[Segment]) -> None:
    base = segments[-1].base
    print(
        f"workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print(
        f"ops={sum(len(s.results) for s in segments)} "
        f"(latency samples={len(segments[-1].results)}, "
        f"base pass={len(base)} ops for counts and fractions)"
    )
    raw = [t * 1000.0 for t in segments[-1].seconds(normalized=False)]
    print(
        f"host speed scale={segments[-1].speed.overall():.4f} "
        f"(times below are reference-host ms; raw p50={statistics.median(raw):.4f} ms "
        f"raw p90={quantile(raw, 90):.4f} ms "
        f"raw ops_per_s={segments[-1].ops_per_s(normalized=False):.4f})"
    )
    for name, (value, unit) in metrics.items():
        where = ""
        if name in PER_LAYER:
            _unit, workloads, target = PER_LAYER[name]
            scope = "" if args.workload in workloads else " [not on this workload]"
            where = f"  -> {target}{scope}"
        print(f"  {name:<34} {value:>14.4f} {unit:<8}{where}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    metrics, segment, segments = measure(args)
    attempted = sum(len(s.results) for s in segments)
    failed = sum(
        sum(1 for r in s.results if not r.ok) + s.failed_checks
        for s in segments
    )
    print_report(args, metrics, segments)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
