"""Steadiness and layer-profile checks for the repository benchmark.

Steadiness mode runs every workload ``--runs`` times in each of two labelled
sets, A and B, interleaved run by run (A1 B1 B2 A2 A3 B3 ...) so host drift
lands on both sets alike; run ``i`` of both sets uses seed ``--first-seed +
i``.  For every end-to-end metric it prints each set's median and quartiles,
the spread (interquartile distance over the median) and how much worse B's
median is than A's, each against the metric's bound in ``BENCHMARK.json``.
Metrics that are exact counts for a seed (the fractions) must read the same
in both sets.

Profile mode (``--profile SEED [SEED ...]``) makes one traced run per
workload and seed and prints each layer's share of the traced time per op,
so a held-out seed can be checked to keep every workload's layer profile.

Usage::

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads solve-cold --runs 5
    python3 perfbench/steady.py --profile 1 2
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Fractions computed over a run's fixed base pass: equal for equal seeds.
EXACT = ("ok_frac", "undegraded_frac", "decided_frac", "vectorized_frac")
#: Time metrics of the traced run that partition an op's work by layer.
PROFILE_LAYERS = (
    "frontend.parse_ms",
    "analysis.front_ms",
    "ranges.derive_ms",
    "depgraph.self_ms",
    "depgraph.pair_build_ms",
    "core.canon_ms",
    "core.solve_ms",
    "vectorizer.vectorize_ms",
    "vectorizer.verify_ms",
    "vectorizer.emit_ms",
    "server.didchange_rtt_ms",
    "server.lint_rtt_ms",
)
#: Ratios printed under each profile: where the work goes, and what the
#: spans cost.
PROFILE_RATIOS = (
    "core.cache_hit_ratio",
    "server.replay_ratio",
    "trace.overhead_frac",
)


def run_once(
    workload: str, seed: int, seconds: float, trace: int, env: dict | None = None
) -> dict:
    """One benchmark run; returns its result line as a dict.  ``env`` adds
    to (or overrides) this process's environment."""
    argv = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    proc = subprocess.run(
        argv,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, **(env or {})},
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} failed ({proc.returncode}):\n"
            f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def steadiness(workloads: list[str], runs: int, first_seed: int, seconds: int) -> int:
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    problems = 0
    for workload in workloads:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for i in range(runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for label in order:
                result = run_once(workload, first_seed + i, seconds, 0)
                sets[label].append(result)
                values = {
                    k: round(v["value"], 4)
                    for k, v in result["metrics"].items()
                }
                print(f"  {workload} set {label} seed {first_seed + i}: {values}")
        print(f"\n{workload}: {runs} runs per set, seeds {first_seed}..{first_seed + runs - 1}")
        print(
            f"  {'metric':<18} {'set':<3} {'q1':>10} {'median':>10} {'q3':>10}"
            f" {'spread':>8} {'B worse':>8} {'bound':>6}"
        )
        for name, spec in metrics.items():
            bound = spec["bound"]
            medians = {}
            for label in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in sets[label]]
                q1, median, q3 = quartiles(values)
                medians[label] = median
                spread = (q3 - q1) / median
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag = "  SPREAD OVER BOUND"
                    problems += 1
                elif name != "setup_s" and spread > bound / 3:
                    flag = "  spread over bound/3"
                print(
                    f"  {name:<18} {label:<3} {q1:>10.4f} {median:>10.4f}"
                    f" {q3:>10.4f} {spread:>8.2%}{'':>9} {bound:>6.2f}{flag}"
                )
            change = (medians["B"] - medians["A"]) / medians["A"]
            worse = change if spec["better"] == "lower" else -change
            flag = "  B WORSE THAN BOUND" if worse > bound else ""
            problems += bool(flag)
            print(f"  {name:<18} B-A {'':>43}{worse:>8.2%} {bound:>6.2f}{flag}")
            if name in EXACT:
                a = [r["metrics"][name]["value"] for r in sets["A"]]
                b = [r["metrics"][name]["value"] for r in sets["B"]]
                if a != b:
                    print(f"  {name:<18} NOT EXACT across sets: {a} vs {b}")
                    problems += 1
        print()
    print("steady" if not problems else f"{problems} problem(s)")
    return 1 if problems else 0


def profile(workloads: list[str], seeds: list[int], seconds: int) -> int:
    for workload in workloads:
        shares: dict[int, dict[str, float]] = {}
        ratios: dict[int, dict[str, float]] = {}
        for seed in seeds:
            result = run_once(workload, seed, seconds, 1)["metrics"]
            ratios[seed] = {
                name: result[name]["value"] for name in PROFILE_RATIOS
            }
            times = {
                layer: result[layer]["value"]
                for layer in PROFILE_LAYERS
                if result[layer]["value"] > 0
            }
            total = sum(times.values())
            shares[seed] = {layer: t / total for layer, t in times.items()}
        layers = sorted(
            {layer for s in shares.values() for layer in s},
            key=lambda layer: -shares[seeds[0]].get(layer, 0.0),
        )
        print(f"\n{workload}: share of traced per-op time by layer")
        print("  " + f"{'layer':<26}" + "".join(f"{'seed ' + str(s):>10}" for s in seeds))
        for layer in layers:
            row = "".join(f"{shares[s].get(layer, 0.0):>10.1%}" for s in seeds)
            print(f"  {layer:<26}{row}")
        for name in PROFILE_RATIOS:
            row = "".join(f"{ratios[s][name]:>10.3f}" for s in seeds)
            print(f"  {name:<26}{row}")
    return 0


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--profile", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args(argv)
    if args.profile:
        return profile(args.workloads, args.profile, args.seconds)
    return steadiness(args.workloads, args.runs, args.first_seed, args.seconds)


if __name__ == "__main__":
    raise SystemExit(main())
