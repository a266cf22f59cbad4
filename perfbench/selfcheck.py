"""Count determinism self-check for the repository benchmark.

Every count the benchmark reports is taken over a run's first full pass, so
for one seed it must repeat exactly: across two runs, and across
``PYTHONHASHSEED`` values (set and dict iteration order must not leak into
pair order, cache keys or verdicts).  This check makes traced and untraced
runs of each workload under ``PYTHONHASHSEED`` 0, 1 and 2 (hash seed 0
twice) and compares every count-valued metric and every exact fraction.

Usage::

    python3 perfbench/selfcheck.py                    # all workloads
    python3 perfbench/selfcheck.py --workloads solve-cold --seed 3

Exits 1 and names the metric when any count differs.
"""

from __future__ import annotations

import argparse
import sys

from steady import EXACT, SPEC, run_once

#: Per-layer metrics that are exact counts (or ratios of exact counts).
COUNTS = (
    "depgraph.pairs",
    "depgraph.edges",
    "core.lookups",
    "core.cache_hit_ratio",
    "core.solves",
    "core.verdict.independent",
    "core.verdict.dependent",
    "core.verdict.maybe",
    "deptests.enumerate_calls",
    "deptests.direction_calls",
    "vectorizer.vectorized_statements",
    "server.replayed_pairs",
    "server.evaluated_pairs",
    "server.replay_ratio",
    "server.replayed_responses",
    "server.shed",
    "server.degraded_responses",
)
HASH_SEEDS = ("0", "0", "1", "2")


def check(workload: str, seed: int, seconds: float) -> int:
    readings: dict[str, list] = {}
    for hash_seed in HASH_SEEDS:
        env = {"PYTHONHASHSEED": hash_seed}
        traced = run_once(workload, seed, seconds, 1, env)["metrics"]
        plain = run_once(workload, seed, seconds, 0, env)["metrics"]
        for name in COUNTS:
            readings.setdefault(name, []).append(traced[name]["value"])
        for name in EXACT:
            readings.setdefault(name, []).append(plain[name]["value"])
    mismatches = 0
    for name, values in readings.items():
        same = all(v == values[0] for v in values)
        mismatches += not same
        status = "exact" if same else "DIFFERS"
        print(f"  {workload:<13} {name:<34} {status:<8} {values}")
    return mismatches


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=5, help="per run; one pass minimum"
    )
    args = parser.parse_args(argv)
    print(f"hash seeds {', '.join(HASH_SEEDS)}; workload seed {args.seed}")
    mismatches = sum(
        check(workload, args.seed, args.seconds) for workload in args.workloads
    )
    print("counts exact" if not mismatches else f"{mismatches} count(s) differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
