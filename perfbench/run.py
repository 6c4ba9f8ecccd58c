"""The repository's benchmark: fixed paper work, timed end to end and by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search-cruise --seed 1 \
        --seconds 25 --trace 0

With ``--trace 0`` the command runs untraced passes of the workload, one
fresh process each, until ``--seconds`` have passed (at least one), and
reports the end-to-end metrics of ``BENCHMARK.json`` as medians over the
passes.  With ``--trace 1`` it alternates an untraced and a traced pass and
reports the per-layer metrics of the traced passes, plus the tracing
overhead.  Every pass checks its outputs; the passes of one seed must
agree exactly on every deterministic figure and count.

The human-readable report goes to standard output first; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per untraced pass; ``setup_s`` is their median.
SETUPS = 15

#: Hard stop for the whole command, inside the 180 s a run may take.
DEADLINE_S = 170.0


def _start_pass(workload: str, seed: int, traced: bool, timeout: float):
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--setups", "1" if traced else str(SETUPS),
    ]
    if traced:
        command.append("--traced")
    # One process, one thread: the benchmark measures the program, not a
    # BLAS thread pool competing for the same cores.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"pass timed out after {timeout:.0f} s"
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-5:]
        return None, f"pass exited {done.returncode}: " + " | ".join(tail)
    return json.loads(done.stdout.strip().splitlines()[-1]), None


def _end_to_end(passes: list[dict]) -> dict[str, float]:
    rates = [p["work"] / p["wall_s"] for p in passes]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "work_per_s": statistics.median(rates),
    }


def _report_lines(workload: str, passes: list[dict], failed: int,
                  attempted: int) -> list[tuple[str, float, str]]:
    """Figures printed by name but not gated: error rate, rate, quality."""
    first = passes[0]["deterministic"]["quality"] if passes else {}
    rate = (
        statistics.median(p["work"] / p["wall_s"] for p in passes)
        if passes else 0.0
    )
    lines = [("error_rate", failed / attempted, "fraction")]
    if workload.startswith("search"):
        lines.append(("candidates_per_s", rate, "1/s"))
        lines.append(("makespan_ms", first.get("makespan_ms", 0.0), "ms"))
        lines.append(
            ("ft_overhead_pct", first.get("ft_overhead_pct", 0.0), "%")
        )
    else:
        lines.append(("scenarios_per_s", rate, "1/s"))
        lines.append(("residual_bound", first.get("residual_bound", 0.0),
                      "probability"))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {names}"
        )

    started = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    problems: list[str] = []
    while True:
        kinds = (False, True) if args.trace else (False,)
        for kind in kinds:
            remaining = DEADLINE_S - (time.monotonic() - started)
            result, problem = _start_pass(
                args.workload, args.seed, kind, max(remaining, 1.0)
            )
            if problem is not None:
                problems.append(problem)
            else:
                (traced if kind else untraced).append(result)
        if problems or time.monotonic() - started >= args.seconds:
            break

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes) + len(problems)
    problems += [f for p in passes for f in p["failures"]]
    # Determinism guard: one seed, one answer.  A count that moves means
    # the passes did different work, which is a failure, not noise.
    reference = passes[0]["deterministic"] if passes else None
    for index, other in enumerate(passes[1:], start=1):
        if other["deterministic"] != reference:
            attempted += 1
            problems.append(
                f"pass {index} disagrees with pass 0 on a deterministic "
                "figure or count"
            )
    attempted = max(attempted, 1)
    failed = len(problems)

    if args.trace:
        section = spec["per_layer"]
        metrics = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        } if traced else {}
        if traced and untraced:
            base = statistics.median(p["wall_s"] for p in untraced)
            with_spans = statistics.median(p["wall_s"] for p in traced)
            metrics["bench.trace_overhead_pct"] = (
                100.0 * (with_spans - base) / base
            )
    else:
        section = spec["end_to_end"]
        metrics = _end_to_end(untraced) if untraced else {}
    units = {m["name"]: m["unit"] for m in section}
    if passes and set(metrics) != set(units):
        problems.append(
            "metric names differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
        failed = len(problems)

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} "
          f"untraced and {len(traced)} traced passes")
    for label, group in (("untraced", untraced), ("traced", traced)):
        if group:
            walls = ", ".join(f"{p['wall_s']:.3f}" for p in group)
            print(f"  {label} pass wall_s: {walls}")
    for name in sorted(metrics):
        print(f"  {name:42s} {metrics[name]:16.6g} {units.get(name, '?')}")
    for name, value, unit in _report_lines(
        args.workload, untraced, failed, attempted
    ):
        print(f"  {name:42s} {value:16.6g} {unit}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in metrics.items()
        },
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
