"""One pass of one workload in a fresh process; prints one JSON line.

``run.py`` starts one of these per pass, so module-level caches of the
program (the injection context and derived-space LRUs) never carry over
from one pass to the next.  Usage::

    python3 perfbench/worker.py --workload NAME --seed N --setups R [--traced]

The pass sets up ``R`` times (the median is ``setup_s``), resets the
program's metrics registry, runs the workload's fixed work once (``wall_s``),
reads the peak RSS, and then runs the correctness checks.  With
``--traced`` every layer call is wrapped in a span (:mod:`spans`) and the
line also carries the per-layer metrics (:mod:`layers`).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import obs  # noqa: E402

import layers  # noqa: E402
from spans import Patched, SpanLog  # noqa: E402
from workloads import WORKLOADS, deterministic_counts  # noqa: E402


def run_pass(name: str, seed: int, setups: int, traced: bool,
             size: str = "full") -> dict:
    """Set up, time the fixed work, check it; the pass's JSON payload."""
    workload = WORKLOADS[name]
    log = SpanLog()
    patched = Patched(log) if traced else contextlib.nullcontext()

    def span(label: str):
        return log.span(label) if traced else contextlib.nullcontext()

    with patched:
        setup_s = []
        for _ in range(setups):
            started = time.perf_counter()
            with span("setup"):
                inputs = workload.setup(seed, size)
            setup_s.append(time.perf_counter() - started)
        obs.reset_metrics()
        gc.collect()
        started = time.perf_counter()
        with span("bench"):
            outcome = workload.run(inputs)
        wall_s = time.perf_counter() - started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        snapshot = obs.get_registry().snapshot()
        with span("check"):
            workload.check(inputs, outcome)

    payload = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "work": outcome.work,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        # Everything below must repeat exactly for one seed.
        "deterministic": {
            "quality": outcome.quality,
            "counts": outcome.counts,
            "registry": deterministic_counts(snapshot),
        },
    }
    if traced:
        sweeps = outcome.counts.get("sweeps", [])
        draws = sum(sweep["draws"] for sweep in sweeps)
        payload["layers"] = layers.layer_metrics(
            log,
            work=patched.counts,
            registry={**snapshot["counters"], **snapshot["gauges"]},
            quality=outcome.quality,
            setup_phases=getattr(inputs, "phases", {}),
            useful_ratio=(
                sum(sweep["scenarios"] for sweep in sweeps) / draws
                if draws else 0.0
            ),
        )
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    payload = run_pass(args.workload, args.seed, args.setups, args.traced)
    print(json.dumps(payload, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
