#!/usr/bin/env python3
"""Run one benchmark workload once and print its result.

Usage (from the repository root)::

    python3 bench/run.py --workload short-pool --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off; with ``--trace 1`` it reports the per-layer metrics of a
traced run.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A summary,
the provenance stamp and the layer table go to standard error, and the
whole record is appended to ``.bench_out/history.jsonl``.

Exits 2 without a result when the program's sources (``src/repro``) are
missing, and 1 when a workload raises.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch inputs (the stream FASTA) live here during a run.
TMP = ROOT / ".bench_tmp"
HISTORY = ROOT / ".bench_out" / "history.jsonl"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 5

WORKLOAD_NAMES = ("short-pool", "long-score", "serve-mixed", "stream-scan")


def _load_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        config = json.load(handle)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in config["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in config["per_layer"]},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    # Import the benchmark package from the root, never as loose modules.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(SRC))
    from bench import report
    from bench.spans import SPAN_NAMES, Tracer
    from bench.workloads import WORKLOADS

    units = _load_units()["per_layer" if args.trace else "end_to_end"]
    TMP.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP))
    workload = WORKLOADS[args.workload](args.seconds, workdir,
                                        trace_mode=bool(args.trace))
    try:
        if args.trace:
            workload.setup(args.seed)
            tracer = Tracer(SPAN_NAMES)
            try:
                outcome = workload.trace(tracer)
            finally:
                tracer.close()
        else:
            setups = [workload.setup(args.seed) for _ in range(SETUP_REPS)]
            outcome = workload.measure()
            outcome.metrics["setup_s"] = report.median([n for _, n in setups])
            outcome.raw["setup_s"] = report.median([r for r, _ in setups])
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    missing = set(units) - set(outcome.metrics)
    if missing:
        raise RuntimeError(f"workload did not report {sorted(missing)}")
    metrics = {
        name: {"value": outcome.metrics[name], "unit": unit}
        for name, unit in units.items()
    }
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    provenance = report.stamp(ROOT, args.workload, args.seed, args.seconds,
                              bool(args.trace))
    report.print_summary(provenance, metrics, outcome.raw, outcome.frames)
    report.append_history(HISTORY, {
        "stamp": provenance,
        "result": result,
        "raw": outcome.raw,
        "layers": [
            {"frame": f.name, "seconds": f.seconds,
             "rows": dict(f.rows), "other": f.other}
            for f in outcome.frames
        ],
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
