"""Benchmark entry point.

    python3 hexbench/run.py --workload {eval_grid,ask,ask_long} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root. Imports hexar from ``src/`` of the same
checkout, measures for about ``--seconds`` seconds, checks every answer,
and prints a ``{"meta": ...}`` line followed, as the last line, by
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics. Scratch files and spans go to
``.bench_build/hexbench/``.

Answer times and throughput are process CPU time (``time.process_time``);
set-up time, spans and the wall-clock figures in the meta line use
``time.perf_counter``. Timing is process-local on whatever cores the process
gets: no pinning, no cache dropping, no cgroup changes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("eval_grid", "ask", "ask_long")
LIMITS = (
    "process-local timing only (time.process_time for answers and throughput, "
    "time.perf_counter for set-up, spans and wall figures); no CPU pinning, no "
    "cache dropping, no cgroup or frequency changes; other tenants of the "
    "machine may add noise"
)


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def declared_metrics(root: Path, traced: bool) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares for this mode, in order."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hexar" / "__init__.py").is_file():
        print(f"hexbench: no hexar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

    import numpy
    import hexar

    if not Path(hexar.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"hexbench: hexar imported from {hexar.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    from hexbench.workloads import run

    work = ROOT / ".bench_build" / "hexbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, work)

    declared = declared_metrics(ROOT, bool(args.trace))
    emitted = {name: unit for name, (_, unit) in result.metrics.items()}
    if emitted != declared:
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: declared {declared}, emitted {emitted}"
        )
    tally = result.tally
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "limits": LIMITS,
        "failed_ratio": tally.failed / tally.attempted,
        "failures": dict(tally.errors),
        "mismatches": tally.mismatches,
        "gate_failures": tally.gate_failures,
        **result.meta,
    }
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": result.metrics[name][0], "unit": unit}
                    for name, unit in declared.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
