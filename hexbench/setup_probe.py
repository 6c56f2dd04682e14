"""Set-up time of hexar, measured inside a fresh interpreter.

Usage: ``python3 hexbench/setup_probe.py <pizza-trace.jsonl>`` with ``src``
and the repository root on ``PYTHONPATH``. Times importing hexar, building
the default registry and the reasoner, reading the trace and the first
answer of each method (the pizza explainer trains its tree on first use),
and prints ``{"setup_s": ...}``.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import hexar  # noqa: E402
from hexar import LatencyModelReasoner, RuleReasoner, read_trace  # noqa: E402
from hexar.evaluation import METHODS  # noqa: E402
from hexar.explainers import build_default_registry  # noqa: E402

from hexbench.inputs import answer, make_query  # noqa: E402


def main(path: str) -> None:
    registry = build_default_registry()
    reasoner = LatencyModelReasoner(RuleReasoner())
    trace = read_trace(path)
    query = make_query(trace, 1)
    for method in METHODS:
        answer(method, query, trace, registry, reasoner)
    elapsed = time.perf_counter() - START
    print(json.dumps({"setup_s": elapsed, "hexar": hexar.__file__}))


if __name__ == "__main__":
    main(sys.argv[1])
