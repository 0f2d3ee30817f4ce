"""One benchmark worker: a fresh process that sets up one workload and runs it.

``run.py`` starts it as ``python3 worker.py PLAN`` (PLAN is JSON) from the
root of a checkout and waits for it. The worker imports ``fairaudit`` from
the checkout's ``src``, makes its inputs, then either

- runs timed operations back to back until its share of the run's
  seconds is spent (at least one), or
- in a traced run, traces set-up, runs one warm-up operation, one
  untraced and one traced, and reports the per-layer metrics and the
  tracing overhead (traced minus untraced wall time).

It writes its measurements and the operations' outputs to the plan's
``result_path``; the parent checks them.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run_op(plan, state):
    try:
        return asdict(workloads.operation(plan["workload"], plan["seed"], plan["sizes"], state))
    except Exception:  # one failed operation is counted, the run goes on
        return {"error": traceback.format_exc()}


def main():
    plan = json.loads(sys.argv[1])
    name, seed, sizes = plan["workload"], plan["seed"], plan["sizes"]
    tracer = None
    if plan["trace"]:
        import fairaudit.cli  # noqa: F401  (loads every layer module)

        tracer = Tracer()
        tracer.install()
    state = workloads.setup(name, seed, sizes, plan["workdir"])
    result = {"setup_s": time.monotonic() - plan["spawn_t"], "ops": []}
    if name == workloads.CF_GAPS:
        result["inputs"] = workloads.dataset_columns(state["ds"])
    if tracer is None:
        t0 = time.perf_counter()
        while True:
            result["ops"].append(_run_op(plan, state))
            elapsed = time.perf_counter() - t0
            if elapsed * (1 + 1 / len(result["ops"])) > plan["budget_s"]:
                break
    else:
        tracer.uninstall()
        warm = _run_op(plan, state)  # lazy imports and caches settle first
        untraced = _run_op(plan, state)
        if "rule" in state:
            state["rule"] = workloads.Decision()  # count the traced operation only
        tracer.install()
        traced = _run_op(plan, state)
        tracer.uninstall()
        result["ops"] = [warm, untraced, traced]
        overhead = traced.get("wall_s", 0.0) - untraced.get("wall_s", 0.0)
        result["per_layer"] = tracer.per_layer(state.get("rule"), overhead)
        tracer.write(plan["trace_path"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(plan["result_path"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
