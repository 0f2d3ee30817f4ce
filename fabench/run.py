"""fabench: the fairaudit benchmark.

Usage, from the root of a checkout::

    python3 fabench/run.py --workload NAME --seed N --seconds S --trace 0|1

A measured run (``--trace 0``) starts ``WORKERS`` fresh worker processes
one after another. Each sets the workload up and runs its timed
operation back to back for its share of ``--seconds`` (at least once).
The run prints the end-to-end metrics, medians over set-ups, operations
or calls, then checks every operation's outputs against the benchmark's
own oracles (``oracles.py``) outside the timed region. A traced run
(``--trace 1``) starts one worker that traces set-up and one operation
from outside the program (``tracer.py``) and prints the per-layer
metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed /
attempted`` is the error rate. The lines before it name every metric
with its unit and sample count and give the run's provenance. The full
record, and a traced run's spans, are kept under ``fabench_out/``.

Workloads, and why each was chosen, are described in ``workloads.py``.
``selfcheck.py`` runs every workload at toy size and shows that each
oracle counts a wrong value as a failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402

WORKERS = 3  # set-ups per measured run; setup_s is their median
DEADLINE_S = 150.0  # every worker of one run ends within this; checks follow
OUT = ROOT / "fabench_out"
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("unit_p50_ms", "ms"),
    ("unit_p99_ms", "ms"),
)


class WorkerError(RuntimeError):
    """A worker process failed before it could report."""


def run_workers(name, seed, seconds, trace, sizes, workers, workdir):
    """Start the workers one after another and return their results."""
    results = []
    deadline = time.monotonic() + DEADLINE_S
    for w in range(1 if trace else workers):
        wdir = workdir / f"w{w}"
        wdir.mkdir(parents=True)
        plan = {
            "workload": name, "seed": seed, "sizes": sizes, "trace": trace,
            "budget_s": seconds / workers, "workdir": str(wdir),
            "result_path": str(wdir / "result.json"),
            "trace_path": str(OUT / f"trace-{name}-seed{seed}.json"),
            "spawn_t": time.monotonic(),
        }
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(plan)],
                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"worker {w} passed the {DEADLINE_S:.0f} s deadline") from exc
        if proc.returncode != 0 or not Path(plan["result_path"]).exists():
            raise WorkerError(f"worker {w} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        results.append(json.loads(Path(plan["result_path"]).read_text(encoding="utf-8")))
    return results


def _sha256(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _calls_per_op(name, sizes):
    """Checked calls in one operation: the unit of ``attempted`` and ``failed``."""
    if name == workloads.CF_UNITS:
        return sizes["queries"]
    return 4 if name == workloads.CF_GAPS else 1


def evaluate(name, seed, sizes, results, workdir):
    """Check every call; returns (attempted, failed, failure messages, digests).

    An operation that raised counts all its calls as failed.
    """
    ops = [op for r in results for op in r["ops"]]
    ok = [op for op in ops if "error" not in op]
    errored = [f"operation raised:\n{op['error']}" for op in ops if "error" in op]
    lost = _calls_per_op(name, sizes) * len(errored)
    digests = {}
    if name == workloads.EXPERIMENT:
        n, fails = oracles.check_experiment(ok)
        if ok:
            digests["experiment_csv_sha256"] = _sha256(ok[0]["outputs"]["csv"])
    elif name == workloads.AUDIT:
        inputs = [(workdir / f"w{w}" / "data.csv").read_bytes()
                  + (workdir / f"w{w}" / "model.json").read_bytes()
                  for w in range(len(results))]
        fails = [] if len(set(inputs)) == 1 else ["set-ups wrote different CSV or model bytes"]
        audit_in = oracles.AuditInputs(
            (workdir / "w0" / "data.csv").read_text(encoding="utf-8"),
            (workdir / "w0" / "model.json").read_text(encoding="utf-8"),
        )
        n, more = oracles.check_audit(ok, oracles.audit_expected(audit_in))
        fails += more
        if ok:
            digests["audit_json_sha256"] = _sha256(ok[0]["outputs"]["json"])
        digests["audit_model_sha256"] = _sha256((workdir / "w0" / "model.json").read_bytes())
    elif name == workloads.CF_GAPS:
        n, fails = oracles.check_gaps(ok, oracles.gaps_expected(results[0]["inputs"]))
    else:
        n, fails = oracles.check_units(ok, seed, sizes["queries"])
    return n + lost, len(fails) + lost, errored + fails, digests


def end_to_end(results):
    """The end-to-end metrics of a measured run, with their sample counts."""
    ops = [op for r in results for op in r["ops"] if "error" not in op]
    units = [u for op in ops for u in op["units_ms"]]
    values = {
        "setup_s": (float(np.median([r["setup_s"] for r in results])), len(results)),
        "wall_s": (float(np.median([op["wall_s"] for op in ops])), len(ops)),
        "cpu_s": (float(np.median([op["cpu_s"] for op in ops])), len(ops)),
        "peak_rss_mb": (float(np.median([r["peak_rss_mb"] for r in results])), len(results)),
        "unit_p50_ms": (float(np.percentile(units, 50)), len(units)),
        "unit_p99_ms": (float(np.percentile(units, 99)), len(units)),
    }
    return {k: {"value": values[k][0], "unit": unit, "samples": values[k][1]}
            for k, unit in END_TO_END}


def provenance(name, seed, trace):
    git_sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        git_sha = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fairaudit").rglob("*")):
        if path.suffix in (".py", ".json"):
            src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": name, "seed": seed, "trace": trace,
        "git_sha": git_sha, "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(name, seed, seconds, trace):
    """One full run: workers, oracles, metrics. Returns the run's record."""
    sizes = workloads.FULL_SIZES[name]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-seed{seed}-{os.getpid()}"
    try:
        results = run_workers(name, seed, seconds, trace, sizes, WORKERS, workdir)
        attempted, failed, failures, digests = evaluate(name, seed, sizes, results, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not any("error" not in op for r in results for op in r["ops"]):
        raise WorkerError("every operation raised:\n" + failures[0])
    metrics = results[0]["per_layer"] if trace else end_to_end(results)
    prov = provenance(name, seed, trace)
    prov.update(digests)
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics, "failures": failures, "provenance": prov,
        "results": results,
    }


def _print_report(name, record):
    """The metrics with units and sample counts, errors and provenance."""
    ops = sum(len(r["ops"]) for r in record["results"])
    print(f"fabench {name}: {len(record['results'])} worker process(es), {ops} operation(s)")
    for metric, m in record["metrics"].items():
        note = f"  ({m['samples']} samples)" if "samples" in m else ""
        print(f"  {metric:<58} {m['value']:.6g} {m['unit']}{note}")
    print(f"  error_rate {record['failed']}/{record['attempted']} calls failed")
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description="fairaudit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FULL_SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fairaudit" / "cli.py").is_file():
        print(f"fabench: no fairaudit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"fabench: {exc}", file=sys.stderr)
        return 1
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    _print_report(args.workload, record)
    metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
