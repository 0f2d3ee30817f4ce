"""Toy-size self-check of the benchmark. Runs in about half a minute.

    python3 fabench/selfcheck.py

1. Runs every workload at toy size, measured and traced, through the same
   worker processes and oracles as a real run, and requires that no call
   fails and that every metric is reported.
2. Feeds each oracle a deliberately wrong value and requires that the
   run counts it as a failed call.
3. Requires ``BENCHMARK.json`` to name exactly the workloads and metrics
   the code reports.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 7


def _audit_json(edit):
    def mutate(results):
        op = results[0]["ops"][0]["outputs"]
        doc = json.loads(op["json"])
        edit(doc["metrics"])
        op["json"] = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return mutate


def _set_field(metric, key, value):
    def edit(metrics):
        metrics[metric][key] = value
    return edit


def _bump(metric, delta):
    def edit(metrics):
        metrics[metric]["value"] += delta
    return edit


def _dp_rate(metrics):
    groups = metrics["demographic_parity"]["groups"]
    label = next(iter(groups))
    groups[label] += 0.01


def _set_output(key, value):
    def mutate(results):
        results[0]["ops"][0]["outputs"][key] = value
    return mutate


def _experiment_cell(results):
    out = results[0]["ops"][0]["outputs"]
    lines = out["csv"].splitlines()
    cells = lines[2].split(",")
    cells[2] = "100.5"
    lines[2] = ",".join(cells)
    out["csv"] = "\n".join(lines) + "\n"


def _experiment_repeat(results):
    ops = results[0]["ops"]
    twin = copy.deepcopy(ops[0])
    # "3.7" becomes "03.7": the same number, so only the byte comparison fails
    out = twin["outputs"]
    out["csv"] = out["csv"].replace("synthetic#2,U(Y;A),", "synthetic#2,U(Y;A),0")
    ops.append(twin)


def _gap(label):
    def mutate(results):
        results[0]["ops"][0]["outputs"]["gaps"][label] += 1e-3
    return mutate


def _unit_mean(node, delta):
    def mutate(results):
        results[0]["ops"][0]["outputs"]["results"][3]["doc"]["means"][node] += delta
    return mutate


def _unit_exit(results):
    results[0]["ops"][0]["outputs"]["results"][5]["rc"] = 65


def _raised(results):
    results[0]["ops"][0] = {"error": "Traceback: deliberately injected"}


MUTATIONS = {
    wl.EXPERIMENT: {
        "exit code 65": _set_output("rc", 65),
        "cell outside [0, 100]": _experiment_cell,
        "repeat differs byte-wise": _experiment_repeat,
        "operation raised": _raised,
    },
    wl.AUDIT: {
        "exit code 2": _set_output("rc", 2),
        "NaN in the report": _audit_json(_set_field("auc_parity", "gap", float("nan"))),
        "metric missing": _audit_json(lambda m: m.pop("flip")),
        "metric skipped a cell": _audit_json(_set_field("sufficiency", "skipped", ["0"])),
        "DP rate off by 0.01": _audit_json(_dp_rate),
        "consistency off by 1e-6": _audit_json(_bump("consistency", 1e-6)),
        "similarity disparity off by 1e-6": _audit_json(
            _bump("similarity_weighted_disparity", 1e-6)),
        "operation raised": _raised,
    },
    wl.CF_GAPS: {
        **{f"{g} gap off by 1e-3": _gap(g) for g in ("cff", "pcff", "dcff", "ecff")},
        "operation raised": _raised,
    },
    wl.CF_UNITS: {
        "X1 mean off by 1e-6": _unit_mean("X1", 1e-6),
        "X3 mean off by 0.3": _unit_mean("X3", 0.3),
        "Y mean off by 0.3": _unit_mean("Y", 0.3),
        "query exit code 65": _unit_exit,
        "operation raised": _raised,
    },
}


def _check(ok, what, problems):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def check_workload(name, problems):
    sizes = wl.TOY_SIZES[name]
    for trace in (False, True):
        workdir = run.OUT / f"selfcheck-{name}-{os.getpid()}"
        try:
            results = run.run_workers(name, SEED, 0.2, trace, sizes, 1, workdir)
            attempted, failed, msgs, _ = run.evaluate(name, SEED, sizes, results, workdir)
            _check(failed == 0 and attempted > 0,
                   f"{name} toy run (trace={int(trace)}): {failed}/{attempted} failed {msgs[:1]}",
                   problems)
            if trace:
                got = list(results[0]["per_layer"])
                _check(got == [m for m, _ in tracer.PER_LAYER],
                       f"{name} traced run reports every per-layer metric", problems)
                if name == wl.CF_GAPS:
                    a0 = sum(1 for a in results[0]["inputs"]["A"] if a == 0.0)
                    cells = results[0]["per_layer"]["causal.decision_cells"]["value"]
                    _check(cells == a0 * sizes["budget"] * 2 * 4,
                           f"{name} decision_cells = A=0 units x budget x 2 x 4", problems)
                continue
            _check(list(run.end_to_end(results)) == [m for m, _ in run.END_TO_END],
                   f"{name} measured run reports every end-to-end metric", problems)
            for what, mutate in MUTATIONS[name].items():
                bad = copy.deepcopy(results)
                mutate(bad)
                _, failed, msgs, _ = run.evaluate(name, SEED, sizes, bad, workdir)
                _check(failed >= 1, f"{name} oracle catches: {what}", problems)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def check_benchmark_json(problems):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    _check([w["name"] for w in spec["workloads"]] == list(wl.FULL_SIZES),
           "BENCHMARK.json names the four workloads", problems)
    _check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches the run", problems)
    _check([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER),
           "BENCHMARK.json per_layer matches the tracer", problems)


def main():
    problems = []
    check_benchmark_json(problems)
    for name in wl.FULL_SIZES:
        check_workload(name, problems)
    print(f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
