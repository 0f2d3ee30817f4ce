"""The four benchmark workloads: inputs, set-up and the timed operation.

Every workload is a closed loop with one client: each call into the
program starts after the previous one returns. Inputs come from the
workload seed alone. ``setup`` and ``operation`` run inside a worker
process that imports ``fairaudit`` from the checkout; the rest of this
module is numpy-only, so the parent process can rebuild the same inputs
for its oracles without importing the program.

Why each workload exists (the layer it exercises, and the one it
bypasses, so that a change to one layer shows on one workload and
predicts no change on another):

experiment-15k
    ``fairaudit experiment --n 15000 --seed S`` (noise ``auto``): two
    synthetic datasets x five mitigation approaches. The headline user
    job; most of its time is ``modeling.train`` (gradient descent) and the
    threshold scans. It bypasses CSV ingest, pairwise individual metrics
    and abduction.
audit-15k
    Set-up writes a 15k-row synthetic CSV (``fairaudit synth``) and trains
    a DP-post-processed model (``fairaudit train --strategy dp``). The timed
    call is ``fairaudit audit --metrics all --model M --condition-on X1``:
    the read side of ``modeling`` (load, predict, apply policy), CSV ingest,
    all 18 metrics and emission. Most of it is ``individual_metrics``
    (the O(n^2) kNN consistency). Training sits in set-up. It conditions
    on X1 because X3 = 1[A + U3 >= 1] is 1 for every A=1 row, so stratum
    X3=0 has no A=1 group and that audit rightly exits 2.
cf-gaps-2k
    ``causal.sample`` of the bundled "high" model (2000 units), then the
    cff, pcff (X3 held), dcff and ecff gaps for A: 0 -> 1 with
    ``mc_budget=10000``. Batch abduction and propagation and their
    memory. The decision rule belongs to the benchmark and reads only
    X1, X2 and X3, so every gap has a closed form. Modeling and the
    individual metrics are bypassed.
cf-units-1k
    1000 in-process ``fairaudit counterfactual`` queries against an SCM
    JSON written in set-up, units simulated by the benchmark, do(A
    flipped), every other query with ``--hold X3``, ``--budget 10000``.
    The same ``causal`` layer as many small calls: CLI dispatch,
    ``load_scm`` and Monte Carlo over Y's truncated-normal posterior.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EXPERIMENT = "experiment-15k"
AUDIT = "audit-15k"
CF_GAPS = "cf-gaps-2k"
CF_UNITS = "cf-units-1k"

# Sizes of the measured runs, and of the self-check's toy runs.
FULL_SIZES = {
    EXPERIMENT: {"n": 15000},
    AUDIT: {"n": 15000},
    CF_GAPS: {"n": 2000, "budget": 10000},
    CF_UNITS: {"queries": 1000, "budget": 10000},
}
TOY_SIZES = {
    EXPERIMENT: {"n": 2000},
    AUDIT: {"n": 1000},
    CF_GAPS: {"n": 200, "budget": 500},
    CF_UNITS: {"queries": 20, "budget": 4000},
}

# The bundled "high" synthetic model, as the benchmark states it. cf-units
# writes it as the query SCM and simulates units from it; the oracles use
# the same constants in closed form.
SIGMA = 0.5
Y_COEFFS = {"X1": 1.0, "X2": 2.0, "X3": 0.5, "A": 4.0}
Y_CUTOFF = 2.625
SCM_HIGH = {
    "nodes": [
        {"name": "A", "parents": [], "role": "sensitive",
         "assignment": {"kind": "exogenous", "intercept": 0.0, "coeffs": {}},
         "noise": {"kind": "bernoulli", "p": 0.5}},
        {"name": "X1", "parents": ["A"], "role": None,
         "assignment": {"kind": "linear", "intercept": 0.0, "coeffs": {"A": 0.5}},
         "noise": {"kind": "gaussian", "mean": 0.0, "std": SIGMA}},
        {"name": "X2", "parents": [], "role": None,
         "assignment": {"kind": "exogenous", "intercept": 0.0, "coeffs": {}},
         "noise": {"kind": "gaussian", "mean": 0.0, "std": SIGMA}},
        {"name": "X3", "parents": ["A"], "role": None,
         "assignment": {"kind": "threshold", "intercept": 0.0, "coeffs": {"A": 1.0},
                        "cutoff": 1.0, "strict": False},
         "noise": {"kind": "bernoulli", "p": 0.5}},
        {"name": "Y", "parents": ["X1", "X2", "X3", "A"], "role": "target",
         "assignment": {"kind": "threshold", "intercept": 0.0, "coeffs": Y_COEFFS,
                        "cutoff": Y_CUTOFF, "strict": True},
         "noise": {"kind": "gaussian", "mean": 0.0, "std": SIGMA}},
    ]
}
NODES = ("A", "X1", "X2", "X3", "Y")

AUDIT_SCHEMA = "sensitive = A\ntarget = Y\ncategorical = X3\n"


def rule_value(x1, x2, x3):
    """The benchmark's decision rule; it never reads Y."""
    return (x1 + 0.5 * x2 + x3) > 1.0


class Decision:
    """``rule_value`` as a causal decision function, counting what it sees."""

    def __init__(self):
        self.calls = 0
        self.cells = 0

    def __call__(self, values):
        out = rule_value(values["X1"], values["X2"], values["X3"])
        self.calls += 1
        self.cells += int(np.size(out))
        return out


def make_units(seed, count):
    """Observed units of ``SCM_HIGH`` and their queries, from the seed alone.

    Returns a list of ``(observed, do, hold_x3, query_seed)``: every unit
    gets A flipped, every other one holds X3 at its factual value.
    """
    rng = np.random.default_rng([seed, 1])
    a = rng.binomial(1, 0.5, count).astype(float)
    x1 = 0.5 * a + rng.normal(0.0, SIGMA, count)
    x2 = rng.normal(0.0, SIGMA, count)
    x3 = ((a + rng.binomial(1, 0.5, count)) >= 1.0).astype(float)
    inner = x1 + 2.0 * x2 + 0.5 * x3 + 4.0 * a + rng.normal(0.0, SIGMA, count)
    y = (inner > Y_CUTOFF).astype(float)
    units = []
    for i in range(count):
        observed = {"A": a[i], "X1": x1[i], "X2": x2[i], "X3": x3[i], "Y": y[i]}
        units.append(({k: float(v) for k, v in observed.items()},
                      {"A": 1.0 - a[i]}, i % 2 == 1, seed * 100003 + i))
    return units


def _kv(d):
    return ",".join(f"{k}={float(v)!r}" for k, v in d.items())


@dataclass
class Op:
    """One timed operation: wall and CPU time, call latencies, outputs.

    A call is the whole operation, except on cf-units where it is one query.
    """

    wall_s: float
    cpu_s: float
    units_ms: list
    outputs: dict


def _timed(fn):
    c0, t0 = time.process_time(), time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0, time.process_time() - c0


def _quiet_main(argv):
    from fairaudit import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# --------------------------------------------------------------------------
# set-up and one operation per workload (run in the worker)
# --------------------------------------------------------------------------


def setup(name, seed, sizes, workdir):
    """Make the inputs of one worker. Returns the state ``operation`` reads."""
    workdir = Path(workdir)
    if name == EXPERIMENT:
        from fairaudit import cli  # noqa: F401  (import cost belongs to set-up)

        return {"root": workdir, "k": 0}
    if name == AUDIT:
        data, schema, model = (workdir / f for f in ("data.csv", "synth.schema", "model.json"))
        schema.write_text(AUDIT_SCHEMA, encoding="utf-8")
        for argv in (
            ["synth", "--target", "high", "--n", str(sizes["n"]), "--seed", str(seed),
             "--output", str(data)],
            ["train", "--data", str(data), "--schema", str(schema), "--strategy", "dp",
             "--seed", str(seed), "--model-out", str(model)],
        ):
            with contextlib.redirect_stderr(io.StringIO()):
                rc = _quiet_main(argv)
            if rc != 0:
                raise RuntimeError(f"set-up step {argv[0]} exited {rc}")
        return {"data": data, "schema": schema, "model": model, "k": 0}
    if name == CF_GAPS:
        from fairaudit import causal, synth_experiment

        scm = synth_experiment.bundled_scm("high")
        ds = causal.sample(scm, sizes["n"], seed)
        return {"scm": scm, "ds": ds, "rule": Decision()}
    if name == CF_UNITS:
        from fairaudit import cli  # noqa: F401

        scm_path = workdir / "scm.json"
        scm_path.write_text(json.dumps(SCM_HIGH, indent=2) + "\n", encoding="utf-8")
        argvs = []
        for i, (observed, do, hold, qseed) in enumerate(make_units(seed, sizes["queries"])):
            argv = ["counterfactual", "--scm", str(scm_path), "--unit", _kv(observed),
                    "--do", _kv(do), "--budget", str(sizes["budget"]),
                    "--seed", str(qseed), "--output", str(workdir / f"cf-{i}.json")]
            if hold:
                argv += ["--hold", "X3"]
            argvs.append(argv)
        return {"argvs": argvs}
    raise ValueError(f"unknown workload {name!r}")


def operation(name, seed, sizes, state):
    """Run one timed operation and collect the outputs the oracles check."""
    if name == EXPERIMENT:
        state["k"] += 1
        out = Path(state["root"]) / f"experiment-{state['k']}"
        rc, wall, cpu = _timed(lambda: _quiet_main(
            ["experiment", "--n", str(sizes["n"]), "--seed", str(seed), "--out", str(out)]))
        csv_text = (out / "experiment.csv").read_text(encoding="utf-8") if rc == 0 else ""
        return Op(wall, cpu, [wall * 1e3], {"rc": rc, "csv": csv_text})
    if name == AUDIT:
        state["k"] += 1
        out = state["data"].parent / f"audit-{state['k']}.json"
        argv = ["audit", "--data", str(state["data"]), "--schema", str(state["schema"]),
                "--model", str(state["model"]), "--metrics", "all", "--condition-on", "X1",
                "--output", str(out)]
        rc, wall, cpu = _timed(lambda: _quiet_main(argv))
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        return Op(wall, cpu, [wall * 1e3], {"rc": rc, "json": text})
    if name == CF_GAPS:
        from fairaudit import causal

        scm, ds, rule, b = state["scm"], state["ds"], state["rule"], sizes["budget"]

        def four_gaps():
            return {
                "cff": causal.cff_gap(scm, rule, ds, 0, 1, mc_budget=b, seed=seed),
                "pcff": causal.pcff_gap(scm, rule, ds, 0, 1, frozenset({"X3"}),
                                        mc_budget=b, seed=seed),
                "dcff": causal.dcff_gap(scm, rule, ds, 0, 1, mc_budget=b, seed=seed),
                "ecff": causal.ecff_gap(scm, rule, ds, 0, 1, mc_budget=b, seed=seed),
            }

        gaps, wall, cpu = _timed(four_gaps)
        return Op(wall, cpu, [wall * 1e3], {"gaps": {k: float(v) for k, v in gaps.items()}})
    if name == CF_UNITS:
        rcs, units = [], []
        c0, t0 = time.process_time(), time.perf_counter()
        for argv in state["argvs"]:
            s = time.perf_counter()
            rcs.append(_quiet_main(argv))
            units.append((time.perf_counter() - s) * 1e3)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        results = []
        for argv, rc in zip(state["argvs"], rcs):
            path = Path(argv[argv.index("--output") + 1])
            doc = json.loads(path.read_text(encoding="utf-8")) if rc == 0 else None
            path.unlink(missing_ok=True)
            results.append({"rc": rc, "doc": doc})
        return Op(wall, cpu, units, {"results": results})
    raise ValueError(f"unknown workload {name!r}")


def dataset_columns(ds):
    """The sampled cf-gaps units as plain lists, for the parent's oracle."""
    cols = {c.name: c.values.astype(float).tolist() for c in ds.features}
    cols[ds.sensitive.name] = ds.sensitive.values.astype(float).tolist()
    return cols
