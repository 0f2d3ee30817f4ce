"""Outside-in tracing of the fairaudit layers, from the benchmark process.

The program is not edited. ``Tracer.install`` wraps the public functions
of each layer module (and the ``ExperimentReport`` report methods) and
rebinds every name that refers to them in every ``fairaudit`` module
namespace, because modules import each other's functions by name
(``from .modeling import train``). In ``cli`` only ``main`` is wrapped,
so its self time is argument parsing, dispatch and report emission.

Each call becomes a span (name, parent span, start, end) kept in memory;
a span's self time is its duration minus its children's. A few spans
also record their ``tracemalloc`` peak. Counters come only from public
return values and inputs, never from program internals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = (
    "cli", "data", "modeling", "group_metrics", "incompatibility",
    "individual_metrics", "info_theory", "causal", "synth_experiment",
)
ONLY = {"cli": ("main",)}
METHODS = {"synth_experiment": ("ExperimentReport", ("to_json_dict", "to_csv"))}
PEAK_SPANS = frozenset(
    {"individual_metrics.consistency", "causal.pcff_gap", "causal.ecff_gap"}
)

S, COUNT, COMPUTED, MB, SHARE = "s", "count", "count_computed", "MB", "share"

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    ("cli.main.self_s", S),
    ("data.load_csv.self_s", S),
    ("data.load_csv.rows", COUNT),
    ("data.quantile_bin.self_s", S),
    ("data.split.self_s", S),
    ("modeling.train.self_s", S),
    ("modeling.train.calls", COUNT),
    ("modeling.train.epochs", COUNT),
    ("modeling.train.converged_share", SHARE),
    ("modeling.log_loss_gradient.calls", COUNT),
    ("modeling.log_loss_gradient.self_s", S),
    ("modeling.fit_dp_threshold_scores.self_s", S),
    ("modeling.fit_cdp_threshold.self_s", S),
    ("modeling.predict.self_s", S),
    ("modeling.predict.calls", COUNT),
    ("modeling.predict.rows", COUNT),
    ("modeling.load_model.self_s", S),
    ("group_metrics.compute_group_stats.calls", COUNT),
    ("group_metrics.compute_group_stats.self_s", S),
    ("group_metrics.apply_threshold.self_s", S),
    ("group_metrics.conditional_demographic_parity.self_s", S),
    ("group_metrics.calibration_within_groups.self_s", S),
    ("group_metrics.demographic_parity.self_s", S),
    ("incompatibility.gaps.self_s", S),
    ("incompatibility.check_sep_suff_exclusion.self_s", S),
    ("individual_metrics.consistency.self_s", S),
    ("individual_metrics.consistency.peak_mb", MB),
    ("individual_metrics.similarity_weighted_disparity.self_s", S),
    ("individual_metrics.similarity_weighted_disparity.pairs", COMPUTED),
    ("individual_metrics.lipschitz_audit.self_s", S),
    ("individual_metrics.lipschitz_audit.pairs", COUNT),
    ("individual_metrics.encode_for_distance.calls", COUNT),
    ("individual_metrics.encode_for_distance.self_s", S),
    ("individual_metrics.flip_assessment.self_s", S),
    ("individual_metrics.flip_assessment.calls", COUNT),
    ("info_theory.symmetric_uncertainty_codes.self_s", S),
    ("info_theory.symmetric_uncertainty_codes.calls", COUNT),
    ("causal.pcff_gap.self_s", S),
    ("causal.pcff_gap.peak_mb", MB),
    ("causal.ecff_gap.self_s", S),
    ("causal.ecff_gap.peak_mb", MB),
    ("causal.decision_cells", COUNT),
    ("causal.decision_calls", COUNT),
    ("causal.counterfactual.self_s", S),
    ("causal.counterfactual.calls", COUNT),
    ("causal.counterfactual.draws", COUNT),
    ("causal.counterfactual.exact_share", SHARE),
    ("causal.load_scm.self_s", S),
    ("causal.sample.self_s", S),
    ("causal.simulate.self_s", S),
    ("synth_experiment.calibrate_noise_interpretation.self_s", S),
    ("synth_experiment.generate.self_s", S),
    ("synth_experiment.evaluate_approach.self_s", S),
    ("synth_experiment.ExperimentReport.to_json_dict.self_s", S),
    ("synth_experiment.ExperimentReport.to_csv.self_s", S),
    ("trace.overhead_s", S),
)


def _train_counts(args, model, tol):
    return {
        "modeling.train.models": 1,
        "modeling.train.epochs": model.epochs,
        "modeling.train.converged": model.final_grad_norm <= tol,
    }


def _pair_counts(args, result):
    # computed from the inputs: every (group 1, group 0) pair is weighed
    groups = args[0].sensitive.values
    pairs = int((groups == 1).sum()) * int((groups == 0).sum())
    return {"individual_metrics.similarity_weighted_disparity.pairs": pairs}


# span name -> counts taken from its inputs and return value
COUNTERS = {
    "data.load_csv": lambda args, ds: {"data.load_csv.rows": ds.n},
    "modeling.predict": lambda args, preds: {"modeling.predict.rows": preds.n},
    "individual_metrics.similarity_weighted_disparity": _pair_counts,
    "individual_metrics.lipschitz_audit": lambda args, rep: {
        "individual_metrics.lipschitz_audit.pairs": rep.pairs_examined},
    "causal.counterfactual": lambda args, res: {
        "causal.counterfactual.draws": res.draws,
        "causal.counterfactual.exact": bool(res.exact)},
}
SPAN_STATS = ("self_s", "calls", "peak_mb")


class Tracer:
    """Spans and counters of the fairaudit calls made while installed."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, peak MB or None]
        self.counters = defaultdict(float)
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        if name == "modeling.train":
            tol = sys.modules["fairaudit.modeling"].TrainConfig().tol
            count = functools.partial(_train_counts, tol=tol)
        peak = name in PEAK_SPANS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            own_tracemalloc = peak and not tracemalloc.is_tracing()
            if own_tracemalloc:
                tracemalloc.start()
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                if own_tracemalloc:
                    rec[4] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._stack.pop()
            if count is not None:
                for key, value in count(args, result).items():
                    self.counters[key] += value
            return result

        return span

    def install(self):
        """Wrap the layer functions and rebind them in every fairaudit module."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"fairaudit.{layer}")
            names = ONLY.get(layer) or [
                n for n, f in vars(mod).items()
                if inspect.isfunction(f) and f.__module__ == mod.__name__
                and not n.startswith("_")
            ]
            for n in names:
                wrappers[getattr(mod, n)] = self._wrap(f"{layer}.{n}", getattr(mod, n))
            if layer in METHODS:
                cls_name, methods = METHODS[layer]
                cls = getattr(mod, cls_name)
                for m in methods:
                    self._rebind(cls, m, self._wrap(f"{layer}.{cls_name}.{m}", vars(cls)[m]))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "fairaudit" or mod_name.startswith("fairaudit."):
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._rebind(mod, attr, wrappers[value])

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        """Put every original function back."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def by_name(self):
        """``{span name: {"self_s", "calls", "peak_mb"}}`` over all spans."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "peak_mb": 0.0})
        for i, (name, _, start, end, peak) in enumerate(self.spans):
            agg = out[name]
            agg["self_s"] += (end - start) - child[i]
            agg["calls"] += 1
            if peak is not None:
                agg["peak_mb"] = max(agg["peak_mb"], peak)
        return out

    def per_layer(self, decision, overhead_s):
        """Every ``PER_LAYER`` metric; spans never entered read 0."""
        spans, c = self.by_name(), self.counters
        models, cfs = c["modeling.train.models"], spans["causal.counterfactual"]["calls"]
        derived = {
            "modeling.train.converged_share":
                c["modeling.train.converged"] / models if models else 0.0,
            "causal.counterfactual.exact_share":
                c["causal.counterfactual.exact"] / cfs if cfs else 0.0,
            "causal.decision_cells": decision.cells if decision else 0,
            "causal.decision_calls": decision.calls if decision else 0,
            "trace.overhead_s": overhead_s,
        }
        out = {}
        for metric, unit in PER_LAYER:
            span, _, stat = metric.rpartition(".")
            if metric in derived:
                value = derived[metric]
            elif stat in SPAN_STATS:
                value = spans[span][stat]
            else:
                value = c[metric]
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """Write the spans (with their parents) as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [{"name": n, "parent": p, "start": s, "end": e, "peak_mb": pk}
                 for n, p, s, e, pk in self.spans],
                fh,
            )
