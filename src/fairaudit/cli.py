"""Command-line surface: audit, synth, train, counterfactual, experiment.

Exit codes: 0 success; 2 partial success (some requested cells were
undefined or skipped and are flagged in the output); 64 usage error;
65 data error, a path that cannot be read or written included.
``audit`` metrics come from one table, ``CRITERIA``: a metric named in
``--metrics`` whose inputs are missing exits 64 (``--model``,
``--condition-on``) or 65 (decisions, scores, target, which each metric
checks itself), while ``--metrics all`` lists it as skipped with the
reason and exits 2. Each subcommand accepts only the options it reads.
The ``FAIRAUDIT_SEED`` environment variable sets the default of
``--seed``, and ``FAIRAUDIT_FORMAT`` that of ``audit --format``; an
invalid value exits 64, except that ``train``, which reads no seed,
ignores ``FAIRAUDIT_SEED``.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import causal, group_metrics, incompatibility, individual_metrics, modeling
from . import synth_experiment
from .data import (
    _csv_text,
    _json_text,
    load_csv,
    load_predictions,
    load_schema,
    quantile_bin,
)
from .seeding import derive_seed

EXIT_OK = 0
EXIT_PARTIAL = 2
EXIT_USAGE = 64
EXIT_DATA = 65


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# criteria registry (audit subcommand)
# ---------------------------------------------------------------------------


class Criterion(NamedTuple):
    """One audit metric: name, how to run it, aliases and required option.

    ``run`` maps the audit inputs to the metric's JSON document, and the
    metric checks its own data inputs: the first one missing raises
    ValueError (exit 65), and under ``--metrics all`` is reported as
    skipped instead. ``option`` is an ``(argument, message)`` pair, checked
    before ``run``: a metric named without it exits 64.
    """

    name: str
    run: Callable
    aliases: tuple = ()
    option: tuple | None = None


def _on_stats(name, needs, report, aliases=()):
    """A row whose ``report(ds, preds, stats)`` reads the shared group stats
    and checks no input, so its runner checks ``needs`` first."""

    def run(a):
        group_metrics._require(a.ds, a.preds, needs)
        return report(a.ds, a.preds, a.stats).to_json_dict()

    return Criterion(name, run, aliases)


def _stats_row(name, aliases=()):
    needs = group_metrics.STATS_CRITERIA[name][0]
    return _on_stats(
        name, needs, lambda ds, preds, stats: group_metrics._stats_report(name, stats), aliases
    )


def _cdp(a):
    # decisions before the column is binned: a missing input is named first
    group_metrics._require(a.ds, a.preds, (group_metrics.DECISIONS,))
    ds, col = a.ds, a.args.condition_on
    if col != ds.target_name and ds.feature(col).kind == "continuous":
        ds = quantile_bin(ds, col, a.args.condition_bins)
    return group_metrics.conditional_demographic_parity(
        ds, a.preds, col, a.args.min_count
    ).to_json_dict()


def _flip(a):
    rep = individual_metrics.flip_assessment(
        a.ds, lambda d: modeling.predict(a.model, d), decisions=a.model_preds
    )
    return {
        "metric": "flip",
        "flip_rate": rep.flip_rate,
        "flip_consistency": rep.flip_consistency,
    }


# In report order: ``--format csv`` lists the metrics in this order.
CRITERIA = (
    _stats_row("demographic_parity", ("dp",)),
    Criterion(
        "conditional_demographic_parity",
        _cdp,
        ("cdp",),
        ("condition_on", "conditional_demographic_parity needs --condition-on"),
    ),
    _stats_row("equality_of_odds", ("eo",)),
    _stats_row("predictive_equality"),
    _stats_row("equality_of_opportunity"),
    _stats_row("predictive_parity"),
    _stats_row("sufficiency"),
    _stats_row("accuracy_parity"),
    _stats_row("balance_positive_class"),
    _stats_row("balance_negative_class"),
    _stats_row("auc_parity"),
    Criterion(
        "calibration_within_groups",
        lambda a: group_metrics.calibration_within_groups(
            a.ds, a.preds, a.args.bins, a.args.min_count
        ).to_json_dict(),
    ),
    _on_stats("criteria_gaps", incompatibility.GAPS_NEEDS, incompatibility._gaps),
    _on_stats(
        "sep_suff_exclusion", incompatibility.SEP_SUFF_NEEDS, incompatibility._sep_suff_exclusion
    ),
    Criterion(
        "consistency",
        lambda a: {
            "metric": "consistency",
            "value": individual_metrics.consistency(a.ds, a.preds, a.args.k, a.dist),
        },
    ),
    Criterion(
        "similarity_weighted_disparity",
        lambda a: {
            "metric": "similarity_weighted_disparity",
            "value": individual_metrics.similarity_weighted_disparity(a.ds, a.preds, a.dist),
        },
    ),
    Criterion(
        "lipschitz_audit",
        lambda a: individual_metrics.lipschitz_audit(
            a.ds, a.preds, a.dist, a.args.lipschitz_constant, a.args.max_pairs, a.args.seed
        ).to_json_dict(),
    ),
    Criterion("flip", _flip, option=("model", "the flip metric needs --model")),
)

METRICS = tuple(c.name for c in CRITERIA)
ALIASES = {alias: c.name for c in CRITERIA for alias in c.aliases}
_BY_NAME = {c.name: c for c in CRITERIA}


def _has_skips(doc):
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key in ("skipped", "zero_distance_witnesses") and value:
                return True
            if _has_skips(value):
                return True
    elif isinstance(doc, list):
        return any(_has_skips(v) for v in doc)
    return False


def _flatten_csv(doc, prefix=""):
    rows = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            rows.extend(_flatten_csv(value, f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(doc, list):
        rows.append((prefix, ";".join(str(v) for v in doc)))
    else:
        rows.append((prefix, doc))
    return rows


def _emit(text, output):
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_audit(args):
    schema = load_schema(args.schema)
    pred_cols = {}
    if args.predictions:
        for part in args.predictions.split(","):
            key, _, col = part.partition("=")
            if key.strip() not in ("yhat", "score") or not col.strip():
                raise UsageError("--predictions takes yhat=COL and/or score=COL")
            pred_cols["decisions" if key.strip() == "yhat" else "scores"] = col.strip()
    ds = load_csv(args.data, schema, exclude=tuple(pred_cols.values()))
    preds = None
    if pred_cols:
        preds = load_predictions(args.data, pred_cols.get("decisions"), pred_cols.get("scores"))
    model = None
    if args.model:
        model = modeling.load_model(args.model)
        if preds is None:
            preds = modeling.predict(model, ds)
    requested = []
    for raw in args.metrics.split(","):
        name = ALIASES.get(raw.strip(), raw.strip())
        if name == "all":
            requested.extend((c, True) for c in CRITERIA)
        elif name in _BY_NAME:
            requested.append((_BY_NAME[name], False))
        else:
            raise UsageError(f"unknown metric {raw.strip()!r}")
    if preds is None:
        raise UsageError("no predictions: pass --predictions and/or --model")
    dist = individual_metrics.DistanceSpec(
        "euclidean_raw" if args.distance == "raw" else "euclidean_standardized"
    )
    inputs = SimpleNamespace(
        ds=ds, preds=preds, model=model, args=args, dist=dist,
        # the model's own decisions, unless preds came from --predictions
        model_preds=None if pred_cols else preds,
        # computed once: the metrics read off the group stats share it
        stats=group_metrics.compute_group_stats(ds, preds),
    )
    out = {}
    for c, from_all in requested:
        try:
            if c.option and not getattr(args, c.option[0]):
                raise UsageError(c.option[1])
            out[c.name] = c.run(inputs)
        except (UsageError, ValueError) as exc:
            # 'all' runs whatever the inputs support and lists the rest as
            # skipped; a metric named explicitly fails on unmet inputs
            if not from_all:
                raise
            out[c.name] = {"metric": c.name, "skipped": [str(exc)]}
    doc = {"metrics": out, "n": ds.n}
    # strict JSON refuses nan/inf anywhere in the report, for either format
    text = _json_text(doc)
    if args.format == "csv":
        text = _csv_text([("key", "value"), *_flatten_csv(doc)])
    _emit(text, args.output)
    if _has_skips(out) or all(_all_undefined(m) for m in out.values()):
        return EXIT_PARTIAL
    return EXIT_OK


def _all_undefined(doc):
    groups = doc.get("groups") if isinstance(doc, dict) else None
    if not groups:
        return False
    return all(v is None for v in groups.values())


def cmd_synth(args):
    noise = args.noise
    if noise == "auto":
        noise = synth_experiment.calibrate_noise_interpretation(
            derive_seed(args.seed, "calibration")
        ).chosen
    ds = synth_experiment.generate(
        synth_experiment.SynthConfig(args.n, args.target, noise, args.seed)
    )
    header = (ds.sensitive.name, *ds.feature_names, ds.target_name)
    columns = (ds.sensitive.values, *(c.values for c in ds.features), ds.target)
    _emit(_csv_text([header, *zip(*(c.tolist() for c in columns))]), args.output)
    return EXIT_OK


def cmd_train(args):
    schema = load_schema(args.schema)
    ds = load_csv(args.data, schema)
    drop = tuple(s.strip() for s in args.drop.split(",") if s.strip()) if args.drop else ()
    spec = modeling.parse_strategy(args.strategy, drop)
    if spec is None:
        *head, last = modeling.STRATEGIES
        raise UsageError(f"strategy must be {', '.join(head)}, or {last}")
    hyper = modeling.TrainConfig(args.max_epochs)
    model = modeling.train(ds, spec, hyper)
    modeling.save_model(model, args.model_out)
    if model.suppression is not None:
        dropped = ", ".join(f"{n} (|corr|={c:.3f})" for n, c in model.suppression.dropped)
        print(f"suppression dropped: {dropped or 'nothing'}", file=sys.stderr)
    print(
        f"trained {spec.strategy} model: {model.epochs} Newton iterations, "
        f"final gradient norm {model.final_grad_norm:.2e} -> {args.model_out}",
        file=sys.stderr,
    )
    if not model.converged:
        why = (
            "the scores separate the classes, so no maximum-likelihood fit exists"
            if model.final_grad_norm <= hyper.tol
            else f"gradient norm above {hyper.tol:g}"
        )
        print(f"warning: training did not converge: {why}", file=sys.stderr)
    return EXIT_OK


def _parse_kv(text, flag):
    out = {}
    if not text:
        return out
    for part in text.split(","):
        key, eq, value = part.partition("=")
        if not eq:
            raise UsageError(f"{flag} takes comma-separated node=value pairs")
        try:
            out[key.strip()] = float(value)
        except ValueError:
            raise UsageError(f"{flag}: {value!r} is not a number") from None
        if not math.isfinite(out[key.strip()]):
            raise ValueError(f"{flag}: {value!r} is not a finite number")
    return out


def cmd_counterfactual(args):
    if args.budget < 1:  # on every model, not only past the exact cap
        raise ValueError("mc_budget must be at least 1")
    scm = causal.load_scm(args.scm)
    observed = _parse_kv(args.unit, "--unit")
    do = _parse_kv(args.do, "--do")
    hold = frozenset(s.strip() for s in args.hold.split(",") if s.strip()) if args.hold else frozenset()
    query = causal.CounterfactualQuery(observed, do, hold)
    result = causal.counterfactual(scm, query, args.budget, args.seed)
    # the file first: a path that cannot be written exits 65 with nothing printed
    if args.output:
        Path(args.output).write_text(_json_text(vars(result)), encoding="utf-8")
    for node in scm.nodes:
        line = f"counterfactual {node} = {result.means[node]:g}"
        if result.stderr is not None:
            line += f" (stderr {result.stderr[node]:.2g})"
        print(line)
    return EXIT_OK


def cmd_experiment(args):
    adult = ()
    if args.adult:
        if not args.adult_schema:
            raise UsageError("--adult needs --adult-schema")
        schema = load_schema(args.adult_schema)
        adult = [("adult", load_csv(args.adult, schema), args.adult_condition)]
    report = synth_experiment.run_experiment(
        seed=args.seed,
        split_fraction=args.split,
        noise_interpretation=None if args.noise == "auto" else args.noise,
        n=args.n,
        extra_datasets=adult,
    )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "experiment.json").write_text(_json_text(report.to_json_dict()), encoding="utf-8")
    table = report.to_csv()
    (outdir / "experiment.csv").write_text(table, encoding="utf-8")
    sys.stdout.write(table)
    failures = report.failures()
    for dataset, approach, reason in failures:
        print(f"warning: {dataset} {approach} failed: {reason}", file=sys.stderr)
    return EXIT_PARTIAL if failures else EXIT_OK


def _non_negative_int(text):
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return value


FORMATS = ("json", "csv")


def build_parser():
    # a subcommand takes only the shared options it reads. --seed and
    # --format default to None; main fills them from the environment on
    # every call, since the parser is built once per process
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument(
        "--seed", type=int, default=None,
        help="root seed (default $FAIRAUDIT_SEED or 0); per-task seeds are "
        "derived by hashing task labels with it",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None, help="write the report here instead of stdout")
    parser = _Parser(prog="fairaudit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", parents=[seed, output], help="run fairness metrics on a CSV")
    p.add_argument(
        "--format", choices=FORMATS, default=None, help="default $FAIRAUDIT_FORMAT or json"
    )
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True, help="key-value schema file")
    p.add_argument(
        "--predictions",
        default=None,
        help="prediction columns inside the CSV, e.g. 'yhat=pred' or 'yhat=pred,score=s'",
    )
    p.add_argument("--model", default=None, help="saved model file (enables the flip metric)")
    p.add_argument(
        "--metrics",
        required=True,
        help="comma list or 'all' (which lists a metric whose inputs are missing as "
        "skipped); available: "
        + ", ".join(c.name + "".join(f" ({a})" for a in c.aliases) for c in CRITERIA),
    )
    p.add_argument("--condition-on", default=None, help="stratum column for cdp")
    p.add_argument("--k", type=int, default=5, help="neighbours for consistency")
    p.add_argument("--distance", choices=("standardized", "raw"), default="standardized")
    p.add_argument("--bins", type=int, default=10, help="score bins for calibration")
    p.add_argument(
        "--condition-bins", type=int, default=4,
        help="quantile bins when conditioning on a continuous column",
    )
    p.add_argument("--min-count", type=int, default=30)
    p.add_argument("--lipschitz-constant", type=float, default=1.0)
    p.add_argument("--max-pairs", type=int, default=10000)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("synth", parents=[seed, output], help="emit a synthetic benchmark CSV")
    p.add_argument("--target", choices=("high", "low"), default="high")
    p.add_argument("--n", type=int, default=15000)
    p.add_argument("--noise", choices=("std", "variance", "auto"), default="std")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "train", parents=[seed], help="train the built-in classifier",
        description="Training draws nothing at random: --seed is accepted, so that "
        "scripts can pass one seed to every command, and not read.",
    )
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument(
        "--strategy",
        required=True,
        help=" | ".join(modeling.STRATEGIES),
    )
    p.add_argument("--drop", default=None, help="comma list of features to drop explicitly")
    p.add_argument("--model-out", required=True)
    p.add_argument(
        "--max-epochs", type=_non_negative_int, default=5000,
        help="cap on Newton iterations; 0 keeps the zero-weight model",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "counterfactual", parents=[seed, output], help="three-step counterfactual query"
    )
    p.add_argument("--scm", required=True, help="model JSON file")
    p.add_argument("--unit", required=True, help="observed unit, node=value pairs")
    p.add_argument("--do", required=True, help="intervention, node=value pairs")
    p.add_argument("--hold", default=None, help="mediators held at factual values")
    p.add_argument(
        "--budget", type=int, default=10000,
        help=f"Monte Carlo draws (at least 1), used only past {causal._EXACT_CAP} "
        "uncertain nodes; below that the answer is exact",
    )
    p.set_defaults(func=cmd_counterfactual)

    p = sub.add_parser("experiment", parents=[seed], help="full mitigation comparison")
    p.add_argument("--adult", default=None, help="optional census CSV path")
    p.add_argument("--adult-schema", default=None)
    p.add_argument("--adult-condition", default="marital-status")
    p.add_argument("--n", type=int, default=15000)
    p.add_argument("--noise", choices=("std", "variance", "auto"), default="auto")
    p.add_argument("--split", type=float, default=0.7)
    p.add_argument("--out", default="experiment_out")
    p.set_defaults(func=cmd_experiment)
    return parser


_parser = functools.cache(build_parser)


def _env_defaults(args):
    # train reads no seed, so a variable it would ignore cannot stop it
    if args.seed is None and args.command != "train":
        raw = os.environ.get("FAIRAUDIT_SEED", "0")
        try:
            args.seed = int(raw)
        except ValueError:
            raise UsageError(f"FAIRAUDIT_SEED={raw!r} is not an integer") from None
    # only audit has --format
    if getattr(args, "format", "json") is None:
        args.format = os.environ.get("FAIRAUDIT_FORMAT", "json")
        if args.format not in FORMATS:
            raise UsageError(f"FAIRAUDIT_FORMAT={args.format!r} is not one of json, csv")


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        _env_defaults(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
