"""Command-line surface: audit, synth, train, counterfactual, experiment.

Exit codes: 0 success; 2 partial success (some requested cells were
undefined or skipped and are flagged in the output); 64 usage error;
65 data error. Defaults for ``--seed`` and ``--format`` can be overridden
with the ``FAIRAUDIT_SEED`` / ``FAIRAUDIT_FORMAT`` environment variables.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import causal, group_metrics, individual_metrics, modeling, synth_experiment
from .data import (
    ParseError,
    SchemaError,
    load_csv,
    load_predictions,
    load_schema,
    quantile_bin,
)
from .incompatibility import check_sep_suff_exclusion, gaps
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
# metric registry (audit subcommand)
# ---------------------------------------------------------------------------

METRICS = (
    "demographic_parity",
    "conditional_demographic_parity",
    "equality_of_odds",
    "predictive_equality",
    "equality_of_opportunity",
    "predictive_parity",
    "sufficiency",
    "accuracy_parity",
    "balance_positive_class",
    "balance_negative_class",
    "auc_parity",
    "calibration_within_groups",
    "criteria_gaps",
    "sep_suff_exclusion",
    "consistency",
    "similarity_weighted_disparity",
    "lipschitz_audit",
    "flip",
)

ALIASES = {
    "dp": "demographic_parity",
    "cdp": "conditional_demographic_parity",
    "eo": "equality_of_odds",
    "all": None,
}


def _run_metric(name, ds, preds, model, policy, args):
    gm = group_metrics
    dist = individual_metrics.DistanceSpec(
        "euclidean_raw" if args.distance == "raw" else "euclidean_standardized"
    )
    if name == "demographic_parity":
        return gm.demographic_parity(ds, preds).to_json_dict()
    if name == "conditional_demographic_parity":
        if not args.condition_on:
            raise UsageError("conditional_demographic_parity needs --condition-on")
        col = args.condition_on
        if col != ds.target_name and ds.feature(col).kind == "continuous":
            ds = quantile_bin(ds, col, args.condition_bins)
        return gm.conditional_demographic_parity(
            ds, preds, col, args.min_count
        ).to_json_dict()
    if name == "equality_of_odds":
        return gm.equality_of_odds(ds, preds).to_json_dict()
    if name == "predictive_equality":
        return gm.predictive_equality(ds, preds).to_json_dict()
    if name == "equality_of_opportunity":
        return gm.equality_of_opportunity(ds, preds).to_json_dict()
    if name == "predictive_parity":
        return gm.predictive_parity(ds, preds).to_json_dict()
    if name == "sufficiency":
        return gm.sufficiency(ds, preds).to_json_dict()
    if name == "accuracy_parity":
        return gm.accuracy_parity(ds, preds).to_json_dict()
    if name == "balance_positive_class":
        return gm.balance_positive_class(ds, preds).to_json_dict()
    if name == "balance_negative_class":
        return gm.balance_negative_class(ds, preds).to_json_dict()
    if name == "auc_parity":
        return gm.auc_parity(ds, preds).to_json_dict()
    if name == "calibration_within_groups":
        return gm.calibration_within_groups(
            ds, preds, args.bins, args.min_count
        ).to_json_dict()
    if name == "criteria_gaps":
        return gaps(ds, preds).to_json_dict()
    if name == "sep_suff_exclusion":
        return check_sep_suff_exclusion(ds, preds).to_json_dict()
    if name == "consistency":
        return {
            "metric": "consistency",
            "value": individual_metrics.consistency(ds, preds, args.k, dist),
        }
    if name == "similarity_weighted_disparity":
        return {
            "metric": "similarity_weighted_disparity",
            "value": individual_metrics.similarity_weighted_disparity(ds, preds, dist),
        }
    if name == "lipschitz_audit":
        return individual_metrics.lipschitz_audit(
            ds, preds, dist, args.lipschitz_constant, args.max_pairs, args.seed
        ).to_json_dict()
    if name == "flip":
        if model is None:
            raise UsageError("the flip metric needs --model")
        rep = individual_metrics.flip_assessment(
            ds, lambda d: modeling.predict(model, d, policy)
        )
        return {
            "metric": "flip",
            "flip_rate": rep.flip_rate,
            "flip_consistency": rep.flip_consistency,
        }
    raise UsageError(f"unknown metric {name!r}")


def _has_skips(doc):
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key in ("skipped", "fallback_cells", "zero_distance_witnesses") and value:
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


def _emit(doc, args):
    if args.format == "csv":
        lines = ["key,value"] + [f"{k},{v}" for k, v in _flatten_csv(doc)]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
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
    model = policy = None
    if args.model:
        model, policy = modeling.load_model(args.model)
        if preds is None:
            preds = modeling.predict(model, ds, policy)
    requested = []
    for raw in args.metrics.split(","):
        name = raw.strip()
        name = ALIASES.get(name, name)
        if raw.strip() == "all":
            requested.extend(
                (m, True) for m in METRICS if m != "flip" or model is not None
            )
        elif name in METRICS:
            requested.append((name, False))
        else:
            raise UsageError(f"unknown metric {raw.strip()!r}")
    if preds is None:
        raise UsageError("no predictions: pass --predictions and/or --model")
    out = {}
    unmet = []
    for name, from_all in requested:
        try:
            out[name] = _run_metric(name, ds, preds, model, policy, args)
        except ValueError as exc:
            # 'all' runs whatever the inputs support; an explicitly named
            # metric with unmet preconditions stays a hard error
            if not from_all:
                raise
            unmet.append(name)
            out[name] = {"metric": name, "skipped": [str(exc)]}
    _emit({"metrics": out, "n": ds.n}, args)
    if unmet:
        return EXIT_PARTIAL
    if all(_all_undefined(doc) for doc in out.values()):
        return EXIT_PARTIAL
    return EXIT_PARTIAL if _has_skips(out) else EXIT_OK


def _all_undefined(doc):
    groups = doc.get("groups") if isinstance(doc, dict) else None
    if not groups:
        return False
    return all(v is None for v in groups.values())


def cmd_synth(args):
    cfg = synth_experiment.SynthConfig(
        n=args.n,
        target=args.target,
        noise_scale_interpretation=_resolve_noise(args.noise, args.seed),
        seed=args.seed,
    )
    ds = synth_experiment.generate(cfg)
    lines = ["A,X1,X2,X3,Y"]
    x1 = ds.feature("X1").values
    x2 = ds.feature("X2").values
    x3 = ds.feature("X3").values
    for i in range(ds.n):
        lines.append(
            f"{ds.sensitive.values[i]},{float(x1[i])!r},{float(x2[i])!r},"
            f"{x3[i]},{ds.target[i]}"
        )
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _resolve_noise(choice, seed):
    if choice == "auto":
        return synth_experiment.calibrate_noise_interpretation(
            derive_seed(seed, "calibration")
        ).chosen
    return choice


def cmd_train(args):
    schema = load_schema(args.schema)
    ds = load_csv(args.data, schema)
    strategy = args.strategy
    drop = tuple(s.strip() for s in args.drop.split(",") if s.strip()) if args.drop else ()
    if strategy == "full":
        spec = modeling.MitigationSpec(modeling.FULL, drop_features=drop)
    elif strategy == "ftu":
        spec = modeling.MitigationSpec(modeling.FTU, drop_features=drop)
    elif strategy.startswith("supp:"):
        spec = modeling.MitigationSpec(
            modeling.SUPPRESSION, threshold=float(strategy[5:]), drop_features=drop
        )
    elif strategy == "dp":
        spec = modeling.MitigationSpec(modeling.DP_POST, drop_features=drop)
    elif strategy.startswith("cdp:"):
        spec = modeling.MitigationSpec(
            modeling.CDP_POST, conditioning=strategy[4:], drop_features=drop
        )
    else:
        raise UsageError(
            "strategy must be full, ftu, supp:<threshold>, dp, or cdp:<column>"
        )
    model = modeling.train(ds, spec, modeling.TrainConfig(args.lr, args.max_epochs), args.seed)
    policy = None
    if spec.strategy == modeling.DP_POST:
        policy = modeling.fit_dp_threshold(ds, model)
    elif spec.strategy == modeling.CDP_POST:
        policy = modeling.fit_cdp_threshold(ds, model, spec.conditioning)
    modeling.save_model(model, args.model_out, policy)
    if model.suppression is not None:
        dropped = ", ".join(f"{n} (|corr|={c:.3f})" for n, c in model.suppression.dropped)
        print(f"suppression dropped: {dropped or 'nothing'}", file=sys.stderr)
    print(
        f"trained {spec.strategy} model: {model.epochs} epochs, "
        f"final gradient norm {model.final_grad_norm:.2e} -> {args.model_out}",
        file=sys.stderr,
    )
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
    return out


def cmd_counterfactual(args):
    scm = causal.load_scm(args.scm)
    observed = _parse_kv(args.unit, "--unit")
    do = _parse_kv(args.do, "--do")
    hold = frozenset(s.strip() for s in args.hold.split(",") if s.strip()) if args.hold else frozenset()
    query = causal.CounterfactualQuery(observed, do, hold)
    result = causal.counterfactual(scm, query, args.budget, args.seed)
    doc = {
        "means": result.means,
        "exact": result.exact,
        "draws": result.draws,
        "stderr": result.stderr,
    }
    for node in scm.nodes:
        line = f"counterfactual {node} = {result.means[node]:g}"
        if result.stderr is not None:
            line += f" (stderr {result.stderr[node]:.2g})"
        print(line)
    if args.output:
        Path(args.output).write_text(
            json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8"
        )
    return EXIT_OK


def cmd_experiment(args):
    datasets = None
    interp = None if args.noise == "auto" else args.noise
    if args.adult:
        if not args.adult_schema:
            raise UsageError("--adult needs --adult-schema")
        schema = load_schema(args.adult_schema)
        adult = load_csv(args.adult, schema)
        interp = _resolve_noise(args.noise, args.seed)
        datasets = [("adult", adult, args.adult_condition)]
        for label, target in (("synthetic#1", "high"), ("synthetic#2", "low")):
            cfg = synth_experiment.SynthConfig(
                n=args.n,
                target=target,
                noise_scale_interpretation=interp,
                seed=derive_seed(args.seed, f"generate:{target}"),
            )
            datasets.append((label, synth_experiment.generate(cfg), "X3"))
    report = synth_experiment.run_experiment(
        datasets=datasets,
        seed=args.seed,
        split_fraction=args.split,
        noise_interpretation=interp,
        n=args.n,
    )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "experiment.json").write_text(
        json.dumps(report.to_json_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    (outdir / "experiment.csv").write_text(report.to_csv(), encoding="utf-8")
    sys.stdout.write(report.to_csv())
    return EXIT_OK


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=int(os.environ.get("FAIRAUDIT_SEED", "0")),
        help="root seed; per-task seeds are derived by hashing task labels with it",
    )
    common.add_argument("--output", default=None, help="write the report here instead of stdout")
    common.add_argument(
        "--format",
        choices=("json", "csv"),
        default=os.environ.get("FAIRAUDIT_FORMAT", "json"),
    )
    parser = _Parser(prog="fairaudit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", parents=[common], help="run fairness metrics on a CSV")
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
        help="comma list or 'all'; available: " + ", ".join(METRICS)
        + "; aliases: dp, cdp, eo",
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

    p = sub.add_parser("synth", parents=[common], help="emit a synthetic benchmark CSV")
    p.add_argument("--target", choices=("high", "low"), default="high")
    p.add_argument("--n", type=int, default=15000)
    p.add_argument("--noise", choices=("std", "variance", "auto"), default="std")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[common], help="train the built-in classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument(
        "--strategy",
        required=True,
        help="full | ftu | supp:<threshold> | dp | cdp:<column>",
    )
    p.add_argument("--drop", default=None, help="comma list of features to drop explicitly")
    p.add_argument("--model-out", required=True)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--max-epochs", type=int, default=5000)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("counterfactual", parents=[common], help="three-step counterfactual query")
    p.add_argument("--scm", required=True, help="model JSON file")
    p.add_argument("--unit", required=True, help="observed unit, node=value pairs")
    p.add_argument("--do", required=True, help="intervention, node=value pairs")
    p.add_argument("--hold", default=None, help="mediators held at factual values")
    p.add_argument("--budget", type=int, default=10000)
    p.set_defaults(func=cmd_counterfactual)

    p = sub.add_parser("experiment", parents=[common], help="full mitigation comparison")
    p.add_argument("--adult", default=None, help="optional census CSV path")
    p.add_argument("--adult-schema", default=None)
    p.add_argument("--adult-condition", default="marital-status")
    p.add_argument("--n", type=int, default=15000)
    p.add_argument("--noise", choices=("std", "variance", "auto"), default="auto")
    p.add_argument("--split", type=float, default=0.7)
    p.add_argument("--out", default="experiment_out")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemaError, ParseError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
