import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import causal, group_metrics, incompatibility, individual_metrics, modeling
from fairaudit import synth_experiment, threads
from fairaudit.causal import save_scm, simulate
from fairaudit.data import _csv_text, load_csv, load_predictions, load_schema
from fairaudit.individual_metrics import flip_assessment
from fairaudit.seeding import derive_seed
from fairaudit.cli import (
    ALIASES,
    EXIT_DATA,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    METRICS,
    _flatten_csv,
    build_parser,
    main,
)
from tests.test_causal import cap_scm, chain_scm


@pytest.fixture()
def toy_csv(tmp_path):
    rows = ["sex,x,y,pred,score"]
    rng = np.random.default_rng(0)
    for i in range(60):
        g = "m" if i % 2 else "f"
        x = rng.normal() + (0.5 if g == "m" else 0.0)
        y = int(x + rng.normal(0, 0.8) > 0.2)
        pred = int(x > 0.3)
        score = float(np.clip(0.5 + x / 4, 0, 1))
        rows.append(f"{g},{x},{y},{pred},{score}")
    data = tmp_path / "toy.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    schema = tmp_path / "schema.cfg"
    schema.write_text("sensitive = sex\ntarget = y\ncontinuous = x\n", encoding="utf-8")
    return data, schema


class TestAudit:
    def test_dp_end_to_end(self, toy_csv, tmp_path, capsys):
        data, schema = toy_csv
        out = tmp_path / "report.json"
        code = main(
            [
                "audit",
                "--data", str(data),
                "--schema", str(schema),
                "--predictions", "yhat=pred,score=score",
                "--metrics", "dp",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        rep = doc["metrics"]["demographic_parity"]
        assert set(rep) == {"metric", "groups", "gap", "ratio", "skipped"}
        assert 0.0 <= rep["gap"] <= 1.0

    def test_all_metrics_present(self, toy_csv, tmp_path):
        data, schema = toy_csv
        out = tmp_path / "report.json"
        code = main(
            [
                "audit",
                "--data", str(data),
                "--schema", str(schema),
                "--predictions", "yhat=pred,score=score",
                "--metrics", "all",
                "--condition-on", "x",
                "--min-count", "2",
                "--k", "3",
                "--output", str(out),
            ]
        )
        assert code in (EXIT_OK, EXIT_PARTIAL)
        doc = json.loads(out.read_text())
        expected = set(METRICS) - {"flip"}  # flip needs --model
        assert expected <= set(doc["metrics"])

    @pytest.mark.parametrize("distance", ["standardized", "raw"])
    def test_each_distance_metric_encodes_once(self, toy_csv, tmp_path, monkeypatch, distance):
        # consistency and the disparity each encode the features; the
        # Lipschitz audit adds the attribute
        data, schema = toy_csv
        calls = []
        real = individual_metrics.encode_for_distance

        def counted(ds, spec, include_sensitive=False):
            calls.append((spec.kind, include_sensitive))
            return real(ds, spec, include_sensitive)

        monkeypatch.setattr(individual_metrics, "encode_for_distance", counted)
        out = tmp_path / "report.json"
        main(
            [
                "audit",
                "--data", str(data),
                "--schema", str(schema),
                "--predictions", "yhat=pred",
                "--metrics", "consistency,similarity_weighted_disparity,lipschitz_audit",
                "--distance", distance,
                "--k", "3",
                "--output", str(out),
            ]
        )
        kind = "euclidean_raw" if distance == "raw" else "euclidean_standardized"
        assert calls == [(kind, False), (kind, False), (kind, True)]
        monkeypatch.undo()
        doc = json.loads(out.read_text())["metrics"]
        ds = load_csv(data, load_schema(schema), exclude=("pred",))
        preds = load_predictions(data, "pred")
        dist = individual_metrics.DistanceSpec(kind)
        assert doc["consistency"]["value"] == individual_metrics.consistency(ds, preds, 3, dist)
        assert doc["similarity_weighted_disparity"]["value"] == (
            individual_metrics.similarity_weighted_disparity(ds, preds, dist)
        )

    def test_all_with_decisions_only_degrades_gracefully(self, toy_csv, tmp_path):
        # score-based metrics cannot run without scores: under 'all' they
        # are listed as skipped and the run exits partial
        data, schema = toy_csv
        out = tmp_path / "report.json"
        code = main(
            [
                "audit",
                "--data", str(data),
                "--schema", str(schema),
                "--predictions", "yhat=pred",
                "--metrics", "all",
                "--condition-on", "x",
                "--min-count", "2",
                "--k", "3",
                "--output", str(out),
            ]
        )
        assert code == EXIT_PARTIAL
        doc = json.loads(out.read_text())
        assert doc["metrics"]["demographic_parity"]["gap"] >= 0.0
        assert "skipped" in doc["metrics"]["auc_parity"]
        assert "scores" in doc["metrics"]["auc_parity"]["skipped"][0]

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--predictions", "yhat"), "--predictions takes yhat=COL and/or score=COL"),
            ((), "no predictions: pass --predictions and/or --model"),
        ],
    )
    def test_predictions_are_named_or_usage_error(self, toy_csv, capsys, extra, message):
        data, schema = toy_csv
        argv = ["audit", "--data", str(data), "--schema", str(schema), "--metrics", "dp"]
        assert main([*argv, *extra]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"usage error: {message}\n"

    def test_unknown_metric_usage_error(self, toy_csv, capsys):
        data, schema = toy_csv
        code = main(
            [
                "audit",
                "--data", str(data),
                "--schema", str(schema),
                "--predictions", "yhat=pred",
                "--metrics", "sorcery",
            ]
        )
        assert code == EXIT_USAGE

    def test_missing_target_names_requirement(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("g,x,pred\nm,1.0,1\nf,2.0,0\nm,0.5,1\nf,1.5,0\n", encoding="utf-8")
        schema = tmp_path / "s.cfg"
        schema.write_text("sensitive = g\ncontinuous = x\n", encoding="utf-8")
        code = main(
            [
                "audit",
                "--data", str(data),
                "--schema", str(schema),
                "--predictions", "yhat=pred",
                "--metrics", "eo",
            ]
        )
        assert code == EXIT_DATA
        assert "target" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, column",
        [("m,nan,1,1,0.7", "X1"), ("m,0.5,1,1,inf", "score")],
    )
    def test_non_finite_cell_is_data_error(self, tmp_path, capsys, row, column):
        data = tmp_path / "d.csv"
        data.write_text(
            f"g,X1,y,pred,score\n{row}\nf,2.0,0,0,0.2\nm,0.5,1,1,0.9\nf,1.5,0,0,0.4\n",
            encoding="utf-8",
        )
        schema = tmp_path / "s.cfg"
        schema.write_text("sensitive = g\ntarget = y\ncontinuous = X1\n", encoding="utf-8")
        code = main(
            [
                "audit",
                "--data", str(data),
                "--schema", str(schema),
                "--predictions", "yhat=pred,score=score",
                "--metrics", "all",
                "--k", "1",
            ]
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "not finite" in err and repr(column) in err

    def test_repeated_header_name_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text(
            "g,x,x,y,pred\nm,1,5,1,1\nf,2,3,0,0\nm,3,1,1,1\nf,4,0,0,0\n", encoding="utf-8"
        )
        schema = tmp_path / "s.cfg"
        schema.write_text("sensitive = g\ntarget = y\n", encoding="utf-8")
        code = main(
            [
                "audit",
                "--data", str(data),
                "--schema", str(schema),
                "--predictions", "yhat=pred",
                "--metrics", "dp",
            ]
        )
        assert code == EXIT_DATA
        assert "column 'x' appears more than once" in capsys.readouterr().err

    def test_non_integral_decisions_are_data_error(self, tmp_path, capsys):
        # 0.7 and 1.9 were truncated to 0 and 1 and audited as decisions
        data = tmp_path / "d.csv"
        data.write_text("g,y,pred\nm,1,0.7\nf,0,1.9\nm,0,0\nf,1,1\n", encoding="utf-8")
        schema = tmp_path / "s.cfg"
        schema.write_text("sensitive = g\ntarget = y\n", encoding="utf-8")
        code = main(
            [
                "audit",
                "--data", str(data),
                "--schema", str(schema),
                "--predictions", "yhat=pred",
                "--metrics", "dp",
            ]
        )
        assert code == EXIT_DATA
        assert "decisions must be integers" in capsys.readouterr().err

    def test_decisions_beyond_int64_are_the_only_message(self, tmp_path):
        # 1e300 is whole, so it passed the integral check, and its cast to
        # int printed numpy's RuntimeWarning before the error
        data = tmp_path / "d.csv"
        data.write_text("g,y,pred\nm,1,1e300\nf,0,1\nm,0,0\nf,1,1\n", encoding="utf-8")
        schema = tmp_path / "s.cfg"
        schema.write_text("sensitive = g\ntarget = y\n", encoding="utf-8")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "fairaudit", "audit", "--data", str(data),
             "--schema", str(schema), "--predictions", "yhat=pred", "--metrics", "dp"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == EXIT_DATA
        assert proc.stderr == "data error: decisions must be integers within the int64 range\n"

    def test_undefined_everywhere_exit_partial(self, tmp_path, capsys):
        # nobody accepted: precision undefined in every group
        data = tmp_path / "d.csv"
        data.write_text("g,y,pred\nm,1,0\nf,0,0\nm,0,0\nf,1,0\n", encoding="utf-8")
        schema = tmp_path / "s.cfg"
        schema.write_text("sensitive = g\ntarget = y\n", encoding="utf-8")
        code = main(
            [
                "audit",
                "--data", str(data),
                "--schema", str(schema),
                "--predictions", "yhat=pred",
                "--metrics", "predictive_parity",
            ]
        )
        assert code == EXIT_PARTIAL

    def test_help_lists_every_metric(self):
        parser = build_parser()
        text = parser.format_help()
        # the audit subparser help carries the registry
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            try:
                parser.parse_args(["audit", "--help"])
            except SystemExit:
                pass
        help_text = buf.getvalue()
        for name in METRICS:
            assert name in help_text
        for alias in ("dp", "cdp", "eo"):
            assert alias in ALIASES

    def test_help_shows_aliases_beside_names(self, capsys):
        with pytest.raises(SystemExit):
            main(["audit", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        for alias, name in ALIASES.items():
            assert f"{name} ({alias})" in help_text


class TestAllRule:
    """Under 'all' a metric with an unmet input is skipped with the reason
    and the run exits 2; a metric named explicitly keeps exit 64 for a
    missing option and 65 for missing data."""

    def audit(self, toy_csv, tmp_path, metrics, predictions, *extra):
        data, schema = toy_csv
        out = tmp_path / "report.json"
        code = main(
            [
                "audit",
                "--data", str(data),
                "--schema", str(schema),
                "--predictions", predictions,
                "--metrics", metrics,
                "--min-count", "2",
                "--k", "3",
                "--output", str(out),
                *extra,
            ]
        )
        return code, (json.loads(out.read_text())["metrics"] if out.exists() else None)

    def test_all_without_condition_on_skips_cdp(self, toy_csv, tmp_path):
        code, doc = self.audit(toy_csv, tmp_path, "all", "yhat=pred,score=score")
        assert code == EXIT_PARTIAL
        assert doc["conditional_demographic_parity"] == {
            "metric": "conditional_demographic_parity",
            "skipped": ["conditional_demographic_parity needs --condition-on"],
        }
        assert doc["demographic_parity"]["skipped"] == []

    def test_all_without_model_skips_flip(self, toy_csv, tmp_path):
        code, doc = self.audit(
            toy_csv, tmp_path, "all", "yhat=pred,score=score", "--condition-on", "x"
        )
        assert code == EXIT_PARTIAL
        assert set(doc) == set(METRICS)
        assert doc["flip"] == {"metric": "flip", "skipped": ["the flip metric needs --model"]}

    def test_all_without_scores_skips_score_metrics(self, toy_csv, tmp_path):
        code, doc = self.audit(toy_csv, tmp_path, "all", "yhat=pred", "--condition-on", "x")
        assert code == EXIT_PARTIAL
        for name in (
            "balance_positive_class", "balance_negative_class", "auc_parity",
            "calibration_within_groups",
        ):
            assert doc[name] == {"metric": name, "skipped": ["this criterion needs scores"]}

    def test_all_without_decisions_skips_decision_metrics(self, toy_csv, tmp_path):
        code, doc = self.audit(toy_csv, tmp_path, "all", "score=score", "--condition-on", "x")
        assert code == EXIT_PARTIAL
        assert doc["demographic_parity"]["skipped"] == ["this criterion needs binary decisions"]
        assert doc["sep_suff_exclusion"]["skipped"] == ["this check needs binary decisions"]
        assert doc["consistency"]["skipped"] == ["consistency needs binary decisions"]
        assert doc["auc_parity"]["skipped"] == []

    @pytest.mark.parametrize(
        "metric, predictions, code, message",
        [
            ("cdp", "yhat=pred", EXIT_USAGE, "needs --condition-on"),
            ("flip", "yhat=pred", EXIT_USAGE, "needs --model"),
            ("auc_parity", "yhat=pred", EXIT_DATA, "this criterion needs scores"),
            ("eo", "score=score", EXIT_DATA, "this criterion needs binary decisions"),
        ],
    )
    def test_named_metric_keeps_exit_codes(
        self, toy_csv, tmp_path, capsys, metric, predictions, code, message
    ):
        assert self.audit(toy_csv, tmp_path, metric, predictions) == (code, None)
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "metric, extra, message",
        [
            ("cdp", ("--condition-on", "x", "--min-count", "0"),
             "min_count must be at least 1, got 0"),
            ("cdp", ("--condition-on", "x", "--min-count", "-4"),
             "min_count must be at least 1, got -4"),
            ("lipschitz_audit", ("--lipschitz-constant", "nan"),
             "the Lipschitz constant must be positive and finite, got nan"),
            ("lipschitz_audit", ("--max-pairs", "0"), "max_pairs must be at least 1, got 0"),
            ("lipschitz_audit", ("--max-pairs", "-3"), "max_pairs must be at least 1, got -3"),
            ("cdp", ("--condition-on", "nope"), "no feature column named 'nope'"),
        ],
    )
    def test_invalid_parameter_is_a_data_error(
        self, toy_csv, tmp_path, capsys, metric, extra, message
    ):
        predictions = "yhat=pred,score=score"
        assert self.audit(toy_csv, tmp_path, metric, predictions, *extra) == (EXIT_DATA, None)
        assert f"data error: {message}" in capsys.readouterr().err
        code, doc = self.audit(toy_csv, tmp_path, "all", predictions, *extra)
        assert code == EXIT_PARTIAL
        name = ALIASES.get(metric, metric)
        assert doc[name] == {"metric": name, "skipped": [message]}


class TestSynth:
    def test_small_n_and_header(self, tmp_path):
        out = tmp_path / "synth.csv"
        code = main(["synth", "--target", "high", "--n", "10", "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "A,X1,X2,X3,Y"
        assert len(lines) == 11

    def test_default_flags_emit_full_size(self, tmp_path):
        out = tmp_path / "synth.csv"
        code = main(["synth", "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 15001  # header + the default draw size

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", "--n", "200", "--seed", "7", "--output", str(a)])
        main(["synth", "--n", "200", "--seed", "7", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", "--n", "200", "--seed", "7", "--output", str(a)])
        main(["synth", "--n", "200", "--seed", "8", "--output", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_auto_noise_is_the_calibrated_reading(self, tmp_path):
        seed = derive_seed(7, "calibration")
        chosen = synth_experiment.calibrate_noise_interpretation(seed).chosen
        other = {"std": "variance", "variance": "std"}[chosen]
        files = {}
        for noise in ("auto", chosen, other):
            files[noise] = tmp_path / f"{noise}.csv"
            assert main(["synth", "--n", "200", "--seed", "7", "--noise", noise,
                         "--output", str(files[noise])]) == EXIT_OK
        assert files["auto"].read_bytes() == files[chosen].read_bytes()
        assert files["auto"].read_bytes() != files[other].read_bytes()


# sha256 of the model files that TestTrainCli.test_strategy_spellings writes,
# measured before the strategy spellings moved into one table
PINNED_MODELS = {
    "full": "f08c9965879b5261c6857eac69cb0fda95bc6580a61a01499a3241361c93122a",
    "ftu": "4c0813c724cbde8fb00045bc8767b44db2199dd4a7b1aea1dcf30df3e4618433",
    "dp": "5811c7a9f27c973b4fa36d23c592e833a878e5f17954d705ad2c844967e829ba",
    "cdp:X3": "99fa78ed82790ecda01dd67ce3f747a5ed6c719368793632056ba3ef869a4ded",
    "supp:0.05": "f0a75880b8369257ec1b6863fced265e9cf0490a055e2b2fabe43dd530e8fe70",
}

# (spelling, exit code, first stderr line with the model path as <model>)
STRATEGY_CASES = [
    ("full", EXIT_OK, "trained full model: 10 Newton iterations, "
     "final gradient norm 6.67e-12 -> <model>"),
    ("ftu", EXIT_OK, "trained ftu model: 7 Newton iterations, "
     "final gradient norm 2.37e-11 -> <model>"),
    ("dp", EXIT_OK, "trained dp_post model: 10 Newton iterations, "
     "final gradient norm 6.67e-12 -> <model>"),
    ("cdp:X3", EXIT_OK, "trained cdp_post model: 10 Newton iterations, "
     "final gradient norm 6.67e-12 -> <model>"),
    ("supp:0.05", EXIT_OK, "suppression dropped: X1 (|corr|=0.491), X3 (|corr|=0.578)"),
    *((s, EXIT_USAGE, "usage error: strategy must be full, ftu, "
       "supp:<threshold>, dp, or cdp:<column>")
      for s in ("magic", "supp", "full:x", "dp:", "")),
    ("supp:abc", EXIT_DATA, "data error: could not convert string to float: 'abc'"),
    ("supp:", EXIT_DATA, "data error: could not convert string to float: ''"),
    ("supp:2", EXIT_DATA, "data error: suppression threshold must lie in [0, 1]"),
    ("cdp:", EXIT_DATA, "data error: cdp_post needs a conditioning column"),
    ("cdp:nope", EXIT_DATA, "data error: \"no feature column named 'nope'\""),
    ("cdp:X1", EXIT_DATA, "data error: column 'X1' is continuous; bin it first (see quantile_bin)"),
]


class TestTrainCli:
    def synth_files(self, tmp_path, n=2500):
        data = tmp_path / "synth.csv"
        main(["synth", "--n", str(n), "--seed", "3", "--output", str(data)])
        schema = tmp_path / "schema.cfg"
        schema.write_text(
            "sensitive = A\ntarget = Y\ncontinuous = X1, X2\ncategorical = X3\n",
            encoding="utf-8",
        )
        return data, schema

    def test_ftu_then_flip_audit_is_100(self, tmp_path, capsys):
        data, schema = self.synth_files(tmp_path)
        model = tmp_path / "model.json"
        assert main(
            [
                "train",
                "--data", str(data),
                "--schema", str(schema),
                "--strategy", "ftu",
                "--model-out", str(model),
            ]
        ) == EXIT_OK
        out = tmp_path / "flip.json"
        code = main(
            [
                "audit",
                "--data", str(data),
                "--schema", str(schema),
                "--model", str(model),
                "--metrics", "flip",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["metrics"]["flip"]["flip_consistency"] == 1.0

    def test_suppression_reports_drops_on_stderr(self, tmp_path, capsys):
        data, schema = self.synth_files(tmp_path)
        model = tmp_path / "model.json"
        code = main(
            [
                "train",
                "--data", str(data),
                "--schema", str(schema),
                "--strategy", "supp:0.05",
                "--model-out", str(model),
            ]
        )
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "X1" in err and "X3" in err

    def test_dp_then_dp_audit_ratio_high(self, tmp_path):
        data, schema = self.synth_files(tmp_path)
        model = tmp_path / "model.json"
        main(
            [
                "train",
                "--data", str(data),
                "--schema", str(schema),
                "--strategy", "dp",
                "--model-out", str(model),
            ]
        )
        out = tmp_path / "dp.json"
        code = main(
            [
                "audit",
                "--data", str(data),
                "--schema", str(schema),
                "--model", str(model),
                "--metrics", "dp",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["metrics"]["demographic_parity"]["ratio"] >= 0.95

    @pytest.mark.parametrize("strategy, verb", [("dp", "lacks"), ("ftu", "holds")])
    def test_policy_that_disagrees_with_the_strategy_is_data_error(
        self, tmp_path, capsys, strategy, verb
    ):
        # a dp_post model without its policy would decide at score 0.5, not
        # by the thresholds it was fitted with
        data, schema = self.synth_files(tmp_path, n=800)
        dp, model = tmp_path / "dp.json", tmp_path / "model.json"
        assert self.train(data, schema, dp) == EXIT_OK
        assert self.train(data, schema, model, "--strategy", strategy) == EXIT_OK
        doc = json.loads(model.read_text())
        doc["policy"] = None if strategy == "dp" else json.loads(dp.read_text())["policy"]
        model.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        code = main(["audit", "--data", str(data), "--schema", str(schema),
                     "--model", str(model), "--metrics", "dp"])
        assert code == EXIT_DATA
        name = "dp_post" if strategy == "dp" else strategy
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"data error: {model}: a {name} model that {verb} a threshold policy\n"
        )

    def test_model_file_byte_deterministic(self, tmp_path):
        data, schema = self.synth_files(tmp_path, n=800)
        outs = []
        for name in ("m1.json", "m2.json"):
            path = tmp_path / name
            assert main(
                [
                    "train",
                    "--data", str(data),
                    "--schema", str(schema),
                    "--strategy", "full",
                    "--max-epochs", "300",
                    "--model-out", str(path),
                ]
            ) == EXIT_OK
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def train(self, data, schema, model, *extra):
        return main(
            [
                "train",
                "--data", str(data),
                "--schema", str(schema),
                "--strategy", "dp",
                "--model-out", str(model),
                *extra,
            ]
        )

    def test_converged_fit_is_recorded_without_warning(self, tmp_path, capsys):
        data, schema = self.synth_files(tmp_path, n=800)
        model = tmp_path / "model.json"
        assert self.train(data, schema, model) == EXIT_OK
        err = capsys.readouterr().err
        assert "Newton iterations" in err and "warning" not in err
        assert json.loads(model.read_text())["converged"] is True

    def test_zero_iterations_write_the_zero_model(self, tmp_path, capsys):
        data, schema = self.synth_files(tmp_path, n=200)
        model = tmp_path / "model.json"
        assert self.train(data, schema, model, "--max-epochs", "0") == EXIT_OK
        doc = json.loads(model.read_text())
        assert doc["epochs"] == 0 and doc["converged"] is False
        assert doc["weights"] == [0.0] * len(doc["weights"]) and doc["intercept"] == 0.0
        assert 0.0 < doc["final_grad_norm"] < 1.0
        assert "warning: training did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [("--max-epochs", "-1"), ("--max-epochs", "x"), ("--lr", "0.1")])
    def test_bad_training_options_are_usage_errors(self, tmp_path, extra):
        data, schema = self.synth_files(tmp_path, n=100)
        model = tmp_path / "model.json"
        assert self.train(data, schema, model, *extra) == EXIT_USAGE
        assert not model.exists()

    def test_separable_classes_warn(self, tmp_path, capsys):
        rows = ["g,x,y"]
        for i in range(40):  # x <= -6 where y = 0 and x >= 5 where y = 1
            y = int(i >= 20)
            rows.append(f"{'ab'[i % 2]},{i - 20 + (5 if y else -5)},{y}")
        data = tmp_path / "sep.csv"
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        schema = tmp_path / "schema.cfg"
        schema.write_text("sensitive = g\ntarget = y\ncontinuous = x\n", encoding="utf-8")
        model = tmp_path / "model.json"
        assert self.train(data, schema, model) == EXIT_OK
        assert "separate the classes" in capsys.readouterr().err
        doc = json.loads(model.read_text())
        assert doc["converged"] is False
        assert all(np.isfinite(doc["weights"]))

    def test_bad_strategy_is_usage_error(self, tmp_path):
        data, schema = self.synth_files(tmp_path, n=100)
        code = main(
            [
                "train",
                "--data", str(data),
                "--schema", str(schema),
                "--strategy", "magic",
                "--model-out", str(tmp_path / "m.json"),
            ]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "strategy, code, first_line", STRATEGY_CASES, ids=[repr(c[0]) for c in STRATEGY_CASES]
    )
    def test_strategy_spellings(self, tmp_path, capsys, strategy, code, first_line):
        data, schema = self.synth_files(tmp_path, n=800)
        model = tmp_path / "model.json"
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--schema", str(schema),
                     "--strategy", strategy, "--model-out", str(model)]) == code
        err = capsys.readouterr().err
        assert err.splitlines()[0].replace(str(model), "<model>") == first_line
        assert model.exists() == (code == EXIT_OK)
        if strategy in PINNED_MODELS:
            assert sha256(model) == PINNED_MODELS[strategy]

    def test_help_lists_the_strategies(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # one line per option
        with pytest.raises(SystemExit):
            main(["train", "-h"])
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.lstrip().startswith("--strategy")] == [
            "  --strategy STRATEGY   full | ftu | supp:<threshold> | dp | cdp:<column>"
        ]


class TestCounterfactualCli:
    def test_worked_example(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        save_scm(chain_scm(), path)
        code = main(
            [
                "counterfactual",
                "--scm", str(path),
                "--unit", "A=1,X=1.5",
                "--do", "A=0",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "counterfactual X = 0.5" in out

    def test_unwritable_output_prints_nothing(self, tmp_path, capsys):
        # the answer used to be printed before the file failed to be written
        path = tmp_path / "chain.json"
        save_scm(chain_scm(), path)
        folder = tmp_path / "folder"
        folder.mkdir()
        code = main(["counterfactual", "--scm", str(path), "--unit", "A=1,X=1.5",
                     "--do", "A=0", "--output", str(folder)])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error: ") and str(folder) in captured.err

    def test_factual_do_echoes_observation(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        save_scm(chain_scm(), path)
        code = main(
            [
                "counterfactual",
                "--scm", str(path),
                "--unit", "A=1,X=1.5",
                "--do", "A=1",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "counterfactual X = 1.5" in out

    def test_bad_pair_usage_error(self, tmp_path):
        path = tmp_path / "chain.json"
        save_scm(chain_scm(), path)
        assert main(
            ["counterfactual", "--scm", str(path), "--unit", "A:1", "--do", "A=0"]
        ) == EXIT_USAGE

    def test_held_mediator_stays_factual(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        save_scm(chain_scm(), path)
        code = main(
            [
                "counterfactual",
                "--scm", str(path),
                "--unit", "A=1,X=1.5",
                "--do", "A=0",
                "--hold", "X",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "counterfactual X = 1.5" in out  # held at its factual value
        assert "counterfactual A = 0" in out

    def test_non_finite_result_is_data_error(self, tmp_path, capsys):
        # a nan unit value abducts to nan means; strict JSON refuses to emit them
        path = tmp_path / "chain.json"
        save_scm(chain_scm(), path)
        report = tmp_path / "cf.json"
        code = main(
            [
                "counterfactual",
                "--scm", str(path),
                "--unit", "A=1,X=nan",
                "--do", "A=0",
                "--output", str(report),
            ]
        )
        assert code == EXIT_DATA
        assert not report.exists()
        assert "data error" in capsys.readouterr().err


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_unit_value_is_data_error(self, tmp_path, capsys, value):
        path = tmp_path / "chain.json"
        save_scm(chain_scm(), path)
        report = tmp_path / "cf.json"
        code = main(
            [
                "counterfactual",
                "--scm", str(path),
                "--unit", f"A=1,X={value}",
                "--do", "A=0",
                "--output", str(report),
            ]
        )
        assert code == EXIT_DATA
        assert not report.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a finite number" in captured.err

    def test_monte_carlo_answer_prints_stderr(self, tmp_path, capsys):
        scm = cap_scm()
        values, _ = simulate(scm, 1, seed=6)
        observed = {k: float(v[0]) for k, v in values.items()}
        path = tmp_path / "scm.json"
        save_scm(scm, path)
        unit = ",".join(f"{k}={v!r}" for k, v in observed.items())
        assert main(["counterfactual", "--scm", str(path), "--unit", unit, "--do", "A=1",
                     "--budget", "400", "--seed", "3"]) == EXIT_OK
        query = causal.CounterfactualQuery(observed, {"A": 1.0})
        result = causal.counterfactual(scm, query, 400, 3)
        assert not result.exact
        assert capsys.readouterr().out.splitlines() == [
            f"counterfactual {k} = {result.means[k]:g} (stderr {result.stderr[k]:.2g})"
            for k in scm.nodes
        ]

    @pytest.mark.parametrize("past_cap", [False, True])
    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_is_data_error(self, tmp_path, capsys, past_cap, budget):
        # the chain model is answered exactly and draws nothing; the cap
        # model has more random nodes than the exact path takes
        if past_cap:
            scm = cap_scm()
            values, _ = simulate(scm, 1, seed=6)
            unit = ",".join(f"{k}={float(v[0])!r}" for k, v in values.items())
            do = "A=1"
        else:
            scm, unit, do = chain_scm(), "A=1,X=1.5", "A=0"
        path, report = tmp_path / "scm.json", tmp_path / "cf.json"
        save_scm(scm, path)
        code = main(["counterfactual", "--scm", str(path), "--unit", unit, "--do", do,
                     "--budget", budget, "--output", str(report)])
        assert code == EXIT_DATA
        assert not report.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "data error: mc_budget must be at least 1" in captured.err


class TestExperimentCli:
    def test_two_synthetic_blocks_and_outputs(self, tmp_path, capsys):
        outdir = tmp_path / "exp"
        code = main(
            [
                "experiment",
                "--n", "800",
                "--noise", "std",
                "--seed", "2",
                "--out", str(outdir),
            ]
        )
        assert code == EXIT_OK
        csv_text = (outdir / "experiment.csv").read_text()
        assert "synthetic#1" in csv_text and "synthetic#2" in csv_text
        assert "adult" not in csv_text
        doc = json.loads((outdir / "experiment.json").read_text())
        assert set(doc["datasets"]) == {"synthetic#1", "synthetic#2"}

    @staticmethod
    def census_like(tmp_path, rows, seed):
        """A census-like file whose features are drawn independently of sex."""
        rng = np.random.default_rng(seed)
        lines = ["age,workclass,marital-status,sex,income"]
        for _ in range(rows):
            age = int(rng.integers(20, 70))
            wc = rng.choice(["private", "gov", "self"])
            ms = rng.choice(["married", "single"])
            sex = rng.choice(["m", "f"])
            inc = ">50K" if rng.random() < (0.4 if sex == "m" else 0.25) else "<=50K"
            lines.append(f"{age},{wc},{ms},{sex},{inc}")
        data = tmp_path / "census.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        schema = tmp_path / "census.cfg"
        schema.write_text(
            "sensitive = sex\ntarget = income\npositive = >50K\ncontinuous = age\n",
            encoding="utf-8",
        )
        return data, schema

    def test_failed_approach_leaves_the_rest_of_the_table(self, tmp_path, capsys):
        # on these 200 rows chance correlations with sex exceed Supp_l's 5%
        # threshold for every feature, so Supp_l has nothing left to train on
        data, schema = self.census_like(tmp_path, 200, 5)
        outdir = tmp_path / "exp"
        code = main(["experiment", "--adult", str(data), "--adult-schema", str(schema),
                     "--n", "600", "--noise", "std", "--seed", "5", "--out", str(outdir)])
        assert code == EXIT_PARTIAL
        reason = "all features dropped; the model would be degenerate"
        assert f"warning: adult Supp_l failed: {reason}" in capsys.readouterr().err
        doc = json.loads((outdir / "experiment.json").read_text())
        assert set(doc["datasets"]) == {"adult", "synthetic#1", "synthetic#2"}
        adult = doc["datasets"]["adult"]["approaches"]
        assert adult["Supp_l"] == {"failed": reason}
        assert all("ROC AUC" in adult[a] for a in ("FTU", "Supp_h", "CDP", "DP"))
        assert all("failed" not in cell for name, block in doc["datasets"].items()
                   if name != "adult" for cell in block["approaches"].values())
        rows = (outdir / "experiment.csv").read_text().splitlines()
        assert rows[0] == "dataset,metric,FTU,Supp_l,Supp_h,CDP,DP"
        for row in rows[2:6]:  # the adult block's metric rows
            cells = row.split(",")[2:]
            assert cells[1] == "" and all(cells[i] for i in (0, 2, 3, 4))
        assert all("" not in row.split(",")[2:] for row in rows[6:] if "U(Y;A)" not in row)

    def test_adult_like_file_adds_block(self, tmp_path):
        data, schema = self.census_like(tmp_path, 400, 4)
        outdir = tmp_path / "exp"
        code = main(
            [
                "experiment",
                "--adult", str(data),
                "--adult-schema", str(schema),
                "--adult-condition", "marital-status",
                "--n", "600",
                "--noise", "std",
                "--seed", "5",
                "--out", str(outdir),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads((outdir / "experiment.json").read_text())
        assert set(doc["datasets"]) == {"adult", "synthetic#1", "synthetic#2"}
        assert (
            doc["datasets"]["adult"]["approaches"]["FTU"]["Flip"] == 100.0
        )

    @pytest.mark.parametrize("noise", ["auto", "variance"])
    def test_adult_run_records_its_noise_reading(self, tmp_path, noise):
        # with --adult the calibration and the forced-noise note were dropped
        data, schema = self.census_like(tmp_path, 600, 4)
        docs = {}
        for name, adult in (("with", ["--adult", str(data), "--adult-schema", str(schema)]),
                            ("without", [])):
            outdir = tmp_path / name
            code = main(["experiment", *adult, "--n", "600", "--noise", noise,
                         "--seed", "5", "--out", str(outdir)])
            assert code == EXIT_OK
            docs[name] = json.loads((outdir / "experiment.json").read_text())
        with_adult, without = docs["with"], docs["without"]
        assert list(with_adult["datasets"]) == ["adult", "synthetic#1", "synthetic#2"]
        for key in ("noise_interpretation", "calibration", "notes"):
            assert with_adult[key] == without[key]
        assert (with_adult["calibration"] is None) == (noise != "auto")
        forced = "noise interpretation forced to 'variance'"
        assert (forced in with_adult["notes"]) == (noise == "variance")

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(
            [
                "audit",
                "--data", str(tmp_path / "nope.csv"),
                "--schema", str(tmp_path / "nope.cfg"),
                "--predictions", "yhat=p",
                "--metrics", "dp",
            ]
        )
        assert code == EXIT_DATA


class TestGlobalOptions:
    @pytest.mark.parametrize("command", ["synth", "audit"])
    def test_unusable_path_is_data_error(self, toy_csv, tmp_path, capsys, command):
        # a directory where a file is written or read
        data, schema = toy_csv
        folder = tmp_path / "folder"
        folder.mkdir()
        argv = {
            "synth": ["synth", "--n", "5", "--output", str(folder)],
            "audit": ["audit", "--data", str(folder), "--schema", str(schema),
                      "--predictions", "yhat=pred", "--metrics", "dp"],
        }[command]
        assert main(argv) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error: ") and str(folder) in captured.err

    def test_csv_format_flattens_report(self, toy_csv, tmp_path):
        data, schema = toy_csv
        out = tmp_path / "report.csv"
        code = main(
            [
                "audit",
                "--data", str(data),
                "--schema", str(schema),
                "--predictions", "yhat=pred",
                "--metrics", "dp",
                "--format", "csv",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "key,value"
        keys = {line.split(",", 1)[0] for line in lines[1:]}
        assert "metrics.demographic_parity.gap" in keys

    def test_csv_format_quotes_labels(self, tmp_path):
        # group labels with a comma, quotes and a line break: every record
        # parses back to its key and value
        labels = ("a,b", 'say "hi"', "two\nlines")
        data, schema = tmp_path / "odd.csv", tmp_path / "odd.schema"
        with open(data, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["g", "x", "pred"])
            for i in range(30):
                writer.writerow([labels[i % 3], i / 10, i % 2])
        schema.write_text("sensitive = g\ncontinuous = x\n", encoding="utf-8")
        common = ["audit", "--data", str(data), "--schema", str(schema),
                  "--predictions", "yhat=pred", "--metrics", "dp"]
        assert main([*common, "--output", str(tmp_path / "r.json")]) == EXIT_OK
        assert main([*common, "--format", "csv", "--output", str(tmp_path / "r.csv")]) == EXIT_OK
        doc = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        with open(tmp_path / "r.csv", encoding="utf-8", newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0] == ["key", "value"]
        # the JSON report's keys are sorted; the CSV keeps the report's order
        assert sorted(records[1:]) == sorted([k, str(v)] for k, v in _flatten_csv(doc))
        assert {f"metrics.demographic_parity.groups.{lab}" for lab in labels} <= {
            k for k, _ in records
        }

    def test_csv_lines_end_in_newline_and_quote_carriage_returns(self):
        fields = ("cr\rhere", "crlf\r\nhere", "plain", None, 1.5)
        line = _csv_text([fields])
        assert line.endswith(",plain,None,1.5\n")
        assert next(csv.reader(io.StringIO(line, newline=""))) == [str(f) for f in fields]

    def test_one_writer_ends_every_record_in_newline(self):
        # only each record's own ending loses its "\r": a field's is kept
        rows = [("head", "er"), ("crlf\r\nhere", 2), (), ("last", None)]
        text = _csv_text(rows)
        assert text == 'head,er\n"crlf\r\nhere",2\n\nlast,None\n'
        assert list(csv.reader(io.StringIO(text, newline=""))) == [
            [str(f) for f in row] for row in rows
        ]
        assert _csv_text([]) == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [True, False])
    def test_non_finite_report_value_is_data_error(
        self, toy_csv, tmp_path, monkeypatch, capsys, fmt, to_file
    ):
        data, schema = toy_csv
        monkeypatch.setattr(
            "fairaudit.individual_metrics.consistency", lambda *a, **k: float("nan")
        )
        out = tmp_path / "report.txt"
        argv = [
            "audit",
            "--data", str(data),
            "--schema", str(schema),
            "--predictions", "yhat=pred",
            "--metrics", "consistency",
            "--format", fmt,
        ]
        code = main(argv + (["--output", str(out)] if to_file else []))
        assert code == EXIT_DATA
        assert not out.exists()
        assert capsys.readouterr().out == ""

    def test_seed_env_override(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("FAIRAUDIT_SEED", "123")
        main(["synth", "--n", "50", "--output", str(a)])
        monkeypatch.delenv("FAIRAUDIT_SEED")
        main(["synth", "--n", "50", "--seed", "123", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_env_defaults_read_on_every_call(self, toy_csv, monkeypatch, capsys):
        data, schema = toy_csv
        argv = ["audit", "--data", str(data), "--schema", str(schema),
                "--predictions", "yhat=pred", "--metrics", "dp"]
        monkeypatch.setenv("FAIRAUDIT_FORMAT", "csv")
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("key,value\n")
        monkeypatch.delenv("FAIRAUDIT_FORMAT")
        assert main(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["n"] == 60

    def test_invalid_seed_env_is_usage_error(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "s.csv"
        monkeypatch.setenv("FAIRAUDIT_SEED", "abc")
        assert main(["synth", "--n", "5", "--output", str(out)]) == EXIT_USAGE
        assert "usage error: FAIRAUDIT_SEED='abc'" in capsys.readouterr().err
        assert not out.exists()
        # an explicit --seed does not read the variable
        assert main(["synth", "--n", "5", "--seed", "1", "--output", str(out)]) == EXIT_OK

    def test_invalid_format_env_is_usage_error(self, toy_csv, monkeypatch, capsys):
        data, schema = toy_csv
        monkeypatch.setenv("FAIRAUDIT_FORMAT", "xml")
        code = main(["audit", "--data", str(data), "--schema", str(schema),
                     "--predictions", "yhat=pred", "--metrics", "dp"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: FAIRAUDIT_FORMAT='xml'" in captured.err


def commands_without_format(tmp_path, toy_csv):
    """A valid argv of each subcommand that has no ``--format``, with the
    files it writes."""
    data, schema = toy_csv
    scm, model, cf, out = (tmp_path / f for f in ("chain.json", "m.json", "cf.json", "exp"))
    save_scm(chain_scm(), scm)
    return {
        "synth": (["synth", "--n", "20", "--output", str(tmp_path / "s.csv")],
                  [tmp_path / "s.csv"]),
        "train": (["train", "--data", str(data), "--schema", str(schema),
                   "--strategy", "full", "--model-out", str(model)], [model]),
        "counterfactual": (["counterfactual", "--scm", str(scm), "--unit", "A=1,X=1.5",
                            "--do", "A=0", "--output", str(cf)], [cf]),
        "experiment": (["experiment", "--n", "400", "--noise", "std", "--out", str(out)],
                       [out / "experiment.csv", out / "experiment.json"]),
    }


class TestOptionsPerSubcommand:
    @pytest.mark.parametrize("command, flag", [
        ("synth", "--format"),
        ("train", "--format"),
        ("train", "--output"),
        ("counterfactual", "--format"),
        ("experiment", "--format"),
        ("experiment", "--output"),
    ])
    def test_an_option_the_command_does_not_read_is_usage_error(
        self, toy_csv, tmp_path, capsys, command, flag
    ):
        argv, files = commands_without_format(tmp_path, toy_csv)[command]
        report = tmp_path / "r.json"
        value = "csv" if flag == "--format" else str(report)
        assert main([*argv, flag, value]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"usage error: unrecognized arguments: {flag} {value}" in captured.err
        assert not report.exists() and not any(f.exists() for f in files)

    @pytest.mark.parametrize("command", ["synth", "train", "counterfactual", "experiment"])
    def test_format_variable_is_read_by_audit_only(
        self, toy_csv, tmp_path, monkeypatch, capsys, command
    ):
        argv, files = commands_without_format(tmp_path, toy_csv)[command]
        runs = []
        for value in (None, "xml"):
            if value is None:
                monkeypatch.delenv("FAIRAUDIT_FORMAT", raising=False)
            else:
                monkeypatch.setenv("FAIRAUDIT_FORMAT", value)
            code = main(argv)
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err, [f.read_bytes() for f in files]))
            for f in files:
                f.unlink()
        assert runs[0][0] == EXIT_OK
        assert runs[1] == runs[0]

    def test_train_ignores_the_seed_variable(self, toy_csv, tmp_path, monkeypatch, capsys):
        argv, (model,) = commands_without_format(tmp_path, toy_csv)["train"]
        models = []
        for value in (None, "abc"):
            if value is None:
                monkeypatch.delenv("FAIRAUDIT_SEED", raising=False)
            else:
                monkeypatch.setenv("FAIRAUDIT_SEED", value)
            assert main(argv) == EXIT_OK
            models.append(model.read_bytes())
            model.unlink()
        assert models[1] == models[0]
        # an explicit --seed is still parsed as an integer
        assert main([*argv, "--seed", "abc"]) == EXIT_USAGE
        assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("command", ["synth", "audit", "counterfactual", "experiment"])
    def test_commands_that_read_the_seed_refuse_an_invalid_variable(
        self, toy_csv, tmp_path, monkeypatch, capsys, command
    ):
        if command == "audit":
            data, schema = toy_csv
            report = tmp_path / "report.json"
            argv, files = ["audit", "--data", str(data), "--schema", str(schema),
                           "--predictions", "yhat=pred", "--metrics", "dp",
                           "--output", str(report)], [report]
        else:
            argv, files = commands_without_format(tmp_path, toy_csv)[command]
        monkeypatch.setenv("FAIRAUDIT_SEED", "abc")
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: FAIRAUDIT_SEED='abc' is not an integer" in captured.err
        assert not any(f.exists() for f in files)

    def test_train_accepts_the_seed_it_does_not_read(self, toy_csv, tmp_path):
        # scripts pass one --seed to every command; training draws nothing
        argv, (model,) = commands_without_format(tmp_path, toy_csv)["train"]
        assert main(argv) == EXIT_OK
        unseeded = model.read_bytes()
        assert main([*argv, "--seed", "7"]) == EXIT_OK
        assert model.read_bytes() == unseeded


AUDIT_SCHEMA = "sensitive = A\ntarget = Y\ncategorical = X3\n"
# sha256 of the files below, measured before the audit criteria moved into
# one table; the table must reproduce them byte for byte
PINNED_AUDIT = {
    "data": "bbcd8825ae15c175da03684a31e87a21263c1ee5f636e282cc99994a51f9695b",
    "json": "8c11a7803ca950173e8fdd9832bc305c5693d33bbab4f39aecacc125e26d8910",
    "csv": "10eb8508cd8e2e94774ea497a4b7f47b5fdc8e1a5e815a82cc1a9834ca0df9ab",
    "decisions_only": "ed04773f199ff6ae867e17ef1dcbc90689aff2d18dece7a19bf4df83e398007e",
}
# sha256 of the --format csv report once fields that hold a comma are
# quoted: "csv" above pins the same records with their fields unquoted
PINNED_AUDIT_CSV_QUOTED = "12752158224e32ea343d6cf12894b374caadf92b8f07912fbf8f748e8c615fe0"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedAuditReports:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pinned")
        data, schema, model = root / "data.csv", root / "synth.schema", root / "model.json"
        schema.write_text(AUDIT_SCHEMA, encoding="utf-8")
        assert main(["synth", "--target", "high", "--n", "2000", "--seed", "0",
                     "--output", str(data)]) == EXIT_OK
        assert main(["train", "--data", str(data), "--schema", str(schema),
                     "--strategy", "dp", "--seed", "0", "--model-out", str(model)]) == EXIT_OK
        # a decisions column derived from X1, for an audit without scores
        lines = data.read_text(encoding="utf-8").splitlines()
        rows = [lines[0] + ",pred"] + [
            f"{line},{int(float(line.split(',')[1]) > 0.3)}" for line in lines[1:]
        ]
        decisions = root / "decisions.csv"
        decisions.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return root, data, schema, model, decisions

    def audit(self, files, data, out, *extra):
        root, _, schema, model, _ = files
        return main(["audit", "--data", str(data), "--schema", str(schema),
                     "--model", str(model), "--metrics", "all", "--condition-on", "X1",
                     "--output", str(root / out), *extra])

    def test_synthetic_data(self, files):
        assert sha256(files[1]) == PINNED_AUDIT["data"]

    def test_all_metrics_json(self, files):
        assert self.audit(files, files[1], "r.json") == EXIT_OK
        assert sha256(files[0] / "r.json") == PINNED_AUDIT["json"]

    def test_all_metrics_csv(self, files):
        # PINNED_AUDIT["csv"] hashes the records with their fields joined by
        # bare commas. Stratum labels and list values hold commas, so the
        # file quotes them: each record parses to two fields, and the fields
        # joined again hash to the pin. The file's own bytes, quoting and
        # line endings included, are pinned too.
        assert self.audit(files, files[1], "r.csv", "--format", "csv") == EXIT_OK
        assert sha256(files[0] / "r.csv") == PINNED_AUDIT_CSV_QUOTED
        with open(files[0] / "r.csv", encoding="utf-8", newline="") as fh:
            records = list(csv.reader(fh))
        assert {len(r) for r in records} == {2}
        joined = "".join(",".join(r) + "\n" for r in records).encode()
        assert hashlib.sha256(joined).hexdigest() == PINNED_AUDIT["csv"]

    def test_decisions_only_lists_skip_reasons(self, files):
        code = self.audit(files, files[4], "d.json", "--predictions", "yhat=pred")
        assert code == EXIT_PARTIAL
        assert sha256(files[0] / "d.json") == PINNED_AUDIT["decisions_only"]

    @staticmethod
    def stats_calls(monkeypatch):
        calls = []
        real = group_metrics.compute_group_stats

        def counted(*args):
            calls.append(args)
            return real(*args)

        for module in (group_metrics, incompatibility):
            monkeypatch.setattr(module, "compute_group_stats", counted)
        return calls

    def test_all_builds_group_stats_once(self, files, monkeypatch):
        calls = self.stats_calls(monkeypatch)
        assert self.audit(files, files[1], "r2.json") == EXIT_OK
        assert len(calls) == 1

    def test_group_stats_not_built_when_unread(self, files, monkeypatch):
        calls = self.stats_calls(monkeypatch)
        metrics = ("--metrics", "consistency,lipschitz_audit")
        assert self.audit(files, files[1], "r3.json", *metrics) == EXIT_OK
        assert calls == []

    # The pairwise metrics split their rows over threads; a small block
    # makes even these 2000 rows start every thread.
    @pytest.mark.parametrize("workers", sorted({1, 2, 3, 8, threads._usable_cpus()}))
    @pytest.mark.parametrize("block", [1 << 12, 1 << 21])
    def test_same_bytes_for_any_worker_count(self, files, monkeypatch, workers, block):
        monkeypatch.setattr(threads, "WORKERS", workers)
        monkeypatch.setattr(individual_metrics, "_PAIR_BLOCK", block)
        out = f"w{workers}-b{block}.json"
        assert self.audit(files, files[1], out) == EXIT_OK
        assert sha256(files[0] / out) == PINNED_AUDIT["json"]

    def test_flip_scores_the_unflipped_rows_once(self, files, monkeypatch):
        root, _, schema, model_path, decisions = files
        real, calls = modeling.predict, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(modeling, "predict", counted)
        assert self.audit(files, files[1], "m.json", "--metrics", "flip") == EXIT_OK
        assert len(calls) == 2  # the audited decisions, reused by flip; the flipped rows
        calls.clear()
        # With --predictions the audited decisions are the CSV's, so flip
        # scores the unflipped rows with the model itself.
        code = self.audit(files, decisions, "p.json", "--metrics", "flip", "--predictions", "yhat=pred")
        assert code == EXIT_OK and len(calls) == 2
        flip = json.loads((root / "p.json").read_text())["metrics"]["flip"]
        assert flip == json.loads((root / "m.json").read_text())["metrics"]["flip"]
        ds = load_csv(decisions, load_schema(schema), exclude=("pred",))
        model = modeling.load_model(model_path)
        csv_decisions = load_predictions(decisions, "pred")
        wrong = flip_assessment(ds, lambda d: real(model, d), decisions=csv_decisions)
        assert wrong.flip_rate != flip["flip_rate"]


def _same_report(got, want, path="report"):
    """Equal structure, exactly equal ints and strings, floats within 1e-12 relative.

    Means summed in another row order differ in their last bits, so a gap
    (a difference of two such means, of order one) may differ by 1e-16 or
    so however small it is: floats also pass within 1e-14 absolute. Lists
    of strings (flags, skipped cells) must match in order too: they name
    groups by label, in label order.
    """
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), path
        for k in want:
            _same_report(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _same_report(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and got == pytest.approx(want, rel=1e-12, abs=1e-14), path
    else:
        assert type(got) is type(want) and got == want, path


class TestRowOrderInvariance:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("order")
        data, schema, model = root / "data.csv", root / "synth.schema", root / "model.json"
        schema.write_text(AUDIT_SCHEMA, encoding="utf-8")
        assert main(["synth", "--target", "high", "--n", "1000", "--seed", "3",
                     "--output", str(data)]) == EXIT_OK
        assert main(["train", "--data", str(data), "--schema", str(schema),
                     "--strategy", "dp", "--seed", "0", "--model-out", str(model)]) == EXIT_OK
        return root, data.read_text(encoding="utf-8").splitlines(), schema, model

    def audit(self, files, lines, name):
        root, _, schema, model = files
        data, out = root / f"{name}.csv", root / f"{name}.json"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out.unlink(missing_ok=True)
        code = main(["audit", "--data", str(data), "--schema", str(schema),
                     "--model", str(model), "--metrics", "all", "--condition-on", "X1",
                     "--output", str(out)])
        return code, json.loads(out.read_text(encoding="utf-8")) if out.exists() else None

    # up to 141 rows the Lipschitz audit examines all pairs (its default
    # --max-pairs is 10000); above that it samples pairs by row index
    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 141), st.integers(0, 2**32 - 1))
    def test_permuted_rows_give_the_same_metrics(self, files, n, seed):
        header, body = files[1][0], files[1][1:]
        rng = np.random.default_rng(seed)
        rows = [body[i] for i in rng.choice(len(body), n, replace=False)]
        perm = rng.permutation(n)
        code, want = self.audit(files, [header] + rows, "rows")
        got_code, got = self.audit(files, [header] + [rows[i] for i in perm], "permuted")
        assert got_code == code
        if want is None:  # e.g. a one-group sample is a data error either way
            assert code == EXIT_DATA and got is None
            return
        lip = got["metrics"]["lipschitz_audit"]
        for key in ("worst_pairs", "zero_distance_witnesses"):  # row numbers, mapped back
            for pair in lip.get(key, []):
                pair[:2] = sorted(int(perm[i]) for i in pair[:2])
        _same_report(got, want)


# Run in a fresh interpreter: the package must serve a counterfactual query
# and decision and score audits without importing ``scipy.stats``, whose
# import alone costs about as much as the rest of start-up.
_NO_SCIPY_STATS = """
import sys
from importlib import resources

from fairaudit import cli

data, schema, out = sys.argv[1:4]
scm = resources.files("fairaudit") / "scm_models" / "synthetic_high.json"
codes = [
    cli.main(["counterfactual", "--scm", str(scm), "--unit", "A=1,X1=0.8,X2=-0.2,X3=1,Y=1",
              "--do", "A=0", "--budget", "500", "--output", out + "/cf.json"]),
    cli.main(["audit", "--data", data, "--schema", schema, "--predictions", "yhat=pred",
              "--metrics", "all", "--output", out + "/d.json"]),
    cli.main(["audit", "--data", data, "--schema", schema,
              "--predictions", "yhat=pred,score=score", "--metrics", "all",
              "--output", out + "/s.json"]),
]
print(codes, "scipy.stats" in sys.modules)
"""


def test_commands_do_not_import_scipy_stats(toy_csv, tmp_path):
    data, schema = toy_csv
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_STATS, str(data), str(schema), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == f"[{EXIT_OK}, {EXIT_PARTIAL}, {EXIT_PARTIAL}] False"
    assert json.loads((tmp_path / "s.json").read_text())["metrics"]["auc_parity"]["gap"] >= 0
