import json

import numpy as np
import pytest

from fairaudit.causal import save_scm
from fairaudit.cli import (
    ALIASES,
    EXIT_DATA,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    METRICS,
    build_parser,
    main,
)
from tests.test_causal import chain_scm


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

    def test_adult_like_file_adds_block(self, tmp_path):
        rng = np.random.default_rng(4)
        rows = ["age,workclass,marital-status,sex,income"]
        for _ in range(400):
            age = int(rng.integers(20, 70))
            wc = rng.choice(["private", "gov", "self"])
            ms = rng.choice(["married", "single"])
            sex = rng.choice(["m", "f"])
            inc = ">50K" if rng.random() < (0.4 if sex == "m" else 0.25) else "<=50K"
            rows.append(f"{age},{wc},{ms},{sex},{inc}")
        data = tmp_path / "census.csv"
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        schema = tmp_path / "census.cfg"
        schema.write_text(
            "sensitive = sex\ntarget = income\npositive = >50K\ncontinuous = age\n",
            encoding="utf-8",
        )
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

    def test_seed_env_override(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("FAIRAUDIT_SEED", "123")
        main(["synth", "--n", "50", "--output", str(a)])
        monkeypatch.delenv("FAIRAUDIT_SEED")
        main(["synth", "--n", "50", "--seed", "123", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()
