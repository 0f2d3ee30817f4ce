import hashlib
import json

import numpy as np
import pytest

import fairaudit.synth_experiment as se
from fairaudit.causal import sample
from fairaudit.cli import main
from fairaudit.data import Dataset, SensitiveAttribute, split
from fairaudit.individual_metrics import flip_assessment
from fairaudit.info_theory import symmetric_uncertainty_codes
from fairaudit.modeling import (
    CDP_POST,
    DP_POST,
    FTU,
    FULL,
    SUPPRESSION,
    MitigationSpec,
    fit_policy,
    predict,
    train,
)
from fairaudit.seeding import derive_seed
from fairaudit.synth_experiment import (
    APPROACHES,
    REFERENCE_U,
    SynthConfig,
    _flip_report,
    approach_spec,
    build_synth_scm,
    calibrate_noise_interpretation,
    generate,
    run_experiment,
    synthetic_datasets,
)


class TestGenerator:
    def test_analytic_cutoffs(self):
        high = build_synth_scm(SynthConfig(target="high"))
        low = build_synth_scm(SynthConfig(target="low"))
        assert high.assignments["Y"].cutoff == pytest.approx(2.625)
        assert low.assignments["Y"].cutoff == pytest.approx(0.625)
        assert "A" in high.assignments["Y"].coeffs
        assert "A" not in low.assignments["Y"].coeffs

    def test_generate_is_the_scm(self):
        cfg = SynthConfig(n=3000, target="high", seed=17)
        ds1 = generate(cfg)
        ds2 = sample(build_synth_scm(cfg), cfg.n, cfg.seed)
        assert np.array_equal(ds1.sensitive.values, ds2.sensitive.values)
        assert np.array_equal(ds1.target, ds2.target)
        for name in ("X1", "X2", "X3"):
            assert np.array_equal(ds1.feature(name).values, ds2.feature(name).values)

    def test_x2_uncorrelated_with_attribute(self):
        ds = generate(SynthConfig(n=15000, seed=18))
        corr = np.corrcoef(ds.feature("X2").values, ds.sensitive.values)[0, 1]
        assert -0.03 < corr < 0.03

    def test_x3_expectation(self):
        ds = generate(SynthConfig(n=15000, seed=19))
        assert ds.feature("X3").values.mean() == pytest.approx(0.75, abs=0.02)

    def test_base_rates_near_half(self):
        for target in ("high", "low"):
            ds = generate(SynthConfig(n=15000, target=target, seed=20))
            assert 0.4 <= ds.target.mean() <= 0.6

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_dropping_direct_term_decreases_dependence(self, seed):
        n = 15000
        uh = symmetric_uncertainty_codes(
            generate(SynthConfig(n=n, target="high", seed=seed)).target,
            generate(SynthConfig(n=n, target="high", seed=seed)).sensitive.values,
        )
        ul = symmetric_uncertainty_codes(
            generate(SynthConfig(n=n, target="low", seed=seed)).target,
            generate(SynthConfig(n=n, target="low", seed=seed)).sensitive.values,
        )
        assert ul < uh

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n=0)
        with pytest.raises(ValueError):
            SynthConfig(target="mid")
        with pytest.raises(ValueError):
            SynthConfig(noise_scale_interpretation="precision")


class TestCalibration:
    def test_returns_tag_with_evidence(self):
        out = calibrate_noise_interpretation(seed=0, n=4000)
        assert out.chosen in ("std", "variance")
        assert set(out.measured) == {"std", "variance"}
        assert out.reference == REFERENCE_U

    def test_deterministic(self):
        a = calibrate_noise_interpretation(seed=5, n=4000)
        b = calibrate_noise_interpretation(seed=5, n=4000)
        assert a == b

    def test_forced_interpretation_honoured(self):
        rep = run_experiment(seed=1, n=600, noise_interpretation="variance")
        assert rep.noise_interpretation == "variance"
        assert rep.calibration is None
        assert any("forced" in note for note in rep.notes)


@pytest.fixture(scope="module")
def report():
    return run_experiment(seed=3, n=1500)


class TestRunExperiment:

    def test_blocks_and_cells(self, report):
        assert [b.name for b in report.blocks] == ["synthetic#1", "synthetic#2"]
        for block in report.blocks:
            assert set(block.approaches) == set(APPROACHES)
            for cell in block.approaches.values():
                assert 0.0 <= cell.u_pred_attr <= 100.0
                assert 0.0 <= cell.dp_ratio <= 100.0
                assert cell.flip_rate + cell.flip_consistency == pytest.approx(100.0)

    def test_attribute_blind_approaches_never_flip(self, report):
        for block in report.blocks:
            for name in ("FTU", "Supp_l", "Supp_h"):
                assert block.approaches[name].flip_consistency == 100.0

    def test_auc_basis_matches_approach(self, report):
        for block in report.blocks:
            for name in ("FTU", "Supp_l", "Supp_h"):
                assert block.approaches[name].auc_basis == "scores"
            for name in ("CDP", "DP"):
                assert block.approaches[name].auc_basis == "decisions"

    def test_csv_layout(self, report):
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "dataset,metric,FTU,Supp_l,Supp_h,CDP,DP"
        assert len(lines) == 1 + 2 * 5  # per dataset: U(Y;A) + four metric rows
        assert lines[1].startswith("synthetic#1,U(Y;A),")
        for line in lines[1:]:
            dataset, metric, *cells = line.split(",")
            assert dataset in ("synthetic#1", "synthetic#2")
            for cell in cells:
                if cell:
                    float(cell)  # one-decimal numbers only

    def test_json_round_trip(self, report):
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert set(doc["datasets"]) == {"synthetic#1", "synthetic#2"}
        cell = doc["datasets"]["synthetic#1"]["approaches"]["FTU"]
        assert cell["Flip"] == 100.0

    def test_deterministic_given_seed(self):
        r1 = run_experiment(seed=9, n=600, noise_interpretation="std")
        r2 = run_experiment(seed=9, n=600, noise_interpretation="std")
        assert r1.to_csv() == r2.to_csv()
        assert json.dumps(r1.to_json_dict(), sort_keys=True) == json.dumps(
            r2.to_json_dict(), sort_keys=True
        )


class TestOneFitPerModel:
    def test_train_runs_once_per_distinct_model(self, monkeypatch):
        # per dataset: FTU, Supp_l, Supp_h, and one model shared by CDP and DP
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1].strategy)
            return train(*args, **kwargs)

        monkeypatch.setattr(se, "train", counted)
        run_experiment(seed=3, n=1500)
        assert calls == [FTU, SUPPRESSION, SUPPRESSION, CDP_POST] * 2

    def test_shared_model_equals_its_own_fit(self, monkeypatch):
        fitted = []

        def recorded(ds, model):
            fitted.append((ds, model))
            return fit_policy(ds, model)

        monkeypatch.setattr(se, "fit_policy", recorded)
        run_experiment(seed=3, n=1500)
        post = [(ds, m) for ds, m in fitted if m.spec.strategy in (DP_POST, CDP_POST)]
        assert [m.spec.strategy for _, m in post] == [CDP_POST, DP_POST] * 2
        for ds, model in post:
            own = train(ds, model.spec)
            assert own.spec == model.spec
            assert np.array_equal(own.weights, model.weights)
            assert own.intercept == model.intercept
            assert (own.epochs, own.final_grad_norm, own.converged) == (
                model.epochs, model.final_grad_norm, model.converged
            )
            assert own.encoder.to_json_dict() == model.encoder.to_json_dict()
            assert own.suppression == model.suppression

    @pytest.mark.parametrize("noise", ["std", "variance"])
    def test_flip_shortcut_equals_flip_assessment(self, noise):
        for name, ds, conditioning in synthetic_datasets(5, 3000, noise):
            train_ds, test_ds = split(ds, fraction=0.7, seed=derive_seed(5, f"split:{name}"))
            specs = [approach_spec(a, conditioning) for a in APPROACHES]
            for spec in specs + [MitigationSpec(FULL)]:  # FULL reads A without a policy
                model = train(train_ds, spec)
                policy = fit_policy(train_ds, model)
                assert _flip_report(model, policy, test_ds) == flip_assessment(
                    test_ds, lambda d: predict(model, d, policy)
                )

    def test_multi_group_attribute_is_still_refused(self):
        ds = generate(SynthConfig(n=600, seed=4))
        groups = np.arange(ds.n) % 3
        three = Dataset(
            ds.features, SensitiveAttribute("A", groups, ("a", "b", "c")), ds.target
        )
        model = train(three, approach_spec("FTU"))
        with pytest.raises(ValueError, match="non-binary"):
            _flip_report(model, None, three)


# sha256 of (experiment.csv, experiment.json) written by
# `fairaudit experiment --n 15000 --seed S` with the default noise choice
PINNED_OUTPUTS = {
    0: (
        "1344c4cae11e4061bf041cb3fcfbf2a2e49f6761d3956f4289637236d5986d4f",
        "b4e5a03e0ce864a51f2a073b61e1dfc01c73861e95588b49f1b645c51a68a2cf",
    ),
    1: (
        "ac36ada75e39ccf6e211c4621db6fe7211e70be412d7b921c62f77d743c73d6e",
        "69020f29a1ffd6f8bfe6bb95d06205e6e9a17cd95a2ba94bfe04c2b4b5291335",
    ),
    2: (
        "5f30d8e8b72592facdc68bf95fb40ddc5f75e4c08aab7502e68e5a89062f228d",
        "5efae84d92fd72eb7faf6231121edba918cf9d6e062f4442866d5603d0a597f1",
    ),
    3: (
        "b875530574bc36fac4f1950a760b8d1fc5459e5a7276ae79c15bcf708347937e",
        "4a89af7045cffc0557b3b4db37628de12a22d5c3ae990d15cdb85751bc0a3c21",
    ),
    4: (
        "aed624d859bff713fcf2d16a9a1c082082ad8c283e278f36276d426469902992",
        "5e252ce0d6f51419037ffa774c26405a2ea7487191adc29f3226656aadf528b3",
    ),
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("seed", sorted(PINNED_OUTPUTS))
    def test_experiment_files_byte_identical(self, seed, tmp_path, capsys):
        code = main(["experiment", "--n", "15000", "--seed", str(seed), "--out", str(tmp_path)])
        assert code == 0
        got = tuple(
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("experiment.csv", "experiment.json")
        )
        assert got == PINNED_OUTPUTS[seed]


def test_one_class_test_split_is_data_error(tmp_path, monkeypatch, capsys):
    # ROC AUC is undefined on a one-class split: exit 65, nothing written
    import fairaudit.synth_experiment as se

    real_split = se.split

    def negatives_only_test(ds, fraction, seed):
        train, test = real_split(ds, fraction=fraction, seed=seed)
        return train, test.take(np.flatnonzero(test.target == 0))

    monkeypatch.setattr(se, "split", negatives_only_test)
    code = main(["experiment", "--n", "400", "--noise", "std", "--out", str(tmp_path)])
    assert code == 65
    assert "one class" in capsys.readouterr().err
    assert not (tmp_path / "experiment.json").exists()
