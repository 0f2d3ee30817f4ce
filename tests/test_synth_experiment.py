import csv
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairaudit.synth_experiment as se
from fairaudit import modeling, threads
from fairaudit.causal import sample
from fairaudit.cli import main
from fairaudit.data import (
    CONTINUOUS,
    Dataset,
    FeatureColumn,
    PredictionSet,
    SensitiveAttribute,
    split,
)
from fairaudit.group_metrics import demographic_parity
from fairaudit.individual_metrics import flip_assessment
from fairaudit.info_theory import symmetric_uncertainty_codes
from fairaudit.modeling import (
    CDP_POST,
    DP_POST,
    FTU,
    FULL,
    SUPPRESSION,
    MitigationSpec,
    predict,
    train,
)
from fairaudit.seeding import derive_seed
from fairaudit.synth_experiment import (
    APPROACHES,
    REFERENCE_U,
    FailedApproach,
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

    def test_csv_quotes_a_dataset_name_with_a_comma(self):
        (_, ds, cond), _ = se.synthetic_datasets(4, 600, "std")
        rep = run_experiment([("site a, 2020", ds, cond)], seed=4, noise_interpretation="std")
        rows = list(csv.reader(io.StringIO(rep.to_csv(), newline="")))
        assert rows[0] == ["dataset", "metric", "FTU", "Supp_l", "Supp_h", "CDP", "DP"]
        assert len(rows) == 1 + 5 and all(len(row) == 7 for row in rows)
        assert {row[0] for row in rows[1:]} == {"site a, 2020"}

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


def of_rows(log, *targets):
    """The entries of ``log``, ``(target, entry)`` pairs in call order, of
    the calls that read rows with one of ``targets``.

    The experiment runs its datasets on worker threads, so the calls of
    different datasets interleave; a call is told apart by its rows.
    """
    return [entry for t, entry in log if any(np.array_equal(t, want) for want in targets)]


def experiment_splits(seed, n, report):
    """``(conditioning, train rows, test rows)`` of each dataset of
    ``report``, the report of ``run_experiment(seed=seed, n=n)``."""
    for name, ds, conditioning in synthetic_datasets(seed, n, report.noise_interpretation):
        yield conditioning, *split(ds, fraction=0.7, seed=derive_seed(seed, f"split:{name}"))


class TestOneFitPerModel:
    def test_train_runs_once_per_distinct_model(self, monkeypatch):
        # per dataset: FTU, Supp_l, Supp_h, and one fit shared by CDP and DP
        fits = []

        def counted(x, y, hyper):
            fits.append((y, x.shape[1]))
            return newton(x, y, hyper)

        newton = modeling._newton
        monkeypatch.setattr(modeling, "_newton", counted)
        report = run_experiment(seed=3, n=1500)
        splits = list(experiment_splits(3, 1500, report))
        for _, train_ds, _ in splits:
            # design columns: X1, X2 and X3's two levels; X2; X2 and X3;
            # and all four with the attribute's two levels
            assert of_rows(fits, train_ds.target) == [4, 1, 3, 6]
        assert len(fits) == 4 * len(splits)

    def test_shared_model_equals_its_own_fit(self, monkeypatch):
        # DP and CDP share one fit and one global scan: the models, with
        # their policies, must be those of each one's own fit
        trained = []

        def recorded(ds, *args, **kwargs):
            model = train(ds, *args, **kwargs)
            trained.append((ds.target, model))
            return model

        monkeypatch.setattr(se, "train", recorded)
        report = run_experiment(seed=3, n=1500)
        splits = list(experiment_splits(3, 1500, report))
        assert len(trained) == 5 * len(splits)
        for conditioning, train_ds, _ in splits:
            models = of_rows(trained, train_ds.target)
            assert [m.spec.strategy for m in models] == [
                FTU, SUPPRESSION, SUPPRESSION, CDP_POST, DP_POST
            ]
            shared_cdp, shared_dp = models[3:]
            own_cdp, own_dp = (
                train(train_ds, approach_spec(a, conditioning)) for a in ("CDP", "DP")
            )
            for shared, own in ((shared_cdp, own_cdp), (shared_dp, own_dp)):
                assert np.array_equal(shared.weights, own.weights)
                assert shared.intercept == own.intercept
                assert (shared.epochs, shared.final_grad_norm, shared.converged) == (
                    own.epochs, own.final_grad_norm, own.converged
                )
                assert shared.encoder.to_json_dict() == own.encoder.to_json_dict()
                assert shared.policy == own.policy
            assert shared_cdp.policy.stratum_column == conditioning
            assert shared_cdp.policy.target_rate == shared_dp.policy.target_rate
            assert shared_dp.policy.stratum_column is None

    @pytest.mark.parametrize("noise", ["std", "variance"])
    def test_flip_shortcut_equals_flip_assessment(self, noise):
        for name, ds, conditioning in synthetic_datasets(5, 3000, noise):
            train_ds, test_ds = split(ds, fraction=0.7, seed=derive_seed(5, f"split:{name}"))
            specs = [approach_spec(a, conditioning) for a in APPROACHES]
            for spec in specs + [MitigationSpec(FULL)]:  # FULL reads A without a policy
                model = train(train_ds, spec)
                assert _flip_report(
                    model, test_ds, predict(model, test_ds).decisions
                ) == flip_assessment(test_ds, lambda d: predict(model, d))

    def test_multi_group_attribute_is_still_refused(self):
        ds = generate(SynthConfig(n=600, seed=4))
        groups = np.arange(ds.n) % 3
        three = Dataset(
            ds.features, SensitiveAttribute("A", groups, ("a", "b", "c")), ds.target
        )
        model = train(three, approach_spec("FTU"))
        with pytest.raises(ValueError, match="non-binary"):
            _flip_report(model, three, predict(model, three).decisions)


class TestEachPieceOnce:
    def test_scorings_scans_and_correlations_per_dataset(self, monkeypatch):
        scored, scans, correlated = [], [], []

        def counted(log, fn, entry):
            def wrapper(*args, **kwargs):
                log.append(entry(*args))
                return fn(*args, **kwargs)
            return wrapper

        # each entry is (the target of the rows read, what is checked);
        # predict scores through modeling.score
        monkeypatch.setattr(
            modeling, "score",
            counted(scored, modeling.score, lambda m, ds: (ds.target, (m, ds))),
        )
        scan = counted(
            scans, modeling.fit_dp_threshold_scores,
            lambda scores, groups, n_groups, target, *_: (target, len(scores)),
        )
        monkeypatch.setattr(modeling, "fit_dp_threshold_scores", scan)
        monkeypatch.setattr(
            modeling, "_feature_corr",
            counted(correlated, modeling._feature_corr, lambda ds, col: (ds.target, col.name)),
        )
        report = run_experiment(seed=3, n=1500)

        def rows(ds, test_ds):
            groups = ds.sensitive.values
            if np.array_equal(groups, test_ds.sensitive.values):
                return "test"
            assert np.array_equal(groups, 1 - test_ds.sensitive.values)
            return "flipped"

        splits = list(experiment_splits(3, 1500, report))
        assert len(scored) == 7 * len(splits)
        for _, train_ds, test_ds in splits:
            # the flipped test rows have the test rows' target
            got = [(m.spec.strategy, rows(d, test_ds)) for m, d in of_rows(scored, test_ds.target)]
            # FTU and both suppressions on the test rows, whose decisions a
            # flip cannot change; CDP and DP each on the test and flipped
            # test rows (the train-row scores come from the fit itself)
            assert got == [
                (FTU, "test"), (SUPPRESSION, "test"), (SUPPRESSION, "test"),
                (CDP_POST, "test"), (CDP_POST, "flipped"),
                (DP_POST, "test"), (DP_POST, "flipped"),
            ]
            # one global DP scan, then one per X3 stratum
            x3 = train_ds.feature("X3").values
            stratum_targets = [train_ds.target[x3 == s] for s in np.unique(x3)]
            strata = np.bincount(x3)
            assert of_rows(scans, train_ds.target, *stratum_targets) == [
                train_ds.n, *strata.tolist()
            ]
            assert of_rows(correlated, train_ds.target) == ["X1", "X2", "X3"]
        assert len(scans) == 3 * len(splits)
        assert len(correlated) == 3 * len(splits)


@pytest.mark.filterwarnings("ignore:dataset has 0 rows")
@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda g: st.tuples(
            st.just(g),
            st.lists(
                st.tuples(st.integers(0, g - 1), st.integers(0, 1), st.integers(0, 1)),
                max_size=40,
            ),
        )
    )
)
def test_target_less_dp_ratio_is_the_full_one(case):
    # the experiment takes the DP ratio from a dataset without a target or
    # features; groups without rows, groups where none is accepted, no rows
    n_groups, rows = case
    groups = np.array([g for g, _, _ in rows], dtype=int)
    decisions = np.array([d for _, d, _ in rows], dtype=int)
    sensitive = SensitiveAttribute("A", groups, tuple(f"g{k}" for k in range(n_groups)))
    full = Dataset(
        (FeatureColumn("x", CONTINUOUS, np.zeros(len(rows))),),
        sensitive,
        np.array([y for _, _, y in rows], dtype=int),
    )
    want = demographic_parity(full, PredictionSet(decisions))
    got = demographic_parity(Dataset((), sensitive), PredictionSet(decisions))
    assert got.ratio == want.ratio
    assert got.groups == want.groups


def three_datasets(seed):
    """The two synthetic datasets and a third whose CDP approach fails: its
    conditioning column is continuous."""
    (_, high, _), (_, low, _) = synthetic_datasets(seed, 1500, "std")
    return [("synthetic#1", high, "X3"), ("other", low, "X1"), ("synthetic#2", low, "X3")]


class TestWorkerCount:
    @pytest.mark.parametrize("seed", [3, 8, 21])
    def test_same_bytes_for_any_worker_count(self, monkeypatch, seed):
        def files(datasets=None):
            rep = run_experiment(datasets, seed=seed, n=1500)
            return rep.to_csv(), json.dumps(rep.to_json_dict(), indent=2, sort_keys=True)

        got = {}
        for workers in (1, 2, 3, 8):
            monkeypatch.setattr(threads, "WORKERS", workers)
            got[workers] = (files(), files(three_datasets(seed)))
        assert all(v == got[1] for v in got.values())
        report = run_experiment(three_datasets(seed), seed=seed)
        assert isinstance(report.blocks[1].approaches["CDP"], FailedApproach)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_first_one_class_dataset_raises(self, monkeypatch, workers):
        real_split = se.split

        def one_class_when_odd(ds, fraction, seed):
            train_ds, test_ds = real_split(ds, fraction=fraction, seed=seed)
            if ds.n % 2:
                test_ds = test_ds.take(np.flatnonzero(test_ds.target == 0))
            return train_ds, test_ds

        monkeypatch.setattr(threads, "WORKERS", workers)
        monkeypatch.setattr(se, "split", one_class_when_odd)
        (_, ds, _), _ = synthetic_datasets(4, 1500, "std")
        odd = ds.take(np.arange(1499))
        datasets = [("first", odd, "X3"), ("synthetic#1", ds, "X3"), ("third", odd, "X3")]
        with pytest.raises(ValueError) as err:
            run_experiment(datasets, seed=4)
        assert str(err.value) == "first: the test split holds one class, so ROC AUC is undefined"


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
