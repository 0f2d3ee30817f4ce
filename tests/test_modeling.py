import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import minimize

from fairaudit.data import (
    CATEGORICAL,
    CONTINUOUS,
    Dataset,
    FeatureColumn,
    PredictionSet,
    SensitiveAttribute,
)
from fairaudit.group_metrics import ThresholdPolicy, apply_threshold, demographic_parity
from fairaudit import modeling
from fairaudit.individual_metrics import flip_assessment
from fairaudit.modeling import (
    CDP_POST,
    DP_POST,
    FTU,
    FULL,
    SUPPRESSION,
    ClassifierModel,
    MitigationSpec,
    TrainConfig,
    _encode,
    _Encoder,
    _fit_encoder,
    _mean_log_loss,
    _sigmoid,
    fit_cdp_threshold,
    fit_dp_threshold,
    fit_dp_threshold_scores,
    load_model,
    log_loss_gradient,
    predict,
    save_model,
    score,
    train,
)
from fairaudit.synth_experiment import SynthConfig, generate


def simple_ds(n=200, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, n)
    x = rng.normal(size=n) + 0.8 * a
    y = (x + rng.normal(0, 1.5, n) > 0.4).astype(int)
    sa = SensitiveAttribute("g", a, ("g0", "g1"))
    return Dataset((FeatureColumn("x", CONTINUOUS, x),), sa, target=y)


class TestTraining:
    def test_deterministic_bit_identical(self):
        ds = simple_ds()
        m1 = train(ds, MitigationSpec(FULL))
        m2 = train(ds, MitigationSpec(FULL))
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.intercept == m2.intercept

    def test_linearly_separable_two_points(self):
        sa = SensitiveAttribute("g", np.array([0, 1]), ("g0", "g1"))
        ds = Dataset(
            (FeatureColumn("x", CONTINUOUS, np.array([-1.0, 1.0])),),
            sa,
            target=np.array([0, 1]),
        )
        model = train(ds, MitigationSpec(FTU), TrainConfig(max_epochs=2000))
        preds = predict(model, ds)
        assert np.array_equal(preds.decisions, ds.target)

    def test_needs_target(self):
        ds = simple_ds()
        no_target = Dataset(ds.features, ds.sensitive)
        with pytest.raises(ValueError, match="target"):
            train(no_target, MitigationSpec(FTU))

    def test_all_features_dropped_degenerate(self):
        ds = simple_ds()
        with pytest.raises(ValueError, match="degenerate"):
            train(ds, MitigationSpec(FTU, drop_features=("x",)))

    def test_gradient_norm_small_at_optimum(self):
        # noisy, non-separable data so the loss has an interior minimum
        ds = simple_ds(n=500, seed=3)
        model = train(ds, MitigationSpec(FULL), TrainConfig(max_epochs=20000, tol=1e-8))
        assert model.final_grad_norm <= 1e-6

    def test_analytic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, 40).astype(float)
        eps = 1e-6
        for _ in range(5):
            w = rng.normal(size=3)
            b = float(rng.normal())
            gw, gb = log_loss_gradient(x, y, w, b)

            def loss(wv, bv):
                z = x @ wv + bv
                p = 1.0 / (1.0 + np.exp(-z))
                return -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))

            fd = np.empty(3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = eps
                fd[j] = (loss(w + e, b) - loss(w - e, b)) / (2 * eps)
            fdb = (loss(w, b + eps) - loss(w, b - eps)) / (2 * eps)
            assert np.abs(fd - gw).max() / max(np.abs(gw).max(), 1e-12) <= 1e-4
            assert abs(fdb - gb) / max(abs(gb), 1e-12) <= 1e-4


class TestSuppression:
    def test_drops_group_correlated_features_on_synth(self):
        ds = generate(SynthConfig(n=4000, target="high", seed=7))
        model = train(ds, MitigationSpec(SUPPRESSION, threshold=0.05))
        dropped = {name for name, _ in model.suppression.dropped}
        assert dropped == {"X1", "X3"}
        assert model.suppression.kept == ("X2",)
        corr = dict(model.suppression.dropped)
        assert corr["X1"] > 0.05 and corr["X3"] > 0.05

    def test_explicit_drop_list(self):
        ds = generate(SynthConfig(n=2000, target="high", seed=8))
        model = train(
            ds, MitigationSpec(SUPPRESSION, threshold=0.66, drop_features=("X1",))
        )
        dropped = {name for name, _ in model.suppression.dropped}
        assert dropped == {"X1"}
        assert set(model.suppression.kept) == {"X2", "X3"}

    def test_ftu_and_suppression_never_flip(self):
        ds = generate(SynthConfig(n=4000, target="high", seed=9))
        for spec in (
            MitigationSpec(FTU),
            MitigationSpec(SUPPRESSION, threshold=0.05),
        ):
            model = train(ds, spec)
            assert not model.trained_with_sensitive
            rep = flip_assessment(ds, lambda d: predict(model, d))
            assert rep.flip_consistency == 1.0

    def test_full_model_uses_sensitive(self):
        ds = simple_ds()
        model = train(ds, MitigationSpec(FULL))
        assert model.trained_with_sensitive


class TestPredict:
    def test_zero_weights_boundary_convention(self):
        ds = simple_ds(n=10)
        model = train(ds, MitigationSpec(FTU), TrainConfig(max_epochs=0))
        preds = predict(model, ds)
        assert np.all(preds.scores == 0.5)
        assert np.all(preds.decisions == 1)  # accept at score >= threshold

    def test_monotone_in_positive_weight(self):
        ds = simple_ds(n=300, seed=5)
        model = train(ds, MitigationSpec(FTU))
        w = model.weights[0]
        assert w > 0
        base = predict(model, ds).scores
        shifted = Dataset(
            (FeatureColumn("x", CONTINUOUS, ds.feature("x").values + 0.5),),
            ds.sensitive,
            ds.target,
        )
        assert np.all(predict(model, shifted).scores >= base)

    def test_unseen_categorical_code_rejected(self):
        sa = SensitiveAttribute("g", np.array([0, 1, 0, 1]), ("g0", "g1"))
        col = FeatureColumn("c", CATEGORICAL, np.array([0, 1, 0, 1]), ("u", "v"))
        ds = Dataset((col,), sa, target=np.array([0, 1, 0, 1]))
        model = train(ds, MitigationSpec(FTU), TrainConfig(max_epochs=10))
        bigger = Dataset(
            (FeatureColumn("c", CATEGORICAL, np.array([0, 1, 2, 0]), ("u", "v", "w")),),
            sa,
            target=ds.target,
        )
        with pytest.raises(ValueError, match="unseen"):
            predict(model, bigger)

    def test_unseen_intermediate_code_rejected(self):
        # training saw codes {0, 2} only; code 1 is unseen even though it
        # lies inside the training code range
        sa = SensitiveAttribute("g", np.array([0, 1, 0, 1]), ("g0", "g1"))
        col = FeatureColumn("c", CATEGORICAL, np.array([0, 2, 0, 2]), ("u", "v", "w"))
        ds = Dataset((col,), sa, target=np.array([0, 1, 0, 1]))
        model = train(ds, MitigationSpec(FTU), TrainConfig(max_epochs=10))
        middle = Dataset(
            (FeatureColumn("c", CATEGORICAL, np.array([0, 1, 2, 0]), ("u", "v", "w")),),
            sa,
            target=ds.target,
        )
        with pytest.raises(ValueError, match="unseen categorical code 1"):
            predict(model, middle)


class TestDpThreshold:
    def test_quantile_arithmetic_at_half(self):
        # rates 0, 0.5 and 1; only 0.5 accepts exactly the positives
        scores = np.array([0.1, 0.4, 0.6, 0.9, 0.2, 0.3, 0.5, 0.7])
        groups = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        target = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        policy = fit_dp_threshold_scores(scores, groups, 2, target, grid_size=2)
        assert policy.target_rate == 0.5
        cells = {g: policy.threshold(g) for g in (0, 1)}
        accepted0 = sorted(s for s, g in zip(scores, groups) if g == 0 and s >= cells[0])
        accepted1 = sorted(s for s, g in zip(scores, groups) if g == 1 and s >= cells[1])
        assert accepted0 == [0.6, 0.9]
        assert accepted1 == [0.5, 0.7]

    def test_accept_nobody_at_zero_rate(self):
        scores = np.array([0.2, 0.9, 0.4, 0.8])
        groups = np.array([0, 0, 1, 1])
        policy = fit_dp_threshold_scores(scores, groups, 2, np.zeros(4, dtype=int), grid_size=2)
        assert policy.target_rate == 0.0
        assert not np.any(scores[groups == 0] >= policy.threshold(0))
        assert not np.any(scores[groups == 1] >= policy.threshold(1))

    def test_fair_accurate_model_is_fixed_point(self):
        # a model that is already accurate and acceptance-balanced keeps
        # its acceptance rate and accuracy under the fitted policy
        rng = np.random.default_rng(10)
        n = 1000
        a = rng.integers(0, 2, n)
        x = rng.normal(size=n)
        y = (x > 0).astype(int)
        sa = SensitiveAttribute("g", a, ("g0", "g1"))
        ds = Dataset((FeatureColumn("x", CONTINUOUS, x),), sa, target=y)
        model = train(ds, MitigationSpec(FULL), TrainConfig(max_epochs=4000))
        base = predict(model, ds)
        policy = fit_dp_threshold(ds, model, grid_size=100)
        out = predict(model, ds, policy)
        base_acc = (base.decisions == y).mean()
        out_acc = (out.decisions == y).mean()
        assert out_acc >= base_acc - 0.01
        assert abs(out.decisions.mean() - base.decisions.mean()) <= 0.02

    def test_gap_bounded_by_min_group_size(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = 400
            a = rng.integers(0, 2, n)
            x = rng.normal(size=n) + 0.7 * a
            y = (x + rng.normal(0, 1, n) > 0.3).astype(int)
            sa = SensitiveAttribute("g", a, ("g0", "g1"))
            ds = Dataset((FeatureColumn("x", CONTINUOUS, x),), sa, target=y)
            model = train(ds, MitigationSpec(FULL), TrainConfig(max_epochs=800))
            policy = fit_dp_threshold(ds, model)
            preds = predict(model, ds, policy)
            rep = demographic_parity(ds, preds)
            bound = 1.0 / min((a == 0).sum(), (a == 1).sum())
            assert rep.gap <= bound + 1e-12

    def test_needs_target(self):
        ds = simple_ds()
        model = train(ds, MitigationSpec(FULL), TrainConfig(max_epochs=50))
        no_target = Dataset(ds.features, ds.sensitive)
        with pytest.raises(ValueError, match="target"):
            fit_dp_threshold(no_target, model)


class TestCdpThreshold:
    def stratified_ds(self, n=1200, seed=12):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, n)
        s = rng.integers(0, 2, n)
        x = rng.normal(size=n) + 0.6 * a + 0.4 * s
        y = (x + rng.normal(0, 1, n) > 0.5).astype(int)
        sa = SensitiveAttribute("g", a, ("g0", "g1"))
        cols = (
            FeatureColumn("x", CONTINUOUS, x),
            FeatureColumn("s", CATEGORICAL, s, ("s0", "s1")),
        )
        return Dataset(cols, sa, target=y)

    def test_constant_conditioning_equals_global(self):
        ds = self.stratified_ds()
        const = Dataset(
            (
                ds.features[0],
                FeatureColumn("s", CATEGORICAL, np.zeros(ds.n, dtype=int), ("only",)),
            ),
            ds.sensitive,
            ds.target,
        )
        model = train(const, MitigationSpec(FULL), TrainConfig(max_epochs=800))
        glob = fit_dp_threshold(const, model)
        cdp = fit_cdp_threshold(const, model, "s", min_count=1)
        for g in (0, 1):
            assert cdp.threshold(g, 0) == glob.threshold(g)

    def test_within_stratum_parity_bound(self):
        ds = self.stratified_ds()
        model = train(ds, MitigationSpec(FULL), TrainConfig(max_epochs=800))
        policy = fit_cdp_threshold(ds, model, "s", min_count=10)
        preds = predict(model, ds, policy)
        codes, _ = ds.column_codes("s")
        for st in (0, 1):
            m = codes == st
            cell_counts = [
                ((ds.sensitive.values == g) & m).sum() for g in (0, 1)
            ]
            pprs = [
                preds.decisions[m & (ds.sensitive.values == g)].mean() for g in (0, 1)
            ]
            assert abs(pprs[0] - pprs[1]) <= 1.0 / min(cell_counts) + 1e-12

    def test_small_strata_fall_back_flagged(self):
        ds = self.stratified_ds(n=300)
        model = train(ds, MitigationSpec(FULL), TrainConfig(max_epochs=400))
        policy = fit_cdp_threshold(ds, model, "s", min_count=10**6)
        assert policy.fallback_cells
        assert any("min_count" in f for f in policy.flags)
        for g in (0, 1):
            for st in (0, 1):
                assert policy.threshold(g, st) == policy.threshold(g, 1 - st)

    def test_unknown_column(self):
        ds = self.stratified_ds()
        model = train(ds, MitigationSpec(FULL), TrainConfig(max_epochs=10))
        with pytest.raises(KeyError):
            fit_cdp_threshold(ds, model, "nope")

    def test_overall_disparity_survives_stratum_parity(self):
        # the strata have opposite group mixes (one group never appears in
        # one stratum), so equal within-stratum acceptance still leaves the
        # overall acceptance rates far apart
        ds = generate(SynthConfig(n=6000, target="high", seed=23))
        model = train(ds, MitigationSpec(FULL), TrainConfig(max_epochs=1500))
        policy = fit_cdp_threshold(ds, model, "X3")
        preds = predict(model, ds, policy)
        codes, _ = ds.column_codes("X3")
        for st in (0, 1):
            m = codes == st
            counts = [((ds.sensitive.values == g) & m).sum() for g in (0, 1)]
            if min(counts) == 0:
                continue
            pprs = [preds.decisions[m & (ds.sensitive.values == g)].mean() for g in (0, 1)]
            assert abs(pprs[0] - pprs[1]) <= 1.0 / min(counts) + 1e-12
        rep = demographic_parity(ds, preds)
        assert rep.gap > 0.1  # conditioning on X3 does not deliver plain parity


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        ds = generate(SynthConfig(n=800, target="low", seed=13))
        model = train(ds, MitigationSpec(DP_POST), TrainConfig(max_epochs=400))
        policy = fit_dp_threshold(ds, model)
        path = tmp_path / "model.json"
        save_model(model, path, policy)
        loaded, loaded_policy = load_model(path)
        p1 = predict(model, ds, policy)
        p2 = predict(loaded, ds, loaded_policy)
        assert np.array_equal(p1.decisions, p2.decisions)
        assert np.allclose(p1.scores, p2.scores)
        assert loaded.spec.strategy == DP_POST

    def test_cdp_policy_round_trip(self, tmp_path):
        ds = generate(SynthConfig(n=1500, target="high", seed=15))
        model = train(ds, MitigationSpec(CDP_POST, conditioning="X3"), TrainConfig(max_epochs=300))
        policy = fit_cdp_threshold(ds, model, "X3")
        path = tmp_path / "model.json"
        save_model(model, path, policy)
        _, loaded = load_model(path)
        assert loaded.cells == policy.cells
        assert loaded.stratum_column == "X3"
        assert loaded.fallback_cells == policy.fallback_cells
        assert loaded.target_rate == policy.target_rate

    @staticmethod
    def relabelled(ds):
        """The same rows with every categorical and group code swapped (labels follow)."""
        x3 = ds.feature("X3")
        features = tuple(
            replace(c, values=1 - c.values, labels=tuple(reversed(c.code_labels)))
            if c is x3 else c
            for c in ds.features
        )
        sens = replace(ds.sensitive, values=1 - ds.sensitive.values,
                       group_labels=tuple(reversed(ds.sensitive.group_labels)))
        return replace(ds, features=features, sensitive=sens)

    def test_levels_and_groups_matched_by_label(self, tmp_path):
        # codes follow first appearance, so another file (or another order
        # of the same rows) can code the same labels differently
        ds = generate(SynthConfig(n=1500, target="high", seed=15))
        model = train(ds, MitigationSpec(CDP_POST, conditioning="X3"))
        policy = fit_cdp_threshold(ds, model, "X3")
        path = tmp_path / "model.json"
        save_model(model, path, policy)
        loaded, loaded_policy = load_model(path)
        other = self.relabelled(ds)
        want = predict(model, ds, policy)
        for m, p in ((model, policy), (loaded, loaded_policy)):
            got = predict(m, other, p)
            assert np.array_equal(got.scores, want.scores)
            assert np.array_equal(got.decisions, want.decisions)
        assert fit_cdp_threshold(other, model, "X3").cells == policy.cells

    def test_model_without_label_tables_reads_codes(self, tmp_path):
        ds = generate(SynthConfig(n=800, target="high", seed=16))
        model = train(ds, MitigationSpec(DP_POST))
        path = tmp_path / "model.json"
        save_model(model, path, fit_dp_threshold(ds, model))
        doc = json.loads(path.read_text())
        for key in ("labels", "sensitive_labels"):
            del doc["encoder"][key]
        path.write_text(json.dumps(doc))
        old, policy = load_model(path)
        assert old.encoder.labels is None
        save_model(old, path, policy)  # and saved again without them
        assert json.loads(path.read_text())["encoder"] == doc["encoder"]
        other = self.relabelled(ds)
        # the same codes under the training labels: a model without label
        # tables cannot tell the two apart
        codes_only = replace(
            other,
            features=tuple(replace(c, labels=d.labels) for c, d in zip(other.features, ds.features)),
            sensitive=replace(other.sensitive, group_labels=ds.sensitive.group_labels),
        )
        got = predict(old, other, policy).scores
        assert np.array_equal(got, predict(old, codes_only, policy).scores)
        assert not np.array_equal(got, predict(model, other).scores)

    def test_save_load_suppression_report(self, tmp_path):
        ds = generate(SynthConfig(n=800, target="high", seed=14))
        model = train(ds, MitigationSpec(SUPPRESSION, threshold=0.05))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded, policy = load_model(path)
        assert policy is None
        assert {n for n, _ in loaded.suppression.dropped} == {"X1", "X3"}


# ---------------------------------------------------------------------------
# Newton fit against a brute-force optimiser
# ---------------------------------------------------------------------------


def _mean_loss(z, y):
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def _random_design(rng, n, n_cont, cat_levels, overlap):
    """Features, group codes and labels; the first ``overlap`` rows each
    contain every categorical level and group and are repeated with the
    opposite label, so no direction separates the classes and the
    maximum-likelihood fit exists."""

    def codes(k):
        head = rng.permutation(np.arange(overlap) % k)
        return np.concatenate([head, rng.integers(0, k, n - overlap)])

    cols, logit = [], rng.normal()
    for j in range(n_cont):
        v = rng.normal(size=n) * rng.uniform(0.2, 5.0) + rng.normal()
        cols.append(FeatureColumn(f"c{j}", CONTINUOUS, v))
        logit = logit + rng.normal() * (v - v.mean()) / v.std()
    for j, k in enumerate(cat_levels):
        v = codes(k)
        cols.append(FeatureColumn(f"k{j}", CATEGORICAL, v, tuple(f"l{i}" for i in range(k))))
        logit = logit + rng.normal(size=k)[v]
    a = codes(2)
    logit = logit + rng.normal() * a
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
    if overlap:
        idx = np.concatenate([np.arange(n), np.arange(overlap)])
        y = np.concatenate([y, 1 - y[:overlap]])
        cols = [
            FeatureColumn(c.name, c.kind, c.values[idx], c.labels) for c in cols
        ]
        a = a[idx]
    return Dataset(tuple(cols), SensitiveAttribute("g", a, ("g0", "g1")), target=y)


@st.composite
def _designs(draw, separable=False):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_cont = draw(st.integers(1 if separable else 0, 3))
    cat_levels = draw(st.lists(st.integers(2, 4), max_size=2))
    strategy = draw(st.sampled_from((FULL, FTU)))
    if strategy == FTU and n_cont == 0 and not cat_levels:
        n_cont = 1
    n = draw(st.integers(40, 150))
    ds = _random_design(rng, n, n_cont, cat_levels, 0 if separable else 30)
    return ds, strategy


def _margin_relabelled(ds, gap):
    """``ds`` relabelled by a margin of ``gap`` on its first (continuous)
    feature: no maximum-likelihood fit exists."""
    v = ds.features[0].values
    y = (v > np.median(v)).astype(int)
    shifted = FeatureColumn(
        ds.features[0].name, CONTINUOUS, v + np.where(y == 1, gap, -gap)
    )
    return Dataset((shifted,) + ds.features[1:], ds.sensitive, target=y)


class TestNewtonAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(_designs())
    def test_matches_bfgs_optimum(self, case):
        ds, strategy = case
        model = train(ds, MitigationSpec(strategy))
        assert model.converged
        assert model.final_grad_norm <= TrainConfig().tol
        x = np.hstack([_encode(ds, model.encoder), np.ones((ds.n, 1))])
        y = ds.target.astype(float)

        def loss_and_grad(theta):
            z = x @ theta
            return _mean_loss(z, y), x.T @ (1.0 / (1.0 + np.exp(-z)) - y) / len(y)

        ref = minimize(
            loss_and_grad, np.zeros(x.shape[1]), jac=True, method="BFGS",
            options={"gtol": 1e-11, "maxiter": 10000},
        )
        newton_scores = predict(model, ds).scores
        z = x @ np.append(model.weights, model.intercept)
        assert _mean_loss(z, y) <= ref.fun + 1e-12
        assert np.abs(newton_scores - 1.0 / (1.0 + np.exp(-x @ ref.x))).max() <= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(_designs(separable=True), st.floats(0.05, 1.0))
    def test_separable_rows_are_reported(self, case, gap):
        ds, strategy = case
        model = train(_margin_relabelled(ds, gap), MitigationSpec(strategy))
        assert not model.converged
        assert np.all(np.isfinite(model.weights)) and np.isfinite(model.intercept)
        assert np.isfinite(model.final_grad_norm)

    def test_zero_iterations_report_the_gradient_at_zero(self):
        ds = simple_ds(n=50)
        model = train(ds, MitigationSpec(FULL), TrainConfig(max_epochs=0))
        assert model.epochs == 0 and not model.converged
        assert np.all(model.weights == 0) and model.intercept == 0
        gw, gb = log_loss_gradient(
            _encode(ds, model.encoder), ds.target.astype(float), model.weights, 0.0
        )
        assert model.final_grad_norm == float(np.sqrt(np.square(gw).sum() + gb * gb))

    @pytest.mark.filterwarnings("ignore:dataset has 0 rows")
    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            train(simple_ds(n=10).take(np.arange(0)), MitigationSpec(FTU))

    def test_converged_round_trips_and_is_derived_for_old_files(self, tmp_path):
        ds = simple_ds(n=300, seed=2)
        model = train(ds, MitigationSpec(FULL))
        assert model.converged and model.epochs < 30
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path)[0].converged
        doc = json.loads(path.read_text())
        del doc["converged"]
        path.write_text(json.dumps(doc))
        assert load_model(path)[0].converged
        doc["final_grad_norm"] = 1e-3
        path.write_text(json.dumps(doc))
        assert not load_model(path)[0].converged


# ---------------------------------------------------------------------------
# Link, loss and Newton solver against the versions they replaced
# ---------------------------------------------------------------------------
# Verbatim copies of the masked logistic link, the ``np.logaddexp`` loss and
# the solver that used them (renamed). The link must agree bit for bit; the
# loss may differ in its last bits, and the fitted models must not differ.


def _masked_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _old_log_loss_gradient(x, y, weights, intercept):
    p = _masked_sigmoid(x @ weights + intercept)
    r = p - y
    return x.T @ r / len(y), float(r.mean())


def _logaddexp_mean_log_loss(z, y):
    return float(np.logaddexp(0.0, np.where(y == 1, -z, z)).mean())


def _old_newton(x, y, hyper):
    xd = np.hstack([x, np.ones((len(y), 1))])
    theta, epochs = np.zeros(xd.shape[1]), 0
    loss = _logaddexp_mean_log_loss(xd @ theta, y)
    while True:
        gw, gb = _old_log_loss_gradient(x, y, theta[:-1], theta[-1])
        gnorm = float(np.sqrt(np.square(gw).sum() + gb * gb))
        if gnorm <= hyper.tol or epochs >= hyper.max_epochs:
            return theta[:-1], float(theta[-1]), epochs, gnorm
        grad, p = np.append(gw, gb), _masked_sigmoid(xd @ theta)
        hess = xd.T @ (xd * (p * (1.0 - p))[:, None]) / len(y)
        step = -np.linalg.lstsq(hess, grad, rcond=None)[0]
        t, slope, slack = 1.0, float(grad @ step), 1e-13 * loss
        while (new := _logaddexp_mean_log_loss(xd @ (theta + t * step), y)) > (
            loss + 1e-4 * t * slope + slack
        ):
            if t < 1e-12:  # no descent along the Newton direction
                return theta[:-1], float(theta[-1]), epochs, gnorm
            t /= 2
        theta, loss, epochs = theta + t * step, new, epochs + 1


_TINY = np.finfo(float).tiny
_LINK_EDGES = np.array([
    0.0, -0.0, 709.0, -709.0, 710.0, -710.0, 745.0, -745.0, 746.0, -746.0,
    5e-324, -5e-324, _TINY, -_TINY, _TINY / 3, -_TINY / 3, 36.7, -36.7,
    np.finfo(float).max, -np.finfo(float).max, np.inf, -np.inf,
])


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestLinkLossAndSolverAgainstOld:
    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 300), elements=st.floats(allow_nan=False)))
    def test_sigmoid_bit_identical(self, z):
        for v in (z, np.concatenate([_LINK_EDGES, z]), np.concatenate([z, _LINK_EDGES])[::2]):
            assert np.array_equal(_bits(_sigmoid(v)), _bits(_masked_sigmoid(v)))

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(np.float64, st.integers(1, 300), elements=st.floats(-800, 800)),
        st.integers(0, 2**32 - 1),
    )
    def test_loss_agrees_to_rounding(self, z, seed):
        # every term is >= 0, so a few ulp per term bound the mean's error
        y = np.random.default_rng(seed).integers(0, 2, len(z)).astype(float)
        sign = np.where(y == 1, -1.0, 1.0)
        assert _mean_log_loss(z, sign, np.empty((2, len(z)))) == pytest.approx(
            _logaddexp_mean_log_loss(z, y), rel=16 * np.finfo(float).eps, abs=1e-300
        )

    @staticmethod
    def _assert_same_fit(ds, strategy):
        spec = MitigationSpec(strategy)
        enc, x = _fit_encoder(ds, list(ds.feature_names), spec.uses_sensitive)
        assert np.array_equal(x, _encode(ds, enc))  # the design is built once
        new = train(ds, spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modeling, "_newton", _old_newton)
            old = train(ds, spec)
        assert np.array_equal(_bits(new.weights), _bits(old.weights))
        assert _bits(new.intercept) == _bits(old.intercept)
        assert new.epochs == old.epochs
        assert _bits(new.final_grad_norm) == _bits(old.final_grad_norm)
        assert new.converged == old.converged

    @settings(max_examples=100, deadline=None)
    @given(_designs())
    def test_train_bit_identical(self, case):
        self._assert_same_fit(*case)

    @settings(max_examples=100, deadline=None)
    @given(_designs(separable=True), st.floats(0.05, 1.0), st.booleans())
    def test_train_bit_identical_when_separable(self, case, gap, relabel):
        ds, strategy = case
        self._assert_same_fit(_margin_relabelled(ds, gap) if relabel else ds, strategy)


# ---------------------------------------------------------------------------
# Newton solver against the one that allocated its work arrays every step
# ---------------------------------------------------------------------------
# Verbatim copies (renamed) of the solver that recomputed the Hessian logits
# and allocated the Hessian weights and loss terms at every step, and of its
# loss. The buffered solver must return the same bits.


def _allocating_mean_log_loss(z, y):
    v = np.where(y == 1, -z, z)
    return float((np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))).mean())


def _allocating_newton(x, y, hyper):
    xd = np.hstack([x, np.ones((len(y), 1))])
    theta, epochs = np.zeros(xd.shape[1]), 0
    loss = _allocating_mean_log_loss(xd @ theta, y)
    while True:
        gw, gb = log_loss_gradient(x, y, theta[:-1], theta[-1])
        gnorm = float(np.sqrt(np.square(gw).sum() + gb * gb))
        if gnorm <= hyper.tol or epochs >= hyper.max_epochs:
            return theta[:-1], float(theta[-1]), epochs, gnorm
        grad, p = np.append(gw, gb), _sigmoid(xd @ theta)
        hess = xd.T @ (xd * (p * (1.0 - p))[:, None]) / len(y)
        step = -np.linalg.lstsq(hess, grad, rcond=None)[0]
        t, slope, slack = 1.0, float(grad @ step), 1e-13 * loss
        while (new := _allocating_mean_log_loss(xd @ (theta + t * step), y)) > (
            loss + 1e-4 * t * slope + slack
        ):
            if t < 1e-12:  # no descent along the Newton direction
                return theta[:-1], float(theta[-1]), epochs, gnorm
            t /= 2
        theta, loss, epochs = theta + t * step, new, epochs + 1


# the default, no step, a few steps, and a tolerance no fit reaches, under
# which separable rows end at the line search's give-up
_HYPERS = (
    TrainConfig(), TrainConfig(max_epochs=0), TrainConfig(max_epochs=3),
    TrainConfig(max_epochs=60, tol=0.0),
)


class TestNewtonAgainstAllocating:
    @staticmethod
    def _same_solve(ds, strategy, hyper):
        _, x = _fit_encoder(ds, list(ds.feature_names), MitigationSpec(strategy).uses_sensitive)
        y = ds.target.astype(float)
        w, b, epochs, gnorm = modeling._newton(x, y, hyper)
        ow, ob, oepochs, ognorm = _allocating_newton(x, y, hyper)
        assert np.array_equal(_bits(w), _bits(ow))
        assert _bits(b) == _bits(ob)
        assert epochs == oepochs
        assert _bits(gnorm) == _bits(ognorm)
        return epochs, gnorm

    @settings(max_examples=60, deadline=None)
    @given(_designs(), st.sampled_from(_HYPERS))
    def test_bit_identical(self, case, hyper):
        self._same_solve(*case, hyper)

    @settings(max_examples=60, deadline=None)
    @given(_designs(separable=True), st.floats(0.05, 1.0), st.sampled_from(_HYPERS))
    def test_bit_identical_when_separable(self, case, gap, hyper):
        ds, strategy = case
        self._same_solve(_margin_relabelled(ds, gap), strategy, hyper)

    def test_bit_identical_at_the_line_search_give_up(self):
        # separable rows: the loss underflows towards 0 until no step lowers it
        rng = np.random.default_rng(23)
        ds = _margin_relabelled(_random_design(rng, int(rng.integers(40, 150)), 3, [2], 0), 0.3)
        hyper = _HYPERS[-1]
        epochs, gnorm = self._same_solve(ds, FULL, hyper)
        assert epochs < hyper.max_epochs and gnorm > hyper.tol


class TestRowMemo:
    @settings(max_examples=40, deadline=None)
    @given(_designs())
    def test_shared_work_changes_no_bits(self, case):
        ds, strategy = case
        memo = modeling.RowMemo(ds)
        specs = [MitigationSpec(strategy), MitigationSpec(FULL)]
        if ds.features:
            specs.append(MitigationSpec(SUPPRESSION, threshold=1.0))
        for spec in specs:
            shared, own = train(ds, spec, memo=memo), train(ds, spec)
            assert np.array_equal(_bits(shared.weights), _bits(own.weights))
            assert _bits(shared.intercept) == _bits(own.intercept)
            assert shared.suppression == own.suppression
            assert shared.encoder.to_json_dict() == own.encoder.to_json_dict()
            assert np.array_equal(_bits(score(shared, ds, memo)), _bits(predict(own, ds).scores))

    def test_recoded_rows_build_their_own_blocks(self):
        # the memo's X3 block holds the other file's codes: scoring a model
        # that recodes those rows must not take it
        ds = generate(SynthConfig(n=600, target="high", seed=21))
        other = TestPersistence.relabelled(ds)
        memo = modeling.RowMemo(other)
        train(other, MitigationSpec(FULL), memo=memo)
        model = train(ds, MitigationSpec(FULL))
        assert np.array_equal(score(model, other, memo), predict(model, ds).scores)

    def test_memo_of_other_rows_rejected(self):
        ds, other = simple_ds(seed=1), simple_ds(seed=2)
        with pytest.raises(ValueError, match="other rows"):
            train(ds, MitigationSpec(FULL), memo=modeling.RowMemo(other))
        with pytest.raises(ValueError, match="other rows"):
            score(train(ds, MitigationSpec(FULL)), ds, modeling.RowMemo(other))


# ---------------------------------------------------------------------------
# Vectorised threshold scans against the per-row loops they replaced
# ---------------------------------------------------------------------------
# Verbatim copies of the earlier per-row implementations (renamed, most
# docstrings dropped); the vectorised ones must agree with them exactly.


def _old_rate_thresholds(scores, groups, n_groups, rate):
    """Per-group threshold accepting the ceil(rate * n_g) highest scores."""
    cells, flags = {}, []
    for g in range(n_groups):
        sg = np.sort(scores[groups == g])
        if len(sg) == 0:
            continue
        if len(sg) and sg[0] == sg[-1]:
            flags.append(f"constant scores in group {g}")
        k = int(np.ceil(rate * len(sg)))
        if k <= 0:
            cells[g] = float(np.nextafter(sg[-1], np.inf))  # accept nobody
        else:
            cells[g] = float(sg[len(sg) - k])
    return cells, flags


def _old_fit_dp_threshold_scores(scores, groups, n_groups, target, grid_size=100):
    scores = np.asarray(scores, dtype=float)
    groups = np.asarray(groups, dtype=int)
    target = np.asarray(target, dtype=int)
    best = None
    for i in range(grid_size + 1):
        r = i / grid_size
        cells, flags = _old_rate_thresholds(scores, groups, n_groups, r)
        row_t = np.array([cells[g] for g in groups]) if len(scores) else np.zeros(0)
        acc = float(((scores >= row_t).astype(int) == target).mean()) if len(scores) else 0.0
        if best is None or acc > best[0]:
            best = (acc, r, cells, flags)
    _, r, cells, flags = best
    return ThresholdPolicy(
        {(g, None): t for g, t in cells.items()},
        target_rate=r,
        flags=tuple(flags),
    )


def _old_fit_dp_threshold(ds, model, grid_size=100):
    if ds.target is None:
        raise ValueError("threshold fitting needs the ground-truth target")
    preds = predict(model, ds)
    return _old_fit_dp_threshold_scores(
        preds.scores, ds.sensitive.values, ds.sensitive.n_groups, ds.target, grid_size
    )


def _old_fit_cdp_threshold(ds, model, conditioning, grid_size=100, min_count=30):
    codes, labels = ds.column_codes(conditioning)
    glob = _old_fit_dp_threshold(ds, model, grid_size)
    preds = predict(model, ds)
    scores, groups = preds.scores, ds.sensitive.values
    n_groups = ds.sensitive.n_groups
    cells, fallback, flags = {}, [], list(glob.flags)
    for s in range(len(labels)):
        m = codes == s
        if int(m.sum()) < min_count:
            for g in range(n_groups):
                cells[(g, s)] = glob.threshold(g)
                fallback.append((g, s))
            flags.append(f"stratum {labels[s]!r} below min_count; global policy used")
            continue
        sub_scores, sub_groups = scores[m], groups[m]
        sub_y = ds.target[m]
        best = None
        for i in range(grid_size + 1):
            r = i / grid_size
            sub_cells, _ = _old_rate_thresholds(sub_scores, sub_groups, n_groups, r)
            row_t = np.array([sub_cells[g] for g in sub_groups])
            acc = float(((sub_scores >= row_t).astype(int) == sub_y).mean())
            if best is None or acc > best[0]:
                best = (acc, r, sub_cells)
        _, r, sub_cells = best
        for g in range(n_groups):
            if g in sub_cells:
                cells[(g, s)] = sub_cells[g]
            else:
                cells[(g, s)] = glob.threshold(g)
                fallback.append((g, s))
    return ThresholdPolicy(
        cells,
        target_rate=glob.target_rate,
        stratum_column=conditioning,
        fallback_cells=tuple(fallback),
        flags=tuple(flags),
    )


def _old_apply_threshold(preds, policy, groups, strata=None):
    if isinstance(groups, SensitiveAttribute):
        groups = groups.values
    groups = np.asarray(groups, dtype=int)
    if strata is not None:
        strata = np.asarray(getattr(strata, "values", strata), dtype=int)
    sc = preds.scores
    dec = np.empty(len(sc), dtype=int)
    for i in range(len(sc)):
        t = policy.threshold(groups[i], None if strata is None else strata[i])
        dec[i] = 1 if sc[i] >= t else 0
    return PredictionSet(dec, sc)


@st.composite
def _scan_cases(draw):
    """Scores with heavy ties, possibly constant or empty groups, strata
    that may miss a group or fall below ``min_count``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 120))
    n_groups = draw(st.integers(2, 4))
    present = rng.choice(n_groups, size=draw(st.integers(1, n_groups)), replace=False)
    groups = rng.choice(present, size=n)
    levels = draw(st.sampled_from((1, 2, 3, 10, 1000)))
    x = rng.integers(0, levels, n).astype(float)
    const = [g for g in present if draw(st.booleans())]
    x[np.isin(groups, const)] = 0.5
    n_strata = draw(st.integers(1, 3))
    strata = rng.integers(0, n_strata, n)
    if n_strata > 1 and n and draw(st.booleans()):
        missing = rng.choice(present)  # this group never falls in stratum 0
        strata[(groups == missing) & (strata == 0)] = 1
    y = (rng.random(n) < (x + 1) / (levels + 1)).astype(int)
    return {
        "groups": groups,
        "n_groups": n_groups,
        "x": x,
        "strata": strata,
        "n_strata": n_strata,
        "y": y,
        "grid_size": draw(st.sampled_from((1, 7, 100))),
        "min_count": draw(st.sampled_from((0, 1, 5, 30))),
    }


def _scan_dataset(c):
    sa = SensitiveAttribute("g", c["groups"], tuple(f"g{i}" for i in range(c["n_groups"])))
    labels = tuple(f"s{i}" for i in range(c["n_strata"]))
    cols = (
        FeatureColumn("x", CONTINUOUS, c["x"]),
        FeatureColumn("s", CATEGORICAL, c["strata"], labels),
    )
    ds = Dataset(cols, sa, target=c["y"])
    # scores = sigmoid(x / 2): a fixed increasing map, so ties in x stay ties
    enc = _Encoder((("x", CONTINUOUS, None),), False, (), np.zeros(1), np.ones(1))
    return ds, ClassifierModel(np.array([0.5]), 0.0, enc, MitigationSpec(FTU))


def _same_policy(new, old):
    assert new.cells == old.cells
    assert new.target_rate == old.target_rate
    assert new.flags == old.flags
    assert new.fallback_cells == old.fallback_cells
    assert new.stratum_column == old.stratum_column


@pytest.mark.filterwarnings("ignore:dataset has 0 rows", "ignore::RuntimeWarning")
class TestScansBitIdentical:
    @settings(max_examples=300, deadline=None)
    @given(_scan_cases())
    def test_dp_scan(self, c):
        ds, model = _scan_dataset(c)
        scores = predict(model, ds).scores
        args = (scores, c["groups"], c["n_groups"], c["y"], c["grid_size"])
        new, old = fit_dp_threshold_scores(*args), _old_fit_dp_threshold_scores(*args)
        _same_policy(new, old)
        new_dec = apply_threshold(PredictionSet(scores=scores), new, ds.sensitive)
        old_dec = _old_apply_threshold(PredictionSet(scores=scores), old, ds.sensitive)
        assert np.array_equal(new_dec.decisions, old_dec.decisions)
        assert new_dec.decisions.dtype == old_dec.decisions.dtype

    @settings(max_examples=300, deadline=None)
    @given(_scan_cases())
    def test_cdp_scan(self, c):
        ds, model = _scan_dataset(c)
        kw = {"grid_size": c["grid_size"], "min_count": c["min_count"]}
        try:
            old = _old_fit_cdp_threshold(ds, model, "s", **kw)
        except ValueError as exc:  # a group with no rows at all has no cell
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                fit_cdp_threshold(ds, model, "s", **kw)
            return
        new = fit_cdp_threshold(ds, model, "s", **kw)
        _same_policy(new, old)
        scores = predict(model, ds).scores
        strata = ds.column_codes("s")[0]
        new_dec = apply_threshold(PredictionSet(scores=scores), new, ds.sensitive, strata)
        old_dec = _old_apply_threshold(PredictionSet(scores=scores), old, ds.sensitive, strata)
        assert np.array_equal(new_dec.decisions, old_dec.decisions)
        assert np.array_equal(predict(model, ds, new).decisions, new_dec.decisions)

    def test_missing_cell_error_names_the_first_row_cell(self):
        policy = ThresholdPolicy({(0, None): 0.5})
        preds = PredictionSet(scores=np.array([0.1, 0.9, 0.2]))
        for groups in ([0, 2, 1], [1, 0, 2]):
            with pytest.raises(ValueError) as new_err:
                apply_threshold(preds, policy, np.array(groups))
            with pytest.raises(ValueError) as old_err:
                _old_apply_threshold(preds, policy, np.array(groups))
            assert str(new_err.value) == str(old_err.value)
