from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit.data import (
    CATEGORICAL,
    CONTINUOUS,
    Dataset,
    FeatureColumn,
    PredictionSet,
    SensitiveAttribute,
)
from fairaudit.group_metrics import (
    GroupStats,
    MetricReport,
    ThresholdPolicy,
    _auc_scores,
    _average_ranks,
    _compound,
    accuracy_parity,
    apply_threshold,
    auc_parity,
    balance_negative_class,
    balance_positive_class,
    calibration_within_groups,
    compute_group_stats,
    conditional_demographic_parity,
    demographic_parity,
    equality_of_odds,
    equality_of_opportunity,
    make_report,
    predictive_equality,
    predictive_parity,
    sufficiency,
)


def from_counts(group_counts, labels=None):
    """Build (Dataset, PredictionSet) from per-group confusion counts.

    group_counts: list of (tp, fn, fp, tn) per group.
    """
    a, y, d = [], [], []
    for g, (tp, fn, fp, tn) in enumerate(group_counts):
        for yy, dd, k in ((1, 1, tp), (1, 0, fn), (0, 1, fp), (0, 0, tn)):
            a += [g] * k
            y += [yy] * k
            d += [dd] * k
    labels = labels or tuple(chr(ord("a") + i) for i in range(len(group_counts)))
    sa = SensitiveAttribute("g", np.array(a), labels)
    ds = Dataset((), sa, target=np.array(y))
    return ds, PredictionSet(decisions=np.array(d))


def scored(a, y, s, labels=("a", "b")):
    sa = SensitiveAttribute("g", np.array(a), labels)
    ds = Dataset((), sa, target=None if y is None else np.array(y))
    return ds, PredictionSet(scores=np.array(s, dtype=float))


class TestDemographicParity:
    def test_count_arithmetic(self):
        # group a: 40/100 accepted, group b: 20/100
        ds, preds = from_counts([(40, 60, 0, 0), (20, 80, 0, 0)])
        rep = demographic_parity(ds, preds)
        assert rep.groups["a"] == pytest.approx(0.40)
        assert rep.groups["b"] == pytest.approx(0.20)
        assert rep.gap == pytest.approx(0.20)
        assert rep.ratio == pytest.approx(0.50)

    def test_identical_rates(self):
        ds, preds = from_counts([(30, 70, 0, 0), (15, 35, 0, 0)])
        rep = demographic_parity(ds, preds)
        assert rep.gap == pytest.approx(0.0, abs=1e-15)
        assert rep.ratio == pytest.approx(1.0)

    def test_all_zero_rates_ratio_one(self):
        ds, preds = from_counts([(0, 10, 0, 10), (0, 5, 0, 5)])
        rep = demographic_parity(ds, preds)
        assert rep.gap == 0.0
        assert rep.ratio == 1.0

    def test_missing_decisions(self):
        ds, _ = from_counts([(1, 1, 1, 1), (1, 1, 1, 1)])
        with pytest.raises(ValueError, match="decisions"):
            demographic_parity(ds, PredictionSet(scores=np.full(ds.n, 0.5)))

    def test_label_permutation_invariance(self):
        ds, preds = from_counts([(40, 60, 0, 0), (20, 80, 0, 0)])
        swapped, _ = from_counts([(20, 80, 0, 0), (40, 60, 0, 0)])
        r1 = demographic_parity(ds, preds)
        r2 = demographic_parity(
            swapped,
            PredictionSet(decisions=np.concatenate([np.ones(20), np.zeros(80), np.ones(40), np.zeros(60)]).astype(int)),
        )
        assert r1.gap == pytest.approx(r2.gap)
        assert r1.ratio == pytest.approx(r2.ratio)
        assert r1.groups["a"] == r2.groups["b"]


class TestEqualityOfOdds:
    def test_hand_arithmetic(self):
        # a: TP=40 FN=10 FP=5 TN=45; b: TP=8 FN=2 FP=1 TN=9
        ds, preds = from_counts([(40, 10, 5, 45), (8, 2, 1, 9)])
        rep = equality_of_odds(ds, preds)
        assert rep.components["fnr"].groups["a"] == pytest.approx(0.2)
        assert rep.components["fnr"].groups["b"] == pytest.approx(0.2)
        assert rep.components["fpr"].groups["a"] == pytest.approx(0.1)
        assert rep.components["fpr"].groups["b"] == pytest.approx(0.1)
        assert rep.gap == pytest.approx(0.0, abs=1e-12)

    def test_perfect_classifier(self):
        ds, preds = from_counts([(10, 0, 0, 10), (4, 0, 0, 16)])
        rep = equality_of_odds(ds, preds)
        assert rep.gap == 0.0

    def test_degenerate_group_flagged(self):
        # group b has zero negatives -> fpr undefined there
        ds, preds = from_counts([(10, 5, 3, 12), (5, 5, 0, 0)])
        rep = equality_of_odds(ds, preds)
        assert rep.components["fpr"].groups["b"] is None
        assert "b" in rep.components["fpr"].undefined
        assert np.isfinite(rep.gap)

    def test_missing_target(self):
        sa = SensitiveAttribute("g", np.array([0, 1]), ("a", "b"))
        ds = Dataset((), sa)
        with pytest.raises(ValueError, match="target"):
            equality_of_odds(ds, PredictionSet(decisions=np.array([0, 1])))


class TestRelaxations:
    def test_predictive_equality_gap(self):
        # fpr 0.10 vs 0.25
        ds, preds = from_counts([(0, 0, 10, 90), (0, 0, 25, 75)])
        rep = predictive_equality(ds, preds)
        assert rep.gap == pytest.approx(0.15)

    def test_predictive_equality_constructed_equal(self):
        ds, preds = from_counts([(5, 5, 20, 80), (2, 8, 10, 40)])
        assert predictive_equality(ds, preds).gap == pytest.approx(0.0, abs=1e-12)

    def test_equality_of_opportunity_mirrors_fnr(self):
        ds, preds = from_counts([(80, 20, 0, 10), (30, 20, 0, 10)])
        rep = equality_of_opportunity(ds, preds)
        assert rep.groups["a"] == pytest.approx(0.2)
        assert rep.groups["b"] == pytest.approx(0.4)
        assert rep.gap == pytest.approx(0.2)

    def test_perfect_classifier_zero(self):
        ds, preds = from_counts([(10, 0, 0, 10), (5, 0, 0, 5)])
        assert predictive_equality(ds, preds).gap == 0.0
        assert equality_of_opportunity(ds, preds).gap == 0.0


class TestPredictiveParityAndSufficiency:
    def test_equal_precision(self):
        # a: 30 TP of 40 accepted; b: 15 TP of 20 accepted
        ds, preds = from_counts([(30, 0, 10, 60), (15, 0, 5, 30)])
        rep = predictive_parity(ds, preds)
        assert rep.groups["a"] == pytest.approx(0.75)
        assert rep.groups["b"] == pytest.approx(0.75)
        assert rep.gap == pytest.approx(0.0, abs=1e-12)

    def test_perfect_classifier(self):
        ds, preds = from_counts([(10, 0, 0, 10), (5, 0, 0, 5)])
        rep = predictive_parity(ds, preds)
        assert all(v == 1.0 for v in rep.groups.values())
        assert rep.gap == 0.0

    def test_zero_accepted_flagged(self):
        ds, preds = from_counts([(10, 5, 5, 10), (0, 10, 0, 10)])
        rep = predictive_parity(ds, preds)
        assert rep.groups["b"] is None

    def test_sufficiency_npv_side(self):
        # equal ppv (0.75), unequal npv
        ds, preds = from_counts([(30, 10, 10, 50), (15, 15, 5, 15)])
        rep = sufficiency(ds, preds)
        ppv_gap = rep.components["ppv"].gap
        npv_gap = rep.components["npv"].gap
        assert ppv_gap == pytest.approx(0.0, abs=1e-12)
        assert npv_gap > 0
        assert rep.gap == pytest.approx(npv_gap)

    def test_sufficiency_both_equal(self):
        ds, preds = from_counts([(30, 10, 10, 50), (15, 5, 5, 25)])
        assert sufficiency(ds, preds).gap == pytest.approx(0.0, abs=1e-12)


class TestAccuracyParity:
    def test_equal(self):
        ds, preds = from_counts([(45, 5, 5, 45), (9, 1, 1, 9)])
        assert accuracy_parity(ds, preds).gap == pytest.approx(0.0, abs=1e-12)

    def test_perfect(self):
        ds, preds = from_counts([(10, 0, 0, 10), (5, 0, 0, 5)])
        assert accuracy_parity(ds, preds).gap == 0.0

    def test_point_one_gap(self):
        ds, preds = from_counts([(45, 5, 5, 45), (40, 10, 10, 40)])
        assert accuracy_parity(ds, preds).gap == pytest.approx(0.1)


class TestBalance:
    def test_degenerate_scores_reduce_to_error_rates(self):
        ds, preds = from_counts([(40, 10, 5, 45), (6, 4, 2, 8)])
        both = PredictionSet(preds.decisions, preds.decisions.astype(float))
        stats = compute_group_stats(ds, both)
        bp = balance_positive_class(ds, both)
        bn = balance_negative_class(ds, both)
        for s in stats:
            assert bp.groups[s.label] == pytest.approx(s.tpr)
            assert bn.groups[s.label] == pytest.approx(s.fpr)

    def test_identical_distributions(self):
        a = [0, 0, 1, 1]
        y = [1, 0, 1, 0]
        s = [0.8, 0.3, 0.8, 0.3]
        ds, preds = scored(a, y, s)
        assert balance_positive_class(ds, preds).gap == 0.0
        assert balance_negative_class(ds, preds).gap == 0.0

    def test_positive_means(self):
        # group means 0.6 vs 0.4 among Y=1
        ds, preds = scored([0, 0, 1, 1], [1, 1, 1, 1], [0.5, 0.7, 0.3, 0.5])
        rep = balance_positive_class(ds, preds)
        assert rep.groups["a"] == pytest.approx(0.6)
        assert rep.groups["b"] == pytest.approx(0.4)
        assert rep.gap == pytest.approx(0.2)


def brute_auc(y, s):
    """Pairwise-count oracle: fraction of correctly ordered (pos, neg) pairs."""
    y, s = np.asarray(y), np.asarray(s)
    pos, neg = s[y == 1], s[y == 0]
    if len(pos) == 0 or len(neg) == 0:
        return None
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


class TestAucParity:
    def test_perfectly_separating(self):
        ds, preds = scored([0, 0, 1, 1], [1, 0, 1, 0], [0.9, 0.1, 0.8, 0.2])
        rep = auc_parity(ds, preds)
        assert all(v == pytest.approx(1.0) for v in rep.groups.values())
        assert rep.gap == pytest.approx(0.0, abs=1e-12)

    def test_anti_separating(self):
        ds, preds = scored([0, 0, 1, 1], [1, 0, 1, 0], [0.1, 0.9, 0.2, 0.8])
        rep = auc_parity(ds, preds)
        assert all(v == pytest.approx(0.0) for v in rep.groups.values())

    def test_tie_counts_half(self):
        # one group: pos=[0.9, 0.4], neg=[0.5] -> AUC 0.5 by the pair oracle
        ds, preds = scored([0, 0, 0, 1, 1], [1, 1, 0, 1, 0], [0.9, 0.4, 0.5, 0.9, 0.1])
        rep = auc_parity(ds, preds)
        assert rep.groups["a"] == pytest.approx(0.5)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(4, 50))
            a = rng.integers(0, 2, n)
            y = rng.integers(0, 2, n)
            s = np.round(rng.random(n), 2)  # coarse scores force ties
            ds, preds = scored(a, y, s)
            rep = auc_parity(ds, preds)
            for g, lab in enumerate(("a", "b")):
                expect = brute_auc(y[a == g], s[a == g]) if (a == g).any() else None
                if expect is None:
                    assert rep.groups[lab] is None
                else:
                    assert rep.groups[lab] == pytest.approx(expect, abs=1e-10)


class TestCalibration:
    def test_constant_base_rate_scores(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2, 400)
        y = np.concatenate([np.ones(100), np.zeros(300)]).astype(int)
        rng.shuffle(y)
        s = np.full(400, 0.25)
        base = {g: y[a == g].mean() for g in (0, 1)}
        s = np.array([base[g] for g in a])
        ds, preds = scored(a, y.tolist(), s)
        rep = calibration_within_groups(ds, preds, bins=10, min_count=10)
        for v in rep.report.groups.values():
            assert v == pytest.approx(0.0, abs=1e-12)

    def test_bin_error_arithmetic(self):
        # one qualifying bin: mean score 0.7, 6/10 positives -> error 0.1
        a = [0] * 10 + [1] * 10
        y = [1] * 6 + [0] * 4 + [1] * 6 + [0] * 4
        s = [0.7] * 20
        ds, preds = scored(a, y, s)
        rep = calibration_within_groups(ds, preds, bins=10, min_count=5)
        assert rep.report.groups["a"] == pytest.approx(0.1)
        assert rep.report.groups["b"] == pytest.approx(0.1)

    def test_small_bins_excluded_and_listed(self):
        a = [0] * 40 + [1] * 40
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, 80).tolist()
        s = [0.05] * 39 + [0.95] + [0.05] * 39 + [0.95]
        ds, preds = scored(a, y, s)
        rep = calibration_within_groups(ds, preds, bins=10, min_count=30)
        assert rep.excluded["a"] == [9]
        assert rep.excluded["b"] == [9]


class TestConditionalDemographicParity:
    def test_simpson_style_reversal(self):
        # both strata internally at parity; overall rates differ
        # stratum r0: a 8/10, b 16/20 ; stratum r1: a 2/20, b 1/10
        a, r, d = [], [], []
        for g, st, acc, tot in (
            (0, 0, 8, 10),
            (1, 0, 16, 20),
            (0, 1, 2, 20),
            (1, 1, 1, 10),
        ):
            a += [g] * tot
            r += [st] * tot
            d += [1] * acc + [0] * (tot - acc)
        sa = SensitiveAttribute("g", np.array(a), ("a", "b"))
        col = FeatureColumn("r", CATEGORICAL, np.array(r), ("r0", "r1"))
        ds = Dataset((col,), sa)
        preds = PredictionSet(decisions=np.array(d))
        cdp = conditional_demographic_parity(ds, preds, "r", min_count=5)
        dp = demographic_parity(ds, preds)
        assert cdp.max_gap == pytest.approx(0.0, abs=1e-12)
        assert dp.gap > 0.2

    def test_constant_conditioning_reduces_to_dp(self):
        rng = np.random.default_rng(0)
        n = 200
        a = rng.integers(0, 2, n)
        d = rng.integers(0, 2, n)
        sa = SensitiveAttribute("g", a, ("a", "b"))
        col = FeatureColumn("c", CATEGORICAL, np.zeros(n, dtype=int), ("only",))
        ds = Dataset((col,), sa)
        preds = PredictionSet(decisions=d)
        cdp = conditional_demographic_parity(ds, preds, "c", min_count=1)
        dp = demographic_parity(ds, preds)
        assert cdp.max_gap == pytest.approx(dp.gap, abs=1e-15)
        assert len(cdp.strata) == 1

    def test_conditioning_on_target_equals_odds_gaps(self):
        rng = np.random.default_rng(3)
        n = 400
        a = rng.integers(0, 2, n)
        y = rng.integers(0, 2, n)
        d = rng.integers(0, 2, n)
        sa = SensitiveAttribute("g", a, ("a", "b"))
        ds = Dataset((), sa, target=y)
        preds = PredictionSet(decisions=d)
        cdp = conditional_demographic_parity(ds, preds, "Y", min_count=1)
        eo = equality_of_odds(ds, preds)
        # stratum Y=0 acceptance is the fpr; Y=1 acceptance gap equals the fnr gap
        assert cdp.strata["0"].gap == pytest.approx(eo.components["fpr"].gap, abs=1e-12)
        assert cdp.strata["1"].gap == pytest.approx(eo.components["fnr"].gap, abs=1e-12)

    def test_continuous_conditioner_rejected(self):
        sa = SensitiveAttribute("g", np.array([0, 1]), ("a", "b"))
        col = FeatureColumn("x", CONTINUOUS, np.array([0.1, 0.2]))
        ds = Dataset((col,), sa)
        with pytest.raises(ValueError, match="bin"):
            conditional_demographic_parity(
                ds, PredictionSet(decisions=np.array([0, 1])), "x"
            )

    def test_unknown_column(self):
        sa = SensitiveAttribute("g", np.array([0, 1]), ("a", "b"))
        ds = Dataset((), sa)
        with pytest.raises(KeyError):
            conditional_demographic_parity(
                ds, PredictionSet(decisions=np.array([0, 1])), "nope"
            )


class TestGroupStatsInvariants:
    def test_acceptance_decomposition(self):
        # ppr = fpr (1-p) + tpr p, exactly, for every group
        rng = np.random.default_rng(5)
        for _ in range(20):
            counts = [tuple(rng.integers(1, 40, 4)) for _ in range(3)]
            ds, preds = from_counts(counts, labels=("a", "b", "c"))
            for s in compute_group_stats(ds, preds):
                lhs = s.acceptance
                rhs = s.fpr * (1 - s.base_rate) + s.tpr * s.base_rate
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_dp_on_positives_equals_tpr(self):
        rng = np.random.default_rng(6)
        n = 300
        a = rng.integers(0, 2, n)
        y = rng.integers(0, 2, n)
        d = rng.integers(0, 2, n)
        sa = SensitiveAttribute("g", a, ("a", "b"))
        ds = Dataset((), sa, target=y)
        preds = PredictionSet(decisions=d)
        pos = np.flatnonzero(y == 1)
        dp_pos = demographic_parity(ds.take(pos), preds.take(pos))
        stats = compute_group_stats(ds, preds)
        for s in stats:
            assert dp_pos.groups[s.label] == pytest.approx(s.tpr, abs=1e-15)

    def test_counts_sum(self):
        ds, preds = from_counts([(3, 4, 5, 6), (1, 2, 3, 4)])
        stats = compute_group_stats(ds, preds)
        assert sum(s.count for s in stats) == ds.n


class TestApplyThreshold:
    def test_zero_threshold_accepts_all(self):
        ds, preds = scored([0, 1, 0, 1], None, [0.0, 0.3, 0.6, 1.0])
        policy = ThresholdPolicy({(0, None): 0.0, (1, None): 0.0})
        out = apply_threshold(preds, policy, ds.sensitive)
        assert out.decisions.tolist() == [1, 1, 1, 1]

    def test_above_one_rejects_all(self):
        ds, preds = scored([0, 1, 0, 1], None, [0.0, 0.3, 0.6, 1.0])
        t = float(np.nextafter(1.0, 2.0))
        policy = ThresholdPolicy({(0, None): t, (1, None): t})
        out = apply_threshold(preds, policy, ds.sensitive)
        assert out.decisions.tolist() == [0, 0, 0, 0]

    def test_boundary_is_accepting(self):
        ds, preds = scored([0, 0, 0, 1], None, [0.3, 0.5, 0.7, 0.5])
        policy = ThresholdPolicy({(0, None): 0.5, (1, None): 0.5})
        out = apply_threshold(preds, policy, ds.sensitive)
        assert out.decisions.tolist() == [0, 1, 1, 1]

    def test_uncovered_cell_errors(self):
        ds, preds = scored([0, 1], None, [0.2, 0.8])
        policy = ThresholdPolicy({(0, None): 0.5})
        with pytest.raises(ValueError, match="cover"):
            apply_threshold(preds, policy, ds.sensitive)

    def test_stratified_lookup_matches_membership(self):
        rng = np.random.default_rng(7)
        n = 100
        a = rng.integers(0, 2, n)
        st = rng.integers(0, 3, n)
        s = rng.random(n)
        cells = {(g, k): rng.random() for g in (0, 1) for k in (0, 1, 2)}
        policy = ThresholdPolicy(cells, stratum_column="st")
        preds = PredictionSet(scores=s)
        out = apply_threshold(preds, policy, a, st)
        for i in range(n):
            assert out.decisions[i] == (1 if s[i] >= cells[(a[i], st[i])] else 0)


def test_report_json_envelope():
    ds, preds = from_counts([(40, 60, 0, 0), (20, 80, 0, 0)])
    doc = demographic_parity(ds, preds).to_json_dict()
    assert set(doc) == {"metric", "groups", "gap", "ratio", "skipped"}
    assert doc["groups"] == {"a": pytest.approx(0.4), "b": pytest.approx(0.2)}


def test_multigroup_aggregation_semantics():
    # three groups: gap is the max pairwise difference, ratio the global min/max
    ds, preds = from_counts(
        [(40, 60, 0, 0), (20, 80, 0, 0), (10, 90, 0, 0)], labels=("a", "b", "c")
    )
    rep = demographic_parity(ds, preds)
    assert rep.gap == pytest.approx(0.30)
    assert rep.ratio == pytest.approx(0.10 / 0.40)


def test_multigroup_permutation_invariance():
    rng = np.random.default_rng(8)
    counts = [tuple(rng.integers(1, 30, 4)) for _ in range(3)]
    ds, preds = from_counts(counts, labels=("a", "b", "c"))
    base = demographic_parity(ds, preds)
    perm = [counts[2], counts[0], counts[1]]
    ds2, preds2 = from_counts(perm, labels=("c", "a", "b"))
    swapped = demographic_parity(ds2, preds2)
    assert swapped.gap == pytest.approx(base.gap, abs=1e-15)
    assert swapped.ratio == pytest.approx(base.ratio, abs=1e-15)
    for lab in ("a", "b", "c"):
        assert swapped.groups[lab] == pytest.approx(base.groups[lab], abs=1e-15)


def test_prediction_length_mismatch_rejected():
    ds, _ = from_counts([(5, 5, 5, 5), (5, 5, 5, 5)])
    short = PredictionSet(decisions=np.array([0, 1, 0]))
    with pytest.raises(ValueError, match="rows"):
        demographic_parity(ds, short)


@given(
    st.lists(
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
        min_size=2,
        max_size=6,
    )
)
def test_gap_and_ratio_conventions(values):
    labels = [f"g{i}" for i in range(len(values))]
    rep = make_report("probe", labels, values)
    assert rep.gap >= 0.0
    defined = [v for v in values if v is not None]
    if not defined:
        assert rep.ratio is None
        assert set(rep.undefined) == set(labels)
        return
    assert 0.0 <= rep.ratio <= 1.0
    if rep.gap == 0.0:
        assert rep.ratio == 1.0  # gap 0 means ratio 1 whenever defined
    if rep.ratio == 1.0 and max(defined) > 0:
        assert rep.gap == 0.0


# ---------------------------------------------------------------------------
# oracle: the per-mask GroupStats pass and criterion bodies that the
# one-pass compute_group_stats and the STATS_CRITERIA table replaced
# ---------------------------------------------------------------------------


def _old_mean(x):
    return float(np.mean(x)) if len(x) else None


def old_compute_group_stats(ds, preds):
    """GroupStats for every group, in group-code order."""
    out = []
    y = ds.target
    dec = preds.decisions if preds is not None else None
    sc = preds.scores if preds is not None else None
    for g, label in enumerate(ds.sensitive.group_labels):
        m = ds.sensitive.mask(g)
        stats = {"label": label, "count": int(m.sum())}
        if y is not None:
            stats["base_rate"] = _old_mean(y[m])
        if dec is not None:
            stats["acceptance"] = _old_mean(dec[m])
            if y is not None:
                ym, dm = y[m], dec[m]
                pos, neg = ym == 1, ym == 0
                stats["tpr"] = _old_mean(dm[pos])
                stats["fnr"] = None if stats["tpr"] is None else 1.0 - stats["tpr"]
                stats["fpr"] = _old_mean(dm[neg])
                stats["tnr"] = None if stats["fpr"] is None else 1.0 - stats["fpr"]
                stats["ppv"] = _old_mean(ym[dm == 1])
                nm = ym[dm == 0]
                stats["npv"] = None if len(nm) == 0 else float(np.mean(1 - nm))
                stats["accuracy"] = _old_mean((dm == ym).astype(float))
        if sc is not None and y is not None:
            ym, sm = y[m], sc[m]
            stats["mean_score_pos"] = _old_mean(sm[ym == 1])
            stats["mean_score_neg"] = _old_mean(sm[ym == 0])
            stats["auc"] = _auc_scores(ym, sm)
        out.append(GroupStats(**stats))
    return out


def old_make_report(metric, labels, values, reasons=None):
    reasons = reasons or {}
    groups = dict(zip(labels, values))
    undefined = {
        lab: reasons.get(lab, "undefined") for lab, v in groups.items() if v is None
    }
    defined = [v for v in values if v is not None]
    if not defined:
        gap, ratio = 0.0, None
    else:
        hi, lo = max(defined), min(defined)
        gap = hi - lo
        ratio = 1.0 if hi == 0 else lo / hi
    return MetricReport(metric, groups, float(gap), ratio, undefined)


def _old_part(metric, stats, attr, empty_reason):
    labels = [s.label for s in stats]
    values = [getattr(s, attr) for s in stats]
    reasons = {s.label: empty_reason for s, v in zip(stats, values) if v is None}
    return old_make_report(metric, labels, values, reasons)


# criterion -> (the inputs it checked, in order; report from GroupStats)
OLD_CRITERIA = {
    demographic_parity: (("decisions",), lambda st: _old_part(
        "demographic_parity", st, "acceptance", "empty group")),
    predictive_equality: (("decisions", "target"), lambda st: _old_part(
        "predictive_equality", st, "fpr", "no negative cases")),
    equality_of_opportunity: (("decisions", "target"), lambda st: _old_part(
        "equality_of_opportunity", st, "fnr", "no positive cases")),
    equality_of_odds: (("decisions", "target"), lambda st: _compound("equality_of_odds", {
        "fpr": _old_part("predictive_equality", st, "fpr", "no negative cases"),
        "fnr": _old_part("equality_of_opportunity", st, "fnr", "no positive cases")})),
    predictive_parity: (("decisions", "target"), lambda st: _old_part(
        "predictive_parity", st, "ppv", "no accepted rows")),
    sufficiency: (("decisions", "target"), lambda st: _compound("sufficiency", {
        "ppv": _old_part("ppv_parity", st, "ppv", "no accepted rows"),
        "npv": _old_part("npv_parity", st, "npv", "no rejected rows")})),
    accuracy_parity: (("decisions", "target"), lambda st: _old_part(
        "accuracy_parity", st, "accuracy", "empty group")),
    balance_positive_class: (("scores", "target"), lambda st: _old_part(
        "balance_positive_class", st, "mean_score_pos", "no positive cases")),
    balance_negative_class: (("scores", "target"), lambda st: _old_part(
        "balance_negative_class", st, "mean_score_neg", "no negative cases")),
    auc_parity: (("scores", "target"), lambda st: _old_part(
        "auc_parity", st, "auc", "one class missing")),
}
OLD_MESSAGES = {
    "decisions": "this criterion needs binary decisions",
    "scores": "this criterion needs scores",
    "target": "this criterion needs the ground-truth target",
}


@st.composite
def audit_inputs(draw):
    """Random groups, target, decisions and scores, with the corner cases
    drawn on purpose: empty groups, one-class groups, groups with no
    accepted or no rejected rows, tied scores, and absent inputs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_groups = draw(st.integers(2, 4))
    n = draw(st.sampled_from([0, 1, 2, 5, 17, 60, 300, 700]))
    present = draw(st.lists(st.integers(0, n_groups - 1), min_size=1, unique=True))
    codes = rng.choice(present, size=n)

    def binary(kind):
        # per group: random, all 0 or all 1
        p = {"random": rng.random(n_groups), "const": rng.integers(0, 2, n_groups)}[kind]
        return (rng.random(n) < p[codes]).astype(int)

    y = binary(draw(st.sampled_from(["random", "const"])))
    dec = binary(draw(st.sampled_from(["random", "const"])))
    scores = draw(st.sampled_from(["continuous", "ties"]))
    sc = rng.random(n) if scores == "continuous" else rng.choice([0.0, 0.25, 0.5, 1.0], n)
    has = draw(st.sampled_from(["both", "decisions", "scores"]))
    sa = SensitiveAttribute("g", codes, tuple(f"g{i}" for i in range(n_groups)))
    ds = Dataset((), sa, target=y if draw(st.booleans()) else None)
    preds = PredictionSet(
        decisions=None if has == "scores" else dec,
        scores=None if has == "decisions" else sc,
    )
    return ds, preds


@pytest.mark.filterwarnings("ignore:dataset has 0 rows")
class TestOnePassAgainstPerMaskOracle:
    @settings(max_examples=400, deadline=None)
    @given(audit_inputs())
    def test_group_stats_equal_field_by_field(self, inputs):
        ds, preds = inputs
        new, old = compute_group_stats(ds, preds), old_compute_group_stats(ds, preds)
        assert len(new) == len(old)
        for a, b in zip(new, old):
            for f in fields(GroupStats):
                assert getattr(a, f.name) == getattr(b, f.name), f.name

    @settings(max_examples=200, deadline=None)
    @given(audit_inputs())
    def test_criteria_reports_equal(self, inputs):
        ds, preds = inputs
        have = {"decisions": preds.decisions is not None,
                "scores": preds.scores is not None,
                "target": ds.target is not None}
        old_stats = old_compute_group_stats(ds, preds)
        for fn, (needs, old_report) in OLD_CRITERIA.items():
            missing = [n for n in needs if not have[n]]
            if missing:
                with pytest.raises(ValueError, match=OLD_MESSAGES[missing[0]]):
                    fn(ds, preds)
            else:
                assert fn(ds, preds) == old_report(old_stats), fn.__name__


# ``_auc_scores`` as it was written over ``scipy.stats.rankdata``, kept
# verbatim as the reference for the numpy average ranks (only the name
# differs); tests may import ``scipy.stats``, the package does not.


def _rankdata_auc_scores(y, s):
    """Rank-statistic AUC with ties counted one half."""
    from scipy.stats import rankdata

    y = np.asarray(y)
    npos = int(y.sum())
    nneg = len(y) - npos
    if npos == 0 or nneg == 0:
        return None
    r = rankdata(s)
    return float((r[y == 1].sum() - npos * (npos + 1) / 2.0) / (npos * nneg))


@st.composite
def tie_heavy(draw, max_len=2000):
    """Arrays of a few distinct levels, integers or floats, ties everywhere."""
    levels = draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False), min_size=1, max_size=5
    ))
    n = draw(st.integers(0, max_len))
    seed = draw(st.integers(0, 2**32 - 1))
    picks = np.random.default_rng(seed).integers(0, len(levels), n)
    values = np.asarray(levels)[picks]
    return values.astype(np.int64) if draw(st.booleans()) else values


class TestAverageRanks:
    @settings(max_examples=200, deadline=None)
    @given(tie_heavy())
    def test_equals_scipy_rankdata(self, s):
        from scipy.stats import rankdata

        assert np.array_equal(_average_ranks(s), rankdata(s))

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 2000])
    def test_all_equal(self, n):
        from scipy.stats import rankdata

        s = np.full(n, 0.25)
        assert np.array_equal(_average_ranks(s), rankdata(s))
        assert np.array_equal(_average_ranks(s), np.full(n, (n + 1) / 2.0))

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy(), st.integers(0, 2**32 - 1))
    def test_auc_equals_rankdata_auc(self, s, seed):
        y = np.random.default_rng(seed).integers(0, 2, len(s))
        assert _auc_scores(y, s) == _rankdata_auc_scores(y, s)
