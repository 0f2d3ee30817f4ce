import re

import numpy as np
import pytest
from hypothesis import assume, given, settings

from fairaudit.data import Dataset, PredictionSet, SensitiveAttribute
from fairaudit.group_metrics import (
    _gap,
    balance_negative_class,
    balance_positive_class,
    calibration_within_groups,
    compute_group_stats,
)
from fairaudit.incompatibility import (
    CriteriaGaps,
    _gaps,
    check_sep_suff_exclusion,
    gaps,
    separation_implies_dp_gap,
    sufficiency_implies_dp_gap,
)
from fairaudit.info_theory import symmetric_uncertainty
from tests.test_group_metrics import audit_inputs, from_counts, scored
from tests.test_info_theory import _old_from_codes


class TestGaps:
    def test_perfect_classifier_unequal_base_rates(self):
        # a: 60% positive, b: 30% positive, predictions equal to the truth
        ds, preds = from_counts([(60, 0, 0, 40), (30, 0, 0, 70)])
        g = gaps(ds, preds)
        assert g.sep_gap == 0.0
        assert g.suff_gap == 0.0
        assert g.base_rate_gap == pytest.approx(0.3)
        assert g.indep_gap == pytest.approx(g.base_rate_gap, abs=1e-12)
        assert g.usefulness == pytest.approx(1.0)

    def test_constant_classifier(self):
        ds, preds = from_counts([(50, 0, 50, 0), (20, 0, 80, 0)])
        g = gaps(ds, preds)
        assert g.indep_gap == 0.0
        assert g.usefulness == 0.0

    def test_flags_propagate(self):
        # one group has no negatives -> fpr undefined there
        ds, preds = from_counts([(10, 5, 3, 12), (5, 5, 0, 0)])
        g = gaps(ds, preds)
        assert any("fpr" in f for f in g.flags)

    def test_flags_follow_group_labels(self):
        # "b" appears first and takes code 0; the flags still list "a" first
        sa = SensitiveAttribute.from_values("g", ["b", "a", "b", "a"])
        y = np.array([1, 0, 1, 0])
        g = gaps(Dataset((), sa, target=y), PredictionSet(decisions=y))
        assert g.flags == (
            "fnr undefined for group a", "ppv undefined for group a",
            "fpr undefined for group b", "npv undefined for group b",
        )


DEN = 8  # rate denominator: positives/negatives are multiples of it, so
# every confusion cell below is an exact integer


def exact_separation_counts(tpr_num, fpr_num, pos_mults, neg_mults):
    """Group counts realising tpr = tpr_num/DEN and fpr = fpr_num/DEN exactly."""
    groups = []
    for a, b in zip(pos_mults, neg_mults):
        pos, neg = DEN * a, DEN * b
        tp, fp = tpr_num * a, fpr_num * b
        groups.append((tp, pos - tp, fp, neg - fp))
    return groups


class TestSeparationIdentity:
    def test_useless_classifier_escape_hatch(self):
        assert separation_implies_dp_gap(0.3, 0.3, [0.7, 0.1]) == 0.0

    def test_equal_base_rates_escape_hatch(self):
        assert separation_implies_dp_gap(0.9, 0.1, [0.4, 0.4]) == 0.0

    def test_hand_value(self):
        assert separation_implies_dp_gap(0.8, 0.2, [0.6, 0.3]) == pytest.approx(0.18)

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            separation_implies_dp_gap(1.2, 0.1, [0.5, 0.4])
        with pytest.raises(ValueError):
            separation_implies_dp_gap(0.5, 0.1, [0.5, 1.4])

    def test_matches_gaps_on_exact_counts(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            tpr_num = int(rng.integers(0, DEN + 1))
            fpr_num = int(rng.integers(0, DEN + 1))
            pos_mults = rng.integers(1, 9, size=2)
            neg_mults = rng.integers(1, 9, size=2)
            counts = exact_separation_counts(tpr_num, fpr_num, pos_mults, neg_mults)
            ds, preds = from_counts(counts)
            g = gaps(ds, preds)
            base_rates = [(tp + fn) / sum(c) for c in counts for tp, fn, _, _ in [c]]
            predicted = separation_implies_dp_gap(
                tpr_num / DEN, fpr_num / DEN, base_rates
            )
            assert g.sep_gap <= 1e-12
            assert g.indep_gap == pytest.approx(predicted, abs=1e-12)


def exact_sufficiency_counts(ppv_num, npv_num, acc_mults, rej_mults):
    """Group counts realising ppv = ppv_num/DEN and npv = npv_num/DEN exactly."""
    groups = []
    for a, b in zip(acc_mults, rej_mults):
        acc, rej = DEN * a, DEN * b
        tp, tn = ppv_num * a, npv_num * b
        groups.append((tp, rej - tn, acc - tp, tn))
    return groups


class TestSufficiencyIdentity:
    def test_equal_base_rates(self):
        assert sufficiency_implies_dp_gap(0.9, 0.9, [0.5, 0.5]) == 0.0

    def test_hand_value(self):
        # base rates 0.5 and 0.42 under ppv = npv = 0.9: gap 0.08 / 0.8
        assert sufficiency_implies_dp_gap(0.9, 0.9, [0.5, 0.42]) == pytest.approx(0.1)

    def test_degenerate_boundary_flagged(self):
        with pytest.warns(UserWarning, match="uninformative"):
            out = sufficiency_implies_dp_gap(0.6, 0.4, [0.5, 0.3])
        assert out == float("inf")

    def test_matches_gaps_on_exact_counts(self):
        rng = np.random.default_rng(1)
        done = 0
        while done < 20:
            ppv_num = int(rng.integers(0, DEN + 1))
            npv_num = int(rng.integers(0, DEN + 1))
            if ppv_num + npv_num == DEN:  # uninformative boundary
                continue
            acc_mults = rng.integers(1, 9, size=2)
            rej_mults = rng.integers(1, 9, size=2)
            counts = exact_sufficiency_counts(ppv_num, npv_num, acc_mults, rej_mults)
            ds, preds = from_counts(counts)
            g = gaps(ds, preds)
            base_rates = [(tp + fn) / sum(c) for c in counts for tp, fn, _, _ in [c]]
            predicted = sufficiency_implies_dp_gap(
                ppv_num / DEN, npv_num / DEN, base_rates
            )
            assert g.suff_gap <= 1e-12
            assert g.indep_gap == pytest.approx(predicted, abs=1e-12)
            done += 1


class TestSepSuffExclusion:
    def test_perfect_classifier_degenerate(self):
        ds, preds = from_counts([(60, 0, 0, 40), (30, 0, 0, 70)])
        v = check_sep_suff_exclusion(ds, preds)
        assert not v.applicable
        assert "degenerate" in v.verdict

    def test_randomized_search_finds_no_forbidden_combination(self):
        # 1,000 random datasets in the regime the exclusion covers
        rng = np.random.default_rng(2)
        trials = 0
        while trials < 1000:
            n = 200
            a = rng.integers(0, 2, n)
            p = (0.55, 0.35)  # base_rate_gap well above tol
            y = np.array([rng.random() < p[g] for g in a], dtype=int)
            noise = rng.random(n) < rng.uniform(0.05, 0.4)
            d = np.where(noise, 1 - y, y)
            if not ((d == 1) & (y == 0)).any():
                continue
            acc = (d == y).mean()
            if not 0.6 < acc < 0.95:
                continue
            sa = SensitiveAttribute("g", a, ("a", "b"))
            ds = Dataset((), sa, target=y)
            v = check_sep_suff_exclusion(ds, PredictionSet(decisions=d), tol=1e-9)
            assert not v.forbidden
            trials += 1

    def test_mitigated_model_consistent(self):
        # decisions with equalised acceptance but imperfect errors
        ds, preds = from_counts([(40, 20, 10, 30), (25, 15, 25, 35)])
        v = check_sep_suff_exclusion(ds, preds)
        assert v.applicable
        assert v.sep_gap > 0 and v.suff_gap > 0
        assert v.verdict == "consistent with exclusion"


class TestKleinbergTriple:
    def test_randomized_score_sets(self):
        # with unequal base rates and non-extreme scores, at least one of
        # {balance+, balance-, calibration} must deviate
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = 160
            a = rng.integers(0, 2, n)
            y = np.array([rng.random() < (0.7 if g else 0.4) for g in a], dtype=int)
            if abs(y[a == 0].mean() - y[a == 1].mean()) < 0.05:
                continue
            s = np.clip(rng.beta(2, 2, n) * 0.9 + 0.05, 0.0, 1.0)
            ds, preds = scored(a.tolist(), y.tolist(), s)
            bp = balance_positive_class(ds, preds).gap
            bn = balance_negative_class(ds, preds).gap
            cal = calibration_within_groups(ds, preds, bins=5, min_count=1)
            cal_err = max(v for v in cal.report.groups.values() if v is not None)
            assert max(bp, bn, cal_err) > 0.0


# ``_gaps`` as it was written with a boolean mask per group in the score
# fallback, kept verbatim as the reference (renamed; ``score_bins`` was
# always 10; ``ds.sensitive.mask(g)``, since removed, is spelled
# ``ds.sensitive.values == g``; ``JointTable.from_codes`` is its old
# ``np.add.at`` copy).


def _old_gaps(ds, preds, stats, score_bins=10):
    # flags name groups in label order, so that row order cannot change them
    flags = []
    for s in sorted(stats, key=lambda s: s.label):
        for attr in ("fpr", "fnr", "ppv", "npv"):
            if getattr(s, attr) is None:
                flags.append(f"{attr} undefined for group {s.label}")
    if preds.decisions is not None:
        indep = _gap([s.acceptance for s in stats])
        used = preds.decisions
    else:
        # score-based fallback: bin scores for the usefulness measure,
        # use mean score per group for the independence gap
        sc = preds.scores
        indep = _gap(
            [float(sc[ds.sensitive.values == g].mean()) if (ds.sensitive.values == g).any()
             else None
             for g in range(ds.sensitive.n_groups)]
        )
        used = np.clip((sc * score_bins).astype(int), 0, score_bins - 1)
        flags.append("usefulness computed on binned scores")
    sep = max(_gap([s.fpr for s in stats]), _gap([s.fnr for s in stats]))
    suff = max(_gap([s.ppv for s in stats]), _gap([s.npv for s in stats]))
    base = _gap([s.base_rate for s in stats])
    useful = symmetric_uncertainty(_old_from_codes(ds.target, used))
    return CriteriaGaps(indep, sep, suff, base, useful, tuple(flags))


@pytest.mark.filterwarnings("ignore:dataset has 0 rows", "ignore:both marginals are degenerate")
class TestGapsAgainstMaskLoop:
    @settings(max_examples=300, deadline=None)
    @given(audit_inputs())
    def test_equal_to_old(self, inputs):
        # empty groups, scores-only predictions (the fallback) and no rows
        ds, preds = inputs
        assume(ds.target is not None)
        stats = compute_group_stats(ds, preds)
        try:
            old = _old_gaps(ds, preds, stats)
        except ValueError as exc:  # no rows: nothing to count
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                _gaps(ds, preds, stats)
            return
        assert _gaps(ds, preds, stats).to_json_dict() == old.to_json_dict()
