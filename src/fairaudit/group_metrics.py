"""Observational group-fairness criteria over decisions and scores.

Every criterion reports per-group values plus two aggregates: the gap
(max pairwise absolute difference over groups where the value is defined)
and the ratio (min/max). Groups with empty denominators are flagged and
excluded from aggregates rather than raising: tiny strata are routine in
conditional parity audits.

Conventions: with more than two groups the gap is the max pairwise gap and
the ratio the global min/max, the strictest reading of pairwise parity;
when all defined values are 0 the ratio is 1 (identical groups are parity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import rankdata

from .data import PredictionSet, SensitiveAttribute


@dataclass(frozen=True)
class GroupStats:
    """Per-group confusion and score statistics.

    Rates are ``None`` when their denominator is empty (e.g. no negatives
    in the group leaves the false positive rate undefined).
    """

    label: str
    count: int
    base_rate: float | None = None
    acceptance: float | None = None
    tpr: float | None = None
    fpr: float | None = None
    fnr: float | None = None
    tnr: float | None = None
    ppv: float | None = None
    npv: float | None = None
    accuracy: float | None = None
    mean_score_pos: float | None = None
    mean_score_neg: float | None = None
    auc: float | None = None


def _mean(x):
    return float(np.mean(x)) if len(x) else None


def _auc_scores(y, s):
    """Rank-statistic AUC with ties counted one half."""
    y = np.asarray(y)
    npos = int(y.sum())
    nneg = len(y) - npos
    if npos == 0 or nneg == 0:
        return None
    r = rankdata(s)
    return float((r[y == 1].sum() - npos * (npos + 1) / 2.0) / (npos * nneg))


def compute_group_stats(ds, preds):
    """GroupStats for every group, in group-code order."""
    out = []
    y = ds.target
    dec = preds.decisions if preds is not None else None
    sc = preds.scores if preds is not None else None
    for g, label in enumerate(ds.sensitive.group_labels):
        m = ds.sensitive.mask(g)
        stats = {"label": label, "count": int(m.sum())}
        if y is not None:
            stats["base_rate"] = _mean(y[m])
        if dec is not None:
            stats["acceptance"] = _mean(dec[m])
            if y is not None:
                ym, dm = y[m], dec[m]
                pos, neg = ym == 1, ym == 0
                stats["tpr"] = _mean(dm[pos])
                stats["fnr"] = None if stats["tpr"] is None else 1.0 - stats["tpr"]
                stats["fpr"] = _mean(dm[neg])
                stats["tnr"] = None if stats["fpr"] is None else 1.0 - stats["fpr"]
                stats["ppv"] = _mean(ym[dm == 1])
                nm = ym[dm == 0]
                stats["npv"] = None if len(nm) == 0 else float(np.mean(1 - nm))
                stats["accuracy"] = _mean((dm == ym).astype(float))
        if sc is not None and y is not None:
            ym, sm = y[m], sc[m]
            stats["mean_score_pos"] = _mean(sm[ym == 1])
            stats["mean_score_neg"] = _mean(sm[ym == 0])
            stats["auc"] = _auc_scores(ym, sm)
        out.append(GroupStats(**stats))
    return out


@dataclass(frozen=True)
class MetricReport:
    """Per-group values of one criterion plus gap/ratio aggregates."""

    metric: str
    groups: dict
    gap: float
    ratio: float | None
    undefined: dict = field(default_factory=dict)
    components: dict | None = None

    def to_json_dict(self):
        doc = {
            "metric": self.metric,
            "groups": {k: v for k, v in self.groups.items()},
            "gap": self.gap,
            "ratio": self.ratio,
            "skipped": sorted(self.undefined),
        }
        if self.components:
            doc["components"] = {k: r.to_json_dict() for k, r in self.components.items()}
        return doc


def make_report(metric, labels, values, reasons=None):
    """Assemble a MetricReport from per-group values (None = undefined)."""
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


def _compound(metric, parts):
    """Combine component reports; the headline gap is the worst component gap."""
    gap = max(r.gap for r in parts.values())
    undefined = {}
    for r in parts.values():
        undefined.update(r.undefined)
    return MetricReport(metric, {}, float(gap), None, undefined, dict(parts))


def _require(preds, what, ds=None):
    if what == "decisions" and (preds is None or preds.decisions is None):
        raise ValueError("this criterion needs binary decisions")
    if what == "scores" and (preds is None or preds.scores is None):
        raise ValueError("this criterion needs scores")
    if ds is not None and preds is not None and preds.n != ds.n:
        raise ValueError(f"predictions cover {preds.n} rows, dataset has {ds.n}")


def _require_target(ds):
    if ds.target is None:
        raise ValueError("this criterion needs the ground-truth target")


def _per_group(ds, stats, attr, empty_reason):
    labels = [s.label for s in stats]
    values = [getattr(s, attr) for s in stats]
    reasons = {s.label: empty_reason for s, v in zip(stats, values) if v is None}
    return labels, values, reasons


def demographic_parity(ds, preds):
    """Acceptance-rate parity: decisions independent of the group."""
    _require(preds, "decisions", ds)
    stats = compute_group_stats(ds, preds)
    return make_report(
        "demographic_parity", *_per_group(ds, stats, "acceptance", "empty group")
    )


def predictive_equality(ds, preds):
    """False-positive-rate parity across groups."""
    _require(preds, "decisions", ds)
    _require_target(ds)
    stats = compute_group_stats(ds, preds)
    return make_report(
        "predictive_equality", *_per_group(ds, stats, "fpr", "no negative cases")
    )


def equality_of_opportunity(ds, preds):
    """False-negative-rate parity across groups."""
    _require(preds, "decisions", ds)
    _require_target(ds)
    stats = compute_group_stats(ds, preds)
    return make_report(
        "equality_of_opportunity", *_per_group(ds, stats, "fnr", "no positive cases")
    )


def equality_of_odds(ds, preds):
    """Separation: equal false positive and false negative rates jointly.

    The headline gap is the larger of the per-rate gaps over group pairs.
    """
    fpr = predictive_equality(ds, preds)
    fnr = equality_of_opportunity(ds, preds)
    return _compound("equality_of_odds", {"fpr": fpr, "fnr": fnr})


def predictive_parity(ds, preds):
    """Precision parity among accepted rows."""
    _require(preds, "decisions", ds)
    _require_target(ds)
    stats = compute_group_stats(ds, preds)
    return make_report(
        "predictive_parity", *_per_group(ds, stats, "ppv", "no accepted rows")
    )


def sufficiency(ds, preds):
    """Precision and NPV parity jointly; gap is the worse of the two."""
    _require(preds, "decisions", ds)
    _require_target(ds)
    stats = compute_group_stats(ds, preds)
    ppv = make_report("ppv_parity", *_per_group(ds, stats, "ppv", "no accepted rows"))
    npv = make_report("npv_parity", *_per_group(ds, stats, "npv", "no rejected rows"))
    return _compound("sufficiency", {"ppv": ppv, "npv": npv})


def accuracy_parity(ds, preds):
    _require(preds, "decisions", ds)
    _require_target(ds)
    stats = compute_group_stats(ds, preds)
    return make_report(
        "accuracy_parity", *_per_group(ds, stats, "accuracy", "empty group")
    )


def balance_positive_class(ds, preds):
    """Mean-score parity among truly positive rows."""
    _require(preds, "scores", ds)
    _require_target(ds)
    stats = compute_group_stats(ds, preds)
    return make_report(
        "balance_positive_class",
        *_per_group(ds, stats, "mean_score_pos", "no positive cases"),
    )


def balance_negative_class(ds, preds):
    """Mean-score parity among truly negative rows."""
    _require(preds, "scores", ds)
    _require_target(ds)
    stats = compute_group_stats(ds, preds)
    return make_report(
        "balance_negative_class",
        *_per_group(ds, stats, "mean_score_neg", "no negative cases"),
    )


def auc_parity(ds, preds):
    """Per-group ranking quality parity (AUC with ties counted 1/2)."""
    _require(preds, "scores", ds)
    _require_target(ds)
    stats = compute_group_stats(ds, preds)
    return make_report(
        "auc_parity", *_per_group(ds, stats, "auc", "one class missing")
    )


@dataclass(frozen=True)
class StratifiedReport:
    """Per-stratum reports of one criterion plus cross-stratum aggregates.

    ``max_gap`` and ``weighted_mean_gap`` aggregate only strata where every
    group cell meets ``min_count``; the rest are listed in ``skipped``.
    """

    metric: str
    strata: dict
    max_gap: float | None
    weighted_mean_gap: float | None
    skipped: list

    def to_json_dict(self):
        return {
            "metric": self.metric,
            "strata": {k: r.to_json_dict() for k, r in self.strata.items()},
            "max_gap": self.max_gap,
            "weighted_mean_gap": self.weighted_mean_gap,
            "skipped": list(self.skipped),
        }


def conditional_demographic_parity(ds, preds, conditioning, min_count=30):
    """Acceptance-rate parity within each stratum of a conditioning column.

    The conditioning column must be categorical (bin continuous columns
    first with :func:`fairaudit.data.quantile_bin`); conditioning on the
    target column name reproduces the separation rates stratum by stratum.
    """
    _require(preds, "decisions", ds)
    codes, labels = ds.column_codes(conditioning)
    dec = preds.decisions
    strata, skipped, weights = {}, [], {}
    for s, slab in enumerate(labels):
        m = codes == s
        if not m.sum():
            skipped.append(slab)
            continue
        sub_vals, sub_reasons = [], {}
        qualifying = True
        for g, glab in enumerate(ds.sensitive.group_labels):
            cell = m & ds.sensitive.mask(g)
            cnt = int(cell.sum())
            if cnt < min_count:
                qualifying = False
            if cnt == 0:
                sub_vals.append(None)
                sub_reasons[glab] = "empty cell"
            else:
                sub_vals.append(float(dec[cell].mean()))
        strata[slab] = make_report(
            f"demographic_parity|{conditioning}={slab}",
            ds.sensitive.group_labels,
            sub_vals,
            sub_reasons,
        )
        if qualifying:
            weights[slab] = int(m.sum())
        else:
            skipped.append(slab)
    if weights:
        max_gap = max(strata[s].gap for s in weights)
        total = sum(weights.values())
        wmean = sum(strata[s].gap * w for s, w in weights.items()) / total
    else:
        max_gap = wmean = None
    return StratifiedReport(
        "conditional_demographic_parity", strata, max_gap, wmean, skipped
    )


@dataclass(frozen=True)
class BinStat:
    index: int
    lo: float
    hi: float
    count: int
    mean_score: float
    empirical_rate: float


@dataclass(frozen=True)
class CalibrationReport:
    """Per-group calibration-within-groups diagnostics.

    The per-group error is the worst absolute difference between a bin's
    mean score and its empirical positive rate, over bins holding at least
    ``min_count`` rows of that group.
    """

    report: MetricReport
    bins: dict
    excluded: dict

    def to_json_dict(self):
        doc = self.report.to_json_dict()
        doc["bins"] = {
            lab: [vars(b) for b in bs] for lab, bs in self.bins.items()
        }
        doc["excluded_bins"] = {k: list(v) for k, v in self.excluded.items()}
        return doc


def calibration_within_groups(ds, preds, bins=10, min_count=30):
    """Score calibration checked separately inside every group."""
    _require(preds, "scores", ds)
    _require_target(ds)
    if bins < 1:
        raise ValueError("bins must be >= 1")
    edges = np.linspace(0.0, 1.0, bins + 1)
    sc, y = preds.scores, ds.target
    idx = np.clip(np.searchsorted(edges, sc, side="right") - 1, 0, bins - 1)
    labels = ds.sensitive.group_labels
    values, reasons, bin_detail, excluded = [], {}, {}, {}
    for g, lab in enumerate(labels):
        m = ds.sensitive.mask(g)
        stats, skipped_bins, err = [], [], None
        for b in range(bins):
            cell = m & (idx == b)
            cnt = int(cell.sum())
            if cnt == 0:
                continue
            st = BinStat(
                b,
                float(edges[b]),
                float(edges[b + 1]),
                cnt,
                float(sc[cell].mean()),
                float(y[cell].mean()),
            )
            if cnt < min_count:
                skipped_bins.append(b)
                stats.append(st)
                continue
            stats.append(st)
            e = abs(st.empirical_rate - st.mean_score)
            err = e if err is None else max(err, e)
        bin_detail[lab] = stats
        excluded[lab] = skipped_bins
        values.append(err)
        if err is None:
            reasons[lab] = "no bin meets min_count"
    rep = make_report("calibration_within_groups", labels, values, reasons)
    return CalibrationReport(rep, bin_detail, excluded)


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per-group (optionally per-stratum) decision thresholds over scores.

    ``cells`` maps ``(group_code, stratum_code_or_None)`` to a threshold; a
    row is accepted iff its score is >= the threshold of its cell.
    ``target_rate`` records the common acceptance rate the policy was fitted
    to. Cells filled from the global policy (strata too small, or a group
    absent from a stratum) are listed in ``fallback_cells``.
    """

    cells: dict
    target_rate: float | None = None
    stratum_column: str | None = None
    fallback_cells: tuple = ()
    flags: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "cells", dict(self.cells))

    def threshold(self, group, stratum=None):
        key = (int(group), None if stratum is None else int(stratum))
        if key not in self.cells:
            raise ValueError(f"threshold policy does not cover cell {key}")
        return self.cells[key]

    def to_json_dict(self):
        return {
            "cells": {
                f"{g}|{'-' if s is None else s}": t for (g, s), t in self.cells.items()
            },
            "target_rate": self.target_rate,
            "stratum_column": self.stratum_column,
            "fallback_cells": [
                f"{g}|{'-' if s is None else s}" for g, s in self.fallback_cells
            ],
            "flags": list(self.flags),
        }

    @classmethod
    def from_json_dict(cls, doc):
        cells = {}
        for key, t in doc["cells"].items():
            g, _, s = key.partition("|")
            cells[(int(g), None if s == "-" else int(s))] = float(t)
        return cls(
            cells,
            doc.get("target_rate"),
            doc.get("stratum_column"),
            tuple(
                (int(k.partition("|")[0]),
                 None if k.partition("|")[2] == "-" else int(k.partition("|")[2]))
                for k in doc.get("fallback_cells", ())
            ),
            tuple(doc.get("flags", ())),
        )


def apply_threshold(preds, policy, groups, strata=None):
    """Threshold scores cell by cell: accept iff score >= cell threshold."""
    _require(preds, "scores")
    if isinstance(groups, SensitiveAttribute):
        groups = groups.values
    groups = np.asarray(groups, dtype=int)
    if strata is not None:
        strata = np.asarray(getattr(strata, "values", strata), dtype=int)
    cell = np.stack([groups, groups if strata is None else strata], axis=1)
    keys, first, inverse = np.unique(
        cell, axis=0, return_index=True, return_inverse=True
    )
    # look cells up in row order, so a missing cell is reported as before
    t = np.empty(len(keys))
    for c in np.argsort(first):
        t[c] = policy.threshold(keys[c, 0], None if strata is None else keys[c, 1])
    sc = preds.scores
    return PredictionSet((sc >= t[inverse.reshape(-1)]).astype(int), sc)
