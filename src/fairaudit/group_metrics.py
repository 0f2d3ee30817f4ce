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

from .data import PredictionSet, cell_rows


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


def _average_ranks(s):
    """1-based ranks with each run of ties given its mean rank.

    A stable sort groups equal values into runs; the run over sorted
    positions [start, end) gets rank ``0.5 * (start + end + 1)``. Half
    integers are exact, so this equals ``scipy.stats.rankdata(s)``.
    """
    s = np.asarray(s)
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(s)]
    ranks = np.empty(len(s))
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def _auc_scores(y, s):
    """Rank-statistic AUC with ties counted one half."""
    y = np.asarray(y)
    npos = int(y.sum())
    nneg = len(y) - npos
    if npos == 0 or nneg == 0:
        return None
    r = _average_ranks(s)
    return float((r[y == 1].sum() - npos * (npos + 1) / 2.0) / (npos * nneg))


def compute_group_stats(ds, preds):
    """GroupStats for every group, in group-code order, all groups at once.

    Rates are quotients of per-group integer counts (``np.bincount``),
    equal bit for bit to the means of the 0/1 values they count. Score
    means and AUCs are taken over the rows of each (group, class) cell of
    :func:`~fairaudit.data.cell_rows`, in row order, so they keep the bits
    of per-group masked means too.
    """
    labels = ds.sensitive.group_labels
    codes, n_g = ds.sensitive.values, len(labels)
    y = ds.target
    dec = preds.decisions if preds is not None else None
    sc = preds.scores if preds is not None else None
    count = np.bincount(codes, minlength=n_g)
    stats = [{"label": lab, "count": int(c)} for lab, c in zip(labels, count)]

    def hits(rows):
        return np.bincount(codes[rows], minlength=n_g)

    def rate(attr, num, den):
        for s, a, b in zip(stats, num.tolist(), den.tolist()):
            s[attr] = a / b if b else None

    if y is not None:
        rate("base_rate", hits(y == 1), count)
    if dec is not None:
        rate("acceptance", hits(dec == 1), count)
        if y is not None:
            tp, fn = hits((y == 1) & (dec == 1)), hits((y == 1) & (dec == 0))
            fp, tn = hits((y == 0) & (dec == 1)), hits((y == 0) & (dec == 0))
            rate("tpr", tp, tp + fn)
            rate("fpr", fp, fp + tn)
            rate("ppv", tp, tp + fp)
            rate("npv", tn, tn + fn)
            rate("accuracy", tp + tn, count)
            for s in stats:
                s["fnr"] = None if s["tpr"] is None else 1.0 - s["tpr"]
                s["tnr"] = None if s["fpr"] is None else 1.0 - s["fpr"]
    if sc is not None and y is not None:
        cells = cell_rows(codes * 2 + y, 2 * n_g)
        for s, neg, pos in zip(stats, cells[0::2], cells[1::2]):
            rows = np.concatenate([neg, pos])
            s["mean_score_pos"] = _mean(sc[pos])
            s["mean_score_neg"] = _mean(sc[neg])
            s["auc"] = _auc_scores(y[rows], sc[rows])
    return [GroupStats(**s) for s in stats]


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


def _gap(values):
    """Max pairwise absolute difference of the defined values (0.0 if none)."""
    defined = [v for v in values if v is not None]
    return float(max(defined) - min(defined)) if defined else 0.0


def make_report(metric, labels, values, reasons=None):
    """Assemble a MetricReport from per-group values (None = undefined)."""
    reasons = reasons or {}
    groups = dict(zip(labels, values))
    undefined = {
        lab: reasons.get(lab, "undefined") for lab, v in groups.items() if v is None
    }
    defined = [v for v in values if v is not None]
    ratio = None
    if defined:
        hi = max(defined)
        ratio = 1.0 if hi == 0 else min(defined) / hi
    return MetricReport(metric, groups, _gap(values), ratio, undefined)


def _compound(metric, parts):
    """Combine component reports; the headline gap is the worst component gap."""
    gap = max(r.gap for r in parts.values())
    undefined = {}
    for r in parts.values():
        undefined.update(r.undefined)
    return MetricReport(metric, {}, float(gap), None, undefined, dict(parts))


# A required input and the message raised when it is missing.
DECISIONS = ("decisions", "this criterion needs binary decisions")
SCORES = ("scores", "this criterion needs scores")
TARGET = ("target", "this criterion needs the ground-truth target")


def _require(ds, preds, needs):
    """Raise ValueError for the first missing input of ``needs``, then for
    predictions that do not cover ``ds``'s rows."""
    for what, message in needs:
        if what == "target":
            if ds.target is None:
                raise ValueError(message)
        elif preds is None or getattr(preds, what) is None:
            raise ValueError(message)
    if ds is not None and preds is not None and preds.n != ds.n:
        raise ValueError(f"predictions cover {preds.n} rows, dataset has {ds.n}")


# The criteria read off GroupStats: name -> (required inputs, parts). A part
# is (report metric, GroupStats field, why a group's value is undefined); a
# criterion with several parts reports them as components keyed by field.
_DY, _SY = (DECISIONS, TARGET), (SCORES, TARGET)
STATS_CRITERIA = {
    "demographic_parity": ((DECISIONS,), (("demographic_parity", "acceptance", "empty group"),)),
    "equality_of_odds": (_DY, (("predictive_equality", "fpr", "no negative cases"),
                               ("equality_of_opportunity", "fnr", "no positive cases"))),
    "predictive_equality": (_DY, (("predictive_equality", "fpr", "no negative cases"),)),
    "equality_of_opportunity": (_DY, (("equality_of_opportunity", "fnr", "no positive cases"),)),
    "predictive_parity": (_DY, (("predictive_parity", "ppv", "no accepted rows"),)),
    "sufficiency": (_DY, (("ppv_parity", "ppv", "no accepted rows"),
                          ("npv_parity", "npv", "no rejected rows"))),
    "accuracy_parity": (_DY, (("accuracy_parity", "accuracy", "empty group"),)),
    "balance_positive_class":
        (_SY, (("balance_positive_class", "mean_score_pos", "no positive cases"),)),
    "balance_negative_class":
        (_SY, (("balance_negative_class", "mean_score_neg", "no negative cases"),)),
    "auc_parity": (_SY, (("auc_parity", "auc", "one class missing"),)),
}


def _stats_report(name, stats):
    """The report of one ``STATS_CRITERIA`` row, read off computed GroupStats."""
    labels = [s.label for s in stats]
    parts = {}
    for metric, attr, reason in STATS_CRITERIA[name][1]:
        values = [getattr(s, attr) for s in stats]
        reasons = {lab: reason for lab, v in zip(labels, values) if v is None}
        parts[attr] = make_report(metric, labels, values, reasons)
    return parts.popitem()[1] if len(parts) == 1 else _compound(name, parts)


def _criterion(name, ds, preds):
    _require(ds, preds, STATS_CRITERIA[name][0])
    return _stats_report(name, compute_group_stats(ds, preds))


def demographic_parity(ds, preds):
    """Acceptance-rate parity: decisions independent of the group."""
    return _criterion("demographic_parity", ds, preds)


def predictive_equality(ds, preds):
    """False-positive-rate parity across groups."""
    return _criterion("predictive_equality", ds, preds)


def equality_of_opportunity(ds, preds):
    """False-negative-rate parity across groups."""
    return _criterion("equality_of_opportunity", ds, preds)


def equality_of_odds(ds, preds):
    """Separation: equal false positive and false negative rates jointly.

    The headline gap is the larger of the per-rate gaps over group pairs.
    """
    return _criterion("equality_of_odds", ds, preds)


def predictive_parity(ds, preds):
    """Precision parity among accepted rows."""
    return _criterion("predictive_parity", ds, preds)


def sufficiency(ds, preds):
    """Precision and NPV parity jointly; gap is the worse of the two."""
    return _criterion("sufficiency", ds, preds)


def accuracy_parity(ds, preds):
    return _criterion("accuracy_parity", ds, preds)


def balance_positive_class(ds, preds):
    """Mean-score parity among truly positive rows."""
    return _criterion("balance_positive_class", ds, preds)


def balance_negative_class(ds, preds):
    """Mean-score parity among truly negative rows."""
    return _criterion("balance_negative_class", ds, preds)


def auc_parity(ds, preds):
    """Per-group ranking quality parity (AUC with ties counted 1/2)."""
    return _criterion("auc_parity", ds, preds)


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
    A stratum enters ``max_gap`` and ``weighted_mean_gap`` only when each
    group holds at least ``min_count`` of its rows, so ``min_count`` must
    be at least 1: an empty group has no rate to compare.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be at least 1, got {min_count}")
    _require(ds, preds, (DECISIONS,))
    codes, labels = ds.column_codes(conditioning)
    glabels = ds.sensitive.group_labels
    cells = cell_rows(ds.sensitive.values * len(labels) + codes, len(glabels) * len(labels))
    strata, skipped, weights = {}, [], {}
    for s, slab in enumerate(labels):
        rows = cells[s :: len(labels)]  # this stratum's cell of every group
        count = sum(len(r) for r in rows)
        if not count:
            skipped.append(slab)
            continue
        strata[slab] = make_report(
            f"demographic_parity|{conditioning}={slab}",
            glabels,
            [_mean(preds.decisions[r]) for r in rows],
            {glab: "empty cell" for glab, r in zip(glabels, rows) if not len(r)},
        )
        if all(len(r) >= min_count for r in rows):
            weights[slab] = count
        else:
            skipped.append(slab)
    if weights:
        max_gap = max(strata[s].gap for s in weights)
        wmean = sum(strata[s].gap * w for s, w in weights.items()) / sum(weights.values())
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
    _require(ds, preds, (SCORES, TARGET))
    if bins < 1:
        raise ValueError("bins must be >= 1")
    edges = np.linspace(0.0, 1.0, bins + 1)
    sc, y = preds.scores, ds.target
    idx = np.clip(np.searchsorted(edges, sc, side="right") - 1, 0, bins - 1)
    labels = ds.sensitive.group_labels
    cells = cell_rows(ds.sensitive.values * bins + idx, len(labels) * bins)
    values, reasons, bin_detail, excluded = [], {}, {}, {}
    for g, lab in enumerate(labels):
        stats, skipped_bins, err = [], [], None
        for b, rows in enumerate(cells[g * bins : (g + 1) * bins]):
            if not len(rows):
                continue
            st = BinStat(
                b,
                float(edges[b]),
                float(edges[b + 1]),
                len(rows),
                float(sc[rows].mean()),
                float(y[rows].mean()),
            )
            stats.append(st)
            if len(rows) < min_count:
                skipped_bins.append(b)
                continue
            e = abs(st.empirical_rate - st.mean_score)
            err = e if err is None else max(err, e)
        bin_detail[lab] = stats
        excluded[lab] = skipped_bins
        values.append(err)
        if err is None:
            reasons[lab] = "no bin meets min_count"
    rep = make_report("calibration_within_groups", labels, values, reasons)
    return CalibrationReport(rep, bin_detail, excluded)


def _cell_key(group, stratum):
    """A policy cell's JSON key: ``"<group>|<stratum>"``, ``-`` for no stratum."""
    return f"{group}|{'-' if stratum is None else stratum}"


def _parse_cell_key(key):
    """The ``(group, stratum or None)`` cell that :func:`_cell_key` wrote as ``key``."""
    group, _, stratum = key.partition("|")
    return int(group), None if stratum == "-" else int(stratum)


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
            "cells": {_cell_key(*cell): t for cell, t in self.cells.items()},
            "target_rate": self.target_rate,
            "stratum_column": self.stratum_column,
            "fallback_cells": [_cell_key(*cell) for cell in self.fallback_cells],
            "flags": list(self.flags),
        }

    @classmethod
    def from_json_dict(cls, doc):
        return cls(
            {_parse_cell_key(key): float(t) for key, t in doc["cells"].items()},
            doc.get("target_rate"),
            doc.get("stratum_column"),
            tuple(_parse_cell_key(key) for key in doc.get("fallback_cells", ())),
            tuple(doc.get("flags", ())),
        )


def apply_threshold(preds, policy, groups, strata=None):
    """Threshold scores cell by cell: accept iff score >= cell threshold."""
    _require(None, preds, (SCORES,))
    groups = np.asarray(getattr(groups, "values", groups), dtype=int)
    strata = None if strata is None else np.asarray(getattr(strata, "values", strata), dtype=int)
    if (groups < 0).any() or (strata is not None and (strata < 0).any()):
        raise ValueError("group and stratum codes must be nonnegative")
    n_strata = 1 if strata is None else int(strata.max(initial=0)) + 1
    key = groups if strata is None else groups * n_strata + strata
    cells = cell_rows(key, int(key.max(initial=-1)) + 1)
    t = np.empty(len(key))
    # look cells up in order of their first row, so the first row whose
    # cell the policy misses is the one reported
    for c in sorted((c for c, rows in enumerate(cells) if len(rows)), key=lambda c: cells[c][0]):
        g, s = divmod(c, n_strata)
        t[cells[c]] = policy.threshold(g, None if strata is None else s)
    sc = preds.scores
    return PredictionSet((sc >= t).astype(int), sc)
