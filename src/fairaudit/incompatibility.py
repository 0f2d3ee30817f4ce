"""Diagnostics for the mutual exclusivity of the three group criteria.

Independence (acceptance-rate parity), separation (error-rate parity) and
sufficiency (predictive-value parity) cannot hold together outside trivial
or degenerate situations. This module computes the gap of each criterion
on one dataset, and provides the algebraic identities that quantify how
much demographic disparity is *forced* once one of the other criteria
holds exactly: useful both as a diagnostic and as a property-level check
of the exclusion statements on constructed data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import cell_rows
from .group_metrics import _gap, _mean, _require, compute_group_stats
from .info_theory import JointTable, symmetric_uncertainty

# equal-width score bins of the usefulness measure when there are no decisions
SCORE_BINS = 10

# the inputs each check needs, with the message raised when one is missing
GAPS_NEEDS = (("target", "criteria gaps need the ground-truth target"),)
SEP_SUFF_NEEDS = (("decisions", "this check needs binary decisions"),) + GAPS_NEEDS


@dataclass(frozen=True)
class CriteriaGaps:
    """The three criteria gaps plus base-rate gap and predictor usefulness.

    ``usefulness`` is the symmetric uncertainty between target and
    decisions (or between target and binned scores when only scores are
    available): 0 means the predictor carries no information about the
    target, which is the trivial escape hatch of every exclusion statement.
    """

    indep_gap: float
    sep_gap: float
    suff_gap: float
    base_rate_gap: float
    usefulness: float
    flags: tuple = ()

    def to_json_dict(self):
        return {
            "indep_gap": self.indep_gap,
            "sep_gap": self.sep_gap,
            "suff_gap": self.suff_gap,
            "base_rate_gap": self.base_rate_gap,
            "usefulness": self.usefulness,
            "flags": list(self.flags),
        }


def gaps(ds, preds):
    """Criteria gaps of one prediction set against one dataset."""
    _require(ds, preds, GAPS_NEEDS)
    return _gaps(ds, preds, compute_group_stats(ds, preds))


def _gaps(ds, preds, stats):
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
        cells = cell_rows(ds.sensitive.values, ds.sensitive.n_groups)
        indep = _gap([_mean(sc[rows]) for rows in cells])
        used = np.clip((sc * SCORE_BINS).astype(int), 0, SCORE_BINS - 1)
        flags.append("usefulness computed on binned scores")
    sep = max(_gap([s.fpr for s in stats]), _gap([s.fnr for s in stats]))
    suff = max(_gap([s.ppv for s in stats]), _gap([s.npv for s in stats]))
    base = _gap([s.base_rate for s in stats])
    useful = symmetric_uncertainty(JointTable.from_codes(ds.target, used))
    return CriteriaGaps(indep, sep, suff, base, useful, tuple(flags))


def separation_implies_dp_gap(tpr, fpr, base_rates):
    """Demographic disparity forced by exact separation.

    With common ``tpr``/``fpr`` across groups, each group's acceptance rate
    is ``fpr*(1-p) + tpr*p`` in its base rate ``p``, so the acceptance-rate
    gap equals ``|tpr - fpr| * max-pairwise |p_a - p_b|``. Zero only when
    the classifier is useless (tpr = fpr) or base rates agree.
    """
    for name, v in (("tpr", tpr), ("fpr", fpr)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    rates = list(base_rates)
    if any(not 0.0 <= p <= 1.0 for p in rates):
        raise ValueError("base rates must lie in [0, 1]")
    return abs(tpr - fpr) * _gap(rates)


def sufficiency_implies_dp_gap(ppv, npv, base_rates):
    """Demographic disparity forced by exact sufficiency.

    With common ``ppv``/``npv``, base rate decomposes as
    ``p = ppv*ppr + (1-npv)*(1-ppr)``, so the acceptance-rate gap equals
    ``max-pairwise |p_a - p_b| / |ppv + npv - 1|``. At ``ppv + npv = 1`` the
    classifier is uninformative and the identity diverges (flagged, inf).
    """
    for name, v in (("ppv", ppv), ("npv", npv)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    rates = list(base_rates)
    if any(not 0.0 <= p <= 1.0 for p in rates):
        raise ValueError("base rates must lie in [0, 1]")
    denom = ppv + npv - 1.0
    gap = _gap(rates)
    if denom == 0.0:
        warnings.warn(
            "ppv + npv = 1: uninformative classifier, implied gap diverges",
            stacklevel=2,
        )
        return float("inf") if gap > 0 else 0.0
    return gap / abs(denom)


@dataclass(frozen=True)
class SepSuffVerdict:
    """Witness record for the separation/sufficiency exclusion check.

    The combination {separation holds, sufficiency holds, base rates
    differ, at least one false positive} is impossible for binary targets
    and decisions; ``forbidden`` reports whether it was (never expected to
    be) observed. With no false positives the check is inapplicable: the
    degenerate regime where both criteria can hold.
    """

    sep_gap: float
    suff_gap: float
    base_rate_gap: float
    false_positives: int
    tol: float
    separation_holds: bool
    sufficiency_holds: bool
    base_rates_differ: bool
    applicable: bool
    forbidden: bool
    verdict: str

    def to_json_dict(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def check_sep_suff_exclusion(ds, preds, tol=1e-9):
    """Check one dataset against the separation/sufficiency exclusion."""
    _require(ds, preds, SEP_SUFF_NEEDS)
    return _sep_suff_exclusion(ds, preds, compute_group_stats(ds, preds), tol)


def _sep_suff_exclusion(ds, preds, stats, tol=1e-9):
    g = _gaps(ds, preds, stats)
    fp = int(((preds.decisions == 1) & (ds.target == 0)).sum())
    sep_holds = g.sep_gap < tol
    suff_holds = g.suff_gap < tol
    differ = g.base_rate_gap >= tol
    applicable = fp >= 1
    forbidden = sep_holds and suff_holds and differ and applicable
    if not applicable:
        verdict = "degenerate case (no false positives), exclusion inapplicable"
    elif forbidden:
        verdict = "forbidden combination observed"
    else:
        verdict = "consistent with exclusion"
    return SepSuffVerdict(
        g.sep_gap,
        g.suff_gap,
        g.base_rate_gap,
        fp,
        tol,
        sep_holds,
        suff_holds,
        differ,
        applicable,
        forbidden,
        verdict,
    )
