"""Similarity-based and flip-based individual fairness measures.

"Similar individuals should get similar decisions" needs a distance on
feature space; no universally right one exists, so the distance is
pluggable. The default is Euclidean distance on z-score-standardised
features (categoricals one-hot encoded first), which at least removes
arbitrary units; raw Euclidean and user-weighted variants are available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from . import group_metrics, modeling
from .data import CATEGORICAL, Dataset, PredictionSet, SensitiveAttribute

EUCLIDEAN_STANDARDIZED = "euclidean_standardized"
EUCLIDEAN_RAW = "euclidean_raw"
USER_WEIGHTED = "user_weighted"


@dataclass(frozen=True)
class DistanceSpec:
    """How to measure distance between individuals in feature space.

    ``user_weighted`` applies one nonnegative weight per original feature
    (all one-hot columns of a categorical feature share its weight) on top
    of the standardised encoding.
    """

    kind: str = EUCLIDEAN_STANDARDIZED
    weights: tuple | None = None

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN_STANDARDIZED, EUCLIDEAN_RAW, USER_WEIGHTED):
            raise ValueError(f"unknown distance kind {self.kind!r}")
        if self.kind == USER_WEIGHTED:
            if self.weights is None:
                raise ValueError("user_weighted distance needs weights")
            w = tuple(float(x) for x in self.weights)
            if any(x < 0 for x in w) or not any(x > 0 for x in w):
                raise ValueError("weights must be nonnegative with at least one positive")
            object.__setattr__(self, "weights", w)


def encode_for_distance(ds, spec, include_sensitive=False):
    """Feature matrix under a distance spec.

    Categorical features are one-hot encoded over the codes 0..max, as the
    classifier encodes them; standardisation (when the spec asks for it)
    uses per-column mean/std with zero-variance columns left centred.
    ``include_sensitive`` appends a one-hot of the group codes, for audits
    over the full feature-plus-attribute space.
    """
    if spec.kind == USER_WEIGHTED and len(spec.weights) != len(ds.features):
        raise ValueError(
            f"got {len(spec.weights)} weights for {len(ds.features)} features"
        )
    columns = tuple(
        (c.name, c.kind, tuple(range(int(c.values.max(initial=0)) + 1))
         if c.kind == CATEGORICAL else None)
        for c in ds.features
    )
    x = modeling._raw_design(
        ds, columns, include_sensitive, tuple(range(max(ds.sensitive.n_groups, 1)))
    )
    if spec.kind == EUCLIDEAN_RAW:
        return x
    means, scales = modeling._standardisation(x)
    x = (x - means) / scales
    if spec.kind == USER_WEIGHTED:
        widths = [1 if levels is None else len(levels) for _, _, levels in columns]
        x[:, : sum(widths)] *= np.repeat(spec.weights, widths)
    return x


# Pair elements (pairs x encoded columns) that one block of a pairwise scan
# holds at once; bounds the memory of the kNN search and of the disparity
# independently of n.
_PAIR_BLOCK = 1 << 21


def _knn_means(x, dec, k):
    """Mean decision over each row's k nearest other rows, ties included.

    Identical rows are collapsed into distinct rows that carry their
    multiplicity and positive count. Every other distinct row weighs at
    least one row, so a row's k-th neighbour distance is at most its
    (k+1)-th nearest distinct distance, self included. A KD-tree over the
    distinct rows (Friedman, Bentley & Finkel 1977) lists candidates until
    the list covers that radius, inflated a little because the tree rounds
    differently from cdist. Membership is decided on cdist distances alone:
    cdist of the row differences against the origin repeats cdist's own
    per-pair arithmetic, so the neighbourhoods are exactly those of a
    brute-force scan.
    """
    uniq, inv, cnt = np.unique(x, axis=0, return_inverse=True, return_counts=True)
    inv = inv.reshape(-1)
    m, cols = uniq.shape
    pos = np.bincount(inv, weights=dec, minlength=m)
    nb_count = np.empty(m)
    nb_pos = np.empty(m)

    def settle(rows, cand, d):
        # The row itself is no neighbour: its group counts one less here,
        # and the caller takes its own decision back out of nb_pos.
        mult = cnt[cand] - (cand == rows[:, None])
        order = np.argsort(d, axis=1)
        cum = np.cumsum(np.take_along_axis(mult, order, axis=1), axis=1)
        at = np.take_along_axis(order, (cum < k).sum(axis=1)[:, None], axis=1)
        nb = d <= np.take_along_axis(d, at, axis=1)
        nb_count[rows] = (mult * nb).sum(axis=1)
        nb_pos[rows] = (pos[cand] * nb).sum(axis=1)

    width = min(k + 2, m)
    pending = np.arange(m)
    if width < m:
        tree = cKDTree(uniq)
        radius = np.empty(m)
    while len(pending):
        width = min(width, m)
        step = max(1, _PAIR_BLOCK // (width * max(cols, 1)))
        unsettled = [pending[:0]]
        for start in range(0, len(pending), step):
            rows = pending[start : start + step]
            if width == m:
                settle(rows, np.broadcast_to(np.arange(m), (len(rows), m)), cdist(uniq[rows], uniq))
                continue
            t, cand = tree.query(uniq[rows], k=width)
            if width == k + 2:  # first pass, over every distinct row
                radius[rows] = t[:, k] * (1 + 1e-9) + 1e-12
            short = t[:, -1] <= radius[rows]
            unsettled.append(rows[short])
            rows, cand = rows[~short], cand[~short]
            diff = (uniq[rows][:, None, :] - uniq[cand]).reshape(-1, cols)
            settle(rows, cand, cdist(diff, np.zeros((1, cols))).reshape(cand.shape))
        pending = np.concatenate(unsettled)
        width *= 2
    return (nb_pos[inv] - dec) / nb_count[inv]


def consistency(ds, preds, k=5, dist=DistanceSpec()):
    """One minus the mean decision deviation from the k nearest neighbours.

    Neighbours are found on the non-sensitive features only. Ties at the
    k-th distance are all included, so the neighbourhood is deterministic
    without arbitrary ordering. Equals 1 for any constant decision rule.
    """
    group_metrics._require(ds, preds, (("decisions", "consistency needs binary decisions"),))
    n = ds.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must lie in [1, {n - 1}]")
    dec = preds.decisions.astype(float)
    means = _knn_means(encode_for_distance(ds, dist), dec, k)
    total = 0.0
    for start in range(0, n, 512):
        rows = slice(start, start + 512)
        total += float(np.abs(dec[rows] - means[rows]).sum())
    return 1.0 - total / n


def _exp_neg_row_sums(left, right):
    """``exp(-cdist(left, right)).sum(axis=1)`` as a list, in one reused
    block of at most ``_PAIR_BLOCK`` pair elements.

    ``right`` is put in canonical (lexicographic) order first, so a row's
    sum depends on the rows' contents alone: not on their order, and not on
    the block, since each row is reduced on its own.
    """
    if right.shape[1]:  # without columns every row is the same empty row
        right = right[np.lexsort(right.T[::-1])]
    step = max(1, _PAIR_BLOCK // max(right.size, 1))
    block = np.empty(min(step, len(left)) * len(right))
    sums = []
    for start in range(0, len(left), step):
        rows = left[start : start + step]
        terms = block[: len(rows) * len(right)].reshape(len(rows), len(right))
        cdist(rows, right, out=terms)
        np.negative(terms, out=terms)
        np.exp(terms, out=terms)
        sums.extend(terms.sum(axis=1).tolist())
    return sums


def similarity_weighted_disparity(ds, preds, dist=DistanceSpec()):
    """Cross-group decision differences weighted by feature similarity.

    Averages ``exp(-distance) * |decision difference|`` over all pairs with
    one member in each of the two groups; high values mean similar people
    on opposite sides of the attribute are treated differently. Requires a
    binary sensitive attribute (intersect or recode first).

    Only pairs whose decisions differ contribute, so only they are
    evaluated: group-1 rows with decision 1 against group-0 rows with
    decision 0, and the reverse. Each group-1 row's terms are summed over
    the group-0 rows in canonical (lexicographic) order, and the row sums
    are combined with ``math.fsum``, which is exactly rounded. So, for
    given encoded rows, the value depends on neither the row order nor the
    block size.
    """
    group_metrics._require(
        ds, preds, (("decisions", "similarity_weighted_disparity needs binary decisions"),)
    )
    if ds.sensitive.n_groups != 2:
        raise ValueError("binary sensitive attribute required; intersect/recode first")
    a = ds.sensitive.values
    i1 = np.flatnonzero(a == 1)
    i0 = np.flatnonzero(a == 0)
    if len(i1) == 0 or len(i0) == 0:
        raise ValueError("both groups must be nonempty")
    x = encode_for_distance(ds, dist)
    pos = preds.decisions == 1
    row_sums = _exp_neg_row_sums(x[i1[pos[i1]]], x[i0[~pos[i0]]])
    row_sums += _exp_neg_row_sums(x[i1[~pos[i1]]], x[i0[pos[i0]]])
    return math.fsum(row_sums) / (len(i1) * len(i0))


@dataclass(frozen=True)
class FlipReport:
    """Outcome of re-scoring a dataset with the sensitive attribute flipped."""

    flip_rate: float
    flip_consistency: float

    def __post_init__(self):
        if abs(self.flip_rate + self.flip_consistency - 1.0) > 1e-12:
            raise ValueError("flip_rate and flip_consistency must sum to 1")


def flip_assessment(ds, model, flip_map=None):
    """Fraction of decisions that change when the sensitive attribute flips.

    ``model`` is any callable mapping a Dataset to binary decisions (an
    array or a PredictionSet); it must accept the sensitive attribute as an
    input, which attribute-blind models simply ignore. A binary attribute
    flips 0<->1 by default; multi-group attributes need an explicit
    permutation of the group codes.

    Both directions are reported: ``flip_rate`` is the mean absolute
    decision change, ``flip_consistency`` its complement (1 = no decision
    ever changes).
    """
    g = ds.sensitive.n_groups
    if flip_map is None:
        if g != 2:
            raise ValueError("non-binary attribute: pass an explicit flip_map")
        flip_map = np.array([1, 0])
    else:
        flip_map = np.asarray(flip_map, dtype=int)
        if sorted(flip_map.tolist()) != list(range(g)):
            raise ValueError("flip_map must be a permutation of the group codes")
    flipped = Dataset(
        ds.features,
        SensitiveAttribute(
            ds.sensitive.name, flip_map[ds.sensitive.values], ds.sensitive.group_labels
        ),
        ds.target,
        ds.target_name,
    )
    y0 = _decisions_of(model(ds))
    y1 = _decisions_of(model(flipped))
    rate = float(np.mean(np.abs(y0.astype(float) - y1.astype(float)))) if ds.n else 0.0
    return FlipReport(rate, 1.0 - rate)


def _decisions_of(out):
    if isinstance(out, PredictionSet):
        if out.decisions is None:
            raise ValueError("model returned scores only; flip assessment needs decisions")
        return out.decisions
    return np.asarray(out)


@dataclass(frozen=True)
class LipschitzReport:
    """Sampled audit of the Lipschitz-style similar-treatment condition."""

    constant: float
    pairs_examined: int
    violations: int
    violation_rate: float
    max_ratio: float
    worst_pairs: tuple
    zero_distance_witnesses: tuple

    def to_json_dict(self):
        return {
            "metric": "lipschitz_audit",
            "constant": self.constant,
            "pairs_examined": self.pairs_examined,
            "violations": self.violations,
            "violation_rate": self.violation_rate,
            "max_ratio": self.max_ratio,
            "worst_pairs": [list(p) for p in self.worst_pairs],
            "zero_distance_witnesses": [list(p) for p in self.zero_distance_witnesses],
        }


def lipschitz_audit(ds, preds, dist=DistanceSpec(), constant=1.0, max_pairs=10000, seed=0):
    """Count pairs whose outcome distance reaches ``constant`` times their
    feature distance.

    Distances are taken over the full feature-plus-attribute space; outcome
    distance is the absolute difference of decisions (or of scores when no
    decisions are present). Pairs at zero feature distance with differing
    outcomes cannot satisfy any finite constant and are reported separately
    as infinite-ratio witnesses. When ``max_pairs`` covers all n(n-1)/2
    pairs the audit is exhaustive; otherwise pairs are sampled uniformly
    (with replacement) under the given seed. Also reports the empirical
    minimal constant (the largest outcome/feature distance ratio seen).
    """
    if constant <= 0:
        raise ValueError("the Lipschitz constant must be positive")
    if preds is None:
        raise ValueError("lipschitz_audit needs decisions or scores")
    if preds.n != ds.n:
        raise ValueError(f"predictions cover {preds.n} rows, dataset has {ds.n}")
    outcome = preds.decisions if preds.decisions is not None else preds.scores
    outcome = np.asarray(outcome, dtype=float)
    n = ds.n
    if n < 2:
        raise ValueError("need at least two rows")
    x = encode_for_distance(ds, dist, include_sensitive=True)
    total_pairs = n * (n - 1) // 2
    if max_pairs >= total_pairs:
        ii, jj = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(seed)
        ii = rng.integers(0, n, size=max_pairs)
        jj = rng.integers(0, n - 1, size=max_pairs)
        jj = np.where(jj >= ii, jj + 1, jj)  # j != i, uniform over ordered pairs
    dx = np.sqrt(((x[ii] - x[jj]) ** 2).sum(axis=1))
    dy = np.abs(outcome[ii] - outcome[jj])
    zero = dx == 0
    witnesses = tuple(
        (int(i), int(j)) for i, j in zip(ii[zero & (dy > 0)], jj[zero & (dy > 0)])
    )
    if zero.all():
        raise ValueError("all sampled pairwise distances are zero")
    ii, jj, dx, dy = ii[~zero], jj[~zero], dx[~zero], dy[~zero]
    ratio = dy / dx
    viol = dy >= constant * dx
    order = np.argsort(ratio)[::-1][:5]
    worst = tuple(
        (int(ii[k]), int(jj[k]), float(dx[k]), float(dy[k]), float(ratio[k]))
        for k in order
        if ratio[k] > 0
    )
    return LipschitzReport(
        constant=float(constant),
        pairs_examined=int(len(dx)),
        violations=int(viol.sum()),
        violation_rate=float(viol.mean()),
        max_ratio=float(ratio.max()),
        worst_pairs=worst,
        zero_distance_witnesses=witnesses,
    )
