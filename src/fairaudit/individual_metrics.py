"""Similarity-based and flip-based individual fairness measures.

"Similar individuals should get similar decisions" needs a distance on
feature space; no universally right one exists, so the distance is
pluggable. The default is Euclidean distance on z-score-standardised
features (categoricals one-hot encoded first), which at least removes
arbitrary units; raw Euclidean and user-weighted variants are available.

The pairwise scans run on every CPU the process may use
(:data:`~fairaudit.threads.WORKERS`): the kNN search
of :func:`consistency` through the KD-tree's own ``workers``, and the row
sums of :func:`similarity_weighted_disparity` in threads over contiguous
chunks of rows, since cdist, exp and the sums release the GIL. Each row's
neighbours and each row's sum are computed on their own, whatever the
chunk, so both metrics give the same bits for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from . import group_metrics, modeling, threads
from .data import CATEGORICAL, Dataset, PredictionSet, SensitiveAttribute, cell_rows

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

    Categorical features are one-hot encoded over the codes 0..max. The
    classifier one-hots only the levels its rows take; the extra columns
    here, for codes no row takes, are zero in every row and change no
    distance. Standardisation (when the spec asks for it)
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
# independently of n. Threads that scan at the same time share it.
_PAIR_BLOCK = 1 << 21


def _lex_order(x):
    """``np.lexsort(x.T[::-1])``: the row order of ``x`` (one column or
    more) sorted lexicographically, first column first.

    When the first column has no ties, its argsort is that order already,
    and one column is sorted instead of every column.
    """
    order = np.argsort(x[:, 0])
    first = x[order, 0]
    if (first[1:] == first[:-1]).any():
        order = np.lexsort(x.T[::-1])
    return order


def _distinct_rows(x):
    """``np.unique(x, axis=0, return_inverse=True, return_counts=True)``
    from one sort: the distinct rows in lexicographic order, each row's
    index among them, and their multiplicities. Rows equal under ``==``
    are one row, so -0.0 and 0.0 merge, as in ``np.unique``.
    """
    n, cols = x.shape
    if not cols:
        return x[:1], np.zeros(n, dtype=int), np.array([n])[:n]
    order = _lex_order(x)
    xs = x[order]
    first = np.empty(n, dtype=bool)
    first[:1] = True
    np.any(xs[1:] != xs[:-1], axis=1, out=first[1:])
    inv = np.empty(n, dtype=int)
    inv[order] = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    return xs[starts], inv, np.diff(starts, append=n)


def _knn_means(x, dec, k):
    """Mean decision over each row's k nearest other rows, ties included.

    Identical rows are collapsed into distinct rows that carry their
    multiplicity and positive count. Every other distinct row weighs at
    least one row, so a row's k-th neighbour distance is at most its
    (k+1)-th nearest distinct distance, self included. A KD-tree over the
    distinct rows (Friedman, Bentley & Finkel 1977) lists candidates until
    the list covers that radius, inflated a little because the tree rounds
    differently from cdist. Membership is decided on cdist distances alone:
    cdist of the origin against the row differences repeats cdist's own
    per-pair arithmetic, so the neighbourhoods are exactly those of a
    brute-force scan.
    """
    uniq, inv, cnt = _distinct_rows(x)
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
            t, cand = tree.query(uniq[rows], k=width, workers=threads.WORKERS)
            if width == k + 2:  # first pass, over every distinct row
                radius[rows] = t[:, k] * (1 + 1e-9) + 1e-12
            short = t[:, -1] <= radius[rows]
            unsettled.append(rows[short])
            rows, cand = rows[~short], cand[~short]
            diff = uniq.take(cand, axis=0)
            np.subtract(uniq[rows][:, None, :], diff, out=diff)
            # one row against many: cdist's fast orientation, same bits
            d = cdist(np.zeros((1, cols)), diff.reshape(-1, cols))
            settle(rows, cand, d.reshape(cand.shape))
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
    """``exp(-cdist(left, right)).sum(axis=1)`` as a list.

    ``right`` is put in canonical (lexicographic) order first, so a row's
    sum depends on the rows' contents alone: not on their order, and not on
    the block or thread, since each row is reduced on its own. The left
    rows are split into contiguous chunks, one thread each, and the threads
    share one block of ``_PAIR_BLOCK`` pair elements (fewer threads run
    when a left row's pairs would not fit in their share), so they hold no
    more than one thread did. A chunk must fill its share at least once,
    so small inputs start no thread.
    """
    if right.shape[1]:  # without columns every row is the same empty row
        right = right[_lex_order(right)]
    row_size = max(right.size, 1)
    workers = max(1, min(threads.WORKERS, _PAIR_BLOCK // row_size))
    step = max(1, _PAIR_BLOCK // workers // row_size)
    chunks = min(workers, len(left) // step)
    if chunks < 2:
        return _block_row_sums(left, right, max(1, _PAIR_BLOCK // row_size))
    bounds = np.linspace(0, len(left), chunks + 1).astype(int)
    parts = threads.ordered_map(
        lambda b: _block_row_sums(left[b[0] : b[1]], right, step), zip(bounds[:-1], bounds[1:])
    )
    return [s for part in parts for s in part]


def _block_row_sums(left, right, step):
    """:func:`_exp_neg_row_sums` of ``left``, ``step`` rows at a time in
    one reused block."""
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
    needs = (("decisions", "similarity_weighted_disparity needs binary decisions"),)
    group_metrics._require(ds, preds, needs)
    if ds.sensitive.n_groups != 2:
        raise ValueError("binary sensitive attribute required; intersect/recode first")
    rej0, acc0, rej1, acc1 = cell_rows(ds.sensitive.values * 2 + preds.decisions, 4)
    n1, n0 = len(rej1) + len(acc1), len(rej0) + len(acc0)
    if n1 == 0 or n0 == 0:
        raise ValueError("both groups must be nonempty")
    x = encode_for_distance(ds, dist)
    row_sums = _exp_neg_row_sums(x[acc1], x[rej0]) + _exp_neg_row_sums(x[rej1], x[acc0])
    return math.fsum(row_sums) / (n1 * n0)


@dataclass(frozen=True)
class FlipReport:
    """Outcome of re-scoring a dataset with the sensitive attribute flipped."""

    flip_rate: float
    flip_consistency: float

    def __post_init__(self):
        if abs(self.flip_rate + self.flip_consistency - 1.0) > 1e-12:
            raise ValueError("flip_rate and flip_consistency must sum to 1")


def _flipped(ds, flip_map=None):
    """``ds`` with its sensitive attribute flipped: 0<->1 for a binary
    attribute by default, else by ``flip_map``, a permutation of the codes."""
    g = ds.sensitive.n_groups
    if flip_map is None:
        if g != 2:
            raise ValueError("non-binary attribute: pass an explicit flip_map")
        flip_map = np.array([1, 0])
    else:
        flip_map = np.asarray(flip_map, dtype=int)
        if sorted(flip_map.tolist()) != list(range(g)):
            raise ValueError("flip_map must be a permutation of the group codes")
    return Dataset(
        ds.features,
        SensitiveAttribute(
            ds.sensitive.name, flip_map[ds.sensitive.values], ds.sensitive.group_labels
        ),
        ds.target,
        ds.target_name,
    )


def flip_assessment(ds, model, flip_map=None, decisions=None):
    """Fraction of decisions that change when the sensitive attribute flips.

    ``model`` is any callable mapping a Dataset to binary decisions (an
    array or a PredictionSet); it must accept the sensitive attribute as an
    input, which attribute-blind models simply ignore. A binary attribute
    flips 0<->1 by default; multi-group attributes need an explicit
    permutation of the group codes.

    Both directions are reported: ``flip_rate`` is the mean absolute
    decision change, ``flip_consistency`` its complement (1 = no decision
    ever changes). ``decisions`` are ``model``'s decisions on ``ds`` when
    the caller already has them; ``model`` then scores the flipped rows only.
    """
    flipped = _flipped(ds, flip_map)
    y0 = _decisions_of(model(ds) if decisions is None else decisions)
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
    if not 0 < constant < math.inf:
        raise ValueError(f"the Lipschitz constant must be positive and finite, got {constant}")
    if max_pairs < 1:
        raise ValueError(f"max_pairs must be at least 1, got {max_pairs}")
    if preds is None:
        raise ValueError("lipschitz_audit needs decisions or scores")
    group_metrics._require(ds, preds, ())
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
