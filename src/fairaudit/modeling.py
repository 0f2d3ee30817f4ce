"""Built-in deterministic classifier and the bias-mitigation strategies.

The classifier is logistic regression fitted by damped Newton (IRLS)
iterations from zero weights, so training is bit-reproducible: no random
init, no minibatches. Linearly separable rows have no maximum-likelihood
fit; the model then reports ``converged=False``.

The logistic link is ``1 / (1 + e)`` where ``z >= 0`` and ``e / (1 + e)``
elsewhere, with ``e = exp(-|z|)``: the same exponent and quotients as
evaluating each sign's rows apart, so the scores are the same bits, and
``exp`` never overflows. The numerator is ``exp(min(z, 0))``, which is 1
where ``z >= 0`` and ``e`` elsewhere, so each row takes one quotient. The
mean log loss sums ``max(v, 0) + log1p(exp(-|v|))`` with ``v = -z`` on
positive rows and ``z`` on negative ones. numpy's vectorised ``exp`` and
``log1p`` may round a term differently from libm in its last bit, so the
loss can differ in its last bits from ``np.logaddexp``. The loss only
decides whether a Newton step is accepted, against a slack of 1e-13 of
the loss, and the fitted models are the same bits as with
``np.logaddexp`` on every design tested.

The mitigation experiment runs its fits and scores with OpenBLAS on one
thread (:func:`~fairaudit.threads.one_blas_thread` around
:func:`~fairaudit.synth_experiment.run_experiment`), and its datasets on
worker threads that use the CPUs the process may run on; ``train`` and
``score`` called outside it leave the BLAS thread count as it is. The
one-thread rule is measured on the synthetic designs only, not on a wide
one-hot design such as ``experiment --adult``'s. The products are the
same bits on any number of BLAS threads, and no fit shares state with
another dataset's, so no output depends on either.

Mitigation strategies (``STRATEGIES`` maps each ``train --strategy``
spelling to one of them):

- ``full``: train on everything including the sensitive attribute;
- ``ftu``: drop the sensitive attribute from the inputs;
- ``suppression``: additionally drop every feature whose absolute Pearson
  correlation with the (group-indicator-coded) sensitive attribute exceeds
  a threshold, and any explicitly listed features;
- ``dp_post``: train on everything, then post-process decisions with
  per-group score thresholds targeting a common acceptance rate;
- ``cdp_post``: the same thresholds fitted separately inside each stratum
  of a conditioning column.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .data import CATEGORICAL, PredictionSet, _json_text, cell_rows
from .group_metrics import ThresholdPolicy, apply_threshold

FULL = "full"
FTU = "ftu"
SUPPRESSION = "suppression"
DP_POST = "dp_post"
CDP_POST = "cdp_post"

# ``train --strategy`` spelling -> (strategy, the MitigationSpec field that
# the text after ``:`` sets, and how that text is read)
STRATEGIES = {
    "full": (FULL, None, None),
    "ftu": (FTU, None, None),
    "supp:<threshold>": (SUPPRESSION, "threshold", float),
    "dp": (DP_POST, None, None),
    "cdp:<column>": (CDP_POST, "conditioning", str),
}


@dataclass(frozen=True)
class MitigationSpec:
    """Which strategy to train under.

    ``threshold`` is the suppression correlation cutoff; ``drop_features``
    forces named features out of the inputs regardless of correlation
    (suppression configurations sometimes pin an explicit drop list);
    ``conditioning`` names the stratum column for ``cdp_post``.
    """

    strategy: str = FULL
    threshold: float = 0.05
    drop_features: tuple = ()
    conditioning: str | None = None

    def __post_init__(self):
        if self.strategy not in {row[0] for row in STRATEGIES.values()}:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy == SUPPRESSION and not 0.0 <= self.threshold <= 1.0:
            raise ValueError("suppression threshold must lie in [0, 1]")
        if self.strategy == CDP_POST and not self.conditioning:
            raise ValueError("cdp_post needs a conditioning column")
        object.__setattr__(self, "drop_features", tuple(self.drop_features))

    @property
    def uses_sensitive(self):
        return self.strategy in (FULL, DP_POST, CDP_POST)


def parse_strategy(text, drop_features=()):
    """The MitigationSpec that a ``train --strategy`` spelling names.

    None when ``text`` is no spelling of :data:`STRATEGIES`; a value that
    does not read, or that the spec rejects, raises ValueError.
    """
    word, colon, value = text.partition(":")
    for spelling, (strategy, field, read) in STRATEGIES.items():
        if spelling.partition(":")[0] == word and bool(colon) == (field is not None):
            fields = {field: read(value)} if field else {}
            return MitigationSpec(strategy, drop_features=drop_features, **fields)
    return None


@dataclass(frozen=True)
class TrainConfig:
    """Newton settings: stop at gradient norm <= ``tol`` or after
    ``max_epochs`` iterations (0 keeps the zero weights)."""

    max_epochs: int = 5000
    tol: float = 1e-8


@dataclass(frozen=True)
class SuppressionReport:
    """Features removed by suppression, with their correlations."""

    threshold: float
    dropped: tuple  # (name, |corr| or None for explicit drops)
    kept: tuple

    def to_json_dict(self):
        return {
            "threshold": self.threshold,
            "dropped": [list(d) for d in self.dropped],
            "kept": list(self.kept),
        }


@dataclass(frozen=True)
class _Encoder:
    """Feature-encoding record: one-hot maps and standardisation constants.

    Codes are the training data's. ``labels`` (categorical column name ->
    label of each code) and ``sensitive_labels`` let other data be put in
    those codes (:func:`_in_training_codes`); models saved without them
    read codes as they come.
    """

    columns: tuple      # (name, kind, observed levels or None)
    include_sensitive: bool
    sensitive_levels: tuple
    means: np.ndarray
    scales: np.ndarray
    labels: dict | None = None
    sensitive_labels: tuple | None = None

    def to_json_dict(self):
        doc = {
            "columns": [
                {"name": n, "kind": k, "levels": None if lv is None else list(lv)}
                for n, k, lv in self.columns
            ],
            "include_sensitive": self.include_sensitive,
            "sensitive_levels": list(self.sensitive_levels),
            "means": self.means.tolist(),
            "scales": self.scales.tolist(),
        }
        if self.labels is not None:
            doc["labels"] = {name: list(lab) for name, lab in self.labels.items()}
            doc["sensitive_labels"] = list(self.sensitive_labels)
        return doc

    @classmethod
    def from_json_dict(cls, doc):
        labels = doc.get("labels")
        return cls(
            tuple(
                (c["name"], c["kind"], None if c["levels"] is None else tuple(c["levels"]))
                for c in doc["columns"]
            ),
            doc["include_sensitive"],
            tuple(doc["sensitive_levels"]),
            np.asarray(doc["means"], dtype=float),
            np.asarray(doc["scales"], dtype=float),
            None if labels is None else {name: tuple(lab) for name, lab in labels.items()},
            None if labels is None else tuple(doc["sensitive_labels"]),
        )


def _recode(codes, labels, training_labels, what):
    """Codes of ``labels`` renumbered to the positions of ``training_labels``.

    None when every label already sits at its training position.
    """
    if tuple(labels) == tuple(training_labels[: len(labels)]):
        return None
    index = {lab: i for i, lab in enumerate(training_labels)}
    table = np.array([index.get(lab, -1) for lab in labels], dtype=int)
    out = table[codes]
    if (out < 0).any():
        raise ValueError(
            f"unseen level {labels[codes[out < 0][0]]!r} in {what}; "
            "the model was not trained on this level"
        )
    return out


def _in_training_codes(ds, enc):
    """``ds`` with its categorical and group codes renumbered as at training.

    Codes are assigned in order of first appearance, so the same label can
    carry different codes in two files, or in two orderings of one file.
    The encoder and the threshold policy are keyed by training codes.
    """
    if enc.labels is None:
        return ds
    features = []
    for c in ds.features:
        codes = None
        if c.kind == CATEGORICAL and c.name in enc.labels:
            codes = _recode(c.values, c.code_labels, enc.labels[c.name], f"column {c.name!r}")
        features.append(c if codes is None else replace(c, values=codes, labels=enc.labels[c.name]))
    groups = _recode(ds.sensitive.values, ds.sensitive.group_labels, enc.sensitive_labels,
                     "the sensitive attribute")
    if groups is None and all(f is c for f, c in zip(features, ds.features)):
        return ds
    sens = ds.sensitive if groups is None else replace(
        ds.sensitive, values=groups, group_labels=enc.sensitive_labels
    )
    return replace(ds, features=tuple(features), sensitive=sens)


def _one_hot_observed(codes, levels, what):
    """One-hot against the levels observed at training time.

    Any code outside that set (including gaps between observed codes) is an
    unseen level and raises: silently zero-encoding it would fabricate a
    prediction for a category the model never saw.
    """
    levels_arr = np.asarray(levels, dtype=int)
    pos = np.searchsorted(levels_arr, codes)
    bad = (pos >= len(levels_arr)) | (levels_arr[np.minimum(pos, len(levels_arr) - 1)] != codes)
    if bad.any():
        raise ValueError(
            f"unseen categorical code {int(codes[bad][0])} in {what}; "
            "the model was not trained on this level"
        )
    block = np.zeros((len(codes), len(levels_arr)))
    if len(codes):
        block[np.arange(len(codes)), pos] = 1.0
    return block


def _raw_design(ds, columns, include_sensitive, sensitive_levels):
    """The unstandardised design of ``ds``: a column per continuous feature
    and a one-hot per categorical one, then the groups' one-hot if asked."""
    parts = []
    for name, kind, levels in columns:
        col = ds.feature(name)
        if kind != col.kind:
            raise ValueError(f"column {name!r} changed kind since training")
        if kind == CATEGORICAL:
            parts.append(_one_hot_observed(col.values, levels, f"column {name!r}"))
        else:
            parts.append(col.values.reshape(-1, 1))
    if include_sensitive:
        parts.append(
            _one_hot_observed(ds.sensitive.values, sensitive_levels, "the sensitive attribute")
        )
    return np.hstack(parts) if parts else np.zeros((ds.n, 0))


def _standardisation(raw):
    """Column means and standard deviations of ``raw``, a zero one read as 1."""
    if not len(raw):
        return np.zeros(raw.shape[1]), np.ones(raw.shape[1])
    scales = raw.std(axis=0)
    return raw.mean(axis=0), np.where(scales == 0, 1.0, scales)


def _observed_levels(codes):
    """The distinct codes of a nonnegative code array, ascending."""
    return tuple(np.flatnonzero(np.bincount(codes)).tolist())


def _fit_encoder(ds, feature_names, include_sensitive):
    """The encoder fitted on ``ds``, and ``ds`` encoded by it.

    The means and scales are those of this design's own columns: a
    column's mean taken inside a wider design can differ in its last bit.
    """
    columns = []
    for name in feature_names:
        col = ds.feature(name)
        levels = _observed_levels(col.values) if col.kind == CATEGORICAL else None
        columns.append((name, col.kind, levels))
    sens_levels = _observed_levels(ds.sensitive.values)
    raw = _raw_design(ds, tuple(columns), include_sensitive, sens_levels)
    means, scales = _standardisation(raw)
    labels = {c.name: c.code_labels for c in ds.features if c.kind == CATEGORICAL}
    enc = _Encoder(
        tuple(columns), include_sensitive, sens_levels, means, scales,
        labels, ds.sensitive.group_labels,
    )
    return enc, (raw - means) / scales


def _encode(ds, enc):
    raw = _raw_design(ds, enc.columns, enc.include_sensitive, enc.sensitive_levels)
    return (raw - enc.means) / enc.scales


class RowMemo:
    """Work on one dataset's rows that several models of those rows share.

    :func:`train` takes from it each feature's suppression correlation and
    each Newton fit, with that fit's scores on the rows and its global DP
    policy, each computed once. A fit is keyed by what it reads: the kept
    features, whether the attribute is used, and the :class:`TrainConfig`;
    so the DP and CDP models of the rows share one fit and one global
    scan. Keep it while training models of ``ds``'s rows, and drop it with
    them.
    """

    def __init__(self, ds):
        self.ds = ds
        self._corr, self._fits = {}, {}

    def correlation(self, name):
        """The suppression correlation of feature ``name`` (:func:`_feature_corr`)."""
        if name not in self._corr:
            self._corr[name] = _feature_corr(self.ds, self.ds.feature(name))
        return self._corr[name]

    def fit(self, names, include_sensitive, hyper):
        """The :class:`_Fit` of features ``names``, and the groups if
        ``include_sensitive``, on the rows under ``hyper``."""
        key = (tuple(names), include_sensitive, hyper)
        if key not in self._fits:
            self._fits[key] = _Fit(self.ds, names, include_sensitive, hyper)
        return self._fits[key]


class _Fit:
    """One Newton fit of a design of ``ds``'s rows, with its logits on them."""

    def __init__(self, ds, names, include_sensitive, hyper):
        self.ds = ds
        self.encoder, x = _fit_encoder(ds, names, include_sensitive)
        y = ds.target.astype(float)
        self.weights, self.intercept, self.epochs, self.final_grad_norm = _newton(x, y, hyper)
        self.logits = x @ self.weights + self.intercept
        separated = bool(np.all(np.where(y == 1, self.logits, -self.logits) > 0))
        self.converged = self.final_grad_norm <= hyper.tol and not separated
        # memoised by hand: before Python 3.12 a cached_property holds one
        # lock for all instances, which would serialise the fits of
        # datasets on worker threads
        self._scores = self._dp_policy = None

    @property
    def scores(self):
        """The fitted model's scores on the rows: those :func:`score` gives."""
        if self._scores is None:
            self._scores = _sigmoid(self.logits)
        return self._scores

    @property
    def dp_policy(self):
        """:func:`fit_dp_threshold_scores` of the scores on the rows."""
        if self._dp_policy is None:
            ds = self.ds
            self._dp_policy = fit_dp_threshold_scores(
                self.scores, ds.sensitive.values, ds.sensitive.n_groups, ds.target
            )
        return self._dp_policy


@dataclass(frozen=True)
class ClassifierModel:
    """Fitted logistic model plus its feature-encoding record.

    ``converged``: the gradient norm reached ``tol`` and the scores do not
    separate the training labels (if they do, no maximum-likelihood fit
    exists). ``policy`` is the threshold policy that ``dp_post`` and
    ``cdp_post`` decide by, fitted on the training rows; None for the
    strategies that threshold scores at one half."""

    weights: np.ndarray
    intercept: float
    encoder: _Encoder
    spec: MitigationSpec
    suppression: SuppressionReport | None = None
    epochs: int = 0
    final_grad_norm: float = float("nan")
    converged: bool = False
    policy: ThresholdPolicy | None = None

    @property
    def trained_with_sensitive(self):
        return self.encoder.include_sensitive


def _sigmoid(z):
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def log_loss_gradient(x, y, weights, intercept):
    """Mean log-loss gradient (d/dw, d/db) of a logistic model."""
    p = _sigmoid(x @ weights + intercept)
    r = p - y
    return x.T @ r / len(y), float(r.mean())


def _sensitive_indicator_corr(ds, values):
    """Max |Pearson corr| of a column against the per-group indicators."""
    v = values.astype(float)
    if v.std() == 0:
        return 0.0
    inds = [(ds.sensitive.values == g).astype(float) for g in range(ds.sensitive.n_groups)]
    return max(
        (abs(float(np.corrcoef(v, i)[0, 1])) for i in inds if i.std() != 0), default=0.0
    )


def _feature_corr(ds, col):
    if col.kind == CATEGORICAL:
        m = int(col.values.max(initial=0)) + 1
        return max(
            _sensitive_indicator_corr(ds, (col.values == level).astype(float))
            for level in range(m)
        )
    return _sensitive_indicator_corr(ds, col.values)


def train(ds, spec=MitigationSpec(), hyper=TrainConfig(), memo=None):
    """Fit the built-in classifier under a mitigation strategy.

    Deterministic: identical inputs give bit-identical weights.
    Post-processing strategies train on all features including the
    sensitive attribute, and the model carries the threshold policy fitted
    on its scores on ``ds``'s rows (:func:`fit_dp_threshold_scores`,
    :func:`fit_cdp_threshold_scores`). ``memo``, a :class:`RowMemo` of
    ``ds``, shares suppression correlations, Newton fits and global DP
    policies with the other models of the same rows.
    """
    if ds.target is None or ds.n == 0:
        raise ValueError("training needs rows with the ground-truth target")
    if memo is None:
        memo = RowMemo(ds)
    elif memo.ds is not ds:
        raise ValueError("the row memo was made for other rows")
    names = list(ds.feature_names)
    suppression = None
    if spec.strategy == SUPPRESSION:
        dropped, kept = [], []
        for name in names:
            corr = memo.correlation(name)
            if name in spec.drop_features or corr > spec.threshold:
                dropped.append((name, corr))
            else:
                kept.append(name)
        names = kept
        suppression = SuppressionReport(spec.threshold, tuple(dropped), tuple(kept))
    elif spec.drop_features:
        names = [n for n in names if n not in spec.drop_features]
    if not names and not spec.uses_sensitive:
        raise ValueError("all features dropped; the model would be degenerate")
    if spec.strategy == CDP_POST:
        ds.column_codes(spec.conditioning)  # an unknown or continuous column raises first

    fit = memo.fit(names, spec.uses_sensitive, hyper)
    policy = None
    if spec.strategy == DP_POST:
        policy = fit.dp_policy
    elif spec.strategy == CDP_POST:
        policy = fit_cdp_threshold_scores(ds, fit.scores, spec.conditioning, fit.dp_policy)
    return ClassifierModel(
        fit.weights, fit.intercept, fit.encoder, spec, suppression,
        fit.epochs, fit.final_grad_norm, fit.converged, policy,
    )


def _mean_log_loss(z, sign, out):
    """Mean log loss of logits ``z``; ``sign`` is -1 on positive rows and 1
    on negative ones, and the terms are written into ``out``'s two rows."""
    v, e = out
    np.multiply(sign, z, out=v)
    np.abs(v, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=e)
    np.maximum(v, 0.0, out=v)
    v += e
    return float(v.mean())


def _newton(x, y, hyper):
    """Damped Newton (IRLS) on the mean log loss over ``[x, 1]``, from zero.

    The minimum-norm ``lstsq`` step copes with a singular Hessian (the
    standardised one-hots of a two-level attribute are exact negatives).
    The step halves until the loss decreases, with slack for its rounding
    near the optimum; returns (weights, intercept, steps, gradient norm).
    The logits of the accepted point are the next step's Hessian logits,
    and the Hessian weights and loss terms go into buffers made once.
    """
    n = len(y)
    xd = np.hstack([x, np.ones((n, 1))])
    sign = np.where(y == 1, -1.0, 1.0)
    terms, h, weighted = np.empty((2, n)), np.empty(n), np.empty_like(xd)
    theta, epochs = np.zeros(xd.shape[1]), 0
    z = xd @ theta
    loss = _mean_log_loss(z, sign, terms)
    while True:
        gw, gb = log_loss_gradient(x, y, theta[:-1], theta[-1])
        gnorm = float(np.sqrt(np.square(gw).sum() + gb * gb))
        if gnorm <= hyper.tol or epochs >= hyper.max_epochs:
            return theta[:-1], float(theta[-1]), epochs, gnorm
        grad, p = np.append(gw, gb), _sigmoid(z)
        np.subtract(1.0, p, out=h)
        h *= p
        np.multiply(xd, h[:, None], out=weighted)
        hess = xd.T @ weighted / n
        step = -np.linalg.lstsq(hess, grad, rcond=None)[0]
        t, slope, slack = 1.0, float(grad @ step), 1e-13 * loss
        while (new := _mean_log_loss(zt := xd @ (theta + t * step), sign, terms)) > (
            loss + 1e-4 * t * slope + slack
        ):
            if t < 1e-12:  # no descent along the Newton direction
                return theta[:-1], float(theta[-1]), epochs, gnorm
            t /= 2
        theta, loss, z, epochs = theta + t * step, new, zt, epochs + 1


def score(model, ds):
    """The model's scores (logistic outputs) on ``ds``'s rows.

    Categorical levels and groups are matched to the training data by
    label; unseen ones raise: silently defaulting a level would fabricate
    scores.
    """
    x = _encode(_in_training_codes(ds, model.encoder), model.encoder)
    return _sigmoid(x @ model.weights + model.intercept)


def decide(model, ds, scores):
    """The model's decisions on ``ds``'s rows, from its ``scores`` on them.

    Decisions follow the model's threshold policy when it has one, else the
    fixed rule score >= 0.5. Returns the decisions with the scores.
    """
    policy = model.policy
    if policy is None:
        return PredictionSet((scores >= 0.5).astype(int), scores)
    ds = _in_training_codes(ds, model.encoder)
    col = policy.stratum_column
    strata = None if col is None else ds.column_codes(col)[0]
    return apply_threshold(PredictionSet(scores=scores), policy, ds.sensitive, strata)


def predict(model, ds):
    """Scores and decisions for a dataset: :func:`decide` of :func:`score`."""
    return decide(model, ds, score(model, ds))


def fit_dp_threshold_scores(scores, groups, n_groups, target, grid_size=100):
    """Common-acceptance-rate thresholds straight from scores.

    Scans candidate rates r in {0, 1/grid, ..., 1}; for each, the group
    threshold is the score quantile accepting the ceil(r * n_g) top-scored
    rows, which bounds the acceptance-rate gap by 1/min_g(n_g) (ties at
    the threshold can widen it; constant-score groups are flagged). Keeps
    the r with the best accuracy against ``target``, preferring smaller r
    on ties. Each group is sorted once: at every rate its rows from the
    first copy of the threshold score up are accepted, so its correct
    count is the positives from there up plus the negatives below. At
    rate 0 the threshold lies just above the group's top score.
    """
    scores = np.asarray(scores, dtype=float)
    groups = np.asarray(groups, dtype=int)
    target = np.asarray(target, dtype=int)
    rates = np.array([i / grid_size for i in range(grid_size + 1)])
    correct = np.zeros(len(rates), dtype=np.int64)
    thresholds, flags = {}, []  # per group: its threshold at every rate
    for g, rows in enumerate(cell_rows(groups, n_groups)):
        order = np.argsort(scores[rows])
        sg, yg = scores[rows][order], target[rows][order]
        if len(sg) == 0:
            continue
        if sg[0] == sg[-1]:
            flags.append(f"constant scores in group {g}")
        k = np.ceil(rates * len(sg)).astype(np.int64)
        thresholds[g] = np.where(
            k > 0, sg[len(sg) - np.maximum(k, 1)], np.nextafter(sg[-1], np.inf)
        )
        start = np.full(len(rates), len(sg))
        start[k > 0] = np.searchsorted(sg, thresholds[g][k > 0], side="left")
        pos = np.concatenate(([0], np.cumsum(yg == 1)))
        neg = np.concatenate(([0], np.cumsum(yg == 0)))
        correct += pos[-1] - pos[start] + neg[start]
    best = int(np.argmax(correct))
    return ThresholdPolicy(
        {(g, None): float(t[best]) for g, t in thresholds.items()},
        target_rate=float(rates[best]),
        flags=tuple(flags),
    )


def fit_cdp_threshold_scores(ds, scores, conditioning, glob, grid_size=100, min_count=30):
    """DP thresholds fitted independently inside each stratum of
    ``conditioning``, from a model's ``scores`` on ``ds``'s rows in the
    model's training codes.

    ``glob`` is the global policy, :func:`fit_dp_threshold_scores` of the
    same scores and grid. Strata with fewer than ``min_count`` rows fall
    back to it, as do group cells absent from a stratum; both are flagged
    so the report can disclose them.
    """
    codes, labels = ds.column_codes(conditioning)
    groups, n_groups = ds.sensitive.values, ds.sensitive.n_groups
    cells, fallback, flags = {}, [], list(glob.flags)
    for s, rows in enumerate(cell_rows(codes, len(labels))):
        sub = {}  # a stratum below min_count is not fitted: all its cells fall back
        if len(rows) < min_count:
            flags.append(f"stratum {labels[s]!r} below min_count; global policy used")
        else:
            sub = fit_dp_threshold_scores(
                scores[rows], groups[rows], n_groups, ds.target[rows], grid_size
            ).cells
        for g in range(n_groups):
            if (g, None) in sub:
                cells[(g, s)] = sub[(g, None)]
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


def save_model(model, path):
    """Serialise a model, with its threshold policy, to JSON."""
    doc = {
        "kind": "logistic",
        "weights": model.weights.tolist(),
        "intercept": model.intercept,
        "encoder": model.encoder.to_json_dict(),
        "spec": asdict(model.spec),
        "suppression": None if model.suppression is None else model.suppression.to_json_dict(),
        "epochs": model.epochs,
        "final_grad_norm": model.final_grad_norm,
        "converged": model.converged,
        "policy": None if model.policy is None else model.policy.to_json_dict(),
    }
    Path(path).write_text(_json_text(doc), encoding="utf-8")


def load_model(path):
    """Load a model saved by :func:`save_model`.

    Files written before ``converged`` was recorded derive it from the
    gradient norm and the default tolerance.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    supp = doc.get("suppression")
    suppression = None if supp is None else SuppressionReport(
        supp["threshold"], tuple(map(tuple, supp["dropped"])), tuple(supp["kept"])
    )
    grad_norm = doc.get("final_grad_norm", float("nan"))
    policy = doc.get("policy")
    return ClassifierModel(
        np.asarray(doc["weights"], dtype=float),
        float(doc["intercept"]),
        _Encoder.from_json_dict(doc["encoder"]),
        MitigationSpec(**doc["spec"]),
        suppression,
        doc.get("epochs", 0),
        grad_norm,
        doc.get("converged", grad_norm <= TrainConfig().tol),
        None if policy is None else ThresholdPolicy.from_json_dict(policy),
    )
