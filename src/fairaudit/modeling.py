"""Built-in deterministic classifier and the bias-mitigation strategies.

The classifier is logistic regression fitted by damped Newton (IRLS)
iterations from zero weights, so training is bit-reproducible: no random
init, no minibatches. Linearly separable rows have no maximum-likelihood
fit; the model then reports ``converged=False``.

Mitigation strategies:

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

import numpy as np

from .data import CATEGORICAL, PredictionSet
from .group_metrics import ThresholdPolicy, apply_threshold

FULL = "full"
FTU = "ftu"
SUPPRESSION = "suppression"
DP_POST = "dp_post"
CDP_POST = "cdp_post"

_STRATEGIES = (FULL, FTU, SUPPRESSION, DP_POST, CDP_POST)


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
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy == SUPPRESSION and not 0.0 <= self.threshold <= 1.0:
            raise ValueError("suppression threshold must lie in [0, 1]")
        if self.strategy == CDP_POST and not self.conditioning:
            raise ValueError("cdp_post needs a conditioning column")
        object.__setattr__(self, "drop_features", tuple(self.drop_features))

    @property
    def uses_sensitive(self):
        return self.strategy in (FULL, DP_POST, CDP_POST)


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
    blocks = []
    for name, kind, levels in columns:
        col = ds.feature(name)
        if kind != col.kind:
            raise ValueError(f"column {name!r} changed kind since training")
        if kind == CATEGORICAL:
            blocks.append(_one_hot_observed(col.values, levels, f"column {name!r}"))
        else:
            blocks.append(col.values.reshape(-1, 1))
    if include_sensitive:
        blocks.append(
            _one_hot_observed(
                ds.sensitive.values, sensitive_levels, "the sensitive attribute"
            )
        )
    return np.hstack(blocks) if blocks else np.zeros((ds.n, 0))


def _fit_encoder(ds, feature_names, include_sensitive):
    columns = []
    for name in feature_names:
        col = ds.feature(name)
        levels = None
        if col.kind == CATEGORICAL:
            levels = tuple(int(c) for c in np.unique(col.values))
        columns.append((name, col.kind, levels))
    sens_levels = tuple(int(c) for c in np.unique(ds.sensitive.values))
    raw = _raw_design(ds, tuple(columns), include_sensitive, sens_levels)
    means = raw.mean(axis=0) if len(raw) else np.zeros(raw.shape[1])
    scales = raw.std(axis=0) if len(raw) else np.ones(raw.shape[1])
    scales = np.where(scales == 0, 1.0, scales)
    labels = {c.name: c.code_labels for c in ds.features if c.kind == CATEGORICAL}
    return _Encoder(
        tuple(columns), include_sensitive, sens_levels, means, scales,
        labels, ds.sensitive.group_labels,
    )


def _encode(ds, enc):
    raw = _raw_design(ds, enc.columns, enc.include_sensitive, enc.sensitive_levels)
    return (raw - enc.means) / enc.scales


@dataclass(frozen=True)
class ClassifierModel:
    """Fitted logistic model plus its feature-encoding record.

    ``converged``: the gradient norm reached ``tol`` and the scores do not
    separate the training labels (if they do, no maximum-likelihood fit
    exists)."""

    weights: np.ndarray
    intercept: float
    encoder: _Encoder
    spec: MitigationSpec
    suppression: SuppressionReport | None = None
    epochs: int = 0
    final_grad_norm: float = float("nan")
    converged: bool = False

    @property
    def trained_with_sensitive(self):
        return self.encoder.include_sensitive


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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


def train(ds, spec=MitigationSpec(), hyper=TrainConfig(), seed=0):
    """Fit the built-in classifier under a mitigation strategy.

    Deterministic: identical inputs give bit-identical weights (the seed is
    accepted for interface uniformity; nothing here draws randomness).
    Post-processing strategies train on all features including the
    sensitive attribute; the threshold policy itself is fitted separately
    (:func:`fit_dp_threshold` / :func:`fit_cdp_threshold`).
    """
    if ds.target is None or ds.n == 0:
        raise ValueError("training needs rows with the ground-truth target")
    names = list(ds.feature_names)
    suppression = None
    if spec.strategy == SUPPRESSION:
        dropped, kept = [], []
        for name in names:
            corr = _feature_corr(ds, ds.feature(name))
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

    enc = _fit_encoder(ds, names, spec.uses_sensitive)
    x = _encode(ds, enc)
    y = ds.target.astype(float)
    w, b, epochs, gnorm = _newton(x, y, hyper)
    z = x @ w + b
    separated = bool(np.all(np.where(y == 1, z, -z) > 0))
    converged = gnorm <= hyper.tol and not separated
    return ClassifierModel(w, b, enc, spec, suppression, epochs, gnorm, converged)


def _mean_log_loss(z, y):
    return float(np.logaddexp(0.0, np.where(y == 1, -z, z)).mean())


def _newton(x, y, hyper):
    """Damped Newton (IRLS) on the mean log loss over ``[x, 1]``, from zero.

    The minimum-norm ``lstsq`` step copes with a singular Hessian (the
    standardised one-hots of a two-level attribute are exact negatives).
    The step halves until the loss decreases, with slack for its rounding
    near the optimum; returns (weights, intercept, steps, gradient norm).
    """
    xd = np.hstack([x, np.ones((len(y), 1))])
    theta, epochs = np.zeros(xd.shape[1]), 0
    loss = _mean_log_loss(xd @ theta, y)
    while True:
        gw, gb = log_loss_gradient(x, y, theta[:-1], theta[-1])
        gnorm = float(np.sqrt(np.square(gw).sum() + gb * gb))
        if gnorm <= hyper.tol or epochs >= hyper.max_epochs:
            return theta[:-1], float(theta[-1]), epochs, gnorm
        grad, p = np.append(gw, gb), _sigmoid(xd @ theta)
        hess = xd.T @ (xd * (p * (1.0 - p))[:, None]) / len(y)
        step = -np.linalg.lstsq(hess, grad, rcond=None)[0]
        t, slope, slack = 1.0, float(grad @ step), 1e-13 * loss
        while (new := _mean_log_loss(xd @ (theta + t * step), y)) > (
            loss + 1e-4 * t * slope + slack
        ):
            if t < 1e-12:  # no descent along the Newton direction
                return theta[:-1], float(theta[-1]), epochs, gnorm
            t /= 2
        theta, loss, epochs = theta + t * step, new, epochs + 1


def predict(model, ds, policy=None):
    """Scores (logistic outputs) and decisions for a dataset.

    Decisions follow the threshold policy when given, else the fixed rule
    score >= 0.5. Categorical levels and groups are matched to the training
    data by label; unseen ones raise: silently defaulting a level would
    fabricate predictions.
    """
    ds = _in_training_codes(ds, model.encoder)
    x = _encode(ds, model.encoder)
    scores = _sigmoid(x @ model.weights + model.intercept)
    if policy is None:
        return PredictionSet((scores >= 0.5).astype(int), scores)
    col = policy.stratum_column
    strata = None if col is None else ds.column_codes(col)[0]
    return apply_threshold(PredictionSet(scores=scores), policy, ds.sensitive, strata)


def _rate_thresholds(scores, groups, n_groups, rate):
    """Per-group threshold accepting the ceil(rate * n_g) highest scores."""
    cells, flags = {}, []
    for g in range(n_groups):
        sg = np.sort(scores[groups == g])
        if len(sg) == 0:
            continue
        if sg[0] == sg[-1]:
            flags.append(f"constant scores in group {g}")
        k = int(np.ceil(rate * len(sg)))
        if k <= 0:
            cells[g] = float(np.nextafter(sg[-1], np.inf))  # accept nobody
        else:
            cells[g] = float(sg[len(sg) - k])
    return cells, flags


def fit_dp_threshold_scores(scores, groups, n_groups, target, grid_size=100):
    """Common-acceptance-rate thresholds straight from scores.

    Scans candidate rates r in {0, 1/grid, ..., 1}; for each, the group
    threshold is the score quantile accepting the ceil(r * n_g) top-scored
    rows, which bounds the acceptance-rate gap by 1/min_g(n_g) (ties at
    the threshold can widen it; constant-score groups are flagged). Keeps
    the r with the best accuracy against ``target``, preferring smaller r
    on ties. Each group is sorted once: at every rate its rows from the
    first copy of the threshold score up are accepted, so its correct
    count is the positives from there up plus the negatives below.
    """
    scores = np.asarray(scores, dtype=float)
    groups = np.asarray(groups, dtype=int)
    target = np.asarray(target, dtype=int)
    rates = np.array([i / grid_size for i in range(grid_size + 1)])
    correct = np.zeros(len(rates), dtype=np.int64)
    for g in range(n_groups):
        m = groups == g
        order = np.argsort(scores[m])
        sg, yg = scores[m][order], target[m][order]
        k = np.ceil(rates * len(sg)).astype(np.int64)
        start = np.full(len(rates), len(sg))
        start[k > 0] = np.searchsorted(sg, sg[len(sg) - k[k > 0]], side="left")
        pos = np.concatenate(([0], np.cumsum(yg == 1)))
        neg = np.concatenate(([0], np.cumsum(yg == 0)))
        correct += pos[-1] - pos[start] + neg[start]
    r = float(rates[np.argmax(correct)])
    cells, flags = _rate_thresholds(scores, groups, n_groups, r)
    return ThresholdPolicy(
        {(g, None): t for g, t in cells.items()}, target_rate=r, flags=tuple(flags)
    )


def _fit_scores(ds, model):
    if ds.target is None:
        raise ValueError("threshold fitting needs the ground-truth target")
    return predict(model, ds).scores


def fit_dp_threshold(ds, model, grid_size=100):
    """Per-group thresholds enforcing a common acceptance rate on ``ds``."""
    ds = _in_training_codes(ds, model.encoder)
    return fit_dp_threshold_scores(
        _fit_scores(ds, model), ds.sensitive.values, ds.sensitive.n_groups,
        ds.target, grid_size,
    )


def fit_cdp_threshold(ds, model, conditioning, grid_size=100, min_count=30):
    """DP thresholds fitted independently inside each stratum.

    Strata with fewer than ``min_count`` rows fall back to the global
    policy, as do group cells absent from a stratum; both are flagged so
    the report can disclose them.
    """
    ds = _in_training_codes(ds, model.encoder)
    codes, labels = ds.column_codes(conditioning)
    scores, groups = _fit_scores(ds, model), ds.sensitive.values
    n_groups = ds.sensitive.n_groups
    glob = fit_dp_threshold_scores(scores, groups, n_groups, ds.target, grid_size)
    cells, fallback, flags = {}, [], list(glob.flags)
    for s in range(len(labels)):
        m = codes == s
        if int(m.sum()) < min_count:
            for g in range(n_groups):
                cells[(g, s)] = glob.threshold(g)
                fallback.append((g, s))
            flags.append(f"stratum {labels[s]!r} below min_count; global policy used")
            continue
        sub = fit_dp_threshold_scores(
            scores[m], groups[m], n_groups, ds.target[m], grid_size
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


def fit_policy(ds, model):
    """The threshold policy of a post-processing model, fitted on ``ds``.

    None for the strategies that threshold scores at one half.
    """
    if model.spec.strategy == DP_POST:
        return fit_dp_threshold(ds, model)
    if model.spec.strategy == CDP_POST:
        return fit_cdp_threshold(ds, model, model.spec.conditioning)
    return None


def save_model(model, path, policy=None):
    """Serialise a model (and optional threshold policy) to JSON."""
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
        "policy": None if policy is None else policy.to_json_dict(),
    }
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_model(path):
    """Load a model saved by :func:`save_model`; returns (model, policy).

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
    model = ClassifierModel(
        np.asarray(doc["weights"], dtype=float),
        float(doc["intercept"]),
        _Encoder.from_json_dict(doc["encoder"]),
        MitigationSpec(**doc["spec"]),
        suppression,
        doc.get("epochs", 0),
        grad_norm,
        doc.get("converged", grad_norm <= TrainConfig().tol),
    )
    policy = doc.get("policy")
    return model, None if policy is None else ThresholdPolicy.from_json_dict(policy)
