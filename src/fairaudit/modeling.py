"""Built-in deterministic classifier and the bias-mitigation strategies.

The classifier is logistic regression trained by full-batch gradient
descent from a zero initialisation with a data-derived constant step, so
training is bit-reproducible: no stochastic minibatching, no random init.

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
from dataclasses import dataclass

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
    """Gradient-descent settings.

    ``learning_rate=None`` derives a stable constant step from the design
    matrix (1.8 divided by a bound on the log-loss Hessian's largest
    eigenvalue); training stops at gradient norm <= ``tol`` or at
    ``max_epochs``.
    """

    learning_rate: float | None = None
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
    """Feature-encoding record: one-hot maps and standardisation constants."""

    columns: tuple      # (name, kind, observed levels or None)
    include_sensitive: bool
    sensitive_levels: tuple
    means: np.ndarray
    scales: np.ndarray

    def to_json_dict(self):
        return {
            "columns": [
                {"name": n, "kind": k, "levels": None if lv is None else list(lv)}
                for n, k, lv in self.columns
            ],
            "include_sensitive": self.include_sensitive,
            "sensitive_levels": list(self.sensitive_levels),
            "means": self.means.tolist(),
            "scales": self.scales.tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc):
        return cls(
            tuple(
                (c["name"], c["kind"], None if c["levels"] is None else tuple(c["levels"]))
                for c in doc["columns"]
            ),
            doc["include_sensitive"],
            tuple(doc["sensitive_levels"]),
            np.asarray(doc["means"], dtype=float),
            np.asarray(doc["scales"], dtype=float),
        )


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
    return _Encoder(tuple(columns), include_sensitive, sens_levels, means, scales)


def _encode(ds, enc):
    raw = _raw_design(ds, enc.columns, enc.include_sensitive, enc.sensitive_levels)
    return (raw - enc.means) / enc.scales


@dataclass(frozen=True)
class ClassifierModel:
    """Fitted logistic model plus its feature-encoding record."""

    weights: np.ndarray
    intercept: float
    encoder: _Encoder
    spec: MitigationSpec
    suppression: SuppressionReport | None = None
    epochs: int = 0
    final_grad_norm: float = float("nan")

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
    best = 0.0
    v = values.astype(float)
    if v.std() == 0:
        return 0.0
    for g in range(ds.sensitive.n_groups):
        ind = (ds.sensitive.values == g).astype(float)
        if ind.std() == 0:
            continue
        c = abs(float(np.corrcoef(v, ind)[0, 1]))
        best = max(best, c)
    return best


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
    if ds.target is None:
        raise ValueError("training needs the ground-truth target")
    names = list(ds.feature_names)
    suppression = None
    if spec.strategy == SUPPRESSION:
        dropped, kept = [], []
        for name in names:
            corr = _feature_corr(ds, ds.feature(name))
            if name in spec.drop_features:
                dropped.append((name, corr))
            elif corr > spec.threshold:
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
    w = np.zeros(x.shape[1])
    b = 0.0
    if hyper.learning_rate is not None:
        step = hyper.learning_rate
    else:
        # log-loss Hessian is bounded by mean ||(x,1)||^2 / 4
        lam = (np.square(x).sum() / len(y) + 1.0) / 4.0 if len(y) else 1.0
        step = 1.8 / max(lam, 1e-12)
    epochs, gnorm = 0, float("inf")
    for epochs in range(1, hyper.max_epochs + 1):
        gw, gb = log_loss_gradient(x, y, w, b)
        gnorm = float(np.sqrt(np.square(gw).sum() + gb * gb))
        if gnorm <= hyper.tol:
            break
        w = w - step * gw
        b = b - step * gb
    return ClassifierModel(w, b, enc, spec, suppression, epochs, gnorm)


def predict(model, ds, policy=None):
    """Scores (logistic outputs) and decisions for a dataset.

    Decisions follow the threshold policy when given, else the fixed rule
    score >= 0.5. Unseen categorical codes raise: silently defaulting a
    level would fabricate predictions.
    """
    x = _encode(ds, model.encoder)
    scores = _sigmoid(x @ model.weights + model.intercept)
    if policy is None:
        return PredictionSet((scores >= 0.5).astype(int), scores)
    strata = None
    if policy.stratum_column is not None:
        strata, _ = ds.column_codes(policy.stratum_column)
    return apply_threshold(
        PredictionSet(scores=scores), policy, ds.sensitive, strata
    )


def _rate_thresholds(scores, groups, n_groups, rate):
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


def fit_dp_threshold_scores(scores, groups, n_groups, target, grid_size=100):
    """Common-acceptance-rate thresholds straight from scores.

    Scans candidate rates r in {0, 1/grid, ..., 1}; for each, the group
    threshold is the score quantile accepting the ceil(r * n_g) top-scored
    rows, which bounds the acceptance-rate gap by 1/min_g(n_g) (ties at
    the threshold can widen it; constant-score groups are flagged). Keeps
    the r with the best accuracy against ``target``, preferring smaller r
    on ties.
    """
    scores = np.asarray(scores, dtype=float)
    groups = np.asarray(groups, dtype=int)
    target = np.asarray(target, dtype=int)
    best = None
    for i in range(grid_size + 1):
        r = i / grid_size
        cells, flags = _rate_thresholds(scores, groups, n_groups, r)
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


def fit_dp_threshold(ds, model, grid_size=100):
    """Per-group thresholds enforcing a common acceptance rate on ``ds``."""
    if ds.target is None:
        raise ValueError("threshold fitting needs the ground-truth target")
    preds = predict(model, ds)
    return fit_dp_threshold_scores(
        preds.scores, ds.sensitive.values, ds.sensitive.n_groups, ds.target, grid_size
    )


def fit_cdp_threshold(ds, model, conditioning, grid_size=100, min_count=30):
    """DP thresholds fitted independently inside each stratum.

    Strata with fewer than ``min_count`` rows fall back to the global
    policy, as do group cells absent from a stratum; both are flagged so
    the report can disclose them.
    """
    codes, labels = ds.column_codes(conditioning)
    glob = fit_dp_threshold(ds, model, grid_size)
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
            sub_cells, _ = _rate_thresholds(sub_scores, sub_groups, n_groups, r)
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


def save_model(model, path, policy=None):
    """Serialise a model (and optional threshold policy) to JSON."""
    doc = {
        "kind": "logistic",
        "weights": model.weights.tolist(),
        "intercept": model.intercept,
        "encoder": model.encoder.to_json_dict(),
        "spec": {
            "strategy": model.spec.strategy,
            "threshold": model.spec.threshold,
            "drop_features": list(model.spec.drop_features),
            "conditioning": model.spec.conditioning,
        },
        "suppression": None
        if model.suppression is None
        else model.suppression.to_json_dict(),
        "epochs": model.epochs,
        "final_grad_norm": model.final_grad_norm,
        "policy": None if policy is None else policy.to_json_dict(),
    }
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_model(path):
    """Load a model saved by :func:`save_model`; returns (model, policy)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    spec = MitigationSpec(
        doc["spec"]["strategy"],
        doc["spec"]["threshold"],
        tuple(doc["spec"]["drop_features"]),
        doc["spec"]["conditioning"],
    )
    supp = doc.get("suppression")
    suppression = None
    if supp is not None:
        suppression = SuppressionReport(
            supp["threshold"],
            tuple((n, c) for n, c in supp["dropped"]),
            tuple(supp["kept"]),
        )
    model = ClassifierModel(
        np.asarray(doc["weights"], dtype=float),
        float(doc["intercept"]),
        _Encoder.from_json_dict(doc["encoder"]),
        spec,
        suppression,
        doc.get("epochs", 0),
        doc.get("final_grad_norm", float("nan")),
    )
    policy = None
    if doc.get("policy") is not None:
        policy = ThresholdPolicy.from_json_dict(doc["policy"])
    return model, policy
