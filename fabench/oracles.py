"""Output oracles, computed by the benchmark outside the timed region.

Each ``check_*`` takes the outputs of every timed operation of one run
(plus the inputs it needs) and returns ``(attempted, failures)``: the
number of user-visible calls checked and a list of failure messages, one
per failed call. Nothing here imports ``fairaudit``: the oracles rebuild
what they need from the inputs with numpy and scipy.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.spatial.distance import cdist
from scipy.stats import norm

from workloads import NODES, SIGMA, Y_COEFFS, Y_CUTOFF, make_units, rule_value

AUDIT_METRICS = (
    "demographic_parity", "conditional_demographic_parity", "equality_of_odds",
    "predictive_equality", "equality_of_opportunity", "predictive_parity",
    "sufficiency", "accuracy_parity", "balance_positive_class",
    "balance_negative_class", "auc_parity", "calibration_within_groups",
    "criteria_gaps", "sep_suff_exclusion", "consistency",
    "similarity_weighted_disparity", "lipschitz_audit", "flip",
)
EXPERIMENT_ROWS = ("U(Y;A)", "U(Yhat;A)", "ROC AUC", "Flip", "DP-ratio")
EXPERIMENT_HEADER = "dataset,metric,FTU,Supp_l,Supp_h,CDP,DP"
MC_SIGMAS = 6.0  # a Monte Carlo mean may sit this many stderrs off the truth
KNN_K = 5  # the audit's default --k
TOL = 1e-9
MALFORMED = (KeyError, IndexError, TypeError, ValueError, AttributeError)


def _guarded(check, *args):
    """A check's errors; output too malformed to check is one error too."""
    try:
        return check(*args)
    except MALFORMED as exc:
        return [f"malformed output: {exc!r}"]


# --------------------------------------------------------------------------
# experiment-15k
# --------------------------------------------------------------------------


def _experiment_table_errors(text):
    lines = text.splitlines()
    if not lines or lines[0] != EXPERIMENT_HEADER:
        return ["experiment.csv header differs"]
    rows = lines[1:]
    want = [(d, m) for d in ("synthetic#1", "synthetic#2") for m in EXPERIMENT_ROWS]
    if [tuple(r.split(",")[:2]) for r in rows] != want:
        return ["experiment.csv rows differ from the 2 x 5 table"]
    errors = []
    for line in rows:
        _, metric, *cells = line.split(",")
        if metric == "U(Y;A)":
            if any(cells[1:]):
                errors.append(f"row {line!r}: U(Y;A) fills more than one cell")
            cells = cells[:1]
        for cell in cells:
            try:
                v = float(cell)
            except ValueError:
                errors.append(f"cell {cell!r} is not a number")
                continue
            if not 0.0 <= v <= 100.0:
                errors.append(f"cell {cell!r} lies outside [0, 100]")
    return errors


def check_experiment(ops):
    """Exit 0; ``experiment.csv`` byte-identical across repeats, cells in [0, 100]."""
    failures = []
    first = ops[0]["outputs"]["csv"] if ops else ""
    for k, op in enumerate(ops):
        out = op["outputs"]
        errs = [] if out["rc"] == 0 else [f"exit {out['rc']}"]
        errs += _guarded(_experiment_table_errors, out["csv"])
        if out["csv"] != first:
            errs.append("experiment.csv differs from the first repeat")
        failures += [f"experiment op {k}: {e}" for e in errs[:1]]
    return len(ops), failures


# --------------------------------------------------------------------------
# audit-15k
# --------------------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text):
    """``json.loads`` that refuses NaN and Infinity, as ``allow_nan=False`` emits."""
    return json.loads(text, parse_constant=_reject_constant)


def _first_appearance(cells):
    seen = {}
    codes = np.array([seen.setdefault(c, len(seen)) for c in cells], dtype=int)
    return codes, tuple(seen)


class AuditInputs:
    """The audit CSV and saved model, decoded without the program."""

    def __init__(self, csv_text, model_text):
        rows = list(csv.reader(io.StringIO(csv_text)))
        header = [h.strip() for h in rows[0]]
        cols = {h: [r[j].strip() for r in rows[1:] if r] for j, h in enumerate(header)}
        self.n = len(cols["A"])
        self.groups, self.group_labels = _first_appearance(cols["A"])
        self.x3, _ = _first_appearance(cols["X3"])
        self.x1 = np.array([float(c) for c in cols["X1"]])
        self.x2 = np.array([float(c) for c in cols["X2"]])
        self.model = json.loads(model_text)
        self.scores, self.decisions = self._predict()

    def _one_hot(self, codes, levels):
        levels = np.asarray(levels, dtype=int)
        pos = np.searchsorted(levels, codes)
        if not np.array_equal(levels[np.minimum(pos, len(levels) - 1)], codes):
            raise ValueError("audit data holds a level the model never saw")
        block = np.zeros((len(codes), len(levels)))
        block[np.arange(len(codes)), pos] = 1.0
        return block

    def _predict(self):
        """Scores and DP-policy decisions of the saved logistic model."""
        enc = self.model["encoder"]
        values = {"X1": self.x1, "X2": self.x2, "X3": self.x3}
        blocks = []
        for col in enc["columns"]:
            v = values[col["name"]]
            blocks.append(v.reshape(-1, 1) if col["kind"] == "continuous"
                          else self._one_hot(v, col["levels"]))
        if enc["include_sensitive"]:
            blocks.append(self._one_hot(self.groups, enc["sensitive_levels"]))
        x = (np.hstack(blocks) - np.asarray(enc["means"])) / np.asarray(enc["scales"])
        z = x @ np.asarray(self.model["weights"], dtype=float) + float(self.model["intercept"])
        scores = np.empty_like(z)
        pos = z >= 0
        scores[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        scores[~pos] = ez / (1.0 + ez)
        cells = self.model["policy"]["cells"]
        thresholds = np.array([float(cells[f"{g}|-"]) for g in range(len(self.group_labels))])
        return scores, (scores >= thresholds[self.groups]).astype(float)

    def distance_features(self):
        """Standardised features (X1, X2, one-hot X3) as the audit measures them."""
        onehot = np.zeros((self.n, int(self.x3.max()) + 1))
        onehot[np.arange(self.n), self.x3] = 1.0
        x = np.hstack([self.x1.reshape(-1, 1), self.x2.reshape(-1, 1), onehot])
        sd = x.std(axis=0)
        sd[sd == 0] = 1.0
        return (x - x.mean(axis=0)) / sd

    def dp_rates(self):
        return {lab: float(np.mean(self.decisions[self.groups == g]))
                for g, lab in enumerate(self.group_labels)}

    def consistency(self, k=KNN_K, block=256):
        """Brute-force kNN consistency; all ties at the k-th distance included."""
        x, dec, total = self.distance_features(), self.decisions, 0.0
        for start in range(0, self.n, block):
            rows = np.arange(start, min(start + block, self.n))
            d = cdist(x[rows], x)
            d[np.arange(len(rows)), rows] = np.inf
            kth = np.partition(d, k - 1, axis=1)[:, k - 1]
            nb = d <= kth[:, None]
            total += float(np.abs(dec[rows] - (nb @ dec) / nb.sum(axis=1)).sum())
        return 1.0 - total / self.n

    def similarity_weighted_disparity(self, block=256):
        x, dec = self.distance_features(), self.decisions
        i1, i0 = np.flatnonzero(self.groups == 1), np.flatnonzero(self.groups == 0)
        total = 0.0
        for start in range(0, len(i1), block):
            rows = i1[start:start + block]
            d = cdist(x[rows], x[i0])
            total += float((np.exp(-d) * np.abs(dec[rows][:, None] - dec[i0][None, :])).sum())
        return total / (len(i1) * len(i0))


def _has_skips(doc):
    if isinstance(doc, dict):
        return any((k == "skipped" and v) or _has_skips(v) for k, v in doc.items())
    if isinstance(doc, list):
        return any(_has_skips(v) for v in doc)
    return False


def audit_expected(inputs):
    """The oracle values one audit is compared against (computed once per run)."""
    rates = inputs.dp_rates()
    hi, lo = max(rates.values()), min(rates.values())
    return {
        "n": inputs.n,
        "dp_groups": rates,
        "dp_gap": hi - lo,
        "dp_ratio": 1.0 if hi == 0 else lo / hi,
        "consistency": inputs.consistency(),
        "similarity_weighted_disparity": inputs.similarity_weighted_disparity(),
    }


def _close(a, b):
    return a is not None and b is not None and abs(a - b) <= TOL


def _audit_errors(out, expected):
    if out["rc"] != 0:
        return [f"exit {out['rc']}"]
    try:
        doc = strict_json(out["json"])
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"]
    metrics = doc.get("metrics", {})
    missing = [m for m in AUDIT_METRICS if m not in metrics]
    if missing or len(metrics) != len(AUDIT_METRICS):
        return [f"metrics missing or extra: {missing or sorted(metrics)}"]
    errors = [f"{m} skipped a cell" for m in AUDIT_METRICS if _has_skips(metrics[m])]
    if doc.get("n") != expected["n"]:
        errors.append(f"n = {doc.get('n')}, expected {expected['n']}")
    dp = metrics["demographic_parity"]
    if set(dp["groups"]) != set(expected["dp_groups"]) or not all(
        _close(dp["groups"][g], v) for g, v in expected["dp_groups"].items()
    ):
        errors.append(f"DP rates {dp['groups']} != recomputed {expected['dp_groups']}")
    if not (_close(dp["gap"], expected["dp_gap"]) and _close(dp["ratio"], expected["dp_ratio"])):
        errors.append("DP gap or ratio differs from the recomputed rates")
    for m in ("consistency", "similarity_weighted_disparity"):
        if not _close(metrics[m].get("value"), expected[m]):
            errors.append(f"{m} = {metrics[m].get('value')}, brute force gives {expected[m]}")
    return errors


def check_audit(ops, expected):
    """Exit 0, strict JSON, 18 metrics none skipped, DP rates and kNN values."""
    failures = []
    first = ops[0]["outputs"]["json"] if ops else ""
    for k, op in enumerate(ops):
        errs = _guarded(_audit_errors, op["outputs"], expected)
        if op["outputs"]["json"] != first:
            errs.append("audit report differs from the first repeat")
        failures += [f"audit op {k}: {e}" for e in errs[:1]]
    return len(ops), failures


# --------------------------------------------------------------------------
# cf-gaps-2k
# --------------------------------------------------------------------------


def gaps_expected(cols):
    """Closed-form gaps over the A=0 units for do(A=1) vs do(A=0).

    Under do(A=1) an A=0 unit has X1 + 0.5 and X3 = 1 (its U3 equals its
    X3); holding X3 keeps the factual X3; holding every descendant of A
    leaves X1, X2, X3 unchanged, so dcff is 0.
    """
    a, x1, x2, x3 = (np.asarray(cols[k], dtype=float) for k in ("A", "X1", "X2", "X3"))
    m = a == 0.0
    x1, x2, x3 = x1[m], x2[m], x3[m]
    f0 = rule_value(x1, x2, x3).astype(float)
    f_all = rule_value(x1 + 0.5, x2, np.ones_like(x3)).astype(float)
    f_held = rule_value(x1 + 0.5, x2, x3).astype(float)
    return {
        "cff": float(np.abs(f0 - f_all).mean()),
        "pcff": float(np.abs(f0 - f_held).mean()),
        "dcff": 0.0,
        "ecff": float(abs(f0.mean() - f_all.mean())),
    }


def check_gaps(ops, expected):
    """Every gap call matches its closed form."""
    failures, attempted = [], 0
    for k, op in enumerate(ops):
        got = op["outputs"]["gaps"]
        for label, want in expected.items():
            attempted += 1
            if label not in got or not abs(got[label] - want) <= 1e-12:
                failures.append(f"gaps op {k}: {label} = {got.get(label)}, closed form {want}")
    return attempted, failures


# --------------------------------------------------------------------------
# cf-units-1k
# --------------------------------------------------------------------------


def _p_upper(c, lo, hi):
    """P(U > c) for U ~ N(0, SIGMA) truncated to (lo, hi); one bound is infinite."""
    if math.isinf(hi):
        return float(norm.sf(max(lo, c) / SIGMA) / norm.sf(lo / SIGMA))
    top = norm.cdf(hi / SIGMA)
    return float(max(0.0, top - norm.cdf(c / SIGMA)) / top)


def unit_expected(observed, do, hold_x3):
    """Closed-form counterfactual means of one unit.

    Returns ``{node: (mean, is_monte_carlo)}``. X1, X2 and X3's means are
    exact functions of the unit, except X3 for an A=1 unit moved to A=0
    with X3 free: its U3 posterior is the Bernoulli(0.5) prior. Y's mean
    is a truncated-normal tail probability, mixed over X3 where X3 is
    random.
    """
    a, x1, x2, x3, y = (observed[k] for k in NODES)
    a2 = do["A"]
    x1_2 = x1 + 0.5 * (a2 - a)
    if hold_x3:
        x3_dist = {x3: 1.0}
    else:
        u3_posterior = {x3: 1.0} if a == 0.0 else {0.0: 0.5, 1.0: 0.5}
        x3_dist = {}
        for u3, w in u3_posterior.items():
            v = float(a2 + u3 >= 1.0)
            x3_dist[v] = x3_dist.get(v, 0.0) + w
    c = Y_COEFFS
    edge = Y_CUTOFF - (c["X1"] * x1 + c["X2"] * x2 + c["X3"] * x3 + c["A"] * a)
    lo, hi = (edge, math.inf) if y == 1.0 else (-math.inf, edge)
    p_y = 0.0
    for v3, w in x3_dist.items():
        cut = Y_CUTOFF - (c["X1"] * x1_2 + c["X2"] * x2 + c["X3"] * v3 + c["A"] * a2)
        p_y += w * _p_upper(cut, lo, hi)
    x3_mean = sum(v * w for v, w in x3_dist.items())
    return {
        "A": (a2, False),
        "X1": (x1_2, False),
        "X2": (x2, False),
        "X3": (x3_mean, len(x3_dist) > 1),
        "Y": (p_y, True),
    }


def _unit_errors(doc, expected):
    if doc is None:
        return ["no output"]
    errors = []
    for node, (want, mc) in expected.items():
        got = doc["means"][node]
        if mc and not doc["exact"]:
            # The returned stderr comes from the sample and reads ~0 when an
            # outcome is near-certain, so the closed form's binomial stderr
            # and one draw's weight bound it from below.
            draws = int(doc["draws"])
            returned = float((doc["stderr"] or {}).get(node) or 0.0)
            s = max(returned, math.sqrt(want * (1.0 - want) / draws), 1.0 / draws)
            ok = abs(got - want) <= MC_SIGMAS * s
        else:
            ok = abs(got - want) <= TOL
        if not ok:
            errors.append(f"{node} mean {got} vs closed form {want}")
    return errors


def check_units(ops, seed, queries):
    """Every query's means match the closed form (Monte Carlo within stderrs)."""
    units = make_units(seed, queries)
    expected = [unit_expected(obs, do, hold) for obs, do, hold, _ in units]
    failures, attempted = [], 0
    for k, op in enumerate(ops):
        for i, res in enumerate(op["outputs"]["results"]):
            attempted += 1
            errs = ([f"exit {res['rc']}"] if res["rc"] != 0
                    else _guarded(_unit_errors, res["doc"], expected[i]))
            if errs:
                failures.append(f"units op {k} query {i}: {errs[0]}")
    return attempted, failures
