"""Structural causal models: sampling, interventions, counterfactuals, and
the causality-based fairness gaps built on them.

Supported structural forms are linear-with-additive-noise and
threshold-of-linear (a linear-plus-noise expression compared against a
cutoff), which cover the bundled synthetic models and keep counterfactual
inference exact or cheaply simulable:

- abduction for linear nodes with additive noise inverts exactly
  (``u = x - g(parents)``);
- threshold nodes with finite-support noise get an exact posterior by
  enumerating the noise values consistent with the observation;
- threshold nodes with gaussian noise get a truncated-gaussian posterior
  (the observation pins the halfline the noise fell in), sampled by
  inverse CDF on the lower tail: a halfline above the noise mean is
  mirrored below it, drawn there and negated, so a deep upper tail keeps
  its precision instead of rounding to a CDF value of 1.

Prediction propagates posterior draws through the intervened model;
when every posterior is a point mass a single exact pass is used. The
fairness gaps also take a single exact pass when the decision reads no
node downstream of a non-point posterior (see ``_decision_probs``).
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .data import CATEGORICAL, CONTINUOUS, Dataset, FeatureColumn, SensitiveAttribute

GAUSSIAN = "gaussian"
BERNOULLI = "bernoulli"
POINT = "point"

LINEAR = "linear"
THRESHOLD = "threshold"
EXOGENOUS = "exogenous"

_UNIT_BLOCK = 4096  # units processed per abduction/propagation block


class AbductionError(ValueError):
    """The observation has zero probability under the model."""


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph; ``nodes`` must be listed in topological order."""

    nodes: tuple
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple((p, c) for p, c in self.edges))
        order = {n: i for i, n in enumerate(self.nodes)}
        if len(order) != len(self.nodes):
            raise ValueError("duplicate node names")
        for p, c in self.edges:
            if p not in order or c not in order:
                raise ValueError(f"edge ({p}, {c}) references unknown node")
            if order[p] >= order[c]:
                raise ValueError(
                    f"edge ({p}, {c}) violates the declared topological order"
                )

    def parents(self, node):
        return tuple(p for p, c in self.edges if c == node)

    def descendants(self, node):
        out, frontier = set(), {node}
        while frontier:
            nxt = {c for p, c in self.edges if p in frontier and c not in out}
            out |= nxt
            frontier = nxt
        return out


@dataclass(frozen=True)
class NoiseSpec:
    """Exogenous noise: gaussian(mean, std), bernoulli(p) or point(value)."""

    kind: str
    mean: float = 0.0
    std: float = 1.0
    p: float = 0.5
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, BERNOULLI, POINT):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == GAUSSIAN and self.std <= 0:
            raise ValueError("gaussian std must be positive")
        if self.kind == BERNOULLI and not 0.0 <= self.p <= 1.0:
            raise ValueError("bernoulli p must lie in [0, 1]")

    @classmethod
    def gaussian(cls, mean=0.0, std=1.0):
        return cls(GAUSSIAN, mean=mean, std=std)

    @classmethod
    def bernoulli(cls, p=0.5):
        return cls(BERNOULLI, p=p)

    @classmethod
    def point(cls, value=0.0):
        return cls(POINT, value=value)

    def draw(self, rng, size):
        if self.kind == GAUSSIAN:
            return rng.normal(self.mean, self.std, size)
        if self.kind == BERNOULLI:
            return rng.binomial(1, self.p, size).astype(float)
        return np.full(size, self.value)

    def finite_support(self):
        """(values, probs) for finite-support noise, None for gaussian."""
        if self.kind == BERNOULLI:
            return np.array([0.0, 1.0]), np.array([1.0 - self.p, self.p])
        if self.kind == POINT:
            return np.array([self.value]), np.array([1.0])
        return None

    def to_json_dict(self):
        if self.kind == GAUSSIAN:
            return {"kind": GAUSSIAN, "mean": self.mean, "std": self.std}
        if self.kind == BERNOULLI:
            return {"kind": BERNOULLI, "p": self.p}
        return {"kind": POINT, "value": self.value}


@dataclass(frozen=True)
class Assignment:
    """Structural assignment of one node.

    ``linear``: node = intercept + sum(coeff * parent) + noise.
    ``threshold``: node = indicator(intercept + sum(coeff * parent) + noise
    {> or >=} cutoff), emitting 0/1; ``strict`` selects the comparison.
    ``exogenous``: node = noise.
    """

    kind: str
    intercept: float = 0.0
    coeffs: dict = field(default_factory=dict)
    cutoff: float = 0.0
    strict: bool = False

    def __post_init__(self):
        if self.kind not in (LINEAR, THRESHOLD, EXOGENOUS):
            raise ValueError(f"unknown assignment kind {self.kind!r}")
        object.__setattr__(self, "coeffs", dict(self.coeffs))
        if self.kind == EXOGENOUS and self.coeffs:
            raise ValueError("exogenous assignments take no parents")

    def linear_part(self, values):
        out = self.intercept
        for parent, c in self.coeffs.items():
            out = out + c * values[parent]
        return out

    def evaluate(self, values, u):
        if self.kind == EXOGENOUS:
            return u
        inner = self.linear_part(values) + u
        if self.kind == LINEAR:
            return inner
        ind = inner > self.cutoff if self.strict else inner >= self.cutoff
        return ind.astype(float) if isinstance(ind, np.ndarray) else float(ind)

    def to_json_dict(self):
        doc = {"kind": self.kind, "intercept": self.intercept, "coeffs": dict(self.coeffs)}
        if self.kind == THRESHOLD:
            doc["cutoff"] = self.cutoff
            doc["strict"] = self.strict
        return doc


@dataclass(frozen=True)
class Scm:
    """A DAG plus per-node structural assignments and noise specifications."""

    dag: Dag
    assignments: dict
    noises: dict
    sensitive: str | None = None
    target: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "assignments", dict(self.assignments))
        object.__setattr__(self, "noises", dict(self.noises))
        for node in self.dag.nodes:
            if node not in self.assignments:
                raise ValueError(f"node {node!r} has no assignment")
            if node not in self.noises:
                raise ValueError(f"node {node!r} has no noise spec")
            a = self.assignments[node]
            parents = set(self.dag.parents(node))
            if a.kind == EXOGENOUS:
                if parents:
                    raise ValueError(f"exogenous node {node!r} cannot have parents")
            elif set(a.coeffs) != parents:
                raise ValueError(
                    f"node {node!r}: coefficients {sorted(a.coeffs)} do not cover "
                    f"parents {sorted(parents)} exactly"
                )
        for role, name in (("sensitive", self.sensitive), ("target", self.target)):
            if name is not None and name not in self.dag.nodes:
                raise ValueError(f"{role} node {name!r} not in the graph")

    @property
    def nodes(self):
        return self.dag.nodes

    def descendants(self, node):
        return self.dag.descendants(node)

    def to_json(self):
        nodes = []
        for n in self.dag.nodes:
            role = None
            if n == self.sensitive:
                role = "sensitive"
            elif n == self.target:
                role = "target"
            nodes.append(
                {
                    "name": n,
                    "parents": list(self.dag.parents(n)),
                    "assignment": self.assignments[n].to_json_dict(),
                    "noise": self.noises[n].to_json_dict(),
                    "role": role,
                }
            )
        return json.dumps({"nodes": nodes}, indent=2)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        names, edges, assignments, noises = [], [], {}, {}
        sensitive = target = None
        for nd in doc["nodes"]:
            name = nd["name"]
            names.append(name)
            for p in nd.get("parents", ()):
                edges.append((p, name))
            a = nd["assignment"]
            assignments[name] = Assignment(
                a["kind"],
                a.get("intercept", 0.0),
                a.get("coeffs", {}),
                a.get("cutoff", 0.0),
                a.get("strict", False),
            )
            nz = nd["noise"]
            noises[name] = NoiseSpec(
                nz["kind"],
                mean=nz.get("mean", 0.0),
                std=nz.get("std", 1.0),
                p=nz.get("p", 0.5),
                value=nz.get("value", 0.0),
            )
            if nd.get("role") == "sensitive":
                sensitive = name
            elif nd.get("role") == "target":
                target = name
        return cls(Dag(tuple(names), tuple(edges)), assignments, noises, sensitive, target)


def save_scm(scm, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scm.to_json() + "\n")


def load_scm(path):
    with open(path, encoding="utf-8") as fh:
        return Scm.from_json(fh.read())


def intervene(scm, do):
    """New model with every node in ``do`` forced to a constant.

    Incoming edges of intervened nodes are removed and the node becomes an
    exogenous point mass; the original model is untouched.
    """
    do = {k: float(v) for k, v in do.items()}
    for node in do:
        if node not in scm.dag.nodes:
            raise ValueError(f"cannot intervene on unknown node {node!r}")
    edges = tuple((p, c) for p, c in scm.dag.edges if c not in do)
    assignments = dict(scm.assignments)
    noises = dict(scm.noises)
    for node, value in do.items():
        assignments[node] = Assignment(EXOGENOUS)
        noises[node] = NoiseSpec.point(value)
    return Scm(Dag(scm.dag.nodes, edges), assignments, noises, scm.sensitive, scm.target)


def simulate(scm, n, seed=0, noise_overrides=None):
    """Ancestral sampling: returns (values, latents) dicts of length-n arrays.

    Noise is drawn node by node in topological order from a single
    generator, so two runs with the same seed are bit-identical.
    ``noise_overrides`` substitutes given noise arrays (common random
    numbers across interventions, counterfactual prediction).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    noise_overrides = noise_overrides or {}
    values, latents = {}, {}
    for node in scm.dag.nodes:
        u = noise_overrides.get(node)
        if u is None:
            u = scm.noises[node].draw(rng, n)
        latents[node] = u
        values[node] = scm.assignments[node].evaluate(values, u)
    return values, latents


def sample(scm, n, seed=0, include_latents=False):
    """Sample n rows into a Dataset (features, sensitive attribute, target).

    The sensitive node must take small nonnegative integer values; nodes
    producing indicator or finite-support values become categorical
    features, the rest continuous.
    """
    if scm.sensitive is None:
        raise ValueError("dataset sampling needs a designated sensitive node")
    values, latents = simulate(scm, n, seed)
    sens_vals = values[scm.sensitive]
    if n and not np.allclose(sens_vals, np.round(sens_vals)):
        raise ValueError("sensitive node must take integer group values")
    codes = np.round(sens_vals).astype(int) if n else np.zeros(0, dtype=int)
    g = max(2, int(codes.max(initial=1)) + 1)
    sensitive = SensitiveAttribute(
        scm.sensitive, codes, tuple(str(i) for i in range(g))
    )
    features = []
    for node in scm.dag.nodes:
        if node in (scm.sensitive, scm.target):
            continue
        vals = values[node]
        if _is_discrete(scm, node):
            features.append(FeatureColumn(node, CATEGORICAL, vals.astype(int)))
        else:
            features.append(FeatureColumn(node, CONTINUOUS, vals))
    target = None
    if scm.target is not None:
        target = values[scm.target].astype(int)
    ds = Dataset(tuple(features), sensitive, target, scm.target or "Y")
    return (ds, latents) if include_latents else ds


def _is_discrete(scm, node):
    a = scm.assignments[node]
    if a.kind == THRESHOLD:
        return True
    return a.kind == EXOGENOUS and scm.noises[node].kind in (BERNOULLI, POINT)


# ---------------------------------------------------------------------------
# abduction / counterfactual machinery
# ---------------------------------------------------------------------------

_TOL = 1e-9
_Q_MIN = np.nextafter(0.0, 1.0)  # least positive double: ndtri(0) is -inf


def _abduct(scm, obs):
    """Noise posteriors per node for fully observed units.

    Full observation makes the posterior factorise: each node's noise is
    pinned by its own value and its parents' values. Returns a dict
    node -> ("point", u) | ("bern01", p1) | ("tnorm", lo, hi).
    """
    posteriors = {}
    for node in scm.dag.nodes:
        a, nz = scm.assignments[node], scm.noises[node]
        x = obs[node]
        if a.kind in (EXOGENOUS, LINEAR):
            u = x - a.linear_part(obs) if a.kind == LINEAR else x.copy()
            if nz.kind == BERNOULLI:
                snapped = np.round(u)
                bad = (np.abs(u - snapped) > _TOL) | ~np.isin(snapped, (0.0, 1.0))
                if bad.any():
                    raise AbductionError(
                        f"node {node!r}: observed value inconsistent with "
                        f"bernoulli noise at unit {int(np.flatnonzero(bad)[0])}"
                    )
                u = snapped
            elif nz.kind == POINT and (np.abs(u - nz.value) > _TOL).any():
                raise AbductionError(
                    f"node {node!r}: observation inconsistent with point noise"
                )
            posteriors[node] = ("point", u)
        else:  # threshold
            bad = ~np.isin(np.round(x), (0.0, 1.0)) | (np.abs(x - np.round(x)) > _TOL)
            if bad.any():
                raise AbductionError(f"node {node!r}: threshold node observed non-binary")
            xb = np.round(x).astype(bool)
            g = a.linear_part(obs)
            gb = np.broadcast_to(np.asarray(g, dtype=float), x.shape)
            if nz.kind == GAUSSIAN:
                edge = a.cutoff - gb
                lo = np.where(xb, edge, -np.inf)
                hi = np.where(xb, np.inf, edge)
                posteriors[node] = ("tnorm", lo, hi)
            elif nz.kind == BERNOULLI:
                ind0 = _indicator(gb + 0.0, a)
                ind1 = _indicator(gb + 1.0, a)
                ok0, ok1 = ind0 == xb, ind1 == xb
                if (~ok0 & ~ok1).any():
                    raise AbductionError(
                        f"node {node!r}: no noise value consistent with observation"
                    )
                p1 = np.where(ok0 & ok1, nz.p, np.where(ok1, 1.0, 0.0))
                posteriors[node] = ("bern01", p1)
            else:  # point noise
                if (_indicator(gb + nz.value, a) != xb).any():
                    raise AbductionError(
                        f"node {node!r}: observation inconsistent with point noise"
                    )
                posteriors[node] = ("point", np.full(x.shape, nz.value))
    return posteriors


def _indicator(inner, a):
    return inner > a.cutoff if a.strict else inner >= a.cutoff


def _point_mass(post):
    """Whether a posterior pins the noise of every unit it covers.

    A ``bern01`` posterior with every p1 in {0, 1} does: ``_draw_posterior``
    then draws u = p1 whatever the generator gives.
    """
    kind = post[0]
    if kind == "point":
        return True
    return kind == "bern01" and not ((post[1] > 0) & (post[1] < 1)).any()


def _draw_posterior(post, nz, draws, rng, node=None, start=0):
    """Draw (draws, m) noise values from a block posterior.

    A truncated gaussian is drawn by inverting the standard normal CDF on a
    uniform between the CDF values at its ends. An interval whose
    standardised lower end is above 0 is mirrored first: drawn on
    (-hi, -lo) and negated, so the CDF values stay in the lower tail, where
    they keep their precision instead of rounding to 1. An interval whose
    mass underflows to 0 raises ``AbductionError`` naming ``node`` and the
    unit (``start`` is the block's first unit).
    """
    kind = post[0]
    if kind == "point":
        u = post[1]
        return np.broadcast_to(u, (draws, len(u))) if draws > 1 else u[None, :]
    if kind == "bern01":
        p1 = post[1]
        return (rng.random((draws, len(p1))) < p1).astype(float)
    _, lo, hi = post
    zlo = (lo - nz.mean) / nz.std
    zhi = (hi - nz.mean) / nz.std
    flip = zlo > 0
    fa = ndtr(np.where(flip, -zhi, zlo))
    fb = ndtr(np.where(flip, -zlo, zhi))
    empty = ~(fb > fa)
    if empty.any():
        raise AbductionError(
            f"node {node!r}: truncated-gaussian posterior has no mass at unit "
            f"{start + int(np.flatnonzero(empty)[0])}"
        )
    q = fa + rng.random((draws, len(lo))) * (fb - fa)
    z = ndtri(np.clip(q, _Q_MIN, 1.0 - 1e-16))
    if flip.any():
        z = np.where(flip, -z, z)
    return nz.mean + nz.std * z


def _propagate(scm, noise, fixed):
    """Evaluate all nodes given noise draws and clamped node values."""
    values = {}
    for node in scm.dag.nodes:
        if node in fixed:
            v = fixed[node]
            values[node] = np.broadcast_to(np.asarray(v, dtype=float), noise[node].shape)
        else:
            values[node] = scm.assignments[node].evaluate(values, noise[node])
    return values


@dataclass(frozen=True)
class CounterfactualQuery:
    """One abduction-action-prediction query.

    ``observed`` must cover every node (partial observation unsupported);
    ``intervention`` maps nodes to forced values; ``mediators_held`` names
    nodes clamped at their factual values during prediction (selecting
    which causal paths the intervention is allowed to act through).
    """

    observed: dict
    intervention: dict
    mediators_held: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "observed", dict(self.observed))
        object.__setattr__(self, "intervention", dict(self.intervention))
        object.__setattr__(self, "mediators_held", frozenset(self.mediators_held))
        clash = set(self.intervention) & self.mediators_held
        if clash:
            raise ValueError(f"intervened nodes also held as mediators: {sorted(clash)}")


@dataclass(frozen=True)
class CounterfactualResult:
    """Per-node counterfactual summary: means, optionally full samples."""

    means: dict
    exact: bool
    draws: int
    stderr: dict | None = None
    samples: dict | None = None


def counterfactual(scm, query, mc_budget=10000, seed=0, return_samples=False):
    """Three-step counterfactual for one unit.

    Abduction conditions the noise on the observation, action applies the
    intervention (and clamps held mediators at factual values), prediction
    propagates the noise posterior through the modified model. Exact (one
    deterministic pass) when every posterior is a point mass, Monte Carlo
    with ``mc_budget`` draws otherwise.
    """
    missing = [n for n in scm.dag.nodes if n not in query.observed]
    if missing:
        raise ValueError(
            f"partial observation unsupported; missing nodes: {missing}"
        )
    obs = {k: np.array([float(v)]) for k, v in query.observed.items()}
    posteriors = _abduct(scm, obs)
    exact = all(_point_mass(p) for p in posteriors.values())
    draws = 1 if exact else int(mc_budget)
    rng = np.random.default_rng(seed)
    noise = {
        node: _draw_posterior(posteriors[node], scm.noises[node], draws, rng, node)
        for node in scm.dag.nodes
    }
    fixed = dict(query.intervention)
    for m in query.mediators_held:
        fixed[m] = obs[m]
    values = _propagate(scm, noise, fixed)
    means = {n: float(v.mean()) for n, v in values.items()}
    stderr = None
    if not exact and draws > 1:
        stderr = {n: float(v.std(ddof=1) / math.sqrt(draws)) for n, v in values.items()}
    samples = {n: v[:, 0].copy() for n, v in values.items()} if return_samples else None
    return CounterfactualResult(means, exact, draws, stderr, samples)


def _observations_from_dataset(scm, ds):
    cols = {c.name: c.values.astype(float) for c in ds.features}
    cols[ds.sensitive.name] = ds.sensitive.values.astype(float)
    if ds.target is not None:
        cols[ds.target_name] = ds.target.astype(float)
    missing = [n for n in scm.dag.nodes if n not in cols]
    if missing:
        raise ValueError(f"dataset does not observe nodes: {missing}")
    return {n: cols[n] for n in scm.dag.nodes}


class _ExactValues(Mapping):
    """Read-only node values of the exact pass.

    Nodes downstream of a non-point posterior have no value here: looking
    one up (by ``[]``, ``get``, ``in``, ``items`` or ``values``) records the
    read and raises ``KeyError``.
    """

    def __init__(self, nodes, values):
        self._nodes = nodes
        self._values = values
        self.read_random = False

    def __getitem__(self, node):
        if node in self._values:
            return self._values[node]
        if node in self._nodes:
            self.read_random = True
        raise KeyError(node)

    def __iter__(self):
        return iter(self._nodes)

    def __len__(self):
        return len(self._nodes)


def _exact_values(scm, posteriors, fixed, n):
    """Values, shape (1, n), of every node that is a point mass per unit.

    Clamped nodes take their clamped value; any other node is left out when
    its posterior is not a point mass or one of its parents is left out.
    """
    values = {}
    for node in scm.dag.nodes:
        if node in fixed:
            values[node] = np.broadcast_to(np.asarray(fixed[node], dtype=float), (1, n))
        elif _point_mass(posteriors[node]) and all(
            p in values for p in scm.dag.parents(node)
        ):
            u = posteriors[node][1][None, :]
            values[node] = scm.assignments[node].evaluate(values, u)
    return values


def _decision_probs(scm, decision_fn, obs, interventions, mediators, mc_budget, seed):
    """P(decision = 1 | unit) under each intervention, sharing posterior draws.

    Returns one array per intervention, aligned to the units in ``obs``.
    A single exact pass is used when the decision reads no node downstream
    of a non-point posterior: the decision is called once per intervention
    on arrays of shape (1, n), through a mapping that refuses those nodes,
    so the nodes it reads need not be declared. A decision that reads one
    gets Monte Carlo over all nodes instead (``_mc_decision_probs``).
    """
    n = len(next(iter(obs.values())))
    posteriors = _abduct(scm, obs)
    held = {med: obs[med] for med in mediators}
    outs = []
    for do in interventions:
        view = _ExactValues(scm.dag.nodes, _exact_values(scm, posteriors, {**do, **held}, n))
        try:
            dec = decision_fn(view)
        except Exception:
            if not view.read_random:
                raise
        if view.read_random:
            return _mc_decision_probs(
                scm, decision_fn, obs, posteriors, interventions, mediators, mc_budget, seed
            )
        outs.append(np.broadcast_to(np.asarray(dec, dtype=float), (1, n)).mean(axis=0))
    return outs


def _mc_decision_probs(
    scm, decision_fn, obs, posteriors, interventions, mediators, mc_budget, seed
):
    """Monte Carlo form of ``_decision_probs`` over abducted ``posteriors``.

    Blocks over units to bound memory; a block whose posteriors are all
    point masses takes one draw. The block size is fixed, so results are
    deterministic for a given seed.
    """
    n = len(next(iter(obs.values())))
    outs = [np.empty(n) for _ in interventions]
    rng = np.random.default_rng(seed)
    for start in range(0, n, _UNIT_BLOCK):
        sl = slice(start, min(start + _UNIT_BLOCK, n))
        block = {node: (p[0],) + tuple(a[sl] for a in p[1:]) for node, p in posteriors.items()}
        draws = 1 if all(_point_mass(p) for p in block.values()) else int(mc_budget)
        noise = {
            node: _draw_posterior(block[node], scm.noises[node], draws, rng, node, start)
            for node in scm.dag.nodes
        }
        held = {med: obs[med][sl] for med in mediators}
        m = sl.stop - sl.start
        for k, do in enumerate(interventions):
            values = _propagate(scm, noise, {**do, **held})
            dec = np.asarray(decision_fn(values), dtype=float)
            dec = np.broadcast_to(dec, (draws, m))  # tolerate constant decisions
            outs[k][sl] = dec.mean(axis=0)
    return outs


def _sensitive_or_error(scm):
    if scm.sensitive is None:
        raise ValueError("this fairness gap needs a designated sensitive node")
    return scm.sensitive


def pcff_gap(
    scm, decision_fn, ds, a, b, fair_mediators=frozenset(), mc_budget=10000, seed=0,
    return_per_unit=False,
):
    """Path-specific counterfactual fairness gap.

    Mean over units with sensitive value ``a`` of
    ``|P(decision=1 | flip to a) - P(decision=1 | flip to b)|``, where the
    flip's causal consequences are propagated except through the
    ``fair_mediators``, which stay clamped at factual values. With an empty
    mediator set this is the plain counterfactual fairness gap; with all
    descendants of the sensitive node held it audits only the direct path.
    """
    sens = _sensitive_or_error(scm)
    fair_mediators = frozenset(fair_mediators)
    if sens in fair_mediators:
        raise ValueError("the sensitive node cannot be a held mediator")
    obs = _observations_from_dataset(scm, ds)
    mask = np.abs(obs[sens] - float(a)) <= _TOL
    if not mask.any():
        raise ValueError(f"no units with sensitive value {a!r}")
    unit_obs = {k: v[mask] for k, v in obs.items()}
    p_a, p_b = _decision_probs(
        scm,
        decision_fn,
        unit_obs,
        [{sens: float(a)}, {sens: float(b)}],
        fair_mediators,
        mc_budget,
        seed,
    )
    per_unit = np.abs(p_a - p_b)
    gap = float(per_unit.mean())
    return (gap, per_unit) if return_per_unit else gap


def cff_gap(scm, decision_fn, ds, a, b, mc_budget=10000, seed=0, return_per_unit=False):
    """Counterfactual fairness gap (all causal paths of the flip active)."""
    return pcff_gap(
        scm, decision_fn, ds, a, b, frozenset(), mc_budget, seed, return_per_unit
    )


def dcff_gap(scm, decision_fn, ds, a, b, mc_budget=10000, seed=0, return_per_unit=False):
    """Direct-path-only gap: every descendant of the sensitive node is held."""
    sens = _sensitive_or_error(scm)
    return pcff_gap(
        scm,
        decision_fn,
        ds,
        a,
        b,
        frozenset(scm.descendants(sens)),
        mc_budget,
        seed,
        return_per_unit,
    )


def ecff_gap(scm, decision_fn, ds, a, b, mc_budget=10000, seed=0):
    """Expectation variant: difference of average acceptance, not average of
    per-unit differences — opposite-signed individual gaps may cancel."""
    sens = _sensitive_or_error(scm)
    obs = _observations_from_dataset(scm, ds)
    mask = np.abs(obs[sens] - float(a)) <= _TOL
    if not mask.any():
        raise ValueError(f"no units with sensitive value {a!r}")
    unit_obs = {k: v[mask] for k, v in obs.items()}
    p_a, p_b = _decision_probs(
        scm,
        decision_fn,
        unit_obs,
        [{sens: float(a)}, {sens: float(b)}],
        frozenset(),
        mc_budget,
        seed,
    )
    return float(abs(p_a.mean() - p_b.mean()))


def expectation_intervention_gap(scm, decision_fn, a, b, mc_budget=10000, seed=0):
    """|P(decision=1 | do(A=a)) - P(decision=1 | do(A=b))| by simulation.

    Both intervened models are sampled with common random numbers, so the
    estimate's variance reflects only genuinely divergent outcomes.
    """
    sens = _sensitive_or_error(scm)
    rng = np.random.default_rng(seed)
    noise = {node: scm.noises[node].draw(rng, int(mc_budget)) for node in scm.dag.nodes}
    means = []
    for v in (a, b):
        values = _propagate(scm, noise, {sens: float(v)})
        means.append(float(np.asarray(decision_fn(values), dtype=float).mean()))
    return abs(means[0] - means[1])


def conditional_intervention_gap(scm, decision_fn, condition, a, b):
    """Individual-level intervention gap, conditioning on feature values.

    ``|P(dec=1 | do(A=a), X=x) - P(dec=1 | do(A=b), X=x)|`` computed by
    exact enumeration of the exogenous noise. Only models whose noises all
    have finite support are supported: with continuous noise the
    conditioning event has measure zero and the quantity is not computable
    from the model without further assumptions.
    """
    sens = _sensitive_or_error(scm)
    supports = {}
    for node in scm.dag.nodes:
        fs = scm.noises[node].finite_support()
        if fs is None:
            raise ValueError(
                f"node {node!r} has continuous noise; the conditional "
                "intervention gap is only computable under finite-support noise"
            )
        supports[node] = fs
    weights = np.array([1.0])
    noise_cols = {}
    for node in scm.dag.nodes:
        vals, probs = supports[node]
        k = len(vals)
        m = len(weights)
        for other in noise_cols:
            noise_cols[other] = np.repeat(noise_cols[other], k)
        noise_cols[node] = np.tile(vals, m)
        weights = np.repeat(weights, k) * np.tile(probs, m)
    probs_out = []
    for v in (a, b):
        values = _propagate(
            scm, {n: c[None, :] for n, c in noise_cols.items()}, {sens: float(v)}
        )
        match = np.ones(len(weights), dtype=bool)
        for node, want in condition.items():
            match &= np.abs(values[node][0] - float(want)) <= _TOL
        denom = float(weights[match].sum())
        if denom == 0.0:
            raise ValueError(
                f"condition {condition} has zero probability under do({sens}={v})"
            )
        dec = np.asarray(
            decision_fn({n: val[:, match] for n, val in values.items()}), dtype=float
        )
        dec = np.broadcast_to(dec, (1, int(match.sum()))).ravel()
        probs_out.append(float((dec * weights[match]).sum() / denom))
    return abs(probs_out[0] - probs_out[1])
