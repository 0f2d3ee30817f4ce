"""Structural causal models: sampling, interventions, counterfactuals, and
the causality-based fairness gaps built on them.

Supported structural forms are linear-with-additive-noise and
threshold-of-linear (a linear-plus-noise expression compared against a
cutoff), which cover the bundled synthetic models and keep counterfactual
inference exact:

- abduction for linear nodes with additive noise inverts exactly
  (``u = x - g(parents)``);
- threshold nodes with finite-support noise get an exact posterior by
  enumerating the noise values consistent with the observation;
- threshold nodes with gaussian noise get a truncated-gaussian posterior
  (the observation pins the halfline the noise fell in).

So every node that abduction leaves uncertain is binary, and the
counterfactual world is a mixture of 2**|R| branches over those nodes R,
weighted by normal masses read on the lower tail (an interval above the
noise mean is mirrored below it) to keep deep upper tails precise.
``counterfactual`` and the gaps sum the branches exactly, whatever the
decision reads; only past ``_EXACT_CAP`` random nodes do they take Monte
Carlo with ``mc_budget`` draws, in blocks of ``_BLOCK_CELLS`` cells.
"""

from __future__ import annotations

import json
import math
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
_EXACT_CAP = 12  # random nodes past which 2**|R| branches give way to Monte Carlo
_BLOCK_CELLS = 1 << 16  # branches (or draws) x units per block and node array


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
                bad = (np.abs(u - snapped) > _TOL) | ((snapped != 0) & (snapped != 1))
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
            r = np.round(x)
            if (((r != 0) & (r != 1)) | (np.abs(x - r) > _TOL)).any():
                raise AbductionError(f"node {node!r}: threshold node observed non-binary")
            xb = r.astype(bool)
            g = a.linear_part(obs)
            gb = np.full(x.shape, g, dtype=float)
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


def _random_nodes(scm, posteriors, fixed):
    """The nodes left uncertain by ``posteriors``, in topological order.

    Each is binary: a threshold node with a truncated-gaussian posterior,
    or a node whose bernoulli noise has p1 in (0, 1) for some unit. Nodes
    in ``fixed`` are clamped and so not random.
    """
    def uncertain(kind, p, *_):
        return kind == "tnorm" or (kind == "bern01" and ((p > 0) & (p < 1)).any())

    return [n for n in scm.dag.nodes if n not in fixed and uncertain(*posteriors[n])]


def _lower_cdfs(lo, hi, nz):
    """(flip, fa, fb): the standardised CDF at the ends of (lo, hi), mirrored
    to -hi and -lo where lo is above the mean (flip). fb - fa is the mass,
    read on the lower tail so that it keeps its precision."""
    zlo, zhi = (lo - nz.mean) / nz.std, (hi - nz.mean) / nz.std
    flip = zlo > 0
    return flip, ndtr(np.where(flip, -zhi, zlo)), ndtr(np.where(flip, -zlo, zhi))


def _no_mass(empty, node, start):
    if empty.any():
        raise AbductionError(
            f"node {node!r}: truncated-gaussian posterior has no mass at unit "
            f"{start + int(np.flatnonzero(empty)[0])}"
        )


def _draw_posterior(post, nz, draws, rng, node=None, start=0):
    """Draw (draws, m) noise values from a block posterior.

    A truncated gaussian is drawn by inverse CDF on the tail ``_lower_cdfs``
    reads (mirrored draws are negated back), so draws stay inside their
    interval however deep in the tail. A zero mass raises ``AbductionError``
    naming ``node`` and the unit (``start`` is the block's first unit).
    """
    if post[0] == "point":
        return np.broadcast_to(post[1], (draws, len(post[1])))
    if post[0] == "bern01":
        return (rng.random((draws, len(post[1]))) < post[1]).astype(float)
    flip, fa, fb = _lower_cdfs(post[1], post[2], nz)
    _no_mass(~(fb > fa), node, start)
    q = fa + rng.random((draws, len(fa))) * (fb - fa)
    z = ndtri(np.clip(q, _Q_MIN, 1.0 - 1e-16))
    if flip.any():
        z = np.where(flip, -z, z)
    return nz.mean + nz.std * z


def _bit(j, r):
    """Random node ``j``'s value in each of 2**r branches: bit j of the branch."""
    return ((np.arange(1 << r) >> j) & 1).astype(float)[:, None]


def _branch_values(scm, posteriors, fixed, random, m):
    """Every node's value in every branch of the counterfactual world.

    Branch b sets random node j to bit j of b: a truncated-gaussian node
    takes the bit as its value, a bernoulli one as its noise. Nodes that
    depend on no random node have shape (1, m), the rest (2**len(random), m).
    """
    values = {}
    for node in scm.dag.nodes:
        post = posteriors[node]
        if node in fixed:
            values[node] = np.full((1, m), fixed[node], dtype=float)
        elif node in random:
            bit = _bit(random.index(node), len(random))
            v = bit if post[0] == "tnorm" else scm.assignments[node].evaluate(values, bit)
            values[node] = np.broadcast_to(v, (len(bit), m))
        else:
            values[node] = scm.assignments[node].evaluate(values, post[1][None, :])
    return values


def _branch_weights(scm, posteriors, values, random, m, start):
    """Probability of every branch per unit, shape (2**len(random), m).

    A bernoulli node's noise is 1 with probability p1; a truncated-gaussian
    node is 1 with probability mass((t, hi)) / mass((lo, hi)), t being its
    cutoff less its linear part in the branch, clipped to (lo, hi).
    """
    w = np.ones((1, m))
    for j, node in enumerate(random):
        post = posteriors[node]
        if post[0] == "tnorm":
            a, nz, (_, lo, hi) = scm.assignments[node], scm.noises[node], post
            _, fa, fb = _lower_cdfs(lo, hi, nz)
            _no_mass(~(fb > fa), node, start)
            _, ta, tb = _lower_cdfs(np.clip(a.cutoff - a.linear_part(values), lo, hi), hi, nz)
            p1 = (tb - ta) / (fb - fa)
        else:
            p1 = post[1]
        w = w * np.where(_bit(j, len(random)), p1, 1.0 - p1)
    return w


def _branch_sum(x):
    """Sum of the 2**k rows of ``x``, by halving rather than ``sum``, so each
    unit's sum is formed in one order whatever the number of units."""
    while len(x) > 1:
        x = x[: len(x) // 2] + x[len(x) // 2 :]
    return x[0]


def _block(posteriors, sl):
    return {node: (p[0],) + tuple(a[sl] for a in p[1:]) for node, p in posteriors.items()}


def _past_cap(scm, posteriors, interventions, mediators):
    """Whether some intervention leaves more than ``_EXACT_CAP`` random nodes."""
    fixed = [{*do, *mediators} for do in interventions]
    return max(len(_random_nodes(scm, posteriors, f)) for f in fixed) > _EXACT_CAP


def _mixture_means(scm, fns, obs, posteriors, interventions, mediators):
    """Exact means per unit of each of ``fns`` under each intervention.

    Each fn is called once per intervention and block of at most
    ``_BLOCK_CELLS`` branches x units, on the ``_branch_values`` arrays.
    One row returned is the mean as it stands, so a fn that reads no random
    node costs no weights; 2**|R| rows are summed with the branch weights.
    """
    n = len(next(iter(obs.values())))
    means = [[np.empty(n) for _ in fns] for _ in interventions]
    for do, row in zip(interventions, means):
        random = _random_nodes(scm, posteriors, {*do, *mediators})
        step = max(1, _BLOCK_CELLS >> len(random))
        for start in range(0, n, step):
            sl = slice(start, min(start + step, n))
            m = sl.stop - start
            block = posteriors if m == n else _block(posteriors, sl)
            fixed = {**do, **{med: obs[med][sl] for med in mediators}}
            values = _branch_values(scm, block, fixed, random, m)
            w = None
            for out, fn in zip(row, fns):
                x = np.asarray(fn(values), dtype=float)
                if x.ndim == 2 and len(x) > 1:
                    if w is None:
                        w = _branch_weights(scm, block, values, random, m, start)
                    x = _branch_sum(x * w)
                out[sl] = x[0] if x.ndim == 2 else x
    return means


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


def _mc_means(scm, fns, obs, posteriors, interventions, mediators, mc_budget, seed):
    """Monte Carlo means per unit of each of ``fns`` under each intervention:
    the fallback past ``_EXACT_CAP`` random nodes.

    Draws are shared across interventions and taken in blocks of at most
    ``_BLOCK_CELLS`` draws x units, so memory does not grow with
    ``mc_budget``. One generator feeds the blocks in order, so the values
    depend on the block sizes.
    """
    n = len(next(iter(obs.values())))
    draws = int(mc_budget)
    if draws < 1:
        raise ValueError("mc_budget must be at least 1")
    chunk = min(draws, _BLOCK_CELLS)
    step = max(1, _BLOCK_CELLS // chunk)
    sums = [[np.zeros(n) for _ in fns] for _ in interventions]
    rng = np.random.default_rng(seed)
    for start in range(0, n, step):
        sl = slice(start, min(start + step, n))
        block = _block(posteriors, sl)
        held = {med: obs[med][sl] for med in mediators}
        for done in range(0, draws, chunk):
            d = min(chunk, draws - done)
            noise = {
                node: _draw_posterior(block[node], scm.noises[node], d, rng, node, start)
                for node in scm.dag.nodes
            }
            for k, do in enumerate(interventions):
                values = _propagate(scm, noise, {**do, **held})
                for s, fn in zip(sums[k], fns):
                    x = np.asarray(fn(values), dtype=float)
                    s[sl] += np.broadcast_to(x, (d, sl.stop - start)).sum(axis=0)
    return [[s / draws for s in row] for row in sums]


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
    """Per-node counterfactual means; Monte Carlo results carry draws and stderr."""

    means: dict
    exact: bool
    draws: int
    stderr: dict | None = None


def counterfactual(scm, query, mc_budget=10000, seed=0):
    """Three-step counterfactual for one unit.

    Abduction conditions the noise on the observation, action applies the
    intervention (and clamps held mediators at factual values), prediction
    propagates the noise posterior through the modified model. Prediction
    is exact: the world is a mixture of the branches of the random nodes
    (see ``_mixture_means``), and each mean is a weighted sum over them.
    Past ``_EXACT_CAP`` random nodes it is Monte Carlo with ``mc_budget``
    draws, and the result says so (``exact`` false, a stderr per node).
    """
    missing = [n for n in scm.dag.nodes if n not in query.observed]
    if missing:
        raise ValueError(f"partial observation unsupported; missing nodes: {missing}")
    obs = {k: np.array([float(v)]) for k, v in query.observed.items()}
    posteriors = _abduct(scm, obs)
    nodes, do, held = scm.dag.nodes, [query.intervention], query.mediators_held
    reads = [lambda v, k=k: v[k] for k in nodes]
    if not _past_cap(scm, posteriors, do, held):
        (means,) = _mixture_means(scm, reads, obs, posteriors, do, held)
        return CounterfactualResult({k: float(x[0]) for k, x in zip(nodes, means)}, True, 1)
    squares = [lambda v, k=k: v[k] ** 2 for k in nodes]
    (moments,) = _mc_means(scm, reads + squares, obs, posteriors, do, held, mc_budget, seed)
    means = {k: float(x[0]) for k, x in zip(nodes, moments)}
    draws = int(mc_budget)
    stderr = None if draws == 1 else {
        k: math.sqrt(max(float(x2[0]) - means[k] ** 2, 0.0) / (draws - 1))
        for k, x2 in zip(nodes, moments[len(nodes):])
    }
    return CounterfactualResult(means, False, draws, stderr)


def _observations_from_dataset(scm, ds):
    cols = {c.name: c.values.astype(float) for c in ds.features}
    cols[ds.sensitive.name] = ds.sensitive.values.astype(float)
    if ds.target is not None:
        cols[ds.target_name] = ds.target.astype(float)
    missing = [n for n in scm.dag.nodes if n not in cols]
    if missing:
        raise ValueError(f"dataset does not observe nodes: {missing}")
    return {n: cols[n] for n in scm.dag.nodes}


def _decision_probs(scm, decision_fn, obs, interventions, mediators, mc_budget, seed):
    """P(decision = 1 | unit) under each intervention, exactly.

    Returns one array per intervention, aligned to the units in ``obs``.
    After abduction every uncertain node is binary (``_random_nodes``), so
    the counterfactual world is a mixture of 2**|R| branches, summed
    exactly by ``_mixture_means``: a decision that reads no random node is
    called on (1, m) arrays and costs no weights. Past ``_EXACT_CAP``
    random nodes the decision gets Monte Carlo with ``mc_budget`` draws.
    """
    posteriors = _abduct(scm, obs)
    args = (scm, [decision_fn], obs, posteriors, interventions, mediators)
    if _past_cap(scm, posteriors, interventions, mediators):
        return [row[0] for row in _mc_means(*args, mc_budget, seed)]
    return [row[0] for row in _mixture_means(*args)]


def _sensitive_or_error(scm):
    if scm.sensitive is None:
        raise ValueError("this fairness gap needs a designated sensitive node")
    return scm.sensitive


def _flip_probs(scm, decision_fn, ds, a, b, mediators, mc_budget, seed):
    """P(decision = 1) of every unit with sensitive value ``a``, flipped to
    ``a`` and to ``b``, with ``mediators`` held (see ``_decision_probs``)."""
    sens = _sensitive_or_error(scm)
    if sens in mediators:
        raise ValueError("the sensitive node cannot be a held mediator")
    obs = _observations_from_dataset(scm, ds)
    mask = np.abs(obs[sens] - float(a)) <= _TOL
    if not mask.any():
        raise ValueError(f"no units with sensitive value {a!r}")
    unit_obs = {k: v[mask] for k, v in obs.items()}
    flips = [{sens: float(a)}, {sens: float(b)}]
    return _decision_probs(scm, decision_fn, unit_obs, flips, mediators, mc_budget, seed)


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
    mediators = frozenset(fair_mediators)
    p_a, p_b = _flip_probs(scm, decision_fn, ds, a, b, mediators, mc_budget, seed)
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
    held = frozenset(scm.descendants(_sensitive_or_error(scm)))
    return pcff_gap(scm, decision_fn, ds, a, b, held, mc_budget, seed, return_per_unit)


def ecff_gap(scm, decision_fn, ds, a, b, mc_budget=10000, seed=0):
    """Expectation variant: difference of average acceptance, not average of
    per-unit differences — opposite-signed individual gaps may cancel."""
    p_a, p_b = _flip_probs(scm, decision_fn, ds, a, b, frozenset(), mc_budget, seed)
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
    prior = {}
    for node, nz in scm.noises.items():
        if nz.kind == GAUSSIAN:
            raise ValueError(
                f"node {node!r} has continuous noise; the conditional "
                "intervention gap is only computable under finite-support noise"
            )
        # the prior in the form of an abducted posterior, so that the
        # bernoulli noises are enumerated as the branches of the mixture
        prior[node] = ("bern01", np.array([nz.p])) if nz.kind == BERNOULLI else (
            "point", np.array([nz.value]))
    probs_out = []
    for v in (a, b):
        fixed = {sens: float(v)}
        random = _random_nodes(scm, prior, fixed)
        values = _branch_values(scm, prior, fixed, random, 1)
        weights = _branch_weights(scm, prior, values, random, 1, 0)[:, 0]
        match = np.ones(len(weights), dtype=bool)
        for node, want in condition.items():
            match &= np.abs(values[node][:, 0] - float(want)) <= _TOL
        denom = float(weights[match].sum())
        if denom == 0.0:
            raise ValueError(
                f"condition {condition} has zero probability under do({sens}={v})"
            )
        dec = decision_fn({n: x[match] if len(x) > 1 else x for n, x in values.items()})
        dec = np.broadcast_to(np.asarray(dec, dtype=float), (int(match.sum()), 1))[:, 0]
        probs_out.append(float((dec * weights[match]).sum() / denom))
    return abs(probs_out[0] - probs_out[1])
