"""Discrete entropy, mutual information and symmetric uncertainty.

Plug-in (maximum-likelihood) estimators over empirical joint counts, in
nats. The base cancels in symmetric uncertainty, which is the unit-free
dependence measure reported by the audit harness.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class JointTable:
    """Empirical joint counts of two discrete variables (g x h matrix)."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=float)
        if c.ndim != 2:
            raise ValueError("counts must be a 2-D matrix")
        if (c < 0).any():
            raise ValueError("counts must be nonnegative")
        if c.sum() <= 0:
            raise ValueError("joint table must contain at least one observation")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @classmethod
    def from_codes(cls, x, y):
        x = np.asarray(x, dtype=int)
        y = np.asarray(y, dtype=int)
        if x.shape != y.shape:
            raise ValueError("paired vectors must have equal length")
        if x.min(initial=0) < 0 or y.min(initial=0) < 0:
            raise ValueError("codes must be nonnegative")
        g, h = x.max() + 1, y.max() + 1
        return cls(np.bincount(x * h + y, minlength=g * h).reshape(g, h))

    @property
    def n(self):
        return float(self.counts.sum())

    def marginals(self):
        return self.counts.sum(axis=1), self.counts.sum(axis=0)


def entropy(counts):
    """Shannon entropy -sum p log p in nats, with 0 log 0 = 0."""
    c = np.asarray(counts, dtype=float).ravel()
    total = c.sum()
    if total <= 0:
        raise ValueError("entropy needs at least one observation")
    p = c[c > 0] / total
    return float(-(p * np.log(p)).sum())


def mutual_information(joint):
    """MI = sum p(x,y) log( p(x,y) / (p(x) p(y)) ); zero cells contribute 0."""
    p = joint.counts / joint.n
    px, py = p.sum(axis=1), p.sum(axis=0)
    outer = np.outer(px, py)
    mask = p > 0
    mi = float((p[mask] * np.log(p[mask] / outer[mask])).sum())
    return max(mi, 0.0)  # clip float dust; MI is nonnegative


def symmetric_uncertainty(joint):
    """U = 2 MI / (H(A) + H(B)), in [0, 1].

    Mutual information normalised by the mean marginal entropy. When both
    marginals are degenerate (zero entropy) U is defined as 0 and a
    degeneracy warning is issued.
    """
    ca, cb = joint.marginals()
    ha, hb = entropy(ca), entropy(cb)
    if ha + hb == 0.0:
        warnings.warn("both marginals are degenerate; U defined as 0", stacklevel=2)
        return 0.0
    return 2.0 * mutual_information(joint) / (ha + hb)


def symmetric_uncertainty_codes(x, y):
    """Symmetric uncertainty straight from two paired code vectors."""
    return symmetric_uncertainty(JointTable.from_codes(x, y))
