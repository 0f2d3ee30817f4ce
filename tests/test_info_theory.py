import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit.info_theory import (
    JointTable,
    entropy,
    mutual_information,
    symmetric_uncertainty,
    symmetric_uncertainty_codes,
)

LN2 = 0.6931471805599453


def brute_mi(counts):
    """Independent oracle: direct summation over cells."""
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    p = counts / n
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    mi = 0.0
    for i in range(p.shape[0]):
        for j in range(p.shape[1]):
            if p[i, j] > 0:
                mi += p[i, j] * math.log(p[i, j] / (px[i] * py[j]))
    return mi


def brute_entropy(counts):
    counts = np.asarray(counts, dtype=float)
    p = counts / counts.sum()
    return -sum(q * math.log(q) for q in p.ravel() if q > 0)


class TestEntropy:
    def test_fair_coin(self):
        assert entropy([1, 1]) == pytest.approx(LN2, abs=1e-12)

    def test_deterministic(self):
        assert entropy([5, 0]) == 0.0

    def test_three_quarters(self):
        # oracle value: -0.75 ln 0.75 - 0.25 ln 0.25
        assert entropy([3, 1]) == pytest.approx(0.5623351446188083, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            entropy([0, 0])


class TestMutualInformation:
    def test_independent_product_table(self):
        assert mutual_information(JointTable([[4, 4], [4, 4]])) == 0.0

    def test_identical_uniform(self):
        assert mutual_information(JointTable([[5, 0], [0, 5]])) == pytest.approx(
            LN2, abs=1e-12
        )

    def test_frozen_four_cell_value(self):
        # brute-force summation over the 4 cells of [[0.4,0.1],[0.1,0.4]]
        j = JointTable([[4, 1], [1, 4]])
        assert mutual_information(j) == pytest.approx(0.19274475702175753, abs=1e-12)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            shape = rng.integers(2, 5, size=2)
            counts = rng.integers(0, 20, size=shape)
            if counts.sum() == 0:
                counts[0, 0] = 1
            j = JointTable(counts)
            assert mutual_information(j) == pytest.approx(
                max(brute_mi(counts), 0.0), abs=1e-10
            )


class TestSymmetricUncertainty:
    def test_identity_uniform(self):
        assert symmetric_uncertainty(JointTable([[5, 0], [0, 5]])) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_independent(self):
        assert symmetric_uncertainty(JointTable([[4, 4], [4, 4]])) == 0.0

    def test_frozen_value(self):
        j = JointTable([[4, 1], [1, 4]])
        assert symmetric_uncertainty(j) == pytest.approx(0.2780719051126378, abs=1e-12)

    def test_degenerate_flagged(self):
        with pytest.warns(UserWarning, match="degenerate"):
            assert symmetric_uncertainty(JointTable([[7]])) == 0.0

    def test_codes_equal_table_path(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 3, 200)
        y = rng.integers(0, 2, 200)
        j = JointTable.from_codes(x, y)
        assert symmetric_uncertainty_codes(x, y) == symmetric_uncertainty(j)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=4),
        min_size=2,
        max_size=4,
    ).filter(
        lambda rows: len({len(r) for r in rows}) == 1 and sum(map(sum, rows)) > 0
    )
)
def test_information_invariants(rows):
    counts = np.array(rows, dtype=float)
    j = JointTable(counts)
    jt = JointTable(counts.T)
    mi = mutual_information(j)
    # symmetry and bounds
    assert mi == pytest.approx(mutual_information(jt), abs=1e-12)
    ca, cb = j.marginals()
    assert -1e-12 <= mi <= min(entropy(ca), entropy(cb)) + 1e-12
    if entropy(ca) + entropy(cb) > 0:
        u = symmetric_uncertainty(j)
        assert -1e-12 <= u <= 1.0 + 1e-12
        assert u == pytest.approx(symmetric_uncertainty(jt), abs=1e-12)


def test_relabeling_invariance():
    rng = np.random.default_rng(2)
    x = rng.integers(0, 3, 300)
    y = rng.integers(0, 2, 300)
    u1 = symmetric_uncertainty_codes(x, y)
    u2 = symmetric_uncertainty_codes(2 - x, 1 - y)  # permute both code sets
    assert u1 == pytest.approx(u2, abs=1e-12)


# ``JointTable.from_codes`` as it was written with ``np.add.at``, kept
# verbatim as the reference for the flat-key ``np.bincount`` (only the
# name differs, and ``cls`` is spelled ``JointTable``).


def _old_from_codes(x, y):
    x = np.asarray(x, dtype=int)
    y = np.asarray(y, dtype=int)
    if x.shape != y.shape:
        raise ValueError("paired vectors must have equal length")
    g, h = x.max() + 1, y.max() + 1
    counts = np.zeros((g, h))
    np.add.at(counts, (x, y), 1.0)
    return JointTable(counts)


class TestFromCodesAgainstAddAt:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 4)), min_size=1, max_size=80))
    def test_counts_equal(self, pairs):
        x, y = np.array(pairs).T
        new, old = JointTable.from_codes(x, y), _old_from_codes(x, y)
        assert new.counts.dtype == old.counts.dtype
        assert new.counts.shape == old.counts.shape
        assert np.array_equal(new.counts, old.counts)

    @pytest.mark.parametrize("x, y", [([0, 1], [1, -1]), ([-1, 0], [0, 1])])
    def test_negative_codes_rejected(self, x, y):
        # np.add.at wrapped -1 round to the last row or column
        with pytest.raises(ValueError, match="codes must be nonnegative"):
            JointTable.from_codes(x, y)
