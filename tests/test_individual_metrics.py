import math
import os
import sys
import threading
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from fairaudit import individual_metrics, threads
from fairaudit.data import (
    CATEGORICAL,
    CONTINUOUS,
    Dataset,
    FeatureColumn,
    PredictionSet,
    SensitiveAttribute,
)
from fairaudit.individual_metrics import (
    EUCLIDEAN_RAW,
    EUCLIDEAN_STANDARDIZED,
    USER_WEIGHTED,
    DistanceSpec,
    consistency,
    encode_for_distance,
    flip_assessment,
    lipschitz_audit,
    similarity_weighted_disparity,
)

RAW = DistanceSpec("euclidean_raw")


def one_d(xs, a, dec, scores=None):
    sa = SensitiveAttribute("g", np.array(a), ("g0", "g1"))
    col = FeatureColumn("x", CONTINUOUS, np.array(xs, dtype=float))
    ds = Dataset((col,), sa)
    return ds, PredictionSet(
        decisions=np.array(dec), scores=None if scores is None else np.array(scores)
    )


def brute_consistency(x, dec, k):
    """Brute-force kNN oracle with all-ties-included neighbourhoods."""
    n = len(x)
    total = 0.0
    for i in range(n):
        d = np.abs(x - x[i]).astype(float)
        d[i] = np.inf
        kth = np.sort(d)[k - 1]
        nb = d <= kth
        total += abs(dec[i] - dec[nb].mean())
    return 1.0 - total / n


class TestConsistency:
    def test_constant_predictor_is_one(self):
        ds, preds = one_d([0, 1, 5, 9], [0, 1, 0, 1], [1, 1, 1, 1])
        for k in (1, 2, 3):
            assert consistency(ds, preds, k) == 1.0

    def test_hand_computed_neighbours(self):
        # x = [0, 1, 10], dec = [1, 1, 0], k=1: neighbours are [x1],[x0],[x1]
        ds, preds = one_d([0, 1, 10], [0, 0, 1], [1, 1, 0])
        assert consistency(ds, preds, 1) == pytest.approx(2.0 / 3.0)

    def test_k_out_of_range(self):
        ds, preds = one_d([0, 1, 2], [0, 1, 0], [1, 0, 1])
        with pytest.raises(ValueError):
            consistency(ds, preds, 0)
        with pytest.raises(ValueError):
            consistency(ds, preds, 3)

    def test_leave_one_out_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(3, 11))
            x = rng.normal(size=n)
            dec = rng.integers(0, 2, n)
            a = rng.integers(0, 2, n)
            a[:2] = [0, 1]
            ds, preds = one_d(x, a, dec)
            k = int(rng.integers(1, n))
            xs = (x - x.mean()) / (x.std() if x.std() else 1.0)
            assert consistency(ds, preds, k) == pytest.approx(
                brute_consistency(xs, dec.astype(float), k), abs=1e-10
            )

    def test_scaling_invariance_standardized(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=20)
        dec = rng.integers(0, 2, 20)
        a = rng.integers(0, 2, 20)
        a[:2] = [0, 1]
        ds1, preds = one_d(x, a, dec)
        ds2, _ = one_d(x * 37.5, a, dec)
        assert consistency(ds1, preds, 3) == pytest.approx(
            consistency(ds2, preds, 3), abs=1e-12
        )


def brute_disparity(x, a, dec):
    """Double-loop oracle over all cross-group pairs."""
    i1 = np.flatnonzero(a == 1)
    i0 = np.flatnonzero(a == 0)
    total = 0.0
    for i in i1:
        for j in i0:
            total += np.exp(-abs(x[i] - x[j])) * abs(dec[i] - dec[j])
    return total / (len(i1) * len(i0))


class TestSimilarityWeightedDisparity:
    def test_single_pair_identical_features(self):
        ds, preds = one_d([3.0, 3.0], [1, 0], [1, 0])
        assert similarity_weighted_disparity(ds, preds, RAW) == pytest.approx(1.0)

    def test_constant_decisions_zero(self):
        for decision in (0, 1):
            ds, preds = one_d([0.0, 1.0, 2.0, 3.0], [1, 0, 1, 0], [decision] * 4)
            for block in (1, 1 << 21):
                with patch.object(individual_metrics, "_PAIR_BLOCK", block):
                    assert similarity_weighted_disparity(ds, preds, RAW) == 0.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(4, 21))
            a = rng.integers(0, 2, n)
            a[:2] = [0, 1]
            x = rng.normal(size=n)
            dec = rng.integers(0, 2, n)
            ds, preds = one_d(x, a, dec)
            assert similarity_weighted_disparity(ds, preds, RAW) == pytest.approx(
                brute_disparity(x, a, dec.astype(float)), abs=1e-10
            )

    def test_symmetric_under_group_swap(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=12)
        a = rng.integers(0, 2, 12)
        a[:2] = [0, 1]
        dec = rng.integers(0, 2, 12)
        ds1, preds = one_d(x, a, dec)
        ds2, _ = one_d(x, 1 - a, dec)
        assert similarity_weighted_disparity(ds1, preds, RAW) == pytest.approx(
            similarity_weighted_disparity(ds2, preds, RAW), abs=1e-12
        )

    def test_non_binary_attribute_rejected(self):
        sa = SensitiveAttribute("g", np.array([0, 1, 2]), ("a", "b", "c"))
        col = FeatureColumn("x", CONTINUOUS, np.zeros(3))
        ds = Dataset((col,), sa)
        with pytest.raises(ValueError, match="binary"):
            similarity_weighted_disparity(ds, PredictionSet(decisions=np.array([0, 1, 0])))


# The dense 512-row block implementations that the tree search and the
# differing-decision rectangles replaced, kept verbatim as references:
# bit-exact for consistency, within DISPARITY_REL for the disparity.
def _block_distances(x, rows):
    """Pairwise Euclidean distances of x[rows] against all of x.

    cdist computes exact coordinate differences, so identical rows get a
    distance of exactly zero; the all-ties-included neighbourhood rule
    depends on that.
    """
    return cdist(x[rows], x)


def block_consistency(ds, preds, k=5, dist=DistanceSpec()):
    if preds is None or preds.decisions is None:
        raise ValueError("consistency needs binary decisions")
    if preds.n != ds.n:
        raise ValueError(f"predictions cover {preds.n} rows, dataset has {ds.n}")
    n = ds.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must lie in [1, {n - 1}]")
    x = encode_for_distance(ds, dist)
    dec = preds.decisions.astype(float)
    total = 0.0
    for start in range(0, n, 512):
        rows = np.arange(start, min(start + 512, n))
        d = _block_distances(x, rows)
        d[np.arange(len(rows)), rows] = np.inf  # exclude self
        kth = np.partition(d, k - 1, axis=1)[:, k - 1]
        nb = d <= kth[:, None]
        means = (nb * dec).sum(axis=1) / nb.sum(axis=1)
        total += float(np.abs(dec[rows] - means).sum())
    return 1.0 - total / n


def block_similarity_weighted_disparity(ds, preds, dist=DistanceSpec()):
    if preds is None or preds.decisions is None:
        raise ValueError("similarity_weighted_disparity needs binary decisions")
    if preds.n != ds.n:
        raise ValueError(f"predictions cover {preds.n} rows, dataset has {ds.n}")
    if ds.sensitive.n_groups != 2:
        raise ValueError("binary sensitive attribute required; intersect/recode first")
    a = ds.sensitive.values
    i1 = np.flatnonzero(a == 1)
    i0 = np.flatnonzero(a == 0)
    if len(i1) == 0 or len(i0) == 0:
        raise ValueError("both groups must be nonempty")
    x = encode_for_distance(ds, dist)
    dec = preds.decisions.astype(float)
    total = 0.0
    for start in range(0, len(i1), 512):
        rows = i1[start : start + 512]
        d = cdist(x[rows], x[i0])
        dy = np.abs(dec[rows][:, None] - dec[i0][None, :])
        total += float((np.exp(-d) * dy).sum())
    return total / (len(i1) * len(i0))


@st.composite
def tie_heavy_audits(draw):
    """Mixed categorical and rounded-continuous features with many exact
    duplicates, under every distance kind; n above 512 covers the blocked sums."""
    n = draw(st.one_of(st.integers(2, 40), st.integers(513, 700)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for j in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            levels = draw(st.integers(1, 4))
            cols.append(FeatureColumn(f"c{j}", CATEGORICAL, rng.integers(0, levels, n)))
        else:
            digits = draw(st.integers(0, 2))
            cols.append(FeatureColumn(f"x{j}", CONTINUOUS, np.round(rng.normal(size=n), digits)))
    a = rng.integers(0, 2, n)
    a[:2] = [0, 1]
    ds = Dataset(tuple(cols), SensitiveAttribute("g", a, ("g0", "g1")))
    dec = (rng.random(n) < draw(st.sampled_from([0.1, 0.5, 0.9]))).astype(int)
    kind = draw(st.sampled_from(["euclidean_standardized", "euclidean_raw", "user_weighted"]))
    if kind == "user_weighted":
        w = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=len(cols), max_size=len(cols)))
        w[draw(st.integers(0, len(cols) - 1))] = 1.0
        spec = DistanceSpec(kind, weights=tuple(w))
    else:
        spec = DistanceSpec(kind)
    k = draw(st.integers(1, min(n - 1, 8)))
    return ds, PredictionSet(decisions=dec), spec, k


# Relative bound between the disparity and a reference that sums the same
# terms in another order. The terms agree to an ulp or two (cdist against
# broadcasting), and a pairwise row sum of at most 700 positive terms is
# off by well under 10 ulps, so 1e-14 (about 45 ulps) holds with margin.
DISPARITY_REL = 1e-14


def exact_disparity(ds, preds, dist):
    """Every cross-group term by broadcasting, summed exactly by math.fsum
    and divided once: the correctly rounded mean up to the terms' own ulps."""
    x = encode_for_distance(ds, dist)
    in1 = ds.sensitive.values == 1
    dec = preds.decisions.astype(float)
    d = np.sqrt(((x[in1][:, None, :] - x[~in1][None, :, :]) ** 2).sum(axis=2))
    terms = np.exp(-d) * np.abs(dec[in1][:, None] - dec[~in1][None, :])
    return math.fsum(terms.ravel()) / terms.size


def assert_disparity_near(got, want):
    assert abs(got - want) <= DISPARITY_REL * want, (got, want)


class TestBitExactAgainstBlockScan:
    @settings(max_examples=150, deadline=None)
    @given(tie_heavy_audits())
    def test_consistency(self, case):
        ds, preds, spec, k = case
        assert consistency(ds, preds, k, spec) == block_consistency(ds, preds, k, spec)

    @settings(max_examples=150, deadline=None)
    @given(tie_heavy_audits())
    def test_similarity_weighted_disparity(self, case):
        # The block scan's bits depend on its block size and row order, which
        # the disparity no longer shares; it stays a reference within a bound.
        ds, preds, spec, _ = case
        assert_disparity_near(
            similarity_weighted_disparity(ds, preds, spec),
            block_similarity_weighted_disparity(ds, preds, spec),
        )


class TestDisparityIsOrderFree:
    @settings(max_examples=150, deadline=None)
    @given(tie_heavy_audits())
    def test_matches_exact_sum(self, case):
        ds, preds, spec, _ = case
        assert_disparity_near(
            similarity_weighted_disparity(ds, preds, spec), exact_disparity(ds, preds, spec)
        )

    @settings(max_examples=100, deadline=None)
    @given(tie_heavy_audits(), st.integers(0, 2**32 - 1))
    def test_bit_identical_under_row_order_and_block_size(self, case, seed):
        ds, preds, spec, _ = case
        want = similarity_weighted_disparity(ds, preds, spec)
        for block in (1, 1 << 10):  # 1: one group-1 row per block
            with patch.object(individual_metrics, "_PAIR_BLOCK", block):
                assert similarity_weighted_disparity(ds, preds, spec) == want
        # Raw distances: the standardised encodings take column means in row
        # order, so a permutation can move their encoded rows by an ulp.
        perm = np.random.default_rng(seed).permutation(ds.n)
        assert similarity_weighted_disparity(
            ds.take(perm), preds.take(perm), RAW
        ) == similarity_weighted_disparity(ds, preds, RAW)

    @pytest.mark.parametrize("group", [0, 1])
    def test_class_missing_from_one_group(self, group):
        # One rectangle has no rows or no columns and adds exactly nothing.
        rng = np.random.default_rng(5)
        a = np.array([0, 1] * 15)
        dec = rng.integers(0, 2, 30)
        dec[a == group] = 1
        ds, preds = one_d(rng.normal(size=30), a, dec)
        got = similarity_weighted_disparity(ds, preds)
        assert got > 0.0
        assert_disparity_near(got, exact_disparity(ds, preds, DistanceSpec()))

    def test_no_features(self):
        # Every distance is 0, so the value is the share of differing pairs.
        sa = SensitiveAttribute("g", np.array([0, 1, 0, 1, 1]), ("g0", "g1"))
        preds = PredictionSet(decisions=np.array([1, 0, 0, 1, 1]))
        assert similarity_weighted_disparity(Dataset((), sa), preds) == 0.5

    def test_memory_is_one_block(self):
        # 15,000 rows, 4 columns: one block of pair terms is 4 MB. Evaluating
        # exp(-d) out of place holds three blocks (13.6 MB peak), and the
        # zero-filled 512-row scan this replaced peaked at 63 MB.
        rng = np.random.default_rng(0)
        n = 15000
        cols = tuple(FeatureColumn(f"x{j}", CONTINUOUS, rng.normal(size=n)) for j in range(4))
        ds = Dataset(cols, SensitiveAttribute("g", rng.integers(0, 2, n), ("g0", "g1")))
        preds = PredictionSet(decisions=rng.integers(0, 2, n))
        tracemalloc.start()
        try:
            similarity_weighted_disparity(ds, preds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, f"peak {peak / 1e6:.1f} MB"


class TestDistinctRows:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 30),
        st.integers(0, 4),
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.0, 5e-324]), min_size=1, max_size=4),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_np_unique(self, n, cols, pool, seed):
        # A small pool repeats rows and mixes -0.0 with 0.0 in one column.
        x = np.random.default_rng(seed).choice(pool, size=(n, cols))
        uniq, inv, cnt = individual_metrics._distinct_rows(x)
        want_uniq, want_inv, want_cnt = np.unique(
            x, axis=0, return_inverse=True, return_counts=True
        )
        assert uniq.shape == want_uniq.shape
        assert (uniq == want_uniq).all()  # -0.0 == 0.0: either may stand for both
        assert inv.tolist() == want_inv.reshape(-1).tolist()
        assert cnt.tolist() == want_cnt.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
    def test_lex_order_is_lexsort(self, n, cols, distinct_first, seed):
        # A first column without ties takes the one-column sort.
        rng = np.random.default_rng(seed)
        x = rng.choice([0.0, -0.0, 1.0, 2.0], size=(n, cols))
        if distinct_first:
            x[:, 0] = rng.permutation(n) - n / 2
        want = np.lexsort(x.T[::-1])
        assert individual_metrics._lex_order(x).tolist() == want.tolist()

    def test_signed_zeros_are_one_row(self):
        x = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -1.0]])
        uniq, inv, cnt = individual_metrics._distinct_rows(x)
        assert len(uniq) == 2 and inv.tolist() == [1, 1, 0] and cnt.tolist() == [1, 2]


class TestWorkerCount:
    @settings(max_examples=60, deadline=None)
    @given(tie_heavy_audits())
    def test_same_bits_for_any_worker_count(self, case):
        # A block of 256 pair elements splits even 2-row inputs over threads.
        ds, preds, spec, k = case
        want = (consistency(ds, preds, k, spec), similarity_weighted_disparity(ds, preds, spec))
        for workers in (1, 2, 3, 8):
            for block in (1 << 8, 1 << 21):
                with patch.object(threads, "WORKERS", workers), \
                        patch.object(individual_metrics, "_PAIR_BLOCK", block):
                    got = (
                        consistency(ds, preds, k, spec),
                        similarity_weighted_disparity(ds, preds, spec),
                    )
                assert got == want, (workers, block)

    @pytest.mark.parametrize("workers", [3, 8])
    def test_threads_share_one_block(self, workers):
        # The threads of one rectangle hold at most one block between them:
        # 3 threads a third each; 8 would get less than one right-hand row
        # (about 75 elements) each, so only 6 run.
        rng = np.random.default_rng(4)
        ds, preds = one_d(rng.normal(size=300), rng.integers(0, 2, 300), rng.integers(0, 2, 300))
        calls, real = [], individual_metrics._block_row_sums

        def spy(left, right, step):
            calls.append((right.size, step * right.size))
            return real(left, right, step)

        want = similarity_weighted_disparity(ds, preds)
        with patch.object(threads, "WORKERS", workers), \
                patch.object(individual_metrics, "_PAIR_BLOCK", 1 << 9), \
                patch.object(individual_metrics, "_block_row_sums", spy):
            assert similarity_weighted_disparity(ds, preds) == want
        for size in {size for size, _ in calls}:  # one rectangle
            held = [elements for s, elements in calls if s == size]
            assert len(held) == min(workers, (1 << 9) // size) and sum(held) <= 1 << 9

    def test_small_input_starts_no_thread(self):
        class NoThreads:
            def __init__(self, *args):
                raise AssertionError("a thread was started")

        rng = np.random.default_rng(5)
        ds, preds = one_d(rng.normal(size=200), rng.integers(0, 2, 200), rng.integers(0, 2, 200))
        want = similarity_weighted_disparity(ds, preds)
        for workers in (1, 8):  # 8: each chunk would hold less than one block
            with patch.object(threads, "WORKERS", workers), \
                    patch.object(threads, "ThreadPoolExecutor", NoThreads):
                assert similarity_weighted_disparity(ds, preds) == want

    def test_more_threads_than_cpus_with_fast_switching(self):
        # Threads share only read-only rows; a lost or misplaced row sum
        # would change the bits.
        rng = np.random.default_rng(7)
        ds, preds = one_d(rng.normal(size=400), rng.integers(0, 2, 400), rng.integers(0, 2, 400))
        want = similarity_weighted_disparity(ds, preds)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with patch.object(threads, "WORKERS", 16), \
                    patch.object(individual_metrics, "_PAIR_BLOCK", 1 << 10):
                for _ in range(5):
                    assert similarity_weighted_disparity(ds, preds) == want
        finally:
            sys.setswitchinterval(interval)

    def test_worker_error_reaches_caller(self):
        real = individual_metrics._block_row_sums

        def fails_off_main_thread(left, right, step):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("no room for the block")
            return real(left, right, step)

        rng = np.random.default_rng(6)
        ds, preds = one_d(rng.normal(size=100), rng.integers(0, 2, 100), rng.integers(0, 2, 100))
        with patch.object(threads, "WORKERS", 2), \
                patch.object(individual_metrics, "_PAIR_BLOCK", 1 << 6), \
                patch.object(individual_metrics, "_block_row_sums", fails_off_main_thread):
            with pytest.raises(MemoryError, match="no room for the block"):
                similarity_weighted_disparity(ds, preds)

    def test_worker_count_is_the_usable_cpus(self):
        assert threads.WORKERS == threads._usable_cpus() >= 1
        if hasattr(os, "sched_getaffinity") and not hasattr(os, "process_cpu_count"):
            assert threads.WORKERS == len(os.sched_getaffinity(0))


class TestFlipAssessment:
    def test_model_ignoring_attribute(self):
        ds, _ = one_d([1.0, 2.0, 3.0, 4.0], [0, 1, 0, 1], [0, 0, 0, 0])
        rep = flip_assessment(ds, lambda d: (d.feature("x").values > 2.5).astype(int))
        assert rep.flip_consistency == 1.0
        assert rep.flip_rate == 0.0

    def test_model_equal_to_attribute(self):
        ds, _ = one_d([1.0, 2.0, 3.0], [0, 1, 0], [0, 0, 0])
        rep = flip_assessment(ds, lambda d: d.sensitive.values.copy())
        assert rep.flip_consistency == 0.0
        assert rep.flip_rate == 1.0

    def test_identity_flip_map(self):
        ds, _ = one_d([1.0, 2.0, 3.0], [0, 1, 0], [0, 0, 0])
        rep = flip_assessment(ds, lambda d: d.sensitive.values.copy(), flip_map=[0, 1])
        assert rep.flip_rate == 0.0

    def test_involution_returns_to_original(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=10)
        a = rng.integers(0, 2, 10)
        a[:2] = [0, 1]
        ds, _ = one_d(x, a, np.zeros(10, dtype=int))

        def model(d):
            return ((d.feature("x").values + d.sensitive.values) > 0.5).astype(int)

        flip = np.array([1, 0])
        once = Dataset(
            ds.features,
            SensitiveAttribute("g", flip[ds.sensitive.values], ("g0", "g1")),
            ds.target,
        )
        twice = Dataset(
            once.features,
            SensitiveAttribute("g", flip[once.sensitive.values], ("g0", "g1")),
            once.target,
        )
        assert np.array_equal(model(twice), model(ds))

    def test_bad_flip_map_rejected(self):
        ds, _ = one_d([1.0, 2.0], [0, 1], [0, 0])
        with pytest.raises(ValueError, match="permutation"):
            flip_assessment(ds, lambda d: d.sensitive.values, flip_map=[0, 0])

    def test_multigroup_needs_map(self):
        sa = SensitiveAttribute("g", np.array([0, 1, 2]), ("a", "b", "c"))
        ds = Dataset((), sa)
        with pytest.raises(ValueError, match="flip_map"):
            flip_assessment(ds, lambda d: np.zeros(3, dtype=int))
        rep = flip_assessment(ds, lambda d: np.zeros(3, dtype=int), flip_map=[2, 0, 1])
        assert rep.flip_consistency == 1.0


class TestLipschitzAudit:
    def test_constant_predictor_no_violations(self):
        rng = np.random.default_rng(5)
        ds, preds = one_d(rng.normal(size=15), rng.integers(0, 2, 15), [1] * 15)
        rep = lipschitz_audit(ds, preds, RAW, constant=0.001, max_pairs=10**6)
        assert rep.violations == 0
        assert rep.max_ratio == 0.0

    def test_zero_distance_witness(self):
        # identical features and group, different decisions
        ds, preds = one_d([2.0, 2.0, 5.0], [1, 1, 0], [1, 0, 0])
        rep = lipschitz_audit(ds, preds, RAW, constant=1.0, max_pairs=100)
        assert (0, 1) in rep.zero_distance_witnesses

    def test_all_zero_distances_error(self):
        # same features, same group: the only pair has distance zero
        _, preds = one_d([1.0, 1.0], [0, 0], [1, 0])
        same = Dataset(
            (FeatureColumn("x", CONTINUOUS, np.array([1.0, 1.0])),),
            SensitiveAttribute("g", np.array([0, 0]), ("a", "b")),
        )
        with pytest.raises(ValueError, match="zero"):
            lipschitz_audit(same, preds, RAW, max_pairs=10)

    def test_exhaustive_matches_double_loop(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(5, 31))
            x = rng.normal(size=n)
            a = rng.integers(0, 2, n)
            a[:2] = [0, 1]
            dec = rng.integers(0, 2, n)
            ds, preds = one_d(x, a, dec)
            rep = lipschitz_audit(ds, preds, RAW, constant=0.8, max_pairs=n * n)
            # independent double loop over the one-hot encoded space
            enc = encode_for_distance(ds, RAW, include_sensitive=True)
            viol = examined = 0
            maxr = 0.0
            for i in range(n):
                for j in range(i + 1, n):
                    dx = np.sqrt(((enc[i] - enc[j]) ** 2).sum())
                    dy = abs(float(dec[i]) - float(dec[j]))
                    if dx == 0:
                        continue
                    examined += 1
                    maxr = max(maxr, dy / dx)
                    if dy >= 0.8 * dx:
                        viol += 1
            assert rep.pairs_examined == examined
            assert rep.violations == viol
            assert rep.max_ratio == pytest.approx(maxr, abs=1e-12)

    def test_scores_used_when_no_decisions(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=10)
        a = rng.integers(0, 2, 10)
        a[:2] = [0, 1]
        ds, _ = one_d(x, a, np.zeros(10, dtype=int))
        preds = PredictionSet(scores=rng.random(10))
        rep = lipschitz_audit(ds, preds, RAW, max_pairs=1000)
        assert rep.pairs_examined > 0

    def test_bad_constant(self):
        ds, preds = one_d([0.0, 1.0], [0, 1], [0, 1])
        with pytest.raises(ValueError):
            lipschitz_audit(ds, preds, RAW, constant=0.0)

    @pytest.mark.parametrize("constant", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_constant_rejected(self, constant):
        # nan passed `constant <= 0` and surfaced later as a JSON error
        ds, preds = one_d([0.0, 1.0, 2.0], [0, 1, 0], [0, 1, 1])
        with pytest.raises(ValueError, match="must be positive and finite"):
            lipschitz_audit(ds, preds, RAW, constant=constant)

    @pytest.mark.parametrize("max_pairs", [0, -3])
    def test_max_pairs_below_one_rejected(self, max_pairs):
        # 0 read "all sampled pairwise distances are zero"; -3 a numpy error
        ds, preds = one_d([0.0, 1.0, 2.0], [0, 1, 0], [0, 1, 1])
        with pytest.raises(ValueError, match="max_pairs must be at least 1, got"):
            lipschitz_audit(ds, preds, RAW, max_pairs=max_pairs)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("no predictions", "lipschitz_audit needs decisions or scores"),
            ("short predictions", "predictions cover 2 rows, dataset has 3"),
            ("one row", "need at least two rows"),
        ],
    )
    def test_inputs_checked(self, case, message):
        ds, preds = one_d([0.0, 1.0, 2.0], [0, 1, 0], [0, 1, 1])
        if case == "no predictions":
            preds = None
        elif case == "short predictions":
            preds = preds.take([0, 1])
        else:
            ds, preds = ds.take([0]), preds.take([0])
        with pytest.raises(ValueError) as exc:
            lipschitz_audit(ds, preds, RAW)
        assert str(exc.value) == message

    def test_one_pair_is_enough(self):
        ds, preds = one_d([0.0, 1.0, 2.0], [0, 1, 0], [0, 1, 1])
        assert lipschitz_audit(ds, preds, RAW, max_pairs=1).pairs_examined == 1


class TestEncoding:
    def test_one_hot_and_weights(self):
        sa = SensitiveAttribute("g", np.array([0, 1, 0]), ("a", "b"))
        cat = FeatureColumn("c", CATEGORICAL, np.array([0, 1, 2]), ("u", "v", "w"))
        num = FeatureColumn("x", CONTINUOUS, np.array([1.0, 2.0, 3.0]))
        ds = Dataset((cat, num), sa)
        spec = DistanceSpec("user_weighted", weights=(1.0, 0.0))
        enc = encode_for_distance(ds, spec)
        # zero weight kills the continuous column entirely
        assert np.allclose(enc[:, -1], 0.0)

    def test_weight_count_checked(self):
        sa = SensitiveAttribute("g", np.array([0, 1]), ("a", "b"))
        num = FeatureColumn("x", CONTINUOUS, np.array([1.0, 2.0]))
        ds = Dataset((num,), sa)
        spec = DistanceSpec("user_weighted", weights=(1.0, 2.0))
        with pytest.raises(ValueError, match="weights"):
            encode_for_distance(ds, spec)

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            DistanceSpec("user_weighted", weights=(0.0, 0.0))
        with pytest.raises(ValueError):
            DistanceSpec("user_weighted", weights=(-1.0, 1.0))


# ---------------------------------------------------------------------------
# Distance encoding against the one-hot/standardise loop it replaced
# ---------------------------------------------------------------------------


def _old_encode_for_distance(ds, spec, include_sensitive=False):
    """Verbatim copy of the earlier implementation (renamed)."""
    if spec.kind == USER_WEIGHTED and len(spec.weights) != len(ds.features):
        raise ValueError(
            f"got {len(spec.weights)} weights for {len(ds.features)} features"
        )
    blocks, block_weights = [], []
    for j, col in enumerate(ds.features):
        if col.kind == CATEGORICAL:
            m = int(col.values.max(initial=0)) + 1
            block = np.zeros((ds.n, m))
            if ds.n:
                block[np.arange(ds.n), col.values] = 1.0
        else:
            block = col.values.reshape(-1, 1).astype(float)
        blocks.append(block)
        w = spec.weights[j] if spec.kind == USER_WEIGHTED else 1.0
        block_weights.extend([w] * block.shape[1])
    if include_sensitive:
        g = ds.sensitive.n_groups
        block = np.zeros((ds.n, max(g, 1)))
        if ds.n:
            block[np.arange(ds.n), ds.sensitive.values] = 1.0
        blocks.append(block)
        block_weights.extend([1.0] * block.shape[1])
    x = np.hstack(blocks) if blocks else np.zeros((ds.n, 0))
    if spec.kind in (EUCLIDEAN_STANDARDIZED, USER_WEIGHTED) and ds.n:
        mu = x.mean(axis=0)
        sd = x.std(axis=0)
        sd[sd == 0] = 1.0
        x = (x - mu) / sd
    return x * np.asarray(block_weights)


@st.composite
def _encoding_cases(draw):
    """Datasets whose categorical codes skip values and whose attribute has
    groups that never occur, under every distance kind."""
    n = draw(st.integers(0, 12))
    n_groups = draw(st.integers(2, 4))
    present = draw(st.lists(st.integers(0, n_groups - 1), min_size=1, unique=True))
    groups = np.array(draw(st.lists(st.sampled_from(present), min_size=n, max_size=n)), dtype=int)
    cols = []
    for j in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            codes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True))
            values = draw(st.lists(st.sampled_from(codes), min_size=n, max_size=n))
            cols.append(FeatureColumn(f"c{j}", CATEGORICAL, np.array(values, dtype=int)))
        else:
            values = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
            cols.append(FeatureColumn(f"x{j}", CONTINUOUS, np.array(values, dtype=float)))
    kinds = (EUCLIDEAN_STANDARDIZED, EUCLIDEAN_RAW) + ((USER_WEIGHTED,) if cols else ())
    kind, weights = draw(st.sampled_from(kinds)), None
    if kind == USER_WEIGHTED:
        weights = draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 3.0)),
                                min_size=len(cols), max_size=len(cols)))
        weights[draw(st.integers(0, len(cols) - 1))] = 2.0
    sa = SensitiveAttribute("g", groups, tuple(f"g{i}" for i in range(n_groups)))
    return Dataset(tuple(cols), sa), DistanceSpec(kind, weights), draw(st.booleans())


@pytest.mark.filterwarnings("ignore:dataset has 0 rows")
@settings(max_examples=300, deadline=None)
@given(_encoding_cases())
def test_encoding_matches_the_old_loop(case):
    ds, spec, include_sensitive = case
    new = encode_for_distance(ds, spec, include_sensitive)
    old = _old_encode_for_distance(ds, spec, include_sensitive)
    assert new.dtype == old.dtype and np.array_equal(new, old)
