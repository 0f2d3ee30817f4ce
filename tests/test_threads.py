import sys
import threading

import numpy as np
import pytest

import fairaudit.synth_experiment as se
from fairaudit import threads
from fairaudit.modeling import MitigationSpec, score, train
from fairaudit.synth_experiment import SynthConfig, generate, run_experiment


class TestOrderedMap:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_results_in_item_order(self, monkeypatch, workers):
        monkeypatch.setattr(threads, "WORKERS", workers)
        assert threads.ordered_map(lambda i: i * i, range(20)) == [i * i for i in range(20)]
        assert threads.ordered_map(lambda i: i, []) == []

    def test_one_worker_or_one_item_runs_inline(self, monkeypatch):
        class NoThreads:
            def __init__(self, *args):
                raise AssertionError("a thread was started")

        monkeypatch.setattr(threads, "ThreadPoolExecutor", NoThreads)
        monkeypatch.setattr(threads, "WORKERS", 1)
        main = threading.main_thread()
        assert threads.ordered_map(lambda i: threading.current_thread() is main, range(3)) == [
            True, True, True
        ]
        monkeypatch.setattr(threads, "WORKERS", 8)
        assert threads.ordered_map(lambda i: threading.current_thread() is main, [0]) == [True]

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_first_failing_item_in_order_raises(self, monkeypatch, workers):
        monkeypatch.setattr(threads, "WORKERS", workers)
        late = threading.Event()

        def fn(i):
            if i == 1:
                # under threads, item 3 fails first in time
                late.wait(timeout=5 if workers > 1 else 0)
                raise ValueError("item 1")
            if i == 3:
                late.set()
                raise KeyError("item 3")
            return i

        with pytest.raises(ValueError, match="item 1"):
            threads.ordered_map(fn, range(5))

    def test_every_item_runs_when_one_fails(self, monkeypatch):
        monkeypatch.setattr(threads, "WORKERS", 4)
        ran, lock = [], threading.Lock()

        def fn(i):
            with lock:
                ran.append(i)
            if i == 0:
                raise ValueError("item 0")

        with pytest.raises(ValueError):
            threads.ordered_map(fn, range(6))
        assert sorted(ran) == list(range(6))


class FakeBlas:
    """A library's (get, set) thread-count pair, with a log of its sets."""

    def __init__(self, count):
        self.count, self.sets = count, []

    def pair(self):
        return self.get, self.set

    def get(self):
        return self.count

    def set(self, count):
        self.sets.append(count)
        self.count = count


def fake_guard(*counts):
    libs, finds = [FakeBlas(c) for c in counts], []

    def find():
        finds.append(1)
        return [lib.pair() for lib in libs]

    return threads._OneBlasThread(find), libs, finds


class TestOneBlasThread:
    def test_one_thread_inside_and_counts_back_after(self):
        guard, libs, finds = fake_guard(4, 2)
        with guard:
            assert [lib.count for lib in libs] == [1, 1]
        assert [lib.count for lib in libs] == [4, 2]
        with guard:
            pass
        assert finds == [1]  # the libraries are found once

    def test_counts_back_after_an_exception(self):
        guard, libs, _ = fake_guard(3)
        with pytest.raises(RuntimeError, match="inside"):
            with guard:
                raise RuntimeError("inside")
        assert libs[0].count == 3

    def test_nested_entries_restore_on_the_last_exit(self):
        guard, libs, _ = fake_guard(2)
        with guard:
            with pytest.raises(KeyError):
                with guard:
                    raise KeyError("inner")
            assert libs[0].count == 1
            with guard:
                pass
            assert libs[0].count == 1
        assert libs[0].count == 2
        assert libs[0].sets == [1, 2]

    def test_concurrent_entries(self):
        # 8 threads enter and leave together with fast switching; each sees
        # one BLAS thread, and the count comes back once all have left
        guard, libs, finds = fake_guard(6)
        seen, lock = [], threading.Lock()
        barrier = threading.Barrier(8, timeout=10)

        def enter():
            for _ in range(20):
                with guard:
                    barrier.wait()  # all 8 are inside
                    with lock:
                        seen.append(libs[0].count)
                    barrier.wait()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=enter) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert seen == [1] * 160
        assert libs[0].count == 6 and finds == [1]

    def test_no_library_found_changes_nothing(self, tmp_path):
        maps = tmp_path / "maps"
        maps.write_text("7f00-7f01 r-xp 00000000 00:00 0 /usr/lib/libm.so.6\n", encoding="utf-8")
        assert threads._mapped_openblas(str(maps)) == []
        assert threads._mapped_openblas(str(tmp_path / "missing")) == []
        guard, _, finds = fake_guard()
        before = real_counts()
        with guard:
            assert real_counts() == before
        assert real_counts() == before and finds == [1]


def real_counts():
    return [get() for get, _ in threads._mapped_openblas()]


@pytest.mark.skipif(not threads._mapped_openblas(), reason="no OpenBLAS in this process")
class TestRealOpenBlas:
    def test_guard_sets_and_restores(self):
        before = real_counts()
        with threads.one_blas_thread():
            assert real_counts() == [1] * len(before)
        assert real_counts() == before

    def test_counts_back_after_train_score_and_experiment(self):
        before = real_counts()
        ds = generate(SynthConfig(n=600, seed=2))
        model = train(ds, MitigationSpec())
        assert real_counts() == before
        score(model, ds)
        assert real_counts() == before
        run_experiment(seed=2, n=600, noise_interpretation="std")
        assert real_counts() == before

    def test_experiment_fits_on_one_blas_thread(self, monkeypatch):
        seen, real = [], se.evaluate_approach

        def spied(*args):
            seen.append(real_counts())
            return real(*args)

        monkeypatch.setattr(se, "evaluate_approach", spied)
        before = real_counts()
        run_experiment(seed=2, n=600, noise_interpretation="std")
        assert seen == [[1] * len(before)] * 10
        assert real_counts() == before

    def test_counts_back_after_a_failed_experiment(self):
        before = real_counts()
        ds = generate(SynthConfig(n=600, seed=2))
        one_class = ds.take(np.flatnonzero(ds.target == 0))
        with pytest.raises(ValueError, match="one class"):
            run_experiment([("only negatives", one_class, "X3")], seed=2)
        assert real_counts() == before
