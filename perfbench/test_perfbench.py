"""Tests of the benchmark's own arithmetic: self time and the tail rule.

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
import threading
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, self_times, summarize  # noqa: E402
from stats import spread, tail  # noqa: E402


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    thread = [7, 7, 7, 7]
    assert list(self_times(start, end, parent, thread)) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_ignores_children_on_other_threads():
    # span 1 names span 0 as parent but ran on another thread: it overlaps
    # span 0 instead of nesting in it, so span 0 keeps its full duration
    start = [0.0, 1.0, 2.0]
    end = [10.0, 8.0, 4.0]
    parent = [-1, 0, 1]
    thread = [1, 2, 2]
    assert list(self_times(start, end, parent, thread)) == [10.0, 5.0, 2.0]


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    mods = {}
    for layer in ("baker", "pcfun", "haar", "transfer", "ruin", "observables",
                  "correlation", "verify", "cli"):
        mod = types.ModuleType(f"fakepkg.{layer}")
        sys.modules[mod.__name__] = mod
        setattr(pkg, layer, mod)
        mods[layer] = mod
    sys.modules["fakepkg"] = pkg

    def inner(x):
        time.sleep(0.02)
        return x

    def outer(x):
        time.sleep(0.01)
        return mods["pcfun"].inner(x) + 1

    for fn, layer in ((inner, "pcfun"), (outer, "transfer")):
        fn.__module__ = f"fakepkg.{layer}"
        setattr(mods[layer], fn.__name__, fn)
    mods["transfer"].inner = inner          # imported into another module
    pkg.outer = outer                       # re-exported by the package
    return pkg, mods


def test_tracer_nested_and_threaded_spans():
    pkg, mods = _fake_package()
    original = mods["transfer"].outer
    tracer = Tracer()
    tracer.install(pkg)
    try:
        assert mods["transfer"].inner is mods["pcfun"].inner is not original
        worker = threading.Thread(target=mods["pcfun"].inner, args=(0,))
        worker.start()
        assert pkg.outer(1) == 2
        worker.join(timeout=5)
        assert not worker.is_alive()
    finally:
        tracer.uninstall()
    assert mods["transfer"].outer is original
    got = summarize(tracer)
    assert got["pcfun.inner"]["calls"] == 2
    assert got["transfer.outer"]["calls"] == 1
    # outer's self time excludes its nested inner call, not the threaded one
    assert 0.01 <= got["transfer.outer"]["self_s"] < 0.02
    assert got["transfer.outer"]["total_s"] >= 0.03
    assert got["pcfun.inner"]["self_s"] >= 0.04


@pytest.mark.parametrize("n, percentile", [(11, 100 / 11), (20, 50.0),
                                           (40, 75.0), (100, 90.0)])
def test_tail_has_ten_jobs_beyond(n, percentile):
    times = [float(t) for t in range(n, 0, -1)]   # unsorted input
    value, pct, beyond = tail(times)
    assert beyond == 10
    assert sum(t > value for t in times) == 10
    assert value == n - 10
    assert pct == pytest.approx(percentile)


def test_tail_needs_more_than_ten_jobs():
    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_spread_is_interquartile_share_of_median():
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3)
