"""Arithmetic of the benchmark: quartiles, host-speed correction, self
time and the pair rule.

Run with ``python3 -m pytest bench/tests``.
"""

import statistics
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from compare import compare
from run import REFERENCE_CAL_S, host_corrected
from spans import Recorder, Span, attribute
from stats import pair_verdict, quartiles, spread


def span(sid, name, start, end, parent=0, thread=1):
    return Span(sid, name, start, end, parent, 1, thread)


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------

def test_quartiles_match_statistics_quantiles():
    values = list(range(1, 11))
    assert quartiles(values) == (2.75, 5.5, 8.25)
    assert list(quartiles(values)) == statistics.quantiles(values, n=4)


def test_spread_is_interquartile_distance_over_median():
    assert spread(range(1, 11)) == pytest.approx((8.25 - 2.75) / 5.5)
    assert spread([4.0, 4.0, 4.0]) == 0.0


def test_quartiles_of_one_value():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    with pytest.raises(ValueError):
        quartiles([])


# ---------------------------------------------------------------------------
# host-speed correction
# ---------------------------------------------------------------------------

def test_correction_scales_by_the_mean_calibration():
    ref = REFERENCE_CAL_S
    assert host_corrected(1.0, ref, ref) == pytest.approx(1.0)
    # a host running at half speed doubles both the time and the calibration
    assert host_corrected(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert host_corrected(1.5, ref, 2 * ref) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_nested_self_time_adds_up_to_wall():
    spans = [span(1, "a", 0, 10), span(2, "b", 2, 5, parent=1),
             span(3, "c", 3, 4, parent=2)]
    own, rest = attribute(spans, 0, 12)
    assert own == {"a": 7, "b": 2, "c": 1}
    assert rest == 2
    assert sum(own.values()) + rest == 12


def test_pool_children_count_once_against_their_parent():
    # two pool threads under one parent: the parent's self time is its
    # duration minus the union of the children; the overlap is shared
    spans = [span(1, "sweep", 0, 10),
             span(2, "x", 1, 5, parent=1, thread=2),
             span(3, "y", 3, 8, parent=1, thread=3)]
    own, rest = attribute(spans, 0, 10)
    assert own["sweep"] == pytest.approx(3)
    assert own["x"] == pytest.approx(3)
    assert own["y"] == pytest.approx(4)
    assert rest == 0
    assert sum(own.values()) == pytest.approx(10)


def test_spans_outside_the_window_are_clipped():
    own, rest = attribute([span(1, "a", -5, 3)], 0, 4)
    assert own == {"a": 3}
    assert rest == 1


def test_recorder_links_pool_threads_to_the_blocked_span():
    rec = Recorder({"child": lambda a, k, r: {"n": r}})

    def child(x):
        return x

    def parent(xs):
        with ThreadPoolExecutor(max_workers=4) as pool:
            return sum(pool.map(wrapped_child, xs))

    wrapped_child = rec.wrap("child", child)
    wrapped_parent = rec.wrap("parent", parent)
    rec.begin(1)
    assert wrapped_parent([1, 2, 3]) == 6
    exp = rec.end("e")
    (top,) = [s for s in exp.spans if s.name == "parent"]
    kids = [s for s in exp.spans if s.name == "child"]
    assert len(kids) == 3
    assert all(s.parent == top.id for s in kids)
    assert top.parent == 0
    counts = rec.counts(exp)
    assert counts["child.calls"] == 3
    assert counts["child.n"] == 6
    own, rest = attribute(exp.spans, exp.start, exp.end)
    assert sum(own.values()) + rest == pytest.approx(exp.end - exp.start)


def test_recorder_loses_no_span_under_contention():
    rec = Recorder()
    fn = rec.wrap("f", lambda: None)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rec.begin(1)
        threads = [threading.Thread(target=lambda: [fn() for _ in range(300)])
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        exp = rec.end("e")
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(exp.spans) == 8 * 300
    assert len({s.id for s in exp.spans}) == 8 * 300


def test_recorder_passes_calls_through_outside_an_experiment():
    rec = Recorder()
    fn = rec.wrap("f", lambda x: x + 1)
    assert fn(1) == 2
    rec.begin(1)
    fn(1)
    assert [s.name for s in rec.end("e").spans] == ["f"]


def test_installed_restores_the_module_attribute():
    class Module:
        @staticmethod
        def f():
            return 1

    original = Module.f
    rec = Recorder()
    with rec.installed([(Module, "f", "m.f")]):
        assert Module.f is not original
        assert Module.f() == 1
    assert Module.f is original


# ---------------------------------------------------------------------------
# pair rule
# ---------------------------------------------------------------------------

PARENT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


def test_gain_needs_nine_tenths_of_pairs_and_more_than_the_spread():
    change = [p * 1.2 for p in PARENT]
    out = pair_verdict(PARENT, change, "higher", 0.15)
    assert out["wins"] == 10
    assert out["verdict"] == "improved"
    # two losses out of ten: no claim, however large the median gain
    change[0], change[1] = 50, 50
    assert pair_verdict(PARENT, change, "higher", 0.15)["verdict"] \
        == "within bound"


def test_ties_count_for_neither_side():
    change = list(PARENT)
    change[0] = 200
    out = pair_verdict(PARENT, change, "higher", 0.15)
    assert (out["wins"], out["losses"]) == (1, 0)
    assert out["verdict"] == "within bound"


def test_gain_within_the_parent_spread_is_not_claimed():
    parent = [80, 120, 90, 110, 100, 85, 115, 95, 105, 100]
    change = [p + 1 for p in parent]
    out = pair_verdict(parent, change, "higher")
    assert out["wins"] == 10
    assert out["verdict"] == "no gain"


def test_regression_beyond_the_bound():
    change = [p * 1.3 for p in PARENT]
    assert pair_verdict(PARENT, change, "lower", 0.25)["verdict"] \
        == "regressed"
    assert pair_verdict(PARENT, change, "lower", 0.35)["verdict"] \
        == "within bound"


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [50, 150, 60, 140, 100, 55, 145, 70, 130, 100]
    change = [p * 1.1 for p in parent]
    assert pair_verdict(parent, change, "lower", 0.1)["verdict"] \
        == "unresolved"


BENCH = {"end_to_end": [{"name": "rate", "unit": "1/s",
                          "better": "higher", "bound": 0.15}]}


def result_set(values, failed=0, correct=True):
    return {"seconds": 20, "trace": 0, "runs": {"w": [
        {"seed": seed, "correct": correct, "attempted": 100,
         "failed": failed, "metrics": {"rate": {"value": v, "unit": "1/s"}}}
        for seed, v in enumerate(values)]}}


def verdicts(parent, change):
    return {row["metric"]: row["verdict"]
            for row in compare(parent, change, BENCH)}


def test_gain_with_as_many_failures_as_the_parent_counts():
    faster = [p * 1.2 for p in PARENT]
    assert verdicts(result_set(PARENT, failed=1),
                    result_set(faster, failed=1)) \
        == {"rate": "improved", "failed": ""}


def test_gain_with_more_failures_than_the_parent_is_failed():
    faster = [p * 1.2 for p in PARENT]
    assert verdicts(result_set(PARENT), result_set(faster, failed=1)) \
        == {"rate": "failed", "failed": "failed"}


def test_gain_with_a_run_not_correct_is_failed():
    faster = result_set([p * 1.2 for p in PARENT])
    faster["runs"]["w"][3]["correct"] = False
    assert verdicts(result_set(PARENT), faster)["rate"] == "failed"


def test_result_sets_of_other_lengths_or_workloads_are_refused():
    longer = result_set(PARENT)
    longer["seconds"] = 30
    with pytest.raises(ValueError):
        compare(result_set(PARENT), longer, BENCH)
    other = result_set(PARENT)
    other["runs"]["v"] = other["runs"].pop("w")
    with pytest.raises(ValueError):
        compare(result_set(PARENT), other, BENCH)


def test_pair_rule_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        pair_verdict([1, 2], [1], "higher")
    with pytest.raises(ValueError):
        pair_verdict([1], [1], "faster")
