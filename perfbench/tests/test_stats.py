import pytest

from stats import outermost, relative_iqr, self_times, tail
from tracer import Tracer


@pytest.mark.parametrize("n", [11, 27, 76, 200])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    values = [float(v) for v in range(n, 0, -1)]
    value, percentile, count = tail(values)
    assert count == n
    assert sum(1 for v in values if v > value) == 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


@pytest.mark.parametrize("n", [0, 1, 3, 4, 10])
def test_no_tail_below_eleven_samples(n):
    assert tail([1.0] * n) is None


def test_relative_iqr_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 12.0, 8.0, 10.0, 10.2]
    assert relative_iqr(values) == pytest.approx((10.625 - 9.375) / 10.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0.0, 10.0, -1),   # root
        (1.0, 4.0, 0),     # child of root
        (2.0, 3.0, 1),     # grandchild
        (5.0, 7.0, 0),     # second child of root
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_outermost_counts_reentrant_spans_once():
    names = ["f", "g", "f", "f"]
    parents = [-1, 0, 1, -1]
    assert outermost(names, parents) == [True, True, False, True]


def test_layer_metrics_ms_and_self_ms():
    t = Tracer()
    t.absent = []
    # harness.crosscheck [0, 10 ms] > classify.classify [1, 7 ms] >
    # nilpotency.ring_conditions [2, 5 ms]; then classify again at top level.
    for name, start, end, parent in [
        ("harness.crosscheck", 0.000, 0.010, -1),
        ("classify.classify", 0.001, 0.007, 0),
        ("nilpotency.ring_conditions", 0.002, 0.005, 1),
        ("classify.classify", 0.020, 0.021, -1),
    ]:
        t.names.append(name)
        t.starts.append(start)
        t.ends.append(end)
        t.parents.append(parent)
        t.items.append("x")
        t.counts.append(None)
    m = t.layer_metrics()
    assert m["harness.crosscheck.self_ms"] == pytest.approx(4.0)
    assert m["classify.classify.ms"] == pytest.approx(7.0)
    assert m["classify.classify.self_ms"] == pytest.approx(4.0)
    assert m["nilpotency.ring_conditions.ms"] == pytest.approx(3.0)
    assert m["nilpotency.ring_conditions.calls"] == 1
    # a later slice sees only its own spans
    tail_only = t.layer_metrics(3)
    assert tail_only["classify.classify.ms"] == pytest.approx(1.0)
    assert tail_only["harness.crosscheck.self_ms"] == 0
