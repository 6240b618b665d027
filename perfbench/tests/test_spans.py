"""The benchmark's own arithmetic: self time, tail percentiles, layer sums."""

import pytest

import spans


def span(sid, name, start, end, parent=None, **extra):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "run": "r", **extra}


def test_union_length_merges_overlaps_and_gaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert spans.union_length([(2.0, 3.0), (0.0, 10.0)]) == pytest.approx(10.0)


def test_self_time_subtracts_the_union_of_children_only():
    tree = [
        span(0, "outer", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "b", 3.0, 5.0, parent=0),      # overlaps a: union is [1, 5]
        span(3, "c", 2.0, 3.0, parent=1),      # grandchild: not subtracted from outer
        span(4, "d", 9.0, 12.0, parent=0),     # runs past its parent: clipped to [9, 10]
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)


@pytest.mark.parametrize("n, pct", [
    (0, 0.0), (10, 50.0), (19, 50.0), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (10_000, 99.9), (100_000, 99.99),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, pct):
    got_pct, value = spans.tail_percentile(list(range(1, n + 1)))
    assert got_pct == pct
    if n >= 20:
        rank = value                      # values are their own ranks
        assert n - rank >= spans.MIN_BEYOND
        for higher in (p for p in spans.TAIL_LADDER if p > pct):
            assert n - spans.rank_of(higher, n) < spans.MIN_BEYOND


def test_tail_is_order_independent():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
    assert spans.tail_percentile(values) == spans.tail_percentile(sorted(values))
    assert spans.tail_percentile(values) == (90.0, 5.0)


def record(spans_list, counters=None, command="allocate"):
    return {"command": command, "import_s": 1.0, "counters": counters or {},
            "spans": spans_list}


def test_pass_layers_attributes_time_and_counts():
    tree = [
        span(0, "cli.cmd_allocate", 0.0, 10.0),
        span(1, "manifold.conjugate_gradient", 1.0, 9.0, parent=0),
        span(2, "manifold.retract", 2.0, 6.0, parent=1, error="RetractionError"),
        span(3, "boxmax.G.value", 2.5, 5.5, parent=2),
        span(4, "boxmax.box_maximize", 3.0, 5.0, parent=3),
        span(5, "surrogate.eval_many", 3.5, 4.0, parent=4, meta={"points": 17}),
        span(6, "boxmax.G.value", 5.5, 5.6, parent=2),      # a cache hit
        span(7, "boxmax.G.grad", 7.0, 8.0, parent=1),
    ]
    counters = {"manifold.iterations": 2, "boxmax.starts": 17}
    out = spans.pass_layers([record(tree, counters)])
    assert out["boxmax.g_requests"] == 3
    assert out["boxmax.box_maximize.calls"] == 1
    assert out["boxmax.box_maximize.self_s"] == pytest.approx(1.5)
    assert out["boxmax.cache_hit_ratio"] == pytest.approx(1.0 - 1.0 / 3.0)
    assert out["boxmax.points_per_call"] == 17
    assert out["surrogate.eval_many.points"] == 17
    assert out["manifold.retract.failures"] == 1
    assert out["manifold.g_requests_per_iteration"] == pytest.approx(1.5)
    # Traversal 8 s minus retract 4 s and grad 1 s; retract 4 s minus G 3.1 s.
    assert out["manifold.self_s"] == pytest.approx(3.0 + 0.9)
    assert out["cli.allocate.self_s"] == pytest.approx(2.0)
    assert out["boxmax.box_maximize.ms_per_call.p50"] == pytest.approx(2000.0)
    assert out["boxmax.box_maximize.ms_per_call.n"] == 1


def test_leaked_children_are_spawns_without_a_closing_call():
    tree = [span(0, "cli.cmd_sample", 0.0, 1.0),
            span(1, "evaluator.call", 0.0, 0.1, parent=0, meta={"spawn": True}),
            span(2, "evaluator.call", 0.2, 0.3, parent=0, meta={"spawn": True}),  # restart
            span(3, "evaluator.close", 0.4, 0.5, parent=0, meta={"live": True}),
            span(4, "evaluator.close", 0.6, 0.7, parent=0)]                   # already closed
    assert spans.pass_layers([record(tree)])["evaluator.leaked_children"] == 1


def test_pass_layers_separates_evaluator_spawns_from_round_trips():
    tree = [span(0, "cli.cmd_sample", 0.0, 1.0),
            span(1, "evaluator.call", 0.0, 0.2, parent=0, meta={"spawn": True})]
    tree += [span(2 + k, "evaluator.call", 0.2 + k * 1e-3, 0.2 + k * 1e-3 + 5e-5, parent=0)
             for k in range(30)]
    out = spans.pass_layers([record(tree, {}, "sample"), record([], {}, "fit")])
    assert out["evaluator.calls"] == 31
    assert out["evaluator.spawns"] == 1
    assert out["evaluator.spawn_s"] == pytest.approx(0.2)
    assert out["evaluator.round_trip_us.n"] == 30
    assert out["evaluator.round_trip_us.p50"] == pytest.approx(50.0)
    assert out["evaluator.leaked_children"] == 1
    assert out["cli.import_s"] == 1.0
