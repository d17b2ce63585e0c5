"""Span self-time arithmetic and the tracer's span tree."""

import pytest

from spans import Tracer, self_times, under


def span(start, end, parent=None, name="s"):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_leaf_self_time_is_its_duration():
    assert self_times([span(1.0, 3.5)]) == [2.5]


def test_nested_spans():
    spans = [span(0.0, 10.0), span(1.0, 6.0, 0), span(2.0, 3.0, 1)]
    assert self_times(spans) == pytest.approx([5.0, 4.0, 1.0])


def test_sibling_spans():
    spans = [span(0.0, 10.0), span(1.0, 3.0, 0), span(4.0, 8.5, 0)]
    assert self_times(spans) == pytest.approx([3.5, 2.0, 4.5])


def test_overlapping_children_count_once_and_are_clipped():
    spans = [span(0.0, 10.0), span(-1.0, 4.0, 0), span(3.0, 6.0, 0), span(9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_times_sum_to_the_root_duration():
    spans = [span(0.0, 10.0), span(1.0, 6.0, 0), span(2.0, 3.0, 1), span(7.0, 9.0, 0)]
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_tracer_records_parents_and_counts():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap("leaf", leaf, lambda counts, a, k, r: counts.update(work=r))
    def outer():
        return traced_leaf(1) + traced_leaf(2)

    assert tracer.wrap("outer", outer)() == 5
    spans = tracer.to_dict()["spans"]
    assert [s["name"] for s in spans] == ["outer", "leaf", "leaf"]
    assert [s["parent"] for s in spans] == [None, 0, 0]
    assert under(spans, 2, "outer") and not under(spans, 0, "outer")
    assert tracer.counts == {"work": 5}


def test_tracer_closes_a_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    (only,) = tracer.to_dict()["spans"]
    assert only["end"] >= only["start"]
    assert tracer._stack == []
