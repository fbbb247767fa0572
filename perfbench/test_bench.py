"""Tests of the benchmark's own machinery: span tree, self time, verdicts.

    python3 -m pytest perfbench -q
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from compare import verdict
from spans import Recorder, Span, self_times, union_length, wrap


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        Span(1, None, "root", 0.0, 10.0, 0),
        Span(2, 1, "a", 1.0, 4.0, 0),
        Span(3, 1, "b", 3.0, 6.0, 1),     # overlaps a by 1
        Span(4, 1, "c", 8.0, 9.0, 0),
        Span(5, 3, "b.child", 4.0, 5.0, 1),
        Span(6, 1, "late", 9.5, 11.0, 0),  # runs past its parent: clipped
    ]
    selfs = self_times(spans)
    # children cover [1, 6] u [8, 9] u [9.5, 10] = 6.5 of the root's 10 s;
    # summing them instead would give 3 + 3 + 1 + 1.5 = 8.5
    assert selfs[1] == pytest.approx(3.5)
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[5] == pytest.approx(1.0)
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_pool_thread_spans_link_to_the_open_pool_parent():
    rec = Recorder()
    started = threading.Barrier(2, timeout=10)

    def cell(i):
        started.wait()  # both cells open at once, so their intervals overlap
        time.sleep(0.05)
        return i

    cell_w = wrap(rec, cell, "cell")

    def experiment():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(cell_w, range(2)))

    assert wrap(rec, experiment, "experiment", pool_parent=True)() == [0, 1]
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    (exp,) = by_name["experiment"]
    assert [c.parent for c in by_name["cell"]] == [exp.id, exp.id]
    assert {c.thread for c in by_name["cell"]} != {exp.thread}
    cells = by_name["cell"]
    covered = union_length([(c.start, c.end) for c in cells])
    assert covered < sum(c.end - c.start for c in cells)
    assert self_times(rec.spans)[exp.id] == pytest.approx(exp.end - exp.start - covered)


def test_pool_thread_without_pool_parent_is_a_root():
    rec = Recorder()
    f = wrap(rec, lambda: None, "lone")
    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(f).result(timeout=10)
    assert rec.spans[0].parent is None


def test_nested_calls_get_parent_links_and_counters():
    rec = Recorder()
    inner = wrap(rec, lambda n: list(range(n)), "inner",
                 on_result=lambda r: rec.count("items", len(r)))
    outer = wrap(rec, lambda: inner(3) + inner(2), "outer",
                 on_call=lambda args, result: rec.count("outer_calls"))
    assert outer() == [0, 1, 2, 0, 1]
    ids = {s.name: s.id for s in rec.spans}
    assert [s.parent for s in rec.spans if s.name == "inner"] == [ids["outer"]] * 2
    assert rec.counts == {"items": 5, "outer_calls": 1}


def test_verdicts():
    parent = [10.0 + 0.1 * i for i in range(10)]
    faster = [p - 2.0 for p in parent]
    assert verdict(parent, faster, "lower", 0.1) == ("better", 10)
    slower = [p * 1.2 for p in parent]
    assert verdict(parent, slower, "lower", 0.1) == ("worse", 0)
    same = [p + (0.01 if i % 2 else -0.01) for i, p in enumerate(parent)]
    assert verdict(parent, same, "lower", 0.1)[0] == "no regression"
    noisy = [1.0, 5.0, 1.0, 5.0, 1.0, 5.0, 1.0, 5.0, 1.0, 5.0]
    assert verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"
    # higher-is-better metrics flip the sign
    assert verdict(parent, [p + 2.0 for p in parent], "higher", 0.1) == ("better", 10)
