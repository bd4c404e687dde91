"""The tracer: thread safety, self time, removal, and no effect on output."""

import sys
import threading
import time

from perfbench import cells, layers
from perfbench.tracer import Tracer


def _work(n):
    return sum(range(n))


def test_wrappers_are_thread_safe():
    tracer = Tracer()
    leaf = tracer.boundary("leaf", _work)
    tracer_count = tracer.count

    def body(calls):
        for _ in range(calls):
            leaf(50)
            tracer_count("hits")
        return calls

    outer = tracer.span("outer", body)
    threads_n, calls = 8, 2000
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = []
        for index in range(threads_n):
            def run(index=index):
                tracer.set_request(f"req-{index}")
                outer(calls)
            threads.append(threading.Thread(target=run))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    snap = tracer.snapshot()
    assert snap["totals"]["leaf"][0] == threads_n * calls
    assert snap["totals"]["outer"][0] == threads_n
    assert snap["extras"]["hits"] == threads_n * calls
    spans = snap["spans"]
    assert sorted(span["request"] for span in spans) == sorted(
        f"req-{i}" for i in range(threads_n))
    for span in spans:
        assert span["counts"]["leaf"][0] == calls
        assert 0 <= span["self_ns"] <= span["end_ns"] - span["start_ns"]


def test_self_time_excludes_wrapped_children():
    tracer = Tracer()
    child = tracer.span("child", lambda: time.sleep(0.02))
    leaf = tracer.boundary("leaf", lambda: time.sleep(0.02))

    def parent():
        child()
        leaf()

    tracer.span("parent", parent)()
    snap = tracer.snapshot()
    calls, busy, own = snap["totals"]["parent"]
    assert calls == 1 and busy >= 40e6
    assert own < busy - 35e6  # both children's time subtracted
    by_name = {span["name"]: span for span in snap["spans"]}
    assert by_name["child"]["parent"] == by_name["parent"]["id"]
    assert by_name["parent"]["counts"]["leaf"][0] == 1
    assert "child" not in by_name["parent"]["counts"]  # spans stand alone


def test_nested_same_name_counts_once():
    tracer = Tracer()
    inner = tracer.boundary("same", _work)
    outer = tracer.boundary("same", lambda: inner(10))
    outer()
    assert tracer.snapshot()["totals"]["same"][0] == 1


def test_fired_predicate_skips_quiet_calls():
    tracer = Tracer()
    state = {"fires": 0}

    def on_access(obj, fire):
        if fire:
            obj["fires"] += 1

    wrapped = tracer.boundary("pmu", on_access, fired=lambda o: o["fires"])
    for fire in (False, True, False, True, True):
        wrapped(state, fire)
    assert tracer.snapshot()["totals"]["pmu"][0] == 3


def _patched_targets():
    tracer = Tracer()
    layers.install(tracer)
    targets = [(owner, attr) for owner, attr, _ in tracer._patches]
    tracer.uninstall()
    return targets


def test_uninstall_restores_every_entry_point():
    targets = _patched_targets()
    originals = {(owner, attr): vars(owner)[attr] for owner, attr in targets}
    assert len(targets) > 20
    tracer = Tracer()
    layers.install(tracer)
    assert tracer.installed == len(targets)
    for owner, attr in targets:
        assert vars(owner)[attr] is not originals[(owner, attr)]
    tracer.uninstall()
    assert tracer.installed == 0
    for owner, attr in targets:
        assert vars(owner)[attr] is originals[(owner, attr)], (owner, attr)
        raw = vars(owner)[attr]
        assert not hasattr(getattr(raw, "__func__", raw), "__wrapped__")


def test_uninstall_after_a_failing_traced_run():
    tracer = Tracer()
    layers.install(tracer)
    from repro.sim.machine import Machine
    try:
        Machine().access_tuple(0, "not an address", False)
    except TypeError:
        pass
    finally:
        tracer.uninstall()
    assert not hasattr(vars(Machine)["access_tuple"], "__wrapped__")


def test_traced_run_simulates_identically():
    for profiled in (True, False):
        cell = cells.Cell(id="t", workload="linear_regression",
                          profiled=profiled, jitter_seed=99,
                          workload_seed=3, scale=0.05)
        plain = cells.run_cell(cell)
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = cells.run_cell(cell)
        finally:
            tracer.uninstall()
        assert cells.fingerprint(traced) == cells.fingerprint(plain)
        assert (traced.result.metadata["kernel"]
                == plain.result.metadata["kernel"])
        totals = tracer.snapshot()["totals"]
        assert totals[layers.ENGINE][0] == 1
        assert (layers.PMU_FIRE in totals) == profiled


def test_compute_covers_every_per_layer_metric():
    snap = Tracer().snapshot()
    values = layers.compute(snap, requests=1)
    assert list(values) == [name for name, *_ in layers.PER_LAYER]
    assert all(value == 0 for value in values.values())
