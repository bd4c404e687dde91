"""The host-speed probe and how end-to-end times are scaled by it."""

import os

import pytest

from perfbench import cells, hostspeed, serve, stats

TINY = 0.05


class _FixedProbe:
    """Stands in for :class:`hostspeed.Probe`: answers a fixed sequence."""

    def __init__(self, answers):
        self.answers = list(answers)
        self.samples = []

    def measure(self):
        value = self.answers.pop(0)
        self.samples.append(value)
        return value


def test_factors_scale_by_reference_over_probe_time():
    ref = hostspeed.REFERENCE_S
    # One item per gap between probes.
    assert hostspeed.factors([ref] * 4) == pytest.approx([1.0] * 3)
    # The host ran the probe at half speed: times halve.
    assert hostspeed.factors([2 * ref] * 9) == pytest.approx([0.5] * 8)
    assert hostspeed.factors([ref]) == []


def test_factors_ignore_one_slow_probe():
    ref = hostspeed.REFERENCE_S
    probes = [ref] * 5 + [10 * ref] + [ref] * 5
    assert hostspeed.factors(probes) == pytest.approx([1.0] * 10)


def test_factors_follow_a_lasting_change_of_host_speed():
    ref = hostspeed.REFERENCE_S
    probes = [ref] * 10 + [2 * ref] * 10
    out = hostspeed.factors(probes)
    assert out[:6] == pytest.approx([1.0] * 6)
    assert out[-6:] == pytest.approx([0.5] * 6)


def test_probe_process_answers_and_always_ends():
    with hostspeed.Probe() as probe:
        proc = probe.proc
        first, second = probe.measure(), probe.measure()
    assert first > 0 and second > 0
    assert probe.samples == [first, second]
    assert proc.poll() is not None  # stopped and reaped on exit
    assert probe.proc is None


def test_probe_process_ends_when_the_body_fails():
    with pytest.raises(RuntimeError):
        with hostspeed.Probe() as probe:
            proc = probe.proc
            raise RuntimeError("benchmark failed")
    assert proc.poll() is not None


def test_current_cpu_is_one_of_ours():
    cpu = hostspeed.current_cpu()
    if hasattr(os, "sched_getaffinity") and cpu >= 0:
        assert cpu in os.sched_getaffinity(0)


def test_closed_loop_scales_each_cell_by_the_probes_around_it():
    cell_list = cells.make_cells("native", 3, TINY)[:2]
    ref = hostspeed.REFERENCE_S
    # Before cell 0, after cell 0 (= before cell 1), after cell 1.
    probe = _FixedProbe([ref, 3 * ref, 3 * ref])
    loop = cells.closed_loop(cell_list, 0.0, stats.Tally(),
                             cells.Checker({}), probe)
    assert loop.passes == 1 and len(probe.samples) == 3
    for cell in cell_list:  # the median of the three probes: 3 * ref
        assert loop.scaled[cell.id][0] == pytest.approx(
            loop.seconds[cell.id][0] / 3)
    scaled, raw = cells.end_to_end(loop), cells.end_to_end(loop, False)
    assert scaled["jobs_per_s"]["value"] > raw["jobs_per_s"]["value"]
    assert scaled["cold_gmean_ms"]["value"] < raw["cold_gmean_ms"]["value"]


def test_peak_rss_is_read_at_the_named_job():
    peak = serve.PeakRss(os.getpid(), at=3)
    for _ in range(2):
        peak.job_done()
    assert peak.value is None
    peak.job_done()
    if os.path.exists(f"/proc/{os.getpid()}/status"):
        assert peak.value > 0
    value = peak.value
    peak.job_done()
    assert peak.value == value  # later jobs do not move it
