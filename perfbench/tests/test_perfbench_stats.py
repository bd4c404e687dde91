"""The percentile rule and fail_ratio accounting."""

import http.server
import json
import threading
from types import SimpleNamespace

import pytest

from perfbench import cells, serve, stats


class TestPercentileRule:
    def test_linear_interpolation(self):
        assert stats.percentile([1, 2, 3, 4], 50) == 2.5
        assert stats.percentile([10], 95) == 10
        assert stats.percentile([0, 10], 90) == pytest.approx(9.0)
        with pytest.raises(ValueError):
            stats.percentile([], 50)

    @pytest.mark.parametrize("n, pct", [
        (9, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
        (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
        (10000, 99.9),
    ])
    def test_highest_percentile_with_ten_beyond(self, n, pct):
        assert stats.tail_percentile(n) == pct

    def test_beyond_counts_samples_past_the_percentile(self):
        assert stats.beyond(200, 95.0) == 10
        assert stats.beyond(199, 95.0) == 9
        assert stats.supports(100, 90.0)
        assert not stats.supports(99, 90.0)

    def test_summary_carries_median_tail_and_count(self):
        values = list(range(1, 201))
        timing = stats.summarize(values)
        assert timing.n == 200
        assert timing.p50 == pytest.approx(100.5)
        assert timing.tail_pct == 95.0
        assert timing.tail == pytest.approx(stats.percentile(values, 95))
        assert "n=200" in timing.render("ms")
        assert stats.summarize([]) is None

    def test_small_sample_has_median_only(self):
        timing = stats.summarize([3.0, 1.0, 2.0])
        assert timing.p50 == 2.0 and timing.tail is None
        assert "p50" in timing.render("ms") and "p9" not in timing.render("ms")

    def test_named_percentile_needs_the_samples(self):
        assert stats.named_percentile(list(range(199)), 95.0) is None
        assert stats.named_percentile(list(range(200)), 95.0) is not None
        assert stats.named_percentile([5.0], 50.0) == 5.0
        assert stats.named_percentile([], 50.0) is None


class TestTally:
    def test_success_and_failure(self):
        tally = stats.Tally()
        assert tally.record([]) is True
        assert tally.record(["verdict: x", "reference: y"]) is False
        assert (tally.attempted, tally.failed) == (2, 1)
        assert tally.fail_ratio == 0.5
        assert tally.reasons == {"verdict": 1, "reference": 1}

    def test_merge(self):
        a, b = stats.Tally(), stats.Tally()
        a.record(["http: 429"])
        b.record([])
        a.merge(b)
        assert (a.attempted, a.failed) == (2, 1)

    def test_empty_ratio_is_zero(self):
        assert stats.Tally().fail_ratio == 0.0


TINY = 0.05


def _cell(name="array_increment", profiled=True):
    return cells.Cell(id=f"test/{name}", workload=name, profiled=profiled,
                      jitter_seed=12345, workload_seed=7, scale=TINY)


class TestCellFailures:
    def test_exception_counts(self):
        tally = stats.Tally()

        def boom(cell):
            raise RuntimeError("simulated crash")

        outcome, _ = cells._attempt(tally, _cell(), boom,
                                    cells.Checker({}))
        assert outcome is None
        assert tally.failed == 1 and tally.reasons == {"error": 1}

    def test_verdict_mismatch_counts(self):
        missed = SimpleNamespace(all_instances=[], significant=[])
        assert cells.judge("array_increment", missed)  # declared FS
        assert cells.judge("kmeans", missed) == []
        fs = SimpleNamespace(kind=SimpleNamespace(value="false sharing"))
        false_alarm = SimpleNamespace(all_instances=[fs], significant=[fs])
        assert cells.judge("kmeans", false_alarm)  # declared no sharing
        # Negligible false sharing passes either way.
        assert cells.judge("histogram", missed) == []
        assert cells.judge("histogram", false_alarm) == []

    def test_fingerprint_mismatch_counts(self):
        cell = _cell(profiled=False)
        outcome = cells.run_cell(cell)
        good = cells.fingerprint(outcome)
        bad = dict(good, runtime=good["runtime"] + 1)
        tally = stats.Tally()
        checker = cells.Checker({cell.id: bad})
        tally.record(checker.check(cell, outcome))
        assert tally.reasons == {"reference": 1}
        checker = cells.Checker({cell.id: good})
        tally.record(checker.check(cell, outcome))
        assert tally.failed == 1

    def test_repeat_mismatch_counts(self):
        cell = _cell(profiled=False)
        outcome = cells.run_cell(cell)
        checker = cells.Checker({})
        assert checker.check(cell, outcome) == []
        checker.first[cell.id] = dict(checker.first[cell.id], accesses=-1)
        problems = checker.check(cell, outcome)
        assert problems and problems[0].startswith("repeat:")


class _Refusing(http.server.BaseHTTPRequestHandler):
    status = 429

    def log_message(self, *args):
        pass

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        body = json.dumps({"error": "rejected"}).encode()
        self.send_response(self.status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST  # noqa: N815


@pytest.mark.parametrize("status", [429, 500, 404])
def test_non_2xx_replies_count(status):
    handler = type("Handler", (_Refusing,), {"status": status})
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = serve.Client(0, 11, server.server_address[1])
        client.run(jobs=serve.FINDINGS_EVERY)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    # Every job and the findings query failed on the refusal.
    assert client.tally.attempted == serve.FINDINGS_EVERY + 1
    assert client.tally.failed == client.tally.attempted
    assert set(client.tally.reasons) == {"http"}
