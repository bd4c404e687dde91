"""Differential fuzzer + fixed corpus tests (repro.sim.check.fuzz).

The checked-in corpus (tests/data/fuzz_corpus.json) is the permanent
regression set: every spec must produce bit-identical fingerprints
across the fused, observed and sanitized execution paths, with and
without a PMU attached.
"""

from pathlib import Path

import pytest

from repro.sim.check.fuzz import (
    diff_spec, fingerprint, fuzz, generate_spec, load_corpus, run_spec,
)
from repro.sim.jitter import CHUNK

CORPUS_PATH = Path(__file__).parent / "data" / "fuzz_corpus.json"
CORPUS = load_corpus(CORPUS_PATH)


class TestGenerator:
    def test_spec_is_deterministic(self):
        assert generate_spec(42) == generate_spec(42)
        assert generate_spec(42) != generate_spec(43)

    def test_spec_is_json_plain(self):
        import json
        spec = generate_spec(7)
        assert json.loads(json.dumps(spec)) == spec

    def test_corpus_matches_generator(self):
        # The corpus was produced by generate_spec over these seeds; if
        # the generator changes shape, regenerate the corpus (see
        # save_corpus) in the same change — stale corpora test nothing.
        for spec in CORPUS:
            assert spec == generate_spec(spec["seed"])


class TestRunSpec:
    def test_same_spec_same_fingerprint(self):
        spec = CORPUS[0]
        assert run_spec(spec) == run_spec(spec)

    def test_fingerprint_covers_all_run_outputs(self):
        fp = run_spec(CORPUS[0], pmu=True)
        assert set(fp) == {"runtime", "steps", "threads", "machine",
                           "invalidations", "pmu"}
        assert fp["runtime"] > 0
        assert fp["machine"][0] > 0  # total accesses

    def test_checkpoint_specs_fingerprint_their_fires(self):
        fired = 0
        for spec in (s for s in CORPUS if s.get("checkpoints")):
            fp = run_spec(spec)
            assert "checkpoints" in fp
            # Every fired entry is (registered_cycle, fire_clock,
            # per-thread counters, machine totals): the fire lands at or
            # past the registered cycle, and no counter read mid-run
            # exceeds its end-of-run value.
            for cycle, now, threads, accesses, cycles in fp["checkpoints"]:
                fired += 1
                assert cycle in spec["checkpoints"]
                assert now >= cycle
                for tid, *counters in threads:
                    end = fp["threads"][tid][:4]
                    assert all(mid <= last
                               for mid, last in zip(counters, end))
                assert accesses <= fp["machine"][0]
                assert cycles <= fp["machine"][1]
        assert fired  # some corpus checkpoints fall before the end

    def test_jitter_lead_puts_a_chunk_boundary_in_the_program(self):
        # The lead-in reads all but ``jitter_lead`` draws of the first
        # chunk, so a program longer than that reads into the second.
        spec = next(s for s in CORPUS if s["jitter"])
        assert run_spec(spec)["machine"][0] > CHUNK

    def test_different_seeds_differ(self):
        # Not logically required, but if every program fingerprints the
        # same thing the differential harness is vacuous.
        fps = {repr(run_spec(spec)) for spec in CORPUS[:3]}
        assert len(fps) == 3


@pytest.mark.parametrize("spec", CORPUS, ids=lambda s: hex(s["seed"]))
class TestCorpus:
    def test_all_paths_bit_identical(self, spec):
        assert diff_spec(spec) is None


class TestDivergenceReporting:
    def test_sanitizer_path_divergence_is_reported(self, monkeypatch):
        # Force the checked variant onto a different machine shape and
        # make sure diff_spec names the variant pair and the first
        # fingerprint key that differs.
        import repro.sim.check.fuzz as fuzz_mod

        real_run_spec = fuzz_mod.run_spec

        def skewed(spec, **kwargs):
            fp = real_run_spec(spec, **kwargs)
            if kwargs.get("check"):
                fp["runtime"] += 1
            return fp

        monkeypatch.setattr(fuzz_mod, "run_spec", skewed)
        report = fuzz_mod.diff_spec(CORPUS[0])
        assert report is not None
        assert report["seed"] == CORPUS[0]["seed"]
        assert report["variants"] == ("fast", "checked")
        assert report["delta"].startswith("runtime:")

    def test_fuzz_returns_empty_on_clean_paths(self):
        assert fuzz(CORPUS[0]["seed"], 1) == []
