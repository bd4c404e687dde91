"""The parallel-phase gating claim of Section 2.4, demonstrated by
ablation through trace replay.

"It is very common that the main thread may allocate and initialize
objects before they are accessed by multiple child threads. Prior work,
including Predator, may wrongly report them as true sharing instances.
Cheetah avoids this problem by only recording detailed accesses inside
parallel phases."
"""

import pytest

from repro.core.detection import DetectorConfig, FalseSharingDetector, SharingKind
from repro.run import run_workload
from repro.trace import TraceRecorder, replay_into_detector
from repro.workloads.base import Workload


class InitThenShare(Workload):
    """Main initialises every word of the object, then each child
    hammers its own word — the classic init-then-parallel pattern."""

    name = ""  # not registered: test-local workload
    suite = "test"
    default_threads = 4

    def main(self, api):
        obj = yield from api.malloc(64, callsite="init.c:9")
        # Main-thread initialisation touches every word.
        yield from api.loop(obj, 4, 16, read=False, write=True, work=1,
                            repeat=3)
        args = [(obj + i * 4,) for i in range(self.num_threads)]
        yield from self.fork_join(api, self._worker, args)

    def _worker(self, api, mine):
        yield from api.loop(mine, 0, 1, read=True, write=True, work=2,
                            repeat=300)


def record():
    recorder = TraceRecorder()
    outcome = run_workload(InitThenShare(), jitter_seed=3,
                           observer=recorder)
    return outcome, recorder


def classify(outcome, recorder, gated):
    detector = FalseSharingDetector(DetectorConfig(min_invalidations=4))
    replay_into_detector(recorder, detector,
                         serial_tids={0} if gated else None)
    profiles = detector.build_objects(outcome.result.allocator,
                                      outcome.result.symbols)
    target = [p for p in profiles if p.label == "init.c:9"]
    return target[0] if target else None


class TestParallelPhaseGating:
    @pytest.fixture(scope="class")
    def traced(self):
        return record()

    def test_with_gating_classified_false_sharing(self, traced):
        outcome, recorder = traced
        profile = classify(outcome, recorder, gated=True)
        assert profile is not None
        assert profile.classify(0.5) is SharingKind.FALSE_SHARING
        # Main's init writes are absent from the word map.
        assert 0 not in profile.tids

    def test_without_gating_misclassified(self, traced):
        # The ablation: counting the main thread's init accesses makes
        # every word look multi-thread — the Predator mistake.
        outcome, recorder = traced
        profile = classify(outcome, recorder, gated=False)
        assert profile is not None
        assert 0 in profile.tids
        shared_fraction = profile.shared_word_accesses / profile.accesses
        gated_profile = classify(outcome, recorder, gated=True)
        gated_fraction = (gated_profile.shared_word_accesses
                          / gated_profile.accesses)
        # Gating strictly reduces apparent word sharing.
        assert gated_fraction < shared_fraction

    def test_online_profiler_gates_automatically(self):
        from repro.pmu.sampler import PMUConfig
        report = run_workload(InitThenShare(), pmu_config=PMUConfig(period=8),
                              with_cheetah=True).report
        assert report.significant
        best = report.best()
        assert best.kind is SharingKind.FALSE_SHARING
        assert 0 not in best.profile.tids
