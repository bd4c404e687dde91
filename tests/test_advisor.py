"""Tests for the padding advisor."""

import pytest

from repro import Session
from repro.core.advisor import PaddingAdvice, advise, infer_stride, thread_extents
from repro.core.assessment import Assessment
from repro.core.detection import ObjectProfile, SharingKind
from repro.core.report import ObjectReport
from repro.pmu.sampler import PMUConfig
from repro.workloads.parsec import StreamCluster
from repro.workloads.phoenix import LinearRegression


def synthetic_report(word_tids, label="obj.c:1"):
    """Build a report whose word_summary maps rel_word -> tids."""
    profile_ = ObjectProfile(key=("heap", 1), kind="heap", start=0,
                             end=1024, size=1024, label=label)
    for rel_word, tids in word_tids.items():
        profile_.word_summary[rel_word] = {
            "tids": list(tids), "reads": 1, "writes": 1,
            "shared": len(tids) > 1,
        }
    assessment = Assessment(improvement=2.0, real_runtime=100,
                            predicted_runtime=50.0, aver_nofs_cycles=3.0)
    return ObjectReport(profile=profile_, assessment=assessment,
                        kind=SharingKind.FALSE_SHARING)


class TestExtentsAndStride:
    def test_extents_cover_thread_words(self):
        report = synthetic_report({0: [1], 2: [1], 4: [2], 6: [2]})
        extents = {e.tid: e for e in thread_extents(report)}
        assert extents[1].start == 0 and extents[1].end == 12
        assert extents[2].start == 16 and extents[2].end == 28

    def test_extents_sorted_by_start(self):
        report = synthetic_report({10: [3], 0: [1], 5: [2]})
        assert [e.tid for e in thread_extents(report)] == [1, 2, 3]

    def test_stride_median_of_gaps(self):
        report = synthetic_report({0: [1], 4: [2], 8: [3], 12: [4]})
        extents = thread_extents(report)
        assert infer_stride(extents) == 16

    def test_stride_none_for_single_thread(self):
        report = synthetic_report({0: [1], 1: [1]})
        assert infer_stride(thread_extents(report)) is None


class TestAdvice:
    def test_16_byte_elements_recommend_full_line(self):
        # 4 threads, 16-byte elements -> pad to 64.
        words = {}
        for i in range(4):
            for w in range(4):
                words[i * 4 + w] = [i + 1]
        advice = advise(synthetic_report(words))
        assert advice.inferred_stride == 16
        assert advice.recommended_stride == 64
        assert advice.extra_bytes_per_element == 48
        assert not advice.already_line_aligned

    def test_wide_elements_round_up_to_line_multiple(self):
        # 96-byte elements (24 words) -> recommend 128.
        words = {}
        for i in range(3):
            for w in range(24):
                words[i * 24 + w] = [i + 1]
        advice = advise(synthetic_report(words))
        assert advice.recommended_stride == 128

    def test_aligned_layout_flagged(self):
        # 64-byte stride, each thread within its line: nothing to fix.
        words = {0: [1], 1: [1], 16: [2], 17: [2]}
        advice = advise(synthetic_report(words))
        assert advice.already_line_aligned
        assert "will not help" in advice.render()

    def test_no_word_data_returns_none(self):
        assert advise(synthetic_report({})) is None

    def test_render_mentions_padding(self):
        words = {0: [1], 8: [2]}
        advice = advise(synthetic_report(words))
        assert "char pad[" in advice.render()


class TestOnRealReports:
    def test_linear_regression_advice_matches_paper_fix(self):
        # The paper pads lreg_args (56 bytes) to a full 64-byte line.
        report = Session(LinearRegression(num_threads=16),
                         pmu=PMUConfig(period=64)).report()
        advice = advise(report.best())
        assert advice.inferred_stride == 56
        assert advice.recommended_stride == 64

    def test_streamcluster_advice_matches_paper_fix(self):
        # 32-byte slots -> pad to 64 (the fix evaluated in Table 1).
        report = Session(StreamCluster(num_threads=16),
                         pmu=PMUConfig(period=32)).report()
        instances = report.false_sharing_instances()
        assert instances
        advice = advise(instances[0])
        assert advice.inferred_stride == 32
        assert advice.recommended_stride == 64
