"""Documentation consistency checks: the docs must not drift from the
code they describe."""

import argparse
import importlib.util
import re
from pathlib import Path

import pytest

from repro.experiments.full_report import SECTIONS
from repro.workloads import FIGURE4_NAMES, all_workload_names

ROOT = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


class TestTopLevelDocs:
    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "docs/architecture.md", "docs/algorithm.md",
                     "docs/calibration.md", "docs/workloads.md"):
            assert (ROOT / name).is_file(), f"missing {name}"

    def test_readme_links_resolve(self):
        readme = read("README.md")
        for target in re.findall(r"\]\(([^)#]+\.md)\)", readme):
            assert (ROOT / target).is_file(), f"broken link: {target}"

    def test_examples_listed_in_readme_exist(self):
        readme = read("README.md")
        for script in re.findall(r"`(\w+\.py)`", readme):
            if script.startswith("test_") or script == "conftest.py":
                continue  # benchmark files, checked separately
            assert (ROOT / "examples" / script).is_file(), script

    def test_design_mentions_every_figure4_workload(self):
        text = read("docs/workloads.md")
        for name in FIGURE4_NAMES:
            assert name in text, f"{name} undocumented"

    def test_experiments_md_covers_all_paper_artifacts(self):
        text = read("EXPERIMENTS.md")
        for artifact in ("Figure 1", "Figure 4", "Figure 5", "Figure 7",
                         "Table 1", "4.2.3"):
            assert artifact in text


class TestCommandsInDocs:
    """Every command README.md and docs/*.md tell a reader to run exists."""

    DOCS = ["README.md"] + sorted(
        f"docs/{p.name}" for p in (ROOT / "docs").glob("*.md"))

    def test_every_repro_subcommand_is_in_the_parser(self):
        from repro.cli import build_parser
        subcommands = set(next(
            action.choices for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)))
        for doc in self.DOCS:
            for name in re.findall(r"(?<!from )\brepro ([a-z][\w-]*)",
                                   read(doc)):
                assert name in subcommands, f"{doc}: repro {name}"

    def test_every_tool_script_exists(self):
        for doc in self.DOCS:
            for name in re.findall(r"\btools/(\w+)\.py", read(doc)):
                assert (ROOT / "tools" / f"{name}.py").is_file(), \
                    f"{doc}: tools/{name}.py"

    def test_every_python_m_module_exists(self):
        for doc in self.DOCS:
            for module in re.findall(r"python3? -m (repro(?:\.\w+)+)",
                                     read(doc)):
                assert importlib.util.find_spec(module) is not None, \
                    f"{doc}: python -m {module}"


class TestBenchmarksCoverArtifacts:
    def test_one_benchmark_file_per_artifact(self):
        benches = {p.name for p in (ROOT / "benchmarks").glob("test_*.py")}
        for required in ("test_figure1.py", "test_figure4.py",
                         "test_figure5.py", "test_figure7.py",
                         "test_table1.py", "test_comparison.py"):
            assert required in benches

    def test_full_report_covers_all_paper_artifacts(self):
        titles = " ".join(title for title, _ in SECTIONS)
        for artifact in ("Figure 1", "Figure 4", "Figure 5", "Figure 7",
                         "Table 1", "4.2.3"):
            assert artifact in titles


class TestWorkloadDocstrings:
    def test_every_workload_class_documents_itself(self):
        from repro.workloads.base import get_workload
        for name in all_workload_names():
            cls = get_workload(name)
            assert cls.__doc__ and len(cls.__doc__) > 30, name

    def test_documented_bugs_cite_the_paper_sections(self):
        from repro.workloads.base import get_workload
        lr = get_workload("linear_regression")
        sc = get_workload("streamcluster")
        assert "Figure 6" in lr.__doc__ or "Figure 5" in lr.__doc__
        assert "32" in sc.__doc__  # the wrong CACHE_LINE value
