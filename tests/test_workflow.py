"""The CI workflow smoke-runs every benchmark workload in both trace modes.

The workflow is read as text and BENCHMARK.json as JSON, so a workload
added to the benchmark cannot go without a CI smoke run.
"""
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")


def loop_words(variable: str) -> list[str]:
    """The words of the one `for <variable> in ...; do` loop of the workflow."""
    (words,) = re.findall(rf"^\s*for {variable} in ([^;\n]*); do$", WORKFLOW, re.MULTILINE)
    return words.split()


def test_smoke_loop_names_exactly_the_benchmark_workloads():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in benchmark["workloads"]]
    words = loop_words("workload")
    assert len(words) == len(set(words))
    assert sorted(words) == sorted(names)
    assert '--workload "$workload"' in WORKFLOW


def test_smoke_loop_covers_both_trace_modes():
    assert loop_words("trace") == ["0", "1"]
    assert '--trace "$trace"' in WORKFLOW
