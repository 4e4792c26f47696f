"""The CI workflow smoke-runs every benchmark workload in both trace modes,
and its Python matrix starts at the floor that pyproject.toml declares.

The workflow and pyproject.toml are read as text (Python 3.10 has no
tomllib) and BENCHMARK.json as JSON, so a workload added to the benchmark
cannot go without a CI smoke run.
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


def test_python_matrix_starts_at_the_required_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (floor,) = re.findall(r'^requires-python = ">=(\d+\.\d+)"$', pyproject, re.MULTILINE)
    (matrix,) = re.findall(r"^\s*python-version: \[(.*)\]$", WORKFLOW, re.MULTILINE)
    versions = re.findall(r'"(\d+\.\d+)"', matrix)
    assert versions[0] == floor
    assert versions == sorted(versions, key=lambda v: tuple(map(int, v.split("."))))
