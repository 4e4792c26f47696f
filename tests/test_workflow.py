"""The CI workflow smoke-runs every benchmark workload in both trace modes,
checks the answers of its two 64 x 64 cap steps modulo a prime with
tests/cap_check.py, and its Python matrix starts at the floor that
pyproject.toml declares.

The workflow and pyproject.toml are read as text (Python 3.10 has no
tomllib) and BENCHMARK.json as JSON, so a workload added to the benchmark
cannot go without a CI smoke run.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cap_check
from alexpoly.cli import main

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
CAP_CHECK = ROOT / "tests" / "cap_check.py"


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


def test_both_cap_steps_check_the_answer_modulo_a_prime():
    """Each 64 x 64 step writes its pair with tests/cap_check.py, runs the
    installed command on it with --json under timeout 120 and `time`, so
    that the log records how long the capped determinant took, and then
    checks that answer with the same script, which compares its values at
    three points with det(x*S - N) modulo p = 2^61 - 1, so a wrong answer
    fails.  Each of the three is one whole line of the step."""
    steps = re.split(r"^      - name: ", WORKFLOW, flags=re.MULTILINE)[1:]
    caps = [step for step in steps if "64 x 64" in step.splitlines()[0]]
    assert len(caps) == 2
    script = '"$GITHUB_WORKSPACE/tests/cap_check.py"'
    pattern = rf"^ *python {re.escape(script)} pair (alex|norm) (\d+) 64 (\S+)$"
    runs = []
    for step in caps:
        ((command, seed, pair),) = re.findall(pattern, step, re.MULTILINE)
        write = f"python {script} pair {command} {seed} 64 {pair}"
        solve = f"time timeout 120 alexpoly {command} --json {pair} > {command}.json"
        check = f"python {script} check {command} {pair} {command}.json"
        lines = [line.strip() for line in step.splitlines()]
        assert lines.index(write) < lines.index(solve) < lines.index(check)
        runs.append((command, seed))
    assert sorted(runs) == [("alex", "64"), ("norm", "65")]
    assert cap_check.P == (1 << 61) - 1 and cap_check.POINTS == (2, 3, 10**9 + 7)


def _cap_check(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(CAP_CHECK), *map(str, args)], capture_output=True, text=True
    )


@pytest.mark.parametrize("command, key", [("alex", "polynomial"), ("norm", "normalized")])
def test_cap_check_passes_cli_answers_and_fails_a_coefficient_off_by_one(
    command, key, tmp_path, capsys
):
    """The CI checker, run as a script, passes cli.main's --json answer on a
    small pair of the kind its cap step writes, and fails once any
    coefficient of degree 0..m, present or not, is off by one either way."""
    pair, answer = tmp_path / "pair.json", tmp_path / "answer.json"
    assert _cap_check("pair", command, 7, 6, pair).returncode == 0
    assert main([command, "--json", str(pair)]) == 0
    payload = json.loads(capsys.readouterr().out)
    answer.write_text(json.dumps(payload))
    passed = _cap_check("check", command, pair, answer)
    assert (passed.returncode, passed.stderr) == (0, "")
    terms = payload[key]["terms"]
    shift = 0 if command == "alex" else 6
    doc = json.loads(pair.read_text())
    for h in range(-shift, 13 - shift, 2):
        for delta in (1, -1):
            wrong = dict(terms, **{str(h): terms.get(str(h), 0) + delta})
            assert cap_check.disagreement(command, doc, {key: {"terms": wrong}}), (h, delta)
    terms["0"] = terms.get("0", 0) + 1
    answer.write_text(json.dumps(payload))
    failed = _cap_check("check", command, pair, answer)
    assert failed.returncode == 1 and "!= det(x*S - N) =" in failed.stderr
