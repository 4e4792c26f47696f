"""Every demo script runs to completion, with warnings as errors, and
prints its walk-through; README's examples print what README shows."""
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from alexpoly import documents
from alexpoly.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_block(lang: str, marker: str) -> str:
    """The README code block in the given language ("" for none) that contains marker."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    (block,) = [b for language, b in blocks if language == lang and marker in b]
    return block


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_readme_library_tour_prints_its_comments():
    block = readme_block("python", "check_twist_move")
    expected = ["1 | 1*t^-1 + -1 + 1*t^1 | 1*t^(-1/2) + -1*t^(1/2)", "True"]
    printed = [line.partition("# ")[2] for line in block.splitlines() if line.startswith("print(")]
    assert printed == expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_readme_layout_names_every_module():
    block = readme_block("", "src/alexpoly/")
    named = {line.split()[0] for line in block.splitlines()[1:] if line.startswith("  ")}
    modules = {p.name for p in (ROOT / "src" / "alexpoly").glob("*.py")} - {"__init__.py"}
    assert named == modules


def test_readme_limits_are_the_document_caps():
    """Each input limit README states is the constant the loader enforces."""
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    for stated, name in [
        (f"at most {documents.MAX_DOCUMENT_BYTES} bytes", "MAX_DOCUMENT_BYTES"),
        (f"`|k| <= {documents.MAX_HALF_EXPONENT}`", "MAX_HALF_EXPONENT"),
        (f"at most {documents.MAX_MATRIX_DIM} rows and columns", "MAX_MATRIX_DIM"),
        (f"`|e| <= {documents.MAX_MATRIX_ENTRY}`", "MAX_MATRIX_ENTRY"),
    ]:
        assert f"{stated} (`alexpoly.documents.{name}`)" in readme


def test_readme_documents_show_each_kind_once():
    """Each document of README's json block parses, and they show every kind once."""
    texts = re.split(r"\n(?=\{)", readme_block("json", '"kind"').strip())
    docs = [json.loads(text) for text in texts]
    for doc in docs:
        documents.parse_document(doc)
    assert sorted(doc["kind"] for doc in docs) == sorted(documents._KINDS)


def test_readme_shell_transcript(tmp_path, monkeypatch):
    """Replays the transcript: the echo line writes its file, and each
    alexpoly line runs through main and prints the lines shown under it."""
    monkeypatch.chdir(tmp_path)
    commands = []
    for line in readme_block("sh", "pair.json").splitlines():
        if line.startswith("$ "):
            commands.append((shlex.split(line[2:]), []))
        else:
            commands[-1][1].append(line)
    (echo, text, redirect, path), shown = commands[0]
    assert (echo, redirect, shown) == ("echo", ">", [])
    Path(path).write_text(text + "\n", encoding="utf-8")
    for argv, shown in commands[1:]:
        assert argv[0] == "alexpoly"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv[1:]) == 0
        assert out.getvalue().splitlines() == shown
    assert [line for _, shown in commands for line in shown] == [
        "polynomial: -4 + 4*t^1",
        "Z class: -4 + 4*t^1",
        "Q class: -1 + 1*t^1",
        "Q-balanced: true",
    ]
