"""A cold start of the command line loads no ``typing``.

The package imports its annotation names from ``collections.abc``, and
``from __future__ import annotations`` never evaluates the rest.  Python
runs with -S, so that no ``.pth`` file of site-packages imports ``typing``
first.
"""
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_and_run_load_no_typing():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from alexpoly import cli\n"
        "assert cli.main(['canon', '--ring', 'Z', '1 + 2*t^1']) == 0\n"
        "print('typing' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["canonical: 1 + 2*t^1", "False"]
