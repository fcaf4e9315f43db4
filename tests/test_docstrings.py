"""Docstring-coverage gate: the public database surfaces stay documented.

Runs the same checker CI uses (``tools/check_docstrings.py``) over the
shared database layer, its backend constructors and the shard /
compact / oracle subsystems, so a missing public docstring fails
locally before it fails the CI gate.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import check_docstrings  # noqa: E402

TARGETS = [
    str(ROOT / "src" / "repro" / "database.py"),
    str(ROOT / "src" / "repro" / "api.py"),
    str(ROOT / "src" / "repro" / "api_directed.py"),
    str(ROOT / "src" / "repro" / "shard"),
    str(ROOT / "src" / "repro" / "compact"),
    str(ROOT / "src" / "repro" / "oracle"),
]


class TestDocstringCoverage:
    def test_facades_and_shard_fully_documented(self, capsys):
        assert check_docstrings.main(TARGETS) == 0
        assert "docstring coverage OK" in capsys.readouterr().out

    def test_checker_detects_missing_docstrings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            '"""Module docstring."""\n'
            "def documented():\n"
            '    """Has one."""\n'
            "def missing():\n"
            "    pass\n"
            "class Thing:\n"
            '    """Doc."""\n'
            "    def also_missing(self):\n"
            "        pass\n"
            "    def _private_is_fine(self):\n"
            "        pass\n"
        )
        assert check_docstrings.main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "function missing" in out
        assert "Thing.also_missing" in out
        assert "_private_is_fine" not in out
