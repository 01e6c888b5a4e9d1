"""The bundled scripts' printed reports."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_random_survey_report(monkeypatch, capsys):
    # The census of the closure case analysis over 2,000 random systems:
    # any change to a dispatch decision or a certification moves a count.
    monkeypatch.setattr(
        sys, "argv", ["random_survey.py", "--count", "2000", "--seed", "0"]
    )
    runpy.run_path(str(ROOT / "scripts" / "random_survey.py"), run_name="__main__")
    expected = (ROOT / "tests" / "random_survey_count2000_seed0.txt").read_text()
    assert capsys.readouterr().out == expected
