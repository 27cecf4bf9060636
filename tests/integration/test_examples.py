"""Examples whose output is deterministic print exactly their golden files."""

import contextlib
import io
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DATA = Path(__file__).resolve().parent / "data"


def test_mincost_exploration_prints_its_golden_output():
    """The three zoom levels, the hypertree and the replayed link failure
    (``0.04s -> 0.06s``), byte for byte."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / "examples" / "mincost_exploration.py"), run_name="__main__")
    assert out.getvalue() == (DATA / "mincost_exploration.txt").read_text(encoding="utf-8")
