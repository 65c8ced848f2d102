"""tools/compare_outputs.py: the report on two output trees."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOL_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_equal_trees_give_no_report(tmp_path):
    files = {"a/skl.json": '{"x": 1.5}\n', "exit_codes.txt": "a/skl 0\n"}
    base, head = _tree(tmp_path / "base", files), _tree(tmp_path / "head", files)
    assert _tool().compare_trees(base, head) == []


def test_report_counts_moves_and_lists_other_differences(tmp_path):
    doc = {"params": {"mu": 0.5}, "diagnostics": {"l_real": 100.0, "s": [1.0, 2.0]}, "aborted": False}
    moved = {"params": {"mu": 0.5}, "diagnostics": {"l_real": 100.5, "s": [1.0, 2.002]}, "aborted": True}
    base = _tree(tmp_path / "base", {
        "x/skl.json": json.dumps(doc), "x/trace.csv": "stage,v\ncoarse,1.0\n", "gone.txt": "",
    })
    head = _tree(tmp_path / "head", {
        "x/skl.json": json.dumps(moved), "x/trace.csv": "stage,v\nfinal,1.0\n", "new.txt": "",
    })
    assert _tool().compare_trees(base, head) == [
        f"gone.txt: only in {base}",
        f"new.txt: only in {head}",
        "x/skl.json: 2 numeric cells moved, largest relative move 0.00498 at diagnostics.l_real",
        "  aborted: False -> True",
        "x/trace.csv: 0 numeric cells moved",
        "  2:1: 'coarse' -> 'final'",
    ]
