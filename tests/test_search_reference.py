"""The default whole-pass search against the stored reference search.

tests/search_reference.json holds the key per pass that
`tools/search_corpus.py --reference` finds on the tool's 23-pass corpus, with
a search far wider than the default. The default search must land within
GAP of it on every pass.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("search_reference.json")
TOOL_PATH = Path(__file__).resolve().parent.parent / "tools" / "search_corpus.py"
GAP = 1e-3


def _search_corpus():
    spec = importlib.util.spec_from_file_location("search_corpus", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_search_is_within_gap_of_the_reference_on_every_pass():
    reference = json.loads(REFERENCE_PATH.read_text())
    keys = _search_corpus().key_per_pass()
    assert keys.keys() == reference.keys()
    gaps = {name: keys[name] / reference[name] - 1.0 for name in reference}
    short = {name: f"{100 * gap:+.3f}%" for name, gap in gaps.items() if gap < -GAP}
    assert not short
