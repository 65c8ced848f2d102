#!/usr/bin/env python3
"""Say which files differ between two output trees, and how far their numbers moved.

    python3 tools/compare_outputs.py BASE HEAD

BASE and HEAD are directories such as tools/bundled_outputs.py writes. For
each file whose bytes differ it prints one line: the number of numeric cells
that moved, and the largest relative move |head - base| / max(|base|, |head|)
with the cell it is in. Then it prints one indented line per non-numeric
difference: a string, boolean or non-finite number that changed, a cell that
is a number on one side only, or a cell on one side only. A JSON file's
cells are its leaves, named by their path; any other file is read as CSV,
and its cells are named line:column. A file on one side only is listed as
such. Like `diff -rq`, it prints nothing and exits 0 when the trees are the
same, and exits 1 when a file differs.
"""
from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path


def _cells(path: Path) -> dict[str, object]:
    """The file's cells, location to value; numbers are ints or floats."""
    text = path.read_text()
    if path.suffix == ".json":
        cells = {}

        def walk(value, at: str) -> None:
            if isinstance(value, dict) and value:
                for key, item in value.items():
                    walk(item, f"{at}.{key}" if at else key)
            elif isinstance(value, list) and value:
                for i, item in enumerate(value):
                    walk(item, f"{at}[{i}]")
            else:
                cells[at] = value

        walk(json.loads(text), "")
        return cells
    return {f"{line}:{column}": _number(cell)
            for line, row in enumerate(csv.reader(io.StringIO(text)), 1)
            for column, cell in enumerate(row, 1)}


def _number(cell: str):
    """The CSV cell as a float if it reads as one, else the string."""
    try:
        return float(cell)
    except ValueError:
        return cell


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_file(base: Path, head: Path) -> list[str]:
    """The report lines of a file whose bytes differ."""
    old, new = _cells(base), _cells(head)
    moved, largest, where, other = 0, 0.0, None, []
    for at in dict.fromkeys([*old, *new]):
        a, b = old.get(at, "<absent>"), new.get(at, "<absent>")
        if repr(a) == repr(b):  # also NaN against NaN
            continue
        if _is_number(a) and type(a) is type(b) and math.isfinite(a) and math.isfinite(b):
            moved += 1
            rel = abs(b - a) / max(abs(a), abs(b)) if a or b else 0.0
            if rel > largest or where is None:
                largest, where = rel, at
        else:
            other.append(f"  {at}: {a!r} -> {b!r}")
    line = f"{moved} numeric cells moved"
    if moved:
        line += f", largest relative move {largest:.3g} at {where}"
    return [line, *other]


def compare_trees(base: Path, head: Path) -> list[str]:
    """Report lines for every file that differs between the two trees."""
    files = sorted({p.relative_to(root) for root in (base, head) for p in root.rglob("*") if p.is_file()})
    lines = []
    for name in files:
        a, b = base / name, head / name
        if not a.is_file() or not b.is_file():
            lines.append(f"{name}: only in {base if a.is_file() else head}")
        elif a.read_bytes() != b.read_bytes():
            first, *rest = compare_file(a, b)
            lines += [f"{name}: {first}", *rest]
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: compare_outputs.py BASE HEAD")
    report = compare_trees(Path(sys.argv[1]), Path(sys.argv[2]))
    print("\n".join(report), end="\n" if report else "")
    sys.exit(1 if report else 0)
