"""The CLI's table writer: columnar CSV against a per-cell reference."""
from __future__ import annotations

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from satqkd.cli import _csv, main

SWEEP_HEADER = "max_elevation_deg,skl_bits,mu,nu,p_mu,p_nu,p_z,min_elevation_deg"


def reference_csv(header: list[str], rows) -> str:
    """One repr per cell, row by row."""
    lines = [",".join(header), *(",".join(repr(v) for v in row) for row in rows)]
    return "\n".join(lines) + "\n"


def _bits(pattern: int) -> float:
    return float(np.array([pattern], dtype=np.uint64).view(np.float64)[0])


# Values whose text is easy to get wrong when cells are shared between rows:
# signed zeros, NaNs with other payloads and signs, infinities, subnormals.
SPECIAL = (
    0.0, -0.0, math.nan, _bits(0x7FF8000000000001), _bits(0xFFF8000000000000),
    math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308, 1.0, 0.1, 1e16,
)


@st.composite
def float_tables(draw):
    n_rows = draw(st.integers(0, 30))
    n_cols = draw(st.integers(1, 6))
    # A short pool per column makes repeated values likely.
    cell = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_subnormal=True))
    columns = []
    for _ in range(n_cols):
        pool = draw(st.lists(cell, min_size=1, max_size=4))
        columns.append(draw(st.lists(st.sampled_from(pool) | cell, min_size=n_rows,
                                     max_size=n_rows)))
    return [f"c{i}" for i in range(n_cols)], columns


@settings(deadline=None)
@given(float_tables())
def test_csv_matches_per_cell_reference(table):
    header, columns = table
    expected = reference_csv(header, zip(*columns))
    assert _csv(header, columns) == expected
    assert _csv(header, [np.array(col) for col in columns]) == expected


def test_csv_reads_record_array_fields():
    """Strided record-array fields, as cmd_budget passes them."""
    columns = [[0.0, -0.0, 0.0, math.nan], [1.5, 1.5, math.inf, 5e-324]]
    table = np.rec.fromarrays([np.array(c) for c in columns], names=["a", "b"])
    assert _csv(["a", "b"], [table["a"], table["b"]]) == reference_csv(["a", "b"], zip(*columns))


def test_empty_table_is_header_line():
    assert _csv(["a", "b"], [[], []]) == "a,b\n"
    assert _csv(["a"], [np.empty(0)]) == "a\n"


def test_sweep_row_at_or_below_cut_is_zero_row(tmp_path):
    """A peak at the 20 deg station cut gives one zero-key row of zeros."""
    argv = ["sweep-elevation", "--scenario", "bundled:snspd_pol_1decoy", "--max-elevations", "20"]
    assert main([*argv, "--out", str(tmp_path / "csv")]) == 0
    text = (tmp_path / "csv" / "sweep_elevation.csv").read_text()
    assert text == f"{SWEEP_HEADER}\n20.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0\n"
    assert main([*argv, "--out", str(tmp_path / "json"), "--format", "json"]) == 0
    rows = json.loads((tmp_path / "json" / "sweep_elevation.json").read_text())
    assert rows == [dict.fromkeys(SWEEP_HEADER.split(","), 0.0) | {"max_elevation_deg": 20.0}]
