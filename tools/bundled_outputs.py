#!/usr/bin/env python3
"""Write the outputs of every deterministic CLI command on the bundled scenarios.

    python3 tools/bundled_outputs.py OUT_DIR

Runs `pass`, `budget`, `skl`, `optimize` and `mc-validate --thinning 1e4
--seeds 2` on each bundled scenario into OUT_DIR/<scenario>/<command>/,
`sweep-elevation` (default peaks) on SWEEP_SCENARIOS, which span both decoy
counts and both encodings, and `relay-demo` once, and lists each command's
exit code in OUT_DIR/exit_codes.txt. It imports satqkd from the src/ tree of
the checkout it sits in, so `diff -r` of the directories written by two
checkouts shows every output a change moved.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from satqkd.cli import main  # noqa: E402
from satqkd.scenario import bundled_scenario_names  # noqa: E402

PER_SCENARIO = (
    ("pass",),
    ("budget",),
    ("skl",),
    ("optimize",),
    ("mc-validate", "--thinning", "1e4", "--seeds", "2"),
)
SWEEP_SCENARIOS = ("snspd_pol_2decoy", "spcm_tb_2decoy", "idqube_pol_1decoy")


def write_outputs(out: Path) -> None:
    runs = [
        (f"{name}/{command}", [command, "--scenario", f"bundled:{name}", *flags])
        for name in bundled_scenario_names()
        for command, *flags in PER_SCENARIO
    ]
    runs += [(f"{name}/sweep-elevation", ["sweep-elevation", "--scenario", f"bundled:{name}"])
             for name in SWEEP_SCENARIOS]
    runs.append(("relay-demo", ["relay-demo"]))
    codes = []
    for sub_dir, argv in runs:
        codes.append(f"{sub_dir} {main([*argv, '--out', str(out / sub_dir)])}\n")
    (out / "exit_codes.txt").write_text("".join(codes))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: bundled_outputs.py OUT_DIR")
    write_outputs(Path(sys.argv[1]))
