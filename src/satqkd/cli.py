"""Command-line driver: scenario files in, CSV/JSON tables out.

Every command is a deterministic batch job: the same scenario file (and,
for mc-validate and relay-demo, the same seed) produce byte-identical
output files. Exit codes: 0 success; 1 an internal error, with a traceback
(an untyped exception such as a bare ValueError is a bug, not bad input);
2 bad input (a typed input error or an unreadable file, named on stderr) or
a failed check (mc-validate outside 3 sigma, a relay round trip that does
not recover the key); 3 aborted-key outcome.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .channel import TALLY_FIELDS, ChannelError, expected_tallies, monte_carlo_tallies
from .finitekey import FiniteKeyError
from .linkbudget import LinkBudgetError, compute_breakdowns
from .optimizer import (
    OptimizerError, ParamVector, evaluate_params, optimize_pass, sweep_max_elevation,
)
from .orbit import GeometryError
from .relay import KeyStore, RelayError, recover
from .scenario import Scenario, ScenarioError, load_bundled_scenario, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ABORTED = 3

# The input errors that end a command with EXIT_VALIDATION and a one-line
# message; any other exception is a bug and ends with a traceback.
INPUT_ERRORS = (ScenarioError, ChannelError, LinkBudgetError, OptimizerError, FiniteKeyError,
                GeometryError, RelayError, OSError)


def _flag_items(text: str, flag: str, parse) -> list:
    """The comma-separated items of a list flag, each read with parse."""
    try:
        items = [parse(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ScenarioError(f"{flag} items must be numbers, got {text!r}") from None
    if not items:
        raise ScenarioError(f"{flag} needs at least one item")
    return items


def _load(ref: str) -> Scenario:
    if ref.startswith("bundled:"):
        return load_bundled_scenario(ref.removeprefix("bundled:"))
    return load_scenario(ref)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv(header: list[str], columns) -> str:
    """CSV of float columns, each distinct value of a column formatted once
    with repr; values are told apart by their bits, so 0.0, -0.0 and NaN
    payloads keep their own text."""
    cells = []
    for col in columns:
        bits, inverse = np.unique(np.asarray(col, np.float64).view(np.int64), return_inverse=True)
        cells.append(np.array(list(map(repr, bits.view(np.float64).tolist())), object)[inverse])
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def _table(args, name: str, header: list[str], columns) -> dict[str, str]:
    """The file of a table given as one float column per header name."""
    if args.format == "json":
        rows = zip(*(np.asarray(col, np.float64).tolist() for col in columns))
        return {f"{name}.json": _json_text([dict(zip(header, row)) for row in rows])}
    return {f"{name}.csv": _csv(header, columns)}


def cmd_pass(args):
    scenario = _load(args.scenario)
    samples = scenario.synth_pass().samples
    header = list(samples.dtype.names)
    return scenario, _table(args, "pass", header, [samples[f] for f in header]), EXIT_OK


def cmd_budget(args):
    scenario = _load(args.scenario)
    pass_geometry = scenario.synth_pass()
    breakdowns = compute_breakdowns(
        pass_geometry, scenario.transmitter, scenario.receiver, scenario.atmosphere
    )
    fields = [(table, f) for table in (pass_geometry.samples, breakdowns) for f in table.dtype.names]
    files = _table(args, "budget", [f for _, f in fields], [table[f] for table, f in fields])
    return scenario, files, EXIT_OK


def _params_from_args(args, scenario: Scenario) -> ParamVector:
    src = scenario.source
    return ParamVector(
        mu=args.mu if args.mu is not None else src.signal_intensity,
        nu=args.nu if args.nu is not None else src.decoy_intensity,
        p_mu=args.p_mu if args.p_mu is not None else src.p_mu,
        p_nu=args.p_nu if args.p_nu is not None else src.p_nu,
        p_z=args.p_z if args.p_z is not None else src.p_z_alice,
        min_elevation_deg=(
            args.min_elevation
            if args.min_elevation is not None
            else scenario.station.min_elevation_deg
        ),
    )


def _key_doc(params: ParamVector, result, n_decoys: int) -> dict:
    """The key-length document of skl and optimize."""
    return {
        "params": asdict(params),
        "skl_bits": result.skl_bits,
        "lambda_ec_bits": result.lambda_ec_bits,
        "aborted": result.aborted,
        "diagnostics": result.diagnostics,
        "n_decoys": n_decoys,
    }


def cmd_skl(args):
    scenario = _load(args.scenario)
    params = _params_from_args(args, scenario)
    result = evaluate_params(
        scenario.synth_pass(), scenario.hardware(), scenario.security,
        scenario.n_decoys, params,
    )
    files = {"skl.json": _json_text(_key_doc(params, result, scenario.n_decoys))}
    return scenario, files, EXIT_ABORTED if result.aborted else EXIT_OK


def cmd_optimize(args):
    scenario = _load(args.scenario)
    # optimize_pass writes the trace itself, so --out must exist first.
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "optimize_trace.csv"
    params, result = optimize_pass(
        scenario.synth_pass(), scenario.hardware(), scenario.security,
        scenario.n_decoys, scenario.optimizer, trace_path=trace_path,
    )
    doc = {**_key_doc(params, result, scenario.n_decoys), "trace": trace_path.name}
    files = {"optimize.json": _json_text(doc), trace_path.name: None}
    return scenario, files, EXIT_ABORTED if result.aborted else EXIT_OK


def cmd_sweep_elevation(args):
    scenario = _load(args.scenario)
    max_elevations = _flag_items(args.max_elevations, "--max-elevations", float)
    if not all(0.0 < x <= 90.0 for x in max_elevations):
        raise ScenarioError(f"--max-elevations items must be in (0, 90], got {args.max_elevations!r}")
    rows_raw = sweep_max_elevation(
        scenario.orbit, scenario.station.min_elevation_deg, max_elevations,
        scenario.hardware(), scenario.security, scenario.n_decoys,
        scenario.optimizer, scenario.sample_dt_s,
    )
    header = ["max_elevation_deg", "skl_bits", "mu", "nu", "p_mu", "p_nu", "p_z", "min_elevation_deg"]
    columns = [[row.get(h, 0.0) for row in rows_raw] for h in header]
    return scenario, _table(args, "sweep_elevation", header, columns), EXIT_OK


def cmd_mc_validate(args):
    if args.seeds < 1:
        raise ScenarioError(f"--seeds must be >= 1, got {args.seeds}")
    if not 1.0 <= args.thinning < math.inf:
        raise ScenarioError(f"--thinning must be a finite number >= 1, got {args.thinning}")
    scenario = _load(args.scenario)
    pass_geometry = scenario.synth_pass()
    breakdowns = compute_breakdowns(
        pass_geometry, scenario.transmitter, scenario.receiver, scenario.atmosphere
    )
    thinning = args.thinning
    source = scenario.source
    det = scenario.detector
    min_elev = scenario.station.min_elevation_deg
    expected = expected_tallies(pass_geometry, breakdowns, source, det, min_elev).scaled(
        1.0 / thinning
    )
    fields = [f for f in TALLY_FIELDS if source.vacuum_included or not f.endswith("_vac")]
    per_seed = []
    all_ok = True
    for i in range(args.seeds):
        seed = args.seed + i
        mc = monte_carlo_tallies(
            seed, pass_geometry, breakdowns, source, det, min_elev, thinning=thinning
        )
        checks = {}
        for name in fields:
            exp = getattr(expected, name)
            got = getattr(mc, name)
            sigma = max(exp, 1.0) ** 0.5
            z = (got - exp) / sigma
            checks[name] = {"expected": exp, "observed": got, "z": z, "ok": abs(z) <= 3.0}
            all_ok = all_ok and abs(z) <= 3.0
        per_seed.append({"seed": seed, "checks": checks})
    doc = {
        "thinning": thinning,
        "n_seeds": args.seeds,
        "all_within_3_sigma": all_ok,
        "results": per_seed,
    }
    return scenario, {"mc_validate.json": _json_text(doc)}, EXIT_OK if all_ok else EXIT_VALIDATION


def cmd_relay_demo(args):
    lengths = _flag_items(args.lengths, "--lengths", int)
    if any(n <= 0 or n % 8 for n in lengths):
        raise ScenarioError(f"--lengths items must be positive multiples of 8 bits, got {args.lengths!r}")
    rng = np.random.Generator(np.random.PCG64(args.seed))
    store = KeyStore()
    transcript = []
    all_ok = True
    for n_bits in lengths:
        k_a = rng.bytes(n_bits // 8)
        k_b = rng.bytes(n_bits // 8)
        id_a = store.store_key("alice", k_a)
        id_b = store.store_key("bob", k_b)
        message = store.combine_and_broadcast(id_a, id_b)
        recovered = recover(k_b, message)
        ok = recovered == k_a
        all_ok = all_ok and ok
        transcript.append(
            {
                "n_bits": n_bits,
                "key_id_a": id_a,
                "key_id_b": id_b,
                "payload_hex": message.payload.hex(),
                "recovered_equals_k_a": ok,
            }
        )
    doc = {
        "transcript": transcript,
        "consumed_bits": store.consumed_bits,
        "delivered_bits": store.delivered_bits,
        "residual_secret_bits": store.residual_secret_bits(),
        "round_trip_ok": all_ok,
    }
    return None, {"relay_demo.json": _json_text(doc)}, EXIT_OK if all_ok else EXIT_VALIDATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls, and rebuilding the tree on every main() call costs
    about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="satqkd",
        description="Satellite QKD mission analysis: passes, link budgets, finite-key rates.",
    )
    parser.add_argument("--version", action="version", version=f"satqkd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True, seeded=False, tabular=False):
        if scenario:
            p.add_argument("--scenario", required=True,
                           help="scenario JSON path, or bundled:<name>")
        if seeded:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".", help="output directory")
        if tabular:
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("pass", help="Elevation/range time series of the pass.")
    common(p, tabular=True)
    p.set_defaults(func=cmd_pass)

    p = sub.add_parser("budget", help="Per-sample link budget breakdown.")
    common(p, tabular=True)
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("skl", help="Secure key length at fixed protocol parameters.")
    common(p)
    for flag in ("--mu", "--nu", "--p-mu", "--p-nu", "--p-z", "--min-elevation"):
        p.add_argument(flag, type=float, default=None)
    p.set_defaults(func=cmd_skl)

    p = sub.add_parser("optimize", help="Whole-pass protocol parameter optimization.")
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sweep-elevation", help="Optimized SKL vs pass peak elevation.")
    common(p, tabular=True)
    p.add_argument("--max-elevations", default="30,40,50,60,70,80,90",
                   help="comma-separated peak elevations in degrees")
    p.set_defaults(func=cmd_sweep_elevation)

    p = sub.add_parser("mc-validate", help="Monte Carlo vs expected tallies, 3-sigma check.")
    common(p, seeded=True)
    p.add_argument("--seeds", type=int, default=10, help="number of Monte Carlo seeds")
    p.add_argument("--thinning", type=float, default=1e5,
                   help="pulse thinning factor for desk-scale runs")
    p.set_defaults(func=cmd_mc_validate)

    p = sub.add_parser("relay-demo", help="Trusted-node XOR relay round trip.")
    common(p, scenario=False, seeded=True)
    p.add_argument("--lengths", default="1024,4096",
                   help="comma-separated key lengths in bits (multiples of 8)")
    p.set_defaults(func=cmd_relay_demo)

    return parser


def _write_outputs(args, scenario: Scenario | None, files: dict[str, str | None]) -> None:
    """Write what a command returned besides its exit code: its files into
    --out in their order, skipping those mapped to None (the command wrote
    them itself), then report.json, which lists them all."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        if text is not None:
            (out_dir / name).write_text(text)
    (out_dir / "report.json").write_text(_json_text({
        "command": args.command,
        "outputs": sorted(files),
        "scenario_digest": scenario.digest() if scenario else None,
        "scenario_name": scenario.name if scenario else None,
        "seed": getattr(args, "seed", None),  # mc-validate and relay-demo
        "toolkit_version": __version__,
    }))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # mc-validate and relay-demo
            raise ScenarioError(f"--seed must be >= 0, got {args.seed}")
        scenario, files, code = args.func(args)
        _write_outputs(args, scenario, files)
        return code
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
