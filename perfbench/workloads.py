"""The three benchmark workloads and the output checks of their jobs.

A workload turns a seeded ``random.Random`` into the set of jobs of a run
(``make_jobs``). Sets are built so that every seed gives the same mix of
work: ``optimize`` runs each bundled scenario once, ``mc-oracle`` each
scenario with one MC seed, and ``pass-scan`` a fixed grid of generated passes
with stratified time steps. Run-to-run spread then comes from the machine,
not from the draw.

Each job has a ``key`` naming its inputs: two runs of one key must write
byte-identical outputs. ``prepare`` (untimed) writes generated inputs,
``execute`` (timed) drives the CLI in this process, and ``check``
(untimed) returns the list of failed checks plus facts for the metrics.
The checks hold for any correct version of the program.
"""
from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

MC_THINNING = "1e4"
MC_SEEDS = 16              # a job's MC seed is one of 0, ..., 15
SCAN_GRIDS = 2             # pass-scan grids per set: 162 jobs, enough for a p90
TALLY_SIGMAS = 5.0
RELAY_CAP_BITS = 1 << 20
ALTITUDE_KM = (400.0, 900.0)
PEAK_ELEVATION_DEG = (30.0, 90.0)
SAMPLE_DT_S = (0.1, 2.0)

TALLY_FIELDS = (
    "n_z_mu", "n_z_nu", "n_z_vac", "n_x_mu", "n_x_nu", "n_x_vac",
    "m_z_mu", "m_z_nu", "m_z_vac", "m_x_mu", "m_x_nu", "m_x_vac",
)
TRACE_PARAMS = ("mu", "nu", "p_mu", "p_nu", "p_z", "min_elevation_deg")


@dataclass
class Job:
    key: str
    params: dict = field(default_factory=dict)


def _json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _num(cell: str) -> float:
    """A trace cell: a float repr, or a numpy scalar repr such as np.float64(0.5)."""
    return float(cell[cell.index("(") + 1:-1]) if cell.endswith(")") else float(cell)


def _cli(prog, *argv) -> int:
    return prog.cli.main([str(a) for a in argv])


class Optimize:
    """``satqkd optimize`` on every bundled scenario, in seeded order."""

    name = "optimize"
    outputs = ("optimize.json", "optimize_trace.csv")

    def __init__(self, prog, scenarios: dict) -> None:
        self.prog = prog
        self.scenarios = scenarios

    def make_jobs(self, rng) -> list[Job]:
        names = sorted(self.scenarios)
        rng.shuffle(names)
        return [Job(f"optimize:{n}", {"scenario": n}) for n in names]

    def prepare(self, job: Job, out: Path) -> None:
        pass

    def execute(self, job: Job, out: Path) -> dict:
        return {"rc": _cli(self.prog, "optimize", "--scenario", f"bundled:{job.params['scenario']}",
                           "--out", out)}

    def check(self, job: Job, out: Path, state: dict) -> tuple[list[str], dict]:
        return check_optimize(self.prog, self.scenarios[job.params["scenario"]], out, state["rc"])


def check_optimize(prog, scenario, out: Path, rc: int) -> tuple[list[str], dict]:
    """Returned key length re-evaluates exactly; the final trace row is at
    least the best coarse row and carries the returned parameters."""
    errors = []
    doc = _json(out / "optimize.json")
    if rc != (3 if doc["aborted"] else 0):
        errors.append(f"exit code {rc} with aborted={doc['aborted']}")
    params = prog.optimizer.ParamVector(**doc["params"])
    ref = prog.optimizer.evaluate_params(
        scenario.synth_pass(), scenario.hardware(), scenario.security, scenario.n_decoys, params
    )
    if ref.skl_bits != doc["skl_bits"]:
        errors.append(f"skl_bits {doc['skl_bits']} but evaluate_params gives {ref.skl_bits}")

    with open(out / doc["trace"]) as fh:
        header = fh.readline().rstrip("\n").split(",")
        value_col = header.index("skl_real")
        best_coarse = -math.inf
        final = None
        for line in fh:
            cells = line.rstrip("\n").split(",")
            if cells[0] == "coarse":
                best_coarse = max(best_coarse, _num(cells[value_col]))
            elif cells[0] == "final":
                final = cells
    if final is None or best_coarse == -math.inf:
        errors.append("trace lacks a coarse or a final row")
        return errors, {}
    final_value = _num(final[value_col])
    if final_value < best_coarse:
        errors.append(f"final trace value {final_value!r} below best coarse {best_coarse!r}")
    for name in TRACE_PARAMS:
        if name in header and _num(final[header.index(name)]) != doc["params"][name]:
            errors.append(f"final trace row {name}={final[header.index(name)]} differs from result")
    return errors, {"best_coarse": best_coarse, "final": final_value}


class McOracle:
    """``satqkd mc-validate`` at thinning 1e4 on seeded (scenario, MC seed) pairs.

    A set runs every bundled scenario with one MC seed.
    """

    name = "mc-oracle"
    outputs = ("mc_validate.json",)

    def __init__(self, prog, scenarios: dict) -> None:
        self.prog = prog
        self.scenarios = scenarios
        self._expected: dict[str, object] = {}

    def make_jobs(self, rng) -> list[Job]:
        """Each bundled scenario with one seed drawn from range(MC_SEEDS)."""
        jobs = []
        for n in sorted(self.scenarios):
            seed = rng.randrange(MC_SEEDS)
            jobs.append(Job(f"mc-oracle:{n}:{seed}", {"scenario": n, "seed": seed}))
        rng.shuffle(jobs)
        return jobs

    def prepare(self, job: Job, out: Path) -> None:
        pass

    def execute(self, job: Job, out: Path) -> dict:
        rc = _cli(self.prog, "mc-validate", "--scenario", f"bundled:{job.params['scenario']}",
                  "--seeds", 1, "--seed", job.params["seed"],
                  "--thinning", MC_THINNING, "--out", out)
        return {"rc": rc}

    def expected(self, name: str):
        """Analytic tallies per seed at the workload's thinning."""
        if name not in self._expected:
            sc = self.scenarios[name]
            geometry = sc.synth_pass()
            breakdowns = self.prog.linkbudget.compute_breakdowns(
                geometry, sc.transmitter, sc.receiver, sc.atmosphere
            )
            tallies = self.prog.channel.expected_tallies(
                geometry, breakdowns, sc.source, sc.detector, sc.station.min_elevation_deg
            )
            self._expected[name] = tallies.scaled(1.0 / float(MC_THINNING))
        return self._expected[name]

    def check(self, job: Job, out: Path, state: dict) -> tuple[list[str], dict]:
        scenario = self.scenarios[job.params["scenario"]]
        return check_mc(
            _json(out / "mc_validate.json"), state["rc"], self.expected(job.params["scenario"]),
            scenario.source.vacuum_included, job.params["seed"],
        ), {}


def check_mc(doc: dict, rc: int, expected, vacuum: bool, seed: int) -> list[str]:
    """Every tally field, pooled over the job's seeds (one here), within
    5 sigma of the expected tallies. Exit code 2 is mc-validate's own 3-sigma verdict
    over up to 36 checks, which a healthy job trips by chance; it is not a
    failure here."""
    errors = []
    if rc not in (0, 2):
        errors.append(f"exit code {rc}")
    seeds = [r["seed"] for r in doc["results"]]
    if seeds != [seed]:
        errors.append(f"results for seeds {seeds}")
    for name in TALLY_FIELDS:
        if name.endswith("_vac") and not vacuum:
            continue
        observed = sum(r["checks"][name]["observed"] for r in doc["results"])
        mean = len(seeds) * getattr(expected, name)
        z = (observed - mean) / math.sqrt(max(mean, 1.0))
        if abs(z) > TALLY_SIGMAS:
            errors.append(f"{name}: pooled {observed} vs expected {mean:.6g} (z={z:.2f})")
    return errors


class PassScan:
    """Many short jobs on generated scenarios: budget, skl, relay-demo."""

    name = "pass-scan"
    outputs = ("budget.csv", "skl.json", "relay_demo.json")

    def __init__(self, prog, scenarios: dict) -> None:
        self.prog = prog
        self.scenarios = scenarios

    def make_jobs(self, rng) -> list[Job]:
        """SCAN_GRIDS x n x 9 jobs for n templates: each grid puts each
        template on every cell of a 3 x 3 grid of altitude and peak elevation
        (cell centres), with the time step drawn log-uniformly inside one of
        9 strata of [0.1, 2] s.

        In each grid every template meets every time-step stratum once, and
        so does every grid cell, so all sets carry the same mix of work and the
        same set of passes that abort; the seed picks the time steps, the job
        order and the relay keys.
        """
        names = sorted(self.scenarios)
        (a_lo, a_hi), (e_lo, e_hi), (dt_lo, dt_hi) = ALTITUDE_KM, PEAK_ELEVATION_DEG, SAMPLE_DT_S
        jobs = []
        for _ in range(SCAN_GRIDS):
            offset = rng.randrange(9)
            for i, name in enumerate(names):
                for cell in range(9):
                    stratum = (cell + i + offset) % 9
                    params = {
                        "template": name,
                        "altitude_km": a_lo + (a_hi - a_lo) * (cell // 3 + 0.5) / 3,
                        "peak_deg": e_lo + (e_hi - e_lo) * (cell % 3 + 0.5) / 3,
                        "dt_s": round(dt_lo * (dt_hi / dt_lo) ** ((stratum + rng.random()) / 9), 4),
                        "relay_seed": rng.randrange(2**31),
                    }
                    key = "pass-scan:" + ":".join(str(v) for v in params.values())
                    jobs.append(Job(key, params))
        rng.shuffle(jobs)
        return jobs

    def prepare(self, job: Job, out: Path) -> None:
        p = job.params
        doc = copy.deepcopy(self.scenarios[p["template"]].raw)
        doc["name"] = f"scan_{p['template']}"
        doc["orbit"]["altitude_km"] = p["altitude_km"]
        doc["station"]["max_elevation_deg"] = p["peak_deg"]
        doc["sample_dt_s"] = p["dt_s"]
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "scenario.json", "w") as fh:
            json.dump(doc, fh, indent=2)

    def execute(self, job: Job, out: Path) -> dict:
        scenario = out / "scenario.json"
        rc_budget = _cli(self.prog, "budget", "--scenario", scenario, "--out", out)
        rc_skl = _cli(self.prog, "skl", "--scenario", scenario, "--out", out)
        skl_bits = _json(out / "skl.json")["skl_bits"]
        n_bits = min(RELAY_CAP_BITS, max(8, skl_bits // 8 * 8))
        rc_relay = _cli(self.prog, "relay-demo", "--lengths", n_bits,
                        "--seed", job.params["relay_seed"], "--out", out)
        return {"rc": (rc_budget, rc_skl, rc_relay), "n_bits": n_bits}

    def check(self, job: Job, out: Path, state: dict) -> tuple[list[str], dict]:
        rc_budget, rc_skl, rc_relay = state["rc"]
        errors = []
        if rc_budget != 0:
            errors.append(f"budget exit code {rc_budget}")
        aborted = _json(out / "skl.json")["aborted"]
        if rc_skl != (3 if aborted else 0):
            errors.append(f"skl exit code {rc_skl} with aborted={aborted}")
        if rc_relay != 0:
            errors.append(f"relay-demo exit code {rc_relay}")
        with open(out / "budget.csv") as fh:
            errors += check_budget(fh.read())
        errors += check_relay(self.prog.np, _json(out / "relay_demo.json"), state["n_bits"],
                              job.params["relay_seed"])
        return errors, {}


def check_budget(text: str) -> list[str]:
    """Each row's total_db equals the sum of its dB terms."""
    lines = text.splitlines()
    header = lines[0].split(",")
    first = header.index("slant_range_km") + 1
    total_col = header.index("total_db")
    if len(lines) < 2:
        return ["budget has no rows"]
    for line in lines[1:]:
        cells = [float(v) for v in line.split(",")]
        terms = sum(cells[first:total_col])
        if not math.isclose(terms, cells[total_col], rel_tol=1e-12, abs_tol=1e-9):
            return [f"budget row t={cells[0]}: total_db {cells[total_col]!r} != sum {terms!r}"]
    return []


def check_relay(np, doc: dict, n_bits: int, seed: int) -> list[str]:
    """The broadcast is the XOR of the two keys relay-demo draws from
    PCG64(seed), recovery is exact, and 2n bits are consumed with none left."""
    errors = []
    (entry,) = doc["transcript"]
    if entry["n_bits"] != n_bits:
        errors.append(f"relayed {entry['n_bits']} bits, asked for {n_bits}")
    rng = np.random.Generator(np.random.PCG64(seed))
    k_a = np.frombuffer(rng.bytes(n_bits // 8), dtype=np.uint8)
    k_b = np.frombuffer(rng.bytes(n_bits // 8), dtype=np.uint8)
    if entry["payload_hex"] != (k_a ^ k_b).tobytes().hex():
        errors.append("relay payload is not k_a xor k_b")
    if not (entry["recovered_equals_k_a"] and doc["round_trip_ok"]):
        errors.append("relay round trip failed")
    if (doc["consumed_bits"], doc["delivered_bits"], doc["residual_secret_bits"]) != (
        2 * n_bits, n_bits, 0
    ):
        errors.append(
            f"relay accounting consumed={doc['consumed_bits']} delivered={doc['delivered_bits']} "
            f"residual={doc['residual_secret_bits']}"
        )
    return errors


WORKLOADS = {w.name: w for w in (Optimize, McOracle, PassScan)}
