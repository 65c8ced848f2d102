#!/usr/bin/env python3
"""satqkd benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload optimize|mc-oracle|pass-scan \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The workload runs in this one process as
a closed loop with one client: the next job starts when the previous one
and its output checks are done. The seed draws one set of jobs; the set
runs in passes, each in a fresh order, until it has run twice and the
timed job work reaches ``--seconds``. Short speed probes (``speed.py``)
run between the jobs, and job times are reported at the reference
machine speed: each is divided by the slowdown the probes near it show.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every
job twice per pass, once plain and once with the layer wrappers of ``tracer.py``
installed, and prints the per-layer metrics; the two copies give the
tracing overhead. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds the provenance. Exits 2 without a result when the satqkd sources
are missing.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 11
MIN_PASSES = 2        # every job runs at least twice
SPEED_PROBE_SHARE = 0.1  # speed probes after a plain job take this share of its time
SPEED_WINDOW_S = 2.0     # a job's time is scaled by the probes this close to it
WALL_LIMIT_S = 140.0  # start no pass that would likely end after this, so a run ends within 180 s

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import MC_THINNING, WORKLOADS, Job  # noqa: E402


class ProgramMissing(RuntimeError):
    pass


def load_program() -> types.SimpleNamespace:
    """Import satqkd from the checkout's own src/ tree."""
    if not (SRC / "satqkd" / "cli.py").is_file():
        raise ProgramMissing(f"satqkd sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy
    import satqkd.channel
    import satqkd.cli
    import satqkd.linkbudget
    import satqkd.optimizer
    import satqkd.scenario

    return types.SimpleNamespace(
        np=numpy, cli=satqkd.cli, channel=satqkd.channel, linkbudget=satqkd.linkbudget,
        optimizer=satqkd.optimizer, scenario=satqkd.scenario,
    )


def load_scenarios(prog) -> dict:
    """The scenario loads every workload does before its first job."""
    return {n: prog.scenario.load_bundled_scenario(n) for n in prog.scenario.bundled_scenario_names()}


# -- layer wrappers ------------------------------------------------------------


def _kernel_counts(args, kwargs, result):
    l_real, aborted = result
    tallies = args[0] if args else kwargs["t"]
    rows = tallies["n_z_mu"].shape[0] if getattr(tallies["n_z_mu"], "ndim", 0) == 2 else 1
    return (int(l_real.size), int(aborted.sum()), int(rows > 1))


# (module, attribute path, span name, counts); each name is the one the
# calling module looks up, so the wrapper sees every call into the layer.
LAYER_TARGETS = (
    ("satqkd.cli", "main", "cli.main", None),
    ("pathlib", "Path.write_text", "cli.write", lambda a, k, r: (r,)),
    ("satqkd.cli", "load_bundled_scenario", "scenario.load", None),
    ("satqkd.cli", "load_scenario", "scenario.load", None),
    ("satqkd.scenario", "synth_pass", "orbit.synth", lambda a, k, r: (len(r.samples),)),
    ("satqkd.optimizer", "synth_pass", "orbit.synth", lambda a, k, r: (len(r.samples),)),
    ("satqkd.cli", "compute_breakdowns", "linkbudget.breakdown", lambda a, k, r: (len(r),)),
    ("satqkd.optimizer", "compute_breakdowns", "linkbudget.breakdown", lambda a, k, r: (len(r),)),
    ("satqkd.cli", "expected_tallies", "channel.tallies", None),
    ("satqkd.optimizer", "expected_tallies", "channel.tallies", None),
    ("satqkd.cli", "monte_carlo_tallies", "channel.mc", lambda a, k, r: (int(r.n_sent),)),
    ("satqkd.cli", "optimize_pass", "optimizer.pass", None),
    ("satqkd.optimizer", "skl_real_arrays", "finitekey.kernel", _kernel_counts),
    ("satqkd.optimizer", "skl_from_tallies", "finitekey.scalar", None),
    ("satqkd.cli", "recover", "relay.recover", lambda a, k, r: (a[1].n_bits,)),
    ("satqkd.relay", "xor_bytes", "relay.xor", lambda a, k, r: (8 * len(a[0]),)),
)

# name -> (unit, better); the order here is the print order.
LAYER_METRICS = {
    "finitekey.kernel_s": ("s/job", "lower"),
    "finitekey.kernel_calls": ("calls/job", "lower"),
    "finitekey.kernel_points": ("points/job", "lower"),
    "finitekey.kernel_points_per_s": ("1/s", "higher"),
    "finitekey.aborted_point_frac": ("fraction", "lower"),
    "optimizer.pass_s": ("s/job", "lower"),
    "optimizer.self_s": ("s/job", "lower"),
    "optimizer.coarse_calls": ("calls/job", "lower"),
    "optimizer.refine_calls": ("calls/job", "lower"),
    "optimizer.refine_gain_frac": ("fraction", "higher"),
    "channel.mc_s": ("s/job", "lower"),
    "channel.mc_pulses": ("pulses/job", "higher"),
    "channel.mc_pulses_per_s": ("1/s", "higher"),
    "channel.tallies_s": ("s/job", "lower"),
    "channel.tallies_calls": ("calls/job", "lower"),
    "finitekey.scalar_s": ("s/job", "lower"),
    "finitekey.scalar_calls": ("calls/job", "lower"),
    "orbit.synth_s": ("s/job", "lower"),
    "orbit.samples": ("samples/job", "lower"),
    "linkbudget.breakdown_s": ("s/job", "lower"),
    "linkbudget.samples": ("samples/job", "lower"),
    "scenario.load_s": ("s/job", "lower"),
    "scenario.loads": ("loads/job", "lower"),
    "relay.xor_s": ("s/job", "lower"),
    "relay.bits_relayed": ("bits/job", "higher"),
    "relay.bits_per_s": ("1/s", "higher"),
    "cli.self_s": ("s/job", "lower"),
    "cli.write_s": ("s/job", "lower"),
    "cli.bytes_written": ("bytes/job", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "check.golden_drift_jobs": ("count", "lower"),
}

END_TO_END_METRICS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "cpu_per_job_s": "s",
    "peak_rss_mb": "MB",
}


# -- the closed loop -----------------------------------------------------------


@dataclass
class Record:
    job: Job
    traced: bool
    start: float = 0.0
    seconds: float = 0.0
    cpu_s: float = 0.0
    errors: list[str] = field(default_factory=list)
    digest: str | None = None
    facts: dict = field(default_factory=dict)


@dataclass
class RunResult:
    records: list[Record]
    passes: int
    golden_drift_jobs: int
    setup_samples: list[tuple[float, float]] = field(default_factory=list)  # (start, seconds)
    speed_probes: list[tuple[float, float]] = field(default_factory=list)  # (start, seconds)


def _digest(out: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        h.update((out / name).read_bytes())
    return h.hexdigest()


def run_loop(workload, seed: int, seconds: float, tracer: Tracer | None = None,
             job_filter=None, golden: dict | None = None, setup_probes: int = 0) -> RunResult:
    """Draw one job set from ``seed`` and run it in passes, each pass in a
    fresh seeded order, until ``MIN_PASSES`` passes are done and the timed
    plain job work reaches ``seconds``. No pass starts that would likely end
    past ``WALL_LIMIT_S``. With a tracer, every job also runs traced, right
    after or before its plain copy in turn, so that drift in the machine's
    speed cancels out of the tracing overhead. Without a tracer, each plain
    job is followed by speed probes (``speed.probe``) that take about
    ``SPEED_PROBE_SHARE`` of its time, so the probes see the same machine
    conditions as the jobs.

    The ``setup_probes`` set-up measurements are spread between the jobs in
    step with the timed work, so that their median, like the job figures,
    samples the machine's slow and fast spells alike.
    """
    rng = random.Random(seed)
    job_root = WORK / "jobs" / f"{workload.name}-{seed}-{os.getpid()}"
    records: list[Record] = []
    first_digest: dict[str, str] = {}
    drifted: set[str] = set()
    golden = golden or {}

    def run_job(job: Job, traced: bool) -> Record:
        rec = Record(job, traced)
        out = job_root / f"job{len(records)}"
        records.append(rec)
        try:
            workload.prepare(job, out)
            if traced:
                tracer.install(LAYER_TARGETS)
            cpu0, t0 = time.process_time(), time.perf_counter()
            rec.start = t0
            try:
                if traced:
                    with tracer.job_span(len(records) - 1):
                        state = workload.execute(job, out)
                else:
                    state = workload.execute(job, out)
            finally:
                rec.seconds = time.perf_counter() - t0
                rec.cpu_s = time.process_time() - cpu0
                if traced:
                    tracer.uninstall()
            rec.errors, rec.facts = workload.check(job, out, state)
            rec.digest = _digest(out, workload.outputs)
        except (Exception, SystemExit) as exc:  # a failed job must not stop the run
            rec.errors.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if rec.digest is not None:
            if first_digest.setdefault(job.key, rec.digest) != rec.digest:
                rec.errors.append("outputs differ from an earlier run of the same job")
            if job.key in golden and golden[job.key] != rec.digest:
                drifted.add(job.key)
        for err in rec.errors:
            print(f"check failed [{job.key}]: {err}", file=sys.stderr)
        return rec

    setup_samples: list[tuple[float, float]] = []
    speed_probes: list[tuple[float, float]] = []
    busy = 0.0

    def probe_speed(job_seconds: float) -> None:
        spent = 0.0
        while spent == 0.0 or spent < SPEED_PROBE_SHARE * job_seconds:
            start = time.perf_counter()
            speed_probes.append((start, speed.probe(workload.prog.np)))
            spent += speed_probes[-1][1]

    def probe_due() -> None:
        share = min(1.0, busy / seconds) if seconds > 0 else 1.0
        while len(setup_samples) < setup_probes * share:
            setup_samples.append((time.perf_counter(), measure_setup()))

    start = time.perf_counter()
    passes = 0
    plain_first = True
    jobs = workload.make_jobs(rng)
    if job_filter:
        jobs = job_filter(jobs)
    while True:
        pass_start = time.perf_counter()
        for job in jobs:
            if tracer is None:
                order = (False,)
            else:
                order = (False, True) if plain_first else (True, False)
                plain_first = not plain_first
            for traced in order:
                rec = run_job(job, traced=traced)
                if not traced:
                    if tracer is None:
                        probe_speed(rec.seconds)
                    busy += rec.seconds
                    probe_due()
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_PASSES and busy >= seconds:
            break
        if now + (now - pass_start) - start > WALL_LIMIT_S:
            break
        jobs = rng.sample(jobs, len(jobs))
    shutil.rmtree(job_root, ignore_errors=True)
    busy = max(busy, seconds)
    probe_due()
    return RunResult(records, passes, len(drifted), setup_samples, speed_probes)


# -- metrics -------------------------------------------------------------------


def end_to_end(result: RunResult) -> tuple[dict, dict, float]:
    """End-to-end figures of the plain job runs, and their median slowdown.

    Each set-up time, job latency and job CPU time is divided by its
    slowdown: the mean time of the speed probes run within
    ``SPEED_WINDOW_S`` of it (or else of the nearest probe) over
    ``speed.REF_S``. They are times at the reference machine speed.
    """
    plain = [r for r in result.records if not r.traced]
    starts = [start for start, _ in result.speed_probes]

    def slowdown(start: float, seconds: float) -> float:
        lo = bisect.bisect_left(starts, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(starts, start + seconds + SPEED_WINDOW_S)
        if lo == hi:
            lo, hi = (lo, lo + 1) if lo < len(starts) else (lo - 1, lo)
        return statistics.fmean(t for _, t in result.speed_probes[lo:hi]) / speed.REF_S

    slowdowns = [slowdown(r.start, r.seconds) for r in plain]
    times = [r.seconds / f for r, f in zip(plain, slowdowns)]
    setup = [t / slowdown(start, t) for start, t in result.setup_samples]
    ok = sum(1 for r in plain if not r.errors)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    values = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": ok / sum(times),
        "job_p50_s": statistics.median(times),
        "job_p90_s": p90,
        "cpu_per_job_s": statistics.fmean(r.cpu_s / f for r, f in zip(plain, slowdowns)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": len(setup),
        "job_p50_s": len(times),
        "job_p90_s": len(times),
        "speed_probes": len(result.speed_probes),
    }
    return values, samples, statistics.median(slowdowns)


def per_layer(result: RunResult, tracer: Tracer) -> dict:
    """Per-layer figures of the traced copies, per traced job."""
    agg = tracer.aggregate()
    traced = [r for r in result.records if r.traced]
    plain = [r for r in result.records if not r.traced]
    n = len(traced)

    def get(span, key="total_s", index=None):
        if span not in tracer.found:
            return None
        entry = agg.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": []})
        if index is None:
            return entry[key]
        return entry["counts"][index] if index < len(entry["counts"]) else 0

    def ratio(a, b):
        if a is None or b is None:
            return None
        return a / b if b else 0.0

    kernel_calls = get("finitekey.kernel", "calls")
    kernel_points = get("finitekey.kernel", index=0)
    coarse = get("finitekey.kernel", index=2)
    gains = [r.facts for r in traced if "final" in r.facts]
    coarse_sum = sum(f["best_coarse"] for f in gains if f["best_coarse"] > 0)
    gain_sum = sum(f["final"] - f["best_coarse"] for f in gains if f["best_coarse"] > 0)
    relayed = get("relay.recover", index=0)

    values = {
        "finitekey.kernel_s": ratio(get("finitekey.kernel"), n),
        "finitekey.kernel_calls": ratio(kernel_calls, n),
        "finitekey.kernel_points": ratio(kernel_points, n),
        "finitekey.kernel_points_per_s": ratio(kernel_points, get("finitekey.kernel")),
        "finitekey.aborted_point_frac": ratio(get("finitekey.kernel", index=1), kernel_points),
        "optimizer.pass_s": ratio(get("optimizer.pass"), n),
        "optimizer.self_s": ratio(get("optimizer.pass", "self_s"), n),
        "optimizer.coarse_calls": ratio(coarse, n),
        "optimizer.refine_calls": ratio(None if coarse is None else kernel_calls - coarse, n),
        "optimizer.refine_gain_frac": ratio(gain_sum, coarse_sum),
        "channel.mc_s": ratio(get("channel.mc"), n),
        "channel.mc_pulses": ratio(get("channel.mc", index=0), n),
        "channel.mc_pulses_per_s": ratio(get("channel.mc", index=0), get("channel.mc")),
        "channel.tallies_s": ratio(get("channel.tallies"), n),
        "channel.tallies_calls": ratio(get("channel.tallies", "calls"), n),
        "finitekey.scalar_s": ratio(get("finitekey.scalar"), n),
        "finitekey.scalar_calls": ratio(get("finitekey.scalar", "calls"), n),
        "orbit.synth_s": ratio(get("orbit.synth"), n),
        "orbit.samples": ratio(get("orbit.synth", index=0), n),
        "linkbudget.breakdown_s": ratio(get("linkbudget.breakdown"), n),
        "linkbudget.samples": ratio(get("linkbudget.breakdown", index=0), n),
        "scenario.load_s": ratio(get("scenario.load"), n),
        "scenario.loads": ratio(get("scenario.load", "calls"), n),
        "relay.xor_s": ratio(get("relay.xor"), n),
        "relay.bits_relayed": ratio(relayed, n),
        "relay.bits_per_s": ratio(relayed, get("relay.xor")),
        "cli.self_s": ratio(get("cli.main", "self_s"), n),
        "cli.write_s": ratio(get("cli.write"), n),
        "cli.bytes_written": ratio(get("cli.write", index=0), n),
        "trace.overhead_frac": sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0,
        "check.golden_drift_jobs": result.golden_drift_jobs,
    }
    return values


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# -- provenance ----------------------------------------------------------------


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "satqkd").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(prog, args, result: RunResult, samples: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": prog.np.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "mc_thinning": float(MC_THINNING),
        "passes": result.passes,
        "percentile_samples": samples,
    }


# -- entry points --------------------------------------------------------------


def setup_probe() -> None:
    """Child-process mode: time a fresh import plus the scenario loads."""
    t0 = time.perf_counter()
    load_scenarios(load_program())
    print(repr(time.perf_counter() - t0))


def measure_setup() -> float:
    """One set-up time, from a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run(args, job_filter=None, setup_probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; prints the diagnostics line and returns the result.
    ``job_filter`` trims the job set, for small runs in the tests."""
    prog = load_program()
    scenarios = load_scenarios(prog)
    workload = WORKLOADS[args.workload](prog, scenarios)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    tracer = Tracer() if args.trace else None
    result = run_loop(workload, args.seed, args.seconds, tracer=tracer, job_filter=job_filter,
                      golden=golden, setup_probes=0 if args.trace else setup_probes)

    attempted = len(result.records)
    failed = sum(1 for r in result.records if r.errors)
    if tracer is None:
        values, samples, slowdown = end_to_end(result)
        metrics = _metrics(values, END_TO_END_METRICS)
    else:
        values = per_layer(result, tracer)
        samples, slowdown = {}, None
        metrics = _metrics(values, {name: unit for name, (unit, _) in LAYER_METRICS.items()})
        tracer.write(WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    diagnostics = {
        "provenance": provenance(prog, args, result, samples),
        "failed_frac": failed / attempted,
        "slowdown": slowdown,
        "check.golden_drift_jobs": result.golden_drift_jobs,
        "absent_targets": tracer.missing if tracer else [],
        "failures": [f"{r.job.key}: {e}" for r in result.records for e in r.errors][:20],
    }
    print(json.dumps(diagnostics, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        if args.setup_probe:
            setup_probe()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        print(json.dumps(run(args)))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
