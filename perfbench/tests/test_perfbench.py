"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest perfbench/tests -q

Small runs keep each workload to one or a few cheap jobs per pass.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

PROG = run.load_program()
SCENARIOS = run.load_scenarios(PROG)

ONE_JOB = {
    "optimize": lambda jobs: [j for j in jobs if j.params["scenario"] == "snspd_pol_1decoy"],
    "mc-oracle": lambda jobs: jobs[:1],
    "pass-scan": lambda jobs: [j for j in jobs if j.params["template"] == "snspd_pol_2decoy"],
}


def _one_job_loop(name, seed=3, tracer=None, job_filter=None):
    workload = workloads.WORKLOADS[name](PROG, SCENARIOS)
    return run.run_loop(workload, seed, 0.0, tracer=tracer,
                        job_filter=job_filter or ONE_JOB[name])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_run_prints_every_metric_with_unit(name, trace, monkeypatch, capsys):
    args = argparse.Namespace(workload=name, seed=5, seconds=0.0, trace=trace)
    result = run.run(args, job_filter=ONE_JOB[name], setup_probes=1)
    diagnostics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = (
        {n: u for n, (u, _) in run.LAYER_METRICS.items()} if trace else run.END_TO_END_METRICS
    )
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert diagnostics["failed_frac"] == 0.0
    prov = diagnostics["provenance"]
    for key in ("nproc", "python", "numpy", "git_commit", "seed", "mc_thinning", "percentile_samples"):
        assert key in prov
    if not trace:
        assert prov["percentile_samples"]["job_p50_s"] >= 1
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layer_counts_repeat_exactly():
    """A 2-decoy pass makes 4,257 kernel calls over 2,008,669 points, every run."""
    only = lambda jobs: [j for j in jobs if j.params["scenario"] == "snspd_pol_2decoy"]  # noqa: E731
    seen = []
    for seed in (1, 2):
        tracer = Tracer()
        result = _one_job_loop("optimize", seed, tracer=tracer, job_filter=only)
        layers = run.per_layer(result, tracer)
        seen.append({k: layers[k] for k in (
            "finitekey.kernel_calls", "finitekey.kernel_points", "optimizer.coarse_calls",
            "optimizer.refine_calls", "orbit.samples", "cli.bytes_written",
        )})
    assert seen[0] == seen[1]
    assert seen[0]["finitekey.kernel_calls"] == 4257
    assert seen[0]["finitekey.kernel_points"] == 2_008_669
    assert seen[0]["optimizer.coarse_calls"] == 4096


def test_changed_trace_value_fails(monkeypatch):
    original = PROG.cli.optimize_pass

    def corrupt(*args, trace_path=None, **kwargs):
        out = original(*args, trace_path=trace_path, **kwargs)
        lines = Path(trace_path).read_text().splitlines()
        stage, *cells = lines[1].split(",")
        cells[-1] = "1e30"
        lines[1] = ",".join([stage, *cells])
        Path(trace_path).write_text("\n".join(lines) + "\n")
        return out

    monkeypatch.setattr(PROG.cli, "optimize_pass", corrupt)
    result = _one_job_loop("optimize")
    assert all(r.errors for r in result.records)
    assert any("below best coarse" in e for r in result.records for e in r.errors)


def test_wrong_relay_byte_fails(monkeypatch):
    relay = sys.modules["satqkd.relay"]
    original = relay.xor_bytes

    def corrupt(a, b):
        out = bytearray(original(a, b))
        out[0] ^= 0x01
        return bytes(out)

    monkeypatch.setattr(relay, "xor_bytes", corrupt)
    result = _one_job_loop("pass-scan")
    assert result.records and all(r.errors for r in result.records)
    assert any("not k_a xor k_b" in e for r in result.records for e in r.errors)


def test_shifted_tally_fails(monkeypatch):
    original = PROG.cli.monte_carlo_tallies

    def shifted(*args, **kwargs):
        tallies = original(*args, **kwargs)
        return dataclasses.replace(tallies, n_z_mu=tallies.n_z_mu + 10 * tallies.n_z_mu**0.5 + 10)

    monkeypatch.setattr(PROG.cli, "monte_carlo_tallies", shifted)
    result = _one_job_loop("mc-oracle")
    assert all(r.errors for r in result.records)
    assert any(e.startswith("n_z_mu") for r in result.records for e in r.errors)


def test_healthy_checks_pass_and_budget_sum_is_checked():
    result = _one_job_loop("pass-scan")
    assert not any(r.errors for r in result.records)
    text = "t_s,elevation_deg,slant_range_km,a_db,b_db,total_db,eta\n0.0,45.0,700.0,1.5,2.0,3.5,0.4\n"
    assert workloads.check_budget(text) == []
    assert workloads.check_budget(text.replace(",3.5,", ",3.6,"))


def test_missing_wrapped_name_marks_metric_absent():
    tracer = Tracer()
    targets = [t for t in run.LAYER_TARGETS if t[2] != "finitekey.kernel"]
    targets.append(("satqkd.optimizer", "no_such_kernel", "finitekey.kernel", None))
    tracer.install(targets)
    tracer.uninstall()
    assert tracer.missing == ["satqkd.optimizer.no_such_kernel"]
    result = run.RunResult(records=[], passes=0, golden_drift_jobs=0)
    fake = run.Record(workloads.Job("x"), traced=False, seconds=1.0)
    result.records = [fake, dataclasses.replace(fake, traced=True)]
    layers = run.per_layer(result, tracer)
    assert layers["finitekey.kernel_s"] is None
    assert layers["optimizer.coarse_calls"] is None
    assert layers["channel.mc_s"] == 0.0


def test_job_times_are_scaled_by_nearby_speed_probes():
    """A job next to probes twice as slow as the reference counts half its time."""
    job = workloads.Job("x")
    slow = run.Record(job, traced=False, start=0.0, seconds=2.0, cpu_s=2.0)
    fast = run.Record(job, traced=False, start=100.0, seconds=1.0, cpu_s=1.0)
    result = run.RunResult(
        records=[slow, fast], passes=2, golden_drift_jobs=0, setup_samples=[(2.7, 0.2)],
        speed_probes=[(2.5, 2 * speed.REF_S), (2.6, 2 * speed.REF_S), (101.5, speed.REF_S)],
    )
    values, samples, slowdown = run.end_to_end(result)
    assert values["setup_s"] == pytest.approx(0.1)
    assert values["job_p50_s"] == pytest.approx(1.0)
    assert values["jobs_per_s"] == pytest.approx(1.0)
    assert values["cpu_per_job_s"] == pytest.approx(1.0)
    assert slowdown == pytest.approx(1.5)
    assert samples["speed_probes"] == 3


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [
        ["job", 0, 100, None, 0, None],
        ["cli.main", 10, 90, 0, 0, None],
        ["optimizer.pass", 20, 80, 1, 0, None],
        ["finitekey.kernel", 30, 50, 2, 0, (488, 10, 1)],
        ["finitekey.kernel", 60, 70, 2, 0, (61, 0, 0)],
    ]
    agg = tracer.aggregate()
    assert agg["optimizer.pass"]["self_s"] == pytest.approx(30e-9)
    assert agg["cli.main"]["self_s"] == pytest.approx(20e-9)
    assert agg["finitekey.kernel"]["counts"] == [549, 10, 1]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "optimize", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
