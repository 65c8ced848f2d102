#!/usr/bin/env python3
"""Record the output digests that ``check.golden_drift_jobs`` compares against.

    python3 perfbench/make_golden.py

Runs every job of the finite job sets once (the 9 ``optimize`` scenarios
and the 9 x 16 ``mc-oracle`` (scenario, MC seed) pairs) and writes
their digests to perfbench/golden.json. ``pass-scan`` inputs are drawn
from continuous ranges, so its jobs have no golden digests. Drift from
these digests is reported, never counted as a failure.
"""
from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import MC_SEEDS, Job, McOracle, Optimize


def main() -> int:
    prog = run.load_program()
    scenarios = run.load_scenarios(prog)
    golden = {}
    for workload, jobs in (
        (Optimize(prog, scenarios), [Job(f"optimize:{n}", {"scenario": n}) for n in sorted(scenarios)]),
        (McOracle(prog, scenarios), [
            Job(f"mc-oracle:{n}:{s}", {"scenario": n, "seed": s})
            for n in sorted(scenarios)
            for s in range(MC_SEEDS)
        ]),
    ):
        for job in jobs:
            out = run.WORK / "golden" / job.key.replace(":", "_")
            workload.prepare(job, out)
            state = workload.execute(job, out)
            errors, _ = workload.check(job, out, state)
            if errors:
                print(f"{job.key}: {errors}", file=sys.stderr)
                return 1
            golden[job.key] = run._digest(out, workload.outputs)
            shutil.rmtree(out)
            print(job.key, golden[job.key], flush=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
