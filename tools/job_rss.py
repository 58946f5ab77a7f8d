"""Peak resident memory of each perfbench job, each job in a fresh interpreter.

    python3 tools/job_rss.py --workload certify [--seed 0] [--root DIR]

A benchmark pass runs all jobs of a workload in one process, so its
`peak_rss_mb` shows only the largest job.  This script runs every job of the
workload alone: a child interpreter imports `cycord` from `DIR/src`, loads
the workload's algebras as a pass does, runs that one job and reports its
`ru_maxrss` (of its largest child for the cli workload).  `DIR` defaults to
the checkout that holds this script; point it at a second checkout to
compare two trees on one machine.  The job table and the jobs themselves
come from `DIR/perfbench/jobs.py`, and the child environment from its
`run.py`; both are imported and never modified.

Prints one Markdown table: the job, whether it matched its pinned values,
the resident memory after set-up and the job's peak, both in MB.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path


def child(workload: str, job: str, seed: int) -> None:
    import jobs

    algebras = jobs.load_algebras(workload)
    setup_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cli = workload == "cli"
    result = jobs.run_job(workload, job, algebras, seed,
                          jobs.cli_child_cmd("none") if cli else None)
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    print(json.dumps({"ok": result["ok"], "setup_mb": setup_mb,
                      "peak_mb": resource.getrusage(who).ru_maxrss / 1024}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--job", help=argparse.SUPPRESS)  # set in a child
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "perfbench"))
    if args.job:
        child(args.workload, args.job, args.seed)
        return 0

    import jobs
    import run  # its WORKER_ENV: the checkout's src, fixed hashing, one BLAS thread

    env = {**os.environ, **run.WORKER_ENV}
    print("| job | ok | setup_mb | peak_mb |\n|---|---|---|---|")
    for job in jobs.WORKLOADS[args.workload][1]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--root", str(root), "--job", job],
            capture_output=True, text=True, env=env, timeout=600)
        if proc.returncode != 0:
            print(f"| {job} | error: {proc.stderr.strip()[-200:]!r} | | |")
            continue
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"| {job} | {out['ok']} | {out['setup_mb']:.2f} | {out['peak_mb']:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
