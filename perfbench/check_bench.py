"""Checks of the benchmark itself.

    python3 perfbench/check_bench.py

Run from the root of a checkout; takes about three minutes.  It checks that
BENCHMARK.json lists exactly the metrics run.py prints, that a traced run
reproduces the untraced run's pinned results on every workload, that every
layer span has calls on the workload meant to drive it, that the count-only
pass repeats exactly, and that the benchmark refuses to run under
`python -O` or without the `cycord` sources.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import jobs
import run

# per-layer metric -> workloads on which it must be nonzero
DRIVEN = {
    "coding.delta_min_search.calls": ("search", "cli"),
    "coding.min_det_sq_in_box.calls": ("search",),
    "coding.candidates": ("search",),
    "coding.codewords": ("search",),
    "coding.codeword_ratio": ("search",),
    "coding.run_lemma_trials.calls": ("cli",),
    "structure.verify_isomorphism.calls": ("certify", "cli"),
    "structure.pairs_checked": ("certify",),
    "structure.elements_enumerated": ("certify",),
    "structure.identify_quotient.calls": ("certify", "cli"),
    "structure.build_matrix_iso_s1.calls": ("certify",),
    "structure.lift_matrix_iso_power.calls": ("certify",),
    "residue.ideal_elements.calls": ("certify",),
    "residue.brute_force_ideals.calls": ("certify",),
    "residue.factor_prime.calls": ("certify",),
    "residue.quotient_of.calls": ("certify", "exact"),
    "residue.mul.calls": ("certify", "exact"),
    "residue.reduce.calls": ("certify", "exact"),
    "residue.lift.calls": ("exact",),
    "residue.crt_recombine.calls": ("exact",),
    "order.load_algebra.calls": ("search", "certify", "exact", "cli"),
    "order.mul.calls": ("exact",),
    "order.matrix.calls": ("exact", "search"),
    "order.reduced_det.calls": ("exact",),
    "extension.mul.calls": ("exact",),
    "extension.sigma.calls": ("exact",),
    "base_rings.divmod.calls": ("certify", "exact"),
    "base_rings.mul.calls": ("exact",),
    "base_rings.add.calls": ("exact",),
    **{f"cli.{sub}_s": ("cli",) for sub in run.CLI_SUBCOMMANDS},
}

failures: list[str] = []


def check(label: str, condition: bool) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {label}", flush=True)
    if not condition:
        failures.append(label)


def bench(*args, cwd=run.ROOT, flags=()):
    """Run run.py; returns (exit code, result object or None)."""
    proc = subprocess.run([sys.executable, *flags, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check("BENCHMARK.json per_layer matches run.py", listed == run.layer_metric_units())
    check("BENCHMARK.json workloads match jobs.py",
          [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS))
    code, result = bench("--workload", "exact", "--seed", "0", "--seconds", "1", "--trace", "0")
    check("untraced exact run is correct", code == 0 and result and result["correct"])
    if result:
        check("untraced run prints every end_to_end metric with its unit",
              {k: v["unit"] for k, v in result["metrics"].items()}
              == {m["name"]: m["unit"] for m in spec["end_to_end"]})


def check_traced_runs() -> None:
    units = run.layer_metric_units()
    for workload in jobs.WORKLOADS:
        # a traced run fails any job whose results differ from the untraced pass
        code, result = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                             "--trace", "1")
        ok = code == 0 and result is not None
        check(f"{workload}: traced run matches untraced results",
              ok and result["correct"] and result["failed"] == 0)
        if not ok:
            continue
        metrics = result["metrics"]
        check(f"{workload}: every per-layer metric reported", set(metrics) == set(units))
        for name, driving in DRIVEN.items():
            if workload in driving:
                check(f"{workload}: {name} nonzero", metrics.get(name, {}).get("value", 0) > 0)


def check_count_pass_repeats() -> None:
    counts = []
    for _ in range(2):
        out, _ = run.spawn(["pass", "--workload", "exact", "--seed", "3",
                            "--instrument", "count"], 170)
        counts.append(out and out["trace"]["counts"])
    check("count-only pass repeats exactly", counts[0] is not None and counts[0] == counts[1])


def check_refusals() -> None:
    code, result = bench("--workload", "exact", "--seed", "0", "--seconds", "1",
                         "--trace", "0", flags=("-O",))
    check("refuses python -O", code != 0 and result is None)
    proc = subprocess.run([sys.executable, "-O", str(run.WORKER), "setup", "--workload",
                           "exact"], cwd=run.ROOT, capture_output=True, timeout=60)
    check("worker refuses python -O", proc.returncode != 0)
    bare = run.ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(Path(run.__file__).parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        code, result = bench("--workload", "exact", "--seed", "0", "--seconds", "1",
                             "--trace", "0", cwd=bare)
        check("fails without the cycord sources", code != 0 and result is None)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check_benchmark_json()
    check_refusals()
    check_count_pass_repeats()
    check_traced_runs()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)
