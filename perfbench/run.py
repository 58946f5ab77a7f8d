"""Benchmark of cycord: four workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload {search,certify,exact,cli} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: it measures the `cycord` in `src/`
there, with no installation.  Each workload makes one or two library
modules do most of the work (see `jobs.py`):

  search   criteria 9 and 10, the delta-min searches (coding)
  certify  criteria 1-7, quotient certificates and ideal lattices
           (residue, structure)
  exact    criterion 11, the selftest suites (base_rings, extension, order)
  cli      one process per subcommand on the README inputs, start-up included

Load comes from one process at a time, closed loop.  Every pass runs in a
fresh interpreter (`worker.py`), so the module caches and peak memory start
from the same state in every sample.  One set-up process per run is a
discarded warm-up that compiles `__pycache__`; for `cli` one command is
discarded as well.  Passes repeat while the next one would end mostly
within `--seconds`; a run makes at least one.

--trace 0 prints the end-to-end metrics, medians over the run's samples:
  wall_s       wall time of one pass over the workload's jobs
  setup_s      fresh interpreter to ready: `import cycord` and loading the
               workload's algebras (a bare `import cycord` for cli)
  peak_rss_mb  peak resident memory of a pass process (of its largest
               child for cli)
  pass_ratio   jobs that ran and matched every pinned value, over jobs
               attempted
--trace 1 alternates untraced and traced passes, adds one count-only pass,
and prints the per-layer metrics (see `tracer.py`).

Every job checks the pinned acceptance values, and every job's results must
be identical in all passes of a run, traced or not.  A miss is counted in
`failed` and does not stop the run.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
from tracer import COUNTED_OPERATORS, RETURN_COUNTS, SPANS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
SETUP_SAMPLES = 5
# a run must end within 180 s: start no optional pass that could cross
# RUN_LIMIT_S, and kill any worker still running at RUN_DEADLINE_S
RUN_LIMIT_S = 150
RUN_DEADLINE_S = 175
# one process, no extra threads; fixed hashing so counts repeat exactly
WORKER_ENV = {"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0",
              "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
CLI_SUBCOMMANDS = ("describe", "reduce", "structure", "ideals", "encode",
                   "deltamin", "check-lemma")


def layer_metric_units() -> dict:
    """Every per-layer metric and its unit, in output order."""
    units = {}
    for name, *_ in SPANS:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s",
                      f"{name}.total_s": "s"})
    units.update(dict.fromkeys(RETURN_COUNTS, "count"))
    units["coding.codeword_ratio"] = "ratio"
    units.update({name: "count" for name, _ in COUNTED_OPERATORS})
    units.update({f"cli.{sub}_s": "s" for sub in CLI_SUBCOMMANDS})
    units["trace.overhead_s"] = "s"
    return units


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_group(cmd: list[str], timeout: float):
    """Run cmd in a process group of its own; on timeout kill the whole group.

    Returns (exit code, stdout, stderr), or None if it timed out.
    """
    env = dict(os.environ, **WORKER_ENV)
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(timeout, 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            log(f"{cmd[2:]} timed out")
            return None
    return proc.returncode, out, err


def spawn(args: list[str], timeout: float):
    """Run a worker; returns (its last stdout line as JSON or None, spawn time)."""
    spawned_ns = time.monotonic_ns()
    done = run_group([sys.executable, str(WORKER), *args], timeout)
    if done is None:
        return None, spawned_ns
    code, out, err = done
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log(f"worker {args} exited {code}: {err.strip()[-2000:]}")
        return None, spawned_ns
    return json.loads(lines[-1]), spawned_ns


class Run:
    """Passes of one workload, with the tally of attempted and failed jobs."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.job_names = jobs.WORKLOADS[workload][1]
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.reference: dict = {}  # job -> record of its first run
        self.longest = 0.0

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.start)

    def setup(self):
        out, spawned_ns = spawn(["setup", "--workload", self.workload], self.remaining())
        return None if out is None else (out["ready_ns"] - spawned_ns) / 1e9

    def one_pass(self, instrument: str):
        began = time.monotonic()
        out, _ = spawn(["pass", "--workload", self.workload, "--seed", str(self.seed),
                        "--instrument", instrument], self.remaining())
        self.longest = max(self.longest, time.monotonic() - began)
        self.attempted += len(self.job_names)
        if out is None:
            self.failed += len(self.job_names)
            return None
        for job in out["jobs"]:
            ref = self.reference.setdefault(job["name"], job["record"])
            if not job["ok"]:
                log(f"FAIL {job['name']} ({instrument}): misses {job['misses']}, "
                    f"error {job['error']}")
            elif job["record"] != ref:
                log(f"FAIL {job['name']} ({instrument}): results differ between passes")
            self.failed += not job["ok"] or job["record"] != ref
        log(f"pass ({instrument}): {out['wall_s']:.3f} s, {out['rss_mb']:.1f} MB")
        return out

    def more(self, passes_done: int) -> bool:
        """Start another pass if none ran yet, or if it would end mostly in time."""
        elapsed = time.monotonic() - self.start
        return not passes_done or (elapsed + self.longest / 2 < self.seconds
                                   and elapsed + 1.5 * self.longest < RUN_LIMIT_S)

    def warm_up(self) -> None:
        self.setup()
        if self.workload == "cli":
            run_group(jobs.cli_child_cmd("none") + jobs.CLI_ARGS["describe"],
                      self.remaining())


def end_to_end(run: Run) -> dict | None:
    setups, passes = [], []
    attempts = 0
    while run.more(attempts):
        # set-up samples are interleaved with passes, so a slow period of
        # the host reaches both
        setups.append(run.setup())
        passes.append(run.one_pass("none"))
        attempts += 1
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.setup())
    setups = [s for s in setups if s is not None]
    passes = [p for p in passes if p is not None]
    if not passes or not setups:
        return None
    log(f"wall_s samples: {[round(p['wall_s'], 4) for p in passes]}")
    log(f"setup_s samples: {[round(s, 4) for s in setups]}")
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "pass_ratio": ((run.attempted - run.failed) / run.attempted, "ratio"),
    }


def _cli_seconds(out: dict) -> dict:
    seconds = dict.fromkeys(CLI_SUBCOMMANDS, 0.0)
    for job in out["jobs"]:
        if "seconds" in job:
            seconds[job["name"].split("_")[0]] += job["seconds"]
    return seconds


def _layer_values(trace: dict) -> dict:
    spans, counts = trace["spans"], trace["counts"]
    values = {}
    for name, *_ in SPANS:
        calls, total, self_s = spans.get(name, (0, 0.0, 0.0))
        values.update({f"{name}.calls": calls, f"{name}.self_s": self_s,
                       f"{name}.total_s": total})
    for name in RETURN_COUNTS:
        values[name] = counts.get(name, 0)
    candidates = values["coding.candidates"]
    values["coding.codeword_ratio"] = values["coding.codewords"] / candidates if candidates else 0.0
    return values


def per_layer(run: Run) -> dict | None:
    untraced, traced = [], []
    attempts = 0
    while run.more(attempts):
        untraced.append(run.one_pass("none"))
        traced.append(run.one_pass("trace"))
        attempts += 1
    counted = run.one_pass("count")
    untraced = [p for p in untraced if p is not None]
    traced = [p for p in traced if p is not None]
    if not untraced or not traced or counted is None:
        return None
    samples = [_layer_values(p["trace"]) for p in traced]
    values = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    for name, _ in COUNTED_OPERATORS:
        values[name] = counted["trace"]["counts"].get(name, 0)
    cli = [_cli_seconds(p) for p in untraced]
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.{sub}_s"] = statistics.median(c[sub] for c in cli)
    values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in untraced))
    units = layer_metric_units()
    return {name: (values[name], unit) for name, unit in units.items()}


def machine_record() -> dict:
    import numpy

    record = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: v for k, v in WORKER_ENV.items() if k.endswith("THREADS")},
        "loadavg_at_start": os.getloadavg(),
        "commit": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            record["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                                 if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        record["blas"] = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        record["commit"] = proc.stdout.strip() or None
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        log("refusing to run under python -O: the selftest suites check with assert")
        return 2
    if not (ROOT / "src" / "cycord" / "__init__.py").is_file():
        log(f"no cycord sources under {ROOT / 'src'}")
        return 2

    print("machine " + json.dumps(machine_record(), sort_keys=True))
    # numpy's generators take seeds in [0, 2**32)
    run = Run(args.workload, args.seed % 2 ** 32, args.seconds)
    run.warm_up()
    metrics = per_layer(run) if args.trace else end_to_end(run)
    if metrics is None:
        log("no pass completed; no result")
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
