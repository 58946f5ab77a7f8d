"""One fresh interpreter of the benchmark.

    worker.py setup --workload W
    worker.py pass --workload W --seed N [--instrument none|trace|count]
    worker.py cli-child [--instrument none|trace|count] -- <cycord arguments>

`setup` imports `cycord`, loads the workload's algebras and prints the
monotonic clock at which it was ready.  `pass` does the same and then runs
every job of the workload once, printing the pass's wall time, peak
resident memory and job results as one JSON line.  `cli-child` runs one
`cycord` command the way the installed console script does; when
instrumented, it prints its spans and counts as the last line of stderr.
Run by `run.py`, which sets PYTHONPATH to the checkout's `src`.
"""

import argparse
import json
import sys
import time
from pathlib import Path


def _import_cycord():
    import cycord

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(cycord.__file__).resolve().parent.parent != src:
        raise SystemExit(f"cycord imported from {cycord.__file__}, not from {src}")


def _recorder(instrument):
    if instrument == "none":
        return None
    from tracer import Recorder

    recorder = Recorder()
    if instrument == "trace":
        recorder.install_spans()
    else:
        recorder.install_counters()
    return recorder


def cli_child(argv) -> int:
    instrument = "none"
    if argv[:1] == ["--instrument"]:
        instrument, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    _import_cycord()
    recorder = _recorder(instrument)
    from cycord.cli import main

    try:
        return main(argv)
    finally:
        if recorder is not None:
            sys.stdout.flush()
            print(json.dumps(recorder.dump()), file=sys.stderr)


def run(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--instrument", choices=("none", "trace", "count"), default="none")
    args = parser.parse_args(argv)

    _import_cycord()
    recorder = _recorder(args.instrument if args.workload != "cli" else "none")
    import jobs

    algebras = jobs.load_algebras(args.workload)
    ready_ns = time.monotonic_ns()
    if args.mode == "setup":
        print(json.dumps({"ready_ns": ready_ns}))
        return 0

    import resource

    from tracer import merge

    child_cmd = jobs.cli_child_cmd(args.instrument) if args.workload == "cli" else None
    start = time.perf_counter()
    results = [jobs.run_job(args.workload, name, algebras, args.seed, child_cmd)
               for name in jobs.WORKLOADS[args.workload][1]]
    wall = time.perf_counter() - start
    # the largest cli child, or this process for the in-process workloads
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    out = {"wall_s": wall,
           "rss_mb": resource.getrusage(who).ru_maxrss / 1024, "jobs": results}
    if recorder is not None:
        out["trace"] = recorder.dump()
    elif args.instrument != "none":
        out["trace"] = merge(r.pop("trace") for r in results if "trace" in r)
    print(json.dumps(out))
    return 0


def main(argv) -> int:
    if sys.flags.optimize:
        # `selftest` checks with assert, so under -O the exact workload
        # would time a program that checks nothing
        print("refusing to run under python -O", file=sys.stderr)
        return 2
    if argv[:1] == ["cli-child"]:
        return cli_child(argv[1:])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
