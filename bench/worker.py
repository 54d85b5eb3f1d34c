"""Benchmark worker: runs one workload's gibbsmatch commands in this process.

    worker.py probe --workload W --seed S --out DIR
        Runs the workload's first command until its first call into
        run_chains, prints "setup-done <time.monotonic()>" and exits.
    worker.py run --workload W --seed S --seconds T --trace 0|1 --out DIR
        Closed loop: rounds of commands, each ending before the next starts,
        until T seconds have passed; the last round always completes. With
        --trace 0 on a workload whose rounds draw fresh inputs, round 0 runs
        once more afterwards, untimed, to check repeatability. With --trace 1,
        round 0 first runs untraced, then the loop runs traced.
        Writes result.json, instances.json/.npz and, traced, trace.jsonl.

Commands call gibbsmatch.cli.main in-process, with stdout and stderr captured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import gibbsmatch.cli
from gibbsmatch import chains

from spans import Capture, Patches, Tracer
from workloads import WORKLOADS, round_commands


class _SetupDone(Exception):
    """Raised at the first call into the chain engine by a setup probe."""


def _threads() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def probe(args) -> int:
    def stop(fn):
        def run_chains(*a, **k):
            print(f"setup-done {time.monotonic()!r}", flush=True)
            raise _SetupDone
        return run_chains

    Patches().function(chains, "run_chains", stop)
    wl = WORKLOADS[args.workload]
    out = Path(args.out)
    _, argv = round_commands(wl, args.seed, 0, out / "probe", out / "configs")[0]
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            gibbsmatch.cli.main(argv)
        except _SetupDone:
            return 0
    print("the command ended without running a chain", file=sys.stderr)
    return 1


def run_round(wl, seed: int, k: int, out: Path, capture: Capture, phase: str,
              stats: dict) -> dict:
    rdir = out / f"{phase}-r{k}"
    capture.tag = f"{phase}-r{k}"
    capture.reset_stages()
    rec = {"tag": capture.tag, "k": k, "dir": str(rdir),
           "inputs": wl.inputs_id(k), "commands": []}
    t_round = time.perf_counter()
    for label, argv in round_commands(wl, seed, k, rdir, out / "configs"):
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = gibbsmatch.cli.main(argv)
        except Exception:  # a crash is a failed operation, reported with its traceback
            code, error = None, traceback.format_exc()
        seconds = time.perf_counter() - t0
        stats["threads"] = max(stats["threads"], _threads())
        rec["commands"].append({"label": label, "argv": argv, "code": code, "error": error,
                                "seconds": seconds, "stdout": stdout.getvalue(),
                                "stderr": stderr.getvalue()})
    rec["seconds"] = time.perf_counter() - t_round
    rec["chain_s"], rec["test_s"] = capture.reset_stages()
    return rec


def run(args) -> int:
    wl = WORKLOADS[args.workload]
    out = Path(args.out)
    capture = Capture()
    capture.install(Patches())
    stats = {"threads": _threads()}
    rounds = []
    if args.trace:
        rounds.append(run_round(wl, args.seed, 0, out, capture, "untraced", stats))
        tracer = Tracer()
        traced = Patches()
        tracer.install(traced)
    phase = "traced" if args.trace else "timed"
    t_start = time.perf_counter()
    k = 0
    while True:
        rounds.append(run_round(wl, args.seed, k, out, capture, phase, stats))
        k += 1
        if time.perf_counter() - t_start >= args.seconds:
            break
    elapsed = time.perf_counter() - t_start
    if args.trace:
        traced.restore()
        tracer.save(out / "trace.jsonl")
    elif wl.inputs == "round":
        rounds.append(run_round(wl, args.seed, 0, out, capture, "repeat", stats))
    capture.save(out)
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "timed_phase": phase, "elapsed": elapsed, "rounds": rounds,
              "peak_rss_mb": usage / 1024, "max_threads": stats["threads"]}
    (out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["probe", "run"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    return probe(args) if args.mode == "probe" else run(args)


if __name__ == "__main__":
    sys.exit(main())
