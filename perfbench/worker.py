"""One measured run of a workload, in a fresh single-threaded process.

Started by run.py, which has already prepared the inputs and references:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --data DIR --work DIR --result FILE [--tiny]

Repeats the workload's operation, timing only the program's command
lines, until the timed total reaches --seconds; runs the host-speed
calibration between operations (see hostspeed.py) and checks every
operation's outputs against the reference, both outside the timed
region; reads the peak
resident set size; then runs the known-defect probes. With --trace 1
operations alternate between untraced and traced, so the two can be
compared. Writes its findings to --result as JSON.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from controversy.cli import main as cli_main  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class OperationFailed(Exception):
    pass


@dataclass
class Context:
    seed: int
    data: Path
    work: Path


def run_cli(argv, tracer):
    argv = [str(a) for a in argv]
    if tracer is None:
        return cli_main(argv)
    return tracer.call("cli.main", cli_main, argv)


def run_operation(workload, ctx, ref, tracer):
    durations = []

    def call(argv):
        start = perf_counter()
        code = run_cli(argv, tracer)
        durations.append(perf_counter() - start)
        if code != 0:
            raise OperationFailed(f"{argv[0]} exited with {code}")

    first = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    try:
        graphs = workload.operation(ctx, call)
        problems = []
    except Exception as exc:  # any failure of the program fails this operation
        graphs, problems = 0, [f"{type(exc).__name__}: {exc}"]
    finally:
        if tracer:
            tracer.uninstall()
    if not problems:
        try:
            problems = workload.check(ref, ctx)
        except Exception as exc:  # unreadable or malformed outputs
            problems = [f"gate could not read the outputs: {type(exc).__name__}: {exc}"]
    op = {"seconds": sum(durations), "graphs": graphs, "problems": problems[:10],
          "traced": tracer is not None}
    if tracer:
        spans = tracer.spans[first:]
        op["trace"] = tracing.summarize(spans)
        op["trace"]["spans"] = len(spans)
        op["graph_ms"] = graph_times_ms(spans)
    return op


def graph_times_ms(spans):
    """Per-graph time inside a sweep: from one planted graph's generation
    to the next one's (the last ends with the sweep)."""
    starts = [s["start"] for s in spans if s["name"] == "synthetic.planted_two_community"]
    ends = [s["end"] for s in spans if s["name"] == "synthetic.rwc_sweep"]
    if not starts or not ends:
        return []
    return [(b - a) * 1000.0 for a, b in zip(starts, starts[1:] + [max(ends)])]


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](tiny=args.tiny)
    ref = json.loads((args.data / "reference.json").read_text())
    ctx = Context(seed=args.seed, data=args.data, work=args.work)
    tracer = tracing.Tracer() if args.trace else None

    ops, timed = [], 0.0
    min_ops = 2 if tracer else 1

    def budget_left():
        # another run of median length would end nearer the budget than stopping now
        return timed + 0.5 * statistics.median(o["seconds"] for o in ops) < args.seconds

    calibration = hostspeed.calibration_seconds()
    while len(ops) < min_ops or budget_left():
        traced = tracer is not None and len(ops) % 2 == 1
        op = run_operation(workload, ctx, ref, tracer if traced else None)
        after = hostspeed.calibration_seconds()
        op["scale"] = hostspeed.scale(calibration, after)
        calibration = after
        ops.append(op)
        timed += op["seconds"]
        if op["problems"] and len(ops) >= min_ops:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    probes = []
    first = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    try:
        for label, probe_argv, check in workload.probes(ctx):
            try:
                code, problems = run_cli(probe_argv, tracer), []
                if code == 0 and check is not None:
                    problems = check(ref)
            except Exception as exc:  # a crash or unreadable output fails the probe too
                code, problems = None, [f"{type(exc).__name__}: {exc}"]
            probes.append({"label": label, "exit": code, "problems": problems[:3],
                           "failed": code != 0 or bool(problems)})
    finally:
        if tracer:
            tracer.uninstall()
    probe_errors = tracing.summarize(tracer.spans[first:])["errors"] if tracer else {}

    if tracer:
        tracer.write(args.work / "trace.jsonl")
    args.result.write_text(json.dumps({
        "ops": ops, "peak_rss_mb": peak_rss_mb, "probes": probes,
        "spectral_failures": probe_errors.get("partition.spectral_bisection", 0),
        "untraced_names": tracer.missing if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
