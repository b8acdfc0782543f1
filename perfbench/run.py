"""Benchmark of the controversy pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it works on the checkout that holds this directory.
One run:
1. makes the workload's inputs from --seed and computes their reference
   values, once per seed (cached under .bench_cache/, not timed);
2. starts one fresh single-threaded worker process (worker.py) that
   repeats the workload's operation for --seconds, checks every
   operation's outputs against the reference, and runs the workload's
   known-defect probes outside the timed region;
3. measures set-up time: the median over SETUP_REPEATS fresh processes,
   before and after the worker, of the time from process start until
   ``controversy.cli`` is imported;
4. prints every metric with its unit and sample count, then, as the
   last line, one JSON object: correct, attempted, failed, metrics.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(spans around the program's public functions, see tracing.py). End-to-end
times are scaled to a reference host speed measured by a calibration
loop around each sample (hostspeed.py); per-layer times are raw. Exits
non-zero without a result when the program's sources are missing or any
step fails to run.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 6
CHILD_TIMEOUT_S = 170

# Per-layer metrics, and the end-to-end metric each one should move:
# - measures.force_layout_s, bcc_s, edge_betweenness_s: run_s and peak_rss_mb
#   on score_planted; measures.ec_s, rwc_mc_s, rwc_rwr_s, gmck_s, mblb_s and
#   partition.spectral_bisection_s: run_s on score_planted;
# - users.*, walks.stationary_rwr_*: run_s on ingest_users; the latter also
#   graphs_per_s on sweep_planted, with synthetic.* and graph.largest_component_s;
# - graph.read_records_s, build_retweet_graph_s, write_edgelist_s,
#   read_edgelist_s, topics.expand_topic_s, partition.import_partition_s:
#   run_s on ingest_users;
# - walks.sample_walk_*: a small part of run_s on score_planted and ingest_users;
# - partition.spectral_failures, probes.failed: the known-defect probes;
# - cli.self_s (arguments and output writing): run_s on every workload.
LAYERS = ("cli", "graph", "topics", "partition", "walks", "measures", "users", "synthetic")
SPAN_SECONDS = (
    "graph.read_records", "graph.build_retweet_graph", "graph.write_edgelist",
    "graph.read_edgelist", "graph.largest_component", "topics.expand_topic",
    "partition.spectral_bisection", "partition.import_partition",
    "walks.stationary_rwr", "walks.sample_walk", "walks.expected_hitting_times",
    "measures.force_layout", "measures.bcc", "measures.edge_betweenness", "measures.ec",
    "measures.rwc_mc", "measures.rwc_rwr", "measures.gmck", "measures.mblb",
    "users.user_score_table", "users.rwc_user", "users.hitting_score_all",
    "synthetic.planted_two_community",
)
SPAN_CALLS = ("walks.stationary_rwr", "walks.sample_walk", "users.rwc_user")
SPAN_COUNTS = ("graph.records", "graph.vertices", "graph.edges")


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def prepare(workload, seed, tiny):
    """Inputs and reference for (workload, seed), made once and cached."""
    data = ROOT / ".bench_cache" / f"{workload.name}{'-tiny' if tiny else ''}" / str(seed)
    if (data / "reference.json").exists():
        return data
    data.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=data.parent, prefix=".tmp-"))
    try:
        reference = workload.prepare(seed, tmp, ROOT)
        (tmp / "reference.json").write_text(json.dumps(reference))
        if (data / "reference.json").exists():  # made meanwhile by another run
            return data
        shutil.rmtree(data, ignore_errors=True)
        tmp.rename(data)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return data


def import_seconds(env):
    """Seconds from starting a process until ``controversy.cli`` is imported."""
    code = "import controversy.cli; print('ready', flush=True)"
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          env=env, cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("importing controversy.cli failed")
    return elapsed


def setup_samples(env, count):
    """(raw, host-scaled) import times, each between two calibrations."""
    import hostspeed

    samples = []
    before = hostspeed.calibration_seconds()
    for _ in range(count):
        raw = import_seconds(env)
        after = hostspeed.calibration_seconds()
        samples.append((raw, raw * hostspeed.scale(before, after)))
        before = after
    return samples


def tail(values):
    """(percentile, value) of the highest of p99/p95/p90/p75/p50 that has at
    least ten samples beyond it, or None when there are fewer than 20."""
    ordered = sorted(values)
    for q in (99, 95, 90, 75, 50):
        if len(ordered) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]
    return None


def end_to_end(result, setup):
    """Times are host-scaled (see hostspeed.py); the notes give raw ones."""
    ops = result["ops"]
    raw = [o["seconds"] for o in ops]
    seconds = [o["seconds"] * o["scale"] for o in ops]
    passed = sum(1 for o in ops if not o["problems"])
    graphs = sum(o["graphs"] for o in ops)
    found = tail(seconds)
    run_note = (f"median of {len(ops)} runs; "
                + (f"p{found[0]} {found[1]:.4f} s" if found
                   else "no percentile above the median has 10 samples beyond it")
                + f"; raw median {statistics.median(raw):.4f} s")
    return {
        "setup_s": (statistics.median(s for _, s in setup), "s",
                    f"median of {len(setup)} process starts; "
                    f"raw median {statistics.median(r for r, _ in setup):.4f} s"),
        "run_s": (statistics.median(seconds), "s", run_note),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", "ru_maxrss of the worker process"),
        "ok_share": (passed / len(ops), "share", f"{passed} of {len(ops)} runs passed the gate"),
        "graphs_per_s": (graphs / sum(seconds) if graphs else 0.0, "1/s",
                         f"{graphs} graphs in {sum(seconds):.3f} s; "
                         f"raw {graphs / sum(raw) if graphs else 0.0:.4f}/s"),
    }


def per_layer(result):
    traced = [o for o in result["ops"] if o["traced"]]
    untraced = [o for o in result["ops"] if not o["traced"]]

    def med(fn):
        return statistics.median(fn(o) for o in traced)

    n = f"median of {len(traced)} traced runs"
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (med(lambda o: o["trace"]["self"].get(layer, 0.0)), "s", n)
    for name in SPAN_SECONDS:
        metrics[f"{name}_s"] = (med(lambda o: o["trace"]["seconds"].get(name, 0.0)), "s", n)
    for name in SPAN_CALLS:
        metrics[f"{name}_calls"] = (med(lambda o: o["trace"]["calls"].get(name, 0)), "count", n)
    for name in SPAN_COUNTS:
        metrics[name] = (med(lambda o: o["trace"]["counts"].get(name, 0)), "count", n)
    graph_ms = [t for o in traced for t in o["graph_ms"]]
    metrics["synthetic.graphs"] = (
        med(lambda o: o["trace"]["calls"].get("synthetic.planted_two_community", 0)), "count", n)
    for q in (50, 90):
        value = (statistics.quantiles(graph_ms, n=100, method="inclusive")[q - 1]
                 if len(graph_ms) > 1 else (graph_ms[0] if graph_ms else 0.0))
        metrics[f"synthetic.graph_p{q}_ms"] = (value, "ms", f"over {len(graph_ms)} graphs")
    probes = result["probes"]
    metrics["partition.spectral_failures"] = (
        result["spectral_failures"], "count", "spectral partitions that raised, in the probes")
    metrics["probes.attempted"] = (len(probes), "count", "known-defect probes run")
    metrics["probes.failed"] = (sum(1 for p in probes if p["failed"]), "count",
                                "known-defect probes that failed")
    wall = med(lambda o: o["seconds"])
    plain = statistics.median(o["seconds"] for o in untraced)
    metrics["trace.wall_s"] = (wall, "s", n)
    metrics["trace.untraced_s"] = (plain, "s", f"median of {len(untraced)} untraced runs")
    metrics["trace.overhead_s"] = (wall - plain, "s", "traced minus untraced median run")
    metrics["trace.accounted_share"] = (
        med(lambda o: sum(o["trace"]["self"].values()) / o["seconds"] if o["seconds"] else 0.0),
        "share",
        "layer self times over traced wall time")
    metrics["trace.spans"] = (med(lambda o: o["trace"]["spans"]), "count", n)
    return metrics


def fail_note(result):
    ops, probes = result["ops"], result["probes"]
    failed_ops = sum(1 for o in ops if o["problems"])
    failed_probes = sum(1 for p in probes if p["failed"])
    attempted = len(ops) + len(probes)
    lines = [f"fail_share {(failed_ops + failed_probes) / attempted:.4f} = "
             f"({failed_ops} runs + {failed_probes} known-defect probes failed) / "
             f"({len(ops)} runs + {len(probes)} probes)"]
    for p in probes:
        outcome = "; ".join([f"exit {p['exit']}"] + p["problems"])
        lines.append(f"  probe {p['label']}: {'failed' if p['failed'] else 'passed'}, {outcome}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)

    for required in (ROOT / "src" / "controversy" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not required.is_file():
            print(f"error: {required} not found; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](tiny=args.tiny)
    data = prepare(workload, args.seed, args.tiny)
    env = child_env()
    setup = []
    if not args.trace:
        import_seconds(env)  # the first start in a checkout compiles the bytecode caches
        # half the set-up samples before the worker and half after, so that
        # the median spans the run rather than one moment of the host
        setup = setup_samples(env, SETUP_REPEATS // 2)

    work = ROOT / ".bench_out" / f"{workload.name}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data", str(data), "--work", str(work), "--result", str(result_path)]
    if args.tiny:
        cmd.append("--tiny")
    code = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                          timeout=CHILD_TIMEOUT_S).returncode
    if code != 0:
        print(f"error: worker exited with {code}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())

    ops = result["ops"]
    failed = sum(1 for o in ops if o["problems"])
    correct = failed == 0
    print(f"{workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for i, o in enumerate(ops):
        for problem in o["problems"]:
            print(f"  run {i}: {problem}")
    if args.trace:
        metrics = per_layer(result)
        share = metrics["trace.accounted_share"][0]
        if abs(share - 1.0) > 0.01:
            print(f"  trace bookkeeping: layer self times cover {share:.4f} of the wall time")
            correct = False
        if result["untraced_names"]:
            print(f"  not traced (name not found): {', '.join(result['untraced_names'])}")
    else:
        setup += setup_samples(env, SETUP_REPEATS - SETUP_REPEATS // 2)
        metrics = end_to_end(result, setup)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} {note}")
    for line in fail_note(result):
        print(f"  {line}")
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
