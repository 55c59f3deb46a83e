"""Benchmark of aglerkit's pipelines, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

A run of one workload starts the workload's process (worker.py) three times
in a row: each start is timed from spawn to its first timed op, and setup_s
is the median of the three.  The last start runs the ops; every op is
checked by the workload's oracle.  With --trace 0 the run reports the
end-to-end metrics named in BENCHMARK.json, their times scaled to a
reference host speed by the calibration samples taken around each op and
set-up; with --trace 1 the per-layer metrics, as wall times.  The last line of standard output is the result as one JSON
object.  --workload all runs every workload both ways, prints every metric,
and writes the results with the environment to perfbench/out/results.json.

Exit status is 0 when the run completed, whatever the oracles said (the
result's "correct" field carries that), and non-zero without a result when
it could not run, for instance when the checkout has no src/aglerkit.
"""

import argparse
import collections
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
OUT = ROOT / "perfbench" / "out"
# the keys of workloads.WORKLOADS; this process imports neither numpy nor aglerkit
WORKLOADS = ("certify_ladder", "certify_scaling", "graph_grid", "retract_forms")
SETUPS = 3
TIME_LIMIT_S = 170.0
# Wall time of worker.calibrate() on the reference host, a shared 2-core Xeon
# in its fast periods.  Times are reported in seconds at this host speed.
CALIBRATION_REF_S = 0.0052


class RunError(Exception):
    pass


def spawn_worker(args, role, deadline, env):
    """Start one workload process; return its result with setup_s filled in."""
    command = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role,
    ]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("workload process ran past the %.0f s limit" % TIME_LIMIT_S)
    if proc.returncode != 0:
        raise RunError("workload process exited with status %d" % proc.returncode)
    result = json.loads(stdout.decode().strip().splitlines()[-1])
    result["setup_wall_s"] = result["ready_at"] - spawned_at
    result["setup_s"] = result["setup_wall_s"] * CALIBRATION_REF_S / result["setup_calibration_s"]
    return result


def to_reference_speed(ops, gaps):
    """Scale each op's wall time by the host speed measured around it.

    gaps[i] holds the calibration samples taken just before op i, and
    gaps[i + 1] those just after it; the host's speed changes within
    seconds, so farther samples track it worse.  The wall time stays in
    "wall_s".
    """
    for i, op in enumerate(ops):
        near = gaps[i] + gaps[i + 1]
        op["wall_s"] = op["s"]
        op["s"] = op["s"] * CALIBRATION_REF_S / statistics.median(near)


def end_to_end(measured, setups):
    """The six end-to-end metrics; a failed op counts as slower than any passing op."""
    ops = measured["ops"]
    times = sorted(math.inf if op["failed"] else op["s"] for op in ops)
    count = len(times)
    passed = sum(1 for op in ops if not op["failed"])
    return {
        "setup_s": statistics.median(setups),
        "op_s.p50": statistics.median(times),
        # the highest rank with at least 10 ops beyond it
        "op_s.tail": times[count - 11],
        "certified_per_s": passed / sum(op["s"] for op in ops),
        "failed_frac": (count - passed) / count,
        "peak_rss_mb": measured["peak_rss_mb"],
    }, "op_s.tail is p%.1f of %d ops" % (100.0 * (count - 10) / count, count)


def per_layer(measured, results):
    metrics = dict(measured["layers"])
    for name in ("setup.import", "setup.inputs", "setup.warmup"):
        metrics[name + "_s"] = statistics.median(r["setup"][name] for r in results)
    return metrics


def run_one(args):
    if not (ROOT / "src" / "aglerkit" / "__init__.py").is_file():
        raise RunError("no src/aglerkit next to perfbench/: run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = dict(os.environ)
    env.pop("AGLERKIT_THREADS", None)  # documented to cap threads, but it does nothing
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    deadline = time.monotonic() + TIME_LIMIT_S
    results = [spawn_worker(args, "setup", deadline, env) for _ in range(SETUPS - 1)]
    results.append(spawn_worker(args, "measure", deadline, env))
    measured = results[-1]

    if args.trace:
        computed = per_layer(measured, results)
    else:
        to_reference_speed(measured["ops"], measured["gaps"])
        computed, tail_note = end_to_end(measured, [r["setup_s"] for r in results])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}

    failures = [op for op in measured["ops"] if op["failed"]]
    cli_failures = measured.get("cli_failures", [])
    print("environment: " + json.dumps(measured["environment"], sort_keys=True))
    reasons = collections.Counter((op["failed"], op["error"] or "check failed") for op in failures)
    for (layer, reason), count in sorted(reasons.items()):
        print("failed ops: %d in layer %s: %s" % (count, layer, reason))
    if cli_failures:
        print("CLI subcommands failing exit 0 or a byte-identical rerun: " + ", ".join(cli_failures))
    if not args.trace:
        print("failed_frac = %r ratio; %s" % (computed["failed_frac"], tail_note))
        calibration = [s for gap in measured["gaps"] for s in gap]
        print("wall time: op p50 %.4f s, set-up %.4f s; calibration p50 %.5f s against %.5f s"
              % (statistics.median(op["wall_s"] for op in measured["ops"]),
                 statistics.median(r["setup_wall_s"] for r in results),
                 statistics.median(calibration), CALIBRATION_REF_S))
    for name, metric in metrics.items():
        print("%s %s = %r %s" % (args.workload, name, metric["value"], metric["unit"]))
    print(json.dumps({
        "correct": not failures and not cli_failures,
        "attempted": len(measured["ops"]),
        "failed": len(failures),
        "metrics": metrics,
    }))


def run_all(args):
    """Every workload, untraced then traced, each run in its own process."""
    summary = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise RunError("%s --trace %d exited with status %d" % (workload, trace, proc.returncode))
            print("\n".join(lines[:-1]))
            for line in lines:
                if line.startswith("environment: "):
                    summary["environment"] = json.loads(line[len("environment: "):])
            summary["workloads"].setdefault(workload, {})["per_layer" if trace else "end_to_end"] = (
                json.loads(lines[-1]))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "results.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print("wrote %s" % (OUT / "results.json").relative_to(ROOT))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        run_all(args) if args.workload == "all" else run_one(args)
    except RunError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        sys.exit(1)


if __name__ == "__main__":
    main()
