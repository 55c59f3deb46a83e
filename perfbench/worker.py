"""One workload process of the benchmark.

run.py starts this script several times per run.  Each start does the whole
set-up (interpreter start, ``import aglerkit``, input generation, one untimed
warm-up op) and reports the moment it was ready for its first timed op.  The
start with ``--role measure`` then runs the timed ops as a closed loop with
one client, one op at a time, timing a fixed calibration task between every
two ops so that run.py can scale op times to a reference host speed.  With
``--trace 1`` every op runs twice, once untraced and once under spans, and a
CLI pass follows.  The last line of standard output is a JSON object with
the results.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# which counter a failed check or an exception in a layer increments
FAILURE_COUNTERS = {
    "stability": "stability.wrong_verdicts",
    "sos": "sos.failed",
    "kernels": "kernels.failed",
    "fixedgraph": "fixedgraph.failed",
    "retract": "retract.failed",
}

# per-layer time metric -> the span whose self time it sums
SPAN_METRICS = {
    "stability.s": "stability.check_stability",
    "sos.s": "sos.solve_gram",
    "serialize.dump_s": "serialize.canonical_dumps",
    "serialize.load_s": "serialize.from_json",
    "kernels.bundle_s": "kernels.from_certificate",
    "kernels.verify_s": "kernels.verify_decomposition",
    "kernels.bounds_s": "kernels.check_bounds",
    "fixedgraph.schur_check_s": "fixedgraph.check_schur",
    "fixedgraph.find_s": "fixedgraph.find_fixed_w",
    "fixedgraph.continue_s": "fixedgraph.continue_graph",
    "retract.normal_form_s": "retract.normal_form",
    "retract.query_s": "retract.image_point",
}
COUNTERS = (
    "stability.calls", "stability.wrong_verdicts",
    "sos.calls", "sos.iterations", "sos.polish_iterations", "sos.failed",
    "serialize.bytes", "serialize.roundtrip_byte_diffs",
    "kernels.failed",
    "fixedgraph.nodes", "fixedgraph.failed",
    "retract.graph_components", "retract.queries", "retract.failed",
)
# time per unit of work: metric -> (time metric, count metric)
RATIOS = {
    "sos.s_per_iter": ("sos.s", "sos.iterations"),
    "fixedgraph.s_per_node": ("fixedgraph.continue_s", "fixedgraph.nodes"),
    "retract.s_per_query": ("retract.query_s", "retract.queries"),
}
CLI_COMMANDS = ("stability", "decompose", "verify", "pick", "fixedgraph", "retract")
# calibration samples taken between two timed ops, and after set-up
GAP_SAMPLES = 3
SETUP_SAMPLES = 5


def calibrate():
    """Wall time of a fixed task that calls nothing in aglerkit.

    The task mixes the kinds of work the ops do, about 1 ms of each:
    interpreted arithmetic, dict work, small numpy array operations, 8 x 8
    LAPACK solves, a 2-D FFT and a 32 x 32 symmetric eigensolve, all small
    enough that BLAS runs them on one thread.  Its time tracks how fast the
    host runs this process at the moment, which on a shared host changes by
    up to 1.7x within seconds; run.py divides op times by it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    grid = rng.standard_normal((128, 128))
    a = rng.standard_normal((32, 32))
    gram = a @ a.T
    start = time.perf_counter()
    total = 0j
    for k in range(4000):
        total += complex(k, 1.0) * 0.5
    counts = {}
    for k in range(2000):
        key = (k % 37, k % 11)
        counts[key] = counts.get(key, 0) + k
    sorted(counts.items())
    x = np.linspace(0.0, 1.0, 2048)
    for _ in range(60):
        x = np.sqrt(x * x + 1.0) - np.abs(np.sin(x))
    m = np.eye(8) * 8.0 + np.outer(x[:8], x[8:16])
    for _ in range(50):
        np.linalg.solve(m, x[:8])
        np.linalg.eigvals(m)
    for _ in range(4):
        np.fft.fft2(grid)
    for _ in range(8):
        np.linalg.eigh(gram)
    return time.perf_counter() - start


def calibrations(count):
    return [calibrate() for _ in range(count)]


def run_op(workload, item, tr, op_id):
    """Time one op, then apply its oracle; a failure is recorded, never raised."""
    out = {}
    tr.op_id = op_id
    start = time.perf_counter()
    try:
        with tr.span("op"):
            workload.run(item, tr, out)
    except Exception as exc:  # a failing op is counted and the run goes on
        elapsed = time.perf_counter() - start
        failed, error = out.get("layer", "op"), "%s: %s" % (type(exc).__name__, exc)
    else:
        elapsed = time.perf_counter() - start
        failed, error = workload.check(item, out, tr), None
    if failed in FAILURE_COUNTERS:
        tr.add(FAILURE_COUNTERS[failed], 1)
    return {"s": elapsed, "failed": failed, "error": error}


def measure_traced(workload, items, twins, tracer):
    """Run each op untraced and traced, alternating which goes first."""
    null = NullTracer()
    ops, untraced_s, traced_s = [], 0.0, 0.0
    for i, (item, twin) in enumerate(zip(items, twins)):
        runs = [(item, null), (twin, tracer)]
        results = {}
        for inp, tr in (runs if i % 2 == 0 else runs[::-1]):
            results[tr is tracer] = run_op(workload, inp, tr, i)
        untraced_s += results[False]["s"]
        traced_s += results[True]["s"]
        ops.append(results[True] if results[True]["failed"] else results[False])
    return ops, traced_s / untraced_s - 1.0


def layer_metrics(tracer, overhead):
    self_times = tracer.self_times()
    metrics = {name: self_times.get(span, 0.0) for name, span in SPAN_METRICS.items()}
    metrics.update({name: tracer.counters.get(name, 0) for name in COUNTERS})
    for name, (time_name, count_name) in RATIOS.items():
        count = metrics[count_name]
        metrics[name] = metrics[time_name] / count if count else 0.0
    for command in CLI_COMMANDS:
        metrics["cli.%s_s" % command] = statistics.median(tracer.durations("cli." + command))
    metrics["trace.overhead_frac"] = overhead
    return metrics


def cli_pass(tracer, inputs):
    """Run each subcommand twice through `python -m aglerkit.cli`; return the failures.

    A subcommand passes when both runs exit 0 with byte-identical output.
    """
    directory = OUT / "cli"
    directory.mkdir(parents=True, exist_ok=True)
    failures = []
    certificate = None
    for command in CLI_COMMANDS:
        path = directory / ("%s.json" % command)
        if command == "verify":
            path.write_bytes(certificate)
        else:
            path.write_text(json.dumps(inputs[command]))
        outputs = []
        for _ in range(2):
            with tracer.span("cli." + command):
                proc = subprocess.run(
                    [sys.executable, "-m", "aglerkit.cli", command, "--input", str(path)],
                    stdout=subprocess.PIPE, cwd=ROOT, timeout=120, check=False,
                )
            outputs.append((proc.returncode, proc.stdout))
        if outputs[0][0] != 0 or outputs[1][0] != 0 or outputs[0][1] != outputs[1][1]:
            failures.append(command)
        if command == "decompose":
            certificate = outputs[0][1]
    return failures


def blas_threads():
    """Thread count of each OpenBLAS library loaded in this process, by file name."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    threads = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads[Path(path).name] = getter()
                break
    return threads


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": blas_threads(),
        "blas_thread_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    args = parser.parse_args()

    tracer = Tracer()
    with tracer.span("setup.import"):
        import aglerkit  # noqa: F401  -- numpy and scipy load here
        import workloads
    with tracer.span("setup.inputs"):
        workload = workloads.WORKLOADS[args.workload]
        passes = workloads.pass_count(args.workload, args.seconds)
        items = workloads.make_ops(args.workload, args.seed, passes)
    with tracer.span("setup.warmup"):
        run_op(workload, workload.warmup_input(), NullTracer(), None)
    result = {
        "ready_at": time.monotonic(),
        "setup": {name: tracer.durations(name)[0]
                  for name in ("setup.import", "setup.inputs", "setup.warmup")},
    }
    result["setup_calibration_s"] = statistics.median(calibrations(SETUP_SAMPLES))
    if args.role == "measure":
        if args.trace:
            twins = workloads.make_ops(args.workload, args.seed, passes)
            result["ops"], overhead = measure_traced(workload, items, twins, tracer)
            result["cli_failures"] = cli_pass(tracer, workloads.cli_inputs())
            result["layers"] = layer_metrics(tracer, overhead)
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.write(OUT / ("trace_%s_seed%d.json" % (args.workload, args.seed)))
        else:
            null = NullTracer()
            result["ops"], result["gaps"] = [], [calibrations(GAP_SAMPLES)]
            for i, item in enumerate(items):
                result["ops"].append(run_op(workload, item, null, i))
                result["gaps"].append(calibrations(GAP_SAMPLES))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["environment"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
