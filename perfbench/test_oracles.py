"""Each oracle accepts the program's answer and rejects a slightly wrong one.

    python3 -m pytest perfbench/test_oracles.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from aglerkit import SosCertificate  # noqa: E402
from aglerkit.serialize import canonical_dumps  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402


def run_checked(workload, item):
    out = {}
    workload.run(item, NullTracer(), out)
    assert workload.check(item, out, NullTracer()) is None
    return out


def test_gram_entry_perturbed_by_1e6_fails_verification():
    ladder = workloads.WORKLOADS["certify_ladder"]
    item = workloads.make_ops("certify_ladder", 5, 1)[0]
    out = run_checked(ladder, item)

    stored = json.loads(out["text"])
    stored["G_A"][0][0][0] += 1e-6
    text = canonical_dumps(stored)
    tampered = SosCertificate.from_json(json.loads(text))
    out["verification"], out["bounds"] = ladder.kernel_checks(tampered, NullTracer())
    out.update(text=text, loaded=tampered)
    assert ladder.check(item, out, NullTracer()) == "kernels"


def test_graph_value_shifted_by_1e6_fails_closed_form():
    grid = workloads.WORKLOADS["graph_grid"]
    item = workloads.make_ops("graph_grid", 5, 1)[0]
    out = run_checked(grid, item)

    out["graphs"][1].values[7, 3] += 1e-6
    assert grid.check(item, out, NullTracer()) == "fixedgraph"


def test_wrong_normal_form_shape_fails():
    forms = workloads.WORKLOADS["retract_forms"]
    item = workloads.make_ops("retract_forms", 5, 1)[0]
    out = run_checked(forms, item)

    # the cubic curve's form, (1, 0, 2), given as the parabola's answer
    out["forms"]["parabola"] = out["forms"]["cubic_curve"]
    assert forms.check(item, out, NullTracer()) == "retract"


def test_failed_op_counts_as_slowest_and_tail_keeps_ten_ops_beyond():
    ops = [{"s": 0.01 * k, "failed": None} for k in range(1, 21)]
    ops[0]["failed"] = "sos"
    metrics, note = run.end_to_end({"ops": ops, "peak_rss_mb": 1.0}, [1.0, 2.0, 3.0])
    assert metrics["op_s.tail"] == ops[10]["s"]  # 9 slower ops and the failure lie beyond
    assert metrics["failed_frac"] == 0.05
    assert metrics["setup_s"] == 2.0
    assert note == "op_s.tail is p50.0 of 20 ops"

    for op in ops[:11]:
        op["failed"] = "sos"
    metrics, _ = run.end_to_end({"ops": ops, "peak_rss_mb": 1.0}, [1.0])
    assert metrics["op_s.tail"] == math.inf
    assert metrics["certified_per_s"] == 9 / sum(op["s"] for op in ops)


def test_op_times_scale_by_calibration_near_each_op():
    ref = run.CALIBRATION_REF_S
    ops = [{"s": 1.0, "failed": None} for _ in range(3)]
    # the host runs at half speed from just before the last op on
    gaps = [[ref, ref], [ref, ref], [2 * ref, 2 * ref], [2 * ref, 2 * ref]]
    run.to_reference_speed(ops, gaps)
    assert [op["wall_s"] for op in ops] == [1.0, 1.0, 1.0]
    assert ops[0]["s"] == 1.0
    assert ops[2]["s"] == 0.5


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
        with tracer.span("inner"):
            pass
    totals = tracer.self_times()
    inner = sum(tracer.durations("inner"))
    assert np.isclose(totals["inner"], inner)
    assert np.isclose(totals["outer"], tracer.durations("outer")[0] - inner)
