"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from floqlab import cli, topology  # noqa: E402
from floqlab.errors import InsufficientResolutionError  # noqa: E402
from floqlab.model import Frame, ModelParams  # noqa: E402

CASE1 = (0.5 * math.pi, 0.5 * math.pi)
CASE2 = (2.5 * math.pi, 0.5 * math.pi)


@pytest.mark.parametrize("name", ["quench", "edges"])
def test_inputs_follow_the_seed(name):
    w = workloads.WORKLOADS[name]
    assert w.inputs(7, 0) == w.inputs(7, 0)
    assert w.inputs(7, 0) != w.inputs(8, 0)
    assert w.inputs(7, 0) != w.inputs(7, 1)


def test_diagram_inputs_are_fixed_and_row_major():
    cells = workloads.Diagram.inputs(7, 0)
    assert cells == workloads.Diagram.inputs(8, 1)
    assert cells == sorted(cells)


@pytest.mark.parametrize("name", ["quench", "edges"])
def test_strata_cover_the_square_once(name):
    w = workloads.WORKLOADS[name]
    ops = w.inputs(3, 0)
    points = [(op.tx, op.ty) if hasattr(op, "tx") else op for op in ops]
    cell = workloads.THREE_PI / w.STRATA
    squares = {(int(tx // cell), int(ty // cell)) for tx, ty in points}
    assert len(points) == len(squares) == w.STRATA**2


def test_quench_pass_is_half_sampled():
    for pass_index in (0, 1):
        ops = workloads.Quench.inputs(5, pass_index)
        assert sum(op.sampled for op in ops) * 2 == len(ops)


def test_diagram_cells_are_default_grid_centers():
    # boundary_tol above any gap makes every cell a cheap boundary cell
    kwargs = dict(resolution=256, boundary_tol=10.0)
    txs = [c.tx for c in topology.phase_diagram((0.0, 3 * np.pi), (0.0, 0.0), cells=(60, 1), **kwargs).cells]
    tys = [c.ty for c in topology.phase_diagram((0.0, 0.0), (0.0, 3 * np.pi), cells=(1, 60), **kwargs).cells]
    cells = workloads.Diagram.inputs(11, 0)
    every_third = {(txs[i], tys[j]) for i in range(0, 60, 3) for j in range(0, 60, 3)}
    assert len(cells) == 400
    assert set(cells) == every_third
    # the cells where the 0-gap closing curve defeats winding_number today
    assert (txs[21], tys[54]) in every_third and (txs[54], tys[21]) in every_third


def test_diagram_op_returns_the_requested_center():
    w = workloads.Diagram(None)
    cell = workloads.Diagram.inputs(1, 0)[0]
    outcome = workloads.run_op(w, cell)
    assert outcome.malformed is None


def test_reference_golden_values():
    assert reference.frame_windings(*CASE1) == (1, 1)
    assert reference.frame_windings(*CASE2) == (1, 5)
    assert reference.gap_invariants(*CASE1) == (1, 0)
    assert reference.gap_invariants(*CASE2) == (3, -2)


def test_reference_has_no_answer_at_tangent_or_coincident_zeros():
    assert reference.frame_windings(1.3, math.pi) is None          # ty = pi: tangent
    root2 = math.sqrt(2.0) * math.pi                               # on a closing curve
    assert reference.frame_windings(root2, root2) is None


def test_reference_agrees_with_the_program_on_a_seeded_sample():
    rng = np.random.default_rng(2012)
    checked = 0
    while checked < 20:
        tx, ty = (float(x) for x in rng.uniform(0.0, 3 * np.pi, 2))
        params = ModelParams(tx, ty)
        if min(topology.min_gap(params, 0, 1024), topology.min_gap(params, "pi", 1024)) < 0.05:
            continue
        numeric = tuple(topology.winding_number(params, f) for f in (Frame.SYM1, Frame.SYM2))
        integral = tuple(round(topology.winding_integral(params, f, 8192))
                         for f in (Frame.SYM1, Frame.SYM2))
        assert reference.frame_windings(tx, ty) == numeric == integral
        checked += 1


def test_angles_reach_the_cli_unchanged():
    x = np.float64(1.2345678901234567)
    assert cli.parse_angle(workloads._angle(x)) == float(x)


def _slow_failure(*args, **kwargs):
    time.sleep(0.05)
    raise RuntimeError("unpaired inversion points: slope sum is odd")


def test_raising_cli_op_is_failed_and_keeps_its_time(tmp_path, monkeypatch):
    w = workloads.Quench(tmp_path)
    monkeypatch.setattr(w.cli, "main", _slow_failure)
    outcome = workloads.run_op(w, workloads.Quench.inputs(1, 0)[0])
    assert outcome.failed and outcome.error == "RuntimeError"
    assert outcome.latency_s >= 0.05


def test_nonzero_exit_is_failed_and_keeps_its_time(tmp_path, monkeypatch):
    def exits_one(argv):
        time.sleep(0.05)
        return 1

    w = workloads.Edges(tmp_path)
    monkeypatch.setattr(w.cli, "main", exits_one)
    outcome = workloads.run_op(w, workloads.Edges.inputs(1, 0)[0])
    assert outcome.failed and outcome.error == "edges L=40 exit 1"
    assert outcome.latency_s >= 0.05


def test_raising_diagram_op_is_counted_as_failed(monkeypatch):
    def raises(*args, **kwargs):
        time.sleep(0.05)
        raise InsufficientResolutionError("insufficient resolution")

    w = workloads.Diagram(None)
    monkeypatch.setattr(w.topology, "phase_diagram", raises)
    outcomes = [workloads.run_op(w, cell) for cell in workloads.Diagram.inputs(1, 0)[:3]]
    counts = bench.tally(w, outcomes, golden=[])
    assert counts["attempted"] == 3 and counts["failed"] == 3
    assert counts["errors"] == {"InsufficientResolutionError": 3}
    metrics = bench.end_to_end(w, [outcomes], 0.2)
    assert metrics["op_p50_ms"] >= 50.0 and metrics["done_share"] == 0.0


def test_wrong_answers_break_only_exact_workloads():
    right = workloads.Outcome(0.01, False, verdict="right")
    wrong = workloads.Outcome(0.01, False, verdict="wrong")
    for w in (workloads.Diagram, workloads.Edges):
        counts = bench.tally(w, [right, wrong], golden=[right])
        assert counts["wrong_share"] == 0.5
        assert bench.is_correct(w, counts) is not w.exact
    counts = bench.tally(workloads.Edges, [right], golden=[wrong])
    assert not bench.is_correct(workloads.Edges, counts)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    outcome = workloads.Outcome(0.01, False, verdict="right")
    e2e = bench.end_to_end(workloads.Quench, [[outcome] * 20], 0.2)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    layers = bench.layer_values(tracing.function_stats([]), set(), 0.1)
    assert list(layers) == [m["name"] for m in spec["per_layer"]]


def test_tracer_records_nested_layers_and_restores_the_program():
    original = topology.min_gap
    w = workloads.Diagram(None)
    with tracing.Tracer() as tracer:
        tracer.op = 0
        assert workloads.run_op(w, CASE1).verdict == "right"
    assert topology.min_gap is original
    stats = tracing.function_stats(tracer.spans)
    assert stats["topology.min_gap"]["calls"] == 2
    assert stats["topology.winding_number"]["calls"] == 2
    assert stats["topology.winding_number"]["max_resolution"] == 2048
    assert stats["topology.winding_number"]["doublings"] == 0
    assert stats["model.axis_field"]["points"] == 2 * 2048
    assert stats["spinalg.su2_exp"]["calls"] > 0
    assert {"lattice.count_edge_modes", "cli.main", "serialize.write_csv"} <= tracer.present
    total = sum(s[tracing.END] - s[tracing.START] for s in tracer.spans if s[tracing.PARENT] < 0)
    assert math.isclose(sum(v["self_s"] for v in stats.values()), total, rel_tol=1e-6)


def test_absent_function_is_not_reported_as_zero():
    present = {n.rsplit(".", 1)[0] for n, _ in bench.PER_LAYER} | set(tracing.WRITERS)
    present.discard("spinalg.su2_exp")
    values = bench.layer_values(tracing.function_stats([]), present, 0.1)
    assert values["spinalg.su2_exp.calls"] is None
    assert values["model.axis_field.calls"] == 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quench", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
