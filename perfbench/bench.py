"""Measure one workload and print its metrics.

A timed run executes as many whole passes over the workload's op list as
fit in the time given (always at least one) and reports the end-to-end
metrics.  A traced run executes the first pass once without the tracer and
once with it, and reports the per-layer metrics and the tracing overhead.
Both check every answer and print, before the final result line, one line
with the environment and the counts behind the shares.
"""

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

import tracing
import workloads

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("done_share", "ratio"),
    ("right_share", "ratio"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("model.axis_field.calls", "count"),
    ("model.axis_field.points", "count"),
    ("model.axis_field.self_s", "s"),
    ("model.floquet_operator.self_s", "s"),
    ("spinalg.su2_exp.calls", "count"),
    ("spinalg.su2_exp.self_s", "s"),
    ("model.quasienergy.self_s", "s"),
    ("topology.min_gap.calls", "count"),
    ("topology.min_gap.self_s", "s"),
    ("topology.winding_number.self_s", "s"),
    ("topology.winding_number.max_resolution", "count"),
    ("topology.winding_number.doublings", "count"),
    ("topology.gap_invariants.self_s", "s"),
    ("quench.evolve_polarizations.self_s", "s"),
    ("quench.sample_shots.calls", "count"),
    ("quench.sample_shots.self_s", "s"),
    ("quench.find_bis.calls", "count"),
    ("quench.find_bis.self_s", "s"),
    ("quench.find_bis.axis_field_calls", "count"),
    ("quench.slope_at_bis.calls", "count"),
    ("quench.slope_at_bis.accepted", "count"),
    ("lattice.real_space_floquet.self_s", "s"),
    ("lattice.diagonalize_unitary.self_s", "s"),
    ("lattice.lattice_spectrum.calls", "count"),
    ("lattice.count_edge_modes.calls", "count"),
    ("pulsegen.compile_schedule.self_s", "s"),
    ("pulsegen.simulate_schedule.self_s", "s"),
    ("pulsegen.verify_schedule.self_s", "s"),
    ("serialize.write_csv.self_s", "s"),
    ("serialize.write_json.self_s", "s"),
    ("serialize.bytes", "B"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_share", "ratio"),
)

SETUP_PROBES = 9

# A fresh interpreter imports floqlab and builds the first pass; the parent
# times it from launch until "ready" arrives.
_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "w = workloads.WORKLOADS[sys.argv[3]]; w('.'); w.inputs(int(sys.argv[4]), 0); "
    "print('ready', flush=True)"
)


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile, as numpy.percentile computes it."""
    xs = sorted(values)
    h = (len(xs) - 1) * pct / 100.0
    lo = int(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (h - lo)


def setup_seconds(root: Path, workload: str, seed: int) -> float:
    """Median time from interpreter launch to the first op being ready."""
    argv = [sys.executable, "-c", _PROBE, str(root / "perfbench"), str(root / "src"),
            workload, str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=root, stdout=subprocess.PIPE) as probe:
            line = probe.stdout.readline()
            samples.append(time.perf_counter() - start)
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {probe.returncode}")
    return statistics.median(samples)


def _commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def environment(root: Path, seed: int, inherited: dict) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env_inherited": inherited,
        "thread_env_workload": {v: os.environ.get(v) for v in inherited},
        "commit": _commit(root),
        "seed": seed,
    }


def timed_passes(workload, seed: int, seconds: float):
    """Whole passes, as many as are expected to fit in `seconds` (at least
    one): another pass starts only if the last one would still fit."""
    start = time.perf_counter()
    passes = []
    while True:
        begun = time.perf_counter()
        passes.append([workloads.run_op(workload, op)
                       for op in workload.inputs(seed, len(passes))])
        now = time.perf_counter()
        if (now - start) + (now - begun) > seconds:
            return passes


def layer_values(stats, present, overhead_share) -> dict:
    """Per-layer metric values; a function missing from this version of
    floqlab is reported as absent (None), never as zero."""
    values = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead_share":
            values[name] = overhead_share
        elif name == "serialize.bytes":
            seen = any(w in present for w in tracing.WRITERS)
            values[name] = sum(stats[w]["bytes"] for w in tracing.WRITERS) if seen else None
        else:
            function, stat = name.rsplit(".", 1)
            values[name] = stats[function][stat] if function in present else None
    return values


def traced_pass(workload, seed: int, spans_path: Path):
    """One pass without and one with the tracer; per-layer metric values."""
    ops = workload.inputs(seed, 0)
    outcomes = [workloads.run_op(workload, op) for op in ops]
    plain_wall = sum(o.latency_s for o in outcomes)
    with tracing.Tracer() as tracer:
        for index, op in enumerate(ops):
            tracer.op = index
            outcomes.append(workloads.run_op(workload, op))
    traced_wall = sum(o.latency_s for o in outcomes[len(ops):])
    tracer.write(spans_path)
    stats = tracing.function_stats(tracer.spans)
    values = layer_values(stats, tracer.present, traced_wall / plain_wall - 1.0)
    derived = {
        "find_bis_scalar_axis_field_calls_per_call": _ratio(
            stats["quench.find_bis"]["axis_field_calls"], stats["quench.find_bis"]["calls"]),
        "slope_accept_ratio": _ratio(
            stats["quench.slope_at_bis"]["accepted"], stats["quench.slope_at_bis"]["calls"]),
        "lattice_spectra_per_edges_command": _ratio(
            stats["lattice.lattice_spectrum"]["calls"], stats["lattice.count_edge_modes"]["calls"]),
        "spans": len(tracer.spans),
        "plain_pass_wall_s": plain_wall,
        "traced_pass_wall_s": traced_wall,
    }
    return outcomes, values, derived


def _ratio(num, den):
    return num / den if den else None


def end_to_end(workload, passes, setup_s) -> dict:
    outcomes = [o for whole in passes for o in whole]
    walls = [sum(o.latency_s for o in whole) for whole in passes]
    latencies = [o.latency_s for o in outcomes]
    completed = sum(not o.failed for o in outcomes)
    wrong = sum(o.verdict == "wrong" for o in outcomes)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1e3 * percentile(latencies, 50.0),
        "op_tail_ms": 1e3 * percentile(latencies, workload.tail_pct),
        "done_share": completed / len(outcomes),
        "right_share": 1.0 - wrong / completed if completed else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def tally(workload, outcomes, golden) -> dict:
    completed = [o for o in outcomes if not o.failed]
    wrong = sum(o.verdict == "wrong" for o in completed)
    errors = {}
    for o in outcomes:
        if o.failed:
            errors[o.error] = errors.get(o.error, 0) + 1
    return {
        "attempted": len(outcomes),
        "failed": len(outcomes) - len(completed),
        "failed_share": 1.0 - len(completed) / len(outcomes),
        "wrong": wrong,
        "wrong_share": wrong / len(completed) if completed else None,
        "unscored": sum(o.verdict == "unscored" for o in completed),
        "malformed": sorted({o.malformed for o in outcomes + golden if o.malformed}),
        "golden": [{"failed": o.failed, "verdict": o.verdict} for o in golden],
        "errors": errors,
        "tail_pct": workload.tail_pct,
    }


def is_correct(workload, counts) -> bool:
    """No output breaks an exact property, the golden points come out right,
    and an exact workload gives no wrong answer."""
    return (not counts["malformed"]
            and all(g == {"failed": False, "verdict": "right"} for g in counts["golden"])
            and not (workload.exact and counts["wrong"]))


def main(name: str, seed: int, seconds: int, trace: bool, inherited: dict, root: Path) -> int:
    workload_cls = workloads.WORKLOADS[name]
    setup_s = None if trace else setup_seconds(root, name, seed)
    out = root / ".perfbench"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="ops-") as opdir:
        workload = workload_cls(Path(opdir))
        golden = [workloads.run_op(workload, op) for op in workload.golden()]
        if trace:
            spans_path = out / f"spans-{name}-seed{seed}.jsonl.gz"
            outcomes, values, derived = traced_pass(workload, seed, spans_path)
            units = PER_LAYER
        else:
            passes = timed_passes(workload, seed, seconds)
            outcomes = [o for whole in passes for o in whole]
            values = end_to_end(workload, passes, setup_s)
            derived = {"whole_passes": len(passes)}
            units = END_TO_END
    counts = tally(workload, outcomes, golden)
    correct = is_correct(workload, counts)
    metrics = {n: {"value": values[n], "unit": unit} for n, unit in units}
    details = {
        "workload": name,
        "trace": trace,
        "counts": counts,
        "derived": derived,
        "environment": environment(root, seed, inherited),
    }
    for n, unit in units:
        print(f"{n:45s} {values[n]!r:>24} {unit}")
    print(json.dumps({"details": details}, sort_keys=True))
    result = {"correct": correct, "attempted": counts["attempted"],
              "failed": counts["failed"], "metrics": metrics}
    with (out / f"result-{name}-seed{seed}-trace{int(trace)}.json").open("w", encoding="utf-8") as fh:
        json.dump({"result": result, "details": details}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0
