"""Command-line front end.

Angles are accepted either in radians (plain numbers) or in units of pi
with a trailing "pi", e.g. --tx 0.5pi.  An optional JSON config file
provides per-command defaults that explicit flags override.  Exit codes:
0 success, 1 usage error, invalid value, parity violation or I/O error,
2 no band inversion found, 3 pulse verification failure.
"""

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .errors import FloqlabError, NoBisError
from .lattice import E_TOL, MIN_CELLS, WEIGHT_TOL, count_edge_modes, lattice_spectrum
from .model import Frame, ModelParams
from .pulsegen import compile_schedule, verify_schedule
from .quench import DEFAULT_GRID, DEFAULT_STEPS, QuenchSpec, bis_report, evolve_polarizations
from .serialize import config_hash, write_csv, write_json
from .topology import (
    BOUNDARY_TOL,
    DEFAULT_CELLS,
    DEFAULT_RANGE,
    DEFAULT_RESOLUTION,
    combine_windings,
    phase_diagram,
)

VERIFY_DISTANCE = 1e-10


def parse_angle(text: str) -> float:
    text = text.strip().lower()
    if text.endswith("pi"):
        head = text[:-2]
        value = float(head if head.strip("+-") else head + "1") * np.pi
    else:
        value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"angle must be finite: {text}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer: {text}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive: {text}")
    return value


def chain_length(text: str) -> int:
    value = int(text)
    if value < MIN_CELLS:
        raise argparse.ArgumentTypeError(
            f"need at least {MIN_CELLS} unit cells: {text}")
    return value


def probability(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1: {text}")
    return value


def parse_frame(text: str) -> Frame:
    return Frame(text.lower())


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1; argparse's own 2 means "no band inversion" here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="floqlab", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    # options shared by every command, and by every command at one drive
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="JSON file with defaults for this command")
    common.add_argument("-o", "--output-dir", type=Path, default=Path("."))
    drive = argparse.ArgumentParser(add_help=False, parents=[common])
    drive.add_argument("--tx", type=parse_angle, required=True)
    drive.add_argument("--ty", type=parse_angle, required=True)

    p = sub.add_parser("phase-diagram", parents=[common],
                       help="invariants over a (tx, ty) grid")
    p.add_argument("--tx-min", type=parse_angle, default=DEFAULT_RANGE[0])
    p.add_argument("--tx-max", type=parse_angle, default=DEFAULT_RANGE[1])
    p.add_argument("--ty-min", type=parse_angle, default=DEFAULT_RANGE[0])
    p.add_argument("--ty-max", type=parse_angle, default=DEFAULT_RANGE[1])
    p.add_argument("--cells", type=positive_int, default=DEFAULT_CELLS,
                   help="cells per axis")
    p.add_argument("--resolution", type=positive_int, default=DEFAULT_RESOLUTION)
    p.add_argument("--boundary-tol", type=positive_float, default=BOUNDARY_TOL)
    p.set_defaults(func=cmd_phase_diagram)

    p = sub.add_parser("quench", parents=[drive], help="quench traces and BIS winding report")
    p.add_argument("--frame", choices=["sym1", "sym2", "both"], default="both")
    p.add_argument("--steps", type=positive_int, default=DEFAULT_STEPS)
    p.add_argument("--grid", type=positive_int, default=DEFAULT_GRID)
    p.add_argument("--shots", type=positive_int, default=None)
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.add_argument("--floor-tol", type=positive_float, default=None)
    p.set_defaults(func=cmd_quench)

    p = sub.add_parser("spectrum", parents=[drive], help="open/periodic lattice eigenphases")
    p.add_argument("--frame", type=parse_frame, default=Frame.SYM1)
    p.add_argument("--length", type=chain_length, default=40, help="unit cells")
    p.add_argument("--boundary", choices=["open", "periodic"], default="open")
    p.add_argument("--edge-cells", type=positive_int, default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("edges", parents=[drive], help="count 0- and pi-gap edge modes")
    p.add_argument("--frame", type=parse_frame, default=Frame.SYM1)
    p.add_argument("--length", type=chain_length, default=40)
    p.add_argument("--e-tol", type=positive_float, default=E_TOL)
    p.add_argument("--edge-cells", type=positive_int, default=None)
    p.add_argument("--weight-tol", type=probability, default=WEIGHT_TOL)
    p.set_defaults(func=cmd_edges)

    p = sub.add_parser("pulses", parents=[drive], help="compile a frame evolution to pulses")
    p.add_argument("--k", type=parse_angle, required=True)
    p.add_argument("--frame", type=parse_frame, default=Frame.SYM1)
    p.add_argument("--periods", type=positive_int, default=1)
    p.add_argument("--omega-ref", type=positive_float, required=True,
                   help="reference Rabi rate (rad/s); no physical default")
    p.add_argument("--keep-zero-pulses", action="store_true")
    p.add_argument("--verify", action="store_true",
                   help="re-simulate the schedule and check the distance")
    p.set_defaults(func=cmd_pulses)
    return top


def _config_flags(path: Path, command: str, namespace: dict) -> list:
    """The config file's block for this command, spelled as --flag=value.

    Keys that are not options of the command are ignored; null keeps the
    built-in default.  A switch takes true or false.
    """
    with path.open("r", encoding="utf-8") as fh:
        data = json.load(fh)
    block = data.get(command, data) if isinstance(data, dict) else data
    if not isinstance(block, dict):
        raise ValueError("expected a JSON object")
    flags = []
    for key, value in block.items():
        dest = key.replace("-", "_")
        if dest not in namespace or value is None:
            continue
        flag = "--" + dest.replace("_", "-")
        if isinstance(namespace[dest], bool) and isinstance(value, bool):
            if value:
                flags.append(flag)
        else:
            flags.append(f"{flag}={value}")
    return flags


def cmd_phase_diagram(args) -> int:
    cfg = {
        "command": "phase-diagram",
        "tx_range": [args.tx_min, args.tx_max],
        "ty_range": [args.ty_min, args.ty_max],
        "cells": args.cells,
        "resolution": args.resolution,
        "boundary_tol": args.boundary_tol,
    }
    diagram = phase_diagram(
        (args.tx_min, args.tx_max),
        (args.ty_min, args.ty_max),
        cells=args.cells,
        resolution=args.resolution,
        boundary_tol=args.boundary_tol,
    )
    rows = [
        (
            c.tx,
            c.ty,
            *(("", "") if c.invariants is None else (c.invariants.nu0, c.invariants.nu_pi)),
            int(c.boundary),
            c.min_gap0,
            c.min_gap_pi,
        )
        for c in diagram.cells
    ]
    counts = Counter(
        f"({c.invariants.nu0},{c.invariants.nu_pi})"
        for c in diagram.cells
        if c.invariants is not None
    )
    write_csv(
        args.output_dir / "phase_diagram.csv",
        ["t_x", "t_y", "nu0", "nu_pi", "boundary_flag", "min_gap0", "min_gap_pi"],
        rows,
        cfg,
    )
    write_json(
        args.output_dir / "phase_diagram.json",
        {
            "cells_total": len(diagram.cells),
            "cells_boundary": sum(c.boundary for c in diagram.cells),
            "phase_counts": counts,
        },
        cfg,
    )
    print(f"phase diagram: {len(diagram.cells)} cells -> {args.output_dir}")
    return 0


def cmd_quench(args) -> int:
    frames = [Frame.SYM1, Frame.SYM2] if args.frame == "both" else [Frame(args.frame)]
    cfg = {
        "command": "quench",
        "tx": args.tx,
        "ty": args.ty,
        "frames": [f.value for f in frames],
        "steps": args.steps,
        "grid": args.grid,
        "shots": args.shots,
        "seed": args.seed,
        "floor_tol": args.floor_tol,
    }
    params = ModelParams(args.tx, args.ty)
    # A run leaves only its own files, also when it exits 1 or 2.
    for name in ("quench_sym1.csv", "quench_sym2.csv", "bis_report.json"):
        (args.output_dir / name).unlink(missing_ok=True)
    frame_blocks = {}
    for frame in frames:
        spec = QuenchSpec(
            params=params,
            frame=frame,
            steps=args.steps,
            resolution=args.grid,
            shots=args.shots,
            seed=args.seed,
        )
        trace = evolve_polarizations(spec)
        sx, sy = trace.measured
        ex, ey = trace.stderr
        write_csv(
            args.output_dir / f"quench_{frame.value}.csv",
            ["k", "sigma_x_avg", "sigma_y_avg", "stderr_x", "stderr_y"],
            zip(trace.k_grid.tolist(), sx.tolist(), sy.tolist(), ex.tolist(), ey.tolist()),
            cfg,
        )
        try:
            report = bis_report(trace, floor_tol=args.floor_tol)
        except NoBisError as exc:
            print(json.dumps({
                "error": "no BIS found",
                "detail": str(exc),
                "frame": frame.value,
                "config_hash": config_hash(cfg),
            }, sort_keys=True))
            return 2
        frame_blocks[frame.value] = {
            "bis": [s.k for s in report.slopes],
            "slopes": [
                {
                    "k": s.k,
                    "g": s.g,
                    "raw_slope": s.raw_slope,
                    "group": "k+" if s.positive_group else "k-",
                }
                for s in report.slopes
            ],
            "nu": report.nu,
        }
    payload = {"frames": frame_blocks}
    if len(frames) == 2:
        pair = combine_windings(frame_blocks["sym1"]["nu"], frame_blocks["sym2"]["nu"])
        payload["nu0"], payload["nu_pi"] = pair.nu0, pair.nu_pi
    write_json(args.output_dir / "bis_report.json", payload, cfg)
    summary = {k: v["nu"] for k, v in frame_blocks.items()}
    print(f"quench windings {summary} -> {args.output_dir}")
    return 0


def _write_spectrum_csv(output_dir: Path, frame: Frame, spectrum, cfg: dict) -> None:
    write_csv(
        output_dir / f"spectrum_{frame.value}.csv",
        ["index", "phase", "edge_weight_left", "edge_weight_right"],
        [
            (i, float(spectrum.phases[i]),
             float(spectrum.edge_weight_left[i]), float(spectrum.edge_weight_right[i]))
            for i in range(len(spectrum.phases))
        ],
        cfg,
    )


def cmd_spectrum(args) -> int:
    cfg = {
        "command": "spectrum",
        "tx": args.tx,
        "ty": args.ty,
        "frame": args.frame.value,
        "length": args.length,
        "boundary": args.boundary,
        "edge_cells": args.edge_cells,
    }
    spectrum = lattice_spectrum(
        ModelParams(args.tx, args.ty),
        args.frame,
        args.length,
        args.boundary,
        args.edge_cells,
    )
    _write_spectrum_csv(args.output_dir, args.frame, spectrum, cfg)
    print(f"spectrum: {len(spectrum.phases)} states -> {args.output_dir}")
    return 0


def cmd_edges(args) -> int:
    cfg = {
        "command": "edges",
        "tx": args.tx,
        "ty": args.ty,
        "frame": args.frame.value,
        "length": args.length,
        "e_tol": args.e_tol,
        "edge_cells": args.edge_cells,
        "weight_tol": args.weight_tol,
    }
    params = ModelParams(args.tx, args.ty)
    # as in cmd_quench; cmd_spectrum writes the same spectrum_<frame>.csv
    for name in ["edges.json", *(f"spectrum_{f.value}.csv" for f in Frame)]:
        (args.output_dir / name).unlink(missing_ok=True)
    n_zero, n_pi, spectrum = count_edge_modes(
        params, args.frame, args.length,
        e_tol=args.e_tol, edge_cells=args.edge_cells, weight_tol=args.weight_tol,
    )
    _write_spectrum_csv(args.output_dir, args.frame, spectrum, cfg)
    write_json(
        args.output_dir / "edges.json",
        {"n_zero": n_zero, "n_pi": n_pi, "edge_cells": spectrum.edge_cells},
        cfg,
    )
    print(f"edge modes: n_zero={n_zero} n_pi={n_pi} -> {args.output_dir}")
    return 0


def cmd_pulses(args) -> int:
    cfg = {
        "command": "pulses",
        "tx": args.tx,
        "ty": args.ty,
        "k": args.k,
        "frame": args.frame.value,
        "periods": args.periods,
        "omega_ref": args.omega_ref,
        "elide_zero": not args.keep_zero_pulses,
    }
    params = ModelParams(args.tx, args.ty)
    schedule = compile_schedule(
        args.k, params, args.frame, args.periods, args.omega_ref,
        elide_zero=not args.keep_zero_pulses,
    )
    payload = schedule.to_dict()
    status = 0
    if args.verify:
        distance = verify_schedule(schedule, args.k, params, args.frame, args.periods)
        payload["verify_distance"] = distance
        print(f"round-trip distance {distance:.3e}")
        if distance >= VERIFY_DISTANCE:
            status = 3
    write_json(args.output_dir / "schedule.json", payload, cfg)
    print(f"{len(schedule.pulses)} pulses -> {args.output_dir}")
    return status


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    if args.config is not None:
        # config flags go before the command line's own, so explicit flags win
        try:
            flags = _config_flags(args.config, args.command, vars(args))
        except (OSError, ValueError) as exc:
            parser.error(f"config file {args.config}: {exc}")
        args = parser.parse_args([argv[0], *flags, *argv[1:]])
    try:
        return args.func(args)
    except (FloqlabError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
