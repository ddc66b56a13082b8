"""The benchmark's workloads: seeded inputs, one op each, and the check of
each op's answer against the exact reference.

Inputs are drawn with Python's `random` from the workload name, the seed
and the pass index; floqlab is never consulted, so the inputs stay the same
whatever the program does with them.  `diagram` has fixed inputs.  Each
pass of `quench` and `edges` covers [0, 3pi]^2 with one uniform point per square of a stratified grid,
which keeps the share of hard points steady from seed to seed.

An op either calls `floqlab.cli.main(argv)` in-process with its output
directory inside the run's temporary directory, or calls the public
`floqlab.topology.phase_diagram`.  An op fails when it raises or exits
non-zero, and keeps the time it took.
"""

import contextlib
import io
import json
import math
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import reference

THREE_PI = 3.0 * math.pi
GOLDEN = ((0.5 * math.pi, 0.5 * math.pi), (2.5 * math.pi, 0.5 * math.pi))
OMEGA_REF = 2.0 * math.pi * 1e6
VERIFY_DISTANCE = 1e-10


@dataclass
class Outcome:
    latency_s: float
    failed: bool
    verdict: str = "unscored"      # "right", "wrong" or "unscored"
    malformed: str | None = None   # an output that breaks an exact property
    error: str | None = None       # exception type or exit code of a failed op


def run_op(workload, op) -> Outcome:
    """Time one op, then check what it wrote or returned (untimed)."""
    workload.clear()
    start = time.perf_counter()
    try:
        raw = workload.execute(op)
    except Exception as exc:  # the op boundary: any raise is a failed op
        return Outcome(time.perf_counter() - start, True, error=type(exc).__name__)
    latency = time.perf_counter() - start
    try:
        return workload.check(op, raw, latency)
    except (OSError, LookupError, TypeError, ValueError) as exc:
        return Outcome(latency, False, malformed=f"unreadable output: {exc!r}")


def _angle(x: float) -> str:
    # floqlab's parse_angle rejects the repr of a numpy scalar
    return repr(float(x))


def _strata(name: str, seed: int, pass_index: int, per_axis: int):
    """One uniform point per square of a per_axis x per_axis grid on [0, 3pi]^2."""
    rng = random.Random(f"{name}:{seed}:{pass_index}")
    cell = THREE_PI / per_axis
    points = [
        (i, j, (i + rng.random()) * cell, (j + rng.random()) * cell)
        for i in range(per_axis)
        for j in range(per_axis)
    ]
    return rng, points


class _CliWorkload:
    """Shared plumbing of the workloads that drive floqlab through its CLI."""

    def __init__(self, outdir):
        from floqlab import cli

        self.cli = cli
        self.outdir = Path(outdir)

    def clear(self):
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)

    def call(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return self.cli.main(argv)


def _read_json(path: Path):
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path: Path) -> int:
    """Data rows of a floqlab CSV (after the hash comment and the header)."""
    with path.open("r", encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 2


class Diagram:
    """Single cells of the default 60x60 phase diagram at resolution 2048.

    A pass is every third row and column of the default grid (400 cells),
    each evaluated as phase_diagram((tx, tx), (ty, ty), cells=(1, 1)),
    which returns exactly the default grid's cell center.  The 0-gap
    closing curve passes next to two of these cells, so the pass contains
    the program's hardest inputs.

    The cells run in the default diagram's row-major order, whatever the
    seed: the first cell that drives winding_number to its 2^20 cap leaves
    the process's allocator in a state in which later cells run faster, so
    a seeded order would make the median latency depend on the seed.
    """

    name = "diagram"
    tail_pct = 97.5
    exact = True          # the static invariants have no estimation error
    GRID = 60
    STRIDE = 3

    def __init__(self, outdir=None):
        from floqlab import topology

        self.topology = topology

    @classmethod
    def centers(cls):
        """Cell centers of the default grid, computed as floqlab does."""
        lo, hi = 0.0, THREE_PI
        step = (hi - lo) / cls.GRID
        return [lo + step * (i + 0.5) for i in range(cls.GRID)]

    @classmethod
    def inputs(cls, seed: int, pass_index: int):
        c = cls.centers()
        return [(c[i], c[j]) for i in range(0, cls.GRID, cls.STRIDE)
                for j in range(0, cls.GRID, cls.STRIDE)]

    @staticmethod
    def golden():
        return list(GOLDEN)

    def clear(self):
        pass

    def execute(self, op):
        tx, ty = op
        return self.topology.phase_diagram((tx, tx), (ty, ty), cells=(1, 1))

    def check(self, op, diagram, latency) -> Outcome:
        tx, ty = op
        out = Outcome(latency, False)
        if len(diagram.cells) != 1 or (diagram.cells[0].tx, diagram.cells[0].ty) != op:
            out.malformed = "cell center differs from the requested center"
            return out
        cell = diagram.cells[0]
        if cell.boundary != (cell.invariants is None):
            out.malformed = "boundary flag disagrees with the invariants"
            return out
        expected = reference.gap_invariants(tx, ty)
        if cell.boundary or expected is None:
            return out
        got = (cell.invariants.nu0, cell.invariants.nu_pi)
        out.verdict = "right" if got == expected else "wrong"
        return out


@dataclass(frozen=True)
class QuenchOp:
    tx: float
    ty: float
    sampled: bool
    shots_seed: int
    k: float

    @property
    def steps(self) -> int:
        return 10 if self.sampled else 60


class Quench(_CliWorkload):
    """`floqlab quench --frame both --grid 512`, then `floqlab pulses --verify`.

    Half of each pass (a checkerboard of the strata, flipped every pass) is
    noise-free with --steps 60; the other half is sampled with --steps 10
    --shots 1000000.  The pulses command compiles and verifies the same
    point at a seeded momentum for as many periods as the quench has steps.
    """

    name = "quench"
    tail_pct = 90.0
    exact = False         # a finite-time, finite-shot readout of the winding
    STRATA = 12

    @classmethod
    def inputs(cls, seed: int, pass_index: int):
        rng, points = _strata(cls.name, seed, pass_index, cls.STRATA)
        ops = [
            QuenchOp(tx, ty, (i + j + pass_index) % 2 == 1,
                     rng.randrange(2**31), rng.uniform(-math.pi, math.pi))
            for i, j, tx, ty in points
        ]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def golden():
        return [QuenchOp(tx, ty, False, 0, 0.3) for tx, ty in GOLDEN]

    def execute(self, op: QuenchOp):
        run = ["--steps", str(op.steps)]
        if op.sampled:
            run += ["--shots", "1000000", "--seed", str(op.shots_seed)]
        code = self.call(["quench", "--tx", _angle(op.tx), "--ty", _angle(op.ty),
                          "--frame", "both", "--grid", "512", *run,
                          "-o", str(self.outdir)])
        if code != 0:
            return ("quench", code)
        code = self.call(["pulses", "--tx", _angle(op.tx), "--ty", _angle(op.ty),
                          "--k", _angle(op.k), "--periods", str(op.steps),
                          "--omega-ref", _angle(OMEGA_REF), "--verify",
                          "-o", str(self.outdir)])
        return ("pulses", code)

    def check(self, op: QuenchOp, raw, latency) -> Outcome:
        command, code = raw
        out = Outcome(latency, code != 0)
        if code != 0:
            out.error = f"{command} exit {code}"
            return out
        report = _read_json(self.outdir / "bis_report.json")
        nu1, nu2 = report["frames"]["sym1"]["nu"], report["frames"]["sym2"]["nu"]
        schedule = _read_json(self.outdir / "schedule.json")
        if (report.get("nu0"), report.get("nu_pi")) != ((nu1 + nu2) // 2, (nu1 - nu2) // 2):
            out.malformed = "nu0/nu_pi disagree with the frame windings"
        elif any(_csv_rows(self.outdir / f"quench_{f}.csv") != 512 for f in ("sym1", "sym2")):
            out.malformed = "quench CSV does not have one row per momentum"
        elif not schedule.get("verify_distance", math.inf) < VERIFY_DISTANCE:
            out.malformed = "pulses exited 0 without a verified schedule"
        if out.malformed:
            return out
        expected = reference.frame_windings(op.tx, op.ty)
        if expected is not None:
            out.verdict = "right" if (nu1, nu2) == expected else "wrong"
        return out


class Edges(_CliWorkload):
    """`floqlab edges --frame sym1` at --length 40 and then --length 200.

    The L=200 counts are compared with (2|nu0|, 2|nu_pi|).  That is the
    infinite-chain count: where an edge mode's localization length is not
    small against 200 cells, its partner splitting exceeds --e-tol and the
    finite chain legitimately disagrees.  Such ops count as wrong answers,
    which is why `edges` is not an exact workload.
    """

    name = "edges"
    tail_pct = 80.0
    exact = False
    STRATA = 8
    LENGTHS = (40, 200)

    @classmethod
    def inputs(cls, seed: int, pass_index: int):
        rng, points = _strata(cls.name, seed, pass_index, cls.STRATA)
        ops = [(tx, ty) for _, _, tx, ty in points]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def golden():
        return list(GOLDEN)

    def execute(self, op):
        tx, ty = op
        for length in self.LENGTHS:
            code = self.call(["edges", "--tx", _angle(tx), "--ty", _angle(ty),
                              "--frame", "sym1", "--length", str(length),
                              "-o", str(self.outdir / f"L{length}")])
            if code != 0:
                return (length, code)
        return (None, 0)

    def check(self, op, raw, latency) -> Outcome:
        length, code = raw
        out = Outcome(latency, code != 0)
        if code != 0:
            out.error = f"edges L={length} exit {code}"
            return out
        counts = {}
        for length in self.LENGTHS:
            d = self.outdir / f"L{length}"
            edges = _read_json(d / "edges.json")
            counts[length] = (edges["n_zero"], edges["n_pi"])
            if min(counts[length]) < 0 or _csv_rows(d / "spectrum_sym1.csv") != 2 * length:
                out.malformed = f"L={length} output is inconsistent"
                return out
        expected = reference.gap_invariants(*op)
        if expected is not None:
            want = (2 * abs(expected[0]), 2 * abs(expected[1]))
            out.verdict = "right" if counts[self.LENGTHS[-1]] == want else "wrong"
        return out


WORKLOADS = {w.name: w for w in (Diagram, Quench, Edges)}
