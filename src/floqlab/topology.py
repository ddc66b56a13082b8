"""Winding numbers, gap invariants, and the (tx, ty) phase diagram."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GaplessPointError, ParityError
from .model import (
    TOL_GAP,
    Frame,
    ModelParams,
    angle_quasienergy,
    axis_field,
    brillouin_grid,
    grid_trig,
    step_angles,
)

DEFAULT_RESOLUTION = 2048

# The default phase diagram: cells per axis over [0, 3pi] in tx and ty.
DEFAULT_CELLS = 60
DEFAULT_RANGE = (0.0, 3.0 * np.pi)

# A phase-diagram cell is a boundary cell when either gap drops below this.
BOUNDARY_TOL = 1e-3

# The cap on Newton steps per bracket in band_gaps.  From within one grid
# step of a simple extremum of g, Newton reaches rounding in about four; the
# rest cover the steps that bisect.  The loop stops earlier, with the same
# result, once its state cycles (see band_gaps).
NEWTON_STEPS = 8


def _crossing_count(drive: float, other: float) -> int:
    """Signed crossings of one frame's planar field through its half axis.

    The crossings are the band-inversion momenta drive * f(k) = m pi, with
    f = sin in SYM1 (drive ty) and f = cos in SYM2 (drive tx).  With g the
    complementary function, the two zeros of f(k) = m pi / drive have
    g(k) = +-sqrt(1 - (m pi / drive)^2).  There the partner component is
    (-1)^m sin(other * g(k)), of magnitude sin E, and a zero with a positive
    partner counts sign((-1)^m drive g(k)).  Since sin is odd, exactly one
    zero of each pair has a positive partner, and the pair counts
    sign(drive) sign(sin(other * g)) whatever the parity of m.  Where two
    zeros merge (|drive| = m pi, g = 0) the gap is the distance of |drive| to
    the nearest multiple of pi instead.
    """
    amplitude = abs(drive)
    if abs(amplitude - math.pi * round(amplitude / math.pi)) < TOL_GAP:
        raise GaplessPointError(
            "gapless point: merging band inversions within tol_gap of 0 or pi"
        )
    top = math.floor(amplitude / math.pi)
    count = 0
    for m in range(-top, top + 1):
        ratio = m * math.pi / drive
        partner = math.sin(other * math.sqrt(1.0 - ratio * ratio))
        if abs(partner) < TOL_GAP:
            raise GaplessPointError(
                "gapless point: band inversion within tol_gap of 0 or pi"
            )
        count += 1 if partner > 0.0 else -1
    return count if drive > 0.0 else -count


def winding_number(params: ModelParams, frame: Frame) -> int:
    """Winding of the planar Bloch axis over one Brillouin zone.

    Counted exactly from the band-inversion points.  With theta_x = tx cos k
    and theta_y = ty sin k, the SYM1 field sin(E) n = (sin theta_x
    cos theta_y, sin theta_y) winds by its signed crossings of the +x half
    axis, the SYM2 field (sin theta_x, cos theta_x sin theta_y) by those of
    the +y half axis.  Those crossings are the zeros of the quench-axis
    component, so the quench axis's amplitude is the drive.  Every gap
    closing of the drive lies on one of these points; GaplessPointError is
    raised when the gap there is below TOL_GAP.
    """
    q = frame.quench_axis
    amps = (params.tx, params.ty)
    return _crossing_count(amps[q], amps[1 - q])


def winding_integral(
    params: ModelParams,
    frame: Frame,
    resolution: int = DEFAULT_RESOLUTION,
) -> float:
    """Secondary oracle: trapezoid rule for (1/2pi) \\int (nx dny - ny dnx).

    Returns the raw (unrounded) integral; derivative by centered differences
    on the periodic grid.  Only tests call it: it stays here because
    perfbench/test_perfbench.py imports it, and ROADMAP item 8 moves it into
    tests/conftest.py once the benchmark stops doing so.
    """
    ks = brillouin_grid(resolution)
    _, n = axis_field(ks, params, frame)
    nx, ny = n[:, 0], n[:, 1]
    h = 2.0 * np.pi / resolution
    dnx = (np.roll(nx, -1) - np.roll(nx, 1)) / (2.0 * h)
    dny = (np.roll(ny, -1) - np.roll(ny, 1)) / (2.0 * h)
    return float(np.sum(nx * dny - ny * dnx) * h / (2.0 * np.pi))


@dataclass(frozen=True)
class InvariantPair:
    """Topological invariants of the 0- and pi-quasienergy gaps."""

    nu0: int
    nu_pi: int


def combine_windings(nu1: int, nu2: int) -> InvariantPair:
    """nu0 = (nu1 + nu2)/2 and nu_pi = (nu1 - nu2)/2 from the SYM1 and SYM2
    windings, however they were measured.  Raises ParityError when the two
    differ in parity, since the halves are then not integers."""
    if (nu1 + nu2) % 2:
        raise ParityError(
            f"parity violation: frame windings {nu1}, {nu2} differ in parity"
        )
    return InvariantPair(nu0=(nu1 + nu2) // 2, nu_pi=(nu1 - nu2) // 2)


def gap_invariants(params: ModelParams) -> InvariantPair:
    """The gap invariants of the drive from its two exact frame windings."""
    return combine_windings(
        winding_number(params, Frame.SYM1), winding_number(params, Frame.SYM2)
    )


def _cos_energy_slopes(k, params: ModelParams):
    """g'(k) and g''(k) of g = cos E = cos theta_x cos theta_y, in closed form.

    With theta_x = tx cos k and theta_y = ty sin k, theta_x'' = -theta_x and
    theta_y'' = -theta_y.
    """
    cos_k, sin_k = np.cos(k), np.sin(k)
    thx, thy = params.tx * cos_k, params.ty * sin_k
    dthx, dthy = -params.tx * sin_k, params.ty * cos_k
    cx, sx, cy, sy = np.cos(thx), np.sin(thx), np.cos(thy), np.sin(thy)
    slope = -(sx * cy * dthx + cx * sy * dthy)
    curvature = (
        thx * sx * cy
        + thy * cx * sy
        + 2.0 * sx * sy * dthx * dthy
        - cx * cy * (dthx * dthx + dthy * dthy)
    )
    return slope, curvature


def local_minima(values):
    """Mask of the entries no larger than both periodic neighbours: the same
    test as (v <= np.roll(v, 1)) & (v <= np.roll(v, -1)), from one padded
    copy instead of two rolled ones."""
    padded = np.concatenate((values[-1:], values, values[:1]))
    return (values <= padded[:-2]) & (values <= padded[2:])


def band_gaps(params: ModelParams, resolution: int = DEFAULT_RESOLUTION) -> tuple:
    """(gap0, gap_pi): the minimum distances of E(k) to 0 and to pi.

    One scan of the momentum grid, with E computed from the cached cos k and
    sin k of `grid_trig` by the formula of `quasienergy`, brackets each local
    grid minimum of E (0 gap) and of pi - E (pi gap) by [k - h, k + h], h the
    grid step.  All brackets then take up to NEWTON_STEPS Newton steps
    together on sign * g'(k), g = cos E = cos theta_x cos theta_y, with sign
    +1 for the 0 gap (a maximum of g) and -1 for the pi gap (a minimum).
    Where the curvature has the wrong sign, a step bisects toward the uphill
    end of the bracket; every step is clipped to it.  Each gap is the smaller
    of its grid minimum and its E at the refined momenta.  Every step is
    elementwise, so a gap is bitwise what a pass over its brackets alone
    gives.

    NEWTON_STEPS is a cap, not a count.  A step is a fixed function of the
    bits of k (lo, hi, sign and params do not change), so once k after step
    n has the bytes it had after step n - 2, every later state repeats with
    period 2 (a fixed point shows one step later as such a repeat).  The
    state after NEWTON_STEPS steps is then k after step n when
    NEWTON_STEPS - n is even and k after step n - 1 otherwise, and the loop
    stops there with the result of the full count, bit for bit.  The bytes
    are compared, not the values, so -0.0 and NaN repeat only as themselves.

    g is smooth where a gap closes, while E has a kink (E ~ |k - k0|), so
    Newton on g reaches a closing that sits between grid points, where the
    grid minimum can overshoot the gap by orders of magnitude.  Where two
    closings merge (g'' = 0: |tx| or |ty| near a multiple of pi with the
    other amplitude small) it converges only linearly, and a gap can exceed
    the true one by a few 1e-8, far below BOUNDARY_TOL.
    """
    ks, cos_k, sin_k = grid_trig(resolution)
    energies = angle_quasienergy(params.tx * cos_k, params.ty * sin_k)
    gaps = (energies, np.pi - energies)
    local = [local_minima(v) for v in gaps]
    count0 = np.count_nonzero(local[0])
    h = 2.0 * np.pi / resolution
    k = np.concatenate([ks[local[0]], ks[local[1]]])
    sign = np.where(np.arange(k.size) < count0, 1.0, -1.0)
    lo, hi = k - h, k + h
    # Newton on sign * g, so the extremum sought is always a maximum.
    history = [k.tobytes()]
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(1, NEWTON_STEPS + 1):
            slope, curvature = _cos_energy_slopes(k, params)
            slope, curvature = sign * slope, sign * curvature
            newton = np.minimum(np.maximum(k - slope / curvature, lo), hi)
            concave = curvature < 0.0
            previous = k
            if concave.all():
                k = newton
            else:
                bisect = (k + np.where(slope >= 0.0, hi, lo)) / 2.0
                k = np.where(concave, newton, bisect)
            history.append(k.tobytes())
            if step >= 2 and history[-1] == history[-3]:
                if (NEWTON_STEPS - step) % 2:
                    k = previous
                break
    refined = angle_quasienergy(*step_angles(k, params))
    refined = (refined[:count0], np.pi - refined[count0:])
    return tuple(float(min(v.min(), r.min())) for v, r in zip(gaps, refined))


def min_gap(
    params: ModelParams, which, resolution: int = DEFAULT_RESOLUTION
) -> float:
    """The 0 gap (which = 0) or the pi gap (which = "pi") of `band_gaps`."""
    if which != 0 and which != "pi":
        raise ValueError("which must be 0 or 'pi'")
    return band_gaps(params, resolution)[0 if which == 0 else 1]


@dataclass(frozen=True)
class PhaseDiagramCell:
    tx: float
    ty: float
    boundary: bool
    min_gap0: float
    min_gap_pi: float
    invariants: InvariantPair | None  # None for boundary cells


@dataclass(frozen=True)
class PhaseDiagram:
    cells_per_axis: tuple
    cells: list  # row-major, ty fastest


def _cell_centers(lo: float, hi: float, count: int) -> np.ndarray:
    if count < 1:
        raise ValueError("cell count must be positive")
    if hi == lo:
        return np.full(count, lo)
    step = (hi - lo) / count
    return lo + step * (np.arange(count) + 0.5)


def _evaluate_cell(
    tx: float, ty: float, resolution: int, boundary_tol: float
) -> PhaseDiagramCell:
    params = ModelParams(tx, ty)
    g0, gpi = band_gaps(params, resolution)
    if g0 < boundary_tol or gpi < boundary_tol:
        return PhaseDiagramCell(tx, ty, True, g0, gpi, None)
    inv = gap_invariants(params)
    return PhaseDiagramCell(tx, ty, False, g0, gpi, inv)


def phase_diagram(
    tx_range=DEFAULT_RANGE,
    ty_range=DEFAULT_RANGE,
    cells: int | tuple = DEFAULT_CELLS,
    resolution: int = DEFAULT_RESOLUTION,
    boundary_tol: float = BOUNDARY_TOL,
) -> PhaseDiagram:
    """Invariants over a (tx, ty) grid of cell centers, row-major, ty fastest."""
    nx, ny = (cells, cells) if np.isscalar(cells) else cells
    txs = _cell_centers(tx_range[0], tx_range[1], nx)
    tys = _cell_centers(ty_range[0], ty_range[1], ny)
    results = [
        _evaluate_cell(float(tx), float(ty), resolution, boundary_tol)
        for tx in txs
        for ty in tys
    ]
    return PhaseDiagram(cells_per_axis=(nx, ny), cells=results)
