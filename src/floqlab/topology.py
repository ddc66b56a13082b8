"""Winding numbers, gap invariants, and the (tx, ty) phase diagram."""

from dataclasses import dataclass

import numpy as np

from .errors import GaplessPointError, ParityError
from .model import TOL_GAP, Frame, ModelParams, axis_field, brillouin_grid, quasienergy

DEFAULT_RESOLUTION = 2048

# The default phase diagram: cells per axis over [0, 3pi] in tx and ty.
DEFAULT_CELLS = 60
DEFAULT_RANGE = (0.0, 3.0 * np.pi)

# A phase-diagram cell is a boundary cell when either gap drops below this.
BOUNDARY_TOL = 1e-3


def _crossing_count(drive: float, other: float) -> int:
    """Signed crossings of one frame's planar field through its half axis.

    The crossings are the band-inversion momenta drive * f(k) = m pi, with
    f = sin in SYM1 (drive ty) and f = cos in SYM2 (drive tx).  With g the
    complementary function, the two zeros of f(k) = m pi / drive have
    g(k) = +-sqrt(1 - (m pi / drive)^2).  There the partner component is
    (-1)^m sin(other * g(k)), of magnitude sin E, and a zero with a positive
    partner counts sign((-1)^m drive g(k)).  Where two zeros merge
    (|drive| = m pi, g = 0) the gap is the distance of |drive| to the
    nearest multiple of pi instead.
    """
    amplitude = abs(drive)
    if abs(amplitude - np.pi * np.rint(amplitude / np.pi)) < TOL_GAP:
        raise GaplessPointError(
            "gapless point: merging band inversions within tol_gap of 0 or pi"
        )
    top = np.floor(amplitude / np.pi)
    m = np.arange(-top, top + 1.0)
    g = np.sqrt(1.0 - (m * np.pi / drive) ** 2)
    g = np.concatenate([g, -g])
    parity = np.tile(1.0 - 2.0 * (m % 2), 2)
    partner = parity * np.sin(other * g)
    if np.any(np.abs(partner) < TOL_GAP):
        raise GaplessPointError(
            "gapless point: band inversion within tol_gap of 0 or pi"
        )
    return int(np.sum(np.where(partner > 0.0, parity * np.sign(drive * g), 0.0)))


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


def gap_invariants(params: ModelParams) -> InvariantPair:
    """nu0 = (nu1 + nu2)/2 and nu_pi = (nu1 - nu2)/2 from the two frames."""
    nu1 = winding_number(params, Frame.SYM1)
    nu2 = winding_number(params, Frame.SYM2)
    if (nu1 + nu2) % 2:
        raise ParityError(
            f"parity violation: frame windings {nu1}, {nu2} differ in parity"
        )
    return InvariantPair(nu0=(nu1 + nu2) // 2, nu_pi=(nu1 - nu2) // 2)


def min_gap(
    params: ModelParams, which, resolution: int = DEFAULT_RESOLUTION
) -> float:
    """Minimum distance of E(k) to the gap center (0 or pi).

    Scans the momentum grid, then narrows the bracket [k - h, k + h] around
    every local grid minimum k (h the grid step) by 50 golden-section steps.
    Each step evaluates both interior points afresh and keeps [a, d] where
    f(c) < f(d), else [c, b].  The result is the smaller of the grid minimum
    and f at the final bracket centres.  A pure grid minimum can overshoot
    the true gap by orders of magnitude when a closing sits between grid
    points, which would let effectively gapless parameters through boundary
    detection.
    """
    ks = brillouin_grid(resolution)
    energies = quasienergy(ks, params)
    if which == 0:
        f = lambda k: quasienergy(k, params)
        values = energies
    elif which == "pi":
        f = lambda k: np.pi - quasienergy(k, params)
        values = np.pi - energies
    else:
        raise ValueError("which must be 0 or 'pi'")
    local = (values <= np.roll(values, 1)) & (values <= np.roll(values, -1))
    h = 2.0 * np.pi / resolution
    a, b = ks[local] - h, ks[local] + h
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(50):
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        keep_left = f(c) < f(d)
        a, b = np.where(keep_left, a, c), np.where(keep_left, d, b)
    return float(min(values.min(), f((a + b) / 2.0).min()))


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
    g0 = min_gap(params, 0, resolution)
    gpi = min_gap(params, "pi", resolution)
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
