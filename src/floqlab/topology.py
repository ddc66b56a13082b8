"""Winding numbers, gap invariants, and the (tx, ty) phase diagram."""

from dataclasses import dataclass, field

import numpy as np

from .errors import GaplessPointError
from .model import TOL_GAP, Frame, ModelParams, axis_field, brillouin_grid, quasienergy

DEFAULT_RESOLUTION = 2048

# A phase-diagram cell is a boundary cell when either gap drops below this.
BOUNDARY_TOL = 1e-3

# Secondary-oracle agreement tolerance (trapezoid integral, before rounding).
INTEGRAL_TOL = 1e-3


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
    the +y half axis.  Every gap closing of the drive lies on one of these
    points; GaplessPointError is raised when the gap there is below TOL_GAP.
    """
    if frame is Frame.SYM1:
        return _crossing_count(params.ty, params.tx)
    if frame is Frame.SYM2:
        return _crossing_count(params.tx, params.ty)
    raise ValueError("winding is defined for the symmetric frames only")


def winding_integral(
    params: ModelParams,
    frame: Frame,
    resolution: int = DEFAULT_RESOLUTION,
) -> float:
    """Secondary oracle: trapezoid rule for (1/2pi) \\int (nx dny - ny dnx).

    Returns the raw (unrounded) integral; derivative by centered differences
    on the periodic grid.
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
        raise RuntimeError(
            f"parity violation: frame windings {nu1}, {nu2} differ in parity"
        )
    return InvariantPair(nu0=(nu1 + nu2) // 2, nu_pi=(nu1 - nu2) // 2)


def min_gap(
    params: ModelParams, which, resolution: int = DEFAULT_RESOLUTION
) -> float:
    """Minimum distance of E(k) to the gap center (0 or pi).

    Scans the momentum grid and then refines every local minimum by
    golden-section search; a pure grid minimum can overshoot the true gap
    by orders of magnitude when a closing sits between grid points, which
    would let effectively gapless parameters through boundary detection.
    """
    ks = brillouin_grid(resolution)
    energies = quasienergy(ks, params)
    if which == 0:
        f = lambda k: quasienergy(k, params)
        values = energies
    elif which in ("pi", np.pi):
        f = lambda k: np.pi - quasienergy(k, params)
        values = np.pi - energies
    else:
        raise ValueError("which must be 0 or 'pi'")
    local = (values <= np.roll(values, 1)) & (values <= np.roll(values, -1))
    idx = np.where(local)[0]
    if idx.size == 0:
        return float(values.min())
    h = 2.0 * np.pi / resolution
    lo, hi = ks[idx] - h, ks[idx] + h
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(50):
        take_left = fc < fd
        b = np.where(take_left, d, b)
        a = np.where(take_left, a, c)
        d = np.where(take_left, c, d)
        c = np.where(take_left, b - invphi * (b - a), d)
        fd = np.where(take_left, fc, fd)
        fc = np.where(take_left, f(c), fc)
        # symmetric update for the right branch
        c2 = np.where(take_left, c, c)
        d2 = a + invphi * (b - a)
        fd = np.where(take_left, fd, f(d2))
        d = np.where(take_left, d, d2)
    refined = np.minimum(fc, fd)
    return float(min(values.min(), refined.min()))


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
    tx_range: tuple
    ty_range: tuple
    cells_per_axis: tuple
    resolution: int
    boundary_tol: float
    cells: list = field(default_factory=list)  # row-major, ty fastest

    def cell_at(self, tx: float, ty: float) -> PhaseDiagramCell:
        """Cell whose center is nearest to (tx, ty)."""
        return min(
            self.cells, key=lambda c: (c.tx - tx) ** 2 + (c.ty - ty) ** 2
        )


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
    tx_range=(0.0, 3.0 * np.pi),
    ty_range=(0.0, 3.0 * np.pi),
    cells: int | tuple = 60,
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
    return PhaseDiagram(
        tx_range=(float(tx_range[0]), float(tx_range[1])),
        ty_range=(float(ty_range[0]), float(ty_range[1])),
        cells_per_axis=(nx, ny),
        resolution=resolution,
        boundary_tol=boundary_tol,
        cells=results,
    )
