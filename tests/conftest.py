import numpy as np
import pytest

from floqlab.model import Frame, ModelParams
from floqlab.spinalg import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, su2_exp

CASE1 = ModelParams(0.5 * np.pi, 0.5 * np.pi)
CASE2 = ModelParams(2.5 * np.pi, 0.5 * np.pi)

# Spinor oracles: plain matrix algebra that the closed forms of floqlab
# are checked against.
UNITARY_CHECK_TOL = 1e-9

PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def is_unitary(u, tol: float = UNITARY_CHECK_TOL) -> bool:
    u = np.asarray(u, dtype=complex)
    prod = u @ np.conj(np.swapaxes(u, -1, -2))
    return bool(np.max(np.abs(prod - IDENTITY)) <= tol)


def expectation(state, axis: str):
    """<state| sigma_axis |state> for normalized two-component states."""
    state = np.asarray(state, dtype=complex)
    val = np.real(np.einsum("...i,ij,...j->...", state.conj(), PAULI[axis], state))
    return float(val) if val.ndim == 0 else val


def spin_state(amplitudes) -> np.ndarray:
    """Normalize a two-component amplitude vector."""
    v = np.asarray(amplitudes, dtype=complex)
    return v / np.linalg.norm(v)


def random_su2(rng, size=None):
    """Haar-ish random SU(2) via random axis and angle."""
    shape = () if size is None else (size,)
    axis = rng.normal(size=shape + (3,))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    return su2_exp(axis, angle)


def grid_winding(params, frame, resolution):
    """Raw winding of the planar Bloch axis accumulated on a momentum grid.

    Sums the wrapped atan2 increments around the closed loop; the result is
    an integer up to rounding while every step turns the axis by less than pi.
    """
    from floqlab.model import axis_field, brillouin_grid

    _, n = axis_field(brillouin_grid(resolution), params, frame)
    phi = np.arctan2(n[:, 1], n[:, 0])
    dphi = np.diff(np.concatenate([phi, phi[:1]]))
    dphi = (dphi + np.pi) % (2 * np.pi) - np.pi
    return dphi.sum() / (2 * np.pi)


def enclosed_winding(tx, ty):
    """Exact (nu1, nu2): the indices of the lattice points the drive encloses.

    As k runs over the zone, (theta_x, theta_y) = (tx cos k, ty sin k) traces
    an ellipse in the direction sgn(tx ty).  The SYM1 field (sin theta_x
    cos theta_y, sin theta_y) vanishes at the points (a pi, b pi) with index
    (-1)^a, and the SYM2 field (sin theta_x, cos theta_x sin theta_y) at the
    same points with index (-1)^b.  So each winding sums those indices over
    the (a, b) with (a/ux)^2 + (b/uy)^2 < 1, where ux = |tx|/pi and
    uy = |ty|/pi.
    """
    ux, uy = abs(tx) / np.pi, abs(ty) / np.pi
    a = np.arange(-np.floor(ux), np.floor(ux) + 1.0)[:, None]
    b = np.arange(-np.floor(uy), np.floor(uy) + 1.0)[None, :]
    inside = (a / ux) ** 2 + (b / uy) ** 2 < 1.0
    sign = np.sign(tx * ty)
    nu1 = sign * np.sum(inside * (1.0 - 2.0 * (a % 2)))
    nu2 = sign * np.sum(inside * (1.0 - 2.0 * (b % 2)))
    return int(nu1), int(nu2)


def near_drive_closing(tx, ty, rel=1e-9):
    """True within `rel` (relative) of a gap closing of the drive: the lines
    |tx| = a pi and |ty| = b pi (a, b >= 0), or the ellipses
    (a pi / tx)^2 + (b pi / ty)^2 = 1 (a, b >= 1)."""
    ux, uy = abs(tx) / np.pi, abs(ty) / np.pi
    if any(abs(u - round(u)) <= rel * max(u, 1.0) for u in (ux, uy)):
        return True
    a = np.arange(1.0, np.floor(ux) + 1.0)[:, None]
    b = np.arange(1.0, np.floor(uy) + 1.0)[None, :]
    return bool(np.any(np.abs((a / ux) ** 2 + (b / uy) ** 2 - 1.0) <= rel))


def numpy_crossing_count(drive, other):
    """Oracle for topology._crossing_count: the same count on numpy arrays,
    with both zeros of every pair m and their (-1)^m partner signs spelt
    out."""
    from floqlab.errors import GaplessPointError
    from floqlab.model import TOL_GAP

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


def golden_min_gap(params, which, resolution=2048):
    """Oracle for topology.min_gap: the same grid scan and brackets, refined
    by 50 golden-section steps on E itself instead of Newton steps on cos E.

    Each step evaluates both interior points afresh and keeps [a, d] where
    f(c) < f(d), else [c, b]; the result is the smaller of the grid minimum
    and f at the final bracket centres.
    """
    from floqlab.model import brillouin_grid, quasienergy

    ks = brillouin_grid(resolution)
    energies = quasienergy(ks, params)
    if which == 0:
        f = lambda k: quasienergy(k, params)
        values = energies
    else:
        f = lambda k: np.pi - quasienergy(k, params)
        values = np.pi - energies
    local = (values <= np.roll(values, 1)) & (values <= np.roll(values, -1))
    h = 2.0 * np.pi / resolution
    a, b = ks[local] - h, ks[local] + h
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(50):
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        keep_left = f(c) < f(d)
        a, b = np.where(keep_left, a, c), np.where(keep_left, d, b)
    return float(min(values.min(), f((a + b) / 2.0).min()))


def single_gap_newton(params, which, resolution=2048):
    """Oracle for topology.band_gaps: one gap on its own, by the single-gap
    Newton pass that band_gaps runs for both gaps at once.

    The same grid scan, the brackets of that gap only, NEWTON_STEPS
    safeguarded Newton steps on sign * g', and one quasienergy call at the
    refined momenta; band_gaps must equal it bit for bit.
    """
    from floqlab.model import brillouin_grid, quasienergy
    from floqlab.topology import NEWTON_STEPS, _cos_energy_slopes

    ks = brillouin_grid(resolution)
    energies = quasienergy(ks, params)
    if which == 0:
        sign, values = 1.0, energies
    else:
        sign, values = -1.0, np.pi - energies
    local = (values <= np.roll(values, 1)) & (values <= np.roll(values, -1))
    h = 2.0 * np.pi / resolution
    k = ks[local]
    lo, hi = k - h, k + h
    for _ in range(NEWTON_STEPS):
        slope, curvature = _cos_energy_slopes(k, params)
        slope, curvature = sign * slope, sign * curvature
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.clip(k - slope / curvature, lo, hi)
        bisect = (k + np.where(slope >= 0.0, hi, lo)) / 2.0
        k = np.where(curvature < 0.0, newton, bisect)
    refined = quasienergy(k, params)
    if which == "pi":
        refined = np.pi - refined
    return float(min(values.min(), refined.min()))


def random_nonboundary_params(rng, count, gap_floor=0.05, resolution=1024):
    """Seeded (tx, ty) samples in [0, 3pi]^2 with both gaps open."""
    from floqlab.topology import band_gaps

    out = []
    while len(out) < count:
        tx, ty = rng.uniform(0.0, 3.0 * np.pi, size=2)
        params = ModelParams(tx, ty)
        if min(band_gaps(params, resolution)) > gap_floor:
            out.append(params)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(params=[Frame.SYM1, Frame.SYM2], ids=["sym1", "sym2"])
def sym_frame(request):
    return request.param
