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


def random_nonboundary_params(rng, count, gap_floor=0.05, resolution=1024):
    """Seeded (tx, ty) samples in [0, 3pi]^2 with both gaps open."""
    from floqlab.topology import min_gap

    out = []
    while len(out) < count:
        tx, ty = rng.uniform(0.0, 3.0 * np.pi, size=2)
        params = ModelParams(tx, ty)
        if (
            min_gap(params, 0, resolution) > gap_floor
            and min_gap(params, "pi", resolution) > gap_floor
        ):
            out.append(params)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(params=[Frame.SYM1, Frame.SYM2], ids=["sym1", "sym2"])
def sym_frame(request):
    return request.param
