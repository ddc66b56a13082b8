import numpy as np
import pytest

from floqlab.model import Frame, ModelParams

CASE1 = ModelParams(0.5 * np.pi, 0.5 * np.pi)
CASE2 = ModelParams(2.5 * np.pi, 0.5 * np.pi)


def random_su2(rng, size=None):
    """Haar-ish random SU(2) via random axis and angle."""
    from floqlab.spinalg import su2_exp

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
