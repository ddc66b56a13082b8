"""Momentum-space model: step angles, one-period evolution operators in the
three time frames, quasienergy, and the planar Bloch-axis field.

The drive alternates an x-rotation of angle theta_x = tx*cos(k) and a
y-rotation of angle theta_y = ty*sin(k) per period (rightmost factor acts
first):

    PLAIN: exp(-i theta_x sx) exp(-i theta_y sy)
    SYM1:  exp(-i theta_x/2 sx) exp(-i theta_y sy) exp(-i theta_x/2 sx)
    SYM2:  exp(-i theta_y/2 sy) exp(-i theta_x sx) exp(-i theta_y/2 sy)

SYM1 and SYM2 are the two chiral-symmetric starting points of the same
period; their axis-field windings give the two gap invariants.  SYM1 is
the frame whose axis-field y component vanishes only where sin(theta_y)
does, which is what the y-direction quench protocol probes.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import spinalg
from .errors import GaplessPointError

# Quasienergy distance to 0 or pi below which the axis is declared undefined.
TOL_GAP = 1e-9

_XHAT = np.array([1.0, 0.0, 0.0])
_YHAT = np.array([0.0, 1.0, 0.0])


class Frame(Enum):
    PLAIN = "plain"
    SYM1 = "sym1"
    SYM2 = "sym2"


@dataclass(frozen=True)
class ModelParams:
    """Drive angle amplitudes; the two axes of the phase diagram."""

    tx: float
    ty: float

    def __post_init__(self):
        if not (np.isfinite(self.tx) and np.isfinite(self.ty)):
            raise ValueError("drive amplitudes must be finite")


@dataclass(frozen=True)
class BlochAxis:
    """Quasienergy E in [0, pi] and the unit axis n of U = exp(-i E n.sigma)."""

    energy: float
    n: np.ndarray


def step_angles(k, params: ModelParams):
    """Rotation angles (theta_x, theta_y) = (tx*cos k, ty*sin k)."""
    k = np.asarray(k, dtype=float)
    return params.tx * np.cos(k), params.ty * np.sin(k)


def floquet_operator(k, params: ModelParams, frame: Frame) -> np.ndarray:
    """One-period evolution operator at momentum k (broadcasts over k)."""
    thx, thy = step_angles(k, params)
    rx = spinalg.su2_exp(_XHAT, thx)
    ry = spinalg.su2_exp(_YHAT, thy)
    if frame is Frame.PLAIN:
        return rx @ ry
    if frame is Frame.SYM1:
        rxh = spinalg.su2_exp(_XHAT, thx / 2.0)
        return rxh @ ry @ rxh
    if frame is Frame.SYM2:
        ryh = spinalg.su2_exp(_YHAT, thy / 2.0)
        return ryh @ rx @ ryh
    raise ValueError(f"unknown frame {frame!r}")


def quasienergy(k, params: ModelParams):
    """Positive-branch quasienergy E = arccos(cos theta_x * cos theta_y)."""
    thx, thy = step_angles(k, params)
    return np.arccos(np.clip(np.cos(thx) * np.cos(thy), -1.0, 1.0))


def _axis_field(k, params: ModelParams, frame: Frame, tol_gap: float):
    """(E, n) arrays over k, with n on the full branch E in [0, pi].

    The frame operators are SU(2) products, so their raw Pauli moments
    i*tr(U sigma)/2 are already real and equal sin(E)*n on the full branch;
    fixing the global phase so that tr(U)/2 >= 0 would instead mirror the
    axis wherever cos E < 0, which makes the field discontinuous in k.
    """
    if frame not in (Frame.SYM1, Frame.SYM2):
        raise ValueError("axis field is defined for the symmetric frames only")
    k = np.asarray(k, dtype=float)
    energy = quasienergy(k, params)
    sin_e = np.sin(energy)
    gapless = (energy < tol_gap) | (np.pi - energy < tol_gap)
    if np.any(gapless):
        raise GaplessPointError(
            "gapless point: quasienergy within tol_gap of 0 or pi"
        )
    u = floquet_operator(k, params, frame)
    n = np.stack(
        [
            np.real(1j * np.trace(u @ sigma, axis1=-2, axis2=-1)) / (2.0 * sin_e)
            for sigma in (spinalg.SIGMA_X, spinalg.SIGMA_Y, spinalg.SIGMA_Z)
        ],
        axis=-1,
    )
    return energy, n


def bloch_axis(k, params: ModelParams, frame: Frame, tol_gap: float = TOL_GAP) -> BlochAxis:
    """Quasienergy and unit Bloch axis at a single momentum.

    Raises GaplessPointError when E(k) is within tol_gap of 0 or pi.
    """
    energy, n = _axis_field(float(k), params, frame, tol_gap)
    return BlochAxis(energy=float(energy), n=n)


def axis_field(k, params: ModelParams, frame: Frame, tol_gap: float = TOL_GAP):
    """Vectorized bloch_axis: returns (E array, n array of shape (..., 3))."""
    return _axis_field(k, params, frame, tol_gap)


def brillouin_grid(resolution: int) -> np.ndarray:
    """Uniform momentum grid on (-pi, pi], endpoint excluded (periodic)."""
    return -np.pi + 2.0 * np.pi * np.arange(resolution) / resolution
