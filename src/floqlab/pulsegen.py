"""Compile frame evolutions into explicit microwave pulse schedules and
re-simulate schedules back into a unitary for verification.

A pulse is a rotation about an equatorial axis selected by its phase:
0 deg = +x, 90 deg = +y, 180 deg = -x, 270 deg = -y.  Rotation angles are
kept nonnegative; a negative angle compiles to the opposite phase.  Pulse
durations follow duration = angle / omega_ref for a reference Rabi rate
omega_ref (rad/s).
"""

from dataclasses import dataclass, field

import numpy as np

from . import spinalg
from .model import Frame, ModelParams, floquet_operator, step_angles

SCHEDULE_FORMAT = 1

# Angles below this are float noise from cos/sin at exact grid momenta
# (e.g. cos(pi/2) ~ 6e-17) and compile as genuine zero-angle pulses.
ZERO_ANGLE_TOL = 1e-12

_PHASE_AXIS = {
    0: np.array([1.0, 0.0, 0.0]),
    90: np.array([0.0, 1.0, 0.0]),
    180: np.array([-1.0, 0.0, 0.0]),
    270: np.array([0.0, -1.0, 0.0]),
}


@dataclass(frozen=True)
class Pulse:
    phase_deg: int      # 0 | 90 | 180 | 270
    angle: float        # radians, >= 0
    duration: float     # seconds

    @property
    def axis(self) -> str:
        """'x' or 'y', the rotation axis up to sign."""
        return "x" if self.phase_deg in (0, 180) else "y"

    def rotation_axis(self) -> np.ndarray:
        return _PHASE_AXIS[self.phase_deg]


@dataclass
class PulseSchedule:
    omega_ref: float
    pulses: list = field(default_factory=list)

    @property
    def total_duration(self) -> float:
        return sum(p.duration for p in self.pulses)

    def to_dict(self) -> dict:
        return {
            "format": SCHEDULE_FORMAT,
            "omega_ref_hz": self.omega_ref,
            "pulses": [
                {
                    "phase_deg": p.phase_deg,
                    "angle_rad": p.angle,
                    "duration_s": p.duration,
                }
                for p in self.pulses
            ],
        }


def _make_pulse(axis: str, angle: float, omega_ref: float) -> Pulse:
    base = 0 if axis == "x" else 90
    phase = base if angle >= 0 else base + 180
    mag = abs(angle)
    return Pulse(phase_deg=phase, angle=mag, duration=mag / omega_ref)


def _period_steps(k: float, params: ModelParams, frame: Frame):
    """(axis, signed angle) per pulse for one period, first-applied first."""
    theta = dict(zip("xy", map(float, step_angles(k, params))))
    return [(axis, share * theta[axis]) for axis, share in frame.steps]


def compile_schedule(
    k: float,
    params: ModelParams,
    frame: Frame,
    periods: int,
    omega_ref: float,
    elide_zero: bool = True,
) -> PulseSchedule:
    """Pulse schedule realizing `periods` repetitions of the frame operator.

    Zero-angle pulses are dropped unless elide_zero=False (fixed-slot
    hardware timing keeps them as zero-duration placeholders).
    """
    if omega_ref <= 0:
        raise ValueError("omega_ref must be positive")
    if periods < 1:
        raise ValueError("periods must be >= 1")
    steps = _period_steps(k, params, frame)
    sched = PulseSchedule(omega_ref=omega_ref)
    for _ in range(periods):
        for axis, angle in steps:
            if abs(angle) < ZERO_ANGLE_TOL:
                if elide_zero:
                    continue
                angle = 0.0
            sched.pulses.append(_make_pulse(axis, angle, omega_ref))
    return sched


def simulate_schedule(schedule: PulseSchedule) -> np.ndarray:
    """Ordered product of the pulse rotations (first pulse acts first)."""
    u = np.eye(2, dtype=complex)
    for pulse in schedule.pulses:
        u = spinalg.su2_exp(pulse.rotation_axis(), pulse.angle) @ u
    return u


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius distance between 2x2 unitaries minimized over global phase.

    The optimal phase aligns tr(u^dag v) with the positive real axis; the
    difference is then formed entrywise (sqrt(4 - 2|tr|) would lose every
    digit below ~1e-8 to cancellation).
    """
    overlap = np.trace(u.conj().T @ v)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    return float(np.linalg.norm(u - v / phase))


def verify_schedule(
    schedule: PulseSchedule,
    k: float,
    params: ModelParams,
    frame: Frame,
    periods: int,
) -> float:
    """Distance (up to global phase) between the re-simulated schedule and
    the target frame operator raised to `periods`."""
    target = np.linalg.matrix_power(
        np.asarray(floquet_operator(k, params, frame)), periods
    )
    return phase_distance(simulate_schedule(schedule), target)
