import numpy as np
import pytest

from conftest import CASE1
from floqlab.model import Frame, ModelParams, floquet_operator, step_angles
from floqlab.pulsegen import (
    PulseSchedule,
    compile_schedule,
    phase_distance,
    simulate_schedule,
    verify_schedule,
)
from floqlab.spinalg import SIGMA_X

# The phase (mod 180 deg) of a pulse about each rotation axis.
AXIS_PHASE = {"x": 0, "y": 90}


class TestCompile:
    def test_plain_at_k_zero_elides_y(self):
        sched = compile_schedule(0.0, CASE1, Frame.PLAIN, 1, omega_ref=1.0)
        assert len(sched.pulses) == 1
        pulse = sched.pulses[0]
        assert pulse.phase_deg == 0
        assert pulse.angle == pytest.approx(CASE1.tx)

    def test_plain_at_k_zero_keep_zero(self):
        sched = compile_schedule(0.0, CASE1, Frame.PLAIN, 1, omega_ref=1.0,
                                 elide_zero=False)
        assert [p.phase_deg % 180 for p in sched.pulses] == [90, 0]
        assert sched.pulses[0].angle == 0.0

    def test_sym1_three_pulses_per_period(self):
        thx, thy = step_angles(np.pi / 4, CASE1)
        sched = compile_schedule(np.pi / 4, CASE1, Frame.SYM1, 1, omega_ref=2.0)
        assert [p.phase_deg % 180 for p in sched.pulses] == [0, 90, 0]
        assert [p.angle for p in sched.pulses] == pytest.approx([thx / 2, thy, thx / 2])
        assert [p.duration for p in sched.pulses] == pytest.approx(
            [thx / 4, thy / 2, thx / 4]
        )

    def test_sym2_structure(self):
        thx, thy = step_angles(0.3, CASE1)
        sched = compile_schedule(0.3, CASE1, Frame.SYM2, 1, omega_ref=1.0)
        assert [p.phase_deg % 180 for p in sched.pulses] == [90, 0, 90]
        assert [p.angle for p in sched.pulses] == pytest.approx([thy / 2, thx, thy / 2])

    @pytest.mark.parametrize("frame", list(Frame), ids=lambda f: f.value)
    def test_kept_pulses_follow_frame_steps(self, frame):
        thx, thy = step_angles(0.7, CASE1)
        theta = {"x": thx, "y": thy}
        sched = compile_schedule(0.7, CASE1, frame, 2, omega_ref=1.0, elide_zero=False)
        assert [p.phase_deg % 180 for p in sched.pulses] == [
            AXIS_PHASE[axis] for axis, _ in frame.steps
        ] * 2
        signed = [p.angle if p.phase_deg < 180 else -p.angle for p in sched.pulses]
        assert signed == pytest.approx(
            [share * theta[axis] for axis, share in frame.steps] * 2
        )

    def test_pulse_count_per_period(self):
        k = 0.7
        for frame, per_period in ((Frame.PLAIN, 2), (Frame.SYM1, 3), (Frame.SYM2, 3)):
            sched = compile_schedule(k, CASE1, frame, 5, omega_ref=1.0)
            assert len(sched.pulses) == 5 * per_period

    def test_negative_angles_become_opposite_phase(self):
        # k = pi makes theta_x = -tx
        sched = compile_schedule(np.pi, CASE1, Frame.PLAIN, 1, omega_ref=1.0)
        x_pulses = [p for p in sched.pulses if p.phase_deg % 180 == 0]
        assert x_pulses[0].phase_deg == 180
        assert x_pulses[0].angle == pytest.approx(CASE1.tx)
        assert all(p.angle >= 0 and p.duration >= 0 for p in sched.pulses)

    def test_total_duration(self):
        omega = 3.7
        sched = compile_schedule(0.9, CASE1, Frame.SYM2, 4, omega_ref=omega)
        expected = sum(p.angle for p in sched.pulses) / omega
        total = sum(p["duration_s"] for p in sched.to_dict()["pulses"])
        assert total == pytest.approx(expected, rel=1e-15)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            compile_schedule(0.0, CASE1, Frame.SYM1, 1, omega_ref=0.0)
        with pytest.raises(ValueError):
            compile_schedule(0.0, CASE1, Frame.SYM1, 0, omega_ref=1.0)


class TestSimulate:
    def test_empty_schedule_is_identity(self):
        assert np.allclose(simulate_schedule(PulseSchedule(1.0)), np.eye(2))

    def test_single_pulse_angles(self):
        # pulse angle a realizes exp(-i a sigma): a = pi/2 is the -i*sigma_x
        # flip, a = pi is a global phase (the drive Hamiltonian carries no
        # factor 1/2)
        half = compile_schedule(0.0, ModelParams(np.pi / 2, 0.0), Frame.PLAIN, 1,
                                omega_ref=1.0)
        assert phase_distance(simulate_schedule(half), -1j * SIGMA_X) < 1e-14
        full = compile_schedule(0.0, ModelParams(np.pi, 0.0), Frame.PLAIN, 1,
                                omega_ref=1.0)
        assert phase_distance(simulate_schedule(full), np.eye(2)) < 1e-14

    def test_round_trip_random_specs(self, rng):
        frames = [Frame.PLAIN, Frame.SYM1, Frame.SYM2]
        for _ in range(20):
            k = rng.uniform(-np.pi, np.pi)
            params = ModelParams(*rng.uniform(0, 3 * np.pi, 2))
            frame = frames[rng.integers(0, 3)]
            periods = int(rng.integers(1, 21))
            sched = compile_schedule(k, params, frame, periods, omega_ref=1e6)
            assert verify_schedule(sched, k, params, frame, periods) < 1e-10

    def test_distance_detects_mismatch(self):
        sched = compile_schedule(0.4, CASE1, Frame.SYM1, 2, omega_ref=1.0)
        wrong = ModelParams(CASE1.tx + 0.3, CASE1.ty)
        assert verify_schedule(sched, 0.4, wrong, Frame.SYM1, 2) > 1e-3


class TestScheduleFormat:
    def test_dict_layout(self):
        sched = compile_schedule(0.25 * np.pi, CASE1, Frame.SYM1, 3, omega_ref=2e6)
        data = sched.to_dict()
        assert data["format"] == 1
        assert data["omega_ref_hz"] == 2e6
        assert data["pulses"] == [
            {"phase_deg": p.phase_deg, "angle_rad": p.angle, "duration_s": p.duration}
            for p in sched.pulses
        ]
