import numpy as np
import pytest

from conftest import CASE1, CASE2, is_unitary, random_nonboundary_params
from floqlab.errors import GaplessPointError
from floqlab.model import (
    Frame,
    ModelParams,
    axis_field,
    brillouin_grid,
    floquet_operator,
    quasienergy,
    step_angles,
)
from floqlab.quench import QuenchSpec
from floqlab.spinalg import SIGMA_X, SIGMA_Y, SIGMA_Z, su2_exp
from floqlab.topology import winding_number

XHAT = np.array([1.0, 0.0, 0.0])
YHAT = np.array([0.0, 1.0, 0.0])


def closed_form_axis(k, params, frame):
    """Symbolic expansion of the three-factor frame products (test oracle)."""
    thx, thy = params.tx * np.cos(k), params.ty * np.sin(k)
    sin_e = np.sin(np.arccos(np.clip(np.cos(thx) * np.cos(thy), -1, 1)))
    if frame is Frame.SYM1:
        raw = np.stack(
            [np.sin(thx) * np.cos(thy), np.sin(thy), np.zeros_like(thx)], axis=-1
        )
    else:
        raw = np.stack(
            [np.sin(thx), np.cos(thx) * np.sin(thy), np.zeros_like(thx)], axis=-1
        )
    return raw / sin_e[..., None]


class TestStepAngles:
    def test_k_zero(self):
        assert step_angles(0.0, CASE1) == (pytest.approx(0.5 * np.pi), pytest.approx(0.0))

    def test_k_half_pi(self):
        thx, thy = step_angles(np.pi / 2, ModelParams(2.5 * np.pi, 0.5 * np.pi))
        assert thx == pytest.approx(0.0, abs=1e-15)
        assert thy == pytest.approx(0.5 * np.pi)

    def test_k_pi(self):
        thx, thy = step_angles(np.pi, ModelParams(1.3, 0.7))
        assert thx == pytest.approx(-1.3)
        assert thy == pytest.approx(0.0, abs=1e-15)


class TestFrame:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: axis_field(0.1, CASE1, Frame.PLAIN),
            lambda: winding_number(CASE1, Frame.PLAIN),
            lambda: QuenchSpec(CASE1, Frame.PLAIN),
        ],
        ids=["axis_field", "winding_number", "QuenchSpec"],
    )
    def test_plain_frame_rejected(self, call):
        with pytest.raises(ValueError, match="symmetric frame"):
            call()


class TestFloquetOperator:
    def test_zero_drive_is_identity(self):
        params = ModelParams(0.0, 0.0)
        for frame in Frame:
            u = floquet_operator(0.37, params, frame)
            assert np.allclose(u, np.eye(2), atol=1e-15)

    def test_plain_at_k_zero(self):
        u = floquet_operator(0.0, CASE1, Frame.PLAIN)
        assert np.allclose(u, su2_exp(XHAT, CASE1.tx), atol=1e-14)

    def test_frame_similarity_to_plain(self, rng):
        # each symmetric frame is a conjugation of the plain operator by a
        # half-step rotation of its own outer axis
        for _ in range(20):
            k = rng.uniform(-np.pi, np.pi)
            params = ModelParams(*rng.uniform(0, 3 * np.pi, 2))
            thx, thy = step_angles(k, params)
            plain = floquet_operator(k, params, Frame.PLAIN)
            sym1 = floquet_operator(k, params, Frame.SYM1)
            sym2 = floquet_operator(k, params, Frame.SYM2)
            conj1 = su2_exp(XHAT, -thx / 2) @ plain @ su2_exp(XHAT, thx / 2)
            conj2 = su2_exp(YHAT, thy / 2) @ plain @ su2_exp(YHAT, -thy / 2)
            assert np.allclose(sym1, conj1, atol=1e-12)
            assert np.allclose(sym2, conj2, atol=1e-12)

    def test_unitary_on_grid(self, sym_frame):
        u = floquet_operator(brillouin_grid(256), CASE2, sym_frame)
        assert is_unitary(u, 1e-12)

    def test_chiral_symmetry(self, rng, sym_frame):
        for _ in range(50):
            k = rng.uniform(-np.pi, np.pi)
            params = ModelParams(*rng.uniform(0, 3 * np.pi, 2))
            u = floquet_operator(k, params, sym_frame)
            assert np.allclose(SIGMA_Z @ u @ SIGMA_Z, u.conj().T, atol=1e-12)

    def test_periodicity(self, rng):
        for frame in Frame:
            k = rng.uniform(-np.pi, np.pi, size=8)
            a = floquet_operator(k, CASE2, frame)
            b = floquet_operator(k + 2 * np.pi, CASE2, frame)
            assert np.allclose(a, b, atol=1e-12)


class TestQuasienergy:
    def test_zero_drive(self):
        assert quasienergy(0.3, ModelParams(0, 0)) == pytest.approx(0.0)

    def test_case1_k_zero(self):
        assert quasienergy(0.0, CASE1) == pytest.approx(np.pi / 2)

    def test_pi_gap_closing(self):
        # tx = pi closes the pi gap at k = 0
        assert quasienergy(0.0, ModelParams(np.pi, 0.5 * np.pi)) == pytest.approx(np.pi)

    def test_matches_eigenphase_magnitude_every_frame(self, rng):
        for _ in range(30):
            k = rng.uniform(-np.pi, np.pi)
            params = ModelParams(*rng.uniform(0, 3 * np.pi, 2))
            e = quasienergy(k, params)
            for frame in Frame:
                u = floquet_operator(k, params, frame)
                phases = np.sort(np.angle(np.linalg.eigvals(u)))
                assert np.allclose(np.abs(phases), e, atol=1e-10)

    def test_periodic_in_k(self, rng):
        k = rng.uniform(-np.pi, np.pi, size=16)
        assert np.allclose(
            quasienergy(k, CASE2), quasienergy(k + 2 * np.pi, CASE2), atol=1e-12
        )


class TestBlochAxis:
    def test_pure_y_rotation_point(self, sym_frame):
        # theta_x = 0 at k = pi/2: both frames reduce to the y rotation
        energy, n = axis_field(np.pi / 2, CASE1, sym_frame)
        assert energy == pytest.approx(np.pi / 2)
        assert np.allclose(n, [0, 1, 0], atol=1e-12)

    def test_pure_x_rotation_point(self, sym_frame):
        energy, n = axis_field(0.0, CASE1, sym_frame)
        assert energy == pytest.approx(np.pi / 2)
        assert np.allclose(n, [1, 0, 0], atol=1e-12)

    def test_matches_symbolic_product_expansion(self, rng, sym_frame):
        ks = rng.uniform(-np.pi, np.pi, size=64)
        for params in random_nonboundary_params(rng, 5):
            _, n = axis_field(ks, params, sym_frame)
            ref = closed_form_axis(ks, params, sym_frame)
            assert np.allclose(n, ref, atol=1e-10)

    def test_planar_and_unit(self, rng, sym_frame):
        ks = brillouin_grid(512)
        for params in (CASE1, CASE2):
            _, n = axis_field(ks, params, sym_frame)
            assert np.max(np.abs(n[:, 2])) < 1e-10
            assert np.allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-10)

    def test_gapless_point_rejected(self, sym_frame):
        with pytest.raises(GaplessPointError, match="gapless point"):
            axis_field(0.0, ModelParams(np.pi, 0.5 * np.pi), sym_frame)

    def test_continuous_across_cos_e_sign_change(self):
        # case 2 has cos E crossing zero inside the zone; the axis field
        # must stay smooth there (no antipodal jumps)
        ks = brillouin_grid(4096)
        for frame in (Frame.SYM1, Frame.SYM2):
            _, n = axis_field(ks, CASE2, frame)
            step = np.linalg.norm(np.diff(n, axis=0), axis=1)
            assert np.max(step) < 0.1


class TestFrameAgreement:
    def test_eigenphase_multisets_agree(self, rng):
        for _ in range(20):
            k = rng.uniform(-np.pi, np.pi)
            params = ModelParams(*rng.uniform(0, 3 * np.pi, 2))
            phases = [
                np.sort(np.angle(np.linalg.eigvals(floquet_operator(k, params, f))))
                for f in Frame
            ]
            assert np.allclose(phases[0], phases[1], atol=1e-10)
            assert np.allclose(phases[0], phases[2], atol=1e-10)
