import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_su2
from floqlab import spinalg
from floqlab.errors import DegenerateAxisError
from floqlab.spinalg import IDENTITY, SIGMA_X, expectation, spin_state, su2_exp

XHAT = np.array([1.0, 0.0, 0.0])
YHAT = np.array([0.0, 1.0, 0.0])


def test_zero_angle_is_identity():
    for axis in (XHAT, YHAT, np.array([1.0, 2.0, -3.0]), np.zeros(3)):
        assert np.allclose(su2_exp(axis, 0.0), IDENTITY, atol=1e-15)


def test_quarter_turn_about_x():
    assert np.allclose(su2_exp(XHAT, np.pi / 2), -1j * SIGMA_X, atol=1e-15)


def test_same_axis_angles_add():
    lhs = su2_exp(XHAT, 0.3) @ su2_exp(XHAT, 0.4)
    assert np.allclose(lhs, su2_exp(XHAT, 0.7), atol=1e-14)


def test_degenerate_axis_rejected():
    with pytest.raises(DegenerateAxisError, match="degenerate axis"):
        su2_exp(np.zeros(3), 0.1)


def test_unitarity_drift_over_long_products(rng):
    u = np.eye(2, dtype=complex)
    for factor in random_su2(rng, size=10_000):
        u = factor @ u
    assert np.max(np.abs(u @ u.conj().T - IDENTITY)) < 1e-9


def test_double_cover(rng):
    # exp(-i(theta+pi) n.sigma) = -exp(-i theta n.sigma): a half turn of
    # the angle flips the sign, a full turn restores the operator
    for _ in range(20):
        axis = rng.normal(size=3)
        theta = rng.uniform(0, 2 * np.pi)
        u = su2_exp(axis, theta)
        assert np.allclose(su2_exp(axis, theta + 2 * np.pi), u, atol=1e-12)
        assert np.allclose(su2_exp(axis, theta + np.pi), -u, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    ax=st.floats(-1, 1), ay=st.floats(-1, 1), az=st.floats(-1, 1),
    angle=st.floats(-10, 10, allow_nan=False),
)
def test_su2_exp_always_unitary(ax, ay, az, angle):
    axis = np.array([ax, ay, az])
    if np.linalg.norm(axis) < 1e-12:
        return
    assert spinalg.is_unitary(su2_exp(axis, angle), 1e-12)


def test_expectation_eigenstates():
    minus_y = spin_state([1.0, -1.0j])
    minus_x = spin_state([1.0, -1.0])
    ground = spin_state([1.0, 0.0])
    assert expectation(minus_y, "y") == pytest.approx(-1.0, abs=1e-15)
    assert expectation(minus_x, "x") == pytest.approx(-1.0, abs=1e-15)
    assert expectation(ground, "x") == pytest.approx(0.0, abs=1e-15)
    assert expectation(ground, "z") == pytest.approx(1.0, abs=1e-15)


def test_expectation_bounded(rng):
    for _ in range(100):
        state = spin_state(rng.normal(size=2) + 1j * rng.normal(size=2))
        for axis in "xyz":
            assert abs(expectation(state, axis)) <= 1.0 + 1e-12
