"""Closed-form checks of the benchmark's reference forward pass.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import math

import numpy as np
import pytest

import oracle


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.1, math.pi / 2, 2.9, -4.0])
def test_ry_on_zero_gives_cos_theta(theta):
    psi = oracle.ry(theta) @ np.array([1.0, 0.0], dtype=np.complex128)
    assert oracle.expect_pure(psi, oracle.Z) == pytest.approx(math.cos(theta), abs=1e-14)


@pytest.mark.parametrize("qubit", [0, 2])
def test_ry_embedded_in_register_acts_on_its_qubit(qubit):
    n, theta = 3, 0.7
    psi = np.zeros(2**n, dtype=np.complex128)
    psi[0] = 1.0
    psi = oracle.on_qubit(oracle.ry(theta), qubit, n) @ psi
    z = oracle.on_qubit(oracle.Z, qubit, n)
    assert oracle.expect_pure(psi, z) == pytest.approx(math.cos(theta), abs=1e-14)


@pytest.mark.parametrize("p", [0.0, 0.05, 0.1, 0.3])
@pytest.mark.parametrize("letter", ["X", "Y", "Z"])
def test_depolarizing_scales_pauli_expectation(p, letter):
    n, qubit = 2, 1
    rng = np.random.default_rng(7)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi = amps / np.linalg.norm(amps)
    rho = np.outer(psi, psi.conj())
    obs = oracle.on_qubit(oracle.PAULI[letter], qubit, n)
    before = oracle.expect_dm(rho, obs)
    after = oracle.expect_dm(
        oracle.apply_channel(rho, oracle.depolarizing_kraus(p), qubit, n), obs
    )
    assert after == pytest.approx((1.0 - 4.0 * p / 3.0) * before, abs=1e-14)


def test_cnot_flips_target_when_control_set():
    # qubit 0 is the most significant bit: |10> -> |11>, |00> unchanged
    gate = oracle.cnot(0, 1, 2)
    assert np.allclose(gate @ np.eye(4)[:, 2], np.eye(4)[:, 3])
    assert np.allclose(gate @ np.eye(4)[:, 0], np.eye(4)[:, 0])
