"""Tests for the no-exchange sufficient conditions and their certification."""

import numpy as np
import pytest

from corrflux.conditions import (
    adjoint_residual,
    check_conditions,
    check_conditions_sampled,
    commutator_residual,
    verify_theorem,
)
from corrflux.dynamics import integrate
from corrflux.energetics import energy_ledger
from corrflux.linalg import SIGMA_Z, BipartiteShape, kron, random_density_matrix
from corrflux.model import BipartiteSystem, ValidationError, gibbs_state
from corrflux.twoqubit import ExampleParams, build_example

from helpers import random_dephasing_system, random_system

STANDARD = ExampleParams(omega_A=1.0, omega_B=1.0, g=0.2, beta_A=0.5, beta_B=1.0, c=0.02)


def test_example_commutator_residual_vanishes():
    system, rho0 = build_example(STANDARD)
    assert commutator_residual(system, rho0) <= 1e-14
    # it vanishes at arbitrary product states too: V and both effective
    # Hamiltonians stay diagonal for this model
    rng = np.random.default_rng(61)
    for _ in range(10):
        rho = kron(random_density_matrix(2, rng), random_density_matrix(2, rng))
        assert commutator_residual(system, rho) <= 1e-14


def test_example_adjoint_residual_matches_hand_built_matrix():
    # D#_X[sz] = -2 gamma_X |0><0| + 2 delta_X |1><1| with gamma the rate of
    # |1><0| and delta the rate of |0><1|; assemble D#_A[H] + D#_B[H] from
    # that and compare.
    from corrflux.dynamics import Generator
    from corrflux.model import total_hamiltonian

    system, _ = build_example(STANDARD)
    p = STANDARD

    def local_adjoint_of_sz(beta, omega):
        gamma = np.exp(beta * omega)
        delta = np.exp(-beta * omega)
        return np.diag([-2.0 * gamma, 2.0 * delta]).astype(complex)

    M_A = local_adjoint_of_sz(p.beta_A, p.omega_A)
    M_B = local_adjoint_of_sz(p.beta_B, p.omega_B)
    eye = np.eye(2)
    expected = (
        p.omega_A * kron(M_A, eye)
        + p.g * kron(M_A, SIGMA_Z)
        + p.omega_B * kron(eye, M_B)
        + p.g * kron(SIGMA_Z, M_B)
    )
    actual = Generator(system).adjoint(total_hamiltonian(system))
    assert np.max(np.abs(actual - expected)) <= 1e-12
    assert adjoint_residual(system) == pytest.approx(float(np.linalg.norm(expected)), rel=1e-12)
    assert adjoint_residual(system) > 1.0


def test_dephasing_systems_pass_both_conditions():
    rng = np.random.default_rng(62)
    for _ in range(20):
        system = random_dephasing_system(rng)
        rho = random_density_matrix(4, rng)
        report = check_conditions(system, rho)
        assert report.commutator_residual <= 1e-13
        assert report.adjoint_residual <= 1e-13
        assert report.passed
        assert report.state_dependent


def test_condition_ii_zero_freezes_total_energy_rate():
    rng = np.random.default_rng(63)
    for _ in range(20):
        system = random_dephasing_system(rng)
        rho = random_density_matrix(4, rng)
        assert abs(energy_ledger(system, rho).dU_dt) <= 1e-9


def test_check_conditions_report_shape():
    system, rho0 = build_example(STANDARD)
    report = check_conditions(system, rho0, tol=1e-10)
    assert report.commutator_ok
    assert not report.adjoint_ok
    assert not report.passed
    data = report.to_json()
    assert data["condition_i_pass"] is True
    assert data["condition_ii_pass"] is False
    assert data["state_dependent"] is True
    assert data["tol"] == 1e-10
    assert "samples" not in data


@pytest.mark.parametrize("tol", [float("nan"), -1.0], ids=["nan", "negative"])
def test_condition_reports_reject_a_tol_that_is_not_finite_and_nonnegative(tol):
    # Against a NaN or negative tol even a residual of 0.0 would fail.
    system, rho0 = build_example(STANDARD)
    with pytest.raises(ValidationError, match="tol must be a finite nonnegative number"):
        check_conditions(system, rho0, tol=tol)
    with pytest.raises(ValidationError, match="tol must be a finite nonnegative number"):
        check_conditions_sampled(system, samples=1, tol=tol)


def test_check_conditions_sampled_reproducible():
    rng = np.random.default_rng(64)
    system = random_system(rng)
    a = check_conditions_sampled(system, samples=20, seed=7)
    b = check_conditions_sampled(system, samples=20, seed=7)
    assert a.commutator_residual == b.commutator_residual
    c = check_conditions_sampled(system, samples=20, seed=8)
    assert c.commutator_residual != a.commutator_residual
    assert not a.state_dependent
    assert a.to_json()["samples"] == 20
    assert a.to_json()["seed"] == 7
    with pytest.raises(ValidationError):
        check_conditions_sampled(system, samples=0)


def test_verify_theorem_dephasing_passes():
    rng = np.random.default_rng(65)
    for _ in range(3):
        system = random_dephasing_system(rng)
        states = [random_density_matrix(4, rng) for _ in range(2)]
        report = verify_theorem(system, states, dt=0.01, horizon=5.0)
        assert report.applicable
        assert report.passed
        assert len(report.total_energy_drifts) == 2
        assert max(report.total_energy_drifts) <= 1e-7
        assert max(report.product_energy_drifts) <= 1e-7


def test_verify_theorem_example_not_applicable():
    system, rho0 = build_example(STANDARD)
    report = verify_theorem(system, [rho0], dt=0.01, horizon=1.0)
    assert not report.applicable
    assert not report.passed
    assert "residual" in report.detail
    assert report.total_energy_drifts == ()
    # and the exchange is physically there: U moves by ~ 4 g c over one
    # correlation lifetime
    traj = integrate(system, rho0, 1.0, 1e-3, record_every=100)
    ledger0 = energy_ledger(system, traj.states[0])
    ledger1 = energy_ledger(system, traj.final_state)
    assert abs(ledger1.U - ledger0.U) > 1e-3
    assert abs((ledger1.U - ledger0.U) - (ledger1.U_chi - ledger0.U_chi)) <= 1e-8


def test_verify_theorem_unitary_commuting_case():
    # No channels and [H_A + H_B, V] = 0 at a diagonal state: both residuals
    # vanish and nothing moves.
    system = BipartiteSystem(
        shape=BipartiteShape(2, 2),
        H_A=SIGMA_Z,
        H_B=SIGMA_Z,
        V=0.4 * kron(SIGMA_Z, SIGMA_Z),
    )
    pi = gibbs_state(SIGMA_Z, 1.0)
    rho = kron(pi, pi) + 0.05 * kron(SIGMA_Z, SIGMA_Z)
    report = verify_theorem(system, [rho], dt=0.01, horizon=2.0)
    assert report.applicable
    assert report.passed


def test_verify_theorem_needs_states():
    system, _ = build_example(STANDARD)
    with pytest.raises(ValidationError):
        verify_theorem(system, [], dt=0.01, horizon=1.0)
