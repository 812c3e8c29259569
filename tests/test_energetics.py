"""Tests for the product/correlation energy split and its rates."""

import dataclasses
import warnings

import numpy as np
import pytest

from corrflux.conditions import commutator_residual
from corrflux import cli
from corrflux.dynamics import Generator, generator_of, integrate
from corrflux.energetics import (
    EnergyLedger,
    NumericalConsistencyWarning,
    decompose,
    delta_U_chi,
    effective_hamiltonians,
    energy_ledger,
)
from corrflux.linalg import (
    SIGMA_Z,
    BipartiteShape,
    embed_A,
    embed_B,
    kron,
    partial_trace,
    random_density_matrix,
)
from corrflux.model import BipartiteSystem, gibbs_state, parse_scenario, total_hamiltonian
from corrflux.twoqubit import ExampleParams, scenario_document

from helpers import SIGMA_X, dissipative_part, effective_interaction, random_system

STANDARD = dict(omega_A=1.0, omega_B=1.0, g=0.2, beta_A=0.5, beta_B=1.0, c=0.02)


def two_qubit_state(c=0.02):
    pi_A = gibbs_state(SIGMA_Z, STANDARD["beta_A"])
    pi_B = gibbs_state(SIGMA_Z, STANDARD["beta_B"])
    return kron(pi_A, pi_B) + c * kron(SIGMA_Z, SIGMA_Z)


def two_qubit_system(alpha_A=0.5):
    return BipartiteSystem(
        shape=BipartiteShape(2, 2),
        H_A=STANDARD["omega_A"] * SIGMA_Z,
        H_B=STANDARD["omega_B"] * SIGMA_Z,
        V=STANDARD["g"] * kron(SIGMA_Z, SIGMA_Z),
        alpha_A=alpha_A,
    )


def test_decompose_product_state():
    rng = np.random.default_rng(51)
    shape = BipartiteShape(2, 3)
    rho_A = random_density_matrix(2, rng)
    rho_B = random_density_matrix(3, rng)
    dec = decompose(kron(rho_A, rho_B), shape)
    assert np.max(np.abs(dec.chi)) <= 1e-14
    assert np.max(np.abs(dec.rho_A - rho_A)) <= 1e-14
    assert np.max(np.abs(dec.rho_B - rho_B)) <= 1e-14


def test_decompose_bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    dec = decompose(rho, BipartiteShape(2, 2))
    assert np.max(np.abs(dec.rho_A - 0.5 * np.eye(2))) <= 1e-15
    expected_chi = np.array(
        [
            [0.25, 0, 0, 0.5],
            [0, -0.25, 0, 0],
            [0, 0, -0.25, 0],
            [0.5, 0, 0, 0.25],
        ],
        dtype=complex,
    )
    assert np.max(np.abs(dec.chi - expected_chi)) <= 1e-15


def test_decompose_traceless_marginals_property():
    rng = np.random.default_rng(52)
    for _ in range(100):
        d_A, d_B = (2, 2) if rng.uniform() < 0.6 else (2, 3)
        shape = BipartiteShape(d_A, d_B)
        rho = random_density_matrix(d_A * d_B, rng)
        dec = decompose(rho, shape)
        assert np.max(np.abs(partial_trace(dec.chi, shape, "A"))) <= 1e-12
        assert np.max(np.abs(partial_trace(dec.chi, shape, "B"))) <= 1e-12
        recon = kron(dec.rho_A, dec.rho_B) + dec.chi
        assert np.max(np.abs(recon - rho)) <= 1e-14


def test_effective_hamiltonians_zero_interaction():
    rng = np.random.default_rng(53)
    system = random_system(rng, channels_per_side=0)
    system = BipartiteSystem(
        shape=system.shape,
        H_A=system.H_A,
        H_B=system.H_B,
        V=np.zeros((4, 4), dtype=complex),
    )
    dec = decompose(random_density_matrix(4, rng), system.shape)
    eff = effective_hamiltonians(system, dec)
    assert np.max(np.abs(eff.H_hat_A - system.H_A)) <= 1e-14
    assert np.max(np.abs(eff.H_hat_B - system.H_B)) <= 1e-14
    assert np.max(np.abs(effective_interaction(system, dec))) <= 1e-14


def test_effective_hamiltonians_two_qubit_formula():
    # At the tilted thermal state the mean-field shifts are g <sz> sigma_z
    # with <sz> = -tanh(beta omega): frozen tanh values below.
    m_A = -0.46211715726000974
    m_B = -0.7615941559557649
    g = STANDARD["g"]
    system = two_qubit_system(alpha_A=0.5)
    dec = decompose(two_qubit_state(), system.shape)
    eff = effective_hamiltonians(system, dec)

    expected_A = SIGMA_Z + g * m_B * SIGMA_Z - 0.5 * g * m_A * m_B * np.eye(2)
    expected_B = SIGMA_Z + g * m_A * SIGMA_Z - 0.5 * g * m_A * m_B * np.eye(2)
    assert np.max(np.abs(eff.H_hat_A - expected_A)) <= 1e-13
    assert np.max(np.abs(eff.H_hat_B - expected_B)) <= 1e-13
    expected_V = g * (
        kron(SIGMA_Z, SIGMA_Z)
        - m_A * kron(np.eye(2), SIGMA_Z)
        - m_B * kron(SIGMA_Z, np.eye(2))
        + m_A * m_B * np.eye(4)
    )
    assert np.max(np.abs(effective_interaction(system, dec) - expected_V)) <= 1e-13


def test_effective_hamiltonians_reconstruct_h():
    rng = np.random.default_rng(54)
    for _ in range(100):
        d_A, d_B = (2, 2) if rng.uniform() < 0.6 else (3, 2)
        system = random_system(rng, d_A=d_A, d_B=d_B, channels_per_side=1)
        rho = random_density_matrix(d_A * d_B, rng)
        dec = decompose(rho, system.shape)
        eff = effective_hamiltonians(system, dec)
        rebuilt = (
            embed_A(eff.H_hat_A, system.shape)
            + embed_B(eff.H_hat_B, system.shape)
            + effective_interaction(system, dec)
        )
        assert np.max(np.abs(rebuilt - total_hamiltonian(system))) <= 1e-12


def test_alpha_independence():
    rng = np.random.default_rng(55)
    rho = random_density_matrix(4, rng)
    ledgers = {alpha: energy_ledger(two_qubit_system(alpha_A=alpha), rho) for alpha in (0.0, 0.3, 0.5, 1.0)}
    base = ledgers[0.5]
    for ledger in ledgers.values():
        assert abs((ledger.U_A + ledger.U_B) - (base.U_A + base.U_B)) <= 1e-12
        assert abs(ledger.U_prod - base.U_prod) <= 1e-12
        assert abs(ledger.U_chi - base.U_chi) <= 1e-12
        assert abs(ledger.U - base.U) <= 1e-12
        assert abs(ledger.dU_prod_dt - base.dU_prod_dt) <= 1e-12
    # the individual accounts do move with alpha: U_A(0) - U_A(1) = Tr[V rho_A x rho_B]
    dec = decompose(rho, BipartiteShape(2, 2))
    v_mean = np.trace(two_qubit_system().V @ kron(dec.rho_A, dec.rho_B)).real
    assert abs(v_mean) > 1e-6
    assert ledgers[0.0].U_A - ledgers[1.0].U_A == pytest.approx(v_mean, abs=1e-12)


def test_ledger_identities_property():
    rng = np.random.default_rng(56)
    for _ in range(50):
        system = random_system(rng)
        rho = random_density_matrix(4, rng)
        ledger = energy_ledger(system, rho)
        assert abs(ledger.U - (ledger.U_prod + ledger.U_chi)) <= 1e-10
        assert abs(ledger.U_prod - (ledger.U_A + ledger.U_B)) <= 1e-10
        assert abs(ledger.dU_dt - (ledger.dU_prod_dt + ledger.dU_chi_dt)) <= 1e-10


def test_vhat_expectation_identities():
    # Tr[rho Vhat] = Tr[chi Vhat] = Tr[chi V]: the product part carries no
    # residual-interaction energy.
    rng = np.random.default_rng(57)
    for _ in range(50):
        system = random_system(rng)
        rho = random_density_matrix(4, rng)
        dec = decompose(rho, system.shape)
        V_hat = effective_interaction(system, dec)
        a = np.trace(rho @ V_hat)
        b = np.trace(dec.chi @ V_hat)
        c = np.trace(dec.chi @ system.V)
        assert abs(a - b) <= 1e-11
        assert abs(b - c) <= 1e-11


def test_u_chi_of_tilted_state():
    # U_chi = Tr[chi V] = c g Tr[(sz x sz)^2] = 4 g c for the tilted state.
    system = two_qubit_system()
    ledger = energy_ledger(system, two_qubit_state(c=0.02))
    assert ledger.U_chi == pytest.approx(4.0 * 0.2 * 0.02, abs=1e-14)


def test_rates_against_finite_difference():
    # Central difference of U and U_prod over one +/- h RK4 step is an
    # independent oracle for the closed-form rates.
    rng = np.random.default_rng(58)
    h = 1e-5
    for trial in range(10):
        d_A, d_B = (2, 3) if trial == 0 else (2, 2)
        system = random_system(rng, d_A=d_A, d_B=d_B)
        rho = random_density_matrix(d_A * d_B, rng)
        ledger = energy_ledger(system, rho)
        H = total_hamiltonian(system)
        generator = Generator(system)
        fwd = generator.step(rho, h)
        bwd = generator.step(rho, -h)

        def u_total(state):
            return np.trace(state @ H).real

        def u_prod(state):
            dec = decompose(state, system.shape)
            return np.trace(kron(dec.rho_A, dec.rho_B) @ H).real

        fd_total = (u_total(fwd) - u_total(bwd)) / (2.0 * h)
        fd_prod = (u_prod(fwd) - u_prod(bwd)) / (2.0 * h)
        assert abs(ledger.dU_dt - fd_total) <= 1e-4
        assert abs(ledger.dU_prod_dt - fd_prod) <= 1e-4
        assert abs(ledger.dU_chi_dt - (fd_total - fd_prod)) <= 2e-4


def test_adjoint_of_h_splits_into_local_pieces():
    # D#_A[H] = D#_A[H_A x I + V] because the A-side adjoint kills I x H_B.
    rng = np.random.default_rng(59)
    for _ in range(20):
        system = random_system(rng)
        H = total_hamiltonian(system)
        adjoint_A, adjoint_B = (dissipative_part(system, side).adjoint for side in "AB")
        lhs_A = adjoint_A(H)
        rhs_A = adjoint_A(embed_A(system.H_A, system.shape) + system.V)
        assert np.max(np.abs(lhs_A - rhs_A)) <= 1e-12
        lhs_B = adjoint_B(H)
        rhs_B = adjoint_B(embed_B(system.H_B, system.shape) + system.V)
        assert np.max(np.abs(lhs_B - rhs_B)) <= 1e-12


def test_delta_u_chi_matches_ledger_differences():
    rng = np.random.default_rng(60)
    system = random_system(rng)
    rho0 = random_density_matrix(4, rng)
    traj = integrate(system, rho0, 0.5, 0.01, record_every=10)
    deltas = delta_U_chi(system, traj)
    assert deltas[0] == 0.0
    ledgers = [energy_ledger(system, state) for state in traj.states]
    for i, ledger in enumerate(ledgers):
        assert abs(deltas[i] - (ledger.U_chi - ledgers[0].U_chi)) <= 1e-12


def test_stacked_states_match_single_states():
    rng = np.random.default_rng(63)
    system = random_system(rng, d_A=2, d_B=3)
    states = np.stack([random_density_matrix(6, rng) for _ in range(4)])
    dec = decompose(states, system.shape)
    ledger = energy_ledger(system, states)
    residual = commutator_residual(system, states)
    for i, rho in enumerate(states):
        single = decompose(rho, system.shape)
        for field in ("rho_A", "rho_B", "product", "chi"):
            assert np.max(np.abs(getattr(dec, field)[i] - getattr(single, field))) <= 1e-14
        for name, value in vars(energy_ledger(system, rho)).items():
            assert isinstance(value, float)
            assert abs(getattr(ledger, name)[i] - value) <= 1e-14
        assert abs(residual[i] - commutator_residual(system, rho)) <= 1e-14


def test_imaginary_residue_warns():
    # A non-Hermitian input state yields a complex energy; the guard warns
    # instead of silently truncating.
    system = BipartiteSystem(
        shape=BipartiteShape(2, 2),
        H_A=np.zeros((2, 2), dtype=complex),
        H_B=np.zeros((2, 2), dtype=complex),
        V=kron(SIGMA_X, SIGMA_X),
    )
    rho = np.diag([0.25] * 4).astype(complex)
    rho[0, 3] = 0.5j
    with pytest.warns(NumericalConsistencyWarning):
        energy_ledger(system, rho)


def test_ledger_consistency_bound_scales_with_energy():
    # At energy scales 1e5 and 1e6 the identities and the realness of each
    # trace hold only to rounding relative to that scale, which absolute
    # bounds report as inconsistent.
    rng = np.random.default_rng(61)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(20):
            system = random_system(rng)
            rho = random_density_matrix(4, rng)
            for scale in (1e5, 1e6):
                scaled = dataclasses.replace(
                    system, H_A=scale * system.H_A, H_B=scale * system.H_B, V=scale * system.V
                )
                energy_ledger(scaled, rho)
    assert not [w for w in caught if issubclass(w.category, NumericalConsistencyWarning)]
    exact = dict(U=1.0, U_A=0.25, U_B=0.25, U_prod=0.5, U_chi=0.5, dU_prod_dt=0.0, dU_chi_dt=0.0, dU_dt=0.0)
    with pytest.warns(NumericalConsistencyWarning, match="U = U_prod \\+ U_chi"):
        EnergyLedger(**{**exact, "U": 1.0 + 1e-6})


def test_an_overflowing_ledger_is_returned_without_numpy_warnings():
    # The example with V = 1e308 sz x sz overflows the drive and the rates; local
    # Hamiltonians of 1e308 sz overflow H itself. The suite turns a RuntimeWarning
    # into an error, and here every other warning as well.
    doc = scenario_document(ExampleParams(**STANDARD), 1.0, 1e-3, 10)
    doc["V"]["g"] = 1e308
    scenario = parse_scenario(doc)
    system, rho = scenario.system, scenario.initial_state
    huge_H = BipartiteSystem(shape=system.shape, H_A=1e308 * SIGMA_Z, H_B=1e308 * SIGMA_Z, V=np.zeros((4, 4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ledger = energy_ledger(system, rho)
        stacked = energy_ledger(system, np.stack([rho, rho]))
        eff = effective_hamiltonians(system, decompose(rho, system.shape))
        H = generator_of(huge_H).H
        huge = energy_ledger(huge_H, rho)
    assert not np.isfinite(H).all()
    assert np.isfinite([ledger.U, ledger.U_A, ledger.U_B, ledger.U_prod, ledger.U_chi]).all()
    assert np.isnan([ledger.dU_prod_dt, ledger.dU_chi_dt, ledger.dU_dt]).all()
    assert np.array_equal(stacked.dU_dt, [ledger.dU_dt] * 2, equal_nan=True)
    assert not np.isfinite(eff.drive).all()
    assert np.isfinite([huge.U_A, huge.U_B]).all() and np.isnan([huge.U, huge.U_prod]).all()


def test_generator_of_is_compiled_once_and_read_only():
    rng = np.random.default_rng(62)
    system = random_system(rng)
    generator = generator_of(system)
    assert generator_of(system) is generator
    assert np.array_equal(generator.H, total_hamiltonian(system))
    assert np.array_equal(generator.adjoint_H, Generator(system).adjoint(total_hamiltonian(system)))
    for array in (generator.H, generator.adjoint_H):
        with pytest.raises(ValueError):
            array[0, 0] = 0.0


def test_a_run_and_its_record_table_build_one_generator(monkeypatch):
    builds = []
    init = Generator.__init__

    def counted(self, system):
        builds.append(system)
        init(self, system)

    monkeypatch.setattr(Generator, "__init__", counted)
    scenario = parse_scenario(scenario_document(ExampleParams(**STANDARD), 0.05, 1e-3, 10))
    system = scenario.system
    trajectory = integrate(system, scenario.initial_state, scenario.t_final, scenario.dt, scenario.record_every)
    cli.compute_records(system, trajectory)
    assert builds == [system]
