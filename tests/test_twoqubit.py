"""Tests for the closed-form two-qubit exchange scenario."""

import warnings

import numpy as np
import pytest

from corrflux.dynamics import integrate
from corrflux.energetics import decompose, delta_U_chi, energy_ledger
from corrflux.linalg import SIGMA_Z, frobenius_norm, kron
from corrflux.model import (
    ValidationError,
    gibbs_state,
    parse_scenario,
)
from corrflux.twoqubit import (
    ExampleParams,
    analytic_chi,
    analytic_delta_U_chi,
    build_example,
    decay_rate,
    scenario_document,
    sign_of_exchange,
    valid_c_range,
)

from helpers import detailed_balance_residual, flagged, thermal_marginals, trace_distance

STANDARD = ExampleParams(omega_A=1.0, omega_B=1.0, g=0.2, beta_A=0.5, beta_B=1.0, c=0.02)


def test_channel_rates_half_log_two():
    # beta_A omega_A = ln 2 gives rates (2, 1/2) on side A; beta_B = 0 gives
    # (1, 1) on side B; the decay rate is their sum, 4.5.
    params = ExampleParams(
        omega_A=1.0, omega_B=1.0, g=0.1, beta_A=float(np.log(2.0)), beta_B=0.0, c=0.0
    )
    system, _ = build_example(params)
    rates = {ch.label: ch.rate for ch in system.channels}
    assert rates["A:1<-0"] == pytest.approx(2.0, rel=1e-14)
    assert rates["A:0<-1"] == pytest.approx(0.5, rel=1e-14)
    assert rates["B:1<-0"] == pytest.approx(1.0, rel=1e-14)
    assert rates["B:0<-1"] == pytest.approx(1.0, rel=1e-14)
    assert decay_rate(params) == pytest.approx(4.5, rel=1e-14)


def test_decay_rate_closed_form():
    assert decay_rate(STANDARD) == pytest.approx(5.341413200043249, rel=1e-14)
    rng = np.random.default_rng(71)
    for _ in range(30):
        params = ExampleParams(
            omega_A=float(rng.uniform(0.0, 2.0)),
            omega_B=float(rng.uniform(0.0, 2.0)),
            g=float(rng.uniform(-1.0, 1.0)),
            beta_A=float(rng.uniform(0.0, 1.5)),
            beta_B=float(rng.uniform(0.0, 1.5)),
            c=0.0,
        )
        expected = 2.0 * np.cosh(params.beta_A * params.omega_A) + 2.0 * np.cosh(
            params.beta_B * params.omega_B
        )
        assert decay_rate(params) == pytest.approx(float(expected), rel=1e-12)


def test_thermal_marginals_frozen_populations():
    pi_A, pi_B = thermal_marginals(STANDARD)
    assert pi_A[0, 0].real == pytest.approx(0.2689414213699951, abs=1e-14)
    assert pi_A[1, 1].real == pytest.approx(0.7310585786300049, abs=1e-14)
    assert pi_B[0, 0].real == pytest.approx(0.11920292202211756, abs=1e-14)
    assert pi_B[1, 1].real == pytest.approx(0.8807970779778824, abs=1e-14)


def test_initial_state_structure():
    system, rho0 = build_example(STANDARD)
    pi_A, pi_B = thermal_marginals(STANDARD)
    dec = decompose(rho0, system.shape)
    assert np.max(np.abs(dec.rho_A - pi_A)) <= 1e-14
    assert np.max(np.abs(dec.rho_B - pi_B)) <= 1e-14
    assert np.max(np.abs(dec.chi - 0.02 * kron(SIGMA_Z, SIGMA_Z))) <= 1e-14
    assert float(np.linalg.eigvalsh(rho0).min()) >= -1e-14


def test_example_channels_satisfy_detailed_balance():
    system, _ = build_example(STANDARD)
    for side, H_local, beta in (
        ("A", STANDARD.omega_A * SIGMA_Z, STANDARD.beta_A),
        ("B", STANDARD.omega_B * SIGMA_Z, STANDARD.beta_B),
    ):
        side_channels = [ch for ch in system.channels if ch.bath_tag == side]
        assert len(side_channels) == 2
        resid = detailed_balance_residual(side_channels, H_local, beta, side, system.shape)
        assert resid <= 1e-12


def test_analytic_chi_decay():
    lam = decay_rate(STANDARD)
    assert np.max(np.abs(analytic_chi(STANDARD, 0.0) - 0.02 * kron(SIGMA_Z, SIGMA_Z))) <= 1e-15
    half_life = float(np.log(2.0)) / lam
    assert np.max(np.abs(analytic_chi(STANDARD, half_life) - 0.01 * kron(SIGMA_Z, SIGMA_Z))) <= 1e-15
    assert analytic_delta_U_chi(STANDARD, 0.0) == 0.0
    # after one half-life exactly half the correlation energy is gone
    assert analytic_delta_U_chi(STANDARD, half_life) == pytest.approx(-2.0 * 0.2 * 0.02, abs=1e-15)
    # and asymptotically all of it
    assert analytic_delta_U_chi(STANDARD, 1e3) == pytest.approx(-4.0 * 0.2 * 0.02, abs=1e-15)


def test_sign_of_exchange():
    def params_with(g, c):
        return ExampleParams(omega_A=1.0, omega_B=1.0, g=g, beta_A=0.5, beta_B=1.0, c=c)

    assert sign_of_exchange(params_with(0.2, 0.02)) == "releases"
    assert sign_of_exchange(params_with(-0.2, 0.02)) == "absorbs"
    assert sign_of_exchange(params_with(0.2, -0.02)) == "absorbs"
    assert sign_of_exchange(params_with(-0.2, -0.02)) == "releases"
    assert sign_of_exchange(params_with(0.0, 0.02)) == "none"
    assert sign_of_exchange(params_with(0.2, 0.0)) == "none"


def test_params_validation():
    with pytest.raises(ValidationError, match="positivity range"):
        ExampleParams(omega_A=1.0, omega_B=1.0, g=0.2, beta_A=0.5, beta_B=1.0, c=0.2)
    with pytest.raises(ValidationError):
        ExampleParams(omega_A=-1.0, omega_B=1.0, g=0.2, beta_A=0.5, beta_B=1.0, c=0.0)
    with pytest.raises(ValidationError):
        ExampleParams(omega_A=1.0, omega_B=1.0, g=float("inf"), beta_A=0.5, beta_B=1.0, c=0.0)


def test_numeric_run_matches_analytic_solution():
    system, rho0 = build_example(STANDARD)
    lam = decay_rate(STANDARD)
    t_final = 10.0 / lam
    traj = integrate(system, rho0, t_final, 1e-3, record_every=20)
    deltas = delta_U_chi(system, traj)
    for i, t in enumerate(traj.times):
        chi_num = decompose(traj.states[i], system.shape).chi
        assert frobenius_norm(chi_num - analytic_chi(STANDARD, float(t))) <= 1e-8
        assert abs(deltas[i] - analytic_delta_U_chi(STANDARD, float(t))) <= 1e-8
    assert not flagged(traj)


def test_states_stay_diagonal_and_marginals_stationary():
    system, rho0 = build_example(STANDARD)
    pi_A, pi_B = thermal_marginals(STANDARD)
    traj = integrate(system, rho0, 1.0, 1e-3, record_every=100)
    for state in traj.states:
        off = state - np.diag(np.diag(state))
        assert np.max(np.abs(off)) <= 1e-12
        dec = decompose(state, system.shape)
        assert trace_distance(dec.rho_A, pi_A) <= 1e-9
        assert trace_distance(dec.rho_B, pi_B) <= 1e-9


def test_local_energies_frozen_while_u_chi_moves():
    system, rho0 = build_example(STANDARD)
    traj = integrate(system, rho0, 1.0, 1e-3, record_every=100)
    ledgers = [energy_ledger(system, state) for state in traj.states]
    base = ledgers[0]
    for ledger in ledgers:
        assert abs(ledger.U_A - base.U_A) <= 1e-8
        assert abs(ledger.U_B - base.U_B) <= 1e-8
        assert abs(ledger.U_prod - base.U_prod) <= 1e-8
        assert abs(ledger.dU_prod_dt) <= 1e-10
    # while the correlation account drains into the environment
    assert ledgers[-1].U_chi - base.U_chi < -1e-3
    assert abs((ledgers[-1].U - base.U) - (ledgers[-1].U_chi - base.U_chi)) <= 1e-10


def test_scenario_document_reproduces_direct_build():
    doc = scenario_document(STANDARD, t_final=0.5, dt=1e-2, record_every=5)
    scenario = parse_scenario(doc)
    system, rho0 = build_example(STANDARD)

    assert np.max(np.abs(scenario.system.H_A - system.H_A)) <= 1e-15
    assert np.max(np.abs(scenario.system.H_B - system.H_B)) <= 1e-15
    assert np.max(np.abs(scenario.system.V - system.V)) <= 1e-15
    assert np.max(np.abs(scenario.initial_state - rho0)) <= 1e-14
    assert sorted(ch.rate for ch in scenario.system.channels) == pytest.approx(
        sorted(ch.rate for ch in system.channels), rel=1e-12
    )
    assert scenario.t_final == 0.5
    assert scenario.record_every == 5

    a = integrate(scenario.system, scenario.initial_state, 0.1, 1e-3).final_state
    b = integrate(system, rho0, 0.1, 1e-3).final_state
    assert np.max(np.abs(a - b)) <= 1e-13


def test_scenario_document_needs_positive_frequencies():
    params = ExampleParams(omega_A=0.0, omega_B=1.0, g=0.2, beta_A=0.5, beta_B=1.0, c=0.0)
    with pytest.raises(ValidationError):
        scenario_document(params, t_final=1.0, dt=1e-2)


def test_build_example_works_at_zero_frequency():
    # the direct builder does not need eigenlevel bookkeeping, so omega = 0
    # (degenerate local spectrum) is fine there
    params = ExampleParams(omega_A=0.0, omega_B=0.0, g=0.3, beta_A=0.7, beta_B=0.2, c=0.1)
    system, rho0 = build_example(params)
    assert decay_rate(params) == pytest.approx(4.0, rel=1e-14)
    traj = integrate(system, rho0, 0.5, 1e-3, record_every=100)
    deltas = delta_U_chi(system, traj)
    assert abs(deltas[-1] - analytic_delta_U_chi(params, 0.5)) <= 1e-8


def test_valid_c_range_frozen_values():
    c_min, c_max = valid_c_range(0.5, 1.0, 1.0, 1.0)
    assert c_min == pytest.approx(-0.032058603280084995, abs=1e-15)
    assert c_max == pytest.approx(0.08714431874203259, abs=1e-15)


def test_valid_c_range_infinite_temperature():
    c_min, c_max = valid_c_range(0.0, 1.0, 0.0, 1.0)
    assert c_min == pytest.approx(-0.25, abs=1e-15)
    assert c_max == pytest.approx(0.25, abs=1e-15)


def test_valid_c_range_is_exact_positivity_boundary():
    for beta_A, beta_B in ((0.5, 1.0), (0.2, 1.7), (0.0, 0.9)):
        c_min, c_max = valid_c_range(beta_A, 1.0, beta_B, 1.0)
        pi_A = gibbs_state(SIGMA_Z, beta_A)
        pi_B = gibbs_state(SIGMA_Z, beta_B)

        def min_eig(c):
            rho = kron(pi_A, pi_B) + c * kron(SIGMA_Z, SIGMA_Z)
            return float(np.linalg.eigvalsh(rho).min())

        assert min_eig(c_max) >= -1e-12
        assert min_eig(c_min) >= -1e-12
        assert min_eig(c_max + 1e-6) < -1e-8
        assert min_eig(c_min - 1e-6) < -1e-8


def test_valid_c_range_property():
    rng = np.random.default_rng(66)
    for _ in range(50):
        beta_A, beta_B = rng.uniform(0.0, 2.0, size=2)
        omega_A, omega_B = rng.uniform(0.1, 2.0, size=2)
        c_min, c_max = valid_c_range(float(beta_A), float(omega_A), float(beta_B), float(omega_B))
        assert -0.25 - 1e-12 <= c_min < 0.0
        assert 0.0 < c_max <= 0.25 + 1e-12


def test_valid_c_range_validation():
    with pytest.raises(ValidationError):
        valid_c_range(-0.5, 1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        valid_c_range(0.5, np.inf, 1.0, 1.0)


def test_example_params_and_the_preset_enforce_one_window():
    # Both bounds of valid_c_range are accepted by ExampleParams and by the
    # scenario preset, and one float step beyond either bound by neither.
    rng = np.random.default_rng(67)
    cases = [(1.0, 1.0, 0.5, 1.0)]
    for _ in range(50):
        omega_A, omega_B = rng.uniform(0.1, 2.0, size=2)
        beta_A, beta_B = rng.uniform(0.0, 2.0, size=2)
        cases.append((float(omega_A), float(omega_B), float(beta_A), float(beta_B)))
    for omega_A, omega_B, beta_A, beta_B in cases:
        def params(c):
            return ExampleParams(omega_A=omega_A, omega_B=omega_B, g=0.2, beta_A=beta_A, beta_B=beta_B, c=c)

        for bound, outward in zip(valid_c_range(beta_A, omega_A, beta_B, omega_B), (-np.inf, np.inf)):
            doc = scenario_document(params(bound), t_final=0.1, dt=1e-2)
            assert parse_scenario(doc).initial_state.shape == (4, 4)
            beyond = float(np.nextafter(bound, outward))
            with pytest.raises(ValidationError, match="positivity range"):
                params(beyond)
            doc["initial_state"]["c"] = beyond
            with pytest.raises(ValidationError, match="positivity range"):
                parse_scenario(doc)


@pytest.mark.parametrize("beta_A, beta_B", [(1000.0, 1.0), (709.5, 709.5)])
def test_params_reject_rates_that_overflow(beta_A, beta_B):
    # exp(1000) is inf; exp(709.5) is finite, but two of them sum past the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"overflow at beta_A\*omega_A = "):
            ExampleParams(omega_A=1.0, omega_B=1.0, g=0.2, beta_A=beta_A, beta_B=beta_B, c=0.0)
