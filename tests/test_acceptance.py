"""Acceptance suite.

Each test exercises one headline guarantee end to end and prints a single
"[criterion N] PASS/FAIL" line with the measured numbers, so the -rA
summary doubles as an acceptance report.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from corrflux import cli
from corrflux.conditions import check_conditions, verify_theorem
from corrflux.dynamics import Generator, integrate
from corrflux.energetics import decompose, delta_U_chi, energy_ledger
from corrflux.linalg import (
    frobenius_norm,
    partial_trace,
    random_density_matrix,
)
from corrflux.model import gibbs_state
from corrflux.twoqubit import (
    ExampleParams,
    analytic_chi,
    analytic_delta_U_chi,
    build_example,
    decay_rate,
    scenario_document,
)

from helpers import dissipative_part, random_dephasing_system, random_system, random_thermal_system, trace_distance

STANDARD = ExampleParams(omega_A=1.0, omega_B=1.0, g=0.2, beta_A=0.5, beta_B=1.0, c=0.02)


def criterion(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


@pytest.fixture(scope="module")
def standard_run():
    """Integrate the reference two-qubit scenario out to twelve lifetimes."""
    system, rho0 = build_example(STANDARD)
    t_final = 12.0 / decay_rate(STANDARD)
    start = time.perf_counter()
    trajectory = integrate(system, rho0, t_final, 1e-3, record_every=10)
    elapsed = time.perf_counter() - start
    return {
        "system": system,
        "rho0": rho0,
        "trajectory": trajectory,
        "elapsed": elapsed,
    }


def test_criterion_1_trajectory_matches_closed_form(standard_run):
    system = standard_run["system"]
    trajectory = standard_run["trajectory"]
    chi_err = 0.0
    for t, state in zip(trajectory.times, trajectory.states):
        chi = decompose(state, system.shape).chi
        chi_err = max(chi_err, frobenius_norm(chi - analytic_chi(STANDARD, t)))
    deltas = delta_U_chi(system, trajectory)
    du_err = max(
        abs(d - analytic_delta_U_chi(STANDARD, t))
        for d, t in zip(deltas, trajectory.times)
    )
    elapsed = standard_run["elapsed"]
    ok = chi_err <= 1e-6 and du_err <= 1e-6 and elapsed < 5.0
    criterion(
        1,
        ok,
        "two-qubit run tracks the closed form: "
        f"max ||chi - analytic||_F = {chi_err:.3e}, "
        f"max |DeltaU_chi - analytic| = {du_err:.3e} (tol 1e-6), "
        f"integration took {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_2_correlation_energy_fully_drains(standard_run):
    system = standard_run["system"]
    trajectory = standard_run["trajectory"]
    deltas = delta_U_chi(system, trajectory)
    expected = -4.0 * STANDARD.g * STANDARD.c
    gap = abs(deltas[-1] - expected)
    chi_norm = frobenius_norm(decompose(trajectory.final_state, system.shape).chi)
    ok = gap <= 1e-6 and chi_norm <= 1e-6
    criterion(
        2,
        ok,
        f"final DeltaU_chi = {deltas[-1]:.9f} vs -4gc = {expected}: "
        f"gap {gap:.3e}, residual ||chi||_F = {chi_norm:.3e} (tol 1e-6)",
    )


def test_criterion_3_local_energies_and_marginals_stay_frozen(standard_run):
    system = standard_run["system"]
    trajectory = standard_run["trajectory"]
    rho0 = standard_run["rho0"]
    base = energy_ledger(system, rho0)
    rho_A0 = partial_trace(rho0, system.shape, "A")
    rho_B0 = partial_trace(rho0, system.shape, "B")
    drift = 0.0
    marginal_move = 0.0
    for state in trajectory.states:
        ledger = energy_ledger(system, state)
        drift = max(drift, abs(ledger.U_A - base.U_A), abs(ledger.U_B - base.U_B))
        marginal_move = max(
            marginal_move,
            trace_distance(partial_trace(state, system.shape, "A"), rho_A0),
            trace_distance(partial_trace(state, system.shape, "B"), rho_B0),
        )
    ok = drift <= 1e-8 and marginal_move <= 1e-8
    criterion(
        3,
        ok,
        f"max local energy drift = {drift:.3e}, "
        f"max marginal trace distance = {marginal_move:.3e} (tol 1e-8)",
    )


def test_criterion_4_sweep_sign_rule(tmp_path):
    # release for g c > 0, absorb for g c < 0, nothing at g c = 0
    cases = [
        ("c", -0.01, 0.01, ExampleParams(1.0, 1.0, 0.5, 0.5, 1.0, 0.02), 0.5),
        ("g", -0.2, 0.2, STANDARD, STANDARD.c),
    ]
    checked = 0
    bad = []
    for param, lo, hi, params, partner in cases:
        doc = scenario_document(params, t_final=0.5, dt=2e-3, record_every=25)
        scenario = tmp_path / f"base_{param}.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        outdir = tmp_path / f"sweep_{param}"
        rc = cli.main(
            [
                "sweep", str(scenario),
                "--param", param,
                "--min", str(lo), "--max", str(hi), "--steps", "9",
                "--output-dir", str(outdir),
            ]
        )
        assert rc == 0
        rows = (outdir / "summary.csv").read_text(encoding="utf-8").strip().split("\n")[1:]
        for row in rows:
            value, _, sign = row.split(",")
            product = float(value) * partner
            expected = 0 if product == 0 else (-1 if product > 0 else 1)
            checked += 1
            if int(sign) != expected:
                bad.append(f"{param}={value}: sign {sign}, expected {expected}")
    ok = not bad and checked == 18
    criterion(
        4,
        ok,
        f"exchange direction equals -sign(g c) on all {checked} sweep points"
        + (f"; mismatches: {bad}" if bad else ""),
    )


def test_criterion_5_dephasing_systems_satisfy_conditions():
    rng = np.random.default_rng(5)
    worst_i = worst_ii = worst_drift = 0.0
    all_ok = True
    for _ in range(20):
        system = random_dephasing_system(rng)
        dim = system.shape.dim
        report = check_conditions(system, random_density_matrix(dim, rng))
        worst_i = max(worst_i, report.commutator_residual)
        worst_ii = max(worst_ii, report.adjoint_residual)
        all_ok = all_ok and report.passed
        states = [random_density_matrix(dim, rng) for _ in range(2)]
        theorem = verify_theorem(system, states, 0.01, 10.0)
        all_ok = all_ok and theorem.applicable and theorem.passed
        worst_drift = max(
            worst_drift,
            max(theorem.total_energy_drifts),
            max(theorem.product_energy_drifts),
        )
    ok = all_ok and worst_i <= 1e-10 and worst_ii <= 1e-10 and worst_drift <= 1e-7
    criterion(
        5,
        ok,
        "20 dephasing-type systems: "
        f"max commutator residual = {worst_i:.3e}, "
        f"max adjoint residual = {worst_ii:.3e} (tol 1e-10), "
        f"max energy drift over horizon 10 = {worst_drift:.3e} (tol 1e-7)",
    )


def test_criterion_6_ledger_rates_match_finite_differences():
    rng = np.random.default_rng(6)
    h = 1e-5
    worst_prod = worst_total = 0.0
    start = time.perf_counter()
    for i in range(50):
        if i == 0:
            d_A, d_B = 2, 3
        elif i == 1:
            d_A, d_B = 3, 2
        else:
            d_A, d_B = 2, 2
        system = random_system(rng, d_A, d_B)
        rho = random_density_matrix(d_A * d_B, rng)
        ledger = energy_ledger(system, rho)
        generator = Generator(system)
        plus = energy_ledger(system, generator.step(rho, h))
        minus = energy_ledger(system, generator.step(rho, -h))
        fd_prod = (plus.U_prod - minus.U_prod) / (2.0 * h)
        fd_total = (plus.U - minus.U) / (2.0 * h)
        worst_prod = max(worst_prod, abs(ledger.dU_prod_dt - fd_prod))
        worst_total = max(worst_total, abs(ledger.dU_dt - fd_total))
    elapsed = time.perf_counter() - start
    ok = worst_prod <= 1e-4 and worst_total <= 1e-4 and elapsed < 30.0
    criterion(
        6,
        ok,
        "50 random systems: "
        f"max |dU_prod/dt - FD| = {worst_prod:.3e}, "
        f"max |dU/dt - FD| = {worst_total:.3e} (tol 1e-4), "
        f"{elapsed:.2f}s (budget 30s)",
    )


def test_criterion_7_generator_and_decomposition_invariants():
    rng = np.random.default_rng(7)
    dims = [(2, 2), (2, 3), (3, 2)]
    max_trace = max_herm = max_dual = 0.0
    max_recon = max_marginal = max_alpha = 0.0
    for i in range(100):
        d_A, d_B = dims[i % 3]
        dim = d_A * d_B
        system = random_system(rng, d_A, d_B)
        rho = random_density_matrix(dim, rng)

        generator = Generator(system)
        out = generator(rho)
        max_trace = max(max_trace, abs(np.trace(out)))
        max_herm = max(max_herm, frobenius_norm(out - out.conj().T))

        probe = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for side in ("A", "B"):
            lhs = np.trace(probe @ dissipative_part(system, side)(rho))
            rhs = np.trace(generator.adjoint(probe, side) @ rho)
            max_dual = max(max_dual, abs(lhs - rhs))

        parts = decompose(rho, system.shape)
        rebuilt = np.kron(parts.rho_A, parts.rho_B) + parts.chi
        max_recon = max(max_recon, frobenius_norm(rebuilt - rho))
        max_marginal = max(
            max_marginal,
            frobenius_norm(partial_trace(parts.chi, system.shape, "A")),
            frobenius_norm(partial_trace(parts.chi, system.shape, "B")),
        )

        low = replace(system, alpha_A=float(rng.uniform()))
        high = replace(system, alpha_A=float(rng.uniform()))
        ledger_low = energy_ledger(low, rho)
        ledger_high = energy_ledger(high, rho)
        max_alpha = max(
            max_alpha,
            abs((ledger_low.U_A + ledger_low.U_B) - (ledger_high.U_A + ledger_high.U_B)),
        )

    max_annihilation = 0.0
    for _ in range(100):
        system, betas = random_thermal_system(rng)
        pi = np.kron(
            gibbs_state(system.H_A, betas["A"]), gibbs_state(system.H_B, betas["B"])
        )
        max_annihilation = max(max_annihilation, frobenius_norm(Generator(system)(pi)))

    ok = (
        max_trace <= 1e-13
        and max_herm <= 1e-12
        and max_dual <= 1e-12
        and max_recon <= 1e-12
        and max_marginal <= 1e-12
        and max_alpha <= 1e-12
        and max_annihilation <= 1e-10
    )
    criterion(
        7,
        ok,
        "100 random instances: "
        f"|Tr G| <= {max_trace:.2e}, hermiticity <= {max_herm:.2e}, "
        f"duality gap <= {max_dual:.2e}, reconstruction <= {max_recon:.2e}, "
        f"chi marginals <= {max_marginal:.2e}, alpha dependence <= {max_alpha:.2e} "
        f"(tols 1e-13/1e-12); thermal steady-state residual <= {max_annihilation:.2e} (tol 1e-10)",
    )


def test_criterion_8_integrator_fourth_order_convergence():
    rng = np.random.default_rng(8)
    system = random_system(rng)
    rho0 = random_density_matrix(4, rng)
    t_final = 0.5
    skip = 10**6
    reference = integrate(system, rho0, t_final, 0.00125, record_every=skip).final_state
    err_coarse = frobenius_norm(
        integrate(system, rho0, t_final, 0.02, record_every=skip).final_state - reference
    )
    err_fine = frobenius_norm(
        integrate(system, rho0, t_final, 0.01, record_every=skip).final_state - reference
    )
    factor = err_coarse / err_fine
    ok = 8.0 <= factor <= 32.0
    criterion(
        8,
        ok,
        f"halving dt reduced the error {factor:.1f}x "
        f"({err_coarse:.3e} -> {err_fine:.3e}), expected ~16x for fourth order",
    )
