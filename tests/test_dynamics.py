"""Tests for the master-equation generator, RK4 stepping and steady states."""

import tracemalloc

import numpy as np
import pytest

from corrflux.dynamics import (
    Generator,
    Trajectory,
    TrajectoryDiagnosticsWarning,
    _step_matrix_pays,
    integrate,
)
from corrflux.linalg import (
    SIGMA_Z,
    BipartiteShape,
    frobenius_norm,
    kron,
    random_density_matrix,
)
from corrflux.model import (
    BipartiteSystem,
    JumpChannel,
    ValidationError,
    gibbs_state,
    total_hamiltonian,
)
from corrflux.twoqubit import ExampleParams, build_example

from helpers import (
    NonUniqueSteadyStateError,
    dissipative_part,
    flagged,
    random_hermitian,
    random_system,
    random_thermal_system,
    reference_adjoint,
    reference_generator,
    reference_matrix,
    steady_state,
    trace_distance,
)

RAISE = np.array([[0, 0], [1, 0]], dtype=complex)
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)


def single_qubit_system(channels=(), H=None):
    """Helper: a bare qubit written as a (2, 1) bipartite system."""
    return BipartiteSystem(
        shape=BipartiteShape(2, 1),
        H_A=np.zeros((2, 2), dtype=complex) if H is None else H,
        H_B=np.zeros((1, 1), dtype=complex),
        V=np.zeros((2, 2), dtype=complex),
        channels=channels,
    )


def test_dissipator_hand_value():
    # L = |1><0| (x) I at rate 1 on rho = |0><0| (x) I/2:
    # L rho L† = |1><1| (x) I/2 and {L†L, rho} = 2 |0><0| (x) I/2.
    shape = BipartiteShape(2, 2)
    system = BipartiteSystem(
        shape=shape,
        H_A=np.zeros((2, 2), dtype=complex),
        H_B=np.zeros((2, 2), dtype=complex),
        V=np.zeros((4, 4), dtype=complex),
        channels=(JumpChannel(RAISE, 1.0, "A", "A:raise"),),
    )
    rho = kron(np.diag([1.0, 0.0]).astype(complex), 0.5 * np.eye(2))
    expected = kron(np.diag([-1.0, 1.0]).astype(complex), 0.5 * np.eye(2))
    assert np.max(np.abs(dissipative_part(system)(rho) - expected)) <= 1e-15
    assert np.max(np.abs(Generator(system)(rho) - expected)) <= 1e-15


def test_adjoint_hand_value():
    # L = |1><0| at rate 1: L† sz L = -|0><0|, {sz, L†L} = 2 |0><0|,
    # so the adjoint sends sz to -2 |0><0|.
    system = single_qubit_system(channels=(JumpChannel(RAISE, 1.0, "A", "raise"),))
    expected = np.diag([-2.0, 0.0]).astype(complex)
    assert np.max(np.abs(Generator(system).adjoint(SIGMA_Z) - expected)) <= 1e-15


def test_unitary_part_only():
    rng = np.random.default_rng(31)
    system = random_system(rng, channels_per_side=0)
    H = total_hamiltonian(system)
    rho = random_density_matrix(4, rng)
    expected = -1j * (H @ rho - rho @ H)
    assert np.max(np.abs(Generator(system)(rho) - expected)) <= 1e-13
    assert np.max(np.abs(dissipative_part(system)(rho))) == 0.0


def test_dissipator_side_split():
    # The adjoint of all channels is the sum of the adjoints of each side's channels.
    rng = np.random.default_rng(32)
    for _ in range(20):
        system = random_system(rng)
        rho = random_density_matrix(4, rng)
        total = Generator(system).adjoint(rho)
        split = dissipative_part(system, "A").adjoint(rho) + dissipative_part(system, "B").adjoint(rho)
        assert np.max(np.abs(total - split)) <= 1e-13


def test_generator_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(33)
    for _ in range(100):
        d_A, d_B = (2, 2) if rng.uniform() < 0.7 else (2, 3)
        system = random_system(rng, d_A=d_A, d_B=d_B)
        rho = random_density_matrix(d_A * d_B, rng)
        out = Generator(system)(rho)
        assert abs(np.trace(out)) <= 1e-13
        assert float(np.abs(out - out.conj().T).max()) <= 1e-12


def test_adjoint_is_hilbert_schmidt_dual():
    # Tr[O D[rho]] = Tr[D#[O] rho] for arbitrary O and rho, per side and total.
    rng = np.random.default_rng(34)
    for _ in range(100):
        system = random_system(rng)
        rho = random_density_matrix(4, rng)
        O = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for side in (None, "A", "B"):
            lhs = np.trace(O @ dissipative_part(system, side)(rho))
            rhs = np.trace(dissipative_part(system, side).adjoint(O) @ rho)
            assert abs(lhs - rhs) <= 1e-12


def test_adjoint_is_unital():
    rng = np.random.default_rng(35)
    for _ in range(50):
        system = random_system(rng)
        out = Generator(system).adjoint(np.eye(4, dtype=complex))
        assert np.max(np.abs(out)) <= 1e-13


def test_cross_adjoint_vanishes():
    # The A-side adjoint annihilates purely B-sided observables and vice versa.
    rng = np.random.default_rng(36)
    for _ in range(50):
        system = random_system(rng)
        obs_B = kron(np.eye(2), random_hermitian(2, rng))
        obs_A = kron(random_hermitian(2, rng), np.eye(2))
        assert np.max(np.abs(dissipative_part(system, "A").adjoint(obs_B))) <= 1e-13
        assert np.max(np.abs(dissipative_part(system, "B").adjoint(obs_A))) <= 1e-13


@pytest.mark.parametrize("d_A, d_B", [(2, 3), (3, 2), (6, 6)])
def test_generator_matches_per_channel_reference(d_A, d_B):
    # Unequal sides catch an A/B mix-up in the regrouping of the state.
    rng = np.random.default_rng(49)
    system = random_system(rng, d_A=d_A, d_B=d_B)
    d = d_A * d_B
    generator = Generator(system)

    def assert_close(actual, expected):
        assert np.max(np.abs(actual - expected)) <= 1e-13 * np.max(np.abs(expected))

    rho = random_density_matrix(d, rng)
    stack = np.array([random_density_matrix(d, rng) for _ in range(3)])
    assert_close(generator(rho), reference_generator(system, rho))
    assert_close(generator(stack), reference_generator(system, stack))

    O = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    assert_close(generator.adjoint(O), reference_adjoint(system, O))
    for side in ("A", "B"):
        assert_close(dissipative_part(system, side).adjoint(O), reference_adjoint(system, O, side))

    dt = 0.05
    k1 = reference_generator(system, rho)
    k2 = reference_generator(system, rho + (0.5 * dt) * k1)
    k3 = reference_generator(system, rho + (0.5 * dt) * k2)
    k4 = reference_generator(system, rho + dt * k3)
    assert_close(generator.step(rho, dt), rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def test_generator_step_matches_taylor_polynomial():
    # The generator is linear, so one RK4 step equals the degree-4 Taylor
    # polynomial of the flow exactly.
    rng = np.random.default_rng(37)
    system = random_system(rng)
    rho = random_density_matrix(4, rng)
    dt = 0.05
    generator = Generator(system)
    term = np.array(rho)
    expected = np.array(rho)
    for k in range(1, 5):
        term = generator(term) * (dt / k)
        expected = expected + term
    stepped = generator.step(rho, dt)
    assert np.max(np.abs(stepped - expected)) <= 1e-14


def test_generator_step_leaves_its_input_and_returns_a_new_array():
    # The nested RK4 form works in place on the arrays the generator returns.
    rng = np.random.default_rng(51)
    system = random_system(rng, d_A=2, d_B=3)
    generator = Generator(system)
    for rho in (random_density_matrix(6, rng), np.array([random_density_matrix(6, rng) for _ in range(3)])):
        before = rho.copy()
        stepped = generator.step(rho, 0.05)
        assert np.array_equal(rho, before)
        assert stepped.shape == rho.shape and not np.shares_memory(stepped, rho)
        assert not np.array_equal(stepped, rho)


def test_integrate_matches_spectral_propagator():
    # Independent oracle: evolve vec(rho) with the matrix exponential of the
    # superoperator, computed by eigendecomposition.
    rng = np.random.default_rng(39)
    system = random_system(rng)
    rho0 = random_density_matrix(4, rng)
    t = 0.5
    sup = reference_matrix(system)
    w, v = np.linalg.eig(sup)
    propagated = v @ np.diag(np.exp(w * t)) @ np.linalg.solve(v, rho0.reshape(-1))
    expected = propagated.reshape(4, 4)
    traj = integrate(system, rho0, t, 1e-3, record_every=100)
    assert frobenius_norm(traj.final_state - expected) <= 1e-6


@pytest.mark.parametrize(
    "t_final, n_full, remainder, record_every",
    [
        # step matrix: a 4-step last interval and a short step
        (0.345, 34, 0.005, 5),
        # step matrix: a 1-step last interval and a short step
        (0.105, 10, 0.005, 3),
        # step matrix, every step recorded
        (0.3, 30, 0.0, 1),
        # two full steps cost less than building the step matrix: the step loop
        (0.025, 2, 0.005, 1),
    ],
)
def test_integrate_kernels_reproduce_the_step_loop(t_final, n_full, remainder, record_every):
    rng = np.random.default_rng(48)
    system = random_system(rng)
    rho0 = random_density_matrix(4, rng)
    dt = 0.01
    generator = Generator(system)
    stepped = [rho0]
    for _ in range(n_full):
        stepped.append(generator.step(stepped[-1], dt))
    if remainder:
        stepped.append(generator.step(stepped[-1], remainder))
    last = len(stepped) - 1
    record_steps = [0, *range(record_every, last, record_every), last]

    traj = integrate(system, rho0, t_final, dt, record_every=record_every)
    assert len(traj.states) == len(record_steps)
    assert traj.times[-1] == t_final
    for step, state in zip(record_steps, traj.states):
        assert frobenius_norm(state - stepped[step]) <= 1e-12


def test_integrate_zero_horizon():
    rng = np.random.default_rng(40)
    system = random_system(rng)
    rho0 = random_density_matrix(4, rng)
    traj = integrate(system, rho0, 0.0, 0.1)
    assert len(traj.states) == 1
    assert traj.times[0] == 0.0
    assert np.array_equal(traj.final_state, rho0)
    assert not flagged(traj) and not traj.breached


def test_integrate_validation():
    rng = np.random.default_rng(41)
    system = random_system(rng)
    rho0 = random_density_matrix(4, rng)
    with pytest.raises(ValidationError):
        integrate(system, rho0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        integrate(system, rho0, 1.0, -0.1)
    with pytest.raises(ValidationError):
        integrate(system, rho0, -1.0, 0.1)
    with pytest.raises(ValidationError):
        integrate(system, rho0, 1.0, 0.1, record_every=0)
    with pytest.raises(ValidationError):
        integrate(system, 2.0 * rho0, 1.0, 0.1)
    with pytest.raises(ValidationError):
        integrate(system, random_density_matrix(3, rng), 1.0, 0.1)


@pytest.mark.parametrize("t_final, dt", [(1e308, 1e-3), (1.0, 5e-324), (1e200, 0.01)])
def test_integrate_rejects_a_step_count_beyond_an_index(t_final, dt):
    # The first two overflow to an infinite count, the third to an int beyond ssize_t.
    system, rho0 = build_example(ExampleParams(omega_A=1.0, omega_B=1.0, g=0.2, beta_A=0.5, beta_B=1.0, c=0.02))
    with pytest.raises(ValidationError, match="t_final = .* and dt = .* give a step count"):
        integrate(system, rho0, t_final, dt)


def test_integrate_rejects_non_finite_initial_state():
    rng = np.random.default_rng(46)
    rho0 = random_density_matrix(4, rng)
    rho0[1, 2] = np.nan
    with pytest.raises(ValidationError, match="initial state has non-finite entries"):
        integrate(random_system(rng), rho0, 1.0, 0.1)


def test_integrate_record_schedule():
    rng = np.random.default_rng(42)
    system = random_system(rng)
    rho0 = random_density_matrix(4, rng)
    traj = integrate(system, rho0, 1.0, 0.1, record_every=3)
    assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)
    assert len(traj.states) == 5
    # t_final that is not a multiple of dt lands exactly via a shorter step
    traj2 = integrate(system, rho0, 0.95, 0.1, record_every=5)
    assert np.allclose(traj2.times, [0.0, 0.5, 0.95], atol=1e-12)
    assert traj2.times[-1] == 0.95


def test_integrate_trailing_step_accuracy():
    # 0.347 is not a multiple of either step, so both runs end on a
    # shorter trailing step and must still agree at the same final time
    rng = np.random.default_rng(43)
    system = random_system(rng)
    rho0 = random_density_matrix(4, rng)
    a = integrate(system, rho0, 0.347, 0.01).final_state
    b = integrate(system, rho0, 0.347, 0.005).final_state
    assert frobenius_norm(a - b) <= 1e-6


def test_dephasing_coherence_decay():
    # rho_01(t) = rho_01(0) exp(-2 gamma t) for a sigma_z channel; frozen at
    # gamma = 0.5, t = 1: ratio exp(-1) = 0.36787944117144233.
    system = single_qubit_system(channels=(JumpChannel(SIGMA_Z, 0.5, "A", "dephase"),))
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    traj = integrate(system, plus, 1.0, 1e-3, record_every=1000)
    ratio = traj.final_state[0, 1].real / 0.5
    assert abs(ratio - 0.36787944117144233) <= 1e-9
    assert np.max(np.abs(np.diag(traj.final_state) - 0.5)) <= 1e-14


def test_rk4_convergence_order():
    # Global error must shrink by a factor in [8, 32] (nominal 16) when the
    # step is halved; reference is a dt/8 run.
    rng = np.random.default_rng(44)
    system = random_system(rng)
    rho0 = random_density_matrix(4, rng)
    t = 0.4
    ref = integrate(system, rho0, t, 0.0025).final_state
    err_coarse = frobenius_norm(integrate(system, rho0, t, 0.02).final_state - ref)
    err_fine = frobenius_norm(integrate(system, rho0, t, 0.01).final_state - ref)
    factor = err_coarse / err_fine
    assert 8.0 <= factor <= 32.0


def test_trajectory_diagnostics_breach():
    # A wildly oversized step makes RK4 amplify coherences, driving the state
    # indefinite; the run must flag, breach, warn, and still return.
    system = single_qubit_system(channels=(JumpChannel(SIGMA_Z, 1.0, "A", "dephase"),))
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    with pytest.warns(TrajectoryDiagnosticsWarning):
        traj = integrate(system, plus, 6.0, 2.0)
    assert traj.breached
    assert flagged(traj)
    assert float(traj.min_eigenvalue.min()) < -1e-6
    # trace is conserved exactly by the generator, so only positivity trips
    assert float(traj.trace_drift.max()) <= 1e-12


def test_integrate_stops_at_first_non_finite_record():
    # A 1e308 dephasing rate overflows the state within the first step.
    system = single_qubit_system(channels=(JumpChannel(SIGMA_Z, 1e308, "A", "dephase"),))
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    with pytest.warns(TrajectoryDiagnosticsWarning, match="not finite at step 2"):
        traj = integrate(system, plus, 1.0, 0.1, record_every=2)
    assert np.allclose(traj.times, [0.0, 0.2], atol=1e-15)
    assert np.isfinite(traj.states[0]).all()
    assert not np.isfinite(traj.final_state).all()
    assert np.isnan(traj.min_eigenvalue[-1])
    assert traj.breached and flagged(traj)


def test_non_finite_diagnostics_count_as_outside_the_band():
    clean = dict(
        times=np.array([0.0, 1.0]),
        states=[np.eye(2), np.eye(2)],
        hermiticity_residual=np.zeros(2),
    )
    for drift, eig in (([0.0, np.nan], [0.1, 0.1]), ([0.0, 0.0], [0.1, np.nan]), ([0.0, np.inf], [0.1, 0.1])):
        traj = Trajectory(trace_drift=np.array(drift), min_eigenvalue=np.array(eig), **clean)
        assert traj.breached and flagged(traj)
    traj = Trajectory(trace_drift=np.zeros(2), min_eigenvalue=np.array([0.1, 0.1]), **clean)
    assert not traj.breached and not flagged(traj)


def test_clean_run_not_flagged():
    rng = np.random.default_rng(45)
    system, _ = random_thermal_system(rng)
    rho0 = random_density_matrix(4, rng)
    traj = integrate(system, rho0, 1.0, 0.01, record_every=10)
    assert not flagged(traj)
    assert not traj.breached
    assert float(traj.hermiticity_residual.max()) <= 1e-12


def test_steady_state_thermal_product():
    # With detailed-balance baths and [H_A + H_B, V] = 0 the stationary state
    # is the product of local Gibbs states.
    rng = np.random.default_rng(46)
    for _ in range(10):
        system, betas = random_thermal_system(rng)
        pi_A = gibbs_state(system.H_A, betas["A"])
        pi_B = gibbs_state(system.H_B, betas["B"])
        rho_ss = steady_state(system)
        assert trace_distance(rho_ss, kron(pi_A, pi_B)) <= 1e-8
        assert abs(np.trace(rho_ss) - 1.0) <= 1e-12


def test_steady_state_pure_decay():
    # A single decay channel onto the sigma_z ground state |1>.
    system = single_qubit_system(
        channels=(JumpChannel(RAISE, 1.0, "A", "decay"),), H=np.array(SIGMA_Z)
    )
    rho_ss = steady_state(system)
    assert np.max(np.abs(rho_ss - np.diag([0.0, 1.0]).astype(complex))) <= 1e-10


def test_steady_state_infinite_temperature():
    channels = (
        JumpChannel(RAISE, 1.0, "A", "A:up"),
        JumpChannel(LOWER, 1.0, "A", "A:down"),
        JumpChannel(RAISE, 1.0, "B", "B:up"),
        JumpChannel(LOWER, 1.0, "B", "B:down"),
    )
    system = BipartiteSystem(
        shape=BipartiteShape(2, 2),
        H_A=SIGMA_Z,
        H_B=SIGMA_Z,
        V=0.3 * kron(SIGMA_Z, SIGMA_Z),
        channels=channels,
    )
    rho_ss = steady_state(system)
    assert np.max(np.abs(rho_ss - 0.25 * np.eye(4))) <= 1e-10


def test_steady_state_nonunique_raises():
    # One one-sided channel with H = 0 leaves the B factor unconstrained.
    shape = BipartiteShape(2, 2)
    system = BipartiteSystem(
        shape=shape,
        H_A=np.zeros((2, 2), dtype=complex),
        H_B=np.zeros((2, 2), dtype=complex),
        V=np.zeros((4, 4), dtype=complex),
        channels=(JumpChannel(RAISE, 1.0, "A", "A:only"),),
    )
    with pytest.raises(NonUniqueSteadyStateError):
        steady_state(system)


def test_steady_state_is_annihilated():
    rng = np.random.default_rng(47)
    for _ in range(10):
        system, _ = random_thermal_system(rng, d_A=2, d_B=3)
        rho_ss = steady_state(system)
        assert frobenius_norm(Generator(system)(rho_ss)) <= 1e-9


def test_kernel_choice_weighs_powers_records_and_size():
    # d = 4 (the paper's runs): P beats the loop from a few steps on, at any record spacing.
    assert not _step_matrix_pays(4, 1, 2) and _step_matrix_pays(4, 10, 2246) and _step_matrix_pays(4, 1, 2246)
    # d = 36: P's powers and one d^4 product per record cost more than the steps.
    assert not any(_step_matrix_pays(36, k, n) for k, n in ((25, 300), (25, 1300), (1, 10**6)))


def test_d36_run_past_d_squared_steps_does_not_build_the_step_matrix():
    # 1300 > d^2 = 1296 full steps; P alone would hold 1296^2 * 16 B = 25.6 MB.
    rng = np.random.default_rng(50)
    system = random_system(rng, d_A=6, d_B=6)
    rho0 = random_density_matrix(36, rng)
    tracemalloc.start()
    try:
        traj = integrate(system, rho0, 1.3, 1e-3, record_every=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.states) == 14
    assert peak < 2.56e6
