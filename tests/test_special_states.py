"""The paper's special initial states beyond two qubits.

For diagonal local Hamiltonians, a V diagonal in the product basis and
detailed-balance baths, the populations obey closed rate equations whose
marginals evolve on their own. A state

    rho_0 = gamma_A (x) gamma_B + eps u (x) w,

with gamma the local Gibbs states at the baths' inverse temperatures and u, w
traceless and diagonal, therefore keeps Gibbs marginals: the local energies
stay fixed while the whole energy change runs through U_chi.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corrflux.dynamics import integrate
from corrflux.energetics import energy_ledger
from corrflux.linalg import BipartiteShape, kron
from corrflux.model import BipartiteSystem, ThermalBathSpec, build_thermal_channels, gibbs_state

T_FINAL, DT, RECORD_EVERY = 5.0, 1e-3, 500
LOCAL_TOL = 1e-10


def _levels(rng, d):
    """d distinct energies in [-2, 2], at least 0.2 apart, in random order."""
    while True:
        levels = rng.uniform(-2.0, 2.0, size=d)
        if np.diff(np.sort(levels)).min() >= 0.2:
            return levels


def _traceless_diagonal(rng, d):
    u = rng.uniform(-1.0, 1.0, size=d)
    u -= u.mean()
    return u / np.abs(u).max()


def special_case(rng, d_A, d_B, alpha_A, gibbs=True):
    """A diagonal system with one thermal bath per side and its rho_0.

    With gibbs=False the marginals are random populations instead of the
    baths' Gibbs states: the negative control.
    """
    shape = BipartiteShape(d_A, d_B)
    H = {"A": np.diag(_levels(rng, d_A)), "B": np.diag(_levels(rng, d_B))}
    marginals, channels = {}, []
    for side, d in (("A", d_A), ("B", d_B)):
        beta = float(rng.uniform(0.2, 2.0))
        rates = {(j, i): float(rng.uniform(0.2, 1.0)) for j in range(d) for i in range(j)}
        channels += build_thermal_channels(H[side], ThermalBathSpec(beta, rates), side, shape)
        marginals[side] = np.diag(gibbs_state(H[side], beta)).real if gibbs else rng.dirichlet(np.ones(d))
    system = BipartiteSystem(
        shape=shape,
        H_A=H["A"],
        H_B=H["B"],
        V=np.diag(rng.uniform(-1.0, 1.0, size=d_A * d_B)),
        channels=tuple(channels),
        alpha_A=alpha_A,
    )
    u, w = _traceless_diagonal(rng, d_A), _traceless_diagonal(rng, d_B)
    product, tilt = np.outer(marginals["A"], marginals["B"]), np.outer(u, w)
    # The largest eps that keeps every population of product + eps * tilt nonnegative.
    margin = (product[tilt < 0] / -tilt[tilt < 0]).min()
    eps = float(rng.uniform(0.2, 0.9)) * margin
    rho0 = kron(np.diag(marginals["A"]), np.diag(marginals["B"])) + eps * kron(np.diag(u), np.diag(w))
    return system, rho0.astype(complex)


def energy_changes(system, rho0):
    """(Delta U_A, Delta U_B, Delta U, Delta U_chi) at every record, from t = 0."""
    trajectory = integrate(system, rho0, T_FINAL, DT, record_every=RECORD_EVERY)
    assert not trajectory.breached
    ledger = energy_ledger(system, trajectory.states)
    return tuple(column - column[0] for column in (ledger.U_A, ledger.U_B, ledger.U, ledger.U_chi))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    d_A=st.sampled_from([2, 3]),
    d_B=st.sampled_from([2, 3]),
    alpha_A=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_gibbs_marginals_route_every_energy_change_through_u_chi(d_A, d_B, alpha_A, seed):
    system, rho0 = special_case(np.random.default_rng(seed), d_A, d_B, alpha_A)
    dU_A, dU_B, dU, dU_chi = energy_changes(system, rho0)
    assert np.abs(dU_A).max() <= LOCAL_TOL
    assert np.abs(dU_B).max() <= LOCAL_TOL
    assert np.abs(dU - dU_chi).max() <= LOCAL_TOL


def test_a_special_state_exchanges_energy_through_its_correlations():
    system, rho0 = special_case(np.random.default_rng(5), 2, 3, alpha_A=0.3)
    dU_A, dU_B, dU, dU_chi = energy_changes(system, rho0)
    assert max(np.abs(dU_A).max(), np.abs(dU_B).max(), np.abs(dU - dU_chi).max()) <= LOCAL_TOL
    assert abs(dU_chi[-1]) > 1e-3


def test_non_gibbs_marginals_move_the_local_energies():
    for d_A, d_B in ((2, 2), (2, 3), (3, 3)):
        system, rho0 = special_case(np.random.default_rng(5), d_A, d_B, alpha_A=0.3, gibbs=False)
        dU_A, dU_B, _, _ = energy_changes(system, rho0)
        assert max(np.abs(dU_A).max(), np.abs(dU_B).max()) > 1e-3, (d_A, d_B)
