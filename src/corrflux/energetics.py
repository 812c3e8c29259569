"""Energy bookkeeping for correlated bipartite states.

A joint state splits uniquely into a product part and a correlation part,

    rho = rho_A (x) rho_B + chi,        Tr_A[chi] = Tr_B[chi] = 0,

with rho_A, rho_B the marginals. Internal energy U = Tr[rho H] then splits
as U = U_prod + U_chi, where U_prod = Tr[(rho_A (x) rho_B) H] is carried by
the marginals and U_chi = Tr[chi H] = Tr[chi V] lives in the correlations.

U_prod itself is split into two local accounts using state-dependent
effective local Hamiltonians

    Hhat_A = H_A + Tr_B[V (I (x) rho_B)] - alpha_A Tr[V rho_A (x) rho_B] I,
    Hhat_B = H_B + Tr_A[V (rho_A (x) I)] - alpha_B Tr[V rho_A (x) rho_B] I,

with alpha_A + alpha_B = 1, and the effective interaction

    Vhat = V - I (x) Tr_A[V (rho_A (x) I)] - Tr_B[V (I (x) rho_B)] (x) I
             + Tr[V rho_A (x) rho_B] I,

which reconstruct H exactly: H = Hhat_A (x) I + I (x) Hhat_B + Vhat. The
local energies U_A = Tr[rho_A Hhat_A] and U_B = Tr[rho_B Hhat_B] satisfy
U_A + U_B = U_prod for every choice of alpha_A.

Rates: with D#_A, D#_B the dissipative adjoints of the two baths,

    dU/dt      = Tr[(D#_A[H] + D#_B[H]) rho],
    dU_prod/dt = -i Tr[[Hhat_A (x) I + I (x) Hhat_B, V] chi]
                 + Tr[(D#_A[H] + D#_B[H]) rho_A (x) rho_B],
    dU_chi/dt  = dU/dt - dU_prod/dt.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import dynamics, model
from .linalg import (
    commutator,
    embed_A,
    embed_B,
    frobenius_norm,
    identity,
    kron,
    partial_trace,
)

__all__ = [
    "NumericalConsistencyWarning",
    "Decomposition",
    "EffectiveHamiltonians",
    "EnergyLedger",
    "decompose",
    "effective_hamiltonians",
    "energy_ledger",
    "delta_U_chi",
]

IMAG_RESIDUE_TOL = 1e-9
LEDGER_CONSISTENCY_TOL = 1e-10


class NumericalConsistencyWarning(UserWarning):
    """A quantity that must be real or an identity that must hold drifted."""


def _real(value: complex, what: str) -> float:
    value = complex(value)
    if abs(value.imag) > IMAG_RESIDUE_TOL:
        warnings.warn(
            f"{what} has imaginary residue {value.imag:.3e}",
            NumericalConsistencyWarning,
            stacklevel=3,
        )
    return value.real


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Marginals and correlation part of a joint state."""

    rho_A: np.ndarray
    rho_B: np.ndarray
    chi: np.ndarray


def decompose(rho: np.ndarray, shape) -> Decomposition:
    """Split rho into rho_A (x) rho_B + chi with traceless-marginal chi."""
    rho = np.asarray(rho, dtype=complex)
    rho_A = partial_trace(rho, shape, "A")
    rho_B = partial_trace(rho, shape, "B")
    chi = rho - kron(rho_A, rho_B)
    return Decomposition(rho_A=rho_A, rho_B=rho_B, chi=chi)


@dataclass(frozen=True, eq=False)
class EffectiveHamiltonians:
    """State-dependent local Hamiltonians and residual interaction."""

    H_hat_A: np.ndarray
    H_hat_B: np.ndarray
    V_hat: np.ndarray


def effective_hamiltonians(
    system: model.BipartiteSystem, decomposition: Decomposition
) -> EffectiveHamiltonians:
    """Mean-field-shifted local Hamiltonians at the given marginals.

    The scalar Tr[V rho_A (x) rho_B] is split alpha_A / alpha_B between the
    sides; the sum Hhat_A (x) I + I (x) Hhat_B + Vhat is alpha-independent
    and reconstructs the bare H exactly.
    """
    shape = system.shape
    rho_A, rho_B = decomposition.rho_A, decomposition.rho_B
    V = system.V
    V_mean = _real(np.trace(V @ kron(rho_A, rho_B)), "Tr[V rho_A x rho_B]")
    # Partial means of V against one marginal, still operators on the other side.
    V_on_A = partial_trace(V @ embed_B(rho_B, shape), shape, "A")
    V_on_B = partial_trace(V @ embed_A(rho_A, shape), shape, "B")
    H_hat_A = system.H_A + V_on_A - system.alpha_A * V_mean * identity(shape.d_A)
    H_hat_B = system.H_B + V_on_B - system.alpha_B * V_mean * identity(shape.d_B)
    V_hat = (
        V
        - embed_B(V_on_B, shape)
        - embed_A(V_on_A, shape)
        + V_mean * identity(shape.dim)
    )
    return EffectiveHamiltonians(H_hat_A=H_hat_A, H_hat_B=H_hat_B, V_hat=V_hat)


@dataclass(frozen=True)
class EnergyLedger:
    """All energy accounts and their instantaneous rates at one state.

    U is total internal energy, U_prod the part carried by the marginals
    (U_prod = U_A + U_B), U_chi the part stored in correlations
    (U = U_prod + U_chi). The three rates satisfy
    dU_dt = dU_prod_dt + dU_chi_dt by construction.
    """

    U: float
    U_A: float
    U_B: float
    U_prod: float
    U_chi: float
    dU_prod_dt: float
    dU_chi_dt: float
    dU_dt: float

    def __post_init__(self):
        if abs(self.U - (self.U_prod + self.U_chi)) > LEDGER_CONSISTENCY_TOL:
            warnings.warn(
                f"ledger identity U = U_prod + U_chi off by "
                f"{abs(self.U - (self.U_prod + self.U_chi)):.3e}",
                NumericalConsistencyWarning,
                stacklevel=3,
            )
        if abs(self.U_prod - (self.U_A + self.U_B)) > LEDGER_CONSISTENCY_TOL:
            warnings.warn(
                f"ledger identity U_prod = U_A + U_B off by "
                f"{abs(self.U_prod - (self.U_A + self.U_B)):.3e}",
                NumericalConsistencyWarning,
                stacklevel=3,
            )


def energy_ledger(system: model.BipartiteSystem, rho: np.ndarray) -> EnergyLedger:
    """Evaluate every energy account and rate at the state rho."""
    shape = system.shape
    rho = np.asarray(rho, dtype=complex)
    dec = decompose(rho, shape)
    eff = effective_hamiltonians(system, dec)
    generator = dynamics.Generator(system)
    H = generator.H
    product = kron(dec.rho_A, dec.rho_B)

    U = _real(np.trace(rho @ H), "U")
    U_A = _real(np.trace(dec.rho_A @ eff.H_hat_A), "U_A")
    U_B = _real(np.trace(dec.rho_B @ eff.H_hat_B), "U_B")
    U_prod = _real(np.trace(product @ H), "U_prod")
    U_chi = _real(np.trace(dec.chi @ system.V), "U_chi")

    adj_H = generator.adjoint(H)
    dU_dt = _real(np.trace(adj_H @ rho), "dU_dt")
    local_sum = embed_A(eff.H_hat_A, shape) + embed_B(eff.H_hat_B, shape)
    coherent = -1j * np.trace(commutator(local_sum, system.V) @ dec.chi)
    dU_prod_dt = _real(coherent, "coherent part of dU_prod_dt") + _real(
        np.trace(adj_H @ product), "dissipative part of dU_prod_dt"
    )
    dU_chi_dt = dU_dt - dU_prod_dt

    return EnergyLedger(
        U=U,
        U_A=U_A,
        U_B=U_B,
        U_prod=U_prod,
        U_chi=U_chi,
        dU_prod_dt=dU_prod_dt,
        dU_chi_dt=dU_chi_dt,
        dU_dt=dU_dt,
    )


def delta_U_chi(system: model.BipartiteSystem, trajectory: dynamics.Trajectory) -> np.ndarray:
    """Correlation-energy change U_chi(t) - U_chi(0) along a trajectory."""
    shape = system.shape
    values = np.empty(len(trajectory.states))
    for i, state in enumerate(trajectory.states):
        chi = decompose(state, shape).chi
        values[i] = _real(np.trace(chi @ system.V), "U_chi")
    return values - values[0]
