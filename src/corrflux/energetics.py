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

decompose, effective_hamiltonians and energy_ledger take one state or a stack
of states, an array of shape (N, d, d); on a stack each ledger field is a
column with one entry per state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import dynamics, model
from .linalg import embed_A, embed_B, frobenius_norm, kron, partial_trace

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
# Below unit energy the ledger identities hold to this absolute bound; above
# it the bound grows with the largest account.
LEDGER_CONSISTENCY_TOL = 1e-10


class NumericalConsistencyWarning(UserWarning):
    """A quantity that must be real or an identity that must hold drifted."""


def _real_trace(a: np.ndarray, b: np.ndarray, what: str):
    """Tr[a b] as a float, or as a column on a stack.

    Warns where a finite trace has an imaginary part above
    IMAG_RESIDUE_TOL * max(1, ||a||_F ||b||_F); ||a||_F ||b||_F bounds |Tr[a b]|.
    """
    value = np.einsum("...ij,...ji->...", a, b)
    bound = IMAG_RESIDUE_TOL * np.maximum(1.0, frobenius_norm(a) * frobenius_norm(b))
    residue = np.abs(value.imag)
    off = np.isfinite(value) & (residue > bound)
    if off.any():
        warnings.warn(
            f"{what} has imaginary residue {residue[off].max():.3e}",
            NumericalConsistencyWarning,
            stacklevel=3,
        )
    return float(value.real) if value.ndim == 0 else value.real


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Marginals, their product and the correlation part of a joint state."""

    rho_A: np.ndarray
    rho_B: np.ndarray
    product: np.ndarray
    chi: np.ndarray


def decompose(rho: np.ndarray, shape) -> Decomposition:
    """Split rho into rho_A (x) rho_B + chi with traceless-marginal chi."""
    rho = np.asarray(rho, dtype=complex)
    rho_A = partial_trace(rho, shape, "A")
    rho_B = partial_trace(rho, shape, "B")
    product = kron(rho_A, rho_B)
    return Decomposition(rho_A=rho_A, rho_B=rho_B, product=product, chi=rho - product)


@dataclass(frozen=True, eq=False)
class EffectiveHamiltonians:
    """State-dependent local Hamiltonians and drive.

    drive = -i [Hhat_A (x) I + I (x) Hhat_B, V] is Hermitian; Tr[drive chi]
    is the coherent part of dU_prod/dt and ||drive||_F is condition (i).
    The residual interaction of the module docstring is Vhat = H - Hhat_A (x) I - I (x) Hhat_B.
    """

    H_hat_A: np.ndarray
    H_hat_B: np.ndarray
    drive: np.ndarray


def effective_hamiltonians(
    system: model.BipartiteSystem, decomposition: Decomposition
) -> EffectiveHamiltonians:
    """Mean-field-shifted local Hamiltonians at the given marginals.

    The scalar Tr[V rho_A (x) rho_B] is split alpha_A / alpha_B between the
    sides; the sum Hhat_A (x) I + I (x) Hhat_B is alpha-independent. Where V
    is so large that a product overflows, the entries are NaN or infinite and
    are returned as they are, with no numpy warning.
    """
    shape = system.shape
    rho_A, rho_B = decomposition.rho_A, decomposition.rho_B
    V = system.V
    with np.errstate(over="ignore", invalid="ignore"):
        V_mean = np.asarray(_real_trace(V, decomposition.product, "Tr[V rho_A x rho_B]"))[..., None, None]
        # Partial means of V against one marginal, still operators on the other side.
        V_on_A = partial_trace(V @ embed_B(rho_B, shape), shape, "A")
        V_on_B = partial_trace(V @ embed_A(rho_A, shape), shape, "B")
        H_hat_A = system.H_A + V_on_A - system.alpha_A * V_mean * np.eye(shape.d_A, dtype=complex)
        H_hat_B = system.H_B + V_on_B - system.alpha_B * V_mean * np.eye(shape.d_B, dtype=complex)
        local_sum = embed_A(H_hat_A, shape) + embed_B(H_hat_B, shape)
        drive = -1j * (local_sum @ V - V @ local_sum)
    return EffectiveHamiltonians(H_hat_A=H_hat_A, H_hat_B=H_hat_B, drive=drive)


@dataclass(frozen=True)
class EnergyLedger:
    """All energy accounts and their instantaneous rates at one state or a stack.

    U is total internal energy, U_prod the part carried by the marginals
    (U_prod = U_A + U_B), U_chi the part stored in correlations
    (U = U_prod + U_chi). The three rates satisfy
    dU_dt = dU_prod_dt + dU_chi_dt by construction. Each field is a float
    for one state and a column for a stack.
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
        scale = np.maximum(1.0, np.abs([self.U, self.U_prod, self.U_chi]).max(axis=0))
        for identity_name, off in (
            ("U = U_prod + U_chi", self.U - (self.U_prod + self.U_chi)),
            ("U_prod = U_A + U_B", self.U_prod - (self.U_A + self.U_B)),
        ):
            # A non-finite entry compares false and is not reported here.
            broken = np.abs(off) > LEDGER_CONSISTENCY_TOL * scale
            if np.any(broken):
                warnings.warn(
                    f"ledger identity {identity_name} off by {np.max(np.abs(off)[broken]):.3e}",
                    NumericalConsistencyWarning,
                    stacklevel=3,
                )


def energy_ledger(system: model.BipartiteSystem, rho: np.ndarray) -> EnergyLedger:
    """Evaluate every energy account and rate at the state rho, or at each state of a stack.

    An account or rate that overflows (V or the rates near the float limit, say)
    is returned as NaN or infinite, with no numpy warning; the ledger identities
    are checked only where they are finite.
    """
    rho = np.asarray(rho, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        dec = decompose(rho, system.shape)
        eff = effective_hamiltonians(system, dec)
        generator = dynamics.generator_of(system)

        dU_dt = _real_trace(generator.adjoint_H, rho, "dU_dt")
        dU_prod_dt = _real_trace(eff.drive, dec.chi, "coherent part of dU_prod_dt") + _real_trace(
            generator.adjoint_H, dec.product, "dissipative part of dU_prod_dt"
        )
        # EnergyLedger checks its identities inside the errstate as well.
        return EnergyLedger(
            U=_real_trace(rho, generator.H, "U"),
            U_A=_real_trace(dec.rho_A, eff.H_hat_A, "U_A"),
            U_B=_real_trace(dec.rho_B, eff.H_hat_B, "U_B"),
            U_prod=_real_trace(dec.product, generator.H, "U_prod"),
            U_chi=_real_trace(dec.chi, system.V, "U_chi"),
            dU_prod_dt=dU_prod_dt,
            dU_chi_dt=dU_dt - dU_prod_dt,
            dU_dt=dU_dt,
        )


def delta_U_chi(system: model.BipartiteSystem, trajectory: dynamics.Trajectory) -> np.ndarray:
    """Correlation-energy change U_chi(t) - U_chi(0) along a trajectory."""
    U_chi = energy_ledger(system, trajectory.states).U_chi
    return U_chi - U_chi[0]
