"""Sufficient conditions for dissipation that moves no local energy.

Two residuals are monitored:

  (i)  || [Hhat_A (x) I + I (x) Hhat_B, V] ||_F, the coherent leak between
       the local accounts and the correlation account (state dependent,
       because the effective Hamiltonians depend on the marginals), and
  (ii) || D#_A[H] + D#_B[H] ||_F, the dissipative drive on total energy
       (state independent).

When both vanish, total energy and the product-part energy are frozen:
the only dynamics left in the ledger is a redistribution that this module
can certify by direct integration (verify_theorem). The converse is not
claimed; the residuals are sufficient, not necessary.
"""

from __future__ import annotations

import math

import numpy as np

from dataclasses import dataclass

from . import dynamics, energetics, model
from .linalg import frobenius_norm, kron, random_density_matrix

__all__ = [
    "ConditionReport",
    "TheoremReport",
    "commutator_residual",
    "adjoint_residual",
    "check_conditions",
    "check_conditions_sampled",
    "verify_theorem",
]

DEFAULT_TOL = 1e-10
ENERGY_DRIFT_TOL = 1e-7
DEFAULT_SAMPLES = 50
THEOREM_RECORD_EVERY = 10  # steps between the energy comparisons of verify_theorem


def commutator_residual(system: model.BipartiteSystem, rho: np.ndarray):
    """Residual (i), ||[Hhat_A + Hhat_B (embedded), V]||_F: a float, or a column on a stack.

    Where the drive overflows, the residual is NaN or infinite, with no numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dec = energetics.decompose(rho, system.shape)
        return frobenius_norm(energetics.effective_hamiltonians(system, dec).drive)


def adjoint_residual(system: model.BipartiteSystem) -> float:
    """Residual (ii), state independent: ||D#_A[H] + D#_B[H]||_F.

    NaN when D#[H] itself overflowed (see dynamics.generator_of).
    """
    adj_H = dynamics.generator_of(system).adjoint_H
    if not np.isfinite(adj_H).all():
        return float("nan")
    return frobenius_norm(adj_H)


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class ConditionReport:
    """Residuals of the two sufficient conditions and their verdicts."""

    commutator_residual: float
    adjoint_residual: float
    tol: float
    samples: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol >= 0):
            raise model.ValidationError(f"tol must be a finite nonnegative number, got {self.tol}")

    @property
    def state_dependent(self) -> bool:
        """True for a report at one state, False for the worst case over samples."""
        return self.samples is None

    @property
    def commutator_ok(self) -> bool:
        return self.commutator_residual <= self.tol

    @property
    def adjoint_ok(self) -> bool:
        return self.adjoint_residual <= self.tol

    @property
    def passed(self) -> bool:
        return self.commutator_ok and self.adjoint_ok

    def to_json(self) -> dict:
        """The report as JSON values: a non-finite residual, which JSON cannot hold, is None."""
        data = {
            "commutator_residual": _finite_or_none(self.commutator_residual),
            "adjoint_residual": _finite_or_none(self.adjoint_residual),
            "condition_i_pass": self.commutator_ok,
            "condition_ii_pass": self.adjoint_ok,
            "state_dependent": self.state_dependent,
            "tol": self.tol,
        }
        if self.samples is not None:
            data["samples"] = self.samples
        if self.seed is not None:
            data["seed"] = self.seed
        return data


def check_conditions(
    system: model.BipartiteSystem, rho: np.ndarray, tol: float = DEFAULT_TOL
) -> ConditionReport:
    """Evaluate both residuals at one state."""
    return ConditionReport(
        commutator_residual=commutator_residual(system, rho),
        adjoint_residual=adjoint_residual(system),
        tol=tol,
    )


def check_conditions_sampled(
    system: model.BipartiteSystem,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> ConditionReport:
    """Report the worst residual (i) over random product states.

    Random sampling is a proxy for state independence, not a proof; the
    seed is recorded so the draw is reproducible. A residual that is NaN or
    infinite fails condition (i).
    """
    if samples < 1:
        raise model.ValidationError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        rho_A = random_density_matrix(system.shape.d_A, rng)
        rho_B = random_density_matrix(system.shape.d_B, rng)
        # np.maximum keeps a NaN, which max(worst, nan) would drop.
        worst = float(np.maximum(worst, commutator_residual(system, kron(rho_A, rho_B))))
    return ConditionReport(
        commutator_residual=worst,
        adjoint_residual=adjoint_residual(system),
        tol=tol,
        samples=samples,
        seed=seed,
    )


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of the direct conservation check.

    applicable is False when a supplied state fails the sufficient
    conditions; the drift tuples then stay empty. Otherwise each entry is
    the largest |U(t) - U(0)| (total) or |U_prod(t) - U_prod(0)| (product
    part) seen along the integrated trajectory of one state.
    """

    applicable: bool
    total_energy_drifts: tuple[float, ...]
    product_energy_drifts: tuple[float, ...]
    detail: str = ""

    @property
    def passed(self) -> bool:
        """Applicable, and every drift within ENERGY_DRIFT_TOL."""
        if not self.applicable:
            return False
        drifts = self.total_energy_drifts + self.product_energy_drifts
        return all(d <= ENERGY_DRIFT_TOL for d in drifts)


def verify_theorem(
    system: model.BipartiteSystem,
    states,
    dt: float,
    horizon: float,
) -> TheoremReport:
    """Certify energy conservation by integrating the supplied states.

    First checks both sufficient conditions at every state, at DEFAULT_TOL;
    any failure yields a not-applicable report instead of an exception. Then
    each state is propagated over the horizon and the total and product-part
    energies are compared against their initial values every
    THEOREM_RECORD_EVERY steps, with ENERGY_DRIFT_TOL as the bound.
    """
    states = [np.asarray(s, dtype=complex) for s in states]
    if not states:
        raise model.ValidationError("verify_theorem needs at least one state")
    for i, rho in enumerate(states):
        report = check_conditions(system, rho)
        if not report.passed:
            return TheoremReport(
                applicable=False,
                total_energy_drifts=(),
                product_energy_drifts=(),
                detail=(
                    f"state {i}: commutator residual {report.commutator_residual:.3e}, "
                    f"adjoint residual {report.adjoint_residual:.3e} "
                    f"(tol {DEFAULT_TOL:.1e})"
                ),
            )

    total_drifts = []
    product_drifts = []
    for rho in states:
        traj = dynamics.integrate(system, rho, horizon, dt, record_every=THEOREM_RECORD_EVERY)
        ledger = energetics.energy_ledger(system, traj.states)
        total_drifts.append(float(np.abs(ledger.U - ledger.U[0]).max()))
        product_drifts.append(float(np.abs(ledger.U_prod - ledger.U_prod[0]).max()))

    return TheoremReport(
        applicable=True,
        total_energy_drifts=tuple(total_drifts),
        product_energy_drifts=tuple(product_drifts),
    )

