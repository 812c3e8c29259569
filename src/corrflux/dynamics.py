"""Markovian dynamics: generator application, time stepping, steady states.

The master equation is (hbar = 1)

    d rho / dt = -i [H, rho] + sum_k gamma_k (L_k rho L_k† - (1/2){L_k†L_k, rho})

with H the full Hamiltonian of a BipartiteSystem and the sum running over
its jump channels. The Hilbert-Schmidt adjoint of the dissipative part,

    D#[O] = sum_k gamma_k (L_k† O L_k - (1/2){O, L_k†L_k}),

drives observable expectations: d<O>/dt = Tr[D#[O] rho] for [H, O] = 0.
Both are methods of Generator, the one encoding of the channel sum; the
RK4 stepper, the steady state, the energy ledger and condition (ii) all
apply it. Integration is fixed-step classical RK4 with no renormalization;
trace and positivity are monitored per record and reported, never
silently repaired.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import model
from .linalg import frobenius_norm, identity, kron

__all__ = [
    "NonUniqueSteadyStateError",
    "TrajectoryDiagnosticsWarning",
    "Trajectory",
    "Generator",
    "integrate",
    "steady_state",
]

# Per-record sanity level: beyond this the trajectory is flagged.
TRACE_FLAG_TOL = 1e-8
EIG_FLAG_TOL = -1e-8
# Hard diagnostic breach: the run is still returned but carries a warning
# status, and the command line front end signals it through its exit code.
TRACE_BREACH_TOL = 1e-6
EIG_BREACH_TOL = -1e-6

KERNEL_GAP_TOL = 1e-8
STEADY_STATE_RESIDUAL_TOL = 1e-9


class NonUniqueSteadyStateError(RuntimeError):
    """The generator kernel is not one dimensional."""


class TrajectoryDiagnosticsWarning(UserWarning):
    """A trajectory breached its trace or positivity diagnostics."""


class Generator:
    """The GKLS generator of one system, compiled once.

    Holds the total Hamiltonian H, K = sum_k gamma_k L_k†L_k, the effective
    Hamiltonian H_eff = H - (i/2) K and, per channel, the side tag, the jump
    operator L (the channel's own array) and a precomputed gamma L†. Calling
    the generator applies, with J_k = sqrt(gamma_k) L_k,

        G(rho) = -i (H_eff rho - rho H_eff†) + sum_k J_k rho J_k†,

    which is the master equation above rewritten with two matrix products
    per channel instead of four. J rho J† is evaluated as L rho (gamma L†),
    so J is never formed and each channel costs one array, not two.
    """

    def __init__(self, system: model.BipartiteSystem):
        self.dim = system.shape.dim
        self.H = model.total_hamiltonian(system)
        self.jumps = []
        self.K = np.zeros((self.dim, self.dim), dtype=complex)
        for ch in system.channels:
            L = ch.operator
            gamma_Ld = ch.rate * L.conj().T
            self.jumps.append((ch.bath_tag, L, gamma_Ld))
            self.K += gamma_Ld @ L
        self.H_eff = self.H - 0.5j * self.K
        self._H_eff_dag = self.H_eff.conj().T

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        out = -1j * (self.H_eff @ rho - rho @ self._H_eff_dag)
        for _, L, gamma_Ld in self.jumps:
            out += L @ rho @ gamma_Ld
        return out

    def adjoint(self, observable: np.ndarray, side: str | None = None) -> np.ndarray:
        """Hilbert-Schmidt adjoint of the dissipative part applied to an observable.

        Returns sum_k J† O J - (1/2){O, K} over the channels whose bath_tag is
        side (all channels for side=None). The Hamiltonian part is
        deliberately excluded; it never moves Tr[O rho] for O = H.
        """
        if side not in (None, "A", "B"):
            raise ValueError(f"side must be 'A', 'B' or None, got {side!r}")
        O = np.asarray(observable, dtype=complex)
        jumps = [(L, gamma_Ld) for tag, L, gamma_Ld in self.jumps if side in (None, tag)]
        K = self.K
        if side is not None:
            K = sum((gamma_Ld @ L for L, gamma_Ld in jumps), np.zeros_like(self.K))
        out = -0.5 * (O @ K + K @ O)
        for L, gamma_Ld in jumps:
            out += gamma_Ld @ O @ L
        return out

    def step(self, rho: np.ndarray, dt: float) -> np.ndarray:
        """One classical RK4 step; dt may be negative."""
        k1 = self(rho)
        k2 = self(rho + (0.5 * dt) * k1)
        k3 = self(rho + (0.5 * dt) * k2)
        k4 = self(rho + dt * k3)
        return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def matrix(self) -> np.ndarray:
        """Dense d^2 x d^2 matrix of the generator on row-major vectorized states.

        With vec stacking rows, vec(A X B) = (A kron B^T) vec(X), so the
        matrix is -i (H_eff kron I - I kron conj(H_eff)) + sum_k J kron conj(J).
        """
        eye = identity(self.dim)
        sup = -1j * (kron(self.H_eff, eye) - kron(eye, self.H_eff.conj()))
        for _, L, gamma_Ld in self.jumps:
            sup += kron(L, gamma_Ld.T)
        return sup


@dataclass(eq=False)
class Trajectory:
    """Recorded states of one integration run plus per-record diagnostics.

    trace_drift is |Tr rho - 1|, hermiticity_residual is max |rho - rho†|,
    min_eigenvalue is the smallest eigenvalue of the hermitized state.
    """

    times: np.ndarray
    states: list[np.ndarray]
    trace_drift: np.ndarray
    hermiticity_residual: np.ndarray
    min_eigenvalue: np.ndarray

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def _outside(self, trace_tol: float, eig_tol: float) -> bool:
        # Written as "not inside" so that a non-finite diagnostic counts as outside.
        return not (
            (self.trace_drift <= trace_tol).all() and (self.min_eigenvalue >= eig_tol).all()
        )

    @property
    def flagged(self) -> bool:
        """Any record outside the 1e-8 sanity band."""
        return self._outside(TRACE_FLAG_TOL, EIG_FLAG_TOL)

    @property
    def breached(self) -> bool:
        """Any record outside the hard 1e-6 diagnostic band."""
        return self._outside(TRACE_BREACH_TOL, EIG_BREACH_TOL)


def _diagnose(rho: np.ndarray) -> tuple[float, float, float]:
    tr_drift = abs(np.trace(rho) - 1.0)
    herm = float(np.abs(rho - rho.conj().T).max())
    if not np.isfinite(rho).all():
        return float(tr_drift), herm, float("nan")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    return float(tr_drift), herm, min_eig


def integrate(
    system: model.BipartiteSystem,
    rho0: np.ndarray,
    t_final: float,
    dt: float,
    record_every: int = 1,
) -> Trajectory:
    """Propagate rho0 with fixed-step RK4 and record along the way.

    Records the state every record_every steps (the initial state always,
    the final state always). t_final that is not an integer multiple of dt
    gets one trailing shorter step so the run lands exactly on t_final.
    Diagnostic breaches emit a TrajectoryDiagnosticsWarning and mark the
    trajectory; they never raise. A recorded state that is no longer finite
    ends the run there: it is the last record, its diagnostics are NaN or
    infinite and count as a breach.
    """
    if not np.isfinite(dt) or dt <= 0:
        raise model.ValidationError(f"dt must be positive, got {dt}")
    if not np.isfinite(t_final) or t_final < 0:
        raise model.ValidationError(f"t_final must be nonnegative, got {t_final}")
    if record_every < 1:
        raise model.ValidationError(f"record_every must be >= 1, got {record_every}")
    rho = np.array(
        model.require_density_matrix(rho0, "initial state"), dtype=complex
    )
    if rho.shape[0] != system.shape.dim:
        raise model.ValidationError(
            f"initial state dim {rho.shape[0]} does not match system dim {system.shape.dim}"
        )

    generator = Generator(system)
    n_full = int(np.floor(t_final / dt + 1e-12))
    remainder = t_final - n_full * dt
    if remainder < 1e-12 * max(dt, 1.0):
        remainder = 0.0
    n_steps = n_full + (1 if remainder else 0)

    times = [0.0]
    states = [rho.copy()]
    diagnostics = [_diagnose(rho)]
    problem = None
    # A diverging run is reported below, not by numpy's overflow warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            if step <= n_full:
                rho = generator.step(rho, dt)
                t = step * dt if step < n_steps else t_final
            else:
                rho = generator.step(rho, remainder)
                t = t_final
            if step % record_every == 0 or step == n_steps:
                times.append(t)
                states.append(rho.copy())
                diagnostics.append(_diagnose(rho))
                if not np.isfinite(rho).all():
                    problem = f"state is not finite at step {step} (t = {t:.6g}); integration stopped"
                    break

    tr, herm, eig = (np.array(col) for col in zip(*diagnostics))
    traj = Trajectory(
        times=np.array(times),
        states=states,
        trace_drift=tr,
        hermiticity_residual=herm,
        min_eigenvalue=eig,
    )
    if problem is None and traj.breached:
        problem = (
            f"trajectory diagnostics breached: max trace drift {tr.max():.3e}, "
            f"min eigenvalue {eig.min():.3e}"
        )
    if problem is not None:
        warnings.warn(problem, TrajectoryDiagnosticsWarning, stacklevel=2)
    return traj


def steady_state(system: model.BipartiteSystem, kernel_gap_tol: float = KERNEL_GAP_TOL) -> np.ndarray:
    """Extract the unique stationary state from the vectorized generator.

    Takes the right singular vector of the smallest singular value of the
    generator's matrix (its null vector), reshapes, hermitizes and normalizes.
    Raises NonUniqueSteadyStateError when the second-smallest singular value
    is below kernel_gap_tol, i.e. the kernel is not one dimensional.
    """
    d = system.shape.dim
    generator = Generator(system)
    _, svals, vh = np.linalg.svd(generator.matrix())
    if len(svals) > 1 and svals[-2] < kernel_gap_tol:
        raise NonUniqueSteadyStateError(
            f"generator kernel is not one dimensional "
            f"(second-smallest singular value {svals[-2]:.3e} < {kernel_gap_tol:.1e})"
        )
    candidate = vh[-1].conj().reshape(d, d)
    candidate = 0.5 * (candidate + candidate.conj().T)
    tr = np.trace(candidate).real
    if abs(tr) < 1e-12:
        raise NonUniqueSteadyStateError("null vector of the generator is traceless")
    rho_ss = candidate / tr
    residual = frobenius_norm(generator(rho_ss))
    if residual > STEADY_STATE_RESIDUAL_TOL:
        raise RuntimeError(
            f"steady-state residual {residual:.3e} exceeds {STEADY_STATE_RESIDUAL_TOL:.1e}"
        )
    return rho_ss
