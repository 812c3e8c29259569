"""Markovian dynamics: generator application and time stepping.

The master equation is (hbar = 1)

    d rho / dt = -i [H, rho] + sum_k gamma_k (L_k rho L_k† - (1/2){L_k†L_k, rho})

with H the full Hamiltonian of a BipartiteSystem and the sum running over
its jump channels. The Hilbert-Schmidt adjoint of the dissipative part,

    D#[O] = sum_k gamma_k (L_k† O L_k - (1/2){O, L_k†L_k}),

drives observable expectations: d<O>/dt = Tr[D#[O] rho] for [H, O] = 0.
Both are methods of Generator, the one encoding of the channel sum; the RK4
stepper, the energy ledger and condition (ii) share generator_of's one copy.
Integration is fixed-step classical RK4 with no renormalization; trace
and positivity are monitored per record and reported, never silently
repaired.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from . import model
from .linalg import embed_A, embed_B, kron, state_diagnostics

__all__ = [
    "TrajectoryDiagnosticsWarning",
    "Trajectory",
    "Generator",
    "generator_of",
    "integrate",
]

# Hard diagnostic breach: the run is still returned but carries a warning
# status, and the command line front end signals it through its exit code.
TRACE_BREACH_TOL = 1e-6
EIG_BREACH_TOL = -1e-6


class TrajectoryDiagnosticsWarning(UserWarning):
    """A trajectory breached its trace or positivity diagnostics."""


class Generator:
    """The GKLS generator of one system, compiled once.

    A channel's local operator l acts on the joint space as L = l (x) I_B or
    I_A (x) l. Per side the generator keeps S = sum_k gamma_k l_k (x) conj(l_k)
    (d_side^2 x d_side^2), and over every channel K = sum_k gamma_k L_k†L_k.
    Calling it applies

        G(rho) = -i (H_eff rho - rho H_eff†) + [S_A R + R S_B^T],

    with H_eff = H - (i/2) K, R the state regrouped from (a b, a' b')
    to (a a', b b') and [.] the regrouping back: four matrix products whatever
    the channel count, broadcast over stacks of states. H and adjoint_H = D#[H] are read-only.
    """

    def __init__(self, system: model.BipartiteSystem):
        shape = system.shape
        self.dim, self._sides = shape.dim, (shape.d_A, shape.d_B)
        self.H = model.total_hamiltonian(system)
        self._S, K = {}, []
        for tag, d_side, embed in (("A", shape.d_A, embed_A), ("B", shape.d_B, embed_B)):
            chs = [ch for ch in system.channels if ch.bath_tag == tag]
            rates = np.array([ch.rate for ch in chs]).reshape(-1, 1, 1)
            l = np.array([ch.operator for ch in chs], dtype=complex).reshape(-1, d_side, d_side)
            self._S[tag] = (rates * kron(l, l.conj())).sum(axis=0)
            K.append(embed((rates * (l.conj().swapaxes(-1, -2) @ l)).sum(axis=0), shape))
        self._K = K[0] + K[1]
        self.H_eff = self.H - 0.5j * self._K
        # G(rho) = [S_A R + R S_B^T] + A rho + rho A†, with A = -i H_eff.
        self._A = -1j * self.H_eff
        self._A_dag = np.ascontiguousarray(self._A.conj().T)
        self._S_B_T = np.ascontiguousarray(self._S["B"].T)
        self.adjoint_H = self.adjoint(self.H)
        self.H.setflags(write=False)
        self.adjoint_H.setflags(write=False)

    def _regroup(self, m: np.ndarray, inverse: bool = False) -> np.ndarray:
        """(..., a b, a' b') to (..., a a', b b'), or back with inverse=True."""
        d_A, d_B = self._sides
        split = (d_A, d_A, d_B, d_B) if inverse else (d_A, d_B, d_A, d_B)
        merged = (self.dim, self.dim) if inverse else (d_A * d_A, d_B * d_B)
        stack = m.shape[:-2]
        return m.reshape(*stack, *split).swapaxes(-3, -2).reshape(*stack, *merged)

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        """G(rho) as a new array, built by in-place sums on the jump term."""
        R = self._regroup(rho)
        jumps = self._S["A"] @ R
        jumps += R @ self._S_B_T
        out = self._regroup(jumps, inverse=True)
        out += self._A @ rho
        out += rho @ self._A_dag
        return out

    def adjoint(self, observable: np.ndarray) -> np.ndarray:
        """Hilbert-Schmidt adjoint of the dissipative part applied to an observable.

        Returns sum_k gamma_k L_k† O L_k - (1/2){O, K} over every channel; the
        jump sum is S_A† R + R conj(S_B). The Hamiltonian part is deliberately
        excluded; it never moves Tr[O rho] for O = H.
        """
        O = np.asarray(observable, dtype=complex)
        R = self._regroup(O)
        jumps = self._S["A"].conj().T @ R + R @ self._S["B"].conj()
        return self._regroup(jumps, inverse=True) - 0.5 * (O @ self._K + self._K @ O)

    def step(self, rho: np.ndarray, dt: float) -> np.ndarray:
        """One classical RK4 step as a new array; dt may be negative.

        G is linear and time-independent, so the four-stage formula equals
        the degree-4 Taylor polynomial of exp(dt G), evaluated here in nested
        form: x <- rho + (dt/j) G(x) for j = 4, 3, 2, 1, starting at x = rho.
        Each pass scales and adds in place on the fresh array G returns.
        """
        x = rho
        for j in (4, 3, 2, 1):
            x = self(x)
            x *= dt / j
            x += rho
        return x


# A generator depends on its system alone. Systems are immutable and compare by
# identity, so each is compiled once per system object for as long as it lives.
_GENERATORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def generator_of(system: model.BipartiteSystem) -> Generator:
    """The system's Generator, compiled on first use and shared by every later caller.

    Energies or rates so large that the channel sums, H or D#[H] overflow leave them
    non-finite with no numpy warning; such a system's run diverges, and integrate reports that.
    """
    generator = _GENERATORS.get(system)
    if generator is None:
        with np.errstate(over="ignore", invalid="ignore"):
            generator = _GENERATORS[system] = Generator(system)
    return generator


@dataclass(eq=False)
class Trajectory:
    """Recorded states of one integration run plus per-record diagnostics.

    states is one (N, d, d) array. trace_drift is |Tr rho - 1|, hermiticity_residual
    is max |rho - rho†|, min_eigenvalue is the smallest eigenvalue of the hermitized state.
    """

    times: np.ndarray
    states: np.ndarray
    trace_drift: np.ndarray
    hermiticity_residual: np.ndarray
    min_eigenvalue: np.ndarray

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def breached(self) -> bool:
        """Any record outside the hard 1e-6 diagnostic band."""
        # Written as "not inside" so that a non-finite diagnostic counts as outside.
        return not (
            (self.trace_drift <= TRACE_BREACH_TOL).all() and (self.min_eigenvalue >= EIG_BREACH_TOL).all()
        )


# Work in complex multiply-adds, fitted to timings of both kernels with one BLAS
# thread at d = 4 to 36: an RK4 step is four generator calls of about 4 d^3 plus
# numpy call overhead worth STEP_OVERHEAD; building P steps d^2 unit matrices in
# one memory-bound batch, about 125 d^5 plus three steps' overhead; a product in
# matrix_power is d^6, and applying a power is a memory-bound d^2 x d^2
# matrix-vector product, about 4 d^4.
STEP_OVERHEAD = 8e5


def _step_matrix_pays(d: int, record_every: int, n_full: int) -> bool:
    """Whether building P, its powers and one product per record interval cost
    less than n_full steps one by one."""
    intervals = {min(record_every, n_full), n_full % record_every} - {0}
    products = sum(k.bit_length() + bin(k).count("1") - 2 for k in intervals)
    records = -(-n_full // record_every)
    cost = 125 * d**5 + 3 * STEP_OVERHEAD + products * d**6 + records * 4 * d**4
    return cost < n_full * (16 * d**3 + STEP_OVERHEAD)


def _full_steps(generator: Generator, dt: float, n_full: int, record_every: int):
    """The kernel that advances a state by k full RK4 steps.

    One RK4 step of a linear, time-independent generator is a fixed
    d^2 x d^2 matrix P on row-major vec(rho); column j is the step of the
    j-th unit matrix. Where _step_matrix_pays, as at d = 4, the state moves
    by one power of P per record interval, each power computed once.
    Otherwise, as at d = 36, the steps run one by one and P is never built.
    """
    d = generator.dim
    if not _step_matrix_pays(d, record_every, n_full):

        def loop(rho, k):
            for _ in range(k):
                rho = generator.step(rho, dt)
            return rho

        return loop

    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    step_matrix = generator.step(units, dt).reshape(d * d, d * d).T
    powers = {}  # at most two: record_every and the shorter last interval

    def propagate(rho, k):
        if k not in powers:
            powers[k] = np.linalg.matrix_power(step_matrix, k)
        return (powers[k] @ rho.reshape(-1)).reshape(d, d)

    return propagate


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

    n_full = np.floor(t_final / dt + 1e-12)
    if not n_full < np.iinfo(np.intp).max:
        raise model.ValidationError(f"t_final = {t_final} and dt = {dt} give a step count beyond the index range")
    n_full = int(n_full)
    generator = generator_of(system)
    remainder = t_final - n_full * dt
    if remainder < 1e-12 * max(dt, 1.0):
        remainder = 0.0
    n_steps = n_full + (1 if remainder else 0)
    record_steps = list(range(record_every, n_steps + 1, record_every))
    if n_steps and (not record_steps or record_steps[-1] != n_steps):
        record_steps.append(n_steps)

    times = [0.0]
    states = [rho]
    problem = None
    done = 0
    # A diverging run is reported below, not by numpy's overflow warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        advance = _full_steps(generator, dt, n_full, record_every)
        for step in record_steps:
            full = min(step, n_full)
            if full > done:
                rho = advance(rho, full - done)
                done = full
            if step > n_full:
                rho = generator.step(rho, remainder)
            t = step * dt if step < n_steps else t_final
            times.append(t)
            states.append(rho)
            if not np.isfinite(rho).all():
                problem = f"state is not finite at step {step} (t = {t:.6g}); integration stopped"
                break
        states = np.array(states)
        tr, herm, eig = state_diagnostics(states)

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
