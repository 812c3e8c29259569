"""Shared builders for randomized test systems, a per-channel reference generator
and oracles that only the tests use: trace, trace distance, commutator, the steady
state and the detailed-balance residual of a channel list."""

import numpy as np

from corrflux.dynamics import Generator
from corrflux.linalg import BipartiteShape, ShapeError, dagger, embed_A, embed_B, hermitian_eig
from corrflux.model import (
    BipartiteSystem,
    JumpChannel,
    ThermalBathSpec,
    ValidationError,
    build_thermal_channels,
    total_hamiltonian,
)

KERNEL_GAP_TOL = 1e-8


class NonUniqueSteadyStateError(RuntimeError):
    """The generator kernel is not one dimensional."""


def trace(m) -> complex:
    return complex(np.trace(m))


def trace_distance(a, b) -> float:
    """(1/2) * sum of absolute eigenvalues of (a - b), for Hermitian a, b."""
    d = np.asarray(a, dtype=complex) - b
    return 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (d + dagger(d)))).sum())


def commutator(a, b) -> np.ndarray:
    if np.shape(a) != np.shape(b):
        raise ShapeError(f"commutator needs equal shapes, got {np.shape(a)} and {np.shape(b)}")
    return a @ b - b @ a


def random_hermitian(dim, rng):
    """Hermitian matrix with independent Gaussian entries, scale O(1)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def nondegenerate_hermitian(rng, dim, gap=1e-3):
    """Random Hermitian matrix with all eigenvalue gaps above `gap`."""
    while True:
        H = random_hermitian(dim, rng)
        if dim == 1 or float(np.diff(np.linalg.eigvalsh(H)).min()) > gap:
            return H


def dissipative_part(system, side=None):
    """Generator of the system's channels on one side (all for None) with H = 0.

    Applied to rho it gives sum_k gamma_k (L rho L† - (1/2){L†L, rho}).
    """
    zero_A = np.zeros((system.shape.d_A,) * 2, dtype=complex)
    zero_B = np.zeros((system.shape.d_B,) * 2, dtype=complex)
    channels = tuple(ch for ch in system.channels if side in (None, ch.bath_tag))
    return Generator(
        BipartiteSystem(
            shape=system.shape,
            H_A=zero_A,
            H_B=zero_B,
            V=np.zeros((system.shape.dim,) * 2, dtype=complex),
            channels=channels,
        )
    )


def lifted_channels(system, side=None):
    """(rate, L) of each channel on one side (all for None), L lifted to the joint space."""
    lift = {"A": embed_A, "B": embed_B}
    return [
        (ch.rate, lift[ch.bath_tag](ch.operator, system.shape))
        for ch in system.channels
        if side in (None, ch.bath_tag)
    ]


def reference_generator(system, rho):
    """The master equation written channel by channel, on a state or a stack:

    -i[H, rho] + sum_k gamma_k (L_k rho L_k† - (1/2){L_k†L_k, rho}).
    """
    H = total_hamiltonian(system)
    out = -1j * (H @ rho - rho @ H)
    for rate, L in lifted_channels(system):
        LdL = L.conj().T @ L
        out = out + rate * (L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL))
    return out


def reference_adjoint(system, O, side=None):
    """sum_k gamma_k (L_k† O L_k - (1/2){O, L_k†L_k}) over one side's channels (all for None)."""
    out = np.zeros(np.shape(O), dtype=complex)
    for rate, L in lifted_channels(system, side):
        LdL = L.conj().T @ L
        out = out + rate * (L.conj().T @ O @ L - 0.5 * (O @ LdL + LdL @ O))
    return out


def reference_matrix(system):
    """The generator's d^2 x d^2 matrix on row-major vec, from vec(A X B) = (A kron B^T) vec(X)."""
    eye = np.eye(system.shape.dim)
    H = total_hamiltonian(system)
    out = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for rate, L in lifted_channels(system):
        LdL = L.conj().T @ L
        out = out + rate * (np.kron(L, L.conj()) - 0.5 * (np.kron(LdL, eye) + np.kron(eye, LdL.T)))
    return out


def steady_state(system):
    """The stationary state: the null vector of reference_matrix, hermitized and normalized.

    Raises NonUniqueSteadyStateError unless the kernel is one dimensional with a traceful vector.
    """
    d = system.shape.dim
    _, svals, vh = np.linalg.svd(reference_matrix(system))
    candidate = vh[-1].conj().reshape(d, d)
    tr = np.trace(candidate).real
    if (len(svals) > 1 and svals[-2] < KERNEL_GAP_TOL) or abs(tr) < 1e-12:
        raise NonUniqueSteadyStateError(f"smallest singular values {svals[-2:]}, null vector trace {tr:.3e}")
    return 0.5 * (candidate + candidate.conj().T) / tr


def detailed_balance_residual(channels, H_local, beta, bath_tag, shape):
    """max |gamma_mn - gamma_nm exp(-beta (E_m - E_n))| over a channel list, each a unit jump
    |m><n| between eigenvectors of H_local on side bath_tag with its reverse partner."""
    d_local = shape.d_A if bath_tag == "A" else shape.d_B
    energies, vecs = hermitian_eig(H_local)
    rates = {}
    for ch in channels:
        if ch.bath_tag != bath_tag or ch.operator.shape[0] != d_local:
            raise ValidationError(f"channel {ch.label!r} is not a side {bath_tag} operator of dim {d_local}")
        flat = np.abs(dagger(vecs) @ ch.operator @ vecs)
        m, n = np.unravel_index(int(flat.argmax()), flat.shape)
        if abs(flat[m, n] - 1.0) > 1e-12 or (flat > 1e-12).sum() > 1:
            raise ValidationError(f"channel {ch.label!r} is not a unit eigenlevel jump of the local Hamiltonian")
        if m == n:
            raise ValidationError(f"channel {ch.label!r} is diagonal, not a jump between levels")
        if (m, n) in rates:
            raise ValidationError(f"duplicate jump {n}->{m} in channel list")
        rates[(m, n)] = ch.rate
    worst = 0.0
    for (m, n), gamma_mn in rates.items():
        if (n, m) not in rates:
            raise ValidationError(f"jump {n}->{m} has no reverse partner {m}->{n}")
        expected = rates[(n, m)] * float(np.exp(-beta * (energies[m] - energies[n])))
        worst = max(worst, abs(gamma_mn - expected))
    return worst


def random_system(rng, d_A=2, d_B=2, channels_per_side=2, alpha_A=None):
    """Generic random system: dense local jump operators, no structure."""
    shape = BipartiteShape(d_A, d_B)
    channels = []
    for side, d in (("A", d_A), ("B", d_B)):
        for k in range(channels_per_side):
            op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            channels.append(JumpChannel(op, float(rng.uniform(0.1, 1.0)), side, f"{side}:rand{k}"))
    return BipartiteSystem(
        shape=shape,
        H_A=random_hermitian(d_A, rng),
        H_B=random_hermitian(d_B, rng),
        V=random_hermitian(d_A * d_B, rng),
        channels=tuple(channels),
        alpha_A=float(rng.uniform(0.0, 1.0)) if alpha_A is None else alpha_A,
    )


def random_dephasing_system(rng, d_A=2, d_B=2):
    """Diagonal H_A, H_B, V plus Hermitian jump operators commuting with H."""
    shape = BipartiteShape(d_A, d_B)
    channels = []
    for side, d in (("A", d_A), ("B", d_B)):
        for k in range(2):
            op = np.diag(rng.uniform(-1.0, 1.0, size=d)).astype(complex)
            channels.append(JumpChannel(op, float(rng.uniform(0.2, 1.0)), side, f"{side}:dephase{k}"))
    return BipartiteSystem(
        shape=shape,
        H_A=np.diag(rng.uniform(-1.0, 1.0, size=d_A)).astype(complex),
        H_B=np.diag(rng.uniform(-1.0, 1.0, size=d_B)).astype(complex),
        V=np.diag(rng.uniform(-1.0, 1.0, size=d_A * d_B)).astype(complex),
        channels=tuple(channels),
    )


def _unit_spectral_radius(H):
    # keeps exp(beta * gap) rates moderate so fixed-step RK4 stays stable
    return H / max(1.0, float(np.abs(np.linalg.eigvalsh(H)).max()))


def random_thermal_system(rng, d_A=2, d_B=2, beta_max=1.0):
    """Detailed-balance baths on both sides plus a V commuting with H_A + H_B."""
    shape = BipartiteShape(d_A, d_B)
    H_A = _unit_spectral_radius(nondegenerate_hermitian(rng, d_A))
    H_B = _unit_spectral_radius(nondegenerate_hermitian(rng, d_B))
    channels = []
    betas = {}
    for side, H, d in (("A", H_A, d_A), ("B", H_B, d_B)):
        beta = float(rng.uniform(0.0, beta_max))
        betas[side] = beta
        base = {}
        for i in range(d):
            for j in range(i + 1, d):
                base[(i, j)] = float(rng.uniform(0.1, 1.0))
        channels.extend(build_thermal_channels(H, ThermalBathSpec(beta, base), side, shape))
    # Diagonal in the product eigenbasis, hence commuting with H_A + H_B.
    _, U_A = np.linalg.eigh(H_A)
    _, U_B = np.linalg.eigh(H_B)
    U = np.kron(U_A, U_B).astype(complex)
    V = U @ np.diag(rng.uniform(-1.0, 1.0, size=d_A * d_B)).astype(complex) @ U.conj().T
    V = 0.5 * (V + V.conj().T)
    system = BipartiteSystem(shape=shape, H_A=H_A, H_B=H_B, V=V, channels=tuple(channels))
    return system, betas
