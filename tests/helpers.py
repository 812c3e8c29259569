"""Shared builders for randomized test systems."""

import numpy as np

from corrflux.dynamics import Generator
from corrflux.linalg import BipartiteShape, random_hermitian
from corrflux.model import (
    BipartiteSystem,
    JumpChannel,
    ThermalBathSpec,
    build_thermal_channels,
)


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


def random_system(rng, d_A=2, d_B=2, channels_per_side=2, alpha_A=None):
    """Generic random system: dense local jump operators, no structure."""
    shape = BipartiteShape(d_A, d_B)
    channels = []
    for side, d in (("A", d_A), ("B", d_B)):
        for k in range(channels_per_side):
            L = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            op = np.kron(L, np.eye(d_B)) if side == "A" else np.kron(np.eye(d_A), L)
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
            op_local = np.diag(rng.uniform(-1.0, 1.0, size=d)).astype(complex)
            op = np.kron(op_local, np.eye(d_B)) if side == "A" else np.kron(np.eye(d_A), op_local)
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
