"""Dense complex linear algebra for small bipartite operator spaces.

Every operator (state, Hamiltonian, jump operator) is a plain numpy array
with dtype complex128. Target systems stay below total dimension ~64, so
storage is dense and all algorithms are direct. Subsystem A is always the
slow (left) Kronecker factor: a product operator is kron(op_A, op_B).
kron, embed_A, embed_B, partial_trace, frobenius_norm, hermiticity_residual and
state_diagnostics also take stacks of matrices, arrays of shape (..., n, n), and
act on each matrix alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeError",
    "HermiticityError",
    "BipartiteShape",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "identity",
    "dagger",
    "frobenius_norm",
    "kron",
    "embed_A",
    "embed_B",
    "partial_trace",
    "hermiticity_residual",
    "state_diagnostics",
    "require_hermitian",
    "hermitian_eig",
    "random_density_matrix",
]


class ShapeError(ValueError):
    """Matrix dimensions do not match what the operation requires."""


class HermiticityError(ValueError):
    """A matrix that must be Hermitian is not, within tolerance."""


def _square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _square_stack(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"{name} must be a square matrix or a stack of them, got shape {a.shape}")
    return a


def _frozen(m) -> np.ndarray:
    a = np.array(m, dtype=complex)
    a.setflags(write=False)
    return a


EIG_HERMITICITY_TOL = 1e-10  # the largest Hermiticity residual hermitian_eig accepts

SIGMA_X = _frozen([[0, 1], [1, 0]])
SIGMA_Y = _frozen([[0, -1j], [1j, 0]])
SIGMA_Z = _frozen([[1, 0], [0, -1]])


@dataclass(frozen=True)
class BipartiteShape:
    """Subsystem dimensions (d_A, d_B); the joint space has dim d_A * d_B."""

    d_A: int
    d_B: int

    def __post_init__(self):
        if self.d_A < 1 or self.d_B < 1:
            raise ShapeError(f"subsystem dimensions must be positive, got ({self.d_A}, {self.d_B})")

    @property
    def dim(self) -> int:
        return self.d_A * self.d_B


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def dagger(m) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m, dtype=complex).conj().T


def frobenius_norm(m):
    """sqrt(sum |m_ij|^2): a float for one matrix, an array for a stack."""
    return _float_or_column(np.linalg.norm(np.asarray(m, dtype=complex), axis=(-2, -1)))


def kron(a, b) -> np.ndarray:
    """Kronecker product with the A factor on the left, matrix by matrix over stacks.

    A plain broadcast multiply: on two matrices it equals np.kron, and it keeps
    numpy's floating-point warnings."""
    a = _square_stack(a, "a")
    b = _square_stack(b, "b")
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    n = a.shape[-1] * b.shape[-1]
    return out.reshape(*out.shape[:-4], n, n)


def embed_A(op, shape: BipartiteShape) -> np.ndarray:
    """Lift an operator on subsystem A to the joint space: op (x) I_B."""
    a = _square_stack(op, "op")
    if a.shape[-1] != shape.d_A:
        raise ShapeError(f"operator dim {a.shape[-1]} does not match d_A = {shape.d_A}")
    return kron(a, identity(shape.d_B))


def embed_B(op, shape: BipartiteShape) -> np.ndarray:
    """Lift an operator on subsystem B to the joint space: I_A (x) op."""
    b = _square_stack(op, "op")
    if b.shape[-1] != shape.d_B:
        raise ShapeError(f"operator dim {b.shape[-1]} does not match d_B = {shape.d_B}")
    return kron(identity(shape.d_A), b)


def partial_trace(m, shape: BipartiteShape, keep: str) -> np.ndarray:
    """Trace out one subsystem of a joint-space operator.

    keep="A" returns the d_A x d_A operator Tr_B[m]; keep="B" returns
    Tr_A[m]. Row-major index convention: joint index i = i_A * d_B + i_B.
    """
    a = _square_stack(m)
    if a.shape[-1] != shape.dim:
        raise ShapeError(f"matrix dim {a.shape[-1]} does not match shape dim {shape.dim}")
    r = a.reshape(*a.shape[:-2], shape.d_A, shape.d_B, shape.d_A, shape.d_B)
    if keep == "A":
        return np.einsum("...ijkj->...ik", r)
    if keep == "B":
        return np.einsum("...ijil->...jl", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def _float_or_column(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def hermiticity_residual(m):
    """max_ij |m - m†| (elementwise): a float for one matrix, an array for a stack."""
    a = _square_stack(m)
    return _float_or_column(np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0))


def state_diagnostics(m):
    """(|Tr m - 1|, hermiticity_residual(m), smallest eigenvalue of (m + m†)/2) of a
    candidate state: floats for one matrix, arrays for a stack. The eigenvalue is NaN
    where a matrix has non-finite entries."""
    a = _square_stack(m, "state")
    finite = np.isfinite(a).all(axis=(-2, -1))
    min_eig = np.full(finite.shape, np.nan)
    min_eig[finite] = np.linalg.eigvalsh(0.5 * (a + a.conj().swapaxes(-1, -2))[finite]).min(axis=-1)
    trace_drift = np.abs(np.trace(a, axis1=-2, axis2=-1) - 1.0)
    return _float_or_column(trace_drift), hermiticity_residual(a), _float_or_column(min_eig)


def require_hermitian(m, tol: float, name: str = "matrix") -> np.ndarray:
    a = _square(m, name)
    resid = hermiticity_residual(a)
    if resid > tol:
        raise HermiticityError(f"{name} is not Hermitian: residual {resid:.3e} > {tol:.1e}")
    return a


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues real and ascending
    and eigenvectors as columns, so m = V diag(w) V†. Raises HermiticityError
    if the input fails the Hermiticity check at EIG_HERMITICITY_TOL.
    """
    a = require_hermitian(m, EIG_HERMITICITY_TOL)
    vals, vecs = np.linalg.eigh(a)
    return vals, vecs.astype(complex)


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random state: normalized G G† with Gaussian G."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
