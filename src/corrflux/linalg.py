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
    "ValidationError",
    "ShapeError",
    "HermiticityError",
    "BipartiteShape",
    "SIGMA_Z",
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


class ValidationError(ValueError):
    """Input data violates a structural or physical requirement: the one base class of rejected input."""


class ShapeError(ValidationError):
    """Matrix dimensions do not match what the operation requires."""


class HermiticityError(ValidationError):
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


EIG_HERMITICITY_TOL = 1e-10  # the largest Hermiticity residual hermitian_eig accepts

SIGMA_Z = np.diag([1.0 + 0j, -1.0])
SIGMA_Z.setflags(write=False)


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


# The square of this norm is the smallest normal float; below it, squares may have underflowed.
_SMALLEST_SAFE_NORM = 2.0**-511


def frobenius_norm(m):
    """sqrt(sum |m_ij|^2): a float for one matrix, an array for a stack.

    The squares of entries beyond about 1e154 overflow, and those of entries
    below about 1e-154 underflow. When squaring overflows, every matrix is
    divided by a power of two near its largest entry before the squares are
    summed; so is each nonzero matrix whose norm reads below
    _SMALLEST_SAFE_NORM. That scaling is exact, so a norm whose squares stay
    in the normal range reads the same either way.
    """
    a = np.asarray(m, dtype=complex)
    try:
        with np.errstate(over="raise"):
            norm = np.linalg.norm(a, axis=(-2, -1))
    except FloatingPointError:
        return _float_or_column(_scaled_norm(a))
    small = norm < _SMALLEST_SAFE_NORM
    # The squares behind a small norm may have underflowed; a zero matrix's norm is exact.
    # One matrix is tested by truth value: .any() on a numpy bool alone costs microseconds.
    if (small.any() if small.ndim else small) and a.any():
        small &= a.any(axis=(-2, -1))
        norm = np.array(norm)
        norm[small] = _scaled_norm(a[small])
    return _float_or_column(norm)


def _scaled_norm(a: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix, summed after dividing it by 2^(e-1), where its largest
    entry lies in [2^(e-1), 2^e). A norm beyond the float range reads inf."""
    largest = np.maximum(np.abs(a.real), np.abs(a.imag)).max(axis=(-2, -1), initial=0.0)
    scale = np.ldexp(1.0, np.frexp(largest)[1] - 1)
    # Real and imaginary parts are divided as floats: numpy divides a complex by a
    # tiny scale through its reciprocal, which overflows.
    parts = np.ascontiguousarray(a).view(float) / scale[..., None, None]
    with np.errstate(over="ignore"):
        return np.linalg.norm(parts.view(complex), axis=(-2, -1)) * scale


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
    return kron(a, np.eye(shape.d_B, dtype=complex))


def embed_B(op, shape: BipartiteShape) -> np.ndarray:
    """Lift an operator on subsystem B to the joint space: I_A (x) op."""
    b = _square_stack(op, "op")
    if b.shape[-1] != shape.d_B:
        raise ShapeError(f"operator dim {b.shape[-1]} does not match d_B = {shape.d_B}")
    return kron(np.eye(shape.d_A, dtype=complex), b)


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
    # An entry of a - a† beyond the float range is inf, and so is the residual: its true value is larger.
    with np.errstate(over="ignore"):
        diff = np.abs(a - a.conj().swapaxes(-1, -2))
    return _float_or_column(diff.max(axis=(-2, -1), initial=0.0))


def state_diagnostics(m):
    """(|Tr m - 1|, hermiticity_residual(m), smallest eigenvalue of (m + m†)/2) of a
    candidate state: floats for one matrix, arrays for a stack. The eigenvalue is NaN
    where a matrix has non-finite entries; a trace beyond the float range gives an
    infinite drift."""
    a = _square_stack(m, "state")
    finite = np.isfinite(a).all(axis=(-2, -1))
    min_eig = np.full(finite.shape, np.nan)
    # h + h† with h = a / 2 cannot overflow; away from subnormals it equals (a + a†) / 2 bit for bit.
    half = 0.5 * a
    min_eig[finite] = np.linalg.eigvalsh((half + half.conj().swapaxes(-1, -2))[finite]).min(axis=-1)
    with np.errstate(over="ignore"):
        trace_drift = np.abs(np.trace(a, axis1=-2, axis2=-1) - 1.0)
    return _float_or_column(trace_drift), hermiticity_residual(a), _float_or_column(min_eig)


def require_hermitian(m, tol: float, name: str = "matrix") -> np.ndarray:
    a = _square(m, name)
    resid = hermiticity_residual(a)
    if resid > tol:
        raise HermiticityError(f"{name} is not Hermitian: residual {resid:.3e} > {tol:.1e}")
    return a


def hermitian_eig(m, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues real and ascending
    and eigenvectors as columns, so m = V diag(w) V†. Raises HermiticityError,
    calling the input `name`, if it fails the Hermiticity check at EIG_HERMITICITY_TOL.
    """
    a = require_hermitian(m, EIG_HERMITICITY_TOL, name)
    vals, vecs = np.linalg.eigh(a)
    return vals, vecs.astype(complex)


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random state: normalized G G† with Gaussian G."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
