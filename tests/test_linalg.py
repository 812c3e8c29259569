"""Tests for the dense matrix toolbox."""

import numpy as np
import pytest

from corrflux.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BipartiteShape,
    HermiticityError,
    ShapeError,
    dagger,
    embed_A,
    embed_B,
    frobenius_norm,
    hermitian_eig,
    hermiticity_residual,
    identity,
    kron,
    partial_trace,
    random_density_matrix,
    require_hermitian,
    state_diagnostics,
)

from helpers import commutator, random_hermitian, trace, trace_distance


def test_pauli_constants():
    assert np.array_equal(SIGMA_Z, np.diag([1.0 + 0j, -1.0]))
    assert np.array_equal(SIGMA_X, np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(SIGMA_Y, np.array([[0, -1j], [1j, 0]]))
    for pauli in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert not pauli.flags.writeable
        assert np.allclose(pauli @ pauli, np.eye(2))


def test_bipartite_shape():
    shape = BipartiteShape(2, 3)
    assert shape.dim == 6
    with pytest.raises(ShapeError):
        BipartiteShape(0, 2)
    with pytest.raises(ShapeError):
        BipartiteShape(2, -1)


def test_trace_and_dagger():
    m = np.array([[1.0 + 2j, 3.0], [4.0, 5.0 - 1j]])
    assert trace(m) == (6.0 + 1j)
    assert np.array_equal(dagger(m), m.conj().T)
    assert frobenius_norm(np.zeros((3, 3))) == 0.0
    assert frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_kron_block_structure():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    b = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    k = kron(a, b)
    assert k.shape == (4, 4)
    assert k[0, 1] == 1.0
    assert k[0, 3] == 2.0
    assert k[2, 1] == 3.0
    assert k[3, 2] == 4.0
    assert np.array_equal(kron(SIGMA_Z, SIGMA_Z), np.diag([1.0 + 0j, -1.0, -1.0, 1.0]))


def test_kron_properties():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d1, d2 = rng.integers(2, 5, size=2)
        a = random_hermitian(int(d1), rng)
        b = random_hermitian(int(d2), rng)
        assert abs(trace(kron(a, b)) - trace(a) * trace(b)) <= 1e-12 * (1 + abs(trace(a) * trace(b)))
        assert np.array_equal(kron(a, b), np.kron(a, b))
    a = random_hermitian(2, rng)
    b = random_hermitian(3, rng)
    c = random_hermitian(2, rng)
    assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) <= 1e-14


def test_stacked_operations_equal_the_per_matrix_results():
    rng = np.random.default_rng(17)
    shape = BipartiteShape(2, 3)
    joint = np.stack([random_hermitian(6, rng) for _ in range(5)])
    on_A = np.stack([random_hermitian(2, rng) for _ in range(5)])
    on_B = np.stack([random_hermitian(3, rng) for _ in range(5)])
    for i in range(5):
        assert np.array_equal(kron(on_A, on_B)[i], np.kron(on_A[i], on_B[i]))
        assert np.array_equal(kron(on_A[i], on_B)[i], np.kron(on_A[i], on_B[i]))
        assert np.array_equal(embed_A(on_A, shape)[i], embed_A(on_A[i], shape))
        assert np.array_equal(embed_B(on_B, shape)[i], embed_B(on_B[i], shape))
        for keep in "AB":
            assert np.array_equal(partial_trace(joint, shape, keep)[i], partial_trace(joint[i], shape, keep))
        assert frobenius_norm(joint)[i] == frobenius_norm(joint[i])
        assert hermiticity_residual(joint)[i] == hermiticity_residual(joint[i])
        assert [x[i] for x in state_diagnostics(joint)] == list(state_diagnostics(joint[i]))
    with pytest.raises(ShapeError):
        kron(on_A[..., :1], on_B)
    with pytest.raises(ShapeError):
        partial_trace(joint[..., :5], shape, "A")


def test_embed_operators_commute():
    rng = np.random.default_rng(12)
    shape = BipartiteShape(3, 2)
    x = random_hermitian(3, rng)
    y = random_hermitian(2, rng)
    assert np.max(np.abs(commutator(embed_A(x, shape), embed_B(y, shape)))) <= 1e-13
    assert embed_A(x, shape).shape == (6, 6)
    with pytest.raises(ShapeError):
        embed_A(y, shape)


def test_partial_trace_of_product():
    rng = np.random.default_rng(13)
    for d_A, d_B in ((2, 2), (2, 3), (3, 2), (4, 3)):
        shape = BipartiteShape(d_A, d_B)
        a = random_hermitian(d_A, rng)
        b = random_hermitian(d_B, rng)
        m = kron(a, b)
        assert np.max(np.abs(partial_trace(m, shape, keep="A") - trace(b) * a)) <= 1e-12
        assert np.max(np.abs(partial_trace(m, shape, keep="B") - trace(a) * b)) <= 1e-12
        assert abs(trace(partial_trace(m, shape, keep="A")) - trace(m)) <= 1e-12


def test_partial_trace_bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    shape = BipartiteShape(2, 2)
    assert np.max(np.abs(partial_trace(rho, shape, keep="A") - 0.5 * np.eye(2))) <= 1e-15
    assert np.max(np.abs(partial_trace(rho, shape, keep="B") - 0.5 * np.eye(2))) <= 1e-15


def test_partial_trace_validation():
    shape = BipartiteShape(2, 2)
    with pytest.raises(ShapeError):
        partial_trace(np.eye(3, dtype=complex), shape, keep="A")
    with pytest.raises(ValueError):
        partial_trace(np.eye(4, dtype=complex), shape, keep="C")


def test_commutators():
    assert np.max(np.abs(commutator(SIGMA_X, SIGMA_Y) - 2j * SIGMA_Z)) <= 1e-15
    with pytest.raises(ShapeError):
        commutator(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


def test_hermiticity_checks():
    m = np.array([[1.0, 1.0j], [-1.0j, 2.0]])
    assert hermiticity_residual(m) == 0.0
    bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(HermiticityError):
        require_hermitian(bad, 1e-12, "bad")
    # residual threshold is adjustable
    almost = m + 1e-9 * np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(require_hermitian(almost, 1e-6), almost)
    with pytest.raises(HermiticityError):
        require_hermitian(almost, 1e-12)


def test_hermitian_eig_sigma_x():
    vals, vecs = hermitian_eig(SIGMA_X)
    assert np.max(np.abs(vals - np.array([-1.0, 1.0]))) <= 1e-14
    recon = vecs @ np.diag(vals).astype(complex) @ dagger(vecs)
    assert np.max(np.abs(recon - SIGMA_X)) <= 1e-14


def test_hermitian_eig_random():
    rng = np.random.default_rng(14)
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        m = random_hermitian(dim, rng)
        vals, vecs = hermitian_eig(m)
        assert np.all(np.diff(vals) >= -1e-13)
        assert np.max(np.abs(dagger(vecs) @ vecs - np.eye(dim))) <= 1e-10
        recon = vecs @ np.diag(vals).astype(complex) @ dagger(vecs)
        assert np.max(np.abs(recon - m)) <= 1e-10 * max(1.0, float(np.max(np.abs(vals))))


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_trace_distance_diagonal():
    rho = np.diag([0.75, 0.25]).astype(complex)
    sigma = np.diag([0.25, 0.75]).astype(complex)
    assert trace_distance(rho, sigma) == pytest.approx(0.5, abs=1e-14)
    assert trace_distance(rho, rho) <= 1e-15


def test_trace_distance_bounds():
    rng = np.random.default_rng(15)
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        rho = random_density_matrix(dim, rng)
        sigma = random_density_matrix(dim, rng)
        d = trace_distance(rho, sigma)
        assert -1e-14 <= d <= 1.0 + 1e-12
        assert abs(d - trace_distance(sigma, rho)) <= 1e-13


def test_random_density_matrix():
    rng = np.random.default_rng(16)
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        rho = random_density_matrix(dim, rng)
        assert abs(trace(rho) - 1.0) <= 1e-12
        assert hermiticity_residual(rho) <= 1e-14
        assert float(np.min(np.linalg.eigvalsh(rho))) >= -1e-14


def test_identity():
    assert np.array_equal(identity(3), np.eye(3, dtype=complex))
    assert identity(2).dtype == np.complex128
