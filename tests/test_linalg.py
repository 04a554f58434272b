"""Eigensolver, matrix helpers, and the JSON exchange format."""

import json

import numpy as np
import pytest

from hermcalc.errors import ConvergenceError, ParseError
from hermcalc.linalg import (
    HermitianMatrix,
    eig,
    frobenius,
    load_matrix,
    matrix_from_dict,
    matrix_to_dict,
    matrix_to_json,
    op_norm,
    save_matrix,
)


def random_hermitian(gen, d, scale=1.0):
    a = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    return scale * 0.5 * (a + a.conj().T)


def test_eig_matches_numpy_spectrum():
    gen = np.random.default_rng(11)
    for d in range(1, 13):
        x = random_hermitian(gen, d)
        dec = eig(x)
        ref = np.linalg.eigvalsh(x)
        np.testing.assert_allclose(dec.eigenvalues, ref, rtol=0, atol=1e-12 * max(1.0, op_norm(x)))
        # ascending order is part of the contract
        assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_eig_reconstruction_and_unitarity():
    gen = np.random.default_rng(12)
    for trial in range(20):
        d = int(gen.integers(1, 11))
        x = random_hermitian(gen, d, scale=float(gen.uniform(0.1, 5.0)))
        dec = eig(x)
        scale = max(frobenius(x), 1.0)
        recon = dec.vectors @ np.diag(dec.eigenvalues) @ dec.vectors.conj().T
        assert frobenius(recon - x) <= 1e-13 * scale
        assert dec.unitary_defect() <= 1e-13
        assert dec.reconstruction_error(x) <= 1e-13 * scale


def test_eig_degenerate_spectrum():
    # repeated eigenvalues: conjugated identity block plus a distinct one
    gen = np.random.default_rng(13)
    q, _ = np.linalg.qr(gen.normal(size=(5, 5)) + 1j * gen.normal(size=(5, 5)))
    lam = np.array([2.0, 2.0, 2.0, -1.0, 3.5])
    x = q @ np.diag(lam) @ q.conj().T
    dec = eig(x)
    np.testing.assert_allclose(dec.eigenvalues, np.sort(lam), atol=1e-13)
    assert dec.reconstruction_error(x) <= 1e-13 * frobenius(x)


def test_eig_diagonal_input_is_exact():
    x = np.diag([3.0, -1.0, 0.25]).astype(complex)
    dec = eig(x)
    assert dec.eigenvalues.tolist() == [-1.0, 0.25, 3.0]
    assert dec.unitary_defect() == 0.0


def test_eig_maps_lapack_failure_to_convergence_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceError):
        eig(np.eye(2))


def test_op_norm_examples():
    assert op_norm(np.diag([-5.0, 2.0]).astype(complex)) == 5.0
    # non-Hermitian input goes through the singular values
    a = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    assert abs(op_norm(a) - 2.0) < 1e-14


def test_hermitian_wrapper_rejects_skew_input():
    a = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ParseError):
        HermitianMatrix(a)
    # tiny asymmetry is symmetrized away instead
    b = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]], dtype=complex)
    h = HermitianMatrix(b)
    assert frobenius(h.array - h.array.conj().T) == 0.0


def test_json_round_trip_is_byte_stable(tmp_path):
    gen = np.random.default_rng(15)
    x = random_hermitian(gen, 4)
    p1 = tmp_path / "m1.json"
    p2 = tmp_path / "m2.json"
    save_matrix(x, p1, meta={"note": "round trip"})
    y = load_matrix(p1)
    np.testing.assert_array_equal(x, y)
    save_matrix(y, p2, meta={"note": "round trip"})
    assert p1.read_bytes() == p2.read_bytes()


def test_matrix_dict_layout():
    x = np.array([[1.0, 2.0 - 3.0j], [2.0 + 3.0j, 4.0]])
    doc = matrix_to_dict(x)
    assert doc["dim"] == 2
    # row-major flat list of [re, im] pairs
    assert doc["entries"][1] == [2.0, -3.0]
    assert len(doc["entries"]) == 4
    back = matrix_from_dict(json.loads(matrix_to_json(x)))
    np.testing.assert_array_equal(back, x)


def test_matrix_from_dict_errors():
    with pytest.raises(ParseError):
        matrix_from_dict({"dim": 2, "entries": [[1.0, 0.0]] * 3})
    with pytest.raises(ParseError):
        matrix_from_dict({"dim": 2, "entries": [["a", 0.0]] + [[0.0, 0.0]] * 3})
    with pytest.raises(ParseError):
        matrix_from_dict({"dim": 0, "entries": []})
    with pytest.raises(ParseError):
        matrix_from_dict([1, 2, 3])
