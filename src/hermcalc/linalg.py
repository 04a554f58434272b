"""Dense complex matrices: validation, Hermitian types, eigensolver, norms, JSON I/O.

The eigensolver and the operator norm are LAPACK calls through numpy
(eigh and the largest singular value). Both are deterministic for a given
build and BLAS thread count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParseError

HERMITIAN_REJECT_TOL = 1e-8


def validate_matrix(matrix, name="matrix"):
    """Coerce to a finite square complex128 ndarray, copying the input."""
    arr = np.array(matrix, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ParseError(f"{name}: expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ParseError(f"{name}: entries must be finite (no NaN/Inf)")
    return arr


def as_array(x):
    """Unwrap HermitianMatrix to its ndarray, validate anything else."""
    if isinstance(x, HermitianMatrix):
        return x.array
    return validate_matrix(x)


def frobenius(m):
    return float(np.linalg.norm(m))


class HermitianMatrix:
    """A validated Hermitian matrix.

    Construction symmetrizes the input, (M + M*) / 2, and records the size
    of the correction. Inputs whose anti-Hermitian part exceeds
    1e-8 * ||M||_F are rejected rather than silently repaired.
    """

    __slots__ = ("array", "dim", "defect", "_eig")

    def __init__(self, matrix, reject_tol=HERMITIAN_REJECT_TOL):
        arr = validate_matrix(matrix)
        anti = arr - arr.conj().T
        scale = frobenius(arr)
        defect = 0.5 * frobenius(anti)
        if scale > 0 and 2.0 * defect > reject_tol * scale:
            raise ParseError(
                f"matrix is not Hermitian: ||M - M*|| = {2 * defect:.3e} "
                f"exceeds {reject_tol:g} * ||M|| = {reject_tol * scale:.3e}"
            )
        self.array = 0.5 * (arr + arr.conj().T)
        self.dim = arr.shape[0]
        self.defect = defect
        self._eig = None

    def eig(self):
        """Eigendecomposition, computed once and cached."""
        if self._eig is None:
            self._eig = eig(self.array)
        return self._eig


@dataclass
class Eigendecomposition:
    """Ascending real eigenvalues and a unitary matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def reconstruct(self):
        v = self.vectors
        return (v * self.eigenvalues) @ v.conj().T

    def unitary_defect(self):
        v = self.vectors
        d = v.shape[0]
        return float(np.max(np.abs(v.conj().T @ v - np.eye(d))))

    def reconstruction_error(self, source):
        return float(np.max(np.abs(self.reconstruct() - as_array(source))))


def eig(x):
    """Eigendecomposition of a Hermitian matrix by LAPACK (numpy.linalg.eigh).

    Eigenvalues come back ascending. A LAPACK failure is raised as
    ConvergenceError.
    """
    h = x if isinstance(x, HermitianMatrix) else HermitianMatrix(x)
    try:
        w, u = np.linalg.eigh(h.array)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed (dim {h.dim}): {exc}") from exc
    return Eigendecomposition(eigenvalues=w, vectors=u)


def op_norm(m):
    """Operator (spectral) norm: the largest singular value."""
    return float(np.linalg.norm(validate_matrix(m), 2))


# ---------------------------------------------------------------------------
# JSON wire format: {"dim": d, "entries": [[re, im], ...]} row-major, d*d pairs.


def matrix_to_dict(arr, meta=None):
    arr = validate_matrix(arr)
    doc = {
        "dim": int(arr.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in arr.reshape(-1)],
    }
    if meta:
        doc["meta"] = meta
    return doc


def matrix_from_dict(doc, name="matrix"):
    if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
        raise ParseError(f"{name}: expected an object with 'dim' and 'entries'")
    try:
        d = int(doc["dim"])
    except (TypeError, ValueError):
        raise ParseError(f"{name}: 'dim' must be an integer") from None
    entries = doc["entries"]
    if d < 1:
        raise ParseError(f"{name}: 'dim' must be >= 1, got {d}")
    if not isinstance(entries, list) or len(entries) != d * d:
        raise ParseError(
            f"{name}: expected {d * d} [re, im] pairs, got "
            f"{len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    flat = np.empty(d * d, dtype=np.complex128)
    for k, pair in enumerate(entries):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"{name}: entry {k} is not a [re, im] pair")
        try:
            flat[k] = complex(float(pair[0]), float(pair[1]))
        except (TypeError, ValueError):
            raise ParseError(f"{name}: entry {k} is not numeric") from None
    return validate_matrix(flat.reshape(d, d), name=name)


def matrix_to_json(arr, meta=None):
    return json.dumps(matrix_to_dict(arr, meta), sort_keys=True, indent=1) + "\n"


def load_matrix(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read matrix file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
    return matrix_from_dict(doc, name=str(path))


def save_matrix(arr, path, meta=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(matrix_to_json(arr, meta))
