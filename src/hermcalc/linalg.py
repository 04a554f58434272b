"""Dense complex matrices: validation, Hermitian types, eigensolver, norms, JSON I/O.

The eigensolver and the operator norm are LAPACK calls through numpy
(eigh and the largest singular value). Both are deterministic for a given
build and BLAS thread count. op_norm gives the norm of any matrix, as the
apply and deriv artifacts report it; the seminorm probe (bounds.py) takes
the norms of its Hermitian stacks from their eigenvalues instead.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParseError, check_count

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


def check_dirs(x, dirs):
    """The directions as validated arrays, each shaped like the array x;
    ParseError naming the first that is not."""
    arrs = [as_array(v) for v in dirs]
    for j, arr in enumerate(arrs):
        if arr.shape != x.shape:
            raise ParseError(f"direction {j}: shape {arr.shape} does not match matrix {x.shape}")
    return arrs


def frobenius(m):
    return float(np.linalg.norm(m))


class HermitianMatrix:
    """A validated Hermitian matrix.

    Construction symmetrizes the input, (M + M*) / 2. Inputs with
    ||M - M*||_F above HERMITIAN_REJECT_TOL * ||M||_F are rejected rather
    than silently repaired.
    """

    __slots__ = ("array", "dim", "_eig")

    def __init__(self, matrix):
        arr = validate_matrix(matrix)
        scale = frobenius(arr)
        defect = frobenius(arr - arr.conj().T)
        if scale > 0 and defect > HERMITIAN_REJECT_TOL * scale:
            raise ParseError(
                f"matrix is not Hermitian: ||M - M*|| = {defect:.3e} "
                f"exceeds {HERMITIAN_REJECT_TOL:g} * ||M|| = {HERMITIAN_REJECT_TOL * scale:.3e}"
            )
        self.array = 0.5 * (arr + arr.conj().T)
        self.dim = arr.shape[0]
        self._eig = None

    def eig(self):
        """Eigendecomposition, computed once and cached."""
        if self._eig is None:
            self._eig = eig(self)
        return self._eig


@dataclass
class Eigendecomposition:
    """Ascending real eigenvalues and a unitary matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    vectors: np.ndarray


def eig(x):
    """Eigendecomposition by LAPACK (numpy.linalg.eigh).

    x is one Hermitian matrix, validated as HermitianMatrix does, or a
    (B, d, d) ndarray stack of Hermitian matrices, taken as it is; a stack's
    eigenvalues are (B, d) and its vectors (B, d, d). Eigenvalues come back
    ascending. A LAPACK failure is raised as ConvergenceError.
    """
    if isinstance(x, HermitianMatrix):
        arr = x.array
    elif isinstance(x, np.ndarray) and x.ndim == 3:
        arr = x
    else:
        arr = HermitianMatrix(x).array
    try:
        w, u = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed (dim {arr.shape[-1]}): {exc}") from exc
    return Eigendecomposition(eigenvalues=w, vectors=u)


def op_norm(m):
    """Operator (spectral) norm of one matrix, its largest singular value."""
    return float(np.linalg.norm(validate_matrix(m), 2))


# ---------------------------------------------------------------------------
# JSON wire format: {"dim": d, "entries": [[re, im], ...]} row-major, d*d pairs.


def matrix_to_dict(arr, meta=None):
    arr = validate_matrix(arr)
    doc = {"dim": int(arr.shape[0]), "entries": arr.view(np.float64).reshape(-1, 2).tolist()}
    if meta:
        doc["meta"] = meta
    return doc


def matrix_from_dict(doc, name="matrix"):
    if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
        raise ParseError(f"{name}: expected an object with 'dim' and 'entries'")
    d = check_count(f"{name}: 'dim'", doc["dim"], 1)
    try:
        pairs = np.array(doc["entries"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{name}: 'entries' must be [re, im] pairs of numbers") from None
    if pairs.shape != (d * d, 2):
        raise ParseError(f"{name}: expected {d * d} [re, im] pairs, got shape {pairs.shape}")
    return validate_matrix(pairs.view(np.complex128).reshape(d, d), name=name)


def _is_matrix(value):
    """Whether value is a non-empty list of non-empty lists of floats."""
    return (
        isinstance(value, list) and value and all(isinstance(row, list) and row for row in value)
        and set(map(type, itertools.chain.from_iterable(value))) == {float}
    )


def artifact_json(doc):
    """json.dumps(doc, indent=1, sort_keys=True) + "\n" for a non-empty dict
    with string keys, byte for byte. A field that is a matrix (a non-empty
    list of non-empty lists of floats) is encoded by json's C encoder and laid
    out as the indented encoder lays it out, one float a line; every other
    field goes through json.dumps as before, indented one level."""
    fields = []
    for key in sorted(doc):
        value = doc[key]
        if _is_matrix(value):
            # the rows split at "],[", which no float's repr holds
            body = json.dumps(value, separators=(",", ":"))[2:-2].replace("],[", "\0")
            body = body.replace(",", ",\n   ").replace("\0", "\n  ],\n  [\n   ")
            text = "[\n  [\n   " + body + "\n  ]\n ]"
        else:
            text = json.dumps(value, indent=1, sort_keys=True).replace("\n", "\n ")
        fields.append(f"{json.dumps(key)}: {text}")
    return "{\n " + ",\n ".join(fields) + "\n}\n"


def matrix_to_json(arr, meta=None):
    return artifact_json(matrix_to_dict(arr, meta))


def read_json(path, what):
    """The JSON document in the file at path; what names it in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from None
    except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
        raise ParseError(f"invalid JSON in {path}: {exc}") from None


def load_matrix(path):
    return matrix_from_dict(read_json(path, "matrix file"), name=str(path))


def save_matrix(arr, path, meta=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(matrix_to_json(arr, meta))
