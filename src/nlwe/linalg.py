"""Dense complex linear algebra on small multipartite Hilbert spaces.

Tensor factors combine with the first factor as the slowest-varying index
(``numpy.kron`` order). Every module in this package assumes that single
convention.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

# Relative singular-value cutoff for rank decisions. The state families
# handled here have spectral gaps many orders of magnitude above this.
DEFAULT_RANK_TOL = 1e-8


def as_ket(v) -> np.ndarray:
    """Coerce input to a 1-d complex vector with finite entries."""
    ket = np.asarray(v, dtype=complex).reshape(-1)
    if ket.size == 0:
        raise ValueError("ket must have dimension >= 1")
    if not np.all(np.isfinite(ket)):
        raise ValueError("ket has non-finite amplitudes")
    return ket


def normalized(v) -> np.ndarray:
    """Unit-norm copy of a ket."""
    ket = as_ket(v)
    norm = np.linalg.norm(ket)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return ket / norm


def inner(a, b) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument."""
    a = as_ket(a)
    b = as_ket(b)
    if a.size != b.size:
        raise ValueError(f"dimension mismatch: {a.size} vs {b.size}")
    return complex(np.vdot(a, b))


def tensor(kets: Sequence) -> np.ndarray:
    """Tensor product of kets, first ket slowest-varying."""
    if len(kets) == 0:
        raise ValueError("tensor product of an empty list is undefined")
    return reduce(np.kron, (as_ket(k) for k in kets))


def dyad(ket, bra) -> np.ndarray:
    """Rank-1 operator |ket><bra|, or one per row of (P, d) stacks.

    Stacks give shape (P, d, d); an empty (0, d) stack is allowed.
    """
    k = np.asarray(ket, dtype=complex)
    b = np.asarray(bra, dtype=complex)
    if k.shape != b.shape:
        raise ValueError(f"dimension mismatch: {k.shape} vs {b.shape}")
    if k.ndim == 0 or k.shape[-1] == 0:
        raise ValueError("ket must have dimension >= 1")
    if not (np.all(np.isfinite(k)) and np.all(np.isfinite(b))):
        raise ValueError("ket has non-finite amplitudes")
    return k[..., :, None] * b.conj()[..., None, :]


def frobenius_norm(m) -> float:
    """sqrt(Tr(M^dag M)), i.e. the entrywise 2-norm."""
    arr = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    return float(np.linalg.norm(arr))


def numerical_rank(mats, tol_rel: float = DEFAULT_RANK_TOL) -> int:
    """Dimension of the span of the given matrices (or vectors).

    Inputs come as a sequence or stacked along the first axis of one array.
    Each is flattened into one row; the rank is the number of singular
    values exceeding ``tol_rel`` times the largest one. Empty input: rank 0.
    """
    if tol_rel <= 0:
        raise ValueError("tol_rel must be positive")
    if not isinstance(mats, np.ndarray):
        rows = [np.asarray(m, dtype=complex).reshape(-1) for m in mats]
        if any(r.size != rows[0].size for r in rows):
            raise ValueError("all inputs must have the same dimension")
        mats = np.array(rows, dtype=complex)
    if len(mats) == 0:
        return 0
    stack = np.asarray(mats, dtype=complex).reshape(len(mats), -1)
    svals = np.linalg.svd(stack, compute_uv=False)
    if svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > tol_rel * svals[0]))
