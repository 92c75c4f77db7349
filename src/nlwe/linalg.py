"""Dense complex linear algebra on small multipartite Hilbert spaces.

Tensor factors combine with the first factor as the slowest-varying index
(``numpy.kron`` order). Every module in this package assumes that single
convention.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Singular-value cutoff for rank decisions, relative to the Frobenius norm.
# The state families handled here have spectral gaps far above this.
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
    """Unit-norm copy of a ket; a norm that overflows is refused."""
    ket = as_ket(v)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(ket)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    if not np.isfinite(norm):
        raise ValueError("ket norm overflows")
    return ket / unit_divisors(norm)


def unit_divisors(norms):
    """The norms kets are divided by, 1 where within 4 eps of 1: normalized
    kets' norms are within 2 eps (d <= 256), so renormalizing keeps bits."""
    return np.where(np.abs(norms - 1.0) <= 4 * np.finfo(float).eps, 1.0,
                    norms)


def row_norms(v) -> np.ndarray:
    """2-norm of each row of an (N, d) complex stack.

    Each is bit-identical to ``np.linalg.norm`` of the row, which is the
    square root of the real and imaginary parts' dot products: ``matmul``
    of a row with itself takes the same dot product as ``ndarray.dot``.
    A norm that overflows is inf and a row with a non-finite entry gives
    nan or inf, without a warning.
    """
    re, im = v.real[:, None, :], v.imag[:, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        sq = re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)
    return np.sqrt(sq[:, 0, 0])


def row_tensor(stacks) -> np.ndarray:
    """Row-wise tensor product of (N, d_i) stacks, first slowest-varying.

    Each entry is one product of the stacks' entries, taken left to right,
    as in ``numpy.kron``.
    """
    out = stacks[0]
    for v in stacks[1:]:
        out = (out[:, :, None] * v[:, None, :]).reshape(len(out), -1)
    return out


def tensor(kets: Sequence) -> np.ndarray:
    """Tensor product of kets, first ket slowest-varying: ``row_tensor``
    of one row."""
    if len(kets) == 0:
        raise ValueError("tensor product of an empty list is undefined")
    return row_tensor([as_ket(k)[None] for k in kets])[0]


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


def numerical_rank(mats) -> int:
    """Dimension of the span of the given matrices (or vectors).

    Inputs are stacked along the first axis of one array, or given as a
    sequence of same-shape arrays; ragged input raises ``ValueError``. Each
    is flattened into one row; the rank is the number of singular values
    exceeding ``DEFAULT_RANK_TOL`` times the stack's Frobenius norm, the
    certifier's prefix cutoff. Empty input: rank 0.
    """
    if len(mats) == 0:
        return 0
    stack = np.asarray(mats, dtype=complex).reshape(len(mats), -1)
    svals = np.linalg.svd(stack, compute_uv=False)
    return int(np.count_nonzero(svals > DEFAULT_RANK_TOL
                                * np.linalg.norm(svals)))
