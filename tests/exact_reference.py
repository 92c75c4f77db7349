"""Exact integer reference for the certifier on the integer families.

Every local ket of ``tiles``, ``halder_states``, the unrotated dominoes,
``two_qubit_demo`` and ``gentiles1(4)`` (where omega = -1) is a unit
multiple of an integer vector. :func:`integer_kets` recovers those vectors,
so overlaps are exact integers and ranks can be taken modulo a prime:
the rank mod p never exceeds the rank over Q.
"""

import numpy as np

# The Mersenne prime 2^31 - 1: products of two residues fit in int64.
PRIME = (1 << 31) - 1


def integer_kets(v: np.ndarray) -> np.ndarray:
    """Each row of ``v`` divided by its least nonzero magnitude, as integers.

    Raises ``ValueError`` for a row that is not real, or that does not
    round to integers within 1e-9.
    """
    if np.abs(v.imag).max(initial=0.0) > 1e-9:
        raise ValueError("kets are not real")
    re = v.real
    smallest = np.where(np.abs(re) > 1e-9, np.abs(re), np.inf).min(axis=1)
    scaled = re / smallest[:, None]
    out = np.rint(scaled)
    if np.abs(scaled - out).max(initial=0.0) > 1e-9:
        raise ValueError("kets do not scale to integers")
    return out.astype(np.int64)


def exact_pairs(s, party: int) -> np.ndarray:
    """``np.argwhere`` of the exclusive-pair mask from exact integer Grams."""
    mask = ~np.eye(s.n_states, dtype=bool)
    for beta in range(s.parties):
        w = integer_kets(s.local_matrix(beta))
        gram = w @ w.T
        mask &= (gram == 0) if beta == party else (gram != 0)
    return np.argwhere(mask)


def rank_mod_p(rows: np.ndarray) -> int:
    """Rank of an integer matrix over GF(``PRIME``), by row reduction."""
    m = np.asarray(rows, dtype=np.int64) % PRIME
    rank = 0
    for col in range(m.shape[1]):
        pivots = np.flatnonzero(m[rank:, col]) + rank
        if len(pivots) == 0:
            continue
        m[[rank, pivots[0]]] = m[[pivots[0], rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), PRIME - 2, PRIME) % PRIME
        rest = np.arange(len(m)) != rank
        m[rest] = (m[rest] - np.outer(m[rest, col], m[rank])) % PRIME
        rank += 1
        if rank == len(m):
            break
    return rank


def dyad_rank_mod_p(s, party: int, pairs: np.ndarray) -> int:
    """Rank mod ``PRIME`` of the distinct integer dyads |w_i><w_j|."""
    w = integer_kets(s.local_matrix(party))
    dyads = w[pairs[:, 0], :, None] * w[pairs[:, 1], None, :]
    return rank_mod_p(np.unique(dyads.reshape(len(pairs), -1), axis=0))


def integer_det(rows) -> int:
    """Exact determinant of a small square integer matrix, by cofactors."""
    m = [[int(x) for x in row] for row in rows]
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * integer_det([r[:j] + r[j + 1:]
                                                  for r in m[1:]])
               for j in range(len(m)))
