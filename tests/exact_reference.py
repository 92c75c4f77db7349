"""Exact reference for the certifier on the families with cyclotomic kets.

Every local ket of ``tiles``, ``halder_states``, the unrotated dominoes,
``two_qubit_demo`` and ``gentiles1(n)`` is a unit multiple of a vector whose
entries are c zeta_m^e, with c a nonnegative integer and zeta_m = e^{2 pi i
/ m}: m = 2 (signs) for the integer families, and m = n / 2 for
``gentiles1(n)``, whose comb phases are powers of omega = e^{4 pi i / n}.
So is every ket of ``rotated_dominoes`` whose angles have rational cosines
and sines, such as cos = 4/5 and 12/13: there 65 times each unit ket is an
integer vector. :func:`monomial_kets` recovers those entries. An overlap is
then an integer polynomial in zeta_m, which is exactly zero iff it vanishes
modulo the cyclotomic polynomial Phi_m. Ranks are taken in GF(p), with
zeta_m sent to an element of order m; the rank mod p never exceeds the
exact rank.
"""

import numpy as np

# 2,147,024,881 = 2979 * 720720 + 1, prime. 720720 = lcm(1, ..., 16), so
# GF(p) holds an element of order m for every m <= 16, and products of two
# residues fit in int64.
PRIME = 2979 * 720720 + 1


def monomial_kets(v: np.ndarray, m: int,
                  denominator: int | None = None) -> tuple[np.ndarray,
                                                           np.ndarray]:
    """Each row of ``v`` as entries c zeta_m^e: the integer arrays (c, e),
    c >= 0 and 0 <= e < m. Rows are multiplied by ``denominator`` when it is
    given, a common denominator of their entries, and otherwise divided by
    their least nonzero magnitude.

    Raises ``ValueError`` for an entry not within 1e-9 of such a value.
    """
    if denominator is None:
        mag = np.abs(v)
        scaled = v / np.where(mag > 1e-9, mag, np.inf).min(axis=1)[:, None]
    else:
        scaled = v * denominator
    c = np.rint(np.abs(scaled)).astype(np.int64)
    e = np.rint(np.angle(scaled) * m / (2 * np.pi)).astype(np.int64) % m
    exact = c * np.exp(2j * np.pi * e / m)
    if np.abs(scaled - exact).max(initial=0.0) > 1e-9:
        raise ValueError(f"kets are not monomials in zeta_{m}")
    return c, np.where(c == 0, 0, e)


def integer_kets(v: np.ndarray) -> np.ndarray:
    """Each row of ``v`` divided by its least nonzero magnitude, as signed
    integers: ``monomial_kets`` with m = 2."""
    c, e = monomial_kets(v, 2)
    return c * (1 - 2 * e)


def cyclotomic(m: int) -> np.ndarray:
    """Phi_m's integer coefficients, lowest degree first: x^m - 1 divided
    by Phi_d for every proper divisor d of m."""
    poly = np.zeros(m + 1, dtype=np.int64)
    poly[[0, m]] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            divisor = cyclotomic(d)
            quotient = np.zeros(len(poly) - len(divisor) + 1, dtype=np.int64)
            for k in range(len(quotient) - 1, -1, -1):
                quotient[k] = poly[k + len(divisor) - 1]
                poly[k:k + len(divisor)] -= quotient[k] * divisor
            poly = quotient
    return poly


def exact_overlaps_zero(v: np.ndarray, m: int,
                        denominator: int | None = None) -> np.ndarray:
    """Which overlaps <v_i|v_j> are exactly zero, for rows of entries
    c zeta_m^e (``monomial_kets``): their integer polynomials in zeta_m,
    reduced modulo Phi_m (monic, so the division stays integral)."""
    c, e = monomial_kets(v, m, denominator)
    # h[i, k, r] is entry k of row i's coefficient of zeta^r.
    h = c[:, :, None] * (e[:, :, None] == np.arange(m))
    poly = np.zeros((len(v), len(v), m), dtype=np.int64)
    for a in range(m):
        # conj(zeta^a) zeta^(b + a) = zeta^b.
        poly += np.einsum("ik,jkb->ijb", h[:, :, a], np.roll(h, -a, axis=2))
    phi = cyclotomic(m)
    for top in range(m - 1, len(phi) - 2, -1):
        lead = poly[:, :, top].copy()
        poly[:, :, top - len(phi) + 1:top + 1] -= lead[:, :, None] * phi
    return ~poly.any(axis=2)


def exact_pairs(s, party: int, m: int,
                denominator: int | None = None) -> np.ndarray:
    """``np.argwhere`` of the exclusive-pair mask from exact overlaps."""
    mask = ~np.eye(s.n_states, dtype=bool)
    for beta in range(s.parties):
        zero = exact_overlaps_zero(s.local_matrix(beta), m, denominator)
        mask &= zero if beta == party else ~zero
    return np.argwhere(mask)


def root_of_unity(m: int) -> int:
    """The first element of order m in GF(``PRIME``), taking g^((p-1)/m) for
    g = 2, 3, ..."""
    for g in range(2, PRIME):
        z = pow(g, (PRIME - 1) // m, PRIME)
        if all(pow(z, k, PRIME) != 1 for k in range(1, m)):
            return z
    raise ValueError(f"no element of order {m}")


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


def dyad_rank_mod_p(s, party: int, pairs: np.ndarray, m: int,
                    denominator: int | None = None) -> int:
    """Rank mod ``PRIME`` of the distinct dyads |w_i><w_j|, with zeta_m sent
    to ``root_of_unity(m)`` and its conjugate to the inverse."""
    c, e = monomial_kets(s.local_matrix(party), m, denominator)
    z = root_of_unity(m)
    powers = np.array([pow(z, k, PRIME) for k in range(m)])
    ket, bra = c * powers[e] % PRIME, c * powers[-e % m] % PRIME
    dyads = ket[pairs[:, 0], :, None] * bra[pairs[:, 1], None, :] % PRIME
    return rank_mod_p(np.unique(dyads.reshape(len(pairs), -1), axis=0))


def integer_det(rows) -> int:
    """Exact determinant of a small square integer matrix, by cofactors."""
    m = [[int(x) for x in row] for row in rows]
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * integer_det([r[:j] + r[j + 1:]
                                                  for r in m[1:]])
               for j in range(len(m)))
