"""Dense D x D reference formulas for the error bound.

``nlwe.bound`` evaluates the scaled zonotope distance on an N x N matrix
built from local parts. These slow versions form the global operators, so
tests can check that kernel and the bound's lemmas independently.
"""

import warnings
from functools import reduce

import numpy as np

from nlwe.bound import TRACE_FLOOR


def kron_all(mats) -> np.ndarray:
    return reduce(np.kron, mats)


class ProductOperator:
    """PSD product operator kron(L_a^dag L_a) from per-party factors L_a;
    a (1, d) factor gives a rank-1 local part."""

    def __init__(self, factors):
        self.factors = tuple(np.atleast_2d(np.asarray(f, dtype=complex))
                             for f in factors)
        self.dims = tuple(f.shape[1] for f in self.factors)

    def psd_factors(self) -> list[np.ndarray]:
        return [f.conj().T @ f for f in self.factors]

    def matrix(self) -> np.ndarray:
        return kron_all(self.psd_factors())


def discrimination_operator(s) -> np.ndarray:
    """Pi = sum_m sqrt(p_m) |v_m><v_m|."""
    v = s.global_matrix()
    return (v.T * np.sqrt(s.priors)) @ v.conj()


def _coefficients(q, s):
    """p_m <v_m|Q|v_m>, the state-basis diagonal of Pi Q Pi, and the states."""
    v = s.global_matrix()
    return s.priors * np.einsum("md,de,me->m", v.conj(), q, v).real, v


def nearest_zonotope_point(q, s) -> np.ndarray:
    """Sum of state projectors, coefficients in [0, 1], nearest Pi Q Pi."""
    coeff, v = _coefficients(q, s)
    return (v.T * np.clip(coeff, 0.0, 1.0)) @ v.conj()


def zonotope_distance(q, s) -> float:
    """|Pi Q Pi - Z| / Tr(Pi Q Pi), Z the nearest point of the cone of
    nonnegative projector sums; 0, with a warning, below TRACE_FLOOR."""
    pi = discrimination_operator(s)
    qhat = pi @ q @ pi
    t = qhat.trace().real
    if t < TRACE_FLOOR:
        warnings.warn("operator has no overlap with the states; "
                      "distance defined as 0", RuntimeWarning, stacklevel=2)
        return 0.0
    coeff, v = _coefficients(q, s)
    z = (v.T * np.maximum(coeff, 0.0)) @ v.conj()
    return float(np.linalg.norm(qhat - z) / t)


def quadratic_over_linear_gap(terms) -> float:
    """Slack in sum |M_i|^2 / t_i >= |sum M_i|^2 / sum t_i, t_i > 0."""
    terms = [(np.asarray(m, dtype=complex), float(t)) for m, t in terms]
    if not terms:
        raise ValueError("need at least one term")
    if any(t <= 0 for _, t in terms):
        raise ValueError("weights must be positive")
    mats, weights = zip(*terms)
    lhs = sum(np.linalg.norm(m) ** 2 / t for m, t in terms)
    return float(lhs - np.linalg.norm(sum(mats)) ** 2 / sum(weights))


def segment_distance_inequality(q_p, q_s, y, s, tol=1e-9) -> bool:
    """Whether Tr(Pi Q Pi) * distance is convex at y along the segment
    between two product operators that differ in one party's factor."""
    if not 0.0 <= y <= 1.0:
        raise ValueError("y must lie in [0, 1]")
    if q_p.dims != q_s.dims:
        raise ValueError("operators act on different spaces")
    if sum(not (a.shape == b.shape and np.allclose(a, b))
           for a, b in zip(q_p.psd_factors(), q_s.psd_factors())) > 1:
        raise ValueError("operators must share all but one party's factor")
    pi = discrimination_operator(s)

    def scaled(q):
        return (pi @ q @ pi).trace().real * zonotope_distance(q, s)

    qp, qs = q_p.matrix(), q_s.matrix()
    mix = (1 - y) * scaled(qp) + y * scaled(qs)
    return scaled((1 - y) * qp + y * qs) <= mix + tol
