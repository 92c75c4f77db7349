"""Shared helpers: seeded randomness, local-unitary scrambling, references."""

from __future__ import annotations

import math

import numpy as np
import pytest

from nlwe.bound import _objective
from nlwe.families import (
    StateSet,
    _gentiles1_comb,
    gentiles1,
    halder_states,
    rotated_dominoes,
    tiles,
)
from nlwe.linalg import dyad


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def objective_at(x, problem, shapes, weight, rsq_target):
    """``nlwe.bound._objective`` at one point x (n,): its value and its (n,)
    gradient, from a stack of one."""
    values, grads = _objective(np.asarray(x)[None], problem, shapes, weight,
                               rsq_target)
    return values[0], grads[0]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def apply_local_unitaries(s: StateSet, unitaries) -> StateSet:
    """Rotate every party's local states; preserves all inner products."""
    entries = []
    for m in range(s.n_states):
        if s.is_product(m):
            entries.append(tuple(
                unitaries[alpha] @ s.local_state(m, alpha)
                for alpha in range(s.parties)
            ))
        else:
            full = unitaries[0]
            for u in unitaries[1:]:
                full = np.kron(full, u)
            entries.append((full @ s.global_state(m),))
    return StateSet(s.dims, entries, s.priors)


def permute_states(s: StateSet, order) -> StateSet:
    return StateSet(
        s.dims,
        [s.states[i] for i in order],
        [s.priors[i] for i in order],
    )


def general_position_upb(d: int, seed: int) -> StateSet:
    """A d x d minimal UPB of 2d - 1 members in general position, d odd.

    Members i and j are orthogonal on party 0 when they sit at circulant
    distance 1 ... (d - 1)/2, and on party 1 otherwise (Alon and Lovasz,
    J. Combin. Theory A 95, 2001). Each party's kets are drawn in member
    order from ``default_rng([d, seed])`` as complex Gaussians, each
    projected orthogonal to the earlier members it must be orthogonal to on
    that party, then normalized; so every d of them are independent with
    probability one.
    """
    if d < 3 or d % 2 == 0:
        raise ValueError(f"d must be odd and >= 3, got {d}")
    n = 2 * d - 1
    rng = np.random.default_rng([d, seed])
    kets = ([], [])
    for party, column in enumerate(kets):
        for j in range(n):
            earlier = [column[i] for i in range(j)
                       if (min(j - i, n - j + i) <= (d - 1) // 2)
                       == (party == 0)]
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            if earlier:
                q = np.linalg.qr(np.array(earlier).T)[0]
                v = v - q @ (q.conj().T @ v)
            column.append(v / np.linalg.norm(v))
    return StateSet((d, d), list(zip(*kets)))


def near_dependent_upb(d: int, seed: int, party: int, eps: float,
                       j: int) -> StateSet:
    """``general_position_upb(d, seed)`` with ket j of ``party`` moved to
    distance ``eps`` from the span of d - 1 other kets of that party.

    The d - 1 kets are drawn from ``default_rng([d, seed, party, j])``. The
    moved ket keeps its projection onto their span, rescaled to norm
    sqrt(1 - eps^2), and its unit direction off the span, scaled to eps. The
    set is no longer orthogonal, so it is built unvalidated.
    """
    s = general_position_upb(d, seed)
    kets = [s.local_matrix(alpha).copy() for alpha in range(2)]
    v = kets[party]
    others = np.random.default_rng([d, seed, party, j]).choice(
        np.delete(np.arange(len(v)), j), size=d - 1, replace=False)
    q = np.linalg.qr(v[others].T)[0]
    inside = q @ (q.conj().T @ v[j])
    off = v[j] - inside
    v[j] = (math.sqrt(1 - eps ** 2) * inside / np.linalg.norm(inside)
            + eps * off / np.linalg.norm(off))
    return StateSet((d, d), list(zip(*kets)), validate=False)


def shifts_upb() -> StateSet:
    """The three-qubit Shifts UPB: |0,1,+>, |1,+,0>, |+,0,1>, |-,-,->."""
    zero, one = np.eye(2)
    plus, minus = np.array([1.0, 1.0]), np.array([1.0, -1.0])
    return StateSet((2, 2, 2), [(zero, one, plus), (one, plus, zero),
                                (plus, zero, one), (minus, minus, minus)])


def one_way_product_set(d0: int, d1: int, seed: int) -> StateSet:
    """A d0 x d1 product basis that one-way LOCC discriminates perfectly.

    Party 0 measures in a Haar-random basis U; on outcome k, party 1
    measures in its own Haar-random basis V_k. The members are
    (U[:, k], V_k[:, j]) with random priors, all drawn from
    ``default_rng([d0, d1, seed])``. The set's discrimination error is 0, so
    the true inner minimum of the bound is 0 at every radius.
    """
    rng = np.random.default_rng([d0, d1, seed])
    u = haar_unitary(d0, rng)
    members = []
    for k in range(d0):
        v = haar_unitary(d1, rng)
        members += [(u[:, k], v[:, j]) for j in range(d1)]
    priors = rng.random(len(members)) + 0.1
    return StateSet((d0, d1), members, priors / priors.sum())


def dropped_subsets() -> list[tuple[str, StateSet]]:
    """The "never both" sample: (family, subset) pairs, 8 subsets per count
    of dropped members (1, 2 and 3) of each of four certified families.

    One ``default_rng(7)`` draws each subset's kept members with
    ``choice(N, N - dropped, replace=False)``, family by family in the
    order below; the subset keeps them in member order, with uniform priors.
    """
    rng = np.random.default_rng(7)
    subsets = []
    for name, s in (("tiles", tiles()), ("halder-full", halder_states("full")),
                    ("gentiles1-4", gentiles1(4)),
                    ("dominoes", rotated_dominoes(0.3, 0.4, 0.5, 0.6))):
        for dropped in (1, 2, 3):
            for _ in range(8):
                keep = np.sort(rng.choice(s.n_states, s.n_states - dropped,
                                          replace=False))
                subsets.append(
                    (name, StateSet(s.dims, [s.states[i] for i in keep])))
    return subsets


def gentiles1_witness_dyads(n: int) -> list[np.ndarray]:
    """Explicit traceless dyads on the first party of ``gentiles1(n)``.

    This hand-picked list of n^2 - 1 dyads spans the full traceless operator
    space, witnessing that the family is certifiable on that party.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 4, got {n}")
    half = n // 2
    e = np.eye(n)
    f = np.ones(n)

    def h(k, m):
        return _gentiles1_comb(n, k, m, 0)

    out = []
    for i in range(n):
        for j in range(n):
            if j == i or j == (i + half) % n:
                continue
            out.append(dyad(e[i], e[j]))
    for m in range(1, half):
        out.append(dyad(f, h(0, m)))
        out.append(dyad(h(0, m), f))
    out.append(dyad(f, h(1, 1)))
    out.append(dyad(h(1, 1), f))
    for k in range(2, half + 1):
        out.append(dyad(f, h(k, 1)))
    for el in range(2, half):
        out.append(dyad(h(1, 1), h(1, el)))
    out.append(dyad(h(1, 2), h(1, 1)))
    out.append(dyad(h(0, 1), e[half]))
    return out
