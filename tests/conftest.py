"""Shared helpers: seeded randomness, local-unitary scrambling, references."""

from __future__ import annotations

import numpy as np
import pytest

from nlwe.families import StateSet, _gentiles1_comb
from nlwe.linalg import dyad


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


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
