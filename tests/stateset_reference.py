"""Per-member reference for the state-set layout of ``nlwe.families``.

``nlwe.families.StateSet`` stores a product set as one (N, d_a) ket array
per party, normalizes and checks each party's array at once, and
``merge_cut`` forms each block's kets as one row-wise Kronecker product.
These versions keep one tuple of kets per member, normalize each ket on its
own and tensor members one at a time, so tests can check the stored kets,
the priors and the error messages of the package against them.
"""

import math

import numpy as np

from nlwe.families import (
    FILE_FORMAT_VERSION,
    ORTHOGONALITY_TOL,
    PRIOR_SUM_TOL,
    is_plain_int,
)
from nlwe.linalg import normalized, tensor


class ReferenceStateSet:
    """Orthogonal pure states with priors, stored member by member."""

    def __init__(self, dims, states, priors=None, *, validate: bool = True):
        if not all(map(is_plain_int, dims := tuple(dims))):
            raise ValueError(f"dims {dims!r} must be integers")
        dims = tuple(int(d) for d in dims)
        if len(dims) < 1 or any(d < 1 for d in dims):
            raise ValueError("need at least one party with local dimension >= 1")
        total = math.prod(dims)
        packed = []
        for m, entry in enumerate(states):
            kets = tuple(normalized(k) for k in entry)
            if len(kets) == len(dims):
                if tuple(k.size for k in kets) != dims:
                    raise ValueError(
                        f"state {m}: local dimensions "
                        f"{tuple(k.size for k in kets)} do not match {dims}"
                    )
            elif len(kets) == 1 and kets[0].size == total:
                pass  # entangled member, stored as a global ket
            else:
                raise ValueError(
                    f"state {m}: expected {len(dims)} local kets or a single "
                    f"{total}-dimensional ket"
                )
            packed.append(kets)
        if not packed:
            raise ValueError("state set is empty")
        n = len(packed)
        if priors is None:
            priors = np.full(n, 1.0 / n)
        priors = np.asarray(priors, dtype=float).reshape(-1)
        if priors.size != n:
            raise ValueError(f"expected {n} priors, got {priors.size}")
        if not np.all(np.isfinite(priors) & (priors > 0)):
            raise ValueError("priors must be finite and positive")
        if abs(priors.sum() - 1.0) > PRIOR_SUM_TOL:
            raise ValueError(f"priors sum to {priors.sum()!r}, expected 1")
        self.dims = dims
        self.states = tuple(packed)
        self.priors = priors
        if validate:
            self._check_orthogonality()

    @property
    def parties(self) -> int:
        return len(self.dims)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def is_product(self, m: int) -> bool:
        return len(self.states[m]) == self.parties

    @property
    def all_product(self) -> bool:
        return all(self.is_product(m) for m in range(self.n_states))

    def local_state(self, m: int, party: int) -> np.ndarray:
        if not self.is_product(m):
            raise ValueError(f"state {m} has no product form")
        return self.states[m][party]

    def local_matrix(self, party: int) -> np.ndarray:
        return np.vstack([self.local_state(m, party)
                          for m in range(self.n_states)])

    def global_state(self, m: int) -> np.ndarray:
        kets = self.states[m]
        if len(kets) == 1:
            return kets[0]
        return tensor(kets)

    def global_matrix(self) -> np.ndarray:
        return np.vstack([self.global_state(m) for m in range(self.n_states)])

    def _check_orthogonality(self):
        factors = ([self.local_matrix(a) for a in range(self.parties)]
                   if self.all_product else [self.global_matrix()])
        overlap = np.abs(math.prod(v.conj() @ v.T for v in factors))
        bad = np.argwhere(np.triu(overlap > ORTHOGONALITY_TOL, k=1))
        if bad.size:
            i, j = bad[0]
            raise ValueError(
                f"states {i} and {j} are not orthogonal: "
                f"|<i|j>| = {overlap[i, j]:.3e}"
            )


def reference_merge_cut(s, cut) -> ReferenceStateSet:
    """Regroup the parties of ``s`` by ``cut``, tensoring member by member."""
    if cut.parties != s.parties:
        raise ValueError(
            f"cut covers {cut.parties} parties but the set has {s.parties}"
        )
    new_dims = tuple(math.prod(s.dims[i] for i in b) for b in cut.blocks)
    perm = [i for b in cut.blocks for i in b]
    entries = []
    for m in range(s.n_states):
        if s.is_product(m):
            entries.append(
                tuple(tensor([s.local_state(m, i) for i in b]) for b in cut.blocks)
            )
        else:
            g = s.global_state(m).reshape(s.dims)
            entries.append((np.transpose(g, perm).reshape(-1),))
    return ReferenceStateSet(new_dims, entries, s.priors)


def reference_from_payload(payload: dict) -> ReferenceStateSet:
    """Rebuild a state set from a payload, one amplitude at a time."""
    if not isinstance(payload, dict):
        raise ValueError("state-set payload must be an object")
    version = payload.get("version")
    if not is_plain_int(version):
        raise ValueError(f"malformed state-set payload: version {version!r}")
    if version != FILE_FORMAT_VERSION:
        raise ValueError(f"unsupported file version {version!r}")
    try:
        dims = payload["dims"]
        if not all(map(is_plain_int, dims)):
            raise ValueError(f"dims {dims!r} must be integers")
        if any(isinstance(p, str) for p in payload["priors"]):
            raise ValueError("priors must be numbers, not strings")
        priors = [float(p) for p in payload["priors"]]
        states = [
            [np.array([complex(re, im) for re, im in ket]) for ket in entry]
            for entry in payload["states"]
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed state-set payload: {exc}") from exc
    return ReferenceStateSet(dims, states, priors)
