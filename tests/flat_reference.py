"""References for the UPB decisions of ``nlwe.certify``.

``nlwe.certify._hyperplanes`` grows its whole search in stacked blocks of
nodes. :func:`hyperplanes` grows one node at a time, in steps of its own
``_STEP_ENTRIES`` complex entries, far larger than the blocked search's
chunks, and tells ``tick`` of each step's growths before computing them,
so tests can check the blocked search's masks, their order, its tick
total and where a budget stops it against it. :func:`closure_rank` is
the closure rule for one member mask, one row at a time, and
:func:`subset_minimal` the minimality test by one
singular-value decomposition per d-subset of each party's kets.
"""

import itertools

import numpy as np

from nlwe.certify import minimal_upb_count
from nlwe.linalg import DEFAULT_RANK_TOL

# Complex entries per stacked array of one node's growths (32 MB).
_STEP_ENTRIES = 1 << 21


def hyperplanes(kets: np.ndarray, tick) -> np.ndarray:
    """Every flat of rank d - 1 of the unit rows of ``kets``, as (F, K) masks.

    Each flat is generated once, by residual growth: a flat whose greedy
    basis is b_1 < ... < b_r grows only by a row j > b_r outside it, every
    row's residual losing its component along j's, and the growth is
    dropped when the new closure takes in a row below j. Flats therefore
    come in lexicographic order of their rows. A row lies in the closure
    when its residual is at most ``DEFAULT_RANK_TOL``. ``tick(m)`` is told
    of each step of m growths before their closures are computed.
    """
    k, d = kets.shape
    step = max(1, _STEP_ENTRIES // (k * d))
    # With d = 1 the one flat of rank 0 is the closure of nothing.
    flats = [np.zeros((1 if d == 1 else 0, k), dtype=bool)]

    def grow(resid, closed, dist, rank=0, last=-1):
        # resid: each row's residual against the flat ``closed``; dist: norms
        cand = last + 1 + (~closed[last + 1:]).nonzero()[0]
        for start in range(0, len(cand), step):
            js = cand[start:start + step]
            tick(len(js))
            u = resid[js] / dist[js, None]
            coef = u.conj() @ resid.T
            dists = np.linalg.norm(resid - coef[..., None] * u[:, None], axis=2)
            now = closed | (dists <= DEFAULT_RANK_TOL)
            early = (now & ~closed) & (np.arange(k) < js[:, None])
            keep = (~early.any(axis=1)).nonzero()[0]
            if rank + 1 == d - 1:
                flats.append(now[keep])
                continue
            for c in keep:
                grow(resid - coef[c, :, None] * u[c], now[c], dists[c],
                     rank + 1, js[c])

    if d > 1:
        grow(kets, np.zeros(k, dtype=bool), np.linalg.norm(kets, axis=1))
    return np.concatenate(flats)


def closure_rank(kets: np.ndarray, mask: np.ndarray) -> int:
    """Closure rank of the rows of ``kets`` in ``mask``.

    Row by row, in row order, Gram-Schmidt takes a row's residual against
    the basis so far, and the row joins the basis when that residual
    exceeds ``DEFAULT_RANK_TOL``; the count stops at d.
    """
    basis = []
    for row in kets[mask]:
        for u in basis:
            row = row - (u.conj() @ row) * u
        norm = np.linalg.norm(row)
        if norm > DEFAULT_RANK_TOL and len(basis) < kets.shape[1]:
            basis.append(row / norm)
    return len(basis)


def subset_minimal(s) -> bool:
    """Whether ``s`` has the minimal member count and, on every party,
    every d of its local kets are independent: each d-subset's smallest
    singular value exceeds ``DEFAULT_RANK_TOL`` times its largest."""
    if s.n_states != minimal_upb_count(s.dims):
        return False
    for alpha, d in enumerate(s.dims):
        subsets = list(itertools.combinations(range(s.n_states), d))
        svals = np.linalg.svd(s.local_matrix(alpha)[np.array(subsets)],
                              compute_uv=False)
        if (svals[:, -1] <= DEFAULT_RANK_TOL * svals[:, 0]).any():
            return False
    return True
