"""Per-node reference for the hyperplane-flat search of ``nlwe.certify``.

``nlwe.certify._hyperplanes`` grows its whole search in stacked blocks of
nodes. This version grows one node at a time and tells ``tick`` of each
node's growths before computing them, so tests can check the blocked
search's masks, their order, its tick total and where a budget stops it
against it.
"""

import numpy as np

from nlwe.certify import _STACK_ENTRIES
from nlwe.linalg import DEFAULT_RANK_TOL


def hyperplanes(kets: np.ndarray, tick) -> np.ndarray:
    """Every flat of rank d - 1 of the unit rows of ``kets``, as (F, K) masks.

    Each flat is generated once, by residual growth: a flat whose greedy
    basis is b_1 < ... < b_r grows only by a row j > b_r outside it, every
    row's residual losing its component along j's, and the growth is
    dropped when the new closure takes in a row below j. Flats therefore
    come in lexicographic order of their rows. A row lies in the closure
    when its residual is at most ``DEFAULT_RANK_TOL``. ``tick(m)`` is told
    of each block of m growths before their closures are computed.
    """
    k, d = kets.shape
    step = max(1, _STACK_ENTRIES // (k * d))
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
