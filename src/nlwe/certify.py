"""Certificates of LOCC-indiscriminability for orthogonal product-state sets.

The core criterion is sufficient, not necessary: for each party, collect the
state pairs that are orthogonal on that party alone, and check whether the
corresponding local dyads span the full traceless operator space. When every
party saturates, no nontrivial product operator near the identity preserves
orthogonality of the set, and the verdict is CERTIFIED_INDISCRIMINABLE. The
negative outcome is always INCONCLUSIVE, never "discriminable".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .families import (PartyCut, StateSet, is_plain_int, is_real, merge_cut,
                       plain_ints)
from .linalg import DEFAULT_RANK_TOL, dyad, numerical_rank

# Overlap threshold used both for "orthogonal on this party" and for
# "non-orthogonal everywhere else". A pair falling in between is dropped,
# which can only weaken a certificate, never falsely issue one.
DEFAULT_PAIR_TOL = 1e-9

CERTIFIED_INDISCRIMINABLE = "CERTIFIED_INDISCRIMINABLE"
INCONCLUSIVE = "INCONCLUSIVE"


class EnumerationBudgetExceeded(RuntimeError):
    """Raised when a search would visit more nodes than its budget allows."""


def _require_product(s: StateSet, what: str):
    if not s.all_product:
        raise ValueError(f"{what} requires product-form states")


@dataclass(frozen=True)
class PartyRecord:
    """Per-party outcome: the exclusive pairs, their dyad span, the target."""

    party: int
    pairs: np.ndarray
    span_rank: int
    required: int

    @property
    def saturated(self) -> bool:
        return self.span_rank >= self.required

    def to_dict(self) -> dict:
        return {
            "party": self.party,
            "pair_count": len(self.pairs),
            "span_rank": self.span_rank,
            "required": self.required,
            "saturated": self.saturated,
        }


@dataclass(frozen=True)
class DyadCertificate:
    records: tuple[PartyRecord, ...]
    verdict: str

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "parties": [r.to_dict() for r in self.records],
        }


def check_pair_tol(tol: float) -> None:
    """Raise ``ValueError`` unless the overlap tolerance is a finite real
    number > 0; bools are refused."""
    if not (is_real(tol) and math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def exclusive_pairs(s: StateSet, party: int,
                    tol: float = DEFAULT_PAIR_TOL) -> np.ndarray:
    """Ordered state pairs orthogonal on ``party`` and nowhere else.

    Returns a (P, 2) integer array of every (i, j) with i != j whose local
    overlap on ``party`` is at most ``tol`` in magnitude while every other
    party's overlap exceeds it, in row-major order of (i, j). The rows are
    symmetric under swapping i and j.
    """
    _require_product(s, "pair extraction")
    if not 0 <= party < s.parties:
        raise ValueError(f"party {party} out of range for {s.parties} parties")
    check_pair_tol(tol)
    mask = ~np.eye(s.n_states, dtype=bool)
    for beta in range(s.parties):
        v = s.local_matrix(beta)
        overlap = np.abs(v.conj() @ v.T)
        mask &= (overlap <= tol) if beta == party else (overlap > tol)
    return np.argwhere(mask)


def _distinct_kets(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exactly distinct rows of ``v`` by first occurrence, and each row's id."""
    _, first, inverse = np.unique(v, axis=0, return_index=True,
                                  return_inverse=True)
    reps = np.sort(first)
    return v[reps], np.searchsorted(reps, first[inverse.reshape(-1)])


def dyad_span_rank(s: StateSet, party: int, pairs) -> int:
    """Rank of the local dyads |psi_i><psi_j| over the given index pairs.

    Pairs with exactly the same two local kets give a bit-identical dyad,
    so one dyad per distinct (ket, ket) is ranked; tile constructions reuse
    each local ket across many members.

    The distinct dyads form one stack S in a fixed pseudo-random order, and
    the rank is #{sigma_k(S) > tol F}, tol = ``DEFAULT_RANK_TOL`` and
    F = ||S||_F. One loop ranks prefixes P of d^2 + d, 2 (d^2 + d), ...
    rows while P is at most a quarter of S, and stops at the first that
    settles S. sigma_k(S) >= sigma_k(P) gives rank >= #{sigma_k(P) > tol F};
    sigma_{d^2}(S) <= tau, the norm of S's identity component, gives
    rank <= d^2 - 1 when tau <= tol sigma_1(P) <= tol F. P settles S when
    the two bounds meet. If none does, the last step ranks the whole of S
    (``numerical_rank``, the same cutoff); prefixes that settle nothing add
    under half of S's rows. The first prefix has d rows to spare over the
    d^2 - 1 a saturated party must show: with one row to spare, scrambled
    GenTiles1 prefixes were often exactly rank-deficient and cost a second,
    twice larger SVD.
    """
    _require_product(s, "dyad ranking")
    if not 0 <= party < s.parties:
        raise ValueError(f"party {party} out of range for {s.parties} parties")
    idx = np.asarray(pairs, dtype=int).reshape(len(pairs), 2)
    out_of_range = ((idx < 0) | (idx >= s.n_states)).any(axis=1)
    bad = out_of_range | (idx[:, 0] == idx[:, 1])
    if bad.any():
        i, j = idx[np.argmax(bad)]
        raise ValueError(f"invalid index pair ({i}, {j})")
    kets, ket_id = _distinct_kets(s.local_matrix(party))
    k, d = kets.shape
    # The distinct pair ids in increasing order, from one sort.
    ids = np.sort(ket_id[idx[:, 0]] * k + ket_id[idx[:, 1]])
    ids = ids[np.diff(ids, prepend=-1) != 0]
    # ||S||_F and tau from the kets alone: ||a><b||_F = ||a|| ||b|| and
    # <I/sqrt(d), |a><b|> = <b|a>/sqrt(d).
    norms = np.linalg.norm(kets, axis=1)
    frob = np.linalg.norm(norms[ids // k] * norms[ids % k])
    mixed = np.random.default_rng(0).permutation(ids)
    left, right = kets[mixed // k], kets[mixed % k]
    tau = np.linalg.norm((left * right.conj()).sum(axis=1)) / math.sqrt(d)
    rows = d * d + d
    while 4 * rows <= len(ids):
        svals = np.linalg.svd(dyad(left[:rows], right[:rows]).reshape(rows, -1),
                              compute_uv=False)
        lower = np.count_nonzero(svals > DEFAULT_RANK_TOL * frob)
        upper = d * d - 1 if tau <= DEFAULT_RANK_TOL * svals[0] else d * d
        if lower == upper:
            return int(lower)
        rows *= 2
    return numerical_rank(dyad(left, right))


def certify(s: StateSet, tol: float = DEFAULT_PAIR_TOL) -> DyadCertificate:
    """Party-by-party dyad-span certificate for the whole set.

    CERTIFIED_INDISCRIMINABLE iff on every party the exclusive pairs' dyads
    span the full traceless space of dimension d^2 - 1.
    """
    records = []
    for party in range(s.parties):
        pairs = exclusive_pairs(s, party, tol)
        rank = dyad_span_rank(s, party, pairs)
        records.append(PartyRecord(party, pairs, rank, s.dims[party] ** 2 - 1))
    verdict = (CERTIFIED_INDISCRIMINABLE
               if all(r.saturated for r in records) else INCONCLUSIVE)
    return DyadCertificate(tuple(records), verdict)


def certify_cut(s: StateSet, cut: PartyCut,
                tol: float = DEFAULT_PAIR_TOL) -> DyadCertificate:
    """Certificate of the set with parties merged according to ``cut``."""
    if len(cut.blocks) < 2:
        raise ValueError("cut must have at least two blocks")
    return certify(merge_cut(s, cut), tol)


@dataclass(frozen=True)
class StrongNlweReport:
    """Whole-set certificate plus one certificate per bipartite grouping."""

    certified: bool
    single: DyadCertificate
    cuts: tuple[tuple[PartyCut, DyadCertificate], ...]

    def to_dict(self) -> dict:
        return {
            "certified": self.certified,
            "single": self.single.to_dict(),
            "cuts": [
                {"blocks": [list(b) for b in cut.blocks], **cert.to_dict()}
                for cut, cert in self.cuts
            ],
        }


def strong_nlwe(s: StateSet, tol: float = DEFAULT_PAIR_TOL) -> StrongNlweReport:
    """Certify indiscriminability for the set and every bipartite grouping."""
    if s.parties < 3:
        raise ValueError("strong nonlocality needs at least three parties")
    single = certify(s, tol)
    cuts = tuple(
        (cut, certify_cut(s, cut, tol)) for cut in PartyCut.bipartitions(s.parties)
    )
    certified = single.verdict == CERTIFIED_INDISCRIMINABLE and all(
        cert.verdict == CERTIFIED_INDISCRIMINABLE for _, cert in cuts
    )
    return StrongNlweReport(certified, single, cuts)


# ---------------------------------------------------------------------------
# Unextendible product bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtendibilityResult:
    """A witness split, if any, and each group's closure rank."""

    extendible: bool
    witness: tuple[tuple[int, ...], ...] | None
    witness_ranks: tuple[int, ...] | None


# Entries per stacked array of every UPB block (512 KB if complex). Past
# about this size the flat and closure blocks' temporaries were measured to
# cost several times more per entry.
_FLAT_ENTRIES = 1 << 15


def _children(block, nodes, js, leaf):
    """Kept children of a block of flats, each adding row ``js[i]`` to flat
    ``nodes[i]``, in the order given.

    A block holds, for each flat, every row's residual against it (B, K, d),
    its rows as a mask (B, K), the residual norms (B, K) and the last row
    of its greedy basis (B,). A child's residuals lose their components
    along row j's, and the child is dropped when its closure takes in a row
    below j. Returns the children as such a block, or only their masks when
    they are ``leaf`` flats.
    """
    resid, closed, dist, _ = block
    parent, closed = resid[nodes], closed[nodes]
    u = resid[nodes, js] / dist[nodes, js, None]
    coef = parent @ u.conj()[:, :, None]
    if leaf:
        # A row's new residual norm squared is dist^2 - |coef|^2 up to
        # rounding near eps, so only rows where that is at most 1e-12 can
        # close, and only theirs are formed.
        p, m = (~closed & (dist[nodes] ** 2 - abs(coef[..., 0]) ** 2
                           <= 1e-12)).nonzero()
        now = closed.copy()
        now[p, m] = np.linalg.norm(parent[p, m] - coef[p, m] * u[p],
                                   axis=1) <= DEFAULT_RANK_TOL
    else:
        resid = parent - coef * u[:, None]
        dist = np.linalg.norm(resid, axis=2)
        now = closed | (dist <= DEFAULT_RANK_TOL)
    early = (now & ~closed) & (np.arange(now.shape[1]) < js[:, None])
    keep = ~early.any(axis=1)
    if leaf:
        return now[keep]
    return resid[keep], now[keep], dist[keep], js[keep]


def _hyperplanes(kets: np.ndarray, tick) -> np.ndarray:
    """Every flat of rank d - 1 of the unit rows of ``kets``, as (F, K) masks.

    Each flat is generated once, by residual growth: a flat whose greedy
    basis is b_1 < ... < b_r grows only by a row j > b_r outside it, every
    row's residual losing its component along j's, and the growth is
    dropped when the new closure takes in a row below j. Flats therefore
    come in lexicographic order of their rows. A row lies in the closure
    when its residual is at most ``DEFAULT_RANK_TOL``.

    The search starts from a block of one flat, the empty one of rank 0,
    and grows depth-first in blocks: a block's children are formed in
    chunks, each stacked array holding at most ``_FLAT_ENTRIES`` complex
    entries, and each chunk is one block of the next rank, grown before the
    next chunk is formed. ``tick(m)`` is told of a chunk's m growths just
    before they are computed, and raises when they would pass the budget,
    so the search stops within one chunk of it.
    """
    k, d = kets.shape
    step = max(1, _FLAT_ENTRIES // (k * d))
    # With d = 1 the one flat of rank 0 is the closure of nothing.
    flats = [np.zeros((1 if d == 1 else 0, k), dtype=bool)]

    def grow(block, rank):
        nodes, js = (~block[1] & (np.arange(k) > block[3][:, None])).nonzero()
        for start in range(0, len(js), step):
            chunk = slice(start, start + step)
            tick(len(js[chunk]))
            children = _children(block, nodes[chunk], js[chunk], rank + 2 == d)
            if rank + 2 == d:
                flats.append(children)
            else:
                grow(children, rank + 1)

    if d > 1:
        grow((kets[None], np.zeros((1, k), dtype=bool),
              np.linalg.norm(kets, axis=1)[None], np.array([-1])), 0)
    return np.concatenate(flats)


def _closure_ranks(kets: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Closure rank of the unit rows of ``kets`` over each of the (F, N)
    member ``masks``: a row joins a greedy basis, in row order, unless its
    residual against it is at most ``DEFAULT_RANK_TOL`` (the flats' rule).

    The smallest eigenvalue of G = sum of b b^H over a mask's rows b is the
    square of their smallest singular value, and one (F x N) (N x d^2)
    product forms every G. With N unit rows ||G|| <= N, and forming G and
    its ``eigvalsh`` each err by at most about (N + d) eps ||G||. Rows within
    the tolerance of d - 1 directions give lambda_min(G) <= N 1e-16, below
    both twice that and 1e-12, so a mask passing both has rank d; the others
    grow by their first open row through :func:`_children`. Masks with the
    same greedy basis share its residuals, so each round grows every
    distinct (basis, first open row) once, with the rows below that row
    closed: they are outside the masks or in the basis's closure. Masks
    grow in chunks whose rows hold at most ``_FLAT_ENTRIES`` entries.
    """
    n, d = kets.shape
    outer = (kets[:, :, None] * kets[:, None, :].conj()).reshape(n, d * d)
    gram = (masks.astype(float) @ outer.view(float)).view(complex)
    lam = np.linalg.eigvalsh(gram.reshape(-1, d, d))[:, 0]
    cutoff = max(1e-12, 2 * (n + d) * n * np.finfo(float).eps)
    unclear = (lam <= cutoff).nonzero()[0]
    ranks = np.full(len(masks), d)
    step = max(1, _FLAT_ENTRIES // (n * d))
    for start in range(0, len(unclear), step):
        live = unclear[start:start + step]
        basis = np.zeros(len(live), dtype=int)
        block = (kets[None], np.zeros((1, n), dtype=bool),
                 np.linalg.norm(kets, axis=1)[None], None)
        closed = block[1]
        for rank in range(d - 1):
            rows = masks[live] & ~closed[basis]
            has = rows.any(axis=1)
            ranks[live[~has]] = rank
            live, basis, rows = live[has], basis[has], rows[has]
            key, basis = np.unique(basis * n + rows.argmax(axis=1),
                                   return_inverse=True)
            nodes, js = np.divmod(key, n)
            block = _children(
                (block[0][nodes], closed[nodes] | (np.arange(n) < js[:, None]),
                 block[2][nodes], None), np.arange(len(js)), js, rank + 2 == d)
            closed = block if rank + 2 == d else block[1]
        ranks[live] = d - 1 + (masks[live] & ~closed[basis]).any(axis=1)
    return ranks


def upb_extendibility(s: StateSet,
                      budget: int = 10_000_000) -> ExtendibilityResult:
    """Decide extendibility by a search over hyperplane flats of local kets.

    The set can be extended by another orthogonal product state iff its
    members can be split among the parties so that no party's local kets
    span its space; the witness split is returned when one exists. A short
    group lies inside some flat of rank d_a - 1 of party a's distinct kets,
    and enlarging it only shrinks what the other parties must hold. So the
    search gives party a every member whose ket lies in one such flat and
    recurses on the rest with party a + 1; the last party must be short on
    what is left. Flats come in lexicographic order of their members.

    Flat growths and partition nodes are counted against ``budget`` one
    block at a time, before the block is computed (see :func:`_hyperplanes`);
    the search raises ``EnumerationBudgetExceeded`` instead of computing a
    block that would pass it, naming the nodes visited and the block's size,
    so it stops within one block of its budget. Shortness and witness ranks
    follow the flats' rule, :func:`_closure_ranks`. ``budget`` must be a
    positive int.
    """
    if not is_plain_int(budget) or budget < 1:
        raise ValueError(f"budget must be a positive int, got {budget!r}")
    _require_product(s, "extendibility")
    parties, n = s.parties, s.n_states
    local = [s.local_matrix(alpha) for alpha in range(parties)]
    # Party alpha's flats over its distinct kets and each member's ket id.
    # Root party -1 keeps nothing, so party 0 is checked like the others.
    flats = {-1: (np.zeros((1, 1), dtype=bool), np.zeros(n, dtype=int))}
    visited = 0

    def tick(nodes):
        nonlocal visited
        if visited + nodes > budget:
            raise EnumerationBudgetExceeded(
                f"UPB search visited {visited} nodes and stopped before a "
                f"block of {nodes} would pass its budget of {budget}"
            )
        visited += nodes

    def search(members, alpha):
        # Party alpha's kets over ``members`` span its space.
        if alpha not in flats:
            kets, ket_id = _distinct_kets(local[alpha])
            flats[alpha] = _hyperplanes(kets, tick), ket_id
        held, ket_id = flats[alpha]
        nothing = [np.zeros(n, dtype=bool)] * (parties - alpha - 2)
        # A block's largest arrays: its (B, N) masks and (B, d^2) Grams.
        step = max(1, _FLAT_ENTRIES // max(n, s.dims[alpha + 1] ** 2))
        for start in range(0, len(held), step):
            block = held[start:start + step][:, ket_id]
            take, rest = block & members, ~block & members
            tick(len(rest))
            done = _closure_ranks(local[alpha + 1], rest) < s.dims[alpha + 1]
            for i in range(len(rest)):
                if done[i]:
                    return [take[i], rest[i], *nothing]
                if alpha + 2 < parties:
                    found = search(rest[i], alpha + 1)
                    if found is not None:
                        return [take[i], *found]
        return None

    found = search(np.ones(n, dtype=bool), -1)
    if found is None:
        return ExtendibilityResult(False, None, None)
    witness = tuple(tuple(int(m) for m in np.flatnonzero(group))
                    for group in found[1:])
    ranks = tuple(int(_closure_ranks(local[alpha], group[None])[0])
                  for alpha, group in enumerate(found[1:]))
    return ExtendibilityResult(True, witness, ranks)


def minimal_upb_count(dims) -> int:
    """Smallest possible member count of an unextendible product basis."""
    return sum(d - 1 for d in plain_ints(dims, "dims")) + 1


def minimal_upb_check(s: StateSet) -> bool:
    """Subset-independence test for minimal unextendible product bases.

    True iff the set has exactly the minimal member count and, on every
    party, every choice of d local states is linearly independent. For sets
    of that size this characterizes unextendibility. Independence is the
    flats' closure rule: a party passes iff each d-subset of its kets has
    closure rank d (see :func:`_closure_ranks`), or, where the flat search
    of K distinct kets visits fewer nodes (at most the sum of C(K, r) over
    r < d) than there are d-subsets, iff it has a flat and no flat holds d
    members (see :func:`_hyperplanes`).
    """
    _require_product(s, "minimality check")
    n = s.n_states
    if n != minimal_upb_count(s.dims):
        return False
    for alpha, d in enumerate(s.dims):
        v = s.local_matrix(alpha)
        kets, ket_id = _distinct_kets(v)
        if math.comb(n, d) > sum(math.comb(len(kets), r) for r in range(d)):
            flats = _hyperplanes(kets, lambda m: None)
            if not len(flats) or (flats @ np.bincount(ket_id) >= d).any():
                return False
            continue
        subsets = itertools.combinations(range(n), d)
        step = max(1, _FLAT_ENTRIES // (n * d))
        while block := list(itertools.islice(subsets, step)):
            masks = (np.array(block)[..., None] == np.arange(n)).any(axis=1)
            if (_closure_ranks(v, masks) < d).any():
                return False
    return True


def certify_minimal_upb(s: StateSet) -> str:
    """Indiscriminability verdict for minimal unextendible product bases.

    Certifies when the subset-independence test passes and the member count
    satisfies N >= 2(d - 1) + 1 on every party.
    """
    if minimal_upb_check(s) and all(
        s.n_states >= 2 * (d - 1) + 1 for d in s.dims
    ):
        return CERTIFIED_INDISCRIMINABLE
    return INCONCLUSIVE


def min_states_bound(dims) -> int:
    """Pair-counting floor on the size of any party-by-party certifiable set.

    The smallest N with N(N - 1) >= sum over parties of (d^2 - 1); computed
    in exact integer arithmetic.
    """
    dims = plain_ints(dims, "dims")
    if any(d < 2 for d in dims):
        raise ValueError("every local dimension must be at least 2")
    total = sum(d * d - 1 for d in dims)
    n = (1 + math.isqrt(1 + 4 * total)) // 2
    while n * (n - 1) < total:
        n += 1
    return n


@dataclass(frozen=True)
class UpbReport:
    """Combined extendibility, minimality and indiscriminability report.

    ``local_ranks`` are the witness groups' closure ranks: the flats' rule
    of :func:`_closure_ranks`, not the relative cutoff of ``numerical_rank``.
    """

    is_unextendible: bool
    witness_partition: tuple[tuple[int, ...], ...] | None
    local_ranks: tuple[int, ...] | None
    is_minimal: bool
    count_condition_met: bool
    verdict: str
    min_states: int

    def to_dict(self) -> dict:
        return asdict(self)


def upb_report(s: StateSet, budget: int = 10_000_000) -> UpbReport:
    """Run the full unextendible-product-basis analysis on a set.

    ``budget`` is the node budget of :func:`upb_extendibility`.
    """
    min_states = min_states_bound(s.dims)
    ext = upb_extendibility(s, budget)
    minimal = minimal_upb_check(s)
    count_ok = all(s.n_states >= 2 * (d - 1) + 1 for d in s.dims)
    return UpbReport(
        is_unextendible=not ext.extendible,
        witness_partition=ext.witness,
        local_ranks=ext.witness_ranks,
        is_minimal=minimal,
        count_condition_met=count_ok,
        verdict=certify_minimal_upb(s),
        min_states=min_states,
    )
