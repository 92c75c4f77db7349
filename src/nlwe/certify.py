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
from dataclasses import dataclass

import numpy as np

from .families import PartyCut, StateSet, merge_cut
from .linalg import DEFAULT_RANK_TOL, dyad, numerical_rank

# Overlap threshold used both for "orthogonal on this party" and for
# "non-orthogonal everywhere else". A pair falling in between is dropped,
# which can only weaken a certificate, never falsely issue one.
DEFAULT_PAIR_TOL = 1e-9

CERTIFIED_INDISCRIMINABLE = "CERTIFIED_INDISCRIMINABLE"
INCONCLUSIVE = "INCONCLUSIVE"


class EnumerationBudgetExceeded(RuntimeError):
    """Raised when a partition search would exceed its assignment budget."""


def _require_product(s: StateSet, what: str):
    if not s.all_product:
        raise ValueError(f"{what} requires product-form states")


@dataclass(frozen=True)
class PartyRecord:
    """Per-party outcome: the exclusive pairs, their dyad span, the target."""

    party: int
    pairs: tuple[tuple[int, int], ...]
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

    def record(self, party: int) -> PartyRecord:
        return self.records[party]

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "parties": [r.to_dict() for r in self.records],
        }


def exclusive_pairs(s: StateSet, party: int,
                    tol: float = DEFAULT_PAIR_TOL) -> list[tuple[int, int]]:
    """Ordered state pairs orthogonal on ``party`` and nowhere else.

    Returns all (i, j) with i != j whose local overlap on ``party`` is at
    most ``tol`` in magnitude while every other party's overlap exceeds it.
    The result is symmetric under swapping i and j.
    """
    _require_product(s, "pair extraction")
    if not 0 <= party < s.parties:
        raise ValueError(f"party {party} out of range for {s.parties} parties")
    if tol <= 0:
        raise ValueError("tol must be positive")
    mask = ~np.eye(s.n_states, dtype=bool)
    for beta in range(s.parties):
        v = s.local_matrix(beta)
        overlap = np.abs(v.conj() @ v.T)
        mask &= (overlap <= tol) if beta == party else (overlap > tol)
    return [(int(i), int(j)) for i, j in np.argwhere(mask)]


def dyad_span_rank(s: StateSet, party: int, pairs) -> int:
    """Rank of the local dyads |psi_i><psi_j| over the given index pairs."""
    _require_product(s, "dyad ranking")
    if not 0 <= party < s.parties:
        raise ValueError(f"party {party} out of range for {s.parties} parties")
    idx = np.asarray(pairs, dtype=int).reshape(len(pairs), 2)
    out_of_range = ((idx < 0) | (idx >= s.n_states)).any(axis=1)
    bad = out_of_range | (idx[:, 0] == idx[:, 1])
    if bad.any():
        i, j = idx[np.argmax(bad)]
        raise ValueError(f"invalid index pair ({i}, {j})")
    v = s.local_matrix(party)
    return numerical_rank(dyad(v[idx[:, 0]], v[idx[:, 1]]))


def certify(s: StateSet, tol: float = DEFAULT_PAIR_TOL) -> DyadCertificate:
    """Party-by-party dyad-span certificate for the whole set.

    CERTIFIED_INDISCRIMINABLE iff on every party the exclusive pairs' dyads
    span the full traceless space of dimension d^2 - 1.
    """
    records = []
    for party in range(s.parties):
        pairs = tuple(exclusive_pairs(s, party, tol))
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
    extendible: bool
    witness: tuple[tuple[int, ...], ...] | None
    witness_ranks: tuple[int, ...] | None


def upb_extendibility(s: StateSet,
                      budget: int = 10_000_000) -> ExtendibilityResult:
    """Decide extendibility by searching state-to-party assignments.

    The set can be extended by another orthogonal product state iff some
    assignment of the states to the parties leaves every party's local span
    strictly below its full dimension; the witness assignment is returned
    when one exists. The search is exact, pruning any branch on which some
    party's local rank already saturates.
    """
    _require_product(s, "extendibility")
    parties, n = s.parties, s.n_states
    if parties ** n > budget:
        raise EnumerationBudgetExceeded(
            f"{parties}^{n} assignments exceed the budget of {budget}"
        )
    assignment = [-1] * n
    bases: list[list[np.ndarray]] = [[] for _ in range(parties)]

    def search(m: int):
        if m == n:
            return tuple(
                tuple(i for i in range(n) if assignment[i] == alpha)
                for alpha in range(parties)
            )
        for alpha in range(parties):
            v = s.local_state(m, alpha)
            resid = v.copy()
            for b in bases[alpha]:
                resid = resid - np.vdot(b, resid) * b
            grows = np.linalg.norm(resid) > DEFAULT_RANK_TOL
            if grows and len(bases[alpha]) + 1 >= s.dims[alpha]:
                continue  # this party would saturate its local space
            assignment[m] = alpha
            if grows:
                bases[alpha].append(resid / np.linalg.norm(resid))
            found = search(m + 1)
            if grows:
                bases[alpha].pop()
            assignment[m] = -1
            if found is not None:
                return found
        return None

    witness = search(0)
    if witness is None:
        return ExtendibilityResult(False, None, None)
    ranks = tuple(
        numerical_rank([s.local_state(m, alpha) for m in group])
        for alpha, group in enumerate(witness)
    )
    return ExtendibilityResult(True, witness, ranks)


def minimal_upb_count(dims) -> int:
    """Smallest possible member count of an unextendible product basis."""
    return sum(int(d) - 1 for d in dims) + 1


def minimal_upb_check(s: StateSet) -> bool:
    """Subset-independence test for minimal unextendible product bases.

    True iff the set has exactly the minimal member count and, on every
    party, every choice of d local states is linearly independent. For sets
    of that size this characterizes unextendibility.
    """
    _require_product(s, "minimality check")
    n = s.n_states
    if n != minimal_upb_count(s.dims):
        return False
    for alpha, d in enumerate(s.dims):
        v = s.local_matrix(alpha)
        for subset in itertools.combinations(range(n), d):
            if numerical_rank(v[list(subset)]) < d:
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
    dims = [int(d) for d in dims]
    if any(d < 2 for d in dims):
        raise ValueError("every local dimension must be at least 2")
    total = sum(d * d - 1 for d in dims)
    n = (1 + math.isqrt(1 + 4 * total)) // 2
    while n * (n - 1) < total:
        n += 1
    while n > 1 and (n - 1) * (n - 2) >= total:
        n -= 1
    return n


@dataclass(frozen=True)
class UpbReport:
    """Combined extendibility, minimality and indiscriminability report."""

    is_unextendible: bool
    witness_partition: tuple[tuple[int, ...], ...] | None
    local_ranks: tuple[int, ...] | None
    is_minimal: bool
    count_condition_met: bool
    verdict: str
    min_states: int

    def to_dict(self) -> dict:
        return {
            "is_unextendible": self.is_unextendible,
            "witness_partition": (
                None if self.witness_partition is None
                else [list(g) for g in self.witness_partition]
            ),
            "local_ranks": (
                None if self.local_ranks is None else list(self.local_ranks)
            ),
            "is_minimal": self.is_minimal,
            "count_condition_met": self.count_condition_met,
            "verdict": self.verdict,
            "min_states": self.min_states,
        }


def upb_report(s: StateSet, budget: int = 10_000_000) -> UpbReport:
    """Run the full unextendible-product-basis analysis on a set."""
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
        min_states=min_states_bound(s.dims),
    )
