"""Orthogonal multipartite state sets: data model, named families, file I/O.

A :class:`StateSet` stores each member either as one normalized ket per party
(product form) or, for entangled members such as the Bell basis, as a single
normalized ket on the full space. Certification requires product form; the
error-bound machinery accepts both. Basis labels written as ``|1>,|2>,|3>``
in the constructions below map to zero-based indices 0, 1, 2 internally.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import normalized, row_norms, row_tensor, tensor, unit_divisors

ORTHOGONALITY_TOL = 1e-10
PRIOR_SUM_TOL = 1e-10
FILE_FORMAT_VERSION = 1


def is_plain_int(x) -> bool:
    """Whether ``x`` is an int or numpy integer; bools are refused."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_real(x) -> bool:
    """Whether ``x`` is a real number, numpy scalars included, but no bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


class StateSet:
    """Mutually orthogonal pure states with priors on a multipartite space.

    The attribute ``states`` holds each member's read-only kets as a tuple:
    one per party, or one global ket. A product set also holds one (N, d_a)
    complex array per party, the members' local kets as rows, which
    ``local_matrix`` returns; its ``states`` are row views of those arrays,
    built with the set.

    Kets are normalized on construction, so families may be written down with
    whatever scale factors are convenient; a product set's are normalized
    and checked party by party, on those arrays. A ket that is already unit
    (``unit_divisors``) keeps its bits, so a set rebuilt from its own
    ``states`` is the same set. Validation checks that
    priors are finite, positive and sum to one, and that all global states
    are pairwise orthogonal; pass ``validate=False`` only for deliberately
    non-orthogonal test inputs.
    """

    __slots__ = ("dims", "priors", "states", "_kets")

    def __init__(self, dims, states, priors=None, *, validate: bool = True):
        dims = _checked_dims(dims)
        entries = [tuple(entry) for entry in states]
        if entries and all(len(entry) == len(dims) for entry in entries):
            kets = _unit_columns(dims, [_column(c) for c in zip(*entries)])
            states = tuple(zip(*kets))
        else:
            kets = None
            states = tuple(_member_kets(m, entry, dims)
                           for m, entry in enumerate(entries))
        n = len(states)
        if n == 0:
            raise ValueError("state set is empty")
        if priors is None:
            priors = np.full(n, 1.0 / n)
        priors = np.asarray(priors, dtype=float).reshape(-1)
        if priors.size != n:
            raise ValueError(f"expected {n} priors, got {priors.size}")
        if not np.all(np.isfinite(priors) & (priors > 0)):
            raise ValueError("priors must be finite and positive")
        if abs(priors.sum() - 1.0) > PRIOR_SUM_TOL:
            raise ValueError(f"priors sum to {priors.sum()!r}, expected 1")
        priors.setflags(write=False)
        self.dims = dims
        self._kets = kets
        self.states = states
        self.priors = priors
        if validate:
            self._check_orthogonality()

    def __setattr__(self, name, value):
        if hasattr(self, "priors") and name in self.__slots__:
            raise AttributeError("StateSet is immutable")
        super().__setattr__(name, value)

    @property
    def parties(self) -> int:
        return len(self.dims)

    @property
    def n_states(self) -> int:
        return len(self.priors)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def is_product(self, m: int) -> bool:
        """Whether state ``m`` is stored as one ket per party."""
        return len(self.states[m]) == self.parties

    @property
    def all_product(self) -> bool:
        return self._kets is not None

    def local_state(self, m: int, party: int) -> np.ndarray:
        if not self.is_product(m):
            raise ValueError(f"state {m} has no product form")
        return self.states[m][party]

    def local_matrix(self, party: int) -> np.ndarray:
        """Every member's local ket on ``party`` as rows, (N, d), read-only.

        This is the set's own array, not a copy.
        """
        if self._kets is None:
            m = next(m for m in range(self.n_states) if not self.is_product(m))
            raise ValueError(f"state {m} has no product form")
        return self._kets[party]

    def global_state(self, m: int) -> np.ndarray:
        kets = self.states[m]
        return kets[0] if len(kets) == 1 else tensor(kets)

    def global_matrix(self) -> np.ndarray:
        """All global states stacked as rows, shape (N, total_dim)."""
        return np.vstack([self.global_state(m) for m in range(self.n_states)])

    def _check_orthogonality(self):
        # A product set's Gram matrix is the entrywise product of the
        # parties' local Gram matrices, so no global ket is formed.
        factors = self._kets or [self.global_matrix()]
        overlap = np.abs(math.prod(v.conj() @ v.T for v in factors))
        bad = np.argwhere(np.triu(overlap > ORTHOGONALITY_TOL, k=1))
        if bad.size:
            i, j = bad[0]
            raise ValueError(
                f"states {i} and {j} are not orthogonal: "
                f"|<i|j>| = {overlap[i, j]:.3e}"
            )


def plain_ints(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints, refusing any that ``is_plain_int``
    refuses."""
    if not all(map(is_plain_int, values := tuple(values))):
        raise ValueError(f"{what} {values!r} must be integers")
    return tuple(int(v) for v in values)


def _checked_dims(dims) -> tuple[int, ...]:
    dims = plain_ints(dims, "dims")
    if len(dims) < 1 or any(d < 1 for d in dims):
        raise ValueError("need at least one party with local dimension >= 1")
    return dims


def _member_kets(m: int, entry, dims) -> tuple[np.ndarray, ...]:
    """Member ``m``'s kets, normalized and read-only, after its checks."""
    kets = tuple(normalized(k) for k in entry)
    if len(kets) == len(dims):
        if tuple(k.size for k in kets) != dims:
            raise ValueError(
                f"state {m}: local dimensions "
                f"{tuple(k.size for k in kets)} do not match {dims}"
            )
    elif len(kets) != 1 or kets[0].size != math.prod(dims):
        raise ValueError(
            f"state {m}: expected {len(dims)} local kets or a single "
            f"{math.prod(dims)}-dimensional ket"
        )
    for k in kets:
        k.setflags(write=False)
    return kets


def _column(kets):
    """One party's kets, one per member, as an (N, d) complex array; a list
    of flat kets when their sizes differ."""
    rows = [np.asarray(k, dtype=complex).reshape(-1) for k in kets]
    return np.array(rows) if len({r.size for r in rows}) == 1 else rows


def _unit_columns(dims, columns) -> tuple[np.ndarray, ...]:
    """Each party's (N, d_a) kets with unit, read-only rows.

    Shapes, finiteness and norms are checked on each party's whole array.
    When one fails, the members are checked one at a time instead, which
    raises the error of the first faulty member.
    """
    units = []
    for d, v in zip(dims, columns):
        shaped = isinstance(v, np.ndarray) and v.shape[1] == d
        norms = row_norms(v) if shaped else None
        if not shaped or not np.all(np.isfinite(norms) & (norms > 0)):
            for m, entry in enumerate(zip(*columns)):
                _member_kets(m, entry, dims)
            raise AssertionError("a faulty ket passed its member's checks")
        # Row m is bit-identical to normalized(v[m]).
        v = v / unit_divisors(norms)[:, None]
        v.setflags(write=False)
        units.append(v)
    return tuple(units)


@dataclass(frozen=True)
class PartyCut:
    """Partition of the parties into disjoint nonempty blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(sorted(plain_ints(b, "party indices")))
                       for b in self.blocks)
        blocks = tuple(sorted(blocks, key=lambda b: b[0] if b else -1))
        object.__setattr__(self, "blocks", blocks)
        flat = [i for b in blocks for i in b]
        if not blocks or any(len(b) == 0 for b in blocks):
            raise ValueError("every block must be nonempty")
        if sorted(flat) != list(range(len(flat))):
            raise ValueError(f"blocks {blocks} are not a partition of the parties")

    @property
    def parties(self) -> int:
        return sum(len(b) for b in self.blocks)

    @classmethod
    def parse(cls, text: str, parties: int) -> "PartyCut":
        """Parse a '0,1|2'-style block list over zero-based party indices."""
        try:
            blocks = tuple(
                tuple(int(tok) for tok in part.split(","))
                for part in text.split("|")
            )
        except ValueError as exc:
            raise ValueError(f"malformed cut spec {text!r}") from exc
        cut = cls(blocks)
        if cut.parties != parties:
            raise ValueError(
                f"cut {text!r} covers {cut.parties} parties, expected {parties}"
            )
        return cut

    @classmethod
    def bipartitions(cls, parties: int) -> list["PartyCut"]:
        """All ways of splitting the parties into two nonempty blocks."""
        if parties < 2:
            raise ValueError("need at least two parties")
        cuts = []
        indices = range(parties)
        for size in range(1, parties // 2 + 1):
            for group in itertools.combinations(indices, size):
                rest = tuple(i for i in indices if i not in group)
                if len(group) == len(rest) and group[0] != 0:
                    continue  # avoid double-counting equal-size splits
                cuts.append(cls((group, rest)))
        return cuts


def merge_cut(s: StateSet, cut: PartyCut) -> StateSet:
    """Regroup the parties of ``s`` according to ``cut``.

    Each block becomes one party whose local ket is the tensor product of its
    members; global states are unchanged apart from the index reordering
    induced by the block ordering. A product set's blocks are formed as
    row-wise Kronecker products of the parties' ket arrays.
    """
    if cut.parties != s.parties:
        raise ValueError(
            f"cut covers {cut.parties} parties but the set has {s.parties}"
        )
    new_dims = tuple(math.prod(s.dims[i] for i in b) for b in cut.blocks)
    if s.all_product:
        blocks = [row_tensor([s.local_matrix(i) for i in b])
                  for b in cut.blocks]
        return StateSet(new_dims, zip(*blocks), s.priors)
    perm = [i for b in cut.blocks for i in b]
    entries = []
    for kets in s.states:
        if len(kets) == s.parties:
            entries.append(
                tuple(tensor([kets[i] for i in b]) for b in cut.blocks)
            )
        else:
            g = kets[0].reshape(s.dims)
            entries.append((np.transpose(g, perm).reshape(-1),))
    return StateSet(new_dims, entries, s.priors)


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

def two_qubit_demo() -> StateSet:
    """Four two-qubit product states that are perfectly LOCC-discriminable.

    A negative control for the certifier: the first party's dyads span too
    small a space, and indeed that party can start a working protocol.
    """
    zero, one = np.eye(2)
    plus = np.array([1.0, 1.0])
    minus = np.array([1.0, -1.0])
    states = [(zero, zero), (zero, one), (one, plus), (one, minus)]
    return StateSet((2, 2), states)


def bell_states() -> StateSet:
    """The four maximally entangled two-qubit states, uniform priors."""
    phi_p = np.array([1.0, 0.0, 0.0, 1.0])
    phi_m = np.array([1.0, 0.0, 0.0, -1.0])
    psi_p = np.array([0.0, 1.0, 1.0, 0.0])
    psi_m = np.array([0.0, 1.0, -1.0, 0.0])
    states = [(phi_p,), (phi_m,), (psi_p,), (psi_m,)]
    return StateSet((2, 2), states, priors=[0.25, 0.25, 0.25, 0.25])


def rotated_dominoes(theta1: float, theta2: float, theta3: float,
                     theta4: float) -> StateSet:
    """Nine orthogonal product states on 3x3 with four tunable tile angles.

    Angles must lie in (0, pi/4]; all pi/4 gives the unrotated dominoes.
    """
    thetas = (float(theta1), float(theta2), float(theta3), float(theta4))
    for t in thetas:
        if not 0.0 < t <= math.pi / 4:
            raise ValueError(f"angle {t!r} outside (0, pi/4]")
    t1, t2, t3, t4 = thetas
    e = np.eye(3)

    def cw(i, j, t):
        return math.cos(t) * e[i] + math.sin(t) * e[j]

    def sw(i, j, t):
        return math.sin(t) * e[i] - math.cos(t) * e[j]

    states = [
        (e[1], e[1]),
        (e[0], cw(0, 1, t1)),
        (e[0], sw(0, 1, t1)),
        (cw(0, 1, t2), e[2]),
        (sw(0, 1, t2), e[2]),
        (e[2], cw(1, 2, t3)),
        (e[2], sw(1, 2, t3)),
        (cw(1, 2, t4), e[0]),
        (sw(1, 2, t4), e[0]),
    ]
    return StateSet((3, 3), states)


def tiles() -> StateSet:
    """The five-state 3x3 tiles unextendible product basis."""
    e = np.eye(3)
    flat = e[0] + e[1] + e[2]
    states = [
        (flat, flat),
        (e[0], e[0] - e[1]),
        (e[0] - e[1], e[2]),
        (e[2], e[1] - e[2]),
        (e[1] - e[2], e[0]),
    ]
    return StateSet((3, 3), states)


HALDER_VARIANTS = ("full", "reduced12", "omit_diag24")

# Base members of the 3x3x3 family, keyed by 1-based member label. Labels
# 3j+k (k = 2, 3) follow by cyclically rotating the party list of member
# 3j+1, one step per application; the pinned direction sends |1>|2>|1+2>
# to |2>|1+2>|1>.
_HALDER_BASES = {
    1: (0, 1, (0, 1)),
    4: (0, 2, (0, 2)),
    7: (1, 2, (0, 1)),
    10: (2, 1, (0, 2)),
}


def halder_states(variant: str = "full") -> StateSet:
    """Tripartite 3x3x3 family of orthogonal product states.

    ``full`` is all 24 rotated members plus |i>|i>|i> for i = 1, 2, 3
    (27 states); ``reduced12`` keeps members 1-3 and 10-12 (both signs);
    ``omit_diag24`` drops only the three diagonal states.
    """
    if variant not in HALDER_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of "
                         f"{HALDER_VARIANTS}")
    e = np.eye(3)
    members = {}
    for base, (a, b, (j, k)) in _HALDER_BASES.items():
        for sign in (+1, -1):
            kets = (e[a], e[b], e[j] + sign * e[k])
            for step in range(3):
                members[(base + step, sign)] = kets
                kets = kets[1:] + kets[:1]
    if variant == "reduced12":
        labels = [1, 2, 3, 10, 11, 12]
    else:
        labels = list(range(1, 13))
    entries = [members[(label, sign)] for label in labels for sign in (+1, -1)]
    if variant == "full":
        entries += [(e[i], e[i], e[i]) for i in range(3)]
    return StateSet((3, 3, 3), entries)


def _gentiles1_comb(n: int, k: int, m: int, offset: int) -> np.ndarray:
    """Half-window comb ket sum_j w^(jm) |j + k + offset mod n>."""
    omega = np.exp(4j * np.pi / n)
    v = np.zeros(n, dtype=complex)
    for j in range(n // 2):
        v[(j + k + offset) % n] += omega ** (j * m)
    return v


def gentiles1(n: int) -> StateSet:
    """Bipartite n x n unextendible product basis, even n >= 4.

    Contains n(n/2 - 1) vertical and as many horizontal comb states plus the
    uniform state, n(n - 2) + 1 members in total.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 4, got {n}")
    e = np.eye(n)
    states = []
    for k in range(n):
        for m in range(1, n // 2):
            states.append((e[k], _gentiles1_comb(n, k, m, 1)))
    for k in range(n):
        for m in range(1, n // 2):
            states.append((_gentiles1_comb(n, k, m, 0), e[k]))
    ones = np.ones(n)
    states.append((ones, ones))
    return StateSet((n, n), states)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def _complex_to_pair(x: complex) -> list[float]:
    return [float(x.real), float(x.imag)]


def to_payload(s: StateSet) -> dict:
    """JSON-compatible representation of a state set."""
    return {
        "version": FILE_FORMAT_VERSION,
        "dims": list(s.dims),
        "priors": [float(p) for p in s.priors],
        "states": [
            [[_complex_to_pair(x) for x in ket] for ket in entry]
            for entry in s.states
        ],
    }


def from_payload(payload: dict) -> StateSet:
    """Rebuild a state set from :func:`to_payload` output, validating it."""
    if not isinstance(payload, dict):
        raise ValueError("state-set payload must be an object")
    version = payload.get("version")
    # JSON true and false load as bool, a subclass of int.
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
    return StateSet(dims, states, priors)


def save(s: StateSet, path) -> None:
    """Write a state set as JSON; round-trips losslessly through :func:`load`."""
    Path(path).write_text(json.dumps(to_payload(s), indent=1) + "\n",
                          encoding="utf-8")


def load(path) -> StateSet:
    """Read and validate a state set written by :func:`save`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return from_payload(payload)
