import importlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from nlwe.certify import (
    CERTIFIED_INDISCRIMINABLE,
    DEFAULT_PAIR_TOL,
    INCONCLUSIVE,
    EnumerationBudgetExceeded,
    _children,
    _closure_ranks,
    _distinct_kets,
    _hyperplanes,
    certify,
    certify_cut,
    certify_minimal_upb,
    dyad_span_rank,
    exclusive_pairs,
    min_states_bound,
    minimal_upb_check,
    minimal_upb_count,
    strong_nlwe,
    upb_extendibility,
    upb_report,
)
from nlwe.families import (
    PartyCut,
    StateSet,
    bell_states,
    gentiles1,
    halder_states,
    merge_cut,
    rotated_dominoes,
    tiles,
    two_qubit_demo,
)
from nlwe.linalg import DEFAULT_RANK_TOL, dyad, numerical_rank

from conftest import (
    apply_local_unitaries,
    dropped_subsets,
    general_position_upb,
    gentiles1_witness_dyads,
    haar_unitary,
    near_dependent_upb,
    one_way_product_set,
    permute_states,
    shifts_upb,
)
import exact_reference
import protocol_reference
from flat_reference import closure_rank, subset_minimal
from flat_reference import hyperplanes as reference_hyperplanes

certify_module = importlib.import_module("nlwe.certify")


def pair_basis(dims):
    e = np.eye(2)
    return StateSet(dims, [(e[0], e[0]), (e[1], e[1])])


def full_stack_rank(s, party, pairs):
    """Reference rank: one dyad row per pair, repeated kets included."""
    v = s.local_matrix(party)
    idx = np.asarray(pairs, dtype=int).reshape(len(pairs), 2)
    return numerical_rank(dyad(v[idx[:, 0]], v[idx[:, 1]]))


def decomposed_rows(monkeypatch):
    """Row count of every matrix ``np.linalg.svd`` decomposes from now on."""
    rows = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        rows.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return rows


DIMS_CHOICES = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 2)]


def ket_pool(rng, d):
    """Two random kets, the sum of the first and last basis kets, the basis."""
    e = np.eye(d)
    pool = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(2)]
    return pool + [e[0] + e[d - 1]] + [e[i] for i in range(d)]


def draw_ket(rng, pool):
    """A pool ket, times a random phase three times in ten."""
    ket = pool[rng.integers(len(pool))]
    if rng.random() < 0.3:
        ket = np.exp(2j * np.pi * rng.random()) * ket
    return ket


def random_product_set(rng):
    """Product set drawn from a small pool of local kets per party.

    Pools mix random kets with basis vectors and sums of two, so members
    repeat kets exactly; a member may also carry a phase multiple of its
    pool ket. Orthogonality is not required, so validation is off.
    """
    dims = DIMS_CHOICES[rng.integers(len(DIMS_CHOICES))]
    n = int(rng.integers(sum(dims), 11))
    pools = [ket_pool(rng, d) for d in dims]
    entries = [tuple(draw_ket(rng, pool) for pool in pools) for _ in range(n)]
    return StateSet(dims, entries, validate=False)


def brute_force_extendible(s):
    """Whether some assignment of members to parties leaves each party short.

    Enumerates every one of parties^n assignments against a table of which
    member subsets leave each party's kets short of spanning.
    """
    n, parties = s.n_states, s.parties
    assert parties ** n <= 10 ** 5
    short = np.array([[
        numerical_rank(s.local_matrix(alpha)[[m for m in range(n)
                                               if mask >> m & 1]]) < d
        for mask in range(2 ** n)] for alpha, d in enumerate(s.dims)])
    labels = np.array(list(np.ndindex(*([parties] * n))))
    bits = 1 << np.arange(n)
    masks = [(labels == alpha) @ bits for alpha in range(parties)]
    return bool(np.logical_and.reduce(
        [short[alpha][masks[alpha]] for alpha in range(parties)]).any())


def brute_force_hyperplanes(kets):
    """Flats of rank d - 1 of the unit rows of ``kets``, by enumeration.

    Takes every (d - 1)-subset whose rows stay independent under
    Gram-Schmidt, closes it over all rows, and returns the distinct
    closures as masks in lexicographic order of their rows. Independence
    and closure both use the absolute ``DEFAULT_RANK_TOL`` residual rule.
    """
    k, d = kets.shape
    found = set()
    for subset in itertools.combinations(range(k), d - 1):
        basis = np.zeros((0, d), dtype=complex)
        for i in subset:
            r = kets[i] - (kets[i] @ basis.conj().T) @ basis
            if np.linalg.norm(r) <= DEFAULT_RANK_TOL:
                break
            basis = np.vstack([basis, r / np.linalg.norm(r)])
        else:
            resid = kets - (kets @ basis.conj().T) @ basis
            closed = np.linalg.norm(resid, axis=1) <= DEFAULT_RANK_TOL
            found.add(tuple(np.flatnonzero(closed)))
    masks = np.zeros((len(found), k), dtype=bool)
    for row, members in enumerate(sorted(found)):
        masks[row, list(members)] = True
    return masks


def random_unit_kets(rng, d):
    """Distinct unit kets drawn from a ``ket_pool``.

    The pool also holds a ket 1e-6 away from its first, well outside the
    closure tolerance.
    """
    pool = ket_pool(rng, d)
    pool.append(pool[0] + 1e-6 * pool[1])
    kets = [draw_ket(rng, pool) for _ in range(int(rng.integers(1, 9)))]
    return _distinct_kets(np.array(kets) / np.linalg.norm(kets, axis=1,
                                                          keepdims=True))[0]


def reference_cases():
    """Ket sets on which the flat search is checked against the reference."""
    scrambled = [apply_local_unitaries(
        gentiles1(n), [haar_unitary(n, np.random.default_rng([5, n, a]))
                       for a in range(2)]) for n in (4, 6)]
    sets = [gentiles1(4), gentiles1(6), *scrambled, tiles(),
            halder_states("full")]
    sets += [random_product_set(np.random.default_rng([7, case]))
             for case in range(200)]
    return [_distinct_kets(s.local_matrix(alpha))[0]
            for s in sets for alpha in range(s.parties)]


def budget_outcome(s, budget):
    """The extendibility result, or the budget message if it raises."""
    try:
        return upb_extendibility(s, budget=budget)
    except EnumerationBudgetExceeded as exc:
        return str(exc)


def check_budget(monkeypatch, s, budget):
    """The outcome at ``budget``, after checking it against the per-flat
    reference search, checking that the flat growths ``_children``
    computes inside ``_hyperplanes`` stay within the budget, and checking
    that a refusal names at most one block."""
    grown, inside, refused = [], [], []

    def counted(block, nodes, js, leaf):
        if inside:
            grown.append(len(js))
        return _children(block, nodes, js, leaf)

    def hyperplanes(kets, tick):
        inside.append(True)
        try:
            return _hyperplanes(kets, tick)
        except EnumerationBudgetExceeded:
            refused.append(kets.shape)
            raise
        finally:
            inside.pop()

    with monkeypatch.context() as m:
        m.setattr(certify_module, "_children", counted)
        m.setattr(certify_module, "_hyperplanes", hyperplanes)
        outcome = budget_outcome(s, budget)
    assert sum(grown) <= budget
    with monkeypatch.context() as m:
        m.setattr(certify_module, "_hyperplanes", reference_hyperplanes)
        reference = budget_outcome(s, budget)
    if isinstance(outcome, str):
        assert isinstance(reference, str)
        visited, block = map(int, re.fullmatch(
            rf"UPB search visited (\d+) nodes and stopped before a block of "
            rf"(\d+) would pass its budget of {budget}", outcome).groups())
        assert sum(grown) <= visited <= budget < visited + block
        # The flat search refuses one chunk of growths over its (K, d) kets,
        # the partition search one block of member masks and Grams against
        # a party before the last.
        entries = certify_module._FLAT_ENTRIES
        if refused:
            limit = entries // math.prod(refused[0])
        else:
            limit = max(entries // max(s.n_states, d * d) for d in s.dims[:-1])
        assert block <= max(1, limit)
    else:
        assert outcome == reference
    return outcome


def reference_ranks(kets, masks):
    return np.array([closure_rank(kets, mask) for mask in masks])


def near_cutoff_stack(rng, n, d, sigma):
    """n unit kets whose stack has smallest singular value near ``sigma``.

    The first n - 1 kets lie in a hyperplane, and the last leaves it by
    ``sigma``; a random unitary then turns them all.
    """
    plane = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    plane[:, -1] = 0
    plane /= np.linalg.norm(plane, axis=1, keepdims=True)
    plane[-1] *= math.sqrt(1 - sigma ** 2)
    plane[-1, -1] = sigma
    return plane @ haar_unitary(d, rng)


def assert_witness(s, result):
    """The witness partitions the members and leaves every party short by
    the closure rule."""
    groups = result.witness
    assert len(groups) == s.parties
    assert sorted(m for g in groups for m in g) == list(range(s.n_states))
    for alpha, (group, d) in enumerate(zip(groups, s.dims)):
        mask = np.isin(np.arange(s.n_states), group)
        rank = closure_rank(s.local_matrix(alpha), mask)
        assert rank == result.witness_ranks[alpha] < d


class TestExclusivePairs:
    def test_demo_second_party(self):
        s = two_qubit_demo()
        assert sorted(exclusive_pairs(s, 1).tolist()) == [
            [0, 1], [1, 0], [2, 3], [3, 2],
        ]

    def test_demo_first_party(self):
        s = two_qubit_demo()
        assert sorted(map(tuple, exclusive_pairs(s, 0))) == [
            (0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0), (3, 1),
        ]

    def test_single_state(self):
        s = StateSet((2, 2), [([1, 0], [1, 0])])
        assert exclusive_pairs(s, 0).tolist() == []

    def test_symmetric(self):
        s = tiles()
        for party in (0, 1):
            pairs = set(map(tuple, exclusive_pairs(s, party)))
            assert {(j, i) for i, j in pairs} == pairs

    def test_index_array_is_record_pairs(self, monkeypatch):
        # One (P, 2) integer array, in np.argwhere order of the pair mask,
        # from exclusive_pairs through to the certificate's records.
        s = tiles()
        module = importlib.import_module("nlwe.certify")
        returned = []

        def recording_pairs(*args):
            returned.append(exclusive_pairs(*args))
            return returned[-1]

        monkeypatch.setattr(module, "exclusive_pairs", recording_pairs)
        cert = certify(s)
        overlaps = [np.abs(v.conj() @ v.T)
                    for v in map(s.local_matrix, range(s.parties))]
        for party, pairs in enumerate(returned):
            mask = ~np.eye(s.n_states, dtype=bool)
            for beta, overlap in enumerate(overlaps):
                mask &= ((overlap <= DEFAULT_PAIR_TOL) if beta == party
                         else (overlap > DEFAULT_PAIR_TOL))
            assert pairs.dtype.kind == "i" and pairs.shape == (10, 2)
            assert np.array_equal(pairs, np.argwhere(mask))
            assert cert.records[party].pairs is pairs

    def test_bad_party(self):
        with pytest.raises(ValueError):
            exclusive_pairs(two_qubit_demo(), 2)

    def test_requires_product_form(self):
        with pytest.raises(ValueError, match="product"):
            exclusive_pairs(bell_states(), 0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0, True,
                                     np.True_, "1", None, 1j])
    def test_rejects_tol_not_finite_positive(self, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            exclusive_pairs(tiles(), 0, tol)


class TestDyadSpanRank:
    def test_demo_ranks(self):
        s = two_qubit_demo()
        assert dyad_span_rank(s, 1, exclusive_pairs(s, 1)) == 3
        assert dyad_span_rank(s, 0, exclusive_pairs(s, 0)) == 2

    def test_halder_full_party_rank(self):
        s = halder_states("full")
        for party in range(3):
            assert dyad_span_rank(s, party, exclusive_pairs(s, party)) == 8

    def test_invalid_pair(self):
        s = two_qubit_demo()
        with pytest.raises(ValueError):
            dyad_span_rank(s, 0, [(0, 9)])
        with pytest.raises(ValueError):
            dyad_span_rank(s, 0, [(1, 1)])
        with pytest.raises(ValueError, match=r"\(2, 2\)"):
            dyad_span_rank(s, 0, [(0, 1), (2, 2), (0, 9)])
        with pytest.raises(ValueError, match="party 2 out of range"):
            dyad_span_rank(s, 2, [(0, 1)])

    def test_monotone_under_more_pairs(self, rng):
        s = tiles()
        pairs = exclusive_pairs(s, 0)
        full_rank = dyad_span_rank(s, 0, pairs)
        for _ in range(20):
            k = rng.integers(0, len(pairs) + 1)
            subset = [pairs[i] for i in rng.choice(len(pairs), size=k,
                                                   replace=False)]
            assert dyad_span_rank(s, 0, subset) <= full_rank
            assert dyad_span_rank(s, 0, subset) == full_stack_rank(s, 0,
                                                                   subset)

    def test_ranks_distinct_ket_pairs_only(self, monkeypatch):
        rows = decomposed_rows(monkeypatch)
        cert = certify(gentiles1(8))
        # 336 distinct dyads per party, of which the first 72-row prefix
        # already spans the traceless space.
        assert rows == [72, 72]
        assert max(rows) <= 336
        assert [r.to_dict()["pair_count"] for r in cert.records] == [1072, 1072]

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_streamed_rank_on_scrambled_gentiles(self, rng, monkeypatch, n):
        s = gentiles1(n)
        s = apply_local_unitaries(s, [haar_unitary(d, rng) for d in s.dims])
        s = permute_states(s, rng.permutation(s.n_states))
        for party in range(s.parties):
            pairs = exclusive_pairs(s, party)
            rows = decomposed_rows(monkeypatch)
            rank = dyad_span_rank(s, party, pairs)
            assert rows[0] == n * n + n
            assert rank == full_stack_rank(s, party, pairs) == n * n - 1

    @pytest.mark.parametrize("n", [12, 16])
    def test_first_prefix_settles_scrambled_gentiles(self, monkeypatch, n):
        # With d^2 rows the first prefix was often exactly rank-deficient
        # on these sets, and a second SVD of 2 d^2 rows followed.
        for seed in range(8):
            rng = np.random.default_rng(seed)
            s = gentiles1(n)
            s = apply_local_unitaries(s, [haar_unitary(d, rng) for d in s.dims])
            s = permute_states(s, rng.permutation(s.n_states))
            for party in range(s.parties):
                pairs = exclusive_pairs(s, party)
                rows = decomposed_rows(monkeypatch)
                assert dyad_span_rank(s, party, pairs) == n * n - 1
                assert rows == [n * n + n]

    def test_streamed_rank_falls_back_when_bounds_never_meet(self, rng,
                                                             monkeypatch):
        # Party 0's kets fill a 3-dim subspace of C^4, so the dyads of all
        # pairs span 9 dimensions, while their identity component keeps the
        # upper bound at 16: every prefix up to a quarter of the 132 rows is
        # taken, then the whole stack.
        kets = rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3))
        e = np.eye(2)
        s = StateSet((4, 2), [(np.append(k, 0), e[m % 2])
                              for m, k in enumerate(kets)], validate=False)
        pairs = [(i, j) for i in range(12) for j in range(12) if i != j]
        rows = decomposed_rows(monkeypatch)
        assert dyad_span_rank(s, 0, pairs) == 9
        assert rows == [20, 132]
        assert full_stack_rank(s, 0, pairs) == 9

    def test_streamed_rank_on_non_exclusive_pairs(self, rng):
        for _ in range(30):
            s = random_product_set(rng)
            pairs = [(i, j) for i in range(s.n_states)
                     for j in range(s.n_states) if i != j]
            for party in range(s.parties):
                assert (dyad_span_rank(s, party, pairs)
                        == full_stack_rank(s, party, pairs))

    def test_streamed_rank_near_rank_cutoff(self, rng):
        # Kets within about 1e-4 of e_0 put each dyad's e_1 e_1^dag part
        # near the rank cutoff, where a prefix can show a singular value
        # above tol sigma_1(P) that the whole stack ranks below its cutoff.
        e = np.eye(2)
        for _ in range(200):
            n = int(rng.integers(30, 60))
            delta = 10 ** rng.uniform(-4.2, -3.8)
            kets = e[0] + delta * (rng.normal(size=(n, 2))
                                   + 1j * rng.normal(size=(n, 2)))
            s = StateSet((2, 2), [(k, e[m % 2]) for m, k in enumerate(kets)],
                         validate=False)
            pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
            assert (dyad_span_rank(s, 0, pairs)
                    == full_stack_rank(s, 0, pairs))

    def test_streamed_rank_on_unsaturated_parties(self, rng):
        s = two_qubit_demo()
        for party in range(s.parties):
            pairs = exclusive_pairs(s, party)
            assert (dyad_span_rank(s, party, pairs)
                    == full_stack_rank(s, party, pairs))
        s = tiles()
        for party in range(s.parties):
            pairs = exclusive_pairs(s, party)
            for _ in range(20):
                subset = pairs[rng.random(len(pairs)) < 0.5]
                assert (dyad_span_rank(s, party, subset)
                        == full_stack_rank(s, party, subset))

    @pytest.mark.parametrize("pair_tol", [1e-9, 1e-8, 1e-7])
    @pytest.mark.parametrize("scale", [0.3, 1.0, 3.0])
    def test_streamed_rank_with_overlaps_near_pair_tol(self, rng, pair_tol,
                                                       scale):
        # Party 0's kets are nudged so that exclusive pairs overlap at about
        # the pair tolerance. From a pair tolerance of 1e-8 on, the identity
        # component of the stack reaches the rank cutoff, so some parties
        # rank 64 and some need the whole stack.
        eps = scale * pair_tol
        s = gentiles1(8)
        entries = []
        for m in range(s.n_states):
            a, b = s.local_state(m, 0), s.local_state(m, 1)
            nudge = rng.normal(size=8) + 1j * rng.normal(size=8)
            entries.append((a + eps * nudge / np.linalg.norm(nudge), b))
        s = StateSet(s.dims, entries, validate=False)
        for party in range(s.parties):
            pairs = exclusive_pairs(s, party, pair_tol)
            assert (dyad_span_rank(s, party, pairs)
                    == full_stack_rank(s, party, pairs))

    @pytest.mark.parametrize("pair_tol", [1e-9, 1e-8, 1e-7])
    @pytest.mark.parametrize("scale", [0.3, 1.0, 3.0])
    def test_near_pair_tol_ranks_match_distinct_stack(self, pair_tol, scale):
        # The sets of the test above, on seeds 0-5. Whether a prefix or
        # the whole stack decides, the rank is that of one SVD of the
        # distinct dyads with the cutoff 1e-8 ||S||_F.
        for seed in range(6):
            rng = np.random.default_rng(seed)
            eps = scale * pair_tol
            s = gentiles1(8)
            entries = []
            for m in range(s.n_states):
                a, b = s.local_state(m, 0), s.local_state(m, 1)
                nudge = rng.normal(size=8) + 1j * rng.normal(size=8)
                entries.append((a + eps * nudge / np.linalg.norm(nudge), b))
            s = StateSet(s.dims, entries, validate=False)
            for party in range(s.parties):
                pairs = exclusive_pairs(s, party, pair_tol)
                v = s.local_matrix(party)
                stack = np.unique(dyad(v[pairs[:, 0]], v[pairs[:, 1]])
                                  .reshape(len(pairs), -1), axis=0)
                svals = np.linalg.svd(stack, compute_uv=False)
                ref = np.count_nonzero(svals > 1e-8 * np.linalg.norm(stack))
                assert dyad_span_rank(s, party, pairs) == ref >= 63

    def test_repeated_pairs_do_not_change_rank(self):
        s = tiles()
        for party in (0, 1):
            pairs = exclusive_pairs(s, party)
            assert (dyad_span_rank(s, party, np.concatenate([pairs, pairs]))
                    == dyad_span_rank(s, party, pairs))

    def test_no_pairs(self):
        assert dyad_span_rank(tiles(), 0, []) == 0

    def test_matches_full_stack_reference(self):
        halder = halder_states("full")
        sets = [gentiles1(4), gentiles1(6), gentiles1(8), halder, tiles()]
        sets += [merge_cut(halder, cut)
                 for cut in PartyCut.bipartitions(halder.parties)]
        for s in sets:
            for party in range(s.parties):
                pairs = exclusive_pairs(s, party)
                assert (dyad_span_rank(s, party, pairs)
                        == full_stack_rank(s, party, pairs))


class TestCertify:
    def test_dominoes_all_angles(self, rng):
        for _ in range(5):
            thetas = rng.uniform(1e-3, math.pi / 4, size=4)
            cert = certify(rotated_dominoes(*thetas))
            assert cert.verdict == CERTIFIED_INDISCRIMINABLE
            assert all(r.span_rank == 8 for r in cert.records)

    def test_tiles(self):
        cert = certify(tiles())
        assert cert.verdict == CERTIFIED_INDISCRIMINABLE
        assert [r.span_rank for r in cert.records] == [8, 8]

    def test_demo_inconclusive(self):
        cert = certify(two_qubit_demo())
        assert cert.verdict == INCONCLUSIVE
        assert cert.records[0].span_rank == 2
        assert cert.records[1].span_rank == 3

    def test_rank_never_exceeds_required(self):
        for s in (tiles(), halder_states("full"), gentiles1(4)):
            for r in certify(s).records:
                assert r.span_rank <= r.required

    @pytest.mark.parametrize("n", [4, 6, 8, 16])
    def test_gentiles1_certified(self, n):
        cert = certify(gentiles1(n))
        assert cert.verdict == CERTIFIED_INDISCRIMINABLE
        assert all(r.span_rank == n * n - 1 for r in cert.records)
        pair_count = {4: 32, 6: 276, 8: 1072, 16: 23456}[n]
        assert all(len(r.pairs) == pair_count for r in cert.records)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_gentiles1_witness_dyads_span(self, n):
        mats = gentiles1_witness_dyads(n)
        assert len(mats) == n * n - 1
        assert numerical_rank(mats) == n * n - 1
        for m in mats:
            assert abs(np.trace(m)) < 1e-12


class TestCuts:
    def test_halder_cut_ranks(self):
        cert = certify_cut(halder_states("full"), PartyCut(((0,), (1, 2))))
        assert cert.verdict == CERTIFIED_INDISCRIMINABLE
        assert [(r.span_rank, r.required) for r in cert.records] == [
            (8, 8), (80, 80),
        ]

    def test_single_block_rejected(self):
        with pytest.raises(ValueError):
            certify_cut(two_qubit_demo(), PartyCut(((0, 1),)))

    def test_strong_nlwe_full(self):
        report = strong_nlwe(halder_states("full"))
        assert report.certified
        assert len(report.cuts) == 3

    def test_strong_nlwe_reduced12(self):
        s = halder_states("reduced12")
        assert certify(s).verdict == CERTIFIED_INDISCRIMINABLE
        report = strong_nlwe(s)
        assert not report.certified
        assert any(cert.verdict == INCONCLUSIVE for _, cert in report.cuts)

    def test_strong_nlwe_omit_diag(self):
        assert strong_nlwe(halder_states("omit_diag24")).certified

    def test_strong_nlwe_needs_three_parties(self):
        with pytest.raises(ValueError):
            strong_nlwe(tiles())


def exact_family_sets():
    """The sets whose local kets are unit multiples of vectors with entries
    c zeta_m^e, with their m (2 for integer kets, n / 2 for gentiles1(n))
    and the common denominator of their unit kets' entries, or None where
    each ket is scaled by its least nonzero magnitude."""
    halder = halder_states("full")
    sets = {"tiles": tiles(), "halder-full": halder,
            "rotated-dominoes": rotated_dominoes(*(math.pi / 4,) * 4),
            "two-qubit-demo": two_qubit_demo(), "gentiles1-4": gentiles1(4)}
    for cut in PartyCut.bipartitions(halder.parties):
        name = "|".join(",".join(map(str, b)) for b in cut.blocks)
        sets[f"halder-full-{name}"] = merge_cut(halder, cut)
    sets = {name: (s, 2, None) for name, s in sets.items()}
    for n in (6, 8):
        sets[f"gentiles1-{n}"] = (gentiles1(n), n // 2, None)
    # cos = 4/5 and 12/13: every unit ket is an integer vector over 65.
    a, b = math.atan2(3, 4), math.atan2(5, 12)
    for angles in ("aaaa", "abab", "bbbb"):
        thetas = [a if t == "a" else b for t in angles]
        sets[f"dominoes-{angles}"] = (rotated_dominoes(*thetas), 2, 65)
    return sets


class TestExactReference:
    """The certifier against exact arithmetic (exact_reference.py).

    A party whose rank mod p is d^2 - 1 is proved to saturate: the exact
    pairs make its dyads exactly traceless, so the rank over Q(zeta_m) is
    at most d^2 - 1, and it is at least the rank mod p.
    """

    @pytest.mark.parametrize("name", list(exact_family_sets()))
    def test_pairs_and_ranks_are_exact(self, name):
        s, m, denominator = exact_family_sets()[name]
        cert = certify(s)
        for record in cert.records:
            pairs = exact_reference.exact_pairs(s, record.party, m,
                                                denominator)
            assert np.array_equal(record.pairs, pairs)
            rank = exact_reference.dyad_rank_mod_p(s, record.party, pairs, m,
                                                   denominator)
            assert rank == record.span_rank
        # two_qubit_demo's party 0 ranks 2 of 3: a rank mod p below d^2 - 1
        # only bounds the exact rank from below, so there the agreement is
        # evidence, not a proof.
        assert ((cert.verdict == CERTIFIED_INDISCRIMINABLE)
                == (name != "two-qubit-demo"))

    def test_tiles_subsets_independent(self):
        s = tiles()
        for party in range(s.parties):
            w = exact_reference.integer_kets(s.local_matrix(party))
            for subset in itertools.combinations(range(len(w)), 3):
                assert exact_reference.integer_det(w[list(subset)]) != 0
        assert minimal_upb_check(s)

    def test_non_integer_kets_refused(self):
        with pytest.raises(ValueError, match="zeta_2"):
            exact_reference.integer_kets(gentiles1(6).local_matrix(0))
        with pytest.raises(ValueError, match="zeta_2"):
            exact_reference.integer_kets(
                rotated_dominoes(0.3, 0.3, 0.3, 0.3).local_matrix(0))

    @pytest.mark.parametrize("m,coeffs", [
        (1, [-1, 1]), (2, [1, 1]), (3, [1, 1, 1]), (4, [1, 0, 1]),
        (6, [1, -1, 1]), (8, [1, 0, 0, 0, 1])])
    def test_cyclotomic_and_roots(self, m, coeffs):
        assert exact_reference.cyclotomic(m).tolist() == coeffs
        z = exact_reference.root_of_unity(m)
        assert pow(z, m, exact_reference.PRIME) == 1
        # zeta_m is a root of Phi_m in GF(p) too.
        assert sum(c * pow(z, k, exact_reference.PRIME)
                   for k, c in enumerate(coeffs)) % exact_reference.PRIME == 0

    def test_overlaps_zero_mod_phi(self):
        # 1 + omega + omega^2 = 0 for omega = zeta_3, and i - i = 0, but
        # 1 + omega != 0 and 1 + i != 0.
        omega = np.exp(2j * np.pi / 3)
        v = np.array([[1, 1, 1], [1, omega, omega ** 2]])
        assert exact_reference.exact_overlaps_zero(v, 3)[0, 1]
        assert not exact_reference.exact_overlaps_zero(v[:, :2], 3)[0, 1]
        w = np.array([[1, 1j], [1j, 1], [1, 1]])
        assert exact_reference.exact_overlaps_zero(w, 4).tolist() == [
            [False, True, False], [True, False, False],
            [False, False, False]]
        with pytest.raises(ValueError, match="monomials"):
            exact_reference.exact_overlaps_zero(v, 4)

    def test_rank_mod_p_and_det(self):
        assert exact_reference.rank_mod_p([[1, 2], [2, 4]]) == 1
        assert exact_reference.rank_mod_p([[0, 0], [0, 3]]) == 1
        assert exact_reference.rank_mod_p([[exact_reference.PRIME, 0]]) == 0
        assert exact_reference.integer_det([[0, 1], [1, 0]]) == -1
        assert exact_reference.integer_det([[2, 1, 0], [1, 2, 1],
                                            [0, 1, 2]]) == 4


def replayed_members(s, tree) -> list[int]:
    """The members at the leaves of a component protocol, in leaf order,
    after checking that each split's children are orthogonal on its party."""
    if not isinstance(tree, tuple):
        return [tree]
    party, children = tree
    groups = [replayed_members(s, child) for child in children]
    v = s.local_matrix(party)
    for a, b in itertools.combinations(groups, 2):
        assert np.abs(v[a].conj() @ v[b].T).max() <= protocol_reference.TOL
    return [m for group in groups for m in group]


class TestProtocolReference:
    """The component-protocol search (protocol_reference.py) against the
    certifier: a set with a finite LOCC protocol is discriminable, so no set
    may have both a protocol and a certificate."""

    @pytest.mark.parametrize("build", [
        two_qubit_demo, lambda: one_way_product_set(2, 2, 0),
        lambda: one_way_product_set(3, 3, 0),
        lambda: one_way_product_set(4, 5, 0)],
        ids=["two-qubit-demo", "one-way-2x2", "one-way-3x3", "one-way-4x5"])
    def test_protocol_replays(self, build):
        s = build()
        tree = protocol_reference.protocol(s)
        assert tree is not None
        assert sorted(replayed_members(s, tree)) == list(range(s.n_states))

    @pytest.mark.parametrize("build", [
        tiles, lambda: halder_states("full"), lambda: gentiles1(4),
        lambda: gentiles1(6)],
        ids=["tiles", "halder-full", "gentiles1-4", "gentiles1-6"])
    def test_certified_families_have_none(self, build):
        assert protocol_reference.protocol(build()) is None

    def test_never_both(self):
        classes = {}
        for name, s in dropped_subsets():
            certified = certify(s).verdict == CERTIFIED_INDISCRIMINABLE
            found = protocol_reference.protocol(s) is not None
            assert not (certified and found), name
            classes[certified, found] = classes.get((certified, found), 0) + 1
        assert classes == {(True, False): 30, (False, True): 20,
                           (False, False): 46}


class TestHyperplanes:
    @staticmethod
    def flats(kets):
        return _hyperplanes(kets, lambda nodes: None)

    @pytest.mark.parametrize("case", range(30))
    def test_random_sets_match_enumeration(self, case):
        s = random_product_set(np.random.default_rng([7, case]))
        for alpha in range(s.parties):
            kets = _distinct_kets(s.local_matrix(alpha))[0]
            assert np.array_equal(self.flats(kets),
                                  brute_force_hyperplanes(kets))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_random_kets_match_enumeration(self, d):
        rng = np.random.default_rng([11, d])
        for _ in range(20):
            kets = random_unit_kets(rng, d)
            flats = self.flats(kets)
            assert flats.shape[1] == len(kets)
            assert np.array_equal(flats, brute_force_hyperplanes(kets))

    def test_gentiles1_6_flat_count(self):
        s = gentiles1(6)
        for alpha in range(s.parties):
            kets = _distinct_kets(s.local_matrix(alpha))[0]
            flats = self.flats(kets)
            assert flats.shape == (2391, len(kets))
            if alpha == 0:
                assert np.array_equal(flats, brute_force_hyperplanes(kets))


class TestFlatReference:
    """The blocked flat search against the per-flat one in
    ``tests/flat_reference.py``."""

    def test_masks_order_and_tick_total(self):
        for kets in reference_cases():
            ticks, reference_ticks = [], []
            flats = _hyperplanes(kets, ticks.append)
            reference = reference_hyperplanes(kets, reference_ticks.append)
            assert flats.dtype == bool
            assert np.array_equal(flats, reference)
            assert sum(ticks) == sum(reference_ticks)

    @pytest.mark.parametrize("entries", [None, 1, 200])
    def test_every_budget_on_small_sets(self, monkeypatch, entries):
        # Smaller blocks put block boundaries inside these small searches.
        if entries is not None:
            monkeypatch.setattr(certify_module, "_FLAT_ENTRIES", entries)
        sets = [tiles(), gentiles1(4), pair_basis((2, 2))]
        sets += [random_product_set(np.random.default_rng([7, case]))
                 for case in range(0, 30, 3)]
        for s in sets:
            budget = 0
            while True:
                budget += 1
                if not isinstance(check_budget(monkeypatch, s, budget), str):
                    break

    def test_gentiles1_6_budgets(self, monkeypatch):
        s = gentiles1(6)
        for entries in (None, 1, 200):
            with monkeypatch.context() as m:
                if entries is not None:
                    m.setattr(certify_module, "_FLAT_ENTRIES", entries)
                for budget in (1, 19, 100, 1000, 5000, 9000):
                    assert isinstance(check_budget(m, s, budget), str)


class TestBlockSize:
    """One block constant sizes every stacked UPB array: the flat search,
    the closure growth, the partition search and the d-subset masks."""

    @pytest.mark.parametrize("entries", [1, 200])
    def test_reports_match_default(self, monkeypatch, entries):
        sets = [tiles(), gentiles1(4), halder_states("full"),
                halder_states("reduced12"), general_position_upb(5, 0),
                shifts_upb()]
        expected = [upb_report(s) for s in sets]
        # reduced12 is extendible, so its witness and ranks are compared.
        assert expected[3].witness_partition is not None
        assert expected[3].local_ranks is not None
        monkeypatch.setattr(certify_module, "_FLAT_ENTRIES", entries)
        assert [upb_report(s) for s in sets] == expected

    def test_minimality_check_memory(self):
        # C(17, 9) = 24,310 d-subsets on each party, decided a block at a
        # time; numpy's allocations are traced.
        s = general_position_upb(9, 0)
        tracemalloc.start()
        try:
            assert minimal_upb_check(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


class TestShort:
    """Which masks are short: the Gram prefilter and the stacked growth
    give the per-mask closure rank of ``flat_reference.closure_rank``."""

    def test_random_masks(self):
        rng = np.random.default_rng(31)
        for case in range(40):
            s = random_product_set(np.random.default_rng([7, case]))
            for alpha in range(s.parties):
                kets = s.local_matrix(alpha)
                masks = rng.random((50, s.n_states)) < rng.random((50, 1))
                assert np.array_equal(_closure_ranks(kets, masks),
                                      reference_ranks(kets, masks))

    @pytest.mark.parametrize("n", [6, 200])
    @pytest.mark.parametrize("sigma", [1e-6, 5e-9, 2e-8, 1e-10])
    def test_near_cutoff(self, n, sigma):
        rng = np.random.default_rng([13, n])
        for d in (2, 3, 4):
            kets = near_cutoff_stack(rng, n, d, sigma)
            smallest = np.linalg.svd(kets, compute_uv=False)[-1]
            assert sigma / 4 < smallest <= sigma
            masks = rng.random((40, n)) < 0.8
            masks[:2] = True
            masks[1, -1] = False
            ranks = _closure_ranks(kets, masks)
            assert np.array_equal(ranks, reference_ranks(kets, masks))
            # The last ket's residual against the plane is sigma.
            assert ranks[0] == d - (sigma <= DEFAULT_RANK_TOL)
            assert ranks[1] == d - 1

    def test_many_parallel_kets(self):
        # 2,000 unit kets in one plane of C^3, close to one another: the
        # Gram's rounding lifts its smallest eigenvalue above 1e-12, so
        # only a cutoff growing with N keeps these masks short.
        rng = np.random.default_rng(17)
        n = 2000
        around = rng.normal(size=2) + 1j * rng.normal(size=2)
        plane = around + 1e-3 * (rng.normal(size=(n, 2))
                                 + 1j * rng.normal(size=(n, 2)))
        kets = np.hstack([plane, np.zeros((n, 1))]) @ haar_unitary(3, rng)
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        masks = rng.random((20, n)) < 0.9
        masks[0] = True
        ranks = _closure_ranks(kets, masks)
        assert (ranks == 2).all()
        assert np.array_equal(ranks, reference_ranks(kets, masks))


class TestPartyOrder:
    """One closure rule for every party: a ket moved to tolerance scale
    from a dependency gives the same verdict under either party order, and
    the minimality check never passes a set the search extends."""

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("seed", range(5))
    def test_near_dependent_sets(self, d, seed):
        for party, eps, j in itertools.product(
                (0, 1), (1e-7, 3e-8, 1e-8, 3e-9), (0, d)):
            s = near_dependent_upb(d, seed, party, eps, j)
            # Both orders from the same rows, so their kets are bit-equal.
            orders = [StateSet(s.dims, [m[::step] for m in s.states],
                               validate=False) for step in (1, -1)]
            results = [upb_extendibility(t) for t in orders]
            assert results[0].extendible == results[1].extendible
            for t, result in zip(orders, results):
                assert not (result.extendible and minimal_upb_check(t))


class TestExtendibility:
    def test_tiles_unextendible(self):
        result = upb_extendibility(tiles())
        assert not result.extendible
        assert result.witness is None

    def test_two_state_pair_extendible(self):
        result = upb_extendibility(pair_basis((2, 2)))
        assert result.extendible
        assert result.witness == ((0,), (1,))
        assert all(r < d for r, d in zip(result.witness_ranks, (2, 2)))

    def test_complete_product_basis_unextendible(self):
        e = np.eye(2)
        s = StateSet((2, 2), [(e[i], e[j]) for i in range(2) for j in range(2)])
        assert not upb_extendibility(s).extendible

    def test_budget_guard(self):
        with pytest.raises(EnumerationBudgetExceeded):
            upb_extendibility(halder_states("full"), budget=100)

    def test_budget_counts_nodes_visited(self):
        with pytest.raises(EnumerationBudgetExceeded,
                           match=r"visited 765 nodes and stopped before a "
                                 r"block of 287 would pass its budget of 1000"):
            upb_extendibility(gentiles1(6), budget=1000)

    @pytest.mark.parametrize("budget", [0, -1, 2.5, True, float("nan")])
    @pytest.mark.parametrize("analysis", [upb_extendibility, upb_report])
    def test_budget_must_be_positive_int(self, analysis, budget):
        with pytest.raises(ValueError, match="budget"):
            analysis(halder_states("full"), budget=budget)

    def test_gentiles1_6_unextendible(self, rng):
        base = gentiles1(6)
        scrambled = apply_local_unitaries(
            base, [haar_unitary(6, rng) for _ in range(2)])
        for s in (base, scrambled):
            result = upb_extendibility(s)
            assert not result.extendible
            assert result.witness is None

    def test_gentiles1_6_minus_member_extendible(self):
        base = gentiles1(6)
        s = StateSet(base.dims, base.states[1:])
        result = upb_extendibility(s)
        assert result.extendible
        assert_witness(s, result)

    def test_halder_full_unextendible(self):
        assert not upb_extendibility(halder_states("full")).extendible

    @pytest.mark.parametrize("case", range(30))
    def test_agrees_with_every_assignment(self, case):
        s = random_product_set(np.random.default_rng([7, case]))
        result = upb_extendibility(s)
        assert result.extendible == brute_force_extendible(s)
        if result.extendible:
            assert_witness(s, result)

    def test_party_of_dimension_one(self):
        # A one-dimensional party is spanned by any member, so it can only
        # be given nothing.
        e, one = np.eye(2), np.ones(1)
        sets = [
            StateSet((1, 2), [(one, e[0]), (one, e[1])], validate=False),
            StateSet((1, 2), [(one, e[0]), (1j * one, e[0])], validate=False),
            StateSet((2, 1, 2), [(e[0], one, e[0]), (e[1], one, e[1])],
                     validate=False),
        ]
        results = [upb_extendibility(s) for s in sets]
        assert [r.extendible for r in results] == [False, True, True]
        assert [r.witness for r in results] == [None, ((), (0, 1)),
                                                ((0,), (), (1,))]
        for s, r in zip(sets, results):
            assert r.extendible == brute_force_extendible(s)

    def test_random_sets_cover_both_verdicts(self):
        sets = [random_product_set(np.random.default_rng([7, case]))
                for case in range(30)]
        seen = {(s.parties, brute_force_extendible(s)) for s in sets}
        assert seen == {(2, False), (2, True), (3, False), (3, True)}


MINIMAL_DIMS = [(1, 3), (3, 1), (2, 2), (2, 3), (3, 3), (4, 2), (3, 4),
                (2, 2, 2), (1, 2, 3), (2, 8), (6, 3), (2, 2, 5)]


def minimal_count_set(rng):
    """A product set of the minimal member count for random dims.

    Each party of d >= 2 holds, one time in four each, kets drawn from a
    pool smaller than the set (so kets repeat) or kets inside a random
    subspace of dimension below d - 1 (or d - 1 itself when d = 2), and
    random kets otherwise. Validation is off.
    """
    dims = MINIMAL_DIMS[rng.integers(len(MINIMAL_DIMS))]
    n = minimal_upb_count(dims)

    def gauss(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    columns = []
    for d in dims:
        kind = rng.integers(4) if d > 1 else 0
        if kind == 1:
            v = gauss(n - 1, d)[rng.integers(n - 1, size=n)]
        elif kind == 2:
            r = int(rng.integers(1, max(2, d - 1)))
            v = gauss(n, r) @ gauss(r, d)
        else:
            v = gauss(n, d)
        columns.append(v)
    return StateSet(dims, list(zip(*columns)), validate=False)


class TestMinimalUpb:
    def test_tiles_minimal(self):
        s = tiles()
        assert s.n_states == minimal_upb_count(s.dims) == 5
        assert minimal_upb_check(s)

    def test_dominoes_fail_count_gate(self):
        assert not minimal_upb_check(rotated_dominoes(*([math.pi / 4] * 4)))

    def test_duplicate_local_state_fails(self):
        # Replace the uniform tile with |0>|2>: the first party then holds
        # |0> twice and some 3-subset is dependent. Orthogonality no longer
        # holds, so construction is unchecked; the subset test is the point.
        base = tiles()
        e = np.eye(3)
        entries = [(e[0], e[2])] + [base.states[m] for m in range(1, 5)]
        s = StateSet((3, 3), entries, validate=False)
        assert not minimal_upb_check(s)

    def test_tiles_verdict(self):
        assert certify_minimal_upb(tiles()) == CERTIFIED_INDISCRIMINABLE

    def test_nonminimal_verdict(self):
        verdict = certify_minimal_upb(rotated_dominoes(*([math.pi / 4] * 4)))
        assert verdict == INCONCLUSIVE

    def test_count_condition_gate(self, rng):
        # Minimal count on 4x2 is 5 < 2(4-1)+1 = 7: even with all local
        # subsets independent the verdict must stay inconclusive.
        dims = (4, 2)
        n = minimal_upb_count(dims)
        entries = [
            (rng.normal(size=4) + 1j * rng.normal(size=4),
             rng.normal(size=2) + 1j * rng.normal(size=2))
            for _ in range(n)
        ]
        s = StateSet(dims, entries, validate=False)
        assert minimal_upb_check(s)
        assert certify_minimal_upb(s) == INCONCLUSIVE

    def test_agreement_with_enumeration(self, rng):
        # On minimal-count sets the subset-independence test and the
        # partition search must return the same unextendibility answer.
        candidates = [tiles()]
        for _ in range(10):
            candidates.append(apply_local_unitaries(
                tiles(), [haar_unitary(3, rng) for _ in range(2)]
            ))
        e3 = np.eye(3)
        candidates.append(StateSet((3, 3), [
            (e3[0], e3[0]), (e3[0], e3[1]), (e3[0], e3[2]),
            (e3[1], e3[0]), (e3[1], e3[1]),
        ]))
        for s in candidates:
            assert s.n_states == minimal_upb_count(s.dims)
            assert minimal_upb_check(s) == (not upb_extendibility(s).extendible)

    @pytest.mark.parametrize("start", range(0, 400, 100))
    def test_matches_subset_enumeration(self, start):
        # Minimal-count sets whose parties hold random kets, repeated kets,
        # kets spanning fewer than d - 1 dimensions (no flat), or d = 1.
        for case in range(start, start + 100):
            s = minimal_count_set(np.random.default_rng([41, case]))
            assert minimal_upb_check(s) == subset_minimal(s)

    @pytest.mark.parametrize("dims", [(2, 20), (3, 12), (3, 3, 8), (2, 2, 2, 2)])
    def test_growths_within_subset_count(self, monkeypatch, dims):
        # A party's flats are searched only when that makes fewer growths
        # than it has d-subsets; generic subsets clear the Gram prefilter.
        rng = np.random.default_rng(list(dims))
        n = minimal_upb_count(dims)
        s = StateSet(dims, list(zip(*[
            rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
            for d in dims])), validate=False)
        grown = []

        def counted(block, nodes, js, leaf):
            grown.append(len(js))
            return _children(block, nodes, js, leaf)

        monkeypatch.setattr(certify_module, "_children", counted)
        assert minimal_upb_check(s)
        assert 0 < sum(grown) <= sum(math.comb(n, d) for d in dims)

    def test_report_composition(self):
        report = upb_report(tiles())
        assert report.is_unextendible and report.is_minimal
        assert report.count_condition_met
        assert report.verdict == CERTIFIED_INDISCRIMINABLE
        assert report.min_states == 5
        report = upb_report(pair_basis((2, 2)))
        assert not report.is_unextendible
        assert report.witness_partition is not None


# Minimal UPBs with known verdicts: every check must find them unextendible
# and certify them.
KNOWN_UPBS = {
    **{f"general-position-d{d}-seed{seed}":
       (lambda d=d, seed=seed: general_position_upb(d, seed))
       for d in (3, 5, 7) for seed in range(3)},
    "shifts": shifts_upb,
    "tiles": tiles,
}


class TestKnownMinimalUpbs:
    @pytest.mark.parametrize("name", KNOWN_UPBS)
    def test_verdicts(self, name):
        s = KNOWN_UPBS[name]()
        assert s.n_states == minimal_upb_count(s.dims)
        assert minimal_upb_check(s)
        assert not upb_extendibility(s).extendible
        assert certify_minimal_upb(s) == CERTIFIED_INDISCRIMINABLE
        assert certify(s).verdict == CERTIFIED_INDISCRIMINABLE


class TestMinStatesBound:
    @pytest.mark.parametrize("dims,expected", [
        ((3, 3), 5),
        ((2, 2), 3),
        ((3, 3, 3), 6),
    ])
    def test_values(self, dims, expected):
        assert min_states_bound(dims) == expected

    def test_matches_ceiling_formula(self):
        for dims in [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 4), (5, 5, 5)]:
            total = sum(d * d - 1 for d in dims)
            expected = math.ceil(0.5 + math.sqrt(total + 0.25))
            assert min_states_bound(dims) == expected

    def test_rejects_trivial_dimension(self):
        with pytest.raises(ValueError):
            min_states_bound((1, 3))

    @pytest.mark.parametrize("count", [min_states_bound, minimal_upb_count])
    @pytest.mark.parametrize("dims", [(2.9, 3.5), (3.0, 3), (True, 3),
                                      ("3", 3)])
    def test_rejects_non_integer_dims(self, count, dims):
        with pytest.raises(ValueError, match="must be integers"):
            count(dims)

    def test_numpy_integer_dims(self):
        dims = np.array([3, 3])
        assert min_states_bound(dims) == 5
        assert minimal_upb_count(dims) == 5


class TestInvariance:
    def test_local_unitary_invariance(self, rng):
        for base in (two_qubit_demo(), tiles(), halder_states("reduced12")):
            reference = certify(base)
            for _ in range(5):
                us = [haar_unitary(d, rng) for d in base.dims]
                rotated = certify(apply_local_unitaries(base, us))
                assert rotated.verdict == reference.verdict
                for a, b in zip(rotated.records, reference.records):
                    assert a.span_rank == b.span_rank
                    assert sorted(a.pairs.tolist()) == sorted(b.pairs.tolist())

    def test_state_permutation_invariance(self, rng):
        for base in (two_qubit_demo(), tiles()):
            reference = certify(base)
            for _ in range(5):
                order = rng.permutation(base.n_states)
                permuted = certify(permute_states(base, order))
                assert permuted.verdict == reference.verdict
                for a, b in zip(permuted.records, reference.records):
                    assert a.span_rank == b.span_rank
                    assert len(a.pairs) == len(b.pairs)
