import math

import numpy as np
import pytest

from nlwe.certify import (
    CERTIFIED_INDISCRIMINABLE,
    INCONCLUSIVE,
    EnumerationBudgetExceeded,
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
    gentiles1_witness_dyads,
    halder_states,
    rotated_dominoes,
    tiles,
    two_qubit_demo,
)
from nlwe.linalg import numerical_rank

from conftest import apply_local_unitaries, haar_unitary, permute_states


def pair_basis(dims):
    e = np.eye(2)
    return StateSet(dims, [(e[0], e[0]), (e[1], e[1])])


class TestExclusivePairs:
    def test_demo_second_party(self):
        s = two_qubit_demo()
        assert sorted(exclusive_pairs(s, 1)) == [(0, 1), (1, 0), (2, 3), (3, 2)]

    def test_demo_first_party(self):
        s = two_qubit_demo()
        assert sorted(exclusive_pairs(s, 0)) == [
            (0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0), (3, 1),
        ]

    def test_single_state(self):
        s = StateSet((2, 2), [([1, 0], [1, 0])])
        assert exclusive_pairs(s, 0) == []

    def test_symmetric(self):
        s = tiles()
        for party in (0, 1):
            pairs = set(exclusive_pairs(s, party))
            assert {(j, i) for i, j in pairs} == pairs

    def test_bad_party(self):
        with pytest.raises(ValueError):
            exclusive_pairs(two_qubit_demo(), 2)

    def test_requires_product_form(self):
        with pytest.raises(ValueError, match="product"):
            exclusive_pairs(bell_states(), 0)


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

    def test_monotone_under_more_pairs(self, rng):
        s = tiles()
        pairs = exclusive_pairs(s, 0)
        full_rank = dyad_span_rank(s, 0, pairs)
        for _ in range(20):
            k = rng.integers(0, len(pairs) + 1)
            subset = [pairs[i] for i in rng.choice(len(pairs), size=k,
                                                   replace=False)]
            assert dyad_span_rank(s, 0, subset) <= full_rank


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
        assert cert.record(0).span_rank == 2
        assert cert.record(1).span_rank == 3

    def test_rank_never_exceeds_required(self):
        for s in (tiles(), halder_states("full"), gentiles1(4)):
            for r in certify(s).records:
                assert r.span_rank <= r.required

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_gentiles1_certified(self, n):
        cert = certify(gentiles1(n))
        assert cert.verdict == CERTIFIED_INDISCRIMINABLE
        assert all(r.span_rank == n * n - 1 for r in cert.records)

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

    def test_report_composition(self):
        report = upb_report(tiles())
        assert report.is_unextendible and report.is_minimal
        assert report.count_condition_met
        assert report.verdict == CERTIFIED_INDISCRIMINABLE
        assert report.min_states == 5
        report = upb_report(pair_basis((2, 2)))
        assert not report.is_unextendible
        assert report.witness_partition is not None


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
                    assert sorted(a.pairs) == sorted(b.pairs)

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
