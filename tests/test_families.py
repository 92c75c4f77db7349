import json
import math

import numpy as np
import pytest

import nlwe.families as families_module
from nlwe.families import (
    ORTHOGONALITY_TOL,
    PartyCut,
    StateSet,
    bell_states,
    gentiles1,
    halder_states,
    load,
    merge_cut,
    rotated_dominoes,
    save,
    tiles,
    two_qubit_demo,
)

import conftest
from conftest import apply_local_unitaries, haar_unitary
from stateset_reference import (
    ReferenceStateSet,
    reference_from_payload,
    reference_merge_cut,
)


def assert_pairwise_orthogonal(s, tol=ORTHOGONALITY_TOL):
    v = s.global_matrix()
    gram = np.abs(v.conj() @ v.T)
    np.fill_diagonal(gram, 0.0)
    assert gram.max() <= tol


class TestStateSet:
    def test_normalizes_on_construction(self):
        s = StateSet((2,), [([3.0, 0.0],), ([0.0, 5.0],)])
        assert np.allclose(s.global_state(0), [1, 0])
        assert np.allclose(s.global_state(1), [0, 1])

    def test_normalizing_twice_changes_nothing(self):
        # A product set rebuilt from its own kets keeps them bit for bit.
        for seed in range(200):
            rng = np.random.default_rng(seed)
            dims = tuple(int(d) for d in rng.integers(1, 33, size=2))
            s = StateSet(dims, random_entries(rng, dims, 3), validate=False)
            rebuilt = StateSet(dims, s.states, validate=False)
            for party in range(s.parties):
                assert np.array_equal(rebuilt.local_matrix(party),
                                      s.local_matrix(party))

    def test_member_kets_normalized_once(self):
        # The per-member path, taken by a set with an entangled member.
        for seed in range(50):
            rng = np.random.default_rng(seed)
            entries = [(rng.normal(size=8) + 1j * rng.normal(size=8),)]
            entries += random_entries(rng, (2, 2, 2), 3)
            s = StateSet((2, 2, 2), entries, validate=False)
            rebuilt = StateSet((2, 2, 2), s.states, validate=False)
            for kets, again in zip(s.states, rebuilt.states):
                assert all(map(np.array_equal, kets, again))

    def test_uniform_priors_default(self):
        s = two_qubit_demo()
        assert np.allclose(s.priors, 0.25)

    def test_rejects_nonorthogonal(self):
        with pytest.raises(ValueError, match="not orthogonal"):
            StateSet((2,), [([1, 0],), ([1, 1],)])

    def test_names_first_nonorthogonal_pair(self):
        e = np.eye(4)
        states = [(e[0],), (e[1],), (e[2],), (e[1] + e[3],)]
        with pytest.raises(ValueError, match="states 1 and 3"):
            StateSet((4,), states)
        e = np.eye(2)
        product = [(e[0], e[0]), (e[1], e[0]), (e[1], e[0] + e[1]),
                   (e[0], e[1]), (e[0] + e[1], e[1])]
        with pytest.raises(ValueError, match="states 1 and 2"):
            StateSet((2, 2), product)

    def test_product_set_validated_without_global_kets(self, monkeypatch):
        def refuse(self):
            raise AssertionError("global matrix formed")

        monkeypatch.setattr(StateSet, "global_matrix", refuse)
        assert gentiles1(8).n_states == 8 * 6 + 1

    def test_local_matrix_rows(self):
        s = tiles()
        for party in range(s.parties):
            v = s.local_matrix(party)
            assert v.shape == (s.n_states, s.dims[party])
            for m in range(s.n_states):
                assert np.array_equal(v[m], s.local_state(m, party))
        with pytest.raises(ValueError, match="product form"):
            bell_states().local_matrix(0)

    def test_local_matrix_read_only(self):
        for s in (tiles(), merge_cut(halder_states("full"),
                                     PartyCut(((0,), (1, 2))))):
            for party in range(s.parties):
                v = s.local_matrix(party)
                assert not v.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    v[0, 0] = 1.0
                assert not s.local_state(0, party).flags.writeable

    @pytest.mark.parametrize("states", [
        [([1e308, 0.0], [1.0, 0.0]), ([0.0, 1.0], [0.0, 1.0])],
        [([1.0, 0.0], [1.0, 0.0]), ([0.0, 1e200], [1e200, 1e200])],
        [([1e308, 1e308, 0.0, 0.0],), ([0.0, 0.0, 1.0, 0.0],)],
    ])
    def test_rejects_overflowing_norm(self, states):
        # Dividing by an infinite norm would store a zero ket, which passes
        # the orthogonality check.
        with pytest.raises(ValueError, match="ket norm overflows"):
            StateSet((2, 2), states)

    def test_unchecked_construction_allowed(self):
        s = StateSet((2,), [([1, 0],), ([1, 1],)], validate=False)
        assert s.n_states == 2

    def test_rejects_bad_priors(self):
        e = np.eye(2)
        with pytest.raises(ValueError, match="sum"):
            StateSet((2,), [(e[0],), (e[1],)], priors=[0.6, 0.6])
        with pytest.raises(ValueError, match="positive"):
            StateSet((2,), [(e[0],), (e[1],)], priors=[1.2, -0.2])
        # NaN passes both "<= 0" and the sum check unless finiteness is checked.
        with pytest.raises(ValueError, match="priors must be finite and "
                                             "positive"):
            StateSet((2,), [(e[0],), (e[1],)], priors=[math.nan, 0.5])
        with pytest.raises(ValueError, match="expected 2 priors, got 3"):
            StateSet((2,), [(e[0],), (e[1],)], priors=[0.5, 0.25, 0.25])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="local dimensions"):
            StateSet((2, 3), [([1, 0], [1, 0])])

    @pytest.mark.parametrize("dims", [(2.7, True), (3.0, 3)])
    def test_rejects_non_integer_dims(self, dims):
        # Casting would build (2, 1) from (2.7, True) without complaint.
        with pytest.raises(ValueError, match="must be integers"):
            StateSet(dims, [([1, 0], [1]), ([0, 1], [1])])

    def test_numpy_integer_dims_accepted(self):
        s = StateSet(np.array([2, 1], dtype=np.int64),
                     [([1, 0], [1]), ([0, 1], [1])])
        assert s.dims == (2, 1)
        assert all(type(d) is int for d in s.dims)

    @pytest.mark.parametrize("build", [tiles, lambda: mixed_ghz()[0]])
    def test_member_out_of_range(self, build):
        s = build()
        with pytest.raises(IndexError):
            s.is_product(s.n_states)
        with pytest.raises(IndexError):
            s.local_state(s.n_states, 0)

    def test_immutable(self):
        s = tiles()
        with pytest.raises(AttributeError):
            s.dims = (2, 2)
        with pytest.raises(ValueError):
            s.priors[0] = 0.9


class TestGenerators:
    def test_all_families_orthogonal(self):
        for s in (
            two_qubit_demo(),
            bell_states(),
            tiles(),
            rotated_dominoes(0.3, 0.2, 0.7, math.pi / 4),
            rotated_dominoes(*([math.pi / 8] * 4)),
            halder_states("full"),
            halder_states("reduced12"),
            halder_states("omit_diag24"),
            gentiles1(4),
            gentiles1(6),
        ):
            assert_pairwise_orthogonal(s)

    def test_dominoes_shape(self):
        s = rotated_dominoes(*([math.pi / 4] * 4))
        assert s.n_states == 9 and s.dims == (3, 3)

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.pi / 4 + 0.01, 2.0])
    def test_dominoes_angle_range(self, bad):
        with pytest.raises(ValueError):
            rotated_dominoes(bad, 0.3, 0.3, 0.3)

    def test_tiles_members(self):
        s = tiles()
        assert s.n_states == 5 and s.dims == (3, 3)
        assert np.allclose(s.global_state(0), np.full(9, 1 / 3))

    def test_bell(self):
        s = bell_states()
        assert s.n_states == 4 and s.dims == (2, 2)
        assert np.allclose(s.priors, 0.25)
        assert not s.all_product

    def test_demo_members(self):
        s = two_qubit_demo()
        assert s.n_states == 4 and s.dims == (2, 2)
        r = 1 / math.sqrt(2)
        assert np.allclose(s.local_state(2, 1), [r, r])
        assert np.allclose(s.local_state(3, 1), [r, -r])

    def test_halder_counts(self):
        assert halder_states("full").n_states == 27
        assert halder_states("reduced12").n_states == 12
        assert halder_states("omit_diag24").n_states == 24

    def test_halder_second_member_pinned(self):
        # One rotation step sends |1>|2>|1+2> to |2>|1+2>|1>; members are
        # ordered 1+, 1-, 2+, 2-, ...
        s = halder_states("full")
        e = np.eye(3)
        plus = (e[0] + e[1]) / math.sqrt(2)
        assert np.allclose(s.local_state(2, 0), e[1])
        assert np.allclose(s.local_state(2, 1), plus)
        assert np.allclose(s.local_state(2, 2), e[0])

    def test_halder_reduced_membership(self):
        full = halder_states("full")
        reduced = halder_states("reduced12")
        # members 1-3 (both signs) are the first six of the full ordering
        for m in range(6):
            assert np.allclose(full.global_state(m), reduced.global_state(m))

    def test_halder_bad_variant(self):
        with pytest.raises(ValueError):
            halder_states("all")

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_gentiles1_count(self, n):
        assert gentiles1(n).n_states == n * (n - 2) + 1

    def test_gentiles1_phase_for_n4(self):
        # omega = exp(4 pi i / 4) = -1, so the first vertical member has
        # second factor (|1> - |2>)/sqrt(2)
        s = gentiles1(4)
        expected = np.zeros(4, dtype=complex)
        expected[1], expected[2] = 1, -1
        assert np.allclose(s.local_state(0, 1), expected / math.sqrt(2))

    @pytest.mark.parametrize("n", [3, 5, 2, 0])
    def test_gentiles1_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            gentiles1(n)


class TestPartyCut:
    def test_parse(self):
        cut = PartyCut.parse("0,1|2", 3)
        assert cut.blocks == ((0, 1), (2,))

    def test_parse_malformed(self):
        with pytest.raises(ValueError):
            PartyCut.parse("0,x|2", 3)
        with pytest.raises(ValueError):
            PartyCut.parse("0|0,1", 3)
        with pytest.raises(ValueError):
            PartyCut.parse("0|1", 3)

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            PartyCut(((0, 1), (1, 2)))
        with pytest.raises(ValueError):
            PartyCut(((0,), (2,)))
        with pytest.raises(ValueError, match="nonempty"):
            PartyCut(((0, 1), ()))

    @pytest.mark.parametrize("blocks", [((0, 1.7), (2,)),
                                        ((True, 2), (False,)),
                                        ((0, 1.0), (2,))])
    def test_rejects_non_integer_indices(self, blocks):
        with pytest.raises(ValueError, match="must be integers"):
            PartyCut(blocks)

    def test_numpy_integer_indices(self):
        cut = PartyCut(((np.int64(2), np.int32(0)), (np.uint8(1),)))
        assert cut.blocks == ((0, 2), (1,))
        assert all(type(i) is int for b in cut.blocks for i in b)

    def test_bipartitions_of_three(self):
        cuts = PartyCut.bipartitions(3)
        assert len(cuts) == 3
        assert {frozenset(map(frozenset, c.blocks)) for c in cuts} == {
            frozenset({frozenset({0}), frozenset({1, 2})}),
            frozenset({frozenset({1}), frozenset({0, 2})}),
            frozenset({frozenset({2}), frozenset({0, 1})}),
        }

    def test_bipartitions_of_four(self):
        assert len(PartyCut.bipartitions(4)) == 7  # 2^(4-1) - 1

    def test_bipartitions_need_two_parties(self):
        with pytest.raises(ValueError, match="two parties"):
            PartyCut.bipartitions(1)


class TestMergeCut:
    def test_halder_merge_dims(self):
        merged = merge_cut(halder_states("full"), PartyCut(((0,), (1, 2))))
        assert merged.dims == (3, 9)
        assert merged.n_states == 27

    def test_trivial_cut_identity(self):
        s = tiles()
        merged = merge_cut(s, PartyCut(((0,), (1,))))
        assert merged.dims == s.dims
        for m in range(s.n_states):
            assert np.allclose(merged.global_state(m), s.global_state(m))

    def test_single_block(self):
        merged = merge_cut(two_qubit_demo(), PartyCut(((0, 1),)))
        assert merged.dims == (4,)
        assert merged.parties == 1

    def test_preserves_inner_products(self, rng):
        s = apply_local_unitaries(
            halder_states("full"), [haar_unitary(3, rng) for _ in range(3)]
        )
        for cut in PartyCut.bipartitions(3):
            merged = merge_cut(s, cut)
            g1 = s.global_matrix()
            g2 = merged.global_matrix()
            assert np.allclose(g1.conj() @ g1.T, g2.conj() @ g2.T, atol=1e-12)

    def test_entangled_members_follow_reordering(self):
        s = bell_states()
        merged = merge_cut(s, PartyCut(((0, 1),)))
        for m in range(4):
            assert np.allclose(merged.global_state(m), s.global_state(m))

    def test_wrong_party_count(self):
        with pytest.raises(ValueError):
            merge_cut(tiles(), PartyCut(((0,), (1,), (2,))))


class TestFileRoundTrip:
    @pytest.mark.parametrize("build", [tiles, bell_states, lambda: gentiles1(6)])
    def test_lossless(self, build, tmp_path):
        s = build()
        path = tmp_path / "set.json"
        save(s, path)
        loaded = load(path)
        assert loaded.dims == s.dims
        assert np.allclose(loaded.priors, s.priors, atol=1e-12)
        for m in range(s.n_states):
            assert len(loaded.states[m]) == len(s.states[m])
            for a, b in zip(loaded.states[m], s.states[m]):
                assert np.allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("build", [
        lambda: rotated_dominoes(0.3, 0.4, 0.5, 0.6), bell_states])
    def test_bit_exact(self, build, tmp_path):
        # Kets that are unit up to rounding come back with the same bits.
        s = build()
        path = tmp_path / "set.json"
        save(s, path)
        loaded = load(path)
        for kets, again in zip(s.states, loaded.states):
            assert all(map(np.array_equal, kets, again))

    def test_load_rejects_nonorthogonal(self, tmp_path):
        s = tiles()
        path = tmp_path / "bad.json"
        save(s, path)
        payload = json.loads(path.read_text())
        payload["states"][0] = payload["states"][1]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="states .* not orthogonal"):
            load(path)

    def test_load_rejects_bad_version(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text(json.dumps({"version": 9}))
        with pytest.raises(ValueError, match="version"):
            load(path)

    @pytest.mark.parametrize("key,value", [
        ("dims", [3.7, 3.2]), ("dims", ["3", "3"]), ("dims", [3.0, 3.0]),
        ("dims", [True, 3]), ("dims", 3), ("version", True),
        ("version", 1.0), ("version", "1"), ("version", None),
    ])
    def test_load_rejects_non_integer_fields(self, tmp_path, key, value):
        path = tmp_path / "bad.json"
        save(tiles(), path)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="malformed state-set payload"):
            load(path)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            load(path)


def error_of(build):
    """(type, message) of the exception ``build()`` raises, or None."""
    try:
        build()
    except Exception as exc:  # compared with the reference's, not handled
        return type(exc), str(exc)
    return None


def assert_same_layout(s, ref):
    """Bit-identical dims, priors and stored kets of a set and its reference."""
    assert s.dims == ref.dims
    assert np.array_equal(s.priors, ref.priors)
    assert s.n_states == ref.n_states
    assert s.all_product == ref.all_product
    for m in range(s.n_states):
        assert len(s.states[m]) == len(ref.states[m])
        for a, b in zip(s.states[m], ref.states[m]):
            assert a.dtype == b.dtype == complex
            assert np.array_equal(a, b)
    if s.all_product:
        for party in range(s.parties):
            assert np.array_equal(s.local_matrix(party),
                                  ref.local_matrix(party))
    assert np.array_equal(s.global_matrix(), ref.global_matrix())


NAMED_FAMILIES = [
    two_qubit_demo, bell_states, tiles,
    lambda: rotated_dominoes(0.3, 0.2, 0.7, math.pi / 4),
    lambda: halder_states("full"), lambda: halder_states("reduced12"),
    lambda: halder_states("omit_diag24"),
    lambda: gentiles1(4), lambda: gentiles1(6), lambda: gentiles1(10),
]


def mixed_ghz():
    """(|000> + |111>)/sqrt2, (|000> - |111>)/sqrt2, |001>, |110>, |010>,
    as a set and as its reference."""
    e, e8 = np.eye(2), np.eye(8)
    entries = [(e8[0] + e8[7],), (e8[0] - e8[7],),
               (e[0], e[0], e[1]), (e[1], e[1], e[0]), (e[0], e[1], e[0])]
    return (StateSet((2, 2, 2), entries),
            ReferenceStateSet((2, 2, 2), entries))


def random_entries(rng, dims, n):
    return [tuple(rng.normal(size=d) * 10 ** rng.uniform(-3, 3)
                  + 1j * rng.normal(size=d) for d in dims) for _ in range(n)]


class TestLayoutOracle:
    """The per-party layout against the per-member reference."""

    @pytest.mark.parametrize("build", NAMED_FAMILIES)
    def test_named_families(self, build, monkeypatch):
        s = build()
        monkeypatch.setattr(families_module, "StateSet", ReferenceStateSet)
        assert_same_layout(s, build())

    def test_random_product_sets(self, rng):
        for _ in range(40):
            dims = tuple(int(d) for d in rng.integers(1, 6, rng.integers(2, 5)))
            entries = random_entries(rng, dims, int(rng.integers(1, 12)))
            priors = rng.random(len(entries)) + 0.1
            priors /= priors.sum()
            assert_same_layout(
                StateSet(dims, entries, priors, validate=False),
                ReferenceStateSet(dims, entries, priors, validate=False))

    @staticmethod
    def scrambled(s, unitaries, monkeypatch):
        """``s`` under local unitaries, and the same entries as a reference."""
        got = apply_local_unitaries(s, unitaries)
        with monkeypatch.context() as patch:
            patch.setattr(conftest, "StateSet", ReferenceStateSet)
            return got, apply_local_unitaries(s, unitaries)

    def test_scrambled_sets(self, rng, monkeypatch):
        for s in (halder_states("full"), gentiles1(8), tiles(), bell_states()):
            unitaries = [haar_unitary(d, rng) for d in s.dims]
            assert_same_layout(*self.scrambled(s, unitaries, monkeypatch))

    def test_halder_bipartitions(self, rng, monkeypatch):
        s = halder_states("full")
        with monkeypatch.context() as patch:
            patch.setattr(families_module, "StateSet", ReferenceStateSet)
            ref = halder_states("full")
        for s, ref in ((s, ref),
                       self.scrambled(s, [haar_unitary(3, rng)
                                          for _ in range(3)], monkeypatch)):
            for cut in PartyCut.bipartitions(3):
                assert_same_layout(merge_cut(s, cut),
                                   reference_merge_cut(ref, cut))

    def test_mixed_set_merges(self):
        # A set with an entangled member is merged member by member, product
        # members and entangled members alike.
        s, ref = mixed_ghz()
        assert_same_layout(s, ref)
        for cut in PartyCut.bipartitions(3):
            assert_same_layout(merge_cut(s, cut), reference_merge_cut(ref, cut))

    def test_random_product_merges(self, rng):
        # Members (i, j) hold e_i on party 0 and column j of a unitary that
        # depends on i on party 1, so the set is orthogonal whatever the
        # other parties hold.
        for dims in ((2, 3, 1, 2), (3, 2, 2), (2, 2, 3, 4)):
            unitaries = [haar_unitary(dims[1], rng) for _ in range(dims[0])]
            entries = [(np.eye(dims[0])[i], unitaries[i][:, j],
                        *random_entries(rng, dims[2:], 1)[0])
                       for i in range(dims[0]) for j in range(dims[1])]
            s = StateSet(dims, entries)
            ref = ReferenceStateSet(dims, entries)
            assert_same_layout(s, ref)
            cuts = PartyCut.bipartitions(len(dims)) + [
                PartyCut(((0, len(dims) - 1), *((i,) for i in
                                               range(1, len(dims) - 1))))]
            for cut in cuts:
                assert_same_layout(merge_cut(s, cut),
                                   reference_merge_cut(ref, cut))

    @pytest.mark.parametrize("build", NAMED_FAMILIES + [
        lambda: apply_local_unitaries(
            gentiles1(6), [haar_unitary(6, np.random.default_rng(1))] * 2)])
    def test_saved_files(self, build, tmp_path):
        path = tmp_path / "set.json"
        save(build(), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert_same_layout(load(path), reference_from_payload(payload))


E2, E3 = np.eye(2), np.eye(3)
BELL = np.array([1.0, 0.0, 0.0, 1.0])

# Constructor inputs that must be refused, each with the message of the
# member-by-member check. Several hold more than one fault, where the first
# faulty member's first error wins.
BAD_ENTRIES = {
    "wrong local dims": ((2, 3), [(E2[0], E2[0]), (E2[1], E2[1])]),
    "ragged kets": ((2, 3), [(E2[0], E3[0]), (E2[1], E2[1]), (E2[1], E3[2])]),
    "too many kets": ((2, 3), [(E2[0], E3[0]), (E2[1], E3[1], E3[2])]),
    "nan amplitude": ((2, 3), [(E2[0], E3[0]), (E2[1], [0, np.nan, 1])]),
    "inf amplitude": ((2, 3), [(E2[0], E3[0]), ([np.inf, 0], E3[1])]),
    "zero ket": ((2, 3), [(E2[0], E3[0]), (E2[1], np.zeros(3))]),
    "empty ket": ((2, 3), [(E2[0], E3[0]), ([], E3[1])]),
    "overflowing norm": ((2, 3), [(E2[0], E3[0]), (E2[1], [1e308, 1e308, 0])]),
    "string amplitude": ((2, 3), [(E2[0], E3[0]), (E2[1], ["a", "b", "c"])]),
    "empty set": ((2, 3), []),
    "local dimension 0": ((2, 0), [(E2[0], [])]),
    "zero ket before ragged": ((2, 3), [(E2[0], E3[0]), (E2[1], np.zeros(3)),
                                        (E2[1], E2[1])]),
    "ragged before zero ket": ((2, 3), [(E2[0], E3[0]), (E2[1], E2[1]),
                                        (E2[1], np.zeros(3))]),
    "uniform wrong dims, later zero ket": (
        (3, 3), [(E2[0], E3[0]), (E2[1], E3[1]), (np.zeros(2), E3[2])]),
    "uniform wrong dims, first member's zero ket": (
        (3, 3), [(E2[0], np.zeros(3)), (E2[1], E3[1])]),
    "mixed set with a zero ket": ((2, 2), [(E2[0], E2[0]), (BELL,),
                                           (np.zeros(2), E2[1])]),
    "mixed set, bad global ket": ((2, 2), [(E2[0], E2[0]), (E3[0],)]),
    "not orthogonal": ((2, 3), [(E2[0], E3[0]), (E2[0], E3[0] + E3[1])]),
}


def tiles_payload():
    return json.loads(json.dumps(families_module.to_payload(tiles())))


def edited(edit):
    payload = tiles_payload()
    edit(payload)
    return payload


def set_pair(member, party, index, pair):
    def edit(payload):
        payload["states"][member][party][index] = pair
    return edit


BAD_PAYLOADS = {
    "string pair": edited(set_pair(1, 0, 0, ["1", "0"])),
    "three-element pair": edited(set_pair(2, 1, 2, [1.0, 0.0, 0.0])),
    "three-element pairs everywhere": edited(lambda p: p.update(states=[
        [[[*pair, 0.0] for pair in ket] for ket in entry]
        for entry in p["states"]])),
    "one-element pair": edited(set_pair(0, 0, 1, [0.5])),
    "None amplitude": edited(set_pair(3, 1, 0, [None, 0.0])),
    "nested amplitude": edited(set_pair(3, 1, 0, [[1.0], 0.0])),
    "ragged kets": edited(lambda p: p["states"][2][0].append([0.0, 0.0])),
    "wrong local dims": edited(lambda p: p.update(dims=[3, 4])),
    "zero ket": edited(lambda p: p["states"][4].__setitem__(
        0, [[0.0, 0.0]] * 3)),
    "nan amplitude": edited(set_pair(1, 1, 1, [float("nan"), 0.0])),
    "overflowing norm": edited(set_pair(1, 1, 1, [1e308, 1e308])),
    "int amplitude beyond float": edited(set_pair(1, 1, 1, [10**400, 0])),
    "int prior beyond float": edited(lambda p: p["priors"].__setitem__(
        0, 10**400)),
    "string priors": edited(lambda p: p.update(priors=["0.2"] * 5)),
    "states not a list": edited(lambda p: p.update(states=5)),
    "entry is a string": edited(lambda p: p["states"].__setitem__(0, "ab")),
    "no states": edited(lambda p: p.pop("states")),
    "empty states": edited(lambda p: p.update(states=[], priors=[])),
    "not an object": [tiles_payload()],
    "mixed set, bad global ket": edited(lambda p: p["states"].__setitem__(
        0, [[[1.0, 0.0]] * 8])),
}

GOOD_PAYLOADS = {
    "bool prior": {"version": 1, "dims": [2], "priors": [True],
                   "states": [[[[1, 0], [0, 0]]]]},
    "int and bool amplitudes": edited(lambda p: p["states"].__setitem__(
        1, [[[1, 0], [False, False], [0, 0]],
            [[True, False], [-1, 0], [0.0, 0]]])),
    "mixed product and entangled": {
        "version": 1, "dims": [2, 2], "priors": [0.25] * 4,
        "states": [[[[1, 0], [0, 0]], [[1, 0], [0, 0]]],
                   [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
                   [[[0, 0], [1, 0], [0, 0], [0, 0]]],
                   [[[0, 0], [0, 0], [0, 0], [1, 0]]]],
    },
}


class TestLayoutErrors:
    """Refusals match the per-member reference, message for message."""

    @pytest.mark.parametrize("case", BAD_ENTRIES)
    def test_constructor(self, case):
        dims, entries = BAD_ENTRIES[case]
        expected = error_of(lambda: ReferenceStateSet(dims, entries))
        assert expected is not None
        assert error_of(lambda: StateSet(dims, entries)) == expected

    @pytest.mark.parametrize("case", BAD_PAYLOADS)
    def test_payload(self, case):
        payload = BAD_PAYLOADS[case]
        expected = error_of(lambda: reference_from_payload(payload))
        assert expected is not None
        assert error_of(lambda: families_module.from_payload(payload)) == expected

    def test_string_pair_still_refused(self):
        with pytest.raises(ValueError, match="malformed state-set payload"):
            families_module.from_payload(BAD_PAYLOADS["string pair"])

    @pytest.mark.parametrize("case", ["int amplitude beyond float",
                                      "int prior beyond float"])
    def test_int_beyond_float_refused(self, case):
        with pytest.raises(ValueError, match="malformed state-set payload: "
                           "int too large to convert to float"):
            families_module.from_payload(BAD_PAYLOADS[case])

    @pytest.mark.parametrize("case", GOOD_PAYLOADS)
    def test_accepted_payload(self, case):
        payload = GOOD_PAYLOADS[case]
        assert_same_layout(families_module.from_payload(payload),
                           reference_from_payload(payload))

    def test_mixed_set_has_no_local_matrix(self):
        entries = [(E2[0], E2[1]), (E2[1], E2[0]), (BELL,),
                   (np.array([1.0, 0.0, 0.0, -1.0]),)]
        s, ref = StateSet((2, 2), entries), ReferenceStateSet((2, 2), entries)
        assert_same_layout(s, ref)
        assert [s.is_product(m) for m in range(4)] == [True, True, False, False]
        for party in range(2):
            expected = error_of(lambda: ref.local_matrix(party))
            assert expected == (ValueError, "state 2 has no product form")
            assert error_of(lambda: s.local_matrix(party)) == expected
            assert np.array_equal(s.local_state(1, party),
                                  ref.local_state(1, party))
            expected = error_of(lambda: ref.local_state(2, party))
            assert expected == (ValueError, "state 2 has no product form")
            assert error_of(lambda: s.local_state(2, party)) == expected
