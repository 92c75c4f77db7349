import json
import math

import numpy as np
import pytest

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

from conftest import apply_local_unitaries, haar_unitary


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
