import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlwe.linalg import dyad, frobenius_norm, inner, numerical_rank, tensor

from conftest import haar_unitary


class TestFrobeniusNorm:
    def test_zero_matrix(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    @pytest.mark.parametrize("dim", [2, 3, 7])
    def test_identity(self, dim):
        assert frobenius_norm(np.eye(dim)) == pytest.approx(math.sqrt(dim))

    def test_swap_matrix(self):
        # |0|^2 + |1|^2 + |1|^2 + |0|^2 = 2
        assert frobenius_norm([[0, 1], [1, 0]]) == pytest.approx(math.sqrt(2))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            frobenius_norm([[np.nan, 0], [0, 0]])

    def test_unitary_invariance(self, rng):
        for _ in range(50):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            u = haar_unitary(4, rng)
            v = haar_unitary(4, rng)
            base = frobenius_norm(m)
            assert frobenius_norm(u @ m @ v) == pytest.approx(base, rel=1e-10)


class TestTensor:
    def test_two_qubits(self):
        zero = [1, 0]
        assert np.allclose(tensor([zero, zero]), [1, 0, 0, 0])

    def test_one_with_plus(self):
        one = [0, 1]
        plus = np.array([1, 1]) / math.sqrt(2)
        expected = np.array([0, 0, 1, 1]) / math.sqrt(2)
        assert np.allclose(tensor([one, plus]), expected)

    def test_three_qutrits_shape(self):
        kets = [np.arange(3) + 1.0 for _ in range(3)]
        assert tensor(kets).shape == (27,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tensor([])

    def test_first_factor_slowest(self):
        a = np.array([2.0, 3.0])
        b = np.array([5.0, 7.0])
        out = tensor([a, b])
        assert out[0] == a[0] * b[0] and out[1] == a[0] * b[1]
        assert out[2] == a[1] * b[0] and out[3] == a[1] * b[1]


class TestInner:
    def test_orthogonal_basis_states(self):
        assert inner([1, 0], [0, 1]) == 0

    def test_plus_with_zero(self):
        plus = np.array([1, 1]) / math.sqrt(2)
        assert inner(plus, [1, 0]) == pytest.approx(1 / math.sqrt(2))

    def test_sum_difference_pair(self):
        # (|1> + |2>) and (|1> - |2>) over sqrt(2) are orthogonal
        e = np.eye(3)
        p = (e[0] + e[1]) / math.sqrt(2)
        m = (e[0] - e[1]) / math.sqrt(2)
        assert inner(p, m) == pytest.approx(0, abs=1e-15)

    def test_conjugate_linear_first_argument(self, rng):
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert inner(2j * a, b) == pytest.approx(-2j * inner(a, b))
        assert inner(a, a).imag == pytest.approx(0, abs=1e-14)
        assert inner(a, a).real >= 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner([1, 0], [1, 0, 0])

    def test_factorizes_over_tensor(self, rng):
        for _ in range(50):
            a, c = (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in "ab")
            b, d = (rng.normal(size=3) + 1j * rng.normal(size=3) for _ in "ab")
            lhs = inner(tensor([a, b]), tensor([c, d]))
            rhs = inner(a, c) * inner(b, d)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestDyad:
    def test_stacked_rows_match_outer(self, rng):
        kets = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        bras = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        out = dyad(kets, bras)
        assert out.shape == (5, 3, 3)
        for k, b, m in zip(kets, bras, out):
            assert np.array_equal(m, np.outer(k, b.conj()))
            assert np.array_equal(dyad(k, b), m)

    def test_empty_stack(self):
        assert dyad(np.zeros((0, 3)), np.zeros((0, 3))).shape == (0, 3, 3)

    @pytest.mark.parametrize("ket, bra", [
        ([1, 0], [1, 0, 0]),
        (np.eye(2), np.eye(3)[:2]),
        ([], []),
        ([np.nan, 1], [1, 0]),
        ([[1, 0], [0, 1]], [[1, 0], [np.nan, 1]]),
    ])
    def test_rejects_bad_input(self, ket, bra):
        with pytest.raises(ValueError):
            dyad(ket, bra)


class TestNumericalRank:
    def test_empty(self):
        assert numerical_rank([]) == 0

    def test_orthogonal_qubit_dyads(self):
        e = np.eye(2)
        assert numerical_rank([dyad(e[0], e[1]), dyad(e[1], e[0])]) == 2

    def test_domino_proof_dyads(self):
        # The eight hand-picked first-party dyads for the unrotated dominoes
        # are linearly independent.
        c = s = math.cos(math.pi / 4)
        e = np.eye(3)
        mats = [
            dyad(e[0], s * e[1] - c * e[2]),
            dyad(s * e[1] - c * e[2], e[0]),
            dyad(e[2], s * e[0] - c * e[1]),
            dyad(s * e[0] - c * e[1], e[2]),
            dyad(e[0], e[2]),
            dyad(e[2], e[0]),
            dyad(c * e[0] + s * e[1], s * e[0] - c * e[1]),
            dyad(c * e[1] + s * e[2], s * e[1] - c * e[2]),
        ]
        assert numerical_rank(mats) == 8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            numerical_rank([np.eye(2), np.eye(3)])

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            numerical_rank([np.eye(2)], tol_rel=0.0)

    def test_zero_inputs(self):
        assert numerical_rank([np.zeros((2, 2))]) == 0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_permutation_and_scaling(self, seed):
        gen = np.random.default_rng(seed)
        mats = [gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
                for _ in range(gen.integers(1, 6))]
        base = numerical_rank(mats)
        order = gen.permutation(len(mats))
        scales = gen.uniform(0.1, 10.0, size=len(mats))
        scrambled = [scales[i] * mats[i] for i in order]
        assert numerical_rank(scrambled) == base
        assert numerical_rank(np.stack(mats)) == base

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_monotone_under_append(self, seed):
        gen = np.random.default_rng(seed)
        mats = [gen.normal(size=(2, 3)) for _ in range(gen.integers(1, 5))]
        base = numerical_rank(mats)
        extra = gen.normal(size=(2, 3))
        assert numerical_rank(mats + [extra]) >= base
