import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlwe.linalg import dyad, normalized, numerical_rank, row_norms, tensor

from conftest import haar_unitary


class TestFrobeniusNorm:
    """``np.linalg.norm`` is the Frobenius norm the package's kernels use."""

    def test_zero_matrix(self):
        assert np.linalg.norm(np.zeros((3, 3))) == 0.0

    @pytest.mark.parametrize("dim", [2, 3, 7])
    def test_identity(self, dim):
        assert np.linalg.norm(np.eye(dim)) == pytest.approx(math.sqrt(dim))

    def test_swap_matrix(self):
        # |0|^2 + |1|^2 + |1|^2 + |0|^2 = 2
        assert np.linalg.norm([[0, 1], [1, 0]]) == pytest.approx(math.sqrt(2))

    def test_unitary_invariance(self, rng):
        for _ in range(50):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            u = haar_unitary(4, rng)
            v = haar_unitary(4, rng)
            base = np.linalg.norm(m)
            assert np.linalg.norm(u @ m @ v) == pytest.approx(base, rel=1e-10)


class TestNormalized:
    def test_row_norms_bit_identical_to_norm(self, rng):
        for d in [*range(1, 40), 64, 81, 243]:
            for scale in (1e-150, 1e-3, 1.0, 1e5, 1e150):
                v = scale * (rng.normal(size=(20, d))
                             + 1j * rng.normal(size=(20, d)))
                if d % 3 == 0:
                    v = v.real.astype(complex)
                expected = np.array([np.linalg.norm(row) for row in v])
                assert np.array_equal(row_norms(v), expected)
                assert np.array_equal(v / row_norms(v)[:, None],
                                      np.array([normalized(r) for r in v]))

    def test_row_norms_of_faulty_rows(self):
        v = np.array([[1e308, 1e308], [np.nan, 0], [np.inf, 1], [0, 0]],
                     dtype=complex)
        norms = row_norms(v)
        assert norms[0] == np.inf and np.isnan(norms[1])
        assert norms[2] == np.inf and norms[3] == 0.0

    @pytest.mark.parametrize("ket", [[1e308, 1e308], [1e200, 0, 1e200j]])
    def test_refuses_overflowing_norm(self, ket):
        with pytest.raises(ValueError, match="ket norm overflows"):
            normalized(ket)

    def test_large_finite_norm_kept(self):
        # The squared norm must stay finite: 1e308 itself is refused.
        assert np.array_equal(normalized([1e150, 0]), [1, 0])
        with pytest.raises(ValueError, match="ket norm overflows"):
            normalized([1e308, 0])


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
    """``np.vdot`` gives <a|b>, conjugate-linear in the first argument."""

    def test_orthogonal_basis_states(self):
        assert np.vdot([1, 0], [0, 1]) == 0

    def test_plus_with_zero(self):
        plus = np.array([1, 1]) / math.sqrt(2)
        assert np.vdot(plus, [1, 0]) == pytest.approx(1 / math.sqrt(2))

    def test_sum_difference_pair(self):
        # (|1> + |2>) and (|1> - |2>) over sqrt(2) are orthogonal
        e = np.eye(3)
        p = (e[0] + e[1]) / math.sqrt(2)
        m = (e[0] - e[1]) / math.sqrt(2)
        assert np.vdot(p, m) == pytest.approx(0, abs=1e-15)

    def test_conjugate_linear_first_argument(self, rng):
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert np.vdot(2j * a, b) == pytest.approx(-2j * np.vdot(a, b))
        assert np.vdot(a, a).imag == pytest.approx(0, abs=1e-14)
        assert np.vdot(a, a).real >= 0

    def test_factorizes_over_tensor(self, rng):
        for _ in range(50):
            a, c = (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in "ab")
            b, d = (rng.normal(size=3) + 1j * rng.normal(size=3) for _ in "ab")
            lhs = np.vdot(tensor([a, b]), tensor([c, d]))
            rhs = np.vdot(a, c) * np.vdot(b, d)
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

    def test_zero_inputs(self):
        assert numerical_rank([np.zeros((2, 2))]) == 0

    def test_cutoff_against_frobenius_norm(self):
        # Singular values 1, 1, 1, 1 and 1.5e-8: the last is above 1e-8 times
        # the largest but not 1e-8 times the Frobenius norm, 2.
        assert numerical_rank(np.diag([1.0, 1.0, 1.0, 1.0, 1.5e-8])) == 4
        assert numerical_rank(np.diag([1.0, 1.0, 1.0, 1.0, 2.5e-8])) == 5

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
