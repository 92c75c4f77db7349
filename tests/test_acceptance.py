"""End-to-end acceptance checks with pinned tolerances.

Each test prints one PASS line when its criterion holds; run with
``pytest -s tests/test_acceptance.py`` to see the lines as they pass.
"""

import math
import time

import numpy as np
import pytest

from nlwe.bound import (
    OptimizerOptions,
    _BoundProblem,
    _pack,
    error_lower_bound,
)
from nlwe.certify import (
    CERTIFIED_INDISCRIMINABLE,
    INCONCLUSIVE,
    certify,
    certify_minimal_upb,
    exclusive_pairs,
    min_states_bound,
    minimal_upb_check,
    strong_nlwe,
    upb_extendibility,
)
from nlwe.families import (
    StateSet,
    bell_states,
    gentiles1,
    halder_states,
    rotated_dominoes,
    tiles,
    two_qubit_demo,
)
from nlwe.linalg import numerical_rank

from conftest import (
    apply_local_unitaries,
    gentiles1_witness_dyads,
    haar_unitary,
    objective_at,
    permute_states,
)
from dense_reference import (
    ProductOperator,
    discrimination_operator,
    nearest_zonotope_point,
    quadratic_over_linear_gap,
    segment_distance_inequality,
    zonotope_distance,
)


def _pass(label, detail=""):
    print(f"ACCEPTANCE PASS: {label}" + (f" ({detail})" if detail else ""))


def test_rotated_dominoes_certification():
    rng = np.random.default_rng(1)
    angle_sets = [tuple(rng.uniform(1e-6, math.pi / 4, size=4))
                  for _ in range(20)]
    angle_sets.append((math.pi / 4,) * 4)
    slowest = 0.0
    for thetas in angle_sets:
        start = time.perf_counter()
        cert = certify(rotated_dominoes(*thetas))
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        assert cert.verdict == CERTIFIED_INDISCRIMINABLE
        assert [r.span_rank for r in cert.records] == [8, 8]
        assert elapsed < 1.0
    _pass("rotated dominoes certified for 20 random angle tuples plus pi/4",
          f"slowest {slowest * 1e3:.1f} ms")


def test_tiles_certification():
    cert = certify(tiles())
    assert cert.verdict == CERTIFIED_INDISCRIMINABLE
    assert [r.span_rank for r in cert.records] == [8, 8]
    _pass("tiles certified with both parties at rank 8")


def test_halder_full_strong_nonlocality():
    start = time.perf_counter()
    s = halder_states("full")
    single = certify(s)
    assert all(r.span_rank == 8 == r.required for r in single.records)
    report = strong_nlwe(s)
    assert report.certified
    for cut, cert in report.cuts:
        for record, block in zip(cert.records, cut.blocks):
            expected = 80 if len(block) == 2 else 8
            assert record.span_rank == record.required == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass("halder full set: party ranks 8, merged-cut ranks 80, strong "
          "nonlocality certified", f"{elapsed:.2f} s")


def test_halder_reduced_sets():
    reduced = halder_states("reduced12")
    assert certify(reduced).verdict == CERTIFIED_INDISCRIMINABLE
    assert not strong_nlwe(reduced).certified
    assert strong_nlwe(halder_states("omit_diag24")).certified
    _pass("reduced 12-state set certified but not strongly nonlocal; "
          "24-state set strongly nonlocal")


@pytest.mark.parametrize("n", [4, 6, 8])
def test_gentiles1_certification(n):
    mats = gentiles1_witness_dyads(n)
    assert numerical_rank(mats) == n * n - 1
    cert = certify(gentiles1(n))
    assert cert.verdict == CERTIFIED_INDISCRIMINABLE
    _pass(f"gentiles1(n={n}): witness dyad list has rank {n * n - 1} and "
          "the family is certified")


def test_two_qubit_demo_negative_control():
    s = two_qubit_demo()
    cert = certify(s)
    assert cert.verdict == INCONCLUSIVE
    assert cert.records[0].span_rank == 2
    assert cert.records[1].span_rank == 3
    assert sorted(exclusive_pairs(s, 1).tolist()) == [
        [0, 1], [1, 0], [2, 3], [3, 2],
    ]
    assert sorted(map(tuple, exclusive_pairs(s, 0))) == [
        (0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0), (3, 1),
    ]
    _pass("two-qubit demo inconclusive with party ranks 2 and 3 and the "
          "expected exclusive pairs")


def test_unextendibility_and_minimality():
    t = tiles()
    assert not upb_extendibility(t).extendible
    assert minimal_upb_check(t)
    assert t.n_states == 5 == 2 * (3 - 1) + 1
    assert certify_minimal_upb(t) == CERTIFIED_INDISCRIMINABLE

    e = np.eye(2)
    pair = StateSet((2, 2), [(e[0], e[0]), (e[1], e[1])])
    result = upb_extendibility(pair)
    assert result.extendible
    assert result.witness is not None
    for alpha, group in enumerate(result.witness):
        locals_ = [pair.local_state(m, alpha) for m in group]
        assert numerical_rank(locals_) < pair.dims[alpha]
    _pass("tiles unextendible, minimal, and certified via the count "
          "condition; |00>,|11> extendible with a valid witness")


def test_bell_state_error_bound():
    start = time.perf_counter()
    result = error_lower_bound(bell_states(), OptimizerOptions(seed=0))
    elapsed = time.perf_counter() - start
    assert 0.23 <= result.p_err_lower <= 0.27
    assert elapsed < 600.0

    demo = error_lower_bound(two_qubit_demo(), OptimizerOptions(seed=0))
    assert demo.p_err_lower <= 1e-3
    _pass("bell-state error bound in [0.23, 0.27] and demo bound below 1e-3",
          f"bell {result.p_err_lower:.4f} in {elapsed:.1f} s, "
          f"demo {demo.p_err_lower:.2e}")


class TestPropertySuites:
    def test_combined_term_gap_nonnegative(self):
        rng = np.random.default_rng(11)
        worst = np.inf
        for _ in range(1000):
            k = rng.integers(2, 7)
            dim = rng.integers(2, 5)
            terms = [
                (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
                 rng.uniform(1e-3, 10.0))
                for _ in range(k)
            ]
            gap = quadratic_over_linear_gap(terms)
            worst = min(worst, gap)
            assert gap >= -1e-9
        _pass("combined-term inequality gap nonnegative over 1000 trials",
              f"worst {worst:.3e}")

    def test_segment_inequality(self):
        rng = np.random.default_rng(12)
        s = two_qubit_demo()
        for _ in range(1000):
            shared = [np.eye(d) + 0.5 * (rng.normal(size=(d, d))
                                         + 1j * rng.normal(size=(d, d)))
                      for d in s.dims]
            party = int(rng.integers(0, 2))
            other = list(shared)
            d = s.dims[party]
            other[party] = np.eye(d) + 0.5 * (rng.normal(size=(d, d))
                                              + 1j * rng.normal(size=(d, d)))
            q_p = ProductOperator(tuple(shared))
            q_s = ProductOperator(tuple(other))
            assert segment_distance_inequality(q_p, q_s, rng.uniform(), s)
        _pass("segment interpolation inequality holds over 1000 trials")

    def test_distance_scale_invariance(self):
        rng = np.random.default_rng(13)
        s = two_qubit_demo()
        worst = 0.0
        for _ in range(1000):
            factors = [np.eye(d) + 0.6 * (rng.normal(size=(d, d))
                                          + 1j * rng.normal(size=(d, d)))
                       for d in s.dims]
            q = ProductOperator(tuple(factors)).matrix()
            c = rng.uniform(1e-3, 10.0)
            diff = abs(zonotope_distance(c * q, s) - zonotope_distance(q, s))
            worst = max(worst, diff)
            assert diff <= 1e-10
        _pass("scaled-distance invariance under rescaling over 1000 trials",
              f"worst {worst:.3e}")

    def test_certifier_verdict_invariance(self):
        rng = np.random.default_rng(14)
        bases = [two_qubit_demo(), tiles(),
                 rotated_dominoes(0.3, 0.5, 0.2, 0.7)]
        references = [certify(b) for b in bases]
        reduced = halder_states("reduced12")
        reduced_strong = strong_nlwe(reduced).certified
        tiles_minimal = minimal_upb_check(tiles())
        tiles_ext = upb_extendibility(tiles()).extendible
        trials = 0
        while trials < 1000:
            pick = trials % 5
            if pick < 3:
                base, ref = bases[pick], references[pick]
                us = [haar_unitary(d, rng) for d in base.dims]
                scrambled = apply_local_unitaries(base, us)
                scrambled = permute_states(
                    scrambled, rng.permutation(base.n_states))
                cert = certify(scrambled)
                assert cert.verdict == ref.verdict
                assert sorted(r.span_rank for r in cert.records) == \
                    sorted(r.span_rank for r in ref.records)
            elif pick == 3:
                us = [haar_unitary(3, rng) for _ in range(3)]
                scrambled = permute_states(
                    apply_local_unitaries(reduced, us),
                    rng.permutation(reduced.n_states))
                assert strong_nlwe(scrambled).certified == reduced_strong
            else:
                us = [haar_unitary(3, rng) for _ in range(2)]
                scrambled = permute_states(
                    apply_local_unitaries(tiles(), us), rng.permutation(5))
                assert minimal_upb_check(scrambled) == tiles_minimal
                assert upb_extendibility(scrambled).extendible == tiles_ext
            trials += 1
        _pass("certifier verdicts invariant under local unitaries and state "
              "permutations over 1000 trials")

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(15)
        s = two_qubit_demo()
        problem = _BoundProblem(s)
        shapes = [(d, d) for d in s.dims]
        worst = 0.0
        for _ in range(1000):
            factors = [np.eye(d) + 0.35 * (rng.normal(size=(d, d))
                                           + 1j * rng.normal(size=(d, d)))
                       for d in s.dims]
            x = _pack(factors)
            _, grad = objective_at(x, problem, shapes, 0.0, 0.0)
            h = 1e-6
            fd = np.zeros_like(x)
            for i in range(x.size):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd[i] = (objective_at(xp, problem, shapes, 0.0, 0.0)[0]
                         - objective_at(xm, problem, shapes, 0.0, 0.0)[0]) / (2 * h)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-10)
            worst = max(worst, rel)
            assert rel <= 1e-5
        _pass("analytic distance gradient matches finite differences over "
              "1000 points", f"worst relative error {worst:.2e}")

    def test_nearest_point_beats_random_sampling(self):
        rng = np.random.default_rng(16)
        s = two_qubit_demo()
        v = s.global_matrix()
        pi = discrimination_operator(s)
        for _ in range(10):
            factors = [np.eye(d) + 0.5 * (rng.normal(size=(d, d))
                                          + 1j * rng.normal(size=(d, d)))
                       for d in s.dims]
            q = ProductOperator(tuple(factors)).matrix()
            q *= s.total_dim / q.trace().real
            qhat = pi @ q @ pi
            best = np.linalg.norm(qhat - nearest_zonotope_point(q, s))
            cs = rng.uniform(0.0, 1.0, size=(10_000, s.n_states))
            zs = np.einsum("km,md,me->kde", cs, v, v.conj())
            sampled = np.linalg.norm(qhat[None] - zs, axis=(1, 2)).min()
            assert best <= sampled + 1e-12
        _pass("closed-form nearest zonotope point beats 10^4 random samples "
              "for each of 10 operators")


def test_min_states_bound_values():
    assert min_states_bound((3, 3)) == 5
    assert min_states_bound((2, 2)) == 3
    assert min_states_bound((3, 3, 3)) == 6
    _pass("minimum state-count bound gives 5, 3, 6 for 3x3, 2x2, 3x3x3")
