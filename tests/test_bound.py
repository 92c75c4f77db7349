import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from nlwe.bound import (
    BoundResult,
    OptimizerOptions,
    _BoundProblem,
    _descent,
    _lockstep,
    _objective,
    _pack,
    _project_to_radius,
    _rescale_factors,
    _restart,
    _sweep,
    _unpack,
    distance_from_identity,
    error_lower_bound,
    max_radius,
)
from nlwe.families import (
    StateSet,
    bell_states,
    gentiles1,
    halder_states,
    tiles,
    two_qubit_demo,
)

import objective_reference as reference
from conftest import dropped_subsets, objective_at, one_way_product_set
from dense_reference import (
    ProductOperator,
    discrimination_operator,
    nearest_zonotope_point,
    quadratic_over_linear_gap,
    segment_distance_inequality,
    zonotope_distance,
)
from protocol_reference import protocol

FAST_OPTS = OptimizerOptions(r_steps=5, restarts=8, refine_levels=1)


def inner_minimum(s, radius, opts):
    """The best distance found at one radius: ``_sweep`` of that radius
    alone, which nothing can prune, so every restart runs; 0 where no
    restart reached a feasible point."""
    (run,), _ = _sweep(_BoundProblem(s), [(float(radius), (0,))], opts)
    return run.value


def without_cut(restart):
    """``restart`` with its cut check dropped, so no descent is stopped."""
    def uncut(problem, radius, stop, *rest):
        return restart(problem, radius, None, *rest)
    return uncut


def run_restart(problem, *args):
    """What one ``_restart`` returns, run alone through ``_lockstep``."""
    return _lockstep(problem, [_restart(problem, *args)])[0]


def drive(problem, restart):
    """Run a ``_restart`` by hand, one point per kernel call: the requests
    it made, in order, and what it returned."""
    requests = []
    request = next(restart)
    while True:
        requests.append(request)
        shapes, x, weight, target = request
        try:
            request = restart.send(
                objective_at(x, problem, shapes, weight, target))
        except StopIteration as done:
            return requests, done.value


def kernel_distance(problem, factors):
    """The scaled distance of kron(L_a^dag L_a), as the restarts measure
    it: the root of the kernel's value at the factors with weight 0."""
    shapes = [f.shape for f in factors]
    return math.sqrt(objective_at(_pack(factors), problem, shapes, 0.0,
                                  0.0)[0])


def phased_bell():
    """Bell basis with a complex global phase on member 0."""
    s = bell_states()
    return StateSet(
        s.dims,
        [(np.exp(0.7j) * s.global_state(0),)] + [s.states[m]
                                                 for m in range(1, 4)],
        s.priors,
    )


def halder_full():
    return halder_states("full")


def gentiles1_4():
    return gentiles1(4)


def product_2x3():
    """Five orthogonal product states on C^2 x C^3 with unequal priors;
    |0 - 1>|2> completes the basis."""
    return StateSet((2, 3), [([1, 0], [1, 0, 0]), ([1, 0], [0, 1, 0]),
                             ([0, 1], [1, 1, 0]), ([0, 1], [1, -1, 0]),
                             ([1, 1], [0, 0, 1])],
                    [0.3, 0.2, 0.2, 0.15, 0.15])


def seven_qubits():
    return StateSet((2,) * 7, [([1, 0],) * 7, ([0, 1],) * 7])


def random_product_operator(dims, rng, sigma=0.5):
    factors = [
        np.eye(d) + sigma * (rng.normal(size=(d, d))
                             + 1j * rng.normal(size=(d, d)))
        for d in dims
    ]
    return ProductOperator(tuple(factors))


def grid_distance_oracle(qmat, s, rounds=6, points=11):
    """Independent brute-force minimum over the zonotope coefficient box.

    Searches a coefficient grid in [0, 1]^N, shrinking the box around the
    best cell each round; evaluates the distance from scratch each time.
    """
    v = s.global_matrix()
    pi = discrimination_operator(s)
    qhat = pi @ qmat @ pi
    t = qhat.trace().real
    n = s.n_states
    lo, hi = np.zeros(n), np.ones(n)
    best_val, best_c = np.inf, None
    for _ in range(rounds):
        axes = [np.linspace(lo[m], hi[m], points) for m in range(n)]
        combos = np.array(list(itertools.product(*axes)))
        zs = np.einsum("km,md,me->kde", combos, v, v.conj())
        vals = np.linalg.norm(qhat[None] - zs, axis=(1, 2))
        k = int(np.argmin(vals))
        best_val, best_c = vals[k], combos[k]
        span = (hi - lo) / (points - 1)
        lo = np.maximum(0.0, best_c - span)
        hi = np.minimum(1.0, best_c + span)
    return best_val / t


class TestDiscriminationOperator:
    def test_bell_is_half_identity(self):
        pi = discrimination_operator(bell_states())
        assert np.allclose(pi, np.eye(4) / 2, atol=1e-12)

    @pytest.mark.parametrize("build", [bell_states, tiles, two_qubit_demo])
    def test_unit_squared_norm(self, build):
        pi = discrimination_operator(build())
        assert np.trace(pi @ pi).real == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("build", [bell_states, tiles, two_qubit_demo])
    def test_sandwich_rescales_by_prior(self, build):
        s = build()
        pi = discrimination_operator(s)
        for m in range(s.n_states):
            psi = s.global_state(m)
            proj = np.outer(psi, psi.conj())
            assert np.allclose(pi @ proj @ pi, s.priors[m] * proj, atol=1e-10)

    def test_single_state(self):
        s = StateSet((2,), [([1, 0],)], priors=[1.0])
        pi = discrimination_operator(s)
        assert np.allclose(pi, [[1, 0], [0, 0]])


class TestNearestZonotopePoint:
    def test_identity_maps_to_squared_operator(self):
        s = two_qubit_demo()
        pi = discrimination_operator(s)
        z = nearest_zonotope_point(np.eye(4), s)
        assert np.allclose(z, pi @ pi, atol=1e-12)

    def test_single_supported_state(self):
        s = two_qubit_demo()
        psi = s.global_state(0)
        z = nearest_zonotope_point(np.outer(psi, psi.conj()), s)
        assert np.allclose(z, s.priors[0] * np.outer(psi, psi.conj()),
                           atol=1e-12)

    def test_coefficients_clamped(self):
        s = two_qubit_demo()
        psi = s.global_state(0)
        z = nearest_zonotope_point(100.0 * np.outer(psi, psi.conj()), s)
        v = s.global_matrix()
        coeffs = np.einsum("md,de,me->m", v.conj(), z, v).real
        assert coeffs.max() <= 1.0 + 1e-12

    def test_beats_random_zonotope_members(self, rng):
        s = two_qubit_demo()
        v = s.global_matrix()
        pi = discrimination_operator(s)
        for _ in range(5):
            q = random_product_operator(s.dims, rng).matrix()
            qhat = pi @ q @ pi
            best = np.linalg.norm(qhat - nearest_zonotope_point(q, s))
            cs = rng.uniform(0.0, 1.0, size=(2000, s.n_states))
            zs = np.einsum("km,md,me->kde", cs, v, v.conj())
            sampled = np.linalg.norm(qhat[None] - zs, axis=(1, 2)).min()
            assert best <= sampled + 1e-12


class TestZonotopeDistance:
    def test_identity_is_zero(self):
        s = two_qubit_demo()
        assert zonotope_distance(np.eye(4), s) == pytest.approx(0, abs=1e-12)

    def test_state_diagonal_operator_is_zero(self, rng):
        # Operators diagonal in the state basis sit inside the zonotope
        # after projection, up to scale.
        s = two_qubit_demo()
        q = np.kron(np.diag(rng.uniform(0.2, 1.0, 2)), np.eye(2))
        assert zonotope_distance(q, s) == pytest.approx(0, abs=1e-12)

    def test_scale_invariance(self, rng):
        s = two_qubit_demo()
        for _ in range(20):
            q = random_product_operator(s.dims, rng).matrix()
            c = rng.uniform(1e-3, 10.0)
            assert abs(zonotope_distance(c * q, s)
                       - zonotope_distance(q, s)) <= 1e-10

    def test_degenerate_trace_returns_zero_with_flag(self):
        s = StateSet((2,), [([1, 0],)], priors=[1.0])
        q = np.diag([0.0, 1.0])  # orthogonal to the only state
        with pytest.warns(RuntimeWarning, match="no overlap"):
            assert zonotope_distance(q, s) == 0.0

    def test_matches_grid_oracle(self, rng):
        # At trace gauge D the cone and box minimizers coincide for this
        # complete basis, so the box-grid search is a valid oracle.
        s = two_qubit_demo()
        for _ in range(5):
            q = random_product_operator(s.dims, rng).matrix()
            q *= 4.0 / q.trace().real
            direct = zonotope_distance(q, s)
            oracle = grid_distance_oracle(q, s)
            assert abs(direct - oracle) <= 1e-6


class TestDistanceFromIdentity:
    def test_identity(self):
        assert distance_from_identity(np.eye(5)) == pytest.approx(0, abs=1e-14)

    def test_rank_one_projector(self):
        q = np.zeros((4, 4))
        q[0, 0] = 1.0
        assert distance_from_identity(q) == pytest.approx(math.sqrt(3) / 2)
        assert max_radius(4) == pytest.approx(math.sqrt(3) / 2)

    def test_scale_invariance(self, rng):
        q = random_product_operator((2, 2), rng).matrix()
        assert distance_from_identity(3.3 * q) == pytest.approx(
            distance_from_identity(q), abs=1e-12
        )

    def test_zero_trace_rejected(self):
        with pytest.raises(ValueError):
            distance_from_identity(np.zeros((3, 3)))


class TestQuadraticOverLinearGap:
    def test_single_term_zero(self, rng):
        m = rng.normal(size=(3, 3))
        assert quadratic_over_linear_gap([(m, 2.0)]) == pytest.approx(0)

    def test_proportional_terms_zero(self, rng):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        t1, t2 = 0.7, 2.9
        gap = quadratic_over_linear_gap([(m, t1), ((t2 / t1) * m, t2)])
        assert gap == pytest.approx(0, abs=1e-12)

    def test_nonnegative_on_random_terms(self, rng):
        for _ in range(200):
            k = rng.integers(2, 7)
            terms = [
                (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)),
                 rng.uniform(0.01, 5.0))
                for _ in range(k)
            ]
            assert quadratic_over_linear_gap(terms) >= -1e-9

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            quadratic_over_linear_gap([(np.eye(2), 0.0)])


class TestSegmentInequality:
    def _pair(self, rng, dims=(2, 2), party=1):
        shared = [np.eye(d) + 0.4 * (rng.normal(size=(d, d))
                                     + 1j * rng.normal(size=(d, d)))
                  for d in dims]
        other = list(shared)
        d = dims[party]
        other[party] = np.eye(d) + 0.4 * (rng.normal(size=(d, d))
                                          + 1j * rng.normal(size=(d, d)))
        return ProductOperator(tuple(shared)), ProductOperator(tuple(other))

    def test_endpoints(self, rng):
        s = two_qubit_demo()
        qp, qs = self._pair(rng)
        assert segment_distance_inequality(qp, qs, 0.0, s)
        assert segment_distance_inequality(qp, qs, 1.0, s)

    def test_random_mixtures(self, rng):
        s = two_qubit_demo()
        for _ in range(200):
            qp, qs = self._pair(rng, party=int(rng.integers(0, 2)))
            assert segment_distance_inequality(qp, qs, rng.uniform(), s)

    def test_rejects_bad_y(self, rng):
        qp, qs = self._pair(rng)
        with pytest.raises(ValueError):
            segment_distance_inequality(qp, qs, 1.5, two_qubit_demo())

    def test_rejects_doubly_differing_operators(self, rng):
        s = two_qubit_demo()
        qp = random_product_operator(s.dims, rng)
        qs = random_product_operator(s.dims, rng)
        with pytest.raises(ValueError):
            segment_distance_inequality(qp, qs, 0.5, s)


# (state set, rank-one (1, d) factors) per gradient input.
GRADIENT_INPUTS = {
    "phased-bell": (phased_bell, False),
    "tiles": (tiles, False),
    "halder-full": (halder_full, False),
    "phased-bell-rank-one": (phased_bell, True),
    "product-2x3": (product_2x3, False),
    "seven-qubits": (seven_qubits, False),
}


class TestGradient:
    @pytest.mark.parametrize("weight,target,case", [
        pytest.param(0.0, 0.0, None, id="0.0-0.0"),
        pytest.param(3.0, 0.2, None, id="3.0-0.2"),
        *(pytest.param(w, t, case, id=f"{case}-{w}-{t}")
          for case in GRADIENT_INPUTS for w, t in [(0.0, 0.0), (3.0, 0.2)]),
    ])
    def test_matches_finite_differences(self, rng, weight, target, case):
        build, rank_one = GRADIENT_INPUTS.get(case, (two_qubit_demo, False))
        s = build()
        problem = _BoundProblem(s)
        shapes = [(1, d) if rank_one else (d, d) for d in s.dims]
        for _ in range(10):
            factors = [
                np.eye(*shape) + 0.3 * (rng.normal(size=shape)
                                        + 1j * rng.normal(size=shape))
                for shape in shapes
            ]
            x = _pack(factors)
            _, grad = objective_at(x, problem, shapes, weight, target)
            h = 1e-6
            fd = np.zeros_like(x)
            for i in range(x.size):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fp, _ = objective_at(xp, problem, shapes, weight, target)
                fm, _ = objective_at(xm, problem, shapes, weight, target)
                fd[i] = (fp - fm) / (2 * h)
            denom = max(np.linalg.norm(fd), 1e-10)
            assert np.linalg.norm(grad - fd) / denom <= 1e-5

    def test_pack_unpack_roundtrip(self, rng):
        shapes = [(2, 2), (1, 3)]
        factors = [rng.normal(size=s) + 1j * rng.normal(size=s)
                   for s in shapes]
        back = _unpack(_pack(factors), shapes)
        for a, b in zip(factors, back):
            assert np.allclose(a, b)


# State sets the stacked objective is checked on against the per-party
# reference: entangled and product, equal and unequal local dimensions, two,
# three and seven parties.
OBJECTIVE_CASES = {
    "bell": bell_states,
    "phased-bell": phased_bell,
    "tiles": tiles,
    "halder-full": halder_full,
    "gentiles1-4": gentiles1_4,
    "product-2x3": product_2x3,
    "seven-qubits": seven_qubits,
}


class TestObjectiveReference:
    """The stacked kernel against the per-party form it replaced."""

    @staticmethod
    def evaluate(s, factors, weight, target=0.2):
        """(value, gradient as one complex vector) from each kernel; each
        gradient is read through its own layout's ``_unpack``."""
        shapes = [f.shape for f in factors]
        out = []
        for problem, objective, pack, unpack in (
                (_BoundProblem(s), objective_at, _pack, _unpack),
                (reference.ReferenceProblem(s), reference._objective,
                 reference._pack, reference._unpack)):
            value, grad = objective(pack(factors), problem, shapes, weight,
                                    target)
            out.append((value, np.concatenate(
                [g.ravel() for g in unpack(grad, shapes)])))
        return out

    @pytest.mark.parametrize("weight", [0.0, 10.0])
    @pytest.mark.parametrize("rank_one", [False, True],
                             ids=["full", "rank-one"])
    @pytest.mark.parametrize("case", sorted(OBJECTIVE_CASES))
    def test_matches_reference(self, rng, case, rank_one, weight):
        s = OBJECTIVE_CASES[case]()
        shapes = [(1, d) if rank_one else (d, d) for d in s.dims]
        for _ in range(5):
            # Around the all-ones factor every member overlaps Q, so the
            # residual is not small against the trace. The reference keeps
            # the rounding of the diagonal's imaginary part in its residual,
            # which would otherwise dominate its gradient.
            factors = [np.ones(shape) + 0.5 * (rng.normal(size=shape)
                                               + 1j * rng.normal(size=shape))
                       for shape in shapes]
            (value, grad), (ref_value, ref_grad) = self.evaluate(
                s, factors, weight)
            assert value == pytest.approx(ref_value, rel=1e-12, abs=0)
            assert np.linalg.norm(grad - ref_grad) \
                <= 1e-10 * np.linalg.norm(ref_grad)

    @pytest.mark.parametrize("rank_one", [False, True],
                             ids=["full", "rank-one"])
    def test_below_trace_floor(self, rng, rank_one):
        # A_0 = |0><0| and A_1 = |1><1| leave Q no overlap with |0...0> or
        # |1...1>, whatever the other parties' parts.
        s = seven_qubits()
        rows = 1 if rank_one else 2
        top = np.eye(rows)[0]
        factors = [np.outer(top, [1, 0]), np.outer(top, [0, 1])] + [
            rng.normal(size=(rows, 2)) + 1j * rng.normal(size=(rows, 2))
            for _ in range(5)]
        for value, grad in self.evaluate(s, factors, 0.0):
            assert value == 0.0
            assert not grad.any()
        # The full-shape kernel at factors of the same parts: a rank-one
        # factor padded with a zero row gives the same L^dag L.
        full = [np.vstack([f, np.zeros((2 - rows, 2))]) for f in factors]
        assert kernel_distance(_BoundProblem(s), full) == 0.0
        # Only the radius penalty is left. Rank-one parts sit at the largest
        # radius, where its gradient vanishes up to rounding.
        (value, grad), (ref_value, ref_grad) = self.evaluate(s, factors, 10.0)
        assert value == pytest.approx(ref_value, rel=1e-12, abs=0)
        if not rank_one:
            assert np.linalg.norm(grad - ref_grad) \
                <= 1e-10 * np.linalg.norm(ref_grad)

    @pytest.mark.parametrize("rank_one", [False, True],
                             ids=["full", "rank-one"])
    @pytest.mark.parametrize("case", sorted(OBJECTIVE_CASES))
    def test_mixed_batch(self, rng, case, rank_one):
        # The inputs above in one kernel call, with weights 0 and 10 and a
        # radius target per slice; seven qubits add a slice below the trace
        # floor. Each slice matches the reference, and each point evaluated
        # alone matches itself inside the batch.
        s = OBJECTIVE_CASES[case]()
        shapes = [(1, d) if rank_one else (d, d) for d in s.dims]
        points = [[np.ones(shape) + 0.5 * (rng.normal(size=shape)
                                           + 1j * rng.normal(size=shape))
                   for shape in shapes] for _ in range(6)]
        floor = None
        if case == "seven-qubits":
            top = np.eye(shapes[0][0])[0]
            floor = 2
            points.insert(floor, [np.outer(top, [1, 0]),
                                  np.outer(top, [0, 1])] + points[floor][2:])
        weights = np.resize([0.0, 10.0], len(points))
        targets = np.linspace(0.05, 0.4, len(points))
        problem = _BoundProblem(s)
        x = np.array([_pack(factors) for factors in points])
        values, grads = _objective(x, problem, shapes, weights, targets)
        ref_problem = reference.ReferenceProblem(s)
        for i, factors in enumerate(points):
            ref_value, ref_grad = reference._objective(
                reference._pack(factors), ref_problem, shapes, weights[i],
                targets[i])
            ref_grad = np.concatenate(
                [g.ravel() for g in reference._unpack(ref_grad, shapes)])
            grad = np.concatenate([g.ravel() for g in _unpack(grads[i],
                                                              shapes)])
            if i == floor:
                assert weights[i] == 0.0
                assert values[i] == 0.0 and not grad.any()
            assert values[i] == pytest.approx(ref_value, rel=1e-12, abs=0)
            assert np.linalg.norm(grad - ref_grad) \
                <= 1e-10 * np.linalg.norm(ref_grad)
            value, alone = objective_at(x[i], problem, shapes, weights[i],
                                        targets[i])
            assert value == pytest.approx(values[i], rel=1e-13, abs=0)
            assert np.linalg.norm(alone - grads[i]) \
                <= 1e-13 * np.linalg.norm(grads[i])


def sampled_min_distance(s, radius, n_samples, rng, chunk=5000):
    """Naive baseline: random product operators steered to the radius.

    Each sample's local parts are mixed toward identity (or stretched beyond,
    while positive) and the mixing weight solved by bisection so the sample
    sits at the requested distance; infeasible samples are dropped.
    """
    dims = s.dims
    total = int(np.prod(dims))
    eye = np.eye(total)
    best = np.inf
    done = 0
    while done < n_samples:
        k = min(chunk, n_samples - done)
        done += k
        parts = []
        for d in dims:
            raw = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
            parts.append(np.einsum("kij,kil->kjl", raw.conj(), raw))
        centers = [np.einsum("kii->k", a).real / d
                   for a, d in zip(parts, dims)]
        t_hi = np.full(k, np.inf)
        for a, c in zip(parts, centers):
            lam = np.linalg.eigvalsh(a)[:, 0]
            mask = lam < c
            t_hi[mask] = np.minimum(t_hi[mask],
                                    c[mask] / (c[mask] - lam[mask]))
        t_hi = np.where(np.isfinite(t_hi), t_hi * (1 - 1e-9), 1.0)

        def assemble(t):
            mats = None
            for a, c, d in zip(parts, centers, dims):
                term = ((1 - t) * c)[:, None, None] * np.eye(d) \
                    + t[:, None, None] * a
                mats = term if mats is None else np.einsum(
                    "kab,kcd->kacbd", mats, term
                ).reshape(k, -1, term.shape[1] * mats.shape[1])
            return mats

        def radii(q):
            tr = np.einsum("kii->k", q).real
            return np.linalg.norm(q / tr[:, None, None] - eye / total,
                                  axis=(1, 2))

        feasible = radii(assemble(t_hi)) >= radius
        if not feasible.any():
            continue
        lo = np.zeros(feasible.sum())
        hi = t_hi[feasible]
        for a_idx in range(len(parts)):
            parts[a_idx] = parts[a_idx][feasible]
            centers[a_idx] = centers[a_idx][feasible]
        k = int(feasible.sum())
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            above = radii(assemble(mid)) >= radius
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
        q = assemble(0.5 * (lo + hi))
        for i in range(k):
            best = min(best, zonotope_distance(q[i], s))
    return best


class TestProjection:
    def test_projected_points_exactly_feasible(self, rng):
        from dense_reference import kron_all as _kron_all
        from nlwe.bound import _project_to_radius

        for dims in ((2, 3), (2, 2, 2)):
            for _ in range(50):
                psd = [f.conj().T @ f for f in
                       random_product_operator(dims, rng, sigma=0.8).factors]
                radius = rng.uniform(0.05, 0.85) * max_radius(math.prod(dims))
                parts = _project_to_radius(psd, radius)
                if parts is None:
                    continue  # radius out of reach along this curve
                q = _kron_all(parts)
                assert abs(distance_from_identity(q) - radius) <= 1e-9
                for a in parts:
                    assert np.linalg.eigvalsh(a)[0] >= -1e-12
                assert np.allclose(q, q.conj().T)

    def test_near_identity_projection(self, rng):
        # A descent that collapses to about c I leaves |A - c I| tiny; the
        # radius must still come out exact.
        from dense_reference import kron_all as _kron_all
        from nlwe.bound import _project_to_radius

        psd = []
        for d in (2, 3):
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            psd.append(np.eye(d) + 1e-6 * (h + h.conj().T))
        parts = _project_to_radius(psd, 0.3)
        assert parts is not None
        assert abs(distance_from_identity(_kron_all(parts)) - 0.3) <= 1e-9

    def test_degenerate_parts(self):
        from nlwe.bound import _project_to_radius

        # A part of zero trace has no multiple of I to move along.
        assert _project_to_radius([np.zeros((2, 2)), np.eye(3)], 0.3) is None
        # Multiples of I stay at radius zero along the whole segment.
        parts = [2.0 * np.eye(2), 0.5 * np.eye(3)]
        assert _project_to_radius(parts, 0.3) is None
        for a, b in zip(_project_to_radius(parts, 0.0), parts):
            assert np.array_equal(a, b)


    def test_root_on_random_inputs(self, rng):
        # Parts PSD with their traces kept, at the radius to 1e-12, and None
        # exactly when the end of the PSD segment falls short of it, all
        # checked on the dense operator.
        from dense_reference import kron_all as _kron_all

        refused = placed = 0
        for dims in ((2, 2), (2, 3), (3, 3), (2, 2, 2)):
            rmax = max_radius(math.prod(dims))
            for _ in range(40):
                psd = [f.conj().T @ f for f in random_product_operator(
                    dims, rng, sigma=rng.uniform(0.05, 1.5)).factors]
                radius = rng.uniform(0.0, rmax)
                parts = _project_to_radius(psd, radius)
                # The far end of the segment A(t) = c I + t (A - c I) that
                # the root is searched on, just before a part turns singular.
                centers = [a.trace().real / len(a) for a in psd]
                t_end = (1 - 1e-9) * min(
                    c / (c - np.linalg.eigvalsh(a)[0])
                    for a, c in zip(psd, centers))
                end = _kron_all([(1 - t_end) * c * np.eye(len(a)) + t_end * a
                                 for a, c in zip(psd, centers)])
                short = distance_from_identity(end) < radius
                assert (parts is None) == short
                if parts is None:
                    refused += 1
                    continue
                placed += 1
                assert abs(distance_from_identity(_kron_all(parts))
                           - radius) <= 1e-12
                for a, b in zip(parts, psd):
                    assert abs(a.trace() - b.trace()) <= 1e-12 * b.trace().real
                    assert np.linalg.eigvalsh(a)[0] >= -1e-12 * a.trace().real
        assert refused and placed

    def test_rounding_noise_direction(self, rng):
        # Parts within |A - c I| / c ~ 1e-15 of a multiple of I, as a
        # descent at a small radius can end (ROADMAP item 4). The root
        # stretches the rounding noise A - c I about 1.7e14 times. That
        # noise need not be traceless: here party 0's shift has trace
        # -1.1e-16, which the stretch would carry into the trace (by 2.7%)
        # and the radius (off by 3.4e-4) if it were not removed first.
        from dense_reference import kron_all as _kron_all

        psd = []
        for d in (2, 2):
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = h + h.conj().T
            h -= np.trace(h) / d * np.eye(d)
            psd.append(0.7 * (np.eye(d) + 1e-15 * h / np.linalg.norm(h)))
        shift = psd[0] - psd[0].trace().real / 2 * np.eye(2)
        assert abs(shift.trace()) > 1e-17
        parts = _project_to_radius(psd, 0.0866)
        assert parts is not None
        for a, b in zip(parts, psd):
            stretch = np.linalg.norm(a - b.trace().real / 2 * np.eye(2)) \
                / np.linalg.norm(b - b.trace().real / 2 * np.eye(2))
            assert 1e14 < stretch < 3e14
            assert abs(a.trace() - b.trace()) <= 1e-15 * b.trace().real
            assert np.linalg.eigvalsh(a)[0] >= 0
        assert abs(distance_from_identity(_kron_all(parts)) - 0.0866) <= 1e-12


def quadratic(a, b):
    """0.5 x'Ax - b'x and its gradient."""
    def fun(x):
        ax = a @ x
        return 0.5 * x @ ax - b @ x, ax - b
    return fun


def rosenbrock(x):
    value = np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)
    grad = np.zeros_like(x)
    grad[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
    grad[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return value, grad


def scipy_lbfgsb(fun, x, max_iters=300, tol=1e-14):
    import scipy.optimize

    return scipy.optimize.minimize(
        fun, x, jac=True, method="L-BFGS-B",
        options={"maxiter": max_iters, "ftol": tol, "gtol": 1e-12})


def lbfgs(fun, x, args, max_iters, tol):
    """Minimize ``fun(x, *args) -> (value, gradient)`` from x by driving
    ``_descent`` to its end: (x, converged)."""
    descent = _descent(x, max_iters, tol)
    trial = next(descent)
    while True:
        try:
            trial = descent.send(fun(trial, *args))
        except StopIteration as done:
            return done.value


class TestLbfgs:
    """``_descent``, driven by ``lbfgs``, against scipy's L-BFGS-B, whose
    unbounded path it ports."""

    @pytest.mark.parametrize("n", [5, 10, 20, 40])
    def test_ill_conditioned_quadratic(self, rng, n):
        # Enough iterations for both to reach the minimum. Once decreases
        # reach rounding level, either may end on a failed search instead
        # of the relative-decrease test, so only the values are compared.
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        a = (q * np.logspace(0, 4, n)) @ q.T  # condition number 1e4
        b = rng.normal(size=n)
        fun = quadratic(a, b)
        x0 = rng.normal(size=n)
        x, _ = lbfgs(fun, x0, (), 5000, 1e-14)
        ref = scipy_lbfgsb(fun, x0, max_iters=5000)
        minimum = fun(np.linalg.solve(a, b))[0]
        assert abs(fun(x)[0] - ref.fun) <= 1e-10
        assert abs(fun(x)[0] - minimum) <= 1e-10

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_rosenbrock(self, n):
        x0 = np.where(np.arange(n) % 2, 1.0, -1.2)
        x, converged = lbfgs(rosenbrock, x0, (), 300, 1e-14)
        ref = scipy_lbfgsb(rosenbrock, x0)
        assert converged and ref.success
        assert abs(rosenbrock(x)[0] - ref.fun) <= 1e-10
        assert np.abs(x - 1.0).max() <= 1e-6

    def test_gradient_stop(self):
        # Started at the minimizer: no step, converged.
        fun = quadratic(np.diag([1.0, 2.0]), np.array([1.0, 2.0]))
        x0 = np.ones(2)
        x, converged = lbfgs(fun, x0, (), 300, 1e-14)
        ref = scipy_lbfgsb(fun, x0)
        assert converged and ref.success
        assert np.array_equal(x, x0)

    def test_relative_decrease_stop(self):
        calls = []

        def counting(x):
            calls.append(None)
            return rosenbrock(x)

        x0 = np.array([-1.2, 1.0])
        _, converged = lbfgs(counting, x0, (), 300, 1e-3)
        ref = scipy_lbfgsb(rosenbrock, x0, tol=1e-3)
        assert converged and ref.success and ref.nit < 300
        assert len(calls) == ref.nfev

    def test_max_iters_stop(self):
        x0 = np.array([-1.2, 1.0])
        x, converged = lbfgs(rosenbrock, x0, (), 5, 1e-14)
        ref = scipy_lbfgsb(rosenbrock, x0, max_iters=5)
        assert not converged and not ref.success and ref.nit == 5
        assert rosenbrock(x)[0] < rosenbrock(x0)[0]
        # The iteration limit is checked before the convergence tests: a
        # limit equal to the iterations that converge still ends unconverged.
        nit = scipy_lbfgsb(rosenbrock, x0, tol=1e-3).nit
        _, converged = lbfgs(rosenbrock, x0, (), nit, 1e-3)
        assert not converged
        assert not scipy_lbfgsb(rosenbrock, x0, max_iters=nit,
                                tol=1e-3).success

    def test_failed_search_along_gradient_stop(self):
        # A gradient that no step along it can honour: every trial breaks
        # the sufficient decrease, so the first search fails and x stays.
        def flat(x):
            return 0.0, np.ones_like(x)

        x0 = np.array([0.5, -0.5])
        x, converged = lbfgs(flat, x0, (), 300, 1e-14)
        ref = scipy_lbfgsb(flat, x0)
        assert not converged and not ref.success
        assert np.array_equal(x, x0)

    def test_failed_search_retried_along_gradient(self, monkeypatch):
        # One failed search with pairs in memory drops them and retries
        # along -g from the same iterate; two in a row end unconverged.
        import nlwe.bound as bound

        search = bound._line_search
        for fail_at, expect in (({3}, True), ({3, 4}, False)):
            calls = []

            def failing(x, f, g, d, stp):
                calls.append((x, g, d))
                if len(calls) in fail_at:
                    return None
                return (yield from search(x, f, g, d, stp))

            monkeypatch.setattr(bound, "_line_search", failing)
            x, converged = lbfgs(rosenbrock, np.array([-1.2, 1.0]), (),
                                 300, 1e-14)
            assert converged == expect
            x3, g3, d3 = calls[2]
            x4, g4, d4 = calls[3]
            assert not np.allclose(d3, -g3)
            assert np.array_equal(x4, x3) and np.array_equal(d4, -g4)
            if not expect:
                assert len(calls) == 4 and np.array_equal(x, x3)

    def test_repeated_trial_not_reevaluated(self):
        # Flat up to rounding along -g: the search shrinks its step until a
        # trial rounds to the start point, twice in a row. The repeat is
        # not evaluated again, so the calls match scipy's.
        x0 = np.array([0.3, 0.2, -0.1])
        grad = np.array([3e-8, -8e-8, 1e-8])
        points = []

        def flat(x):
            points.append(np.array(x))
            value = 0.125 if np.array_equal(x, x0) else 0.125 + 1.4e-16
            return value, grad

        _, converged = lbfgs(flat, x0, (), 300, 1e-14)
        calls = len(points)
        ref = scipy_lbfgsb(flat, x0)
        assert not converged and not ref.success
        assert calls == ref.nfev
        assert not any(np.array_equal(a, b)
                       for a, b in zip(points, points[1:calls]))
        assert sum(np.array_equal(p, x0) for p in points[:calls]) == 2

    def test_search_warning_accepts_its_point(self):
        # Values are rounding noise around a constant. The search ends on a
        # warning (rounding prevents progress), its point becomes the next
        # iterate, and the relative-decrease test then stops converged.
        import hashlib

        grad = np.array([3e-8, -8e-8, 1e-8])

        def noisy(x):
            digest = hashlib.sha256(np.asarray(x).tobytes()).digest()
            return 0.125 + 1.4e-17 * (digest[0] % 5 - 2), grad

        x0 = np.array([0.3, 0.2, -0.1])
        x, converged = lbfgs(noisy, x0, (), 300, 1e-14)
        ref = scipy_lbfgsb(noisy, x0)
        assert converged and ref.success
        assert not np.array_equal(x, x0)

    def test_cut_carries_its_point(self):
        # The cut check stops a descent at a trial point, and the restart
        # leaves with that point: it places the last point the descent
        # evaluated, the first whose value the check accepts, and measures
        # it by one more request, with weight 0.
        s = bell_states()
        problem = _BoundProblem(s)

        def below(value):
            return value < 0.15

        requests, (value, converged, stopped) = drive(
            problem, _restart(problem, 0.4, below, FAST_OPTS, (0,), 0))
        values = [objective_at(x, problem, shapes, weight, target)[0]
                  for shapes, x, weight, target in requests]
        assert stopped and converged
        assert values[-2] < 0.15
        assert all(v >= 0.15 for v in values[:-2])
        weights = [weight for _, _, weight, _ in requests]
        assert weights[-1] == 0.0 and 0.0 not in weights[:-1]
        assert value == math.sqrt(values[-1])
        shapes = requests[-1][0]
        placed = _project_to_radius([f.conj().T @ f for f in
                                     _unpack(requests[-2][1], shapes)], 0.4)
        assert value == pytest.approx(
            reference.ReferenceProblem(s).delta(placed), rel=1e-12)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_trial_never_an_iterate(self, bad):
        # Outside |x| < 2 the value is not finite. The first trial step
        # from x0 lands there, so the search fails and x0 is kept; from a
        # start where trials can stay inside, every iterate is finite.
        def walled(x):
            value, grad = rosenbrock(x)
            return (value if np.abs(x).max() < 2.0 else bad), grad

        x0 = np.array([-1.9, 1.9])
        x, converged = lbfgs(walled, x0, (), 300, 1e-14)
        assert not converged and np.array_equal(x, x0)
        x, _ = lbfgs(walled, np.array([-1.2, 1.0]), (), 300, 1e-14)
        assert math.isfinite(walled(x)[0])

    def test_objective_descent_matches_scipy(self):
        # The bound's own objective, one penalty stage at a tiles radius.
        problem = _BoundProblem(tiles())
        shapes = ((3, 3), (3, 3))
        rng = np.random.default_rng(3)
        x0 = _pack([np.eye(3) + 0.3 * (rng.normal(size=(3, 3))
                                       + 1j * rng.normal(size=(3, 3)))
                    for _ in shapes])
        args = (problem, shapes, 10.0, 0.2 ** 2)

        def fun(x):
            return objective_at(x, *args)

        x, converged = lbfgs(objective_at, x0, args, 300, 1e-14)
        ref = scipy_lbfgsb(fun, x0)
        assert converged == ref.success
        assert abs(fun(x)[0] - ref.fun) <= 1e-10


class TestMeasurement:
    """A restart's distance is the root of one more kernel request, with
    weight 0, at its placed point; the module has no other evaluator."""

    @staticmethod
    def measured(problem, restart):
        """The restart's distance and its placed factors, after checking
        that the last request measured them."""
        requests, (value, _, _) = drive(problem, restart)
        shapes, x, weight, target = requests[-1]
        assert weight == 0.0
        assert value == math.sqrt(
            objective_at(x, problem, shapes, 0.0, target)[0])
        return value, _unpack(x, shapes), requests[:-1]

    @pytest.mark.parametrize("radius", [0.4, max_radius(4)],
                             ids=["full", "rank-one"])
    def test_root_of_weight_zero_value(self, radius):
        s = bell_states()
        problem = _BoundProblem(s)
        value, factors, descent = self.measured(
            problem, _restart(problem, radius, None, FAST_OPTS, (0,), 3))
        q = ProductOperator(factors).matrix()
        assert distance_from_identity(q) == pytest.approx(radius, abs=1e-9)
        assert value == pytest.approx(zonotope_distance(q, s), rel=1e-10)
        if radius == 0.4:
            # Adjoints of Cholesky factors: upper triangular, with a
            # positive real diagonal.
            for f in factors:
                assert not np.tril(f, -1).any()
                assert (f.diagonal().real > 0).all()
                assert not f.diagonal().imag.any()
        else:
            # The rank-one descent's own end point, a trial it evaluated,
            # in the scale gauge.
            shapes = [f.shape for f in factors]
            assert any(np.array_equal(
                _pack(factors), _pack(_rescale_factors(_unpack(x, shapes))))
                for _, x, _, _ in descent)

    def test_part_projected_next_to_t_max(self, monkeypatch, rng):
        # Part 0 is diag(2, 0) in a random basis: singular at t_max = 1,
        # with D R(t)^2 = t^2 on Bell, so this radius is met at
        # t = 1 - 1.05e-9, next to the cap t_max (1 - 1e-9). The part is
        # then barely positive definite, and its Cholesky factor must still
        # place it for the kernel.
        import nlwe.bound as bound

        s = bell_states()
        problem = _BoundProblem(s)
        u, _ = np.linalg.qr(rng.normal(size=(2, 2))
                            + 1j * rng.normal(size=(2, 2)))
        parts = _project_to_radius(
            [u @ np.diag([2.0, 0.0]) @ u.conj().T, np.eye(2)],
            0.5 * (1 - 1.05e-9))
        assert 0 < np.linalg.eigvalsh(parts[0])[0] < 1.1e-9
        monkeypatch.setattr(bound, "_project_to_radius",
                            lambda psd, r: parts)
        value, factors, _ = self.measured(
            problem, _restart(problem, 0.4, None, FAST_OPTS, (0,), 0))
        for f, a in zip(factors, parts):
            assert np.abs(f.conj().T @ f - a).max() <= 1e-14
        assert value == pytest.approx(
            reference.ReferenceProblem(s).delta(parts), rel=1e-12)


class TestMinDistanceAtRadius:
    """The inner minimum at one radius, which ``error_lower_bound`` reports
    as ``delta_r``; ``inner_minimum`` runs it alone."""

    def test_zero_radius(self):
        assert inner_minimum(two_qubit_demo(), 0.0, FAST_OPTS) == 0.0

    def test_demo_vanishes_everywhere(self):
        s = two_qubit_demo()
        for r in (0.25, 0.6, max_radius(4)):
            assert inner_minimum(s, r, FAST_OPTS) <= 1e-6

    def test_bell_distance_strictly_positive(self):
        assert inner_minimum(bell_states(), 0.4, FAST_OPTS) > 0.01

    def test_never_worse_than_sampling(self, rng):
        s = bell_states()
        radius = 0.4
        optimum = inner_minimum(s, radius, FAST_OPTS)
        baseline = sampled_min_distance(s, radius, 100_000, rng)
        assert optimum <= baseline + 1e-6


class TestMemberBasis:
    @pytest.mark.parametrize("build", [phased_bell, tiles, halder_full,
                                       gentiles1_4])
    def test_delta_matches_dense_distance(self, rng, build):
        s = build()
        problem = _BoundProblem(s)
        for _ in range(5):
            q = random_product_operator(s.dims, rng)
            dense = zonotope_distance(q.matrix(), s)
            assert abs(kernel_distance(problem, q.factors) - dense) <= 1e-12

    def test_bound_forms_no_dense_kron(self, monkeypatch):
        sets = [tiles(), bell_states()]

        def refuse(*args, **kwargs):
            raise AssertionError("dense kron formed")

        monkeypatch.setattr(np, "kron", refuse)
        for s in sets:
            assert 0.0 <= error_lower_bound(s, FAST_OPTS).p_err_lower <= 0.5

    def test_more_than_six_parties(self):
        s = seven_qubits()
        opts = OptimizerOptions(r_steps=3, restarts=2, refine_levels=0)
        res = error_lower_bound(s, opts)
        assert len(res.r_grid) == 3
        assert res.p_err_lower <= 1e-3


class TestErrorLowerBound:
    def test_demo_bound_vanishes(self):
        res = error_lower_bound(two_qubit_demo(), FAST_OPTS)
        assert res.p_err_lower <= 1e-3

    def test_result_invariants(self):
        res = error_lower_bound(two_qubit_demo(), FAST_OPTS)
        assert 0.0 <= res.p_err_lower <= 0.5
        assert all(d >= 0 for d in res.delta_r)
        assert res.p_err_lower == pytest.approx(0.5 * max(res.delta_r) ** 2)
        assert len(res.r_grid) == len(res.delta_r)
        assert list(res.r_grid) == sorted(res.r_grid)

    def test_deterministic_given_seed(self):
        a = error_lower_bound(two_qubit_demo(), FAST_OPTS)
        b = error_lower_bound(two_qubit_demo(), FAST_OPTS)
        assert a.r_grid == b.r_grid
        assert a.delta_r == b.delta_r
        assert a.p_err_lower == b.p_err_lower

    def test_global_phase_invariance(self):
        # The projectors are unchanged, but phase factors perturb the float
        # arithmetic at the ulp level; agreement is up to optimizer noise.
        s = bell_states()
        phased = StateSet(
            s.dims,
            [(np.exp(0.7j) * s.global_state(0),)] + [s.states[m]
                                                     for m in range(1, 4)],
            s.priors,
        )
        a = error_lower_bound(s, FAST_OPTS)
        b = error_lower_bound(phased, FAST_OPTS)
        assert max(abs(x - y) for x, y in zip(a.delta_r, b.delta_r)) <= 1e-3
        assert abs(a.p_err_lower - b.p_err_lower) <= 1e-3

    def test_state_permutation_stability(self):
        s = bell_states()
        permuted = StateSet(s.dims, [s.states[m] for m in (2, 0, 3, 1)],
                            s.priors)
        a = error_lower_bound(s, FAST_OPTS)
        b = error_lower_bound(permuted, FAST_OPTS)
        assert abs(a.p_err_lower - b.p_err_lower) <= 1e-3


class TestOptimizerOptions:
    def test_defaults_valid(self):
        OptimizerOptions()

    @pytest.mark.parametrize("field,value", [
        ("restarts", 0), ("r_steps", 0), ("seed", -1),
        ("penalty_stages", 0), ("max_iters", 0), ("tol", 0.0),
        ("penalty_base", 0.0), ("refine_levels", -1), ("refine_points", 0),
        ("sigma_min", -0.1), ("sigma_min", 2.0),
        ("tol", math.inf), ("penalty_base", math.inf), ("sigma_max", math.inf),
        ("tol", math.nan), ("penalty_base", math.nan), ("sigma_max", math.nan),
        ("restarts", 2.5), ("restarts", True), ("r_steps", 2.5),
        ("refine_points", 2.5), ("penalty_stages", 1.5), ("seed", 1.5),
        ("max_iters", 10.0), ("refine_levels", False), ("seed", "0"),
        ("tol", True), ("tol", np.True_), ("penalty_base", True),
        ("sigma_min", False), ("sigma_max", np.True_), ("tol", "1"),
        ("tol", 1 + 0j), ("sigma_min", None), ("penalty_base", "10"),
        ("sigma_max", "1.0"),
    ])
    def test_rejects_invalid(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptimizerOptions(**{field: value})

    def test_single_restart_starts_at_sigma_min(self):
        # Restart 0 starts at sigma_min however many restarts run, so it
        # gives the same value alone as first of many; a different sigma_min
        # moves it.
        problem = _BoundProblem(bell_states())

        def first(**fields):
            opts = dataclasses.replace(FAST_OPTS, **fields)
            return run_restart(problem, 0.4, None, opts, (0,), 0)

        assert first(restarts=1) == first(restarts=3)
        assert first(restarts=1) != first(restarts=1, sigma_min=0.9)


class TestPruning:
    # p_err_lower and argmax_r of the sweep that ran every restart at every
    # radius, for FAST_OPTS; pruning must reproduce them.
    FULL_SWEEP = {
        "bell": (bell_states, 0.24999999999999994, 0.8660254037844386),
        "tiles": (tiles, 0.0003256837405614707, 0.23570226039551584),
    }

    @pytest.mark.parametrize("name", sorted(FULL_SWEEP))
    def test_bound_matches_full_sweep(self, name):
        build, p_err, argmax = self.FULL_SWEEP[name]
        res = error_lower_bound(build(), FAST_OPTS)
        assert res.p_err_lower == pytest.approx(p_err, rel=0, abs=1e-12)
        assert res.diagnostics["argmax_r"] == pytest.approx(
            argmax, rel=0, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(FULL_SWEEP))
    def test_pruned_radii_below_max(self, name):
        res = error_lower_bound(self.FULL_SWEEP[name][0](), FAST_OPTS)
        pruned = res.diagnostics["pruned"]
        assert len(pruned) == len(res.r_grid)
        assert any(pruned)
        for r, delta, flag in zip(res.r_grid, res.delta_r, pruned):
            if flag:
                assert delta < res.diagnostics["max_delta"]
                assert r != res.diagnostics["argmax_r"]

    def test_bell_runs_fewer_restarts(self):
        res = error_lower_bound(bell_states(), FAST_OPTS)
        assert res.diagnostics["restarts_total"] \
            < len(res.r_grid) * FAST_OPTS.restarts
        assert res.diagnostics["projected_total"] \
            == res.diagnostics["restarts_total"]

    def test_single_radius_never_pruned(self, monkeypatch):
        import nlwe.bound as bound

        calls = []
        original = bound._restart

        def counting(*args):
            calls.append(args[-1])
            return original(*args)

        monkeypatch.setattr(bound, "_restart", counting)
        inner_minimum(bell_states(), 0.4, FAST_OPTS)
        assert calls == list(range(FAST_OPTS.restarts))


TILES_OPTS = {seed: OptimizerOptions(restarts=4, seed=seed) for seed in (0, 1)}


@functools.cache
def uncut_tiles(seed):
    """``tiles`` bound for ``TILES_OPTS[seed]`` with no descent ever cut."""
    import nlwe.bound as bound

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bound, "_restart", without_cut(_restart))
        return error_lower_bound(tiles(), TILES_OPTS[seed])


class TestCut:
    """Descents stopped below the running maximum change only pruned
    radii's values on ``tiles``, never the bound, the grid or the counts."""

    @pytest.mark.parametrize("seed", sorted(TILES_OPTS))
    def test_matches_uncut_sweep(self, monkeypatch, seed):
        import nlwe.bound as bound

        stopped = []
        original = bound._restart

        def recording(*args):
            out = yield from original(*args)
            stopped.append(out[2])
            return out

        monkeypatch.setattr(bound, "_restart", recording)
        res = error_lower_bound(tiles(), TILES_OPTS[seed])
        ref = uncut_tiles(seed)
        assert any(stopped)
        assert res.r_grid == ref.r_grid
        assert res.p_err_lower == ref.p_err_lower
        for key in ("argmax_r", "max_delta", "pruned", "restarts_total",
                    "projected_total"):
            assert res.diagnostics[key] == ref.diagnostics[key]
        pruned = res.diagnostics["pruned"]
        for delta, ref_delta, flag in zip(res.delta_r, ref.delta_r, pruned):
            if flag:
                assert delta < res.diagnostics["max_delta"]
            else:
                assert delta == ref_delta

    def test_unprojectable_cut_point_rerun(self, monkeypatch):
        # Refusing every stopped point leaves nothing held but at the
        # largest radius, whose rank-one descents need no projection, so
        # the sweep must equal the uncut one everywhere else. A restart
        # stopped at full rank projects right after the cut check that
        # stopped it, with nothing else run in between, so that check arms
        # the refusal and the refusal disarms it; the resumed descent then
        # projects with no check of its own.
        import nlwe.bound as bound

        state = {"stopped": False, "refused": 0}
        restart, project = bound._restart, bound._project_to_radius

        def watched_restart(problem, radius, stop, *rest):
            full_rank = radius < max_radius(9) - 1e-12

            def watched(value):
                stopped = stop is not None and stop(value)
                state["stopped"] = stopped and full_rank
                return stopped
            return restart(problem, radius, watched, *rest)

        def refusing(psd, r):
            if state["stopped"]:
                state["stopped"] = False
                state["refused"] += 1
                return None
            return project(psd, r)

        monkeypatch.setattr(bound, "_restart", watched_restart)
        monkeypatch.setattr(bound, "_project_to_radius", refusing)
        res = error_lower_bound(tiles(), TILES_OPTS[0])
        ref = uncut_tiles(0)
        assert state["refused"] > 0
        for key in ("argmax_r", "max_delta", "pruned", "restarts_total",
                    "projected_total", "failed_radii", "warnings"):
            assert res.diagnostics[key] == ref.diagnostics[key]
        assert (res.r_grid, res.p_err_lower) == (ref.r_grid, ref.p_err_lower)
        assert res.r_grid[-1] == max_radius(9)
        assert res.delta_r[:-1] == ref.delta_r[:-1]

    def test_sweep_reruns_stopped_restarts(self, monkeypatch):
        # Scripted restart values per radius; a stopped restart reports
        # twice its value and resumes to its value. Radius 0.1 finishes
        # first, its restarts after the probe run without a cut; 0.2 is
        # pruned on a settled value, 0.3 on a held one. The cut stops every
        # restart below the running maximum, here from the first probe on.
        import nlwe.bound as bound

        values = {0.1: [1.0, 0.5, 1e-3], 0.2: [0.1, 6e-4, 0.2],
                  0.3: [0.05, 1e-5, 0.3]}
        stops = []

        def settled(value):
            return value, True, None
            yield

        def scripted(problem, radius, stop, opts, key, k):
            # A coroutine that needs no evaluation; the cut check is asked
            # about the squared value, as about a penalized objective.
            value = values[radius][k]
            if stop is not None and stop(value * value):
                stops.append((radius, k))
                return 2.0 * value, True, settled(value)
            return value, True, None
            yield

        def sweep(cut):
            monkeypatch.setattr(bound, "_restart",
                                scripted if cut else without_cut(scripted))
            runs, floor = bound._sweep(
                None, [(r, (0, i)) for i, r in enumerate(values)],
                OptimizerOptions(restarts=3))
            assert not any(run.held for run in runs)
            return floor, [(run.radius, run.value, run.pruned, run.restarts,
                            run.projected, run.converged) for run in runs]

        floor, runs = sweep(True)
        assert stops == [(0.2, 0), (0.3, 0), (0.2, 1), (0.3, 1)]
        assert (floor, runs) == (1e-3, [(0.1, 1e-3, False, 3, 3, 3),
                                        (0.2, 6e-4, True, 2, 2, 2),
                                        (0.3, 2e-5, True, 2, 2, 2)])
        stops.clear()
        assert sweep(False) == (1e-3, [(0.1, 1e-3, False, 3, 3, 3),
                                       (0.2, 6e-4, True, 2, 2, 2),
                                       (0.3, 1e-5, True, 2, 2, 2)])
        assert stops == []

        # The stopped probe of 0.2 reports 1.9 and so finishes first, its
        # probe resumed beside its uncut restarts; 0.1's later restarts stop
        # below the running maximum 1.9 and resume, as they cannot prune.
        values.clear()
        values.update({0.1: [1.0, 0.9, 0.8], 0.2: [0.95, 0.9, 1e-3]})
        for cut, stopped in ((True, [(0.2, 0), (0.1, 1), (0.1, 2)]),
                             (False, [])):
            assert sweep(cut) == (0.8, [(0.1, 0.8, False, 3, 3, 3),
                                        (0.2, 1e-3, False, 3, 3, 3)])
            assert stops == stopped
            stops.clear()

        # Probed first, 0.2 is not stopped and finishes second. It runs all
        # its restarts, the last stopped below the floor: it must still
        # settle that restart, not be pruned on it.
        values.clear()
        values.update({0.2: [0.95, 0.9, 1e-3], 0.1: [1.0, 0.9, 0.8]})
        for cut, stopped in ((True, [(0.2, 1), (0.2, 2)]), (False, [])):
            assert sweep(cut) == (0.8, [(0.2, 1e-3, False, 3, 3, 3),
                                        (0.1, 0.8, False, 3, 3, 3)])
            assert stops == stopped
            stops.clear()

    def test_batch_keeps_pruning_order(self, monkeypatch):
        # Radius 0.2 runs its later restarts in batches [1], [2, 3] and
        # [4, 5, 6, 7]. Scripted restarts take the given number of rounds
        # and report (value, converged); a stopped one reports its held
        # value and resumes to its value in as many rounds again. In the
        # last batch, 5 and 6 finish before 4, and 6 prunes on its held
        # value; 4 prunes later on its resumed value, so 5 and 6 are
        # discarded and 7, still running, is closed. The run must count
        # what running one restart at a time counts.
        import types

        import nlwe.bound as bound

        floor = 1.0
        script = {  # k: (rounds, value, converged, held value or None)
            0: (1, 1.5, True, None), 1: (2, 1.4, True, 1.2),
            2: (6, 1.3, True, None), 3: (1, None, False, None),
            4: (5, 0.5, True, 1.1), 5: (1, 1.2, False, None),
            6: (2, 1.6, True, 0.9), 7: (10, 1.7, True, None)}
        values = {0.1: {k: (1, 1.0 + 0.1 * (k - 1) if k else 2.0, True, None)
                      for k in script},
                  0.2: script}
        closed = []

        def rounds(n):
            for _ in range(n):
                yield ((1, 1),), np.zeros(2), 0.0, 0.0

        def resumed(radius, k, rounds_, value, converged):
            yield from rounds(rounds_)
            return value, converged, None

        def scripted(problem, radius, stop, opts, key, k):
            n, value, converged, held = values[radius][k]
            try:
                yield from rounds(n)
            except GeneratorExit:
                closed.append((radius, k))
                raise
            if held is not None and stop is not None and stop(value ** 2):
                return held, True, resumed(radius, k, n, value, converged)
            return value, converged, None

        def stub(x, *args):
            return np.zeros(len(x)), np.zeros_like(x)

        monkeypatch.setattr(bound, "_restart", scripted)
        monkeypatch.setattr(bound, "_objective", stub)
        runs, _ = bound._sweep(types.SimpleNamespace(batch=64),
                               [(0.1, (0, 0)), (0.2, (0, 1))],
                               OptimizerOptions(restarts=8))
        assert runs[0].value == floor and not runs[0].pruned

        # One restart at a time: a held value that cannot prune resumes.
        outcomes = []
        for rounds_, value, converged, held in script.values():
            if held is not None and held < floor:
                value, converged = held, True
            outcomes.append((value, converged))
            if value is not None and value < floor:
                break
        run = runs[1]
        assert run.pruned and run.held == []
        assert (run.restarts, run.projected, run.converged, run.value) == (
            len(outcomes), sum(v is not None for v, _ in outcomes),
            sum(c for _, c in outcomes), 0.5)
        assert closed == [(0.2, 7)]

    def test_refused_stopped_point_rerun_without_cut(self, monkeypatch):
        # A cut of 1.0 stops the descent; when its point is refused,
        # _restart must return what the uncut restart returns.
        import nlwe.bound as bound

        problem = _BoundProblem(bell_states())
        project, refused = bound._project_to_radius, []

        def refuse_first(psd, r):
            if not refused:
                refused.append(r)
                return None
            return project(psd, r)

        def below_one(value):
            return value < 1.0

        assert run_restart(problem, 0.4, below_one, FAST_OPTS, (0,), 0)[2]
        monkeypatch.setattr(bound, "_project_to_radius", refuse_first)
        result = run_restart(problem, 0.4, below_one, FAST_OPTS, (0,), 0)
        assert refused == [0.4]
        assert result == run_restart(problem, 0.4, None, FAST_OPTS, (0,), 0)
        assert result[0] is not None and result[1:] == (True, None)

    @pytest.mark.parametrize("build,radius,level", [
        (tiles, 0.2, 1e-2), (bell_states, max_radius(4), 0.6)],
        ids=["full", "rank-one"])
    def test_resumed_restart_matches_uncut(self, build, radius, level):
        # A stopped restart hands back its live descent. Resumed, it goes on
        # from the stopped trial along the uncut restart's path, evaluating
        # the same points, and returns exactly what that restart returns;
        # the stop costs one more point, the measured stopped one.
        problem = _BoundProblem(build())

        def below(value):
            return value < level

        for k in range(3):
            stopped, (_, converged, resume) = drive(
                problem, _restart(problem, radius, below, FAST_OPTS, (0,), k))
            assert converged and resume is not None
            resumed, result = drive(problem, resume)
            uncut, expected = drive(
                problem, _restart(problem, radius, None, FAST_OPTS, (0,), k))
            assert result == expected and expected[2] is None
            path = stopped[:-1] + resumed
            assert len(path) == len(uncut)
            for (shapes, x, weight, target), request in zip(path, uncut):
                assert (shapes, weight, target) == (request[0], *request[2:])
                assert np.array_equal(x, request[1])

    def test_held_descents_closed(self, monkeypatch):
        # Once its radius is pruned or finished, no stopped restart's
        # descent stays suspended: each was resumed to its end or closed.
        import nlwe.bound as bound

        held = []
        original = bound._restart

        def recording(*args):
            out = yield from original(*args)
            if out[2] is not None:
                held.append(out[2])
            return out

        monkeypatch.setattr(bound, "_restart", recording)
        error_lower_bound(tiles(), TILES_OPTS[0])
        assert held and all(resume.gi_frame is None for resume in held)

    def test_objective_evaluation_count(self, monkeypatch):
        # A deterministic stand-in for the time saved: 3,259 points in 1,163
        # kernel calls, against 5,896 points in 1,426 calls without the cut
        # and 3,857 in 1,400 when stopped restarts were rerun from their
        # seeds and later restarts ran one at a time. A kernel call
        # evaluates a stack of points, and each point counts.
        import nlwe.bound as bound

        calls, points = [], []
        original = bound._objective

        def counting(x, *args):
            calls.append(None)
            points.extend([None] * len(x))
            return original(x, *args)

        monkeypatch.setattr(bound, "_objective", counting)
        error_lower_bound(tiles(), TILES_OPTS[0])
        assert len(points) <= 3400
        assert len(calls) <= 1250


class TestLockstep:
    """Restarts advanced in rounds, one kernel call per round and shape."""

    @pytest.mark.parametrize("radius,level,mixed", [
        (0.2, 8.3e-4, True), (max_radius(9), 1e-6, False)],
        ids=["full", "rank-one"])
    def test_alone_or_in_batch(self, radius, level, mixed):
        # The cut check here is fixed, not read from a running maximum, so
        # a restart's path cannot depend on what runs beside it. At r = 0.2
        # it stops the restarts that settle below the level and no other.
        problem = _BoundProblem(tiles())
        opts = dataclasses.replace(FAST_OPTS, restarts=6)

        def stop(value):
            return value < level

        def restarts():
            return [_restart(problem, radius, stop, opts, (0,), k)
                    for k in range(opts.restarts)]

        together = _lockstep(problem, restarts())
        alone = [_lockstep(problem, [r])[0] for r in restarts()]
        stopped = [result[2] is not None for result in together]
        assert any(stopped) and all(stopped) != mixed
        for (value, *flags), (ref, *ref_flags) in zip(together, alone):
            assert value == pytest.approx(ref, rel=1e-12, abs=0)
            assert ([flags[0], flags[1] is None]
                    == [ref_flags[0], ref_flags[1] is None])

    def test_bell_batches_its_evaluations(self, monkeypatch):
        # The probes, and the first radius's restarts, share kernel calls:
        # default options on Bell make at most half as many calls as they
        # evaluate points.
        import nlwe.bound as bound

        calls, points = [], []
        original = bound._objective

        def counting(x, *args):
            calls.append(None)
            points.extend([None] * len(x))
            return original(x, *args)

        monkeypatch.setattr(bound, "_objective", counting)
        error_lower_bound(bell_states())
        assert 2 * len(calls) <= len(points)


class TestFailedRadii:
    def test_reported_and_warned(self, monkeypatch):
        monkeypatch.setattr("nlwe.bound._project_to_radius",
                            lambda psd, r: None)
        res = error_lower_bound(bell_states(), FAST_OPTS)
        # Only radius 0 and the rank-1 radius need no projection.
        inner = [d for r, d in zip(res.r_grid, res.delta_r)
                 if 0 < r < max_radius(4) - 1e-12]
        assert inner and all(d == 0.0 for d in inner)
        assert res.diagnostics["failed_radii"] == len(inner)
        assert any("feasible" in w for w in res.diagnostics["warnings"])
        assert res.diagnostics["projected_total"] \
            < res.diagnostics["restarts_total"]
        # Unplaced restarts still report their L-BFGS-B convergence.
        assert res.diagnostics["converged_fraction"] > 0.5
        assert not any("convergence" in w
                       for w in res.diagnostics["warnings"])

    def test_none_on_healthy_run(self):
        res = error_lower_bound(two_qubit_demo(), FAST_OPTS)
        assert res.diagnostics["failed_radii"] == 0
        assert res.diagnostics["warnings"] == []


class TestOneWaySentinel:
    """One-way LOCC discriminates these sets perfectly, so their true inner
    minimum is 0 and any positive ``max_delta`` is local-search error."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)],
                             ids="{0[0]}x{0[1]}".format)
    def test_max_delta_small(self, dims, seed):
        res = error_lower_bound(one_way_product_set(*dims, seed), FAST_OPTS)
        assert res.diagnostics["max_delta"] <= 1e-5
        assert res.diagnostics["warnings"] == []

    @pytest.mark.parametrize("family", ["tiles", "gentiles1-4", "dominoes"])
    def test_protocol_subset_max_delta_small(self, family):
        # The first subset of the family in the "never both" sample that
        # has a component protocol; halder-full's subsets there have none.
        s = next(s for name, s in dropped_subsets()
                 if name == family and protocol(s) is not None)
        res = error_lower_bound(s, FAST_OPTS)
        assert res.diagnostics["max_delta"] <= 1e-5
