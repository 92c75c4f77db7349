import itertools
import math

import numpy as np
import pytest

from nlwe.bound import (
    BoundResult,
    OptimizerOptions,
    ProductOperator,
    _BoundProblem,
    _objective,
    _pack,
    _unpack,
    discrimination_operator,
    distance_from_identity,
    error_lower_bound,
    max_radius,
    min_distance_at_radius,
    nearest_zonotope_point,
    quadratic_over_linear_gap,
    segment_distance_inequality,
    zonotope_distance,
)
from nlwe.families import StateSet, bell_states, tiles, two_qubit_demo

FAST_OPTS = OptimizerOptions(r_steps=5, restarts=8, refine_levels=1)


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


class TestGradient:
    @pytest.mark.parametrize("weight,target", [(0.0, 0.0), (3.0, 0.2)])
    def test_matches_finite_differences(self, rng, weight, target):
        s = two_qubit_demo()
        problem = _BoundProblem(s)
        shapes = [(d, d) for d in s.dims]
        for _ in range(10):
            factors = [
                np.eye(d) + 0.3 * (rng.normal(size=(d, d))
                                   + 1j * rng.normal(size=(d, d)))
                for d in s.dims
            ]
            x = _pack(factors)
            _, grad = _objective(x, problem, shapes, weight, target)
            h = 1e-6
            fd = np.zeros_like(x)
            for i in range(x.size):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fp, _ = _objective(xp, problem, shapes, weight, target)
                fm, _ = _objective(xm, problem, shapes, weight, target)
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


def sampled_min_distance(s, radius, n_samples, rng, chunk=5000):
    """Naive baseline: random product operators steered to the radius.

    Each sample's local parts are mixed toward identity (or stretched beyond,
    while positive) and the mixing weight solved by bisection so the sample
    sits at the requested distance; infeasible samples are dropped.
    """
    dims = s.dims
    total = int(np.prod(dims))
    eye = np.eye(total)
    problem = _BoundProblem(s)
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
            best = min(best, problem.delta_dense(q[i]))
    return best


class TestProjection:
    def test_projected_points_exactly_feasible(self, rng):
        from nlwe.bound import _kron_all, _project_to_radius

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
        from nlwe.bound import _kron_all, _project_to_radius

        psd = []
        for d in (2, 3):
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            psd.append(np.eye(d) + 1e-6 * (h + h.conj().T))
        parts = _project_to_radius(psd, 0.3)
        assert parts is not None
        assert abs(distance_from_identity(_kron_all(parts)) - 0.3) <= 1e-9


class TestMinDistanceAtRadius:
    def test_zero_radius(self):
        assert min_distance_at_radius(two_qubit_demo(), 0.0, FAST_OPTS) == 0.0

    def test_demo_vanishes_everywhere(self):
        s = two_qubit_demo()
        for r in (0.25, 0.6, max_radius(4)):
            assert min_distance_at_radius(s, r, FAST_OPTS) <= 1e-6

    def test_radius_out_of_range(self):
        with pytest.raises(ValueError):
            min_distance_at_radius(two_qubit_demo(), 1.5, FAST_OPTS)

    def test_bell_distance_strictly_positive(self):
        assert min_distance_at_radius(bell_states(), 0.4, FAST_OPTS) > 0.01

    def test_never_worse_than_sampling(self, rng):
        s = bell_states()
        radius = 0.4
        optimum = min_distance_at_radius(s, radius, FAST_OPTS)
        baseline = sampled_min_distance(s, radius, 100_000, rng)
        assert optimum <= baseline + 1e-6


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
    ])
    def test_rejects_invalid(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptimizerOptions(**{field: value})


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
        min_distance_at_radius(bell_states(), 0.4, FAST_OPTS)
        assert calls == list(range(FAST_OPTS.restarts))


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

    def test_single_radius_failure_warned(self, monkeypatch):
        monkeypatch.setattr("nlwe.bound._project_to_radius",
                            lambda psd, r: None)
        with pytest.warns(RuntimeWarning, match="radius 0.4"):
            value = min_distance_at_radius(bell_states(), 0.4, FAST_OPTS)
        assert value == 0.0

    def test_none_on_healthy_run(self):
        res = error_lower_bound(two_qubit_demo(), FAST_OPTS)
        assert res.diagnostics["failed_radii"] == 0
        assert res.diagnostics["warnings"] == []
