"""Lower bound on the LOCC discrimination error for orthogonal state sets.

The bound is half the square of the largest achievable value, over radii R,
of the minimum scaled Frobenius distance between the projected operator
``Pi Q Pi`` and the zonotope spanned by the state projectors, where Q ranges
over positive semidefinite product operators at distance R from the
identity. The inner minimization is nonconvex; it is attacked by multi-start
local descent with a quadratic distance penalty, so the reported values are
best-effort estimates (upper estimates of each inner minimum) rather than
certificates. Restarts stop early at radii that provably cannot hold the
maximum, which leaves the bound unchanged. Diagnostics on restarts,
convergence, pruned and failed radii accompany the result.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy import optimize as sciopt

from .families import StateSet

# Below this projected trace the scaled distance is defined as zero, which
# can only lower the reported bound, never overstate it.
TRACE_FLOOR = 1e-12


def _kron_all(mats) -> np.ndarray:
    return reduce(np.kron, mats)


@dataclass(frozen=True)
class ProductOperator:
    """PSD product operator assembled from per-party factors as kron(L^dag L).

    Factors may be rectangular; a (1, d) factor yields a rank-1 local part.
    """

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(np.atleast_2d(np.asarray(f, dtype=complex))
                     for f in self.factors)
        if not mats:
            raise ValueError("need at least one factor")
        for f in mats:
            if not np.all(np.isfinite(f)):
                raise ValueError("factor has non-finite entries")
            f.setflags(write=False)
        object.__setattr__(self, "factors", mats)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[1] for f in self.factors)

    @classmethod
    def identity(cls, dims) -> "ProductOperator":
        return cls(tuple(np.eye(int(d)) for d in dims))

    def psd_factors(self) -> list[np.ndarray]:
        return [f.conj().T @ f for f in self.factors]

    def matrix(self) -> np.ndarray:
        return _kron_all(self.psd_factors())


def _materialize(q) -> np.ndarray:
    if isinstance(q, ProductOperator):
        return q.matrix()
    arr = np.asarray(q, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("operator must be a square matrix")
    return arr


def discrimination_operator(s: StateSet) -> np.ndarray:
    """Sum of the state projectors weighted by sqrt of the priors.

    The result is Hermitian positive semidefinite with unit squared norm, and
    sandwiching a state projector between two copies rescales it by its prior.
    """
    v = s.global_matrix()
    w = np.sqrt(s.priors)
    return (v.T * w) @ v.conj()


def nearest_zonotope_point(q, s: StateSet) -> np.ndarray:
    """Zonotope element closest to the projected operator.

    The minimizer over sums of state projectors with coefficients in [0, 1]
    is coordinatewise: the prior-weighted diagonal expectation values,
    clamped into [0, 1].
    """
    qmat = _materialize(q)
    v = s.global_matrix()
    coeff = s.priors * np.einsum("md,de,me->m", v.conj(), qmat, v).real
    coeff = np.clip(coeff, 0.0, 1.0)
    return (v.T * coeff) @ v.conj()


def distance_from_identity(q) -> float:
    """Frobenius distance of the trace-normalized operator from I/D."""
    qmat = _materialize(q)
    t = qmat.trace().real
    if t < TRACE_FLOOR:
        raise ValueError("operator trace is not positive")
    d = qmat.shape[0]
    return float(np.linalg.norm(qmat / t - np.eye(d) / d))


def max_radius(total_dim: int) -> float:
    """Largest distance from the identity, attained by rank-1 operators."""
    return math.sqrt((total_dim - 1) / total_dim)


def zonotope_distance(q, s: StateSet) -> float:
    """Scaled distance of the projected operator from the zonotope.

    Because the coefficient box rescales freely with the operator, the
    relevant minimum is taken over the nonnegative coefficient cone; for a
    positive semidefinite input this removes exactly the diagonal part in
    the state basis, making the distance exactly invariant under rescaling.
    Degenerate inputs whose projected trace vanishes get distance zero.
    """
    found = _BoundProblem(s).residual(_materialize(q))
    if found is None:
        warnings.warn("operator has no overlap with the states; "
                      "distance defined as 0", RuntimeWarning, stacklevel=2)
        return 0.0
    m, t = found
    return float(np.linalg.norm(m) / t)


def quadratic_over_linear_gap(terms) -> float:
    """Slack in the bound sum(|M|^2/t) >= |sum(M)|^2 / sum(t).

    Takes (matrix, positive weight) pairs; the result is nonnegative for any
    matrices, by the same expansion that makes |a|^2/s + |b|^2/t >=
    |a + b|^2/(s + t) for positive s, t.
    """
    mats, weights = [], []
    for m, t in terms:
        t = float(t)
        if t <= 0:
            raise ValueError("weights must be positive")
        mats.append(np.asarray(m, dtype=complex))
        weights.append(t)
    if not mats:
        raise ValueError("need at least one term")
    lhs = sum(np.linalg.norm(m) ** 2 / t for m, t in zip(mats, weights))
    rhs = np.linalg.norm(sum(mats)) ** 2 / sum(weights)
    return float(lhs - rhs)


def segment_distance_inequality(q_p: ProductOperator, q_s: ProductOperator,
                                y: float, s: StateSet,
                                tol: float = 1e-9) -> bool:
    """Interpolation bound for the scaled zonotope distance.

    For operators differing in a single party's factor, the mixture at
    parameter y in [0, 1] satisfies
    (trace * distance)(mix) <= (1-y) (trace * distance)(p) + y (...)(s),
    all traces taken after projection. Returns True when the inequality
    holds within ``tol``.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError("y must lie in [0, 1]")
    if q_p.dims != q_s.dims:
        raise ValueError("operators act on different spaces")
    differing = sum(
        not (a.shape == b.shape and np.allclose(a, b))
        for a, b in zip(q_p.psd_factors(), q_s.psd_factors())
    )
    if differing > 1:
        raise ValueError("operators must share all but one party's factor")
    pi = discrimination_operator(s)
    qp, qs = q_p.matrix(), q_s.matrix()
    qy = (1.0 - y) * qp + y * qs

    def scaled(qmat):
        t = (pi @ qmat @ pi).trace().real
        return t * zonotope_distance(qmat, s)

    lhs = scaled(qy)
    rhs = (1.0 - y) * scaled(qp) + y * scaled(qs)
    return lhs <= rhs + tol


# ---------------------------------------------------------------------------
# Optimization of the radius-constrained minimum distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the multi-start penalty optimizer; defaults are reproducible."""

    r_steps: int = 21
    restarts: int = 32
    seed: int = 0
    penalty_stages: int = 3
    penalty_base: float = 10.0
    max_iters: int = 300
    tol: float = 1e-14
    refine_levels: int = 2
    refine_points: int = 5
    sigma_min: float = 0.05
    sigma_max: float = 1.0

    def __post_init__(self):
        checks = (
            (self.restarts >= 1, "restarts must be at least 1"),
            (self.r_steps >= 1, "r_steps must be at least 1"),
            (self.seed >= 0, "seed must be nonnegative"),
            (self.penalty_stages >= 1, "penalty_stages must be at least 1"),
            (self.max_iters >= 1, "max_iters must be at least 1"),
            (self.tol > 0, "tol must be positive"),
            (self.penalty_base > 0, "penalty_base must be positive"),
            (self.refine_levels >= 0, "refine_levels must be nonnegative"),
            (self.refine_points >= 1, "refine_points must be at least 1"),
            (0 <= self.sigma_min <= self.sigma_max,
             "need 0 <= sigma_min <= sigma_max"),
        )
        problems = [message for ok, message in checks if not ok]
        if problems:
            raise ValueError("invalid optimizer options: "
                             + "; ".join(problems))


@dataclass(frozen=True)
class BoundResult:
    """Distance curve over the radius grid and the resulting error bound.

    ``delta_r`` holds the best distance found at each radius. Where
    ``diagnostics["pruned"]`` is true, the radius stopped restarting once its
    running minimum fell below a finished radius's value, so its entry is an
    upper estimate of what all restarts would give, still strictly below
    ``diagnostics["max_delta"]``. ``restarts_total``, ``projected_total`` and
    ``converged_fraction`` count the restarts actually run;
    ``failed_radii`` counts radii where no restart reached a feasible point,
    which report 0.
    """

    r_grid: tuple[float, ...]
    delta_r: tuple[float, ...]
    p_err_lower: float
    diagnostics: dict

    def to_dict(self) -> dict:
        return {
            "r_grid": list(self.r_grid),
            "delta_r": list(self.delta_r),
            "p_err_lower": self.p_err_lower,
            "diagnostics": self.diagnostics,
        }


class _BoundProblem:
    """Precomputed state data plus objective/gradient evaluators."""

    def __init__(self, s: StateSet):
        self.dims = s.dims
        self.total = s.total_dim
        self.v = s.global_matrix()
        self.pi = discrimination_operator(s)
        self.pi2 = self.pi @ self.pi
        self.eye = np.eye(self.total)

    def residual(self, qmat: np.ndarray):
        """``Pi Q Pi`` minus its nearest point of the coefficient cone, and
        the projected trace; None when that trace is below TRACE_FLOOR."""
        qhat = self.pi @ qmat @ self.pi
        t = qhat.trace().real
        if t < TRACE_FLOOR:
            return None
        coeff = np.maximum(
            np.einsum("md,de,me->m", self.v.conj(), qhat, self.v).real, 0.0
        )
        return qhat - (self.v.T * coeff) @ self.v.conj(), t

    # -- scalar evaluations -------------------------------------------------

    def delta_dense(self, qmat: np.ndarray) -> float:
        found = self.residual(qmat)
        if found is None:
            return 0.0
        m, t = found
        return float(np.linalg.norm(m) / t)

    # -- gradients with respect to the dense operator -----------------------

    def delta_sq_grad(self, qmat: np.ndarray):
        """Value and Hermitian gradient matrix of the squared distance.

        The nearest zonotope point is locally constant in the operator
        (envelope property of the coordinatewise minimizer), so it is held
        fixed under differentiation.
        """
        found = self.residual(qmat)
        if found is None:
            return 0.0, np.zeros_like(qmat)
        m, t = found
        num = np.vdot(m, m).real
        value = num / t**2
        grad = (2.0 / t**2) * (self.pi @ m @ self.pi) \
            - (2.0 * num / t**3) * self.pi2
        return value, grad

    def rsq_grad(self, qmat: np.ndarray):
        """Value and gradient of the squared distance from the identity."""
        t = qmat.trace().real
        nsq = np.vdot(qmat, qmat).real
        value = nsq / t**2 - 1.0 / self.total
        grad = (2.0 / t**2) * qmat - (2.0 * nsq / t**3) * self.eye
        return value, grad


def _pack(factors) -> np.ndarray:
    return np.concatenate(
        [np.concatenate([f.real.ravel(), f.imag.ravel()]) for f in factors]
    )


def _unpack(x: np.ndarray, shapes) -> list[np.ndarray]:
    out, pos = [], 0
    for shape in shapes:
        size = shape[0] * shape[1]
        re = x[pos:pos + size].reshape(shape)
        im = x[pos + size:pos + 2 * size].reshape(shape)
        out.append(re + 1j * im)
        pos += 2 * size
    return out


def _factor_gradients(grad_q: np.ndarray, psd: list[np.ndarray]):
    """Pull a Hermitian operator-space gradient back onto each party.

    Returns per-party matrices C with df = Tr(C dA) for that party's local
    part A, contracting the other parties with their current local parts.
    """
    parts = len(psd)
    dims = [a.shape[0] for a in psd]
    tens = grad_q.reshape(*dims, *dims)
    letters = "abcdefghijkl"
    out = []
    for alpha in range(parts):
        scripts = [letters[:parts] + letters[parts:2 * parts]]
        operands = [tens]
        for beta in range(parts):
            if beta == alpha:
                continue
            scripts.append(letters[parts + beta] + letters[beta])
            operands.append(psd[beta])
        target = letters[alpha] + letters[parts + alpha]
        out.append(np.einsum(",".join(scripts) + "->" + target, *operands))
    return out


def _objective(x, problem: _BoundProblem, shapes, weight, rsq_target):
    """Penalized squared distance and its gradient in factor parameters."""
    factors = _unpack(x, shapes)
    psd = [f.conj().T @ f for f in factors]
    qmat = _kron_all(psd)
    value, grad_q = problem.delta_sq_grad(qmat)
    if weight:
        rsq, grad_r = problem.rsq_grad(qmat)
        gap = rsq - rsq_target
        value = value + weight * gap * gap
        grad_q = grad_q + (2.0 * weight * gap) * grad_r
    per_party = _factor_gradients(grad_q, psd)
    pieces = []
    for f, c in zip(factors, per_party):
        w = f @ c
        pieces.append(np.concatenate([2.0 * w.real.ravel(), 2.0 * w.imag.ravel()]))
    return value, np.concatenate(pieces)


def _rescale_factors(factors):
    """Fix the per-party scale gauge to unit mean eigenvalue."""
    out = []
    for f in factors:
        a_trace = np.vdot(f, f).real  # Tr(L^dag L)
        d = f.shape[1]
        out.append(f * math.sqrt(d / a_trace) if a_trace > 0 else f)
    return out


def _project_to_radius(psd, r_target: float):
    """Exactly feasible PSD product operator at the requested radius.

    Moves every local part along the segment A(t) = c I + t (A - c I)
    toward its trace-matched identity (outward beyond the input where PSD
    permits). Local traces stay c d, so D R(t)^2 = prod(1 + t^2 v) - 1 with
    v = |A - c I|^2 / (c^2 d), increasing in t; its root needs no dense
    operator. Returns the local parts, or None when the radius is out of
    reach along this curve.
    """
    dims = [a.shape[0] for a in psd]
    centers = [a.trace().real / d for a, d in zip(psd, dims)]
    if any(c <= 0 for c in centers):
        return None

    t_max = math.inf
    for a, c in zip(psd, centers):
        lam_min = float(np.linalg.eigvalsh(a)[0])
        if lam_min < c:
            t_max = min(t_max, c / (c - lam_min))
    if not math.isfinite(t_max):
        t_max = 1.0  # every factor proportional to identity

    # Computed from A - c I, not as |A|^2 / (c^2 d) - 1, which cancels when
    # a descent ends near a multiple of the identity.
    shifts = [a - c * np.eye(d) for a, c, d in zip(psd, centers, dims)]
    v = [np.vdot(m, m).real / (c * c * d)
         for m, c, d in zip(shifts, centers, dims)]
    target = 1.0 + math.prod(dims) * r_target * r_target

    def gap(t):
        return math.prod(1.0 + t * t * w for w in v) - target

    t_hi = t_max * (1.0 - 1e-9)
    if gap(t_hi) < 0:
        return None
    t_star = sciopt.brentq(gap, 0.0, t_hi, xtol=1e-14)
    return [c * np.eye(d) + t_star * m
            for m, c, d in zip(shifts, centers, dims)]


def _restart(problem: _BoundProblem, r_target: float,
             opts: OptimizerOptions, seed_key: tuple, k: int):
    """Run restart ``k`` at one radius: (scaled distance or None, converged).

    None means the descent ended at a point that could not be projected onto
    the radius. Each (seed key, restart) pair has its own seed stream, so a
    restart returns the same value whatever else runs before it.
    """
    if r_target < 1e-14:
        # Only multiples of the identity sit at radius zero.
        return 0.0, True
    rank_one = abs(r_target - max_radius(problem.total)) < 1e-12
    shapes = [(1, d) if rank_one else (d, d) for d in problem.dims]
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=opts.seed, spawn_key=(*seed_key, k))
    )
    if opts.restarts > 1:
        sigma = opts.sigma_min + (opts.sigma_max - opts.sigma_min) * (
            k / (opts.restarts - 1)
        )
    else:
        sigma = opts.sigma_min
    factors = []
    for shape in shapes:
        noise = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if rank_one:
            factors.append(noise)
        else:
            factors.append(np.eye(shape[0]) + sigma * noise)
    x = _pack(_rescale_factors(factors))
    if rank_one:
        # Rank-1 product operators all sit exactly at the maximal radius, so
        # one unpenalized descent needs no projection.
        stages, weight = 1, 0.0
    else:
        stages, weight = opts.penalty_stages, opts.penalty_base
    converged = True
    rsq_target = r_target * r_target
    for _ in range(stages):
        res = sciopt.minimize(
            _objective, x, args=(problem, shapes, weight, rsq_target),
            jac=True, method="L-BFGS-B",
            options={"maxiter": opts.max_iters, "ftol": opts.tol,
                     "gtol": 1e-12},
        )
        converged = converged and bool(res.success)
        x = _pack(_rescale_factors(_unpack(res.x, shapes)))
        weight *= 10.0
    psd = [f.conj().T @ f for f in _unpack(x, shapes)]
    if not rank_one:
        psd = _project_to_radius(psd, r_target)
        if psd is None:
            return None, converged
    return problem.delta_dense(_kron_all(psd)), converged


@dataclass
class _RadiusRun:
    """Running state of the restarts at one radius."""

    radius: float
    key: tuple
    best: float = math.inf
    restarts: int = 0
    converged: int = 0
    projected: int = 0
    pruned: bool = False

    @property
    def failed(self) -> bool:
        return not math.isfinite(self.best)

    @property
    def value(self) -> float:
        # A radius where no restart reached a feasible point reports the
        # trivial value 0, which can only lower the bound.
        return 0.0 if self.failed else self.best


def _sweep(problem: _BoundProblem, batch, opts: OptimizerOptions,
           floor: float = -math.inf):
    """Best-first restarts over a batch of (radius, seed key) pairs.

    Every radius is probed with restart 0; the radii then finish in
    decreasing order of their probe value. A radius stops early once its
    running minimum drops strictly below ``floor``, the largest final value
    among radii that ran all their restarts: its own minimum is then below
    the maximum, so it cannot be the argmax. Returns the runs in batch order
    and the updated floor.
    """
    runs = [_RadiusRun(float(r), key) for r, key in batch]

    def step(run):
        value, converged = _restart(problem, run.radius, opts, run.key,
                                    run.restarts)
        run.restarts += 1
        if value is None:
            return
        run.projected += 1
        run.converged += int(converged)
        if value < run.best:
            run.best = value

    for run in runs:
        step(run)
    for run in sorted(runs, key=lambda run: run.best, reverse=True):
        while run.restarts < opts.restarts:
            if run.best < floor:
                run.pruned = True
                break
            step(run)
        else:
            floor = max(floor, run.value)
    return runs, floor


def min_distance_at_radius(s: StateSet, radius: float,
                           opts: OptimizerOptions | None = None) -> float:
    """Best found scaled zonotope distance over product operators at a radius.

    Deterministic for a fixed seed. The optimizer is local, so the value is
    an upper estimate of the true minimum. A single radius is never pruned,
    so every restart runs. When no restart reaches a feasible point, a
    RuntimeWarning names the radius and the result is 0.
    """
    opts = opts or OptimizerOptions()
    problem = _BoundProblem(s)
    rmax = max_radius(problem.total)
    if not -1e-12 <= radius <= rmax + 1e-12:
        raise ValueError(f"radius {radius!r} outside [0, {rmax}]")
    (run,), _ = _sweep(problem, [(float(radius), (0,))], opts)
    if run.failed:
        warnings.warn(f"no restart reached a feasible point at radius "
                      f"{radius!r}; distance reported as 0", RuntimeWarning,
                      stacklevel=2)
    return run.value


def error_lower_bound(s: StateSet,
                      opts: OptimizerOptions | None = None) -> BoundResult:
    """Sweep the radius grid and report half the squared best distance.

    The grid is refined around the running maximum; all randomness derives
    from the seed, so repeated runs are identical.

    Each batch of radii (the initial grid, then the fresh radii of one
    refinement level) runs best-first, and a radius stops restarting once
    its running minimum falls strictly below the largest final value of a
    radius that ran all its restarts (see ``_sweep``). A pruned radius can
    never be the argmax, so ``p_err_lower``, the argmax and the refinement
    radii are those of a sweep that runs every restart everywhere; only the
    pruned radii's ``delta_r`` differ, being upper estimates that still lie
    below ``max_delta``.
    """
    opts = opts or OptimizerOptions()
    problem = _BoundProblem(s)
    rmax = max_radius(problem.total)
    grid = list(np.linspace(0.0, rmax, opts.r_steps))
    runs: dict[float, _RadiusRun] = {}
    floor = -math.inf

    def run_batch(batch):
        nonlocal floor
        done, floor = _sweep(problem, batch, opts, floor)
        for run in done:  # batch order keeps max() tie-breaking stable
            runs[run.radius] = run

    def value(radius):
        return runs[radius].value

    run_batch([(r, (0, i)) for i, r in enumerate(grid)])
    spacing = rmax / (opts.r_steps - 1) if opts.r_steps > 1 else rmax
    for level in range(1, opts.refine_levels + 1):
        best_r = max(runs, key=value)
        lo = max(0.0, best_r - spacing)
        hi = min(rmax, best_r + spacing)
        fresh = [
            r for r in np.linspace(lo, hi, opts.refine_points)
            if all(abs(r - seen) > 1e-12 for seen in runs)
        ]
        run_batch([(float(r), (level, j)) for j, r in enumerate(fresh)])
        spacing /= 2.0

    radii = tuple(sorted(runs))
    deltas = tuple(value(r) for r in radii)
    best_r = max(runs, key=value)
    best_delta = value(best_r)
    restarts = sum(run.restarts for run in runs.values())
    converged_fraction = (
        sum(run.converged for run in runs.values()) / restarts
        if restarts else 1.0
    )
    failed = sum(run.failed for run in runs.values())
    warns = []
    if converged_fraction <= 0.5:
        warns.append("more than half of the restarts did not report "
                     "convergence")
    if failed:
        warns.append(f"{failed} of {len(radii)} radii reached no feasible "
                     "point in any restart and report 0")
    diagnostics = {
        "argmax_r": best_r,
        "max_delta": best_delta,
        "restarts_total": restarts,
        "converged_fraction": converged_fraction,
        "projected_total": sum(run.projected for run in runs.values()),
        "pruned": [runs[r].pruned for r in radii],
        "failed_radii": failed,
        "warnings": warns,
    }
    return BoundResult(
        r_grid=radii,
        delta_r=deltas,
        p_err_lower=0.5 * best_delta**2,
        diagnostics=diagnostics,
    )
