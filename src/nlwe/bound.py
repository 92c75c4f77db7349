"""Lower bound on the LOCC discrimination error for orthogonal state sets.

The bound is half the square of the largest achievable value, over radii R,
of the minimum scaled Frobenius distance between the projected operator
``Pi Q Pi`` and the zonotope spanned by the state projectors, where Q ranges
over positive semidefinite product operators at distance R from the
identity. In the basis of the N orthonormal members, ``Pi Q Pi`` is an
N x N matrix built from local parts alone: for a product set it is the
entrywise product of the parties' N x N matrices, so no D x D operator is
formed. Its diagonal is nonnegative, as Q is PSD, and is the nearest point
of the coefficient cone, so the distance is the norm of the off-diagonal
part over the trace. One kernel evaluates a stack of points, all parties
at once, stacked and zero-padded to the largest local dimension. The inner
minimization is nonconvex; it is attacked by multi-start local descent with
a quadratic distance penalty, so the reported values are best-effort
estimates (upper estimates of each inner minimum) rather than
certificates. Descents are coroutines, and independent ones run in
lockstep rounds, one kernel call per round: the probes of a sweep, the
restarts of its first radius to finish, and every later radius's restarts
in batches of 1, 2, 4, ... Restarts stop early at radii that provably
cannot hold the maximum. A descent also stops once its penalized distance
falls below the largest value its sweep has seen, checked at every
evaluation: its point is placed and measured, and its descent is held, so a
radius that needs that restart settled resumes it where it stopped. Only a
pruned radius can report a stopped value, and a radius closes its held
descents once it is pruned or finished. A stopped restart counts as
converged. Pruning never makes a radius the argmax, so within a batch of
radii the maximum is that of running every restart everywhere, or lower
where a stopped point prunes a radius whose full restarts all end above
the floor: that point, at the radius, shows their value to overstate its
minimum. Diagnostics on restarts, convergence, pruned and failed radii
accompany the result.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .families import StateSet, is_plain_int

# Below this projected trace the scaled distance is defined as zero, which
# can only lower the reported bound, never overstate it.
TRACE_FLOOR = 1e-12


def distance_from_identity(q) -> float:
    """Frobenius distance of the trace-normalized operator from I/D."""
    qmat = np.asarray(q, dtype=complex)
    if qmat.ndim != 2 or qmat.shape[0] != qmat.shape[1]:
        raise ValueError("operator must be a square matrix")
    t = qmat.trace().real
    if t < TRACE_FLOOR:
        raise ValueError("operator trace is not positive")
    d = qmat.shape[0]
    return float(np.linalg.norm(qmat / t - np.eye(d) / d))


def max_radius(total_dim: int) -> float:
    """Largest distance from the identity, attained by rank-1 operators."""
    return math.sqrt((total_dim - 1) / total_dim)


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
        problems = []
        for name, low in (("restarts", 1), ("r_steps", 1), ("seed", 0),
                          ("penalty_stages", 1), ("max_iters", 1),
                          ("refine_levels", 0), ("refine_points", 1)):
            value = getattr(self, name)
            if not is_plain_int(value):
                problems.append(f"{name} must be an int, got {value!r}")
            elif value < low:
                problems.append(f"{name} must be "
                                + ("nonnegative" if low == 0 else "at least 1"))
        checks = (
            (0 < self.tol < math.inf, "tol must be finite and positive"),
            (0 < self.penalty_base < math.inf,
             "penalty_base must be finite and positive"),
            (0 <= self.sigma_min <= self.sigma_max < math.inf,
             "need 0 <= sigma_min <= sigma_max, sigma_max finite"),
        )
        problems += [message for ok, message in checks if not ok]
        if problems:
            raise ValueError("invalid optimizer options: "
                             + "; ".join(problems))


@dataclass(frozen=True)
class BoundResult:
    """Distance curve over the radius grid and the resulting error bound.

    ``delta_r`` holds the best distance found at each radius. Where
    ``diagnostics["pruned"]`` is true, the radius stopped restarting once its
    running minimum fell below a finished radius's value. Its entry then
    comes from fewer restarts, and can be the value of a descent stopped
    once it fell below the largest value seen at one of its evaluations,
    which in a lockstep round can be a value another radius reached in that
    round (see ``_sweep``). It is the distance of a point at that radius, so
    still an upper estimate of the radius's minimum, and strictly below
    ``diagnostics["max_delta"]``. Every other entry is the best of all the
    radius's restarts run to the end. Every distance is the root of the
    descents' own kernel at weight 0, at the placed point.
    ``restarts_total`` counts the restarts actually run and
    ``projected_total`` those placed at their radius, so the difference
    counts unplaced restarts. ``converged_fraction`` is the share of every
    restart run, placed or not, whose L-BFGS stages (``_descent``) converged,
    a stopped one counting as converged. ``failed_radii`` counts radii where
    no restart reached a feasible point, which report 0.
    """

    r_grid: tuple[float, ...]
    delta_r: tuple[float, ...]
    p_err_lower: float
    diagnostics: dict

    def to_dict(self) -> dict:
        return asdict(self)


class _BoundProblem:
    """The distance kernel's data in the member basis, from local parts.

    Members are combinations of product kets ("atoms"), one stack X_a per
    party: a product set's members scaled by w = sqrt(p), else the
    computational basis. For Q = kron(A_a) the atoms' matrix H is the
    entrywise product of the local conj(X_a) A_a X_a^T. ``Pi Q Pi`` in the
    member basis is H for a product set, conj(C) H C^T with C = diag(w) V
    otherwise.

    The parties are stacked on a leading axis, zero-padded to width W:
    ``ket`` (P, W, N) holds X_a^T and ``bra`` (P, N, W) conj(X_a); ``slots``
    maps the factors' shapes, full (d, d) or rank-one (1, d), to a (P, R, W)
    stack's shape and the entries they fill in it, viewed as floats, which
    is the order of ``_pack``.
    """

    def __init__(self, s: StateSet):
        self.dims = s.dims
        self.total = s.total_dim
        w = np.sqrt(s.priors)[:, None]
        if s.all_product:
            atoms = [s.local_matrix(a) for a in range(s.parties)]
            atoms[0] = w * atoms[0]  # one party carries the weights
            self.coeff = None
        else:
            index = np.unravel_index(np.arange(self.total), self.dims)
            atoms = [np.eye(d)[i] for d, i in zip(self.dims, index)]
            c = w * s.global_matrix()
            # M -> left M right pulls a gradient G back as right G left.
            self.coeff = (c.conj(), c.T)
        self.ket = np.zeros((s.parties, max(s.dims), len(atoms[0])), complex)
        for a, x in enumerate(atoms):
            self.ket[a, :x.shape[1]] = x.T
        self.slots = {}
        for rows in (self.dims, (1,) * s.parties):
            mask = np.zeros((s.parties, max(rows), max(self.dims)), bool)
            for a, (r, d) in enumerate(zip(rows, self.dims)):
                mask[a, :r, :d] = True
            self.slots[tuple(zip(rows, self.dims))] = (
                mask.shape, np.flatnonzero(np.repeat(mask.ravel(), 2)))
        self.bra = np.ascontiguousarray(self.ket.conj().transpose(0, 2, 1))
        # Points per kernel call: past about 2^14 entries of the parties' N x N
        # stacks, a larger stack costs more per point, not less.
        self.batch = max(1, 2**14 // (s.parties * len(atoms[0]) ** 2))
        self.off_diagonal = 1.0 - np.eye(s.n_states)
        # Row a lists the other parties: a + 1, ..., a + P - 1 (mod P).
        self.others = (np.arange(s.parties)[:, None]
                       + np.arange(1, s.parties)) % s.parties

    def members(self, h):
        """``Pi Q Pi`` in the member basis from the atoms' matrix H."""
        return h if self.coeff is None else self.coeff[0] @ h @ self.coeff[1]


def _pack(factors) -> np.ndarray:
    """The complex factors, concatenated, as floats (re/im interleaved)."""
    return np.concatenate([np.ravel(f) for f in factors],
                          dtype=complex).view(float)


def _unpack(x: np.ndarray, shapes) -> list[np.ndarray]:
    z = np.asarray(x, dtype=float).view(complex)
    ends = np.cumsum([r * d for r, d in shapes])
    return [z[e - r * d:e].reshape(r, d) for (r, d), e in zip(shapes, ends)]


def _objective(x, problem: _BoundProblem, shapes, weight, rsq_target):
    """Penalized squared distances and their gradients for a stack of points.

    x is (B, n), with ``weight`` and ``rsq_target`` per row or shared; a
    single point (n,) gives a value and an (n,) gradient. One pass over the
    padded factor stacks L, with no loop over points or parties: |m|^2 / t^2,
    m the off-diagonal part of ``Pi Q Pi`` and t its trace (0 below
    TRACE_FLOOR), plus weight * (R^2 - rsq_target)^2, R^2 = prod |A_a|^2 /
    prod Tr(A_a)^2 - 1/D. Gradients G satisfy df = Re sum(conj(G) * dX).
    """
    x = np.asarray(x, dtype=float)
    rows = x.reshape(-1, x.shape[-1])
    shape, slots = problem.slots[tuple(shapes)]
    f = np.zeros((len(rows),) + shape, complex)
    f.view(float).reshape(len(rows), -1)[:, slots] = rows
    y = f @ problem.ket  # Y_a = L_a X_a^T, so local_a = Y_a^dag Y_a
    local = y.conj().swapaxes(2, 3) @ y
    p = problem.members(local.prod(axis=1))
    # Per-row scalars are kept as (B, 1, 1). An infinite trace makes a row
    # below the floor read 0, with no gradient.
    t = p.trace(axis1=1, axis2=2).real[:, None, None]
    t[t < TRACE_FLOOR] = np.inf
    m = p * problem.off_diagonal
    flat = m.reshape(len(m), 1, -1)  # |m|^2 as a product, rounded as vdot
    t2 = t * t
    value = (flat.conj() @ flat.swapaxes(1, 2)).real / t2
    # g is twice the gradient in p: the factor 2 of the gradient in L
    # (below) folded in, which is exact.
    g = (4.0 / t2) * m
    g.reshape(len(g), -1)[:, ::g.shape[-1] + 1] = (-4.0 * value / t)[:, 0]
    if problem.coeff is not None:
        g = problem.coeff[1] @ g @ problem.coeff[0]
    # local_a's gradient is g * O_a^T, O_a the other parties' product.
    others = local[:, problem.others].prod(axis=2)
    # dA = dL^dag L + L^dag dL, so the gradient in L is 2 L G.
    grad = y @ (g[:, None] * others.swapaxes(2, 3)) @ problem.bra
    weight = np.asarray(weight)
    if weight.any():
        weight = weight[..., None, None]
        # With B = L L^dag: |A|^2 = |B|^2 and Tr A = |L|^2 = Tr B.
        b = f @ f.conj().swapaxes(2, 3)
        bf = b @ f
        norms = (f.conj() * bf).real.sum(axis=(2, 3), keepdims=True)
        traces = b.trace(axis1=2, axis2=3).real[..., None, None]
        ratio = norms.prod(axis=1) / traces.prod(axis=1) ** 2
        gap = (ratio - 1.0 / problem.total
               - np.asarray(rsq_target)[..., None, None])
        wgap = weight * gap
        value = value + wgap * gap
        grad += (8.0 * wgap * ratio)[:, None] * (bf / norms - f / traces)
    grad = grad.view(float).reshape(len(f), -1).take(slots, axis=1)
    value = value[:, 0, 0]
    return (value[0], grad[0]) if x.ndim == 1 else (value, grad)


def _rescale_factors(factors):
    """Fix the per-party scale gauge to unit mean eigenvalue."""
    out = []
    for f in factors:
        a_trace = np.vdot(f, f).real  # Tr(L^dag L)
        d = f.shape[1]
        out.append(f * math.sqrt(d / a_trace) if a_trace > 0 else f)
    return out


_EPS = float(np.finfo(float).eps)


def _project_to_radius(psd, r_target: float):
    """Exactly feasible PSD product operator at the requested radius.

    Moves every local part along the segment A(t) = c I + t (A - c I)
    toward its trace-matched identity (outward beyond the input where PSD
    permits). Local traces stay c d, so D R(t)^2 = prod(1 + t^2 v) - 1 with
    v = |A - c I|^2 / (c^2 d), increasing in t; its root, found by
    bisection, needs no dense operator. Returns the local parts, or None
    when the radius is out of reach along this curve.
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
    # a descent ends near a multiple of the identity. The shift's rounding
    # trace is removed, or a large root would stretch it into the trace.
    shifts = [a - c * np.eye(d) for a, c, d in zip(psd, centers, dims)]
    shifts = [m - np.trace(m) / d * np.eye(d) for m, d in zip(shifts, dims)]
    v = [np.vdot(m, m).real / (c * c * d)
         for m, c, d in zip(shifts, centers, dims)]
    target = 1.0 + math.prod(dims) * r_target * r_target

    def gap(t):
        return math.prod(1.0 + t * t * w for w in v) - target

    lo, hi = 0.0, t_max * (1.0 - 1e-9)
    if gap(hi) < 0:
        return None
    # gap(0) <= 0 <= gap(hi) and gap increases, so halving keeps the root
    # bracketed; stop at an absolute 1e-14 plus a few ulps of t.
    while hi - lo > 1e-14 + 4 * _EPS * hi:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    t_star = 0.5 * (lo + hi)
    return [c * np.eye(d) + t_star * m
            for m, c, d in zip(shifts, centers, dims)]


# L-BFGS as L-BFGS-B runs without bounds (Byrd, Lu, Nocedal and Zhu, SIAM J.
# Sci. Comput. 16, 1995): a memory of 10 pairs, a Moré-Thuente line search
# (ACM TOMS 20, 1994) with these tolerances and at most 20 evaluations, the
# first step capped at 1e10, and a gradient-norm stop.
_MEMORY = 10
_SEARCH_FTOL, _SEARCH_GTOL, _SEARCH_XTOL = 1e-3, 0.9, 0.1
_SEARCH_EVALS = 20
_STEP_MAX = 1e10
_GRAD_TOL = 1e-12


def _cubic_gamma(theta, a, b):
    """sqrt(theta^2 - a b), scaled against overflow and clamped at 0."""
    s = max(abs(theta), abs(a), abs(b))
    if s == 0:
        return 0.0
    return s * math.sqrt(max(0.0, (theta / s) ** 2 - (a / s) * (b / s)))


def _safeguarded_step(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt,
                      stpmin, stpmax):
    """MINPACK-2 dcstep: the next trial step and the updated interval.

    (stx, fx, dx) is the best step so far, (sty, fy, dy) the other end of
    the interval and (stp, fp, dp) the step just tried. Returns stx, fx, dx,
    sty, fy, dy, the new trial step and whether a minimizer is bracketed.
    """
    opposite = (dp > 0 > dx) or (dp < 0 < dx)
    if fp > fx:
        # Higher value: the minimizer is bracketed. Take the cubic step,
        # or the mean of the cubic and quadratic steps if the cubic is
        # farther from stx.
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp)
        if stp < stx:
            gamma = -gamma
        r = ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp)
        stpc = stx + r * (stp - stx)
        stpq = stx + (dx / ((fx - fp) / (stp - stx) + dx)) / 2.0 * (stp - stx)
        if abs(stpc - stx) <= abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:
        # Derivatives of opposite sign: bracketed. Take the cubic step if
        # it is farther from stp than the secant step, else the secant.
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp)
        if stp > stx:
            gamma = -gamma
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx)
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # Same sign, the derivative shrinking in magnitude: the cubic step
        # if its minimum lies beyond stp, else the bound of the interval.
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp)
        if stp > stx:
            gamma = -gamma
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(stpmax, max(stpmin, stpf))
    elif brackt:
        # Same sign, not shrinking, bracketed: the cubic step toward sty.
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        gamma = _cubic_gamma(theta, dy, dp)
        if stp > sty:
            gamma = -gamma
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy)
        stpf = stp + r * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin

    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


def _line_search(x, f, g, d, stp):
    """Moré-Thuente search (MINPACK-2 dcsrch) from x along d, a coroutine.

    Yields each trial point and receives its (value, gradient). Returns
    (step, x, f, g) at the first trial point that meets the strong Wolfe
    conditions or at which the search can make no more progress, or None
    when d is not a descent direction, a trial value or gradient is not
    finite, or 20 trials meet neither. A trial that rounds to the point
    last evaluated reuses its value and gradient.
    """
    ginit = float(g @ d)
    if not ginit < 0:
        return None
    gtest = _SEARCH_FTOL * ginit
    brackt, stage1 = False, True
    width, width1 = _STEP_MAX, 2.0 * _STEP_MAX
    stx = sty = 0.0
    fx = fy = f
    gx = gy = ginit
    stmin, stmax = 0.0, 5.0 * stp
    x_new, f_new, g_new = x, f, g
    for _ in range(_SEARCH_EVALS):
        x_last, x_new = x_new, x + stp * d
        # A step too small to move x repeats the last point, and its value.
        if not (x_new == x_last).all():
            f_new, g_new = yield x_new
        # A non-finite entry of g_new makes the slope non-finite too.
        slope = float(g_new @ d)
        if not (math.isfinite(f_new) and math.isfinite(slope)):
            return None
        ftest = f + stp * gtest
        if stage1 and f_new <= ftest and slope >= 0:
            stage1 = False
        if ((f_new <= ftest and abs(slope) <= _SEARCH_GTOL * -ginit)
                or (brackt and (stp <= stmin or stp >= stmax
                                or stmax - stmin <= _SEARCH_XTOL * stmax))
                or (stp == _STEP_MAX and f_new <= ftest and slope <= gtest)
                or (stp == 0 and (f_new > ftest or slope >= gtest))):
            # Converged, or rounding, the interval width or a step bound
            # prevents progress: either way the trial point is accepted.
            return stp, x_new, f_new, g_new
        try:
            if stage1 and fx >= f_new > ftest:
                # Step on psi(s) = f(s) - f(0) - ftol s f'(0) until some
                # trial point has psi <= 0 and f' >= 0.
                stx, fxm, gxm, sty, fym, gym, stp, brackt = _safeguarded_step(
                    stx, fx - stx * gtest, gx - gtest,
                    sty, fy - sty * gtest, gy - gtest,
                    stp, f_new - stp * gtest, slope - gtest,
                    brackt, stmin, stmax)
                fx, gx = fxm + stx * gtest, gxm + gtest
                fy, gy = fym + sty * gtest, gym + gtest
            else:
                stx, fx, gx, sty, fy, gy, stp, brackt = _safeguarded_step(
                    stx, fx, gx, sty, fy, gy, stp, f_new, slope,
                    brackt, stmin, stmax)
        except ZeroDivisionError:
            return None
        if brackt:
            # Bisect when the interval did not shrink enough in two steps.
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin = stp + 1.1 * (stp - stx)
            stmax = stp + 4.0 * (stp - stx)
        stp = min(_STEP_MAX, max(0.0, stp))
        if brackt and (stp <= stmin or stp >= stmax
                       or stmax - stmin <= _SEARCH_XTOL * stmax):
            stp = stx
    return None


class _Memory:
    """The newest L-BFGS pairs (s, y), oldest first, in the first ``k`` rows
    of ``s`` and ``y``, with ``rinv`` the inverse of R, the upper triangle
    of S Y^T, and ``sy`` its diagonal.

    -H g is the two-loop recursion in compact form (Byrd, Nocedal and
    Schnabel, Math. Program. 63, 1994): its two loops are the triangular
    solves with R and R^T, here products with ``rinv``. A new pair adds a
    column to R, and dropping the oldest keeps the trailing block of
    ``rinv``, so the inverse is never refactored. The arrays are allocated
    once, since these small operations cost less than allocating.
    """

    def __init__(self, n: int):
        self.s = np.empty((_MEMORY, n))
        self.y = np.empty((_MEMORY, n))
        self.rinv = np.zeros((_MEMORY, _MEMORY))
        self.sy = np.empty(_MEMORY)
        self.k = 0
        self.gamma = 1.0  # H0 = gamma I, s'y / y'y of the newest pair

    def direction(self, g):
        """-H g, which is -g with no pairs."""
        k = self.k
        if not k:
            return -g
        s, y, rinv = self.s[:k], self.y[:k], self.rinv[:k, :k]
        alpha = rinv @ (s @ g)
        r = self.gamma * (g - alpha @ y)
        return -(r + ((self.sy[:k] * alpha - y @ r) @ rinv) @ s)

    def add(self, s, y, sy: float, yy: float):
        k = self.k
        if k == _MEMORY:
            for a in (self.s, self.y, self.sy):
                a[:-1] = a[1:]
            self.rinv[:-1, :-1] = self.rinv[1:, 1:]
            self.rinv[-1] = 0.0
            k -= 1
        self.rinv[:k, k] = (self.rinv[:k, :k] @ (self.s[:k] @ y)) / -sy
        self.rinv[k, k] = 1.0 / sy
        self.s[k], self.y[k], self.sy[k] = s, y, sy
        self.k = k + 1
        self.gamma = sy / yy


def _descent(x, max_iters: int, tol: float):
    """L-BFGS from x as a coroutine: yields each trial point, receives its
    (value, gradient) and returns (x, converged).

    The path L-BFGS-B takes with no bounds. The first step is 1/|g| along
    -g, later ones start at 1 along the L-BFGS direction. When a line
    search fails, the previous iterate is kept, the memory is dropped and
    the search is retried along -g; with the memory already empty the
    descent stops unconverged. A pair with s'y <= eps y'y is not stored.
    Converged means max|g| <= 1e-12 or a relative decrease of f of at most
    ``tol``; ``max_iters`` iterations end the descent unconverged. The
    caller may abandon the descent at any trial point.
    """
    f, g = yield x
    if np.abs(g).max() <= _GRAD_TOL:
        return x, True
    memory = _Memory(len(x))
    iters = 0
    while True:
        # L-BFGS-B steps toward the model's minimizer z along d = z - x;
        # forming d the same way keeps its rounding when g is tiny next to x.
        d = (x + memory.direction(g)) - x
        stp = min(1.0 / np.linalg.norm(d), _STEP_MAX) if iters == 0 else 1.0
        found = yield from _line_search(x, f, g, d, stp)
        if found is None:
            if not memory.k:
                return x, False
            memory = _Memory(len(x))
            continue
        stp, x_new, f_new, g_new = found
        iters += 1
        if iters >= max_iters:
            return x_new, False
        if (np.abs(g_new).max() <= _GRAD_TOL
                or f - f_new <= tol * max(abs(f), abs(f_new), 1.0)):
            return x_new, True
        s, y = stp * d, g_new - g
        sy, yy = float(s @ y), float(y @ y)
        if sy > _EPS * yy:
            memory.add(s, y, sy, yy)
        x, f, g = x_new, f_new, g_new


def _restart(problem: _BoundProblem, r_target: float, stop,
             opts: OptimizerOptions, seed_key: tuple, k: int, live=None):
    """Restart ``k`` at one radius, a coroutine for ``_lockstep``: yields
    kernel requests (shapes, point, weight, rsq_target), receives (value,
    gradient) for each, returns (scaled distance or None, converged, resume).

    The end point is placed on the radius (the projected parts' Cholesky
    factors; rank-one factors stay) and measured by one last request with
    weight 0, whose root is the distance. None means the descent ended at a
    point that could not be projected; ``converged`` still reports whether
    its ``_descent`` stages converged. ``stop`` is the cut check, None for
    no cut: it is asked at every descent evaluation, and the descent stops
    at its first point whose penalized objective it accepts. That point is
    then placed and measured like a final one, and the restart reports
    converged, with ``resume`` set; else ``resume`` is None. ``resume`` is
    this coroutine again, with no cut and with ``live``, the live descent:
    its ``_descent`` coroutine, stage, weight and converged flag, and the
    reply to the stopped trial. It continues the descent where it stopped,
    so it returns exactly what the uncut restart returns; closing it frees
    the descent. A stopped point the projection refuses is resumed at once,
    so a stopped result always has a value. Each (seed key, restart) pair
    has its own seed stream, so a restart returns the same value whatever
    else runs before or beside it.
    """
    if r_target < 1e-14:
        # Only multiples of the identity sit at radius zero.
        return 0.0, True, None
    rank_one = abs(r_target - max_radius(problem.total)) < 1e-12
    shapes = tuple((1, d) if rank_one else (d, d) for d in problem.dims)
    # Rank-1 product operators all sit exactly at the maximal radius, so one
    # unpenalized descent needs no projection.
    stages = 1 if rank_one else opts.penalty_stages
    if live is None:
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
        live = (_descent(x, opts.max_iters, opts.tol), 0,
                0.0 if rank_one else opts.penalty_base, True, None)
    # The descent has yet to receive ``reply``, None when it has not started.
    descent, stage, weight, converged, reply = live
    rsq_target = r_target * r_target
    resume = None
    while True:
        try:
            trial = descent.send(reply)
        except StopIteration as done:
            x, ok = done.value
            x = _pack(_rescale_factors(_unpack(x, shapes)))
            converged = converged and ok
            stage += 1
            if stage == stages:
                break
            descent = _descent(x, opts.max_iters, opts.tol)
            weight, reply = 10.0 * weight, None
            continue
        reply = yield shapes, trial, weight, rsq_target
        if stop is not None and stop(reply[0]):
            resume = _restart(problem, r_target, None, opts, seed_key, k,
                              (descent, stage, weight, converged, reply))
            x = _pack(_rescale_factors(_unpack(trial, shapes)))
            converged = True
            break
    if not rank_one:
        psd = _project_to_radius([f.conj().T @ f for f in _unpack(x, shapes)],
                                 r_target)
        if psd is None and resume is not None:
            return (yield from resume)
        if psd is None:
            return None, converged, None
        # Each part is positive definite (t stops short of t_max): A = L^dag L.
        x = _pack([np.linalg.cholesky(a).conj().T for a in psd])
    value, _ = yield shapes, x, 0.0, rsq_target
    return math.sqrt(value), converged, resume


def _lockstep(problem: _BoundProblem, coroutines) -> list:
    """Run ``_restart`` coroutines in rounds until each has returned; their
    results, in order. Each round evaluates every pending point with one
    ``_objective`` call per shapes group (full or rank-one), then sends the
    results back in turn, so a coroutine sees what those before it changed.
    A coroutine that another one closed has the result None.
    """
    results = [None] * len(coroutines)
    pending = [(i, None) for i in range(len(coroutines))]
    while pending:
        groups = {}
        for i, sent in pending:
            try:
                shapes, *request = coroutines[i].send(sent)
            except StopIteration as done:
                results[i] = done.value
            else:
                groups.setdefault(shapes, []).append((i, *request))
        pending = []
        for shapes, group in groups.items():
            for at in range(0, len(group), problem.batch):
                rows, xs, weights, targets = zip(*group[at:at + problem.batch])
                values, grads = _objective(np.array(xs), problem, shapes,
                                           np.array(weights),
                                           np.array(targets))
                pending += zip(rows, zip(values, grads))
    return results


@dataclass
class _RadiusRun:
    """The restarts run at one radius: ``results[k]`` is what ``_restart``
    returned for restart k, replaced when a stopped restart is resumed."""

    radius: float
    key: tuple
    results: dict = field(default_factory=dict)
    pruned: bool = False

    @property
    def restarts(self) -> int:
        return len(self.results)

    @property
    def held(self) -> list[int]:
        """The stopped restarts, whose descents are suspended."""
        return [k for k, (_, _, resume) in self.results.items() if resume]

    @property
    def projected(self) -> int:
        return sum(v is not None for v, _, _ in self.results.values())

    @property
    def converged(self) -> int:
        return sum(c for _, c, _ in self.results.values())

    @property
    def best(self) -> float:
        return min((v for v, _, _ in self.results.values() if v is not None),
                   default=math.inf)

    @property
    def failed(self) -> bool:
        return not math.isfinite(self.best)

    @property
    def value(self) -> float:
        # A radius where no restart reached a feasible point reports the
        # trivial value 0, which can only lower the bound.
        return 0.0 if self.failed else self.best

    def drop(self, k: int):
        """Forget restart k, closing its descent if it is suspended."""
        _, _, resume = self.results.pop(k, (None, None, None))
        if resume is not None:
            resume.close()

    def release(self):
        """Close the suspended descents; their stopped values stay."""
        for k in self.held:
            value, converged, resume = self.results[k]
            resume.close()
            self.results[k] = value, converged, None


def _sweep(problem: _BoundProblem, batch, opts: OptimizerOptions,
           floor: float = -math.inf, cut: bool = False):
    """Best-first restarts over a batch of (radius, seed key) pairs.

    Every radius is probed with restart 0, all probes together in lockstep
    (``_lockstep``); the radii then finish in decreasing order of their
    probe value. A radius stops early once its running minimum drops
    strictly below ``floor``, the largest final value among radii that ran
    all their restarts: its own minimum is then below the maximum, so it
    cannot be the argmax. While ``floor`` is -inf nothing can prune the
    first radius to finish, so its other restarts run together, with no
    cut. A later radius runs its other restarts in lockstep batches of 1,
    2, 4, ... restarts, and keeps the pruning order of one restart at a
    time: once restart k prunes, every restart past k is closed and
    discarded, whether it ran or not.

    With ``cut`` on, a descent stops at its first point whose penalized
    objective is below the square of the sweep's running maximum at that
    evaluation, the largest of ``floor`` and the restart values seen so far
    (a probe can be stopped by a value another probe reached in the same
    round). The stopped point is placed and measured, and its descent is
    held (``_restart``). A stopped value is kept only while it can still
    prune its radius: a held restart whose value cannot prune resumes in
    its batch, a held probe in its radius's first batch, and a radius that
    ran all its restarts resumes its held one before it finishes. Resuming
    continues the descent where it stopped, so a finished radius is exact,
    and only a pruned radius can report a stopped value. Once a radius is
    pruned or finished, its held descents are closed. Returns the runs in
    batch order and the updated floor.
    """
    runs = [_RadiusRun(float(r), key) for r, key in batch]
    high = floor

    def below_high(value):
        return high > 0 and value < high * high

    stop = below_high if cut else None

    def settle(run, k, check, low, live):
        # Restart k, or its held descent, resumed while it is stopped at a
        # value not below ``low``; a value below ``low`` prunes at k.
        nonlocal high
        result = yield from (run.results[k][2] if k in run.results else
                             _restart(problem, run.radius, check, opts,
                                      run.key, k))
        while True:
            value, _, resume = result
            if value is not None:
                high = max(high, value)
            if resume is None or value < low:
                break
            result = yield from resume
        run.results[k] = result
        if value is not None and value < low:
            for j in [j for j in live if j > k]:
                live.pop(j).close()
                run.drop(j)

    def together(run, ks, check, low):
        live = {}
        for k in ks:
            live[k] = settle(run, k, check, low, live)
        _lockstep(problem, list(live.values()))

    # A probe's value never prunes here: each probe is the only restart of
    # its radius so far, and its descent stays held.
    _lockstep(problem, [settle(run, 0, stop, math.inf, {}) for run in runs])
    for run in sorted(runs, key=lambda run: run.best, reverse=True):
        first = floor == -math.inf
        size = opts.restarts if first else 1
        while run.best >= floor and run.restarts < opts.restarts:
            fresh = range(run.restarts, min(run.restarts + size, opts.restarts))
            together(run, [*run.held, *fresh], None if first else stop, floor)
            size *= 2
        run.pruned = run.restarts < opts.restarts
        if not run.pruned:
            together(run, run.held, None, -math.inf)
            floor = max(floor, run.value)
        run.release()
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
    radius that ran all its restarts (see ``_sweep``). Descents stop once
    they fall below the largest value seen, and a radius that needs such a
    restart settled resumes it; only a pruned radius can report a stopped
    value. A pruned radius is never the argmax, and every radius that is
    not pruned reports the best of all its restarts run to the end. So a
    batch's maximum is that of a sweep that runs every restart everywhere,
    except where a stopped point prunes a radius that such a sweep would
    finish: the point then shows that sweep's value there to overstate the
    radius's minimum, and the maximum can only come out lower. The pruned
    radii's ``delta_r`` are upper estimates that still lie below
    ``max_delta``.
    """
    opts = opts or OptimizerOptions()
    problem = _BoundProblem(s)
    rmax = max_radius(problem.total)
    grid = list(np.linspace(0.0, rmax, opts.r_steps))
    runs: dict[float, _RadiusRun] = {}
    floor = -math.inf

    def run_batch(batch):
        nonlocal floor
        done, floor = _sweep(problem, batch, opts, floor, cut=True)
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
