"""Per-party reference for the bound's objective and its gradient.

``nlwe.bound._objective`` evaluates every party at once on a zero-padded
stack, with the parameters as complex factors viewed as floats. This is the
loop-over-parties form it replaced: each factor packed as its real parts
followed by its imaginary parts, and the diagonal of the member-basis matrix
clamped at zero before it is subtracted. Tests compare the two through
their own ``_unpack``.
"""

import math

import numpy as np

from nlwe.bound import TRACE_FLOOR


def _residual(p: np.ndarray):
    """Member-basis ``Pi Q Pi`` minus its clamped diagonal, the nearest point
    of the coefficient cone, and its trace; None below TRACE_FLOOR."""
    t = p.trace().real
    if t < TRACE_FLOOR:
        return None
    return p - np.diag(np.maximum(p.diagonal().real, 0.0)), t


class ReferenceProblem:
    """Distance evaluators in the member basis, one party at a time.

    Members are combinations of product kets ("atoms"), one stack X_a per
    party: a product set's members scaled by w = sqrt(p), else the
    computational basis. For Q = kron(A_a) the atoms' matrix H is the
    entrywise product of the local conj(X_a) A_a X_a^T. ``Pi Q Pi`` in the
    member basis is H for a product set, conj(C) H C^T with C = diag(w) V
    otherwise."""

    def __init__(self, s):
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
            self.coeff = (c.conj(), c.T)
        # Each map M -> left M right pulls a gradient G back as right G left.
        self.atoms = [(x.conj(), x.T) for x in atoms]

    def _member_matrix(self, psd):
        local = [bra @ a @ ket for (bra, ket), a in zip(self.atoms, psd)]
        p = math.prod(local)
        if self.coeff is not None:
            left, right = self.coeff
            p = left @ p @ right
        return local, p

    def delta(self, psd) -> float:
        """Scaled zonotope distance of kron(psd); 0 below TRACE_FLOOR."""
        found = _residual(self._member_matrix(psd)[1])
        if found is None:
            return 0.0
        m, t = found
        return float(np.linalg.norm(m) / t)

    def delta_sq_grad(self, psd):
        """Squared distance and its gradient G_a on each local part, with
        df = Re sum(conj(G_a) * dA_a).

        The nearest zonotope point is locally constant in the operator
        (envelope property of the coordinatewise minimizer), so it is held
        fixed under differentiation.
        """
        local, p = self._member_matrix(psd)
        found = _residual(p)
        if found is None:
            return 0.0, [np.zeros_like(a) for a in psd]
        m, t = found
        num = np.vdot(m, m).real
        g = (2.0 / t**2) * m - (2.0 * num / t**3) * np.eye(len(m))
        if self.coeff is not None:
            left, right = self.coeff
            g = right @ g @ left
        gt = g.T  # the entrywise factor enters transposed: g * others^T
        grads = [ket @ (gt * math.prod(local[:a] + local[a + 1:])).T @ bra
                 for a, (bra, ket) in enumerate(self.atoms)]
        return num / t**2, grads


def _radius_sq_grad(psd):
    """Squared distance of kron(psd) from the identity, and its gradient on
    each local part; both factorize, as |Q|^2 / Tr(Q)^2 = prod |A|^2 / prod
    Tr(A)^2."""
    norms = [np.vdot(a, a).real for a in psd]
    traces = [a.trace().real for a in psd]
    ratio = math.prod(norms) / math.prod(traces) ** 2
    grads = [(2.0 * ratio / n) * a - (2.0 * ratio / t) * np.eye(len(a))
             for a, n, t in zip(psd, norms, traces)]
    return ratio - 1.0 / math.prod(len(a) for a in psd), grads


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


def _objective(x, problem: ReferenceProblem, shapes, weight, rsq_target):
    """Penalized squared distance and its gradient in factor parameters."""
    factors = _unpack(x, shapes)
    psd = [f.conj().T @ f for f in factors]
    value, grads = problem.delta_sq_grad(psd)
    if weight:
        rsq, radial = _radius_sq_grad(psd)
        gap = rsq - rsq_target
        value = value + weight * gap * gap
        grads = [g + (2.0 * weight * gap) * r for g, r in zip(grads, radial)]
    # dA = dL^dag L + L^dag dL, so the gradient in L is 2 L G.
    return value, _pack([2.0 * f @ g for f, g in zip(factors, grads)])
