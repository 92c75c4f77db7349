"""Pass-through timers for the traced benchmark run.

Each hook replaces a public callable at the module attribute its callers
look up at call time, records time and counts in a :class:`Tracer`, and
calls the original with the same arguments. :func:`installed` puts the hooks
in place and always restores the originals. A hook whose target no longer
exists is skipped and listed in ``Tracer.missing``; every metric that needs
it is then left out of :func:`layer_metrics` instead of failing the run.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter

import numpy as np


class Missing(Exception):
    """A metric needs a hook whose target was not found."""


class Tracer:
    """Spans (name, start, end, parent) and per-name totals, kept in memory.

    Coarse calls are recorded as spans; hot calls (objective and radius
    evaluations, ``numpy.kron``, ``StateSet.local_state``) only add to the
    totals, so the trace stays small and the hooks stay cheap.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._open: list[int] = []
        self._active: Counter = Counter()

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def call(self, name: str, fn, args, kwargs, record: bool = True):
        start = time.perf_counter()
        if record:
            index = len(self.spans)
            self.spans.append(
                [name, start, None, self._open[-1] if self._open else None])
            self._open.append(index)
        self._active[name] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._active[name] -= 1
            if record:
                self.spans[index][2] = end
                self._open.pop()
            self.seconds[name] += end - start
            self.counts[name] += 1

    def s(self, name: str) -> float:
        self._need(name)
        return self.seconds[name]

    def n(self, name: str) -> int:
        self._need(name)
        return self.counts[name]

    def _need(self, name: str):
        if name.split("#")[0] not in self.installed:
            raise Missing(name)

    def span_records(self) -> list[dict]:
        """Spans with times relative to the first one, ready for JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": name, "start": start - t0, "end": end - t0,
                 "parent": parent}
                for name, start, end, parent in self.spans]


# -- hook factories: (tracer, name, original) -> replacement ----------------

def span(tracer, name, fn):
    def hooked(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return hooked


def tally(tracer, name, fn):
    """Like :func:`span`, for hot calls: totals only, no span record."""
    def hooked(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, record=False)
    return hooked


def counter(within=None):
    """Count calls, only while the span ``within`` is open if one is given."""
    def factory(tracer, name, fn):
        def hooked(*args, **kwargs):
            if within is None or tracer.active(within):
                tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return hooked
    return factory


def minimize(tracer, name, fn):
    """Time ``scipy.optimize.minimize`` and the objective passed to it."""
    def hooked(fun, x0, *args, **kwargs):
        def objective(*a, **k):
            return tracer.call("bound.objective", fun, a, k, record=False)
        return tracer.call(name, fn, (objective, x0, *args), kwargs)
    tracer.installed.add("bound.objective")
    return hooked


def rank(tracer, name, fn):
    """Time ``numerical_rank`` and size the matrix it decomposes."""
    def hooked(mats, *args, **kwargs):
        if not isinstance(mats, (list, tuple)):
            mats = list(mats)
        if mats:
            row = np.size(mats[0])
            tracer.counts[name + "#rows"] += len(mats)
            tracer.counts[name + "#bytes"] += 16 * row * len(mats)
        return tracer.call(name, fn, (mats, *args), kwargs)
    return hooked


def pairs(tracer, name, fn):
    def hooked(*args, **kwargs):
        found = tracer.call(name, fn, args, kwargs)
        tracer.counts[name + "#found"] += len(found)
        return found
    return hooked


def dyad_span(tracer, name, fn):
    """Time ``dyad_span_rank``; tally target dimensions against rows used."""
    def hooked(s, party, pair_list, *args, **kwargs):
        pair_list = list(pair_list)
        tracer.counts[name + "#required"] += s.dims[party] ** 2 - 1
        tracer.counts[name + "#rows"] += len(pair_list)
        return tracer.call(name, fn, (s, party, pair_list, *args), kwargs)
    return hooked


# (module, attribute, metric prefix, factory). Targets are the attributes the
# callers resolve at call time: the CLI imports ``load`` and
# ``error_lower_bound`` by name, ``nlwe.certify`` imports ``dyad``,
# ``numerical_rank`` and ``merge_cut`` by name, and ``nlwe.bound`` calls
# ``sciopt.minimize``, ``sciopt.brentq`` and ``np.kron`` through modules.
HOOKS = (
    ("nlwe.cli", "error_lower_bound", "bound.total", span),
    ("scipy.optimize", "minimize", "bound.minimize", minimize),
    ("nlwe.bound", "distance_from_identity", "bound.radius_eval", tally),
    ("scipy.optimize", "brentq", "bound.brentq", span),
    ("numpy", "kron", "bound.kron", counter(within="bound.total")),
    ("nlwe.cli", "load", "families.load", span),
    ("nlwe.certify", "merge_cut", "families.merge_cut", span),
    ("nlwe.certify", "exclusive_pairs", "certify.pairs", pairs),
    ("nlwe.certify", "dyad_span_rank", "certify.rank", dyad_span),
    ("nlwe.certify", "dyad", "certify.dyad", counter()),
    ("nlwe.certify", "numerical_rank", "linalg.rank", rank),
    ("nlwe.certify", "upb_extendibility", "certify.upb_search", span),
    ("nlwe.families", "StateSet.local_state", "certify.upb_branches",
     counter(within="certify.upb_search")),
    ("nlwe.certify", "minimal_upb_check", "certify.minimal_check", span),
)


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(module)
    *parents, leaf = attribute.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf


@contextlib.contextmanager
def installed(tracer: Tracer, hooks=HOOKS):
    """Install ``hooks`` reporting to ``tracer``; restore originals on exit."""
    restore = []
    try:
        for module, attribute, name, factory in hooks:
            try:
                owner, leaf = _resolve(module, attribute)
                original = owner.__dict__[leaf]
            except (ImportError, AttributeError, KeyError):
                tracer.missing.append(f"{module}.{attribute}")
                continue
            setattr(owner, leaf, factory(tracer, name, original))
            restore.append((owner, leaf, original))
            tracer.installed.add(name)
        yield tracer
    finally:
        for owner, leaf, original in reversed(restore):
            setattr(owner, leaf, original)


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metric -> (unit, value read from the tracer). A layer that does
# not run on a workload reads 0.
LAYER_METRICS = {
    "bound.minimize_s": ("s", lambda t: t.s("bound.minimize")),
    "bound.minimize_calls": ("count", lambda t: t.n("bound.minimize")),
    "bound.objective_s": ("s", lambda t: t.s("bound.objective")),
    "bound.objective_evals": ("count", lambda t: t.n("bound.objective")),
    "bound.lbfgs_overhead_s": (
        "s", lambda t: t.s("bound.minimize") - t.s("bound.objective")),
    "bound.radius_eval_s": ("s", lambda t: t.s("bound.radius_eval")),
    "bound.radius_evals": ("count", lambda t: t.n("bound.radius_eval")),
    "bound.brentq_calls": ("count", lambda t: t.n("bound.brentq")),
    "bound.kron_calls": ("count", lambda t: t.n("bound.kron")),
    "bound.other_s": ("s", lambda t: t.s("bound.total")
                      - t.s("bound.minimize") - t.s("bound.radius_eval")),
    "families.load_s": ("s", lambda t: t.s("families.load")),
    "families.merge_cut_s": ("s", lambda t: t.s("families.merge_cut")),
    "certify.pairs_s": ("s", lambda t: t.s("certify.pairs")),
    "certify.pairs_calls": ("count", lambda t: t.n("certify.pairs")),
    "certify.pairs_found": ("count", lambda t: t.n("certify.pairs#found")),
    "certify.rank_s": ("s", lambda t: t.s("certify.rank")),
    "certify.dyad_calls": ("count", lambda t: t.n("certify.dyad")),
    "certify.rank_yield": ("ratio", lambda t: _ratio(
        t.n("certify.rank#required"), t.n("certify.rank#rows"))),
    "linalg.rank_s": ("s", lambda t: t.s("linalg.rank")),
    "linalg.rank_rows": ("count", lambda t: t.n("linalg.rank#rows")),
    "linalg.rank_bytes_computed": (
        "bytes", lambda t: t.n("linalg.rank#bytes")),
    "certify.upb_search_s": ("s", lambda t: t.s("certify.upb_search")),
    "certify.upb_branches": ("count", lambda t: t.n("certify.upb_branches")),
    "certify.minimal_check_s": ("s", lambda t: t.s("certify.minimal_check")),
    "certify.minimal_check_calls": (
        "count", lambda t: t.n("certify.minimal_check")),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Every metric of ``LAYER_METRICS`` whose hooks were all installed."""
    out = {}
    for name, (unit, value) in LAYER_METRICS.items():
        try:
            out[name] = {"value": value(tracer), "unit": unit}
        except Missing:
            continue
    return out
