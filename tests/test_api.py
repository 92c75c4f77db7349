import importlib
import inspect

import nlwe
import nlwe.bound
from nlwe.certify import DyadCertificate
from nlwe.families import PartyCut

# The dense D x D operator layer, now kept in tests/dense_reference.py, and
# helpers only tests used: ``inner`` and ``frobenius_norm`` gave way to
# ``np.vdot`` and ``np.linalg.norm``, ``gentiles1_witness_dyads`` is in
# tests/conftest.py, and ``min_distance_at_radius``, the inner minimum at one
# radius, is ``error_lower_bound``'s ``delta_r`` entry there.
REMOVED = (
    "ProductOperator", "_kron_all", "_materialize", "discrimination_operator",
    "nearest_zonotope_point", "zonotope_distance",
    "quadratic_over_linear_gap", "segment_distance_inequality",
    "inner", "frobenius_norm", "gentiles1_witness_dyads",
    "min_distance_at_radius",
)


def test_all_sorted_without_duplicates():
    assert nlwe.__all__ == sorted(set(nlwe.__all__))


def test_every_exported_name_resolves():
    for name in nlwe.__all__:
        assert getattr(nlwe, name) is not None


def test_dense_layer_not_in_package():
    for name in REMOVED:
        assert not hasattr(nlwe, name)
        assert not hasattr(nlwe.bound, name)


def test_test_only_helpers_not_in_package():
    for module in ("nlwe.linalg", "nlwe.families"):
        for name in REMOVED:
            assert not hasattr(importlib.import_module(module), name)
    assert not hasattr(PartyCut, "trivial")
    assert not hasattr(DyadCertificate, "record")


def test_bound_has_one_distance_kernel():
    # Placed points are measured by the descents' kernel, and the L-BFGS
    # driver that only tests called is gone with the second evaluator.
    assert not hasattr(nlwe.bound, "_lbfgs")
    assert not hasattr(nlwe.bound._BoundProblem, "delta")


def test_bound_has_one_driver():
    # error_lower_bound is the only caller of _sweep, whose descent cut is
    # always on, and the kernel takes only stacks of points.
    assert not hasattr(nlwe.bound, "min_distance_at_radius")
    assert "cut" not in inspect.signature(nlwe.bound._sweep).parameters
    assert not hasattr(nlwe.bound._BoundProblem, "members")
