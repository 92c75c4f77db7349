import nlwe
import nlwe.bound

# The dense D x D operator layer, now kept in tests/dense_reference.py.
REMOVED = (
    "ProductOperator", "_kron_all", "_materialize", "discrimination_operator",
    "nearest_zonotope_point", "zonotope_distance",
    "quadratic_over_linear_gap", "segment_distance_inequality",
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
