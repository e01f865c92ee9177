import numpy as np
import pytest

from kronval import ParameterError, SeedSpec


def test_same_spec_same_bytes():
    a = SeedSpec(123).child("trial", 4).generator().integers(0, 1 << 30, 16)
    b = SeedSpec(123).child("trial", 4).generator().integers(0, 1 << 30, 16)
    assert np.array_equal(a, b)


def test_distinct_labels_distinct_streams():
    base = SeedSpec(9)
    a = base.child("trial", 0).generator().random(8)
    b = base.child("trial", 1).generator().random(8)
    c = base.child("block", 0).generator().random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_string_and_int_labels_do_not_collide():
    a = SeedSpec(1).child(5).generator().random(4)
    b = SeedSpec(1).child("5").generator().random(4)
    assert not np.array_equal(a, b)


def test_children_compose():
    direct = SeedSpec(7, ("a", 1, "b")).generator().random(4)
    chained = SeedSpec(7).child("a").child(1).child("b").generator().random(4)
    assert np.array_equal(direct, chained)


def test_frozen_derivation():
    # pinned draw: catches accidental changes to the label-to-key derivation
    value = int(SeedSpec(42).child("trial", 0).generator().integers(0, 1 << 62))
    assert value == 4168593854695314797


def test_label_validation():
    with pytest.raises(ParameterError):
        SeedSpec(1).child(-3)
    with pytest.raises(ParameterError):
        SeedSpec(1).child(1.5)
    with pytest.raises(ParameterError):
        SeedSpec(-1)
    with pytest.raises(ParameterError):
        SeedSpec(1 << 64)

