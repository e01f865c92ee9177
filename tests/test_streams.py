import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


SEEDS = st.one_of(
    st.sampled_from([0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) - 1]),
    st.integers(0, (1 << 64) - 1),
)
LABELS = st.one_of(st.integers(0, (1 << 64) - 1), st.text(max_size=8))


@settings(max_examples=60, deadline=None)
@given(
    seed=SEEDS,
    prefix=st.lists(LABELS, max_size=4),
    rows=st.lists(st.lists(LABELS, max_size=3), max_size=8),
)
@example(seed=(1 << 64) - 1, prefix=[], rows=[])
@example(seed=0, prefix=["trial", 3, "class"], rows=[[1, 2], ["x"], [], [5, "y"]])
def test_batched_generators_equal_seed_sequence(seed, prefix, rows):
    # int labels are 3 key words and string labels 5, so rows mix key lengths
    spec = SeedSpec(seed, tuple(prefix))
    batch = spec.generators(rows)
    assert len(batch) == len(rows)
    for row, rng in zip(rows, batch):
        child = spec.child(*row)
        assert np.array_equal(
            rng.bit_generator.seed_seq.generate_state(4, np.uint64),
            child.seed_sequence().generate_state(4, np.uint64),
        )
        assert rng.bit_generator.state == child.generator().bit_generator.state
        assert np.array_equal(
            rng.integers(0, 1 << 62, 8), child.generator().integers(0, 1 << 62, 8)
        )


def test_generators_validate_labels():
    with pytest.raises(ParameterError):
        SeedSpec(1).generators([(1,), (-3,)])
