import random

import pytest
from hypothesis import given, settings, strategies as st

from stabreg.labels import (
    LabelError,
    LabelParams,
    all_labels,
    format_label,
    incomparable_family,
    make_label,
    next_label,
    parse_label,
    precedes_b,
    random_label,
)

P2 = LabelParams(2)


def test_params_reject_k_below_two():
    with pytest.raises(LabelError):
        LabelParams(1)


def test_universe_size():
    assert LabelParams(2).universe_size == 5
    assert LabelParams(64).universe_size == 64 * 64 + 1


def test_precedes_simple():
    a = make_label(2, {4, 5})
    b = make_label(1, {2, 3})
    assert precedes_b(a, b)
    assert not precedes_b(b, a)


def test_precedes_incomparable_pair():
    a = make_label(1, {2, 3})
    b = make_label(2, {1, 5})
    assert not precedes_b(a, b)
    assert not precedes_b(b, a)


def test_precedes_irreflexive_exhaustive_k2():
    for label in all_labels(P2):
        assert not precedes_b(label, label)


def test_next_label_worked_example():
    s = [make_label(1, {2, 3}), make_label(4, {1, 5})]
    result = next_label(s, P2)
    assert result == make_label(4, {1, 4})
    for member in s:
        assert precedes_b(member, result)


def test_next_label_empty_set():
    assert next_label([], P2) == make_label(1, {1, 2})
    assert next_label([], LabelParams(4)) == make_label(1, {1, 2, 3, 4})


def test_next_label_rejects_oversized_set():
    labels = [make_label(i, {i, i + 1}) for i in range(1, 4)]
    with pytest.raises(LabelError):
        next_label(labels, P2)


def test_next_label_rejects_mismatched_k():
    foreign = make_label(1, {2, 3, 4})  # k=3 label
    with pytest.raises(LabelError):
        next_label([foreign], P2)


def test_next_label_duplicate_stings_deduped():
    s = [make_label(3, {1, 2}), make_label(3, {4, 5})]
    result = next_label(s, P2)
    assert 3 in result.antistings
    assert len(result.antistings) == 2
    for member in s:
        assert precedes_b(member, result)


def test_next_label_deterministic():
    rng = random.Random(11)
    params = LabelParams(6)
    s = [random_label(rng, params) for _ in range(5)]
    first = next_label(s, params)
    assert next_label(list(reversed(s)), params) == first
    assert next_label(s, params) == first


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_next_label_dominance_property(data):
    k = data.draw(st.sampled_from([2, 3, 4, 8]))
    params = LabelParams(k)
    K = params.universe_size
    size = data.draw(st.integers(0, k))
    labels = []
    for _ in range(size):
        sting = data.draw(st.integers(1, K))
        antistings = data.draw(
            st.sets(st.integers(1, K), min_size=k, max_size=k)
        )
        labels.append(make_label(sting, antistings))
    result = next_label(labels, params)
    result.validate(params)
    for member in labels:
        assert precedes_b(member, result)


def test_domain_size_k2():
    labels = list(all_labels(P2))
    assert len(labels) == 50  # C(5,2) * 5
    assert len(set(labels)) == 50


def test_antisymmetry_exhaustive_k2():
    labels = list(all_labels(P2))
    for a in labels:
        for b in labels:
            assert not (precedes_b(a, b) and precedes_b(b, a))


def test_incomparable_family_pairwise():
    params = LabelParams(8)
    family = incomparable_family(8, params, random.Random(5))
    assert len(set(family)) == 8
    for a in family:
        for b in family:
            assert not precedes_b(a, b)


def test_format_parse_roundtrip():
    label = make_label(4, {1, 4})
    assert format_label(label) == "(4|1,4)"
    assert parse_label("(4|1,4)") == label
    with pytest.raises(LabelError):
        parse_label("not-a-label")


def test_label_equality_is_structural():
    assert make_label(1, {2, 3}) == make_label(1, {3, 2})
    assert hash(make_label(1, {2, 3})) == hash(make_label(1, {3, 2}))
    assert make_label(1, {2, 3}) != make_label(2, {2, 3})


def test_sting_may_be_own_antisting():
    # the generator can produce such labels and nothing breaks
    label = make_label(1, {1, 2})
    label.validate(P2)
    assert not precedes_b(label, label)
