import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from stabreg.labels import (
    LabelError,
    LabelParams,
    all_labels,
    check_shape,
    format_label,
    incomparable_family,
    make_label,
    next_label,
    next_label_covered,
    parse_label,
    precedes_b,
    random_label,
)

from helpers import set_scan_next_label

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
    check_shape(result, params)
    assert result.antistings == tuple(sorted(set(result.antistings)))
    for member in labels:
        assert precedes_b(member, result)


@st.composite
def label_inputs(draw):
    """Up to k arbitrary labels, most of them never generated by anything.

    Stings may repeat and may sit inside their own antistings.  In tight
    mode the antisting sets are disjoint chunks of a shuffled universe, so
    they block all but one element and the fallback sting is often taken.
    """
    k = draw(st.integers(2, 12))
    params = LabelParams(k)
    K = params.universe_size
    universe = st.integers(1, K)
    size = draw(st.integers(0, k))
    if draw(st.booleans()):
        order = draw(st.permutations(range(1, K + 1)))
        chunks = [order[i * k:(i + 1) * k] for i in range(size)]
    else:
        chunks = [draw(st.sets(universe, min_size=k, max_size=k)) for _ in range(size)]
    labels = []
    for chunk in chunks:
        if labels and draw(st.booleans()):
            sting = draw(st.sampled_from([lab.sting for lab in labels]))
        elif draw(st.booleans()):
            sting = draw(st.sampled_from(sorted(chunk)))
        else:
            sting = draw(universe)
        labels.append(make_label(sting, chunk))
    return params, labels


@settings(max_examples=500, deadline=None)
@given(label_inputs())
def test_next_label_matches_set_scan(case):
    params, labels = case
    assert next_label(labels, params) == set_scan_next_label(labels, params)


def full_queue(kind: str, seed: int, params: LabelParams) -> list:
    rng = random.Random(seed)
    if kind == "random":
        return [random_label(rng, params) for _ in range(params.k)]
    return incomparable_family(params.k, params, rng)


@pytest.mark.parametrize("kind", ["random", "incomparable"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_next_label_matches_set_scan_on_full_queue(kind, seed):
    params = LabelParams(500)
    queue = full_queue(kind, seed, params)
    result = next_label(queue, params)
    assert result == set_scan_next_label(queue, params)
    assert all(precedes_b(member, result) for member in queue)
    # an epoch change: the new label joins the queue and the oldest leaves
    queue = [result] + queue[:-1]
    assert next_label(queue, params) == set_scan_next_label(queue, params)


def test_next_label_repeat_calls_over_full_queue_are_fast():
    params = LabelParams(500)
    queue = full_queue("random", 0, params)
    start = time.perf_counter()
    for _ in range(100):
        next_label(queue, params)
    assert time.perf_counter() - start < 2.0


def covered_bytes(labels: list) -> bytearray:
    covered = bytearray(max((max(lab.antistings) for lab in labels), default=0) + 1)
    for lab in labels:
        for a in lab.antistings:
            covered[a] = 1
    return covered


@settings(max_examples=500, deadline=None)
@given(label_inputs())
def test_next_label_covered_matches_set_scan(case):
    params, labels = case
    expected = set_scan_next_label(labels, params)
    stings = {lab.sting for lab in labels}
    # flags or counts, and longer than the antistings it holds or not
    covered = covered_bytes(labels)
    counts = [0] * (params.universe_size + 1)
    for lab in labels:
        for a in lab.antistings:
            counts[a] += 1
    padded = covered + bytes(params.universe_size)
    for union in (covered, padded, counts, counts[:len(covered)]):
        assert next_label_covered(len(labels), stings, union, params) == expected


def test_next_label_finds_a_free_element_past_many_windows():
    # 20 disjoint chunks cover the universe 1..401 except 333, so the
    # search doubles its window past 256 before it finds a free element
    params = LabelParams(20)
    pool = [x for x in range(1, 402) if x != 333]
    labels = [make_label(381 + i, pool[i * 20:(i + 1) * 20]) for i in range(20)]
    result = next_label(labels, params)
    assert result == set_scan_next_label(labels, params)
    assert result.sting == 333
    assert all(precedes_b(member, result) for member in labels)


def test_builders_give_sorted_tuples():
    rng = random.Random(4)
    params = LabelParams(6)
    labels = [random_label(rng, params) for _ in range(6)]
    labels += incomparable_family(6, params, rng)[:3]
    labels.append(next_label(labels[:6], params))
    labels.append(parse_label("(2|9,3,1,30,7,4)"))
    labels.append(next(iter(all_labels(params))))
    for label in labels:
        assert type(label.antistings) is tuple
        check_shape(label, params)
        assert label.antistings == tuple(sorted(set(label.antistings)))
    assert make_label(1, [5, 2, 5, 3]).antistings == (2, 3, 5)


def test_next_label_rejects_antisting_outside_universe():
    with pytest.raises(LabelError):
        next_label([make_label(1, {2, 6})], P2)
    with pytest.raises(LabelError):
        next_label([make_label(1, {-1, 2})], P2)


def test_incomparable_family_pairwise():
    params = LabelParams(8)
    family = incomparable_family(8, params, random.Random(5))
    assert len(set(family)) == 8
    for a in family:
        for b in family:
            assert not precedes_b(a, b)


def test_incomparable_family_rejects_what_it_cannot_build():
    params = LabelParams(4)
    with pytest.raises(LabelError, match="at most k=4"):
        incomparable_family(5, params, random.Random(0))
    with pytest.raises(LabelError, match="sting pool too small"):
        incomparable_family(3, params, random.Random(0), sting_pool=range(1, 3))


def test_format_parse_roundtrip():
    label = make_label(4, {1, 4})
    assert format_label(label) == "(4|1,4)"
    assert parse_label("(4|1,4)") == label
    with pytest.raises(LabelError):
        parse_label("not-a-label")
    with pytest.raises(LabelError, match="bad label literal"):
        parse_label("(a|1,2)")
    # a repeated antisting is refused, not folded into a shorter set
    with pytest.raises(LabelError, match="repeats antisting 2"):
        parse_label("(1|3,2,2)")


def test_label_equality_is_structural():
    assert make_label(1, {2, 3}) == make_label(1, {3, 2})
    assert hash(make_label(1, {2, 3})) == hash(make_label(1, {3, 2}))
    assert make_label(1, {2, 3}) != make_label(2, {2, 3})


def test_sting_may_be_own_antisting():
    # the generator can produce such labels and nothing breaks
    label = make_label(1, {1, 2})
    check_shape(label, P2)
    assert not precedes_b(label, label)
