import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from stabreg import timestamps
from stabreg.labels import (Label, LabelError, LabelParams, all_labels, incomparable_family,
                            make_label, next_label, precedes_b, random_label)
from stabreg.timestamps import (
    EpochsQueue,
    Timestamp,
    dominates,
    format_timestamp,
    next_timestamp,
    parse_timestamp,
    precedes_e,
)

from helpers import set_scan_next_label

P2 = LabelParams(2)
P3 = LabelParams(3)
L_LOW = make_label(2, {4, 5})
L_HIGH = make_label(1, {2, 3})  # L_LOW precedes L_HIGH


def test_bottom_below_everything():
    ts = Timestamp(L_LOW, 0)
    assert precedes_e(None, ts)
    assert not precedes_e(ts, None)
    assert not precedes_e(None, None)


def test_order_by_epoch_then_seq():
    assert precedes_e(Timestamp(L_LOW, 9), Timestamp(L_HIGH, 0))
    assert precedes_e(Timestamp(L_LOW, 0), Timestamp(L_LOW, 1))
    assert not precedes_e(Timestamp(L_LOW, 1), Timestamp(L_LOW, 1))
    assert not precedes_e(Timestamp(L_HIGH, 0), Timestamp(L_LOW, 9))


def test_incomparable_epochs_give_incomparable_timestamps():
    a = Timestamp(make_label(1, {2, 3}), 0)
    b = Timestamp(make_label(2, {1, 5}), 7)
    assert not precedes_e(a, b)
    assert not precedes_e(b, a)


def test_dominates_is_nonstrict():
    ts = Timestamp(L_HIGH, 3)
    assert dominates(ts, None)
    assert dominates(ts, ts)
    assert dominates(ts, Timestamp(L_HIGH, 2))
    assert dominates(ts, Timestamp(L_LOW, 64))
    assert not dominates(Timestamp(L_LOW, 64), ts)
    # incomparable epochs dominate neither way
    other = Timestamp(make_label(2, {1, 5}), 0)
    a = Timestamp(make_label(1, {2, 3}), 0)
    assert not dominates(a, other)
    assert not dominates(other, a)


@st.composite
def timestamp_pairs(draw):
    """(a, b): timestamps, or None, over a small pool of epochs: random
    labels, an incomparable family and a label above some of them.  The two
    sides share label or timestamp objects, or hold equal copies rebuilt
    from the same fields, so identity and equality are each tried apart."""
    params = LabelParams(draw(st.sampled_from([2, 3, 4])))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pool = [random_label(rng, params) for _ in range(draw(st.integers(0, 3)))]
    pool += incomparable_family(draw(st.integers(1, params.k)), params, rng)
    pool.append(next_label(pool[-params.k:], params))

    def timestamp():
        if draw(st.integers(0, 5)) == 0:
            return None
        return Timestamp(draw(st.sampled_from(pool)), draw(st.integers(0, 3)))

    def copy(ts):
        if ts is None:
            return None
        epoch = ts.epoch
        return Timestamp(Label(epoch.sting, tuple(list(epoch.antistings))), ts.seq)

    a = timestamp()
    how = draw(st.sampled_from(["drawn", "same", "copy", "shared-epoch", "copied-epoch"]))
    if how == "drawn" or a is None:
        b = timestamp()
    elif how == "same":
        b = a
    elif how == "copy":
        b = copy(a)
    else:
        epoch = a.epoch if how == "shared-epoch" else copy(a).epoch
        b = Timestamp(epoch, draw(st.integers(0, 3)))
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=500, deadline=None)
@given(timestamp_pairs())
def test_dominates_is_equal_or_strictly_above(pair):
    a, b = pair
    assert dominates(a, b) == (b is None or a == b or precedes_e(b, a))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.data())
def test_a_label_never_precedes_itself(k, data):
    # a sting inside its own antistings passes precedes_b's first test, so
    # only the second, against the same label, rules the pair out
    universe = range(1, k * k + 2)
    antistings = data.draw(st.sets(st.sampled_from(universe), min_size=k, max_size=k))
    label = make_label(data.draw(st.sampled_from(sorted(antistings))), antistings)
    assert not precedes_b(label, label)
    assert not precedes_b(label, Label(label.sting, tuple(list(label.antistings))))


def test_queue_move_to_front():
    a, b, c = (make_label(i, {i, i + 1, i + 2}) for i in (1, 2, 3))
    q = EpochsQueue(3, P3)
    q.enqueue(a)
    q.enqueue(b)
    q.enqueue(c)
    assert q.entries == [c, b, a]
    q.enqueue(a)  # duplicate moves to front, no growth
    assert q.entries == [a, c, b]
    assert len(q) == 3


def test_queue_eviction_at_capacity():
    labels = [make_label(i, {i, i + 1, i + 2}) for i in (1, 2, 3, 4)]
    q = EpochsQueue(3, P3)
    for label in labels:
        q.enqueue(label)
    assert len(q) == 3
    assert labels[0] not in q
    assert q.entries == [labels[3], labels[2], labels[1]]


def test_queue_rejects_bad_capacity():
    with pytest.raises(ValueError):
        EpochsQueue(0, P2)
    # next_label takes at most k labels, so a fuller queue could not be searched
    with pytest.raises(LabelError, match="above k=2"):
        EpochsQueue(3, P2)
    assert EpochsQueue(2, P2).capacity == 2


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6),
    st.lists(st.integers(0, 49), max_size=40),
)
def test_queue_fuzz_distinct_and_bounded(capacity, indices):
    # the 50 labels of k=2, padded to k=6 with four antistings they all share
    domain = [make_label(lab.sting, {*lab.antistings, 34, 35, 36, 37})
              for lab in all_labels(P2)]
    q = EpochsQueue(capacity, LabelParams(6))
    model: list = []  # newest first
    for idx in indices:
        label = domain[idx]
        q.enqueue(label)
        if label in model:
            model.remove(label)
        elif len(model) >= capacity:
            model.pop()
        model.insert(0, label)
        assert q.entries == model
        assert len(q) == len(set(q.entries)) <= capacity


@st.composite
def queue_runs(draw):
    """Enqueues into a small queue: arbitrary new labels, which may evict,
    repeats, which move a label to the front, and ``None`` for the label the
    queue itself generates next.  Stings come from a small pool, so they
    repeat across labels."""
    k = draw(st.sampled_from([2, 3, 4, 8]))
    params = LabelParams(k)
    K = params.universe_size
    capacity = draw(st.integers(1, k))
    stings = draw(st.lists(st.integers(1, K), min_size=1, max_size=3))
    ops: list = []
    for _ in range(draw(st.integers(1, 40))):
        choice = draw(st.integers(0, 3))
        if choice == 0:
            ops.append(None)
        elif choice == 1 and any(ops):
            ops.append(draw(st.sampled_from([op for op in ops if op])))
        else:
            antistings = draw(st.sets(st.integers(1, K), min_size=k, max_size=k))
            ops.append(make_label(draw(st.sampled_from(stings)), antistings))
    return params, capacity, ops


@settings(max_examples=300, deadline=None)
@given(queue_runs())
def test_queue_keeps_the_antisting_union(case):
    params, capacity, ops = case
    q = EpochsQueue(capacity, params)
    for op in ops:
        q.enqueue(q.next_label() if op is None else op)
        held = Counter(a for lab in q.entries for a in lab.antistings)
        assert {x: n for x, n in enumerate(q._counts) if n} == held
        assert q.next_label() == set_scan_next_label(q.entries, params)


def test_queue_counts_its_stings_through_moves_and_evictions():
    shared_a, shared_b = make_label(1, {2, 3}), make_label(1, {4, 5})
    other, fresh = make_label(2, {3, 4}), make_label(3, {1, 5})
    q = EpochsQueue(2, P2)
    # two labels share sting 1; a move to the front, then each of them is
    # evicted in turn, the first while the other still holds sting 1
    for label in [shared_a, shared_b, shared_a, other, fresh, shared_b]:
        q.enqueue(label)
        assert q._stings == Counter(lab.sting for lab in q.entries)
        assert q.next_label() == set_scan_next_label(q.entries, P2)
    assert q.entries == [shared_b, fresh]


@pytest.mark.parametrize("label", [
    Label(1, (0, 2)),  # antisting below 1
    Label(1, (2, 6)),  # antisting above K = 5
    Label(0, (2, 3)),  # sting below 1
    Label(6, (2, 3)),  # sting above K
    Label(1, (2, 3, 4)),  # antistings of a k=3 label
    Label(1, (2,)),
])
def test_queue_rejects_misshapen_label_unchanged(label):
    q = EpochsQueue(1, P2)
    q.enqueue(L_LOW)
    counts, stings = list(q._counts), dict(q._stings)
    with pytest.raises(LabelError):
        q.enqueue(label)
    assert q.entries == [L_LOW]
    assert (q._counts, q._stings) == (counts, stings)
    assert q.next_label() == set_scan_next_label([L_LOW], P2)


def test_queue_checks_a_label_only_when_it_enters(monkeypatch):
    checked = []
    monkeypatch.setattr(timestamps, "check_shape",
                        lambda label, params: checked.append(label))
    q = EpochsQueue(2, P2)
    q.enqueue(L_LOW)
    q.enqueue(L_HIGH)
    q.enqueue(L_LOW)  # a move to the front
    q.next_label()
    assert checked == [L_LOW, L_HIGH]


def test_next_timestamp_increments_seq():
    q = EpochsQueue(2, P2)
    ts = next_timestamp(Timestamp(L_LOW, 3), q, seq_bound=8)
    assert ts == Timestamp(L_LOW, 4)
    assert len(q) == 0  # epoch unchanged, nothing enqueued


def test_next_timestamp_wraps_into_new_epoch():
    q = EpochsQueue(2, P2)
    current = Timestamp(L_LOW, 8)
    ts = next_timestamp(current, q, seq_bound=8)
    assert ts.seq == 0
    assert ts.epoch != L_LOW
    assert precedes_e(current, ts)
    assert L_LOW in q  # retired epoch banked


def test_next_timestamp_dominates_queued_epochs():
    q = EpochsQueue(2, P2)
    rival = make_label(3, {1, 2})
    q.enqueue(rival)
    ts = next_timestamp(Timestamp(L_LOW, 8), q, seq_bound=8)
    assert precedes_e(Timestamp(rival, 8), ts)
    assert precedes_e(Timestamp(L_LOW, 8), ts)


def test_format_parse_roundtrip():
    ts = Timestamp(make_label(4, {1, 4}), 7)
    text = format_timestamp(ts)
    assert text == "((4|1,4);7)"
    assert parse_timestamp(text) == ts
    assert format_timestamp(None) == "_"
    assert parse_timestamp("_") is None
    with pytest.raises(ValueError):
        parse_timestamp("garbage")
