"""Timestamps (epoch label + bounded sequence number) and the epochs queue.

A timestamp orders written values: first by the epoch label order, then by
sequence number within one epoch.  ``None`` stands for the absent (bottom)
timestamp and sorts below everything.  The writer tracks recently seen
epochs in a bounded move-to-front queue; when the sequence number hits its
bound the next timestamp opens a fresh epoch dominating the whole queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .labels import (Label, LabelError, LabelParams, check_shape, format_label,
                     next_label_covered, parse_label, precedes_b)


@dataclass(frozen=True)
class Timestamp:
    epoch: Label
    seq: int


MaybeTimestamp = Optional[Timestamp]

_MISSING = object()


def precedes_e(a: MaybeTimestamp, b: MaybeTimestamp) -> bool:
    """Strict timestamp order; bottom precedes every real timestamp."""
    if b is None:
        return False
    if a is None:
        return True
    # precedes_b(x, x) is False, so equal epochs leave only the seq order
    if a.epoch is b.epoch or a.epoch == b.epoch:
        return a.seq < b.seq
    return precedes_b(a.epoch, b.epoch)


def dominates(a: MaybeTimestamp, b: MaybeTimestamp) -> bool:
    """Non-strict: b is bottom, equal to a, or strictly below a."""
    if b is None or a is b:
        return True
    if a is None:
        return False
    # equal epochs: equal or lower seq; else the epoch order alone
    ea, eb = a.epoch, b.epoch
    if ea is eb or ea == eb:
        return b.seq <= a.seq
    return precedes_b(eb, ea)


class EpochsQueue:
    """Bounded move-to-front queue of distinct labels, newest first.

    Re-enqueueing a present label moves it to the head without growing the
    queue; at capacity the oldest label is evicted.  The labels belong to the
    universe of ``params``: a label's shape is checked once, when it enters
    (a bad one raises LabelError and leaves the queue unchanged), and the
    capacity is at most ``params.k``, so a full queue can still be searched.
    For ``next_label`` the queue keeps the union of its antistings:
    ``_counts[x]`` is the number of labels holding x, up to the largest
    antisting ever held, and ``_stings`` maps each sting a label holds to
    the number of labels holding it.  Both change only when a label enters
    or leaves.
    """

    def __init__(self, capacity: int, params: LabelParams):
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        if capacity > params.k:
            raise LabelError(f"queue capacity {capacity} is above k={params.k}")
        self.capacity = capacity
        self.params = params
        # Insertion-ordered dict used as a set: last key = newest.
        self._entries: dict[Label, None] = {}
        self._counts: list[int] = []
        self._stings: dict[int, int] = {}

    def enqueue(self, label: Label) -> None:
        entries = self._entries
        if entries.pop(label, _MISSING) is not _MISSING:  # a move to the front
            entries[label] = None
            return
        check_shape(label, self.params)
        anti = label.antistings
        counts, stings = self._counts, self._stings
        grow = anti[-1] + 1 - len(counts)
        if grow > 0:
            counts += [0] * grow
        for a in anti:
            counts[a] += 1
        sting = label.sting
        stings[sting] = stings.get(sting, 0) + 1
        if len(entries) >= self.capacity:
            oldest = next(iter(entries))
            del entries[oldest]
            for a in oldest.antistings:
                counts[a] -= 1
            left = stings.pop(oldest.sting) - 1
            if left:
                stings[oldest.sting] = left
        entries[label] = None

    def next_label(self) -> Label:
        """``labels.next_label(self.entries, self.params)``, read off the union."""
        return next_label_covered(len(self._entries), self._stings, self._counts, self.params)

    @property
    def entries(self) -> list[Label]:
        """Labels newest first."""
        return list(reversed(self._entries))

    def __len__(self):
        return len(self._entries)

    def __contains__(self, label: Label) -> bool:
        return label in self._entries


def next_timestamp(current: Timestamp, queue: EpochsQueue, seq_bound: int) -> Timestamp:
    """Successor of ``current``: bump the sequence number, or open a new epoch.

    When the sequence number is exhausted the current epoch joins the queue
    and the new epoch is generated above everything the queue holds.  The
    caller must have already folded every competing epoch into the queue.
    """
    if current.seq < seq_bound:
        return Timestamp(current.epoch, current.seq + 1)
    queue.enqueue(current.epoch)
    return Timestamp(queue.next_label(), 0)


def format_timestamp(ts: MaybeTimestamp) -> str:
    """Textual form ``(<label>;<seq>)``; bottom renders as ``_``."""
    if ts is None:
        return "_"
    return "(%s;%d)" % (format_label(ts.epoch), ts.seq)


def parse_timestamp(text: str) -> MaybeTimestamp:
    text = text.strip()
    if text == "_":
        return None
    if not (text.startswith("(") and text.endswith(")")) or ";" not in text:
        raise ValueError(f"bad timestamp literal: {text!r}")
    label_part, seq_part = text[1:-1].rsplit(";", 1)
    return Timestamp(parse_label(label_part), int(seq_part))
