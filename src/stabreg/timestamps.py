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

from .labels import Label, LabelParams, format_label, next_label, parse_label, precedes_b


@dataclass(frozen=True)
class Timestamp:
    epoch: Label
    seq: int


MaybeTimestamp = Optional[Timestamp]

BOTTOM: MaybeTimestamp = None

_MISSING = object()


def precedes_e(a: MaybeTimestamp, b: MaybeTimestamp) -> bool:
    """Strict timestamp order; bottom precedes every real timestamp."""
    if b is None:
        return False
    if a is None:
        return True
    return precedes_b(a.epoch, b.epoch) or (a.epoch == b.epoch and a.seq < b.seq)


def dominates(a: MaybeTimestamp, b: MaybeTimestamp) -> bool:
    """Non-strict: b is bottom, equal to a, or strictly below a."""
    return b is None or a == b or precedes_e(b, a)


class EpochsQueue:
    """Bounded move-to-front queue of distinct labels, newest first.

    Re-enqueueing a present label moves it to the head without growing the
    queue; at capacity the oldest label is evicted.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        # Insertion-ordered dict used as a set: last key = newest.
        self._entries: dict[Label, None] = {}

    def enqueue(self, label: Label) -> None:
        entries = self._entries
        if entries.pop(label, _MISSING) is _MISSING and len(entries) >= self.capacity:
            del entries[next(iter(entries))]  # evict the oldest
        entries[label] = None

    @property
    def entries(self) -> list[Label]:
        """Labels newest first."""
        return list(reversed(self._entries))

    def __len__(self):
        return len(self._entries)

    def __contains__(self, label: Label) -> bool:
        return label in self._entries


def next_timestamp(
    current: Timestamp, queue: EpochsQueue, seq_bound: int, params: LabelParams
) -> Timestamp:
    """Successor of ``current``: bump the sequence number, or open a new epoch.

    When the sequence number is exhausted the current epoch joins the queue
    and the new epoch is generated above everything the queue holds.  The
    caller must have already folded every competing epoch into the queue.
    """
    if current.seq < seq_bound:
        return Timestamp(current.epoch, current.seq + 1)
    queue.enqueue(current.epoch)
    return Timestamp(next_label(queue.entries, params), 0)


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
