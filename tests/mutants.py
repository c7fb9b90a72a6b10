"""Named protocol mutants: each breaks one rule of the bounded protocol.

A mutant is a function that takes pytest's ``monkeypatch`` and replaces one
method of ``BoundedReader``, ``BoundedWriter`` or ``EpochsQueue``, or one
name that ``stabreg.protocol`` imports, so the patch is undone when the
test ends.  ``MUTANTS`` maps each name to its function.  A mutant is killed
by a criterion when some run, its witness, passes that criterion with the
protocol as written and fails it under the mutant; the witness tests replay
each witness both ways.

* ``adopt-unconditional``: a reader keeps every write-back, even one below
  a timestamp that reached its replica meanwhile.  Killed by criterion 4,
  witness seed 0: atomic from 0 as written, and under the mutant 13
  violations put ``atomic_from`` at 4480.
* ``enqueue-evicts-newest``: a label that enters a full epochs queue
  evicts the newest entry, not the oldest.  Killed by criterion 3, witness
  m=3, ``static`` hider, seed 0: the finder wins in round 4 = m + 1 as
  written, and under the mutant not within the game's 16 rounds.
* ``next-timestamp-unbanked``: the writer opens a new epoch without first
  entering the current one into its epochs queue.  Survives criteria 4 and
  6 in full; ROADMAP item 1 names the searches that failed to kill it.
"""

import stabreg.protocol
from stabreg.protocol import BoundedReader
from stabreg.timestamps import EpochsQueue, Timestamp


def adopt_unconditional(monkeypatch) -> None:
    def adopt(self, ts, value) -> None:
        self.ml = ts
        self.cl = None
        self.value = value

    monkeypatch.setattr(BoundedReader, "adopt", adopt)


def enqueue_evicts_newest(monkeypatch) -> None:
    enqueue = EpochsQueue.enqueue

    def evicting_newest(self, label) -> None:
        entries = self._entries
        if label not in entries and len(entries) >= self.capacity:
            newest = next(reversed(entries))
            # make the newest entry the oldest, so the real enqueue evicts it
            del entries[newest]
            self._entries = {newest: None, **entries}
        enqueue(self, label)

    monkeypatch.setattr(EpochsQueue, "enqueue", evicting_newest)


def next_timestamp_unbanked(monkeypatch) -> None:
    def next_timestamp(current, queue, seq_bound):
        if current.seq < seq_bound:
            return Timestamp(current.epoch, current.seq + 1)
        return Timestamp(queue.next_label(), 0)

    monkeypatch.setattr(stabreg.protocol, "next_timestamp", next_timestamp)


MUTANTS = {
    "adopt-unconditional": adopt_unconditional,
    "enqueue-evicts-newest": enqueue_evicts_newest,
    "next-timestamp-unbanked": next_timestamp_unbanked,
}
