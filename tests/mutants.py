"""Named protocol mutants: each breaks one rule of the bounded protocol.

A mutant is a function that takes pytest's ``monkeypatch`` and replaces one
method of ``BoundedReader`` or ``BoundedWriter``, so the patch is undone
when the test ends.  ``MUTANTS`` maps each name to its function.  A mutant
is killed by a criterion when some run, its witness, passes that criterion
with the protocol as written and fails it under the mutant; the witness
tests replay each witness both ways.

* ``adopt-unconditional``: a reader keeps every write-back, even one below
  a timestamp that reached its replica meanwhile.  Killed by criterion 4,
  witness seed 0: atomic from 0 as written, and under the mutant 13
  violations put ``atomic_from`` at 4480.
"""

from stabreg.protocol import BoundedReader


def adopt_unconditional(monkeypatch) -> None:
    def adopt(self, ts, value) -> None:
        self.ml = ts
        self.cl = None
        self.value = value

    monkeypatch.setattr(BoundedReader, "adopt", adopt)


MUTANTS = {
    "adopt-unconditional": adopt_unconditional,
}
