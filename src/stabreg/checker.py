"""Offline atomicity checking of single-writer register traces.

With one sequential writer and pairwise-distinct written values, a trace is
linearizable exactly when (a) every read returns a value that is not older
than the last write completed before the read began and was invoked before
the read ended, (b) reads never invert the writer order across a
happens-before edge, and (c) the reads of values that no write wrote all
return the same value, the register's one initial value.
``find_stabilization`` is the one check: it locates the earliest point in
completed-operation order from which the system behaves like an atomic
register.

``parse_trace`` enforces what the checks rely on and raises ``TraceError``
otherwise: each non-blank line is one JSON object, each event has integer
``proc`` and ``step``, a string ``op_id`` and a string or null ``value``,
and only a read response may carry ``abort``, a boolean; a write invoke
and a read response that does not abort carry a string ``value``; invokes
and responses alternate per processor, a single processor issues every
write, no written value repeats and no ``op_id`` is used twice.  It also fixes the completion order and maps
every read to the writer-order index of the value it returned, once per
trace.

The suffix from completion index s keeps the operations completed at s or
later, and every write keeps its writer-order index.  Its violations only
shrink as s moves right, so each violation has a *cut*: the first s whose
suffix no longer holds it.  For a read at completion index i:

* stale (regularity): 1 + the index of the last write completed before the
  read was invoked;
* read from the future (regularity): 1 + i;
* new-old inversion: 1 + the largest index among reads that completed
  before it was invoked and returned a later write;
* initial value, for a read of a value that no write wrote: 1 + the smaller
  of i and the largest index among reads invoked before it that returned
  another such value.  Overlapping or not, two such reads conflict.

``find_stabilization`` takes the largest cut of one sweep, O(N log N) for
N operations.  The sweep walks the reads in invocation order, which is the
order of ``Trace.operations``, and moves one pointer through the completed
operations: those that ended before the current read began.  A write the
pointer passes is the latest completed write, since the single writer
completes in writer order.  A read it passes enters a staircase: a later
entry always has the higher rank, so an entry whose write index a later
one matches or exceeds can never again be the latest newer read, and is
dropped.  What is left falls in write index and rises in rank, and one
``bisect`` finds the latest read newer than any given one.  For the
initial-value rule the sweep keeps, among the reads of unwritten values
invoked so far, the one completed last and the one completed last with
another value; the largest of these cuts pairs the highest-ranked such
read with the highest-ranked one whose value differs from it.

Violations are listed read by read in invocation order; a read's
regularity violation comes first, then its inversion, then its
initial-value conflict.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Optional

from .protocol import INITIAL_VALUE


class TraceError(ValueError):
    """Structurally malformed trace."""


@dataclass(slots=True)
class Operation:
    op_id: str
    proc: int
    kind: str  # "write" | "read"
    invoke_pos: int
    invoke_step: int
    value: Optional[str] = None  # written value / returned value
    aborted: bool = False
    response_pos: Optional[int] = None
    response_step: Optional[int] = None
    widx: int = -1  # writer-order index for writes; mapping target for reads
    rank: int = -1  # index in Trace.completed; -1 while pending

    @property
    def completed(self) -> bool:
        return self.response_pos is not None


@dataclass
class Violation:
    rule: str
    op_ids: tuple[str, ...]
    detail: str

    def to_dict(self) -> dict:
        return {"rule": self.rule, "ops": list(self.op_ids), "detail": self.detail}


@dataclass
class Verdict:
    atomic_from: Optional[int]  # completed-op index; None = never
    violations: list[Violation]
    stats: dict

    def to_dict(self) -> dict:
        return {
            "atomic_from": self.atomic_from if self.atomic_from is not None else "never",
            "violations": [v.to_dict() for v in self.violations],
            "stats": self.stats,
        }


@dataclass
class Trace:
    operations: list[Operation]  # all, in invocation order
    completed: list[Operation]  # completed ones, in completion order
    writes: list[Operation]  # all writes, in writer order (index = widx)


_decode = json.JSONDecoder().raw_decode

# event kind -> (operation kind, whether the event is an invocation)
_KINDS = {
    "write_invoke": ("write", True),
    "read_invoke": ("read", True),
    "write_response": ("write", False),
    "read_response": ("read", False),
}


def parse_trace(lines) -> Trace:
    """Parse JSONL trace lines into a single-writer trace with reads mapped.

    ``lines`` is any iterable of strings, a text file included; each line is
    decoded as it is reached, a header line is skipped, and the error
    positions count blank and header lines.
    """
    op_ids: set[str] = set()
    order: list[Operation] = []
    completed: list[Operation] = []
    writes: list[Operation] = []
    widx_of: dict[Optional[str], int] = {}  # written value -> writer order
    pending: dict[int, Operation] = {}
    for pos, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            event, end = _decode(line)
        except (json.JSONDecodeError, RecursionError):  # deep nesting
            end = -1
        if end != len(line):
            raise TraceError(f"event {pos}: not valid JSON")
        if type(event) is not dict:
            raise TraceError(f"event {pos}: not a JSON object")
        if event.get("type") == "header":
            continue
        try:
            kind = event["event"]
            proc = event["proc"]
            step = event["step"]
            op_id = event["op_id"]
        except KeyError as exc:
            raise TraceError(f"event {pos}: missing field {exc}") from None
        value = event.get("value")
        if type(proc) is not int or type(step) is not int:
            raise TraceError(f"event {pos}: proc and step must be integers")
        if type(op_id) is not str:
            raise TraceError(f"event {pos}: op_id must be a string")
        if value is not None and type(value) is not str:
            raise TraceError(f"event {pos}: value must be a string or null")
        aborted = event.get("abort", False)
        if type(aborted) is not bool:
            raise TraceError(f"event {pos}: abort must be true or false")
        try:
            op_kind, invoke = _KINDS[kind]
        except (KeyError, TypeError):
            raise TraceError(f"event {pos}: unknown event kind {kind!r}") from None
        if "abort" in event and kind != "read_response":
            raise TraceError(f"event {pos}: a {kind} cannot abort")
        if invoke:
            if proc in pending:
                raise TraceError(
                    f"event {pos}: processor {proc} invoked {op_id} while "
                    f"{pending[proc].op_id} is outstanding"
                )
            if op_id in op_ids:
                raise TraceError(f"event {pos}: op_id {op_id} is used twice")
            op = Operation(op_id, proc, op_kind, pos, step, value)
            if op_kind == "write":
                if value is None:
                    raise TraceError(f"event {pos}: write {op_id} has no value")
                if writes and writes[0].proc != proc:
                    raise TraceError(
                        f"event {pos}: processor {proc} writes, but processor "
                        f"{writes[0].proc} is the writer"
                    )
                if value in widx_of:
                    raise TraceError(
                        f"event {pos}: value {value!r} is written twice"
                    )
                op.widx = widx_of[value] = len(writes)
                writes.append(op)
            op_ids.add(op_id)
            order.append(op)
            pending[proc] = op
        else:
            op = pending.pop(proc, None)
            if op is None or op.op_id != op_id or op.kind != op_kind:
                raise TraceError(
                    f"event {pos}: response {op_id} without matching invocation"
                )
            op.response_pos = pos
            op.response_step = step
            op.rank = len(completed)
            completed.append(op)
            if op_kind == "read":
                if value is None and not aborted:
                    raise TraceError(f"event {pos}: read {op_id} returns no value")
                op.aborted = aborted
                op.value = value
    for op in completed:
        if op.kind == "read":
            op.widx = widx_of.get(op.value, -1)
    return Trace(order, completed, writes)


def _violations(trace: Trace) -> Iterator[tuple[Violation, int]]:
    """Each violation of the trace with its cut, read by read in invocation
    order: a read's regularity violation first, then its inversion, then its
    initial-value conflict."""
    completed, writes = trace.completed, trace.writes
    i = 0  # completed[:i] ended before this read began
    latest: Optional[Operation] = None  # the last write among them
    best: Optional[Operation] = None  # the first read among them with max widx
    # the staircase: -widx rising (widx strictly falling), rank rising
    neg_widx: list[int] = []
    ranks: list[int] = []
    # among the reads of unwritten values (widx -1) invoked so far: the one
    # completed last, and the one completed last with another value
    top: Optional[Operation] = None
    other: Optional[Operation] = None
    for read in trace.operations:
        if read.kind != "read" or read.aborted or read.rank < 0:
            continue  # a write, an aborted or a pending read
        while i < len(completed) and completed[i].response_pos < read.invoke_pos:
            prev = completed[i]
            i += 1
            if prev.kind == "write":
                latest = prev  # the single writer completes in writer order
            elif not prev.aborted:
                if best is None or prev.widx > best.widx:
                    best = prev
                while neg_widx and neg_widx[-1] >= -prev.widx:
                    neg_widx.pop()
                    ranks.pop()
                neg_widx.append(-prev.widx)
                ranks.append(prev.rank)
        if latest is not None and read.widx < latest.widx:
            yield Violation(
                "regularity",
                (read.op_id, latest.op_id),
                f"read {read.op_id} returned {read.value!r} although write "
                f"{latest.op_id} completed before it",
            ), latest.rank + 1
        elif read.widx >= 0 and writes[read.widx].invoke_pos > read.response_pos:
            yield Violation(
                "regularity",
                (read.op_id, writes[read.widx].op_id),
                f"read {read.op_id} returned a value written only later",
            ), read.rank + 1
        if best is not None and read.widx < best.widx:
            j = bisect_left(neg_widx, -read.widx)  # the entries with widx above
            yield Violation(
                "new-old-inversion",
                (best.op_id, read.op_id),
                f"read {read.op_id} returned older value than earlier read "
                f"{best.op_id}",
            ), ranks[j - 1] + 1
        if read.widx < 0:
            partner = top if top is not None and top.value != read.value else other
            if partner is not None:
                yield Violation(
                    "initial-value",
                    (partner.op_id, read.op_id),
                    f"read {read.op_id} returned {read.value!r} but read "
                    f"{partner.op_id} returned {partner.value!r}, and no write "
                    f"wrote either",
                ), min(read.rank, partner.rank) + 1
            if top is None or read.rank > top.rank:
                top, other = read, partner
            elif partner is top and (other is None or read.rank > other.rank):
                other = read


# ``find_stabilization`` is the one check.  The three filters below are
# slices of its violation stream, and their only caller is
# ``perfbench/spans.py``, which wraps them by name; one test pins each to
# its slice.  The benchmark change deletes them, their spans and that test.


def check_regularity(trace: Trace) -> list[Violation]:
    """Reads must return the latest completed write's value, or newer.

    Until a write completes before it begins, a read may return any value
    not written only after it ended: the initial value, a corrupted one, or
    one written before the trace's first completed operation.
    """
    return [v for v, _c in _violations(trace) if v.rule == "regularity"]


def check_no_inversion(trace: Trace) -> list[Violation]:
    """Across a happens-before edge, reads must not go back in writer order."""
    return [v for v, _c in _violations(trace) if v.rule == "new-old-inversion"]


def check_suffix(trace: Trace) -> list[Violation]:
    """Every violation of the trace, read by read in invocation order."""
    return [v for v, _c in _violations(trace)]


def find_stabilization(trace: Trace, metrics: Optional[dict] = None) -> Verdict:
    """Earliest completed-operation index whose suffix has no violation.

    That index is the largest cut of the full trace's violations, 0 if it
    has none.  A verdict needs a suffix of at least two operations, so a cut
    past ``len(completed) - 2`` means never (None).  A trace of fewer than
    two completed operations is atomic from 0 if it has no violation, and
    never otherwise.
    """
    completed = trace.completed
    found = list(_violations(trace))
    cut = max((c for _v, c in found), default=0)
    atomic_from = cut if cut <= max(len(completed) - 2, 0) else None
    stats = {
        "completed_operations": len(completed),
        "writes_before_stabilization": (
            sum(1 for op in completed[:atomic_from] if op.kind == "write")
            if atomic_from is not None
            else None
        ),
        "aborted_reads": sum(
            1 for op in trace.operations if op.kind == "read" and op.aborted
        ),
        # rule (c): the suffix's reads of unwritten values (widx -1) agree
        "initial_value": INITIAL_VALUE if atomic_from is None else next(
            (op.value for op in completed[atomic_from:] if op.widx < 0 and not op.aborted),
            INITIAL_VALUE,
        ),
    }
    if metrics:
        stats["epoch_changes"] = metrics.get("epoch_changes")
    return Verdict(atomic_from, [v for v, _c in found], stats)
