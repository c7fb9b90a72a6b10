"""Seeded synthetic single-writer traces for the checker-late workload.

One writer and several readers run sequential operations whose durations
and gaps are drawn from the seed, so operations of different processors
overlap.  Every read returns the value of the last write that completed
before the read's own response, which is atomic with each operation
linearized at its response.  At most one read is then made stale.

A stale read R is picked at a requested completion rank.  With w_j the last
write completed before R was invoked, R returns w_j's predecessor instead.
Two rules of the checker flag it:

* regularity, in every suffix that still holds w_j;
* new-old inversion, in every suffix that still holds a read that returned
  w_j and completed before R was invoked.

No other operation is flagged, so the earliest atomic suffix starts one
past the later of those completions: that is ``expected_atomic_from``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional

INITIAL_VALUE = "v_init"  # the value a register holds before any write
READERS = 4


@dataclass
class SyntheticTrace:
    lines: list[str]
    expected_atomic_from: int
    operations: int


@dataclass
class _Op:
    proc: int
    op_id: str
    invoke: float
    response: float
    value: Optional[str] = None  # written or returned value
    widx: int = -1  # writer order of the written or returned value


def generate(seed: int, operations: int, violation: Optional[float]) -> SyntheticTrace:
    """Trace of exactly ``operations`` completed operations.

    ``violation`` is the completion rank of the stale read as a share of
    ``operations`` (0 <= violation < 1), or None for a clean trace.
    """
    rng = random.Random(seed)
    # mean cycle (duration + gap): writer 5, each reader 4.5
    horizon = 1.2 * operations / (1 / 5 + READERS / 4.5)
    ops: list[_Op] = []
    for proc in range(READERS + 1):
        now, count = rng.uniform(0, 2), 0
        while now < horizon:
            count += 1
            if proc == 0:
                duration, gap, op_id = rng.uniform(2, 6), rng.uniform(0, 2), f"w{count}"
            else:
                duration, gap, op_id = rng.uniform(1, 5), rng.uniform(0, 3), f"p{proc}r{count}"
            ops.append(_Op(proc, op_id, now, now + duration))
            now += duration + gap
    ops.sort(key=lambda op: op.response)
    # per processor the kept operations are a prefix, so alternation holds
    ops = ops[:operations]

    writes = [op for op in ops if op.proc == 0]
    for widx, op in enumerate(writes):
        op.value, op.widx = f"v#{widx + 1}", widx
    latest = -1  # writes and reads are in completion order
    for op in ops:
        if op.proc == 0:
            latest = op.widx
        else:
            op.widx = latest
            op.value = writes[latest].value if latest >= 0 else INITIAL_VALUE

    expected = 0
    if violation is not None:
        expected = _make_stale(ops, writes, round(violation * operations))
    return SyntheticTrace(_lines(seed, operations, violation, ops), expected, len(ops))


def _make_stale(ops: list[_Op], writes: list[_Op], rank: int) -> int:
    """Turn the first suitable read at or after ``rank`` stale; return the cut."""
    for r_rank in range(rank, len(ops)):
        stale = ops[r_rank]
        if stale.proc == 0:
            continue
        before = [w for w in writes if w.response < stale.invoke]
        if not before:
            continue
        w_j = before[-1]
        j = w_j.widx
        stale.widx = j - 1
        stale.value = writes[j - 1].value if j >= 1 else INITIAL_VALUE
        rank_of = {id(op): i for i, op in enumerate(ops)}
        last = rank_of[id(w_j)]
        for i, op in enumerate(ops[:r_rank]):
            if op.proc != 0 and op.response < stale.invoke and op.widx >= j:
                last = max(last, i)
        return last + 1
    raise ValueError("no read after the requested rank can be made stale")


def _lines(seed, operations, violation, ops: list[_Op]) -> list[str]:
    events = []
    for op in ops:
        kind = "write" if op.proc == 0 else "read"
        invoke = {"proc": op.proc, "event": f"{kind}_invoke", "op_id": op.op_id}
        response = {"proc": op.proc, "event": f"{kind}_response", "op_id": op.op_id}
        if kind == "write":
            invoke["value"] = op.value
        else:
            response["value"] = op.value
        events.append((op.invoke, invoke))
        events.append((op.response, response))
    events.sort(key=lambda pair: pair[0])
    header = {"type": "header", "config": {
        "generator": "checker-late", "seed": seed, "operations": operations,
        "violation": violation,
    }}
    lines = [json.dumps(header, sort_keys=True)]
    for step, (_t, event) in enumerate(events):
        event["step"] = step
        lines.append(json.dumps(event, sort_keys=True))
    return lines
