"""Shared test helpers: brute-force oracles and random trace fixtures.

The brute-force check enumerates linearizations respecting real-time order
and register semantics directly; it is deliberately independent of the
checker's write-index characterization so the two can cross-validate.
The suffix scan is the brute-force counterpart of ``find_stabilization``'s
cut computation, and the set-based search is ``next_label``'s counterpart.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional

from stabreg.checker import Trace, find_stabilization
from stabreg.labels import Label, LabelParams, make_label
from stabreg.protocol import INITIAL_VALUE


@dataclass(frozen=True)
class Op:
    kind: str  # "write" | "read"
    value: str
    invoke: int
    response: int


def linearizable_swmr(ops: list[Op], initial: Optional[str] = None) -> bool:
    """Exhaustive search for a legal sequential ordering of the operations.

    ``initial=None``, the default, stands for some initial value that no
    write wrote: each value read but never written is tried in turn (any
    one, if there is none).
    """
    memo: dict[tuple[frozenset, Optional[str]], bool] = {}

    def dfs(remaining: frozenset[Op], current: Optional[str]) -> bool:
        if not remaining:
            return True
        key = (remaining, current)
        if key in memo:
            return memo[key]
        result = False
        for op in remaining:
            # op can go first only if no other remaining op precedes it
            if any(q.response < op.invoke for q in remaining if q is not op):
                continue
            if op.kind == "read":
                if op.value != current:
                    continue
                if dfs(remaining - {op}, current):
                    result = True
                    break
            else:
                if dfs(remaining - {op}, op.value):
                    result = True
                    break
        memo[key] = result
        return result

    if initial is not None:
        return dfs(frozenset(ops), initial)
    written = {op.value for op in ops if op.kind == "write"}
    unwritten = {op.value for op in ops if op.kind == "read"} - written
    return any(dfs(frozenset(ops), value) for value in unwritten or {None})


def make_trace_lines(ops_by_proc: dict[int, list[Op]]) -> list[str]:
    """Serialize per-processor operation streams into JSONL trace lines."""
    events = []
    counter = 0
    for proc, ops in ops_by_proc.items():
        for op in ops:
            counter += 1
            op_id = f"p{proc}op{counter}"
            if op.kind == "write":
                events.append((op.invoke, {"step": op.invoke, "proc": proc,
                                           "event": "write_invoke",
                                           "op_id": op_id, "value": op.value}))
                events.append((op.response, {"step": op.response, "proc": proc,
                                             "event": "write_response",
                                             "op_id": op_id}))
            else:
                events.append((op.invoke, {"step": op.invoke, "proc": proc,
                                           "event": "read_invoke",
                                           "op_id": op_id}))
                events.append((op.response, {"step": op.response, "proc": proc,
                                             "event": "read_response",
                                             "op_id": op_id, "value": op.value}))
    events.sort(key=lambda pair: pair[0])
    return [json.dumps(event) for _t, event in events]


def random_ops(seed: int, max_ops: int = 8) -> dict[int, list[Op]]:
    """Random SWMR history: sequential writer, two sequential readers.

    Read values are drawn from already-invoked writes, the initial value,
    and occasionally a deliberately bogus choice, ``corrupt``, which no write
    wrote either, so both linearizable and non-linearizable histories appear.
    """
    rng = random.Random(seed)
    n_writes = rng.randint(0, min(4, max_ops))
    n_reads = rng.randint(0, max_ops - n_writes)
    # interleave: per-proc streams of (kind, count)
    streams: dict[int, int] = {0: 2 * n_writes}
    reads_left = n_reads
    r1 = rng.randint(0, reads_left)
    streams[1] = 2 * r1
    streams[2] = 2 * (reads_left - r1)

    time = 0
    open_op: dict[int, int] = {}  # proc -> invoke time
    ops_by_proc: dict[int, list[Op]] = {0: [], 1: [], 2: []}
    write_values = []
    while any(streams.values()):
        proc = rng.choice([p for p, left in streams.items() if left > 0])
        streams[proc] -= 1
        time += 1
        if proc not in open_op:
            open_op[proc] = time
            if proc == 0:
                write_values.append(f"v#{len(write_values) + 1}")
        else:
            invoke = open_op.pop(proc)
            if proc == 0:
                ops_by_proc[0].append(Op("write", write_values[len(ops_by_proc[0])],
                                         invoke, time))
            else:
                choices = [INITIAL_VALUE] + write_values
                value = rng.choice(choices)
                if value == INITIAL_VALUE and rng.random() < 0.2:
                    value = "corrupt"  # a second value that no write wrote
                ops_by_proc[proc].append(Op("read", value, invoke, time))
    return {p: ops for p, ops in ops_by_proc.items() if ops}


def all_ops(ops_by_proc: dict[int, list[Op]]) -> list[Op]:
    return [op for ops in ops_by_proc.values() for op in ops]


def suffix(trace: Trace, start: int) -> Trace:
    """The trace from completion index ``start`` on.

    Operations completed earlier, and pending ones, drop out; ``writes``
    stays whole, so a read of an earlier write's value keeps its write index.
    """
    return Trace([op for op in trace.operations if op.rank >= start],
                 trace.completed[start:], trace.writes)


def suffix_scan_atomic_from(trace: Trace):
    """``atomic_from`` by re-checking the suffix from every start in turn.

    A verdict needs a suffix of at least two operations; a shorter trace is
    atomic from 0 exactly when it has no violation.  Quadratic in checks.
    """
    completed = trace.completed
    if len(completed) < 2:
        return None if find_stabilization(trace).violations else 0
    for start in range(len(completed) - 1):
        if not find_stabilization(suffix(trace, start)).violations:
            return start
    return None


def late_stale_trace(operations: int, readers: int = 4, stale_at: float = 0.9,
                     seed: int = 0) -> tuple[list[str], int]:
    """Single-writer trace with one stale read; returns (lines, its cut).

    One writer (processor 0) and ``readers`` readers run sequential
    operations that a seeded scheduler interleaves, one event per time unit,
    until ``operations`` have completed.  Every read returns the last write
    completed before its own response, which is atomic.  Then the first read
    at or after completion rank ``stale_at * operations`` that follows a
    completed write w_j returns w_j's predecessor instead.  It stays flagged
    while the suffix holds w_j or a read that returned w_j or later and
    completed before the stale read began, so the cut is one past the last
    of those.
    """
    rng = random.Random(seed)
    procs = range(readers + 1)
    open_at: dict[int, int] = {}
    done: list[tuple[int, int, int]] = []  # (proc, invoke, response), by response
    time = invoked = 0
    while len(done) < operations:
        time += 1
        proc = rng.choice(procs)
        if proc in open_at:
            done.append((proc, open_at.pop(proc), time))
        elif invoked < operations:
            open_at[proc] = time
            invoked += 1

    values = [INITIAL_VALUE]  # values[w + 1] is the w-th write's value
    widx = []  # per completed operation: the write it wrote or returned
    for proc, _invoke, _response in done:
        if proc == 0:
            values.append(f"v#{len(values)}")
        widx.append(len(values) - 2)

    rank = next(r for r in range(round(stale_at * operations), operations)
                if done[r][0] != 0
                and any(p == 0 and resp < done[r][1] for p, _i, resp in done[:r]))
    invoke = done[rank][1]
    w_j = max(r for r in range(rank) if done[r][0] == 0 and done[r][2] < invoke)
    cut = 1 + max([w_j] + [r for r in range(rank) if done[r][0] != 0
                           and done[r][2] < invoke and widx[r] >= widx[w_j]])
    widx[rank] = widx[w_j] - 1

    ops_by_proc: dict[int, list[Op]] = {p: [] for p in procs}
    for (proc, invoke, response), w in zip(done, widx):
        kind = "write" if proc == 0 else "read"
        ops_by_proc[proc].append(Op(kind, values[w + 1], invoke, response))
    return make_trace_lines(ops_by_proc), cut


def set_scan_next_label(labels: list[Label], params: LabelParams) -> Label:
    """``next_label`` by scanning the universe against a set of blocked stings.

    The same antisting padding, but the sting is the first universe element
    outside the union of the input antistings, preferring one outside the new
    antisting set.  Rebuilds a set of up to k*k elements on every call.
    """
    k = params.k
    K = params.universe_size
    if not labels:
        return make_label(1, range(1, k + 1))
    antistings = {lab.sting for lab in labels}
    for x in range(1, K + 1):
        if len(antistings) == k:
            break
        antistings.add(x)
    blocked = set().union(*(lab.antistings for lab in labels))
    sting = None
    fallback = None
    for x in range(1, K + 1):
        if x in blocked:
            continue
        if fallback is None:
            fallback = x
        if x not in antistings:
            sting = x
            break
    if sting is None:
        sting = fallback
    return make_label(sting, antistings)
