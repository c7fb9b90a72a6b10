"""Quorum-replicated register state machines.

Two protocol families share the same two-phase quorum structure (read the
replicas, then install a value on a majority):

* the bounded protocol, whose timestamps are (epoch label, sequence number)
  pairs with canceling-timestamp evidence propagation, able to recover from
  arbitrarily corrupted initial state; and
* the unbounded oracle protocol, which uses plain integer sequence numbers
  and serves as a reference for the quorum machinery.

State machines are pure per-event transition functions: the simulator owns
scheduling, feeds one message at a time, and collects emitted replies.
Phase nonces are simulator plumbing for request/response matching and are
not part of the protocol's bounded state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional

from .labels import Label, LabelParams, next_label, precedes_b
from .timestamps import (
    EpochsQueue,
    MaybeTimestamp,
    Timestamp,
    dominates,
    next_timestamp,
    precedes_e,
)

QR_REQ = "QR_REQ"
QR_RESP = "QR_RESP"
QW_REQ = "QW_REQ"
QW_ACK = "QW_ACK"

WRITER_ID = 0


class Message(NamedTuple):
    kind: str
    nonce: tuple[int, int]
    sender: int
    dest: int
    payload: Any = None


@dataclass(frozen=True)
class ProtocolParams:
    """Global protocol parameters derived from the system model.

    The epochs queue must be able to hold every epoch hideable in one
    configuration: two per processor state plus two per in-flight message
    over the 2*n*(n-1) directed links of capacity c.  The label universe is
    sized so a full queue can still be dominated in one shot.
    """

    n: int
    c: int = 1
    r: int = 64
    k_override: Optional[int] = None

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need n >= 3 processors")
        if self.c < 1 or self.r < 1:
            raise ValueError("need c >= 1 and r >= 1")

    @property
    def hidden_epoch_bound(self) -> int:
        return 2 * self.n + 4 * self.c * self.n * (self.n - 1)

    @property
    def k(self) -> int:
        return self.k_override if self.k_override else 2 * self.hidden_epoch_bound

    @property
    def queue_capacity(self) -> int:
        return self.k

    @property
    def label_params(self) -> LabelParams:
        return LabelParams(self.k)

    @property
    def quorum(self) -> int:
        return self.n // 2 + 1

    def initial_timestamp(self) -> Timestamp:
        return Timestamp(next_label([], self.label_params), 0)


INITIAL_VALUE = "v_init"

# Event recorder signature: (pid, kind, op_id, value)
Recorder = Callable[[int, str, str, Optional[str]], None]


@dataclass
class Phase:
    """One in-flight quorum phase with round-robin retransmission."""

    kind: str  # QR_REQ or QW_REQ
    nonce: tuple[int, int]
    payload: Any = None
    responses: dict[int, Any] = field(default_factory=dict)
    rr: int = 0
    distinct_requests: set[int] = field(default_factory=set)


class QuorumProcessor:
    """Shared quorum plumbing: phase management and request retransmission."""

    def __init__(self, pid: int, params: ProtocolParams, recorder: Recorder):
        self.pid = pid
        self.params = params
        self.recorder = recorder
        self.phase: Optional[Phase] = None
        self._nonce_counter = 0
        self.op_id: Optional[str] = None
        self._peers = [d for d in range(params.n) if d != pid]
        # metrics, reset by the simulator's collectors
        self.phase_log: list[tuple[str, int, int]] = []  # (kind, #req dests, #resp)

    # -- phase helpers -------------------------------------------------

    def _fresh_nonce(self) -> tuple[int, int]:
        self._nonce_counter += 1
        return (self.pid, self._nonce_counter)

    def _begin_phase(self, kind: str, payload=None, self_response=None) -> None:
        self.phase = Phase(kind, self._fresh_nonce(), payload)
        if self_response is not None:
            self.phase.responses[self.pid] = self_response

    def _finish_phase(self) -> None:
        ph = self.phase
        self.phase_log.append((ph.kind, len(ph.distinct_requests), len(ph.responses)))
        self.phase = None

    def next_send(self) -> Optional[Message]:
        """Next request retransmission for the in-flight phase, if any."""
        ph = self.phase
        if ph is None:
            return None
        responses = ph.responses
        pending = [d for d in self._peers if d not in responses]
        if not pending:
            return None
        dest = pending[ph.rr % len(pending)]
        ph.rr += 1
        ph.distinct_requests.add(dest)
        return Message(ph.kind, ph.nonce, self.pid, dest, ph.payload)

    @property
    def idle(self) -> bool:
        return self.phase is None

    # -- dispatch ------------------------------------------------------

    def on_message(self, msg: Message) -> list[Message]:
        kind = msg.kind
        if kind == QR_REQ:
            return [Message(QR_RESP, msg.nonce, self.pid, msg.sender, self.snapshot())]
        if kind == QW_REQ:
            self.apply_quorum_write(msg.payload)
            return [Message(QW_ACK, msg.nonce, self.pid, msg.sender)]
        ph = self.phase
        if ph is None or msg.nonce != ph.nonce:
            return []  # no phase in flight, or a stale nonce: discard
        if kind == QR_RESP and ph.kind == QR_REQ:
            ph.responses[msg.sender] = msg.payload
            if len(ph.responses) >= self.params.quorum:
                self.on_quorum_read_done()
        elif kind == QW_ACK and ph.kind == QW_REQ:
            ph.responses[msg.sender] = True
            if len(ph.responses) >= self.params.quorum:
                self.on_quorum_write_done()
        return []

    # -- hooks ---------------------------------------------------------

    def snapshot(self):
        raise NotImplementedError

    def apply_quorum_write(self, payload) -> None:
        raise NotImplementedError

    def on_quorum_read_done(self) -> None:
        raise NotImplementedError

    def on_quorum_write_done(self) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Bounded protocol
# ---------------------------------------------------------------------------


class BoundedWriter(QuorumProcessor):
    """The single writer: discovers competing epochs via quorum reads and its
    epochs queue, then installs a dominating timestamp on a majority."""

    def __init__(self, params: ProtocolParams, recorder: Recorder,
                 ml: Optional[Timestamp] = None, value: str = INITIAL_VALUE,
                 epochs: Optional[EpochsQueue] = None):
        super().__init__(WRITER_ID, params, recorder)
        self.ml: Timestamp = ml if ml is not None else params.initial_timestamp()
        self.value = value
        self.epochs = epochs if epochs is not None else EpochsQueue(params.queue_capacity)
        self.epoch_changes = 0
        self.pending_value: Optional[str] = None

    def start_write(self, value: str, op_id: str) -> None:
        assert self.idle, "single writer: one write at a time"
        self.op_id = op_id
        self.pending_value = value
        self.recorder(self.pid, "write_invoke", op_id, value)
        self._begin_phase(QR_REQ, self_response=self.snapshot())

    def snapshot(self):
        # the writer keeps no canceling evidence: its cl slot is always bottom
        return (self.ml, None, self.value)

    def apply_quorum_write(self, payload) -> None:
        ts, _value = payload
        if ts != self.ml:
            self.epochs.enqueue(ts.epoch)

    def on_quorum_read_done(self) -> None:
        responses = [self.phase.responses[pid] for pid in sorted(self.phase.responses)]
        self._finish_phase()
        for ml_i, cl_i, _v in responses:
            if ml_i != self.ml:
                self.epochs.enqueue(ml_i.epoch)
            if cl_i is not None and cl_i != self.ml:
                self.epochs.enqueue(cl_i.epoch)
        old_epoch = self.ml.epoch
        if all(
            dominates(self.ml, ml_i) and dominates(self.ml, cl_i)
            for ml_i, cl_i, _v in responses
        ):
            self.ml = next_timestamp(self.ml, self.epochs, self.params.r,
                                     self.params.label_params)
        else:
            self.epochs.enqueue(self.ml.epoch)
            self.ml = Timestamp(next_label(self.epochs.entries, self.params.label_params), 0)
        if self.ml.epoch != old_epoch:
            self.epoch_changes += 1
        self.value = self.pending_value
        self._begin_phase(QW_REQ, payload=(self.ml, self.value))
        self.apply_quorum_write(self.phase.payload)  # own member rule: no-op
        self.phase.responses[self.pid] = True

    def on_quorum_write_done(self) -> None:
        self._finish_phase()
        self.recorder(self.pid, "write_response", self.op_id, None)
        self.op_id = None
        self.pending_value = None


class BoundedReader(QuorumProcessor):
    """A reader/replica: serves quorum requests, records canceling evidence,
    and performs reads that help complete the maximal visible write."""

    def __init__(self, pid: int, params: ProtocolParams, recorder: Recorder,
                 ml: Optional[Timestamp] = None, cl: MaybeTimestamp = None,
                 value: str = INITIAL_VALUE):
        super().__init__(pid, params, recorder)
        self.ml: Timestamp = ml if ml is not None else params.initial_timestamp()
        self.cl: MaybeTimestamp = cl
        self.value = value
        self._writeback: Optional[tuple[Timestamp, str]] = None

    def start_read(self, op_id: str) -> None:
        assert self.idle, "one read at a time per reader"
        self.op_id = op_id
        self.recorder(self.pid, "read_invoke", op_id, None)
        self._begin_phase(QR_REQ, self_response=self.snapshot())

    def snapshot(self):
        return (self.ml, self.cl, self.value)

    def apply_quorum_write(self, payload) -> None:
        ts, value = payload
        if precedes_e(self.ml, ts) and (self.cl is None or precedes_e(self.cl, ts)):
            self.ml = ts
            self.cl = None
            self.value = value
        elif not precedes_b(ts.epoch, self.ml.epoch):
            self.cl = ts

    def on_quorum_read_done(self) -> None:
        candidates = [self.phase.responses[pid] for pid in sorted(self.phase.responses)]
        self._finish_phase()
        chosen = None
        for ml_m, cl_m, v_m in candidates:
            if all(
                dominates(ml_m, ml_i) and (cl_i is None or dominates(ml_m, cl_i))
                for ml_i, cl_i, _v in candidates
            ):
                chosen = (ml_m, v_m)
                break
        if chosen is None:
            self.recorder(self.pid, "read_response", self.op_id, "__abort__")
            self.op_id = None
            return
        self._writeback = chosen
        self._begin_phase(QW_REQ, payload=chosen)
        self.apply_quorum_write(self.phase.payload)
        self.phase.responses[self.pid] = True

    def on_quorum_write_done(self) -> None:
        self._finish_phase()
        ts, value = self._writeback
        # adopt the write-back unless a newer timestamp arrived meanwhile;
        # unconditional assignment would downgrade the replica and break
        # quorum intersection for later reads
        if dominates(ts, self.ml):
            self.ml = ts
            self.cl = None
            self.value = value
        self._writeback = None
        self.recorder(self.pid, "read_response", self.op_id, value)
        self.op_id = None


# ---------------------------------------------------------------------------
# Unbounded oracle protocol
# ---------------------------------------------------------------------------


class OracleProcessor(QuorumProcessor):
    """Replica of the integer-sequence-number reference protocol."""

    def __init__(self, pid: int, params: ProtocolParams, recorder: Recorder,
                 max_seq: int = 0, value: str = INITIAL_VALUE):
        super().__init__(pid, params, recorder)
        self.max_seq = max_seq
        self.value = value
        self.observed_larger = False  # set on writer phase-1 completion
        self._writeback = None

    def snapshot(self):
        return (self.max_seq, self.value)

    def apply_quorum_write(self, payload) -> None:
        seq, value = payload
        if seq > self.max_seq:
            self.max_seq = seq
            self.value = value

    def held_seqs(self) -> list[int]:
        seqs = [self.max_seq]
        if self.phase is not None and self.phase.kind == QR_REQ:
            seqs.extend(s for s, _v in self.phase.responses.values())
        if self.phase is not None and self.phase.kind == QW_REQ:
            seqs.append(self.phase.payload[0])
        return seqs


class OracleWriter(OracleProcessor):
    def __init__(self, params, recorder, max_seq=0, value=INITIAL_VALUE):
        super().__init__(WRITER_ID, params, recorder, max_seq, value)
        self.pending_value: Optional[str] = None

    def start_write(self, value: str, op_id: str) -> None:
        assert self.idle
        self.op_id = op_id
        self.pending_value = value
        self.recorder(self.pid, "write_invoke", op_id, value)
        self._begin_phase(QR_REQ, self_response=self.snapshot())

    def on_quorum_read_done(self) -> None:
        observed = [s for s, _v in self.phase.responses.values()]
        self._finish_phase()
        self.observed_larger = max(observed) > self.max_seq
        self.max_seq = max(observed + [self.max_seq]) + 1
        self.value = self.pending_value
        self._begin_phase(QW_REQ, payload=(self.max_seq, self.value))
        self.phase.responses[self.pid] = True

    def on_quorum_write_done(self) -> None:
        self._finish_phase()
        self.recorder(self.pid, "write_response", self.op_id, None)
        self.op_id = None
        self.pending_value = None


class OracleReader(OracleProcessor):
    def start_read(self, op_id: str) -> None:
        assert self.idle
        self.op_id = op_id
        self.recorder(self.pid, "read_invoke", op_id, None)
        self._begin_phase(QR_REQ, self_response=self.snapshot())

    def on_quorum_read_done(self) -> None:
        candidates = [self.phase.responses[pid] for pid in sorted(self.phase.responses)]
        self._finish_phase()
        best = max(candidates, key=lambda sv: sv[0])
        self._writeback = best
        self._begin_phase(QW_REQ, payload=best)
        self.apply_quorum_write(best)
        self.phase.responses[self.pid] = True

    def on_quorum_write_done(self) -> None:
        self._finish_phase()
        seq, value = self._writeback
        if seq > self.max_seq:
            self.max_seq = seq
            self.value = value
        self._writeback = None
        self.recorder(self.pid, "read_response", self.op_id, value)
        self.op_id = None
