"""Quorum-replicated register state machines.

Two protocol families share the same two-phase quorum structure (read the
replicas, then install a value on a majority):

* the bounded protocol, whose timestamps are (epoch label, sequence number)
  pairs with canceling-timestamp evidence propagation, able to recover from
  arbitrarily corrupted initial state; and
* the unbounded oracle protocol, which uses plain integer sequence numbers
  and serves as a reference for the quorum machinery.

State machines are pure per-event transition functions: the simulator owns
scheduling and feeds one message at a time, and each message gets at most
one reply, which the simulator queues for sending.  It also owns the
operations: it names them, writes their trace events, and reads each
finished phase off the processor.  An operation ends when its processor
goes idle.  A read aborts when its quorum read phase finds no view that
dominates the others, so the read phase is the last phase it ran; any
other operation ends with a write phase, whose payload is the
``(ts, value)`` it installed.  A nonce is the requester's phase count,
which its reply carries back: it is unbounded and kept outside the
protocol's bounded state, and a forged message carries 0, which no phase
holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse
from typing import Any, NamedTuple, Optional

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
    nonce: int
    sender: int
    dest: int
    payload: Any = None


# _new(Message, (kind, nonce, sender, dest, payload)) is the same Message as
# Message(kind, nonce, sender, dest, payload), built without the Python frame
# of the NamedTuple's generated __new__; the handlers build every request
# and reply with it
_new = tuple.__new__


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
    k_override: int = 0  # 0: derived from n and c

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("n must be >= 3")
        if self.c < 1:
            raise ValueError("c must be >= 1")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.k_override < 0 or self.k_override == 1:
            raise ValueError("k_override must be 0 (derived from n and c) or >= 2")

    @property
    def hidden_epoch_bound(self) -> int:
        return 2 * self.n + 4 * self.c * self.n * (self.n - 1)

    @property
    def k(self) -> int:
        return self.k_override or 2 * self.hidden_epoch_bound

    @property
    def label_params(self) -> LabelParams:
        return LabelParams(self.k)

    @property
    def quorum(self) -> int:
        return self.n // 2 + 1

    def initial_timestamp(self) -> Timestamp:
        return Timestamp(next_label([], self.label_params), 0)


INITIAL_VALUE = "v_init"


class Phase:
    """One in-flight quorum phase with round-robin retransmission.

    ``kind`` is QR_REQ or QW_REQ; ``responses`` maps each pid that has
    answered, the sender included, to its answer; ``rr`` counts the
    requests sent so far.
    """

    __slots__ = ("kind", "payload", "responses", "rr")

    def __init__(self, kind: str, payload: Any = None):
        self.kind = kind
        self.payload = payload
        self.responses: dict[int, Any] = {}
        self.rr = 0


class QuorumProcessor:
    """The quorum client shared by both protocols.

    Every operation is a quorum read phase, then a quorum write phase: the
    writer installs a new timestamp, a reader writes back the dominating one
    it found.  A protocol supplies ``snapshot`` and ``apply_quorum_write``
    (the replica), ``choose`` (the write phase's payload from the read
    phase's responses in pid order, or None to abort a read), and, for
    readers, ``adopt`` (whether the write-back is kept).  ``nonce`` counts
    the phases begun so far and names the current one: a request carries
    it, and its reply comes back under it to the requester alone.
    """

    def __init__(self, pid: int, params: ProtocolParams):
        self.pid = pid
        self.params = params
        self.phase: Optional[Phase] = None
        self.nonce = 0
        self.pending_value: Optional[str] = None
        self._peers = [d for d in range(params.n) if d != pid]
        self._quorum = params.quorum

    # -- operations ----------------------------------------------------

    def start_write(self, value: str) -> None:
        self.pending_value = value
        self.start_read()

    def start_read(self) -> None:
        """Open an operation's quorum read phase; a write opens it too."""
        assert self.phase is None, "one operation at a time per processor"
        self._begin_phase(QR_REQ)
        self.phase.responses[self.pid] = self.snapshot()

    def on_quorum_read_done(self) -> None:
        responses = self.phase.responses
        self.phase = None
        payload = self.choose([*map(responses.__getitem__, sorted(responses))])
        if payload is None:
            return  # the read aborts
        # open the write phase, applying it locally as one's own ack
        self._begin_phase(QW_REQ, payload)
        self.apply_quorum_write(payload)
        self.phase.responses[self.pid] = True

    def on_quorum_write_done(self) -> None:
        ts, value = self.phase.payload
        self.phase = None
        if self.pid != WRITER_ID:
            self.adopt(ts, value)

    # -- phase helpers -------------------------------------------------

    def _begin_phase(self, kind: str, payload=None) -> None:
        self.nonce += 1
        self.phase = Phase(kind, payload)

    def next_send(self) -> Optional[Message]:
        """Next request retransmission for the in-flight phase, if any."""
        ph = self.phase
        if ph is None:
            return None
        responses = ph.responses
        # responses holds the sender itself, so while it holds one answer
        # every peer is pending; pending is never empty, as a live phase
        # has under quorum <= n - 1 answers
        if len(responses) == 1:
            pending = self._peers
        else:
            pending = [*filterfalse(responses.__contains__, self._peers)]
        dest = pending[ph.rr % len(pending)]
        ph.rr += 1
        return _new(Message, (ph.kind, self.nonce, self.pid, dest, ph.payload))

    # -- dispatch ------------------------------------------------------

    def on_message(self, msg: Message) -> Optional[Message]:
        """Take one message; return the one reply to a request, else None."""
        kind = msg.kind
        if kind == QR_REQ:
            return _new(Message, (QR_RESP, msg.nonce, self.pid, msg.sender, self.snapshot()))
        if kind == QW_REQ:
            self.apply_quorum_write(msg.payload)
            return _new(Message, (QW_ACK, msg.nonce, self.pid, msg.sender, None))
        ph = self.phase
        if ph is None or msg.nonce != self.nonce:
            return None  # no phase in flight, or a stale nonce: discard
        if kind == QR_RESP and ph.kind == QR_REQ:
            ph.responses[msg.sender] = msg.payload
            if len(ph.responses) >= self._quorum:
                self.on_quorum_read_done()
        elif kind == QW_ACK and ph.kind == QW_REQ:
            ph.responses[msg.sender] = True
            if len(ph.responses) >= self._quorum:
                self.on_quorum_write_done()
        return None


# ---------------------------------------------------------------------------
# Bounded protocol
# ---------------------------------------------------------------------------


class BoundedWriter(QuorumProcessor):
    """The single writer: discovers competing epochs via quorum reads and its
    epochs queue, then installs a dominating timestamp on a majority."""

    def __init__(self, params: ProtocolParams):
        super().__init__(WRITER_ID, params)
        self.ml: Timestamp = params.initial_timestamp()
        self.value = INITIAL_VALUE
        self.epochs = EpochsQueue(params.k, params.label_params)
        self.epoch_changes = 0

    def snapshot(self):
        # the writer keeps no canceling evidence: its cl slot is always bottom
        return (self.ml, None, self.value)

    def apply_quorum_write(self, payload) -> None:
        ts, _value = payload
        # most writes carry the writer's own ml object: `is` settles
        # them without a call of the dataclass __eq__
        if ts is not self.ml and ts != self.ml:
            self.epochs.enqueue(ts.epoch)

    def choose(self, responses):
        ml, epochs = self.ml, self.epochs
        for ml_i, cl_i, _v in responses:
            if ml_i != ml:
                epochs.enqueue(ml_i.epoch)
            if cl_i is not None and cl_i != ml:
                epochs.enqueue(cl_i.epoch)
        for ml_i, cl_i, _v in responses:
            if not (dominates(ml, ml_i) and dominates(ml, cl_i)):
                epochs.enqueue(ml.epoch)
                self.ml = Timestamp(epochs.next_label(), 0)
                break
        else:
            self.ml = next_timestamp(ml, epochs, self.params.r)
        if self.ml.epoch != ml.epoch:
            self.epoch_changes += 1
        self.value = self.pending_value
        return (self.ml, self.value)  # own member rule: no-op


class BoundedReader(QuorumProcessor):
    """A reader/replica: serves quorum requests, records canceling evidence,
    and performs reads that help complete the maximal visible write."""

    def __init__(self, pid: int, params: ProtocolParams):
        super().__init__(pid, params)
        self.ml: Timestamp = params.initial_timestamp()
        self.cl: MaybeTimestamp = None
        self.value = INITIAL_VALUE

    def snapshot(self):
        return (self.ml, self.cl, self.value)

    def apply_quorum_write(self, payload) -> None:
        ts, value = payload
        ml = self.ml
        if ts is ml:
            # a repeat of the write that set ml, not above it: the last
            # branch, as an epoch never precedes itself
            self.cl = ts
        elif precedes_e(ml, ts) and (self.cl is None or precedes_e(self.cl, ts)):
            self.ml = ts
            self.cl = None
            self.value = value
        elif not precedes_b(ts.epoch, ml.epoch):
            self.cl = ts

    def choose(self, responses):
        for ml_m, _cl_m, v_m in responses:
            for ml_i, cl_i, _v in responses:
                if not (dominates(ml_m, ml_i) and (cl_i is None or dominates(ml_m, cl_i))):
                    break
            else:
                return (ml_m, v_m)
        return None

    def adopt(self, ts, value) -> None:
        # adopt the write-back unless a newer timestamp arrived meanwhile;
        # unconditional assignment would downgrade the replica and break
        # quorum intersection for later reads
        if dominates(ts, self.ml):
            self.ml = ts
            self.cl = None
            self.value = value


# ---------------------------------------------------------------------------
# Unbounded oracle protocol
# ---------------------------------------------------------------------------


class OracleProcessor(QuorumProcessor):
    """Replica of the integer-sequence-number reference protocol."""

    def __init__(self, pid: int, params: ProtocolParams):
        super().__init__(pid, params)
        self.max_seq = 0
        self.value = INITIAL_VALUE

    def snapshot(self):
        return (self.max_seq, self.value)

    def apply_quorum_write(self, payload) -> None:
        seq, value = payload
        if seq > self.max_seq:
            self.max_seq = seq
            self.value = value


class OracleWriter(OracleProcessor):
    def __init__(self, params: ProtocolParams):
        super().__init__(WRITER_ID, params)

    def choose(self, responses):
        self.max_seq = max([s for s, _v in responses] + [self.max_seq]) + 1
        self.value = self.pending_value
        return (self.max_seq, self.value)  # local apply: no-op


class OracleReader(OracleProcessor):
    def choose(self, responses):
        return max(responses, key=lambda sv: sv[0])

    def adopt(self, seq, value) -> None:
        self.apply_quorum_write((seq, value))
