"""State-machine level tests with a perfect synchronous network."""

import pytest

from stabreg.labels import make_label
from stabreg.protocol import (
    INITIAL_VALUE,
    Message,
    BoundedReader,
    BoundedWriter,
    OracleReader,
    OracleWriter,
    ProtocolParams,
    QR_REQ,
    QR_RESP,
    QW_ACK,
    QW_REQ,
    WRITER_ID,
)
from stabreg.timestamps import Timestamp, precedes_e


def make_system(n=3, r=8, k_override=8):
    params = ProtocolParams(n, c=1, r=r, k_override=k_override)
    procs = [BoundedWriter(params)] + [BoundedReader(pid, params) for pid in range(1, n)]
    return params, procs, Finished()


class Finished(list):
    """The phases that processors finished, as (pid, phase), in order."""

    def deliver(self, proc, msg):
        """``proc.on_message(msg)``, noting the phase it finishes, if any."""
        phase = proc.phase
        reply = proc.on_message(msg)
        if proc.phase is not phase:
            self.append((proc.pid, phase))
        return reply

    def result(self, pid):
        """What the last operation of ``pid`` returned, as the simulator
        reads it: a read that ends on its read phase aborted, any other
        operation installed its write phase's (ts, value) payload."""
        phase = next(phase for p, phase in reversed(self) if p == pid)
        return "abort" if phase.kind == QR_REQ else phase.payload[1]


def pump(procs, finished, max_iters=10_000):
    """Deliver every outstanding request instantly until all procs go idle."""
    for _ in range(max_iters):
        for proc in procs:
            msg = proc.next_send()
            guard = 0
            while msg is not None:
                reply = finished.deliver(procs[msg.dest], msg)
                if reply is not None:
                    assert finished.deliver(procs[reply.dest], reply) is None
                msg = proc.next_send()
                guard += 1
                assert guard < 1000, "phase failed to make progress"
        if all(p.idle for p in procs):
            return
    raise AssertionError("system did not quiesce")


def test_derived_parameters():
    params = ProtocolParams(5, c=3, r=64)
    assert params.hidden_epoch_bound == 2 * 5 + 4 * 3 * 5 * 4
    assert params.k == 2 * params.hidden_epoch_bound
    assert params.quorum == 3
    init = params.initial_timestamp()
    assert init.seq == 0
    assert init.epoch == make_label(1, set(range(1, params.k + 1)))


def test_writer_queue_holds_k_labels_of_its_universe():
    params = ProtocolParams(5, c=3, r=64)
    writer = BoundedWriter(params)
    assert writer.epochs.capacity == params.k
    assert writer.epochs.params == params.label_params


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(2)
    with pytest.raises(ValueError):
        ProtocolParams(3, c=0)


def test_clean_write_installs_on_all_replicas():
    params, procs, finished = make_system()
    writer = procs[0]
    writer.start_write("v#1")
    pump(procs, finished)
    assert writer.idle and finished.result(WRITER_ID) == "v#1"
    assert writer.ml.seq == 1
    # the install is guaranteed on a majority, not necessarily everyone
    holders = [p for p in procs if p.value == "v#1"]
    assert len(holders) >= params.quorum
    for proc in holders:
        assert proc.ml == writer.ml


def test_seq_wrap_opens_fresh_epoch():
    params, procs, finished = make_system(r=2)
    writer = procs[0]
    old_epoch = writer.ml.epoch
    for i in range(1, 4):  # third write exhausts seq bound 2
        writer.start_write(f"v#{i}")
        pump(procs, finished)
    assert writer.ml.seq == 0
    assert writer.ml.epoch != old_epoch
    assert writer.epoch_changes == 1
    assert precedes_e(Timestamp(old_epoch, params.r), writer.ml)


def test_writer_overtakes_corrupt_replica():
    params, procs, finished = make_system()
    writer = procs[0]
    rogue = Timestamp(make_label(2, {1, 3, 4, 5, 6, 7, 8, 9}), 5)
    procs[1].ml = rogue
    procs[1].value = "corrupt#1"
    writer.start_write("v#1")
    pump(procs, finished)
    assert precedes_e(rogue, writer.ml)
    assert sum(1 for p in procs if p.value == "v#1") >= params.quorum


def test_replica_adopts_newer_timestamp():
    params, procs, _ = make_system()
    replica = procs[1]
    newer = Timestamp(replica.ml.epoch, 3)
    replica.apply_quorum_write((newer, "fresh"))
    assert replica.ml == newer
    assert replica.cl is None
    assert replica.value == "fresh"


def test_replica_records_canceling_evidence():
    params, procs, _ = make_system()
    replica = procs[1]
    before = replica.ml
    # epoch incomparable with the replica's own: not adoptable, not dismissible
    stranger = Timestamp(make_label(3, {1, 3, 4, 5, 6, 7, 8, 9}), 0)
    replica.apply_quorum_write((stranger, "weird"))
    assert replica.ml == before
    assert replica.value == INITIAL_VALUE
    assert replica.cl == stranger


def test_canceling_evidence_blocks_adoption():
    params, procs, _ = make_system()
    replica = procs[1]
    stranger = Timestamp(make_label(3, {1, 3, 4, 5, 6, 7, 8, 9}), 0)
    replica.cl = stranger
    newer = Timestamp(replica.ml.epoch, 3)  # above ml but not above cl
    replica.apply_quorum_write((newer, "fresh"))
    assert replica.value == INITIAL_VALUE
    assert replica.cl == newer  # the attempt itself becomes the evidence


def test_strictly_old_timestamp_fully_ignored():
    params, procs, _ = make_system()
    replica = procs[1]
    replica.ml = Timestamp(replica.ml.epoch, 5)
    stale = Timestamp(replica.ml.epoch, 2)
    # same epoch: not below in the label order, so it lands in cl
    replica.apply_quorum_write((stale, "old"))
    assert replica.ml.seq == 5
    assert replica.value == INITIAL_VALUE


def test_read_returns_latest_written_value():
    params, procs, finished = make_system()
    procs[0].start_write("v#1")
    pump(procs, finished)
    procs[1].start_read()
    pump(procs, finished)
    assert finished.result(1) == "v#1"


def test_read_aborts_on_incomparable_views():
    params, procs, finished = make_system(n=3)
    a = Timestamp(make_label(2, {1, 3, 4, 5, 6, 7, 8, 9}), 0)
    b = Timestamp(make_label(3, {1, 2, 4, 5, 6, 7, 8, 9}), 0)
    procs[1].ml, procs[1].value = a, "va"
    procs[2].ml, procs[2].value = b, "vb"
    procs[1].start_read()
    # force the quorum to be exactly the two divided replicas
    resp = Message(QR_RESP, procs[1].phase.nonce, 2, 1, procs[2].snapshot())
    finished.deliver(procs[1], resp)
    assert procs[1].idle
    assert finished.result(1) == "abort"


def test_read_writeback_never_downgrades_replica():
    params, procs, _ = make_system()
    reader = procs[1]
    reader.start_read()
    low = Timestamp(reader.ml.epoch, 0)
    reader.phase = None
    reader.ml = Timestamp(reader.ml.epoch, 4)  # newer write arrived meanwhile
    reader.value = "newer"
    reader._begin_phase(QW_REQ, payload=(low, "stale"))
    reader.phase.responses = {0: True, 1: True}
    reader.on_quorum_write_done()
    assert reader.ml.seq == 4
    assert reader.value == "newer"


def test_next_send_round_robins_over_peers_yet_to_respond():
    params = ProtocolParams(5, k_override=8)
    reader, replica = BoundedReader(2, params), BoundedReader(4, params)
    reader.start_read()
    # only the reader itself has answered: the requests cycle over all
    # n - 1 peers in pid order
    assert [reader.next_send().dest for _ in range(8)] == [0, 1, 3, 4, 0, 1, 3, 4]
    nonce = reader.phase.nonce
    assert reader.on_message(Message(QR_RESP, nonce, 4, 2, replica.snapshot())) is None
    # the reader and 4 have responded: the requests cycle over 0, 1 and 3,
    # from the ninth request on (8 % 3 == 2)
    assert [reader.next_send().dest for _ in range(4)] == [3, 0, 1, 3]
    # a response from 1 would end the phase on the quorum of 3 if
    # delivered, so it is set directly; the cycle goes on over 0 and 3
    reader.phase.responses[1] = replica.snapshot()
    assert [reader.next_send().dest for _ in range(3)] == [0, 3, 0]
    assert reader._peers == [0, 1, 3, 4]  # the cycle left the peer list alone


def test_stale_nonce_response_discarded():
    params, procs, _ = make_system()
    writer = procs[0]
    writer.start_write("v#1")
    bogus = Message(QR_RESP, (1, 999), 1, 0, procs[1].snapshot())
    assert writer.on_message(bogus) is None
    assert len(writer.phase.responses) == 1  # only the self response


def test_writer_as_member_banks_foreign_epoch():
    params, procs, _ = make_system()
    writer = procs[0]
    foreign = Timestamp(make_label(2, {1, 3, 4, 5, 6, 7, 8, 9}), 0)
    before = writer.ml
    reply = writer.on_message(Message(QW_REQ, (1, 1), 1, 0, (foreign, "x")))
    assert writer.ml == before  # the writer never adopts
    assert foreign.epoch in writer.epochs
    assert reply == Message(QW_ACK, (1, 1), 0, 1)


@pytest.mark.parametrize("protocol", ["bounded", "oracle"])
def test_on_message_answers_requests_only(protocol):
    params = ProtocolParams(3, k_override=8)
    if protocol == "bounded":
        writer, reader = BoundedWriter(params), BoundedReader(2, params)
    else:
        writer, reader = OracleWriter(params), OracleReader(2, params)
    writer.start_write("v#1")
    nonce = writer.phase.nonce
    # a request gets exactly one reply, to its sender, under its nonce
    reply = reader.on_message(Message(QR_REQ, nonce, 0, 2))
    assert type(reply) is Message
    assert reply == Message(QR_RESP, nonce, 2, 0, reader.snapshot())
    payload = (writer.snapshot()[0], "v#1")
    reply = reader.on_message(Message(QW_REQ, nonce, 0, 2, payload))
    assert type(reply) is Message
    assert reply == Message(QW_ACK, nonce, 2, 0)
    # a response or an ack gets none, also when it ends the phase
    assert writer.on_message(Message(QR_RESP, nonce, 2, 0, reader.snapshot())) is None
    assert writer.phase.kind == QW_REQ
    stale, nonce = nonce, writer.phase.nonce
    assert writer.on_message(Message(QW_ACK, nonce, 2, 0)) is None
    assert writer.idle
    # and so does one under a stale nonce, or with no phase in flight
    writer.start_write("v#2")
    assert writer.on_message(Message(QR_RESP, stale, 1, 0, reader.snapshot())) is None
    assert writer.on_message(Message(QW_ACK, nonce, 1, 0)) is None
    assert len(writer.phase.responses) == 1
    assert reader.on_message(Message(QW_ACK, (2, 1), 1, 2)) is None


def test_write_reports_its_two_phases():
    params, procs, finished = make_system(n=5)
    procs[0].start_write("v#1")
    pump(procs, finished)
    assert [(pid, phase.kind) for pid, phase in finished] == [(0, QR_REQ), (0, QW_REQ)]
    for _pid, phase in finished:
        assert len(phase.responses) == params.quorum


def test_oracle_write_read_cycle():
    params = ProtocolParams(3, k_override=4)
    procs = [OracleWriter(params)] + [OracleReader(pid, params) for pid in (1, 2)]
    finished = Finished()
    procs[1].max_seq = 41  # corrupted high value
    procs[0].start_write("v#1")
    pump(procs, finished)
    assert procs[0].max_seq == 42
    procs[2].start_read()
    pump(procs, finished)
    assert finished.result(2) == "v#1"
    assert procs[2].max_seq == 42
