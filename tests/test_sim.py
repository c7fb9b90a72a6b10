import json
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from stabreg import adversary
from stabreg.checker import find_stabilization, parse_trace
from stabreg.protocol import INITIAL_VALUE, QR_RESP, QW_ACK, QW_REQ, Message, QuorumProcessor
from stabreg.timestamps import Timestamp
from stabreg.sim import (
    Potential,
    ScenarioConfig,
    ScenarioError,
    Simulation,
    _below,
    parse_scenario,
    run_scenario,
    scenario_to_dict,
)

BASE = """
n = 5
seed = 7
steps = 50000
writes = 20
"""


def small_config(**overrides) -> ScenarioConfig:
    config = ScenarioConfig(n=5, seed=7, steps=50_000, writes=20)
    for key, value in overrides.items():
        setattr(config, key, value)
    config.validate()
    return config


def test_parse_scenario_defaults():
    config = parse_scenario(BASE)
    assert (config.n, config.seed, config.steps, config.writes) == (5, 7, 50_000, 20)
    assert config.c == 1
    assert config.r == 64
    assert config.corruption == "none"
    assert config.protocol == "bounded"
    assert config.crashes == []


def test_parse_scenario_full():
    text = BASE + """
c = 3          # link capacity
r = 8
loss_prob = 0.1
corruption = near-wrap
protocol = bounded
crashes = 2@100, 4@250
"""
    config = parse_scenario(text)
    assert config.c == 3
    assert config.loss_prob == pytest.approx(0.1)
    assert config.corruption == "near-wrap"
    assert config.crashes == [(100, 2), (250, 4)]
    # a trailing comma leaves an empty entry, which is skipped
    assert parse_scenario(BASE + "crashes = 2@100,\n").crashes == [(100, 2)]


@pytest.mark.parametrize("text,fragment", [
    ("n = 5\nseed = 1\nsteps = 100", "writes"),
    (BASE + "bogus = 1\n", "unknown key"),
    (BASE + "crashes = 1:100\n", "crash entry"),
    (BASE + "loss_prob = 1.0\n", "loss_prob"),
    (BASE + "crashes = 1@5, 2@5, 3@5\n", "majority"),
    (BASE + "crashes = 2@-5\n", "negative step"),
    (BASE + "crashes = 2@5, 2@9\n", "processor 2 is scheduled to crash twice"),
    (BASE + "corruption = alien\n", "corruption"),
    (BASE + "protocol = paxos\n", "protocol"),
    (BASE + "protocol = oracle\ncorruption = near-wrap\n", "no oracle meaning"),
    (BASE + "protocol = oracle\ncorruption = hidden-epoch\n", "no oracle meaning"),
    (BASE + "k_override = 1\n", "k_override"),
    (BASE + "k_override = -4\n", "k_override"),
    (BASE + "read_backoff = -7\n", "read_backoff"),
    (BASE + "read_retry_cap = -2\n", "read_retry_cap"),
    (BASE + "read_retry_cap = 0\n", "read_retry_cap"),
    (BASE.replace("n = 5", "n = 2"), "n must be"),
    (BASE.replace("n = 5", "n = five"), "bad value for 'n'"),
    (BASE + "crashes = 9@10\n", "crash of unknown processor"),
    (BASE + "c = 0\n", "c must be"),
    (BASE + "r = 0\n", "r must be"),
    (BASE.replace("steps = 50000", "steps = 0"), "steps must be"),
    (BASE.replace("writes = 20", "writes = -1"), "writes >= 0"),
    ("n oops\n", "key = value"),
    (BASE + "n = 7\n", "line 6: repeated key 'n'"),
])
def test_parse_scenario_rejects(text, fragment):
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(text)
    assert fragment in str(excinfo.value)


def test_scenario_text_roundtrips_every_field():
    config = ScenarioConfig(
        n=7, seed=3, steps=1234, writes=9, c=2, r=5, k_override=40,
        loss_prob=0.25, corruption="random", protocol="oracle",
        crashes=[(10, 1), (20, 2)], read_retry_cap=7, read_backoff=3,
    )
    defaults = ScenarioConfig(n=5, seed=0, steps=1, writes=0)
    d = scenario_to_dict(config)
    assert all(value != getattr(defaults, key) for key, value in vars(config).items())
    text = "\n".join(
        f"{key} = {', '.join(value) if key == 'crashes' else value}"
        for key, value in d.items()
    )
    assert parse_scenario(text) == config


def test_scenario_dict_roundtrips_crashes():
    config = small_config(crashes=[(100, 2)])
    d = scenario_to_dict(config)
    assert d["crashes"] == ["2@100"]
    assert d["n"] == 5


def test_run_is_deterministic():
    config = small_config()
    first = run_scenario(config)
    second = run_scenario(small_config())
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_seed_changes_the_run():
    lines_a, _ = run_scenario(small_config())
    lines_b, _ = run_scenario(small_config(seed=8))
    assert lines_a != lines_b


def test_clean_run_is_atomic_from_start():
    lines, metrics = run_scenario(small_config(), audit=True)
    assert metrics["writes_completed"] == 20
    verdict = find_stabilization(parse_trace(lines), metrics)
    assert verdict.atomic_from == 0
    assert not verdict.violations
    assert verdict.stats["writes_before_stabilization"] == 0


def test_header_embeds_config():
    lines, _ = run_scenario(small_config())
    header = json.loads(lines[0])
    assert header["type"] == "header"
    assert header["config"]["n"] == 5
    assert header["config"]["seed"] == 7


# quote, backslash, newline, NUL, a non-ASCII and an astral character
AWKWARD = 'a"b\\c\nd\x00e\u00e9f\U0001f600g'


def test_event_lines_are_the_encoders_bytes():
    shapes = [
        ("write_invoke", {"value": AWKWARD}),
        ("read_invoke", {}),
        ("write_response", {}),
        ("read_response", {"value": AWKWARD}),
        ("read_response", {"abort": True}),
    ]
    for kind, fields in shapes:
        sim = Simulation(small_config())
        sim.step_count = 123456
        sim._event(3, kind, "op" + AWKWARD, **fields)
        expected = {"step": 123456, "proc": 3, "event": kind, "op_id": "op" + AWKWARD,
                    **fields}
        assert sim.lines[1:] == [json.dumps(expected, sort_keys=True)], (kind, fields)
    # a value the template cannot write is refused, not encoded some other way
    sim = Simulation(small_config())
    for value in (1, b"v#1"):
        with pytest.raises(TypeError):
            sim._event(0, "write_invoke", "w1", value=value)
    assert len(sim.lines) == 1  # the header alone


def test_crashed_minority_does_not_block_survivors():
    config = small_config(crashes=[(400, 2), (900, 4)])
    lines, metrics = run_scenario(config, audit=True)
    assert metrics["crashed"] == [2, 4]
    assert metrics["writes_completed"] == config.writes
    trace = parse_trace(lines)
    dangling = [op for op in trace.operations if not op.completed]
    assert all(op.proc in (2, 4) for op in dangling)
    assert find_stabilization(trace, metrics).atomic_from == 0


def test_unsorted_crash_schedule_gives_the_same_trace():
    ordered = run_scenario(small_config(crashes=[(400, 2), (900, 4)]))
    shuffled = run_scenario(small_config(crashes=[(900, 4), (400, 2)]))
    assert shuffled == ordered


def test_audit_catches_a_message_planted_mid_run():
    sim = Simulation(small_config(steps=300), audit=True)
    sim.run()
    sim._check_audit(0, None)
    box = next(box for box in sim.links.values() if box)
    consumed = box.pop()
    fields = (consumed.kind, consumed.nonce, consumed.sender, consumed.dest,
              consumed.payload)
    del consumed
    # unless the audit still holds the consumed message, CPython tends to
    # give the forgery its freed address, and so its id
    box.append(Message(*fields))
    with pytest.raises(AssertionError, match="fabricated message"):
        sim._check_audit(0, None)


def test_audit_catches_an_overfull_link():
    sim = Simulation(small_config(steps=300), audit=True)  # c = 1
    sim.run()
    sim._check_audit(0, None)
    box = next(box for box in sim.links.values() if box)
    box.append(box[0])  # a message the audit has seen, so only the count is wrong
    with pytest.raises(AssertionError, match="capacity violated"):
        sim._check_audit(0, None)


def test_audit_holds_under_python_O():
    # -O strips assert statements, and the audit must still fail
    tests = Path(__file__).resolve().parent
    script = (f"import sys; sys.path[:0] = [{str(tests.parent / 'src')!r}, {str(tests)!r}]; "
              "import test_sim; test_sim.test_audit_catches_a_message_planted_mid_run()")
    result = subprocess.run([sys.executable, "-O", "-c", script],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_checks_run_after_every_step():
    sim = Simulation(small_config(writes=10, loss_prob=0.1, protocol="oracle"),
                     audit=True)
    assert sim.checks == [sim.potential.check, sim._check_audit]
    sent = []
    sim.checks.append(lambda pid, msg: sent.append(msg))
    metrics = sim.run()
    assert len(sent) == metrics["steps"]
    assert sum(msg is not None for msg in sent) == metrics["message_sends"]


def test_below_draws_as_randrange():
    sizes = sorted(set(range(1, 71)) | {
        2 ** j + d for j in range(1, 21) for d in (-1, 0, 1)})
    for seed in range(200):
        a, b = random.Random(seed), random.Random(seed)
        for n in sizes:
            assert _below(a.getrandbits, n) == b.randrange(n), (seed, n)
            assert a.getstate() == b.getstate(), (seed, n)


class TwoDraws:
    """An RNG stand-in with only the two draws the scheduler loop may use."""

    __slots__ = ("random", "getrandbits")

    def __init__(self, rng: random.Random):
        self.random, self.getrandbits = rng.random, rng.getrandbits


@pytest.mark.parametrize("overrides", [
    {"corruption": "random"},
    {"loss_prob": 0.1, "crashes": [(300, 3)]},
    {"protocol": "oracle", "corruption": "random"},
])
def test_run_draws_only_random_and_getrandbits(overrides):
    config = small_config(writes=10, **overrides)
    lines, _metrics = run_scenario(config)
    # the corrupted start may also draw through randint and sample, the loop may not
    sim = Simulation(config)
    sim.rng = TwoDraws(sim.rng)
    sim.run()
    assert sim.lines == lines


def test_lossy_links_still_make_progress():
    config = small_config(loss_prob=0.2, writes=10)
    lines, metrics = run_scenario(config)
    assert metrics["writes_completed"] == 10
    assert metrics["dropped_messages"] > 0


def test_tight_links_overflow():
    config = small_config(c=1, writes=10)
    _, metrics = run_scenario(config, audit=True)
    assert metrics["writes_completed"] == 10


def test_fairness_window_covers_all_alive():
    for crashes in ([], [(400, 2), (900, 4)]):
        config = small_config(writes=10, crashes=crashes)
        sim = Simulation(config)
        history = []
        sim.checks.append(lambda pid, _msg: history.append(pid))
        sim.run()
        window = 2 * config.n
        # the step of the last crash is history[last - 1]
        last = max((step for step, _pid in crashes), default=1)
        assert len(history) > last + 10 * window
        for step, pid in crashes:
            assert pid not in history[step - 1:], (step, pid)
        alive = set(range(config.n)) - {pid for _step, pid in crashes}
        for start in range(last - 1, len(history) - window):
            assert set(history[start:start + window]) == alive, (crashes, start)


@pytest.mark.parametrize("mode", ["random", "near-wrap", "hidden-epoch"])
def test_corrupted_runs_recover(mode):
    config = small_config(corruption=mode, r=8, writes=15, steps=200_000)
    lines, metrics = run_scenario(config, audit=True)
    assert metrics["writes_completed"] == 15
    verdict = find_stabilization(parse_trace(lines), metrics)
    assert verdict.atomic_from is not None


def test_corruption_modes_overwrite_the_clean_start():
    # the traces do not show labels, so a lost epoch or evidence plant
    # can leave the golden hashes unchanged: check the start state itself
    starts = {mode: [Simulation(small_config(corruption=mode, c=2, r=8, seed=seed))
                     for seed in range(4)]
              for mode in ("none", "random", "near-wrap", "hidden-epoch")}
    clean = starts["none"][0]
    initial = clean.params.initial_timestamp()
    assert all(p.ml == initial and p.value == INITIAL_VALUE for p in clean.procs)
    assert not any(clean.links.values())
    for sim in starts["random"]:
        assert [p.value for p in sim.procs] == [f"corrupt#{i}" for i in range(5)]
        assert all(p.ml != initial for p in sim.procs)
    assert any(len(sim.procs[0].epochs) for sim in starts["random"])
    assert any(p.cl is not None for sim in starts["random"] for p in sim.procs[1:])
    assert any(any(sim.links.values()) for sim in starts["random"])
    for sim in starts["near-wrap"]:
        assert all(p.ml == Timestamp(initial.epoch, 8) for p in sim.procs)
    for sim in starts["hidden-epoch"]:
        assert all(len(box) == 2 for box in sim.links.values())
    oracle = Simulation(small_config(protocol="oracle", corruption="random"))
    assert any(p.max_seq for p in oracle.procs)


def test_no_response_under_nonce_0_enters_a_phase(monkeypatch):
    # forgeries carry nonce 0 and a processor's first phase has nonce 1:
    # neither a forged QR_RESP nor the QW_ACK to a forged QW_REQ may count
    # for a phase in flight
    delivered = {QR_RESP: 0, QW_ACK: 0}
    entered = []
    on_message = QuorumProcessor.on_message

    def recording(proc, msg):
        phase = proc.phase
        if msg.nonce != 0 or msg.kind not in delivered or phase is None:
            return on_message(proc, msg)
        delivered[msg.kind] += 1
        before = dict(phase.responses)
        reply = on_message(proc, msg)
        if proc.phase is not phase or phase.responses != before:
            entered.append((proc.pid, msg))
        return reply

    monkeypatch.setattr(QuorumProcessor, "on_message", recording)
    for mode in ("random", "hidden-epoch"):
        for n in (3, 5):
            for c in (1, 2):
                for seed in range(3):
                    run_scenario(small_config(n=n, c=c, r=8, writes=5, steps=20_000,
                                              corruption=mode, seed=seed))
    assert not entered, entered[:3]
    assert all(delivered.values()), delivered


def test_potential_catches_a_rising_potential():
    sim = Simulation(small_config(protocol="oracle", writes=15))
    sim.run()
    assert sim.metrics()["g_violations"] == []
    # a sequence number above the writer's that nothing held before raises g
    sim.links[(1, 2)].append(Message(QW_REQ, 0, 1, 2, (10**9, "forged")))
    sim.potential.check(0, None)
    assert sim.metrics()["g_violations"] == [sim.step_count]


def test_potential_catches_a_flat_potential(monkeypatch):
    # in this corrupted cell of acceptance criterion 7 the writer's read
    # phase sees a larger number once; with g pinned, that step must be
    # reported as a strict violation
    config = ScenarioConfig(n=5, seed=5, steps=400_000, writes=50,
                            protocol="oracle", corruption="random")
    monkeypatch.setattr(Potential, "measure", lambda self: 0)
    sim = Simulation(config)
    metrics = sim.run()
    assert sim.potential.observations > 0
    assert metrics["g_strict_violations"]
    assert metrics["g_violations"] == []


def test_every_read_retry_cap_th_abort_waits_ten_backoffs():
    # a reader's read_retry_cap-th abort in a row waits ten times the
    # backoff and starts the count again; the wait is the number of the
    # reader's turns from the abort to its next read
    config = small_config(corruption="random", read_retry_cap=2)
    sim = Simulation(config)
    turns = [0] * config.n
    events = []  # (the stepping processor's turn count, event), in trace order

    def count_turns(pid, _msg):
        turns[pid] += 1
        while len(events) < len(sim.lines) - 1:  # the header is not an event
            events.append((turns[pid], json.loads(sim.lines[len(events) + 1])))

    sim.checks.append(count_turns)
    sim.run()
    waits = []  # (turns waited, the abort's place in its run of aborts)
    for pid in range(1, config.n):
        mine = [(turn, event) for turn, event in events if event["proc"] == pid]
        run = 0
        for (turn, event), (next_turn, next_event) in zip(mine, mine[1:]):
            if event["event"] == "read_response":
                run = run + 1 if event.get("abort") else 0
                if run and next_event["event"] == "read_invoke":
                    waits.append((next_turn - turn - 1, run))
    backoff, cap = config.read_backoff, config.read_retry_cap
    assert waits == [(10 * backoff if run % cap == 0 else backoff, run)
                     for _wait, run in waits]
    assert any(run > cap for _wait, run in waits)  # a count started again


@pytest.mark.parametrize("overrides, aborts", [
    ({}, False),
    ({"corruption": "random"}, True),
    ({"corruption": "hidden-epoch"}, True),
    ({"protocol": "oracle", "corruption": "random"}, False),
], ids=["none", "random", "hidden-epoch", "oracle-random"])
def test_phase_message_bound(overrides, aborts):
    config = small_config(**overrides)
    _, metrics = run_scenario(config, audit=True)
    assert (metrics["reads_aborted"] > 0) == aborts
    # a phase ends on the quorum-th response, and asks only its n - 1 peers;
    # the majority counts the processor itself, so n // 2 peers at least
    n = config.n
    assert metrics["max_phase_responses"] == n // 2 + 1
    assert n // 2 <= metrics["max_phase_requests"] <= n - 1
    # two phases per operation, one for an aborted read
    assert metrics["completed_phases"] == 2 * (
        metrics["writes_completed"] + metrics["reads_completed"]
    ) + metrics["reads_aborted"]


@pytest.mark.parametrize("overrides", [
    {"steps": 60, "seed": 1},  # three phases, none of which asked every peer
    # no phase asked every peer, though one processor's phases did between them
    {"steps": 150, "seed": 11},
    {"n": 3, "steps": 20, "seed": 1},  # two phases, each asked one of two peers
    {},
    {"corruption": "random", "loss_prob": 0.1, "crashes": [(300, 4)]},
    {"protocol": "oracle", "n": 7},
], ids=["short-n5", "phases-n5", "short-n3", "clean", "random-lossy-crash", "oracle-n7"])
def test_max_phase_requests_counts_each_phases_distinct_destinations(monkeypatch, overrides):
    # the destinations of next_send's requests, by the phase that sent them
    sent: dict[int, tuple] = {}
    next_send = QuorumProcessor.next_send

    def recording(proc):
        msg = next_send(proc)
        if msg is not None:
            sent.setdefault(id(proc.phase), (proc.phase, set()))[1].add(msg.dest)
        return msg

    finished = []
    phase_done = Simulation._phase_done

    def recording_done(sim, pid, proc, phase):
        finished.append(phase)
        phase_done(sim, pid, proc, phase)

    monkeypatch.setattr(QuorumProcessor, "next_send", recording)
    monkeypatch.setattr(Simulation, "_phase_done", recording_done)
    config = small_config(**overrides)
    _, metrics = run_scenario(config)
    counts = [len(sent[id(phase)][1]) for phase in finished]
    assert counts, "no phase finished"
    # every finished phase asked at least one peer and at most all n - 1,
    # and the metric is the most any of them asked; replies from an
    # outbox count for none
    assert all(1 <= count <= config.n - 1 for count in counts)
    assert metrics["max_phase_requests"] == max(counts)
    assert metrics["completed_phases"] == len(finished)


@pytest.mark.parametrize("pid", [1, 0], ids=["reader", "writer"])
def test_a_planted_write_back_records_no_operation(monkeypatch, pid):
    def plant(sim):
        # the processor starts inside the write phase of an operation
        # nobody invoked
        proc = sim.procs[pid]
        proc._begin_phase(QW_REQ, payload=(proc.ml, proc.value))
        proc.phase.responses[proc.pid] = True

    monkeypatch.setitem(adversary.MODES, adversary.NONE, plant)
    config = small_config()
    lines, metrics = run_scenario(config)
    events = [json.loads(line) for line in lines[1:]]
    assert all(type(event["op_id"]) is str for event in events)
    parse_trace(lines)
    assert metrics["reads_completed"] == sum(
        event["event"] == "read_response" for event in events)
    assert metrics["completed_phases"] == 1 + 2 * (
        metrics["writes_completed"] + metrics["reads_completed"])
    # the planted phase is not a write: the writer's first real one is w1
    first = next(event for event in events if event["event"] == "write_invoke")
    assert (first["op_id"], first["value"]) == ("w1", "v#1")
    assert metrics["writes_completed"] == config.writes


def test_random_corruption_run_stays_small():
    # a full queue of random k=500 labels, and the labels generated above
    # it, once took 10.6 MB here; per-label frozensets and dense masks
    # were most of it
    config = ScenarioConfig(n=5, c=3, r=1, corruption="random", seed=3,
                            steps=400_000, writes=300)
    tracemalloc.start()
    try:
        metrics = Simulation(config).run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert metrics["writes_completed"] == 300
    assert peak < 6_000_000, f"peak {peak / 1e6:.1f} MB"


def test_run_scenario_holds_one_copy_of_the_trace():
    # each event is kept once, as its encoded line: a list of event dicts
    # beside the lines, or a second encoded copy, would double the peak
    config = ScenarioConfig(n=5, seed=7, steps=400_000, writes=300, c=3)
    tracemalloc.start()
    try:
        lines, metrics = run_scenario(config)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert metrics["writes_completed"] == 300 and len(lines) > 2 * 300
    assert peak < 2 * held, f"peak {peak / held:.2f} times the {held / 1e6:.2f} MB held"
