"""Deterministic discrete-event simulator of the asynchronous system model.

n fully connected processors communicate over per-directed-edge bounded
message *sets* (capacity c, non-FIFO): each scheduler step lets one
processor perform a single send or receive.  Sends into a full link evict a
random message from the union; receives may return null even on nonempty
links; messages can be lost spontaneously; processors can crash (always a
minority).  Runs are byte-identical for identical (scenario, seed).
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass, field, asdict

from . import adversary
from .protocol import (QR_REQ, QR_RESP, QW_REQ, WRITER_ID, BoundedReader,
                       BoundedWriter, Message, OracleReader, OracleWriter, ProtocolParams)

# the string escaper json.dumps itself uses (ensure_ascii is on)
_escape = json.encoder.encode_basestring_ascii


class ScenarioError(ValueError):
    """Invalid scenario configuration."""


@dataclass
class ScenarioConfig:
    n: int
    seed: int
    steps: int
    writes: int
    c: int = 1
    r: int = 64
    k_override: int = 0
    loss_prob: float = 0.0
    corruption: str = adversary.NONE
    protocol: str = "bounded"
    crashes: list[tuple[int, int]] = field(default_factory=list)  # (step, pid)
    read_retry_cap: int = 64
    read_backoff: int = 2

    def validate(self) -> None:
        try:  # the protocol owns the rules for n, c, r and k_override
            ProtocolParams(self.n, self.c, self.r, self.k_override)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        if self.steps < 1 or self.writes < 0:
            raise ScenarioError("steps must be >= 1 and writes >= 0")
        if self.read_backoff < 0:
            raise ScenarioError("read_backoff must be >= 0")
        if self.read_retry_cap < 1:
            raise ScenarioError("read_retry_cap must be >= 1")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ScenarioError("loss_prob must be in [0, 1) to preserve fairness")
        if self.corruption not in adversary.MODES:
            raise ScenarioError(f"unknown corruption mode {self.corruption!r}")
        if self.protocol not in PROTOCOLS:
            raise ScenarioError(f"unknown protocol {self.protocol!r}")
        modes = PROTOCOLS[self.protocol][2]
        if self.corruption not in modes:
            raise ScenarioError(
                f"corruption {self.corruption!r} has no {self.protocol} meaning, "
                f"want one of {', '.join(modes)}"
            )
        crashing = set()
        for step, pid in self.crashes:
            if not 0 <= pid < self.n:
                raise ScenarioError(f"crash of unknown processor {pid}")
            if step < 0:
                raise ScenarioError(f"crash of processor {pid} at negative step {step}")
            if pid in crashing:
                raise ScenarioError(f"processor {pid} is scheduled to crash twice")
            crashing.add(pid)
        if len(crashing) >= (self.n + 1) // 2:
            raise ScenarioError(
                "crash schedule must keep a majority of processors alive"
            )


_FIELDS = dataclasses.fields(ScenarioConfig)
REQUIRED_KEYS = tuple(
    f.name for f in _FIELDS
    if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
)
# the annotations are strings under postponed evaluation; crashes has its
# own parser
_KEY_TYPES = {f.name: {"int": int, "float": float, "str": str}.get(f.type)
              for f in _FIELDS}


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse the flat ``key = value`` format, one key per ScenarioConfig field."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_TYPES:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ScenarioError(f"line {lineno}: repeated key {key!r}")
        raw[key] = value
    for key in REQUIRED_KEYS:
        if key not in raw:
            raise ScenarioError(f"missing required config key {key!r}")
    kwargs = {}
    for key, value in raw.items():
        if key == "crashes":
            kwargs[key] = _parse_crashes(value)
        else:
            try:
                kwargs[key] = _KEY_TYPES[key](value.strip('"'))
            except ValueError:
                raise ScenarioError(f"bad value for {key!r}: {value!r}") from None
    config = ScenarioConfig(**kwargs)
    config.validate()
    return config


def _parse_crashes(value: str) -> list[tuple[int, int]]:
    crashes = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            pid, step = chunk.split("@")
            crashes.append((int(step), int(pid)))
        except ValueError:
            raise ScenarioError(f"bad crash entry {chunk!r}, want pid@step") from None
    return sorted(crashes)


def scenario_to_dict(config: ScenarioConfig) -> dict:
    d = asdict(config)
    d["crashes"] = [f"{pid}@{step}" for step, pid in sorted(config.crashes)]
    return d


# ---------------------------------------------------------------------------


def _below(getrandbits, n: int) -> int:
    """A uniform int in [0, n), n > 0, drawn as ``random.Random`` draws it.

    This is CPython's ``Random._randbelow_with_getrandbits``, behind
    ``choice``, ``randrange`` and ``shuffle``: the scheduler draws only
    through this loop and ``random()``, so a run depends on the Mersenne
    Twister output alone and not on ``random``'s pure-Python wrappers.
    ``Simulation.run`` writes the loop out at its three hot draws.
    """
    k = n.bit_length()  # not (n - 1): n can be 1, and that still draws
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class Simulation:
    """One seeded run: owns all processor state, link sets, and the trace."""

    def __init__(self, config: ScenarioConfig, audit: bool = False):
        config.validate()
        self.config = config
        self.params = ProtocolParams(config.n, config.c, config.r, config.k_override)
        self.rng = random.Random(config.seed)
        self.step_count = 0
        # the trace: a header embedding the config, then one JSON event per line
        self.lines = [json.dumps({"type": "header", "config": scenario_to_dict(config)},
                                 sort_keys=True)]
        # the pids not crashed, ascending: each round of the schedule is a
        # shuffle of this list
        self._live = list(range(config.n))
        # latest first, so the next crash due is popped off the end
        self._pending_crashes = sorted(config.crashes, reverse=True)

        n = config.n
        self.links: dict[tuple[int, int], list[Message]] = {
            (i, j): [] for i in range(n) for j in range(n) if i != j
        }
        # the same link lists by destination, in sender order: the link
        # s -> j is self._inbound[j][s - (s > j)]
        self._inbound = [[self.links[(i, j)] for i in range(n) if i != j]
                         for j in range(n)]
        self.outboxes: list[list[Message]] = [[] for _ in range(n)]
        self._send_toggle = [False] * n
        # the destinations of the requests that each processor's current
        # phase has sent, for the max_phase_requests metric
        self._requested: list[set[int]] = [set() for _ in range(n)]
        self._schedule: list[int] = []
        # the run's measurements by metric name, each updated where it
        # happens; metrics() adds the three it derives
        self.stats = {"writes_completed": 0, "reads_completed": 0, "reads_aborted": 0,
                      "message_sends": 0, "dropped_messages": 0, "completed_phases": 0,
                      "max_phase_requests": 0, "max_phase_responses": 0,
                      "g_violations": [], "g_strict_violations": []}

        writer, reader, modes, potential = PROTOCOLS[config.protocol]
        # the clean start, then the scenario's corruption of it
        self.procs = [writer(self.params)] + [reader(pid, self.params)
                                             for pid in range(1, n)]
        modes[config.corruption](self)
        self.potential = potential(self) if potential is not None else None
        # called as check(pid, msg) after every step, msg being the message
        # sent in that step or None
        self.checks = [self.potential.check] if self.potential is not None else []
        if audit:
            # messages planted or sent since the last audit, plus those still
            # in a link, by id; holding each message keeps a forgery from
            # taking its id
            self._audit_sent = {id(m): m for box in self.links.values() for m in box}
            self.checks.append(self._check_audit)

        self._read_counters = [0] * n
        # the operation each processor runs, None if idle or never invoked
        self._op_ids: list[str | None] = [None] * n
        self._abort_streak = [0] * n
        self._reader_wait = [0] * n

    # -- scheduling ----------------------------------------------------

    def _apply_crashes(self):
        pending, schedule = self._pending_crashes, self._schedule
        while pending and pending[-1][0] <= self.step_count:
            pid = pending.pop()[1]
            self._live.remove(pid)
            if pid in schedule:
                schedule.remove(pid)

    def _poll_client(self, pid: int, proc):
        """Start the next operation of an idle processor, if one is due."""
        if pid == WRITER_ID:
            # the writer is idle only between writes, so every write it
            # invoked has completed
            w = self.stats["writes_completed"] + 1
            if w > self.config.writes:
                return
            op_id, value = f"w{w}", f"v#{w}"
            self._event(pid, "write_invoke", op_id, value=value)
            proc.start_write(value)
        else:
            if self.stats["writes_completed"] >= self.config.writes:
                return  # run is winding down, no fresh reads
            if self._reader_wait[pid] > 0:
                self._reader_wait[pid] -= 1
                return
            self._read_counters[pid] += 1
            op_id = f"p{pid}r{self._read_counters[pid]}"
            self._event(pid, "read_invoke", op_id)
            proc.start_read()
        self._op_ids[pid] = op_id

    def _phase_done(self, pid: int, proc, phase) -> None:
        """Fold the phase that ``proc`` just finished into the phase metrics,
        and record the response of the operation it ended, if any."""
        stats = self.stats
        stats["completed_phases"] += 1
        requested = self._requested[pid]
        if len(requested) > stats["max_phase_requests"]:
            stats["max_phase_requests"] = len(requested)
        requested.clear()
        if len(phase.responses) > stats["max_phase_responses"]:
            stats["max_phase_responses"] = len(phase.responses)
        op_id = self._op_ids[pid]
        if proc.phase is not None or op_id is None:
            return  # the write phase follows, or the start planted the operation
        self._op_ids[pid] = None
        if pid == WRITER_ID:
            stats["writes_completed"] += 1
            self._event(pid, "write_response", op_id)
        elif phase.kind == QR_REQ:  # no view dominated the others
            stats["reads_aborted"] += 1
            backoff = self.config.read_backoff
            self._abort_streak[pid] += 1
            if self._abort_streak[pid] >= self.config.read_retry_cap:
                backoff *= 10
                self._abort_streak[pid] = 0
            self._reader_wait[pid] = backoff
            self._event(pid, "read_response", op_id, abort=True)
        else:
            stats["reads_completed"] += 1
            self._abort_streak[pid] = 0
            self._event(pid, "read_response", op_id, value=phase.payload[1])

    def _event(self, pid: int, kind: str, op_id: str, value: str | None = None,
               abort: bool = False) -> None:
        """Record one event as its trace line.

        The line is the bytes ``json.dumps`` gives the event's dict, keys
        sorted, written from a template: ``kind`` is one of the four event
        names, and a ``value`` that is not a ``str`` raises ``TypeError``.
        """
        if value is not None:
            line = '{"event": "%s", "op_id": %s, "proc": %d, "step": %d, "value": %s}' % (
                kind, _escape(op_id), pid, self.step_count, _escape(value))
        elif abort:
            line = '{"abort": true, "event": "%s", "op_id": %s, "proc": %d, "step": %d}' % (
                kind, _escape(op_id), pid, self.step_count)
        else:
            line = '{"event": "%s", "op_id": %s, "proc": %d, "step": %d}' % (
                kind, _escape(op_id), pid, self.step_count)
        self.lines.append(line)

    # -- the scheduler loop --------------------------------------------

    def run(self) -> dict:
        """Step until every write is done and every live processor is idle,
        or until the step budget runs out.

        Each step lets the next processor of the shuffled round send or
        receive once.  ``self.step_count`` is stored only before the calls
        that read it, and when the loop ends.
        """
        cfg = self.config
        c, loss_prob, writes, steps = cfg.c, cfg.loss_prob, cfg.writes, cfg.steps
        random_, getrandbits = self.rng.random, self.rng.getrandbits
        procs, outboxes, inbound = self.procs, self.outboxes, self._inbound
        toggle, schedule, requested = self._send_toggle, self._schedule, self._requested
        pending, live, checks, stats = self._pending_crashes, self._live, self.checks, self.stats
        sends, drops = stats["message_sends"], stats["dropped_messages"]
        # the getrandbits width of each size the hot draws below take
        bits = [size.bit_length() for size in range(max(cfg.n, c + 1) + 1)]
        # the (i, width) draws of a shuffle of each schedule size
        plans = [[(i, bits[i + 1]) for i in range(size - 1, 0, -1)] for size in range(cfg.n + 1)]
        # the end test: _phase_done alone counts writes, so it is read
        # again only after that call
        winding = stats["writes_completed"] >= writes
        # a phase asks at most its n - 1 peers: once one has, the metric is
        # settled and the destinations are no longer collected
        ceiling = cfg.n - 1
        counting = stats["max_phase_requests"] < ceiling
        step_count = self.step_count
        while step_count < steps:
            step_count += 1
            if pending and pending[-1][0] <= step_count:
                self.step_count = step_count
                self._apply_crashes()
            if not schedule:
                # Round-based fairness floor: every non-crashed processor
                # appears once per shuffled round, so any window of 2 * n
                # steps covers all.  Fisher-Yates, as random.shuffle draws.
                schedule.extend(live)
                for i, k in plans[len(schedule)]:
                    j = getrandbits(k)  # _below(getrandbits, i + 1) written out
                    while j > i:
                        j = getrandbits(k)
                    schedule[i], schedule[j] = schedule[j], schedule[i]
            pid = schedule.pop()
            proc = procs[pid]
            if proc.phase is None:
                self.step_count = step_count
                self._poll_client(pid, proc)

            outbox = outboxes[pid]
            msg = None
            if outbox or proc.phase is not None:
                toggle[pid] = send = not toggle[pid]
                if send:
                    if outbox:
                        msg = outbox.pop(0)
                    else:
                        msg = proc.next_send()
                        if counting:
                            requested[pid].add(msg.dest)
            if msg is not None:
                sends += 1
                if random_() < loss_prob:
                    drops += 1
                else:
                    sender, dest = msg.sender, msg.dest
                    box = inbound[dest][sender - (sender > dest)]
                    box.append(msg)
                    if len(box) > c:
                        # full link: evict a random message from the union
                        box.pop(_below(getrandbits, len(box)))
                        drops += 1
            else:
                # mostly drain nonempty links, but keep null receives possible
                boxes = inbound[pid]
                nonempty = [*filter(None, boxes)]
                if nonempty and random_() < 0.9:
                    size = len(nonempty)
                    k = bits[size]  # _below(getrandbits, size) written out
                    j = getrandbits(k)
                    while j >= size:
                        j = getrandbits(k)
                    box = nonempty[j]
                else:
                    box = boxes[_below(getrandbits, len(boxes))]
                if box:  # else a null message
                    size = len(box)
                    k = bits[size]  # _below(getrandbits, size) written out
                    j = getrandbits(k)
                    while j >= size:
                        j = getrandbits(k)
                    phase = proc.phase
                    reply = proc.on_message(box.pop(j))
                    if reply is not None:
                        outbox.append(reply)
                    if proc.phase is not phase:
                        self.step_count = step_count
                        self._phase_done(pid, proc, phase)
                        winding = stats["writes_completed"] >= writes
                        counting = stats["max_phase_requests"] < ceiling

            if checks:
                self.step_count = step_count
                for check in checks:
                    check(pid, msg)
            if winding and all(procs[i].idle for i in live):
                break
        self.step_count = step_count
        stats["message_sends"], stats["dropped_messages"] = sends, drops
        return self.metrics()

    def _check_audit(self, _pid: int, msg) -> None:
        if msg is not None:
            self._audit_sent[id(msg)] = msg
        in_links = {}
        # raised, not asserted: the audit must hold under python -O too
        for (i, j), box in self.links.items():
            if len(box) > self.config.c:
                raise AssertionError(f"capacity violated on link {(i, j)}")
            for msg in box:
                if self._audit_sent.get(id(msg)) is not msg:
                    raise AssertionError("fabricated message in link")
                in_links[id(msg)] = msg
        # messages that left the links can no longer be forged into them
        self._audit_sent = in_links

    def metrics(self) -> dict:
        return {"steps": self.step_count, **self.stats,
                "epoch_changes": getattr(self.procs[WRITER_ID], "epoch_changes", 0),
                "crashed": [pid for pid in range(self.config.n) if pid not in self._live]}


class Potential:
    """The oracle protocol's potential g, checked after every step.

    g counts the distinct sequence numbers above the writer's ``max_seq``
    held anywhere: by a processor, in a phase's responses or payload, or in
    a message in a link or an outbox.  g must never rise, and it must fall
    in a step where a write's read phase sees a number above the writer's
    own.  ``violations`` and ``strict_violations`` list the steps that
    break either rule, and are the run's ``g_violations`` and
    ``g_strict_violations`` metrics; ``observations`` counts the steps of the
    second kind.
    """

    def __init__(self, sim: Simulation):
        self.sim = sim
        self.writer = sim.procs[WRITER_ID]
        self.violations: list[int] = sim.stats["g_violations"]
        self.strict_violations: list[int] = sim.stats["g_strict_violations"]
        self.observations = 0
        self._phase = self.writer.phase
        self._seq = self.writer.max_seq
        self._g = self.measure()

    def measure(self) -> int:
        sim = self.sim
        seqs: set[int] = set()
        for proc in sim.procs:
            seqs.add(proc.max_seq)
            ph = proc.phase
            if ph is None:
                continue
            if ph.kind == QR_REQ:
                seqs.update(seq for seq, _v in ph.responses.values())
            else:
                seqs.add(ph.payload[0])
        for boxes in (sim.links.values(), sim.outboxes):
            for box in boxes:
                for msg in box:
                    if msg.kind == QW_REQ or msg.kind == QR_RESP:
                        seqs.add(msg.payload[0])
        top = self.writer.max_seq
        return sum(1 for seq in seqs if seq > top)

    def check(self, _pid: int, _msg) -> None:
        g = self.measure()
        writer, step, phase = self.writer, self.sim.step_count, self.writer.phase
        if g > self._g:
            self.violations.append(step)
        # the writer opens its write phase in the call that ends its read
        # phase, so a write phase new since the last step means a read phase
        # ended in this one; that phase saw some max m and moved the writer
        # to max(m, own) + 1
        if (phase is not self._phase and phase is not None and phase.kind == QW_REQ
                and writer.max_seq > self._seq + 1):
            self.observations += 1
            if g >= self._g:
                self.strict_violations.append(step)
        self._phase = phase
        self._seq = writer.max_seq
        self._g = g


# protocol name -> (writer class, reader class, corruption modes, the check
# built on the run's start and called after every step, or None)
PROTOCOLS = {"bounded": (BoundedWriter, BoundedReader, adversary.MODES, None),
             "oracle": (OracleWriter, OracleReader, adversary.ORACLE_MODES, Potential)}


def run_scenario(config: ScenarioConfig, audit: bool = False):
    """Run one scenario; returns (trace_lines, metrics).

    The lines are the simulation's own trace: the header, then each
    invocation/response event as the run recorded it.
    """
    sim = Simulation(config, audit=audit)
    metrics = sim.run()
    return sim.lines, metrics
