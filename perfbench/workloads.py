"""The four benchmark workloads.

Each workload turns the run's ``--seed`` into a stream of passes, each a
list of items.  Pass 0 is the workload's golden pass: its inputs are fixed,
so every run re-checks them against ``golden.json``.  An item goes through
three steps, and only ``run`` is timed:

* ``prepare`` builds the item's input (untimed);
* ``run`` calls stabreg's public entry points, as the CLI does;
* ``check`` returns the reasons the output is wrong (empty if right) and
  leaves in ``item.figures`` what the metrics are computed from.

``setup`` is the set-up that ``setup_s`` times, after a fresh import;
``stage`` writes what set-up reads, once and untimed.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import tracegen

clock = time.perf_counter

GOLDEN_SEED = 7


@dataclass
class Item:
    key: str  # names the inputs; golden.json is keyed by it
    params: dict
    data: Any = None  # built by prepare
    figures: dict = field(default_factory=dict)  # filled by check


def digest(lines: list[str], tail: dict) -> str:
    """sha256 of the trace lines followed by one JSON document."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    h.update(json.dumps(tail, sort_keys=True).encode())
    return h.hexdigest()


def _compare_golden(item: Item, golden: dict, found: dict) -> list[str]:
    expected = golden.get(item.key)
    if expected is None:
        return []
    return [f"{name} {found[name]!r} differs from golden {value!r}"
            for name, value in expected.items() if found.get(name) != value]


# ---------------------------------------------------------------------------


class SimWorkload:
    """scenario text -> parse_scenario -> run_scenario -> parse_trace ->
    find_stabilization, one scenario seed per item and per pass."""

    def __init__(self, name: str, scenario: str, atomic_from_zero: bool):
        self.name = name
        self.scenario = scenario
        self.atomic_from_zero = atomic_from_zero

    def passes(self, seed: int) -> Iterator[list[Item]]:
        yield [Item(f"seed={GOLDEN_SEED}", {"seed": GOLDEN_SEED})]
        for i in range(1, 1 << 30):
            scenario_seed = seed * 1000 + i
            yield [Item(f"seed={scenario_seed}", {"seed": scenario_seed})]

    def text(self, scenario_seed: int) -> str:
        return f"seed = {scenario_seed}\n" + self.scenario

    def stage(self) -> None:
        pass

    def setup(self, sr) -> None:
        config = sr.sim.parse_scenario(self.text(GOLDEN_SEED))
        sr.sim.Simulation(config)

    def prepare(self, sr, item: Item) -> None:
        item.data = self.text(item.params["seed"])

    def run(self, sr, item: Item) -> dict:
        started = clock()
        config = sr.sim.parse_scenario(item.data)
        lines, metrics = sr.sim.run_scenario(config)
        simulated = clock()
        trace = sr.checker.parse_trace(lines)
        verdict = sr.checker.find_stabilization(trace, metrics)
        return {"config": config, "lines": lines, "metrics": metrics,
                "trace": trace, "verdict": verdict, "sim_s": simulated - started}

    def check(self, sr, item: Item, out: dict, golden: dict) -> list[str]:
        metrics, verdict, trace = out["metrics"], out["verdict"], out["trace"]
        reasons = []
        if metrics["writes_completed"] < out["config"].writes:
            reasons.append(f"step budget exhausted after "
                           f"{metrics['writes_completed']} writes")
        if verdict.atomic_from is None:
            reasons.append("run never stabilizes")
        elif self.atomic_from_zero and verdict.atomic_from != 0:
            reasons.append(f"clean run atomic only from {verdict.atomic_from}")
        found = {"digest": digest(out["lines"], metrics),
                 "atomic_from": verdict.atomic_from}
        reasons += _compare_golden(item, golden, found)
        done = [op for op in trace.operations if op.completed]
        item.figures = {
            **found,
            "ops": len(done),
            "lines": len(out["lines"]),
            "steps": metrics["steps"],
            "sim_s": out["sim_s"],
            "message_sends": metrics["message_sends"],
            "dropped_messages": metrics["dropped_messages"],
            "completed_phases": metrics["completed_phases"],
            "reads_aborted": metrics["reads_aborted"],
            "reads_completed": metrics["reads_completed"],
            "write_steps": [op.response_step - op.invoke_step
                            for op in done if op.kind == "write"],
            "read_steps": [op.response_step - op.invoke_step
                           for op in done if op.kind == "read" and not op.aborted],
        }
        return reasons


class CheckerWorkload:
    """Synthetic trace lines -> parse_trace -> find_stabilization.

    A pass is five traces: a stale read early, at a quarter, in the middle
    and late, and a clean trace.  The checker re-checks a suffix for every
    start before the violation, so the late trace costs most.  With five
    traces of distinct cost per pass, the median item is the quarter trace.
    """

    name = "checker-late"
    operations = 1000
    positions = (("early", 0.05), ("quarter", 0.25), ("middle", 0.5), ("late", 0.9),
                 ("clean", None))

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: list[Path] = []

    def _pass(self, gen_seed: int) -> list[Item]:
        return [Item(f"seed={gen_seed}:{label}", {"seed": gen_seed, "violation": at})
                for label, at in self.positions]

    def passes(self, seed: int) -> Iterator[list[Item]]:
        yield self._pass(GOLDEN_SEED)
        for i in range(1, 1 << 30):
            yield self._pass(seed * 1000 + i)

    def stage(self) -> None:
        """Write the golden pass's traces as JSONL files, as `stabreg check` reads them."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.files = []
        for item in self._pass(GOLDEN_SEED):
            self.prepare(None, item)
            path = self.out_dir / f"{item.key.replace(':', '-').replace('=', '')}.jsonl"
            path.write_text("\n".join(item.data.lines) + "\n")
            self.files.append(path)

    def setup(self, sr) -> None:
        for path in self.files:
            path.read_text().splitlines()

    def prepare(self, sr, item: Item) -> None:
        item.data = tracegen.generate(item.params["seed"], self.operations,
                                      item.params["violation"])

    def run(self, sr, item: Item) -> dict:
        trace = sr.checker.parse_trace(item.data.lines)
        return {"trace": trace, "verdict": sr.checker.find_stabilization(trace)}

    def check(self, sr, item: Item, out: dict, golden: dict) -> list[str]:
        verdict = out["verdict"]
        expected = item.data.expected_atomic_from
        reasons = []
        if verdict.atomic_from != expected:
            reasons.append(f"atomic_from {verdict.atomic_from} where the "
                           f"generator placed the cut at {expected}")
        found = {"digest": digest(item.data.lines, verdict.to_dict()),
                 "atomic_from": verdict.atomic_from}
        reasons += _compare_golden(item, golden, found)
        item.figures = {**found, "ops": item.data.operations,
                        "lines": len(item.data.lines)}
        return reasons


class GameWorkload:
    """Finder/hider games: m = 1..8 under every hider strategy, one game per
    cell and pass, each with a fresh hider built as `stabreg game` does."""

    name = "game-m8"
    m_values = range(1, 9)
    strategies = ("insert-finder", "max-incomparable", "random-replace", "static")

    def _pass(self, game_seed: int) -> list[Item]:
        return [Item(f"seed={game_seed}:m={m}:{strategy}",
                     {"seed": game_seed, "m": m, "strategy": strategy})
                for m in self.m_values for strategy in self.strategies]

    def passes(self, seed: int) -> Iterator[list[Item]]:
        yield self._pass(GOLDEN_SEED)
        for i in range(1, 1 << 30):
            yield self._pass(seed * 100_000 + i)

    def stage(self) -> None:
        pass

    def setup(self, sr) -> None:
        for item in self._pass(GOLDEN_SEED):
            self.prepare(sr, item)

    def prepare(self, sr, item: Item) -> None:
        p = item.params
        params = sr.labels.LabelParams(2 * p["m"])
        hider = sr.game.make_hider(p["strategy"], p["m"],
                                   random.Random(p["seed"] ^ 0x5EED), params)
        item.data = (hider, params)

    def run(self, sr, item: Item) -> dict:
        hider, params = item.data
        return {"result": sr.game.play(hider, item.params["m"],
                                       seed=item.params["seed"], params=params)}

    def check(self, sr, item: Item, out: dict, golden: dict) -> list[str]:
        result, fmt = out["result"], sr.labels.format_label
        m = item.params["m"]
        reasons = []
        if not result.won or result.winning_round > m + 1:
            reasons.append(f"finder did not win within m + 1 = {m + 1} rounds")
        lines = [json.dumps([r.round, fmt(r.finder_label),
                             fmt(r.response) if r.response else None])
                 for r in result.transcript]
        found = {"digest": digest(lines, {"won": result.won,
                                          "winning_round": result.winning_round}),
                 "winning_round": result.winning_round}
        reasons += _compare_golden(item, golden, found)
        item.figures = {**found, "rounds": result.rounds_played}
        return reasons


CLEAN_N5 = """\
n = 5
steps = 2000000
writes = 1000
c = 3
r = 64
"""

CHURN_FAULTS_N5 = """\
n = 5
steps = 2000000
writes = 1000
c = 3
r = 1
corruption = hidden-epoch
loss_prob = 0.05
crashes = 3@2000, 4@5000
"""


def make(name: str, out_dir: Path):
    if name == "clean-n5":
        return SimWorkload(name, CLEAN_N5, atomic_from_zero=True)
    if name == "churn-faults-n5":
        return SimWorkload(name, CHURN_FAULTS_N5, atomic_from_zero=False)
    if name == "checker-late":
        return CheckerWorkload(out_dir / name)
    if name == "game-m8":
        return GameWorkload()
    raise KeyError(name)


NAMES = ("clean-n5", "churn-faults-n5", "checker-late", "game-m8")
