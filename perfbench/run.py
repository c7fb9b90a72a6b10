"""stabreg benchmark: scenario -> trace -> verdict, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  One process, no worker threads.  The run measures
passes of items while the next pass is expected to end within
``--seconds``, checks every output, prints a
report line with every metric that applies to the workload, and last a
result line with exactly the metrics that BENCHMARK.json names:
``end_to_end`` with ``--trace 0``, ``per_layer`` with ``--trace 1``.

With ``--trace 1`` the first half of the time runs untraced and the second
half replays the same passes with every public callable of the layers
wrapped (see ``spans.py``); the spans are written to
``.perfbench/spans-<workload>.bin``.  Per-layer counts and times are means
per item of the traced half.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(SRC))
LAYERS = ("labels", "timestamps", "game", "protocol", "sim", "checker")
SETUP_REPEATS = 15
REFERENCE_EVERY_S = 2.0
REFERENCE_REPEATS = 5
DIGESTS_REPORTED = 64
TAIL_PERCENTILES = (99.9, 99, 95, 90)

clock = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a bad argument)."""


def load_stabreg() -> SimpleNamespace:
    """Import stabreg afresh from ``src``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "stabreg" or m.startswith("stabreg.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    modules = {layer: importlib.import_module(f"stabreg.{layer}") for layer in LAYERS}
    for module in modules.values():
        if Path(module.__file__).resolve().parent != SRC / "stabreg":
            raise BenchError(f"stabreg imported from {module.__file__}, not {SRC}")
    return SimpleNamespace(**modules)


def time_setup(workload) -> tuple[list[float], SimpleNamespace]:
    """Fresh import plus the workload's set-up, several times; the last import is kept."""
    workload.stage()
    times = []
    for _ in range(SETUP_REPEATS):
        started = clock()
        sr = load_stabreg()
        workload.setup(sr)
        times.append(clock() - started)
    return times, sr


def reference_work() -> int:
    """A fixed piece of pure-Python work of about 30 ms, timed between items
    to track the machine's momentary speed.

    It mixes what stabreg spends its time on: integer loops, dict and list
    churn, many small dicts, sorting and JSON.
    """
    count = 0
    for i in range(100_000):
        count += i * i % 7
    table: dict[int, list[int]] = {}
    for i in range(15_000):
        table.setdefault((i * 7919) % 997, []).append(i)
    events = [{"step": i, "proc": i % 5, "op_id": f"p{i % 5}r{i}"} for i in range(6_000)]
    events.sort(key=lambda e: (e["proc"], -e["step"]))
    lines = [json.dumps(e, sort_keys=True) for e in events[:1_500]]
    return count + len(table) + sum(len(json.loads(line)) for line in lines)


class Stats:
    """What one measurement keeps: per-item times, and the items' figures
    folded into totals, so memory does not grow with the item count."""

    def __init__(self):
        self.items = 0
        self.item_s = array("d")
        self.item_start = array("d")
        self.pass_len: list[int] = []
        self.failures: list[dict] = []
        self.refs: list[tuple[float, float]] = []  # (taken at, seconds)
        self.totals: Counter = Counter()  # summed numeric figures
        self.latencies: dict[str, list[int]] = {"write_steps": [], "read_steps": []}
        self.digests: dict[str, str] = {}

    def add(self, item: workloads.Item, started: float, elapsed: float,
            reasons: list[str]) -> None:
        self.items += 1
        self.item_s.append(elapsed)
        self.item_start.append(started)
        if reasons:
            self.failures.append({"item": item.key, "reasons": reasons})
        if not item.figures:
            return  # raised: no output to count
        self.totals["checked_s"] += elapsed
        for key, value in item.figures.items():
            if key in self.latencies:
                self.latencies[key] += value
            elif isinstance(value, (int, float)):
                self.totals[key] += value
        if len(self.digests) < DIGESTS_REPORTED:
            self.digests[item.key] = item.figures["digest"]

    def reference(self) -> None:
        """Time the reference work; the median of a few repeats resists
        momentary stalls."""
        started = clock()
        repeats = []
        for _ in range(REFERENCE_REPEATS):
            t0 = clock()
            reference_work()
            repeats.append(clock() - t0)
        self.refs.append((started, statistics.median(repeats)))

    @property
    def pass_s(self) -> list[float]:
        return self._per_pass(self.item_s)

    @property
    def item_ref(self) -> list[float]:
        """Item times in units of the reference work timed just before and
        just after the item."""
        taken = [t for t, _ in self.refs]
        out = []
        for start, elapsed in zip(self.item_start, self.item_s):
            after = bisect.bisect_right(taken, start)
            local = (self.refs[after - 1][1] + self.refs[after][1]) / 2
            out.append(elapsed / local)
        return out

    @property
    def pass_ref(self) -> list[float]:
        return self._per_pass(self.item_ref)

    def _per_pass(self, values: list[float]) -> list[float]:
        out, i = [], 0
        for n in self.pass_len:
            out.append(sum(values[i:i + n]))
            i += n
        return out


def measure(workload, sr, seed: int, seconds: float, golden: dict,
            tracer: Tracer | None = None) -> Stats:
    """Run whole passes while the next one is expected to end within
    ``seconds``; always at least one."""
    stats = Stats()
    started = clock()
    for pass_items in workload.passes(seed):
        passes = len(stats.pass_len)
        if passes and (clock() - started) * (1 + 1 / passes) > seconds:
            break
        # each pass starts from a collected heap, so garbage left by the
        # previous pass neither lands in its timings nor in peak_rss_mb
        gc.collect()
        for item in pass_items:
            workload.prepare(sr, item)
            if tracer is not None:
                tracer.item = stats.items
            if not stats.refs or clock() - stats.refs[-1][0] >= REFERENCE_EVERY_S:
                stats.reference()
            t0 = clock()
            try:
                out = workload.run(sr, item)
            except Exception:  # an item that raises is a failed item
                elapsed = clock() - t0
                reasons = ["raised: " + traceback.format_exc(limit=-3)]
            else:
                elapsed = clock() - t0
                reasons = workload.check(sr, item, out, golden)
            item.data = out = None
            stats.add(item, t0, elapsed, reasons)
        stats.pass_len.append(len(pass_items))
    stats.reference()
    return stats


# -- metrics ----------------------------------------------------------------


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail(values: list[float]) -> dict | None:
    """Highest listed percentile with at least ten samples above its rank."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100 * n))
        if n - rank >= 10:
            return {"value": nearest_rank(values, pct), "unit": "s",
                    "percentile": pct, "samples": n}
    return None


def end_to_end(stats: Stats, setup_times: list[float]) -> dict:
    totals = stats.totals
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.fmean(stats.pass_s), "s"),
        "item_s_p50": (statistics.median(stats.item_s), "s"),
        "wall_ref": (statistics.fmean(stats.pass_ref), "ref"),
        "item_ref_p50": (statistics.median(stats.item_ref), "ref"),
        "ref_ms": (statistics.median(t for _, t in stats.refs) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_frac": (len(stats.failures) / stats.items, "ratio"),
    }
    if totals["ops"]:
        metrics["ops_per_s"] = (totals["ops"] / totals["checked_s"], "op/s")
    if totals["steps"]:
        metrics["steps_per_s"] = (totals["steps"] / totals["sim_s"], "step/s")
        metrics["msgs_per_op"] = (totals["message_sends"] / totals["ops"], "msg/op")
        for kind in ("write", "read"):
            steps = stats.latencies[f"{kind}_steps"]
            metrics[f"{kind}_steps_p50"] = (nearest_rank(steps, 50), "steps")
            metrics[f"{kind}_steps_p99"] = (nearest_rank(steps, 99), "steps")
    if totals["rounds"]:
        metrics["rounds_per_s"] = (totals["rounds"] / totals["checked_s"], "round/s")
    out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    item_tail = tail(stats.item_s)
    if item_tail:
        out["item_s_tail"] = item_tail
    return out


def per_layer(stats: Stats, tracer: Tracer, overhead_ratio: float) -> dict:
    spans = tracer.summary()
    items = stats.items
    totals = stats.totals

    def span(name):  # a layer the workload never calls has no row
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def calls(name):
        return span(name)["calls"] / items

    def self_s(name):
        return span(name)["self_s"] / items

    def layer_self_s(layer):
        return sum(row["self_s"] for name, row in spans.items()
                   if name.startswith(layer + ".")) / items

    def ratio(num, den):
        return num / den if den else 0.0

    next_label = span("labels.next_label")
    inputs = tracer.next_label_inputs
    reads = totals["reads_completed"] + totals["reads_aborted"]
    c, s = "call/item", "s/item"
    metrics = {
        "labels.next_label.calls": (calls("labels.next_label"), c),
        "labels.next_label.self_s": (self_s("labels.next_label"), s),
        "labels.next_label.mean_us": (
            ratio(next_label["total_s"] * 1e6, next_label["calls"]), "us/call"),
        "labels.next_label.input_len_mean": (
            ratio(sum(inputs), len(inputs)), "label"),
        "labels.precedes_b.calls": (calls("labels.precedes_b"), c),
        "labels.precedes_b.self_s": (self_s("labels.precedes_b"), s),
        "labels.self_s": (layer_self_s("labels"), s),
        "timestamps.precedes_e.calls": (calls("timestamps.precedes_e"), c),
        "timestamps.dominates.calls": (calls("timestamps.dominates"), c),
        "timestamps.next_timestamp.calls": (calls("timestamps.next_timestamp"), c),
        "timestamps.enqueue.calls": (calls("timestamps.enqueue"), c),
        "timestamps.queue_len_max": (tracer.queue_len_max, "label"),
        "timestamps.queue_capacity": (tracer.queue_capacity, "label"),
        "timestamps.self_s": (layer_self_s("timestamps"), s),
        "protocol.on_message.calls": (calls("protocol.on_message"), c),
        "protocol.on_message.self_s": (self_s("protocol.on_message"), s),
        "protocol.next_send.calls": (calls("protocol.next_send"), c),
        "protocol.next_send.self_s": (self_s("protocol.next_send"), s),
        "protocol.quorum_done.calls": (
            calls("protocol.on_quorum_read_done") + calls("protocol.on_quorum_write_done"), c),
        "protocol.read_abort_ratio": (ratio(totals["reads_aborted"], reads), "ratio"),
        "protocol.msgs_per_phase": (
            ratio(totals["message_sends"], totals["completed_phases"]), "msg/phase"),
        "protocol.self_s": (layer_self_s("protocol"), s),
        "sim.run.self_s": (self_s("sim.run"), s),
        "sim.useful_step_ratio": (ratio(
            totals["message_sends"] + span("protocol.on_message")["calls"],
            totals["steps"]), "ratio"),
        "sim.drop_ratio": (
            ratio(totals["dropped_messages"], totals["message_sends"]), "ratio"),
        "sim.setup_s": (span("sim.__init__")["total_s"] / items, s),
        "sim.encode_s": (self_s("sim.run_scenario"), s),
        "checker.find_stabilization.self_s": (self_s("checker.find_stabilization"), s),
        "checker.check_regularity.self_s": (self_s("checker.check_regularity"), s),
        "checker.check_no_inversion.self_s": (self_s("checker.check_no_inversion"), s),
        "checker.check_suffix.calls": (calls("checker.check_suffix"), c),
        "checker.check_suffix_per_verdict": (ratio(
            span("checker.check_suffix")["calls"],
            span("checker.find_stabilization")["calls"]), "call/verdict"),
        "checker.parse_trace.self_s": (self_s("checker.parse_trace"), s),
        "checker.parse_trace.lines_per_s": (
            ratio(totals["lines"], span("checker.parse_trace")["total_s"]), "line/s"),
        "game.play.calls": (calls("game.play"), c),
        "game.finder_step.self_s": (self_s("game.finder_step"), s),
        "game.respond.self_s": (self_s("game.respond"), s),
        "game.rounds_per_game": (
            ratio(totals["rounds"], span("game.play")["calls"]), "round"),
        "trace.items": (items, "item"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# -- running ----------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        golden: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (report, result).

    ``golden`` replaces the contents of golden.json (the self-tests tamper
    with it).
    """
    if not (SRC / "stabreg" / "__init__.py").is_file():
        raise BenchError(f"no stabreg sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if golden is None:
        golden = json.loads((Path(__file__).parent / "golden.json").read_text())
    workload = workloads.make(workload_name, OUT)
    golden = golden.get(workload_name, {})

    setup_times, sr = time_setup(workload)
    budget = seconds / 2 if trace else seconds
    stats = measure(workload, sr, seed, budget, golden)
    report = {"workload": workload_name, "seed": seed, "trace": int(trace),
              "metrics": end_to_end(stats, setup_times)}
    all_stats = [stats]
    if trace:
        tracer = Tracer()
        tracer.install(vars(sr))
        try:
            traced = measure(workload, sr, seed, budget, golden, tracer)
        finally:
            tracer.uninstall()
        common = min(len(stats.pass_len), len(traced.pass_len))
        overhead = sum(traced.pass_ref[:common]) / sum(stats.pass_ref[:common])
        report["layers"] = per_layer(traced, tracer, overhead)
        tracer.write(OUT / f"spans-{workload_name}.bin")
        all_stats.append(traced)
        wanted = spec["per_layer"]
        measured = report["layers"]
    else:
        wanted = spec["end_to_end"]
        measured = report["metrics"]

    attempted = sum(s.items for s in all_stats)
    failures = [f for s in all_stats for f in s.failures]
    report["failures"] = failures
    report["digests"] = stats.digests
    wrong = [m["name"] for m in wanted
             if measured.get(m["name"], {}).get("unit") != m["unit"]]
    if wrong:
        raise BenchError(f"{workload_name} does not measure {', '.join(wrong)} "
                         f"in the unit BENCHMARK.json gives")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": measured[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in report["failures"]:
        print(f"FAILED {failure['item']}: {'; '.join(failure['reasons'])}", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
