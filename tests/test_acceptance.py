"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete (without ``-s`` they appear in captured output).
The criteria that take 10 s or more are marked ``slow``; criteria 4 and 8
share their simulation runs through a module fixture.  Criteria 3, 4, 5
and 6 run their grids in the functions ``criterion_3`` … ``criterion_6``,
which return the failures (criterion 6 also the figures its line prints),
so that a harness that patches the protocol can run the same grids as the
tests.
"""

import random
import time

import pytest

from stabreg.checker import find_stabilization, parse_trace
from stabreg.game import make_hider, play, STRATEGIES
from stabreg.labels import (
    LabelParams,
    all_labels,
    incomparable_family,
    next_label,
    precedes_b,
    random_label,
)
from stabreg.protocol import ProtocolParams
from stabreg.sim import ScenarioConfig, Simulation, run_scenario

from helpers import Op, all_ops, linearizable_swmr, make_trace_lines, random_ops
from mutants import MUTANTS


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}")


# -- criterion 1: dominance of the label generator ---------------------------


@pytest.mark.slow
def test_criterion_1_dominance():
    started = time.perf_counter()
    trials_per_k = 100_000
    failures = 0
    for k in (2, 4, 16, 64):
        params = LabelParams(k)
        rng = random.Random(k)
        pool = [random_label(rng, params) for _ in range(2048)]
        pool += incomparable_family(k, params, rng)
        for _ in range(trials_per_k):
            size = rng.randint(0, k)
            sample = rng.sample(pool, size) if size else []
            result = next_label(sample, params)
            for member in sample:
                if not precedes_b(member, result):
                    failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 60.0
    report(1, ok, f"4x{trials_per_k} sampled sets, {failures} failures, "
                  f"{elapsed:.1f}s (budget 60s)")
    assert ok


# -- criterion 2: exhaustive antisymmetry for the smallest universe ----------


def test_criterion_2_antisymmetry():
    started = time.perf_counter()
    labels = list(all_labels(LabelParams(2)))
    bad = sum(
        1
        for a in labels
        for b in labels
        if precedes_b(a, b) and precedes_b(b, a)
    )
    incomparable = sum(
        1
        for a in labels
        for b in labels
        if a != b and not precedes_b(a, b) and not precedes_b(b, a)
    )
    elapsed = time.perf_counter() - started
    ok = len(labels) == 50 and bad == 0 and incomparable > 0 and elapsed < 1.0
    report(2, ok, f"{len(labels)} labels, {bad} symmetric pairs, "
                  f"{incomparable} incomparable ordered pairs, {elapsed:.2f}s")
    assert ok


# -- criterion 3: the guessing game lemma ------------------------------------


def criterion_3(m_values=range(1, 9), strategies=tuple(sorted(STRATEGIES)),
                seeds=range(10_000)):
    """The games of the grid that the finder does not win within m + 1
    rounds, as (m, strategy, seed)."""
    failures = []
    for m in m_values:
        params = LabelParams(2 * m)
        for name in strategies:
            for seed in seeds:
                hider = make_hider(name, m, random.Random(seed ^ 0x5EED), params)
                result = play(hider, m, seed=seed, params=params)
                if not result.won or result.winning_round > m + 1:
                    failures.append((m, name, seed))
    return failures


@pytest.mark.slow
def test_criterion_3_game_lemma():
    started = time.perf_counter()
    failures = len(criterion_3())
    elapsed = time.perf_counter() - started

    # negative control: forgetting half the queue must break the bound
    control_failures = 0
    m = 6
    params = LabelParams(2 * m)
    for seed in range(200):
        hider = make_hider("max-incomparable", m, random.Random(seed), params)
        result = play(hider, m, seed=seed, params=params, queue_capacity=m)
        if not result.won or result.winning_round > m + 1:
            control_failures += 1

    ok = failures == 0 and control_failures > 0 and elapsed < 300.0
    report(3, ok, f"8 m-values x {len(STRATEGIES)} strategies x "
                  f"10000 games, {failures} bound violations, "
                  f"negative control broke {control_failures}/200, "
                  f"{elapsed:.0f}s (budget 300s)")
    assert ok


def test_witness_kills_enqueue_evicts_newest(monkeypatch):
    # the mutant's witness: m=3 against the static hider, seed 0, is won in
    # round m + 1 as written and not in the game's 4(m + 1) rounds under it
    witness = {"m_values": [3], "strategies": ["static"], "seeds": [0]}
    assert criterion_3(**witness) == []
    MUTANTS["enqueue-evicts-newest"](monkeypatch)
    assert criterion_3(**witness) == [(3, "static", 0)]


# -- criteria 4 and 8 share the clean-start runs -----------------------------


def clean_start_grid(seeds=range(50)):
    """Criterion 4's runs, as (seed, metrics, verdict)."""
    runs = []
    for seed in seeds:
        config = ScenarioConfig(
            n=5, seed=seed, steps=2_000_000, writes=1000, c=3, r=64
        )
        lines, metrics = run_scenario(config)
        verdict = find_stabilization(parse_trace(lines), metrics)
        runs.append((seed, metrics, verdict))
    return runs


@pytest.fixture(scope="module")
def clean_start_runs():
    return clean_start_grid()


def criterion_4(runs):
    """The seeds of ``clean_start_grid()``'s runs that are not atomic from
    the start or do not complete their 1000 writes."""
    return [
        seed
        for seed, metrics, verdict in runs
        if verdict.atomic_from != 0
        or verdict.violations
        or metrics["writes_completed"] != 1000
    ]


@pytest.mark.slow
def test_criterion_4_clean_start_atomic(clean_start_runs):
    bad = criterion_4(clean_start_runs)
    ok = not bad
    report(4, ok, f"50 seeds, n=5 c=3 r=64, 1000 writes each, "
                  f"bad seeds: {bad if bad else 'none'}")
    assert ok


def test_witness_kills_adopt_unconditional(monkeypatch):
    # the mutant's witness: seed 0 passes as written and fails under it
    assert criterion_4(clean_start_grid([0])) == []
    MUTANTS["adopt-unconditional"](monkeypatch)
    assert criterion_4(clean_start_grid([0])) == [0]


def criterion_5():
    """The seeds whose run with a crashed minority stalls a survivor, makes
    no progress after the last crash, or is not atomic from the start."""
    bad = []
    for seed in range(20):
        rng = random.Random(seed + 9000)
        crash_pids = rng.sample(range(5), 2)
        config = ScenarioConfig(
            n=5, seed=seed, steps=200_000, writes=50,
            crashes=sorted((rng.randint(500, 3000), pid) for pid in crash_pids),
        )
        lines, metrics = run_scenario(config)
        trace = parse_trace(lines)
        verdict = find_stabilization(trace, metrics)
        # every op a survivor starts completes, except the one the end of
        # the run truncates mid-flight
        crashed = set(crash_pids)
        dangling = [op.proc for op in trace.operations if not op.completed]
        survivors_ok = all(dangling.count(p) <= 1 for p in range(5)
                           if p not in crashed)
        last_crash = max(step for step, _pid in config.crashes)
        progress_ok = any(
            op.completed and op.proc not in crashed
            and op.response_step > last_crash
            for op in trace.operations
        )
        writes_ok = metrics["writes_completed"] == 50 or 0 in crashed
        if not (survivors_ok and progress_ok and writes_ok
                and verdict.atomic_from == 0):
            bad.append(seed)
    return bad


def test_criterion_5_minority_crashes():
    bad = criterion_5()
    ok = not bad
    report(5, ok, f"20 seeds, 2 crashes each, bad seeds: {bad if bad else 'none'}")
    assert ok


# -- criterion 6: stabilization from corrupted states ------------------------


def stabilization_run(config, bound):
    """Why one corrupted-start run fails criterion 6, with its verdict and
    the fraction of the suffix's reads that abort.

    The reason is ``"never"`` if the run does not stabilize, ``"bound"`` if
    more than ``bound`` writes precede stabilization, ``"progress"`` if after
    it a reader completes no read or half the reads abort, and None if the
    run passes.  The fraction is 0 unless the progress check ran.
    """
    lines, metrics = run_scenario(config)
    trace = parse_trace(lines)
    verdict = find_stabilization(trace, metrics)
    if verdict.atomic_from is None:
        return "never", verdict, 0.0
    if verdict.stats["writes_before_stabilization"] > bound:
        return "bound", verdict, 0.0
    # read progress: after stabilization every reader completes a read, and
    # most reads do not abort
    reads = [op for op in trace.completed[verdict.atomic_from:] if op.kind == "read"]
    aborted = sum(op.aborted for op in reads)
    served = {op.proc for op in reads if not op.aborted}
    starved = served != set(range(1, config.n)) or 2 * aborted >= len(reads)
    return "progress" if starved else None, verdict, aborted / max(len(reads), 1)


def criterion_6():
    """The corrupted-start runs that never stabilize, exceed the bound or
    starve a reader after stabilizing, as (n, c, r, mode, seed), and the
    figures criterion 6 reports."""
    seeds = 200
    failures = []
    cells = non_atomic = 0
    worst_ratio = worst_abort = 0.0
    for n in (3, 5):
        for c in (1, 2):
            for r in (8, 64):
                for mode in ("random", "near-wrap", "hidden-epoch"):
                    cells += 1
                    m = ProtocolParams(n, c).hidden_epoch_bound
                    bound = (m + 2) * (r + 1)
                    for seed in range(seeds):
                        config = ScenarioConfig(
                            n=n, seed=seed, steps=600_000, writes=40,
                            c=c, r=r, corruption=mode,
                        )
                        why, verdict, abort_fraction = stabilization_run(config, bound)
                        worst_abort = max(worst_abort, abort_fraction)
                        if why is not None:
                            failures.append((n, c, r, mode, seed))
                            continue
                        non_atomic += verdict.atomic_from > 0
                        worst_ratio = max(worst_ratio,
                                          verdict.stats["writes_before_stabilization"] / bound)
    return failures, {"cells": cells, "seeds": seeds, "non_atomic": non_atomic,
                      "worst_ratio": worst_ratio, "worst_abort": worst_abort}


@pytest.mark.slow
def test_criterion_6_stabilization():
    started = time.perf_counter()
    failures, figures = criterion_6()
    elapsed = time.perf_counter() - started
    ok = not failures
    failed = f"{len(failures)}, first {failures[:5]}" if failures else "none"
    report(6, ok, f"{figures['cells']} cells x {figures['seeds']} seeds, "
                  f"{figures['non_atomic']} runs start non-atomic, largest "
                  f"writes_before_stabilization/bound {figures['worst_ratio']:.3f}, "
                  f"largest suffix abort fraction {figures['worst_abort']:.3f}, "
                  f"failures: {failed}, {elapsed:.0f}s")
    assert ok


def test_small_queue_exceeds_the_stabilization_bound():
    # negative control: with k_override=2 the writer's epochs queue holds
    # two labels, where the derived k = 2m = 60 covers the m = 30 epochs a
    # corrupted start can hide at n=3, c=1, so every run exceeds the bound
    n, c, r = 3, 1, 1
    m = ProtocolParams(n, c).hidden_epoch_bound
    bound = (m + 2) * (r + 1)
    whys = [
        stabilization_run(ScenarioConfig(
            n=n, seed=seed, steps=600_000, writes=300, c=c, r=r, loss_prob=0.05,
            corruption="near-wrap", k_override=2,
        ), bound)[0]
        for seed in range(10)
    ]
    assert bound == 64 and whys == ["bound"] * 10


# -- criterion 7: oracle potential function ----------------------------------


def test_criterion_7_oracle_potential():
    strict_seen = 0
    bad = []
    for seed in range(30):
        corrupted = Simulation(ScenarioConfig(
            n=5, seed=seed, steps=400_000, writes=50,
            protocol="oracle", corruption="random",
        ))
        metrics = corrupted.run()
        if metrics["g_violations"] or metrics["g_strict_violations"]:
            bad.append(("corrupted", seed))
        if metrics["writes_completed"] != 50:
            bad.append(("corrupted-incomplete", seed))
        # seeds where a write's read phase saw a number above the writer's,
        # so the strict decrease was actually checked
        if corrupted.potential.observations > 0:
            strict_seen += 1
        clean = ScenarioConfig(
            n=5, seed=seed, steps=400_000, writes=50, protocol="oracle"
        )
        lines, metrics = run_scenario(clean)
        if metrics["g_violations"] or metrics["g_strict_violations"]:
            bad.append(("clean", seed))
        verdict = find_stabilization(parse_trace(lines), metrics)
        if verdict.atomic_from != 0:
            bad.append(("clean-not-atomic", seed))
    ok = not bad and strict_seen > 0
    report(7, ok, f"30 seeds clean + corrupted, potential checked every step, "
                  f"{strict_seen} corrupted seeds observed a larger number, "
                  f"bad: {bad if bad else 'none'}")
    assert ok


# -- criterion 8: bounded quorum traffic per phase ---------------------------


@pytest.mark.slow
def test_criterion_8_phase_message_bound(clean_start_runs):
    # a phase ends on its quorum-th response and asks only its n - 1 peers;
    # a majority of n counts the processor itself, so at least n // 2 of
    # them hear a request
    n = 5
    quorum = n // 2 + 1
    bad = [
        (seed, metrics["max_phase_requests"], metrics["max_phase_responses"])
        for seed, metrics, _v in clean_start_runs
        if metrics["max_phase_responses"] != quorum
        or not n // 2 <= metrics["max_phase_requests"] <= n - 1
    ]
    total_phases = sum(m["completed_phases"] for _s, m, _v in clean_start_runs)
    ok = not bad and total_phases > 0
    report(8, ok, f"{total_phases} completed phases across 50 runs, "
                  f"max responses == {quorum}, max requests in "
                  f"{n // 2}..{n - 1}, violations: {bad if bad else 'none'}")
    assert ok


# -- criterion 9: checker equivalence with brute force -----------------------


def test_criterion_9_checker_equivalence():
    started = time.perf_counter()
    trials = 10_000
    disagreements = []
    linearizable = violating = 0
    for seed in range(trials):
        ops_by_proc = random_ops(seed)
        ops = all_ops(ops_by_proc)
        if not ops:
            linearizable += 1
            continue
        trace = parse_trace(make_trace_lines(ops_by_proc))
        checker_ok = not find_stabilization(trace).violations
        brute_ok = linearizable_swmr(ops, initial=None)
        if checker_ok != brute_ok:
            disagreements.append(seed)
        if brute_ok:
            linearizable += 1
        else:
            violating += 1

    # hand-built fixtures: a pure inversion and a pure regularity break
    inversion = parse_trace(make_trace_lines({
        0: [Op("write", "v#1", 1, 20), Op("write", "v#2", 21, 40)],
        1: [Op("read", "v#2", 22, 25)],
        2: [Op("read", "v#1", 26, 30)],
    }))
    regularity = parse_trace(make_trace_lines({
        0: [Op("write", "v#1", 1, 2)],
        1: [Op("read", "v_init", 3, 4)],
    }))
    fixtures_ok = (
        [v.rule for v in find_stabilization(inversion).violations] == ["new-old-inversion"]
        and [v.rule for v in find_stabilization(regularity).violations] == ["regularity"]
    )
    elapsed = time.perf_counter() - started
    # the sample exercises both kinds
    ok = not disagreements and fixtures_ok and violating > 100 and linearizable > 100
    report(9, ok, f"{trials} random traces ({linearizable} linearizable, "
                  f"{violating} violating), disagreements: "
                  f"{disagreements[:5] if disagreements else 'none'}, "
                  f"fixtures {'ok' if fixtures_ok else 'BROKEN'}, {elapsed:.0f}s")
    assert ok
