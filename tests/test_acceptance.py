"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete (without ``-s`` they appear in captured output).
The criteria that take 10 s or more are marked ``slow``; criteria 4 and 8
share their simulation runs through a module fixture.

Each criterion N runs its grid in ``criterion_N``, whose arguments default
to the grid its test runs (criteria 4 and 8 take ``clean_start_grid``'s
runs), and returns its failures, empty when it holds, with the figures its
report line prints; ``test_criterion_N`` only times, reports and asserts.
So a harness that patches the protocol runs the tests' grids: each row of
``WITNESSES`` calls a criterion on a killed mutant's witness grid, and
``test_witness_kills_mutant`` replays it as written and under the mutant.
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


def criterion_1(ks=(2, 4, 16, 64), trials_per_k=100_000):
    """The members of sampled label sets that ``next_label`` does not
    dominate, as (k, trial, member), and the figures criterion 1 reports."""
    failures = []
    for k in ks:
        params = LabelParams(k)
        rng = random.Random(k)
        pool = [random_label(rng, params) for _ in range(2048)]
        pool += incomparable_family(k, params, rng)
        for trial in range(trials_per_k):
            size = rng.randint(0, k)
            sample = rng.sample(pool, size) if size else []
            result = next_label(sample, params)
            for member in sample:
                if not precedes_b(member, result):
                    failures.append((k, trial, member))
    return failures, {"ks": len(ks), "trials_per_k": trials_per_k}


@pytest.mark.slow
def test_criterion_1_dominance():
    started = time.perf_counter()
    failures, figures = criterion_1()
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    report(1, ok, f"{figures['ks']}x{figures['trials_per_k']} sampled sets, "
                  f"{len(failures)} failures, {elapsed:.1f}s (budget 60s)")
    assert ok


# -- criterion 2: exhaustive antisymmetry for the smallest universe ----------


def criterion_2(k=2):
    """The ordered pairs of labels, a == b included, in which each label
    precedes the other, and the figures criterion 2 reports."""
    labels = list(all_labels(LabelParams(k)))
    failures = []
    incomparable = 0
    for a in labels:
        for b in labels:
            a_first, b_first = precedes_b(a, b), precedes_b(b, a)
            if a_first and b_first:
                failures.append((a, b))
            elif a != b and not a_first and not b_first:
                incomparable += 1
    return failures, {"labels": len(labels), "distinct": len(set(labels)),
                      "incomparable": incomparable}


def test_criterion_2_antisymmetry():
    started = time.perf_counter()
    failures, figures = criterion_2()
    elapsed = time.perf_counter() - started
    # 5 stings times C(5, 2) antisting sets
    ok = (not failures and figures["labels"] == figures["distinct"] == 50
          and figures["incomparable"] > 0 and elapsed < 1.0)
    report(2, ok, f"{figures['labels']} labels ({figures['distinct']} distinct), "
                  f"{len(failures)} symmetric pairs, {figures['incomparable']} "
                  f"incomparable ordered pairs, {elapsed:.2f}s")
    assert ok


# -- criterion 3: the guessing game lemma ------------------------------------


def loses(hider, m, seed, params, queue_capacity=None):
    """Whether the finder fails to win the game within m + 1 rounds."""
    result = play(hider, m, seed=seed, params=params, queue_capacity=queue_capacity)
    return not result.won or result.winning_round > m + 1


def criterion_3(m_values=range(1, 9), strategies=tuple(sorted(STRATEGIES)),
                seeds=range(10_000), control_seeds=range(200)):
    """The games of the grid that the finder does not win within m + 1
    rounds, as (m, strategy, seed), and the figures criterion 3 reports.

    Its negative control, ``control_failures``, counts the games of
    ``control_seeds`` that a finder whose queue forgets half its 2m labels
    loses at m=6 against the max-incomparable hider."""
    failures = []
    for m in m_values:
        params = LabelParams(2 * m)
        for name in strategies:
            for seed in seeds:
                hider = make_hider(name, m, random.Random(seed ^ 0x5EED), params)
                if loses(hider, m, seed, params):
                    failures.append((m, name, seed))
    m = 6
    params = LabelParams(2 * m)
    control_failures = sum(
        loses(make_hider("max-incomparable", m, random.Random(seed), params),
              m, seed, params, queue_capacity=m)
        for seed in control_seeds
    )
    return failures, {"control_failures": control_failures,
                      "control_games": len(control_seeds)}


@pytest.mark.slow
def test_criterion_3_game_lemma():
    started = time.perf_counter()
    failures, figures = criterion_3()
    elapsed = time.perf_counter() - started
    ok = not failures and figures["control_failures"] > 0 and elapsed < 300.0
    report(3, ok, f"8 m-values x {len(STRATEGIES)} strategies x "
                  f"10000 games, {len(failures)} bound violations, "
                  f"negative control broke {figures['control_failures']}/"
                  f"{figures['control_games']}, {elapsed:.0f}s (budget 300s)")
    assert ok


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
    the start or do not complete their 1000 writes, and the figures
    criterion 4 reports."""
    failures = [
        seed
        for seed, metrics, verdict in runs
        if verdict.atomic_from != 0
        or verdict.violations
        or metrics["writes_completed"] != 1000
    ]
    return failures, {"seeds": len(runs)}


@pytest.mark.slow
def test_criterion_4_clean_start_atomic(clean_start_runs):
    failures, figures = criterion_4(clean_start_runs)
    ok = not failures
    report(4, ok, f"{figures['seeds']} seeds, n=5 c=3 r=64, 1000 writes each, "
                  f"bad seeds: {failures if failures else 'none'}")
    assert ok


def criterion_5(seeds=range(20)):
    """The seeds whose run with a crashed minority stalls a survivor, makes
    no progress after the last crash, or is not atomic from the start, and
    the figures criterion 5 reports."""
    bad = []
    for seed in seeds:
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
    return bad, {"seeds": len(seeds)}


def test_criterion_5_minority_crashes():
    failures, figures = criterion_5()
    ok = not failures
    report(5, ok, f"{figures['seeds']} seeds, 2 crashes each, "
                  f"bad seeds: {failures if failures else 'none'}")
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


def criterion_6(ns=(3, 5), cs=(1, 2), rs=(8, 64),
                modes=("random", "near-wrap", "hidden-epoch"), seeds=range(200)):
    """The corrupted-start runs that never stabilize, exceed the bound or
    starve a reader after stabilizing, as (n, c, r, mode, seed), and the
    figures criterion 6 reports."""
    failures = []
    cells = non_atomic = 0
    worst_ratio = worst_abort = 0.0
    for n in ns:
        for c in cs:
            for r in rs:
                for mode in modes:
                    cells += 1
                    m = ProtocolParams(n, c).hidden_epoch_bound
                    bound = (m + 2) * (r + 1)
                    for seed in seeds:
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
    return failures, {"cells": cells, "seeds": len(seeds), "non_atomic": non_atomic,
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


def criterion_7(seeds=range(30)):
    """The oracle runs, as (kind, seed), whose potential rises or fails to
    fall, that do not complete their 50 writes (corrupted), or that are not
    atomic from the start (clean), and the figures criterion 7 reports."""
    failures = []
    strict_seen = 0
    for seed in seeds:
        corrupted = Simulation(ScenarioConfig(
            n=5, seed=seed, steps=400_000, writes=50,
            protocol="oracle", corruption="random",
        ))
        metrics = corrupted.run()
        if metrics["g_violations"] or metrics["g_strict_violations"]:
            failures.append(("corrupted", seed))
        if metrics["writes_completed"] != 50:
            failures.append(("corrupted-incomplete", seed))
        # seeds where a write's read phase saw a number above the writer's,
        # so the strict decrease was actually checked
        if corrupted.potential.observations > 0:
            strict_seen += 1
        clean = ScenarioConfig(
            n=5, seed=seed, steps=400_000, writes=50, protocol="oracle"
        )
        lines, metrics = run_scenario(clean)
        if metrics["g_violations"] or metrics["g_strict_violations"]:
            failures.append(("clean", seed))
        verdict = find_stabilization(parse_trace(lines), metrics)
        if verdict.atomic_from != 0:
            failures.append(("clean-not-atomic", seed))
    return failures, {"seeds": len(seeds), "strict_seen": strict_seen}


def test_criterion_7_oracle_potential():
    failures, figures = criterion_7()
    ok = not failures and figures["strict_seen"] > 0
    report(7, ok, f"{figures['seeds']} seeds clean + corrupted, potential checked "
                  f"every step, {figures['strict_seen']} corrupted seeds observed "
                  f"a larger number, bad: {failures if failures else 'none'}")
    assert ok


# -- criterion 8: bounded quorum traffic per phase ---------------------------


def criterion_8(runs, n=5):
    """The runs of ``clean_start_grid()`` whose largest phase did not end
    on the quorum-th response or asked fewer than n // 2 or more than
    n - 1 peers, as (seed, max_phase_requests, max_phase_responses), and
    the figures criterion 8 reports."""
    # a phase ends on its quorum-th response and asks only its n - 1 peers;
    # a majority of n counts the processor itself, so at least n // 2 of
    # them hear a request
    quorum = n // 2 + 1
    failures = [
        (seed, metrics["max_phase_requests"], metrics["max_phase_responses"])
        for seed, metrics, _v in runs
        if metrics["max_phase_responses"] != quorum
        or not n // 2 <= metrics["max_phase_requests"] <= n - 1
    ]
    return failures, {"runs": len(runs),
                      "phases": sum(m["completed_phases"] for _s, m, _v in runs)}


@pytest.mark.slow
def test_criterion_8_phase_message_bound(clean_start_runs):
    failures, figures = criterion_8(clean_start_runs)
    ok = not failures and figures["phases"] > 0
    report(8, ok, f"{figures['phases']} completed phases across {figures['runs']} "
                  f"runs, max responses == 3, max requests in 2..4, "
                  f"violations: {failures if failures else 'none'}")
    assert ok


# -- criterion 9: checker equivalence with brute force -----------------------


# hand-built traces with one violation each: a pure inversion and a pure
# regularity break
FIXTURES = {
    "new-old-inversion": {
        0: [Op("write", "v#1", 1, 20), Op("write", "v#2", 21, 40)],
        1: [Op("read", "v#2", 22, 25)],
        2: [Op("read", "v#1", 26, 30)],
    },
    "regularity": {
        0: [Op("write", "v#1", 1, 2)],
        1: [Op("read", "v_init", 3, 4)],
    },
}


def criterion_9(seeds=range(10_000)):
    """The seeds of random traces on which the checker and the brute-force
    linearizer disagree, then each rule of ``FIXTURES`` whose trace the
    checker does not report as that one violation, and the figures
    criterion 9 reports."""
    failures = []
    linearizable = violating = 0
    for seed in seeds:
        ops_by_proc = random_ops(seed)
        ops = all_ops(ops_by_proc)
        if not ops:
            linearizable += 1
            continue
        trace = parse_trace(make_trace_lines(ops_by_proc))
        checker_ok = not find_stabilization(trace).violations
        brute_ok = linearizable_swmr(ops, initial=None)
        if checker_ok != brute_ok:
            failures.append(seed)
        if brute_ok:
            linearizable += 1
        else:
            violating += 1
    for rule, ops_by_proc in FIXTURES.items():
        trace = parse_trace(make_trace_lines(ops_by_proc))
        if [v.rule for v in find_stabilization(trace).violations] != [rule]:
            failures.append(rule)
    return failures, {"traces": len(seeds), "linearizable": linearizable,
                      "violating": violating}


def test_criterion_9_checker_equivalence():
    started = time.perf_counter()
    failures, figures = criterion_9()
    elapsed = time.perf_counter() - started
    # the sample exercises both kinds
    ok = not failures and figures["violating"] > 100 and figures["linearizable"] > 100
    report(9, ok, f"{figures['traces']} random traces ({figures['linearizable']} "
                  f"linearizable, {figures['violating']} violating) and "
                  f"{len(FIXTURES)} fixtures, failures: "
                  f"{failures[:5] if failures else 'none'}, {elapsed:.0f}s")
    assert ok


# -- the witnesses of the killed mutants -------------------------------------


# each killed mutant of ``MUTANTS``: the call of its criterion on its witness
# grid, and the failures that call gives under the mutant (none as written)
WITNESSES = {
    "adopt-unconditional": (lambda: criterion_4(clean_start_grid(seeds=[0])), [0]),
    "enqueue-evicts-newest": (
        lambda: criterion_3(m_values=[3], strategies=["static"], seeds=[0]),
        [(3, "static", 0)],
    ),
}


@pytest.mark.parametrize("mutant", WITNESSES)
def test_witness_kills_mutant(monkeypatch, mutant):
    witness, killed = WITNESSES[mutant]
    assert witness()[0] == []
    MUTANTS[mutant](monkeypatch)
    assert witness()[0] == killed
