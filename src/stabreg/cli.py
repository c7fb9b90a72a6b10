"""Command line harness: run scenarios, check traces, play games, poke labels.

Environment overrides: STABREG_SEED replaces the scenario seed, STABREG_OUT
the default output directory; the --seed and --out flags beat both.  Exit
codes: 0 success, 1 check/lemma failure, 2 invalid input, 141 stdout closed
by its reader (128 + SIGPIPE, the status a shell shows for a writer the
signal killed).  Invalid input leaves through one path: each command raises
InputError (or the game's GameError), and ``main`` alone prints it and
returns 2.  ``run`` leaves an existing trace or metrics file as it was until
the run has finished.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys
from pathlib import Path

from .checker import TraceError, find_stabilization, parse_trace
from .game import GameError, STRATEGIES, make_hider, play
from .labels import LabelError, LabelParams, format_label, next_label, parse_label, precedes_b
from .sim import ScenarioError, parse_scenario, run_scenario


class InputError(Exception):
    """Invalid input: ``main`` prints it after ``error:`` and exits 2."""


def cmd_run(args) -> int:
    try:
        config = parse_scenario(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config: {exc}") from exc
    except ScenarioError as exc:
        raise InputError(f"invalid scenario: {exc}") from exc
    seed_env = os.environ.get("STABREG_SEED")
    if args.seed is not None:
        config.seed = args.seed
    elif seed_env is not None:
        try:
            config.seed = int(seed_env)
        except ValueError:
            raise InputError(f"STABREG_SEED must be an integer, got {seed_env!r}") from None
    out = Path(args.out or os.environ.get("STABREG_OUT") or ".")
    trace_path = Path(args.trace) if args.trace else out / f"trace-{config.seed}.jsonl"
    metrics_path = Path(args.metrics) if args.metrics else out / f"metrics-{config.seed}.json"
    if os.path.realpath(trace_path) == os.path.realpath(metrics_path):
        raise InputError(f"trace and metrics would both be written to {trace_path}")
    # both outputs are opened before the run, and emptied only once it is done;
    # if anything fails, no file that did not exist before is left behind
    created = [path for path in (trace_path, metrics_path) if not os.path.exists(path)]
    done = False
    try:
        out.mkdir(parents=True, exist_ok=True)
        with (open(trace_path, "a", encoding="utf-8") as trace_out,
              open(metrics_path, "a", encoding="utf-8") as metrics_out):
            lines, metrics = run_scenario(config, audit=args.audit)
            trace_out.truncate(0)
            print(*lines, sep="\n", file=trace_out)
            metrics_out.truncate(0)
            metrics_out.write(json.dumps(metrics, sort_keys=True, indent=2) + "\n")
        done = True
    except OSError as exc:
        raise InputError(f"cannot write output: {exc}") from exc
    finally:
        if not done:
            for path in created:
                with contextlib.suppress(OSError):  # its open failed first
                    path.unlink()
    print(f"trace: {trace_path}")
    print(f"metrics: {metrics_path}")
    return 0


def cmd_check(args) -> int:
    metrics = None
    if args.metrics:
        try:
            metrics = json.loads(Path(args.metrics).read_text(encoding="utf-8"))
            if type(metrics) is not dict:
                raise ValueError("not a JSON object")
        # ValueError covers bad UTF-8 and bad JSON; deep nesting recurses
        except (OSError, ValueError, RecursionError) as exc:
            raise InputError(f"cannot read metrics: {exc}") from exc
    try:
        with open(args.trace, encoding="utf-8") as lines:
            trace = parse_trace(lines)  # decodes the file as it goes
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read trace: {exc}") from exc
    except TraceError as exc:
        raise InputError(f"malformed trace: {exc}") from exc
    verdict = find_stabilization(trace, metrics)
    print(json.dumps(verdict.to_dict(), sort_keys=True, indent=2))
    return 0 if verdict.atomic_from is not None else 1


def cmd_game(args) -> int:
    if args.m < 1 or args.seeds < 1:
        raise InputError("--m and --seeds must be >= 1")
    params = LabelParams(2 * args.m)
    max_round = 0
    failures = 0
    for seed in range(args.seed_start, args.seed_start + args.seeds):
        hider = make_hider(args.strategy, args.m, random.Random(seed ^ 0x5EED), params)
        result = play(hider, args.m, seed=seed, params=params,
                      queue_capacity=args.queue_capacity)
        if args.transcript:
            for record in result.transcript:
                response = record.response
                print(json.dumps({"seed": seed, "round": record.round,
                                  "finder": format_label(record.finder_label),
                                  "response": format_label(response) if response else None}))
        if not result.won or result.winning_round > args.m + 1:
            failures += 1
        if result.won:
            max_round = max(max_round, result.winning_round)
    print(f"games: {args.seeds}  max winning round: {max_round}  "
          f"bound m+1: {args.m + 1}  failures: {failures}")
    return 1 if failures else 0


def cmd_labels(args) -> int:
    try:
        params = LabelParams(args.k)
        labels = [parse_label(text) for text in args.labels]
        for label in labels:
            label.validate(params)
        if args.op == "compare":
            if len(labels) != 2:
                raise InputError("compare takes exactly two labels")
            a, b = labels
            print(json.dumps({
                "a_precedes_b": precedes_b(a, b),
                "b_precedes_a": precedes_b(b, a),
            }))
        else:  # next
            print(format_label(next_label(labels, params)))
    except LabelError as exc:
        raise InputError(str(exc)) from exc
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabreg",
        description="Crash-tolerant self-stabilizing shared register simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario, write trace and metrics")
    p_run.add_argument("--config", required=True, help="flat key = value scenario file")
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument("--out", help="output directory (default: cwd)")
    p_run.add_argument("--trace", help="explicit trace output path")
    p_run.add_argument("--metrics", help="explicit metrics output path")
    p_run.add_argument("--audit", action="store_true",
                       help="verify link capacity / provenance invariants per step")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="check a trace for atomicity")
    p_check.add_argument("trace", help="JSONL trace file")
    p_check.add_argument("--metrics", help="metrics file to fold into the verdict")
    p_check.set_defaults(func=cmd_check)

    p_game = sub.add_parser("game", help="play finder/hider guessing games")
    p_game.add_argument("--m", type=int, required=True, help="hidden set bound")
    p_game.add_argument("--strategy", default="static",
                        help="hider strategy (%s)" % ", ".join(sorted(STRATEGIES)))
    p_game.add_argument("--seeds", type=int, default=100, help="number of games")
    p_game.add_argument("--seed-start", type=int, default=0)
    p_game.add_argument("--queue-capacity", type=int,
                        help="finder queue capacity override, 1..2m (default 2m)")
    p_game.add_argument("--transcript", action="store_true",
                        help="emit per-round JSON lines")
    p_game.set_defaults(func=cmd_game)

    p_labels = sub.add_parser("labels", help="evaluate label operators on literals")
    p_labels.add_argument("--k", type=int, required=True)
    p_labels.add_argument("op", choices=("compare", "next"))
    p_labels.add_argument("labels", nargs="+",
                          help="label literals like '(2|4,5)'")
    p_labels.set_defaults(func=cmd_labels)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except (InputError, GameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout is gone: exit as a writer killed by SIGPIPE,
        # with fd 1 on devnull so the flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
