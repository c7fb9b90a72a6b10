import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stabreg
from stabreg.cli import main
from stabreg.sim import parse_scenario, run_scenario

CLEAN = """\
n = 5
seed = 3
steps = 50000
writes = 10
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "clean.cfg"
    path.write_text(CLEAN)
    return path


def test_run_writes_trace_and_metrics(config_file, tmp_path, capsys):
    trace = tmp_path / "trace-3.jsonl"
    metrics = tmp_path / "metrics-3.json"
    # outputs longer than the new ones, so that a stale tail would show
    trace.write_text("stale\n" * 100_000)
    metrics.write_text("stale\n" * 100_000)
    rc = main(["run", "--config", str(config_file), "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "trace-3.jsonl" in out
    assert json.loads(trace.read_text().splitlines()[0])["type"] == "header"
    assert json.loads(metrics.read_text())["writes_completed"] == 10
    # the lines are written as run_scenario returns them, one per line
    lines, _metrics = run_scenario(parse_scenario(CLEAN))
    assert trace.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_run_audit_writes_the_same_trace(tmp_path):
    # the link audit only checks, so a corrupted start replays byte for byte
    config = tmp_path / "random.cfg"
    config.write_text(CLEAN + "corruption = random\n")
    for out, audit in (("plain", []), ("audit", ["--audit"])):
        assert main(["run", "--config", str(config), "--out", str(tmp_path / out), *audit]) == 0
    assert ((tmp_path / "audit" / "trace-3.jsonl").read_bytes()
            == (tmp_path / "plain" / "trace-3.jsonl").read_bytes())


def test_run_seed_override(config_file, tmp_path, monkeypatch):
    # a flag beats its environment variable
    monkeypatch.setenv("STABREG_SEED", "55")
    monkeypatch.setenv("STABREG_OUT", str(tmp_path / "env"))
    rc = main(["run", "--config", str(config_file), "--out", str(tmp_path),
               "--seed", "99"])
    assert rc == 0
    assert (tmp_path / "trace-99.jsonl").exists()
    assert not (tmp_path / "env").exists()


def test_run_env_overrides(config_file, tmp_path, monkeypatch):
    monkeypatch.setenv("STABREG_SEED", "55")
    monkeypatch.setenv("STABREG_OUT", str(tmp_path / "sub"))
    rc = main(["run", "--config", str(config_file)])
    assert rc == 0
    assert (tmp_path / "sub" / "trace-55.jsonl").exists()


def test_run_rejects_non_integer_seed_env(config_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STABREG_SEED", "abc")
    rc = main(["run", "--config", str(config_file), "--out", str(tmp_path)])
    assert rc == 2
    assert "error: STABREG_SEED" in capsys.readouterr().err
    assert not list(tmp_path.glob("trace-*"))


def test_run_missing_config(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def refuse_to_run(*_args, **_kwargs):
    raise RuntimeError("simulated")


def assert_no_outputs(tmp_path):
    assert not list(tmp_path.rglob("trace-*")) and not list(tmp_path.rglob("metrics-*"))


@pytest.mark.parametrize("where", ["trace-in-missing-dir", "metrics-in-missing-dir",
                                   "out-is-a-file"])
def test_run_reports_unwritable_output(config_file, tmp_path, capsys, monkeypatch, where):
    # both outputs are opened before anything is simulated
    monkeypatch.setattr("stabreg.cli.run_scenario", refuse_to_run)
    if where == "out-is-a-file":
        (tmp_path / "taken").write_text("")
        args = ["--out", str(tmp_path / "taken")]
    elif where == "trace-in-missing-dir":
        args = ["--out", str(tmp_path), "--trace", str(tmp_path / "missing" / "t.jsonl")]
    else:
        args = ["--out", str(tmp_path), "--metrics", str(tmp_path / "missing" / "m.json")]
    rc = main(["run", "--config", str(config_file), *args])
    assert rc == 2
    assert "error: cannot write output" in capsys.readouterr().err
    assert_no_outputs(tmp_path)


def interrupt(*_args, **_kwargs):
    raise KeyboardInterrupt


def test_run_leaves_no_output_when_the_run_fails(config_file, tmp_path, monkeypatch):
    trace, metrics = tmp_path / "trace-3.jsonl", tmp_path / "metrics-3.json"
    for failure, error in ((refuse_to_run, RuntimeError), (interrupt, KeyboardInterrupt)):
        monkeypatch.setattr("stabreg.cli.run_scenario", failure)
        for existing in ([], [trace], [trace, metrics]):
            for path in existing:
                path.write_text(f"old {path.name}\n")
            with pytest.raises(error):
                main(["run", "--config", str(config_file), "--out", str(tmp_path)])
            # the run created no file, and emptied none that was there
            assert sorted(tmp_path.glob("*-3.*")) == sorted(existing)
            for path in existing:
                assert path.read_text() == f"old {path.name}\n"
                path.unlink()


@pytest.mark.parametrize("where", ["explicit-pair", "metrics-named-as-default-trace"])
def test_run_rejects_one_path_for_both_outputs(config_file, tmp_path, capsys, where):
    # the metrics would overwrite the trace in the one file
    if where == "explicit-pair":
        same = tmp_path / "same.out"
        args = ["--trace", str(same), "--metrics", str(same)]
    else:
        out = tmp_path / "out"
        args = ["--out", str(out), "--metrics", str(out / "trace-3.jsonl")]
    before = sorted(tmp_path.rglob("*"))
    rc = main(["run", "--config", str(config_file), *args])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == "" and "error: " in captured.err
    assert sorted(tmp_path.rglob("*")) == before


# each rule is tested in test_sim.py::test_parse_scenario_rejects; this
# table checks that run reports a broken one as invalid input
@pytest.mark.parametrize("text, fragment", [
    ("n = 5\n", "missing required config key"),
    (CLEAN + "k_override = 1\n", "k_override"),
    (CLEAN + "k_override = -3\n", "k_override"),
    (CLEAN + "read_backoff = -7\n", "read_backoff"),
    (CLEAN + "read_retry_cap = -2\n", "read_retry_cap"),
    (CLEAN + "protocol = oracle\ncorruption = near-wrap\n", "no oracle meaning"),
    (CLEAN + "protocol = oracle\ncorruption = hidden-epoch\n", "no oracle meaning"),
], ids=["missing-keys", "k-override-1", "k-override-negative", "read-backoff",
        "read-retry-cap", "oracle-near-wrap", "oracle-hidden-epoch"])
def test_run_rejects_invalid_scenario(tmp_path, capsys, text, fragment):
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario: ") and fragment in err
    assert not list(tmp_path.glob("trace-*"))


def test_check_clean_trace(config_file, tmp_path, capsys):
    main(["run", "--config", str(config_file), "--out", str(tmp_path)])
    capsys.readouterr()
    rc = main(["check", str(tmp_path / "trace-3.jsonl"),
               "--metrics", str(tmp_path / "metrics-3.json")])
    assert rc == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["atomic_from"] == 0
    assert verdict["violations"] == []
    assert verdict["stats"]["epoch_changes"] == 0


def test_check_never_stabilizing_trace(tmp_path, capsys):
    lines = [
        json.dumps({"step": 1, "proc": 0, "event": "write_invoke",
                    "op_id": "w1", "value": "v#1"}),
        json.dumps({"step": 2, "proc": 0, "event": "write_response",
                    "op_id": "w1"}),
        json.dumps({"step": 3, "proc": 1, "event": "read_invoke",
                    "op_id": "r1"}),
        json.dumps({"step": 4, "proc": 1, "event": "read_response",
                    "op_id": "r1", "value": "v_init"}),
    ]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    rc = main(["check", str(path)])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["atomic_from"] == "never"


def test_check_malformed_trace(tmp_path, capsys):
    path = tmp_path / "garbage.jsonl"
    path.write_text("this is not json\n")
    rc = main(["check", str(path)])
    assert rc == 2
    assert "malformed trace" in capsys.readouterr().err


def check_lines(tmp_path, lines):
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(event) + "\n" for event in lines))
    return main(["check", str(path)])


def event(step, proc, kind, op_id, **extra):
    return {"step": step, "proc": proc, "event": kind, "op_id": op_id, **extra}


@pytest.mark.parametrize("lines, reason", [
    ([event(1, 0, "write_invoke", "w1", value="v#1"),
      event(2, 1, "write_invoke", "w2", value="v#2")], "writer"),
    ([event(1, 0, "write_invoke", "w1", value="v#1"),
      event(2, 0, "write_response", "w1"),
      event(3, 0, "write_invoke", "w2", value="v#1")], "written twice"),
    ([event(1, 0, "write_invoke", "x", value="v#1"),
      event(2, 1, "read_invoke", "x")], "used twice"),
    ([3], "not a JSON object"),
    ([[]], "not a JSON object"),
    ([event(1, [0], "write_invoke", "w1", value="v#1")], "proc and step"),
    ([event(True, 0, "write_invoke", "w1", value="v#1")], "proc and step"),
    ([event(1, 0, "write_invoke", ["w1"], value="v#1")], "op_id must be"),
    ([event(1, 0, "write_invoke", "w1", value=["v#1"])], "value must be"),
    ([event(1, 0, "write_invoke", "w1", value="v#1"),
      event(2, 0, "write_response", "w1"),
      event(3, 1, "read_invoke", "r"),
      event(4, 1, "read_response", "r", value="v_init", abort="false")],
     "abort must be"),
    ([event(1, 0, "write_invoke", "w1"),
      event(2, 0, "write_response", "w1")], "has no value"),
    ([event(1, 0, "write_invoke", "w1", value=None),
      event(2, 0, "write_response", "w1")], "has no value"),
    ([event(1, 0, "write_invoke", "w1", value="v#1"),
      event(2, 0, "write_response", "w1"),
      event(3, 1, "read_invoke", "r"),
      event(4, 1, "read_response", "r")], "returns no value"),
    ([event(1, 0, "write_invoke", "w1", value="v#1"),
      event(2, 0, "write_response", "w1"),
      event(3, 1, "read_invoke", "r"),
      event(4, 1, "read_response", "r", value=None, abort=False)], "returns no value"),
    ([event(1, 0, "write_invoke", "w1", value="v#1"),
      event(2, 0, "write_response", "w1", abort=True)], "cannot abort"),
    ([event(1, 0, "write_invoke", "w1", value="v#1", abort=False),
      event(2, 0, "write_response", "w1")], "cannot abort"),
    ([event(1, 0, "write_invoke", "w1", value="v#1"),
      event(2, 0, "write_response", "w1"),
      event(3, 1, "read_invoke", "r", abort=True),
      event(4, 1, "read_response", "r", value="v#1")], "cannot abort"),
    ([event(1, 0, "write_invoke", "w1", value="v#1"),
      event(2, 0, "read_response", "w1", value="v#9")], "without matching invocation"),
    ([event(1, 0, "write_invoke", "w1", value="v#1"),
      event(2, 1, "read_invoke", "r"),
      event(3, 1, "write_response", "r")], "without matching invocation"),
], ids=["second-writer", "repeated-value", "reused-op-id", "number-line",
        "list-line", "list-proc", "bool-step", "list-op-id", "list-value",
        "string-abort", "write-without-value", "write-of-null",
        "read-without-value", "unaborted-read-of-null", "aborted-write",
        "abort-key-on-write-invoke", "aborted-read-invoke", "write-ended-as-read",
        "read-ended-as-write"])
def test_check_rejects_unsupported_trace(tmp_path, capsys, lines, reason):
    assert check_lines(tmp_path, lines) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed trace" in captured.err and reason in captured.err


NOT_UTF8 = b"n = 5\n\xff\xfe\n"


def test_run_rejects_non_utf8_config(tmp_path, capsys):
    bad = tmp_path / "latin.cfg"
    bad.write_bytes(NOT_UTF8)
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "error: cannot read config" in capsys.readouterr().err
    assert not list(tmp_path.glob("trace-*"))


def test_check_rejects_non_utf8_trace(tmp_path, capsys):
    good = json.dumps(event(1, 0, "write_invoke", "w1", value="v#1")).encode()
    path = tmp_path / "trace.jsonl"
    path.write_bytes(good + b"\n" + NOT_UTF8)
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: cannot read trace" in captured.err


def test_check_rejects_non_utf8_metrics(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps(event(1, 0, "write_invoke", "w1", value="v#1")) + "\n")
    metrics = tmp_path / "metrics.json"
    metrics.write_bytes(NOT_UTF8)
    assert main(["check", str(trace), "--metrics", str(metrics)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: cannot read metrics" in captured.err


@pytest.mark.parametrize("text", ["[1]", "3", "null", "[" * 100_000])
def test_check_rejects_metrics_that_are_not_an_object(tmp_path, capsys, text):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps(event(1, 0, "write_invoke", "w1", value="v#1")) + "\n")
    metrics = tmp_path / "metrics.json"
    metrics.write_text(text)
    assert main(["check", str(trace), "--metrics", str(metrics)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: cannot read metrics" in captured.err


def test_check_rejects_deeply_nested_line(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(event(1, 0, "write_invoke", "w1", value="v#1")) + "\n"
                    + "[" * 100_000 + "\n")
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: malformed trace: event 1: not valid JSON" in captured.err


def test_check_degenerate_traces(tmp_path, capsys):
    assert check_lines(tmp_path, []) == 0
    assert json.loads(capsys.readouterr().out)["atomic_from"] == 0
    single_write = [event(1, 0, "write_invoke", "w1", value="v#1"),
                    event(2, 0, "write_response", "w1")]
    assert check_lines(tmp_path, single_write) == 0
    assert json.loads(capsys.readouterr().out)["atomic_from"] == 0
    read_from_future = [event(1, 1, "read_invoke", "r1"),
                        event(2, 1, "read_response", "r1", value="v#1"),
                        event(3, 0, "write_invoke", "w1", value="v#1")]
    assert check_lines(tmp_path, read_from_future) == 1
    assert json.loads(capsys.readouterr().out)["atomic_from"] == "never"


def test_game_within_bound(capsys):
    rc = main(["game", "--m", "2", "--seeds", "25", "--strategy", "insert-finder"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "failures: 0" in out


def test_game_negative_control(capsys):
    rc = main(["game", "--m", "6", "--seeds", "30",
               "--strategy", "max-incomparable", "--queue-capacity", "6"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "failures: 30" in out and "max winning round: none" in out


def test_game_transcript_lines(capsys):
    rc = main(["game", "--m", "1", "--seeds", "1", "--transcript"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    assert records, "expected per-round transcript lines"
    assert {"seed", "round", "finder", "response"} <= set(records[0])


def closed_stdout_run(argv, unbuffered):
    """Run ``stabreg argv`` with stdout a pipe whose reader is already gone;
    returns the exit status and stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(stabreg.__file__).resolve().parent.parent)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        result = subprocess.run([sys.executable, "-m", "stabreg.cli", *argv],
                                stdout=write_end, stderr=subprocess.PIPE, text=True,
                                env=env, timeout=300)
    finally:
        os.close(write_end)
    return result.returncode, result.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_quietly(config_file, tmp_path, unbuffered):
    # a reader that stops early (``stabreg check ... | head -1``) is not a
    # verdict: 1 would say the trace never stabilizes or the lemma failed.
    # Buffered, the short verdict first meets the closed pipe when flushed.
    main(["run", "--config", str(config_file), "--out", str(tmp_path)])
    check = ["check", str(tmp_path / "trace-3.jsonl"),
             "--metrics", str(tmp_path / "metrics-3.json")]
    game = ["game", "--m", "3", "--seeds", "50", "--transcript"]
    for argv in (check, game):
        assert closed_stdout_run(argv, unbuffered) == (141, ""), argv[0]


@pytest.mark.parametrize("argv, message", [
    (["--strategy", "psychic"], "unknown strategy 'psychic' (known: insert-finder, "
                                "max-incomparable, random-replace, static)"),
    (["--queue-capacity", "0"], "queue capacity must be in 1..4, got 0"),
    (["--queue-capacity", "10"], "queue capacity must be in 1..4, got 10"),
    (["--seeds", "0"], "--m and --seeds must be >= 1"),
    (["--seeds", "-3"], "--m and --seeds must be >= 1"),
], ids=["unknown-strategy", "empty-queue", "queue-larger-than-2m", "zero-seeds",
        "negative-seeds"])
def test_game_rejects_invalid_input(capsys, argv, message):
    assert main(["game", "--m", "2", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_labels_compare(capsys):
    rc = main(["labels", "--k", "2", "compare", "(2|4,5)", "(1|2,3)"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert result == {"a_precedes_b": True, "b_precedes_a": False}


def test_labels_next(capsys):
    rc = main(["labels", "--k", "2", "next", "(1|2,3)", "(4|1,5)"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "(4|1,4)"


def test_labels_bad_literal(capsys):
    assert main(["labels", "--k", "2", "next", "wat"]) == 2
    for k in ("2", "3"):  # refused under any k, not read as (1|2,3)
        assert main(["labels", "--k", k, "compare", "(1|3,2,2)", "(5|1,4)"]) == 2
        assert "repeats antisting 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--k", "2", "compare", "(2|4,5)", "(1|2,3,4)"], "antisting set has 3 elements, need 2"),
    (["--k", "2", "compare", "(2|4,5)", "(6|1,2)"], "sting or antisting outside universe 1..5"),
    (["--k", "2", "compare", "(2|4,5)"], "compare takes exactly two labels"),
    (["--k", "1", "next", "(1|1)"], "k must be >= 2, got 1"),
], ids=["antistings-of-another-k", "sting-of-another-k", "compare-one-label",
        "k-below-two"])
def test_labels_rejects_invalid_input(capsys, argv, message):
    assert main(["labels", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
