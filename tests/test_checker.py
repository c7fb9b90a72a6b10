import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from stabreg.checker import (
    TraceError,
    find_stabilization,
    parse_trace,
)

from stabreg.protocol import INITIAL_VALUE
from stabreg.sim import ScenarioConfig, run_scenario

from helpers import (
    Op,
    all_ops,
    late_stale_trace,
    linearizable_swmr,
    make_trace_lines,
    random_ops,
    suffix_scan_atomic_from,
)


def parsed(ops_by_proc):
    return parse_trace(make_trace_lines(ops_by_proc))


def test_parse_header_and_ops():
    lines = ['{"type": "header", "config": {"n": 3}}'] + make_trace_lines({
        0: [Op("write", "v#1", 1, 2)],
        1: [Op("read", "v#1", 3, 4)],
    })
    trace = parse_trace(lines)
    # the header is skipped: the operations are those of the events alone,
    # and positions still count the header line
    headless = parse_trace(lines[1:])
    assert [(op.op_id, op.invoke_pos - 1, op.response_pos - 1) for op in trace.operations] == [
        (op.op_id, op.invoke_pos, op.response_pos) for op in headless.operations]
    assert len(trace.operations) == 2
    write, read = trace.operations
    assert write.kind == "write" and write.widx == 0
    assert read.kind == "read" and read.value == "v#1"


def test_parse_rejects_overlapping_ops_on_one_proc():
    lines = [
        json.dumps({"step": 1, "proc": 0, "event": "write_invoke",
                    "op_id": "a", "value": "x"}),
        json.dumps({"step": 2, "proc": 0, "event": "write_invoke",
                    "op_id": "b", "value": "y"}),
    ]
    with pytest.raises(TraceError):
        parse_trace(lines)


def test_parse_rejects_orphan_response():
    lines = [json.dumps({"step": 1, "proc": 0, "event": "read_response",
                         "op_id": "a", "value": "x"})]
    with pytest.raises(TraceError):
        parse_trace(lines)


def event(step, proc, kind, op_id, **extra):
    return json.dumps({"step": step, "proc": proc, "event": kind,
                       "op_id": op_id, **extra})


def test_parse_rejects_garbage():
    with pytest.raises(TraceError):
        parse_trace(["not json"])
    with pytest.raises(TraceError):
        parse_trace([json.dumps({"step": 1, "proc": 0, "event": "levitate",
                                 "op_id": "a"})])
    with pytest.raises(TraceError):
        parse_trace([json.dumps({"step": 1, "proc": 0})])
    cases = [
        ("{} {}", "not valid JSON"),
        ('{"a": 1} x', "not valid JSON"),
        ("3", "not a JSON object"),
        ("[]", "not a JSON object"),
        ('"write_invoke"', "not a JSON object"),
        (event(1, 0, ["write", "invoke"], "a"), "unknown event kind"),
        (event(1, [0], "write_invoke", "a", value="v#1"), "proc and step"),
        (event(1, "0", "write_invoke", "a", value="v#1"), "proc and step"),
        (event(True, 0, "write_invoke", "a", value="v#1"), "proc and step"),
        (event(1.5, 0, "write_invoke", "a", value="v#1"), "proc and step"),
        (event(1, 0, "write_invoke", ["a"], value="v#1"), "op_id"),
        (event(1, 0, "write_invoke", 7, value="v#1"), "op_id"),
        (event(1, 0, "write_invoke", "a", value=["v#1"]), "value"),
        (event(1, 0, "write_invoke", "a", value=1), "value"),
    ]
    for line, reason in cases:
        with pytest.raises(TraceError, match=reason):
            parse_trace([line])
    read = [event(1, 1, "read_invoke", "r"),
            event(2, 1, "read_response", "r", value={"v": 1})]
    with pytest.raises(TraceError, match="event 1: value"):
        parse_trace(read)
    # a truthy non-boolean abort would hide this stale read from the sweep
    for abort in ("false", 1, "no", None):
        stale = [event(1, 0, "write_invoke", "w1", value="v#1"),
                 event(2, 0, "write_response", "w1"),
                 event(3, 1, "read_invoke", "r"),
                 event(4, 1, "read_response", "r", value=INITIAL_VALUE, abort=abort)]
        with pytest.raises(TraceError, match="event 3: abort must be true or false"):
            parse_trace(stale)


def test_parse_streams_any_iterable():
    lines = ['{"type": "header", "config": {"n": 3}}', ""] + make_trace_lines({
        0: [Op("write", "v#1", 1, 2), Op("write", "v#2", 5, 6)],
        1: [Op("read", "v#1", 3, 4), Op("read", "v_init", 7, 8)],
    })
    listed = find_stabilization(parse_trace(lines)).to_dict()
    assert find_stabilization(parse_trace(iter(lines))).to_dict() == listed
    streamed = parse_trace(line + "\n" for line in lines)
    assert find_stabilization(streamed).to_dict() == listed
    # positions count the blank line, whatever the iterable
    broken = lines[:2] + ["  ", "{} {}"]
    for source in (broken, iter(broken), (line for line in broken)):
        with pytest.raises(TraceError, match="^event 3: not valid JSON$"):
            parse_trace(source)


def test_parse_rejects_second_writer():
    lines = make_trace_lines({0: [Op("write", "v#1", 1, 2)]}) + [
        event(3, 1, "write_invoke", "w2", value="v#2"),
    ]
    with pytest.raises(TraceError, match="writer"):
        parse_trace(lines)


def test_parse_rejects_repeated_written_value():
    lines = make_trace_lines({0: [Op("write", "v#1", 1, 2),
                                  Op("write", "v#1", 3, 4)]})
    with pytest.raises(TraceError, match="written twice"):
        parse_trace(lines)


def test_parse_rejects_reused_op_id():
    across = [event(1, 0, "write_invoke", "a", value="v#1"),
              event(2, 1, "read_invoke", "a")]
    on_one_proc = [event(1, 1, "read_invoke", "a"),
                   event(2, 1, "read_response", "a", value="v_init"),
                   event(3, 1, "read_invoke", "a")]
    for lines in (across, on_one_proc):
        with pytest.raises(TraceError, match="used twice"):
            parse_trace(lines)


def test_parse_orders_and_maps_operations():
    trace = parsed({
        1: [Op("read", "v#2", 1, 2), Op("read", "corrupt", 7, 8)],
        0: [Op("write", "v#1", 3, 4), Op("write", "v#2", 5, 6)],
    })
    assert [op.op_id for op in trace.completed] == [
        op.op_id for op in sorted(trace.operations, key=lambda op: op.response_pos)]
    assert [op.rank for op in trace.completed] == list(range(4))
    assert [op.widx for op in trace.writes] == [0, 1]
    assert [op.widx for op in trace.completed if op.kind == "read"] == [1, -1]


def test_clean_history_passes():
    trace = parsed({
        0: [Op("write", "v#1", 1, 2), Op("write", "v#2", 5, 6)],
        1: [Op("read", "v#1", 3, 4), Op("read", "v#2", 7, 8)],
    })
    verdict = find_stabilization(trace)
    assert verdict.violations == []
    assert verdict.atomic_from == 0


def test_stale_read_is_a_regularity_violation():
    # w1 completed strictly before the read began, yet it returned v_init
    trace = parsed({
        0: [Op("write", "v#1", 1, 2)],
        1: [Op("read", "v_init", 3, 4)],
    })
    verdict = find_stabilization(trace)
    assert [v.rule for v in verdict.violations] == ["regularity"]
    assert verdict.atomic_from is None


def test_concurrent_read_may_return_either_value():
    trace = parsed({
        0: [Op("write", "v#1", 1, 4)],
        1: [Op("read", "v_init", 2, 3)],
    })
    assert find_stabilization(trace).violations == []


def test_read_from_the_future_is_flagged():
    trace = parsed({
        1: [Op("read", "v#1", 1, 2)],
        0: [Op("write", "v#1", 3, 4)],
    })
    assert [v.rule for v in find_stabilization(trace).violations] == ["regularity"]


def test_new_old_inversion_between_reads():
    # both reads are concurrent with both writes, so regularity alone is
    # happy; the second read going back to v#1 after the first settled on
    # v#2 is what must be caught
    trace = parsed({
        0: [Op("write", "v#1", 1, 20), Op("write", "v#2", 21, 40)],
        1: [Op("read", "v#2", 22, 25)],
        2: [Op("read", "v#1", 26, 30)],
    })
    assert [v.rule for v in find_stabilization(trace).violations] == ["new-old-inversion"]


def test_violations_are_listed_read_by_read_in_invocation_order():
    # p1op3 is invoked first and completes last; both it and p2op5 are
    # stale, and p2op5 also goes back behind p2op4
    trace = parsed({
        0: [Op("write", "v#1", 1, 2), Op("write", "v#2", 3, 4)],
        1: [Op("read", "v#1", 5, 20)],
        2: [Op("read", "v#2", 6, 7), Op("read", "v_init", 8, 9)],
    })
    expected = [
        ("regularity", ("p1op3", "p0op2")),
        ("regularity", ("p2op5", "p0op2")),
        ("new-old-inversion", ("p2op4", "p2op5")),
    ]
    verdict = find_stabilization(trace)
    assert [(v.rule, v.op_ids) for v in verdict.violations] == expected


def test_reads_of_two_unwritten_values_conflict_even_when_they_overlap():
    ops_by_proc = {
        0: [Op("write", "v#1", 5, 6)],
        1: [Op("read", "corrupt#0", 1, 4), Op("read", "v#1", 7, 8)],
        2: [Op("read", "corrupt#1", 2, 3)],
    }
    trace = parsed(ops_by_proc)
    verdict = find_stabilization(trace)
    assert [(v.rule, v.op_ids) for v in verdict.violations] == [
        ("initial-value", ("p1op2", "p2op4"))]
    # the earlier-completed read (rank 0) leaves the suffix first
    assert verdict.atomic_from == 1 == suffix_scan_atomic_from(trace)
    assert not linearizable_swmr(all_ops(ops_by_proc), initial=None)
    # one unwritten value is the register's initial value, whatever it is
    ops_by_proc[2] = [Op("read", "corrupt#0", 2, 3)]
    assert find_stabilization(parsed(ops_by_proc)).violations == []
    assert linearizable_swmr(all_ops(ops_by_proc), initial=None)


def test_unwritten_value_cut_is_the_latest_pair():
    # the latest unwritten read and the latest one with another value set
    # the cut: 1 + the earlier of the two ranks
    for values, cut in ((["a", "b", "b"], 1), (["a", "b", "a"], 2)):
        reads = [Op("read", v, 2 * i + 1, 2 * i + 2) for i, v in enumerate(values)]
        trace = parsed({0: [Op("write", "v#1", 7, 8)],
                        1: reads + [Op("read", "v#1", 9, 10)]})
        verdict = find_stabilization(trace)
        assert {v.rule for v in verdict.violations} == {"initial-value"}
        assert verdict.atomic_from == cut == suffix_scan_atomic_from(trace)


def test_reads_of_two_unwritten_values_in_a_real_run():
    # near-wrap seed 13: p3r1 returns corrupt#1 and completes first, every
    # other read before the first write returns corrupt#0
    config = ScenarioConfig(n=5, seed=13, steps=600_000, writes=40, c=1, r=8,
                            corruption="near-wrap")
    lines, metrics = run_scenario(config)
    trace = parse_trace(lines)
    ops = {op.op_id: op for op in trace.operations}
    assert (ops["p3r1"].value, ops["p3r1"].rank) == ("corrupt#1", 0)
    assert ops["p3r2"].value == "corrupt#0"
    assert ops["p3r1"].response_pos < ops["p3r2"].invoke_pos
    verdict = find_stabilization(trace, metrics)
    assert {v.rule for v in verdict.violations} == {"initial-value"}
    assert ("p3r1", "p3r2") in [v.op_ids for v in verdict.violations]
    assert verdict.atomic_from == 1
    assert verdict.stats["initial_value"] == "corrupt#0"


def test_initial_value_is_what_the_suffix_reads_of_unwritten_values_return():
    def initial(reads, late=()):
        # reads before the write completes, then one of it, then ``late``
        early = [Op("read", v, 2 * i + 1, 2 * i + 2) for i, v in enumerate(reads)]
        trace = parsed({0: [Op("write", "v#1", 20, 21)],
                        1: early + [Op("read", "v#1", 22, 23)],
                        2: [Op("read", v, 24, 25) for v in late]})
        verdict = find_stabilization(trace)
        return verdict.atomic_from, verdict.stats["initial_value"]

    # consistent reads of one unwritten value: it is the initial value
    assert initial(["corrupt#0", "corrupt#0"]) == (0, "corrupt#0")
    # a conflict leaves the suffix, whose reads agree on the later value
    assert initial(["corrupt#0", "corrupt#1", "corrupt#1"]) == (1, "corrupt#1")
    assert initial(["corrupt#1", "corrupt#0", "corrupt#1"]) == (2, "corrupt#1")
    # no read of an unwritten value: the register's own initial value
    assert initial([]) == (0, INITIAL_VALUE)
    # a read of an unwritten value after a write completed: never atomic
    assert initial(["corrupt#0"], late=["corrupt#0"]) == (None, INITIAL_VALUE)
    # an aborted read returns nothing
    lines = [event(1, 1, "read_invoke", "r1"),
             event(2, 1, "read_response", "r1", value="__abort__", abort=True),
             event(3, 1, "read_invoke", "r2"),
             event(4, 1, "read_response", "r2", value="corrupt#0")]
    assert find_stabilization(parse_trace(lines)).stats["initial_value"] == "corrupt#0"


def test_aborted_reads_are_counted_but_not_checked():
    lines = make_trace_lines({0: [Op("write", "v#1", 1, 2)]}) + [
        json.dumps({"step": 3, "proc": 1, "event": "read_invoke", "op_id": "r1"}),
        json.dumps({"step": 4, "proc": 1, "event": "read_response",
                    "op_id": "r1", "value": "__abort__", "abort": True}),
    ]
    verdict = find_stabilization(parse_trace(lines))
    assert verdict.violations == []
    assert verdict.stats["aborted_reads"] == 1
    assert verdict.atomic_from == 0


def test_stabilization_skips_corrupt_prefix():
    trace = parsed({
        0: [Op("write", "v#1", 10, 11), Op("write", "v#2", 14, 15)],
        1: [Op("read", "corrupt#3", 1, 2), Op("read", "v#1", 12, 13),
            Op("read", "v#2", 16, 17)],
    })
    # the corrupt read maps to no write: fine until a real write completes
    verdict = find_stabilization(trace)
    assert verdict.atomic_from == 0

    trace2 = parsed({
        0: [Op("write", "v#1", 1, 2), Op("write", "v#2", 5, 6)],
        1: [Op("read", "corrupt#3", 3, 4), Op("read", "v#2", 7, 8)],
    })
    verdict2 = find_stabilization(trace2)
    assert verdict2.violations  # the full trace is not atomic
    # dropping w1 from the suffix is enough: pre-suffix values are tolerated
    assert verdict2.atomic_from == 1
    assert verdict2.stats["writes_before_stabilization"] == 1


def test_verdict_serialization():
    trace = parsed({0: [Op("write", "v#1", 1, 2)],
                    1: [Op("read", "v_init", 3, 4)]})
    verdict = find_stabilization(trace, metrics={"epoch_changes": 3})
    d = verdict.to_dict()
    assert d["atomic_from"] == "never"
    assert d["stats"]["epoch_changes"] == 3
    assert d["violations"][0]["rule"] == "regularity"


def test_filters_are_slices_of_the_violation_stream():
    # the three filters are kept only for the benchmark's span table; on
    # criterion 9's random traces each must return its slice of the verdict
    from stabreg.checker import check_no_inversion, check_regularity, check_suffix
    seen = set()
    for seed in range(10_000):
        trace = parsed(random_ops(seed))
        violations = find_stabilization(trace).violations
        assert check_suffix(trace) == violations, seed
        assert check_regularity(trace) == [
            v for v in violations if v.rule == "regularity"], seed
        assert check_no_inversion(trace) == [
            v for v in violations if v.rule == "new-old-inversion"], seed
        seen.update(v.rule for v in violations)
    assert {"regularity", "new-old-inversion", "initial-value"} <= seen


def test_degenerate_traces():
    # no completed operation: nothing can be violated
    assert find_stabilization(parse_trace([])).atomic_from == 0
    pending = parse_trace([event(1, 0, "write_invoke", "w1", value="v#1")])
    assert find_stabilization(pending).atomic_from == 0
    # one completed operation without a violation
    single = parsed({0: [Op("write", "v#1", 1, 2)]})
    verdict = find_stabilization(single)
    assert verdict.atomic_from == 0
    assert verdict.stats["writes_before_stabilization"] == 0
    # one completed read of a value written only after it ended
    future = parse_trace(make_trace_lines({1: [Op("read", "v#1", 1, 2)]}) + [
        event(3, 0, "write_invoke", "w1", value="v#1"),
    ])
    verdict = find_stabilization(future)
    assert [v.rule for v in verdict.violations] == ["regularity"]
    assert verdict.atomic_from is None


def test_inversion_cut_is_latest_newer_read():
    # p1op3 and p2op5 (ranks 1 and 2) both returned v#2 before p1op4 went
    # back to v#1: p1op4 stays inverted until the suffix drops p2op5
    trace = parsed({
        0: [Op("write", "v#1", 1, 2), Op("write", "v#2", 3, 30)],
        1: [Op("read", "v#2", 4, 5), Op("read", "v#1", 10, 11)],
        2: [Op("read", "v#2", 6, 7), Op("read", "v#2", 12, 13)],
    })
    verdict = find_stabilization(trace)
    assert [v.rule for v in verdict.violations] == ["new-old-inversion"]
    assert verdict.violations[0].op_ids == ("p1op3", "p1op4")  # names the first
    assert verdict.atomic_from == 3 == suffix_scan_atomic_from(trace)


@pytest.mark.parametrize("max_ops", [8, 14])
def test_cuts_match_suffix_scan_on_random_histories(max_ops):
    disagreements = []
    late = 0
    for seed in range(3000):
        trace = parsed(random_ops(seed, max_ops))
        got = find_stabilization(trace).atomic_from
        if got != suffix_scan_atomic_from(trace):
            disagreements.append(seed)
        late += got not in (0, None)
    assert not disagreements
    assert late > 500  # the sample exercises cuts past the first operation


@st.composite
def swmr_traces(draw):
    """Single-writer histories with overlapping readers, pending operations,
    aborted reads, corrupt values and reads of values written only later."""
    readers = draw(st.integers(1, 3))
    moves = draw(st.lists(st.tuples(st.integers(0, readers), st.integers(0, 9)),
                          max_size=30))
    lines, open_op, writes = [], {}, 0
    for step, (proc, choice) in enumerate(moves):
        if proc not in open_op:
            open_op[proc] = op_id = f"op{step}"
            if proc == 0:
                writes += 1
                lines.append(event(step, 0, "write_invoke", op_id, value=f"v#{writes}"))
            else:
                lines.append(event(step, proc, "read_invoke", op_id))
        elif proc == 0:
            lines.append(event(step, 0, "write_response", open_op.pop(0)))
        elif choice == 9:
            lines.append(event(step, proc, "read_response", open_op.pop(proc),
                               value="__abort__", abort=True))
        else:
            # values up to two writes ahead: some are written later, some never
            values = [INITIAL_VALUE, "corrupt#1"] + [f"v#{w}"
                                                     for w in range(1, writes + 3)]
            lines.append(event(step, proc, "read_response", open_op.pop(proc),
                               value=values[choice % len(values)]))
    return lines


@settings(max_examples=400, deadline=None)
@given(swmr_traces())
def test_cuts_match_suffix_scan_on_generated_histories(lines):
    trace = parse_trace(lines)
    assert find_stabilization(trace).atomic_from == suffix_scan_atomic_from(trace)


def test_late_violation_scales():
    lines, cut = late_stale_trace(20_001)
    trace = parse_trace(lines)
    started = time.perf_counter()
    verdict = find_stabilization(trace)
    elapsed = time.perf_counter() - started
    assert len(trace.completed) == 20_001
    assert cut > 17_000
    assert verdict.atomic_from == cut
    assert elapsed < 5.0
