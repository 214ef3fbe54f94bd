"""Tier-1 checks of the macro-benchmark: contract names and the small rules.

Kept short (one 0.5 s pass per workload, one set-up each): the benchmark's
numbers are judged by ``compare.py``, not here.
"""

from __future__ import annotations

import json
import os
import re
import time

import pytest

from benchmarks.macro import compare, harness, run, serve, stats, trace
from benchmarks.macro.client import BrowserSession, InprocClient, PageForms, Reply
from benchmarks.macro.harness import Record
from repro.apps.minicms import load_minicms

from benchmarks.macro.workloads import (
    READ_BLOCK,
    SCALE,
    WORKLOADS,
    anchor_aid,
    script_for,
    zipf_quotas,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    return run.load_contract()


def test_benchmark_json_meets_the_contract(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in contract["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25 and entry["better"] in ("lower", "higher")
    for entry in contract["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) for m in contract["end_to_end"] + contract["per_layer"])
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert 1 <= contract["run_seconds"] <= 60 and 1 <= len(contract["per_layer"]) <= 128
    for path in contract["paths"]:
        assert os.path.isdir(os.path.join(run.ROOT, path))


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_the_end_to_end_names(workload, contract, monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    code = run.main(["--workload", workload, "--seconds", "0.5", "--trace", "0", "--seed", "3"])
    line = last_json_line(capsys.readouterr().out)
    assert code == 0 and line["correct"] is True and line["failed"] == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in contract["end_to_end"]]
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


@pytest.mark.parametrize("workload", ["read_inproc", "mixed_cluster"])
def test_traced_pass_emits_the_per_layer_names(workload, contract):
    workdir = run.harness.make_workdir()
    try:
        result = run.traced_pass(WORKLOADS[workload], 3, 0.5, workdir, reference_p50=1.0)
    finally:
        run.harness.remove_workdir(workdir)
    assert result["problems"] == []
    line = run.contract_line(result, [m["name"] for m in contract["per_layer"]], result["problems"])
    assert line["correct"] and list(line["metrics"]) == [m["name"] for m in contract["per_layer"]]
    metrics = result["metrics"]
    assert metrics["web.container.handle_ms"]["n"] > 0
    assert metrics["storage.commit_ms"]["n"] == 0  # memory backend: storage bypassed
    assert abs(result["info"]["self_sum_ratio"] - 1.0) < 0.1
    if workload == "read_inproc":
        assert metrics["web.server.connections"]["n"] == 0
        assert metrics["cluster.router.handle_ms"]["n"] == 0
        assert metrics["presentation.fragment_hit_ratio"]["value"] == 1.0
    else:
        # Worker processes flushed their own span files and were paired.
        assert metrics["cluster.worker.handle_ms"]["n"] > 0
        assert metrics["cluster.rpc.hop_ms"]["n"] > 0
        assert metrics["web.server.edge_student_ms"]["n"] > 0


def test_percentile_rule_needs_ten_samples_beyond():
    assert stats.supported_percentile(39) is None
    assert stats.supported_percentile(40) == 75
    assert stats.supported_percentile(199) == 90
    assert stats.supported_percentile(200) == 95
    assert stats.supported_percentile(1000) == 99
    assert stats.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert stats.percentile([0.0, 10.0], 95) == pytest.approx(9.5)


def span(sid, parent, name, start, end, rid=None, process="server", **attrs):
    return trace.Span(process, sid, parent, name, start, end, rid, attrs)


def test_self_time_subtracts_the_cover_of_children():
    spans = [
        span(1, None, "web.container.handle", 0.0, 10.0, "tok:1"),
        span(2, 1, "presentation.render", 1.0, 6.0, "tok:1"),
        span(3, 2, "runtime.lock.read_wait", 2.0, 3.0, "tok:1"),
        # Overlapping children are covered once, and clipped to the parent.
        span(4, 1, "web.sessions.require", 5.0, 8.0, "tok:1"),
        span(5, 1, "web.sessions.require", 9.0, 12.0, "tok:1"),
    ]
    own = trace.self_times(spans)
    assert own[("server", 1)] == pytest.approx(10.0 - (5.0 + 2.0 + 1.0))
    assert own[("server", 2)] == pytest.approx(4.0)
    assert own[("server", 3)] == pytest.approx(1.0)


def test_client_and_server_spans_pair_on_token_and_sequence():
    def record(rid, cls, start, end):
        return Record(rid, 0, cls, start, end, True, False, False, True)

    requests = [record("w1-tok7:1", "get_student", 0.0, 5.0),
                record("w1-tok7:2", "get_admin", 6.0, 9.0),
                record(None, "get_student", 9.0, 9.5)]
    spans = [
        span(1, None, "cluster.router.handle", 0.5, 4.5, "w1-tok7:1"),
        span(2, 1, "cluster.rpc.call", 0.6, 4.4, "w1-tok7:1", method="handle"),
        span(1, None, "web.container.handle", 1.0, 3.0, "w1-tok7:1", process="worker1"),
        span(3, None, "cluster.router.handle", 6.5, 8.5, "w1-tok7:2"),
        span(4, None, "web.container.handle", 20.0, 21.0, "w0-tok7:1", process="worker0"),
    ]
    paired = trace.pair_requests(requests, spans)
    assert set(paired) == {"w1-tok7:1", "w1-tok7:2"}
    assert set(paired["w1-tok7:1"]) == {"cluster.router.handle", "web.container.handle"}
    metrics, _info = trace.layer_metrics(spans, requests, (0.0, 10.0))
    assert metrics["web.server.edge_student_ms"]["value"] == pytest.approx(1000.0)  # 5 - 4
    assert metrics["cluster.rpc.hop_ms"]["value"] == pytest.approx(1800.0)  # 3.8 - 2
    assert metrics["cluster.router.self_ms"]["n"] == 2


def test_page_forms_finds_one_courses_forms_in_a_real_page():
    application = serve.build_application(load_minicms(), None)
    serve.seed_minicms(application.engine)
    admin = BrowserSession("alice", "admin")
    page = InprocClient(application).login(admin).body
    first, second = PageForms(page, anchor_aid(0)), PageForms(page, anchor_aid(1))
    assert first.found and second.found
    assert {first.update_row, first.get_row, first.submit}.isdisjoint(
        {second.update_row, second.get_row, second.submit}
    )
    assert [row[2] for row in second.delete_rows] == [
        f"Assignment {k}" for k in range(1, SCALE["n_assignments"] + 1)
    ]
    assert second.delete_form("Assignment 2")[1] == str(anchor_aid(1) + 1)
    assert second.delete_form("no such assignment") is None
    assert not PageForms(page, 10_000).found


def test_class_shares_are_fixed_and_only_the_order_follows_the_seed():
    assert sum(zipf_quotas(4, READ_BLOCK)) == READ_BLOCK
    one = script_for(WORKLOADS["read_http"], 0, seed=1)
    two = script_for(WORKLOADS["read_http"], 0, seed=2)
    assert one != two and sorted(one) == sorted(two)
    assert script_for(WORKLOADS["read_http"], 0, seed=1) == one
    assert script_for(WORKLOADS["read_inproc"], 0, seed=1) == one  # the identical script
    assert script_for(WORKLOADS["read_http"], 1, seed=1) != one
    mixed = script_for(WORKLOADS["mixed_cluster"], 0, seed=1)
    assert mixed.count(("step", "")) * 9 == len(mixed) - mixed.count(("step", ""))
    # write_wal: one cycle per pass, the writers meeting before each.
    write = script_for(WORKLOADS["write_wal"], 0, seed=1)
    assert write[0] == ("sync", "") and write.count(("step", "")) == 4
    assert sorted(write) == sorted(script_for(WORKLOADS["write_wal"], 0, seed=2))


class ScriptedCycle:
    """An assignment cycle that only counts its steps (and can be slow)."""

    CLASSES = ("post_local", "post_local", "post_persist", "post_persist")

    def __init__(self, log, index, delay):
        self.log, self.index, self.delay, self.position = log, index, delay, 0

    @property
    def mid_cycle(self):
        return self.position != 0

    def step(self):
        time.sleep(self.delay)
        self.log.append(("step", self.index))
        cls = self.CLASSES[self.position]
        self.position = (self.position + 1) % 4
        return cls, Reply(200, "", 0.0, 0.0, None), ""


class ScriptedClient:
    def __init__(self, log, index):
        self.log, self.index = log, index

    def get(self, session):
        self.log.append(("get", session.user))
        return Reply(200, harness.PAGE_MARKER, 0.0, 0.0, None)


def test_last_page_loads_wait_for_every_clients_last_write():
    """A cluster replica refreshes on the next request it serves, so no
    session may load its last page while another client is still writing."""
    log = []
    states = []
    for index in range(2):
        state = harness.ClientState(index, WORKLOADS["mixed_cluster"], 1, ScriptedClient(log, index))
        for key, user, role in state.session_specs():
            state.sessions[key] = BrowserSession(user, role)
        # Client 1 writes slowly, so it is still finishing its cycle when
        # client 0 is done; both end the measured phase mid-cycle.
        state.cycle = ScriptedCycle(log, index, delay=0.02 * index)
        states.append(state)
    harness.measure(states, 0.0, threaded=True)
    assert not any(state.cycle.mid_cycle for state in states)
    last_write = max(i for i, entry in enumerate(log) if entry[0] == "step")
    after = log[last_write + 1:]
    assert sorted(user for _op, user in after) == sorted(
        session.user for state in states for session in state.sessions.values()
    )


def test_compare_says_unresolved_when_spread_exceeds_the_bound(tmp_path):
    def result_file(name, values):
        runs = [
            {"workloads": {"read_http": {"end_to_end": {"throughput_rps": {"value": v}}}}}
            for v in values
        ]
        path = tmp_path / name
        path.write_text(json.dumps({"schema": run.SCHEMA, "runs": runs}))
        return str(path)

    bounds = {"throughput_rps": compare.Bound("higher", 0.10)}
    steady = result_file("a.json", [100, 101, 99, 100, 102])
    same = result_file("b.json", [101, 100, 100, 99, 101])
    slower = result_file("c.json", [80, 81, 79, 80, 82])
    noisy = result_file("d.json", [60, 100, 140, 80, 120])
    assert compare.compare([steady, same], bounds)[1] is True
    lines, clean = compare.compare([steady, slower], bounds)
    assert not clean and "REGRESSED" in lines[-1]
    lines, clean = compare.compare([steady, noisy], bounds)
    assert not clean and "unresolved" in lines[-1]
