"""Deployments, the client loop and the output checks of the macro-benchmark.

A *pass* over one workload is: set the deployment up (timed), log every
session in and warm every page, replay the clients' scripts for the measured
seconds while checking every reply, let writers finish their current
assignment cycle, then stop the deployment and check the tables it leaves
behind.  Load is a closed loop with zero think time: a client sends its next
request when the previous reply has been checked.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.apps.minicms import load_minicms

from . import ROOT, serve
from .client import BenchClient, BrowserSession, InprocClient, PageForms, Reply
from .workloads import (
    CLIENTS,
    SEEDED_ROWS,
    Workload,
    anchor_aid,
    client_sessions,
    script_for,
)

READY_TIMEOUT = 60.0
REPORT_TIMEOUT = 60.0
#: How far past its deadline a measured phase may run while a request class
#: of the script still has no sample, before the run is given up.
OVERRUN_GRACE = 10.0
#: POSTs a writer may spend finishing its cycle after the measured phase.
DRAIN_STEPS = 12
PAGE_MARKER = "<h1>MiniCMS</h1>"
APPLIED = "Action applied"
CONFLICT = "hilda-conflict"
#: Environment overrides that would silently re-base a deployment.
PINNED_ENV = ("REPRO_STORAGE_BACKEND", "REPRO_SERVER_MODE")


class Record(NamedTuple):
    """One request in a client's log (a flat tuple, so the collector can
    stop tracking it and a long run does not slow its own garbage passes)."""

    rid: Optional[str]
    client: int
    cls: str  # get_admin | get_student | post_local | post_persist
    start: float
    end: float
    #: The reply passed its checks (a conflict banner is not a failure).
    ok: bool
    conflict: bool
    #: The request opened a new connection.
    connected: bool
    #: Sent during the measured seconds (not warm-up or drain).
    measured: bool


class BenchmarkError(RuntimeError):
    """The run cannot produce numbers (set-up, warm-up or the script failed)."""


# -- deployments ------------------------------------------------------------------


class InprocDeployment:
    """MiniCMS in the runner's own process; clients call ``handle`` directly."""

    def __init__(self, tracer: Optional[Any] = None) -> None:
        self.tracer = tracer
        self.application: Any = None

    def start(self) -> None:
        with serve.setup_span(self.tracer, "hilda.load_program"):
            program = load_minicms()
        self.application = serve.build_application(program, None)
        serve.seed_minicms(self.application.engine, self.tracer)

    def client(self) -> InprocClient:
        return InprocClient(self.application)

    def stop(self) -> Dict[str, Any]:
        report = {
            "rows": [serve.table_counts(self.application.engine)],
            "peak_rss_mb": serve.peak_rss_mb(os.getpid()),
        }
        self.application.close()
        return report

    def kill(self) -> None:
        pass  # nothing outlives the runner's own process


class ChildDeployment:
    """A ``serve.py`` child process on an ephemeral port.

    The child leads its own process group, so :meth:`kill` also reaps the
    cluster workers it forked.
    """

    def __init__(self, kind: str, workdir: str, trace_dir: Optional[str] = None) -> None:
        self.kind = kind
        self.workdir = workdir
        self.trace_dir = trace_dir
        self.process: Optional[subprocess.Popen] = None
        self.address: Tuple[str, int] = ("", 0)
        self._buffer = b""

    def start(self) -> None:
        command = [sys.executable, "-m", "benchmarks.macro.serve", "--deployment", self.kind]
        if self.kind == "wal":
            data_dir = os.path.join(self.workdir, f"wal-{time.monotonic_ns()}")
            command += ["--data-dir", data_dir]
        if self.trace_dir:
            command += ["--trace-dir", self.trace_dir]
        env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
        # String hashing is per-process random by default, which moves dict
        # and set costs from one server process to the next.
        env.setdefault("PYTHONHASHSEED", "0")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            start_new_session=True,
        )
        ready = self._read_event("ready", READY_TIMEOUT)
        self.address = (ready["host"], int(ready["port"]))

    def client(self) -> BenchClient:
        return BenchClient(*self.address)

    def stop(self) -> Dict[str, Any]:
        process = self.process
        try:
            process.stdin.write(b"stop\n")
            process.stdin.flush()
            report = self._read_event("report", REPORT_TIMEOUT)
            process.wait(timeout=30.0)
        finally:
            self.kill()
        if process.returncode != 0:
            raise BenchmarkError(f"server child exited with code {process.returncode}")
        return report

    def kill(self) -> None:
        """Stop the child and everything it forked; safe to call twice."""
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        process.wait()
        for stream in (process.stdin, process.stdout):
            if stream is not None:
                stream.close()

    def _read_event(self, event: str, timeout: float) -> Dict[str, Any]:
        """The next JSON line on the child's stdout, which must be ``event``."""
        deadline = time.monotonic() + timeout
        descriptor = self.process.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([descriptor], [], [], remaining)[0]:
                raise BenchmarkError(f"server child sent no {event!r} line in {timeout:.0f} s")
            chunk = os.read(descriptor, 65536)
            if not chunk:
                raise BenchmarkError(
                    f"server child ended (code {self.process.poll()}) before {event!r}"
                )
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        message = json.loads(line)
        if message.get("event") != event:
            raise BenchmarkError(f"expected {event!r} from the server child, got {message!r}")
        return message


def make_deployment(workload: Workload, workdir: str, trace_dir: Optional[str] = None,
                    tracer: Optional[Any] = None) -> Any:
    if workload.deployment == "inproc":
        return InprocDeployment(tracer)
    return ChildDeployment(workload.deployment, workdir, trace_dir)


# -- the assignment cycle -----------------------------------------------------------


class AssignmentCycle:
    """One writer's net-zero cycle: UpdateRow, GetRow, SubmitBasic, delete.

    Form instance ids are scraped from the last page the writer's own
    session received; every POST answers with that page.
    """

    STEPS = ("update", "getrow", "submit", "delete")
    CLASS_OF = {"update": "post_local", "getrow": "post_local",
                "submit": "post_persist", "delete": "post_persist"}

    def __init__(self, client: Any, session: BrowserSession, index: int, seed: int,
                 page: str) -> None:
        self.client = client
        self.session = session
        self.anchor = anchor_aid(index)
        self.prefix = f"bench-{seed}-{index}"
        self.weight = 10.0 + seed % 80
        self.page = page
        self.position = 0
        self.count = 0

    @property
    def name(self) -> str:
        return f"{self.prefix}-{self.count}"

    @property
    def mid_cycle(self) -> bool:
        return self.position != 0

    def step(self) -> Tuple[str, Reply, str]:
        """POST the next step; returns (request class, reply, problem or '').

        The problem :data:`CONFLICT` means the engine refused the action
        for a conflicting write; the cycle restarts like after a failure.
        """
        kind = self.STEPS[self.position]
        forms = PageForms(self.page, self.anchor)
        params = self._params(kind, forms)
        if params is None:
            reply = self.client.get(self.session)
            self.page = reply.body
            return "get_admin", reply, f"no {kind} form for {self.name!r} in the admin page"
        reply = self.client.post(self.session, "/action", params)
        if reply.status == 200:
            self.page = reply.body
        problem = self._verdict(kind, reply)
        if problem:
            # Start over, except that a created assignment must still go.
            self.position = self.STEPS.index("delete") if kind == "delete" else 0
        else:
            self.position = (self.position + 1) % len(self.STEPS)
            if kind == "delete":
                self.count += 1
        return self.CLASS_OF[kind], reply, problem

    def _params(self, kind: str, forms: PageForms) -> Optional[Dict[str, Any]]:
        if kind == "delete":
            row = forms.delete_form(self.name)
            if row is None:
                return None
            return {"instance_id": row[0], "c1": row[1], "c2": row[2]}
        if not forms.found:
            return None
        if kind == "update":
            return {"instance_id": forms.update_row, "c1": self.name,
                    "c2": "2006-04-01", "c3": "2006-04-15"}
        if kind == "getrow":
            return {"instance_id": forms.get_row, "c1": "Problem A", "c2": self.weight}
        return {"instance_id": forms.submit}

    def _verdict(self, kind: str, reply: Reply) -> str:
        if reply.status != 200:
            return f"{kind}: status {reply.status} {reply.error}"
        if CONFLICT in reply.body:
            return CONFLICT
        if APPLIED not in reply.body:
            return f"{kind}: no 'Action applied' banner"
        if kind == "submit" and self.name not in reply.body:
            return f"submit: {self.name!r} missing from the page"
        if kind == "delete" and self.name in reply.body:
            return f"delete: {self.name!r} still on the page"
        return ""


# -- one client -----------------------------------------------------------------------


class ClientState:
    """One logical client: its connection, sessions, script position and log."""

    def __init__(self, index: int, workload: Workload, seed: int, client: Any) -> None:
        self.index = index
        self.workload = workload
        self.client = client
        self.script = script_for(workload, index, seed)
        self.cursor = 0
        self.sessions: Dict[str, BrowserSession] = {}
        self.cycle: Optional[AssignmentCycle] = None
        #: Read workloads: the exact page each session must keep receiving.
        self.expected: Dict[str, str] = {}
        self.records: List[Record] = []
        #: Request classes of the script not yet sent in the measured phase.
        self.missing: Set[str] = set()
        self.problems: List[str] = []
        self.elapsed = 0.0
        self.measuring = False
        #: Where the clients of a measured phase meet at a ``sync`` op.
        self.rendezvous = threading.Barrier(1)

    def session_specs(self) -> List[Tuple[str, str, str]]:
        specs = client_sessions(self.index)
        if self.workload.script == "write":
            # One writer and two idle bystanders per client.
            specs = [s for s in specs if s[2] == "admin"] + [s for s in specs if s[2] == "student"][:2]
        return specs

    def script_classes(self, all_sessions: Dict[str, BrowserSession]) -> Set[str]:
        classes = {f"get_{all_sessions[target].role}" for op, target in self.script if op == "get"}
        if any(op == "step" for op, _target in self.script):
            classes |= {"post_local", "post_persist"}
        return classes

    def run_one(self, all_sessions: Dict[str, BrowserSession]) -> None:
        op, target = self.script[self.cursor]
        self.cursor = (self.cursor + 1) % len(self.script)
        if op == "step":
            self.run_step()
            return
        if op == "sync":
            try:
                self.rendezvous.wait()
            except threading.BrokenBarrierError:
                pass  # the other client has left the measured phase
            return
        session = all_sessions[target]
        reply = self.client.get(session)
        problem = ""
        if reply.status != 200:
            problem = f"GET {target}: status {reply.status} {reply.error}"
        elif target in self.expected:
            if reply.body != self.expected[target]:
                problem = f"GET {target}: page differs from the warm-up page"
        elif PAGE_MARKER not in reply.body:
            problem = f"GET {target}: not a MiniCMS page"
        self.record(f"get_{session.role}", reply, problem)

    def run_step(self) -> None:
        cls, reply, problem = self.cycle.step()
        self.record(cls, reply, problem)

    def record(self, cls: str, reply: Reply, problem: str) -> None:
        # A conflict counts in conflict_rate only; it is the engine's
        # answer to a concurrent write, not a failed check.
        conflict = problem == CONFLICT
        failed = bool(problem) and not conflict
        if failed and len(self.problems) < 5:
            self.problems.append(problem)
        if self.measuring:
            self.missing.discard(cls)
        self.records.append(Record(
            reply.rid, self.index, cls, reply.start, reply.end, not failed,
            conflict, reply.connected, self.measuring,
        ))


# -- phases ---------------------------------------------------------------------------


def warm_up(states: List[ClientState], seed: int) -> Dict[str, List[float]]:
    """Log every session in, fetch each page twice, run one cycle per writer.

    Returns the login latencies by role (the first of each is the cold
    tree + cold render).  Any failure here aborts the run: numbers from a
    deployment that cannot serve its warm-up would mean nothing.
    """
    logins: Dict[str, List[float]] = {"admin": [], "student": []}
    for state in states:
        for key, user, role in state.session_specs():
            session = BrowserSession(user, role)
            reply = state.client.login(session)
            if reply.status != 200 or PAGE_MARKER not in reply.body or not session.token:
                raise BenchmarkError(f"warm-up: login of {user} failed: {reply.status} {reply.error}")
            logins[role].append(reply.latency * 1000.0)
            state.sessions[key] = session
    all_sessions = sessions_of(states)
    for state in states:
        for key, session in state.sessions.items():
            for _ in range(2):
                reply = state.client.get(session)
                if reply.status != 200 or PAGE_MARKER not in reply.body:
                    raise BenchmarkError(f"warm-up: GET {key} failed: {reply.status} {reply.error}")
            if state.workload.script == "read":
                state.expected[key] = reply.body
    for state in states:
        if state.workload.script == "read":
            continue
        admin = state.sessions[f"admin{state.index}"]
        page = state.client.get(admin).body
        state.cycle = AssignmentCycle(state.client, admin, state.index, seed, page)
        for _ in AssignmentCycle.STEPS:
            state.run_step()
        if state.problems or any(record.conflict for record in state.records):
            raise BenchmarkError(
                f"warm-up: assignment cycle failed: {state.problems or 'conflict'}"
            )
        state.records.clear()
    return logins


def sessions_of(states: List[ClientState]) -> Dict[str, BrowserSession]:
    merged: Dict[str, BrowserSession] = {}
    for state in states:
        merged.update(state.sessions)
    return merged


def measure(states: List[ClientState], seconds: float, threaded: bool) -> Tuple[float, float]:
    """Replay the scripts for ``seconds``; returns the measured window.

    ``threaded`` runs one thread per client (the HTTP workloads); otherwise
    one thread interleaves the clients' scripts (read_inproc).  Once every
    client has stopped, every writer finishes its current cycle and then
    every session loads its page once more, unmeasured, so the tables end
    net-zero on every engine.
    """
    all_sessions = sessions_of(states)
    errors: List[BaseException] = []
    rendezvous = threading.Barrier(len(states) if threaded else 1)
    for state in states:
        state.rendezvous = rendezvous  # for the scripts' ``sync`` ops
    begin = time.perf_counter()
    deadline = begin + seconds

    def loop(mine: List[ClientState]) -> None:
        try:
            for state in mine:
                state.measuring = True
                state.missing = state.script_classes(all_sessions)
            # Past the deadline only until every class has a sample, so a
            # very short run still reports every metric of its workload.
            while True:
                now = time.perf_counter()
                if now >= deadline:
                    missing = sorted(cls for state in mine for cls in state.missing)
                    if not missing:
                        break
                    if now >= deadline + OVERRUN_GRACE:
                        raise BenchmarkError(
                            f"no {missing} request within {OVERRUN_GRACE:g} s past the "
                            f"measured {seconds:g} s: "
                            f"{[p for state in mine for p in state.problems]}"
                        )
                for state in mine:
                    state.run_one(all_sessions)
            finished = time.perf_counter()
            for state in mine:
                state.measuring = False
                state.elapsed = finished - begin
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            errors.append(exc)
        finally:
            rendezvous.abort()  # nobody waits for a client that has stopped

    if threaded:
        threads = [threading.Thread(target=loop, args=([state],)) for state in states]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    else:
        loop(states)
    if errors:
        raise errors[0]
    # Only now, with every client stopped: a cluster worker pulls a
    # replicated table's final version with the next request it serves, so
    # the last page loads must come after the last write of *any* client,
    # or the shutdown check reads a stale replica.
    for state in states:
        for _ in range(DRAIN_STEPS):
            if state.cycle is None or not state.cycle.mid_cycle:
                break
            state.run_step()
    for state in states:
        for session in state.sessions.values():
            state.client.get(session)
    return begin, max(state.elapsed for state in states) + begin


def check_rows(report: Dict[str, Any]) -> List[str]:
    """The shutdown check: written tables are back at their seeded sizes."""
    problems = []
    for index, rows in enumerate(report.get("rows", [])):
        for table, expected in SEEDED_ROWS.items():
            if rows.get(table) != expected:
                problems.append(
                    f"engine {index}: table {table} ends with {rows.get(table)} rows, seeded {expected}"
                )
    if not report.get("rows"):
        problems.append("no row counts in the shutdown report")
    return problems


def run_phase(workload: Workload, seed: int, seconds: float, workdir: str,
              trace_dir: Optional[str] = None, tracer: Optional[Any] = None) -> Dict[str, Any]:
    """Set up, warm up, measure and stop one deployment; returns the raw log."""
    started = time.perf_counter()
    deployment = make_deployment(workload, workdir, trace_dir, tracer)
    states: List[ClientState] = []
    try:
        deployment.start()
        states = [
            ClientState(index, workload, seed, deployment.client()) for index in range(CLIENTS)
        ]
        logins = warm_up(states, seed)
        setup_s = time.perf_counter() - started
        window = (0.0, 0.0)
        if seconds > 0:
            window = measure(states, seconds, threaded=workload.deployment != "inproc")
        for state in states:
            state.client.close()
        report = deployment.stop()
    finally:
        for state in states:
            state.client.close()
        deployment.kill()
    return {
        "setup_s": setup_s,
        "logins": logins,
        "window": window,
        "records": [record for state in states for record in state.records],
        "elapsed": [state.elapsed for state in states],
        "problems": [p for state in states for p in state.problems] + check_rows(report),
        "report": report,
    }


def make_workdir() -> str:
    """A scratch directory inside the benchmark's own directory."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work", f"run-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))  # ``.work`` itself, once it is empty
    except OSError:
        pass
