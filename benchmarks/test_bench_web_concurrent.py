"""Concurrent web serving: threaded front end vs serial request handling.

PR 2's tentpole benchmark (see ``docs/concurrency.md``): drive N simulated
browsers — real sockets, real threads, think time between clicks — against
:class:`~repro.web.server.ThreadedHildaServer` and compare request
throughput against the same workload handled serially (one browser at a
time).  With think time dominating handling time, the threaded front end
overlaps the browsers' idle periods and should clear **2x the serial
throughput at 8 clients** comfortably.

The second half is a randomized concurrent-mutation stress test: browsers
interleave page loads and guestbook posts while the engine's auto-indexer
builds secondary indexes under concurrent readers.  It asserts the two
invariants the locking model promises:

* **zero lost updates** — every applied post is present in the persistent
  table exactly once;
* **no corrupted indexes** — every table passes
  :meth:`~repro.relational.table.Table.check_integrity` afterwards.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List

import pytest

from repro.config import EngineConfig
from repro.hilda.program import load_program
from repro.web.container import HildaApplication
from repro.web.forms import encode_action
from repro.web.server import HttpBrowser, ThreadedHildaServer

from .conftest import print_series, quick, write_bench_json

N_CLIENTS = quick(8, 4)
REQUESTS_PER_CLIENT = quick(6, 3)
THINK_TIME = 0.02  # seconds a simulated user spends looking at the page

#: Throughput acceptance; relaxed in the quick smoke pass, where fewer
#: clients on a small shared runner leave less idle time to overlap.
MIN_SPEEDUP = quick(2.0, 1.5)

GUESTBOOK_SOURCE = """
root aunit Guestbook {
    input schema { user(name:string) }
    persist schema { entry(eid:int key, author:string, message:string) }

    activator ActShowEntries : ShowTable(string, string) {
        input query { ShowTable.input :- SELECT E.author, E.message FROM entry E }
    }

    // An equi-join on entry.author so the auto-indexer builds a secondary
    // index that concurrent posts must then maintain.
    activator ActMyEntries : ShowTable(string) {
        input query {
            ShowTable.input :-
                SELECT E.message FROM entry E, user U WHERE E.author = U.name
        }
    }

    activator ActPostEntry : GetRow(string) {
        handler PostEntry {
            action {
                entry :-
                    SELECT E.eid, E.author, E.message FROM entry E
                    UNION
                    SELECT genkey(), U.name, O.c1 FROM user U, GetRow.output O
            }
        }
    }
}
"""


def make_application() -> HildaApplication:
    return HildaApplication(load_program(GUESTBOOK_SOURCE), config=EngineConfig(auto_index=True))


def browse(server_url: str, user: str, n_requests: int) -> int:
    """One simulated browser: log in, then reload the page with think time."""
    browser = HttpBrowser(server_url)
    assert browser.login(user).ok
    performed = 1
    for _ in range(n_requests):
        time.sleep(THINK_TIME)
        assert browser.get("/").ok
        performed += 1
    return performed


def run_serial(server_url: str) -> int:
    total = 0
    for client in range(N_CLIENTS):
        total += browse(server_url, f"serial{client}", REQUESTS_PER_CLIENT)
    return total


def run_concurrent(server_url: str) -> int:
    totals: List[int] = [0] * N_CLIENTS
    errors: List[BaseException] = []

    def worker(index: int) -> None:
        try:
            totals[index] = browse(server_url, f"conc{index}", REQUESTS_PER_CLIENT)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(index,)) for index in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return sum(totals)


def test_bench_threaded_throughput_vs_serial(benchmark):
    """Threaded serving must deliver >= MIN_SPEEDUP x serial throughput."""
    application = make_application()
    with ThreadedHildaServer(application) as server:
        start = time.perf_counter()
        serial_requests = run_serial(server.url)
        serial_elapsed = time.perf_counter() - start

        def concurrent_pass() -> float:
            begin = time.perf_counter()
            requests = run_concurrent(server.url)
            elapsed = time.perf_counter() - begin
            assert requests == serial_requests
            return elapsed

        concurrent_elapsed = benchmark.pedantic(concurrent_pass, rounds=1, iterations=1)

    serial_rps = serial_requests / serial_elapsed
    concurrent_rps = serial_requests / concurrent_elapsed
    speedup = concurrent_rps / serial_rps
    print_series(
        f"PR2 — threaded HTTP serving, {N_CLIENTS} simulated browsers, "
        f"{THINK_TIME * 1000:.0f}ms think time",
        [
            ("serial", serial_requests, f"{serial_elapsed:.3f}s", f"{serial_rps:.1f}"),
            (
                "threaded",
                serial_requests,
                f"{concurrent_elapsed:.3f}s",
                f"{concurrent_rps:.1f}",
            ),
            ("speedup", "", "", f"{speedup:.2f}x"),
        ],
        ["mode", "requests", "elapsed", "req/s"],
    )
    write_bench_json(
        "web_concurrent",
        {
            "clients": N_CLIENTS,
            "requests": serial_requests,
            "think_time_ms": THINK_TIME * 1000,
            "serial": {"elapsed_s": serial_elapsed, "requests_per_sec": serial_rps},
            "threaded": {
                "elapsed_s": concurrent_elapsed,
                "requests_per_sec": concurrent_rps,
            },
            "speedup": speedup,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"threaded throughput only {speedup:.2f}x serial "
        f"({concurrent_rps:.1f} vs {serial_rps:.1f} req/s, need {MIN_SPEEDUP}x)"
    )


POSTS_PER_CLIENT = quick(4, 2)
STRESS_ACTIONS = quick(14, 7)


def test_bench_concurrent_mutation_stress(benchmark):
    """Randomized interleaved reads/writes: no lost updates, no index rot."""

    def stress() -> Dict[str, int]:
        application = make_application()
        engine = application.engine
        # A secondary index that every concurrent post must maintain (the
        # planner may add more via auto_index while readers are in flight).
        engine.persistent_table("entry").create_index(["author"])
        applied_messages: List[str] = []
        applied_lock = threading.Lock()
        errors: List[BaseException] = []

        def engine_session_for(user: str) -> str:
            for session in application.sessions.all_sessions().values():
                if session.user == user:
                    return session.engine_session_id
            raise AssertionError(f"no web session for {user}")

        def post_entry(browser: HttpBrowser, user: str, message: str) -> bool:
            session_id = engine_session_for(user)
            # Re-read the page the way a browser would, then act on the
            # *current* GetRow instance; a concurrent reactivation between
            # the find and the POST surfaces as a detected conflict.
            boxes = engine.find_instances("GetRow", session_id=session_id)
            if not boxes:
                return False
            page = browser.post("/action", encode_action(boxes[0], [message]))
            return "Action applied" in page.body

        def worker(index: int) -> None:
            try:
                rng = random.Random(1000 + index)
                user = f"stress{index}"
                browser = HttpBrowser(server.url)
                assert browser.login(user).ok
                posted = 0
                for step in range(STRESS_ACTIONS):
                    if posted < POSTS_PER_CLIENT and (
                        rng.random() < 0.5 or STRESS_ACTIONS - step <= POSTS_PER_CLIENT - posted
                    ):
                        message = f"{user}-msg{posted}"
                        for _ in range(10):  # retry detected conflicts
                            if post_entry(browser, user, message):
                                with applied_lock:
                                    applied_messages.append(message)
                                posted += 1
                                break
                        else:
                            raise AssertionError(f"{user}: post never applied")
                    else:
                        assert browser.get("/").ok
                assert posted == POSTS_PER_CLIENT
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        with ThreadedHildaServer(application) as server:
            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(N_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors, errors

        entry_table = engine.persistent_table("entry")
        stored_messages = [row[2] for row in entry_table.rows]
        # Zero lost updates: every applied post is stored exactly once.
        assert sorted(stored_messages) == sorted(applied_messages)
        assert len(applied_messages) == N_CLIENTS * POSTS_PER_CLIENT
        # The auto-indexer ran under concurrent readers; nothing may be stale.
        problems = entry_table.check_integrity()
        assert problems == [], problems
        assert ("author",) in entry_table.indexes
        return {
            "entries": len(entry_table),
            "indexes": len(entry_table.indexes),
        }

    outcome = benchmark.pedantic(stress, rounds=1, iterations=1)
    print_series(
        f"PR2 — randomized concurrent-mutation stress ({N_CLIENTS} browsers)",
        [(outcome["entries"], outcome["indexes"], "none")],
        ["entries stored", "indexes", "corruption"],
    )


# ---------------------------------------------------------------------------
# PR 9 — cluster worker-scaling curve (docs/cluster.md).
#
# The same Zipf-skewed mixed read/write workload is replayed against fork
# clusters of 1, 2 and 4 shard workers, all through the session-affinity
# router over real RPC sockets.  The speedup is *algorithmic*, so it holds
# even on a single-core runner: with N shards each post's handler action
# scans/replaces 1/N of the note rows, and a write invalidates only the
# sessions co-resident on its shard instead of every session in the
# deployment.  Per-request work shrinks with N while the router/RPC cost
# stays constant, so the workload is sized so scan work dominates.
#
# The bench program deliberately has *no* global (cross-shard) activator:
# scatter-gather latency is covered by the equivalence/failover tests, while
# this curve isolates what sharding buys for shard-local serving.
# ---------------------------------------------------------------------------

CLUSTER_WORKER_COUNTS = (1, 2, 4)
CLUSTER_USERS = [f"user{index:02d}" for index in range(16)]
CLUSTER_NOTES_PER_USER = quick(48, 32)
CLUSTER_REQUESTS = quick(360, 144)
CLUSTER_DRIVERS = 4  # concurrent driver threads (users split evenly)
CLUSTER_WRITE_FRACTION = 0.5
CLUSTER_ZIPF_S = 1.2  # skew exponent for per-driver user popularity

#: Acceptance (ISSUE 9): four workers must at least double single-worker
#: throughput on the skewed mixed workload.
MIN_CLUSTER_SCALING = 2.0

CLUSTER_BENCH_SOURCE = """
root aunit Board {
    input schema { user(name:string) }
    persist schema { note(author:string, seq:int, text:string) }

    // Affine read: the equality note.author = user.name is the partitioning
    // witness, so every page renders entirely from the session's own shard.
    activator ActMyNotes : ShowTable(int, string) {
        input query {
            ShowTable.input :-
                SELECT N.seq, N.text FROM note N, user U
                WHERE N.author = U.name ORDER BY N.seq
        }
    }

    activator ActPost : GetRow(int, string) {
        handler PostNote {
            action {
                note :-
                    SELECT N.author, N.seq, N.text FROM note N
                    UNION ALL
                    SELECT U.name, O.c1, O.c2 FROM user U, GetRow.output O
            }
        }
    }
}
"""


def seed_cluster_bench(engine, index: int = 0) -> None:
    rows = [
        (user, seq, f"{user} note {seq}")
        for user in CLUSTER_USERS
        for seq in range(1, CLUSTER_NOTES_PER_USER + 1)
    ]
    engine.seed_persistent({"note": rows})


def _follow(handle, request):
    from repro.web.http import Request

    response = handle(request)
    while response.is_redirect:
        cookies = dict(request.cookies)
        cookies.update(response.set_cookies)
        request = Request.get(response.location, cookies=cookies)
        response = handle(request)
    return response


def run_cluster_pass(program, workers: int) -> float:
    """Drive the full workload against a fork cluster; return elapsed seconds."""
    import re

    from repro.cluster.server import ClusterServer
    from repro.config import ClusterConfig, ServerConfig
    from repro.web.http import Request
    from repro.web.sessions import SESSION_COOKIE

    instance_id = re.compile(r'name="instance_id" value="(\d+)"')
    cluster = ClusterConfig(
        workers=workers,
        retry_backoff=0.01,
        request_timeout=10.0,
        health_interval=5.0,  # no restarts expected; keep the monitor quiet
    )
    server = ClusterServer(
        program,
        cluster=cluster,
        server_config=ServerConfig(),
        seed=seed_cluster_bench,
    )
    with server:
        handle = server.router.handle
        cookies: Dict[str, str] = {}
        next_seq: Dict[str, int] = {}
        for user in CLUSTER_USERS:
            response = handle(Request.get(f"/login?user={user}"))
            assert response.is_redirect, response.status
            cookies[user] = response.set_cookies[SESSION_COOKIE]
            page = _follow(
                handle, Request.get("/", cookies={SESSION_COOKIE: cookies[user]})
            )
            assert page.ok and instance_id.search(page.body), page.status
            next_seq[user] = CLUSTER_NOTES_PER_USER + 1

        errors: List[BaseException] = []

        def driver(index: int) -> None:
            # Each driver owns a disjoint user subset (no cookie races) and
            # picks among them Zipf-style: a couple of hot sessions, a tail
            # of cold ones.  Seeded rng => the identical request sequence is
            # replayed at every worker count.
            try:
                rng = random.Random(7000 + index)
                mine = CLUSTER_USERS[index::CLUSTER_DRIVERS]
                weights = [1.0 / (rank + 1) ** CLUSTER_ZIPF_S for rank in range(len(mine))]
                for _ in range(CLUSTER_REQUESTS // CLUSTER_DRIVERS):
                    user = rng.choices(mine, weights=weights)[0]
                    jar = {SESSION_COOKIE: cookies[user]}
                    if rng.random() < CLUSTER_WRITE_FRACTION:
                        # A browser posts from the page it is looking at:
                        # re-fetch, then act on the current GetRow instance.
                        page = _follow(handle, Request.get("/", cookies=jar))
                        assert page.ok, f"{user}: HTTP {page.status}"
                        form = instance_id.search(page.body).group(1)
                        seq = next_seq[user]
                        next_seq[user] = seq + 1
                        page = _follow(
                            handle,
                            Request.post(
                                "/action",
                                {
                                    "instance_id": form,
                                    "c1": seq,
                                    "c2": f"{user} note {seq}",
                                },
                                cookies=jar,
                            ),
                        )
                    else:
                        page = _follow(handle, Request.get("/", cookies=jar))
                    assert page.ok, f"{user}: HTTP {page.status}"
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=driver, args=(index,))
            for index in range(CLUSTER_DRIVERS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        assert not errors, errors
    return elapsed


def test_bench_cluster_worker_scaling(benchmark):
    """4 shard workers must clear MIN_CLUSTER_SCALING x 1-worker throughput."""
    from repro.hilda.program import load_program as load

    program = load(CLUSTER_BENCH_SOURCE)

    def curve() -> Dict[int, float]:
        return {
            workers: run_cluster_pass(program, workers)
            for workers in CLUSTER_WORKER_COUNTS
        }

    elapsed = benchmark.pedantic(curve, rounds=1, iterations=1)
    rps = {
        workers: CLUSTER_REQUESTS / seconds for workers, seconds in elapsed.items()
    }
    scaling = rps[4] / rps[1]
    print_series(
        f"PR9 — cluster worker scaling, {CLUSTER_REQUESTS} Zipf-skewed requests "
        f"({CLUSTER_WRITE_FRACTION:.0%} writes, {len(CLUSTER_USERS)} sessions, "
        f"{CLUSTER_DRIVERS} drivers)",
        [
            (
                f"{workers} worker{'s' if workers > 1 else ''}",
                f"{elapsed[workers]:.3f}s",
                f"{rps[workers]:.1f}",
                f"{rps[workers] / rps[1]:.2f}x",
            )
            for workers in CLUSTER_WORKER_COUNTS
        ],
        ["cluster size", "elapsed", "req/s", "vs 1 worker"],
    )
    write_bench_json(
        "cluster_scaling",
        {
            "users": len(CLUSTER_USERS),
            "notes_per_user": CLUSTER_NOTES_PER_USER,
            "requests": CLUSTER_REQUESTS,
            "write_fraction": CLUSTER_WRITE_FRACTION,
            "zipf_s": CLUSTER_ZIPF_S,
            "series": [
                {
                    "workers": workers,
                    "elapsed_s": elapsed[workers],
                    "requests_per_sec": rps[workers],
                }
                for workers in CLUSTER_WORKER_COUNTS
            ],
            "speedup_4_vs_1": scaling,
        },
    )
    assert scaling >= MIN_CLUSTER_SCALING, (
        f"4-worker throughput only {scaling:.2f}x a single worker "
        f"({rps[4]:.1f} vs {rps[1]:.1f} req/s, need {MIN_CLUSTER_SCALING}x)"
    )
