"""The four workloads: who is logged in, and the request script of each client.

One application — MiniCMS at :data:`SCALE` — is driven through four
deployments.  There are two *logical clients*; each owns one admin session
and three student sessions, so no two threads ever race on a cookie except
where a workload says so.  A client's script is generated up front from the
seed and then replayed in a loop; the program under test only ever sees the
generated requests.

Class shares are fixed patterns, not per-request coin flips: the Zipf
weights become exact per-block quotas, and the seed only decides the order
inside a block.  Every seed therefore sends the same number of admin and
student GETs, and throughput does not drift with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = [
    "ADMIN_USER",
    "CLIENTS",
    "SCALE",
    "SEEDED_ROWS",
    "WORKLOADS",
    "Workload",
    "anchor_aid",
    "client_sessions",
    "script_for",
    "zipf_quotas",
]

#: ``seed_scaled`` arguments: admin page ~101 instances / 29 kB, student
#: page ~31 instances / 145 kB.
SCALE = {"n_courses": 10, "n_students": 10, "n_assignments": 4}
#: Rows of the tables the assignment cycle writes, as seeded (2 problems
#: per assignment); the cycle is net-zero, so a run must end on these.
SEEDED_ROWS = {"assign": 40, "problem": 80}

ADMIN_USER = "alice"
CLIENTS = 2
ZIPF_S = 1.1
#: GETs per script block; the Zipf quotas are exact within one block.
READ_BLOCK = 180
#: mixed_cluster: this many Zipf GETs, then one step of the assignment cycle.
GETS_PER_STEP = 9

#: Session keys of one client, most popular first.  Students outnumber
#: admins in a course-management system, so a student ranks first.
_RANKED_ROLES = ("student", "admin", "student", "student")


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``inproc`` | ``http`` | ``wal`` | ``cluster`` (see ``serve.py``).
    deployment: str
    #: ``read`` | ``write`` | ``mixed``: which script the clients replay.
    script: str
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "read_inproc", "inproc", "read",
            "GET / only, one thread calling HildaApplication.handle: no sockets, no writes; "
            "presentation dominates and web.server, storage, cluster do nothing",
        ),
        Workload(
            "read_http", "http", "read",
            "the identical request script over ThreadedHildaServer with 2 keep-alive clients: "
            "web.server dominates, engine layers are the small remainder",
        ),
        Workload(
            "write_wal", "wal", "write",
            "2 admin writers start each net-zero assignment cycle together on a WAL engine, with "
            "post-write GETs: runtime, sql and storage do the work; read caches are hit from the "
            "write side",
        ),
        Workload(
            "mixed_cluster", "cluster", "mixed",
            "9 Zipf GETs then 1 assignment-cycle step through a 2-worker fork cluster: adds "
            "router, RPC and replicated-table fan-out, which the other workloads bypass",
        ),
    )
}


def client_sessions(client: int) -> List[Tuple[str, str, str]]:
    """(session key, user, role) of one client's sessions, ranked by popularity.

    Both admin sessions log in as the same administrator — ``seed_scaled``
    gives every course to one admin — and differ in the course they edit.
    """
    sessions = []
    student = client * 3
    for role in _RANKED_ROLES:
        if role == "admin":
            sessions.append((f"admin{client}", ADMIN_USER, "admin"))
        else:
            student += 1
            sessions.append((f"stu{student}", f"stu{student}", "student"))
    return sessions


def anchor_aid(client: int) -> int:
    """A seeded assignment id of the course client ``client`` edits (10 + client)."""
    return client * SCALE["n_assignments"] + 1


def zipf_quotas(n_items: int, total: int, s: float = ZIPF_S) -> List[int]:
    """Split ``total`` requests over ranks 1..n by Zipf(s), largest remainder."""
    weights = [1.0 / (rank + 1) ** s for rank in range(n_items)]
    scale = total / sum(weights)
    exact = [weight * scale for weight in weights]
    quotas = [int(value) for value in exact]
    by_remainder = sorted(range(n_items), key=lambda i: exact[i] - quotas[i], reverse=True)
    for index in by_remainder[: total - sum(quotas)]:
        quotas[index] += 1
    return quotas


def _read_block(client: int, rng: random.Random) -> List[Tuple[str, str]]:
    keys = [key for key, _user, _role in client_sessions(client)]
    block = [
        ("get", key)
        for key, quota in zip(keys, zipf_quotas(len(keys), READ_BLOCK))
        for _ in range(quota)
    ]
    rng.shuffle(block)
    return block


def script_for(workload: Workload, client: int, seed: int) -> List[Tuple[str, str]]:
    """One client's request script: a list of ``(op, target)`` replayed in a loop.

    ``("get", session key)`` fetches that session's page; ``("step", "")``
    performs the next POST of the client's assignment cycle (UpdateRow →
    GetRow → SubmitBasic → SelectRow-delete); ``("sync", "")`` sends nothing
    and waits until the other client has reached its ``sync`` too.
    """
    # Keyed on the script kind, not the workload: read_inproc and read_http
    # replay the identical script.
    rng = random.Random(f"{seed}/{workload.script}/{client}")
    if workload.script == "read":
        return _read_block(client, rng)
    if workload.script == "mixed":
        script: List[Tuple[str, str]] = []
        reads = _read_block(client, rng)
        for offset in range(0, len(reads), GETS_PER_STEP):
            script.extend(reads[offset : offset + GETS_PER_STEP])
            script.append(("step", ""))
        return script
    # write: the cycle, with the pages a persistent write invalidates
    # fetched after the submit and again after the delete — the client's two
    # idle students and the other admin.  (More post-write GETs than one per
    # write, because a 20 s run fits only ~60 cycles and a median needs the
    # samples.)  The seed picks which student is read first.
    #
    # The writers meet before every cycle (``sync``).  Left alone, two
    # closed-loop writers on one lock settle into one of two stable phases
    # for a whole run — their persistent POSTs always collide, or never do —
    # and which one differs from run to run (post_persist_p50 220 vs 140 ms
    # at equal throughput).  Starting each cycle together pins the
    # colliding phase, the one that loads the write lock.
    students = [key for key, _user, role in client_sessions(client) if role == "student"][:2]
    rng.shuffle(students)
    after_write = [("get", students[0]), ("get", students[1]), ("get", f"admin{1 - client}")]
    return [("sync", ""), ("step", ""), ("step", ""), ("step", ""), *after_write,
            ("step", ""), *after_write]
