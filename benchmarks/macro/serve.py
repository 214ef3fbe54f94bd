"""The serving child process of the HTTP workloads.

The runner starts this module as a separate process so the server does not
share the client threads' interpreter lock.  It builds MiniCMS on the
requested deployment, binds an ephemeral port, prints one ``ready`` JSON
line on stdout, serves until the line ``stop`` arrives on stdin, then
prints one ``report`` JSON line (row counts for the shutdown check, peak
resident memory, WAL records and bytes appended while serving) and exits.

With ``--trace-dir`` the span wrappers of :mod:`benchmarks.macro.trace` are
installed before anything is built — in particular before a cluster forks
its workers, which inherit them — and each process writes its spans there
when it ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import sys
from typing import Any, Dict, List, Optional

from repro.apps.minicms import load_minicms, seed_scaled
from repro.cluster.server import ClusterServer
from repro.config import ClusterConfig, EngineConfig, ServerConfig, StorageConfig
from repro.storage.wal import WalWriter
from repro.web.container import HildaApplication
from repro.web.server import ThreadedHildaServer

from .trace import Tracer, install
from .workloads import SCALE

DEPLOYMENTS = ("http", "wal", "cluster")
CLUSTER_WORKERS = 2
#: ISSUE 11 names 256 commits per checkpoint (the container's default), but
#: the 10 s traced pass commits ~110 times and would see no checkpoint, so
#: ``storage.checkpoint_ms`` would have no sample.  64 gives the traced pass
#: one or two and the 20 s untraced pass three or four.
CHECKPOINT_EVERY = 64
#: The tables the assignment cycle writes; their row counts must be back at
#: the seeded values when the run ends.
CHECKED_TABLES = ("assign", "problem")


def peak_rss_mb(pid: int) -> float:
    """Peak resident set of one process in MiB (``VmHWM``), 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class WalVolume:
    """Counts the records and bytes appended to the write-ahead log.

    The log file cannot answer this at shutdown: every checkpoint truncates
    it, and what is left is a random tail of the run.  So ``WalWriter.append``
    is wrapped, in the untraced pass too; it adds two integer reads per
    commit.
    """

    def __init__(self) -> None:
        self.records = 0
        self.bytes = 0
        original = WalWriter.append
        volume = self

        def counted_append(writer: Any, payload: Any) -> int:
            # Appends are serialised by the backend's transaction lock.
            before = writer.appended_size
            lsn = original(writer, payload)
            volume.bytes += writer.appended_size - before
            volume.records += 1
            return lsn

        WalWriter.append = counted_append


def setup_span(tracer: Optional[Any], name: str) -> Any:
    """A span around one set-up step in a traced run, else a no-op."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def seed_minicms(engine: Any, tracer: Optional[Any] = None) -> Dict[str, int]:
    with setup_span(tracer, "relational.seed"):
        return seed_scaled(engine, **SCALE)


def build_application(program: Any, data_dir: Optional[str]) -> Any:
    """MiniCMS on the container's defaults; a WAL engine when ``data_dir``."""
    if data_dir is None:
        return HildaApplication(program)
    storage = StorageConfig(
        backend="wal", data_dir=data_dir, fsync="batch", checkpoint_every=CHECKPOINT_EVERY
    )
    return HildaApplication(program, config=EngineConfig(storage=storage))


def table_counts(engine: Any) -> Dict[str, int]:
    return {name: len(engine.persistent_table(name)) for name in CHECKED_TABLES}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--deployment", choices=DEPLOYMENTS, required=True)
    parser.add_argument("--data-dir", help="WAL directory (deployment 'wal')")
    parser.add_argument("--trace-dir", help="install span wrappers; flush spans here")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_dir:
        tracer = Tracer("server")
        install(tracer, flush_dir=args.trace_dir)

    with setup_span(tracer, "hilda.load_program"):
        program = load_minicms()

    application = None
    volume = WalVolume() if args.deployment == "wal" else None
    if args.deployment == "cluster":
        server: Any = ClusterServer(
            program,
            cluster=ClusterConfig(workers=CLUSTER_WORKERS),
            server_config=ServerConfig(),
            # Runs in each forked worker, which inherits the tracer.
            seed=lambda engine, _index: seed_minicms(engine, tracer),
        )
        # Workers build and seed themselves after the fork, inside the start.
        with setup_span(tracer, "cluster.start"):
            server.start()
        host, port = server.http.address
    else:
        application = build_application(
            program, args.data_dir if args.deployment == "wal" else None
        )
        seed_minicms(application.engine, tracer)
        server = ThreadedHildaServer(application)
        server.start()
        host, port = server.address

    # Seeding is set-up; the volume reported is what serving appended.
    seeded = (volume.records, volume.bytes) if volume is not None else (0, 0)
    print(json.dumps({"event": "ready", "host": host, "port": port}), flush=True)

    for line in sys.stdin:
        if line.strip() == "stop":
            break

    report: Dict[str, Any] = {"event": "report"}
    pids = [os.getpid()] + [child.pid for child in multiprocessing.active_children()]
    report["peak_rss_mb"] = sum(peak_rss_mb(pid) for pid in pids)
    if application is None:
        exported = [server.export_tables(index) for index in range(CLUSTER_WORKERS)]
        report["rows"] = [
            {name: len(tables[program.root_name][name]) for name in CHECKED_TABLES}
            for tables in exported
        ]
        server.shutdown()
    else:
        server.shutdown()
        report["rows"] = [table_counts(application.engine)]
        application.close()
        if volume is not None:
            report["wal"] = {
                "commits": volume.records - seeded[0], "bytes": volume.bytes - seeded[1]
            }
    if tracer is not None:
        tracer.flush(args.trace_dir)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
