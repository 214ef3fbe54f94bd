"""Span tracing from outside ``src/``: wrap public callables, record, analyse.

The traced pass installs :func:`install` in the serving process *before* it
builds the application (and before a cluster forks its workers, which
inherit the wrappers).  Each wrapper records one span per call — name,
start, end, parent span, request id — into an in-memory list that is
written to one JSONL file per process when the process ends.  The runner
merges the files, pairs server spans with its own client-side request log
by request id, and derives the per-layer metrics (:func:`layer_metrics`).

A request id is ``<session token>:<per-session sequence number>``; the
client sends the sequence number as the ``_seq`` request parameter, so the
id survives the cluster hop without counting calls on either side.
Timestamps are ``time.perf_counter()``, which on Linux is one system-wide
monotonic clock, so spans of different processes share a time axis.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import stats

__all__ = [
    "SEQ_PARAM",
    "Span",
    "Tracer",
    "install",
    "layer_metrics",
    "load_spans",
    "pair_requests",
    "self_times",
    "setup_durations",
]

#: Request parameter carrying the per-session sequence number.
SEQ_PARAM = "_seq"

#: Spans that open a request in a process (everything below inherits its id).
ROOT_NAMES = ("cluster.router.handle", "web.container.handle")


class Span(NamedTuple):
    process: str
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    rid: Optional[str]
    attrs: Dict[str, Any]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped callables; one instance per process."""

    def __init__(self, label: str = "main", token_prefix: str = "") -> None:
        self.label = label
        #: Prepended to session tokens seen in this process, so a cluster
        #: worker's ``tok000001`` pairs with the browser's ``w1-tok000001``.
        self.token_prefix = token_prefix
        self.records: List[Tuple[Any, ...]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- wrapping ---------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        request_id: Optional[Callable[[Tuple[Any, ...]], Optional[str]]] = None,
        before: Optional[Callable[[Tuple[Any, ...]], Any]] = None,
        after: Optional[Callable[[Tuple[Any, ...], Any], Optional[Dict[str, Any]]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``request_id(args)`` names the request when the span has no parent;
        ``before(args)`` captures state that ``after(args, state)`` turns
        into the span's attributes.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent, rid = stack[-1]
            else:
                parent = None
                rid = request_id(args) if request_id is not None else None
            sid = next(tracer._ids)
            state = before(args) if before is not None else None
            stack.append((sid, rid))
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = after(args, state) if after is not None else None
                tracer.records.append((sid, parent, name, start, end, rid, attrs))

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one root span around a block (set-up steps)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.records.append(
                (next(self._ids), None, name, start, time.perf_counter(), None, None)
            )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------------

    def flush(self, directory: str) -> str:
        """Write this process's spans to ``directory`` (one JSONL file)."""
        path = os.path.join(directory, f"spans-{self.label}-{os.getpid()}.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"process": self.label, "pid": os.getpid()}) + "\n")
            for record in self.records:
                handle.write(json.dumps(record) + "\n")
        return path


def load_spans(directory: str) -> List[Span]:
    """Merge every ``spans-*.jsonl`` file under ``directory``.

    File layout: the first line is ``{"process": label, "pid": n}``; every
    further line is ``[sid, parent, name, start, end, rid, attrs]`` with
    ``sid``/``parent`` unique within the file.
    """
    spans: List[Span] = []
    for filename in sorted(os.listdir(directory)):
        if not (filename.startswith("spans-") and filename.endswith(".jsonl")):
            continue
        with open(os.path.join(directory, filename), encoding="utf-8") as handle:
            process = f"{json.loads(handle.readline())['process']}"
            for line in handle:
                sid, parent, name, start, end, rid, attrs = json.loads(line)
                spans.append(Span(process, sid, parent, name, start, end, rid, attrs or {}))
    return spans


# -- installation ---------------------------------------------------------------


def install(tracer: Tracer, flush_dir: Optional[str] = None) -> None:
    """Wrap the public callables the per-layer table is computed from.

    With ``flush_dir`` set, forked cluster workers write their own span
    file there when ``worker_main`` returns (multiprocessing children skip
    ``atexit``, so the flush rides on the entry point itself).
    """
    import repro.cluster.server as cluster_server
    import repro.web.container as container
    import repro.web.forms as forms
    from repro.cluster.router import ClusterRouter
    from repro.cluster.rpc import WorkerClient
    from repro.presentation.renderer import PageRenderer
    from repro.runtime.activation import ActivationBuilder
    from repro.runtime.concurrency import ReadWriteLock
    from repro.runtime.engine import HildaEngine
    from repro.runtime.returns import ReturnProcessor
    from repro.sql.executor import SQLExecutor
    from repro.storage.wal import WalWriter
    from repro.storage.wal_backend import WalBackend
    from repro.web.sessions import SESSION_COOKIE, SessionManager

    def request_id(args: Tuple[Any, ...]) -> Optional[str]:
        request = args[1]
        token = request.cookies.get(SESSION_COOKIE)
        seq = request.params.get(SEQ_PARAM)
        if token is None or seq is None:
            return None
        return f"{tracer.token_prefix}{token}:{seq}"

    def cumulative_counters(args: Tuple[Any, ...], _state: Any) -> Dict[str, int]:
        # Cumulative, not per-call deltas: concurrent requests share these
        # counters, so the analysis differences the first and last value
        # seen in the measured window instead of summing overlapping deltas.
        app = args[0]
        render = app.renderer.stats
        activation = app.engine.activation_cache_stats
        maintenance = app.engine.maintenance_stats
        return {
            "fragment_hits": render.hits,
            "fragment_misses": render.misses,
            "fragment_evictions": render.evictions,
            "fragments_rendered": render.fragments_rendered,
            "activation_hits": activation.hits,
            "activation_misses": activation.misses,
            "patches": maintenance.patched,
            "bailouts": maintenance.bailouts,
        }

    def builder_counts(args: Tuple[Any, ...]) -> Tuple[int, int]:
        return args[0].instances_built, args[0].instances_reused

    def builder_delta(args: Tuple[Any, ...], state: Tuple[int, int]) -> Dict[str, int]:
        # Rebuilds run under the engine's write lock, so deltas are exact.
        return {
            "built": args[0].instances_built - state[0],
            "reused": args[0].instances_reused - state[1],
        }

    wrap = tracer.wrap
    wrap(container.HildaApplication, "handle", "web.container.handle",
         request_id=request_id, after=cumulative_counters)
    wrap(SessionManager, "require", "web.sessions.require")
    # The container binds decode_action by name at import time.
    wrap(forms, "decode_action", "web.forms.decode")
    wrap(container, "decode_action", "web.forms.decode")
    wrap(ReadWriteLock, "acquire_write", "runtime.lock.write_wait")
    wrap(ReadWriteLock, "acquire_read", "runtime.lock.read_wait")
    wrap(HildaEngine, "apply", "runtime.engine.apply")
    wrap(ReturnProcessor, "process", "runtime.returns.process")
    wrap(ActivationBuilder, "build_session_tree", "runtime.activation.rebuild",
         before=builder_counts, after=builder_delta)
    wrap(SQLExecutor, "execute_query", "sql.executor.statement")
    wrap(SQLExecutor, "execute", "sql.executor.statement")
    wrap(PageRenderer, "render_session", "presentation.render")
    wrap(WalBackend, "commit", "storage.commit")
    wrap(WalBackend, "wait_durable", "storage.wait_durable")
    wrap(WalBackend, "checkpoint", "storage.checkpoint")
    wrap(WalWriter, "append", "storage.wal_append",
         before=lambda args: args[0].appended_size,
         after=lambda args, size: {"bytes": args[0].appended_size - size})
    wrap(os, "fsync", "storage.fsync")
    wrap(ClusterRouter, "handle", "cluster.router.handle", request_id=request_id)
    wrap(WorkerClient, "call", "cluster.rpc.call",
         after=lambda args, _state: {"method": args[1] if len(args) > 1 else "?"})

    original_worker_main = cluster_server.worker_main

    @functools.wraps(original_worker_main)
    def traced_worker_main(spec: Any, index: int, conn: Any) -> None:
        # Runs in the forked child: drop the parent's spans, relabel.
        tracer.label = f"worker{index}"
        tracer.token_prefix = f"w{index}-"
        tracer.records = []
        try:
            original_worker_main(spec, index, conn)
        finally:
            if flush_dir is not None:
                tracer.flush(flush_dir)

    cluster_server.worker_main = traced_worker_main
    tracer._undo.append((cluster_server, "worker_main", original_worker_main))


# -- analysis --------------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> Dict[Tuple[str, int], float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[Tuple[str, int], List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[(span.process, span.parent)].append(span)
    result: Dict[Tuple[str, int], float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get((span.process, span.sid), ()), key=lambda s: s.start):
            low = max(child.start, cursor)
            high = min(child.end, span.end)
            if high > low:
                covered += high - low
                cursor = high
        result[(span.process, span.sid)] = span.duration - covered
    return result


def pair_requests(requests: Iterable[Any], spans: Iterable[Span]) -> Dict[str, Dict[str, Span]]:
    """Client request id -> {root span name -> that request's span}."""
    roots: Dict[str, Dict[str, Span]] = defaultdict(dict)
    for span in spans:
        if span.parent is None and span.rid is not None and span.name in ROOT_NAMES:
            roots[span.rid][span.name] = span
    return {request.rid: roots[request.rid] for request in requests if request.rid in roots}


#: Set-up steps recorded with :meth:`Tracer.span`, by per-layer metric name.
SETUP_SPANS = {
    "hilda.load_program_ms": "hilda.load_program",
    "relational.seed_ms": "relational.seed",
    "cluster.start_ms": "cluster.start",
}


def setup_durations(spans: Iterable[Span]) -> Dict[str, List[float]]:
    """Durations (seconds) of the set-up spans, one entry per process that ran the step."""
    found: Dict[str, List[float]] = {metric: [] for metric in SETUP_SPANS}
    metric_of = {span_name: metric for metric, span_name in SETUP_SPANS.items()}
    for span in spans:
        if span.name in metric_of:
            found[metric_of[span.name]].append(span.duration)
    return found


def _ms(values: Iterable[float]) -> List[float]:
    return [value * 1000.0 for value in values]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _counter_delta(handles: Sequence[Span], key: str) -> int:
    """Growth of a cumulative counter over ``handles`` (ordered by end time),
    summed per process."""
    first: Dict[str, int] = {}
    last: Dict[str, int] = {}
    for span in handles:
        if key in span.attrs:
            first.setdefault(span.process, span.attrs[key])
            last[span.process] = span.attrs[key]
    return sum(last[process] - first[process] for process in last)


def layer_metrics(
    spans: Sequence[Span], requests: Sequence[Any], window: Tuple[float, float],
    sockets: bool = True,
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
    """The per-layer table from one traced measured phase.

    ``requests`` is the runner's client-side log (records with ``rid``,
    ``cls``, ``start``, ``end``, ``connected``); ``window`` bounds the
    measured phase; ``sockets`` is false when clients called ``handle``
    directly, so there is no ``web.server`` layer to charge.  Returns
    ``(metrics, info)``; every metric is ``{"value", "unit", "n"}`` and a
    layer the workload bypasses reports value 0 with ``n`` 0.
    """
    low, high = window
    spans = [span for span in spans if low <= span.start and span.end <= high]
    requests = [r for r in requests if low <= r.start and r.end <= high]
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    cls_of = {r.rid: r.cls for r in requests if r.rid}
    own = self_times(spans)
    metrics: Dict[str, Dict[str, Any]] = {}

    def put(name: str, value: float, unit: str, n: int) -> None:
        metrics[name] = {"value": value, "unit": unit, "n": n}

    def put_p50(name: str, durations: Sequence[float], p: float = 50) -> None:
        put(name, stats.percentile(_ms(durations), p) if durations else 0.0, "ms", len(durations))

    def durations(name: str, classes: Optional[Tuple[str, ...]] = None) -> List[float]:
        return [
            span.duration
            for span in by_name.get(name, ())
            if classes is None or cls_of.get(span.rid) in classes
        ]

    # web.server: what the client waited beyond the outermost server span.
    paired = pair_requests(requests, spans)
    edges: Dict[str, List[float]] = defaultdict(list)
    for request in requests if sockets else ():
        roots = paired.get(request.rid)
        if not roots:
            continue
        outer = roots.get("cluster.router.handle") or roots["web.container.handle"]
        edges[request.cls].append(request.end - request.start - outer.duration)
    put_p50("web.server.edge_admin_ms", edges["get_admin"])
    put_p50("web.server.edge_student_ms", edges["get_student"])
    connects = [r.end - r.start for r in requests if r.connected]
    put_p50("web.server.connect_ms", connects)
    put("web.server.connections", float(len(connects)), "count", len(connects))

    handles = sorted(by_name.get("web.container.handle", ()), key=lambda span: span.end)
    put_p50("web.container.handle_ms", [span.duration for span in handles])
    put_p50("web.sessions.require_ms", durations("web.sessions.require"))
    put_p50("web.forms.decode_ms", durations("web.forms.decode"))

    for side in ("write", "read"):
        waits = durations(f"runtime.lock.{side}_wait")
        put_p50(f"runtime.lock.{side}_wait_ms", waits)
        put_p50(f"runtime.lock.{side}_wait_p95_ms", waits, p=95)

    put_p50("runtime.engine.apply_local_ms", durations("runtime.engine.apply", ("post_local",)))
    put_p50("runtime.engine.apply_persist_ms", durations("runtime.engine.apply", ("post_persist",)))
    put_p50("runtime.returns.process_ms", durations("runtime.returns.process"))

    rebuilds = by_name.get("runtime.activation.rebuild", [])
    applies = by_name.get("runtime.engine.apply", [])
    built = sum(span.attrs.get("built", 0) for span in rebuilds)
    reused = sum(span.attrs.get("reused", 0) for span in rebuilds)
    put_p50("runtime.activation.rebuild_ms", [span.duration for span in rebuilds])
    put("runtime.activation.rebuilds_per_post", _ratio(len(rebuilds), len(applies)), "count", len(applies))
    put("runtime.activation.reuse_ratio", _ratio(reused, built + reused), "ratio", built + reused)
    hits = _counter_delta(handles, "activation_hits")
    misses = _counter_delta(handles, "activation_misses")
    put("runtime.activation.cache_hit_ratio", _ratio(hits, hits + misses), "ratio", hits + misses)

    # ``execute`` delegates SELECTs to ``execute_query``: count the outer call.
    statement_keys = {(s.process, s.sid) for s in by_name.get("sql.executor.statement", ())}
    statements = [
        span
        for span in by_name.get("sql.executor.statement", ())
        if (span.process, span.parent) not in statement_keys
    ]
    put_p50("sql.executor.statement_ms", [span.duration for span in statements])
    put("sql.executor.statements_per_request", _ratio(len(statements), len(handles)), "count", len(handles))
    patches = _counter_delta(handles, "patches")
    bailouts = _counter_delta(handles, "bailouts")
    put("sql.delta.patch_ratio", _ratio(patches, patches + bailouts), "ratio", patches + bailouts)

    put_p50("presentation.render_admin_ms", durations("presentation.render", ("get_admin",)))
    put_p50("presentation.render_student_ms", durations("presentation.render", ("get_student",)))
    fragment_hits = _counter_delta(handles, "fragment_hits")
    fragment_misses = _counter_delta(handles, "fragment_misses")
    put("presentation.fragment_hit_ratio",
        _ratio(fragment_hits, fragment_hits + fragment_misses), "ratio", fragment_hits + fragment_misses)
    put("presentation.fragments_rendered_per_request",
        _ratio(_counter_delta(handles, "fragments_rendered"), len(handles)), "count", len(handles))
    put("presentation.fragment_evictions",
        float(_counter_delta(handles, "fragment_evictions")), "count", len(handles))

    commits = by_name.get("storage.commit", [])
    appends = by_name.get("storage.wal_append", [])
    checkpoints = by_name.get("storage.checkpoint", [])
    put_p50("storage.commit_ms", [span.duration for span in commits])
    put_p50("storage.wait_durable_ms", durations("storage.wait_durable"))
    put("storage.fsyncs_per_commit",
        _ratio(len(by_name.get("storage.fsync", ())), len(commits)), "count", len(commits))
    put("storage.wal_bytes_per_commit",
        _ratio(sum(span.attrs.get("bytes", 0) for span in appends), len(commits)), "bytes", len(commits))
    put_p50("storage.checkpoint_ms", [span.duration for span in checkpoints])
    put("storage.checkpoints", float(len(checkpoints)), "count", len(checkpoints))

    routed = by_name.get("cluster.router.handle", [])
    calls = [span for span in by_name.get("cluster.rpc.call", ()) if span.attrs.get("method") != "touch"]
    put_p50("cluster.router.handle_ms", [span.duration for span in routed])
    put_p50("cluster.router.self_ms", [own[(span.process, span.sid)] for span in routed])
    put_p50("cluster.rpc.call_ms", [span.duration for span in calls])
    put("cluster.rpc.calls_per_request", _ratio(len(calls), len(routed)), "count", len(routed))
    worker_handles = {span.rid: span for span in handles if span.process.startswith("worker")}
    put_p50("cluster.worker.handle_ms", [span.duration for span in worker_handles.values()])
    hops = [
        call.duration - worker_handles[call.rid].duration
        for call in calls
        if call.attrs.get("method") == "handle" and call.rid in worker_handles
    ]
    put_p50("cluster.rpc.hop_ms", hops)

    # Sanity of the span tree: the self times below a request's container
    # span must add up to that span (they do unless nesting broke).
    by_key = {(span.process, span.sid): span for span in spans}
    in_request: Dict[Tuple[str, int], bool] = {}

    def under_container(span: Span) -> bool:
        trail = []
        verdict = False
        while span is not None:
            key = (span.process, span.sid)
            if key in in_request:
                verdict = in_request[key]
                break
            trail.append(key)
            if span.parent is None:
                verdict = span.name == "web.container.handle"
                break
            span = by_key.get((span.process, span.parent))
        for key in trail:
            in_request[key] = verdict
        return verdict

    layer_self: Dict[str, float] = defaultdict(float)
    for span in spans:
        if under_container(span):
            layer_self[span.name] += own[(span.process, span.sid)]
    handle_total = sum(span.duration for span in handles)
    info = {
        "spans": len(spans),
        "paired_requests": len(paired),
        "self_sum_ratio": _ratio(sum(layer_self.values()), handle_total),
        "self_time_share": {
            name: _ratio(value, handle_total) for name, value in sorted(layer_self.items())
        },
    }
    return metrics, info
