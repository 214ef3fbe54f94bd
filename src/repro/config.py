"""Typed configuration objects for the whole stack.

The dataclasses here are the only way to configure
:class:`~repro.runtime.engine.HildaEngine`,
:class:`~repro.sql.executor.SQLExecutor`,
:class:`~repro.web.container.HildaApplication` and
:class:`~repro.web.server.ThreadedHildaServer`; each behaviour has
exactly one field that sets it:

* :class:`EngineConfig` — query planning/compilation switches, the
  reactivation mode and history recording, plus a nested
  :class:`CacheConfig`, :class:`OptimizerConfig` and :class:`StorageConfig`.
* :class:`OptimizerConfig` — the query-planning pipeline: the ``"cost"``
  (statistics-driven) vs ``"heuristic"`` (legacy) strategy and the
  join-enumeration bounds (``docs/optimizer.md``).
* :class:`CacheConfig` — every caching/invalidation knob (Section 6.2 of
  the paper: activation-query caching, fragment caching, dependency
  tracking, incremental maintenance, cache bounds).
* :class:`StorageConfig` — the durable storage backend (``"memory"`` vs
  the opt-in write-ahead-logged ``"wal"`` backend), its data directory,
  fsync policy and checkpoint cadence (``docs/storage.md``).
* :class:`SessionConfig` — web-session lifetime and bounds.
* :class:`ServerConfig` — HTTP front-end binding and logging, plus an
  optional :class:`ClusterConfig` for multi-process serving.

All configs validate on construction and raise
:class:`repro.errors.ConfigError` — never a bare ``ValueError`` — naming
the offending field.  They are frozen: derive variants with
:func:`dataclasses.replace` or the named constructors.

``docs/api.md`` inventories every field and what it is for.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigError

__all__ = [
    "CacheConfig",
    "ClusterConfig",
    "EngineConfig",
    "OptimizerConfig",
    "ServerConfig",
    "SessionConfig",
    "StorageConfig",
    "DEFAULT_ACTIVATION_CACHE_SIZE",
    "DEFAULT_DELTA_LOG_SIZE",
    "DEFAULT_FRAGMENT_CACHE_SIZE",
    "MAINTENANCE_MODES",
]

#: Default bound on the engine's activation-query cache (entries, LRU).
DEFAULT_ACTIVATION_CACHE_SIZE = 8192

#: Default bound on the renderer's fragment cache (entries, LRU).
DEFAULT_FRAGMENT_CACHE_SIZE = 8192

#: The reactivation modes :class:`~repro.runtime.engine.HildaEngine` knows.
REACTIVATION_MODES = ("eager", "lazy")

#: The query-planning strategies the SQL layer implements (docs/optimizer.md).
OPTIMIZER_STRATEGIES = ("cost", "heuristic")

#: How the runtime treats stale cached activation-query results:
#: ``"incremental"`` patches them in place through per-plan delta programs
#: (falling back to recomputation on any bailout), ``"recompute"`` always
#: re-executes the query (docs/caching.md § Incremental maintenance).
MAINTENANCE_MODES = ("incremental", "recompute")

#: Default per-table cap on retained delta rows (``CacheConfig.delta_log_size``).
DEFAULT_DELTA_LOG_SIZE = 512

#: The storage backends the engine can mount (docs/storage.md).
STORAGE_BACKENDS = ("memory", "wal")

#: WAL durability policies: fsync per commit inside the write lock, batched
#: group commit outside it, or no fsync at all (docs/storage.md).
FSYNC_MODES = ("always", "batch", "off")

#: How cluster workers are hosted: ``"fork"`` runs each worker in its own
#: process (real scale-out; Linux fork start method), ``"thread"`` hosts the
#: worker RPC servers as threads over one shared application (exercises the
#: router/transport in-process; used by the ``REPRO_SERVER_MODE=cluster``
#: test override).  See docs/cluster.md.
CLUSTER_PROCESS_MODELS = ("fork", "thread")


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------


def typed_config(owner: str, name: str, value: Any, expected: type, default: Any = None) -> Any:
    """``value`` checked to be an ``expected`` config (``default`` when None).

    A missing ``default`` means ``expected()``.  A wrongly typed value
    raises :class:`ConfigError` naming ``owner(name=...)``.
    """
    if value is None:
        return default if default is not None else expected()
    if not isinstance(value, expected):
        raise ConfigError(
            f"{owner}({name}=...) must be a {expected.__name__}, got {value!r}"
        )
    return value


def _require_bool(config: str, name: str, value: Any) -> None:
    if not isinstance(value, bool):
        raise ConfigError(f"{config}.{name} must be a bool, got {value!r}")


def _require_optional_size(config: str, name: str, value: Any) -> None:
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(
            f"{config}.{name} must be None (unbounded) or a positive int, got {value!r}"
        )


def _require_optional_positive(config: str, name: str, value: Any) -> None:
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
        raise ConfigError(
            f"{config}.{name} must be None or a positive number, got {value!r}"
        )


# ---------------------------------------------------------------------------
# The config dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CacheConfig:
    """Every caching and invalidation knob of the runtime (Section 6.2).

    ``activation_queries`` / ``fragments`` default **off** — the raw engine
    recomputes everything, which is the paper's baseline.  The server path
    (:class:`~repro.web.container.HildaApplication`) uses
    :meth:`server_defaults`, which turns both on; with dependency tracking
    the caches are exactly invalidated, so serving from them is safe (see
    ``docs/caching.md``).
    """

    #: Memoise activation-query results between state changes.
    activation_queries: bool = False
    #: Bound on the activation-query cache (entries; None = unbounded).
    activation_cache_size: Optional[int] = DEFAULT_ACTIVATION_CACHE_SIZE
    #: Cache rendered HTML fragments between requests.
    fragments: bool = False
    #: Bound on the fragment cache (entries; None = unbounded).
    fragment_cache_size: Optional[int] = DEFAULT_FRAGMENT_CACHE_SIZE
    #: Key caches on per-table version vectors instead of the global state
    #: version (fine-grained invalidation), and reuse unchanged subtrees
    #: during reactivation.
    dependency_tracking: bool = True
    #: Stale cached results: ``"incremental"`` patches them through delta
    #: programs, ``"recompute"`` re-executes (requires tracking to matter).
    maintenance: str = "recompute"
    #: Per-table cap on retained delta rows (None = unbounded); only read
    #: when ``maintenance="incremental"``.
    delta_log_size: Optional[int] = DEFAULT_DELTA_LOG_SIZE

    def __post_init__(self) -> None:
        _require_bool("CacheConfig", "activation_queries", self.activation_queries)
        _require_bool("CacheConfig", "fragments", self.fragments)
        _require_bool("CacheConfig", "dependency_tracking", self.dependency_tracking)
        _require_optional_size(
            "CacheConfig", "activation_cache_size", self.activation_cache_size
        )
        _require_optional_size(
            "CacheConfig", "fragment_cache_size", self.fragment_cache_size
        )
        if self.maintenance not in MAINTENANCE_MODES:
            raise ConfigError(
                "CacheConfig.maintenance must be one of "
                f"{MAINTENANCE_MODES}, got {self.maintenance!r}"
            )
        _require_optional_size("CacheConfig", "delta_log_size", self.delta_log_size)

    @classmethod
    def server_defaults(cls) -> "CacheConfig":
        """The caching policy the application container turns on by default."""
        return cls(activation_queries=True, fragments=True, maintenance="incremental")

    @classmethod
    def disabled(cls) -> "CacheConfig":
        """Everything off and coarse invalidation: the ablation baseline."""
        return cls(
            activation_queries=False,
            fragments=False,
            dependency_tracking=False,
        )


@dataclass(frozen=True)
class OptimizerConfig:
    """Configuration of the staged SQL query optimizer (docs/optimizer.md).

    ``strategy`` selects the planning pipeline: ``"cost"`` (the default)
    runs the statistics-driven pipeline — cardinality estimation, join-order
    enumeration and cost-based physical operator selection — while
    ``"heuristic"`` reproduces the pre-optimizer planner exactly (syntactic
    join order, greedy hash-join/index rewrites).
    """

    #: ``"cost"`` (statistics-driven pipeline) or ``"heuristic"`` (legacy).
    strategy: str = "cost"
    #: FROM lists up to this many relations are join-ordered by dynamic
    #: programming over subsets; larger lists fall back to a greedy ordering.
    dp_threshold: int = 6

    def __post_init__(self) -> None:
        if self.strategy not in OPTIMIZER_STRATEGIES:
            raise ConfigError(
                "OptimizerConfig.strategy must be one of "
                f"{OPTIMIZER_STRATEGIES}, got {self.strategy!r}"
            )
        if (
            isinstance(self.dp_threshold, bool)
            or not isinstance(self.dp_threshold, int)
            or self.dp_threshold < 1
        ):
            raise ConfigError(
                f"OptimizerConfig.dp_threshold must be a positive int, "
                f"got {self.dp_threshold!r}"
            )

    @classmethod
    def heuristic(cls) -> "OptimizerConfig":
        """The legacy planner: syntactic join order, greedy rewrites."""
        return cls(strategy="heuristic")


@dataclass(frozen=True)
class StorageConfig:
    """The engine's durable storage backend (``docs/storage.md``).

    The default ``"memory"`` backend keeps every table in process memory —
    the paper's model, and the fastest.  The ``"wal"`` backend makes
    committed state durable: each engine transaction is appended to a
    checksummed write-ahead log under ``data_dir`` and replayed on the next
    start, with periodic checkpoint snapshots bounding replay time.
    """

    #: ``"memory"`` (default, volatile) or ``"wal"`` (durable, opt-in).
    backend: str = "memory"
    #: Directory holding the WAL and snapshot (required for ``"wal"``).
    data_dir: Optional[str] = None
    #: ``"batch"`` group-commits concurrent transactions behind shared
    #: fsyncs; ``"always"`` fsyncs serially inside the commit section;
    #: ``"off"`` never fsyncs (process-crash durable, not power-loss).
    fsync: str = "batch"
    #: Checkpoint after this many transactions (None = never checkpoint).
    checkpoint_every: Optional[int] = 256

    def __post_init__(self) -> None:
        if self.backend not in STORAGE_BACKENDS:
            raise ConfigError(
                f"StorageConfig.backend must be one of {STORAGE_BACKENDS}, "
                f"got {self.backend!r}"
            )
        if self.data_dir is not None and (
            not isinstance(self.data_dir, str) or not self.data_dir
        ):
            raise ConfigError(
                f"StorageConfig.data_dir must be None or a non-empty str, "
                f"got {self.data_dir!r}"
            )
        if self.backend == "wal" and self.data_dir is None:
            raise ConfigError(
                "StorageConfig(backend='wal') requires a data_dir "
                "(use StorageConfig.wal(data_dir))"
            )
        if self.fsync not in FSYNC_MODES:
            raise ConfigError(
                f"StorageConfig.fsync must be one of {FSYNC_MODES}, "
                f"got {self.fsync!r}"
            )
        _require_optional_size("StorageConfig", "checkpoint_every", self.checkpoint_every)

    @classmethod
    def wal(cls, data_dir: str, **overrides: Any) -> "StorageConfig":
        """A WAL backend rooted at ``data_dir`` (other fields overridable)."""
        return cls(backend="wal", data_dir=data_dir, **overrides)


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of :class:`~repro.runtime.engine.HildaEngine` and the
    SQL executors it builds (:class:`~repro.sql.executor.SQLExecutor`)."""

    #: Hash joins for equality predicates (vs nested loops everywhere).
    optimize: bool = True
    #: Let the planner create secondary hash indexes on first use.
    auto_index: bool = False
    #: Compile per-row expressions to closures (vs tree-walking).
    compile_expressions: bool = True
    #: ``"eager"`` rebuilds every session after each operation; ``"lazy"``
    #: defers other sessions' rebuilds until they are accessed.
    reactivation: str = "eager"
    #: Keep an :class:`~repro.runtime.history.ExecutionHistory`.
    record_history: bool = True
    #: Derive AUnit instance ids from the owning session's number instead
    #: of one global counter, so instance ids are reproducible regardless
    #: of which worker process builds the session (see docs/cluster.md).
    session_scoped_ids: bool = False
    #: The caching policy (activation queries, fragments, invalidation).
    cache: CacheConfig = field(default_factory=CacheConfig)
    #: The query-planning pipeline (strategy, join-enumeration bounds).
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    #: The storage backend (volatile memory vs durable WAL).
    storage: StorageConfig = field(default_factory=StorageConfig)

    def __post_init__(self) -> None:
        _require_bool("EngineConfig", "optimize", self.optimize)
        _require_bool("EngineConfig", "auto_index", self.auto_index)
        _require_bool("EngineConfig", "compile_expressions", self.compile_expressions)
        _require_bool("EngineConfig", "record_history", self.record_history)
        _require_bool("EngineConfig", "session_scoped_ids", self.session_scoped_ids)
        if self.reactivation not in REACTIVATION_MODES:
            raise ConfigError(
                "EngineConfig.reactivation must be one of "
                f"{REACTIVATION_MODES}, got {self.reactivation!r}"
            )
        if not isinstance(self.cache, CacheConfig):
            raise ConfigError(
                f"EngineConfig.cache must be a CacheConfig, got {self.cache!r}"
            )
        if not isinstance(self.optimizer, OptimizerConfig):
            raise ConfigError(
                f"EngineConfig.optimizer must be an OptimizerConfig, "
                f"got {self.optimizer!r}"
            )
        if not isinstance(self.storage, StorageConfig):
            raise ConfigError(
                f"EngineConfig.storage must be a StorageConfig, got {self.storage!r}"
            )

    def updated(self, assignments: Mapping[str, Any]) -> "EngineConfig":
        """A copy with dotted-field ``assignments`` applied (``cache.x`` nests)."""
        own: Dict[str, Any] = {}
        nested_cache: Dict[str, Any] = {}
        nested_optimizer: Dict[str, Any] = {}
        nested_storage: Dict[str, Any] = {}
        for dotted, value in assignments.items():
            if dotted.startswith("cache."):
                nested_cache[dotted[len("cache.") :]] = value
            elif dotted.startswith("optimizer."):
                nested_optimizer[dotted[len("optimizer.") :]] = value
            elif dotted.startswith("storage."):
                nested_storage[dotted[len("storage.") :]] = value
            else:
                own[dotted] = value
        config = self
        if nested_cache:
            config = replace(config, cache=replace(config.cache, **nested_cache))
        if nested_optimizer:
            config = replace(
                config, optimizer=replace(config.optimizer, **nested_optimizer)
            )
        if nested_storage:
            config = replace(config, storage=replace(config.storage, **nested_storage))
        if own:
            config = replace(config, **own)
        return config


@dataclass(frozen=True)
class ClusterConfig:
    """Multi-process serving: shard workers behind a session-affinity router.

    The router hashes each session's user key onto one of ``workers`` engine
    processes; session-affine tables live only in the owning worker while
    shared tables are replicated with version-stamped refresh, and
    cross-shard reads are answered by scatter-gather (``docs/cluster.md``).
    """

    #: Number of engine worker processes (shards).
    workers: int = 2
    #: ``"fork"`` (one process per worker) or ``"thread"`` (in-process
    #: worker RPC servers over a shared engine; transport testing only).
    process_model: str = "fork"
    #: Root directory for per-worker WALs (``data_dir/worker-N``); None
    #: keeps every worker on the volatile memory backend.
    data_dir: Optional[str] = None
    #: Explicit ``(table, key_column)`` partitioning overrides; tables not
    #: named here are classified by the compiler's partitioning analysis.
    partition: Tuple[Tuple[str, str], ...] = ()
    #: Per-request RPC timeout in seconds.
    request_timeout: float = 10.0
    #: Connection-establishment attempts per request before failing over.
    connect_retries: int = 3
    #: Base delay between connect retries (doubles per attempt).
    retry_backoff: float = 0.05
    #: Seconds between router health probes of each worker.
    health_interval: float = 0.5
    #: Restart a crashed worker process (its WAL replays committed state;
    #: its sessions must log in again — see docs/cluster.md § Failure).
    restart_workers: bool = True
    #: Bound on pooled RPC connections per worker.
    pool_size: int = 8

    def __post_init__(self) -> None:
        if (
            isinstance(self.workers, bool)
            or not isinstance(self.workers, int)
            or self.workers < 1
        ):
            raise ConfigError(
                f"ClusterConfig.workers must be a positive int, got {self.workers!r}"
            )
        if self.process_model not in CLUSTER_PROCESS_MODELS:
            raise ConfigError(
                "ClusterConfig.process_model must be one of "
                f"{CLUSTER_PROCESS_MODELS}, got {self.process_model!r}"
            )
        if self.data_dir is not None and (
            not isinstance(self.data_dir, str) or not self.data_dir
        ):
            raise ConfigError(
                f"ClusterConfig.data_dir must be None or a non-empty str, "
                f"got {self.data_dir!r}"
            )
        partition = self.partition
        if not isinstance(partition, tuple):
            try:
                partition = tuple(tuple(entry) for entry in partition)
            except TypeError:
                raise ConfigError(
                    "ClusterConfig.partition must be a sequence of "
                    f"(table, key_column) pairs, got {self.partition!r}"
                ) from None
            object.__setattr__(self, "partition", partition)
        for entry in partition:
            if (
                not isinstance(entry, tuple)
                or len(entry) != 2
                or not all(isinstance(part, str) and part for part in entry)
            ):
                raise ConfigError(
                    "ClusterConfig.partition entries must be "
                    f"(table, key_column) string pairs, got {entry!r}"
                )
        for name in ("request_timeout", "retry_backoff", "health_interval"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
                raise ConfigError(
                    f"ClusterConfig.{name} must be a positive number, got {value!r}"
                )
        for name in ("connect_retries", "pool_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(
                    f"ClusterConfig.{name} must be a positive int, got {value!r}"
                )
        _require_bool("ClusterConfig", "restart_workers", self.restart_workers)


@dataclass(frozen=True)
class SessionConfig:
    """Web-session lifetime policy of the application container."""

    #: Idle lifetime in seconds; None = sessions never expire.
    ttl: Optional[float] = None
    #: Bound on simultaneous web sessions (LRU eviction past it).
    max_sessions: Optional[int] = None

    def __post_init__(self) -> None:
        _require_optional_positive("SessionConfig", "ttl", self.ttl)
        _require_optional_size("SessionConfig", "max_sessions", self.max_sessions)


@dataclass(frozen=True)
class ServerConfig:
    """Binding and logging of the threaded HTTP front end."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (embedding/tests); :func:`repro.api.serve`
    #: defaults to :meth:`foreground` (port 8080) instead.
    port: int = 0
    #: Log each request line to stderr.
    verbose: bool = False
    #: Listen backlog; deep enough that a burst of simultaneous browsers
    #: does not drop SYNs (see docs/concurrency.md).
    request_queue_size: int = 128
    #: Serve through a shard-worker cluster instead of one in-process
    #: application (None = single-process; see docs/cluster.md).
    cluster: Optional[ClusterConfig] = None

    def __post_init__(self) -> None:
        if not isinstance(self.host, str) or not self.host:
            raise ConfigError(f"ServerConfig.host must be a non-empty str, got {self.host!r}")
        if isinstance(self.port, bool) or not isinstance(self.port, int) or not (
            0 <= self.port <= 65535
        ):
            raise ConfigError(f"ServerConfig.port must be an int in 0..65535, got {self.port!r}")
        _require_bool("ServerConfig", "verbose", self.verbose)
        if (
            isinstance(self.request_queue_size, bool)
            or not isinstance(self.request_queue_size, int)
            or self.request_queue_size < 1
        ):
            raise ConfigError(
                "ServerConfig.request_queue_size must be a positive int, "
                f"got {self.request_queue_size!r}"
            )
        if self.cluster is not None and not isinstance(self.cluster, ClusterConfig):
            raise ConfigError(
                f"ServerConfig.cluster must be None or a ClusterConfig, "
                f"got {self.cluster!r}"
            )

    @classmethod
    def foreground(cls) -> "ServerConfig":
        """The interactive default: a fixed port with request logging on."""
        return cls(port=8080, verbose=True)


def config_fields(config_cls) -> Tuple[str, ...]:
    """``"name: type = default"`` rows describing a config dataclass.

    Used by ``tools/check_api_surface.py`` to snapshot the configuration
    surface; any field addition/rename/default change shows up as a diff
    against the committed manifest.
    """
    return tuple(
        f"{spec.name}: {spec.type} = {_field_default(spec)!r}"
        for spec in fields(config_cls)
    )


def _field_default(spec) -> Any:
    from dataclasses import MISSING

    if spec.default is not MISSING:
        return spec.default
    if spec.default_factory is not MISSING:
        return spec.default_factory()
    return None
