"""Typed configs: validation, container resolution and the one-way surface."""

from __future__ import annotations

import pytest

from repro.api import (
    CacheConfig,
    ConfigError,
    EngineConfig,
    OptimizerConfig,
    ServerConfig,
    SessionConfig,
    StorageConfig,
    build_app,
)
from repro.apps.minicms import ADMIN_USER, seed_paper_scenario
from repro.presentation.renderer import PageRenderer
from repro.runtime.engine import HildaEngine
from repro.sql.executor import SQLExecutor
from repro.web.container import BrowserClient, HildaApplication
from repro.web.forms import encode_action
from repro.web.server import ThreadedHildaServer, serve


@pytest.fixture
def guestbook_program(guestbook_source):
    from repro.hilda.program import load_program

    return load_program(guestbook_source)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        EngineConfig()
        CacheConfig()
        SessionConfig()
        ServerConfig()

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: EngineConfig(reactivation="sometimes"),
            lambda: EngineConfig(optimize="yes"),
            lambda: EngineConfig(cache="nope"),
            lambda: CacheConfig(activation_cache_size=0),
            lambda: CacheConfig(fragment_cache_size=-3),
            lambda: CacheConfig(fragments="on"),
            lambda: SessionConfig(ttl=-1),
            lambda: SessionConfig(max_sessions=0),
            lambda: ServerConfig(port=70000),
            lambda: ServerConfig(host=""),
            lambda: ServerConfig(request_queue_size=0),
        ],
    )
    def test_invalid_values_raise_config_error(self, factory):
        with pytest.raises(ConfigError):
            factory()

    def test_config_error_is_still_a_value_error(self):
        # Pre-existing callers caught ValueError for bad constructor args.
        with pytest.raises(ValueError):
            EngineConfig(reactivation="sometimes")

    def test_engine_exposes_its_config(self, guestbook_program):
        config = EngineConfig(auto_index=True, cache=CacheConfig(activation_queries=True))
        engine = HildaEngine(guestbook_program, config=config)
        assert engine.config is config
        assert engine.auto_index and engine.cache_activation_queries

    def test_executor_rejects_a_wrongly_typed_config(self, sample_db):
        with pytest.raises(ConfigError, match=r"SQLExecutor\(config=\.\.\.\)"):
            SQLExecutor(sample_db, config={"optimize": False})


#: Every keyword alias the typed configs replaced, per entry point, plus the
#: config fields deleted since.  Each is now an ordinary unknown keyword
#: argument.
REMOVED_ALIASES = [
    *(
        ("HildaEngine", kwarg)
        for kwarg in (
            "optimize", "auto_index", "compile_expressions", "reactivation",
            "record_history", "cache_activation_queries", "activation_cache_size",
            "dependency_tracking", "delta_reactivation",
        )
    ),
    *(("SQLExecutor", kwarg) for kwarg in ("optimize", "auto_index", "compile_expressions")),
    *(
        ("HildaApplication", kwarg)
        for kwarg in (
            "cache_fragments", "fragment_cache_size", "activation_cache_size",
            "session_ttl", "max_sessions", "cache_activation_queries",
            "dependency_tracking", "delta_reactivation", "optimize", "auto_index",
            "compile_expressions", "reactivation", "record_history",
        )
    ),
    *(("ThreadedHildaServer", kwarg) for kwarg in ("host", "port", "verbose")),
    *(("serve", kwarg) for kwarg in ("host", "port", "verbose")),
    ("CacheConfig", "delta_reactivation"),
    ("PageRenderer", "dependency_tracking"),
    *(("OptimizerConfig", kwarg) for kwarg in ("estimator", "feedback", "reopt_q_error")),
    ("StorageConfig", "verify_recovery"),
]


@pytest.mark.parametrize("owner,kwarg", REMOVED_ALIASES)
def test_removed_alias_raises_type_error(owner, kwarg, guestbook_program, sample_db):
    constructors = {
        "HildaEngine": lambda **kw: HildaEngine(guestbook_program, **kw),
        "SQLExecutor": lambda **kw: SQLExecutor(sample_db, **kw),
        "HildaApplication": lambda **kw: HildaApplication(guestbook_program, **kw),
        "ThreadedHildaServer": lambda **kw: ThreadedHildaServer(
            HildaApplication(guestbook_program), **kw
        ),
        "serve": lambda **kw: serve(HildaApplication(guestbook_program), **kw),
        "CacheConfig": lambda **kw: CacheConfig(**kw),
        "OptimizerConfig": lambda **kw: OptimizerConfig(**kw),
        "StorageConfig": lambda **kw: StorageConfig(**kw),
        "PageRenderer": lambda **kw: PageRenderer(HildaEngine(guestbook_program), **kw),
    }
    with pytest.raises(TypeError, match=kwarg):
        constructors[owner](**{kwarg: False})


class TestContainerConfigs:
    def test_server_defaults_turn_caches_on(self, guestbook_program):
        application = HildaApplication(guestbook_program)
        assert application.cache_config.activation_queries
        assert application.cache_config.fragments
        assert application.engine.cache_activation_queries
        assert application.renderer.cache_fragments

    def test_explicit_cache_config_wins(self, guestbook_program):
        application = HildaApplication(
            guestbook_program, cache=CacheConfig(fragments=False)
        )
        assert not application.renderer.cache_fragments
        assert not application.engine.cache_activation_queries

    def test_engine_config_without_cache_keeps_server_defaults(
        self, guestbook_program
    ):
        # Setting optimize/auto_index/... on EngineConfig must not silently
        # disable the server caching policy.
        application = HildaApplication(
            guestbook_program, config=EngineConfig(auto_index=True)
        )
        assert application.engine.auto_index
        assert application.engine.cache_activation_queries
        assert application.renderer.cache_fragments

    def test_engine_config_with_explicit_cache_is_honoured(self, guestbook_program):
        config = EngineConfig(cache=CacheConfig(activation_queries=True))
        application = HildaApplication(guestbook_program, config=config)
        assert application.engine.cache_activation_queries
        assert not application.renderer.cache_fragments

    def test_session_config_threads_through(self, guestbook_program):
        application = HildaApplication(
            guestbook_program, sessions=SessionConfig(ttl=5.0, max_sessions=2)
        )
        assert application.sessions.ttl == 5.0
        assert application.sessions.max_sessions == 2

    def test_bad_config_types_rejected(self, guestbook_program):
        with pytest.raises(ConfigError):
            HildaApplication(guestbook_program, config="fast please")
        with pytest.raises(ConfigError):
            HildaApplication(guestbook_program, cache=EngineConfig())
        with pytest.raises(ConfigError):
            HildaApplication(guestbook_program, sessions=CacheConfig())

    def test_wal_storage_config_serves_with_both_caches(self, minicms_program, tmp_path):
        # The macro benchmark's persistent deployment is built exactly so:
        # an EngineConfig carrying only a storage choice.
        application = HildaApplication(
            minicms_program,
            config=EngineConfig(storage=StorageConfig.wal(str(tmp_path / "data"))),
        )
        try:
            assert application.config.storage.backend == "wal"
            assert application.cache_config == CacheConfig.server_defaults()
            assert application.engine.cache_activation_queries
            assert application.renderer.cache_fragments
            seed_paper_scenario(application.engine)
            browser = BrowserClient(application)
            page = browser.login(ADMIN_USER)
            assert page.status == 200 and "Homework 1" in page.body
            assert browser.get("/").body == page.body
            assert application.renderer.stats.hits > 0
            # A local action reactivates the session from cached query results.
            create = application.engine.find_instances("CreateAssignment")[0]
            update = create.find_children("UpdateRow")[0]
            page = browser.post(
                "/action", encode_action(update, ["HW9", "2006-04-01", "2006-04-02"])
            )
            assert "HW9" in page.body
            assert application.engine.activation_cache_stats.hits > 0
        finally:
            application.close()


class TestServerConfig:
    def test_config_object_binds(self, guestbook_program):
        application = build_app(guestbook_program)
        server = ThreadedHildaServer(application, config=ServerConfig(port=0, verbose=True))
        try:
            assert server.config.request_queue_size == 128
            assert server.config.verbose
            assert server.address[0] == "127.0.0.1"
        finally:
            server._httpd.server_close()

    def test_bad_config_rejected(self, guestbook_program):
        application = build_app(guestbook_program)
        with pytest.raises(ConfigError):
            ThreadedHildaServer(application, config=8080)
        # The old positional (application, host, port, verbose) form.
        with pytest.raises(TypeError):
            ThreadedHildaServer(application, "127.0.0.1", 0, True)
