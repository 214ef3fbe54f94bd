"""``repro.api`` — Hilda as a library: authoring DSL, typed configs, facade.

This package is the recommended entry point to the reproduction (see
``docs/api.md``).  It bundles three things:

* the **fluent builder DSL** (:mod:`repro.api.builder`) — author a Hilda
  application in plain Python (:class:`AppBuilder`, :func:`aunit`,
  :func:`table`, :func:`handler`, ...) and get the very same AST the text
  parser produces;
* the **typed configuration objects** (:mod:`repro.config`) —
  :class:`EngineConfig`, :class:`CacheConfig`, :class:`StorageConfig`,
  :class:`SessionConfig`, :class:`ServerConfig` — the one way to configure
  the runtime constructors;
* the **facade** (:mod:`repro.api.facade`) — :func:`build_program`,
  :func:`build_app` and :func:`serve` accept source text, a builder, a
  declaration or a resolved program interchangeably.

The public surface below is snapshot-checked by
``tools/check_api_surface.py`` against ``tools/api_surface.json``.
"""

from repro.api.builder import (
    ActivatorBuilder,
    AppBuilder,
    AUnitBuilder,
    ExtensionBuilder,
    HandlerBuilder,
    assign,
    aunit,
    child_ref,
    condition,
    handler,
    punit,
    query,
    return_handler,
    table,
)
from repro.api.facade import ProgramSource, build_app, build_program, serve
from repro.config import (
    CacheConfig,
    ClusterConfig,
    EngineConfig,
    OptimizerConfig,
    ServerConfig,
    SessionConfig,
    StorageConfig,
)
from repro.errors import BuilderError, ConfigError, ReproError
from repro.hilda.program import HildaProgram, load_program

__all__ = [
    "ActivatorBuilder",
    "AppBuilder",
    "AUnitBuilder",
    "BuilderError",
    "CacheConfig",
    "ClusterConfig",
    "ConfigError",
    "EngineConfig",
    "ExtensionBuilder",
    "HandlerBuilder",
    "HildaProgram",
    "OptimizerConfig",
    "ProgramSource",
    "ReproError",
    "ServerConfig",
    "SessionConfig",
    "StorageConfig",
    "assign",
    "aunit",
    "build_app",
    "build_program",
    "child_ref",
    "condition",
    "handler",
    "load_program",
    "punit",
    "query",
    "return_handler",
    "serve",
    "table",
]
