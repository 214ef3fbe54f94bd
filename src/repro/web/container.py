"""The application container ("application server").

:class:`HildaApplication` serves a Hilda program over the in-process HTTP
substrate: it owns a :class:`~repro.runtime.engine.HildaEngine`, a
:class:`~repro.presentation.renderer.PageRenderer` and a
:class:`~repro.web.sessions.SessionManager`, and handles the three routes a
generated three-tier application needs:

* ``GET /login?user=<name>`` — start an engine session for the user, set the
  session cookie and redirect to ``/``;
* ``GET /`` — render the user's page (the root AUnit instance's HTML);
* ``POST /action`` — decode the posted Basic AUnit form, apply the operation
  (conflict detection included) and re-render the page, reporting conflicts;
* ``GET /logout`` — close the session.

The container is **thread-safe** and is what the threaded HTTP front end
(:mod:`repro.web.server`) mounts: the engine's reader/writer lock makes page
renders shared and actions exclusive, and a per-cookie lock table serialises
requests belonging to one browser session (double-submits cannot
interleave).  See ``docs/concurrency.md`` for the full locking model and
``docs/architecture.md`` for the request lifecycle.

A tiny WSGI adapter is provided so the application can also be mounted in
any standard Python web server; tests and examples either call
:meth:`handle` directly or go over real sockets via
:class:`~repro.web.server.ThreadedHildaServer`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, Iterable, Optional

from repro.config import CacheConfig, EngineConfig, SessionConfig, typed_config
from repro.errors import FormDecodingError, SessionError
from repro.hilda.program import HildaProgram
from repro.presentation.renderer import PageRenderer
from repro.presentation.html import escape, tag
from repro.runtime.concurrency import SessionLockTable
from repro.runtime.engine import HildaEngine
from repro.runtime.operations import ApplyResult, OperationStatus
from repro.web.forms import decode_action
from repro.web.http import (
    Request,
    Response,
    format_set_cookie,
    parse_cookie_header,
    parse_query_string,
)
from repro.web.sessions import SESSION_COOKIE, SessionManager, WebSession

__all__ = ["HildaApplication", "BrowserClient"]


class HildaApplication:
    """Serves one Hilda program to many users.

    Parameters
    ----------
    engine:
        An already-built :class:`~repro.runtime.engine.HildaEngine` to
        mount; by default the container builds one from ``config``.
    config:
        A typed :class:`~repro.config.EngineConfig` used when the container
        builds the engine.  Its ``cache`` is superseded by the ``cache``
        parameter below.
    cache:
        The caching policy (:class:`~repro.config.CacheConfig`) for both
        the engine it builds and the page renderer.  Defaults to
        :meth:`CacheConfig.server_defaults` — activation-query *and*
        fragment caching on: with dependency-tracked invalidation (see
        ``docs/caching.md``) a cached fragment is reused exactly while the
        tables its subtree reads are unchanged, so serving read-mostly
        traffic from the caches is safe.
    sessions:
        Web-session policy (:class:`~repro.config.SessionConfig`): idle
        TTL (expired sessions release their engine session) and a bound on
        simultaneous sessions (LRU eviction past it).
    functions:
        Scalar function registry forwarded to the engine the container
        builds.
    """

    def __init__(
        self,
        program: HildaProgram,
        engine: Optional[HildaEngine] = None,
        config: Optional[EngineConfig] = None,
        cache: Optional[CacheConfig] = None,
        sessions: Optional[SessionConfig] = None,
        functions: Optional[Any] = None,
    ) -> None:
        self.program = program
        config = typed_config("HildaApplication", "config", config, EngineConfig)
        # The caching policy: an explicit ``cache`` wins, then a
        # ``config.cache`` that differs from the plain defaults; otherwise the
        # server defaults, so ``config=EngineConfig(auto_index=True)`` does not
        # silently turn the server caches off.
        default_cache = (
            config.cache if config.cache != CacheConfig() else CacheConfig.server_defaults()
        )
        cache = typed_config("HildaApplication", "cache", cache, CacheConfig, default_cache)
        sessions = typed_config("HildaApplication", "sessions", sessions, SessionConfig)
        config = replace(config, cache=cache)
        self.config = config
        self.cache_config = cache
        self.session_config = sessions
        if engine is None:
            engine = HildaEngine(program, functions=functions, config=config)
        self.engine = engine
        self.renderer = PageRenderer(
            self.engine,
            cache_fragments=cache.fragments,
            fragment_cache_size=cache.fragment_cache_size,
        )
        self.sessions = SessionManager(
            ttl=sessions.ttl,
            max_sessions=sessions.max_sessions,
            on_evict=self._release_session,
        )
        #: One lock per cookie token: requests of the same browser session
        #: are handled one at a time; different sessions run concurrently.
        self._request_locks = SessionLockTable()

    # -- request handling -------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Route and handle one request (safe to call from many threads)."""
        token = request.cookies.get(SESSION_COOKIE)
        if token is None:
            return self._route(request)
        with self._request_locks.holding(token):
            return self._route(request)

    def _route(self, request: Request) -> Response:
        if request.path == "/login":
            return self._handle_login(request)
        if request.path == "/logout":
            return self._handle_logout(request)
        if request.path == "/action" and request.method == "POST":
            return self._handle_action(request)
        if request.path == "/":
            return self._handle_page(request)
        return Response.not_found(f"no route for {request.method} {request.path}")

    def close(self) -> None:
        """Shut the application down: flush the engine's storage backend.

        With a WAL backend (``EngineConfig.storage``) this makes every
        committed transaction durable; a new container built over the same
        data directory resumes serving the same application state (web
        sessions are volatile and expire — see ``docs/storage.md``).
        """
        self.engine.close()

    def _release_session(self, session: WebSession) -> None:
        """Close the engine session behind an expired/evicted web session."""
        self._request_locks.discard(session.token)
        try:
            self.engine.close_session(session.engine_session_id)
        except SessionError:
            pass

    # -- routes ---------------------------------------------------------------------

    def _handle_login(self, request: Request) -> Response:
        user = request.param("user")
        if not user:
            return Response.error("login requires a ?user=<name> parameter", status=400)
        # The cluster router pins each login to a globally-ordered engine
        # session id (``_cluster_session=S<n>``) so that, combined with
        # ``EngineConfig.session_scoped_ids``, a sharded deployment allocates
        # the exact ids a single-process server would (docs/cluster.md).
        hinted = request.param("_cluster_session")
        engine_session = self.engine.start_session(
            {"user": [(user,)]}, session_id=hinted or None
        )
        session = self.sessions.create(user, engine_session)
        return Response.redirect("/", set_cookies={SESSION_COOKIE: session.token})

    def _handle_logout(self, request: Request) -> Response:
        token = request.cookies.get(SESSION_COOKIE)
        session = self.sessions.lookup(token)
        if session is not None:
            self.sessions.destroy(session.token)
            self._release_session(session)
        return Response.redirect("/login")

    def _handle_page(self, request: Request, banner: str = "") -> Response:
        try:
            session = self.sessions.require(request.cookies.get(SESSION_COOKIE))
            page = self.renderer.render_session(session.engine_session_id)
        except SessionError:
            # Either no web session, or the engine session vanished between
            # the cookie check and the render (TTL expiry / LRU eviction can
            # close it out from under a request in flight) — re-login.
            return Response.redirect("/login")
        if banner:
            page = page.replace("<body>", "<body>" + banner, 1)
        return Response(status=200, body=page)

    def _handle_action(self, request: Request) -> Response:
        try:
            session = self.sessions.require(request.cookies.get(SESSION_COOKIE))
        except SessionError:
            return Response.redirect("/login")
        try:
            instance_id, values = decode_action(self.engine, request.params)
        except FormDecodingError as exc:
            return self._handle_page(request, banner=_banner(str(exc), kind="error"))
        result = self.engine.perform(instance_id, values)
        return self._handle_page(request, banner=_result_banner(result))

    # -- WSGI adapter ------------------------------------------------------------------

    def wsgi_app(self, environ: Dict[str, Any], start_response: Callable) -> Iterable[bytes]:
        """A minimal WSGI adapter (mount the application in any WSGI server)."""
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/")
        params = parse_query_string(environ.get("QUERY_STRING", ""))
        if method == "POST":
            try:
                length = int(environ.get("CONTENT_LENGTH") or 0)
            except ValueError:
                length = 0
            body = environ["wsgi.input"].read(length).decode("utf-8") if length else ""
            params.update(parse_query_string(body))
        cookies = parse_cookie_header(environ.get("HTTP_COOKIE", ""))
        response = self.handle(
            Request(method=method, path=path, params=params, cookies=cookies)
        )
        headers = list(response.headers.items())
        for name, value in response.set_cookies.items():
            headers.append(("Set-Cookie", format_set_cookie(name, value)))
        start_response(f"{response.status} {'OK' if response.ok else 'ERR'}", headers)
        return [response.body.encode("utf-8")]


def _banner(message: str, kind: str = "info") -> str:
    return tag("div", escape(message), **{"class": f"hilda-banner hilda-{kind}"})


def _result_banner(result: ApplyResult) -> str:
    if result.status == OperationStatus.APPLIED:
        fired = ", ".join(str(handler) for handler in result.handlers)
        return _banner(f"Action applied ({fired})", kind="success")
    if result.status == OperationStatus.CONFLICT:
        return _banner(
            "Your action could not be performed because the application state changed: "
            + result.message,
            kind="conflict",
        )
    if result.status == OperationStatus.NO_HANDLER:
        return _banner("Nothing to do for this action.", kind="info")
    return _banner(result.message or "The action was rejected.", kind="error")


class BrowserClient:
    """A tiny cookie-carrying client for driving a :class:`HildaApplication`.

    Used by the examples and integration tests to emulate a browser: it keeps
    the session cookie between requests and follows redirects.
    """

    def __init__(self, application: HildaApplication) -> None:
        self.application = application
        self.cookies: Dict[str, str] = {}

    def get(self, path: str, follow_redirects: bool = True) -> Response:
        response = self.application.handle(Request.get(path, cookies=self.cookies))
        self._absorb_cookies(response)
        if follow_redirects and response.is_redirect and response.location:
            return self.get(response.location, follow_redirects=follow_redirects)
        return response

    def post(self, path: str, params: Dict[str, Any], follow_redirects: bool = True) -> Response:
        response = self.application.handle(Request.post(path, params, cookies=self.cookies))
        self._absorb_cookies(response)
        if follow_redirects and response.is_redirect and response.location:
            return self.get(response.location, follow_redirects=follow_redirects)
        return response

    def login(self, user: str) -> Response:
        return self.get(f"/login?user={user}")

    def _absorb_cookies(self, response: Response) -> None:
        self.cookies.update(response.set_cookies)
