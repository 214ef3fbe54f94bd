"""A threaded HTTP front end for :class:`~repro.web.container.HildaApplication`.

The paper's generated applications run as Java Servlets inside a web
application server that handles many simultaneous browsers.  This module is
the equivalent front end for the reproduction: a thread-per-connection HTTP
server (stdlib :class:`http.server.ThreadingHTTPServer`, no third-party
dependencies) that translates raw requests into the container's
:class:`~repro.web.http.Request` objects and writes its
:class:`~repro.web.http.Response` objects back to the socket.

Thread safety is the container's and engine's job (reader/writer lock +
per-session lock tables — see ``docs/concurrency.md``); the server simply
lets the OS hand each connection to its own thread.

Two entry points:

* :class:`ThreadedHildaServer` — embed a server in a program or test: binds
  an ephemeral port by default, serves on a background thread, supports
  ``with`` for deterministic shutdown.
* :func:`serve` — run an application in the foreground (examples use it via
  ``ThreadedHildaServer`` so they can shut down cleanly).

:class:`HttpBrowser` is the socket-level twin of
:class:`~repro.web.container.BrowserClient`: a cookie-carrying client built
on :mod:`urllib.request` used by the load benchmark, the server tests and
the examples to emulate real browsers against a live server.
"""

from __future__ import annotations

import os
import socket
import threading
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple

from repro.config import ClusterConfig, ServerConfig, typed_config
from repro.errors import ConfigError
from repro.web.container import HildaApplication
from repro.web.http import (
    Request,
    Response,
    encode_form,
    format_set_cookie,
    parse_cookie_header,
    parse_query_string,
)

__all__ = ["ThreadedHildaServer", "HttpBrowser", "serve", "SERVER_MODE_ENV_VAR"]

#: Environment override for the serving topology.  ``REPRO_SERVER_MODE=cluster``
#: makes every :class:`ThreadedHildaServer` without an explicit
#: ``ServerConfig.cluster`` mount its application behind an in-process
#: two-worker cluster router (thread model, real sockets) — the lever the
#: ``tier1-cluster`` CI leg uses to run the ordinary web suites through the
#: cluster path, mirroring ``REPRO_STORAGE_BACKEND`` for storage.
SERVER_MODE_ENV_VAR = "REPRO_SERVER_MODE"


class _HildaRequestHandler(BaseHTTPRequestHandler):
    """Translates one HTTP exchange to a container ``handle`` call."""

    #: Set by the server factory.
    application: HildaApplication = None  # type: ignore[assignment]
    server_version = "HildaServer/0.1"
    protocol_version = "HTTP/1.1"

    # -- verbs -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server naming convention
        parsed = urllib.parse.urlsplit(self.path)
        request = Request(
            method="GET",
            path=parsed.path or "/",
            params=parse_query_string(parsed.query),
            cookies=self._cookies(),
        )
        self._reply(self.application.handle(request))

    def do_POST(self) -> None:  # noqa: N802 - http.server naming convention
        parsed = urllib.parse.urlsplit(self.path)
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        body = self.rfile.read(length).decode("utf-8") if length else ""
        params = parse_query_string(parsed.query)
        params.update(parse_query_string(body))
        request = Request(
            method="POST",
            path=parsed.path or "/",
            params=params,
            cookies=self._cookies(),
            body=body,
        )
        self._reply(self.application.handle(request))

    # -- plumbing ---------------------------------------------------------------

    def _cookies(self) -> Dict[str, str]:
        return parse_cookie_header(self.headers.get("Cookie", ""))

    def _reply(self, response: Response) -> None:
        payload = response.body.encode("utf-8")
        self.send_response(response.status)
        for name, value in response.headers.items():
            self.send_header(name, value)
        for name, value in response.set_cookies.items():
            self.send_header("Set-Cookie", format_set_cookie(name, value))
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)


class _ThreadingServer(ThreadingHTTPServer):
    daemon_threads = True
    #: http.server's default listen backlog of 5 drops SYNs under a burst of
    #: simultaneous browsers; the kernel's 1s retransmit then serialises the
    #: herd.  A deeper backlog lets all concurrent connects land at once.
    #: Overridden per instance from :class:`ServerConfig`.
    request_queue_size = 128

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # With HTTP/1.1 keep-alive an idle browser parks a handler thread in
        # a blocking read that ``shutdown()`` never interrupts.  Track every
        # in-flight connection so close_all_connections() can wake those
        # readers deterministically at shutdown.
        self._open_lock = threading.Lock()
        self._open_requests: Dict[int, socket.socket] = {}
        self._closing = False

    def process_request(self, request: socket.socket, client_address: Any) -> None:
        with self._open_lock:
            self._open_requests[id(request)] = request
        super().process_request(request, client_address)

    def shutdown_request(self, request: socket.socket) -> None:  # type: ignore[override]
        with self._open_lock:
            self._open_requests.pop(id(request), None)
        super().shutdown_request(request)

    def close_all_connections(self) -> None:
        """Wake every parked keep-alive reader so its thread can exit.

        ``socket.shutdown`` makes the blocked read return EOF; the handler
        thread then runs its normal ``shutdown_request`` path and closes the
        socket itself, so no fd is closed under a reader.
        """
        with self._open_lock:
            self._closing = True
            connections = list(self._open_requests.values())
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def handle_error(self, request: Any, client_address: Any) -> None:
        if self._closing:
            return  # expected: writes racing the deliberate connection close
        super().handle_error(request, client_address)


class ThreadedHildaServer:
    """Serve a :class:`HildaApplication` over real sockets, one thread per
    connection.

    >>> server = ThreadedHildaServer(application)   # binds 127.0.0.1:<ephemeral>
    >>> with server:                                # starts the acceptor thread
    ...     browser = HttpBrowser(server.url)
    ...     browser.login("alice")

    ``config`` is a typed :class:`~repro.config.ServerConfig` (binding,
    backlog, logging, optional cluster).
    """

    def __init__(
        self,
        application: HildaApplication,
        config: Optional[ServerConfig] = None,
    ) -> None:
        config = typed_config("ThreadedHildaServer", "config", config, ServerConfig)
        self.application = application
        self.config = config
        #: What the HTTP handlers actually call: the application itself, or a
        #: cluster router mounted in front of it (``ServerConfig.cluster``
        #: with the thread process model, or ``REPRO_SERVER_MODE=cluster``).
        self.mounted, self._close_cluster = self._mount_cluster(application, config)
        handler = type(
            "BoundHildaRequestHandler",
            (_HildaRequestHandler,),
            {"application": self.mounted},
        )
        # The backlog is consulted inside __init__ (at listen()), so it must
        # be a class attribute before construction.
        server_cls = type(
            "BoundThreadingServer",
            (_ThreadingServer,),
            {"request_queue_size": config.request_queue_size},
        )
        self._httpd = server_cls((config.host, config.port), handler)
        self._httpd.verbose = config.verbose  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle --------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The (host, port) the server is bound to (port resolved if 0)."""
        return self._httpd.server_address[0], self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ThreadedHildaServer":
        """Start accepting connections on a daemon thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"hilda-server-{self.address[1]}",
            daemon=True,
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop accepting connections and join the acceptor thread.

        Deterministic even with idle keep-alive browsers attached: after the
        accept loop stops, every in-flight connection is woken (see
        ``_ThreadingServer.close_all_connections``) so no parked reader
        thread outlives the server or holds its socket open.
        """
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._httpd.close_all_connections()
        self._thread.join(timeout=5)
        self._httpd.server_close()
        self._thread = None
        if self._close_cluster is not None:
            self._close_cluster()
            self._close_cluster = None

    @staticmethod
    def _mount_cluster(
        application: HildaApplication, config: ServerConfig
    ) -> Tuple[Any, Optional[Callable[[], None]]]:
        """Resolve what to serve: the app, or a cluster router over it."""
        cluster = config.cluster
        if not isinstance(application, HildaApplication):
            # Already a router (ClusterServer mounts one) or a test double.
            return application, None
        if cluster is None:
            mode = os.environ.get(SERVER_MODE_ENV_VAR, "").strip().lower()
            if mode == "cluster":
                cluster = ClusterConfig(workers=2, process_model="thread")
            else:
                return application, None
        if cluster.process_model != "thread":
            raise ConfigError(
                "ThreadedHildaServer can only mount thread-model clusters over "
                "a built application; fork-model workers build their own "
                "engines — use repro.cluster.ClusterServer (or serve(...) "
                "with ServerConfig(cluster=ClusterConfig(process_model='fork')))"
            )
        from repro.cluster.server import build_thread_cluster

        return build_thread_cluster(application, cluster)

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (foreground mode)."""
        try:
            self._httpd.serve_forever()
        finally:
            self._httpd.close_all_connections()
            self._httpd.server_close()
            if self._close_cluster is not None:
                self._close_cluster()
                self._close_cluster = None

    def __enter__(self) -> "ThreadedHildaServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


def serve(
    application: HildaApplication,
    config: Optional[ServerConfig] = None,
) -> None:
    """Run ``application`` in the foreground (Ctrl-C to stop).

    ``config`` defaults to :meth:`ServerConfig.foreground` (port 8080,
    request logging on).
    """
    config = typed_config("serve", "config", config, ServerConfig, ServerConfig.foreground())
    server = ThreadedHildaServer(application, config=config)
    print(f"Serving {application.program.root_name} on {server.url}")
    server.serve_forever()


class _NoRedirectHandler(urllib.request.HTTPRedirectHandler):
    """Stop urllib from chasing redirects itself.

    The browser must see every 3xx response: the login redirect carries the
    session Set-Cookie, which urllib's automatic redirect would silently
    drop before following.
    """

    def redirect_request(self, *args: Any, **kwargs: Any) -> None:
        return None


class HttpBrowser:
    """A cookie-carrying HTTP client for driving a live Hilda server.

    The socket-level twin of :class:`~repro.web.container.BrowserClient`:
    keeps cookies between requests, follows redirects (after absorbing
    their cookies), and returns the container's
    :class:`~repro.web.http.Response` shape (status, body, headers) so
    tests can assert the same way against both.
    """

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.cookies: Dict[str, str] = {}
        self._opener = urllib.request.build_opener(_NoRedirectHandler)

    # -- public API -------------------------------------------------------------

    def get(self, path: str, follow_redirects: bool = True) -> Response:
        return self._request("GET", path, None, follow_redirects)

    def post(
        self, path: str, params: Dict[str, Any], follow_redirects: bool = True
    ) -> Response:
        body = encode_form(params).encode("utf-8")
        return self._request("POST", path, body, follow_redirects)

    def login(self, user: str) -> Response:
        return self.get(f"/login?user={urllib.parse.quote(user)}")

    def logout(self) -> Response:
        return self.get("/logout", follow_redirects=False)

    # -- internals --------------------------------------------------------------

    def _request(
        self, method: str, path: str, body: Optional[bytes], follow_redirects: bool
    ) -> Response:
        request = urllib.request.Request(
            self.base_url + path, data=body, method=method
        )
        if self.cookies:
            request.add_header(
                "Cookie", "; ".join(f"{k}={v}" for k, v in self.cookies.items())
            )
        if body is not None:
            request.add_header("Content-Type", "application/x-www-form-urlencoded")
        try:
            raw = self._opener.open(request, timeout=self.timeout)
            status = raw.status
        except urllib.error.HTTPError as error:  # 3xx/4xx/5xx still carry a body
            raw = error
            status = error.code
        with raw:
            headers = dict(raw.headers.items())
            for value in raw.headers.get_all("Set-Cookie") or []:
                first = value.split(";", 1)[0]
                if "=" in first:
                    name, _, cookie_value = first.partition("=")
                    self.cookies[name.strip()] = cookie_value.strip()
            payload = raw.read().decode("utf-8")
        response = Response(status=status, body=payload, headers=headers)
        if follow_redirects and response.is_redirect and response.location:
            return self.get(response.location, follow_redirects=True)
        return response
