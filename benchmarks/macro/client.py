"""Benchmark clients and the HTML form scraper.

:class:`BenchClient` drives a live server the way a browser does: one
keep-alive connection that is closed and reopened every
:data:`RECONNECT_EVERY` requests, so the share of connection set-up in a run
is fixed.  (``repro.web.server.HttpBrowser`` opens a connection per request
and therefore never sees what keep-alive traffic sees.)  :class:`InprocClient`
offers the same interface over ``HildaApplication.handle`` with no sockets.

Cookies live in a :class:`BrowserSession`, not in the connection, because
one client thread plays several logged-in users over its one connection.
Every request carries the session's next sequence number as ``_seq``
(:data:`~benchmarks.macro.trace.SEQ_PARAM`), the request id the trace pairs
on.

:class:`PageForms` finds one course's action forms in a returned admin
page; the benchmark cannot look instance ids up in the engine, because in a
cluster the engine lives in another process.
"""

from __future__ import annotations

import http.client
import itertools
import re
import socket
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.web.http import Request
from repro.web.sessions import SESSION_COOKIE

from .trace import SEQ_PARAM

__all__ = ["BenchClient", "BrowserSession", "InprocClient", "PageForms", "Reply"]

RECONNECT_EVERY = 50
MAX_REDIRECTS = 4


@dataclass
class BrowserSession:
    """One logged-in user's cookie jar and request-sequence counter."""

    user: str
    role: str  # "admin" or "student"
    cookies: Dict[str, str] = field(default_factory=dict)
    #: Shared by every client thread using this session (``next`` is atomic).
    sequence: Any = field(default_factory=lambda: itertools.count(1))

    @property
    def token(self) -> Optional[str]:
        return self.cookies.get(SESSION_COOKIE)


@dataclass
class Reply:
    """What one request (after redirects) came back with, and how long it took."""

    status: int  # 0 = timeout, refused or broken connection
    body: str
    start: float
    end: float
    rid: Optional[str]
    #: A new connection was opened for this request (inside the latency).
    connected: bool = False
    error: str = ""

    @property
    def latency(self) -> float:
        return self.end - self.start


def _with_seq(session: BrowserSession, params: Dict[str, Any]) -> Tuple[Dict[str, Any], Optional[str]]:
    """Stamp the next sequence number; returns (params, request id)."""
    seq = next(session.sequence)
    stamped = dict(params)
    stamped[SEQ_PARAM] = seq
    token = session.token
    return stamped, (f"{token}:{seq}" if token else None)


class BenchClient:
    """A keep-alive HTTP client; a timeout or socket error is a failed reply."""

    def __init__(self, host: str, port: int, timeout: float = 10.0,
                 reconnect_every: int = RECONNECT_EVERY) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.reconnect_every = reconnect_every
        self._conn: Optional[http.client.HTTPConnection] = None
        self._served = 0
        self._location = "/"

    def get(self, session: BrowserSession, path: str = "/",
            params: Optional[Dict[str, Any]] = None) -> Reply:
        return self._request("GET", session, path, params or {})

    def post(self, session: BrowserSession, path: str, params: Dict[str, Any]) -> Reply:
        return self._request("POST", session, path, params)

    def login(self, session: BrowserSession) -> Reply:
        return self.get(session, "/login", {"user": session.user})

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # -- internals --------------------------------------------------------------

    def _request(self, method: str, session: BrowserSession, path: str,
                 params: Dict[str, Any]) -> Reply:
        params, rid = _with_seq(session, params)
        # A user waits for the reconnect too, so it is inside the latency.
        start = time.perf_counter()
        connected = self._ensure_connection()
        try:
            status, body = self._exchange(method, session, path, params)
            for _ in range(MAX_REDIRECTS):
                if status not in (301, 302, 303, 307):
                    break
                status, body = self._exchange("GET", session, self._location, {})
            error = ""
        except (socket.timeout, OSError, http.client.HTTPException) as exc:
            status, body, error = 0, "", f"{type(exc).__name__}: {exc}"
            self.close()
        end = time.perf_counter()
        return Reply(status, body, start, end, rid, connected, error)

    def _ensure_connection(self) -> bool:
        """Open a connection if none is usable; returns whether it did."""
        if self._conn is not None and self._served >= self.reconnect_every:
            self.close()
        if self._conn is not None:
            return False
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.connect()
        except OSError:
            pass  # the request itself reports the failure
        self._conn = conn
        self._served = 0
        return True

    def _exchange(self, method: str, session: BrowserSession, path: str,
                  params: Dict[str, Any]) -> Tuple[int, str]:
        headers = {}
        if session.cookies:
            headers["Cookie"] = "; ".join(f"{k}={v}" for k, v in session.cookies.items())
        encoded = urllib.parse.urlencode(params)
        body = None
        if method == "POST":
            body = encoded.encode("utf-8")
            headers["Content-Type"] = "application/x-www-form-urlencoded"
        elif encoded:
            path = f"{path}?{encoded}"
        conn = self._conn
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        payload = response.read()
        self._served += 1
        for value in response.headers.get_all("Set-Cookie") or []:
            name, _, cookie = value.split(";", 1)[0].partition("=")
            session.cookies[name.strip()] = cookie.strip()
        self._location = response.getheader("Location") or "/"
        return response.status, payload.decode("utf-8")


class InprocClient:
    """The :class:`BenchClient` interface over ``HildaApplication.handle``."""

    def __init__(self, application: Any) -> None:
        self.application = application

    def get(self, session: BrowserSession, path: str = "/",
            params: Optional[Dict[str, Any]] = None) -> Reply:
        return self._request("GET", session, path, params or {})

    def post(self, session: BrowserSession, path: str, params: Dict[str, Any]) -> Reply:
        return self._request("POST", session, path, params)

    def login(self, session: BrowserSession) -> Reply:
        return self.get(session, "/login", {"user": session.user})

    def close(self) -> None:
        pass

    def _request(self, method: str, session: BrowserSession, path: str,
                 params: Dict[str, Any]) -> Reply:
        params, rid = _with_seq(session, params)
        request = Request(
            method=method,
            path=path,
            params={key: str(value) for key, value in params.items()},
            cookies=dict(session.cookies),
        )
        start = time.perf_counter()
        response = self.application.handle(request)
        for _ in range(MAX_REDIRECTS):
            session.cookies.update(response.set_cookies)
            if not response.is_redirect:
                break
            response = self.application.handle(
                Request.get(response.location or "/", cookies=session.cookies)
            )
        end = time.perf_counter()
        return Reply(response.status, response.body, start, end, rid)


# -- scraping ---------------------------------------------------------------------

_COURSE_BLOCK = '<div class="course-admin">'
_FORM = re.compile(r"<form[^>]*>(.*?)</form>", re.S)
_INSTANCE = re.compile(r'name="instance_id" value="(\d+)"')
_HIDDEN = re.compile(r'<input type="hidden" name="(c\d+)" value="([^"]*)"')


class PageForms:
    """The action forms of one course in a rendered admin page.

    The page has one ``course-admin`` block per administered course and
    does not print course ids, so the block is recognised by an assignment
    id only that course owns (``anchor_aid``: ``seed_scaled`` numbers the
    assignments of course index ``k`` from ``k * n_assignments + 1``).
    """

    def __init__(self, html: str, anchor_aid: int) -> None:
        self.update_row: Optional[int] = None
        self.get_row: Optional[int] = None
        self.submit: Optional[int] = None
        #: (instance id, aid, assignment name) per deletable assignment.
        self.delete_rows: List[Tuple[int, str, str]] = []
        marker = f'name="c1" value="{anchor_aid}"'
        for block in html.split(_COURSE_BLOCK)[1:]:
            if marker in block:
                self._scan(block)
                break

    @property
    def found(self) -> bool:
        return None not in (self.update_row, self.get_row, self.submit)

    def delete_form(self, name: str) -> Optional[Tuple[int, str, str]]:
        """The SelectRow form that deletes the assignment called ``name``."""
        for row in self.delete_rows:
            if row[2] == name:
                return row
        return None

    def _scan(self, block: str) -> None:
        for form in _FORM.findall(block):
            match = _INSTANCE.search(form)
            if match is None:
                continue
            instance_id = int(match.group(1))
            if 'value="Update"' in form:
                self.update_row = instance_id
            elif 'value="Add"' in form:
                self.get_row = instance_id
            elif 'value="Submit"' in form:
                self.submit = instance_id
            elif 'value="Select"' in form:
                hidden = dict(_HIDDEN.findall(form))
                if "c1" in hidden and "c2" in hidden:
                    self.delete_rows.append((instance_id, hidden["c1"], hidden["c2"]))
