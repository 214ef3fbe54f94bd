"""The framed socket RPC layer: wire format, pooling, retry, failure modes."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.cluster.rpc import (
    CODEC_NAME,
    MAX_FRAME,
    RpcServer,
    WorkerClient,
    recv_frame,
    send_frame,
)
from repro.cluster.rpc import _LENGTH
from repro.errors import RpcError, WorkerBusyError, WorkerUnavailableError


@pytest.fixture
def server():
    state = {"counter": 0}

    def bump(by=1):
        state["counter"] += by
        return state["counter"]

    def boom():
        raise ValueError("boom")

    rpc = RpcServer(
        {
            "add": lambda a, b: a + b,
            "rows": lambda: [(1, "a"), (2, "b")],
            "bump": bump,
            "boom": boom,
            "ping": lambda: True,
        }
    ).start()
    rpc.state = state
    yield rpc
    rpc.stop()


def make_client(server, **kwargs):
    kwargs.setdefault("timeout", 5.0)
    kwargs.setdefault("retry_backoff", 0.01)
    return WorkerClient(0, server.address, **kwargs)


class TestRoundTrip:
    def test_call_returns_the_handler_value(self, server):
        client = make_client(server)
        try:
            assert client.call("add", a=2, b=3) == 5
            assert client.ping() is True
        finally:
            client.close()

    def test_rows_survive_modulo_tuple_identity(self, server):
        # The pickle codec keeps tuples, so rows arrive exactly as sent.
        client = make_client(server)
        try:
            assert client.call("rows") == [(1, "a"), (2, "b")]
        finally:
            client.close()

    def test_many_sequential_calls_reuse_one_connection(self, server):
        client = make_client(server, pool_size=1)
        try:
            for n in range(1, 51):
                assert client.call("bump") == n
        finally:
            client.close()

    def test_concurrent_calls_share_the_pool(self, server):
        client = make_client(server, pool_size=4)
        results = []
        errors = []

        def work():
            try:
                results.append(client.call("add", a=1, b=1))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        client.close()
        assert not errors
        assert results == [2] * 16

    def test_codec_is_importable_constant(self):
        assert CODEC_NAME == "pickle"


class TestErrors:
    def test_handler_exception_surfaces_as_rpc_error(self, server):
        client = make_client(server)
        try:
            with pytest.raises(RpcError, match="ValueError.*boom"):
                client.call("boom")
            # The connection survives the error: the next call still works.
            assert client.call("add", a=1, b=1) == 2
        finally:
            client.close()

    def test_unknown_method_is_an_rpc_error(self, server):
        client = make_client(server)
        try:
            with pytest.raises(RpcError, match="unknown rpc method"):
                client.call("nope")
        finally:
            client.close()

    def test_unreachable_worker_raises_after_retries(self):
        # Grab a port and close it so nothing listens there.
        placeholder = socket.create_server(("127.0.0.1", 0))
        address = placeholder.getsockname()[:2]
        placeholder.close()
        client = WorkerClient(
            3, address, timeout=1.0, connect_retries=2, retry_backoff=0.01
        )
        try:
            with pytest.raises(WorkerUnavailableError, match="worker 3"):
                client.call("ping")
        finally:
            client.close()

    def test_oversized_frame_is_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(_LENGTH.pack(MAX_FRAME + 1))
            with pytest.raises(RpcError, match="exceeds"):
                recv_frame(right)
        finally:
            left.close()
            right.close()


class _FlakyServer:
    """Accepts connections; drops the first N requests after reading them."""

    def __init__(self, fail_first: int):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self.requests = []
        self._fail_first = fail_first
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            try:
                request = recv_frame(conn)
                self.requests.append(request)
                if len(self.requests) <= self._fail_first:
                    conn.close()  # the request was *sent* but got no response
                    continue
                send_frame(conn, {"id": request["id"], "ok": True, "value": "ok"})
            except (RpcError, OSError):
                conn.close()

    def close(self):
        self._listener.close()


class TestRetrySemantics:
    def test_idempotent_calls_are_replayed(self):
        flaky = _FlakyServer(fail_first=1)
        client = WorkerClient(
            0, flaky.address, timeout=2.0, connect_retries=3, retry_backoff=0.01
        )
        try:
            assert client.call("scan", retry=True, table="note") == "ok"
            assert len(flaky.requests) == 2  # original + one replay
        finally:
            client.close()
            flaky.close()

    def test_sent_non_idempotent_calls_are_never_replayed(self):
        flaky = _FlakyServer(fail_first=1)
        client = WorkerClient(
            0, flaky.address, timeout=2.0, connect_retries=3, retry_backoff=0.01
        )
        try:
            with pytest.raises(WorkerUnavailableError):
                client.call("handle", retry=False)
            assert len(flaky.requests) == 1  # the worker saw it exactly once
        finally:
            client.close()
            flaky.close()


class TestBusyVsDead:
    """Pool saturation must stay distinguishable from worker death.

    The router restarts workers it believes dead; conflating "every pool
    slot is in flight" with "unreachable" would let the monitor terminate
    a healthy worker under load (destroying its web sessions).
    """

    @pytest.fixture
    def saturated(self):
        release = threading.Event()
        entered = threading.Event()

        def block():
            entered.set()
            release.wait(10.0)
            return True

        rpc = RpcServer({"block": block, "ping": lambda: True}).start()
        client = WorkerClient(
            0,
            rpc.address,
            timeout=5.0,
            connect_retries=1,
            retry_backoff=0.01,
            pool_size=1,
            pool_timeout=0.1,
        )
        blocker = threading.Thread(
            target=lambda: client.call("block"), daemon=True
        )
        blocker.start()
        assert entered.wait(5.0)  # the single pool slot is now held
        try:
            yield client
        finally:
            release.set()
            blocker.join(timeout=5.0)
            client.close()
            rpc.stop()

    def test_pool_exhaustion_is_busy_not_unavailable(self, saturated):
        with pytest.raises(WorkerBusyError, match="pool is exhausted"):
            saturated.call("ping")

    def test_ping_bypasses_a_saturated_pool(self, saturated):
        # Health probes run out-of-pool, so a loaded worker still looks alive.
        assert saturated.ping() is True


class TestPickleSafety:
    """The pickle codec must not be an arbitrary-code-execution vector."""

    def roundtrip(self, message):
        left, right = socket.socketpair()
        try:
            send_frame(left, message)
            return recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_crafted_global_reference_is_rejected(self):
        import pickle

        payload = pickle.dumps(print)  # stands in for any __reduce__ gadget
        left, right = socket.socketpair()
        try:
            left.sendall(_LENGTH.pack(len(payload)) + payload)
            with pytest.raises(RpcError, match="may not reference"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_primitive_frames_round_trip(self):
        message = {
            "id": 1,
            "args": {"rows": [(1, "a", 2.5, True, None)], "blob": b"\x00"},
        }
        decoded = self.roundtrip(message)
        assert decoded["args"]["rows"] == [(1, "a", 2.5, True, None)]

    def test_date_row_values_round_trip(self):
        # DATE columns ship datetime.date values in scan/export rows; they
        # are the one allowlisted global.
        import datetime

        value = datetime.date(2006, 4, 3)
        assert self.roundtrip({"d": value}) == {"d": value}


class TestReconnect:
    def test_reconnect_points_at_the_new_address(self, server):
        replacement = RpcServer({"who": lambda: "replacement"}).start()
        client = make_client(server)
        try:
            assert client.call("add", a=1, b=1) == 2
            client.reconnect(replacement.address)
            assert client.call("who") == "replacement"
        finally:
            client.close()
            replacement.stop()

    def test_server_stop_closes_open_connections(self, server):
        client = make_client(server)
        assert client.call("add", a=0, b=0) == 0
        server.stop()
        with pytest.raises(WorkerUnavailableError):
            client.call("add", a=1, b=1)
        client.close()
