"""Tests for the asyncio HTTP front end (`repro.service.aio`).

Routing semantics live in ``ServiceRouter`` (see ``test_service_http.py``),
so these tests focus on what the transport owns: HTTP/1.1 framing and
keep-alive, per-request read deadlines (slowloris), connection bounding and
graceful drain.
"""

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.config import BatcherConfig
from repro.service import ResolutionService, ServiceConfig
from repro.service.aio import AsyncServiceHTTPServer


@pytest.fixture(scope="module")
def aio_service(beer_dataset):
    config = ServiceConfig(
        batcher=BatcherConfig(seed=1), max_batch_size=8, max_wait_seconds=0.02
    )
    service = ResolutionService.from_dataset(beer_dataset, config).start()
    yield service
    service.stop()


@pytest.fixture(scope="module")
def aio_server(aio_service):
    server = AsyncServiceHTTPServer(aio_service, port=0).serve_in_background()
    yield server
    server.shutdown()


def _get(server, path):
    with urllib.request.urlopen(server.address + path, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(server, path, payload, headers=None):
    request = urllib.request.Request(
        server.address + path,
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _host_port(server):
    base = server.address.removeprefix("http://")
    host, _, port = base.rpartition(":")
    return host, int(port)


class TestRoutes:
    def test_healthz(self, aio_server):
        status, payload = _get(aio_server, "/healthz")
        assert status == 200
        assert payload["live"] is True and payload["running"] is True

    def test_resolve_roundtrip(self, aio_server, beer_dataset):
        pair = beer_dataset.splits.test[0]
        status, payload = _post(
            aio_server,
            "/resolve",
            {
                "pairs": [
                    {
                        "pair_id": "aio-q1",
                        "left": dict(pair.left.values),
                        "right": dict(pair.right.values),
                    }
                ]
            },
        )
        assert status == 200
        [resolution] = payload["resolutions"]
        assert resolution["pair_id"] == "aio-q1"
        assert resolution["label"] in (0, 1)

    def test_bulk_roundtrip(self, aio_server):
        status, payload = _post(
            aio_server,
            "/bulk",
            {
                "pairs": [{"left": {"name": "stout"}, "right": {"name": "Stout"}}],
                "shards": 1,
            },
        )
        assert status == 200
        assert len(payload["resolutions"]) == 1

    def test_stats_and_metrics(self, aio_server):
        status, stats = _get(aio_server, "/stats")
        assert status == 200
        assert "cache_hit_rate" in stats and "metrics" in stats
        with urllib.request.urlopen(
            aio_server.address + "/metrics", timeout=10
        ) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            assert b"repro_service_requests_total" in response.read()

    def test_unknown_path_404(self, aio_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(aio_server, "/nope")
        assert excinfo.value.code == 404

    def test_malformed_body_400(self, aio_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(aio_server, "/resolve", {"not-pairs": []})
        assert excinfo.value.code == 400

    def test_head_mirrors_get_without_body(self, aio_server):
        get = urllib.request.urlopen(aio_server.address + "/healthz", timeout=10)
        request = urllib.request.Request(
            aio_server.address + "/healthz", method="HEAD"
        )
        head = urllib.request.urlopen(request, timeout=10)
        assert head.status == get.status == 200
        assert head.read() == b""
        assert int(head.headers["Content-Length"]) == len(
            urllib.request.urlopen(aio_server.address + "/healthz", timeout=10).read()
        )

    def test_unsupported_method_501(self, aio_server):
        request = urllib.request.Request(
            aio_server.address + "/healthz", method="DELETE"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 501


class TestTransport:
    def test_keepalive_serves_sequential_requests_on_one_connection(
        self, aio_server
    ):
        host, port = _host_port(aio_server)
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request("GET", "/healthz")
            first = connection.getresponse()
            assert first.status == 200
            first.read()
            sock = connection.sock
            assert sock is not None
            body = json.dumps(
                {"pairs": [{"left": {"name": "kb"}, "right": {"name": "KB"}}]}
            )
            connection.request(
                "POST", "/resolve", body, {"Content-Type": "application/json"}
            )
            second = connection.getresponse()
            assert second.status == 200
            second.read()
            assert connection.sock is sock
        finally:
            connection.close()

    def test_error_response_closes_connection(self, aio_server):
        host, port = _host_port(aio_server)
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request(
                "POST",
                "/resolve",
                '{"pairs": [broken',
                {"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert response.headers["Connection"] == "close"
            response.read()
            assert response.will_close
        finally:
            connection.close()

    def test_http10_connection_closes_by_default(self, aio_server):
        host, port = _host_port(aio_server)
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n")
            sock.settimeout(10)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # server closed, as HTTP/1.0 demands
                chunks.append(chunk)
        response = b"".join(chunks).decode("latin-1")
        assert response.startswith("HTTP/1.1 200")
        assert "Connection: close" in response

    def test_half_sent_body_answered_408(self, aio_service):
        server = AsyncServiceHTTPServer(
            aio_service, port=0, read_timeout=0.3
        ).serve_in_background()
        try:
            host, port = _host_port(server)
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(
                    b"POST /resolve HTTP/1.1\r\n"
                    b"Host: test\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 1000\r\n"
                    b"\r\n"
                    b'{"pairs": [{"left"'
                )
                sock.settimeout(10)
                response = sock.recv(65536).decode("latin-1")
            assert response.startswith("HTTP/1.1 408")
            assert "stalled" in response
            assert "Connection: close" in response
        finally:
            server.shutdown()

    @pytest.mark.parametrize(
        "framing",
        [
            # Differing duplicates: read last-wins, the 13-byte body below
            # would be answered while a front proxy waits for 200 bytes.
            b"Content-Length: 200\r\nContent-Length: 13\r\n",
            # Transfer-Encoding next to Content-Length: the two framings
            # disagree on where the body ends.
            b"Transfer-Encoding: chunked\r\nContent-Length: 13\r\n",
        ],
        ids=["conflicting-content-length", "transfer-encoding"],
    )
    def test_ambiguous_framing_refused_400_and_closed(self, aio_server, framing):
        host, port = _host_port(aio_server)
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /resolve HTTP/1.1\r\nHost: t\r\n"
                + framing
                + b'\r\n{"pairs": []}'
            )
            sock.settimeout(10)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # the server closed the connection
                chunks.append(chunk)
        response = b"".join(chunks).decode("latin-1")
        assert response.startswith("HTTP/1.1 400")
        assert "Connection: close" in response

    def test_malformed_request_line_400(self, aio_server):
        host, port = _host_port(aio_server)
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"NOT-HTTP\r\n")
            sock.settimeout(10)
            response = sock.recv(65536).decode("latin-1")
        assert response.startswith("HTTP/1.1 400")

    def test_bounded_connections_still_serve_excess_clients(self, aio_service):
        server = AsyncServiceHTTPServer(
            aio_service, port=0, max_connections=2
        ).serve_in_background()
        try:
            results = []
            errors = []

            def probe():
                try:
                    with urllib.request.urlopen(
                        server.address + "/healthz", timeout=10
                    ) as response:
                        results.append(response.status)
                except Exception as error:  # pragma: no cover - fail loudly
                    errors.append(error)

            threads = [threading.Thread(target=probe) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=15)
            assert not errors
            assert results == [200] * 6
        finally:
            server.shutdown()


class TestLifecycle:
    def test_shutdown_refuses_new_connections(self, aio_service):
        server = AsyncServiceHTTPServer(aio_service, port=0).serve_in_background()
        status, _ = (
            urllib.request.urlopen(server.address + "/healthz", timeout=10).status,
            None,
        )
        assert status == 200
        host, port = _host_port(server)
        server.shutdown()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2)

    def test_shutdown_is_idempotent_and_restartable_service_untouched(
        self, aio_service
    ):
        server = AsyncServiceHTTPServer(aio_service, port=0).serve_in_background()
        server.shutdown()
        server.shutdown()  # second call is a no-op
        assert aio_service.running  # the service outlives its front end

    def test_constructor_validation(self, aio_service):
        with pytest.raises(ValueError, match="max_connections"):
            AsyncServiceHTTPServer(aio_service, max_connections=0)
        with pytest.raises(ValueError, match="read_timeout"):
            AsyncServiceHTTPServer(aio_service, read_timeout=0.0)
        with pytest.raises(ValueError, match="drain_timeout"):
            AsyncServiceHTTPServer(aio_service, drain_timeout=-1.0)

    def test_requests_served_counter(self, aio_service):
        server = AsyncServiceHTTPServer(aio_service, port=0).serve_in_background()
        try:
            urllib.request.urlopen(server.address + "/healthz", timeout=10).read()
            urllib.request.urlopen(server.address + "/stats", timeout=10).read()
            assert server.requests_served >= 2
        finally:
            server.shutdown()
