"""The JSON/HTTP frontend: endpoints, typed error mapping."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.runtime import InferenceSession
from repro.serve import InferenceServer, ServerConfig, serve_http

from _graph_fixtures import make_chain_graph


@pytest.fixture
def served():
    g = make_chain_graph(batch=4)
    with InferenceServer(g, ServerConfig(max_wait_s=0.0)) as server:
        with serve_http(server, port=0) as frontend:
            host, port = frontend.address
            yield g, server, f"http://{host}:{port}"


def _get(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


def _post(url: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


class TestEndpoints:
    def test_healthz_ok_while_serving(self, served):
        g, _server, base = served
        status, doc = _get(f"{base}/healthz")
        assert status == 200
        assert doc["status"] == "ok" and doc["model"] == g.name
        assert doc["graph_batch"] == 4

    def test_infer_matches_session_run(self, served):
        g, _server, base = served
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 16, 12, 12)).astype(np.float32)
        status, doc = _post(f"{base}/infer", {"inputs": {"x": x.tolist()}})
        assert status == 200
        out_name = g.outputs[0].name
        padded = np.concatenate([x, np.zeros((3, 16, 12, 12), np.float32)])
        reference = InferenceSession(g).run({"x": padded}).outputs[out_name]
        np.testing.assert_allclose(np.asarray(doc["outputs"][out_name],
                                              dtype=np.float32),
                                   reference[:1], rtol=0, atol=1e-6)
        assert doc["latency_ms"] > 0

    def test_stats_reflect_served_requests(self, served):
        _g, _server, base = served
        x = np.zeros((1, 16, 12, 12), np.float32).tolist()
        _post(f"{base}/infer", {"inputs": {"x": x}})
        status, doc = _get(f"{base}/stats")
        assert status == 200
        assert doc["stats"]["serve.completed"] >= 1

    def test_bad_shape_is_400(self, served):
        _g, _server, base = served
        status, doc = _post(f"{base}/infer",
                            {"inputs": {"x": [[1.0, 2.0]]}})
        assert status == 400
        assert "error" in doc

    def test_missing_inputs_key_is_400(self, served):
        _g, _server, base = served
        status, _doc = _post(f"{base}/infer", {"nope": 1})
        assert status == 400

    def test_unknown_endpoint_is_404(self, served):
        _g, _server, base = served
        assert _get(f"{base}/nope")[0] == 404
        assert _post(f"{base}/nope", {})[0] == 404

    def test_metrics_is_valid_prometheus_exposition(self, served):
        from test_obs_prometheus import parse_exposition

        _g, _server, base = served
        x = np.zeros((1, 16, 12, 12), np.float32).tolist()
        _post(f"{base}/infer", {"inputs": {"x": x}})
        request = urllib.request.Request(f"{base}/metrics")
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200
            content_type = response.headers["Content-Type"]
            body = response.read().decode()
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        samples = parse_exposition(body)
        assert samples[("repro_serve_completed_total", "")] >= 1.0
        assert samples[("repro_serve_requests_total", "")] >= 1.0
        assert ("repro_serve_latency_ms", '{quantile="0.99"}') in samples
        # the point-in-time extras ride along as gauges
        assert samples[("repro_serve_workers", "")] == 1.0
        assert ("repro_serve_in_flight", "") in samples
        assert samples[("repro_serve_graph_batch", "")] == 4.0

    def test_healthz_unavailable_after_close(self):
        g = make_chain_graph(batch=4)
        server = InferenceServer(g, ServerConfig(max_wait_s=0.0)).start()
        frontend = serve_http(server, port=0)
        host, port = frontend.address
        server.close()
        try:
            status, doc = _get(f"http://{host}:{port}/healthz")
            assert status == 503
            assert doc["status"] == "unavailable"
        finally:
            frontend.close()


class TestFrontendLifecycle:
    def test_with_block_runs_one_acceptor_and_closes_promptly(self):
        import threading
        import time

        def acceptors():
            return [t for t in threading.enumerate()
                    if t.name == "repro-serve-http" and t.is_alive()]

        before = acceptors()
        g = make_chain_graph(batch=4)
        with InferenceServer(g, ServerConfig(max_wait_s=0.0)) as server:
            start = time.monotonic()
            # serve_http() returns a started frontend and the with-block
            # starts it again: still exactly one acceptor thread
            with serve_http(server, port=0) as frontend:
                assert len(acceptors()) == len(before) + 1
                assert frontend.start() is frontend
                assert len(acceptors()) == len(before) + 1
                host, port = frontend.address
                assert _get(f"http://{host}:{port}/healthz")[0] == 200
            assert time.monotonic() - start < 1.0
            assert acceptors() == before
            frontend.close()  # idempotent


class TestBodyLimits:
    def test_oversized_body_is_413(self):
        g = make_chain_graph(batch=4)
        with InferenceServer(g, ServerConfig(max_wait_s=0.0)) as server:
            with serve_http(server, port=0) as frontend:
                # shrink the limit so the test doesn't ship 32 MiB
                frontend.httpd.RequestHandlerClass.max_body_bytes = 64
                host, port = frontend.address
                payload = {"inputs": {"x": [0.0] * 256}}
                status, doc = _post(f"http://{host}:{port}/infer", payload)
        assert status == 413
        assert "limit" in doc["error"]

    def test_negative_content_length_is_400(self):
        import http.client

        g = make_chain_graph(batch=4)
        with InferenceServer(g, ServerConfig(max_wait_s=0.0)) as server:
            with serve_http(server, port=0) as frontend:
                host, port = frontend.address
                conn = http.client.HTTPConnection(host, port, timeout=10)
                conn.putrequest("POST", "/infer")
                conn.putheader("Content-Length", "-5")
                conn.endheaders()
                status = conn.getresponse().status
                conn.close()
        assert status == 400


class TestHealthzDuringDrain:
    def test_healthz_503_draining_while_server_drains(self):
        g = make_chain_graph(batch=4)
        with InferenceServer(g, ServerConfig(max_wait_s=0.0)) as server:
            with serve_http(server, port=0) as frontend:
                host, port = frontend.address
                base = f"http://{host}:{port}"
                assert _get(f"{base}/healthz")[0] == 200
                # freeze mid-drain (the live window is too brief to
                # poll): the frontend must flip to 503/"draining" so a
                # balancer stops routing before the socket goes away
                server._draining = True
                try:
                    status, doc = _get(f"{base}/healthz")
                    assert status == 503
                    assert doc["status"] == "draining"
                    assert _post(f"{base}/infer", {"inputs": {
                        "x": np.zeros((1, 16, 12, 12)).tolist()}})[0] == 503
                finally:
                    server._draining = False
                assert _get(f"{base}/healthz")[0] == 200


def _infer_body(samples: int = 1) -> bytes:
    return json.dumps({"inputs": {
        "x": np.zeros((samples, 16, 12, 12)).tolist()}}).encode()


def _exchange(address, request: bytes) -> bytes:
    """Send ``request`` on a fresh socket and read until the server
    closes the connection (a server that keeps it open times out)."""
    import socket

    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestKeepAlive:
    def test_sequential_posts_share_one_connection(self):
        import http.client
        import statistics
        import time

        g = make_chain_graph(batch=4)
        with InferenceServer(g, ServerConfig()) as server:
            with serve_http(server, port=0) as frontend:
                accepted = []
                get_request = frontend.httpd.get_request

                def counting():
                    accepted.append(1)
                    return get_request()

                frontend.httpd.get_request = counting
                conn = http.client.HTTPConnection(*frontend.address,
                                                  timeout=10)
                body, seconds = _infer_body(), []
                for _ in range(50):
                    start = time.monotonic()
                    conn.request("POST", "/infer", body,
                                 {"Content-Type": "application/json"})
                    response = conn.getresponse()
                    payload = response.read()
                    seconds.append(time.monotonic() - start)
                    assert response.status == 200 and response.version == 11
                    assert "outputs" in json.loads(payload)
                conn.close()
        assert len(accepted) == 1
        # without TCP_NODELAY every one of these takes ~44 ms (Nagle
        # holds the body back until the client's delayed ACK of the
        # headers); the median, so that one stall of a shared box
        # cannot fail the test
        assert statistics.median(seconds) < 0.020, sorted(seconds)[-5:]

    @pytest.mark.parametrize("head,status", [
        (b"Content-Length: 4096\r\n", 413),
        (b"Content-Length: -5\r\n", 400),
        (b"Content-Length: many\r\n", 400),
    ])
    def test_reply_before_the_body_was_read_closes_the_connection(
            self, head, status):
        g = make_chain_graph(batch=4)
        with InferenceServer(g, ServerConfig()) as server:
            with serve_http(server, port=0) as frontend:
                frontend.httpd.RequestHandlerClass.max_body_bytes = 64
                reply = _exchange(frontend.address,
                                  b"POST /infer HTTP/1.1\r\nHost: x\r\n"
                                  + head + b"\r\n")
                assert reply.startswith(b"HTTP/1.1 %d " % status), reply[:80]
                assert b"Connection: close\r\n" in reply
                # a fresh connection is served as if nothing happened
                host, port = frontend.address
                assert _get(f"http://{host}:{port}/healthz")[0] == 200

    @pytest.mark.parametrize("version,head", [
        (b"HTTP/1.1", b"Connection: close\r\n"),
        (b"HTTP/1.0", b""),
    ])
    def test_a_client_that_asked_to_close_is_closed_after_its_answer(
            self, version, head):
        """Reading the body must not undo what the request line and
        the ``Connection`` header said: a client reading to end-of-file
        would hang on a connection the server kept."""
        body = _infer_body()
        g = make_chain_graph(batch=4)
        with InferenceServer(g, ServerConfig()) as server:
            with serve_http(server, port=0) as frontend:
                reply = _exchange(
                    frontend.address,
                    b"POST /infer " + version + b"\r\nHost: x\r\n" + head
                    + b"Content-Length: %d\r\n\r\n" % len(body) + body)
        headers, _, payload = reply.partition(b"\r\n\r\n")
        assert headers.startswith(b"HTTP/1.1 200 "), reply[:80]
        assert b"Connection: close" in headers
        assert "outputs" in json.loads(payload)

    def test_bad_json_keeps_the_connection(self):
        import http.client

        g = make_chain_graph(batch=4)
        with InferenceServer(g, ServerConfig()) as server:
            with serve_http(server, port=0) as frontend:
                conn = http.client.HTTPConnection(*frontend.address,
                                                  timeout=10)
                conn.request("POST", "/infer", b"{not json")
                response = conn.getresponse()
                response.read()
                assert response.status == 400
                sock = conn.sock  # the body was read: same connection
                conn.request("POST", "/infer", _infer_body())
                response = conn.getresponse()
                response.read()
                assert response.status == 200 and conn.sock is sock
                conn.close()


class TestNoHelperThreads:
    def test_close_ends_the_handler_of_an_idle_keep_alive_client(self):
        import http.client
        import threading

        def handlers():
            return [t for t in threading.enumerate()
                    if t.name == "repro-serve-http-conn" and t.is_alive()]

        before = handlers()
        g = make_chain_graph(batch=4)
        with InferenceServer(g, ServerConfig()) as server:
            frontend = serve_http(server, port=0)
            conn = http.client.HTTPConnection(*frontend.address, timeout=10)
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            # the client keeps its connection: its handler thread is
            # parked in a read for the next request
            assert len(handlers()) == len(before) + 1
            frontend.close()
            assert handlers() == before
            conn.close()
