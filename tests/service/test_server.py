"""Tests for the compile server: routing, coalescing, backpressure,
timeouts, tenant isolation, and graceful shutdown.

Concurrency is made deterministic by pausing the job queue: with
workers held back, tests control exactly which jobs are pending when
requests arrive, then resume to let the backlog drain.
"""

import json
import threading
import time

import pytest

from repro.service.batch import BatchCompiler, request_from_dict
from repro.service.client import CompileClient, ServiceError
from repro.service.server import (
    CompileService,
    Envelope,
    ServerThread,
    ServiceConfig,
    split_envelope,
)

BASE = {"compiler": "2qan", "benchmark": "NNN_Ising", "n_qubits": 6,
        "device": "aspen", "gateset": "CNOT", "seed": 0}


def serving(config=None):
    return ServerThread(CompileService(config or ServiceConfig(jobs=2)))


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestEnvelope:
    def test_split_pops_envelope_fields(self):
        payload, envelope = split_envelope(
            {**BASE, "tenant": "team-a", "priority": 2, "timeout_s": 1.5})
        assert payload == BASE
        assert envelope == Envelope("team-a", 2, 1.5)

    def test_defaults_inherited(self):
        _, envelope = split_envelope({}, Envelope("t", 1, 2.0))
        assert envelope == Envelope("t", 1, 2.0)

    @pytest.mark.parametrize("tenant", ["a/b", "a b", "x" * 65, 7, None])
    def test_bad_tenant_rejected(self, tenant):
        with pytest.raises(ValueError, match="tenant"):
            split_envelope({"tenant": tenant})

    @pytest.mark.parametrize("priority", ["3", 1.5, True])
    def test_bad_priority_rejected(self, priority):
        with pytest.raises(ValueError, match="priority"):
            split_envelope({"priority": priority})

    @pytest.mark.parametrize("timeout_s", ["1", 0, -2, True])
    def test_bad_timeout_rejected(self, timeout_s):
        with pytest.raises(ValueError, match="timeout_s"):
            split_envelope({"timeout_s": timeout_s})

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400",
                                         "1" + "0" * 400])
    def test_non_finite_timeout_rejected(self, literal):
        # json.loads accepts these; none is a usable time budget
        payload = json.loads(f'{{"timeout_s": {literal}}}')
        with pytest.raises(ValueError, match="timeout_s"):
            split_envelope(payload)


class TestRoutes:
    def test_round_trip_matches_local_execution(self):
        from repro.service.batch import execute_request

        with serving() as handle:
            client = CompileClient(port=handle.port)
            served = client.compile(BASE)
        local = execute_request(request_from_dict(BASE)).to_dict()
        assert served == local

    def test_batch_bit_identical_to_batch_cli_path(self):
        """The live server must serve exactly what ``repro batch --json``
        prints for the same request list -- duplicates, aliases,
        parameterised variants and failures included."""
        payloads = [
            BASE,
            dict(BASE),                              # duplicate
            {**BASE, "compiler": "order"},           # alias of tket
            {**BASE, "compiler": "tket"},            # dedupes with alias
            {**BASE, "benchmark": "QAOA-REG-3", "seed": 1,
             "parameters": {"gamma": 0.4, "beta": 1.1}},
            {**BASE, "benchmark": "QAOA-REG-3", "seed": 1,
             "parameters": {"gamma": 0.7, "beta": 0.2}},
            {**BASE, "benchmark": "QAOA-REG-3", "seed": 1,
             "parameters": {"gamma": 0.4}},          # missing beta: fails
        ]
        requests = [request_from_dict(p) for p in payloads]
        with serving() as handle:
            client = CompileClient(port=handle.port)
            served = client.compile_batch(payloads)
        local, _ = BatchCompiler().run(requests)
        assert json.dumps(served, indent=2) == \
            json.dumps([r.to_dict() for r in local], indent=2)

    def test_batch_accepts_wrapped_object_with_envelope(self):
        with serving() as handle:
            client = CompileClient(port=handle.port)
            status, body, _headers = client._send("POST", "/batch",
                                                  {"requests": [BASE],
                                                   "priority": 1})
            assert status == 200
            assert json.loads(body)[0]["n_swaps"] is not None

    def test_unknown_route_404_wrong_method_405(self):
        with serving() as handle:
            client = CompileClient(port=handle.port, retries=0)
            assert client._send("GET", "/nope")[0] == 404
            assert client._send("GET", "/compile")[0] == 405
            assert client._send("POST", "/metrics")[0] == 405

    def test_bad_json_and_bad_fields_are_400(self):
        import http.client

        with serving() as handle:
            client = CompileClient(port=handle.port, retries=0)
            conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                              timeout=10)
            conn.request("POST", "/compile", body=b"{not json")
            assert conn.getresponse().status == 400
            conn.close()
            status, _body, _headers = client._send("POST", "/compile",
                                                   "not an object")
            assert status == 400
            with pytest.raises(ServiceError, match="qubits") as excinfo:
                client.compile({"qubits": 6})
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError, match="tenant"):
                client.compile(BASE, tenant="a/b")
            with pytest.raises(ServiceError, match="#1"):
                client.compile_batch([BASE, {"qubits": 6}])

    def test_unknown_compiler_is_error_response_not_http_error(self):
        """A request whose key cannot even be computed mirrors the batch
        CLI: an error-carrying response, not a transport failure."""
        with serving() as handle:
            client = CompileClient(port=handle.port)
            served = client.compile({**BASE, "compiler": "bogus"})
        assert served["error"]
        assert served["request_key"] is None

    def test_healthz_and_metrics_shape(self):
        with serving() as handle:
            client = CompileClient(port=handle.port)
            client.compile(BASE)
            health = client.healthz()
            metrics = client.metrics()
        assert health["status"] == "ok"
        assert metrics["requests"]["compiled"] == 1
        assert metrics["queue"]["capacity"] == 64
        assert metrics["latency"]["request"]["count"] == 1
        assert metrics["latency"]["queue_wait"]["buckets"]["le_inf"] == 1
        # per-pass timing aggregates from the shared aggregation helper
        assert metrics["passes"]["mapping"]["count"] == 1
        assert metrics["passes"]["mapping"]["mean_s"] >= 0
        # cache counters come from ArtifactCache.stats(), the one
        # counter snapshot API
        assert metrics["cache"]["default"]["misses"] > 0
        assert metrics["cache"]["default"]["index"] == {"hits": 0,
                                                        "misses": 1}


class TestConcurrency:
    def test_identical_inflight_requests_coalesce_to_one_compile(self):
        with serving() as handle:
            service = handle.service
            service.queue.pause()
            client = CompileClient(port=handle.port)
            results = []

            def call():
                results.append(client.compile(BASE))

            threads = [threading.Thread(target=call) for _ in range(4)]
            for thread in threads:
                thread.start()
            # all four requests arrive while the queue is frozen: one
            # job is submitted, three attach to it
            assert wait_until(
                lambda: service.metrics.counters["coalesced"] == 3)
            assert service.metrics.counters["submitted"] == 1
            service.queue.resume()
            for thread in threads:
                thread.join(30.0)
        assert len(results) == 4
        assert all(r == results[0] for r in results)
        assert service.metrics.counters["compiled"] == 1

    def test_full_queue_returns_429_backpressure(self):
        config = ServiceConfig(jobs=1, queue_depth=1)
        with serving(config) as handle:
            service = handle.service
            service.queue.pause()
            client = CompileClient(port=handle.port, retries=0)
            holder = threading.Thread(
                target=lambda: client.compile(BASE))
            holder.start()
            assert wait_until(lambda: len(service.queue) == 1)
            status, _body, headers = client._send(
                "POST", "/compile", {**BASE, "seed": 1})
            assert status == 429
            # backpressure comes with a machine-readable wait hint
            assert float(headers["retry-after"]) > 0
            with pytest.raises(ServiceError, match="full") as excinfo:
                client.compile({**BASE, "seed": 1})
            assert excinfo.value.status == 429
            assert service.metrics.counters["rejected_queue_full"] == 2
            service.queue.resume()
            holder.join(30.0)

    def test_429_resolves_after_retry_when_queue_drains(self):
        config = ServiceConfig(jobs=1, queue_depth=1)
        with serving(config) as handle:
            service = handle.service
            service.queue.pause()
            patient = CompileClient(port=handle.port, retries=8,
                                    backoff_s=0.05)
            holder = threading.Thread(
                target=lambda: patient.compile(BASE))
            holder.start()
            assert wait_until(lambda: len(service.queue) == 1)
            releaser = threading.Timer(0.2, service.queue.resume)
            releaser.start()
            served = patient.compile({**BASE, "seed": 1})
            assert served.get("error") is None
            holder.join(30.0)
            releaser.join()

    def test_queued_job_times_out_with_error_response(self):
        with serving() as handle:
            service = handle.service
            service.queue.pause()
            client = CompileClient(port=handle.port)
            served = client.compile(BASE, timeout_s=0.05)
            assert "timed out" in served["error"]
            assert served["request_key"] is not None
            assert service.metrics.counters["timed_out"] >= 1
            service.queue.resume()

    def test_structural_twins_share_one_structural_compile(self):
        with serving() as handle:
            client = CompileClient(port=handle.port)
            client.compile_batch([
                {**BASE, "benchmark": "QAOA-REG-3", "seed": 1,
                 "parameters": {"gamma": g, "beta": b}}
                for g, b in [(0.4, 1.1), (0.7, 0.2), (1.2, 0.9)]
            ])
            metrics = client.metrics()
        assert metrics["requests"]["structural_compiles"] == 1
        assert metrics["requests"]["structural_binds"] == 3

    def test_tenants_get_isolated_salted_caches(self, tmp_path):
        config = ServiceConfig(jobs=2, cache_dir=tmp_path)
        with serving(config) as handle:
            client = CompileClient(port=handle.port)
            client.compile(BASE, tenant="team-a")
            client.compile(BASE, tenant="team-b")
            metrics = client.metrics()
        from repro.analysis.store import source_digest

        digest = source_digest()
        assert (tmp_path / "team-a" / digest).is_dir()
        assert (tmp_path / "team-b" / digest).is_dir()
        # each tenant compiled from cold: no cross-tenant artifact reuse
        assert metrics["cache"]["team-a"]["hits"] == 0
        assert metrics["cache"]["team-b"]["hits"] == 0
        assert metrics["cache"]["team-b"]["misses"] == \
            metrics["cache"]["team-a"]["misses"]
        # nor problem-index reuse
        for tenant in ("team-a", "team-b"):
            assert metrics["cache"][tenant]["index"] == {"hits": 0,
                                                         "misses": 1}


class TestHttpFrontEnd:
    def test_connection_reused_across_requests(self):
        with serving() as handle:
            client = CompileClient(port=handle.port)
            client.healthz()
            first = client._connection()
            client.compile(BASE)
            client.metrics()
            # three exchanges, one socket: the server kept it alive
            assert client._connection() is first
            client.close()

    def test_connection_close_header_honoured(self):
        import http.client

        with serving() as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                              timeout=10)
            conn.request("GET", "/healthz",
                         headers={"Connection": "close"})
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
            assert response.will_close
            response.read()
            conn.close()

    def test_idle_keep_alive_connection_times_out(self):
        import socket

        config = ServiceConfig(jobs=1, idle_timeout_s=0.1)
        with serving(config) as handle:
            sock = socket.create_connection(("127.0.0.1", handle.port),
                                            timeout=10)
            sock.settimeout(10.0)
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            chunks = []
            # the server answers, then -- with no follow-up request --
            # closes the idle connection; recv drains to EOF
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
            sock.close()
        data = b"".join(chunks)
        assert b"200 OK" in data
        assert b"Connection: keep-alive" in data

    def test_negative_content_length_is_400(self):
        import socket

        with serving() as handle:
            sock = socket.create_connection(("127.0.0.1", handle.port),
                                            timeout=10)
            sock.settimeout(10.0)
            # a negative length must not split the body: its last five
            # bytes would otherwise start the next request
            sock.sendall(b"POST /compile HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: -5\r\n\r\n"
                         + json.dumps(BASE).encode())
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
            sock.close()
        data = b"".join(chunks)
        assert data.startswith(b"HTTP/1.1 400")
        assert b"Content-Length header" in data
        assert data.count(b"HTTP/1.1") == 1

    def test_oversized_request_head_is_400(self):
        """A head with no newline in sight is refused once it passes
        64 KiB, not buffered until the idle timeout."""
        import socket

        with serving() as handle:
            sock = socket.create_connection(("127.0.0.1", handle.port),
                                            timeout=10)
            sock.settimeout(10.0)
            sock.sendall(b"GET /" + b"a" * (64 * 1024 + 1024))
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
            sock.close()
        data = b"".join(chunks)
        assert data.startswith(b"HTTP/1.1 400")
        assert b"request head exceeds 65536 bytes" in data

    def test_metrics_prometheus_exposition(self):
        with serving() as handle:
            client = CompileClient(port=handle.port)
            client.compile(BASE)
            status, body, headers = client._send(
                "GET", "/metrics?format=prometheus")
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            text = body.decode()
            assert 'repro_requests_total{kind="compiled"} 1' in text
            assert "repro_request_latency_seconds_bucket" in text
            assert 'le="+Inf"' in text
            assert 'repro_cache_misses_total{tenant="default"}' in text
            status, _body, _headers = client._send(
                "GET", "/metrics?format=weird")
            assert status == 400


class TestShutdown:
    def test_graceful_shutdown_drains_pending_jobs(self):
        with serving() as handle:
            service = handle.service
            service.queue.pause()
            client = CompileClient(port=handle.port)
            results = []

            def call(seed):
                results.append(client.compile({**BASE, "seed": seed}))

            threads = [threading.Thread(target=call, args=(seed,))
                       for seed in (0, 1)]
            for thread in threads:
                thread.start()
            assert wait_until(lambda: len(service.queue) == 2)
            # drain=True shutdown runs the backlog (close overrides the
            # pause) before the listener goes away
            assert client.shutdown()["status"] == "draining"
            for thread in threads:
                thread.join(30.0)
            assert len(results) == 2
            assert all(r.get("error") is None for r in results)
        # the context exit joined the server thread; the port is gone
        with pytest.raises(ServiceError, match="cannot reach"):
            CompileClient(port=handle.port, retries=0).healthz()

    def test_hard_shutdown_cancels_pending_jobs(self):
        service = CompileService(ServiceConfig(jobs=1))
        service.start()
        service.queue.pause()
        jobs = []
        for seed in (1, 2):
            request = request_from_dict({**BASE, "seed": seed})
            jobs.append(service.submit(request, request.key())[0])
        service.shutdown(drain=False)
        service.join(10.0)
        for job in jobs:
            response = job.future.result(timeout=1.0)
            assert "stopped" in response.error
        assert service.metrics.counters["cancelled"] == 2

    def test_submit_after_drain_begins_raises_closed(self):
        from repro.service.queue import QueueClosedError

        service = CompileService(ServiceConfig(jobs=1))
        service.start()
        service.shutdown()
        request = request_from_dict(BASE)
        with pytest.raises(QueueClosedError):
            service.submit(request, request.key())
        service.join(10.0)
