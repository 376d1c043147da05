"""The daemon's HTTP metrics endpoint: live scrapes, port fallback,
clean shutdown — plus scrape safety while run totals fold outcomes in."""

import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.daemon import MetricsServer
from repro.daemon.metrics_server import PROMETHEUS_CONTENT_TYPE, parse_bind
from repro.obs import RunTotals, render_prometheus


def fetch(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), resp.read().decode()


@pytest.fixture
def totals():
    return RunTotals.of([{"status": "ok", "safe": True, "duration": 0.02}])


@pytest.fixture
def render(totals):
    return lambda: render_prometheus(totals)


class TestEndpoints:
    def test_metrics_text_exposition(self, render):
        with MetricsServer(render) as server:
            status, content_type, body = fetch(server.port, "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "# TYPE repro_files_total counter" in body
        assert 'repro_files_total{status="ok"} 1' in body

    def test_metrics_canonical_content_type(self, render):
        """Prometheus scrapers negotiate on the exact format version."""
        with MetricsServer(render) as server:
            _status, content_type, _body = fetch(server.port, "/metrics")
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        assert content_type == PROMETHEUS_CONTENT_TYPE

    def test_metrics_include_quantile_gauges(self, render):
        with MetricsServer(render) as server:
            _status, _content_type, body = fetch(server.port, "/metrics")
        assert "# TYPE repro_file_seconds_quantile gauge" in body
        assert 'repro_file_seconds_quantile{quantile="0.5"}' in body

    def test_healthz_json(self, render):
        health = {"status": "ok", "cycles": 7}
        with MetricsServer(render, health=lambda: health) as server:
            status, content_type, body = fetch(server.port, "/healthz")
        assert status == 200 and content_type == "application/json"
        assert json.loads(body) == health

    def test_unknown_path_404(self, render):
        with MetricsServer(render) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                fetch(server.port, "/nope")
            assert err.value.code == 404

    def test_handler_crash_is_a_500_not_a_dead_server(self, render):
        def health():
            raise RuntimeError("probe exploded")

        with MetricsServer(render, health=health) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                fetch(server.port, "/healthz")
            assert err.value.code == 500
            assert json.loads(err.value.read().decode()) == {
                "error": "RuntimeError: probe exploded"
            }
            # The server must still answer after a handler crash.
            assert fetch(server.port, "/metrics")[0] == 200

    def test_only_get_is_served(self, render):
        with MetricsServer(render) as server:
            request = urllib.request.Request(f"{server.url}/metrics", data=b"x")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=5)
            assert err.value.code == 501
            assert fetch(server.port, "/metrics")[0] == 200

    def test_query_string_ignored(self, render):
        with MetricsServer(render) as server:
            status, _, body = fetch(server.port, "/healthz?verbose=1")
            assert status == 200 and json.loads(body) == {"status": "ok"}

    def test_url_property(self, render):
        with MetricsServer(render, host="127.0.0.1") as server:
            assert server.url == f"http://127.0.0.1:{server.port}"


class TestScrapeDuringActiveCycle:
    @staticmethod
    def writer(totals, stop):
        """Fold records into ``totals`` until ``stop``: new statuses,
        stages and solver counters keep growing the dicts a render reads."""
        i = 0
        while not stop.is_set():
            totals.add({
                "status": "ok" if i % 3 else f"status-{i % 50}",
                "safe": bool(i % 2),
                "duration": 0.001 * (i % 100),
                "timings": {f"stage-{i % 20}": 0.001 * (i % 7)},
                "solver": {"backend": "cdcl", f"kind_{i % 40}": 1},
                "includes": {"edges": 1},
            })
            i += 1

    def test_concurrent_mutation_never_corrupts_a_scrape(self, totals, render):
        """Fold from a writer thread while scraping: every response must be
        complete exposition text whose histogram agrees with itself."""
        stop = threading.Event()
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-fold included
        thread = threading.Thread(target=self.writer, args=(totals, stop), daemon=True)
        thread.start()
        try:
            with MetricsServer(render) as server:
                for _ in range(25):
                    status, _, body = fetch(server.port, "/metrics")
                    if status != 200:
                        errors.append(status)
                    if "# TYPE repro_files_total counter" not in body:
                        errors.append("missing header")
                    if not body.endswith("\n"):
                        errors.append("truncated body")
                    samples = dict(
                        line.rsplit(" ", 1) for line in body.splitlines()
                        if not line.startswith("#")
                    )
                    files = sum(
                        int(value) for name, value in samples.items()
                        if name.startswith("repro_files_total{")
                    )
                    if not (files == int(samples["repro_file_seconds_count"])
                            == int(samples['repro_file_seconds_bucket{le="+Inf"}'])):
                        errors.append("torn fold")
        finally:
            stop.set()
            thread.join(timeout=5)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert errors == []

    def test_render_is_safe_without_server_too(self, totals):
        stop = threading.Event()
        thread = threading.Thread(target=self.writer, args=(totals, stop), daemon=True)
        thread.start()
        try:
            for _ in range(50):
                render_prometheus(totals)
        finally:
            stop.set()
            thread.join(timeout=5)
        assert not thread.is_alive()


class TestPortHandling:
    def test_port_in_use_falls_back_to_ephemeral(self, render):
        with MetricsServer(render) as first:
            second = MetricsServer(render, port=first.port)
            try:
                assert second.fell_back
                assert second.port != first.port
                second.start()
                status, _, _ = fetch(second.port, "/metrics")
                assert status == 200
            finally:
                second.close()

    def test_requested_port_recorded(self, render):
        with MetricsServer(render) as server:
            assert server.requested_port == 0
            assert server.port != 0
            assert not server.fell_back

    def test_parse_bind_forms(self):
        assert parse_bind("9100") == ("127.0.0.1", 9100)
        assert parse_bind(":9100") == ("127.0.0.1", 9100)
        assert parse_bind("0.0.0.0:9100") == ("0.0.0.0", 9100)
        with pytest.raises(ValueError):
            parse_bind("nope")
        with pytest.raises(ValueError):
            parse_bind(":99999")

    @pytest.mark.parametrize("spec", ["", "host:", "host:port", "1.2.3.4:99999"])
    def test_parse_bind_invalid(self, spec):
        with pytest.raises(ValueError):
            parse_bind(spec)


class TestShutdown:
    def test_close_releases_the_socket(self, render):
        server = MetricsServer(render).start()
        port = server.port
        assert fetch(port, "/metrics")[0] == 200
        server.close()
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            fetch(port, "/metrics")
        # The port is reusable immediately (no lingering listener).
        rebound = MetricsServer(render, port=port)
        try:
            assert not rebound.fell_back
        finally:
            rebound.close()

    def test_close_without_start_releases_socket(self, render):
        server = MetricsServer(render)
        port = server.port
        server.close()
        # The port must be immediately rebindable.
        with MetricsServer(render, port=port) as again:
            assert again.port == port and not again.fell_back
