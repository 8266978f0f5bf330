"""Telemetry over a live deployment: /metrics, traces, top, profiling.

Launches real NodeHost processes (marked ``net``, excluded from tier-1)
and exercises every operator surface the telemetry plane adds: the
Prometheus ``/metrics`` route, the wire-tagged trace plumbing end to
end (client draw -> hop stamps on transit hosts -> merged Chrome
export), ``skueue-ops top/trace`` and the live ``/profile`` capture.
"""

from __future__ import annotations

import asyncio
import json
import urllib.request

import pytest

from repro.net.client import SkueueClient
from repro.net.launcher import launch_local
from repro.ops import cli
from repro.telemetry import validate_chrome_trace

pytestmark = pytest.mark.net

#: series the CI smoke step (and any dashboard) may rely on existing
CORE_SERIES = (
    "skueue_frames_total",
    "skueue_bytes_total",
    "skueue_connections",
    "skueue_actors",
    "skueue_records_local",
    "skueue_records_custody",
    "skueue_records_replica",
    "skueue_records_packed_bytes",
    "skueue_ops_generated_total",
    "skueue_ops_completed_total",
    "skueue_ops_pending",
    # wave-liveness escape hatch (A_NUDGE path): registered from
    # startup so a healthy deployment scrapes them at 0 and a stuck
    # one shows the hatch tripping
    "skueue_wave_nudge_probes_total",
    "skueue_wave_force_fires_total",
    # cross-host wave synchrony: idle waits for a remote child, the
    # ones that ran out, and batches consumed without being waited for
    "skueue_wave_remote_waits_total",
    "skueue_wave_remote_wait_expired_total",
    "skueue_wave_extras_total",
)


def _drive(host_map, ops: int = 60, trace_sample: float | None = None):
    async def scenario():
        kwargs = {} if trace_sample is None else {"trace_sample": trace_sample}
        async with SkueueClient(host_map, **kwargs) as client:
            for i in range(ops // 2):
                await client.enqueue(i % 8, i)
            for i in range(ops // 2):
                await client.dequeue(i % 8)
            await client.wait_all(timeout=120.0)
            return await client.host_telemetry()

    return asyncio.run(scenario())


def _http(address, path: str) -> str:
    url = f"http://{address[0]}:{address[1]}{path}"
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.read().decode()


class TestLiveTelemetry:
    @pytest.fixture(scope="class")
    def deployment(self):
        with launch_local(3, 8, seed=11, trace_sample=1.0) as dep:
            telemetry = _drive(dep.host_map)
            # a host serves its HTTP routes on its data port
            yield dep, telemetry, dict(dep.host_map)

    def test_metrics_route_serves_core_series(self, deployment):
        dep, _, ops_addresses = deployment
        assert len(ops_addresses) == 3
        records = {"local": 0.0, "custody": 0.0, "packed_bytes": 0.0}
        for index, address in ops_addresses.items():
            text = _http(address, "/metrics")
            for series in CORE_SERIES:
                assert f"\n{series}" in text or text.startswith(series), (
                    f"host {index} /metrics lacks {series}"
                )
            # histogram families render full bucket/sum/count triplets
            assert "skueue_write_batch_frames_bucket" in text
            assert "# TYPE skueue_frames_total counter" in text
            sample = cli._parse_prom(text)
            for name in records:
                records[name] += cli._series(sample, f"skueue_records_{name}")
        # every op the fixture drove is held by its origin, live or packed;
        # nobody departed; and finished ones were packed
        assert records["local"] == 60 and records["custody"] == 0
        assert records["packed_bytes"] > 0

    def test_client_adopts_deployment_trace_rate(self, deployment):
        dep, telemetry, _ = deployment
        # hosts advertised trace_sample=1.0; the fixture client sampled
        # every op, so every host finished spans with full lifecycles
        total = sum(
            data["phases"]["total"]["count"] for data in telemetry.values()
        )
        assert total >= 50
        for data in telemetry.values():
            sampled = data["phases"]["sampled"]
            assert sampled["rate"] == 1.0
            assert sampled["finished"] > 0

    def test_phase_histograms_attribute_the_lifecycle(self, deployment):
        _, telemetry, _ = deployment
        for host, data in telemetry.items():
            phases = data["phases"]
            for phase in ("buffer", "wave", "deliver"):
                if phases[phase]["count"]:
                    assert phases[phase]["p99"] >= phases[phase]["p50"] >= 0
            assert phases["hops"]["count"] > 0, f"host {host} stamped no hops"

    def test_registry_snapshot_rides_the_metrics_frame(self, deployment):
        _, telemetry, _ = deployment
        for data in telemetry.values():
            registry = data["registry"]
            assert registry["skueue_frames_total"]['{direction="in"}'] > 0
            assert '{direction="out"}' in registry["skueue_bytes_total"]

    def test_trace_route_and_flight_recorder(self, deployment):
        _, _, ops_addresses = deployment
        address = next(iter(ops_addresses.values()))
        export = json.loads(_http(address, "/trace"))
        assert validate_chrome_trace(export) == []
        assert export["traceEvents"]
        recent = json.loads(_http(address, "/trace?recent=1"))["recent"]
        assert recent and all("phases_ms" in r for r in recent)
        # lifecycle records carry real (nonzero) durations
        assert all(r["dur_ms"] > 0 for r in recent)
        record = json.loads(_http(address, f"/trace?req={recent[-1]['req']}"))
        assert record["req"] == recent[-1]["req"]

    def test_ops_trace_slow_lists_ops_past_the_running_p99(self, deployment,
                                                            capsys):
        # no threshold to set: a host's first traced op is past the p99
        # of none, and each later one is weighed against those before it
        dep, _, _ = deployment
        seed = "%s:%s" % next(iter(dep.host_map.values()))
        capsys.readouterr()
        assert cli.main(["trace", "--seed", seed, "--slow"]) == 0
        slow = json.loads(capsys.readouterr().out)
        assert cli.main(["trace", "--seed", seed, "--recent"]) == 0
        recent = json.loads(capsys.readouterr().out)
        assert slow and all(r["dur_ms"] > 0 for r in slow)
        assert [r["dur_ms"] for r in slow] == sorted(
            (r["dur_ms"] for r in slow), reverse=True)
        # the rings hold every op the fixture drove (60, under either
        # size): a rule that admitted every op would fill both alike
        assert len(recent) == 60
        assert 2 * len(slow) < len(recent), (len(slow), len(recent))

    def test_ops_top_once_renders_every_host(self, deployment, capsys):
        dep, _, _ = deployment
        host, port = next(iter(dep.host_map.values()))
        assert cli.main(["top", "--seed", f"{host}:{port}", "--once"]) == 0
        out = capsys.readouterr().out
        assert "ops/s" in out and "pend" in out
        assert "rwait" in out and "rexp" in out and "extra" in out
        for index in range(3):
            assert f"\n{index:>4} " in out

    def test_ops_trace_merges_all_host_lanes(self, deployment, tmp_path,
                                             capsys):
        dep, _, _ = deployment
        host, port = next(iter(dep.host_map.values()))
        out_file = tmp_path / "trace.json"
        assert cli.main(["trace", "--seed", f"{host}:{port}",
                         "--out", str(out_file)]) == 0
        capsys.readouterr()
        merged = json.loads(out_file.read_text())
        assert validate_chrome_trace(merged) == []
        lanes = {event["pid"] for event in merged["traceEvents"]}
        assert lanes == {0, 1, 2}
        assert [h["host"] for h in merged["otherData"]["hosts"]] == [0, 1, 2]

    def test_profile_route_captures_the_event_loop(self, deployment):
        _, _, ops_addresses = deployment
        address = next(iter(ops_addresses.values()))
        text = _http(address, "/profile?seconds=0.2&top=5")
        assert "function calls" in text


class TestTraceSampling:
    def test_explicit_client_rate_overrides_deployment(self):
        # deployment off, client samples everything: spans still flow,
        # because hosts honor the wire tag at any configured rate
        with launch_local(2, 8, seed=5) as dep:
            telemetry = _drive(dep.host_map, ops=40, trace_sample=1.0)
        finished = sum(
            d["phases"]["sampled"]["finished"] for d in telemetry.values()
        )
        assert finished > 0

    def test_untraced_deployment_keeps_tracer_idle(self):
        with launch_local(2, 8, seed=6) as dep:
            telemetry = _drive(dep.host_map, ops=40)
        for data in telemetry.values():
            sampled = data["phases"]["sampled"]
            assert sampled["started"] == 0
            assert data["phases"]["total"]["count"] == 0
