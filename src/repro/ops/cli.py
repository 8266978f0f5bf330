"""``skueue-ops``: operations dashboard for a live TCP deployment.

Point it at any live host; it pulls the cluster map, asks every host
at its address there for its status payload (the ``health`` frame),
and renders either a terminal dashboard or machine-readable
JSON:

* ``skueue-ops status --seed HOST:PORT`` — one-shot cluster dashboard
  (per-host liveness, detector view, replica fan-out, evictions),
* ``skueue-ops status --seed ... --json`` — the raw payloads, for CI
  artifacts and scripting,
* ``skueue-ops status --seed ... --watch`` — refresh the dashboard
  every second until interrupted,
* ``skueue-ops logs --seed HOST:PORT`` — merged tail of every host's
  ops log ring (suspicions, evictions, rebuilds),
* ``skueue-ops top --seed HOST:PORT`` — live refreshing cluster view
  scraped from every host's ``/metrics`` HTTP route (throughput,
  pending ops, frame/byte rates; ``--once`` for scripts),
* ``skueue-ops trace --seed HOST:PORT [--out FILE]`` — merge every
  host's sampled span export into one Chrome trace-event JSON
  (Perfetto-loadable); ``--slow`` / ``--recent`` print the flight
  recorder, ``--req ID`` one op's lifecycle,
* ``skueue-ops profile --seed HOST:PORT --host N --seconds S`` — live
  cProfile capture of one host's event loop (the ``/profile`` route).

A host answers frames and the HTTP routes on the same port — the one
its cluster map entry names — so every subcommand needs only one seed
address.

Kept separate from :mod:`repro.ops`'s pure modules because it imports
``repro.net.transport``; the package ``__init__`` never imports us.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from urllib.error import URLError
from urllib.request import urlopen

from repro.net.transport import request
from repro.telemetry import merge_traces, validate_chrome_trace

__all__ = ["main"]

#: Seconds an ops probe waits for one host before calling it unreachable.
_PROBE_TIMEOUT = 5.0


def _discover(seed: tuple[str, int]) -> dict[int, tuple[str, int]]:
    """The live host set, from any one host's cluster map."""
    return request(seed, {"op": "map"}, "host_map", _PROBE_TIMEOUT)["map"].hosts


def _collect(seed: tuple[str, int]) -> tuple[dict[int, dict], dict[int, str]]:
    """Health payload (or error string) per live host."""
    payloads: dict[int, dict] = {}
    failures: dict[int, str] = {}
    for index, address in sorted(_discover(seed).items()):
        try:
            payloads[index] = request(address, {"op": "health"}, "health",
                                      _PROBE_TIMEOUT)
        except (OSError, RuntimeError, ConnectionError) as exc:
            failures[index] = str(exc) or type(exc).__name__
    return payloads, failures


def _render_status(payloads: dict[int, dict], failures: dict[int, str]) -> str:
    lines = []
    header = (
        f"{'host':>4}  {'state':<10} {'map':>4} {'gen':>4} {'coord':>5} "
        f"{'recs':>6} {'repl':>6} {'suspects':<10} {'errors':>6}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for index, data in sorted(payloads.items()):
        state = (
            "recovering" if data.get("recovering")
            else "draining" if data.get("draining")
            else "up" if data.get("wired")
            else "wiring"
        )
        suspects = ",".join(str(s) for s in data["detector"]["suspects"]) or "-"
        lines.append(
            f"{index:>4}  {state:<10} {data['map_version']:>4} "
            f"{data['recovery_epoch']:>4} {data['coordinator']:>5} "
            f"{data['records']:>6} {data['replicas']:>6} {suspects:<10} "
            f"{data['errors']:>6}"
        )
    for index, failure in sorted(failures.items()):
        lines.append(f"{index:>4}  unreachable: {failure}")
    evictions = {
        (event["host"], event["gen"])
        for data in payloads.values()
        for event in data.get("evictions", ())
    }
    if evictions:
        lines.append("")
        lines.append("evictions: " + ", ".join(
            f"host {host} (generation {gen})"
            for host, gen in sorted(evictions)
        ))
    return "\n".join(lines)


def _status(args: argparse.Namespace) -> int:
    while True:
        payloads, failures = _collect(args.seed)
        if args.json:
            print(json.dumps({"hosts": payloads, "unreachable": failures},
                             default=str))
        else:
            if args.watch:
                sys.stdout.write("\x1b[2J\x1b[H")  # clear + home
            print(_render_status(payloads, failures))
        if not args.watch:
            return 0
        time.sleep(args.interval)


def _http_get(address: tuple[str, int], path: str, timeout: float = 30.0) -> str:
    with urlopen(f"http://{address[0]}:{address[1]}{path}",
                 timeout=timeout) as response:
        return response.read().decode("utf-8", "replace")


def _parse_prom(text: str) -> dict[str, float]:
    """Prometheus text exposition -> ``{'name{labels}': value}``.

    Minimal by design: our own exposition puts the value after a single
    space and never uses timestamps or escapes we'd need to honor.
    """
    series: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            series[name] = float(value)
        except ValueError:
            continue
    return series


def _series(sample: dict[str, float], name: str, **labels) -> float:
    """Sum every series of ``name`` whose labels include ``labels``."""
    total = 0.0
    for key, value in sample.items():
        if not (key == name or key.startswith(name + "{")):
            continue
        if all(f'{k}="{v}"' in key for k, v in labels.items()):
            total += value
    return total


def _render_top(
    samples: dict[int, dict[str, float]],
    previous: dict[int, dict[str, float]],
    elapsed: float,
    failures: dict[int, str],
) -> str:
    lines = []
    header = (
        f"{'host':>4}  {'ops/s':>8} {'done':>9} {'pend':>6} {'actors':>6} "
        f"{'frm/s':>8} {'KiB/s':>8} {'recs':>6} {'repl':>6} "
        f"{'nudge':>6} {'ffire':>6} {'rwait':>7} {'rexp':>5} {'extra':>7} "
        f"{'gen':>4}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    totals = {"rate": 0.0, "done": 0.0, "generated": 0.0}
    for index, sample in sorted(samples.items()):
        done = _series(sample, "skueue_ops_completed_total")
        frames = _series(sample, "skueue_frames_total")
        nbytes = _series(sample, "skueue_bytes_total")
        rate = frame_rate = byte_rate = 0.0
        if index in previous and elapsed > 0:
            prior = previous[index]
            rate = (done - _series(prior, "skueue_ops_completed_total")) / elapsed
            frame_rate = (
                frames - _series(prior, "skueue_frames_total")
            ) / elapsed
            byte_rate = (
                nbytes - _series(prior, "skueue_bytes_total")
            ) / elapsed
        pending = _series(sample, "skueue_ops_pending")
        totals["rate"] += max(rate, 0.0)
        totals["done"] += done
        totals["generated"] += _series(sample, "skueue_ops_generated_total")
        lines.append(
            f"{index:>4}  {max(rate, 0.0):>8.0f} {done:>9.0f} "
            f"{pending:>6.0f} {_series(sample, 'skueue_actors'):>6.0f} "
            f"{max(frame_rate, 0.0):>8.0f} {max(byte_rate, 0.0) / 1024:>8.1f} "
            f"{_series(sample, 'skueue_records_local'):>6.0f} "
            f"{_series(sample, 'skueue_records_replica'):>6.0f} "
            f"{_series(sample, 'skueue_wave_nudge_probes_total'):>6.0f} "
            f"{_series(sample, 'skueue_wave_force_fires_total'):>6.0f} "
            f"{_series(sample, 'skueue_wave_remote_waits_total'):>7.0f} "
            f"{_series(sample, 'skueue_wave_remote_wait_expired_total'):>5.0f} "
            f"{_series(sample, 'skueue_wave_extras_total'):>7.0f} "
            f"{_series(sample, 'skueue_recovery_generation'):>4.0f}"
        )
    for index, failure in sorted(failures.items()):
        lines.append(f"{index:>4}  unreachable: {failure}")
    lines.append("-" * len(header))
    # ops are generated on the submitter's host but completion may be
    # observed where the valuation landed, so the honest cluster-wide
    # in-flight count is the difference of the *sums*, not the sum of
    # the per-host clamped gauges
    cluster_pending = max(0.0, totals["generated"] - totals["done"])
    lines.append(
        f"{'sum':>4}  {totals['rate']:>8.0f} {totals['done']:>9.0f} "
        f"{cluster_pending:>6.0f}"
    )
    return "\n".join(lines)


def _scrape(
    addresses: dict[int, tuple[str, int]]
) -> tuple[dict[int, dict[str, float]], dict[int, str]]:
    samples: dict[int, dict[str, float]] = {}
    failures: dict[int, str] = {}
    for index, address in sorted(addresses.items()):
        try:
            samples[index] = _parse_prom(_http_get(address, "/metrics", 5.0))
        except (OSError, URLError, ValueError) as exc:
            failures[index] = str(exc) or type(exc).__name__
    return samples, failures


def _top(args: argparse.Namespace) -> int:
    addresses = _discover(args.seed)
    previous: dict[int, dict[str, float]] = {}
    stamp = time.monotonic()
    while True:
        samples, failures = _scrape(addresses)
        now = time.monotonic()
        if not args.once:
            sys.stdout.write("\x1b[2J\x1b[H")  # clear + home
        print(_render_top(samples, previous, now - stamp, failures))
        if args.once:
            return 0 if samples else 1
        previous, stamp = samples, now
        time.sleep(args.interval)


def _trace(args: argparse.Namespace) -> int:
    addresses = _discover(args.seed)
    if args.req is not None:
        # the op finished on exactly one host's flight ring; ask them all
        for index, address in sorted(addresses.items()):
            try:
                body = _http_get(address, f"/trace?req={args.req}")
            except (OSError, URLError):
                continue
            record = json.loads(body)
            if "error" not in record:
                print(json.dumps(record, indent=2))
                return 0
        print(f"skueue-ops: req {args.req} not found on any host's "
              f"flight ring", file=sys.stderr)
        return 1
    if args.slow or args.recent:
        view = "slow" if args.slow else "recent"
        records = []
        for index, address in sorted(addresses.items()):
            try:
                payload = json.loads(_http_get(address, f"/trace?{view}=1"))
            except (OSError, URLError):
                continue
            records.extend(payload.get(view, ()))
        records.sort(key=lambda r: r.get("dur_ms", 0.0), reverse=args.slow)
        print(json.dumps(records, indent=2))
        return 0
    exports = []
    for index, address in sorted(addresses.items()):
        try:
            exports.append(json.loads(_http_get(address, "/trace")))
        except (OSError, URLError) as exc:
            print(f"[unreachable] host {index}: {exc}", file=sys.stderr)
    merged = merge_traces(exports)
    problems = validate_chrome_trace(merged)
    for problem in problems:
        print(f"[invalid] {problem}", file=sys.stderr)
    body = json.dumps(merged, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
        print(f"wrote {len(merged['traceEvents'])} events from "
              f"{len(exports)} hosts to {args.out}")
    else:
        print(body)
    return 0 if not problems else 1


def _profile(args: argparse.Namespace) -> int:
    addresses = _discover(args.seed)
    address = addresses.get(args.host)
    if address is None:
        print(f"skueue-ops: host {args.host} is not in the cluster map "
              f"(known: {sorted(addresses)})", file=sys.stderr)
        return 1
    text = _http_get(
        address,
        f"/profile?seconds={args.seconds}&top={args.top}",
        timeout=args.seconds + 30.0,
    )
    sys.stdout.write(text)
    return 0


def _logs(args: argparse.Namespace) -> int:
    payloads, failures = _collect(args.seed)
    entries = sorted(
        line for data in payloads.values() for line in data.get("log", ())
    )
    for line in entries[-args.tail:] if args.tail else entries:
        print(line)
    for index, failure in sorted(failures.items()):
        print(f"[unreachable] host {index}: {failure}", file=sys.stderr)
    return 0 if not failures else 1


def _parse_seed(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    return (host or "127.0.0.1", int(port))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="skueue-ops",
        description="operations dashboard for a live Skueue deployment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    status = sub.add_parser("status", help="per-host health dashboard")
    status.add_argument("--seed", required=True, type=_parse_seed,
                        help="HOST:PORT of any live host")
    status.add_argument("--json", action="store_true",
                        help="emit raw health payloads as JSON")
    status.add_argument("--watch", action="store_true",
                        help="refresh until interrupted")
    status.add_argument("--interval", type=float, default=1.0,
                        help="refresh period with --watch (seconds)")

    logs = sub.add_parser("logs", help="merged ops log tail of every host")
    logs.add_argument("--seed", required=True, type=_parse_seed,
                      help="HOST:PORT of any live host")
    logs.add_argument("--tail", type=int, default=0,
                      help="only the last N merged lines (0: everything)")

    top = sub.add_parser("top", help="live cluster view over /metrics")
    top.add_argument("--seed", required=True, type=_parse_seed,
                     help="HOST:PORT of any live host")
    top.add_argument("--interval", type=float, default=2.0,
                     help="refresh period (seconds)")
    top.add_argument("--once", action="store_true",
                     help="one scrape, no screen clearing (for scripts)")

    trace = sub.add_parser(
        "trace", help="merged Chrome trace-event export / flight recorder")
    trace.add_argument("--seed", required=True, type=_parse_seed,
                       help="HOST:PORT of any live host")
    trace.add_argument("--req", type=int, default=None,
                       help="one op's lifecycle record by req_id")
    trace.add_argument("--slow", action="store_true",
                       help="ops at or past each host's running p99")
    trace.add_argument("--recent", action="store_true",
                       help="every host's recent-op flight ring")
    trace.add_argument("--out", default=None,
                       help="write the merged trace JSON here (else stdout)")

    profile = sub.add_parser(
        "profile", help="live cProfile capture of one host's event loop")
    profile.add_argument("--seed", required=True, type=_parse_seed,
                         help="HOST:PORT of any live host")
    profile.add_argument("--host", type=int, default=0,
                         help="host index to profile")
    profile.add_argument("--seconds", type=float, default=2.0,
                         help="capture window length")
    profile.add_argument("--top", type=int, default=40,
                         help="pstats rows to report")

    args = parser.parse_args(argv)
    try:
        if args.command == "status":
            return _status(args)
        if args.command == "top":
            return _top(args)
        if args.command == "trace":
            return _trace(args)
        if args.command == "profile":
            return _profile(args)
        return _logs(args)
    except KeyboardInterrupt:
        return 130
    except (OSError, RuntimeError, ConnectionError) as exc:
        print(f"skueue-ops: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
