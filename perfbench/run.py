#!/usr/bin/env python3
"""The repo benchmark: one command, four workloads, every metric by name.

    python3 perfbench/run.py                          # all workloads
    python3 perfbench/run.py --workload tcp_open --seed 7
    python3 perfbench/run.py --workload tcp_closed --trace 1
    python3 perfbench/run.py --selfcheck              # two runs, compared

Workloads, metrics, units and bounds are declared in ``BENCHMARK.json``
at the repo root; ``perfbench/README.md`` says what each one means and
which layer should move it.  Every run checks its history for
sequential consistency after the clock has stopped; a violation (or an
invalid load generator) exits non-zero and prints no metrics.

With ``--workload`` the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of the untraced run, or with ``--trace 1`` the per-layer metrics
of the traced run (a metric the workload does not exercise reads 0).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

#: Seed of a bare run, and the seed held out of development: a claim
#: made on the default seed must also hold on this one (README,
#: "Seeds").  They live here because BENCHMARK.json's key set is fixed.
DEFAULT_SEED = 20180521
HELD_OUT_SEED = 77001

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"


def _import_program() -> None:
    """Put the program (``src/repro``) and this directory on the path.

    The benchmark measures the checkout it sits in; without one there
    is nothing to measure, and that is an error, not an empty result.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {src}/repro is missing")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
        "commit": commit,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns ``(attempted, failed, end_to_end,
    per_layer)`` with metrics as ``{name: (value, unit)}``."""
    from layers import micro_layers, rebuild_plan_ms
    from sim import run_sim
    from tcp import SINGLE_HOST, TCP_WORKLOADS, run_tcp

    if name == "sim_paper":
        result = run_sim(seed, seconds, trace)
    else:
        result = run_tcp(TCP_WORKLOADS[name], seed, seconds, trace)
    end_to_end, layers = result.end_to_end, result.per_layer
    if not trace:
        return result.attempted, result.failed, end_to_end, layers
    if name != "sim_paper":
        t0 = time.perf_counter()
        layers["ops.rebuild_plan_ms"] = (rebuild_plan_ms(result.records), "ms")
        result.spans.add("rebuild_plan", t0, time.perf_counter())
    if name == "tcp_closed":
        # same code, same window, tracing off: the difference is what
        # tracing costs; plus the one-host (no peer link) baseline
        plain = run_tcp(TCP_WORKLOADS[name], seed, seconds, False)
        traced, untraced = end_to_end["ops_per_s"][0], plain.end_to_end["ops_per_s"][0]
        layers["telemetry.trace_overhead_pct"] = (
            (untraced - traced) / untraced * 100.0, "%")
        single = run_tcp(SINGLE_HOST, seed, max(5.0, seconds / 3), False)
        layers["net.server.single_host_p50_ms"] = single.end_to_end["p50_ms"]
        layers["net.server.single_host_cpu_ms_per_op"] = (
            single.end_to_end["host_cpu_ms_per_op"])
    layers.update(micro_layers(seed))
    trace_path = RESULTS / f"trace_{name}.json"
    from repro.telemetry import validate_chrome_trace

    problems = validate_chrome_trace(result.spans.write(trace_path, name))
    if problems:
        raise RuntimeError(f"{trace_path} is not a valid Chrome trace: "
                           f"{problems[:3]}")
    print(f"# wrote {trace_path.relative_to(ROOT)} "
          f"({len(result.spans.rows)} spans); self time by span:")
    for span, seconds_ in sorted(result.spans.self_time().items()):
        print(f"#   {span:<20} {seconds_:10.4f} s")
    return result.attempted, result.failed, end_to_end, layers


def _print_metrics(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.4f} {unit}")


def _contract_line(spec: dict, attempted: int, failed: int, measured: dict,
                   section: str) -> str:
    """The result object: exactly the metrics ``BENCHMARK.json`` lists
    under ``section``, in its units."""
    metrics = {}
    for entry in spec[section]:
        name = entry["name"]
        if name in measured:
            value, unit = measured[name]
            if unit != entry["unit"]:
                raise RuntimeError(f"{name}: measured in {unit!r} but "
                                   f"BENCHMARK.json says {entry['unit']!r}")
        elif section == "end_to_end":
            raise RuntimeError(f"end-to-end metric {name!r} was not measured")
        else:
            value = 0.0  # this workload does not exercise that layer
        metrics[name] = {"value": value, "unit": entry["unit"]}
    undeclared = set(measured) - {e["name"] for e in spec[section]}
    if undeclared:
        raise RuntimeError(f"measured but not in BENCHMARK.json {section}: "
                           f"{sorted(undeclared)}")
    return json.dumps({"correct": True, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def _selfcheck(spec: dict, seed: int, seconds: float) -> int:
    """Two untraced runs of every workload; every (metric, workload)
    pair must agree within the metric's own bound."""
    worst = 0
    rows = []
    for entry in spec["workloads"]:
        name = entry["name"]
        first = run_workload(name, seed, seconds, False)[2]
        second = run_workload(name, seed, seconds, False)[2]
        for metric in spec["end_to_end"]:
            a, b = first[metric["name"]][0], second[metric["name"]][0]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            # a count of the synchronous model: same seed, same value
            bound = 0.0 if metric["name"] == "rounds_per_op" else metric["bound"]
            ok = abs(worse) <= bound
            worst |= not ok
            rows.append((metric["name"], name, a, b, worse, bound, ok))
    print(f"{'metric':<22}{'workload':<12}{'run 1':>12}{'run 2':>12}"
          f"{'worse by':>10}{'bound':>8}")
    for metric, name, a, b, worse, bound, ok in rows:
        print(f"{metric:<22}{name:<12}{a:>12.4f}{b:>12.4f}"
              f"{worse:>+10.1%}{bound:>8.0%}{'' if ok else '  EXCEEDED'}")
    return int(worst)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="draws arrival times, op kinds, pids and the "
                             f"simulated requests (default {DEFAULT_SEED}; "
                             f"held out: {HELD_OUT_SEED})")
    # the driver passes both of these on every run
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics + Chrome trace")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the untraced suite twice and compare "
                             "against the bounds")
    args = parser.parse_args(argv)

    _import_program()
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; pick from {names}")
    seed = args.seed
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds
    print(f"# provenance {json.dumps(_provenance(seed))}")

    from tcp import BenchError
    from repro.verify import ConsistencyViolation

    try:
        if args.selfcheck:
            return _selfcheck(spec, seed, seconds)
        last = ""
        for name in [args.workload] if args.workload else names:
            attempted, failed, end_to_end, layers = run_workload(
                name, seed, seconds, bool(args.trace))
            _print_metrics(f"{name}: end to end ({attempted} ops attempted, "
                           f"{failed} failed)", end_to_end)
            _print_metrics(f"{name}: per layer", layers)
            if args.trace:
                last = _contract_line(spec, attempted, failed, layers, "per_layer")
            else:
                last = _contract_line(spec, attempted, failed, end_to_end,
                                      "end_to_end")
        if args.workload:
            print(last)
    except (BenchError, ConsistencyViolation) as exc:
        print(f"perfbench: run rejected, no metrics reported: {exc}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
