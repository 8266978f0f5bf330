"""``skueue-fuzz``: sweep seeds, shrink failures, write artifacts.

Each seed expands to one :class:`~repro.testing.scenario.Scenario` per
selected (structure, runner) combination and is executed end to end.  A
failing seed is delta-debugged down to a minimal reproducer, re-run
under a schedule recorder, and written as a JSON
:class:`~repro.testing.traces.FailureTrace` under ``--out``
(``fuzz-failures/`` by default) — CI uploads that directory as the
artifact of a failed fuzz job; ``skueue-fuzz replay <artifact>``
reproduces one locally (see docs/TESTING.md).

``skueue-fuzz digest`` is the identity harness: it runs the same cells
and prints one JSON line per cell — history digest, op count, messages
sent, final clock, batch lengths and every counter — so the outputs of
two checkouts compare with ``diff``.

Seeds are independent, so the sweep parallelises over OS processes with
``--workers N`` (stdlib ``multiprocessing``; 1 = in-process, which is
what a deliberately-broken-checkout test uses so monkeypatches apply).
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.testing.scenario import (
    CHURN_PROFILES,
    NET_RUNNER,
    RUNNERS,
    STRUCTURES,
    Scenario,
    history_digest,
    run_scenario,
    serialize_history,
)
from repro.testing.schedule import ScheduleTrace
from repro.testing.shrink import shrink_scenario
from repro.testing.traces import (
    FailureTrace,
    TraceFileError,
    load_trace,
    record_failure,
    replay_trace,
    save_trace,
    slim_liveness_trace,
)

__all__ = ["FuzzOutcome", "digest_cell", "fuzz_one", "fuzz_sweep", "main"]


@dataclass
class FuzzOutcome:
    """What one (seed, structure, runner) cell produced."""

    seed: int
    structure: str
    runner: str
    failed: bool
    clause: str | None = None
    kind: str | None = None
    trace_path: str | None = None
    shrunk_ops: int | None = None


def fuzz_one(
    seed: int,
    structure: str,
    runner: str,
    out_dir: str | Path | None = "fuzz-failures",
    shrink: bool = True,
    max_probes: int = 400,
    churn_profile: str = "default",
) -> FuzzOutcome:
    """Run one cell; on failure shrink, record, and write the artifact."""
    scenario = Scenario.from_seed(
        seed, structure=structure, runner=runner, churn_profile=churn_profile
    )
    result = run_scenario(scenario)
    if not result.failed:
        return FuzzOutcome(seed, scenario.structure, scenario.runner, False)
    if scenario.runner == NET_RUNNER:
        # wall-clock runner: no deterministic schedule to re-record,
        # and every shrink probe would relaunch an OS-process
        # deployment — package the observed failure as-is
        trace = FailureTrace(
            scenario=scenario,
            schedule=ScheduleTrace(),
            violation=result.violation,
            history=serialize_history(result.records),
            digest=history_digest(result.records),
        )
        minimal, clause = scenario, result.violation.clause
    elif shrink:
        shrunk = shrink_scenario(
            scenario, result.violation, max_probes=max_probes
        )
        minimal, clause = shrunk.scenario, shrunk.violation.clause
        trace, _ = record_failure(minimal)
    else:
        minimal, clause = scenario, result.violation.clause
        trace, _ = record_failure(minimal)
    trace_path = None
    if out_dir is not None:
        # non-default churn profiles get a name suffix: a CI job that
        # sweeps the same seed range under both profiles into one
        # artifact directory must not overwrite one reproducer with
        # the other
        tag = "" if churn_profile == "default" else f"-{churn_profile}"
        name = (
            f"trace-{trace.scenario.structure}-{trace.scenario.runner}"
            f"-{seed}{tag}.json"
        )
        trace_path = str(save_trace(slim_liveness_trace(trace), Path(out_dir) / name))
    return FuzzOutcome(
        seed,
        scenario.structure,
        scenario.runner,
        True,
        clause=clause,
        kind=trace.violation.kind,
        trace_path=trace_path,
        shrunk_ops=len(minimal.ops),
    )


def _cell(args: tuple) -> FuzzOutcome:
    return fuzz_one(*args)


def digest_cell(args: tuple) -> str:
    """One JSON line naming everything a ``(seed, structure, runner,
    churn_profile)`` cell did that a behaviour-neutral change must keep."""
    seed, structure, runner, churn_profile = args
    result = run_scenario(
        Scenario.from_seed(
            seed, structure=structure, runner=runner, churn_profile=churn_profile
        )
    )
    metrics = result.metrics
    return json.dumps({
        "seed": seed,
        "structure": structure,
        "runner": runner,
        "churn": churn_profile,
        "violation": result.violation.clause if result.failed else None,
        "digest": history_digest(result.records),
        "ops": len(result.records),
        "messages": metrics.messages,
        "clock": result.clock,
        "max_batch_len": metrics.max_batch_len,
        "batch_observations": metrics.batch_observations,
        "counters": dict(sorted(metrics.counters.items())),
    })


def _sweep(fn, cells: list[tuple], workers: int):
    """``fn`` over ``cells`` in order, in-process or on a worker pool."""
    if workers <= 1:
        yield from map(fn, cells)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, cells, chunksize=4)


def fuzz_sweep(
    seeds,
    structures,
    runners,
    out_dir: str | Path | None = "fuzz-failures",
    shrink: bool = True,
    workers: int = 1,
    progress=None,
    churn_profile: str = "default",
    max_probes: int = 400,
) -> list[FuzzOutcome]:
    """Run the full sweep; returns one outcome per executed cell."""
    cells = [
        (seed, structure, runner, out_dir, shrink, max_probes, churn_profile)
        for seed in seeds
        for structure in structures
        for runner in runners
    ]
    outcomes: list[FuzzOutcome] = []
    for outcome in _sweep(_cell, cells, workers):
        outcomes.append(outcome)
        if progress:
            progress(outcome)
    return outcomes


def _parse_axis(value: str, valid: tuple, name: str) -> tuple:
    if value == "all":
        return valid
    if value not in valid:
        raise SystemExit(
            f"unknown {name} {value!r} (expected one of {', '.join(valid)}, or 'all')"
        )
    return (value,)


def _add_axes(parser: argparse.ArgumentParser, runner_help: str) -> None:
    """The cell axes ``run`` and ``digest`` share."""
    parser.add_argument("--seeds", type=int, default=100,
                        help="number of seeds to sweep (default 100)")
    parser.add_argument("--start-seed", type=int, default=0,
                        help="first seed of the sweep (default 0)")
    parser.add_argument("--structure", default="all",
                        help="queue | stack | heap | all (default all)")
    parser.add_argument("--runner", default="all", help=runner_help)
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel worker processes (default 1)")
    parser.add_argument("--churn", default="default", dest="churn_profile",
                        help="churn weight: default | heavy (heavy layers "
                             "3-6 extra join/leave events per scenario to "
                             "bias toward splice-straddling interleavings)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="skueue-fuzz",
        description="deterministic schedule fuzzer for the Skueue protocols",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="sweep seeds (the default command)")
    _add_axes(run_p, "sync | async | net | all (default all; 'net' runs "
                     "over OS processes + TCP with host-crash faults and "
                     "is never part of 'all')")
    run_p.add_argument("--out", default="fuzz-failures",
                       help="artifact directory (default fuzz-failures/)")
    run_p.add_argument("--no-shrink", action="store_true",
                       help="write unshrunk failing scenarios")

    digest_p = sub.add_parser(
        "digest",
        help="print one JSON line per cell (history digest, message and "
             "round counts, every counter): diff two checkouts' outputs",
    )
    _add_axes(digest_p, "sync | async | all (default all)")

    replay_p = sub.add_parser("replay", help="replay a failure-trace artifact")
    replay_p.add_argument("trace", help="path to a trace-*.json artifact")

    # bare `skueue-fuzz --seeds N ...` means `run`: options live on the
    # subparsers only, so they cannot be registered (and then silently
    # re-defaulted) twice
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in ("run", "digest", "replay", "-h", "--help"):
        argv.insert(0, "run")
    args = parser.parse_args(argv)

    if args.command == "replay":
        try:
            trace = load_trace(args.trace)
        except TraceFileError as exc:
            print(f"skueue-fuzz: {exc}", file=sys.stderr)
            return 2
        report = replay_trace(trace)
        print(json.dumps({
            "reproduced": report.reproduced,
            "violation": trace.violation.to_json(),
            "detail": report.explain(),
        }, indent=1))
        return 0 if report.reproduced else 1

    structures = _parse_axis(args.structure, STRUCTURES, "structure")
    if args.churn_profile not in CHURN_PROFILES:
        raise SystemExit(
            f"unknown churn profile {args.churn_profile!r} "
            f"(expected one of {', '.join(CHURN_PROFILES)})"
        )
    if args.runner == NET_RUNNER and args.command == "run":
        runners: tuple = (NET_RUNNER,)
    else:
        runners = _parse_axis(args.runner, RUNNERS, "runner")
    seeds = range(args.start_seed, args.start_seed + args.seeds)

    if args.command == "digest":
        cells = [
            (seed, structure, runner, args.churn_profile)
            for seed in seeds
            for structure in structures
            for runner in runners
        ]
        for line in _sweep(digest_cell, cells, args.workers):
            print(line, flush=True)
        return 0

    def progress(outcome: FuzzOutcome) -> None:
        if outcome.failed:
            print(
                f"FAIL seed={outcome.seed} {outcome.structure}/{outcome.runner} "
                f"clause={outcome.clause} shrunk_to={outcome.shrunk_ops} ops "
                f"-> {outcome.trace_path}",
                flush=True,
            )

    outcomes = fuzz_sweep(
        seeds,
        structures,
        runners,
        out_dir=args.out,
        shrink=not args.no_shrink,
        workers=args.workers,
        progress=progress,
        churn_profile=args.churn_profile,
    )
    failing = sum(outcome.failed for outcome in outcomes)
    print(
        f"skueue-fuzz: {len(outcomes)} scenarios "
        f"({len(seeds)} seeds x {len(structures)} structures x "
        f"{len(runners)} runners), {failing} failing",
        flush=True,
    )
    return 1 if failing else 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    sys.exit(main())
