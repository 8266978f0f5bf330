"""Failure-trace artifacts: record, save, load, replay.

A :class:`FailureTrace` is everything needed to reproduce one fuzz
failure bit-identically, as a single JSON file:

* the (usually shrunk) :class:`~repro.testing.scenario.Scenario`,
* the :class:`~repro.testing.schedule.ScheduleTrace` recorded while the
  failure was (re)produced,
* the structured :class:`~repro.verify.violations.Violation`,
* the canonical serialised history and its SHA-256 digest.

:func:`replay_trace` re-runs the scenario under a
:class:`~repro.testing.schedule.ScheduleReplayer` and reports whether
the execution reproduced the recorded history byte-for-byte and failed
with the same violation — the regression-corpus check under
``tests/traces/``, and the first thing to run on a CI fuzz artifact
(see docs/TESTING.md).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.testing.scenario import (
    Scenario,
    ScenarioResult,
    history_digest,
    run_scenario,
    serialize_history,
)
from repro.testing.schedule import ScheduleRecorder, ScheduleReplayer, ScheduleTrace
from repro.verify.violations import Violation

__all__ = [
    "FailureTrace",
    "TraceFileError",
    "load_trace",
    "record_failure",
    "replay_trace",
    "save_trace",
]

TRACE_FORMAT_VERSION = 1


class TraceFileError(ValueError):
    """An artifact file that cannot be a faithful :class:`FailureTrace`.

    Raised by :func:`load_trace` for unreadable, truncated, structurally
    broken, or digest-mismatched artifacts — the CLI turns it into a
    one-line diagnostic and a non-zero exit instead of a traceback.
    """


@dataclass
class FailureTrace:
    """One reproducible failure, ready to be shipped as an artifact."""

    scenario: Scenario
    schedule: ScheduleTrace
    violation: Violation
    history: list[list]
    digest: str

    def to_json(self) -> dict:
        return {
            "version": TRACE_FORMAT_VERSION,
            "scenario": self.scenario.to_json(),
            "schedule": self.schedule.to_json(),
            "violation": self.violation.to_json(),
            "history": self.history,
            "digest": self.digest,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FailureTrace":
        version = data.get("version")
        if version != TRACE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {version!r} "
                f"(this build reads {TRACE_FORMAT_VERSION})"
            )
        return cls(
            scenario=Scenario.from_json(data["scenario"]),
            schedule=ScheduleTrace.from_json(data["schedule"]),
            violation=Violation.from_json(data["violation"]),
            history=[list(row) for row in data["history"]],
            digest=data["digest"],
        )


def record_failure(scenario: Scenario) -> tuple[FailureTrace, ScenarioResult]:
    """Run a known-failing scenario under a recorder and package the trace.

    Raises ``ValueError`` if the scenario unexpectedly passes (recording
    is non-invasive, so this means the caller's scenario never failed).
    """
    recorder = ScheduleRecorder()
    result = run_scenario(scenario, schedule_hint=recorder)
    if not result.failed:
        raise ValueError("scenario did not fail under recording")
    trace = FailureTrace(
        scenario=scenario,
        schedule=recorder.trace,
        violation=result.violation,
        history=serialize_history(result.records),
        digest=history_digest(result.records),
    )
    return trace, result


@dataclass
class ReplayReport:
    """Outcome of replaying a stored trace."""

    reproduced: bool
    same_history: bool
    same_violation: bool
    divergences: int
    result: ScenarioResult

    def explain(self) -> str:
        if self.reproduced:
            return "replay reproduced the recorded failure bit-identically"
        parts = []
        if not self.same_history:
            parts.append("history diverged from the recording")
        if not self.same_violation:
            got = self.result.violation
            parts.append(
                "violation changed: got "
                + (f"{got.kind}/{got.clause}" if got else "a passing run")
            )
        if self.divergences:
            parts.append(f"{self.divergences} schedule decisions fell off-trace")
        return "; ".join(parts)


def replay_trace(trace: FailureTrace) -> ReplayReport:
    """Re-run a stored trace; check history digest + violation match."""
    replayer = ScheduleReplayer(trace.schedule)
    result = run_scenario(trace.scenario, schedule_hint=replayer)
    same_history = history_digest(result.records) == trace.digest
    same_violation = trace.violation.same_failure(result.violation)
    return ReplayReport(
        reproduced=same_history and same_violation,
        same_history=same_history,
        same_violation=same_violation,
        divergences=replayer.exhausted,
        result=result,
    )


#: schedule-prefix caps applied to liveness traces (see slim_liveness_trace)
_SLIM_SYNC_ROUNDS = 512
_SLIM_ASYNC_DELAYS = 2048


def slim_liveness_trace(trace: FailureTrace) -> FailureTrace:
    """Drop the schedule tail of a stalled run's trace (in place).

    A liveness trace records one decision per event up to the settle
    budget — tens of thousands — but the schedule only *matters* up to
    the point the system wedged; past it the recording is the wedged
    nodes' retry timers spinning.  Keep a generous prefix (the replayer
    falls back to the live seeded RNG beyond it, still deterministically),
    which cuts artifacts from ~700 KB to a few KB without losing the
    reproducer.
    Consistency/crash traces are returned untouched: their runs
    complete, so the full schedule is the bit-identical evidence.
    """
    if trace.violation.kind == "liveness":
        schedule = trace.schedule
        schedule.sync_orders = {
            r: order for r, order in schedule.sync_orders.items()
            if r <= _SLIM_SYNC_ROUNDS
        }
        schedule.async_delays = schedule.async_delays[:_SLIM_ASYNC_DELAYS]
    return trace


# -- file IO -----------------------------------------------------------------


def save_trace(trace: FailureTrace, path: str | Path) -> Path:
    """Write the artifact (creating parent directories); returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace.to_json(), indent=1, sort_keys=True))
    return path


def load_trace(path: str | Path) -> FailureTrace:
    """Parse and validate an artifact; raises :class:`TraceFileError`.

    Beyond JSON well-formedness and the schema, the recorded history is
    re-hashed against the stored digest: replaying a silently corrupted
    artifact would report "history diverged" and send whoever is
    triaging it chasing a protocol bug that is actually file damage.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise TraceFileError(f"cannot read trace file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFileError(
            f"{path} is not valid JSON — truncated or partially "
            f"downloaded artifact? ({exc})"
        ) from exc
    try:
        trace = FailureTrace.from_json(data)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise TraceFileError(
            f"{path} is not a failure-trace artifact: {exc}"
        ) from exc
    recomputed = hashlib.sha256(
        json.dumps(trace.history, separators=(",", ":")).encode()
    ).hexdigest()
    if recomputed != trace.digest:
        raise TraceFileError(
            f"{path}: recorded history does not match its digest "
            f"(stored {trace.digest[:12]}…, recomputed {recomputed[:12]}…) "
            f"— the artifact was edited or corrupted after recording"
        )
    return trace
