"""Regression corpus: checked-in shrunk traces replayed in tier-1.

Each artifact under ``tests/traces/`` was recorded by the fuzzer against
a build where the scenario *failed* (see each trace's ``violation``),
then shrunk to a minimal reproducer:

* ``liveness-join-grant-straggler.json`` — heap/async, seed 72: a
  ``JOIN_GRANT`` straggling behind the splice left routed PUTs in the
  joiner's pre-grant buffer forever (fixed in this PR by draining the
  buffer at integration);
* ``consistency-heap-wrong-class.json`` — heap anchor mutated to drain
  priority classes top-down (property 3);
* ``consistency-queue-rank-overlap.json`` — queue anchor mutated to
  hand out overlapping value ranks (property 2);
* ``stall-*.json`` — the liveness stalls promoted when their fixes
  landed: the three from ``tests/traces/open/`` (carve-race and
  zombie-echo META poisoning), the two the un-carved 1000-seed sweep
  then exposed (a released passive entrant swallowing the
  ``UPDATE_OVER`` flood, and a routed PUT orbiting the cycle when the
  only eligible De Bruijn middle lost its sibling), and the three the
  ``--churn heavy`` axis surfaced (a LEAVE grant delivered behind its
  own departure choreography, an ``ANCHOR_XFER`` landing on an
  inflight node, and the cyclic-serve ACK deadlock that consume
  enables; see test_open_findings.py and the "Wave liveness across
  splices" catalog in DESIGN.md), and ``stall-grant-echo`` — a
  re-sent ``LEAVE_GRANT`` forwarded home by the departed requester's
  zombie, which the granter took for a grant of its own leave.

On a healthy checkout the recorded violation must be *gone*: replaying
the exact scenario under the exact recorded schedule settles and
verifies.  A reappearing violation means the bug the trace pinned down
is back.
"""

from pathlib import Path

import pytest

from repro.testing import load_trace, replay_trace
from repro.testing.scenario import history_digest, run_scenario

TRACES_DIR = Path(__file__).resolve().parents[1] / "traces"
# golden-runs.json beside them is a digest table (test_golden_runs.py)
TRACE_PATHS = sorted(
    p for p in TRACES_DIR.glob("*.json") if p.name != "golden-runs.json"
)


def test_corpus_is_present():
    assert len(TRACE_PATHS) >= 3, f"regression corpus missing in {TRACES_DIR}"


@pytest.mark.parametrize("path", TRACE_PATHS, ids=lambda p: p.stem)
def test_recorded_failure_stays_dead(path):
    trace = load_trace(path)
    assert trace.violation.kind in ("consistency", "liveness", "crash")
    assert len(trace.scenario.ops) <= 32, "corpus traces should be shrunk"
    report = replay_trace(trace)
    violation = report.result.violation
    assert violation is None, (
        f"{path.name}: the recorded bug is back: "
        f"{violation.kind}/{violation.clause}: {violation.message}"
    )


@pytest.mark.parametrize("path", TRACE_PATHS, ids=lambda p: p.stem)
def test_corpus_replays_deterministically(path):
    """Two replays of the same trace produce identical histories."""
    trace = load_trace(path)
    first = replay_trace(trace)
    second = replay_trace(trace)
    assert history_digest(first.result.records) == history_digest(
        second.result.records
    )


def test_corpus_scenarios_also_pass_without_the_recorded_schedule():
    """The scenarios stay green under their seed-derived schedules too."""
    for path in TRACE_PATHS:
        trace = load_trace(path)
        result = run_scenario(trace.scenario)
        assert not result.failed, (path.name, result.violation)
