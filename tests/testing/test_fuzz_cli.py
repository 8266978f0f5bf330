"""The ``skueue-fuzz`` CLI: sweeps, artifacts, exit codes, replay."""

import json

import pytest

from repro.core.anchor import HeapAnchorState
from repro.testing.fuzz import fuzz_one, fuzz_sweep, main
from repro.testing.traces import load_trace

from tests.testing.test_shrink import _broken_heap_assign


class TestSweep:
    def test_healthy_sweep_is_clean(self, tmp_path):
        outcomes = fuzz_sweep(
            range(6), ("queue",), ("sync", "async"), out_dir=tmp_path
        )
        assert len(outcomes) == 12
        assert not any(outcome.failed for outcome in outcomes)
        assert list(tmp_path.iterdir()) == []  # no artifacts when clean

    def test_failing_cell_writes_a_shrunk_artifact(self, tmp_path, monkeypatch):
        monkeypatch.setattr(HeapAnchorState, "assign", _broken_heap_assign)
        outcome = None
        for seed in range(40):
            outcome = fuzz_one(seed, "heap", "sync", out_dir=tmp_path)
            if outcome.failed:
                break
        assert outcome is not None and outcome.failed
        assert outcome.clause is not None
        assert outcome.shrunk_ops is not None and outcome.shrunk_ops <= 15
        trace = load_trace(outcome.trace_path)
        assert trace.scenario.structure == "heap"
        assert trace.violation.clause == outcome.clause


class TestMain:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        code = main([
            "--seeds", "3", "--structure", "queue", "--runner", "sync",
            "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 failing" in out

    def test_run_subcommand_is_the_default(self, tmp_path):
        assert main([
            "run", "--seeds", "2", "--structure", "stack", "--runner", "sync",
            "--out", str(tmp_path),
        ]) == 0

    def test_failing_run_exits_nonzero_and_replay_reproduces(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(HeapAnchorState, "assign", _broken_heap_assign)
        code = main([
            "--seeds", "10", "--structure", "heap", "--runner", "sync",
            "--out", str(tmp_path),
        ])
        assert code == 1
        artifacts = sorted(tmp_path.glob("trace-*.json"))
        assert artifacts
        capsys.readouterr()
        # the replay subcommand reproduces the artifact (still mutated)
        assert main(["replay", str(artifacts[0])]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["reproduced"] is True

    def test_replay_flags_a_vanished_bug(self, tmp_path, capsys, monkeypatch):
        with monkeypatch.context() as patched:
            patched.setattr(HeapAnchorState, "assign", _broken_heap_assign)
            code = main([
                "--seeds", "10", "--structure", "heap", "--runner", "sync",
                "--out", str(tmp_path),
            ])
            assert code == 1
        artifact = sorted(tmp_path.glob("trace-*.json"))[0]
        capsys.readouterr()
        # mutation gone (healthy checkout): the trace no longer reproduces
        assert main(["replay", str(artifact)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["reproduced"] is False

    def test_digest_prints_one_comparable_line_per_cell(self, capsys):
        argv = ["digest", "--seeds", "2", "--structure", "stack", "--churn", "heavy"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first  # two checkouts: use diff
        cells = [json.loads(line) for line in first.splitlines()]
        assert [(c["seed"], c["runner"]) for c in cells] == [
            (0, "sync"), (0, "async"), (1, "sync"), (1, "async"),
        ]
        assert all(c["violation"] is None and c["messages"] > 0 for c in cells)
        assert {"digest", "ops", "clock", "max_batch_len", "counters"} <= set(cells[0])

    def test_digest_has_no_net_runner(self):
        with pytest.raises(SystemExit):
            main(["digest", "--runner", "net"])

    def test_unknown_axis_rejected(self):
        with pytest.raises(SystemExit):
            main(["--structure", "deque"])

    def test_unknown_churn_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["--churn", "ludicrous"])

    def test_replay_truncated_artifact_exits_with_diagnostic(
        self, tmp_path, capsys, monkeypatch
    ):
        """A cut-off download must produce a one-line diagnostic, not a
        JSONDecodeError traceback."""
        with monkeypatch.context() as patched:
            patched.setattr(HeapAnchorState, "assign", _broken_heap_assign)
            assert main(["--seeds", "10", "--structure", "heap",
                         "--runner", "sync", "--out", str(tmp_path)]) == 1
        artifact = sorted(tmp_path.glob("trace-*.json"))[0]
        artifact.write_text(artifact.read_text()[: artifact.stat().st_size // 2])
        capsys.readouterr()
        assert main(["replay", str(artifact)]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and "truncated" in err

    def test_replay_digest_mismatch_exits_with_diagnostic(
        self, tmp_path, capsys, monkeypatch
    ):
        """An artifact whose history was edited after recording is file
        damage, not a protocol regression — say so and exit non-zero."""
        with monkeypatch.context() as patched:
            patched.setattr(HeapAnchorState, "assign", _broken_heap_assign)
            assert main(["--seeds", "10", "--structure", "heap",
                         "--runner", "sync", "--out", str(tmp_path)]) == 1
        artifact = sorted(tmp_path.glob("trace-*.json"))[0]
        data = json.loads(artifact.read_text())
        data["history"] = data["history"][:-1]
        artifact.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["replay", str(artifact)]) == 2
        err = capsys.readouterr().err
        assert "digest" in err and "corrupted" in err


@pytest.mark.slow
def test_parallel_workers_match_in_process_results(tmp_path):
    serial = fuzz_sweep(range(4), ("queue",), ("sync",), out_dir=None)
    parallel = fuzz_sweep(range(4), ("queue",), ("sync",), out_dir=None,
                          workers=2)
    assert [o.__dict__ for o in serial] == [o.__dict__ for o in parallel]
