"""Scenario expansion, execution, and (de)serialisation."""

import pytest

from repro.core.requests import INSERT, REMOVE
from repro.testing import Scenario, run_scenario
from repro.testing.scenario import RUNNERS, STRUCTURES


class TestFromSeed:
    def test_deterministic_expansion(self):
        a = Scenario.from_seed(1234)
        b = Scenario.from_seed(1234)
        assert a == b

    def test_different_seeds_differ(self):
        assert Scenario.from_seed(1) != Scenario.from_seed(2)

    def test_axes_can_be_pinned(self):
        sc = Scenario.from_seed(7, structure="stack", runner="async")
        assert sc.structure == "stack"
        assert sc.runner == "async"

    def test_scripts_are_well_formed(self):
        for seed in range(20):
            sc = Scenario.from_seed(seed)
            assert sc.structure in STRUCTURES
            assert sc.runner in RUNNERS
            assert 4 <= sc.n_processes <= 12
            uids = [op[4] for op in sc.ops]
            assert len(uids) == len(set(uids)), "op uids must be unique"
            for round_no, pid, kind, priority, _uid in sc.ops:
                assert 0 <= round_no < sc.n_rounds
                assert kind in (INSERT, REMOVE)
                if sc.structure == "heap" and kind == INSERT:
                    assert 0 <= priority < sc.n_priorities
                else:
                    assert priority == 0
            assert list(sc.churn) == sorted(sc.churn)

    def test_json_round_trip(self):
        for seed in (0, 5, 72):
            sc = Scenario.from_seed(seed)
            assert Scenario.from_json(sc.to_json()) == sc

    def test_net_runner_gains_the_crash_axis(self):
        from repro.testing.scenario import NET_HOSTS, NET_RUNNER

        crashed = 0
        for seed in range(25):
            sc = Scenario.from_seed(seed, runner=NET_RUNNER)
            assert sc.runner == NET_RUNNER
            assert sc.churn == ()  # host-level faults replace pid churn
            assert NET_HOSTS <= sc.n_processes <= 8
            for round_no, host in sc.crashes:
                assert 1 <= round_no < sc.n_rounds
                assert 0 <= host < NET_HOSTS
            assert len(sc.crashes) <= 1  # k=2 tolerates one crash
            crashed += bool(sc.crashes)
            assert Scenario.from_json(sc.to_json()) == sc
        assert crashed >= 5, "seed range produced too few crash scenarios"

    def test_sim_runners_never_draw_crashes(self):
        for seed in range(25):
            assert Scenario.from_seed(seed).crashes == ()

    def test_crashes_json_field_defaults_empty(self):
        # traces written before the crash axis existed must still load
        data = Scenario.from_seed(4).to_json()
        del data["crashes"]
        assert Scenario.from_json(data).crashes == ()

    def test_a_trace_that_names_a_wire_codec_still_loads(self):
        # traces recorded while the net runner drew a codec carry a
        # "codec" key; the loader reads named keys only
        data = {**Scenario.from_seed(4).to_json(), "codec": "json"}
        assert Scenario.from_json(data) == Scenario.from_seed(4)


class TestRunScenario:
    @pytest.mark.parametrize("structure", STRUCTURES)
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_healthy_protocol_passes(self, structure, runner):
        for seed in range(3):
            sc = Scenario.from_seed(seed, structure=structure, runner=runner)
            result = run_scenario(sc)
            assert not result.failed, result.violation
            assert result.submitted + result.skipped == len(sc.ops)
            assert len(result.records) >= result.submitted

    def test_churn_scenarios_settle(self):
        ran_churn = 0
        for seed in range(30):
            sc = Scenario.from_seed(seed, structure="queue", runner="sync")
            if not sc.churn:
                continue
            ran_churn += 1
            result = run_scenario(sc)
            assert not result.failed, (seed, result.violation)
            if ran_churn >= 4:
                break
        assert ran_churn >= 2, "seed range produced too few churn scenarios"

    def test_aborted_pids_submit_nothing_past_the_fault(self):
        base = Scenario.from_seed(11, structure="queue", runner="sync")
        target_pid = base.ops[0][1]
        faulty = base.with_(aborts=((0, target_pid),))
        result = run_scenario(faulty)
        assert not result.failed
        assert all(rec.pid != target_pid for rec in result.records)
        planned = sum(1 for op in base.ops if op[1] == target_pid)
        assert result.skipped >= planned

    def test_rerun_is_bit_identical(self):
        from repro.testing.scenario import history_digest

        sc = Scenario.from_seed(3, structure="heap", runner="async")
        first = run_scenario(sc)
        second = run_scenario(sc)
        assert history_digest(first.records) == history_digest(second.records)
