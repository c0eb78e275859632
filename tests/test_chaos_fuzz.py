"""Chaos-fuzz acceptance campaign: the functional oracle must hold for
every Table-II system under every default fault plan, and injected runs
must stay bit-reproducible and replayable from recorded coordinates."""

import pytest

from repro.common.stats import RunStats
from repro.harness.export import fingerprint
from repro.resilience import default_campaign
from repro.sim.fuzz import (
    DEFAULT_SYSTEMS,
    FuzzFailure,
    replay_case,
    run_chaos_fuzz,
    run_fuzz,
)


class TestChaosCampaign:
    def test_oracle_survives_default_campaign(self):
        # 25 cases x 9 systems x 3 plans = 675 runs; every transaction
        # must commit and the memory image must match the expectation
        # despite jitter, lost messages, stalls and reject storms.
        plans = default_campaign()
        assert len(plans) >= 3
        report = run_chaos_fuzz(cases=25, seed=0, plans=plans)
        assert report.runs == 25 * len(DEFAULT_SYSTEMS) * len(plans)
        assert report.ok, report.render()

    def test_failures_carry_replay_coordinates(self):
        # A nonexistent system crashes inside the try: the failure must
        # record the machine seed and plan needed for replay.
        report = run_fuzz(
            cases=2,
            seed=5,
            systems=("CGL", "NoSuchSystem"),
            plans=(None, default_campaign()[0]),
        )
        assert not report.ok
        bad = [f for f in report.failures if f.system == "NoSuchSystem"]
        assert len(bad) == 4  # 2 cases x 2 plans
        for f in bad:
            assert f.machine_seed == f.seed + f.case
            coords = f.replay_coords()
            assert coords["system"] == "NoSuchSystem"
        plans_seen = {f.plan for f in bad}
        assert plans_seen == {None, default_campaign()[0].name}
        good = [f for f in report.failures if f.system == "CGL"]
        assert not good

    def test_render_names_plan_and_machine_seed(self):
        failure = FuzzFailure(
            case=3,
            system="CGL",
            seed=5,
            detail="boom",
            machine_seed=8,
            plan="jitter",
        )
        from repro.sim.fuzz import FuzzReport

        text = FuzzReport(cases=1, runs=1, failures=[failure]).render()
        assert "machine seed 8" in text and "jitter" in text


class TestReplay:
    def test_replay_case_is_bit_reproducible(self):
        plan = default_campaign()[-1]  # chaos-monkey

        def observe():
            m = replay_case(seed=11, case=4, system="LockillerTM", plan=plan)
            stats = RunStats(
                execution_cycles=m.engine.now, cores=m.core_stats
            )
            return (
                m.engine.events_processed,
                fingerprint(stats),
                m.injector.summary(),
            )

        assert observe() == observe()

    def test_replay_records_campaign_coordinates(self):
        m = replay_case(seed=11, case=4, system="CGL")
        assert m.replay_info["case"] == 4
        assert m.replay_info["campaign_seed"] == 11
        assert m.replay_info["seed"] == 15  # the actual machine seed

    def test_replay_matches_campaign_run(self):
        # The machine replay_case builds must see the same programs the
        # campaign ran: replay commits equal the case's transaction
        # count and the oracle holds.
        from repro.htm.isa import Txn
        from repro.sim.fuzz import case_programs
        from repro.workloads.base import expected_final_memory

        progs = case_programs(11, 4)
        n_txns = sum(1 for p in progs for s in p if isinstance(s, Txn))
        m = replay_case(seed=11, case=4, system="LockillerTM")
        assert sum(cs.commits for cs in m.core_stats) == n_txns
        got = {a: v for a, v in m.memsys.memory.items() if v != 0}
        assert got == expected_final_memory(progs)

    def test_signature_storm_replay_is_pinned(self):
        # A 32-thread LockillerTM cell with live overflow signatures under
        # the Bloom false-positive storm: the spurious hits come from
        # BloomSignature.chaos_fp, so the pin holds only while the
        # access path tests the signatures in the same order and the
        # same number of times.
        from conftest import run_cell
        from repro.resilience import signature_storm

        stats, m = run_cell(
            "labyrinth/LockillerTM/32/0.05/1", fault_plan=signature_storm()
        )
        assert (
            stats.execution_cycles,
            fingerprint(stats),
            m.memsys.signature_spills,
            m.memsys.signature_rejects,
            m.engine.events_processed,
            m.injector.summary()["sig_false_positives"],
        ) == (921853, "7c2f61c9e22e7690", 266, 91, 16907, 93)
