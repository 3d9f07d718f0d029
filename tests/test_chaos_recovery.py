"""Chaos acceptance tests: LEOTP under blackout / flap / crash faults.

These encode the robustness bar for the whole reproduction: under a 2 s
handover blackout and under a Midnode crash/restart mid-transfer, LEOTP
must resume delivery with every protocol invariant green and post-fault
goodput at >= 80 % of the pre-fault level within 5 s of simulated time —
deterministically per seed.
"""

from functools import partial

import pytest

from repro.experiments.common import PathSpec, build_path
from repro.faults import (
    CorrelatedLoss,
    FaultSchedule,
    LinkDown,
    LinkFlap,
    NodeCrash,
    run_chaos,
)
from repro.netsim.topology import uniform_chain_specs

TOTAL_BYTES = 20_000_000  # finishes inside the 15 s runs at 20 Mbps


def _chain(total_bytes=TOTAL_BYTES):
    """The 6-hop 20 Mbps / 8 ms LEOTP chain every scenario runs over."""
    hops = uniform_chain_specs(6, rate_bps=20e6, delay_s=0.008)
    return partial(
        build_path, spec=PathSpec(hops=hops, total_bytes=total_bytes)
    )


def _assert_recovered(result):
    result.assert_ok()
    assert result.completed, "transfer did not finish"
    r = result.recovery
    assert r.goodput_ratio >= 0.8, f"goodput only {r.goodput_ratio:.0%}"
    assert r.recovered and r.time_to_recovery_s <= 5.0
    assert r.ttfb_after_fault_s is not None


class TestBlackoutRecovery:
    def test_two_second_blackout(self):
        schedule = FaultSchedule(
            [LinkDown(at_s=5.0, link="hop3", duration_s=2.0)]
        )
        result = run_chaos(schedule, _chain(), seed=1, duration_s=15.0)
        _assert_recovered(result)
        # The injector acted exactly twice: down, then up.
        assert [m for _, m in result.fault_log] == [
            "hop3 DOWN for 2.0s (0 flushed)", "hop3 UP",
        ] or len(result.fault_log) == 2

    def test_flapping_link(self):
        schedule = FaultSchedule(
            [LinkFlap(at_s=5.0, link="hop3", down_s=0.3, up_s=0.5, cycles=3)]
        )
        result = run_chaos(schedule, _chain(), seed=1, duration_s=15.0)
        _assert_recovered(result)


class TestCrashRecovery:
    def test_midnode_crash_restart(self):
        schedule = FaultSchedule(
            [NodeCrash(at_s=5.0, node="leotp-mid2", restart_after_s=0.5)]
        )
        result = run_chaos(schedule, _chain(), seed=1, duration_s=15.0)
        _assert_recovered(result)
        crash_msgs = [m for _, m in result.fault_log]
        assert crash_msgs == ["leotp-mid2 CRASHED", "leotp-mid2 restarted"]

    def test_crash_without_restart_still_bounded(self):
        """A permanently dead Midnode stalls the flow, but the Consumer's
        window and the surviving Responders' buffers must stay bounded."""
        schedule = FaultSchedule(
            [NodeCrash(at_s=2.0, node="leotp-mid2", restart_after_s=None)]
        )
        result = run_chaos(schedule, _chain(), seed=1, duration_s=8.0)
        # The transfer cannot complete; everything else must hold.
        assert list(result.violations) == ["byte-exact-delivery"], \
            result.violations
        assert result.violations["byte-exact-delivery"].startswith(
            "transfer incomplete"
        )
        assert not result.completed


class TestCorrelatedLossRecovery:
    def test_gilbert_elliott_burst(self):
        schedule = FaultSchedule(
            [CorrelatedLoss(at_s=5.0, link="hop3", duration_s=3.0,
                            p_good_bad=0.05, p_bad_good=0.2, loss_bad=0.6)]
        )
        result = run_chaos(schedule, _chain(), seed=1, duration_s=15.0)
        result.assert_ok()
        assert result.completed
        assert result.recovery.goodput_ratio >= 0.8


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        schedule = FaultSchedule(
            [NodeCrash(at_s=3.0, node="leotp-mid1", restart_after_s=0.5)]
        )
        runs = [
            run_chaos(
                schedule, _chain(10_000_000), seed=7, duration_s=10.0
            ).to_dict()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_different_seed_differs(self):
        schedule = FaultSchedule(
            [CorrelatedLoss(at_s=2.0, link="hop2", duration_s=2.0,
                            p_good_bad=0.05, p_bad_good=0.2, loss_bad=0.6)]
        )
        results = [
            run_chaos(
                schedule, _chain(8_000_000), seed=s, duration_s=8.0
            )
            for s in (1, 2)
        ]
        assert (
            results[0].to_dict()["recovery"] != results[1].to_dict()["recovery"]
        )


class TestReorderTolerance:
    def test_shrinking_delay_reorders_but_transfer_survives(self):
        """A delay spike's restore shrinks delay_s mid-flight, reordering
        packets (the LEO handover phenomenon); the protocol must absorb
        the reordering without duplicate delivery or spurious stalls."""
        from repro.faults import DelaySpike

        schedule = FaultSchedule([
            DelaySpike(at_s=2.0, link="hop3", duration_s=1.0, extra_s=0.04),
            DelaySpike(at_s=4.0, link="hop1", duration_s=0.5, extra_s=0.06),
        ])
        result = run_chaos(
            schedule, _chain(10_000_000), seed=3, duration_s=12.0
        )
        result.assert_ok()
        assert result.completed
