"""Unit tests for the admission policy and SLA lanes (pure logic, no threads)."""

import pytest

from repro import Calibration, CostModel
from repro.serving import AdmissionPolicy, Lane


class TestValidation:
    def test_defaults_are_valid(self):
        policy = AdmissionPolicy()
        assert policy.max_batch >= 1
        assert policy.max_pending >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_delay_seconds": -0.1},
            {"max_pending": 0},
        ],
    )
    def test_rejects_degenerate_knobs(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionPolicy(**kwargs)

    def test_frozen(self):
        policy = AdmissionPolicy()
        with pytest.raises(Exception):
            policy.max_batch = 99


class TestDispatchLogic:
    def test_dispatches_on_full_batch(self):
        policy = AdmissionPolicy(max_batch=4, max_delay_seconds=10.0)
        assert not policy.should_dispatch(3, 0.0)
        assert policy.should_dispatch(4, 0.0)

    def test_dispatches_on_expired_budget(self):
        policy = AdmissionPolicy(max_batch=100, max_delay_seconds=0.05)
        assert not policy.should_dispatch(1, 0.01)
        assert policy.should_dispatch(1, 0.05)

    def test_zero_delay_serves_immediately(self):
        policy = AdmissionPolicy(max_delay_seconds=0.0)
        assert policy.should_dispatch(1, 0.0)

    def test_explicit_batch_delay_overrides_the_default(self):
        policy = AdmissionPolicy(max_batch=100, max_delay_seconds=0.05)
        # A zero-delay (deadline) member collapses the batch's budget.
        assert policy.should_dispatch(1, 0.0, delay=0.0)
        assert not policy.should_dispatch(1, 0.01, delay=0.5)


class TestCostAwareDispatch:
    """The cost-model hook in should_dispatch: early close only, and lane
    budgets stay hard upper bounds."""

    def test_calibrated_model_closes_early(self):
        policy = AdmissionPolicy(
            max_batch=16,
            max_delay_seconds=0.05,
            cost_model=CostModel(Calibration(batch_seconds=0.001)),
        )
        # Remaining budget (0.05) dwarfs the marginal saving (0.001):
        # dispatch now instead of holding the batch open.
        assert policy.should_dispatch(1, 0.0)
        # Near the end of the budget the saving wins again: keep waiting.
        assert not policy.should_dispatch(1, 0.0495)

    def test_uncalibrated_model_is_inert(self):
        policy = AdmissionPolicy(
            max_batch=16, max_delay_seconds=0.05, cost_model=CostModel()
        )
        assert not policy.should_dispatch(1, 0.0)
        assert policy.should_dispatch(1, 0.05)  # the fixed budget still rules

    def test_empty_batch_never_closes_early(self):
        policy = AdmissionPolicy(
            max_batch=16,
            max_delay_seconds=0.05,
            cost_model=CostModel(Calibration(batch_seconds=0.001)),
        )
        assert not policy.should_dispatch(0, 0.0)

    def test_deadline_member_still_forces_zero_budget(self):
        """Regression: a zero-delay (deadline-lane) member collapses the
        batch's budget to zero no matter what the model predicts — even a
        huge predicted saving must never extend a deadline batch's wait."""
        patient = CostModel(Calibration(batch_seconds=1e9))
        policy = AdmissionPolicy(
            max_batch=16, max_delay_seconds=0.05, cost_model=patient
        )
        # The model itself would wait forever (saving always exceeds any
        # remaining budget)...
        assert not patient.should_close(1, 0.05)
        # ...but a deadline member's delay=0.0 dispatches unconditionally,
        # before the cost hook is even consulted.
        assert policy.should_dispatch(1, 0.0, delay=0.0)
        # And the deadline lane's configured budget is still zero with a
        # cost model attached.
        assert policy.delay_for("deadline") == 0.0

    def test_cost_hook_is_one_directional(self):
        """should_close can only turn 'keep waiting' into 'dispatch now':
        whenever the fixed policy would dispatch, the cost-aware policy
        dispatches too, for any calibration."""
        fixed = AdmissionPolicy(max_batch=4, max_delay_seconds=0.02)
        for batch_seconds in (0.0, 1e-9, 0.01, 1e9):
            aware = AdmissionPolicy(
                max_batch=4,
                max_delay_seconds=0.02,
                cost_model=CostModel(
                    Calibration(batch_seconds=batch_seconds)
                ),
            )
            for n in (1, 2, 4):
                for wait in (0.0, 0.01, 0.02, 0.5):
                    for delay in (None, 0.0, 0.02, 0.5):
                        if fixed.should_dispatch(n, wait, delay):
                            assert aware.should_dispatch(n, wait, delay), (
                                f"cost model delayed a dispatch: "
                                f"{batch_seconds=} {n=} {wait=} {delay=}"
                            )


class TestLanes:
    def test_default_lanes(self):
        policy = AdmissionPolicy()
        assert policy.lane_names == ("deadline", "bulk", "maintenance")
        assert policy.lane(None).name == "bulk"  # default lane
        assert policy.delay_for("deadline") == 0.0
        # bulk inherits the policy's coalescing budget.
        assert policy.delay_for("bulk") == policy.max_delay_seconds
        assert policy.lane("deadline").priority < policy.lane("bulk").priority

    def test_unknown_lane_raises(self):
        with pytest.raises(ValueError, match="unknown lane"):
            AdmissionPolicy().lane("vip")

    def test_duplicate_lane_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate lane"):
            AdmissionPolicy(lanes=(Lane("a"), Lane("a")))

    def test_default_lane_must_exist(self):
        with pytest.raises(ValueError, match="default_lane"):
            AdmissionPolicy(lanes=(Lane("a"),), default_lane="b")

    def test_empty_lanes_rejected(self):
        with pytest.raises(ValueError, match="at least one lane"):
            AdmissionPolicy(lanes=())

    def test_lane_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            Lane("")
        with pytest.raises(ValueError, match=">= 0"):
            Lane("x", max_delay_seconds=-1.0)

    def test_custom_lane_delay_is_used(self):
        policy = AdmissionPolicy(
            max_delay_seconds=0.1,
            lanes=(Lane("slow", max_delay_seconds=0.5),),
            default_lane="slow",
        )
        assert policy.delay_for("slow") == 0.5
        assert policy.delay_for(None) == 0.5


class TestPreemptionGuardKnobs:
    """max_preemption_ratio validation and resolution (starvation guard)."""

    def test_policy_level_default_applies_to_all_lanes(self):
        policy = AdmissionPolicy(max_preemption_ratio=0.5)
        assert policy.preemption_ratio_for("deadline") == 0.5
        assert policy.preemption_ratio_for("bulk") == 0.5

    def test_lane_override_wins(self):
        policy = AdmissionPolicy(
            lanes=(
                Lane("deadline", max_delay_seconds=0.0, priority=0,
                     max_preemption_ratio=0.25),
                Lane("bulk", priority=10),
            ),
            max_preemption_ratio=0.9,
        )
        assert policy.preemption_ratio_for("deadline") == 0.25
        assert policy.preemption_ratio_for("bulk") == 0.9

    def test_unset_means_unlimited(self):
        policy = AdmissionPolicy()
        assert policy.preemption_ratio_for("deadline") is None

    def test_out_of_range_ratios_rejected(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_preemption_ratio=-0.1)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_preemption_ratio=1.5)
        with pytest.raises(ValueError):
            Lane("x", max_preemption_ratio=2.0)

    def test_maintenance_lane_is_stock_and_lowest_priority(self):
        policy = AdmissionPolicy()
        lane = policy.lane("maintenance")
        assert lane.priority > policy.lane("bulk").priority
        assert lane.priority > policy.lane("deadline").priority


class TestPreemptionGuardDebt:
    """The debt counter itself (dispatch plumbing is tested in
    tests/serving/test_maintenance_serving.py)."""

    def test_unguarded_dispatches_repay_outstanding_debt(self):
        from repro.serving.policy import _PreemptionGuard

        guard = _PreemptionGuard()
        guard.note(True, 0.5)
        guard.note(True, 0.5)
        assert guard.must_yield()
        # A dispatch led by a ratio-less lane (note(False, None)) repays
        # at the ratio that accrued the debt — a past flood must not
        # leave the guard force-yielding forever.
        guard.note(False, None)
        guard.note(False, None)
        assert not guard.must_yield()

    def test_no_ratio_ever_seen_is_a_noop(self):
        from repro.serving.policy import _PreemptionGuard

        guard = _PreemptionGuard()
        guard.note(False, None)
        assert not guard.must_yield()
