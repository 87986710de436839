"""Unit tests for the admission policy and SLA lanes (pure logic, no threads).

When a queued batch dispatches (full batch, earliest member deadline) is
the fleet scheduler's job and is tested end to end on the fake clock in
``tests/serving/test_server.py``.
"""

import pytest

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

    def test_maintenance_lane_is_stock_and_lowest_priority(self):
        policy = AdmissionPolicy()
        lane = policy.lane("maintenance")
        assert lane.priority > policy.lane("bulk").priority
        assert lane.priority > policy.lane("deadline").priority
