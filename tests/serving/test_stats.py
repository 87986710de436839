"""ServingStats / LatencySummary behaviour under the fake clock.

The satellite coverage ISSUE 4 asks for: per-lane percentiles computed
from exact (fake-clock) samples, request-count conservation, and snapshot
isolation — a snapshot taken now must never change when the recorder
keeps accumulating.
"""

import pickle

import pytest

from repro.eval.timing import LatencySummary
from repro.serving import StatsRecorder
from repro.serving.stats import LaneStats, ServingStats, StatsFrame


def _filled_recorder() -> StatsRecorder:
    recorder = StatsRecorder()
    for _ in range(4):
        recorder.record_submitted("bulk")
    for _ in range(2):
        recorder.record_submitted("deadline")
    recorder.record_batch(
        waits=[0.02, 0.02, 0.0, 0.0],
        services=[0.001, 0.001, 0.001, 0.001],
        latencies=[0.021, 0.021, 0.001, 0.001],
        lanes=["bulk", "bulk", "deadline", "deadline"],
    )
    recorder.record_failed(1, ["bulk"])
    recorder.record_cancelled(1, ["bulk"])
    recorder.record_rejected("bulk")
    return recorder


class TestConservation:
    def test_counts_conserve_per_lane_and_aggregate(self):
        stats = _filled_recorder().snapshot()
        # submitted == answered + failed + cancelled + pending, per lane…
        for lane in ("bulk", "deadline"):
            lane_stats = stats.lane(lane)
            assert lane_stats.submitted == (
                lane_stats.answered
                + lane_stats.failed
                + lane_stats.cancelled
                + lane_stats.pending
            )
        # …and in aggregate; the lane split sums back to the aggregate.
        assert stats.submitted == (
            stats.answered + stats.failed + stats.cancelled + stats.pending
        )
        assert stats.pending == 0
        for field in ("submitted", "answered", "failed", "cancelled", "rejected"):
            assert sum(
                getattr(lane, field) for lane in stats.lanes.values()
            ) == getattr(stats, field)

    def test_pending_counts_unanswered(self):
        recorder = StatsRecorder()
        recorder.record_submitted("bulk")
        recorder.record_submitted("bulk")
        stats = recorder.snapshot()
        assert stats.pending == 2
        assert stats.lane("bulk").pending == 2

    def test_rejections_never_enter_the_pipeline_counts(self):
        recorder = StatsRecorder()
        recorder.record_rejected("deadline")
        stats = recorder.snapshot()
        assert stats.rejected == 1
        assert stats.submitted == 0
        assert stats.lane("deadline").rejected == 1
        assert stats.lane("deadline").pending == 0


class TestPerLanePercentiles:
    def test_exact_fake_clock_samples_give_exact_percentiles(self):
        stats = _filled_recorder().snapshot()
        bulk = stats.lane("bulk")
        deadline = stats.lane("deadline")
        # Bulk waited out the full coalescing budget, deadline none at all
        # — the exact numbers a FakeClock run produces.
        assert bulk.wait.p50 == 0.02 and bulk.wait.p99 == 0.02
        assert deadline.wait.p50 == 0.0 and deadline.wait.max == 0.0
        assert deadline.latency.p99 < bulk.latency.p50

    def test_lane_summaries_cover_only_their_own_samples(self):
        stats = _filled_recorder().snapshot()
        assert stats.lane("bulk").latency.count == 2
        assert stats.lane("deadline").latency.count == 2
        assert stats.latency.count == 4

    def test_unlaned_recordings_only_move_the_aggregate(self):
        recorder = StatsRecorder()
        recorder.record_submitted()  # lane=None
        recorder.record_batch([0.1], [0.1], [0.2])
        stats = recorder.snapshot()
        assert stats.submitted == 1 and stats.answered == 1
        assert stats.lanes == {}

    def test_traffic_free_lane_reads_as_zeros(self):
        stats = StatsRecorder().snapshot()
        lane = stats.lane("never-seen")
        assert isinstance(lane, LaneStats)
        assert lane.submitted == 0 and lane.latency is None


class TestSnapshotIsolation:
    def test_later_recordings_do_not_mutate_an_earlier_snapshot(self):
        recorder = _filled_recorder()
        before = recorder.snapshot()
        bulk_before = before.lane("bulk")
        answered_before = before.answered
        latency_count_before = before.latency.count
        # Keep accumulating after the snapshot…
        for _ in range(5):
            recorder.record_submitted("bulk")
        recorder.record_batch(
            [9.0] * 5, [9.0] * 5, [9.0] * 5, ["bulk"] * 5
        )
        # …the old snapshot must be completely frozen.
        assert before.answered == answered_before
        assert before.latency.count == latency_count_before
        assert before.lane("bulk") is bulk_before
        assert bulk_before.latency.max < 9.0
        after = recorder.snapshot()
        assert after.answered == answered_before + 5
        assert after.lane("bulk").latency.max == 9.0

    def test_snapshots_are_independent_objects(self):
        recorder = _filled_recorder()
        first = recorder.snapshot()
        second = recorder.snapshot()
        assert first is not second
        assert first.lanes is not second.lanes
        assert first.as_dict() == second.as_dict()


class TestSerialization:
    def test_as_dict_includes_lane_breakdown(self):
        payload = _filled_recorder().snapshot().as_dict()
        assert set(payload["lanes"]) == {"bulk", "deadline"}
        assert payload["lanes"]["bulk"]["answered"] == 2
        assert payload["lanes"]["deadline"]["wait"]["p99"] == 0.0
        assert payload["latency"]["count"] == 4

    def test_latency_summary_p99_orders_correctly(self):
        samples = [float(i) for i in range(1, 101)]
        summary = LatencySummary.from_samples(samples)
        assert summary.p50 <= summary.p95 <= summary.p99 <= summary.max
        assert summary.p99 == pytest.approx(99.01)

    def test_serving_stats_direct_construction_defaults(self):
        stats = ServingStats(
            submitted=1,
            answered=1,
            failed=0,
            cancelled=0,
            rejected=0,
            batches=1,
            mean_batch_size=1.0,
            wait=None,
            service=None,
            latency=None,
        )
        assert stats.lanes == {}
        assert stats.pending == 0


class TestEarlyBatches:
    def test_merge_sums_early_batches_into_the_summary(self):
        """Per-model (or per-shard) frames carry their early-dispatch
        counts; merging sums them, the way the router merges shards."""
        recorders = []
        for n_early in (2, 3):
            recorder = StatsRecorder()
            for _ in range(n_early):
                recorder.record_submitted("bulk")
                recorder.record_early()
                recorder.record_batch([0.0], [0.001], [0.001], ["bulk"])
            recorders.append(recorder)
        assert recorders[0].snapshot().early_batches == 2
        # Frames cross the shard pipes pickled.
        frames = [pickle.loads(pickle.dumps(r.frame())) for r in recorders]
        merged = StatsFrame.merged(frames)
        assert merged.early_batches == 5
        stats = merged.summarize()
        assert stats.early_batches == 5
        assert stats.batches == 5
        assert stats.as_dict()["early_batches"] == 5
        assert StatsRecorder().snapshot().as_dict()["early_batches"] == 0
