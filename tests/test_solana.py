"""Vote-traffic ratios and the adjusted throughput ceiling."""

import pytest

from posenergy.solana import (
    DEFAULT_POSTULATED_MAX_TPS,
    VoteRatioRecord,
    adjust_tps,
    adjusted_max_tps,
    average_tps,
    mean_nonvote_ratio,
    nonvote_ratio,
    nonvote_tps,
)


# date, nonvote/day, total/day, reported tx/s -- mirrors the bundled history
HISTORY = [
    ("2021-09-14", 31_436_549, 166_730_469, 1734.0),
    ("2022-03-30", 26_040_310, 179_416_101, 2227.0),
    ("2022-05-02", 18_166_816, 174_322_626, 2020.0),
    ("2022-07-28", 36_691_080, 157_490_743, 3363.0),
    ("2022-09-26", 35_338_176, 185_904_800, 3338.0),
    ("2022-10-11", 17_855_155, 170_894_804, 3183.0),
    ("2022-12-11", 17_263_338, 309_222_640, 4123.0),
]


def records():
    return [VoteRatioRecord(d, nv, tot, tps) for d, nv, tot, tps in HISTORY]


class TestVoteRatioRecord:
    def test_average_tps_row_seven(self):
        rec = VoteRatioRecord("2022-12-11", 17_263_338, 309_222_640, 4123.0)
        assert average_tps(rec) == pytest.approx(3578.97, abs=0.005)

    def test_nonvote_ratio_row_one(self):
        rec = VoteRatioRecord("2021-09-14", 31_436_549, 166_730_469, 1734.0)
        assert nonvote_ratio(rec) == pytest.approx(0.1885, abs=5e-5)

    def test_nonvote_tps_row_one(self):
        rec = VoteRatioRecord("2021-09-14", 31_436_549, 166_730_469, 1734.0)
        assert nonvote_tps(rec) == pytest.approx(327.0, abs=1.0)

    def test_rejects_nonvote_above_total(self):
        with pytest.raises(ValueError):
            VoteRatioRecord("2022-01-01", 200, 100, 10.0)

    def test_rejects_zero_total(self):
        with pytest.raises(ValueError):
            VoteRatioRecord("2022-01-01", 0, 0, 10.0)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            VoteRatioRecord("2022-01-01", -1, 100, 10.0)

    def test_rejects_total_no_float_holds_exactly(self):
        assert VoteRatioRecord("2022-01-01", 1, 2**53, 10.0).total_tx_per_day == 2**53
        with pytest.raises(ValueError, match=r"total_tx_per_day must be a count in \[1, 2\*\*53\]"):
            VoteRatioRecord("2022-01-01", 1, 2**53 + 1, 10.0)


class TestAdjustTps:
    def test_scales_reported_rate(self):
        assert adjust_tps(4123.0, 0.0558) == pytest.approx(230.06, abs=0.01)

    def test_identity_at_ratio_one(self):
        assert adjust_tps(500.0, 1.0) == 500.0

    def test_zero_ratio(self):
        assert adjust_tps(500.0, 0.0) == 0.0

    def test_ratio_out_of_range(self):
        with pytest.raises(ValueError):
            adjust_tps(500.0, 1.2)
        with pytest.raises(ValueError):
            adjust_tps(500.0, -0.1)


class TestAdjustedMaxTps:
    def test_bundled_history_value(self):
        assert adjusted_max_tps(DEFAULT_POSTULATED_MAX_TPS, records()) == pytest.approx(
            7295.0, abs=5.0
        )

    def test_mean_nonvote_ratio(self):
        recs = records()
        assert mean_nonvote_ratio(recs) == sum(nonvote_ratio(r) for r in recs) / len(recs)
        assert mean_nonvote_ratio(iter(recs)) == mean_nonvote_ratio(recs)
        with pytest.raises(ValueError, match="no vote ratio records"):
            mean_nonvote_ratio([])

    def test_is_mean_ratio_times_postulate(self):
        recs = records()
        mean_ratio = sum(nonvote_ratio(r) for r in recs) / len(recs)
        assert adjusted_max_tps(50_000.0, recs) == pytest.approx(
            50_000.0 * mean_ratio, rel=1e-12
        )

    def test_never_exceeds_postulate(self):
        assert adjusted_max_tps(50_000.0, records()) <= 50_000.0

    def test_single_record(self):
        rec = VoteRatioRecord("2022-12-11", 50, 100, 10.0)
        assert adjusted_max_tps(1000.0, [rec]) == pytest.approx(500.0)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            adjusted_max_tps(50_000.0, [])

    def test_non_positive_postulate_rejected(self):
        with pytest.raises(ValueError):
            adjusted_max_tps(0.0, records())
