"""Snapshot CSV round-trips, merge rules, and the live-fetch path (mocked)."""

import datetime as dt
import io
import urllib.error
from unittest import mock

import pytest

from posenergy.core import NetworkObservation
from posenergy.ingestion import (
    DuplicateObservationError,
    FetcherSpec,
    FetchError,
    MergeConflictError,
    SchemaDriftError,
    SnapshotFormatError,
    bundled,
    fetch_all,
    fetch_observation,
    load_bounds,
    load_profiles,
    load_reported,
    load_snapshots,
    merge,
    write_snapshot,
)
from posenergy.solana import VoteRatioRecord


def obs(network="tezos", date="2023-01-31", validators=407, tps=0.9, **kw):
    return NetworkObservation(network, date, validators, tps, **kw)


class TestLoadSnapshots:
    def test_bundled_observations(self):
        snap = load_snapshots(bundled("observations.csv"))
        assert len(snap.observations) == 14
        assert snap.vote_records == ()
        by_network = {o.network: o for o in snap.observations}
        assert by_network["hedera"].validators == 26
        assert by_network["hedera"].tps == 568.45
        assert by_network["solana"].tps == 493.0
        assert all(not o.synthetic for o in snap.observations)

    def test_bundled_vote_history(self):
        snap = load_snapshots(bundled("solana_votes.csv"))
        assert snap.observations == ()
        assert len(snap.vote_records) == 7
        last = snap.vote_records[-1]
        assert last.date == dt.date(2022, 12, 11)
        assert last.nonvote_tx_per_day == 17_263_338
        assert last.total_tx_per_day == 309_222_640
        assert last.reported_tps == 4123.0

    def test_row_with_both_kinds(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text(
            "network,date,validators,tps,nonvote_per_day,total_per_day,provenance\n"
            "solana,2023-01-31,2512,493.0,100,1000,explorer\n"
        )
        snap = load_snapshots(path)
        assert len(snap.observations) == 1
        assert len(snap.vote_records) == 1
        assert snap.observations[0].validators == 2512
        assert snap.vote_records[0].total_tx_per_day == 1000

    def test_short_header_is_enough_for_plain_rows(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text("network,date,validators,tps\nnear,2023-01-31,158,6.33\n")
        snap = load_snapshots(path)
        assert snap.observations[0].network == "near"
        assert snap.observations[0].provenance == ""

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text("network,date,tps\nnear,2023-01-31,6.33\n")
        with pytest.raises(SnapshotFormatError, match="validators"):
            load_snapshots(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text("")
        with pytest.raises(SnapshotFormatError, match="header"):
            load_snapshots(path)

    def test_bad_cell_names_row(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text(
            "network,date,validators,tps\n"
            "near,2023-01-31,158,6.33\n"
            "near,2023-02-01,many,6.33\n"
        )
        with pytest.raises(SnapshotFormatError, match="row 3"):
            load_snapshots(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text(
            "network,date,validators,tps\n"
            "near,2023-01-31,158,6.33\n"
            "near,2023-01-31,158,6.33\n"
        )
        with pytest.raises(DuplicateObservationError, match="near"):
            load_snapshots(path)

    def test_vote_columns_must_pair(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text(
            "network,date,validators,tps,nonvote_per_day,total_per_day,provenance\n"
            "solana,2022-12-11,,4123,17263338,,\n"
        )
        with pytest.raises(SnapshotFormatError, match="together"):
            load_snapshots(path)

    def test_empty_row_kind_rejected(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text(
            "network,date,validators,tps,nonvote_per_day,total_per_day,provenance\n"
            "solana,2022-12-11,,4123,,,\n"
        )
        with pytest.raises(SnapshotFormatError, match="empty"):
            load_snapshots(path)


class TestMerge:
    def test_exact_duplicates_collapse(self):
        a = obs()
        merged = merge([a], [a, obs("near", validators=158, tps=6.33)])
        assert merged == [obs("near", validators=158, tps=6.33), a]

    def test_sorted_by_network_then_date(self):
        rows = [
            obs("tezos", "2023-01-31"),
            obs("near", "2023-02-01", 160, 6.4),
            obs("near", "2023-01-31", 158, 6.33),
        ]
        merged = merge(rows)
        assert [(o.network, o.date.isoformat()) for o in merged] == [
            ("near", "2023-01-31"),
            ("near", "2023-02-01"),
            ("tezos", "2023-01-31"),
        ]

    def test_conflict_reports_both_values(self):
        with pytest.raises(MergeConflictError) as err:
            merge([obs(validators=407)], [obs(validators=410)])
        message = str(err.value)
        assert "validators=407" in message
        assert "validators=410" in message
        assert "tezos" in message

    def test_synthetic_rows_do_not_conflict_with_real_ones(self):
        real = obs(validators=407)
        synthetic = obs(validators=0, tps=0.0, synthetic=True)
        merged = merge([real, synthetic])
        assert len(merged) == 2

    def test_empty_input(self):
        assert merge() == []
        assert merge([], []) == []


class TestWriteSnapshot:
    def test_round_trip_observations(self, tmp_path):
        original = load_snapshots(bundled("observations.csv"))
        path = tmp_path / "out.csv"
        write_snapshot(path, original.observations)
        reloaded = load_snapshots(path)
        assert reloaded.observations == tuple(
            sorted(original.observations, key=lambda o: (o.network, o.date))
        )
        assert reloaded.vote_records == ()

    def test_round_trip_vote_history(self, tmp_path):
        original = load_snapshots(bundled("solana_votes.csv"))
        path = tmp_path / "out.csv"
        write_snapshot(path, [], original.vote_records)
        reloaded = load_snapshots(path)
        assert reloaded.observations == ()
        assert set(reloaded.vote_records) == set(original.vote_records)

    def test_vote_record_folds_into_matching_observation(self, tmp_path):
        observation = obs("solana", "2022-12-11", 2402, 4123.0)
        vote = VoteRatioRecord("2022-12-11", 17_263_338, 309_222_640, 4123.0)
        path = tmp_path / "out.csv"
        write_snapshot(path, [observation], [vote])
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # header + one combined row
        assert "17263338" in lines[1]
        reloaded = load_snapshots(path)
        assert len(reloaded.observations) == 1
        assert reloaded.vote_records == (vote,)

    def test_unmatched_vote_record_appended(self, tmp_path):
        observation = obs("solana", "2023-01-31", 2512, 493.0)
        vote = VoteRatioRecord("2022-12-11", 17_263_338, 309_222_640, 4123.0)
        path = tmp_path / "out.csv"
        write_snapshot(path, [observation], [vote])
        reloaded = load_snapshots(path)
        assert len(reloaded.observations) == 1
        assert reloaded.vote_records == (vote,)

    def test_synthetic_rows_refused(self, tmp_path):
        with pytest.raises(ValueError, match="synthetic"):
            write_snapshot(tmp_path / "out.csv", [obs(synthetic=True, validators=0, tps=0.0)])


class TestReferenceTables:
    def test_bundled_bounds(self):
        bounds = load_bounds(bundled("bounds.csv"))
        assert len(bounds) == 14
        assert bounds["hedera"].lower_w == 168.10
        assert bounds["hedera"].upper_w == 328.00
        assert bounds["algorand"].lower_w == 5.53

    def test_bundled_profiles(self):
        bounds = load_bounds(bundled("bounds.csv"))
        profiles = load_profiles(bundled("profiles.csv"), bounds)
        assert profiles["solana"].max_tps == 7295.0
        assert profiles["solana"].bounds is bounds["solana"]

    def test_profiles_require_bounds(self, tmp_path):
        path = tmp_path / "profiles.csv"
        path.write_text("network,max_tps\nnear,100000\n")
        with pytest.raises(SnapshotFormatError, match="near"):
            load_profiles(path, {})

    def test_bundled_reported(self):
        reported = load_reported(bundled("reported_estimates.csv"))
        assert reported["cardano"].global_kw == 142.63
        assert reported["visa"].kwh_per_tx == 0.003280

    def test_duplicate_bounds_rejected(self, tmp_path):
        path = tmp_path / "bounds.csv"
        path.write_text("network,lower_w,upper_w\nnear,1,2\nnear,1,2\n")
        with pytest.raises(SnapshotFormatError, match="duplicate"):
            load_bounds(path)


GET_JSON = "posenergy.ingestion._get_json"


def http_error(url, code):
    return urllib.error.HTTPError(url, code, "unavailable", hdrs=None, fp=None)


SPEC = FetcherSpec(
    network="near",
    url="https://example.invalid/api/stats",
    validators_field="data.validators.count",
    tps_field="data.tx.per_day",
    tps_unit="per-day",
    timeout=5.0,
)
PAYLOAD = {"data": {"validators": {"count": 158}, "tx": {"per_day": 546_912}}}


class TestFetcherSpec:
    def test_bad_unit(self):
        with pytest.raises(ValueError, match="tps_unit"):
            FetcherSpec("near", "https://x", "a", "b", tps_unit="per-week")

    def test_bad_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            FetcherSpec("near", "https://x", "a", "b", timeout=0)


class TestFetchObservation:
    def test_happy_path_with_unit_conversion(self):
        with mock.patch(GET_JSON) as get:
            get.return_value = PAYLOAD
            observation = fetch_observation(SPEC, at="2023-01-31")
        get.assert_called_once_with(SPEC.url, timeout=5.0)
        assert observation.network == "near"
        assert observation.validators == 158
        assert observation.tps == pytest.approx(546_912 / 86_400)
        assert observation.date == dt.date(2023, 1, 31)
        assert SPEC.url in observation.provenance
        assert "per-day" in observation.provenance

    def test_default_date_is_today_utc(self):
        with mock.patch(GET_JSON) as get:
            get.return_value = PAYLOAD
            observation = fetch_observation(SPEC)
        assert observation.date == dt.datetime.now(dt.timezone.utc).date()

    def test_list_index_in_path(self):
        spec = FetcherSpec("near", "https://x", "nodes.1.n", "tps")
        payload = {"nodes": [{"n": 1}, {"n": 42}], "tps": 6.33}
        with mock.patch(GET_JSON) as get:
            get.return_value = payload
            observation = fetch_observation(spec, at="2023-01-31")
        assert observation.validators == 42

    def test_http_error_becomes_fetch_error(self):
        with mock.patch(GET_JSON) as get:
            get.side_effect = http_error(SPEC.url, 503)
            with pytest.raises(FetchError, match="near"):
                fetch_observation(SPEC)

    def test_connection_error_becomes_fetch_error(self):
        with mock.patch(GET_JSON) as get:
            get.side_effect = urllib.error.URLError("refused")
            with pytest.raises(FetchError, match="refused"):
                fetch_observation(SPEC)

    def test_non_json_becomes_fetch_error(self):
        with mock.patch(GET_JSON) as get:
            get.side_effect = ValueError("not json")
            with pytest.raises(FetchError, match="not JSON"):
                fetch_observation(SPEC)

    def test_missing_field_is_schema_drift(self):
        with mock.patch(GET_JSON) as get:
            get.return_value = {"data": {"validators": {"count": 158}}}
            with pytest.raises(SchemaDriftError, match="data.tx.per_day"):
                fetch_observation(SPEC)

    def test_urlopen_failures_become_fetch_errors(self):
        # drives the real _get_json with urlopen stubbed; nothing leaves the process
        failures = {
            "HTTP Error 503": mock.Mock(side_effect=http_error(SPEC.url, 503)),
            "refused": mock.Mock(side_effect=urllib.error.URLError("refused")),
            "not JSON": mock.Mock(return_value=io.BytesIO(b"<html>down</html>")),
        }
        for expected, urlopen in failures.items():
            with mock.patch("urllib.request.urlopen", urlopen):
                with pytest.raises(FetchError) as caught:
                    fetch_observation(SPEC)
            message = str(caught.value)
            assert message.startswith(f"near: {SPEC.url}: ")
            assert expected in message
            urlopen.assert_called_once_with(SPEC.url, timeout=5.0)

    def test_non_http_scheme_is_refused(self):
        spec = FetcherSpec("near", "file:///etc/hostname", "a", "b")
        with mock.patch("urllib.request.urlopen") as urlopen:
            with pytest.raises(FetchError, match="unsupported URL scheme 'file'"):
                fetch_observation(spec)
        urlopen.assert_not_called()


class TestFetchAll:
    def test_failures_collected_not_raised(self):
        good = SPEC
        bad = FetcherSpec("tezos", "https://example.invalid/down", "a", "b")

        def route(url, timeout):
            if url == good.url:
                return PAYLOAD
            raise http_error(url, 500)

        with mock.patch(GET_JSON, side_effect=route):
            observations, errors = fetch_all([good, bad], at="2023-01-31")
        assert [o.network for o in observations] == ["near"]
        assert len(errors) == 1
        assert isinstance(errors[0], FetchError)

    def test_results_are_merged_and_sorted(self):
        specs = [
            FetcherSpec("tezos", "https://example.invalid/t", "v", "tps"),
            FetcherSpec("near", "https://example.invalid/n", "v", "tps"),
        ]
        with mock.patch(GET_JSON) as get:
            get.return_value = {"v": 10, "tps": 1.0}
            observations, errors = fetch_all(specs, at="2023-01-31")
        assert errors == []
        assert [o.network for o in observations] == ["near", "tezos"]

    def test_empty_spec_list(self):
        assert fetch_all([]) == ([], [])
