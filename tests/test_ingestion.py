"""Snapshot CSV round-trips and merge rules."""

import datetime as dt
import itertools
import operator
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_file_input import SETTINGS, reference_load_snapshots, reference_write_snapshot

from posenergy import ingestion
from posenergy.core import NetworkObservation
from posenergy.ingestion import (
    OBSERVATION_HEADER,
    DuplicateObservationError,
    MergeConflictError,
    SnapshotFormatError,
    bundled,
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
        with pytest.raises(DuplicateObservationError, match="near") as raised:
            load_snapshots(path)
        assert isinstance(raised.value, SnapshotFormatError)

    def test_reader_error_names_row(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text("network,date,validators,tps\nnear,2023-01-31,158,6.33\n" + "x" * 200_000)
        with pytest.raises(SnapshotFormatError, match=f"^{path} row 3: field larger than"):
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


def snapshot_file(path, *rows):
    path.write_text("\n".join((",".join(OBSERVATION_HEADER), *rows)) + "\n", encoding="utf-8")
    return path


def counted(monkeypatch, name):
    """The argument tuples of each later call of ``ingestion.<name>``, which still runs."""
    calls = []
    wrapped = getattr(ingestion, name)

    def counting(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(ingestion, name, counting)
    return calls


def by_key(observations):
    return sorted(observations, key=lambda o: (o.network, o.date))


class TestParsedRowMemo:
    """A load parses every row, unless the file holds the bytes written last."""

    NEAR = "near,2023-01-31,158,6.33,,,explorer"
    TEZOS = "tezos,2023-01-31,407,0.9,,,explorer"

    def test_bad_row_fails_in_each_file_at_its_row(self, tmp_path):
        bad = self.NEAR.replace("2023-01-31", "2023-02-30")
        alone = snapshot_file(tmp_path / "a.csv", bad)
        after = snapshot_file(tmp_path / "b.csv", self.NEAR, self.TEZOS, bad)
        for path, row in [(alone, 2), (after, 4), (alone, 2)]:
            with pytest.raises(
                SnapshotFormatError,
                match=rf"^{re.escape(str(path))} row {row}: invalid date '2023-02-30'",
            ):
                load_snapshots(path)

    def test_row_over_two_lines_is_read_by_csv_each_time(self, tmp_path):
        opening = 'near,2023-01-31,158,6.33,,,"explorer\r\n'
        row = opening + 'page 2"\r\n'
        header = ",".join(OBSERVATION_HEADER) + "\r\n"
        alone, after = tmp_path / "a.csv", tmp_path / "b.csv"
        alone.write_bytes((header + row).encode())
        after.write_bytes((header + self.TEZOS + "\r\n" + row).encode())
        first = load_snapshots(alone)
        assert first.observations[0].provenance == "explorer\r\npage 2"
        assert load_snapshots(after).observations[1] == first.observations[0]
        # its opening line alone, as the end of a file, reads to the end inside quotes
        cut = tmp_path / "c.csv"
        cut.write_bytes((header + opening).encode())
        assert load_snapshots(cut).observations[0].provenance == "explorer"
        assert load_snapshots(alone) == first

    def test_line_is_read_by_its_header(self, tmp_path):
        line = "near,2023-01-31,158,6,,,explorer\n"
        swapped = ("network", "date", "tps", "validators", *OBSERVATION_HEADER[4:])
        for header, (validators, tps) in [
            (OBSERVATION_HEADER, (158, 6.0)),
            (swapped, (6, 158.0)),
            (OBSERVATION_HEADER, (158, 6.0)),
        ]:
            path = tmp_path / "snap.csv"
            path.write_text(",".join(header) + "\n" + line, encoding="utf-8")
            (observation,) = load_snapshots(path).observations
            assert (observation.validators, observation.tps) == (validators, tps)
            assert load_snapshots(path) == reference_load_snapshots(path)

    def test_reload_of_the_written_file_parses_nothing(self, tmp_path, monkeypatch, empty_memos):
        rows = window(3, networks=2)
        votes = [VoteRatioRecord("2022-12-11", 17_263_338, 309_222_640, 4123.0)]
        path, copy = tmp_path / "snap.csv", tmp_path / "copy.csv"
        write_snapshot(path, reversed(rows), votes)
        copy.write_bytes(path.read_bytes())
        parsed = counted(monkeypatch, "_parse_row")
        # the same bytes at another path return the same records
        for target in (path, copy, path):
            loaded = load_snapshots(target)
            assert all(map(operator.is_, loaded.observations, by_key(rows)))
            assert loaded.vote_records[0] is votes[0]
        assert parsed == []
        assert loaded == reference_load_snapshots(path)

    def test_edited_byte_is_parsed(self, tmp_path, monkeypatch, empty_memos):
        path = tmp_path / "snap.csv"
        write_snapshot(path, [obs("near", validators=158, tps=6.33), obs()])
        path.write_bytes(path.read_bytes().replace(b",158,", b",159,"))
        parsed = counted(monkeypatch, "_parse_row")
        loaded = load_snapshots(path)
        assert len(parsed) == 2
        assert loaded.observations[0].validators == 159
        assert loaded == reference_load_snapshots(path)

    def test_repeated_key_refused_before_the_file_is_opened(self, tmp_path, empty_memos):
        path = tmp_path / "snap.csv"
        write_snapshot(path, [obs("near", validators=158, tps=6.33)])
        before, kept = path.read_bytes(), ingestion._last_written
        # a repeat that differs in a field, and one that is equal
        for rows in ([obs("near"), obs(), obs("near", validators=159)], [obs(), obs()]):
            for target in (path, tmp_path / "new.csv"):
                with pytest.raises(
                    DuplicateObservationError,
                    match=rf"^{re.escape(str(target))}: duplicate observation for "
                    rf"\({rows[-1].network}, 2023-01-31\)$",
                ):
                    write_snapshot(target, rows)
            assert path.read_bytes() == before
            assert not (tmp_path / "new.csv").exists()
            assert ingestion._last_written is kept

    def test_subclass_records_are_neither_kept_nor_reused(self, tmp_path, empty_memos):
        class Tagged(NetworkObservation):
            # a record subclass is unequal to the record its row parses as
            tag: str

            def __init__(self, *args, tag=""):
                super().__init__(*args)
                object.__setattr__(self, "tag", tag)

        path = tmp_path / "snap.csv"
        write_snapshot(path, [Tagged("near", "2023-01-31", 158, 6.33)])
        (observation,) = load_snapshots(path).observations
        assert type(observation) is NetworkObservation
        assert load_snapshots(path) == reference_load_snapshots(path)
        # another record of the subclass: its line is its own
        write_snapshot(path, [Tagged("tezos", "2023-01-31", 407, 0.9)])
        assert path.read_text().splitlines()[1] == "tezos,2023-01-31,407,0.9,,,"


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
        with pytest.raises(MergeConflictError) as err:
            merge([obs(provenance="explorer")], [obs(provenance="paper")])
        assert str(err.value) == (
            "conflicting observations: (tezos, 2023-01-31): "
            "validators=407 tps=0.9 provenance='explorer' vs "
            "validators=407 tps=0.9 provenance='paper'"
        )

    def test_empty_input(self):
        assert merge() == []
        assert merge([], []) == []

    @SETTINGS
    @given(data=st.data())
    def test_matches_list_based_merge(self, data):
        # few keys and few values per field, so sets share keys, repeat records
        # exactly (the same object or an equal copy) and conflict
        pool = data.draw(st.lists(st.builds(
            obs,
            network=st.sampled_from(["near", "tezos"]),
            date=st.sampled_from(["2023-01-30", "2023-01-31"]),
            validators=st.integers(1, 2),
            tps=st.sampled_from([0.0, -0.0, 6.33]),
            provenance=st.sampled_from(["", "paper"]),
        ), min_size=1, max_size=6))
        record = st.sampled_from(pool).flatmap(
            lambda o: st.sampled_from([o, obs(o.network, o.date, o.validators, o.tps,
                                              provenance=o.provenance)])
        )
        sets = data.draw(st.lists(st.lists(record, max_size=5), max_size=4))
        try:
            expected = reference_merge(*sets)
        except MergeConflictError as exc:
            with pytest.raises(MergeConflictError) as raised:
                merge(*sets)
            assert str(raised.value) == str(exc)
        else:
            merged = merge(*sets)
            assert merged == expected
            # the first of equal records is kept
            assert all(a is b for a, b in zip(merged, expected))

    @SETTINGS
    @given(data=st.data())
    def test_zero_throughput_written_alike_in_any_order(self, data):
        # each key has one validator count and one throughput, but a zero
        # throughput is drawn with either sign, so the sets never conflict
        keys = data.draw(st.lists(st.tuples(
            st.sampled_from(["near", "tezos"]),
            st.sampled_from(["2023-01-30", "2023-01-31"]),
            st.integers(1, 2),
            st.sampled_from([(0.0, -0.0), (6.33,)]),
        ), min_size=1, max_size=4, unique_by=lambda k: k[:2]))
        record = st.sampled_from(keys).flatmap(
            lambda k: st.sampled_from(k[3]).map(lambda tps: obs(k[0], k[1], k[2], tps))
        )
        sets = data.draw(st.lists(st.lists(record, max_size=4), min_size=2, max_size=3))
        written = set()
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "snapshot.csv"
            for order in itertools.permutations(sets):
                write_snapshot(path, merge(*order))
                written.add(path.read_bytes())
        assert len(written) == 1
        assert b"-0.0" not in written.pop()


def reference_merge(*observation_sets):
    """``merge`` as it was: one list per (network, date) key."""
    buckets = {}
    for group in observation_sets:
        for o in group:
            bucket = buckets.setdefault((o.network, o.date), [])
            if o not in bucket:
                bucket.append(o)
    ordered = sorted(buckets.items())
    conflicts = [
        f"({network}, {date.isoformat()}): "
        + " vs ".join(
            f"validators={o.validators} tps={o.tps!r} provenance={o.provenance!r}" for o in rows
        )
        for (network, date), rows in ordered
        if len(rows) > 1
    ]
    if conflicts:
        raise MergeConflictError("conflicting observations: " + "; ".join(conflicts))
    return [rows[0] for _, rows in ordered]


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

    def test_vote_record_sharing_a_key_has_its_own_row(self, tmp_path):
        observation = obs("solana", "2022-12-11", 2402, 4123.0)
        vote = VoteRatioRecord("2022-12-11", 17_263_338, 309_222_640, 4123.0)
        path = tmp_path / "out.csv"
        write_snapshot(path, [observation], [vote])
        assert path.read_text().splitlines()[1:] == [
            "solana,2022-12-11,2402,4123.0,,,",
            "solana,2022-12-11,,4123.0,17263338,309222640,",
        ]
        reloaded = load_snapshots(path)
        assert reloaded.observations == (observation,)
        assert reloaded.vote_records == (vote,)

    def test_unmatched_vote_record_appended(self, tmp_path):
        observation = obs("solana", "2023-01-31", 2512, 493.0)
        vote = VoteRatioRecord("2022-12-11", 17_263_338, 309_222_640, 4123.0)
        path = tmp_path / "out.csv"
        write_snapshot(path, [observation], [vote])
        reloaded = load_snapshots(path)
        assert len(reloaded.observations) == 1
        assert reloaded.vote_records == (vote,)

    def test_vote_records_follow_observations_in_sorted_input_order(self, tmp_path):
        observation = obs("solana", "2022-12-11", 2402, 4123.0)
        first = VoteRatioRecord("2022-12-11", 1, 10, 4123.0)
        second = VoteRatioRecord("2022-12-11", 2, 10, 4123.0)
        earlier = VoteRatioRecord("2022-12-10", 3, 10, 4123.0)
        faster = VoteRatioRecord("2022-12-11", 4, 10, 5000.0)
        path = tmp_path / "out.csv"
        write_snapshot(path, [observation], [faster, first, earlier, second])
        assert path.read_text().splitlines()[1:] == [
            "solana,2022-12-11,2402,4123.0,,,",
            "solana,2022-12-10,,4123.0,3,10,",
            "solana,2022-12-11,,4123.0,1,10,",
            "solana,2022-12-11,,4123.0,2,10,",
            "solana,2022-12-11,,5000.0,4,10,",
        ]

    def test_refused_write_keeps_existing_file(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = [obs("near", f"2023-01-0{day}", 158, 6.33) for day in (1, 2, 3)]
        write_snapshot(path, rows)
        before = path.read_bytes()
        # the refused row sorts first, so it is the first row the writer would reach
        with pytest.raises(ValueError, match=r"provenance of \(algorand, 2023-01-31\)"):
            write_snapshot(path, [*rows, obs("algorand", provenance=" padded")])
        assert path.read_bytes() == before

    def test_unencodable_write_keeps_existing_file(self, tmp_path):
        path = tmp_path / "out.csv"
        write_snapshot(path, [obs()])
        before = path.read_bytes()
        # a lone surrogate has no UTF-8 form; the text is encoded before the file is opened
        kept = ingestion._last_written
        with pytest.raises(UnicodeEncodeError):
            write_snapshot(path, [obs(provenance="\ud800")])
        assert path.read_bytes() == before
        assert ingestion._last_written is kept

    @pytest.mark.parametrize("provenance", [" padded", "nul\0byte"])
    def test_provenance_that_would_not_read_back_refused(self, tmp_path, provenance):
        with pytest.raises(ValueError, match=r"provenance of \(tezos, 2023-01-31\)"):
            write_snapshot(tmp_path / "out.csv", [obs(provenance=provenance)])


def window(days, networks=14, first=dt.date(2022, 1, 1)):
    """``days`` days of one generated observation per network, as a refresh keeps them."""
    return [
        obs(f"net{n:02d}", first + dt.timedelta(days=d), 10 + (d * 7 + n) % 90,
            0.5 + ((d * 31 + n * 17) % 1000) / 8, provenance=f"generated day {d}")
        for d in range(days)
        for n in range(networks)
    ]


class TestObservationLineMemo:
    """A write reuses the lines of the last write, and keeps only those."""

    def test_zero_throughput_written_as_positive_zero(self, tmp_path):
        positive, negative = tmp_path / "positive.csv", tmp_path / "negative.csv"
        write_snapshot(positive, [obs(tps=0.0)])
        # an equal record, written in the same way whichever is formatted first
        write_snapshot(negative, [obs(tps=-0.0)])
        assert positive.read_text().splitlines()[1] == "tezos,2023-01-31,407,0.0,,,"
        assert negative.read_text().splitlines()[1] == "tezos,2023-01-31,407,0.0,,,"

    def test_refresh_formats_only_the_new_day(self, tmp_path, monkeypatch, empty_memos):
        path = tmp_path / "snapshot.csv"
        history = window(251)
        kept = history[:-14]
        formatted = counted(monkeypatch, "_observation_line")
        write_snapshot(path, kept)
        assert len(formatted) == len(kept) == 3500
        merged = merge(kept, history[-14:])
        oldest = min(o.date for o in merged)
        kept = [o for o in merged if o.date != oldest]
        formatted.clear()
        write_snapshot(path, kept)
        assert [obs for obs, in formatted] == history[-14:]
        reference = tmp_path / "reference.csv"
        reference_write_snapshot(reference, kept)
        assert path.read_bytes() == reference.read_bytes()

    def test_refused_row_is_never_kept(self, tmp_path, empty_memos):
        path = tmp_path / "snapshot.csv"
        rows = window(3, networks=2)
        write_snapshot(path, rows)
        before, kept = path.read_bytes(), ingestion._last_written
        # sorts first, so each attempt reaches it before any other row
        refused = obs("algorand", provenance="trailing ")
        for _ in range(3):
            with pytest.raises(ValueError, match=r"provenance of \(algorand, 2023-01-31\)"):
                write_snapshot(path, [*rows, refused])
            assert path.read_bytes() == before
            assert ingestion._last_written is kept
        # a write that fails at the file keeps the last one too
        with pytest.raises(OSError):
            write_snapshot(tmp_path, rows)
        assert ingestion._last_written is kept

    def test_only_the_last_write_is_held(self, tmp_path, empty_memos):
        path = tmp_path / "snapshot.csv"
        history = window(4, networks=3)
        write_snapshot(path, history[:-3])
        # a refresh: the oldest day leaves the window as a new one enters
        write_snapshot(path, history[3:])
        data, snapshot, lines = ingestion._last_written
        assert data == path.read_bytes()
        assert list(lines) == by_key(history[3:])
        assert snapshot.observations == tuple(by_key(history[3:]))
        assert not set(history[:3]) & set(lines)


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

    def test_bundled_reference_systems_publish_no_kw(self):
        # their sources give annual kWh and tps, so a kW cell would hold neither
        reported = load_reported(bundled("reported_estimates.csv"))
        assert reported["bitcoin"].global_kw is None
        assert reported["visa"].global_kw is None

    def test_duplicate_bounds_rejected(self, tmp_path):
        path = tmp_path / "bounds.csv"
        path.write_text("network,lower_w,upper_w\nnear,1,2\nnear,1,2\n")
        with pytest.raises(SnapshotFormatError, match="duplicate"):
            load_bounds(path)

