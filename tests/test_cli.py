"""End-to-end command line behaviour, driven through main()."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posenergy
from posenergy import cli, report
from posenergy.baselines import load_baselines
from posenergy.chart import render_chart
from posenergy.cli import build_parser, main
from posenergy.estimator import find_baseline_errata, find_errata
from posenergy.ingestion import bundled, load_bounds, load_profiles, load_reported, load_snapshots

ROOT = Path(__file__).resolve().parents[1]
SVG = "{http://www.w3.org/2000/svg}"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestFit:
    def test_csv_header_and_all_networks(self, capsys):
        code, out, err = run(capsys, "fit", "--format", "csv")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "network,intercept,slope,r2,n_points,origin_included"
        assert len(lines) == 15  # header + 14 networks

    def test_single_observation_plus_origin(self, capsys):
        _, out, _ = run(capsys, "fit", "--network", "near", "--format", "csv")
        row = out.splitlines()[1].split(",")
        # two points, one of them the origin: the line passes through both
        assert row[0] == "near"
        assert float(row[1]) == pytest.approx(0.0, abs=1e-9)
        assert float(row[2]) == pytest.approx(158 / 6.33, rel=1e-9)
        assert row[4] == "2"
        assert row[5] == "true"

    def test_no_origin_flag_changes_fit(self, capsys):
        _, with_origin, _ = run(capsys, "fit", "--network", "tezos", "--format", "csv")
        _, without, _ = run(
            capsys, "fit", "--network", "tezos", "--no-origin", "--format", "csv"
        )
        # a single observation cannot be fitted without the origin
        assert "error" not in with_origin
        assert without == ""

    def test_no_origin_single_point_fails(self, capsys):
        code, _, err = run(capsys, "fit", "--network", "tezos", "--no-origin")
        assert code == 1
        assert err.startswith("error:")

    def test_no_origin_error_names_network_and_count(self, capsys):
        code, out, err = run(capsys, "fit", "--no-origin", "--format", "csv")
        assert code == 1
        assert out == ""
        assert err == "error: algorand: need at least 2 points, got 1\n"

    def test_unknown_network_fails(self, capsys):
        code, _, err = run(capsys, "fit", "--network", "dogecoin")
        assert code == 1
        assert "dogecoin" in err


class TestTable:
    def test_known_cells(self, capsys):
        code, out, err = run(capsys, "table", "--format", "csv")
        assert code == 0
        rows = {line.split(",")[0]: line.split(",") for line in out.splitlines()[1:]}
        assert set(rows) == {
            "algorand", "avalanche", "bnb", "cardano", "elrond", "ethereum", "flow",
            "hedera", "near", "polkadot", "solana", "tezos", "toncoin", "tron",
            "bitcoin", "visa",
        }
        assert rows["hedera"][1] == "26"
        assert rows["hedera"][4] == "6.45"
        assert float(rows["hedera"][7]) == pytest.approx(3.1515e-06, rel=1e-4)
        assert rows["solana"][4] == "917.29"
        assert rows["bitcoin"][6] == "624.41"
        assert float(rows["visa"][7]) == pytest.approx(0.00327773, abs=5e-9)

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "table", "--format", "csv")
        _, second, _ = run(capsys, "table", "--format", "csv")
        assert first == second

    def test_verify_notes_exactly_two_networks(self, capsys):
        code, _, err = run(capsys, "table", "--verify")
        assert code == 0
        notes = [line for line in err.splitlines() if line]
        assert len(notes) == 2
        assert "cardano" in notes[0]
        assert "142.63" in notes[0]
        assert "53.42" in notes[0]
        assert "tron" in notes[1]
        assert "391.92" in notes[1]

    def test_verify_notes_reported_validators_other_than_observed(self, capsys, tmp_path):
        # the published power is priced at the observation's count, not the row's
        text = bundled("reported_estimates.csv").read_text(encoding="utf-8")
        row = "\nnear,13.71,0.000602,6.33,158\n"
        assert row in text
        path = tmp_path / "rep.csv"
        path.write_text(text.replace(row, "\nnear,13.71,0.000602,6.33,160\n"), encoding="utf-8")
        _, _, bundled_notes = run(capsys, "table", "--verify")
        code, _, err = run(capsys, "table", "--verify", "--reported", str(path))
        assert code == 0
        assert err == bundled_notes + (
            "note: published figures for near are stated at 160 validators and 6.33 tps, "
            "but are checked at its observation's 158 validators and 6.33 tps\n"
        )

    def test_verify_notes_reported_name_matching_nothing(self, capsys, tmp_path):
        # --network narrows the table, not the names a reported row may match
        path = tmp_path / "rep.csv"
        path.write_text(
            "name,global_kw,kwh_per_tx,tps,validators\n"
            "cardan0,142.63,0.041270,0.96,1209\ncardano,142.63,0.041270,0.96,1209\n"
            "visa,1736.00,0.003280,1736,\n"
        )
        argv = ["table", "--verify", "--reported", str(path), "--network", "near"]
        code, _, err = run(capsys, *argv)
        assert code == 0
        assert err == f"note: {report.unmatched_note('cardan0')}\n"
        assert report.unmatched_note("cardan0") == (
            "published figures for cardan0 match no observed network or baseline "
            "and are not checked"
        )

    def test_reported_name_must_be_network_id(self, capsys, tmp_path):
        path = tmp_path / "rep.csv"
        path.write_text("name,global_kw,kwh_per_tx,tps,validators\nCardano,142.63,0.04,0.96,1209\n")
        code, out, err = run(capsys, "table", "--verify", "--reported", str(path))
        assert (code, out) == (1, "")
        assert err == (
            f"error: {path} row 2: invalid network id 'Cardano' "
            "(want lowercase ASCII, e.g. 'hedera')\n"
        )

    def test_network_filter(self, capsys):
        _, out, _ = run(capsys, "table", "--network", "near", "--format", "csv")
        names = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert names == ["near", "bitcoin", "visa"]

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, "table", "--format", "csv", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("name,validators")


class TestChart:
    def test_csv_deterministic(self, capsys):
        _, first, _ = run(capsys, "chart", "--format", "csv", "--points", "40")
        _, second, _ = run(capsys, "chart", "--format", "csv", "--points", "40")
        assert first == second
        assert first.splitlines()[0] == "network,tps,kwh_per_tx_lower,kwh_per_tx_upper,physical"

    def test_band_rows_and_baseline_rows(self, capsys):
        _, out, _ = run(capsys, "chart", "--network", "polkadot", "--format", "csv",
                        "--points", "10")
        lines = out.splitlines()
        polkadot = [l for l in lines if l.startswith("polkadot,")]
        assert len(polkadot) == 10
        assert [l.split(",")[0] for l in lines if l.startswith("bitcoin")] == ["bitcoin"] * 2
        assert sum(1 for l in lines if l.startswith("visa,")) == 1

    def test_no_baselines_flag(self, capsys):
        _, out, _ = run(capsys, "chart", "--network", "polkadot", "--format", "csv",
                        "--points", "10", "--no-baselines")
        assert "bitcoin" not in out
        assert "visa" not in out

    def test_svg_output(self, capsys, tmp_path):
        target = tmp_path / "chart.svg"
        code, _, _ = run(capsys, "chart", "--format", "svg", "--points", "40",
                         "--out", str(target))
        assert code == 0
        text = target.read_text()
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")

    def test_svg_skips_markers_a_log_axis_cannot_place(self, capsys, tmp_path):
        # At 0 validators hedera's latest observation prices at 0 kWh/tx, which
        # a log axis cannot place: its two markers are left out, the rest drawn.
        text = bundled("observations.csv").read_text(encoding="utf-8")
        zeroed = text.replace("\nhedera,2023-01-31,26,", "\nhedera,2023-01-31,0,")
        assert zeroed != text
        path = tmp_path / "observations.csv"
        path.write_text(zeroed, encoding="utf-8")
        circles = {}
        for name, argv in (("bundled", []), ("zeroed", ["--observations", str(path)])):
            code, out, err = run(capsys, "chart", "--format", "svg", *argv)
            assert (code, err) == (0, "")
            circles[name] = len(ElementTree.fromstring(out).findall(f"{SVG}circle"))
        assert circles == {"bundled": 29, "zeroed": 27}

    def test_lmin_controls_grid_start(self, capsys):
        _, out, _ = run(capsys, "chart", "--network", "polkadot", "--format", "csv",
                        "--points", "5", "--lmin", "1")
        first_row = out.splitlines()[1].split(",")
        assert first_row[1] == "1"

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    @pytest.mark.parametrize("extra", [[], ["--no-baselines"]], ids=["baselines", "no-baselines"])
    def test_no_observations_named(self, capsys, tmp_path, fmt, extra):
        path = tmp_path / "empty.csv"
        path.write_text("network,date,validators,tps\n")
        target = tmp_path / "chart.out"
        argv = ["chart", "--observations", str(path), "--format", fmt, *extra]
        assert run(capsys, *argv) == (1, "", "error: no observations to chart\n")
        assert run(capsys, *argv, "--out", str(target))[0] == 1
        assert not target.exists()

    def test_bad_lmin_fails(self, capsys):
        code, _, err = run(capsys, "chart", "--network", "polkadot", "--lmin", "-1")
        assert code == 1
        assert err.startswith("error:")


class TestStreaming:
    @pytest.fixture
    def chunks(self, monkeypatch):
        """Every chunk passed to ``cli._emit``, which still writes it."""
        recorded = []
        emit = cli._emit

        def recorder(text, stream):
            recorded.append(text)
            emit(text, stream)

        monkeypatch.setattr(cli, "_emit", recorder)
        return recorded

    def test_csv_written_band_by_band(self, capsys, chunks):
        code, out, _ = run(capsys, "chart", "--format", "csv", "--points", "500")
        assert code == 0
        bounds = load_bounds(bundled("bounds.csv"))
        bands = report.chart_bands(
            load_snapshots(bundled("observations.csv")).observations,
            load_profiles(bundled("profiles.csv"), bounds),
            n_points=500,
        )
        elements = report.baseline_chart_elements(load_baselines(bundled("baselines.cfg")))
        assert len(chunks) == 16  # header, 14 bands, anchors
        assert "".join(chunks) == out == report.chart_csv(report.chart_rows(bands, *elements))
        band_names = {b.network for b in bands}
        for chunk in chunks:
            assert len({line.split(",")[0] for line in chunk.splitlines()} & band_names) <= 1

    def test_svg_written_as_one_chunk(self, capsys, chunks):
        # the canvas, not the grid, bounds the SVG's size, so it is not streamed
        code, out, _ = run(capsys, "chart", "--format", "svg", "--points", "20000")
        assert code == 0
        assert chunks == [out]
        assert out.count("<polygon") == 14

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    @pytest.mark.parametrize(
        "argv", [["--lmin", "1e9"], ["--network", "nosuch"]], ids=["lmin", "network"]
    )
    def test_failed_chart_writes_nothing(self, capsys, tmp_path, fmt, argv):
        target = tmp_path / "chart.out"
        code, out, err = run(capsys, "chart", "--format", fmt, *argv, "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert not target.exists()
        target.write_bytes(b"earlier output\n")
        assert run(capsys, "chart", "--format", fmt, *argv, "--out", str(target))[0] == 1
        assert target.read_bytes() == b"earlier output\n"


def run_main(argv, stdout=None):
    out, err = stdout or io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


BUNDLED_OBSERVATIONS = load_snapshots(bundled("observations.csv")).observations
BUNDLED_BOUNDS = load_bounds(bundled("bounds.csv"))
BUNDLED_PROFILES = load_profiles(bundled("profiles.csv"), BUNDLED_BOUNDS)
BASELINE_ELEMENTS = report.baseline_chart_elements(load_baselines(bundled("baselines.cfg")))
NETWORKS = sorted(BUNDLED_PROFILES)


class TestChartOutput:
    @settings(deadline=None, max_examples=30)
    @given(
        points=st.integers(2, 400),
        count=st.sampled_from([1, 2, 3, 7, len(NETWORKS)]),
        fmt=st.sampled_from(["csv", "svg"]),
        data=st.data(),
    )
    def test_cli_output_equals_library_output(self, points, count, fmt, data):
        networks = data.draw(st.permutations(NETWORKS))[:count]
        bands = report.chart_bands(BUNDLED_OBSERVATIONS, BUNDLED_PROFILES, networks=networks,
                                   n_points=points)
        baseline_markers, refs = BASELINE_ELEMENTS
        if fmt == "csv":
            expected = report.chart_csv(report.chart_rows(bands, baseline_markers, refs))
        else:
            markers = report.observation_markers(BUNDLED_OBSERVATIONS, BUNDLED_BOUNDS, networks)
            expected = render_chart(bands, markers + baseline_markers, refs)[0]
        argv = ["chart", "--format", fmt, "--points", str(points)]
        argv += [arg for network in networks for arg in ("--network", network)]
        assert run_main(argv) == (0, expected, "")


class TestClosedStdout:
    """A reader that stops early, as ``| head -1`` does, ends the pipeline normally."""

    @pytest.mark.parametrize(
        "argv",
        [["fit"], ["chart", "--points", "2000"], ["chart", "--points", "20000"]],
        ids=["fit", "chart", "chart-20000"],
    )
    def test_reader_leaving_after_one_line(self, argv):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        with subprocess.Popen([sys.executable, "-m", "posenergy.cli", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert first.startswith(b"network")
        assert (code, err) == (0, b"")

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_closed_sink_without_descriptor(self, fmt):
        class ClosedPipe(io.StringIO):
            """A pipe whose reader has left, held by an in-process caller: it has no descriptor."""

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        assert run_main(["chart", "--format", fmt, "--points", "50"], ClosedPipe()) == (0, "", "")


class TestBenchTracerContract:
    """``bench/traced_cli.py`` wraps ``cli._emit`` and counts ``len(text.encode())``."""

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_traced_chart_matches_untraced(self, tmp_path, fmt):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        outputs = []
        for traced in (False, True):
            target = tmp_path / f"chart-{traced}.{fmt}"
            argv = ["chart", "--format", fmt, "--points", "200"]
            if fmt == "svg":
                argv += ["--out", str(target)]
            prefix = [str(ROOT / "bench" / "traced_cli.py"), str(tmp_path / "spans.json")]
            done = subprocess.run(
                [sys.executable, *(prefix if traced else ["-m", "posenergy.cli"]), *argv],
                capture_output=True, env=env, timeout=120,
            )
            assert done.returncode == 0, done.stderr.decode()
            outputs.append(target.read_bytes() if fmt == "svg" else done.stdout)
        assert outputs[0] == outputs[1]
        counts = json.loads((tmp_path / "spans.json").read_text())["counts"]
        assert counts["cli.out_bytes"] == len(outputs[1])


class TestNetworkSelection:
    @pytest.mark.parametrize(
        "argv, near_rows",
        [
            (["fit", "--format", "csv"], 1),
            (["table", "--format", "csv"], 1),
            (["chart", "--format", "csv", "--points", "5"], 5),
        ],
        ids=["fit", "table", "chart"],
    )
    def test_repeated_network_selected_once(self, capsys, argv, near_rows):
        code, repeated, _ = run(capsys, *argv, "--network", "near", "--network", "near")
        _, once, _ = run(capsys, *argv, "--network", "near")
        assert code == 0
        assert repeated == once
        assert sum(1 for line in repeated.splitlines() if line.startswith("near,")) == near_rows

    def test_repeated_network_drawn_once(self, capsys):
        code, svg, _ = run(capsys, "chart", "--format", "svg", "--network", "near",
                           "--network", "near")
        assert code == 0
        assert svg.count("<polygon") == 1

    @pytest.mark.parametrize("command", ["fit", "table", "chart"])
    def test_network_without_observations_named(self, capsys, tmp_path, command):
        path = tmp_path / "tezos_only.csv"
        path.write_text("network,date,validators,tps\ntezos,2023-01-31,407,0.9\n")
        code, out, err = run(capsys, command, "--observations", str(path), "--network", "near")
        assert code == 1
        assert out == ""
        assert err == "error: no observations for network 'near'\n"

    @pytest.mark.parametrize("command", ["table", "chart"])
    def test_unknown_network_reports_missing_observations(self, capsys, command):
        code, _, err = run(capsys, command, "--network", "dogecoin")
        assert code == 1
        assert err == "error: no observations for network 'dogecoin'\n"


class TestBaseline:
    def test_rows(self, capsys):
        code, out, _ = run(capsys, "baseline", "--format", "csv")
        assert code == 0
        rows = {line.split(",")[0]: line.split(",") for line in out.splitlines()[1:]}
        assert set(rows) == {"bitcoin", "visa"}
        assert float(rows["visa"][5]) == pytest.approx(5.690146, abs=5e-7)
        assert rows["bitcoin"][7] == "624.41"
        assert rows["bitcoin"][9] == "1662.78"

    def test_verify_flags_bitcoin_midpoint(self, capsys):
        code, _, err = run(capsys, "baseline", "--verify")
        assert code == 0
        notes = [line for line in err.splitlines() if line]
        assert len(notes) == 1
        assert "bitcoin" in notes[0]
        assert "2927" in notes[0]
        assert "1143.6" in notes[0]

    def test_duplicate_reported_name_named(self, capsys, tmp_path):
        path = tmp_path / "rep.csv"
        path.write_text("name,global_kw,kwh_per_tx\nvisa,1,2\nvisa,3,4\n")
        code, out, err = run(capsys, "baseline", "--verify", "--reported", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path} row 3: duplicate estimate for 'visa'\n"

    def test_verify_compares_kwh_per_tx_at_six_decimals(self, capsys, tmp_path):
        # 0.008 is 2.4x the computed 0.00327773 but within 0.005 of it
        path = tmp_path / "rep.csv"
        path.write_text(
            "name,global_kw,kwh_per_tx,tps,validators\n"
            "visa,1736.00,0.008,1736,\nbitcoin,1,2927,2.56,\n"
        )
        code, _, err = run(capsys, "baseline", "--verify", "--reported", str(path))
        assert code == 0
        assert err == (
            (ROOT / "tests" / "golden" / "baseline.txt.stderr").read_text()
            + "note: published energy per transaction for visa (0.008 kWh/tx) does not match "
            "the midpoint of the computed bounds (0.00327773 kWh/tx)\n"
        )

    def test_negative_reported_validators_named(self, capsys, tmp_path):
        path = tmp_path / "rep.csv"
        path.write_text("name,global_kw,kwh_per_tx,tps,validators\nvisa,1736,0.00328,1736,-5\n")
        code, out, err = run(capsys, "baseline", "--verify", "--reported", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path} row 2: validators must be a count in [0, 2**53], got -5\n"

    @pytest.mark.parametrize("command", ["baseline", "table"])
    def test_non_finite_reported_named(self, capsys, tmp_path, command):
        path = tmp_path / "rep.csv"
        path.write_text("name,global_kw,kwh_per_tx\nbitcoin,1,2\nvisa,nan,nan\n")
        code, out, err = run(capsys, command, "--verify", "--reported", str(path))
        assert (code, out) == (1, "")
        assert err == (
            f"error: {path} row 3: global_kw must be finite and non-negative for 'visa', got nan\n"
        )


BUNDLED_ESTIMATES = report.comparison_estimates(BUNDLED_OBSERVATIONS, BUNDLED_BOUNDS)
BUNDLED_BASELINE_BANDS = load_baselines(bundled("baselines.cfg"))
# published figures at, near and far from each computed value
FACTORS = st.one_of(
    st.sampled_from([1.0, 0.999, 1.004, 0.996, 1.006, 0.994, 2.0, 0.5, 0.0]),
    st.floats(0.0, 4.0),
)


@st.composite
def reported_files(draw):
    """A ``--reported`` CSV whose figures are the computed ones times drawn factors."""
    kw = {e.network: e.global_kw_mid for e in BUNDLED_ESTIMATES}
    kwh = {e.network: e.kwh_per_tx_mid for e in BUNDLED_ESTIMATES}
    kwh.update((b.name, b.kwh_per_tx_mid) for b in BUNDLED_BASELINE_BANDS)
    names = draw(st.lists(st.sampled_from(sorted(kwh)), unique=True))
    lines = ["name,global_kw,kwh_per_tx,tps,validators"]
    for name in names:
        published_kw = kw.get(name, 1.0) * draw(FACTORS)
        published_kwh = kwh[name] * draw(FACTORS)
        lines.append(f"{name},{published_kw!r},{published_kwh!r},,")
    return "".join(line + "\n" for line in lines)


class TestErrataNotes:
    @settings(deadline=None, max_examples=40)
    @given(text=reported_files())
    def test_each_note_words_one_returned_erratum(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rep.csv"
            path.write_text(text, encoding="utf-8")
            reported = load_reported(path)
            checks = [
                ("table", find_errata(BUNDLED_ESTIMATES, reported)),
                ("baseline", find_baseline_errata(BUNDLED_BASELINE_BANDS, reported)),
            ]
            for command, errata in checks:
                code, _, err = run_main([command, "--verify", "--reported", str(path)])
                assert code == 0
                assert err.splitlines() == [f"note: {report.erratum_note(e)}" for e in errata]


class TestAdjustSolana:
    def test_bundled_history(self, capsys):
        code, out, _ = run(capsys, "adjust-solana", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("date,reported_tps,nonvote_per_day")
        assert len([l for l in lines if l.startswith("20")]) == 7
        summary = {l.split(",")[0]: float(l.split(",")[1]) for l in lines if l.startswith("#")}
        assert summary["# adjusted_max_tps"] == pytest.approx(7295.0, abs=5.0)
        assert summary["# mean_nonvote_ratio"] == pytest.approx(0.1459, abs=5e-4)

    def test_row_values(self, capsys):
        _, out, _ = run(capsys, "adjust-solana", "--format", "csv")
        last = [l for l in out.splitlines() if l.startswith("2022-12-11")][0].split(",")
        assert float(last[4]) == pytest.approx(3578.97, abs=0.005)
        assert float(last[5]) == pytest.approx(0.0558, abs=5e-5)
        assert float(last[6]) == pytest.approx(230.0, abs=1.0)

    def test_postulated_max_scales(self, capsys):
        _, out, _ = run(capsys, "adjust-solana", "--postulated-max", "100000",
                        "--format", "csv")
        adjusted = [l for l in out.splitlines() if l.startswith("# adjusted")][0]
        assert float(adjusted.split(",")[1]) == pytest.approx(2 * 7294.78, abs=10.0)

    def test_observations_without_vote_columns_fail(self, capsys, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("network,date,validators,tps\nnear,2023-01-31,158,6.33\n")
        code, _, err = run(capsys, "adjust-solana", "--observations", str(path))
        assert code == 1
        assert "vote" in err


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "table", "--observations", "/nonexistent.csv")
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, flag, text, column",
        [
            (["fit"], "--observations", "network,date,validators,tps\nnear,2023-01-31,158\n",
             "tps"),
            (["table"], "--bounds", "network,lower_w,upper_w\nnear,1\n", "upper_w"),
            (["chart"], "--profiles", "network,max_tps\nnear\n", "max_tps"),
            (["table", "--verify"], "--reported", "name,global_kw,kwh_per_tx\nnear,1\n",
             "kwh_per_tx"),
        ],
        ids=["snapshot", "bounds", "profiles", "reported"],
    )
    def test_short_row_named(self, capsys, tmp_path, argv, flag, text, column):
        path = tmp_path / "short.csv"
        path.write_text(text)
        code, out, err = run(capsys, *argv, flag, str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path} row 2: missing {column!r} cell\n"

    @pytest.mark.parametrize(
        "argv, flag, head",
        [
            (["fit"], "--observations", "network,date,validators,tps\n"),
            (["table"], "--bounds", "network,lower_w,upper_w\n"),
            (["chart"], "--profiles", "network,max_tps\n"),
            (["table", "--verify"], "--reported", "name,global_kw,kwh_per_tx\n"),
            # far past the first read-ahead chunk, the offset still counts from the file start
            (["table"], "--bounds",
             "network,lower_w,upper_w\n" + "".join(f"n{i},1,2\n" for i in range(2000))),
            # a byte-order mark is stripped after decoding, so it still counts
            (["table"], "--bounds", "\ufeffnetwork,lower_w,upper_w\n"),
        ],
        ids=["snapshot", "bounds", "profiles", "reported", "bounds-long", "bounds-bom"],
    )
    def test_non_utf8_named(self, capsys, tmp_path, argv, flag, head):
        path = tmp_path / "bin.csv"
        path.write_bytes(head.encode() + b"near,\xff\n")
        code, out, err = run(capsys, *argv, flag, str(path))
        assert (code, out) == (1, "")
        offset = len(head.encode()) + len("near,")
        assert err == f"error: {path}: not UTF-8 text (invalid start byte at byte {offset})\n"

    @pytest.mark.parametrize(
        "text, detail",
        [
            ("year=1\n", "no section headers"),
            ("[a]\nyear=1\n[a]\n", "section 'a' already exists"),
            ("[a]\nyear=%x\namount=1\nunit=TWh\ntps=1\n", "'%' must be followed"),
            ("[a]\nyear=x\namount=1\nunit=TWh\ntps=1\n", "invalid literal for int()"),
            ("[a]\nyear=1\namount=1\nunit=kW\ntps=1\n", "[a]: unit 'kW' is not one of"),
            ("[a]\nyear=1\namount=1\nunit=W\ntps=1\n", "[a]: unit 'W' is not one of"),
            ("[a]\nyear=1\namount=1\nunit=MWh\ntps=1\n", "[a]: unit 'MWh' is not one of"),
            ("[a]\nyear=1\namount=nan\nunit=TWh\ntps=1\n", "[a]: annual_kwh must be finite"),
            ("[a]\nyear=-40\namount=1\nunit=TWh\ntps=1\n",
             "[a]: year must be in [1, 9999] for 'a', got -40"),
            ("[a]\nyear=10000\namount=1\nunit=TWh\ntps=1\n",
             "[a]: year must be in [1, 9999] for 'a', got 10000"),
            ("[b-lower]\nyear=1\namount=1\nunit=TWh\ntps=1\n",
             "bad.cfg: baseline 'b' has an incomplete lower/upper pair"),
            ("[b-lower]\nyear=1\namount=1\nunit=TWh\ntps=1\n"
             "[b-upper]\nyear=2\namount=2\nunit=TWh\ntps=1\n",
             "bad.cfg: baseline pair 'b' disagrees on tps or year"),
            ("[bitcoin-lower]\nyear=2022\namount=134.24\nunit=TWh\ntps=2.56\n"
             "[bitcoin-upper]\nyear=2022\namount=50.41\nunit=TWh\ntps=2.56\n",
             "bad.cfg: baseline 'bitcoin' has annual_kwh_lower 134240000000.00002 above "
             "annual_kwh_upper 50410000000.0\n"),
            ("[visa]\nyear=1\namount=1\nunit=TWh\ntps=1\n"
             "[visa-lower]\nyear=1\namount=1\nunit=TWh\ntps=1\n"
             "[visa-upper]\nyear=1\namount=2\nunit=TWh\ntps=1\n",
             "bad.cfg: baseline 'visa' is given both alone and as a lower/upper pair"),
        ],
        ids=["no-section", "duplicate-section", "interpolation", "bad-year", "power-unit-kw",
             "power-unit-w", "unknown-unit", "nan-amount", "year-before-1", "year-after-9999",
             "lone-lower", "pair-years-differ", "pair-inverted", "alone-and-pair"],
    )
    def test_bad_baseline_config_named(self, capsys, tmp_path, text, detail):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        for command in ("baseline", "table", "chart"):
            code, out, err = run(capsys, command, "--baselines", str(path))
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {path}") and err.count("\n") == 1, err
            assert detail in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--lmin", "200"], "bnb: min_tps must lie in (0, 188.0), got 200.0"),
            (["--points", "1"], "algorand: grid needs at least 2 points, got 1"),
        ],
        ids=["lmin-above-max", "one-point"],
    )
    def test_grid_refusal_names_network(self, capsys, argv, message):
        assert run(capsys, "chart", *argv) == (1, "", f"error: {message}\n")

    def test_oversized_cell_named(self, capsys, tmp_path):
        path = tmp_path / "bounds.csv"
        path.write_text("network,lower_w,upper_w\nnear,1,2\nnear," + "1" * 200_000 + ",2\n")
        code, out, err = run(capsys, "table", "--bounds", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path} row 3: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("command", ["fit", "table", "chart"])
    def test_count_no_float_holds_named(self, capsys, tmp_path, command):
        path = tmp_path / "huge.csv"
        path.write_text("network,date,validators,tps\nnear,2023-01-31,1" + "0" * 309 + ",6.33\n")
        code, out, err = run(capsys, command, "--observations", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path} row 2: validators must be a count in [0, 2**53]")

    def test_malformed_snapshot(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("network,date,validators,tps\nnear,not-a-date,158,6.33\n")
        code, _, err = run(capsys, "fit", "--observations", str(path))
        assert code == 1
        assert "row 2" in err


class TestInstalledEntryPoint:
    def test_console_script(self):
        exe = shutil.which("posenergy")
        if exe is None:
            pytest.skip("console script not on PATH")
        result = subprocess.run(
            [exe, "fit", "--network", "near", "--format", "csv"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0].startswith("network,intercept")


class TestImportFootprint:
    def test_cli_import_loads_no_network_or_numeric_modules(self):
        # a fresh interpreter, so modules other tests imported do not count
        heavy = ("numpy", "requests", "urllib.request", "concurrent.futures", "multiprocessing")
        src = str(Path(posenergy.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import posenergy.cli, sys; "
                f"print(','.join(m for m in {heavy!r} if m in sys.modules))",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == ""
