"""End-to-end command line behaviour, driven through main()."""

import contextlib
import datetime
import hashlib
import io
import json
import math
import os
import random
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
from posenergy.chart import PLOT_LEFT, PLOT_RIGHT, render_chart
from posenergy.cli import build_parser, main
from posenergy.estimator import ConsumptionBand, default_grid, find_baseline_errata, find_errata
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


def write_ols_history(path, seed=2801, days=250):
    """A seeded daily history of the 14 bundled networks: validators = a + b*tps + noise.

    Every value is written as its ``repr``, so the file holds the exact
    floats the generator drew.
    """
    rng = random.Random(seed)
    names = sorted(o.network for o in load_snapshots(bundled("observations.csv")).observations)
    params = [
        (name, rng.uniform(0.5, 500.0), rng.uniform(-5.0, 5.0), rng.uniform(1.0, 50.0))
        for name in names
    ]
    lines = ["network,date,validators,tps\n"]
    first = datetime.date(2022, 1, 1)
    for day in range(days):
        date = first + datetime.timedelta(days=day)
        for name, centre, slope, noise in params:
            tps = centre * rng.uniform(0.5, 1.5)
            validators = max(0, round(4000.0 + slope * tps + rng.gauss(0.0, noise)))
            lines.append(f"{name},{date.isoformat()},{validators},{tps!r}\n")
    path.write_text("".join(lines))


class TestGeneralFitPins:
    """The fit of a 250-day, 14-network history, pinned by the sha256 of its CSV.

    Every golden fit has two points, so these pins are the byte-level check
    of the general least-squares path, at the size the library sweep fits.
    """

    @pytest.mark.parametrize(
        "flags, digest",
        [
            ((), "acb4fe5cf59dddff41ca6e912bf1be247f8e86f48fa33654dc0e1d88e66bd0b4"),
            (("--no-origin",), "1665339558c394ae197ad27f1124fd64a9b12dc9b4e5511748e4c58cce7bb10f"),
        ],
        ids=["origin", "no-origin"],
    )
    def test_csv_digest(self, capsys, tmp_path, flags, digest):
        path = tmp_path / "history.csv"
        write_ols_history(path)
        code, out, err = run(capsys, "fit", "--format", "csv", "--observations", str(path), *flags)
        assert (code, err) == (0, "")
        n_points = [line.split(",")[4] for line in out.splitlines()[1:]]
        assert n_points == ["250" if flags else "251"] * 14
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVaryingChartPins:
    """The chart of the same history, pinned by the sha256 of its output.

    These fits have intercepts near 4,000 validators, so no band run is
    constant and some points are non-physical: the pins hold the path that
    formats every point of a varying run and draws its curved edges. At 200
    points a run is sparser than the canvas, so an edge draws one sample per
    run point; at 2,000 points it draws one per pixel column. At 2,000
    points each band's CSV is one block; at 20,000 points block edges fall
    inside runs.
    """

    @pytest.mark.parametrize(
        "fmt, points, flags, digest",
        [
            ("svg", 200, (), "6d612226cd920dc749e681760ceaa7b92ceb4c089fa644c162dc396656cf93ee"),
            ("svg", 200, ("--no-origin",),
             "d6d1511c4ab4ed8329d96f082207f9296735a4484bf6db45150abb7cfd722ec3"),
            ("csv", 2000, (), "d0770883132812a5f3807aecf491ca62d6b858c4ba9a29ffcd6d3065e71a9afa"),
            ("csv", 2000, ("--no-origin",),
             "f4b485e1c6d23d814c143ced9da2eee1df2aee5ecad843478fc254833bc9c61c"),
            ("svg", 2000, (), "68224f90cbf676cce4fca987478e561e5e6c36a85aa347cbcb8b85787f975696"),
            ("svg", 2000, ("--no-origin",),
             "b6fc594dffbbb7f8384a95ce2f78a6c01c002ce28dc461db6a0d64f65efd46fb"),
            ("csv", 20000, (), "1d16364bf8088143ebd789793587fe2abea30bed3967731bcc19ef346a0edb65"),
            ("csv", 20000, ("--no-origin",),
             "7af2fb25f7544c4fbc86c8fd45ee1523a478c06206c8c6dd463132e366c9e273"),
        ],
        ids=["svg-origin-200", "svg-no-origin-200",
             "csv-origin", "csv-no-origin", "svg-origin", "svg-no-origin",
             "csv-origin-20000", "csv-no-origin-20000"],
    )
    def test_chart_digest(self, capsys, tmp_path, fmt, points, flags, digest):
        path = tmp_path / "history.csv"
        write_ols_history(path)
        argv = ["chart", "--format", fmt, "--points", str(points), "--observations", str(path),
                *flags]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        if fmt == "csv":
            assert ",false\n" in out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("flags", [(), ("--no-origin",)], ids=["origin", "no-origin"])
    def test_svg_edges_at_most_one_vertex_per_pixel_column(self, capsys, tmp_path, flags):
        path = tmp_path / "history.csv"
        write_ols_history(path)
        argv = ["chart", "--format", "svg", "--points", "20000", "--observations", str(path),
                *flags]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        polygons = ElementTree.fromstring(out).iter(f"{SVG}polygon")
        edges = [len(polygon.get("points").split()) // 2 for polygon in polygons]
        assert len(edges) == 14
        assert max(edges) <= math.ceil(PLOT_RIGHT - PLOT_LEFT) + 1


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

    def test_largest_throughputs_priced(self, capsys, tmp_path):
        # 158 validators at 1e305 tx/s: kWh/tx in the subnormal range, not 0
        path = write_near(tmp_path, (158,), ("1e305",))
        argv = ("--observations", str(path), "--network", "near", "--format", "csv")
        code, out, err = run(capsys, "table", *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[1].endswith(",2.41389e-309,3.80956e-308,7.37772e-308")

    def test_largest_draws_priced(self, capsys, tmp_path):
        # 5294 validators at 1e306 W each: 5.3e306 kW, and 1.2e302 kWh/tx at 12.56 tx/s
        path = tmp_path / "bounds.csv"
        path.write_text("network,lower_w,upper_w\nethereum,20.00,1e306\n")
        argv = ("--bounds", str(path), "--network", "ethereum", "--format", "csv")
        code, out, err = run(capsys, "table", *argv)
        assert (code, err) == (0, "")
        row = out.splitlines()[1].split(",")
        assert row[:4] == ["ethereum", "5294", "12.56", "105.88"]
        assert all(math.isfinite(float(cell)) for cell in row[4:6])
        assert float(row[5]) == pytest.approx(5.294e306, rel=1e-12)
        assert row[6:] == ["0.00234165", "5.85412e+301", "1.17082e+302"]

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

    def test_lone_physical_point_neither_drawn_nor_ranged(self, capsys):
        # at 3 points hedera is physical only at 10,000 tps, the grid's top
        argv = ["chart", "--network", "hedera", "--points", "3", "--no-baselines"]
        _, csv_out, _ = run(capsys, *argv)
        assert [line.split(",")[4] for line in csv_out.splitlines()[1:]] == [
            "false", "false", "true"
        ]
        code, out, err = run(capsys, *argv, "--format", "svg")
        assert (code, err) == (0, "")
        root = ElementTree.fromstring(out)
        assert root.findall(f"{SVG}polygon") == []
        # the x axis spans only hedera's markers, at 568.45 tps
        labels = [t.text for t in root.iter(f"{SVG}text") if t.get("text-anchor") == "middle"]
        assert [label for label in labels if label.startswith("1e")] == ["1e2", "1e3"]

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

    def test_csv_written_in_blocks_at_stress_size(self, capsys, chunks):
        code, out, _ = run(capsys, "chart", "--format", "csv", "--points", "20000")
        assert code == 0
        bands = report.chart_bands(BUNDLED_OBSERVATIONS, BUNDLED_PROFILES, n_points=20000)
        assert "".join(chunks) == out == report.chart_csv(
            report.chart_rows(bands, *BASELINE_ELEMENTS)
        )
        blocks = chunks[1:-1]  # between the header and the anchors
        assert len(blocks) == 14 * -(-20000 // report._CHART_BLOCK_ROWS)
        for block in blocks:
            names = {line.split(",")[0] for line in block.splitlines()}
            assert len(names) == 1
            assert block.count("\n") <= report._CHART_BLOCK_ROWS

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
            expected = render_chart(bands, markers + baseline_markers, refs)
        argv = ["chart", "--format", fmt, "--points", str(points)]
        argv += [arg for network in networks for arg in ("--network", network)]
        assert run_main(argv) == (0, expected, "")


class TestNarrowGrid:
    """An --lmin just below polkadot's 1000 tx/s, with 50 points.

    A default grid whose exponent step clears ``2**-40`` times the largest
    exponent magnitude (here 3) is proven increasing; a narrower one is
    walked, as a caller's tuple is, and refused if two items collapse.
    """

    @staticmethod
    def lmin(side):
        return 10.0 ** (3.0 - side * 49 * 2.0**-40 * 3.0)

    @pytest.mark.parametrize("side", [1.01, 0.99], ids=["above-bound", "below-bound"])
    def test_narrow_grid_charts_as_a_tuple_grid(self, capsys, side):
        profile = BUNDLED_PROFILES["polkadot"]
        grid = default_grid(profile, 50, self.lmin(side))
        assert grid.increasing() is (side > 1)
        argv = ["chart", "--network", "polkadot", "--lmin", repr(self.lmin(side)), "--points", "50"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        (fit,) = report.fit_networks(BUNDLED_OBSERVATIONS, ["polkadot"])
        band = ConsumptionBand(fit, profile, tuple(grid))
        assert out == report.chart_csv(report.chart_rows([band], *BASELINE_ELEMENTS))

    def test_collapsing_grid_refused(self, capsys):
        lmin = 1000.0 - 4 * math.ulp(1000.0)
        assert not default_grid(BUNDLED_PROFILES["polkadot"], 50, lmin).increasing()
        argv = ["chart", "--network", "polkadot", "--lmin", repr(lmin), "--points", "50"]
        assert run(capsys, *argv) == (
            1, "", "error: polkadot: band grid must be strictly increasing\n"
        )


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
        assert err == (
            f"error: {path} row 2: validators must be a count in [0, 2**53] for 'visa', got -5\n"
        )

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


def write_near(tmp_path, validators, tps):
    """A snapshot of ``near`` rows on consecutive days, with the given counts and tps."""
    path = tmp_path / "near.csv"
    path.write_text("network,date,validators,tps\n" + "".join(
        f"near,2023-01-0{day},{count},{value}\n"
        for day, (count, value) in enumerate(zip(validators, tps), 1)
    ))
    return path


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
             "[a]: year must be a count in [1, 9999] for 'a', got -40"),
            ("[a]\nyear=10000\namount=1\nunit=TWh\ntps=1\n",
             "[a]: year must be a count in [1, 9999] for 'a', got 10000"),
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
        ],
        ids=["lmin-above-max"],
    )
    def test_grid_refusal_names_network(self, capsys, argv, message):
        assert run(capsys, "chart", *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--points", "1"], "n_points must be a count in [2, 2**53], got 1"),
            (["--lmin", "0"], "min_tps must be finite and positive, got 0.0"),
            (["--lmin", "nan"], "min_tps must be finite and positive, got nan"),
        ],
        ids=["one-point", "zero-lmin", "nan-lmin"],
    )
    def test_grid_argument_refusal_names_no_network(self, capsys, argv, message):
        # the grid's own arguments are refused by core's checkers, for no network
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

    @pytest.mark.parametrize(
        "tps",
        [("1e308", "1.5e308"), ("1e200", "2e200", "3e200")],
        ids=["sum-overflows", "squares-overflow"],
    )
    @pytest.mark.parametrize(
        "argv", [("fit",), ("fit", "--no-origin"), ("chart",)], ids=["fit", "fit-no-origin", "chart"]
    )
    def test_sums_beyond_float_range_fitted(self, capsys, tmp_path, argv, tps):
        path = write_near(tmp_path, (10, 20, 30), tps)
        code, out, err = run(capsys, *argv, "--observations", str(path))
        assert (code, err) == (0, "")
        assert "near" in out

    @pytest.mark.parametrize(
        "argv", [("fit",), ("fit", "--no-origin"), ("chart",)], ids=["fit", "fit-no-origin", "chart"]
    )
    def test_squares_underflowing_to_zero_fitted(self, capsys, tmp_path, argv):
        path = write_near(tmp_path, (10, 20), ("1e-300", "2e-300"))
        code, out, err = run(capsys, *argv, "--observations", str(path))
        assert (code, err) == (0, "")
        assert "near" in out

    @pytest.mark.parametrize(
        "tps, flags, line",
        [
            (("1e308", "1.5e308"), (), "near,-0.7142857143,1.285714286e-307,0.9642857143,3,true"),
            (("1e308", "1.5e308"), ("--no-origin",), "near,-10,2e-307,1,2,false"),
            (("1e200", "2e200", "3e200"), (), "near,0,1e-199,1,4,true"),
            (("1e200", "2e200", "3e200"), ("--no-origin",), "near,0,1e-199,1,3,false"),
            (("1e-300", "2e-300"), (), "near,0,1e+301,1,3,true"),
            (("1e-300", "2e-300"), ("--no-origin",), "near,0,1e+301,1,2,false"),
        ],
        ids=["sum-origin", "sum", "squares-origin", "squares", "tiny-origin", "tiny"],
    )
    def test_wide_throughputs_fit_lines(self, capsys, tmp_path, tps, flags, line):
        path = write_near(tmp_path, (10, 20, 30), tps)
        code, out, err = run(capsys, "fit", "--format", "csv", "--observations", str(path), *flags)
        assert (code, err) == (0, "")
        assert out == f"network,intercept,slope,r2,n_points,origin_included\n{line}\n"

    @pytest.mark.parametrize(
        "argv, count",
        [(("fit",), 3), (("fit", "--no-origin"), 2), (("chart",), 3)],
        ids=["fit", "fit-no-origin", "chart"],
    )
    def test_slope_beyond_float_range_named(self, capsys, tmp_path, argv, count):
        path = write_near(tmp_path, (10, 2**53), ("5e-324", "1e-323"))
        code, out, err = run(capsys, *argv, "--observations", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: near: fitted slope leaves float range ({count} points)\n"

    def test_largest_float_max_tps_charted(self, capsys, tmp_path):
        # an origin fit prices every tps alike, up to the largest float
        path = tmp_path / "profiles.csv"
        path.write_text(f"network,max_tps\nnear,{sys.float_info.max!r}\n")
        argv = ("--profiles", str(path), "--network", "near", "--points", "5", "--no-baselines")
        code, out, err = run(capsys, "chart", *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "near,1.797693135e+308,3.813410567e-05,0.001165516939,true"

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
