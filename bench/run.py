#!/usr/bin/env python3
"""posenergy benchmark runner (standard library only).

    python3 bench/run.py --workload cli-default --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each was chosen):

* ``cli-default``: cold ``python -m posenergy.cli`` runs of the six default
  invocations, one per op, in a seeded order per cycle.
* ``chart-stress``: one op is a cold ``chart --format csv --points 20000``
  plus a cold ``chart --format svg --points 20000 --out FILE``.
* ``library-sweep``: warm refresh cycles through the public API in one child
  process (bench/sweep.py) over a seeded 250-day observation history.

All run as a closed loop with one client: the next op starts when the last
one has ended. Every output is checked by an oracle (bench/oracles.py); an
op that exits non-zero, raises or is rejected counts as failed.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json, with
times in reference seconds (see REFERENCE_START_S below).
``--trace 1`` alternates untraced and traced cycles and reports the
per-layer metrics: the traced children wrap each layer's entry functions
(bench/tracer.py) and the interpreter and import costs come from control
runs of ``python -c pass`` and ``python -X importtime``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric with its unit. ``--out FILE`` also writes a full record:
every sample count, failed_ops_ratio, the tail percentile where enough
samples exist, layer shares, output hashes and the environment.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import oracles
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "posenergy"
DATA = PACKAGE / "data"
WORK = ROOT / ".bench_work"
PYTHON = sys.executable

WORKLOADS = ("cli-default", "chart-stress", "library-sweep")
CLI_DEFAULT = (
    ("table", "--format", "csv", "--verify"),
    ("fit", "--format", "csv"),
    ("chart", "--format", "csv"),
    ("chart", "--format", "svg"),
    ("baseline", "--verify"),
    ("adjust-solana",),
)
OUT = "{out}"  # stands for a file in the run's work directory
IMPORT_PROBE = "import sys; n = len(sys.modules); import posenergy.cli; print(len(sys.modules) - n)"
# End-to-end times are in reference seconds: each timed sample is divided by
# the mean of the bare interpreter starts timed just before and just after it,
# then multiplied by this constant. The host's speed drifts by tens of percent
# within minutes and adjacent samples drift together, so the ratio stays put
# (see README).
REFERENCE_START_S = 0.05


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, a control run failed)."""


def spawn(cmd: list, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run one child to completion: (wall seconds, exit code, resource usage)."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    started = time.perf_counter()
    proc = subprocess.Popen([str(c) for c in cmd], cwd=ROOT, env=env, stdout=stdout, stderr=stderr)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def probe_start() -> float:
    """Wall seconds of a bare interpreter start.

    Isolated mode ignores PYTHONPATH and the user site, so no repository
    code can change this time; only the machine's speed does.
    """
    return spawn([PYTHON, "-I", "-c", "pass"])[0]


def reference(wall: float, before: float, after: float) -> float:
    """``wall`` in reference seconds, given the starts timed around it."""
    return wall / (before + after) * 2.0 * REFERENCE_START_S


def capture(cmd: list, work: Path):
    """Run a child with stdout and stderr in files: (wall, stdout, stderr, usage)."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        wall, code, usage = spawn(cmd, out, err)
    stdout = out_path.read_text(encoding="utf-8")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    if code != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited {code}: {stderr[-2000:]}")
    return wall, stdout, stderr, usage


def _option(argv: tuple, flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_output(argv: tuple, payload: bytes, data: oracles.Bundled) -> int:
    """Oracle for one CLI output; returns the band points it carries."""
    command, text = argv[0], payload.decode("utf-8")
    if command == "table":
        oracles.check_table_csv(text, data)
    elif command == "fit":
        oracles.check_fit_csv(text, data)
    elif command == "baseline":
        oracles.check_baseline_text(text, data)
    elif command == "adjust-solana":
        oracles.check_adjust_solana_text(text, data)
    elif command == "chart":
        points = int(_option(argv, "--points", "200"))
        if _option(argv, "--format", "csv") == "svg":
            oracles.check_svg(payload)
            return points * len(data.observations)
        return oracles.check_chart_csv(text, data, sorted(data.observations), 0.01, points)
    else:
        raise oracles.OracleError(f"no oracle for {command!r}")
    return 0


class Run:
    """What a workload run leaves for the report, filled in as it goes."""

    starts_per_op = 0  # cold interpreter starts per op

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.args, self.work = args, work
        self.setup_samples: list[tuple[float, float, float]] = []  # (wall, before, after)
        self.last_start = 0.0  # the latest probe_start(), which opens the next sample
        self.errors: list[str] = []
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.hashes: dict[str, set[str]] = {}
        self.generator: dict | None = None


class ColdRun(Run):
    """Closed-loop cold CLI processes, one at a time."""

    def __init__(self, args: argparse.Namespace, work: Path, data: oracles.Bundled) -> None:
        super().__init__(args, work)
        self.data = data
        self.rng = random.Random(args.seed)
        self.starts_per_op = 1 if args.workload == "cli-default" else 2

    def cycle(self) -> list[list[tuple]]:
        """One cycle of ops; each op is a list of CLI invocations."""
        if self.args.workload == "cli-default":
            return [[argv] for argv in self.rng.sample(CLI_DEFAULT, len(CLI_DEFAULT))]
        points = str(self.args.points)
        halves = [
            ("chart", "--format", "csv", "--points", points),
            ("chart", "--format", "svg", "--points", points, "--out", OUT),
        ]
        return [self.rng.sample(halves, 2)]

    def setup(self) -> None:
        """Walls of cold processes that import posenergy.cli and exit."""
        self.last_start = probe_start()
        for _ in range(self.args.repeats):
            wall = capture([PYTHON, "-c", "import posenergy.cli"], self.work)[0]
            before, self.last_start = self.last_start, probe_start()
            self.setup_samples.append((wall, before, self.last_start))

    def op(self, invocations: list[tuple], traced: bool) -> dict:
        wall, ref, rss, points, error = 0.0, 0.0, 0, 0, None
        for argv in invocations:
            out_path, spans_path = self.work / "op.out", self.work / "spans.json"
            stdout_path, stderr_path = self.work / "op.stdout", self.work / "op.stderr"
            for stale in (out_path, spans_path):
                stale.unlink(missing_ok=True)
            concrete = [str(out_path) if a == OUT else a for a in argv]
            if traced:
                cmd = [PYTHON, BENCH / "traced_cli.py", spans_path, *concrete]
            else:
                cmd = [PYTHON, "-m", "posenergy.cli", *concrete]
            with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
                seconds, code, usage = spawn(cmd, out, err)
            before, self.last_start = self.last_start, probe_start()
            wall += seconds
            ref += reference(seconds, before, self.last_start)
            rss = max(rss, usage.ru_maxrss)
            if traced and spans_path.exists():
                trace = json.loads(spans_path.read_text())
                self.self_s.update(tracer.self_times(trace["spans"]))
                self.counts.update(trace["counts"])
            if error:
                continue
            try:
                if code != 0:
                    raise oracles.OracleError(
                        f"exit {code}: {stderr_path.read_text(errors='replace')[-500:]}"
                    )
                payload = (out_path if OUT in argv else stdout_path).read_bytes()
                self.hashes.setdefault(" ".join(argv), set()).add(hashlib.sha256(payload).hexdigest())
                points += check_output(argv, payload, self.data)
            except Exception as exc:  # rejected or unreadable output fails the op
                error = f"{' '.join(argv)}: {type(exc).__name__}: {exc}"
        if error:
            self.errors.append(error)
        return {"wall": wall, "ref": ref, "traced": traced, "ok": error is None,
                "band_points": 0 if error else points, "rss_kb": rss}

    def run(self) -> list[dict]:
        ops: list[dict] = []
        costs: list[float] = []
        self.last_start = probe_start()
        start = time.perf_counter()
        # Whole cycles only; a traced run alternates untraced and traced cycles.
        while len(costs) < 1 + self.args.trace or (
            time.perf_counter() - start + statistics.median(costs) <= self.args.seconds
        ):
            cycle_start = time.perf_counter()
            traced = bool(self.args.trace) and len(costs) % 2 == 1
            ops.extend(self.op(invocations, traced) for invocations in self.cycle())
            costs.append(time.perf_counter() - cycle_start)
        return ops


class LibraryRun(Run):
    """The warm library-sweep child (bench/sweep.py) and its set-up repeats."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        super().__init__(args, work)
        self.base = [PYTHON, BENCH / "sweep.py", "--seed", args.seed, "--days", args.days,
                     "--work", work, "--data", DATA]
        self.new_modules = 0

    def setup(self) -> None:
        """Set-up-only children; the op child adds one more sample."""
        for _ in range(self.args.repeats - 1):
            before = probe_start()
            _, stdout, _, _ = capture([*self.base, "--seconds", 0, "--setup-only"], self.work)
            done = json.loads(stdout)
            self.setup_samples.append((done["setup_s"], before, done["start_s"]))

    def run(self) -> list[dict]:
        before = probe_start()
        _, stdout, _, usage = capture(
            [*self.base, "--seconds", self.args.seconds, "--trace", self.args.trace], self.work
        )
        result = json.loads(stdout.splitlines()[-1])
        self.setup_samples.append((result["setup_s"], before, result["start_s"]))
        self.errors = [message for _, message in result["errors"]]
        self.self_s = tracer.self_times(result["spans"])
        self.counts = Counter(result["counts"])
        self.new_modules = result["new_modules"]
        self.generator = result["generator"]
        failed = {index for index, _ in result["errors"]}
        return [
            {"wall": wall, "ref": reference(wall, before, after), "traced": traced,
             "ok": index not in failed, "band_points": points, "rss_kb": usage.ru_maxrss}
            for index, (wall, before, after, traced, points) in enumerate(zip(
                result["walls"], [result["start_s"]] + result["starts"], result["starts"],
                result["traced"], result["band_points"]))
        ]


def interpreter_controls(work: Path, repeats: int) -> dict[str, float]:
    """Medians of ``python -c pass`` and of ``-X importtime`` on posenergy.cli."""
    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        samples.setdefault("interp.start_s", []).append(capture([PYTHON, "-c", "pass"], work)[0])
        _, stdout, stderr, _ = capture([PYTHON, "-X", "importtime", "-c", IMPORT_PROBE], work)
        for key, value in parse_importtime(stderr).items():
            samples.setdefault(key, []).append(value)
        samples.setdefault("import.modules", []).append(float(stdout.split()[-1]))
    return {key: statistics.median(values) for key, values in samples.items()}


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing posenergy.cli, and within it numpy and requests."""
    total = 0.0
    found = {"numpy": 0.0, "requests": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        package = name[1:]
        stripped = package.strip()
        if package == stripped and stripped.split(".")[0] == "posenergy":
            total += int(cumulative) / 1e6
        if stripped in found and not found[stripped]:
            found[stripped] = int(cumulative) / 1e6
    return {
        "import.total_s": total,
        "import.numpy_s": found["numpy"],
        "import.requests_s": found["requests"],
        "import.posenergy_s": total - found["numpy"] - found["requests"],
    }


def end_to_end(setup: list[tuple[float, float, float]], ops: list[dict]) -> dict[str, float]:
    """Declared metrics in reference seconds, and the raw seconds (``raw.*``)."""
    timed = [op for op in ops if not op["traced"]]
    points = sum(op["band_points"] for op in timed)
    metrics = {}
    for prefix, key, setup_s in (
        ("", "ref", [reference(*sample) for sample in setup]),
        ("raw.", "wall", [sample[0] for sample in setup]),
    ):
        walls = [op[key] for op in timed]
        busy = sum(walls)
        metrics.update({
            f"{prefix}setup_s": statistics.median(setup_s),
            f"{prefix}op_wall_s.p50": statistics.median(walls),
            f"{prefix}ops_per_s": len(walls) / busy,
            f"{prefix}band_points_per_s": points / busy,
        })
        if len(walls) >= 100:  # at least ten samples lie beyond the 90th percentile
            metrics[f"{prefix}op_wall_s.p90"] = statistics.quantiles(walls, n=10)[-1]
    metrics.update({
        "peak_rss_mb": max(op["rss_kb"] for op in timed) / 1024.0,
        "failed_ops_ratio": sum(not op["ok"] for op in ops) / len(ops),
        "samples": len(timed),
        "probe_start_s": statistics.median(
            op["wall"] / op["ref"] * REFERENCE_START_S for op in timed
        ),
    })
    return metrics


def per_layer(ops: list[dict], run: Run, controls: dict[str, float]) -> dict[str, float]:
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    n = len(traced)
    counts, self_s = run.counts, run.self_s
    metrics = {key: value for key, value in controls.items() if key != "import.modules"}
    if isinstance(run, LibraryRun):
        metrics["import.modules_per_op"] = run.new_modules / len(ops)
    else:
        metrics["import.modules_per_op"] = controls["import.modules"] * run.starts_per_op
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer] / n
    snapshot_rows, band_points = counts["ingestion.snapshot_rows"], counts["estimator.band_points"]
    metrics.update({
        "cli.out_bytes": counts["cli.out_bytes"] / n,
        "ingestion.rows_in": (snapshot_rows + counts["ingestion.rows_in"]) / n,
        "ingestion.rows_out": counts["ingestion.rows_out"] / n,
        "ingestion.observations_ratio":
            counts["ingestion.observations"] / snapshot_rows if snapshot_rows else 0.0,
        "regression.fits": counts["regression.fits"] / n,
        "regression.points": counts["regression.points"] / n,
        "estimator.band_points": band_points / n,
        "estimator.physical_ratio":
            counts["estimator.physical_points"] / band_points if band_points else 0.0,
        "report.rows_out": counts["report.rows_out"] / n,
        "chart.svg_bytes": counts["chart.svg_bytes"] / n,
        # in reference seconds, like op_wall_s.p50, so machine drift cancels
        "trace.overhead_s": statistics.median(op["ref"] for op in traced)
        - statistics.median(op["ref"] for op in untraced),
        "traced_samples": n,
    })
    package_self = sum(self_s[layer] for layer in tracer.LAYERS)
    for layer in tracer.LAYERS:
        metrics[f"{layer}.share"] = self_s[layer] / package_self if package_self else 0.0
    p50 = statistics.median(op["wall"] for op in untraced)
    metrics["bench.self_s"] = self_s["bench"] / n
    metrics["trace.count_s"] = self_s["trace"] / n
    metrics["check.process_share_of_p50"] = (
        (controls["interp.start_s"] + controls["import.total_s"]) * run.starts_per_op / p50
    )
    metrics["check.compute_share_of_p50"] = sum(
        metrics[f"{layer}.self_s"] for layer in ("estimator", "report", "chart")) / p50
    return metrics


def _dist_version(name: str) -> str | None:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args: argparse.Namespace, ops: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "numpy": _dist_version("numpy"),
        "requests": _dist_version("requests"),
        "commit": git_commit(),
        "seed": args.seed,
        "runs": 1,
        "ops_per_run": ops,
    }


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="posenergy benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record here")
    parser.add_argument("--points", type=int, default=20000, help="chart-stress grid points")
    parser.add_argument("--days", type=int, default=250, help="library-sweep window in days")
    parser.add_argument("--repeats", type=int, default=5,
                        help="set-up and control samples per run (median reported)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no posenergy source tree at {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        compileall.compile_dir(PACKAGE, quiet=1)
        found = capture([PYTHON, "-c", "import posenergy; print(posenergy.__file__)"], work)[1]
        if Path(found.strip()).resolve() != (PACKAGE / "__init__.py").resolve():
            raise BenchError(f"posenergy resolves to {found.strip()}, not {PACKAGE}")
        data = oracles.Bundled(DATA)
        run = LibraryRun(args, work) if args.workload == "library-sweep" else ColdRun(args, work, data)
        if not args.trace:
            run.setup()
        ops = run.run()
        if args.trace:
            metrics = per_layer(ops, run, interpreter_controls(work, args.repeats))
        else:
            metrics = end_to_end(run.setup_samples, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    failed = sum(not op["ok"] for op in ops)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "errors": run.errors[:20],
        "sha256": {key: sorted(values) for key, values in run.hashes.items()},
        "generator": run.generator,
        "env": environment(args, len(ops)),
    }
    for name, value in metrics.items():
        print(f"{name} {value!r} {declared.get(name, '')}".rstrip())
    for error in record["errors"]:
        print(f"failed: {error}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
