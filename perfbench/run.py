"""Run one benchmark workload of the folkmetrics CLI and print its metrics.

    python3 perfbench/run.py --workload spear-tagrich-half --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout: it imports and runs folkmetrics from that
checkout's src/ and writes only under perfbench/.work/. Set-up generates and
writes the workload's corpus three times and reports the median time. With
--trace 0 the workload's command then runs as a subprocess, one at a time,
for as many runs as fit in --seconds of command time, every run's outputs are
checked, and the median of the runs' times is reported. With --trace 1 the
command runs once as a subprocess, to time it untraced, and once in this
process with every layer traced. `--workload all` runs every workload in turn.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ROOT, SRC, WORK, child_env, nproc  # noqa: E402
from perfbench.checks import check_outputs  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, set_up  # noqa: E402

SETUP_REPEATS = 3
STARTUP_REPEATS = 3
# every run of one workload ends well inside the 180 s a run may take
DEADLINE_S = 170.0
CLI = ("-c", "from folkmetrics.cli import main; main()")
# units of the end-to-end metrics, in the JSON line or only printed
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s",
                    "annotations_per_s": "1/s", "error_rate": "ratio"}


def use_checkout_source() -> None:
    """Run folkmetrics from this checkout's src/, never from an installed copy."""
    if not (SRC / "folkmetrics" / "__init__.py").is_file():
        print(f"perfbench: no folkmetrics source at {SRC / 'folkmetrics'}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **{package: metadata.version(package) for package in ("numpy", "scipy", "click")},
        "loadavg": os.getloadavg(),
        "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def run_cli(args: list[str], log: Path, timeout: float) -> tuple[int, float, float, float]:
    """Run the CLI once; return exit status, wall s, user+sys CPU s and peak RSS MiB."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *CLI, *args], stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def _log_tail(log: Path) -> str:
    return log.read_text(encoding="utf-8", errors="replace")[-400:].strip()


def output_files(out: Path) -> dict[str, tuple[int, str]]:
    """Size and sha256 of every file the command wrote under `out`."""
    return {
        str(p.relative_to(out)): (p.stat().st_size, hashlib.sha256(p.read_bytes()).hexdigest())
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def check_run(workload, out: Path, oracle, status: int, log: Path, reference) -> list[str]:
    """Problems with one run: its exit status, its outputs, and identity with a reference run."""
    if status != 0:
        return [f"exit status {status}: {_log_tail(log)}"]
    problems = check_outputs(workload.command, out, oracle)
    if reference is not None and output_files(out) != reference:
        problems.append("outputs are not byte-identical to an earlier run's")
    return problems


def run_plain(workload, seed: int, seconds: float, deadline: float, work: Path) -> dict:
    """Set up, then time the command for as many runs as fit in `seconds`."""
    corpus = work / "corpus.tsv"
    setup_times, oracle = set_up(workload, seed, corpus, SETUP_REPEATS, deadline)
    walls, cpus, rss = [], [], []
    problems: list[str] = []
    failed = 0
    first_files = None
    while True:
        k = len(walls)
        out, log = work / f"run{k}", work / f"run{k}.log"
        out.mkdir()
        status, wall, cpu, peak = run_cli(workload.args(corpus, out), log,
                                          max(deadline - time.monotonic(), 1.0))
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        run_problems = check_run(workload, out, oracle, status, log, first_files)
        if first_files is None and not run_problems:
            first_files = output_files(out)
        if run_problems:
            failed += 1
            problems += [f"run {k}: {p}" for p in run_problems]
        shutil.rmtree(out)
        # stop before a run that would take the measured time past `seconds`
        if sum(walls) + wall > seconds or time.monotonic() + 2 * wall > deadline:
            break
    wall = statistics.median(walls)
    return {
        "attempted": len(walls),
        "failed": failed,
        "problems": problems,
        "metrics": {
            "wall_s": wall,
            "cpu_s": statistics.median(cpus),
            "peak_rss_mib": statistics.median(rss),
            "setup_s": statistics.median(setup_times),
        },
        # wall_s's reciprocal scaled by a constant: printed, not in the JSON
        # line, since gating both would only add false alarms
        "printed": {"annotations_per_s": oracle.annotations / wall},
        "notes": [f"{len(walls)} timed runs; wall_s samples {[round(w, 3) for w in walls]}",
                  f"setup_s samples {[round(t, 3) for t in setup_times]}"],
    }


def import_times(deadline: float) -> tuple[list[tuple[str, float]], float, float]:
    """`python -X importtime` of folkmetrics.cli: top entries, folkmetrics and scipy.stats s."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import folkmetrics.cli"],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    entries = []
    for line in done.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        # the package column is indented two spaces per nesting level
        name = fields[2][1:]
        entries.append((name, int(fields[1]) / 1e6))
    top_level = sum(s for name, s in entries
                    if name == "folkmetrics" or name.startswith("folkmetrics."))
    scipy_stats = next((s for name, s in entries if name.strip() == "scipy.stats"), 0.0)
    top = sorted(((name.strip(), s) for name, s in entries), key=lambda e: -e[1])[:10]
    return top, top_level, scipy_stats


def run_traced(workload, seed: int, deadline: float, work: Path) -> dict:
    """One untraced subprocess run, one traced in-process run, and the start-up probes."""
    corpus = work / "corpus.tsv"
    _, oracle = set_up(workload, seed, corpus, 1, deadline)
    problems: list[str] = []
    failed = 0

    out, log = work / "untraced", work / "untraced.log"
    out.mkdir()
    status, untraced_wall, _, _ = run_cli(workload.args(corpus, out), log,
                                          max(deadline - time.monotonic(), 1.0))
    run_problems = check_run(workload, out, oracle, status, log, None)
    files = output_files(out) if not run_problems else None
    if run_problems:
        failed += 1
        problems += [f"untraced run: {p}" for p in run_problems]

    from folkmetrics import cli

    if Path(cli.__file__).resolve().parent != SRC / "folkmetrics":
        raise SystemExit(f"perfbench: folkmetrics was imported from {cli.__file__}")
    traced = work / "traced"
    traced.mkdir()
    with Tracer() as tracer:
        start = time.perf_counter()
        try:
            cli.main(workload.args(corpus, traced), standalone_mode=False)
            error = None
        # the traced run is this process's boundary: record the failure and go on
        except Exception:  # noqa: BLE001
            error = traceback.format_exc(limit=-4)
        total = time.perf_counter() - start
    run_problems = [f"raised {error}"] if error else check_run(workload, traced, oracle, 0, log,
                                                                files)
    if run_problems:
        failed += 1
        problems += [f"traced run: {p}" for p in run_problems]

    startup = statistics.median(
        run_cli(["--help"], work / "help.log", max(deadline - time.monotonic(), 1.0))[1]
        for _ in range(STARTUP_REPEATS)
    )
    top_imports, import_s, scipy_stats_s = import_times(deadline)

    written = output_files(traced)
    metrics = tracer.metrics(total)
    metrics.update({
        "cli.startup_s": startup,
        "cli.import_s": import_s,
        "cli.import_scipy_stats_s": scipy_stats_s,
        "report.files": len(written),
        "report.bytes_written": sum(size for size, _ in written.values()),
        "trace.total_s": total,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_ratio": (total + startup) / untraced_wall,
    })
    spans = tracer.span_table()
    notes = [f"probe error in {name}: {msg}" for name, msg in tracer.probe_errors.items()]
    notes.append("top imports (cumulative s): "
                 + ", ".join(f"{name} {s:.3f}" for name, s in top_imports))
    notes += [f"span {r['span']}{'[' + r['label'] + ']' if r['label'] else ''}: "
              f"{r['calls']} calls, {r['self_s']:.3f} s self, {r['total_s']:.3f} s total"
              for r in spans[:15]]
    return {"attempted": 2, "failed": failed, "problems": problems, "metrics": metrics,
            "notes": notes, "trace": {"span_table": spans, "spans": tracer.span_log(),
                                      "top_imports": top_imports,
                                      "probe_errors": tracer.probe_errors}}


def unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("bytes_written"):
        return "B"
    return "count"


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        if trace:
            return run_traced(workload, seed, deadline, work)
        return run_plain(workload, seed, seconds, deadline, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="line-order seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=50.0, help="command time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    # unwind on SIGTERM too, so that running children are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if opts.seed < 0:
        parser.error("--seed must be >= 0")
    use_checkout_source()
    if opts.workload == "all":
        names = list(WORKLOADS)
    elif opts.workload in WORKLOADS:
        names = [opts.workload]
    else:
        parser.error(f"unknown workload {opts.workload!r}; choose from {sorted(WORKLOADS)} or all")

    origin = provenance()
    print(f"# provenance {json.dumps(origin, sort_keys=True)}", flush=True)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        result = run_workload(WORKLOADS[name], opts.seed, opts.seconds, bool(opts.trace))
        if "trace" in result:
            trace_file = WORK / f"trace-{name}-seed{opts.seed}.json"
            trace_file.write_text(json.dumps({
                "workload": name, "seed": opts.seed, "provenance": origin,
                "metrics": result["metrics"], **result["trace"],
            }, indent=1) + "\n", encoding="utf-8")
            result["notes"].append(f"trace written to {trace_file.relative_to(ROOT)}")
        attempted += result["attempted"]
        failed += result["failed"]
        for note in result["notes"]:
            print(f"# {name}: {note}")
        for problem in result["problems"]:
            print(f"# {name}: FAILED {problem}")
        for metric, value in result["metrics"].items():
            key = metric if len(names) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": unit(metric)}
        printed = dict(result["metrics"], **result.get("printed", {}),
                       error_rate=result["failed"] / result["attempted"])
        for metric, value in printed.items():
            print(f"{name:<18} {metric:<32} {value:>16.6g} {unit(metric)}")
        print(f"# {name}: {result['failed']} failed of {result['attempted']} attempted", flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
