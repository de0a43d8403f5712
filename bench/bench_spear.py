"""Time the SPEAR stage, step by step, at a base commit and in this checkout.

    python bench/bench_spear.py --base <commit> [--scale 10] [--out BENCH_spear.json]

Run from the repository root. The script writes three synthetic corpora with
this checkout's generator into a temporary directory: perfbench's
`spear-tagrich-half` and `spear-tagrich` corpora at seed 1, and c10. A child
process writes each, so the script itself stays small (see
bench_parse.in_child). It extracts `src/` of the base commit with
`git archive`. Each run of a side starts two fresh interpreters:
- one loads a corpus as the `spear` command does and makes one
  `spear.user_mean_z` call with the default parameters. Inside that call it
  times `eligible_tags`, `credit_batch` and `spear_scores`, each summed over
  its calls; the rest of the call is grouping the rows by tag, the z-score
  and the per-user mean step. It records the child's peak RSS and a digest
  of `user_mean_z(...).tobytes()`;
- one runs the CLI `spear` command, started with `os.posix_spawn` and read
  with `os.wait4` for its wall time and peak RSS.

RUNS runs a side, base and checkout alternating, and the side that runs first
alternating too. With `--scale 10` it also runs the CLI `report` once a side on
c10x10 (c10's arguments times ten), the same way. It records each run and the
medians, and the digests of the scores and of what the commands wrote, each of
which must be equal on both sides. The result goes to --out as JSON with the
git SHAs and the machine (`nproc`, Python, numpy).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_parse import C10, ROOT, SRC, extract_src, git, in_child
from bench_synth import C10X10

RUNS = 5
CORPORA = ("spear-tagrich-half", "spear-tagrich", "c10")
CONFIGS = {"c10": C10, "c10x10": C10X10}
STEPS = ("eligible_tags", "credit_batch", "spear_scores")

# One timed user_mean_z call in a fresh interpreter: argv is the src/ directory and the corpus.
CHILD = """
import hashlib, json, resource, sys, time, warnings
sys.path.insert(0, sys.argv[1])
from folkmetrics import spear
from folkmetrics.corpus import build_index, parse_annotations
index = build_index(parse_annotations(sys.argv[2]).annotations)
seconds = {}

def timed(name, function):
    def call(*args, **kwargs):
        start = time.perf_counter()
        result = function(*args, **kwargs)
        seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - start
        return result
    return call

for name in STEPS:
    setattr(spear, name, timed(name, getattr(spear, name)))
warnings.simplefilter("ignore")
start = time.perf_counter()
mean_z = spear.user_mean_z(index)
seconds["user_mean_z"] = time.perf_counter() - start
seconds["zscore_mean"] = seconds["user_mean_z"] - sum(seconds[name] for name in STEPS)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "peak_rss_mib": peak, "annotations": index.n_annotations,
                  "digest": hashlib.sha256(mean_z.tobytes()).hexdigest()}))
""".replace("STEPS", repr(STEPS))


def write_corpus(name: str, path: Path) -> None:
    """The named corpus, written by this checkout's generator."""
    for entry in (str(ROOT), str(SRC)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from folkmetrics.corpus import SyntheticConfig, generate_synthetic, write_annotations
    from perfbench.workloads import WORKLOADS
    from perfbench.workloads import write_corpus as write_workload_corpus

    if name in WORKLOADS:
        write_workload_corpus(WORKLOADS[name], 1, path)
    else:
        write_annotations(generate_synthetic(SyntheticConfig(**CONFIGS[name])), path)


def time_spear(src: Path, corpus: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, "-c", CHILD, str(src), str(corpus)], env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def digest_of(path: Path) -> str:
    """The sha256 of a file, or of a directory's files by name."""
    digest = hashlib.sha256()
    for part in sorted(path.iterdir()) if path.is_dir() else [path]:
        digest.update(part.name.encode() + b"\0" + part.read_bytes())
    return digest.hexdigest()


def cli_run(src: Path, args: list, out: Path) -> dict:
    """Wall time and peak RSS of one CLI run that writes out, and the digest of out."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "folkmetrics.cli", *args]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{args[0]} exited {os.waitstatus_to_exitcode(status)}")
    digest = digest_of(out)
    shutil.rmtree(out) if out.is_dir() else out.unlink()
    return {"wall_s": wall, "peak_rss_mib": usage.ru_maxrss / 1024, "digest": digest}


def median_entry(runs: list[dict]) -> dict:
    return {metric: {"runs": [round(run[metric], 4) for run in runs],
                     "median": round(statistics.median(run[metric] for run in runs), 4)}
            for metric in ("wall_s", "peak_rss_mib")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the commit to compare this checkout with")
    parser.add_argument("--scale", type=int, choices=(1, 10), default=1,
                        help="10 adds one CLI report run a side on c10x10")
    parser.add_argument("--out", default=str(ROOT / "BENCH_spear.json"))
    opts = parser.parse_args(argv)
    import numpy

    result = {
        "what": ("in-process seconds of one spear.user_mean_z call with default parameters and "
                 "of the steps inside it, in a fresh interpreter per run; zscore_mean is the "
                 "call minus its three timed steps; cli_spear (and cli_report on c10x10) is "
                 "the command's wall time and peak RSS (os.posix_spawn, os.wait4); base and "
                 "change alternate, and so does which runs first"),
        "base": {"sha": git("rev-parse", opts.base)},
        "change": {"sha": git("rev-parse", "HEAD"),
                   "uncommitted_src": bool(git("status", "--porcelain", "--", "src"))},
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__},
        "runs": RUNS,
        "corpora": {},
    }
    with tempfile.TemporaryDirectory() as work:
        sides = {"base": extract_src(opts.base, Path(work) / "base"), "change": SRC}
        out = Path(work) / "out"
        for name in CORPORA:
            corpus = Path(work) / f"{name}.tsv"
            in_child("bench_spear", "write_corpus", name, str(corpus))
            runs = {side: [] for side in sides}
            cli = {side: [] for side in sides}
            for k in range(RUNS):
                for side in (("base", "change") if k % 2 == 0 else ("change", "base")):
                    runs[side].append(time_spear(sides[side], corpus))
                    cli[side].append(cli_run(sides[side], ["spear", str(corpus), "--out", str(out)],
                                             out))
            digests = {run["digest"] for side in runs.values() for run in side}
            cli_digests = {run["digest"] for side in cli.values() for run in side}
            if len(digests) != 1 or len(cli_digests) != 1:
                print(f"{name}: base and change score differently", file=sys.stderr)
                return 1
            entry = {"annotations": runs["change"][0]["annotations"], "digest": digests.pop(),
                     "cli_digest": cli_digests.pop()}
            for side, side_runs in runs.items():
                entry[side] = {"peak_rss_mib": round(statistics.median(
                    run["peak_rss_mib"] for run in side_runs), 1),
                    "cli_spear": median_entry(cli[side])}
                for step in (*STEPS, "zscore_mean", "user_mean_z"):
                    seconds = [round(run["seconds"][step], 4) for run in side_runs]
                    entry[side][step] = {"seconds": seconds, "median_s": statistics.median(seconds)}
                print(f"{name} {side}: " + ", ".join(
                    f"{step} {entry[side][step]['median_s']} s"
                    for step in (*STEPS, "zscore_mean", "user_mean_z"))
                    + f", {entry[side]['peak_rss_mib']} MiB; CLI spear "
                    f"{entry[side]['cli_spear']['wall_s']['median']} s, "
                    f"{entry[side]['cli_spear']['peak_rss_mib']['median']} MiB", flush=True)
            result["corpora"][name] = entry
            corpus.unlink()
        if opts.scale == 10:
            corpus = Path(work) / "c10x10.tsv"
            in_child("bench_spear", "write_corpus", "c10x10", str(corpus))
            reports = {side: cli_run(sides[side], ["report", str(corpus), "--out-dir", str(out)],
                                     out) for side in sides}
            if len({run["digest"] for run in reports.values()}) != 1:
                print("c10x10: base and change write different bundles", file=sys.stderr)
                return 1
            result["c10x10_report"] = {"bundle_digest": reports["base"]["digest"], **{
                side: {key: round(run[key], 2) for key in ("wall_s", "peak_rss_mib")}
                for side, run in reports.items()}}
            print(f"c10x10 report: {result['c10x10_report']}", flush=True)
            corpus.unlink()
    Path(opts.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
