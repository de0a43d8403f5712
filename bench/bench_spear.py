"""Time the SPEAR stage, step by step, at a base commit and in this checkout.

    python bench/bench_spear.py --base <commit> [--out BENCH_spear.json]

Run from the repository root. The script writes three synthetic corpora with
this checkout's generator into a temporary directory: perfbench's
`spear-tagrich-half` and `spear-tagrich` corpora at seed 1, and c10. It
extracts `src/` of the base commit with `git archive`, and in a fresh
interpreter per run loads a corpus as the `spear` command does and makes one
`spear.user_mean_z` call with the default parameters. Inside that call it
times `eligible_tags`, `credit_batch` and `spear_scores`; the rest of the call
is the z-score and per-user mean step. RUNS runs a side, base and checkout
alternating, and the side that runs first alternating too. It records each
run, the medians, the child's peak RSS, and a digest of
`user_mean_z(...).tobytes()`, which must be equal on both sides. The result
goes to --out as JSON with the git SHAs and the machine (`nproc`, Python,
numpy).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_parse import C10, ROOT, SRC, extract_src, git

RUNS = 5
CORPORA = ("spear-tagrich-half", "spear-tagrich", "c10")
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
        write_annotations(generate_synthetic(SyntheticConfig(**C10)), path)


def time_spear(src: Path, corpus: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, "-c", CHILD, str(src), str(corpus)], env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the commit to compare this checkout with")
    parser.add_argument("--out", default=str(ROOT / "BENCH_spear.json"))
    opts = parser.parse_args(argv)
    import numpy

    result = {
        "what": ("in-process seconds of one spear.user_mean_z call with default parameters and "
                 "of the steps inside it, in a fresh interpreter per run; zscore_mean is the "
                 "call minus its three timed steps; base and change alternate, and so does "
                 "which runs first"),
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
        for name in CORPORA:
            corpus = Path(work) / f"{name}.tsv"
            write_corpus(name, corpus)
            runs = {side: [] for side in sides}
            for k in range(RUNS):
                for side in (("base", "change") if k % 2 == 0 else ("change", "base")):
                    runs[side].append(time_spear(sides[side], corpus))
            digests = {run["digest"] for side in runs.values() for run in side}
            if len(digests) != 1:
                print(f"{name}: base and change score differently", file=sys.stderr)
                return 1
            entry = {"annotations": runs["change"][0]["annotations"], "digest": digests.pop()}
            for side, side_runs in runs.items():
                entry[side] = {"peak_rss_mib": round(statistics.median(
                    run["peak_rss_mib"] for run in side_runs), 1)}
                for step in (*STEPS, "zscore_mean", "user_mean_z"):
                    seconds = [round(run["seconds"][step], 4) for run in side_runs]
                    entry[side][step] = {"seconds": seconds, "median_s": statistics.median(seconds)}
                print(f"{name} {side}: " + ", ".join(
                    f"{step} {entry[side][step]['median_s']} s"
                    for step in (*STEPS, "zscore_mean", "user_mean_z")), flush=True)
            result["corpora"][name] = entry
            corpus.unlink()
    Path(opts.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
