"""Time the CLI `synth` command end to end, at a base commit and in this checkout.

    python bench/bench_synth.py --base <commit> [--out BENCH_synth.json]

Run from the repository root. The script extracts `src/` of the base commit
with `git archive`, and runs `python -m folkmetrics.cli synth` with c10's
arguments in a fresh interpreter per run, writing the corpus into a temporary
directory. RUNS runs a side, base and checkout alternating, and the side that
runs first alternating too. It records each run's wall time and the child's
peak RSS, their medians, and the sha256 of the written corpus, which must be
equal on both sides. It then runs the checkout alone on c10x10 (c10's
arguments times ten, 10,118,827 annotations) TEN_RUNS times, and checks it
against c10's gates of 60 s and 2 GB. The result goes to --out as JSON with
the git SHAs and the machine (`nproc`, Python, numpy).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_parse import C10, ROOT, SRC, extract_src, git

RUNS = 5
TEN_RUNS = 3
C10X10 = dict(C10, n_users=1_400_000, n_items=1_000_000, n_tags=50_000)
GATES = {"wall_s": 60.0, "peak_rss_mib": 2048.0}


def synth_args(config: dict) -> list[str]:
    return ["synth", "--users", str(config["n_users"]), "--items", str(config["n_items"]),
            "--tags", str(config["n_tags"]), "--activity-exponent",
            str(config["activity_exponent"]), "--seed", str(config["seed"])]


def time_synth(src: Path, config: dict, out: Path) -> dict:
    """Wall time and peak RSS of one `synth` run, and the digest of what it wrote."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(src))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "folkmetrics.cli", *synth_args(config),
                              "--out", str(out)], env=env)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    # wait4 reaped the child, so Popen must not wait for it again
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise RuntimeError(f"synth exited {child.returncode}")
    digest, lines = hashlib.sha256(), 0
    with open(out, "rb") as fh:
        while block := fh.read(1 << 24):
            digest.update(block)
            lines += block.count(b"\n")
    out.unlink()
    return {"wall_s": round(wall, 3), "peak_rss_mib": round(usage.ru_maxrss / 1024, 1),
            "annotations": lines, "digest": digest.hexdigest()}


def summarize(runs: list[dict]) -> dict:
    return {key: {"runs": [run[key] for run in runs],
                  "median": statistics.median(run[key] for run in runs)}
            for key in ("wall_s", "peak_rss_mib")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the commit to compare this checkout with")
    parser.add_argument("--out", default=str(ROOT / "BENCH_synth.json"))
    opts = parser.parse_args(argv)
    import numpy

    result = {
        "what": ("wall seconds and peak RSS of `python -m folkmetrics.cli synth ... --out FILE` "
                 "in a fresh interpreter per run, start-up and import included; base and change "
                 "alternate on c10, and so does which runs first; c10x10 runs the change alone"),
        "base": {"sha": git("rev-parse", opts.base)},
        "change": {"sha": git("rev-parse", "HEAD"),
                   "uncommitted_src": bool(git("status", "--porcelain", "--", "src"))},
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__},
        "runs": RUNS,
        "corpora": {},
    }
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "corpus.tsv"
        sides = {"base": extract_src(opts.base, Path(work) / "base"), "change": SRC}
        runs = {side: [] for side in sides}
        for k in range(RUNS):
            for side in (("base", "change") if k % 2 == 0 else ("change", "base")):
                runs[side].append(time_synth(sides[side], C10, out))
        digests = {run["digest"] for side in runs.values() for run in side}
        if len(digests) != 1:
            print("c10: base and change write different corpora", file=sys.stderr)
            return 1
        entry = {"config": C10, "annotations": runs["change"][0]["annotations"],
                 "sha256": digests.pop()}
        for side, side_runs in runs.items():
            entry[side] = summarize(side_runs)
            print(f"c10 {side}: {entry[side]['wall_s']['median']} s, "
                  f"{entry[side]['peak_rss_mib']['median']} MiB", flush=True)
        result["corpora"]["c10"] = entry

        ten = [time_synth(SRC, C10X10, out) for _ in range(TEN_RUNS)]
        if len({run["digest"] for run in ten}) != 1:
            print("c10x10: runs write different corpora", file=sys.stderr)
            return 1
        entry = {"config": C10X10, "annotations": ten[0]["annotations"],
                 "sha256": ten[0]["digest"], "change": summarize(ten)}
        entry["within_gates"] = all(max(run[key] for run in ten) <= gate
                                    for key, gate in GATES.items())
        print(f"c10x10 change: {entry['change']['wall_s']['median']} s, "
              f"{entry['change']['peak_rss_mib']['median']} MiB", flush=True)
        result["corpora"]["c10x10"] = entry
    Path(opts.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
