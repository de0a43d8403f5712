"""Time tag co-occurrence (`taxonomy.conditional_table`) at a base commit and in this checkout.

    python bench/bench_taxonomy.py --base <commit> [--scale 10] [--out BENCH_taxonomy.json]

Run from the repository root. The script writes three synthetic corpora with
this checkout's generator into a temporary directory: c10; perfbench's
`spear-tagrich` corpus at seed 1; and c10-tpi400, c10 with up to 400 tags on
an item (`tags_per_item=400`), as in a broad folksonomy. A child process
writes each, so the script itself stays small (see bench_parse.in_child).
It extracts `src/`
of the base commit with `git archive`. Each run of a side starts two fresh
interpreters:
- one loads the corpus as the `taxonomy` command does, builds the eligible
  tags and the index's `item_tags`, and calls `conditional_table` with the
  default parameters three times: the first call (first_s, which includes any
  import it makes), a second one (warm_s), and a third one under
  `tracemalloc` (traced_peak_mib);
- one runs the CLI `taxonomy` command, started with `os.posix_spawn` and read
  with `os.wait4` for its wall time and peak RSS.

RUNS runs a side, base and checkout alternating, and the side that runs first
alternating too. With `--scale 10` it also makes the in-process runs on
c10x10 (c10's arguments times ten). It records each run and the medians, and
a digest of the table (its pairs in (a, b) order) and of the command's
output, each of which must be equal on both sides. The result goes to --out
as JSON with the git SHAs and the machine (`nproc`, Python, numpy, scipy).
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
from importlib import metadata
from pathlib import Path

from bench_parse import C10, ROOT, SRC, extract_src, git, in_child
from bench_parse import write_corpus as write_config_corpus
from bench_spear import write_corpus as write_workload_corpus
from bench_synth import C10X10

RUNS = 5
# a config for the generator, or None for the perfbench workload of that name
CORPORA = {"c10": C10, "spear-tagrich": None, "c10-tpi400": dict(C10, tags_per_item=400)}
SCALED = {"c10x10": C10X10}

# Three conditional_table calls in a fresh interpreter: argv is the src/ directory and the corpus.
CHILD = """
import hashlib, json, sys, time, tracemalloc
sys.path.insert(0, sys.argv[1])
import numpy as np
from folkmetrics import spear, taxonomy
from folkmetrics.corpus import build_index, parse_annotations
index = build_index(parse_annotations(sys.argv[2]).annotations)
tags = spear.eligible_tags(index)
index.item_tags
seconds = []
for _ in range(2):
    start = time.perf_counter()
    table = taxonomy.conditional_table(index, tags)
    seconds.append(time.perf_counter() - start)
tracemalloc.start()
taxonomy.conditional_table(index, tags)
peak = tracemalloc.get_traced_memory()[1] / 2**20
tracemalloc.stop()
order = np.lexsort((table.b, table.a))
digest = hashlib.sha256()
for column in (table.tags, table.tag_items, table.a[order], table.b[order], table.support[order]):
    digest.update(column.astype(np.int64).tobytes())
for column in (table.p_ab[order], table.p_ba[order]):
    digest.update(column.tobytes())
print(json.dumps({"first_s": seconds[0], "warm_s": seconds[1], "traced_peak_mib": peak,
                  "annotations": index.n_annotations, "eligible_tags": len(tags),
                  "pairs": len(table.a), "digest": digest.hexdigest()}))
"""


def write_corpus(name: str, path: Path) -> None:
    """The named corpus, written by this checkout's generator."""
    config = {**CORPORA, **SCALED}[name]
    if config is None:
        write_workload_corpus(name, path)
    else:
        write_config_corpus(config, path)


def in_process(src: Path, corpus: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, "-c", CHILD, str(src), str(corpus)], env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def cli_taxonomy(src: Path, corpus: Path, out: Path) -> dict:
    """Wall time and peak RSS of one CLI `taxonomy` run, and the digest of what it wrote."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "folkmetrics.cli", "taxonomy", str(corpus), "--out", str(out)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"taxonomy exited {os.waitstatus_to_exitcode(status)}")
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    out.unlink()
    return {"wall_s": wall, "peak_rss_mib": usage.ru_maxrss / 1024, "digest": digest}


def median_entry(runs: list[dict], metrics: tuple) -> dict:
    return {metric: {"runs": [round(run[metric], 4) for run in runs],
                     "median": round(statistics.median(run[metric] for run in runs), 4)}
            for metric in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the commit to compare this checkout with")
    parser.add_argument("--scale", type=int, choices=(1, 10), default=1,
                        help="10 adds in-process runs on c10x10")
    parser.add_argument("--out", default=str(ROOT / "BENCH_taxonomy.json"))
    opts = parser.parse_args(argv)

    result = {
        "what": ("conditional_table with default parameters in a fresh interpreter per run, "
                 "item_tags built: first_s is the first call, warm_s the second, "
                 "traced_peak_mib the tracemalloc peak of a third; the CLI taxonomy command's "
                 "wall time and peak RSS (os.posix_spawn, os.wait4); base and change "
                 "alternate, and so does which runs first"),
        "base": {"sha": git("rev-parse", opts.base)},
        "change": {"sha": git("rev-parse", "HEAD"),
                   "uncommitted_src": bool(git("status", "--porcelain", "--", "src"))},
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")},
        "runs": RUNS,
        "corpora": {},
    }
    corpora = [*CORPORA, *(SCALED if opts.scale == 10 else ())]
    with tempfile.TemporaryDirectory() as work:
        sides = {"base": extract_src(opts.base, Path(work) / "base"), "change": SRC}
        for name in corpora:
            with_cli = name in CORPORA
            corpus = Path(work) / f"{name}.tsv"
            in_child("bench_taxonomy", "write_corpus", name, str(corpus))
            runs = {side: {"table": [], "cli": []} for side in sides}
            for k in range(RUNS):
                for side in (("base", "change") if k % 2 == 0 else ("change", "base")):
                    runs[side]["table"].append(in_process(sides[side], corpus))
                    if with_cli:
                        runs[side]["cli"].append(
                            cli_taxonomy(sides[side], corpus, Path(work) / "forest.json"))
            first = runs["change"]["table"][0]
            entry = {key: first[key] for key in ("annotations", "eligible_tags", "pairs")}
            for part in ("table", "cli"):
                digests = {run["digest"] for side in runs.values() for run in side[part]}
                if len(digests) > 1:
                    print(f"{name}: base and change differ in {part}", file=sys.stderr)
                    return 1
                if digests:
                    entry[f"{part}_digest"] = digests.pop()
            for side, side_runs in runs.items():
                entry[side] = {"conditional_table": median_entry(
                    side_runs["table"], ("first_s", "warm_s", "traced_peak_mib"))}
                if with_cli:
                    entry[side]["cli_taxonomy"] = median_entry(
                        side_runs["cli"], ("wall_s", "peak_rss_mib"))
                table = entry[side]["conditional_table"]
                print(f"{name} {side}: first {table['first_s']['median']} s, warm "
                      f"{table['warm_s']['median']} s, traced "
                      f"{table['traced_peak_mib']['median']} MiB" + (
                          f"; CLI {entry[side]['cli_taxonomy']['wall_s']['median']} s, "
                          f"{entry[side]['cli_taxonomy']['peak_rss_mib']['median']} MiB"
                          if with_cli else ""), flush=True)
            result["corpora"][name] = entry
            corpus.unlink()
    Path(opts.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
