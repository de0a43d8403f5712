"""Time the parse and the dedupe at three corpus sizes, at a base commit and in this checkout.

    python bench/bench_parse.py --base <commit> [--out BENCH_parse.json]

Run from the repository root. The script writes the synthetic corpora
(quarter-c10, c10 and c10x3: c10's arguments divided or multiplied as below;
c10-malformed: c10 with a truncated line after every 60,000th line;
c10-ns: c10 with each time t written as the 19 digits "17%017d" % t, a log
in nanoseconds since the epoch whose times keep their order; and c10-wide: c10 with
"user_" before each user name and "https://example.org/item/" before each item
name, 12- and 32-byte names as in a crawled log) with this checkout's generator
into a temporary directory, each in a child process so that the script itself
stays small (see in_child), extracts `src/` of the base commit with
`git archive`, and times one `parse_annotations` call on
each corpus in a fresh interpreter per run, then one
`build_index(annotations, dedupe=True)` on its result, RUNS runs a side, base
and checkout alternating, and the side that runs first alternating too. It
records each run and the medians of both steps, the child's peak RSS (after
both), and a digest of the parsed and the deduped columns, which must be equal
on both sides. The result goes to --out as JSON with the git SHAs and the
machine (`nproc`, Python, numpy).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

RUNS = 3
C10 = dict(n_users=140_000, n_items=100_000, n_tags=5_000, activity_exponent=2.0, seed=1234)
CORPORA = {
    "quarter-c10": dict(C10, n_users=35_000, n_items=25_000, n_tags=1_250),
    "c10": C10,
    "c10-malformed": C10,
    "c10-ns": C10,
    "c10-wide": C10,
    "c10x3": dict(C10, n_users=420_000, n_items=300_000, n_tags=15_000),
}
# a truncated record (three fields) after every this many lines
MALFORMED_EVERY = {"c10-malformed": 60_000}
# each time t written as TIME_FORMAT % t
TIME_FORMAT = {"c10-ns": "17%017d"}
# the user and the item name of each line written after these prefixes
PREFIXES = {"c10-wide": ("user_", "https://example.org/item/")}

# One timed parse and dedupe in a fresh interpreter: argv is the src/ directory and the corpus.
CHILD = """
import hashlib, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from folkmetrics.corpus import build_index, parse_annotations
start = time.perf_counter()
parsed = parse_annotations(sys.argv[2])
seconds = time.perf_counter() - start
c = parsed.annotations
start = time.perf_counter()
d = build_index(c, dedupe=True).columns
dedupe_seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
digest = hashlib.sha256()
for column in (c.user, c.item, c.tag, c.time, d.user, d.item, d.tag, d.time):
    digest.update(str(column.dtype).encode() + column.tobytes())
for names in (c.users, c.items, c.tags):
    digest.update("\\n".join(names).encode() + b"\\0")
print(json.dumps({"seconds": seconds, "dedupe_seconds": dedupe_seconds, "peak_rss_mib": peak,
                  "annotations": len(c), "deduped": len(d), "malformed": parsed.malformed,
                  "digest": digest.hexdigest()}))
"""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract_src(commit: str, dest: Path) -> Path:
    """src/ of the commit, written under dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit, "src"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def in_child(module: str, function: str, *args) -> None:
    """module.function(*args) called in a child process, the arguments passed as JSON. exec
    records the high-water mark of the memory it replaces, so a child spawned while this
    process is large reports this process's peak RSS as its own: the generator's memory must
    never be this process's."""
    code = (f"import json, sys; from {module} import {function}; "
            f"{function}(*json.loads(sys.argv[1]))")
    subprocess.run([sys.executable, "-c", code, json.dumps(args)], check=True,
                   cwd=Path(__file__).resolve().parent)


def write_corpus(config: dict, path, malformed_every: int = 0,
                 time_format: str = "", prefixes: tuple = ()) -> None:
    """The synthetic corpus of config, written to path by this checkout's generator, with a
    truncated record after every malformed_every lines if that is not 0, each time t written as
    time_format % t if that is not empty, and each user and item name after the two prefixes
    if they are given."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from folkmetrics.corpus import SyntheticConfig, generate_synthetic, write_annotations

    path, prefixes = Path(path), [prefix.encode() for prefix in prefixes]
    write_annotations(generate_synthetic(SyntheticConfig(**config)), path)
    if malformed_every or time_format or prefixes:
        clean = path.with_suffix(".clean")
        path.rename(clean)
        with open(clean, "rb") as lines, open(path, "wb") as dest:
            for k, line in enumerate(lines, 1):
                if time_format:
                    names, _, time = line.rpartition(b"\t")
                    line = b"%s\t%s\n" % (names, (time_format % int(time)).encode())
                if prefixes:
                    user, item, rest = line.split(b"\t", 2)
                    line = b"%s%s\t%s%s\t%s" % (prefixes[0], user, prefixes[1], item, rest)
                dest.write(line)
                if malformed_every and k % malformed_every == 0:
                    dest.write(line.rpartition(b"\t")[0] + b"\n")
        clean.unlink()


def time_parse(src: Path, corpus: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, "-c", CHILD, str(src), str(corpus)], env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the commit to compare this checkout with")
    parser.add_argument("--out", default=str(ROOT / "BENCH_parse.json"))
    opts = parser.parse_args(argv)
    import numpy

    result = {
        "what": ("seconds of one in-process parse_annotations call on a corpus file, and "
                 "dedupe_seconds of one build_index(dedupe=True) on its result, in a fresh "
                 "interpreter per run; base and change alternate, and so does which runs first"),
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
        for name, config in CORPORA.items():
            corpus = Path(work) / f"{name}.tsv"
            in_child("bench_parse", "write_corpus", config, str(corpus),
                     MALFORMED_EVERY.get(name, 0), TIME_FORMAT.get(name, ""),
                     PREFIXES.get(name, ()))
            runs = {side: [] for side in sides}
            for k in range(RUNS):
                for side in (("base", "change") if k % 2 == 0 else ("change", "base")):
                    runs[side].append(time_parse(sides[side], corpus))
            digests = {run["digest"] for side in runs.values() for run in side}
            if len(digests) != 1:
                print(f"{name}: base and change parse differently", file=sys.stderr)
                return 1
            first = runs["change"][0]
            entry = {"config": config, "malformed_every": MALFORMED_EVERY.get(name, 0),
                     "time_format": TIME_FORMAT.get(name, ""),
                     "prefixes": list(PREFIXES.get(name, ())),
                     "bytes": corpus.stat().st_size, "annotations": first["annotations"],
                     "deduped": first["deduped"], "malformed": first["malformed"],
                     "digest": first["digest"]}
            for side, side_runs in runs.items():
                seconds = [round(run["seconds"], 3) for run in side_runs]
                dedupe = [round(run["dedupe_seconds"], 3) for run in side_runs]
                entry[side] = {"seconds": seconds, "median_s": statistics.median(seconds),
                               "dedupe_seconds": dedupe,
                               "dedupe_median_s": statistics.median(dedupe),
                               "peak_rss_mib": round(statistics.median(
                                   run["peak_rss_mib"] for run in side_runs), 1)}
                print(f"{name} {side}: parse median {entry[side]['median_s']} s of {seconds}, "
                      f"dedupe median {entry[side]['dedupe_median_s']} s of {dedupe}, "
                      f"{entry[side]['peak_rss_mib']} MiB", flush=True)
            result["corpora"][name] = entry
            corpus.unlink()
    Path(opts.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
