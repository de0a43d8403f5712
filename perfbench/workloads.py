"""The benchmark's workloads: the corpus each one writes and the command it times.

Every set-up generates the workload's corpus from a fixed SyntheticConfig, so
the multiset of annotations, and every count derived from it, is the same for
every seed. The seed only decides the order in which the users' blocks of
lines appear in the file (seed 0 keeps the generator's order). A seed that
changed the generator's own seed would change the corpus size by about 10%
(c10) between seeds, because user activity is a power law,
and that would swamp the run-to-run spread the benchmark must resolve.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

from perfbench import ROOT, child_env
from perfbench.checks import Oracle, oracle

C10 = dict(n_users=140_000, n_items=100_000, n_tags=5_000, activity_exponent=2.0, seed=1234)
TAGRICH = dict(n_users=80_000, n_items=10_000, n_tags=14_000, activity_exponent=2.0,
               tag_popularity_exponent=0.5, seed=7)
# The declared workloads run on these smaller corpora: a command of about
# 4 s runs ten times or so in a run, so its fastest run is steady on a noisy
# host (see README.md). The full-size ones stay for runs by name.
C10_QUARTER = dict(C10, n_users=35_000, n_items=25_000, n_tags=1_250)
TAGRICH_HALF = dict(TAGRICH, n_users=40_000, n_items=5_000, n_tags=7_000)


@dataclass(frozen=True)
class Workload:
    """One timed `folkmetrics` command over one synthetic corpus."""

    name: str
    corpus: dict
    command: str
    options: tuple[str, ...] = ()
    # the CLI's documented --min-users default; the oracle needs it too
    min_users: int = 10

    def args(self, corpus: Path, out: Path) -> list[str]:
        """CLI arguments that read `corpus` and write every output under `out`."""
        if self.command == "report":
            args = ["report", str(corpus), "--out-dir", str(out / "bundle")]
        elif self.command == "ingest":
            args = ["ingest", str(corpus), "--dedupe", "on", "--out", str(out / "ingest.tsv"),
                    "--summary-out", str(out / "summary.json")]
        elif self.command == "spear":
            args = ["spear", str(corpus), "--out", str(out / "spear.csv")]
        else:
            raise ValueError(f"unknown command {self.command!r}")
        return args + list(self.options)


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
# BENCHMARK.json declares the first two. report-c10 is not in it:
# every run of it fails its output check (see the known defect in README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("spear-tagrich-half", TAGRICH_HALF, "spear"),
        Workload("ingest-dedupe-c10-quarter", C10_QUARTER, "ingest"),
        Workload("report-c10", C10, "report"),
        Workload("spear-tagrich", TAGRICH, "spear"),
        Workload("ingest-dedupe-c10", C10, "ingest"),
    )
}


def write_corpus(workload: Workload, seed: int, path: Path) -> list:
    """Generate the workload's corpus and write it in the seed's user order.

    Returns the generated annotations in generator order; the oracle reads
    them, and it depends on none of the line order.
    """
    import numpy as np
    from folkmetrics.corpus import SyntheticConfig, generate_synthetic, write_annotations

    annotations = generate_synthetic(SyntheticConfig(**workload.corpus))
    blocks = [list(group) for _, group in itertools.groupby(annotations, key=attrgetter("user"))]
    order = np.random.default_rng(seed).permutation(len(blocks)) if seed else range(len(blocks))
    write_annotations((a for k in order for a in blocks[k]), path)
    return annotations


def set_up(workload: Workload, seed: int, path: Path, repeats: int,
           deadline: float) -> tuple[list[float], Oracle]:
    """Write the corpus `repeats` times in a child process; return the times and the oracle.

    A child does the set-up so that this process stays small: the peak RSS
    the kernel reports for a command includes that of the process that
    spawned it, so a large benchmark process would hide the command's own.
    """
    request = {"workload": dataclasses.asdict(workload), "seed": seed, "path": str(path),
               "repeats": repeats}
    done = subprocess.run([sys.executable, "-m", "perfbench.workloads", json.dumps(request)],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if done.returncode != 0:
        raise RuntimeError(f"set-up of {workload.name} failed:\n{done.stderr[-2000:]}")
    reply = json.loads(done.stdout)
    return reply["setup_s"], Oracle(**reply["oracle"])


def _set_up_here(request: dict) -> dict:
    import folkmetrics.corpus  # noqa: F401  (imported before the clock starts)

    fields = request["workload"]
    workload = Workload(**dict(fields, options=tuple(fields["options"])))
    times = []
    annotations = None
    for _ in range(request["repeats"]):
        annotations = None
        start = time.perf_counter()
        annotations = write_corpus(workload, request["seed"], Path(request["path"]))
        times.append(time.perf_counter() - start)
    return {"setup_s": times,
            "oracle": dataclasses.asdict(oracle(annotations, workload.command,
                                                workload.min_users))}


if __name__ == "__main__":
    print(json.dumps(_set_up_here(json.loads(sys.argv[1]))))
