"""Acceptance criteria, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. Criterion 10 generates a ~1M-annotation corpus and times the
full report in a subprocess, so it takes around a minute on its own.
"""

import resource
import subprocess
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner

from folkmetrics.cli import main as cli_main
from folkmetrics.consensus import consensus_by_bin
from folkmetrics.corpus import (
    SyntheticConfig,
    build_index,
    generate_synthetic,
    write_annotations,
)
from folkmetrics.expertise import consensus_expertise
from folkmetrics.motivation import motivation_scores
from folkmetrics.partition import gini, rank_users, split_supertaggers
from folkmetrics.similarity import similarity_curve
from folkmetrics.spear import credit_batch
from folkmetrics.stats import BinSpec, log_bins, population_zscores
from folkmetrics.partition import Partition
from folkmetrics.taxonomy import conditional_table, induce_forest, depth_by_bin

from analysis_oracle import named
from conftest import code, make_index, user_mask
from corpus_oracle import views
from test_similarity import (brute_cosine_topn, brute_spearman_topn, coded, curve_cosine,
                             curve_rho, shared_top5_index)
from spear_oracle import batch_of, entries
from test_spear import brute_force_hits, scored
from test_taxonomy import items_with_tags


def test_c01_gini_matches_pairwise_oracle_and_fixed_points():
    """Gini formula vs pairwise-difference oracle on 100 random vectors."""
    rng = np.random.default_rng(1001)
    for _ in range(100):
        n = int(rng.integers(1, 201))
        y = rng.integers(0, 100, size=n).astype(float)
        if y.sum() == 0:
            y[int(rng.integers(n))] = 1.0
        mean = y.mean()
        pairwise = float(np.abs(np.subtract.outer(y, y)).sum()) / (2 * n * n * mean)
        assert gini(y) == pytest.approx(pairwise, abs=1e-9)
    for k in (1, 3, 17.5):
        assert gini([k, k, k, k, k]) == 0.0
    assert gini([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-12)


def test_c02_partition_properties_on_random_corpora():
    """S-share, minimality, exact totals on 50 corpora; skew at desk scale."""
    rng = np.random.default_rng(1002)
    for trial in range(50):
        config = SyntheticConfig(
            n_users=int(rng.integers(2, 120)),
            n_items=int(rng.integers(5, 60)),
            n_tags=int(rng.integers(3, 30)),
            activity_exponent=float(rng.uniform(1.2, 2.5)),
            seed=int(rng.integers(1_000_000)),
        )
        index = build_index(generate_synthetic(config))
        fraction = float(rng.choice([0.25, 0.5, 0.75]))
        part = named(index, split_supertaggers(index, fraction))
        count = views(index).user_annotation_count
        s_total = sum(count[u] for u in part.supertaggers)
        o_total = sum(count[u] for u in part.others)
        assert s_total + o_total == index.n_annotations
        assert s_total >= fraction * index.n_annotations
        if len(part.supertaggers) > 1:
            ranked = named(index, rank_users(index))
            last = ranked[len(part.supertaggers) - 1]
            assert s_total - count[last] < fraction * index.n_annotations

    config = SyntheticConfig(n_users=10_000, n_items=500, n_tags=100,
                             activity_exponent=2.0, seed=77)
    index = build_index(generate_synthetic(config))
    part = named(index, split_supertaggers(index, 0.5))
    user_fraction = len(part.supertaggers) / len(views(index).by_user)
    assert user_fraction < 0.2


def test_c03_similarity_oracles_core_size_and_identical_groups():
    """Top-N similarity vs brute force; core fixture; identical groups."""
    rng = np.random.default_rng(1003)
    for _ in range(40):
        counts_a = {f"k{j}": int(rng.integers(1, 50)) for j in range(int(rng.integers(2, 70)))}
        counts_b = {f"k{j}": int(rng.integers(1, 50)) for j in range(int(rng.integers(2, 70)))}
        da, db = coded(counts_a, counts_b)
        n = int(rng.integers(1, 51))
        assert curve_cosine(da, db, n) == pytest.approx(
            brute_cosine_topn(counts_a, counts_b, n), abs=1e-9
        )
        try:
            expected = brute_spearman_topn(counts_a, counts_b, n)
        except ZeroDivisionError:
            continue
        assert curve_rho(da, db, n) == pytest.approx(expected, abs=1e-9)

    index, part = shared_top5_index()
    curve = similarity_curve(index, part, "tag", n_values=range(1, 16))
    assert curve.core_size == 5

    rows = []
    for user in ("s", "o"):
        for k, tag in enumerate(["rock"] * 5 + ["jazz"] * 3 + ["pop"] * 2):
            rows.append((user, f"i{k}", tag, 0))
    identical = make_index(rows)
    ident_part = Partition(user_mask(identical, {"s"}), 0, 0.5)
    ident_curve = similarity_curve(identical, ident_part, "tag", n_values=range(1, 10))
    assert ident_curve.points
    for point in ident_curve.points:
        assert point.rho == pytest.approx(1.0)
        assert point.cosine == pytest.approx(1.0)


def test_c04_consensus_fixture_and_log_bins():
    """Identical tagging -> 1.0 everywhere; exact bin edges; count closure."""
    rows = []
    for user in ("s", "o"):
        for k in range(7):
            for j in range(k + 1):
                rows.append((user, f"i{k}", f"tag{j}", 0))
    index = make_index(rows)
    part = Partition(user_mask(index, {"s"}), 0, 0.5)
    series = consensus_by_bin(index, part, BinSpec())
    assert series.shared_items == 7
    assert series.top_match.total_count == 7
    assert series.cosine.total_count == 7
    for row in series.top_match.rows:
        assert row.mean == pytest.approx(1.0)
    for row in series.cosine.rows:
        assert row.mean == pytest.approx(1.0)

    edges = log_bins(BinSpec(base=2.0, exponent_step=1.0, max_exponent=14.0))
    assert edges.tolist() == [float(2 ** i) for i in range(15)]
    edges3 = log_bins(BinSpec(base=3.0, exponent_step=1.0, max_exponent=5.0))
    assert edges3.tolist() == [float(3 ** i) for i in range(6)]


def test_c05_motivation_hand_values_and_orphan_invariant():
    """TPP/TRR/OR fixtures exactly; OR = 1 when max usage <= divisor."""
    index = make_index([("u", "i1", "a", 0), ("u", "i1", "b", 1), ("u", "i2", "a", 2)])
    tpp, trr, _ = motivation_scores(index)
    assert tpp[code(index, "u")] == 1.5
    assert trr[code(index, "u")] == 1.0

    vocab_index = make_index(
        [("u", "i1", "a", 0), ("u", "i2", "b", 1)]
    )
    assert motivation_scores(vocab_index)[1][code(vocab_index, "u")] == 1.0
    spread_index = make_index([("u", f"i{k}", "only", k) for k in range(10)])
    assert motivation_scores(spread_index)[1][code(spread_index, "u")] == pytest.approx(0.1)

    skewed_rows = [("u", f"i{k}", "big", k) for k in range(200)]
    skewed_rows += [("u", f"j{k}", f"s{k}", k) for k in range(9)]
    assert motivation_scores(make_index(skewed_rows))[2][0] == pytest.approx(0.9)

    rng = np.random.default_rng(1005)
    for _ in range(20):
        n_items = int(rng.integers(1, 80))
        rows = [("u", f"i{rng.integers(n_items)}", f"t{rng.integers(6)}", 0)
                for _ in range(int(rng.integers(1, 120)))]
        index = make_index(rows)
        usage = {}
        for a in views(index).annotations:
            usage.setdefault(a.tag, set()).add(a.item)
        if max(len(v) for v in usage.values()) <= 100:
            assert motivation_scores(index)[2][0] == 1.0


def test_c06_spear_convergence_hits_oracle_ordering_and_zscores():
    """Convergence <= 250 iters; exponent-0 vs HITS within 1e-6; ordering; z-stats."""
    rng = np.random.default_rng(1006)
    for _ in range(15):
        n_users = int(rng.integers(2, 101))
        n_items = int(rng.integers(1, 40))
        credits = {}
        for u in range(n_users):
            picks = rng.choice(n_items, size=min(n_items, int(rng.integers(1, 4))),
                               replace=False)
            for i in picks:
                credits[(f"u{u:03d}", f"i{i:03d}")] = float(rng.integers(1, 6)) ** 0.5
        result = scored(batch_of(credits), tolerance=1e-8, max_iter=250)
        assert result.converged and result.iterations <= 250

    hits_index = make_index(
        [(f"u{k}", f"i{k % 5}", "shared", k % 7) for k in range(40)]
        + [(f"u{k}", f"j{k % 3}", "shared", k % 5) for k in range(25)]
    )
    credit = credit_batch(hits_index, ["shared"], exponent=0.0)
    result = scored(credit, tolerance=1e-12, max_iter=2000)
    expected_e, _ = brute_force_hits(entries(credit))
    for user, score in result.user_scores.items():
        assert score == pytest.approx(expected_e[user], abs=1e-6)

    seq = make_index([("early", "i", "rock", 1), ("late", "i", "rock", 2)])
    seq_result = scored(credit_batch(seq, ["rock"]))
    assert seq_result.user_scores["early"] > seq_result.user_scores["late"]

    for _ in range(10):
        scores = rng.random(int(rng.integers(2, 50)))
        z = population_zscores(scores)
        if np.all(scores == scores[0]):
            continue
        assert abs(z.mean()) < 1e-9
        assert abs(z.std(ddof=0) - 1.0) < 1e-9


def test_c07_consensus_expertise_fixtures_and_weight_edges():
    """Unit range; conforming user = 1.0; 0.2 fixture; weight arguments 0 and 1."""
    rng = np.random.default_rng(1007)
    rows = [(f"u{rng.integers(12)}", f"i{rng.integers(8)}", f"t{rng.integers(5)}", 0)
            for _ in range(300)]
    scores = consensus_expertise(make_index(rows))
    defined = scores[~np.isnan(scores)]
    assert len(defined) and ((0.0 <= defined) & (defined <= 1.0)).all()

    conforming_rows = []
    for item in ("i1", "i2", "i3"):
        for j in range(11):
            conforming_rows.append((f"crowd{j}", item, "best", j))
        conforming_rows.append(("me", item, "best", 99))
    conforming = make_index(conforming_rows)
    assert consensus_expertise(conforming)[code(conforming, "me")] == 1.0

    # u_jazz's one annotation scores (2 - 1) / 5, and so does u_jazz's mean
    crowd_rows = [(f"r{k}", "i", "rock", k) for k in range(5)]
    crowd_rows += [("u_jazz", "i", "jazz", 10), ("j1", "i", "jazz", 11)]
    crowd_index = make_index(crowd_rows)
    assert consensus_expertise(crowd_index)[code(crowd_index, "u_jazz")] == pytest.approx(0.2)

    # no outside tagging excludes the item, one outside annotation weighs log10(1) = 0:
    # either way the user's only item leaves the mean undefined
    solo = make_index([("me", "i", "a", 0), ("me", "i", "b", 1)])
    assert np.isnan(consensus_expertise(solo)[code(solo, "me")])

    one_other = make_index([("me", "i", "a", 0), ("other", "i", "b", 1)])
    assert np.isnan(consensus_expertise(one_other)[code(one_other, "me")])


def test_c08_taxonomy_fixture_edges_acyclicity_and_depth_contrast():
    """classic-rock attaches under rock; 50 random forests acyclic; depth contrast."""
    rock_rows = []
    for k in range(10):
        rock_rows.append(("b", f"i{k}", "classic rock", 0))
        rock_rows.append(("b", f"i{k}", "rock", 0))
    for k in range(10, 100):
        rock_rows.append(("b", f"i{k}", "rock", 0))
    table = conditional_table(make_index(rock_rows), ["rock", "classic rock"], 10)
    forest = induce_forest(table, 0.8)
    assert forest.parent["classic rock"] == "rock"

    rng = np.random.default_rng(1008)
    for _ in range(50):
        rows = [(f"u{rng.integers(5)}", f"i{rng.integers(4, 26)}",
                 f"t{rng.integers(3, 11)}", 0)
                for _ in range(int(rng.integers(40, 220)))]
        index = make_index(rows)
        rtable = conditional_table(index, sorted(views(index).by_tag), min_support=1)
        rforest = induce_forest(rtable, threshold=0.6)
        for node in rforest.nodes:
            hops = 0
            cursor = node
            while rforest.parent[cursor] is not None:
                parent = rforest.parent[cursor]
                assert rtable.tag_items[parent] > rtable.tag_items[cursor]
                cursor = parent
                hops += 1
                assert hops <= len(rforest.nodes)
            assert 0.0 <= rforest.norm_depth[node] <= 1.0

    chain = make_index(
        items_with_tags(
            [(30, ["a"]), (8, ["a", "b"]), (4, ["a", "b", "c"]), (2, ["b", "c"])]
        )
    )
    ctable = conditional_table(chain, ["a", "b", "c"], min_support=2)
    cforest = induce_forest(ctable, 0.8)
    assert cforest.norm_depth == {"a": 0.0, "b": 0.5, "c": 1.0}

    # vocabulary-mode series rises with user volume; annotation-mode stays flat
    tax_index = make_index(
        items_with_tags(
            [(60, ["r"]), (16, ["r", "x1"]), (6, ["r", "x1", "x2"]),
             (3, ["x1", "x2", "x3"]), (2, ["x2", "x3"])]
        )
    )
    dtable = conditional_table(tax_index, ["r", "x1", "x2", "x3"], min_support=2)
    dforest = induce_forest(dtable, 0.8)
    user_rows = []
    for u in range(5):
        user_rows += [(f"light{u}", f"l{u}a", "r", 0), (f"light{u}", f"l{u}b", "x3", 0),
                      (f"light{u}", f"l{u}c", "x3", 0)]
    for u in range(3):
        user_rows += [(f"heavy{u}", f"h{u}r{k}", "r", 0) for k in range(3)]
        user_rows += [(f"heavy{u}", f"h{u}b{k}", "x2", 0) for k in range(27)]
        user_rows += [(f"heavy{u}", f"h{u}c{k}", "x3", 0) for k in range(6)]
    user_index = make_index(user_rows)
    ann = sorted(depth_by_bin(user_index, dforest, BinSpec(), "annotation").rows,
                 key=lambda r: r.bin_low)
    vocab = sorted(depth_by_bin(user_index, dforest, BinSpec(), "vocabulary").rows,
                   key=lambda r: r.bin_low)
    assert ann[0].mean == pytest.approx(ann[-1].mean)
    assert vocab[-1].mean > vocab[0].mean


def test_c09_report_byte_identical_across_runs(tmp_path):
    """`report` over a seeded synthetic corpus is deterministic to the byte."""
    runner = CliRunner()
    corpus = tmp_path / "corpus.tsv"
    result = runner.invoke(
        cli_main,
        ["synth", "--users", "400", "--items", "150", "--tags", "60",
         "--seed", "20260810", "--out", str(corpus)],
    )
    assert result.exit_code == 0
    bundles = []
    for name in ("run1", "run2"):
        out_dir = tmp_path / name
        result = runner.invoke(
            cli_main,
            ["report", str(corpus), "--out-dir", str(out_dir),
             "--min-users", "3", "--min-support", "2"],
        )
        assert result.exit_code == 0, result.output
        bundles.append(out_dir)
    names = sorted(p.name for p in bundles[0].iterdir())
    assert names == sorted(p.name for p in bundles[1].iterdir())
    assert len(names) == 14
    for name in names:
        assert (bundles[0] / name).read_bytes() == (bundles[1] / name).read_bytes(), name


def test_c10_report_performance_one_million_annotations(tmp_path):
    """Full report over >= 1e6 annotations: < 60 s wall, < 2 GB peak RSS."""
    config = SyntheticConfig(
        n_users=140_000, n_items=100_000, n_tags=5_000,
        activity_exponent=2.0, seed=1234,
    )
    annotations = generate_synthetic(config)
    assert len(annotations) >= 1_000_000
    corpus = tmp_path / "big.tsv"
    write_annotations(annotations, corpus)
    del annotations

    out_dir = tmp_path / "bundle"
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "folkmetrics.cli", "report", str(corpus),
         "--out-dir", str(out_dir)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_kb = max(peak_kb, before)
    print(f"\nreport wall-clock: {elapsed:.1f}s, child peak RSS: {peak_kb / 1024:.0f} MiB")
    assert elapsed < 60.0
    assert peak_kb * 1024 < 2 * 1024 ** 3
    assert len(list(out_dir.iterdir())) == 14
