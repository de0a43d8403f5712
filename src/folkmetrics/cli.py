"""Command-line front end: folkmetrics <subcommand>.

Subcommands read a delimited annotation file (or '-' for stdin), run one
analysis, and write CSV/JSON outputs. `report` runs the whole pipeline
into a bundle directory. Domain errors exit with status 1, usage errors
with status 2.
"""

from __future__ import annotations

import functools
import io
import math
import sys
import warnings
from pathlib import Path

import click
import numpy as np

from . import consensus as consensus_mod
from . import expertise as expertise_mod
from . import motivation as motivation_mod
from . import report as report_mod
from . import similarity as similarity_mod
from . import spear as spear_mod
from . import taxonomy as taxonomy_mod
from .corpus import (
    SyntheticConfig,
    TimeGranularity,
    _by_user_count,
    build_index,
    generate_synthetic,
    parse_annotations,
    write_annotations,
)
from .errors import ConvergenceWarning, FolkmetricsError
from .partition import pareto_curve, partition_summary, split_supertaggers
from .stats import BinSpec, binned_mean


def _fail_on_domain_errors(fn):
    """Turn library errors into exit status 1 and library warnings into stderr lines."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ConvergenceWarning)
            try:
                return fn(*args, **kwargs)
            except (FolkmetricsError, OSError) as exc:
                raise click.ClickException(str(exc))
            finally:
                for warning in caught:
                    click.echo(str(warning.message), err=True)

    return wrapper


def _parse_bins(_ctx, _param, value) -> BinSpec:
    """Accept 'base=2,step=0.1,max=14' (any subset of the keys)."""
    if value is None:
        return BinSpec()
    fields = {}
    try:
        for chunk in value.split(","):
            key, _, raw = chunk.partition("=")
            fields[key.strip()] = float(raw)
    except ValueError:
        raise click.BadParameter(f"cannot parse bin spec {value!r}")
    known = {"base": "base", "step": "exponent_step", "max": "max_exponent"}
    unknown = set(fields) - set(known)
    if unknown:
        raise click.BadParameter(f"unknown bin spec keys: {sorted(unknown)}")
    try:
        return BinSpec(**{known[k]: v for k, v in fields.items()})
    except FolkmetricsError as exc:
        raise click.BadParameter(str(exc))


def _check_delimiter(_ctx, _param, value: str) -> str:
    if not value:
        raise click.BadParameter("must not be empty")
    return value


def input_options(fn):
    fn = click.argument("source", type=str)(fn)
    fn = click.option("--delimiter", default="\t", callback=_check_delimiter,
                      help="field delimiter (default: tab)")(fn)
    fn = click.option(
        "--granularity",
        type=click.Choice([g.value for g in TimeGranularity]),
        default=TimeGranularity.SECONDS.value,
        show_default=True,
        help="timestamp resolution",
    )(fn)
    fn = click.option("--header/--no-header", default=False, help="first line is a header")(fn)
    fn = click.option(
        "--dedupe",
        type=click.Choice(["on", "off"]),
        default="off",
        show_default=True,
        help="collapse duplicate (user,item,tag) triples to the earliest",
    )(fn)
    return fn


def bins_option(fn):
    return click.option(
        "--bins",
        callback=_parse_bins,
        default=None,
        help="log bin spec, e.g. base=2,step=0.1,max=14",
    )(fn)


def _load_index(source, delimiter, granularity, header, dedupe):
    gran = TimeGranularity(granularity)
    # stdin as bytes: the parser decodes it, and names the line of a bad byte
    stream = sys.stdin.buffer if source == "-" else source
    parsed = parse_annotations(stream, delimiter=delimiter, granularity=gran, header=header)
    return build_index(parsed.annotations, dedupe=(dedupe == "on"), granularity=gran), parsed


def _write_per_user(path, columns, index, scores):
    """Per-user CSV of user, annotations and the scores, arrays by user code, in user order.

    Users with an undefined (NaN) score are left out.
    """
    defined = np.flatnonzero(~np.isnan(scores).any(axis=0))
    counts = index.user_counts[defined]
    rows = zip(map(index.columns.users.__getitem__, defined.tolist()), counts.tolist(),
               *(score[defined].tolist() for score in scores))
    report_mod._write_csv(path, ["user", "annotations", *columns], rows)


@click.group()
@click.version_option()
@click.option("--threads", type=int, default=1, show_default=True,
              help="worker threads (reserved; analyses are deterministic regardless)")
@click.pass_context
def main(ctx, threads):
    """Supertagger analytics for collaborative-tagging data."""
    if threads < 1:
        raise click.BadParameter("--threads must be >= 1")
    ctx.obj = {"threads": threads}


@main.command()
@input_options
@click.option("--out", default="-", help="normalized TSV output path (default: stdout)")
@click.option("--summary-out", default=None, help="write the dataset summary JSON here")
@_fail_on_domain_errors
def ingest(source, delimiter, granularity, header, dedupe, out, summary_out):
    """Parse, validate, optionally dedupe, and re-emit a dataset."""
    index, parsed = _load_index(source, delimiter, granularity, header, dedupe)
    with report_mod._output(out) as stream:
        write_annotations(index.columns, stream)
    payload = report_mod.summary_json(index)
    payload["malformed_lines"] = parsed.malformed
    if summary_out:
        report_mod.write_json(summary_out, payload)
    else:
        click.echo(f"{payload['annotations']} annotations "
                   f"({parsed.malformed} malformed lines skipped)", err=True)


@main.command()
@click.option("--users", type=click.IntRange(1), default=1000, show_default=True)
@click.option("--items", type=click.IntRange(1), default=500, show_default=True)
@click.option("--tags", type=click.IntRange(1), default=200, show_default=True)
@click.option("--activity-exponent", type=float, default=2.0, show_default=True)
@click.option("--item-exponent", type=float, default=1.0, show_default=True)
@click.option("--tag-exponent", type=float, default=1.0, show_default=True)
@click.option("--seed", type=int, default=0, envvar="FOLKMETRICS_SEED", show_default=True,
              help="RNG seed (FOLKMETRICS_SEED overrides the default)")
@click.option("--out", default="-", help="output path (default: stdout)")
@_fail_on_domain_errors
def synth(users, items, tags, activity_exponent, item_exponent, tag_exponent, seed, out):
    """Generate a power-law synthetic corpus in the ingestion format."""
    config = SyntheticConfig(
        n_users=users,
        activity_exponent=activity_exponent,
        n_items=items,
        n_tags=tags,
        item_popularity_exponent=item_exponent,
        tag_popularity_exponent=tag_exponent,
        seed=seed,
    )
    annotations = generate_synthetic(config)
    with report_mod._output(out) as stream:
        write_annotations(annotations, stream)


@main.command()
@input_options
@click.option("--fraction", type=float, default=0.5, show_default=True,
              help="target supertagger share of annotations")
@click.option("--out", default="-", help="partition JSON (default: stdout)")
@click.option("--tables", default=None, help="write the per-group summary CSV here")
@click.option("--pareto", default=None, help="write the Pareto curve CSV here")
@click.option("--resolution", type=click.IntRange(2), default=1000, show_default=True,
              help="Pareto curve sample points")
@click.option("--full-pareto", is_flag=True, help="export the curve at full resolution")
@click.option("--omit-users", is_flag=True, help="leave user lists out of the JSON")
@click.option("--users-out", default=None,
              help="externalize user lists to <prefix>supertaggers.txt / <prefix>others.txt")
@_fail_on_domain_errors
def partition(source, delimiter, granularity, header, dedupe, fraction, out, tables,
              pareto, resolution, full_pareto, omit_users, users_out):
    """Split users into supertaggers / others and summarize both groups."""
    index, _ = _load_index(source, delimiter, granularity, header, dedupe)
    part = split_supertaggers(index, fraction)
    if users_out is not None:
        for name, users in report_mod.partition_users(index, part).items():
            with open(f"{users_out}{name}.txt", "w", encoding="utf-8", newline="") as fh:
                fh.writelines(f"{user}\n" for user in users)
        omit_users = True
    report_mod.write_json(out, report_mod.partition_json(index, part, not omit_users))
    if tables:
        rows = report_mod.partition_summary_rows(partition_summary(index, part))
        report_mod._write_csv(tables, report_mod.PARTITION_SUMMARY_HEADER, rows)
    if pareto:
        curve = pareto_curve(index, None if full_pareto else resolution)
        report_mod.write_pareto_csv(pareto, curve)


@main.command()
@input_options
@click.option("--dimension", type=click.Choice(["tag", "item"]), default="tag", show_default=True)
@click.option("--fraction", type=float, default=0.5, show_default=True)
@click.option("--max-n", type=click.IntRange(1), default=100_000, show_default=True)
@click.option("--out", default="-", help="curve CSV (default: stdout)")
@_fail_on_domain_errors
def similarity(source, delimiter, granularity, header, dedupe, dimension, fraction, max_n, out):
    """Top-N Spearman/cosine similarity curve between the two groups."""
    index, _ = _load_index(source, delimiter, granularity, header, dedupe)
    part = split_supertaggers(index, fraction)
    curve = similarity_mod.similarity_curve(
        index, part, dimension, similarity_mod.default_n_grid(max_n)
    )
    report_mod.write_similarity_csv(out, curve)
    if curve.core_size is not None:
        click.echo(f"core size: {curve.core_size}", err=True)


@main.command("usage-dist")
@input_options
@click.option("--dimension", type=click.Choice(["tag", "item"]), default="tag", show_default=True)
@click.option("--cumulative", is_flag=True, help="emit the at-least-N cumulative form")
@click.option("--fraction", type=float, default=0.5, show_default=True)
@click.option("--out", default="-", help="CSV output (default: stdout)")
@_fail_on_domain_errors
def usage_dist(source, delimiter, granularity, header, dedupe, dimension, cumulative,
               fraction, out):
    """Per-group usage distribution over key popularity."""
    index, _ = _load_index(source, delimiter, granularity, header, dedupe)
    part = split_supertaggers(index, fraction)
    report_mod.write_usage_csv(out, report_mod._usage_by_group(index, part, dimension, cumulative))


def _read_popularity(path, delimiter="\t"):
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FolkmetricsError(
            f"popularity line {line}: invalid UTF-8 byte {data[exc.start]:#04x}") from None
    popularity = {}
    # universal newlines, as a file opened in text mode reads them
    for line in io.StringIO(text, newline=None):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        item, _, raw = line.partition(delimiter)
        try:
            count = float(raw)
        except ValueError:
            count = math.nan
        if not (math.isfinite(count) and count >= 0):
            raise FolkmetricsError(f"bad popularity line: {line!r}")
        popularity[item.strip()] = count
    return popularity


@main.command("exo-diff")
@input_options
@click.option("--popularity", required=True, help="two-column <item>\\t<count> sidecar file")
@click.option("--fraction", type=float, default=0.5, show_default=True)
@bins_option
@click.option("--out", default="-", help="CSV output (default: stdout)")
@_fail_on_domain_errors
def exo_diff(source, delimiter, granularity, header, dedupe, popularity, fraction, bins, out):
    """S-minus-others annotation difference binned by exogenous popularity."""
    index, _ = _load_index(source, delimiter, granularity, header, dedupe)
    part = split_supertaggers(index, fraction)
    series = similarity_mod.exogenous_popularity_diff(
        index, part, _read_popularity(popularity, delimiter), bins
    )
    report_mod.write_binned_csv(out, series, "mean_diff")


@main.command()
@input_options
@click.option("--fraction", type=float, default=0.5, show_default=True)
@bins_option
@click.option("--out", default="-", help="CSV output (default: stdout)")
@_fail_on_domain_errors
def consensus(source, delimiter, granularity, header, dedupe, fraction, bins, out):
    """Top-tag match rate and per-item cosine, binned by annotation count."""
    index, _ = _load_index(source, delimiter, granularity, header, dedupe)
    part = split_supertaggers(index, fraction)
    series = consensus_mod.consensus_by_bin(index, part, bins)
    report_mod.write_consensus_csv(out, series)


@main.command()
@input_options
@click.option("--per-user", default=None, help="write per-user scores CSV here")
@click.option("--binned", default="-", help="binned series CSV (default: stdout)")
@click.option("--orphan-divisor", type=click.IntRange(1), default=100, show_default=True)
@bins_option
@_fail_on_domain_errors
def motivation(source, delimiter, granularity, header, dedupe, per_user, binned,
               orphan_divisor, bins):
    """Categorizer/describer metrics: TPP, TRR, orphan ratio."""
    index, _ = _load_index(source, delimiter, granularity, header, dedupe)
    scores = motivation_mod.motivation_scores(index, orphan_divisor)
    if per_user:
        _write_per_user(per_user, ["tpp", "trr", "orphan_ratio"], index, np.array(scores))
    report_mod.write_motivation_csv(binned, motivation_mod.MotivationSeries(
        *(binned_mean(*_by_user_count(index, s), bins) for s in scores)))


@main.command()
@input_options
@click.option("--top-k", type=click.IntRange(1), default=spear_mod.DEFAULT_TOP_K, show_default=True)
@click.option("--min-users", type=int, default=spear_mod.DEFAULT_MIN_USERS, show_default=True)
@click.option("--exponent", type=float, default=spear_mod.DEFAULT_EXPONENT, show_default=True)
@click.option("--tolerance", type=click.FloatRange(0, min_open=True),
              default=spear_mod.DEFAULT_TOLERANCE, show_default=True)
@click.option("--max-iter", type=click.IntRange(1), default=spear_mod.DEFAULT_MAX_ITER,
              show_default=True)
@bins_option
@click.option("--out", default="-", help="binned series CSV (default: stdout)")
@click.option("--per-user", default=None, help="write per-user mean z-scores CSV here")
@_fail_on_domain_errors
def spear(source, delimiter, granularity, header, dedupe, top_k, min_users, exponent,
          tolerance, max_iter, bins, out, per_user):
    """Standardized SPEAR expertise, binned by user annotation count."""
    index, _ = _load_index(source, delimiter, granularity, header, dedupe)
    mean_z = spear_mod.user_mean_z(index, top_k, min_users, exponent, tolerance, max_iter)
    if per_user:
        _write_per_user(per_user, ["mean_z"], index, mean_z[np.newaxis])
    report_mod.write_binned_csv(out, binned_mean(*_by_user_count(index, mean_z), bins))


@main.group()
def expertise():
    """Consensus-based and term-depth expertise analyses."""


@expertise.command("consensus")
@input_options
@click.option("--per-user", default=None, help="write per-user scores CSV here")
@click.option("--binned", default="-", help="binned series CSV (default: stdout)")
@click.option("--raw-counts", is_flag=True,
              help="use raw annotation counts instead of distinct users for F")
@bins_option
@_fail_on_domain_errors
def expertise_consensus(source, delimiter, granularity, header, dedupe, per_user, binned,
                        raw_counts, bins):
    """Item-consensus expertise scores."""
    index, _ = _load_index(source, delimiter, granularity, header, dedupe)
    scores = expertise_mod.consensus_expertise(index, raw_counts)
    if per_user:
        _write_per_user(per_user, ["expertise"], index, scores[np.newaxis])
    report_mod.write_binned_csv(binned, binned_mean(*_by_user_count(index, scores), bins))


def _forest(index, top_k, min_users, min_support, threshold):
    """The induced forest; raises if no tag is eligible, as then there is nothing to induce."""
    forest = taxonomy_mod.induce_taxonomy(index, top_k, min_users, min_support, threshold)
    if not (forest.nodes or forest.disconnected):
        raise FolkmetricsError("no eligible tags for taxonomy induction")
    return forest


@expertise.command("depth")
@input_options
@click.option("--mode", type=click.Choice(["annotation", "vocabulary"]),
              default="vocabulary", show_default=True)
@click.option("--threshold", type=float, default=taxonomy_mod.DEFAULT_THRESHOLD, show_default=True)
@click.option("--min-support", type=int, default=taxonomy_mod.DEFAULT_MIN_SUPPORT, show_default=True)
@click.option("--top-k", type=click.IntRange(1), default=spear_mod.DEFAULT_TOP_K, show_default=True)
@click.option("--min-users", type=int, default=spear_mod.DEFAULT_MIN_USERS, show_default=True)
@click.option("--binned", default="-", help="binned series CSV (default: stdout)")
@click.option("--per-user", default=None, help="write per-user scores CSV here")
@bins_option
@_fail_on_domain_errors
def expertise_depth(source, delimiter, granularity, header, dedupe, mode, threshold,
                    min_support, top_k, min_users, binned, per_user, bins):
    """Term-depth expertise over the induced taxonomy."""
    index, _ = _load_index(source, delimiter, granularity, header, dedupe)
    forest = _forest(index, top_k, min_users, min_support, threshold)
    scores = taxonomy_mod.depth_expertise(index, forest, mode)
    if per_user:
        _write_per_user(per_user, ["depth_expertise"], index, scores[np.newaxis])
    report_mod.write_binned_csv(binned, binned_mean(*_by_user_count(index, scores), bins))


@main.command()
@input_options
@click.option("--threshold", type=float, default=taxonomy_mod.DEFAULT_THRESHOLD, show_default=True)
@click.option("--min-support", type=int, default=taxonomy_mod.DEFAULT_MIN_SUPPORT, show_default=True)
@click.option("--top-k", type=click.IntRange(1), default=spear_mod.DEFAULT_TOP_K, show_default=True)
@click.option("--min-users", type=int, default=spear_mod.DEFAULT_MIN_USERS, show_default=True)
@click.option("--out", default="-", help="forest JSON (default: stdout)")
@_fail_on_domain_errors
def taxonomy(source, delimiter, granularity, header, dedupe, threshold, min_support,
             top_k, min_users, out):
    """Induce the tag taxonomy forest and emit it with depth scores."""
    index, _ = _load_index(source, delimiter, granularity, header, dedupe)
    forest = _forest(index, top_k, min_users, min_support, threshold)
    coverage = taxonomy_mod.annotation_coverage(index, forest)
    report_mod.write_json(out, report_mod.forest_json(forest, coverage))


@main.command()
@input_options
@click.option("--out-dir", required=True, help="bundle output directory")
@click.option("--fraction", type=float, default=0.5, show_default=True)
@bins_option
@click.option("--max-n", type=click.IntRange(1), default=100_000, show_default=True)
@click.option("--pareto-resolution", type=click.IntRange(2), default=1000, show_default=True)
@click.option("--top-k", type=click.IntRange(1), default=spear_mod.DEFAULT_TOP_K, show_default=True)
@click.option("--min-users", type=int, default=spear_mod.DEFAULT_MIN_USERS, show_default=True)
@click.option("--exponent", type=float, default=spear_mod.DEFAULT_EXPONENT, show_default=True)
@click.option("--threshold", type=float, default=taxonomy_mod.DEFAULT_THRESHOLD, show_default=True)
@click.option("--min-support", type=int, default=taxonomy_mod.DEFAULT_MIN_SUPPORT, show_default=True)
@click.option("--orphan-divisor", type=click.IntRange(1), default=100, show_default=True)
@click.option("--popularity", default=None, help="optional exogenous popularity sidecar")
@_fail_on_domain_errors
def report(source, delimiter, granularity, header, dedupe, out_dir, fraction, bins, max_n,
           pareto_resolution, top_k, min_users, exponent, threshold, min_support,
           orphan_divisor, popularity):
    """Run the full pipeline and write every figure/table data series."""
    config = report_mod.ReportConfig(
        fraction=fraction,
        bins=bins,
        max_n=max_n,
        pareto_resolution=pareto_resolution,
        top_k=top_k,
        min_users=min_users,
        exponent=exponent,
        taxonomy_threshold=threshold,
        min_support=min_support,
        orphan_divisor=orphan_divisor,
    )
    index, _ = _load_index(source, delimiter, granularity, header, dedupe)
    pop = _read_popularity(popularity, delimiter) if popularity else None
    written = report_mod.write_report(index, out_dir, config, popularity=pop)
    click.echo(f"wrote {len(written)} files to {out_dir}", err=True)


if __name__ == "__main__":
    main()
