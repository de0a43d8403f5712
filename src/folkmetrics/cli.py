"""Command-line front end: folkmetrics <subcommand>.

Subcommands read a delimited annotation file (or '-' for stdin), run one
analysis, and write CSV/JSON outputs. `report` runs the whole pipeline
into a bundle directory. Domain errors exit with status 1, usage errors
with status 2.
"""

from __future__ import annotations

import contextlib
import functools
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
from .corpus import (SyntheticConfig, _line_feeds, _utf8, build_index, generate_synthetic,
                     parse_annotations, write_annotations)
from .errors import ConvergenceWarning, FolkmetricsError, FormatError
from .partition import (DEFAULT_PARETO_RESOLUTION, pareto_curve, partition_summary,
                        split_supertaggers)
from .stats import BinSpec


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
    """The source and how to read it: the arguments of _load_index (a command's **load)."""
    fn = click.argument("source", type=str)(fn)
    fn = click.option("--delimiter", default="\t", callback=_check_delimiter,
                      help="field delimiter (default: tab)")(fn)
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


def _finite(_ctx, _param, value: float) -> float:
    if not math.isfinite(value):
        raise click.BadParameter("must be finite")
    return value


# the options several commands take, each declared once
fraction_option = click.option("--fraction", type=float, default=0.5, show_default=True,
                               help="target supertagger share of annotations")
top_k_option = click.option("--top-k", type=click.IntRange(1), default=spear_mod.DEFAULT_TOP_K,
                            show_default=True)
dimension_option = click.option("--dimension", type=click.Choice(["tag", "item"]), default="tag",
                                show_default=True)
max_n_option = click.option("--max-n", type=click.IntRange(1),
                            default=similarity_mod.DEFAULT_MAX_N, show_default=True)
exponent_option = click.option("--exponent", type=float, default=spear_mod.DEFAULT_EXPONENT,
                               show_default=True)
orphan_divisor_option = click.option("--orphan-divisor", type=click.IntRange(1), show_default=True,
                                     default=motivation_mod.DEFAULT_ORPHAN_DIVISOR)
min_users_option = click.option("--min-users", type=click.IntRange(1),
                                default=spear_mod.DEFAULT_MIN_USERS, show_default=True)
threshold_option = click.option("--threshold", type=float, default=taxonomy_mod.DEFAULT_THRESHOLD,
                                show_default=True)
min_support_option = click.option("--min-support", type=click.IntRange(1),
                                  default=taxonomy_mod.DEFAULT_MIN_SUPPORT, show_default=True)


def _load_index(source, delimiter, header, dedupe):
    # stdin as bytes: the parser decodes it, and names the line of a bad byte
    stream = sys.stdin.buffer if source == "-" else source
    parsed = parse_annotations(stream, delimiter=delimiter, header=header)
    return build_index(parsed.annotations, dedupe=(dedupe == "on")), parsed


def scores_command(binned_flag="--binned"):
    """A command from a function that scores every user of an index.

    The function takes the index and the command's own options and returns
    named score arrays by user code. The command loads the index, writes the
    optional per-user CSV (user, annotations and the scores in user order,
    leaving out users with an undefined (NaN) score) and the binned series
    (report.write_binned_scores) to binned_flag.
    """
    def decorate(score):
        @input_options
        @click.option("--per-user", default=None, help="write per-user scores CSV here")
        @click.option(binned_flag, "binned", default="-", help="binned series CSV (default: stdout)")
        @bins_option
        @_fail_on_domain_errors
        @functools.wraps(score)
        def command(source, delimiter, header, dedupe, per_user, binned, bins, **params):
            index, _ = _load_index(source, delimiter, header, dedupe)
            scores = score(index, **params)
            if per_user:
                values = np.array(list(scores.values()))
                defined = np.flatnonzero(~np.isnan(values).any(axis=0))
                rows = zip(map(index.columns.users.__getitem__, defined.tolist()),
                           index.user_counts[defined].tolist(),
                           *(v[defined].tolist() for v in values))
                report_mod._write_csv(per_user, ["user", "annotations", *scores], rows)
            report_mod.write_binned_scores(binned, index, scores, bins)
        return command
    return decorate


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
def ingest(out, summary_out, **load):
    """Parse, validate, optionally dedupe, and re-emit a dataset."""
    index, parsed = _load_index(**load)
    # a path goes to write_annotations, which checks the names before it opens the file
    with contextlib.nullcontext(out) if out != "-" else report_mod._output(out) as dest:
        write_annotations(index.columns, dest)
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
@click.option("--seed", type=click.IntRange(0), default=0, envvar="FOLKMETRICS_SEED",
              show_default=True, help="RNG seed (FOLKMETRICS_SEED overrides the default)")
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
@fraction_option
@click.option("--out", default="-", help="partition JSON (default: stdout)")
@click.option("--tables", default=None, help="write the per-group summary CSV here")
@click.option("--pareto", default=None, help="write the Pareto curve CSV here")
@click.option("--resolution", type=click.IntRange(2), default=DEFAULT_PARETO_RESOLUTION,
              show_default=True, help="Pareto curve sample points")
@click.option("--full-pareto", is_flag=True, help="export the curve at full resolution")
@click.option("--omit-users", is_flag=True, help="leave user lists out of the JSON")
@click.option("--users-out", default=None,
              help="externalize user lists to <prefix>supertaggers.txt / <prefix>others.txt")
@_fail_on_domain_errors
def partition(fraction, out, tables, pareto, resolution, full_pareto, omit_users, users_out,
              **load):
    """Split users into supertaggers / others and summarize both groups."""
    index, _ = _load_index(**load)
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
@dimension_option
@fraction_option
@max_n_option
@click.option("--out", default="-", help="curve CSV (default: stdout)")
@_fail_on_domain_errors
def similarity(dimension, fraction, max_n, out, **load):
    """Top-N Spearman/cosine similarity curve between the two groups."""
    index, _ = _load_index(**load)
    part = split_supertaggers(index, fraction)
    curve = similarity_mod.similarity_curve(
        index, part, dimension, similarity_mod.default_n_grid(max_n)
    )
    report_mod.write_similarity_csv(out, curve)
    if curve.core_size is not None:
        click.echo(f"core size: {curve.core_size}", err=True)


@main.command("usage-dist")
@input_options
@dimension_option
@click.option("--cumulative", is_flag=True, help="emit the at-least-N cumulative form")
@fraction_option
@click.option("--out", default="-", help="CSV output (default: stdout)")
@_fail_on_domain_errors
def usage_dist(dimension, cumulative, fraction, out, **load):
    """Per-group usage distribution over key popularity."""
    index, _ = _load_index(**load)
    part = split_supertaggers(index, fraction)
    report_mod.write_usage_csv(out, report_mod._usage_by_group(index, part, dimension, cumulative))


def _read_popularity(path, index, delimiter="\t") -> np.ndarray:
    """The sidecar's popularity of each item of the index by code; NaN for an item it does not
    list. Raises for a line that is not UTF-8 or not an item and a finite count >= 0."""
    try:
        text = _utf8(_line_feeds(Path(path).read_bytes()), 1).decode("utf-8")
    except FormatError as exc:
        raise FormatError(f"popularity {exc}") from None
    popularity = {}
    for line in text.split("\n"):
        if not line.strip():
            continue
        item, _, raw = line.partition(delimiter)
        try:
            count = float(raw)
        except ValueError:
            count = math.nan
        if not (math.isfinite(count) and count >= 0):
            raise FolkmetricsError(f"bad popularity line: {line!r}")
        if item.strip() in popularity:
            raise FolkmetricsError(f"popularity line lists an item twice: {line!r}")
        popularity[item.strip()] = count
    return np.array([popularity.get(item, math.nan) for item in index.columns.items])


@main.command("exo-diff")
@input_options
@click.option("--popularity", required=True,
              help="two-column <item><delimiter><count> sidecar file, split on --delimiter")
@fraction_option
@bins_option
@click.option("--out", default="-", help="CSV output (default: stdout)")
@_fail_on_domain_errors
def exo_diff(popularity, fraction, bins, out, **load):
    """S-minus-others annotation difference binned by exogenous popularity."""
    index, _ = _load_index(**load)
    part = split_supertaggers(index, fraction)
    series = similarity_mod.exogenous_popularity_diff(
        index, part, _read_popularity(popularity, index, load["delimiter"]), bins
    )
    report_mod.write_binned_csv(out, series, "mean_diff")


@main.command()
@input_options
@fraction_option
@bins_option
@click.option("--out", default="-", help="CSV output (default: stdout)")
@_fail_on_domain_errors
def consensus(fraction, bins, out, **load):
    """Top-tag match rate and per-item cosine, binned by annotation count."""
    index, _ = _load_index(**load)
    part = split_supertaggers(index, fraction)
    series = consensus_mod.consensus_by_bin(index, part, bins)
    report_mod.write_consensus_csv(out, series)


@main.command()
@scores_command()
@orphan_divisor_option
def motivation(index, orphan_divisor):
    """Categorizer/describer metrics: TPP, TRR, orphan ratio."""
    scores = motivation_mod.motivation_scores(index, orphan_divisor)
    return dict(zip(report_mod.MOTIVATION_METRICS, scores))


@main.command()
@scores_command("--out")
@top_k_option
@min_users_option
@exponent_option
@click.option("--tolerance", type=click.FloatRange(0, min_open=True), callback=_finite,
              default=spear_mod.DEFAULT_TOLERANCE, show_default=True)
@click.option("--max-iter", type=click.IntRange(1), default=spear_mod.DEFAULT_MAX_ITER,
              show_default=True)
def spear(index, top_k, min_users, exponent, tolerance, max_iter):
    """Standardized SPEAR expertise, binned by user annotation count."""
    return {"mean_z": spear_mod.user_mean_z(index, top_k, min_users, exponent, tolerance, max_iter)}


@main.group()
def expertise():
    """Consensus-based and term-depth expertise analyses."""


@expertise.command("consensus")
@scores_command()
def expertise_consensus(index):
    """Item-consensus expertise scores."""
    return {"expertise": expertise_mod.consensus_expertise(index)}


def _forest(index, top_k, min_users, min_support, threshold):
    """The induced forest; raises if no tag is eligible, as then there is nothing to induce."""
    forest = taxonomy_mod.induce_taxonomy(index, top_k, min_users, min_support, threshold)
    if not (forest.nodes.size or forest.disconnected.size):
        raise FolkmetricsError("no eligible tags for taxonomy induction")
    return forest


@expertise.command("depth")
@scores_command()
@click.option("--mode", type=click.Choice(["annotation", "vocabulary"]),
              default="vocabulary", show_default=True)
@threshold_option
@min_support_option
@top_k_option
@min_users_option
def expertise_depth(index, mode, threshold, min_support, top_k, min_users):
    """Term-depth expertise over the induced taxonomy."""
    forest = _forest(index, top_k, min_users, min_support, threshold)
    return {"depth_expertise": taxonomy_mod.depth_expertise(index, forest, mode)}


@main.command()
@input_options
@threshold_option
@min_support_option
@top_k_option
@min_users_option
@click.option("--out", default="-", help="forest JSON (default: stdout)")
@_fail_on_domain_errors
def taxonomy(threshold, min_support, top_k, min_users, out, **load):
    """Induce the tag taxonomy forest and emit it with depth scores."""
    index, _ = _load_index(**load)
    forest = _forest(index, top_k, min_users, min_support, threshold)
    report_mod.write_json(out, report_mod.forest_json(index, forest))


@main.command()
@input_options
@click.option("--out-dir", required=True, help="bundle output directory")
@fraction_option
@bins_option
@max_n_option
@click.option("--pareto-resolution", type=click.IntRange(2), default=DEFAULT_PARETO_RESOLUTION,
              show_default=True)
@top_k_option
@min_users_option
@exponent_option
@threshold_option
@min_support_option
@orphan_divisor_option
@click.option("--popularity", default=None,
              help="optional <item><delimiter><count> popularity sidecar, split on --delimiter")
@_fail_on_domain_errors
def report(out_dir, popularity, threshold, source, delimiter, header, dedupe, **config):
    """Run the full pipeline and write every figure/table data series."""
    # every other option is the ReportConfig field of its name
    config = report_mod.ReportConfig(taxonomy_threshold=threshold, **config)
    index, _ = _load_index(source, delimiter, header, dedupe)
    pop = _read_popularity(popularity, index, delimiter) if popularity else None
    written = report_mod.write_report(index, out_dir, config, popularity=pop)
    click.echo(f"wrote {len(written)} files to {out_dir}", err=True)


if __name__ == "__main__":
    main()
