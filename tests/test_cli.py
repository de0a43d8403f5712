"""CLI surface: subcommands, exit codes, output schemas, determinism."""

import collections
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from folkmetrics.cli import main


FOUR_USER_TSV = "".join(
    [f"a\ti{k}\trock\t{k}\n" for k in range(10)]
    + [f"b\ti{k}\tjazz\t{k}\n" for k in range(5)]
    + [f"c\ti{k}\tpop\t{k}\n" for k in range(3)]
    + [f"d\ti{k}\tfolk\t{k}\n" for k in range(2)]
)


# two users, disjoint items and tags: no shared items, no eligible tags
DEGENERATE_TSV = "a\ti1\tx\t0\na\ti2\tx\t1\nb\tj1\ty\t0\n"


@pytest.fixture
def runner():
    return CliRunner()


def write_fixture(path, text=FOUR_USER_TSV):
    Path(path).write_text(text, encoding="utf-8")
    return str(path)


class TestPartitionCommand:
    def test_four_user_fixture_threshold(self, runner, tmp_path):
        src = write_fixture(tmp_path / "corpus.tsv")
        result = runner.invoke(main, ["partition", src, "--fraction", "0.5"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.stdout)
        assert payload["annotation_threshold"] == 10
        assert payload["supertaggers"] == ["a"]
        assert payload["n_others"] == 3

    def test_tables_and_pareto_files(self, runner, tmp_path):
        src = write_fixture(tmp_path / "corpus.tsv")
        tables = tmp_path / "tables.csv"
        pareto = tmp_path / "pareto.csv"
        result = runner.invoke(
            main,
            ["partition", src, "--tables", str(tables), "--pareto", str(pareto), "--omit-users"],
        )
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(tables.open()))
        assert [r["group"] for r in rows] == ["S", "not_S"]
        assert rows[0]["annotations"] == "10"
        curve = list(csv.DictReader(pareto.open()))
        assert curve[0]["fraction_users"] == "0.0"
        assert curve[-1]["fraction_annotations"] == "1.0"

    def test_users_externalized_to_files(self, runner, tmp_path):
        src = write_fixture(tmp_path / "corpus.tsv")
        prefix = str(tmp_path / "part_")
        result = runner.invoke(main, ["partition", src, "--users-out", prefix])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "part_supertaggers.txt").read_text() == "a\n"
        assert (tmp_path / "part_others.txt").read_text() == "b\nc\nd\n"
        payload = json.loads(result.stdout)
        assert "supertaggers" not in payload

    def test_empty_corpus_exits_one(self, runner, tmp_path):
        src = write_fixture(tmp_path / "empty.tsv", "")
        result = runner.invoke(main, ["partition", src])
        assert result.exit_code == 1

    def test_unknown_flag_exits_two(self, runner, tmp_path):
        src = write_fixture(tmp_path / "corpus.tsv")
        result = runner.invoke(main, ["partition", src, "--no-such-flag"])
        assert result.exit_code == 2

    def test_missing_file_exits_one(self, runner):
        result = runner.invoke(main, ["partition", "/nonexistent.tsv"])
        assert result.exit_code == 1


class TestIngest:
    def test_normalizes_and_counts_malformed(self, runner, tmp_path):
        src = write_fixture(tmp_path / "raw.tsv", "u1\ti1\tRoCk \t3\nbroken line\n")
        out = tmp_path / "clean.tsv"
        summary_out = tmp_path / "summary.json"
        result = runner.invoke(
            main, ["ingest", src, "--out", str(out), "--summary-out", str(summary_out)]
        )
        assert result.exit_code == 0, result.output
        assert out.read_text() == "u1\ti1\trock\t3\n"
        payload = json.loads(summary_out.read_text())
        assert payload["malformed_lines"] == 1
        assert payload["annotations"] == 1

    def test_dedupe_flag(self, runner, tmp_path):
        src = write_fixture(tmp_path / "raw.tsv", "u\ti\tt\t9\nu\ti\tt\t2\n")
        out = tmp_path / "clean.tsv"
        result = runner.invoke(main, ["ingest", src, "--dedupe", "on", "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_text() == "u\ti\tt\t2\n"

    def test_custom_delimiter_roundtrip(self, runner, tmp_path):
        src = write_fixture(tmp_path / "raw.csv", "u1|i1|rock|3\n")
        result = runner.invoke(main, ["ingest", src, "--delimiter", "|"])
        assert result.exit_code == 0
        assert result.stdout == "u1\ti1\trock\t3\n"

    def test_a_name_holding_the_output_delimiter_exits_one(self, runner, tmp_path):
        """A tab inside a comma corpus's name would write a line of five fields, which the next
        ingest would drop as malformed. The names are checked before the output is opened, so
        no output is created and an earlier one keeps its bytes."""
        src = write_fixture(tmp_path / "raw.csv", "u1,a\tb,rock,1\nu2,i2,pop,2\n")
        out = tmp_path / "clean.tsv"
        for before in (None, b"keep me\n"):
            if before is not None:
                out.write_bytes(before)
            result = runner.invoke(main, ["ingest", src, "--delimiter", ",", "--out", str(out)])
            assert result.exit_code == 1
            assert result.stderr == "Error: name 'a\\tb' holds the delimiter '\\t'\n"
            assert (out.read_bytes() if out.exists() else None) == before

    def test_empty_delimiter_is_a_usage_error(self, runner, tmp_path):
        src = write_fixture(tmp_path / "raw.tsv")
        result = runner.invoke(main, ["ingest", src, "--delimiter", ""])
        assert result.exit_code == 2
        assert "--delimiter" in result.output and "must not be empty" in result.output

    @pytest.mark.parametrize("from_stdin", [False, True])
    def test_invalid_utf8_exits_one_naming_the_line(self, runner, tmp_path, from_stdin):
        data = b"u1\ti1\trock\t3\nu2\ti\xff\tjazz\t4\n"
        path = tmp_path / "raw.tsv"
        path.write_bytes(data)
        if from_stdin:
            result = runner.invoke(main, ["ingest", "-"], input=data)
        else:
            result = runner.invoke(main, ["ingest", str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == "Error: line 2: invalid UTF-8 byte 0xff\n"

    def test_stdin_reads_crlf_lines(self, runner):
        data = b"u1\ti1\tRock\t3\r\nu2\ti2\tpop\t4\r\n"
        result = runner.invoke(main, ["ingest", "-"], input=data)
        assert result.exit_code == 0, result.output
        assert result.stdout == "u1\ti1\trock\t3\nu2\ti2\tpop\t4\n"

    def test_stdout_without_a_byte_buffer(self, tmp_path):
        """A caller may redirect stdout to a text-only stream."""
        src = write_fixture(tmp_path / "raw.tsv", "ü\ti1\tRock\t3\n")
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            main(["ingest", src], standalone_mode=False)
        assert captured.getvalue() == "ü\ti1\trock\t3\n"


def _python(code, *args, **env):
    """Run code in a fresh interpreter that imports folkmetrics from this checkout."""
    import folkmetrics

    env = dict(os.environ, PYTHONPATH=str(Path(folkmetrics.__file__).parents[1]), **env)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          check=True)


@pytest.mark.parametrize("module", ["folkmetrics", "folkmetrics.cli"])
def test_import_leaves_out_scipy(module):
    """No module of folkmetrics imports scipy."""
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert _python(code).stdout == b"[]\n"


@pytest.mark.parametrize("command, outputs", [
    (["taxonomy"], ["--out", "{dir}/forest.json"]),
    (["expertise", "depth"], ["--binned", "{dir}/binned.csv", "--per-user", "{dir}/users.csv"]),
    (["report"], ["--out-dir", "{dir}/bundle"]),
], ids=["taxonomy", "expertise depth", "report"])
def test_taxonomy_commands_run_without_scipy(runner, tmp_path, command, outputs):
    """With scipy unimportable, a command that induces the taxonomy exits 0 and writes the
    bytes it writes where scipy can be imported."""
    corpus = tmp_path / "corpus.tsv"
    synth = ["synth", "--users", "300", "--items", "40", "--tags", "15", "--seed", "3"]
    assert runner.invoke(main, synth + ["--out", str(corpus)]).exit_code == 0
    written = {}
    for side in ("scipy", "no_scipy"):
        (tmp_path / side).mkdir()
        args = [*command, str(corpus), "--min-support", "2",
                *(arg.format(dir=tmp_path / side) for arg in outputs)]
        if side == "scipy":
            assert runner.invoke(main, args).exit_code == 0
        else:
            # a None entry in sys.modules makes every import of scipy raise ImportError
            _python("import sys; sys.modules['scipy'] = None; from folkmetrics.cli import main; "
                    "main()", *args)
        files = sorted(path for path in (tmp_path / side).rglob("*") if path.is_file())
        written[side] = {path.relative_to(tmp_path / side): path.read_bytes() for path in files}
    assert written["scipy"] and written["no_scipy"] == written["scipy"]
    for path, data in written["scipy"].items():
        if path.name in ("forest.json", "taxonomy.json"):
            assert json.loads(data)["nodes"]


def test_spear_command_leaves_out_numpy_ma(runner, tmp_path):
    """On numpy >= 2.3 a bare np.unique(x) imports numpy.ma, about 10 ms a run."""
    if _python("import sys, numpy; print('numpy.ma' in sys.modules)").stdout == b"True\n":
        pytest.skip("import numpy alone loads numpy.ma")
    corpus, out = tmp_path / "corpus.tsv", tmp_path / "spear.csv"
    synth = ["synth", "--users", "300", "--items", "40", "--tags", "15", "--seed", "3"]
    assert runner.invoke(main, synth + ["--out", str(corpus)]).exit_code == 0
    code = ("import sys; from folkmetrics.cli import main; "
            "main(sys.argv[1:], standalone_mode=False); print('numpy.ma' in sys.modules)")
    done = _python(code, "spear", str(corpus), "--min-users", "3", "--out", str(out))
    assert done.stdout == b"False\n"
    assert len(out.read_text().splitlines()) > 1


@pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
def test_stdout_is_utf8_whatever_the_locale(tmp_path, encoding):
    """ingest to stdout writes the bytes it writes to a file, which ingest reads back."""
    src = write_fixture(tmp_path / "raw.tsv", "ü\tΩ-item\tStraße\t3\nu2\ti\t東京\t4\n")
    out = tmp_path / "clean.tsv"
    code = "from folkmetrics.cli import main; main()"
    to_file = _python(code, "ingest", src, "--out", str(out), PYTHONIOENCODING=encoding)
    assert to_file.stdout == b""
    to_stdout = _python(code, "ingest", src, PYTHONIOENCODING=encoding)
    assert to_stdout.stdout == out.read_bytes() == "ü\tΩ-item\tstraße\t3\nu2\ti\t東京\t4\n".encode()
    (tmp_path / "again.tsv").write_bytes(to_stdout.stdout)
    again = _python(code, "ingest", str(tmp_path / "again.tsv"), PYTHONIOENCODING=encoding)
    assert again.stdout == to_stdout.stdout


class TestSynth:
    def test_deterministic_output(self, runner):
        args = ["synth", "--users", "40", "--items", "20", "--tags", "10", "--seed", "5"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.stdout == second.stdout
        assert first.stdout.count("\n") >= 40

    def test_seed_env_override(self, runner):
        base = runner.invoke(main, ["synth", "--users", "30"])
        overridden = runner.invoke(main, ["synth", "--users", "30"], env={"FOLKMETRICS_SEED": "99"})
        explicit = runner.invoke(main, ["synth", "--users", "30", "--seed", "99"])
        assert overridden.stdout == explicit.stdout
        assert overridden.stdout != base.stdout

    @pytest.mark.parametrize("option", ["--users", "--items", "--tags"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_counts_below_one_are_usage_errors(self, runner, option, value):
        result = runner.invoke(main, ["synth", option, value])
        assert result.exit_code == 2, result.output
        assert option in result.output and "x>=1" in result.output

    @pytest.mark.parametrize("args, env", [(["--seed", "-1"], {}),
                                           ([], {"FOLKMETRICS_SEED": "-5"})])
    def test_negative_seed_is_a_usage_error(self, runner, tmp_path, args, env):
        out = tmp_path / "corpus.tsv"
        result = runner.invoke(main, ["synth", *args, "--out", str(out)], env=env)
        assert result.exit_code == 2, result.output
        assert "--seed" in result.output and "x>=0" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--activity-exponent", "--item-exponent", "--tag-exponent"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    def test_exponents_not_finite_and_above_zero_exit_one(self, runner, tmp_path, option, value):
        out = tmp_path / "corpus.tsv"
        result = runner.invoke(main, ["synth", option, value, "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert "must be finite and > 0" in result.output and "Traceback" not in result.output
        assert not out.exists()


class TestAnalysisCommands:
    def test_similarity_schema(self, runner, tmp_path):
        src = write_fixture(tmp_path / "corpus.tsv")
        out = tmp_path / "curve.csv"
        result = runner.invoke(
            main, ["similarity", src, "--dimension", "tag", "--max-n", "50", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "N,rho,cosine,coverage"

    def test_usage_dist_cumulative(self, runner, tmp_path):
        src = write_fixture(tmp_path / "corpus.tsv")
        result = runner.invoke(main, ["usage-dist", src, "--cumulative"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "group,N,proportion"
        first_s = next(l for l in lines[1:] if l.startswith("S,"))
        assert first_s.endswith("1.0")

    def test_consensus_requires_shared_items(self, runner, tmp_path):
        src = write_fixture(tmp_path / "corpus.tsv", "a\ti1\tx\t0\nb\ti2\ty\t0\n")
        result = runner.invoke(main, ["consensus", src])
        assert result.exit_code == 1

    def test_consensus_schema(self, runner, tmp_path):
        src = write_fixture(tmp_path / "corpus.tsv")
        result = runner.invoke(main, ["consensus", src, "--bins", "base=2,step=1,max=6"])
        assert result.exit_code == 0, result.output
        header = result.stdout.splitlines()[0]
        assert header == "bin_low,bin_high,top_match_rate,top_match_stderr,cosine_mean,cosine_stderr,n"

    def test_motivation_outputs(self, runner, tmp_path):
        src = write_fixture(tmp_path / "corpus.tsv")
        per_user = tmp_path / "scores.csv"
        binned = tmp_path / "binned.csv"
        result = runner.invoke(
            main,
            ["motivation", src, "--per-user", str(per_user), "--binned", str(binned),
             "--orphan-divisor", "100"],
        )
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(per_user.open()))
        assert {r["user"] for r in rows} == {"a", "b", "c", "d"}
        assert all(float(r["tpp"]) == 1.0 for r in rows)
        assert binned.read_text().splitlines()[0] == "metric,bin_low,bin_high,mean,stderr,n"

    def test_spear_command(self, runner, tmp_path):
        src = write_fixture(tmp_path / "corpus.tsv")
        per_user = tmp_path / "z.csv"
        result = runner.invoke(
            main,
            ["spear", src, "--min-users", "1", "--top-k", "10", "--per-user", str(per_user)],
        )
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines()[0] == "bin_low,bin_high,mean,stderr,n"
        rows = list(csv.DictReader(per_user.open()))
        assert {r["user"] for r in rows} == {"a", "b", "c", "d"}

    def test_spear_reports_unconverged_tags(self, runner, tmp_path):
        src = str(tmp_path / "corpus.tsv")
        runner.invoke(main, ["synth", "--users", "300", "--items", "60", "--tags", "20",
                             "--seed", "5", "--out", src])
        args = ["spear", src, "--min-users", "3", "--out", str(tmp_path / "spear.csv")]
        result = runner.invoke(main, args + ["--max-iter", "1"])
        assert result.exit_code == 0, result.output
        match = re.fullmatch(r"spear: (\d+) of (\d+) tags did not converge within max_iter=1\n",
                             result.stderr)
        assert match and 0 < int(match[1]) <= int(match[2])
        result = runner.invoke(main, args + ["--max-iter", "100000"])
        assert result.exit_code == 0, result.output
        assert result.stderr == ""

    @pytest.mark.parametrize("count", ["many", "nan", "inf", "-3"])
    def test_exo_diff_rejects_bad_popularity_counts(self, runner, tmp_path, count):
        src = write_fixture(tmp_path / "corpus.tsv")
        sidecar = tmp_path / "pop.tsv"
        sidecar.write_text(f"i0\t10\ni1\t{count}\n")
        result = runner.invoke(main, ["exo-diff", src, "--popularity", str(sidecar)])
        assert result.exit_code == 1
        assert f"bad popularity line: 'i1\\t{count}'" in result.stderr

    def test_exo_diff(self, runner, tmp_path):
        src = write_fixture(tmp_path / "corpus.tsv")
        sidecar = tmp_path / "pop.tsv"
        sidecar.write_text("".join(f"i{k}\t{10 * (k + 1)}\n" for k in range(10)))
        result = runner.invoke(main, ["exo-diff", src, "--popularity", str(sidecar)])
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines()[0] == "bin_low,bin_high,mean_diff,stderr,n"

    def test_exo_diff_popularity_follows_delimiter(self, runner, tmp_path):
        """The sidecar splits on the corpus's --delimiter: a comma corpus takes a comma sidecar,
        gives the tab corpus's output, and rejects a tab sidecar."""
        pop = {k: 10 * (k + 1) for k in range(10)}
        outputs = []
        for name, delimiter in (("tab", "\t"), ("comma", ",")):
            src = write_fixture(tmp_path / f"{name}.txt", FOUR_USER_TSV.replace("\t", delimiter))
            sidecar = tmp_path / f"{name}_pop.txt"
            sidecar.write_text("".join(f"i{k}{delimiter}{n}\n" for k, n in pop.items()))
            result = runner.invoke(main, ["exo-diff", src, "--delimiter", delimiter,
                                          "--popularity", str(sidecar)])
            assert result.exit_code == 0, result.output
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        result = runner.invoke(main, ["exo-diff", src, "--delimiter", ",",
                                      "--popularity", str(tmp_path / "tab_pop.txt")])
        assert result.exit_code == 1
        assert "bad popularity line: 'i0\\t10'" in result.stderr

    def test_expertise_consensus(self, runner, tmp_path):
        src = write_fixture(tmp_path / "corpus.tsv")
        result = runner.invoke(main, ["expertise", "consensus", src])
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines()[0] == "bin_low,bin_high,mean,stderr,n"

    def test_expertise_depth(self, runner, tmp_path):
        src = write_fixture(tmp_path / "corpus.tsv")
        result = runner.invoke(
            main,
            ["expertise", "depth", src, "--mode", "vocabulary",
             "--min-users", "1", "--min-support", "1"],
        )
        assert result.exit_code == 0, result.output

    def test_taxonomy_json(self, runner, tmp_path):
        rows = []
        for k in range(12):
            rows.append(f"u{k}\tshared{k}\trock\t0")
            rows.append(f"u{k}\tshared{k}\tclassic rock\t0")
        for k in range(40):
            rows.append(f"v{k}\tother{k}\trock\t0")
        src = write_fixture(tmp_path / "corpus.tsv", "\n".join(rows) + "\n")
        result = runner.invoke(
            main, ["taxonomy", src, "--min-users", "1", "--min-support", "10"]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.stdout)
        assert payload["nodes"]["classic rock"]["parent"] == "rock"
        assert payload["nodes"]["classic rock"]["norm_depth"] == 1.0
        assert "annotation_coverage" in payload

    @pytest.mark.parametrize("command", [["taxonomy"], ["expertise", "depth"]])
    def test_no_eligible_tags_for_taxonomy_exits_one(self, runner, tmp_path, command):
        src = write_fixture(tmp_path / "corpus.tsv", DEGENERATE_TSV)
        result = runner.invoke(main, command + [src])
        assert result.exit_code == 1
        assert result.stderr == "Error: no eligible tags for taxonomy induction\n"

    @pytest.mark.parametrize("args", [
        ["spear", "--top-k", "-1"], ["spear", "--top-k", "0"], ["taxonomy", "--top-k", "-1"],
        ["expertise", "depth", "--top-k", "0"], ["report", "--top-k", "-1"],
        ["motivation", "--orphan-divisor", "0"], ["motivation", "--orphan-divisor", "-3"],
        ["report", "--orphan-divisor", "0"],
        ["similarity", "--max-n", "0"], ["report", "--max-n", "0"],
    ])
    def test_count_options_below_one_are_usage_errors(self, runner, tmp_path, args):
        src = write_fixture(tmp_path / "corpus.tsv")
        out = ["--out-dir", str(tmp_path / "bundle")] if args[0] == "report" else []
        result = runner.invoke(main, args + [src] + out)
        assert result.exit_code == 2, result.output
        assert args[-2] in result.output and "x>=1" in result.output
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize("args", [
        ["spear", "--min-users", "0"], ["spear", "--tolerance", "inf"],
        ["taxonomy", "--min-users", "0"], ["taxonomy", "--min-support", "0"],
        ["expertise", "depth", "--min-users", "0"], ["expertise", "depth", "--min-support", "0"],
        ["report", "--min-users", "0"], ["report", "--min-support", "0"],
        ["spear", "--tolerance", "nan"],
    ])
    def test_min_counts_below_one_and_infinite_tolerance_are_usage_errors(self, runner, tmp_path,
                                                                          args):
        src = write_fixture(tmp_path / "corpus.tsv")
        out = tmp_path / "out"
        target = {"spear": "--out", "taxonomy": "--out", "expertise": "--binned",
                  "report": "--out-dir"}[args[0]]
        result = runner.invoke(main, args + [src, target, str(out)])
        assert result.exit_code == 2, result.output
        assert args[-2] in result.output
        assert not out.exists()

    @pytest.mark.parametrize("args, bound", [
        (["spear", "--max-iter", "0"], "x>=1"), (["spear", "--max-iter", "-1"], "x>=1"),
        (["spear", "--tolerance", "0"], "x>0"), (["spear", "--tolerance", "-1"], "x>0"),
        (["partition", "--resolution", "1"], "x>=2"), (["partition", "--resolution", "0"], "x>=2"),
        (["partition", "--resolution", "-5"], "x>=2"),
        (["report", "--pareto-resolution", "0"], "x>=2"),
        (["consensus", "--bins", "max=inf"], "finite"), (["report", "--bins", "base=nan"], "finite"),
        (["motivation", "--bins", "max=1e300,step=1e-300"], "edges"),
        (["consensus", "--bins", "base=10,step=1,max=400"], "overflows"),
    ])
    def test_limits_that_cannot_be_met_are_usage_errors(self, runner, tmp_path, args, bound):
        src = write_fixture(tmp_path / "corpus.tsv")
        out = tmp_path / "out"
        target = {"spear": "--out", "partition": "--pareto", "report": "--out-dir",
                  "consensus": "--out", "motivation": "--binned"}[args[0]]
        result = runner.invoke(main, args + [src, target, str(out)])
        assert result.exit_code == 2, result.output
        assert args[-2] in result.output and bound in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spear", "report"])
    @pytest.mark.parametrize("exponent", ["nan", "inf", "-inf"])
    def test_non_finite_exponent_exits_one(self, runner, tmp_path, command, exponent):
        src = write_fixture(tmp_path / "corpus.tsv")
        out = tmp_path / "out"
        target = {"spear": "--out", "report": "--out-dir"}[command]
        result = runner.invoke(main, [command, src, "--exponent", exponent, target, str(out)])
        assert result.exit_code == 1, result.output
        assert "finite exponent" in result.stderr and "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["exo-diff", "report"])
    def test_popularity_sidecar_not_utf8_exits_one_naming_the_line(self, runner, tmp_path,
                                                                    command):
        src = write_fixture(tmp_path / "corpus.tsv")
        sidecar = tmp_path / "pop.tsv"
        out = ["--out-dir", str(tmp_path / "bundle")] if command == "report" else []
        for newline in (b"\n", b"\r\n", b"\r"):
            sidecar.write_bytes(b"i0\t10" + newline + b"i\xff1\t3" + newline)
            result = runner.invoke(main, [command, src, "--popularity", str(sidecar)] + out)
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)
            assert result.stderr == "Error: popularity line 2: invalid UTF-8 byte 0xff\n"

    @pytest.mark.parametrize("command", ["exo-diff", "report"])
    def test_popularity_listing_an_item_twice_exits_one(self, runner, tmp_path, command):
        src = write_fixture(tmp_path / "corpus.tsv")
        sidecar = tmp_path / "pop.tsv"
        sidecar.write_text("i0\t10\ni1\t3\ni0 \t7\n")
        out = tmp_path / "out"
        target = {"exo-diff": "--out", "report": "--out-dir"}[command]
        result = runner.invoke(main, [command, src, "--popularity", str(sidecar), target, str(out)])
        assert result.exit_code == 1
        assert result.stderr == "Error: popularity line lists an item twice: 'i0 \\t7'\n"
        assert not out.exists()

    def test_threads_flag_accepted(self, runner, tmp_path):
        src = write_fixture(tmp_path / "corpus.tsv")
        result = runner.invoke(main, ["--threads", "4", "partition", src, "--omit-users"])
        assert result.exit_code == 0, result.output


class TestReportBundle:
    EXPECTED_FILES = {
        "summary.json", "partition.json", "partition_summary.csv", "pareto.csv",
        "tag_usage_dist.csv", "tag_similarity.csv",
        "item_usage_dist.csv", "item_similarity.csv",
        "consensus.csv", "motivation_binned.csv", "spear_binned.csv",
        "consensus_expertise_binned.csv", "taxonomy.json", "depth_binned.csv",
    }

    def _synth_corpus(self, runner, path):
        result = runner.invoke(
            main,
            ["synth", "--users", "200", "--items", "80", "--tags", "40",
             "--seed", "11", "--out", str(path)],
        )
        assert result.exit_code == 0
        return str(path)

    def test_bundle_contains_every_series(self, runner, tmp_path):
        src = self._synth_corpus(runner, tmp_path / "corpus.tsv")
        out_dir = tmp_path / "bundle"
        result = runner.invoke(
            main,
            ["report", src, "--out-dir", str(out_dir), "--min-users", "3", "--min-support", "2"],
        )
        assert result.exit_code == 0, result.output
        assert {p.name for p in out_dir.iterdir()} == self.EXPECTED_FILES

    def test_every_file_declares_a_header(self, runner, tmp_path):
        src = self._synth_corpus(runner, tmp_path / "corpus.tsv")
        out_dir = tmp_path / "bundle"
        runner.invoke(main, ["report", src, "--out-dir", str(out_dir),
                             "--min-users", "3", "--min-support", "2"])
        for path in out_dir.glob("*.csv"):
            first = path.read_text().splitlines()[0]
            assert first and not first[0].isdigit(), f"{path.name} lacks a header row"

    def test_every_numeric_cell_parses_as_a_float(self, runner, tmp_path):
        src = self._synth_corpus(runner, tmp_path / "corpus.tsv")
        sidecar = tmp_path / "pop.tsv"
        sidecar.write_text("".join(f"i{k:02d}\t{k + 1}\n" for k in range(80)))
        out_dir = tmp_path / "bundle"
        result = runner.invoke(main, ["report", src, "--out-dir", str(out_dir), "--popularity",
                                      str(sidecar), "--min-users", "3", "--min-support", "2"])
        assert result.exit_code == 0, result.output
        labels = {"group", "metric", "mode"}
        for path in sorted(out_dir.glob("*.csv")):
            for row in csv.DictReader(path.open()):
                for column, cell in row.items():
                    if column not in labels and cell != "":
                        float(cell)  # raises on e.g. "np.float64(0.5)"

    def test_report_with_popularity_adds_exo_diff(self, runner, tmp_path):
        src = self._synth_corpus(runner, tmp_path / "corpus.tsv")
        sidecar = tmp_path / "pop.tsv"
        sidecar.write_text("".join(f"i{k:02d}\t{k + 1}\n" for k in range(80)))
        out_dir = tmp_path / "bundle"
        result = runner.invoke(
            main,
            ["report", src, "--out-dir", str(out_dir), "--popularity", str(sidecar),
             "--min-users", "3", "--min-support", "2"],
        )
        assert result.exit_code == 0, result.output
        assert (out_dir / "exo_diff.csv").exists()

    def test_byte_identical_across_runs(self, runner, tmp_path):
        src = self._synth_corpus(runner, tmp_path / "corpus.tsv")
        dirs = []
        for name in ("one", "two"):
            out_dir = tmp_path / name
            result = runner.invoke(
                main,
                ["report", src, "--out-dir", str(out_dir),
                 "--min-users", "3", "--min-support", "2"],
            )
            assert result.exit_code == 0, result.output
            dirs.append(out_dir)
        files = sorted(p.name for p in dirs[0].iterdir())
        assert files == sorted(p.name for p in dirs[1].iterdir())
        for name in files:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name

    def test_degenerate_corpus_yields_header_only_series(self, runner, tmp_path):
        src = write_fixture(tmp_path / "corpus.tsv", DEGENERATE_TSV)
        out_dir = tmp_path / "bundle"
        result = runner.invoke(main, ["report", src, "--out-dir", str(out_dir)])
        assert result.exit_code == 0, result.output
        assert {p.name for p in out_dir.iterdir()} == self.EXPECTED_FILES
        assert out_dir.joinpath("spear_binned.csv").read_text().count("\n") == 1
        assert out_dir.joinpath("consensus.csv").read_text().count("\n") == 1
        taxonomy = json.loads(out_dir.joinpath("taxonomy.json").read_text())
        assert taxonomy["nodes"] == {}

    @pytest.mark.parametrize("args", [["--threshold", "0"], ["--fraction", "0"]])
    def test_bad_config_exits_one_before_writing(self, runner, tmp_path, args):
        src = write_fixture(tmp_path / "corpus.tsv")
        out_dir = tmp_path / "bundle"
        result = runner.invoke(main, ["report", src, "--out-dir", str(out_dir)] + args)
        assert result.exit_code == 1 and "Traceback" not in result.output
        assert not out_dir.exists()

    def test_empty_corpus_exits_one_before_writing(self, runner, tmp_path):
        src = write_fixture(tmp_path / "empty.tsv", "")
        out_dir = tmp_path / "bundle"
        result = runner.invoke(main, ["report", src, "--out-dir", str(out_dir)])
        assert result.exit_code == 1 and "empty" in result.output
        assert not out_dir.exists()

    def test_popularity_matching_no_item_exits_one_before_writing(self, runner, tmp_path):
        src = write_fixture(tmp_path / "corpus.tsv")
        sidecar = tmp_path / "pop.tsv"
        sidecar.write_text("nosuch\t3\n")
        out_dir = tmp_path / "bundle"
        result = runner.invoke(main, ["report", src, "--out-dir", str(out_dir),
                                      "--popularity", str(sidecar)])
        assert result.exit_code == 1
        assert result.stderr == "Error: no indexed item has an external popularity value\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("value, extra", [(float("nan"), 0), (1.0, 1)],
                             ids=["no-item-listed", "one-value-too-many"])
    def test_bad_popularity_writes_no_file(self, tmp_path, value, extra):
        import numpy as np

        from folkmetrics.corpus import build_index, parse_annotations
        from folkmetrics.errors import DomainError
        from folkmetrics.report import write_report

        index = build_index(parse_annotations(write_fixture(tmp_path / "corpus.tsv")).annotations)
        popularity = np.full(len(index.columns.items) + extra, value)
        with pytest.raises(DomainError):
            write_report(index, tmp_path / "bundle", popularity=popularity)
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize("bad", [
        dict(fraction=0.0), dict(fraction=float("nan")), dict(max_n=0), dict(pareto_resolution=1),
        dict(top_k=0), dict(taxonomy_threshold=0.0), dict(taxonomy_threshold=1.5),
        dict(orphan_divisor=0), dict(min_users=0), dict(min_support=-1),
        dict(tolerance=float("inf")),
    ])
    def test_bad_config_writes_no_file(self, tmp_path, bad):
        from folkmetrics.corpus import build_index, parse_annotations
        from folkmetrics.errors import DomainError
        from folkmetrics.report import ReportConfig, write_report

        index = build_index(parse_annotations(write_fixture(tmp_path / "corpus.tsv")).annotations)
        with pytest.raises(DomainError):
            write_report(index, tmp_path / "bundle", ReportConfig(**bad))
        assert not (tmp_path / "bundle").exists()

    def test_fraction_one_yields_header_only_similarity(self, runner, tmp_path):
        """With every user in S, not-S is empty: the comparisons are undefined, not errors."""
        src = self._synth_corpus(runner, tmp_path / "corpus.tsv")
        out_dir = tmp_path / "bundle"
        result = runner.invoke(main, ["report", src, "--out-dir", str(out_dir), "--fraction",
                                      "1.0", "--min-users", "3", "--min-support", "2"])
        assert result.exit_code == 0, result.output
        assert {p.name for p in out_dir.iterdir()} == self.EXPECTED_FILES
        for name in ("tag_similarity.csv", "item_similarity.csv"):
            assert out_dir.joinpath(name).read_text() == "N,rho,cosine,coverage\n"
        usage = list(csv.reader(out_dir.joinpath("tag_usage_dist.csv").open()))
        assert len(usage) > 1 and {row[0] for row in usage[1:]} == {"S"}

    def test_granularity_option_is_gone(self, runner, tmp_path):
        src = write_fixture(tmp_path / "corpus.tsv")
        result = runner.invoke(
            main, ["partition", src, "--granularity", "months", "--omit-users"]
        )
        assert result.exit_code == 2, result.output

    def test_raw_counts_option_is_gone(self, runner, tmp_path):
        src = write_fixture(tmp_path / "corpus.tsv")
        out = tmp_path / "scores.csv"
        result = runner.invoke(main, ["expertise", "consensus", src, "--raw-counts",
                                      "--per-user", str(out)])
        assert result.exit_code == 2, result.output
        assert not out.exists()

    def test_stdin_pipeline(self, runner, tmp_path):
        synth_result = runner.invoke(main, ["synth", "--users", "60", "--seed", "2"])
        assert synth_result.exit_code == 0
        out_dir = tmp_path / "bundle"
        result = runner.invoke(
            main,
            ["report", "-", "--out-dir", str(out_dir), "--min-users", "2", "--min-support", "2"],
            input=synth_result.stdout,
        )
        assert result.exit_code == 0, result.output
        assert {p.name for p in out_dir.iterdir()} == self.EXPECTED_FILES


def test_csv_cells_of_numpy_scalars_read_as_plain_numbers(tmp_path):
    """A numpy float is a float, but its repr names its type; the CSV must not.

    A numpy bool is no bool: it writes 1 or 0, as a Python bool does.
    """
    import numpy as np

    from folkmetrics.report import _write_csv

    path = tmp_path / "cells.csv"
    _write_csv(path, ["a", "b", "c"], [(np.float64(0.1), np.int64(7), 0.25),
                                       (np.True_, np.False_, True)])
    assert path.read_text(encoding="utf-8") == "a,b,c\n0.1,7,0.25\n1,0,1\n"


def test_per_user_outputs_match_the_single_user_functions(runner, tmp_path):
    """Each row of the --per-user CSVs equals the user's score in the dict-based reference."""
    import numpy as np

    import analysis_oracle as oracle
    from folkmetrics.corpus import build_index, parse_annotations
    from folkmetrics.spear import eligible_tags
    from folkmetrics.taxonomy import conditional_table, induce_forest

    rng = np.random.default_rng(23)
    # duplicates and users whose items nobody else tagged, so some scores are undefined
    lines = [f"u{rng.integers(40)}\ti{rng.integers(30)}\tt{rng.integers(12)}\t{k}\n"
             for k in range(600)]
    lines += [f"lone\tonly{k}\tzzz\t0\n" for k in range(3)]
    src = write_fixture(tmp_path / "corpus.tsv", "".join(lines))
    index = build_index(parse_annotations(src).annotations)
    users = index.columns.users
    counts = dict(zip(users, index.user_counts.tolist()))
    forest = induce_forest(conditional_table(index, eligible_tags(index, min_users=3), 2))

    def rows(args):
        out = tmp_path / "per_user.csv"
        result = runner.invoke(main, args + [src, "--per-user", str(out),
                                             "--binned", str(tmp_path / "binned.csv")])
        assert result.exit_code == 0, result.output
        return list(csv.reader(out.open()))[1:]

    def expected(scores):
        """The rows of {user: score or scores}, in user-name order."""
        return [[user, str(counts[user]), *map(repr, np.atleast_1d(scores[user]).tolist())]
                for user in users if user in scores]

    assert rows(["motivation"]) == expected(oracle.motivation(index, 100))
    for args, scores in (
        (["expertise", "consensus"], oracle.consensus_expertise(index)),
        (["expertise", "depth", "--min-users", "3", "--min-support", "2", "--mode", "annotation"],
         oracle.depth_expertise(index, oracle.named(index, forest), "annotation")),
        (["expertise", "depth", "--min-users", "3", "--min-support", "2"],
         oracle.depth_expertise(index, oracle.named(index, forest), "vocabulary")),
    ):
        assert rows(args) == expected(scores), args
        assert len(scores) < len(users), args


def test_spear_per_user_rows_match_the_per_tag_reference(runner, tmp_path):
    """Each --per-user mean_z is the user's mean per-tag z-score from the dict-based reference."""
    import numpy as np

    import spear_oracle
    from folkmetrics.corpus import build_index, parse_annotations
    from folkmetrics.spear import eligible_tags

    rng = np.random.default_rng(29)
    lines = [f"u{rng.integers(40)}\ti{rng.integers(30)}\tt{rng.integers(12)}\t{rng.integers(50)}\n"
             for _ in range(600)]
    src = write_fixture(tmp_path / "corpus.tsv", "".join(lines))
    index = build_index(parse_annotations(src).annotations)
    tags = eligible_tags(index, min_users=3)
    expected = spear_oracle.mean_z(index, [index.columns.tags[k] for k in tags.tolist()])
    out = tmp_path / "per_user.csv"
    result = runner.invoke(main, ["spear", src, "--min-users", "3", "--per-user", str(out),
                                  "--out", str(tmp_path / "binned.csv")])
    assert result.exit_code == 0, result.output
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["user", "annotations", "mean_z"]
    assert [row[0] for row in rows[1:]] == sorted(expected)
    counts = dict(zip(index.columns.users, index.user_counts.tolist()))
    for user, annotations, mean_z in rows[1:]:
        assert int(annotations) == counts[user]
        assert float(mean_z) == pytest.approx(expected[user], abs=1e-12)


def test_subcommands_are_thin_slices_of_report(runner, tmp_path):
    """Each subcommand writes the bytes of its file in the report bundle of the c09 corpus."""
    corpus, bundle, bundle_pop = tmp_path / "c09.tsv", tmp_path / "bundle", tmp_path / "bundle_pop"
    synth = ["synth", "--users", "400", "--items", "150", "--tags", "60", "--seed", "20260810"]
    assert runner.invoke(main, synth + ["--out", str(corpus)]).exit_code == 0
    src, options = str(corpus), ["--min-users", "3", "--min-support", "2"]
    # a popularity sidecar: each item's annotation count
    items = collections.Counter(line.split("\t")[1] for line in corpus.read_text().splitlines())
    sidecar = tmp_path / "pop.tsv"
    sidecar.write_text("".join(f"{item}\t{count}\n" for item, count in sorted(items.items())))
    for out_dir, extra in ((bundle, []), (bundle_pop, ["--popularity", str(sidecar)])):
        result = runner.invoke(main, ["report", src, "--out-dir", str(out_dir), *options, *extra])
        assert result.exit_code == 0, result.output

    def run(command, args, **outputs):
        """Run the subcommand on the corpus; outputs maps an output option to a bundle file,
        which the option's output is read back as."""
        paths = {option: tmp_path / f"{option}.out" for option in outputs}
        flags = [arg for option, path in paths.items() for arg in (f"--{option}", str(path))]
        result = runner.invoke(main, [*command.split(), src, *args, *flags])
        assert result.exit_code == 0, (command, result.output)
        return {outputs[option]: path.read_bytes() for option, path in paths.items()}

    cases = [
        ("partition", [], dict(out="partition.json", tables="partition_summary.csv",
                               pareto="pareto.csv")),
        ("similarity", ["--dimension", "tag"], dict(out="tag_similarity.csv")),
        ("similarity", ["--dimension", "item"], dict(out="item_similarity.csv")),
        ("usage-dist", ["--dimension", "tag"], dict(out="tag_usage_dist.csv")),
        ("usage-dist", ["--dimension", "item", "--cumulative"], dict(out="item_usage_dist.csv")),
        ("consensus", [], dict(out="consensus.csv")),
        ("motivation", [], dict(binned="motivation_binned.csv")),
        ("spear", ["--min-users", "3"], dict(out="spear_binned.csv")),
        ("expertise consensus", [], dict(binned="consensus_expertise_binned.csv")),
        ("taxonomy", options, dict(out="taxonomy.json")),
    ]
    for command, args, outputs in cases:
        for name, data in run(command, args, **outputs).items():
            assert data == (bundle / name).read_bytes(), (command, args, name)
    exo = run("exo-diff", ["--popularity", str(sidecar)], out="exo_diff.csv")["exo_diff.csv"]
    assert exo.count(b"\n") > 1 and exo == (bundle_pop / "exo_diff.csv").read_bytes()
    # depth_binned.csv holds both modes' rows, each led by its mode
    depth = (bundle / "depth_binned.csv").read_text().splitlines()[1:]
    for mode in ("annotation", "vocabulary"):
        rows = run("expertise depth", [*options, "--mode", mode], binned="rows")["rows"]
        rows = rows.decode().splitlines()[1:]
        assert rows and rows == [row.split(",", 1)[1] for row in depth if row.startswith(mode)]
    # --users-out writes the bundle's user lists, one name a line
    run("partition", ["--users-out", str(tmp_path / "u_")], out="p.json")
    payload = json.loads((bundle / "partition.json").read_text())
    for group in ("supertaggers", "others"):
        assert (tmp_path / f"u_{group}.txt").read_text().splitlines() == payload[group]
