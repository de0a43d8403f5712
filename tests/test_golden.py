"""The report bundle of the c09 corpus against a committed reference bundle.

tests/golden/c09_report holds the 14 files `report` wrote for the c09
`synth` corpus (400 users, 150 items, 60 tags, seed 20260810, with
--min-users 3 --min-support 2). The test writes the bundle again and
compares it cell by cell: integers and strings exactly, floats to a
relative 1e-12. A change that moves a number must update the reference
and say why.
"""

import csv
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from folkmetrics.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden" / "c09_report"
REL = 1e-12


def _cell(text: str):
    """A CSV cell as the int, float or string it spells."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _assert_same(got, expected, where):
    if isinstance(expected, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), where
        assert got == pytest.approx(expected, rel=REL, abs=0.0), where
    elif isinstance(expected, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(expected), where
        for key in expected:
            _assert_same(got[key], expected[key], f"{where}/{key}")
    elif isinstance(expected, list):
        assert isinstance(got, list) and len(got) == len(expected), where
        for k, (g, e) in enumerate(zip(got, expected)):
            _assert_same(g, e, f"{where}[{k}]")
    else:
        assert type(got) is type(expected) and got == expected, where


def _read(path: Path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    return [[_cell(field) for field in row] for row in csv.reader(text.splitlines())]


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    corpus, out = tmp / "corpus.tsv", tmp / "bundle"
    runner = CliRunner()
    result = runner.invoke(cli_main, ["synth", "--users", "400", "--items", "150", "--tags", "60",
                                      "--seed", "20260810", "--out", str(corpus)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(cli_main, ["report", str(corpus), "--out-dir", str(out),
                                      "--min-users", "3", "--min-support", "2"])
    assert result.exit_code == 0, result.output
    return out


def test_bundle_has_the_reference_files(bundle):
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert len(names) == 14
    assert sorted(p.name for p in bundle.iterdir()) == names


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_bundle_file_matches_the_reference(bundle, name):
    _assert_same(_read(bundle / name), _read(GOLDEN / name), name)


def test_comparator_tolerates_only_float_rounding():
    _assert_same([[1, 0.1 + 0.2, "S"]], [[1, 0.3, "S"]], "row")
    for got in ([[2, 0.3, "S"]], [[1, 0.3001, "S"]], [[1, 0.3, "s"]], [[1.0, 0.3, "S"]]):
        with pytest.raises(AssertionError):
            _assert_same(got, [[1, 0.3, "S"]], "row")
