"""End-to-end CLI flows, exit codes, config precedence, output formats."""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from fpdedup.cli import EXIT_CAP, EXIT_DATA, EXIT_OK, main
from fpdedup.signature import FileStore, write_corpus_dir
from fpdedup.stats import TABLE_COLUMNS
from fpdedup.synth import GenSpec, generate, write_ground_truth

from .conftest import REFERENCE_SIGNATURE_PATH


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    rc = main(["generate", "--subjects", "120", "--dup", "0.1", "--seed", "21",
               "--minutiae-min", "20", "--minutiae-max", "35",
               "--out", str(corpus)])
    assert rc == EXIT_OK
    table = root / "table.tsv"
    rc = main(["index", "--corpus", str(corpus), "--out", str(table)])
    assert rc == EXIT_OK
    return root, corpus, table


def test_generate_writes_corpus_and_truth(generated):
    root, corpus, _ = generated
    records = dict(FileStore.from_directory(corpus))
    assert len(records) == 132
    truth = (corpus.parent / "corpus.truth.tsv").read_text().splitlines()
    assert len(truth) == 12
    assert all("\t" in line for line in truth)


def test_identify_finds_enrolled_record(generated, capsys):
    root, corpus, table = generated
    query = sorted(corpus.iterdir())[0]
    rc = main(["identify", "--query", str(query), "--table", str(table),
               "--corpus", str(corpus)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(query.stem)
    assert out[0].split("\t") == [query.stem, "100.0000", "true"]
    assert out[-1].startswith("penetration\t")
    assert float(out[-1].split("\t")[1]) > 0.0


@pytest.fixture(scope="module")
def manifest(generated):
    """A manifest listing the generated corpus, in the directory's order."""
    root, corpus, _ = generated
    path = root / "manifest.tsv"
    path.write_text("".join(f"{f.stem}\tcorpus/{f.name}\n" for f in sorted(corpus.iterdir())))
    return path


def _without_wall(text: str) -> str:
    return re.sub(r"wall_s=[0-9.]+", "wall_s=", text)


def test_manifest_and_directory_agree(generated, manifest, tmp_path, capsys):
    root, corpus, table = generated
    rebuilt = tmp_path / "t.tsv"
    assert main(["index", "--manifest", str(manifest), "--out", str(rebuilt)]) == EXIT_OK
    assert rebuilt.read_bytes() == table.read_bytes()
    capsys.readouterr()
    for command in (["dedup", "--table", str(table)], ["oracle"]):
        outputs = []
        for source in (["--corpus", str(corpus)], ["--manifest", str(manifest)]):
            assert main(command + source) == EXIT_OK
            captured = capsys.readouterr()
            outputs.append((_without_wall(captured.out), _without_wall(captured.err)))
        assert outputs[0] == outputs[1]


def test_dedup_builds_table_like_index(generated, capsys):
    root, corpus, table = generated
    outputs = []
    for extra in ([], ["--table", str(table)]):
        assert main(["dedup", "--corpus", str(corpus)] + extra) == EXIT_OK
        captured = capsys.readouterr()
        outputs.append((_without_wall(captured.out), _without_wall(captured.err)))
    assert outputs[0] == outputs[1]
    assert "# summary: n=132" in outputs[0][0]


def test_manifest_repeated_id_data_error(generated, tmp_path, capsys):
    root, corpus, _ = generated
    manifest = tmp_path / "m.tsv"
    manifest.write_text(f"S00000\t{corpus}/S00000.sig\nS00001\t{corpus}/S00001.sig\n"
                        f"S00000\t{corpus}/S00002.sig\n")
    assert main(["oracle", "--manifest", str(manifest)]) == EXIT_DATA
    assert "manifest line 3: duplicate record id 'S00000'" in capsys.readouterr().err


def test_table_of_another_grid_data_error(generated, tmp_path, capsys):
    root, corpus, _ = generated
    table6 = tmp_path / "t6.tsv"
    assert main(["index", "--corpus", str(corpus), "--out", str(table6),
                 "--grid-n", "6"]) == EXIT_OK
    query = sorted(corpus.iterdir())[0]
    for command in (["identify", "--query", str(query)], ["stats"]):
        capsys.readouterr()
        rc = main(command + ["--table", str(table6), "--corpus", str(corpus)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert str(table6) in err and "does not have 25 counts (grid_n=5)" in err
    # the same table with its own grid is fine
    assert main(["identify", "--query", str(query), "--table", str(table6),
                 "--corpus", str(corpus), "--grid-n", "6"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0].split("\t") == [query.stem, "100.0000", "true"]


@pytest.mark.parametrize("rewrite", [
    lambda counts: ["x"] * len(counts),
    lambda counts: ["01"] + counts[1:],
    lambda counts: counts[:-1] + ["+1"],
    lambda counts: counts[:12] + ["1.0"] + counts[13:],
], ids=["letters", "leading-zero", "plus-sign", "decimal-point"])
def test_table_key_of_non_counts_data_error(generated, tmp_path, capsys, rewrite):
    # a key of 25 '-'-separated fields that are not all counts would match no
    # query's key: identify would report nothing found and dedup nothing swept
    root, corpus, table = generated
    lines = table.read_text().splitlines()
    key, ids = lines[1].split("\t")
    bad_key = "-".join(rewrite(key.split("-")))
    assert len(bad_key.split("-")) == 25
    bad = tmp_path / "bad.tsv"
    bad.write_text("\n".join([lines[0], f"{bad_key}\t{ids}", *lines[2:]]) + "\n")
    query = sorted(corpus.iterdir())[0]
    for command in (["identify", "--query", str(query)], ["dedup"]):
        capsys.readouterr()
        assert main(command + ["--table", str(bad), "--corpus", str(corpus)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad) in err and f"key {bad_key!r} does not have 25 counts" in err


def test_table_and_corpus_record_ids_must_agree(generated, tmp_path, capsys):
    root, corpus, table = generated
    query = sorted(corpus.iterdir())[0]
    added = tmp_path / "added"
    added.mkdir()
    for f in corpus.iterdir():
        (added / f.name).write_bytes(f.read_bytes())
    (added / "NEW.sig").write_bytes((corpus / "S00005.sig").read_bytes())
    removed = tmp_path / "removed"
    removed.mkdir()
    for f in corpus.iterdir():
        if f.name != "S00003.sig":
            (removed / f.name).write_bytes(f.read_bytes())
    for source, missing in ((added, "from the table: 1 (e.g. 'NEW'); table records "
                                    "missing from the corpus: 0"),
                            (removed, "from the table: 0; table records missing from the "
                                      "corpus: 1 (e.g. 'S00003')")):
        for command in (["dedup"], ["stats"], ["identify", "--query", str(query)]):
            capsys.readouterr()
            rc = main(command + ["--table", str(table), "--corpus", str(source)])
            assert rc == EXIT_DATA
            err = capsys.readouterr().err
            assert str(table) in err and missing in err


def test_separator_in_record_id_data_error(generated, tmp_path, capsys):
    root, corpus, _ = generated
    for name in ("a,b.sig", "a.sig", "b.sig"):
        (tmp_path / name).write_bytes((corpus / "S00000.sig").read_bytes())
    assert main(["dedup", "--corpus", str(tmp_path)]) == EXIT_DATA
    assert "record id 'a,b' contains a separator" in capsys.readouterr().err


@pytest.mark.parametrize("command, name", [("stats", "a\nb"), ("stats --csv", "a,b"),
                                           ("dedup --csv", "a\tb")])
def test_separator_in_name_data_error(generated, capsys, command, name):
    _root, corpus, _table = generated
    rc = main([*command.split(), "--corpus", str(corpus), "--name", name])
    assert rc == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: corpus name {name!r} contains a separator character\n"


def test_dedup_report_and_stats(generated, capsys, tmp_path):
    root, corpus, table = generated
    report_path = tmp_path / "report.tsv"
    rc = main(["dedup", "--corpus", str(corpus), "--table", str(table),
               "--out", str(report_path)])
    assert rc == EXIT_OK
    lines = report_path.read_text().splitlines()
    assert lines[0] == "fpdedup-dedup-report v1"
    assert lines[-1].startswith("# summary: n=132")
    err = capsys.readouterr().err
    assert "duplicates=12" in err


def test_dedup_stdout_and_idempotent(generated, capsys):
    root, corpus, table = generated
    rc = main(["dedup", "--corpus", str(corpus), "--table", str(table)])
    assert rc == EXIT_OK
    first = capsys.readouterr().out
    rc = main(["dedup", "--corpus", str(corpus), "--table", str(table)])
    assert rc == EXIT_OK
    second = capsys.readouterr().out
    # byte-identical primary output, timing lines excluded
    strip = lambda text: [ln for ln in text.splitlines() if not ln.startswith("# summary")]
    assert strip(first) == strip(second)


def test_stats_csv_row(generated, capsys):
    root, corpus, table = generated
    rc = main(["stats", "--corpus", str(corpus), "--table", str(table),
               "--csv", "--name", "synth"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("FBD,Size,Nb class,Avg.")
    cells = out[1].split(",")
    assert cells[0] == "synth"
    assert cells[1] == "132"
    assert cells[9] == "12"


def test_dedup_with_oracle_agreement(generated, capsys):
    root, corpus, table = generated
    rc = main(["dedup", "--corpus", str(corpus), "--table", str(table),
               "--out", str(root / "r.tsv"), "--oracle"])
    assert rc == EXIT_OK
    assert "oracle agreement on shared-key pairs: yes" in capsys.readouterr().err


def test_oracle_groups(generated, capsys):
    root, corpus, _ = generated
    rc = main(["oracle", "--corpus", str(corpus)])
    assert rc == EXIT_OK
    captured = capsys.readouterr()
    groups = captured.out.splitlines()
    assert sum(1 for g in groups if "," in g) == 12
    assert "12 duplicates" in captured.err


def test_oracle_cap_exit_code(generated, capsys):
    root, corpus, _ = generated
    rc = main(["oracle", "--corpus", str(corpus), "--oracle-cap", "10"])
    assert rc == EXIT_CAP
    assert "cap" in capsys.readouterr().err


def test_index_empty_corpus_data_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["index", "--corpus", str(empty), "--out", str(tmp_path / "t.tsv")])
    assert rc == EXIT_DATA
    assert "empty corpus" in capsys.readouterr().err


def test_huge_coordinate_data_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.sig").write_text("1;2;0.5;1\n" + "9" * 401 + ";5;0.5;1\n")
    rc = main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "t.tsv")])
    assert rc == EXIT_DATA
    assert "line 2: x coordinate '999" in capsys.readouterr().err


def test_malformed_corpus_file_named(generated, tmp_path, capsys):
    _, source, _ = generated
    corpus = tmp_path / "corpus"
    write_corpus_dir(FileStore.from_directory(source).values(), corpus)
    bad = corpus / "S00005.sig"
    lines = bad.read_text().splitlines()
    bad.write_text("\n".join([lines[0], "30;x;0.1;0"] + lines[2:]) + "\n")
    message = f"error: {bad}: line 2: y coordinate 'x' is not an integer"
    for command in (["index", "--out", str(tmp_path / "t.tsv")], ["dedup"]):
        rc = main(command + ["--corpus", str(corpus)])
        assert rc == EXIT_DATA
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("bad_input", ["signature", "table", "manifest", "config", "points"])
def test_undecodable_input_named(generated, tmp_path, capsys, bad_input):
    """A file that is not UTF-8 is a data error whose message names the file."""
    _, source, table = generated
    corpus = tmp_path / "corpus"
    write_corpus_dir(FileStore.from_directory(source).values(), corpus)
    files = {"table": tmp_path / "table.tsv", "manifest": tmp_path / "manifest.tsv",
             "config": tmp_path / "config.json", "points": tmp_path / "points.csv",
             # an exact planted copy shares its source's bucket, so the sweep reads it
             "signature": corpus / "D00000.sig"}
    files["table"].write_bytes(table.read_bytes())
    files["manifest"].write_text(
        "".join(f"{f.stem}\tcorpus/{f.name}\n" for f in sorted(corpus.iterdir())))
    files["config"].write_text("{}")
    files["points"].write_text("1000,1.0\n2000,2.0\n")
    bad = files[bad_input]
    bad.write_bytes(b"\xff" + bad.read_bytes())
    rc = main(["regress", "--points", str(bad)] if bad_input == "points" else
              ["dedup", "--manifest", str(files["manifest"]), "--table", str(files["table"]),
               "--config", str(files["config"])])
    assert rc == EXIT_DATA
    assert f"error: {bad}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err


def test_missing_file_data_error(tmp_path, capsys):
    rc = main(["identify", "--query", str(tmp_path / "nope.sig"),
               "--table", str(tmp_path / "nope.tsv"), "--corpus", str(tmp_path)])
    assert rc == EXIT_DATA


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["identify", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
    for argv in (["dedup", "--jobs", "2"], ["bench", "--sizes", "120", "--reps", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)  # removed flags
        assert exc.value.code == 2
    # exactly one corpus source is required
    for argv in (["index", "--out", "t.tsv"], ["oracle"],
                 ["dedup", "--corpus", "c", "--manifest", "m.tsv"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_estimate_published_forecast(capsys):
    rc = main(["estimate", "--n", "10000000", "--avg", "2", "--ms-per-cmp", "1"])
    assert rc == EXIT_OK
    out = dict(line.split("\t")[:2] for line in capsys.readouterr().out.splitlines())
    assert out["classes"] == "5000000"
    assert out["comparisons"] == "5000000"
    assert out["wall_ms"] == "5000000"
    assert out["wall_human"] == "1h23m20s"


def test_regress_published_fit(capsys):
    rc = main(["regress", "--predict", "10000000"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    values = {ln.split("\t")[0]: ln.split("\t")[1:] for ln in lines}
    assert float(values["slope"][0]) == pytest.approx(6.62936e-08, rel=1e-4)
    assert float(values["intercept"][0]) == pytest.approx(1.00177911, rel=1e-6)
    assert float(values["predict"][1]) == pytest.approx(1.664715563, rel=1e-6)


def test_regress_custom_points(tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_text("0,1.0\n10,2.0\n")
    rc = main(["regress", "--points", str(points)])
    assert rc == EXIT_OK
    values = dict(ln.split("\t")[:2] for ln in capsys.readouterr().out.splitlines())
    assert float(values["slope"]) == pytest.approx(0.1)
    assert float(values["intercept"]) == pytest.approx(1.0)


def test_regress_huge_sizes(tmp_path, capfd):
    points = tmp_path / "points.csv"
    points.write_text("1e200,1.0\n2e200,2.0\n")
    assert main(["regress", "--points", str(points)]) == EXIT_OK
    out, err = capfd.readouterr()
    assert out == "slope\t1e-200\nintercept\t0\n"
    assert err == ""


def test_regress_bad_points_line_data_error(tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_text("# size,avg\n0,1.0\n10;2.0\n")
    rc = main(["regress", "--points", str(points)])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == f"error: {points}:3: expected 'size,avg'\n"


@pytest.mark.parametrize("argv, points", [
    (["estimate", "--n", "10", "--avg", "2", "--ms-per-cmp", "-1"], None),
    (["estimate", "--n", "inf", "--avg", "2"], None),
    (["estimate", "--n", "10", "--avg", "inf"], None),
    (["estimate", "--n", "10", "--avg", "2", "--ms-per-cmp", "nan"], None),
    (["estimate", "--n", "1e300", "--avg", "1e300"], None),
    (["regress", "--points"], "1000,1.0\n2000,inf\n"),
    (["regress", "--points"], "nan,1.0\n2000,1.5\n"),
    (["regress", "--points"], "1e-320,1.0\n2e-320,2.0\n"),  # slope 1e320
    (["regress", "--predict", "nan"], None),
    (["regress", "--predict", "inf"], None),
    (["bench", "--sizes", ","], None),
], ids=["negative-ms", "inf-n", "inf-avg", "nan-ms", "overflow", "inf-point", "nan-size",
        "subnormal-sizes", "nan-predict", "inf-predict", "no-sizes"])
def test_non_finite_or_empty_input_prints_nothing(tmp_path, capfd, argv, points):
    if points is not None:
        (tmp_path / "points.csv").write_text(points)
        argv = [*argv, str(tmp_path / "points.csv")]
    assert main(argv) == EXIT_DATA
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1  # no LAPACK messages either


def test_config_file_and_flag_precedence(generated, tmp_path, capsys):
    root, corpus, table = generated
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"score_threshold": 101}))  # invalid on purpose
    rc = main(["stats", "--corpus", str(corpus), "--table", str(table),
               "--config", str(config)])
    assert rc == EXIT_DATA  # config value applied -> rejected by validation
    capsys.readouterr()
    # flag overrides the config value back into range
    rc = main(["stats", "--corpus", str(corpus), "--table", str(table),
               "--config", str(config), "--threshold", "90"])
    assert rc == EXIT_OK


def test_non_finite_tolerance_rejected(generated, tmp_path, capsys):
    root, corpus, table = generated
    query = sorted(corpus.iterdir())[0]
    for flag in ("--angle-tolerance", "--side-tolerance"):
        for value in ("nan", "inf"):
            for command in (["dedup"], ["identify", "--query", str(query)]):
                capsys.readouterr()
                rc = main(command + ["--corpus", str(corpus), "--table", str(table),
                                     flag, value])
                assert rc == EXIT_DATA
                assert "tolerances must be positive and finite" in capsys.readouterr().err
    config = tmp_path / "cfg.json"
    config.write_text('{"angle_tolerance": NaN}')  # Python's JSON reader takes NaN
    rc = main(["dedup", "--corpus", str(corpus), "--config", str(config)])
    assert rc == EXIT_DATA
    assert "tolerances must be positive and finite" in capsys.readouterr().err


def test_config_unknown_key_rejected(generated, tmp_path, capsys):
    root, corpus, table = generated
    config = tmp_path / "cfg.json"
    for key in ("no_such_key", "jobs"):  # jobs: a removed key
        config.write_text(json.dumps({key: 1}))
        rc = main(["stats", "--corpus", str(corpus), "--table", str(table),
                   "--config", str(config)])
        assert rc == EXIT_DATA
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


def test_config_wrong_value_type_rejected(generated, tmp_path, capsys):
    root, corpus, table = generated
    config = tmp_path / "cfg.json"
    for values in ({"grid_n": "5"}, {"neighbors_k": 4.5}, {"grid_n": True},
                   {"min_edge": "15"}, {"max_edge": False}):
        config.write_text(json.dumps(values))
        rc = main(["stats", "--corpus", str(corpus), "--table", str(table),
                   "--config", str(config)])
        assert rc == EXIT_DATA
        (key,) = values
        assert f"config key '{key}' must be" in capsys.readouterr().err
    config.write_text("5")
    assert main(["stats", "--corpus", str(corpus), "--table", str(table),
                 "--config", str(config)]) == EXIT_DATA
    assert "must hold a JSON object" in capsys.readouterr().err
    # an int is a valid value for a float key
    config.write_text(json.dumps({"min_edge": 15, "grid_n": 5}))
    assert main(["stats", "--corpus", str(corpus), "--table", str(table),
                 "--config", str(config)]) == EXIT_OK


def test_help_lists_parameters(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["index", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag, default in [("--grid-n", "5"), ("--min-edge", "15"), ("--max-edge", "100"),
                          ("--neighbors", "4"), ("--threshold", "90"), ("--min-matched", "0")]:
        assert flag in text
        assert default in text


def test_identify_query_from_reference_file(generated, capsys):
    # a query whose key exists nowhere in the corpus: no candidates
    root, corpus, table = generated
    rc = main(["identify", "--query", str(REFERENCE_SIGNATURE_PATH),
               "--table", str(table), "--corpus", str(corpus)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == ["penetration\t0.00000000"]


def test_bench_csv(capsys):
    rc = main(["bench", "--sizes", "120,240", "--seed", "33"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(TABLE_COLUMNS)
    assert len(lines) == 3
    assert lines[1].split(",")[:2] == ["synth-120", "120"]
    assert lines[2].split(",")[:2] == ["synth-240", "240"]


def test_bench_header_is_stats_csv_header(generated, capsys):
    root, corpus, table = generated
    assert main(["stats", "--corpus", str(corpus), "--table", str(table), "--csv"]) == EXIT_OK
    stats_header = capsys.readouterr().out.splitlines()[0]
    assert main(["bench", "--sizes", "50"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == stats_header


def test_bench_bad_sizes_data_error(capsys):
    rc = main(["bench", "--sizes", "100,x"])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == (
        "error: --sizes expects comma-separated integers, got '100,x'\n")


# ---------------------------------------------------------------------------
# Golden reporting outputs: every cell of the statistics row and report but
# the measured durations


def _masked_durations(text: str) -> str:
    """``text`` with each duration (report ``wall_s``, stats ``duration_s``, last CSV cell) as ``*``."""
    return re.sub(r"(wall_s=|duration_s\t|,)\d+\.\d{4}$", r"\1*", text, flags=re.M)


STATS_CSV_HEADER = ("FBD,Size,Nb class,Avg.,Min P.,Max P.,Std dev,Min P. Rate,Max P. Rate,"
                    "Duplicates,Duration deduplication (s)")


def test_golden_stats_text(generated, capsys):
    _root, corpus, _table = generated
    assert main(["stats", "--corpus", str(corpus)]) == EXIT_OK
    assert _masked_durations(capsys.readouterr().out) == (
        "name\tcorpus\nsize\t132\nnb_class\t120\navg\t1.1000\nmin_p\t1\nmax_p\t2\n"
        "std_dev\t0.3000\nmin_rate\t0.7576%\nmax_rate\t1.5152%\nduplicates\t12\n"
        "duration_s\t*\nsweep_comparison_bound\t12\n")


def test_golden_stats_csv(generated, capsys):
    _root, corpus, _table = generated
    assert main(["stats", "--corpus", str(corpus), "--csv"]) == EXIT_OK
    assert _masked_durations(capsys.readouterr().out) == (
        f"{STATS_CSV_HEADER}\ncorpus,132,120,1.1000,1,2,0.3000,0.7576%,1.5152%,12,*\n")


def test_golden_dedup_csv(generated, capsys):
    _root, corpus, _table = generated
    assert main(["dedup", "--corpus", str(corpus), "--csv"]) == EXIT_OK
    out = _masked_durations(capsys.readouterr().out)
    assert out.endswith(
        "# summary: n=132 buckets=120 duplicate_groups=12 comparisons=12 wall_s=*\n"
        f"{STATS_CSV_HEADER}\ncorpus,132,120,1.1000,1,2,0.3000,0.7576%,1.5152%,12,*\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4c385c606053f281902fd9b412b6d72e5e28fd500b141dc05a49785c0eae441a")


def test_golden_bench(capsys):
    assert main(["bench", "--sizes", "100,200"]) == EXIT_OK
    assert _masked_durations(capsys.readouterr().out) == (
        f"{STATS_CSV_HEADER}\n"
        "synth-100,100,100,1.0000,1,1,0.0000,1.0000%,1.0000%,0,*\n"
        "synth-200,200,200,1.0000,1,1,0.0000,0.5000%,0.5000%,0,*\n")


def test_generate_defaults_are_genspec_defaults(tmp_path):
    rc = main(["generate", "--subjects", "25", "--out", str(tmp_path / "cli")])
    assert rc == EXIT_OK
    signatures, truth = generate(GenSpec(subjects=25))
    write_corpus_dir(signatures, tmp_path / "lib")
    write_ground_truth(truth, tmp_path / "lib.truth.tsv")
    names = sorted(path.name for path in (tmp_path / "lib").iterdir())
    assert sorted(path.name for path in (tmp_path / "cli").iterdir()) == names
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()
    assert ((tmp_path / "cli.truth.tsv").read_bytes()
            == (tmp_path / "lib.truth.tsv").read_bytes())


@pytest.mark.parametrize("flag, value", [("--jitter", "1e300"),
                                         ("--offset", "100000000000000000000")])
def test_generate_past_coordinate_limit_writes_nothing(tmp_path, capsys, flag, value):
    out = tmp_path / "corpus"
    rc = main(["generate", "--subjects", "3", "--dup", "1", flag, value, "--out", str(out)])
    assert rc == EXIT_DATA
    assert "2**53" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
