import fcntl
import itertools
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from loopkit import build_extension, catalog, cli, format_table, hierarchy_report, perm
from loopkit.catalog import (
    HEADER,
    CatalogRecord,
    add_table,
    append_record,
    load_catalog,
    parse_filter,
    query,
    record_for,
)
from loopkit.cli import (
    PRESETS,
    _inn_witnessed,
    _predicate_inn_nonsolvable,
    _predicate_problem35,
    main,
)
from loopkit.commutator import HierarchyReport, congruence_derived_series
from loopkit.core import LoopTable, fingerprint
from loopkit.errors import Malformed
from loopkit.extensions import AbelianGroupTable, iter_cocycles_exhaustive, iter_cocycles_random
from loopkit.multgrp import assoc_group, word_rows
from loopkit.perm import PermGroup, derived_series, group_order, is_solvable
from loopkit.tables import cyclic, symmetric
from loopkit.util import INFINITE, format_value, parse_value

from conftest import ORDER_5_LOOP, hunt_candidates


def write_table(tmp_path, name, table):
    path = tmp_path / name
    path.write_text(format_table(table))
    return str(path)


DATA = Path(__file__).parent / "data"


def fresh_env():
    """The environment with loopkit on PYTHONPATH, for a new process."""
    env = dict(os.environ)
    paths = [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def run_fresh(argv, entry=("-m", "loopkit.cli")):
    """`python -m loopkit.cli argv` in a new process, loopkit on its path;
    entry replaces the interpreter arguments before argv."""
    return subprocess.run(
        [sys.executable, *entry, *argv], env=fresh_env(), capture_output=True, timeout=120
    )


def test_record_roundtrip():
    rec = record_for(symmetric(3), source="unit")
    back = CatalogRecord.from_line(rec.to_line())
    assert back == rec
    assert back.report == hierarchy_report(symmetric(3))


def test_value_text_round_trips_and_inf_sorts_last():
    cases = [
        (True, "bool"), (False, "bool"), (0, "int"), (10**59 + 7, "class"), (INFINITE, "class")
    ]
    for value, kind in cases:
        back = parse_value(format_value(value), kind)
        assert back == value and type(back) is type(value)
    assert parse_value("inf", "class") is INFINITE
    assert sorted([INFINITE, 10**400, 0]) == [0, 10**400, INFINITE] and INFINITE > 10**400


def test_a_decimal_longer_than_int_takes_is_malformed(tmp_path):
    """int() takes at most 4,300 digits by default, and so does the value
    grammar: a longer column is an input error, not a ValueError."""
    assert parse_value("9" * 4300, "class") == 10**4300 - 1
    with pytest.raises(Malformed, match="center_size needs"):
        parse_value("1" * 4301, "int", "center_size")
    header, line = (DATA / "catalog-pins.tsv").read_text().splitlines()[:2]
    cols = line.split("\t")
    cols[5] = "1" * 4301
    cat = tmp_path / "cat.tsv"
    cat.write_text(f"{header}\n" + "\t".join(cols) + "\n")
    with pytest.raises(Malformed, match=re.escape(f"catalog {cat} line 2: center_size")):
        load_catalog(cat)
    with pytest.raises(Malformed, match="center_size"):
        add_table(cat, cyclic(2))


def test_report_text_of_the_wrong_kind_is_malformed():
    text = hierarchy_report(symmetric(3)).to_lines()
    for field, bad in [("order", "true"), ("commutative", "1"), ("nilpotency_class", "-1")]:
        lines = [ln for ln in text.splitlines() if not ln.startswith(field + ":")]
        with pytest.raises(Malformed, match=f"{field} needs"):
            HierarchyReport.from_lines("\n".join(lines + [f"{field}: {bad}"]))
        with pytest.raises(Malformed, match=f"{field} needs"):  # the field is missing
            HierarchyReport.from_lines("\n".join(lines))


def test_census_reports_and_records_round_trip(census_tables):
    # OEIS A057771: loops of order n up to isomorphism
    assert [len(census_tables[n]) for n in range(1, 7)] == [1, 1, 1, 2, 6, 109]
    infinite = 0
    lines = []
    for n, tables in census_tables.items():
        fps = [fingerprint(Q) for Q in tables]
        assert fps == sorted(set(fps)) and {Q.order for Q in tables} == {n}
        for Q, fp in zip(tables, fps):
            rep = hierarchy_report(Q)
            rep.check()
            assert HierarchyReport.from_lines(rep.to_lines()) == rep
            record = CatalogRecord(fp, n, rep, "census")
            assert CatalogRecord.from_line(record.to_line()) == record
            lines.append(record.to_line() + "\n")
            infinite += rep.congruence_solvability_class is INFINITE
    assert infinite == 100  # 5 of order 5, 95 of order 6
    # the census pin, as the README's census command writes it
    assert "".join(lines) == (DATA / "census-1-6.tsv").read_text()


def test_append_skips_duplicates(tmp_path):
    path = tmp_path / "cat.tsv"
    rec = record_for(cyclic(2), source="a")
    assert append_record(path, rec)
    assert not append_record(path, record_for(cyclic(2).relabel([1, 0]), source="b"))
    assert len(load_catalog(path)) == 1


def test_query_filters():
    records = [record_for(cyclic(2)), record_for(symmetric(3)), record_for(cyclic(6))]
    hit = query(records, [parse_filter("nilpotency_class=inf")])
    assert [r.order for r in hit] == [6]
    hit = query(records, [parse_filter("order>=6"), parse_filter("commutative=true")])
    assert len(hit) == 1 and hit[0].report.commutative
    assert query(records, [parse_filter("classical_solvability_class<=1")])
    assert [r.fingerprint for r in query(records, [])] == sorted(
        r.fingerprint for r in records
    )
    sourced = [record_for(cyclic(2), source="census"), record_for(cyclic(3), source="pool 7")]
    assert [r.order for r in query(sourced, [parse_filter("source = pool 7")])] == [3]
    assert [r.order for r in query(sourced, [parse_filter("source!=pool 7")])] == [2]


def test_filters_split_at_the_leftmost_operator():
    """A source may hold operator characters, as `catalog add --source`
    stores them: the filter splits at its leftmost operator, taking two
    characters when an operator of two starts there."""
    assert parse_filter("source=x<=y")[::2] == ("source", "x<=y")
    assert parse_filter("source=a>b")[::2] == ("source", "a>b")
    assert parse_filter("source!=a=b")[::2] == ("source", "a=b")
    assert parse_filter("order<=8")[::2] == ("order", 8)
    sourced = [record_for(cyclic(2), source="x<=y"), record_for(cyclic(3), source="a=b")]
    assert [r.order for r in query(sourced, [parse_filter("source=x<=y")])] == [2]
    assert [r.order for r in query(sourced, [parse_filter("source!=a=b")])] == [2]
    assert [r.order for r in query(sourced, [parse_filter("source=a>b")])] == []
    assert sorted(r.order for r in query(sourced, [parse_filter("order<=8")])) == [2, 3]


def test_query_rejects_bad_filters():
    with pytest.raises(Malformed):
        parse_filter("no-operator")
    with pytest.raises(Malformed):
        parse_filter("unknown_field=3")
    for bad in ("supernilpotent=2", "nilpotency_class=true", "order=inf"):
        with pytest.raises(Malformed, match="needs"):
            parse_filter(bad)


# -- command line ---------------------------------------------------------------


def test_cli_analyze(tmp_path, capsys):
    path = write_table(tmp_path, "s3.table", symmetric(3))
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "nilpotency_class: inf" in out
    assert "classical_solvability_class: 2" in out


def test_cli_analyze_malformed_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.table"
    bad.write_text("2\n0 0\n1 1\n")
    assert main(["analyze", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{path}"],
        ["extend", "{path}"],
        ["decompose", "{path}", "--fiber", "0"],
        ["catalog", "add", "{path}", "--catalog", "{catalog}"],
    ],
    ids=["analyze", "extend", "decompose", "catalog-add"],
)
def test_cli_input_file_not_utf8_exits_2(tmp_path, capsys, argv):
    bad, catalog_path = tmp_path / "bad.in", tmp_path / "c.catalog"
    bad.write_bytes(b"\xff\xfe\n")
    assert main([a.format(path=bad, catalog=catalog_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert f"{bad} is not UTF-8" in err
    assert not catalog_path.exists()


def test_cli_analyze_above_report_cap_exits_2(tmp_path, capsys):
    path = write_table(tmp_path, "z256.table", cyclic(256))
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert "256" in err and "128" in err


def test_cli_analyze_order_64_with_huge_multiplication_group(
    tmp_path, capsys, random_extensions
):
    # Z4 by a non-associative order-16 pool loop: |Mlt| = 2**59
    F = next(
        e.table for e in random_extensions
        if e.table.order == 16 and not e.table.is_associative
    )
    A = AbelianGroupTable(cyclic(4))
    gamma = next(iter(iter_cocycles_random(A, F, seed=0, budget=1)))
    path = write_table(tmp_path, "o64.table", build_extension(gamma))
    assert main(["analyze", path]) == 0
    report = HierarchyReport.from_lines(capsys.readouterr().out)
    report.check()
    assert report.order == 64 and not report.associative
    assert report.mlt_order == 64 * report.inn_order > 10**12


def test_cli_analyze_missing_file_exits_4(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.table")]) == 4


def test_cli_extend_and_decompose_roundtrip(tmp_path, capsys):
    cocycle_text = (
        "A\n2\n0 1\n1 0\nF\n2\n0 1\n1 0\n"
        "PHI\n0 0\n0 0\nPSI\n0 0\n0 0\nTHETA\n0 0\n0 1\n"
    )
    cpath = tmp_path / "z4.cocycle"
    cpath.write_text(cocycle_text)
    assert main(["extend", str(cpath)]) == 0
    table_text = capsys.readouterr().out
    assert table_text == "4\n0 1 2 3\n1 0 3 2\n2 3 1 0\n3 2 0 1\n"
    tpath = tmp_path / "q.table"
    tpath.write_text(table_text)
    assert main(["decompose", str(tpath), "--fiber", "0,1"]) == 0
    produced = capsys.readouterr().out
    # feeding the produced cocycle back gives the same loop
    cpath2 = tmp_path / "again.cocycle"
    cpath2.write_text(produced)
    assert main(["extend", str(cpath2)]) == 0
    assert capsys.readouterr().out == table_text


Z2_COCYCLE = "A\n2\n0 1\n1 0\nF\n2\n0 1\n1 0\nPHI\n0 0\n0 0\nPSI\n0 0\n0 0\nTHETA\n0 0\n0 0\n"


def test_cli_extend_invalid_cocycle_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cocycle"
    path.write_text(Z2_COCYCLE.replace("THETA\n0 0", "THETA\n0 1"))
    assert main(["extend", str(path)]) == 2
    assert "theta border" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (Z2_COCYCLE + "A\n2\n0 1\n1 0\n", "duplicate section A"),
        ("2\n" + Z2_COCYCLE, "content before first section: '2'"),
        (Z2_COCYCLE.replace("PSI\n0 0", "PSI\n0 y"), "bad token in PSI row '0 y'"),
        (Z2_COCYCLE.replace("THETA\n0 0", "THETA\n0 0 0"), "THETA row has 3 entries, expected 2"),
    ],
    ids=["duplicate-section", "before-first-section", "bad-token", "row-length"],
)
def test_cli_extend_malformed_cocycle_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.cocycle"
    path.write_text(text)
    assert main(["extend", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_cli_decompose_nonabelian_fiber_exits_3(tmp_path, capsys):
    from loopkit.core import g_oplus

    # order-8 loop with a normal Z4 fiber that is not abelian in Q
    oplus = ((0, 1, 2, 3), (1, 2, 3, 0), (3, 0, 1, 2), (2, 3, 0, 1))
    q = g_oplus(cyclic(4), oplus)
    path = write_table(tmp_path, "goplus.table", q)
    assert main(["decompose", path, "--fiber", "0,1,2,3"]) == 3
    assert "error" in capsys.readouterr().err


def test_cli_decompose_non_subloop_exits_3(tmp_path, capsys):
    path = write_table(tmp_path, "s3.table", symmetric(3))
    assert main(["decompose", path, "--fiber", "0,1"]) == 3  # a subloop, not normal
    assert main(["decompose", path, "--fiber", "0,1,2"]) == 3  # generates S3
    assert "listed elements do not form a subloop" in capsys.readouterr().err


def test_cli_decompose_fiber_out_of_range_exits_2(tmp_path, capsys):
    path = write_table(tmp_path, "s3.table", symmetric(3))
    assert main(["decompose", path, "--fiber", "0,9"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["decompose", path, "--fiber", "0,x"]) == 2
    assert "bad fiber list '0,x'" in capsys.readouterr().err


def test_cli_decompose_automorphism_cap_names_order_and_cap(tmp_path, capsys):
    # the even elements of Z24 are a fiber of order 12, above the cap of 10
    path = write_table(tmp_path, "z24.table", cyclic(24))
    assert main(["decompose", path, "--fiber", ",".join(map(str, range(0, 24, 2)))]) == 2
    assert "automorphism enumeration of order 12 exceeds cap 10" in capsys.readouterr().err


def test_cli_catalog_query_bad_value_exits_2(tmp_path, capsys):
    cat = tmp_path / "cat.tsv"
    assert main(["catalog", "add", write_table(tmp_path, "s3.table", symmetric(3)),
                 "--catalog", str(cat)]) == 0
    hex_fp = capsys.readouterr().out.split()[1]  # add prints hex; query takes decimal
    for bad in ("order=abc", f"fingerprint={hex_fp}"):
        assert main(["catalog", "query", bad, "--catalog", str(cat)]) == 2, bad
        assert "error:" in capsys.readouterr().err
    assert main(["catalog", "query", f"fingerprint={int(hex_fp, 16)}", "--catalog", str(cat)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


@pytest.mark.parametrize("contents", [None, "", HEADER + "\n"])
def test_cli_catalog_query_bad_value_exits_2_without_records(tmp_path, capsys, contents):
    cat = tmp_path / "cat.tsv"  # missing, empty, or header only
    if contents is not None:
        cat.write_text(contents)
    for bad in ("order=abc", "commutative=yes", "nilpotency_class<=x"):
        assert main(["catalog", "query", bad, "--catalog", str(cat)]) == 2, bad
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err
    assert main(["catalog", "query", "order=2", "--catalog", str(cat)]) == 0
    assert capsys.readouterr().out == ""


def test_cli_catalog_roundtrip(tmp_path, capsys):
    cat = tmp_path / "cat.tsv"
    path = write_table(tmp_path, "z2.table", cyclic(2))
    assert main(["catalog", "add", path, "--catalog", str(cat), "--source", "t"]) == 0
    first = capsys.readouterr().out
    assert first.startswith("added")
    assert main(["catalog", "add", path, "--catalog", str(cat)]) == 0
    assert capsys.readouterr().out.startswith("duplicate")
    assert main(["catalog", "query", "order=2", "--catalog", str(cat)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 1
    rec = CatalogRecord.from_line(rows[0])
    assert rec.report == hierarchy_report(cyclic(2)) and rec.source == "t"
    # query on empty catalog: empty output, success
    assert main(["catalog", "query", "order=2", "--catalog", str(tmp_path / "none")]) == 0
    assert capsys.readouterr().out == ""


def test_torn_last_line_is_skipped_and_cut_but_malformed_line_is_fatal(
    tmp_path, capsys, caplog
):
    cat = tmp_path / "cat.tsv"
    z2 = write_table(tmp_path, "z2.table", cyclic(2))
    s3 = write_table(tmp_path, "s3.table", symmetric(3))
    assert main(["catalog", "add", z2, "--catalog", str(cat)]) == 0
    record = cat.read_bytes()
    fragment = record[:40]  # a writer that died mid-record
    cat.write_bytes(fragment)
    capsys.readouterr()

    assert main(["catalog", "query", "order>=1", "--catalog", str(cat)]) == 0
    assert capsys.readouterr().out == ""
    assert str(cat) in caplog.text and "torn" in caplog.text
    assert main(["catalog", "add", s3, "--catalog", str(cat)]) == 0
    assert capsys.readouterr().out.startswith("added")
    assert cat.read_bytes().count(b"\n") == 2 and fragment not in cat.read_bytes()  # header, s3
    caplog.clear()
    assert [r.order for r in load_catalog(cat)] == [6]
    assert "torn" not in caplog.text

    # the record after a complete line is kept; only the torn tail goes
    cat.write_bytes(record + fragment)
    assert main(["catalog", "add", s3, "--catalog", str(cat)]) == 0
    assert cat.read_bytes().startswith(record)
    assert sorted(r.order for r in load_catalog(cat)) == [2, 6]

    cat.write_bytes(fragment + b"\n")
    capsys.readouterr()
    assert main(["catalog", "query", "order>=1", "--catalog", str(cat)]) == 2
    err = capsys.readouterr().err
    assert "columns" in err and f"catalog {cat} line 2:" in err, err
    assert main(["catalog", "add", s3, "--catalog", str(cat)]) == 2
    assert cat.read_bytes() == fragment + b"\n"
    cat.write_bytes(b"\xff" + record)
    assert main(["catalog", "query", "order>=1", "--catalog", str(cat)]) == 2
    assert "UTF-8" in capsys.readouterr().err

    # a complete line with a bad value: an input error naming the
    # catalog, the line and the column
    header, line = record.decode().splitlines()
    cols = line.split("\t")
    bad_columns = [
        (0, "zz", "fingerprint"),
        (5, "x", "center_size"),
        (3, "maybe", "commutative"),
        (1, "3", "order"),  # the report's order is 2
    ]
    for i, value, column in bad_columns:
        text = f"{header}\n" + "\t".join(cols[:i] + [value] + cols[i + 1:]) + "\n"
        cat.write_text(text)
        for argv in (["catalog", "query", "order>=1"], ["catalog", "add", s3]):
            assert main(argv + ["--catalog", str(cat)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: catalog {cat} line 2:") and column in err, err
        assert cat.read_text() == text


# Each corruption of a column's text v; every one is malformed in every
# column but the source, which takes any text without a tab, CR or LF.
CORRUPTIONS = {
    "empty": lambda v: "",
    "space-padded": lambda v: f" {v} ",
    "leading plus": lambda v: f"+{v}",
    "Inf": lambda v: "Inf",
    "uppercase hex": lambda v: "85673F5A5A6BA8EE",
    "15 hex digits": lambda v: "85673f5a5a6ba8e",
    "non-ASCII digit": lambda v: "\u0663",
    "CR": lambda v: f"{v}\r",
    "extra tab": lambda v: f"{v}\tx",
}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_record_pattern_and_column_parser_agree(tmp_path, corruption):
    """On each column of a valid record line, _RECORD matches the
    corrupted line exactly when the per-column parser accepts it.  A
    rejected line raises Malformed naming its column (an extra tab: the
    column count) from from_line, and its file and line from
    load_catalog."""
    header, line = (DATA / "catalog-pins.tsv").read_text().splitlines()[:2]
    cols = line.split("\t")
    names = ["fingerprint", "order", *catalog.FIELD_KINDS, "source"]
    assert len(cols) == len(names) == 16
    cat = tmp_path / "cat.tsv"
    for i, name in enumerate(names):
        bad = "\t".join(cols[:i] + [CORRUPTIONS[corruption](cols[i])] + cols[i + 1:])
        matched = catalog._RECORD.fullmatch(bad) is not None
        cat.write_text(f"{header}\n{line}\n{bad}\n")
        if name == "source" and corruption not in ("CR", "extra tab"):
            assert matched, (name, corruption)
            record = CatalogRecord._from_columns(bad)
            assert CatalogRecord.from_line(bad) == record and load_catalog(cat)[1] == record
            continue
        assert not matched, (name, corruption)
        expected = "17 columns" if corruption == "extra tab" else name
        for parse in (CatalogRecord._from_columns, CatalogRecord.from_line):
            with pytest.raises(Malformed, match=re.escape(expected)):
                parse(bad)
        with pytest.raises(Malformed, match=re.escape(f"catalog {cat} line 3: ")):
            load_catalog(cat)


def test_order_columns_equal_as_integers_load():
    """The pattern wants the two order columns as the same text; the
    per-column parser, which decides, compares them as integers."""
    line = (DATA / "catalog-pins.tsv").read_text().splitlines()[1]
    fp, _, _, rest = line.split("\t", 3)
    for first, second in [("016", "16"), ("16", "016")]:
        text = "\t".join([fp, first, second, rest])
        assert catalog._RECORD.fullmatch(text) is None
        record = CatalogRecord.from_line(text)
        assert record.order == record.report.order == 16
        assert record == CatalogRecord._from_columns(text)


@pytest.mark.skipif(not os.path.exists("/proc/locks"), reason="reads blocked locks in /proc/locks")
def test_catalog_add_waits_for_the_write_lock(tmp_path):
    """A second writer blocks on the catalog's exclusive lock: it writes
    nothing while the lock is held and adds its one record once the lock
    is released."""
    cat = tmp_path / "cat.tsv"
    assert append_record(cat, record_for(cyclic(2), source="first"))
    before = cat.read_bytes()
    s3 = write_table(tmp_path, "s3.table", symmetric(3))
    argv = ["-m", "loopkit.cli", "catalog", "add", s3, "--catalog", str(cat), "--source", "s"]
    with open(cat, "a+b") as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        child = subprocess.Popen(
            [sys.executable, *argv], env=fresh_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        waiting = re.compile(rf"->\s+FLOCK\s+ADVISORY\s+WRITE\s+{child.pid}\s")
        deadline = time.monotonic() + 60
        try:
            while not waiting.search(Path("/proc/locks").read_text()):
                assert child.poll() is None, "the add did not wait for the lock"
                assert time.monotonic() < deadline, "the add never reached the lock"
                time.sleep(0.01)
            assert cat.read_bytes() == before
        except BaseException:
            child.kill()
            child.communicate()
            raise
    out, err = child.communicate(timeout=120)
    assert child.returncode == 0 and out.startswith(b"added"), err
    assert cat.read_bytes().startswith(before)
    assert [r.source for r in load_catalog(cat)] == ["first", "s"]


def test_catalog_v2_header_and_unversioned_catalog_exits_2(tmp_path, capsys):
    cat = tmp_path / "cat.tsv"
    z2 = write_table(tmp_path, "z2.table", cyclic(2))
    s3 = write_table(tmp_path, "s3.table", symmetric(3))
    assert main(["catalog", "add", z2, "--catalog", str(cat)]) == 0
    assert cat.read_text().splitlines()[0] == HEADER == "# loopkit-catalog v2"
    assert main(["catalog", "add", s3, "--catalog", str(cat)]) == 0
    assert cat.read_text().count(HEADER) == 1
    assert [r.order for r in load_catalog(cat)] == [2, 6]

    cat.write_text(cat.read_text().split("\n", 1)[1])  # a catalog of the v1 format
    unversioned = cat.read_bytes()
    capsys.readouterr()
    assert main(["catalog", "query", "order>=1", "--catalog", str(cat)]) == 2
    assert str(cat) in capsys.readouterr().err
    assert main(["catalog", "add", z2, "--catalog", str(cat)]) == 2
    assert str(cat) in capsys.readouterr().err
    assert cat.read_bytes() == unversioned
    with pytest.raises(Malformed, match="loopkit-catalog v2"):
        load_catalog(cat)

    empty = tmp_path / "empty.tsv"
    empty.write_bytes(b"")
    assert load_catalog(empty) == []
    assert append_record(empty, record_for(cyclic(2)))
    assert empty.read_text().startswith(HEADER + "\n")


def test_catalog_add_builds_no_report_for_a_duplicate(tmp_path, capsys, monkeypatch):
    cat = tmp_path / "cat.tsv"
    s3 = write_table(tmp_path, "s3.table", symmetric(3))
    copy = write_table(tmp_path, "s3r.table", symmetric(3).relabel([5, 3, 1, 0, 2, 4]))
    assert main(["catalog", "add", s3, "--catalog", str(cat)]) == 0
    added = capsys.readouterr().out

    def no_report(Q):
        raise AssertionError("report built for a duplicate")

    monkeypatch.setattr(catalog, "hierarchy_report", no_report)
    assert main(["catalog", "add", copy, "--catalog", str(cat)]) == 0
    assert capsys.readouterr().out == added.replace("added", "duplicate")


def test_catalog_add_above_report_cap_exits_2_before_fingerprinting(
    tmp_path, capsys, monkeypatch
):
    cat = tmp_path / "cat.tsv"
    path = write_table(tmp_path, "z129.table", cyclic(129))

    def no_fingerprint(Q):
        raise AssertionError("fingerprint computed above the report cap")

    monkeypatch.setattr(catalog, "fingerprint", no_fingerprint)
    assert main(["catalog", "add", path, "--catalog", str(cat)]) == 2
    assert "order 129 exceeds the report cap 128" in capsys.readouterr().err
    assert not cat.exists()


@pytest.mark.parametrize("source", ["a\tb", "a\nb", "a\rb", "\n"])
def test_cli_catalog_add_rejects_a_source_with_a_tab_or_line_break(
    tmp_path, capsys, monkeypatch, source
):
    """Such a source would split its record into the wrong number of
    columns or lines and break every later read of the catalog."""
    cat = tmp_path / "cat.tsv"
    assert main(["catalog", "add", write_table(tmp_path, "s3.table", symmetric(3)),
                 "--catalog", str(cat), "--source", "ok"]) == 0
    before = cat.read_bytes()
    capsys.readouterr()

    def no_fingerprint(Q):
        raise AssertionError("fingerprint computed for a bad source")

    monkeypatch.setattr(catalog, "fingerprint", no_fingerprint)
    z2 = write_table(tmp_path, "z2.table", cyclic(2))
    assert main(["catalog", "add", z2, "--catalog", str(cat), "--source", source]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and repr(source) in captured.err
    assert cat.read_bytes() == before
    assert main(["catalog", "add", z2, "--catalog", str(tmp_path / "new.tsv"),
                 "--source", source]) == 2
    assert not (tmp_path / "new.tsv").exists()
    assert main(["catalog", "query", "--catalog", str(cat)]) == 0
    assert capsys.readouterr().out.endswith("\tok\n")


@pytest.mark.parametrize("source", ["a\tb", "a\nb", "a\rb"])
def test_catalog_record_refuses_a_source_with_a_tab_or_line_break(tmp_path, source):
    cat = tmp_path / "cat.tsv"
    good = record_for(cyclic(2), source="ok")
    assert append_record(cat, good)
    before = cat.read_bytes()
    with pytest.raises(Malformed, match="source"):
        CatalogRecord(good.fingerprint, good.order, good.report, source)
    with pytest.raises(Malformed, match="source"):
        add_table(cat, symmetric(3), source)
    with pytest.raises(Malformed, match="source"):
        record_for(symmetric(3), source)
    assert cat.read_bytes() == before
    assert load_catalog(cat) == [good]


def test_cli_search_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = main(
            [
                "search",
                "--preset",
                "order6-nilpotent",
                "--out",
                str(out),
            ]
        )
        assert code == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    assert any(name.endswith(".table") for name in files1)
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_search_unknown_preset(tmp_path, capsys):
    assert main(["search", "--preset", "nope", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("flag", ["--budget", "--max-hits"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_search_count_below_one_exits_2(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    argv = ["search", "--preset", "order6-nilpotent", flag, value, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""
    assert not out.exists()  # nothing scanned, nothing written


def test_cli_search_budget_caps_an_exhaustive_preset(tmp_path, capsys):
    preset = PRESETS["order6-nilpotent"]
    first = itertools.islice(
        iter_cocycles_exhaustive(AbelianGroupTable(preset["A"]()), preset["F"](), True), 3
    )
    expected = sum(preset["predicate"](build_extension(gamma)) for gamma in first)
    assert expected == 2  # of the 12 hits among all 16 cocycles
    argv = ["search", "--preset", "order6-nilpotent", "--budget", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    log = (tmp_path / "order6-nilpotent.log").read_text().splitlines()
    assert len(log) == expected and all("\tbudget=3\t" in line for line in log)
    assert capsys.readouterr().out.endswith(f"hits={expected}\n")
    assert len(list(tmp_path.glob("*.table"))) == expected


def test_problem35_predicate_holds_on_an_order_5_loop():
    # Mlt = S5 is not solvable, Inn = S4 is; the loop is not congruence
    # solvable, so it says nothing about the open question the hunt asks
    Q = LoopTable(ORDER_5_LOOP)
    assert not Q.is_associative
    assert group_order(assoc_group(Q, "MLT")) == 120
    assert group_order(assoc_group(Q, "INN")) == 24
    assert congruence_derived_series(Q)[1] is INFINITE
    assert _predicate_problem35(Q)


def series_class(Q, which):
    """Derived length of a new group on Q's word rows for `which`."""
    return derived_series(PermGroup(Q.order, word_rows(Q, which))).cls


@pytest.fixture
def asked(monkeypatch):
    """The groups the predicates ask assoc_group for, in order, with
    "derived" for each derived subgroup taken."""
    calls = []
    real, real_derived = cli.assoc_group, perm.derived_subgroup
    monkeypatch.setattr(cli, "assoc_group", lambda Q, which: calls.append(which) or real(Q, which))
    monkeypatch.setattr(perm, "derived_subgroup",
                        lambda G: calls.append("derived") or real_derived(G))
    return calls


def assert_no_inn_rows(Q):
    """Neither INN's word rows nor INN's group is memoised on Q."""
    assert not {("word_rows", "INN"), ("assoc_group", "INN")} & Q._memo.keys(), Q


# the derived terms is_solvable takes of each Mlt that Burnside's theorem
# does not settle at once, in candidate order
DERIVED_TERMS = {0: [1, 2, 1, 1, 1, 2], 5: [2, 2]}


@pytest.mark.parametrize(
    "seed, by_burnside",
    [(0, [21, 146, 186, 198, 219, 228, 236, 239]), (5, [182, 211])],
)
def test_problem35_predicate_matches_the_derived_series(asked, seed, by_burnside):
    """On the first 240 hunt candidates.  A Galois witness on 3n inner
    maps settles every non-solvable Inn, and assoc_group is asked for
    nothing.  Otherwise Mlt's chain is built once; where |Mlt| has at
    most two prime divisors, Burnside's theorem settles it and no
    derived subgroup is taken.  Every other Mlt here is solvable: its
    derived series is walked only to the first term whose order has at
    most two prime divisors, never to the trivial group, and Inn is never
    formed.  Neither Inn predicate forms INN's word rows."""
    settled, taken = [], []
    for i, Q in enumerate(hunt_candidates(seed, 240)):
        asked.clear()
        got = _predicate_problem35(Q)
        assert_no_inn_rows(Q)
        calls = list(asked)
        fresh = LoopTable(Q.mul)
        got_inn = _predicate_inn_nonsolvable(fresh)
        assert_no_inn_rows(fresh)
        inn_solvable = series_class(Q, "INN") is not INFINITE
        assert got is (inn_solvable and series_class(Q, "MLT") is INFINITE), i
        assert got_inn is not inn_solvable, i
        if not inn_solvable:
            assert calls == [] and _inn_witnessed(Q), i
        elif calls == ["MLT"]:
            settled.append(i)
        else:
            k = len(calls) - 1
            assert calls == ["MLT"] + ["derived"] * k and "inner_group" not in Q._memo, i
            assert 1 <= k < series_class(Q, "MLT"), i
            taken.append(k)
    assert settled == by_burnside
    assert taken == DERIVED_TERMS[seed]


def test_inn_witness_is_sound(pool, census_loops):
    """A witness proves Inn not solvable: is_solvable of a fresh INN and
    its derived series agree, on the pool and the census loops.  It finds all 9 non-solvable Inns of the pool and 173 of the
    190 of the census loops; the 17 it misses, all of order 6, fall
    through to Inn as Mlt's stabiliser (the check is one-sided)."""
    witnessed = missed = 0
    for Q in [e.table for e in pool] + census_loops:
        inn_infinite = series_class(Q, "INN") is INFINITE
        if _inn_witnessed(Q):
            assert inn_infinite, Q
            assert not is_solvable(PermGroup(Q.order, word_rows(Q, "INN"))), Q
            witnessed += 1
        else:
            missed += inn_infinite
    assert (witnessed, missed) == (182, 17)


def test_problem35_predicate_on_small_loops(census_loops):
    """Both Inn predicates against the derived series on the census
    loops, whose relabelings move the neutral off 0; in 27 of them it is
    n - 1, where the witness's sample is T alone.  The 5 non-associative
    classes of order 5 have Inn = S4 and Mlt = S5: |Mlt| = 120 has three
    primes, so Mlt's derived series decides them, and Inn is read off
    Mlt's chain.  Each predicate runs on a fresh copy and forms no INN
    word rows."""
    hits = 0
    for Q in census_loops:
        inn_infinite = series_class(Q, "INN") is INFINITE
        fresh = LoopTable(Q.mul)
        assert _predicate_inn_nonsolvable(fresh) is inn_infinite, Q
        assert_no_inn_rows(fresh)
        fresh = LoopTable(Q.mul)
        got = _predicate_problem35(fresh)
        assert_no_inn_rows(fresh)
        assert got is (not inn_infinite and series_class(Q, "MLT") is INFINITE), Q
        hits += got
    assert hits == 10


def test_cli_search_open_problem_hunt_runs(tmp_path, capsys):
    # the hunt for a solvable-Inn / non-solvable-Mlt abelian extension is
    # expected to come up empty; it must still run and log deterministically
    code = main(
        ["search", "--preset", "mltq-solvability-hunt", "--budget", "5", "--out", str(tmp_path)]
    )
    assert code == 0
    assert capsys.readouterr().out.strip().endswith("hits=0")


def test_main_builds_no_parser_per_call(tmp_path, capsys, monkeypatch):
    path = write_table(tmp_path, "s3.table", symmetric(3))

    def no_parser():
        raise AssertionError("parser built per call")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    assert main(["analyze", path]) == 0
    assert capsys.readouterr().out == hierarchy_report(symmetric(3)).to_lines()


def test_main_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    # the parser is shared by every main() call, argparse errors included
    table = write_table(tmp_path, "s3.table", symmetric(3))

    def commands(root):
        root.mkdir()
        cat = str(root / "cat.tsv")
        return [
            ["analyze", table],
            ["catalog"],
            ["catalog", "add", table, "--catalog", cat, "--source", "t"],
            ["catalog", "query", "order=6", "--catalog", cat],
            ["search", "--preset", "order6-nilpotent", "--budget", "3", "--out", str(root / "out")],
        ]

    here, fresh = tmp_path / "here", tmp_path / "fresh"
    for argv, fresh_argv in zip(commands(here), commands(fresh)):
        if argv == ["catalog"]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            code = exc.value.code
            assert code == 2
        else:
            code = main(argv)
        captured = capsys.readouterr()
        proc = run_fresh(fresh_argv)
        assert code == proc.returncode, argv
        assert captured.out.encode() == proc.stdout, argv
        assert captured.err.encode() == proc.stderr, argv

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    assert files(here) == files(fresh)
    assert len(files(here)) == 6  # cat.tsv, the log, two hits of two files each


def test_decompose_does_not_import_numpy_ma():
    """np.unique imports numpy.ma on its first call (numpy 2.4 asks
    np.ma.is_masked), about 14 ms per process; decompose and the
    extraction behind it take distinct element indices without it."""
    then = ("import sys; from loopkit.cli import main; code = main(sys.argv[1:]); "
            "sys.stderr.write(str('numpy.ma' in sys.modules)); sys.exit(code)")
    proc = run_fresh(["decompose", str(DATA / "d4.table"), "--fiber", "0,2"], entry=("-c", then))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / "d4-fiber-0-2.decompose").read_bytes()
    assert proc.stderr == b"False"


def test_console_entry_point(tmp_path):
    path = write_table(tmp_path, "z3.table", cyclic(3))
    proc = run_fresh(["analyze", path])
    assert proc.returncode == 0
    assert b"order: 3" in proc.stdout


def test_fingerprints_collide_exactly_for_isomorphic_tables():
    a = cyclic(6)
    b = cyclic(6).relabel([4, 2, 0, 5, 1, 3])
    c = symmetric(3)
    assert fingerprint(a) == fingerprint(b)
    assert fingerprint(a) != fingerprint(c)
