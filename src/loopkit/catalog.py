"""Invariant catalog: append-only, line-delimited, tab-separated records.

The first line is the format header HEADER; further lines starting with
'#' are comments.  Then one record per line: hex fingerprint, order, the
thirteen report fields in dataclass order, then the source tag.  The
fingerprint is the 64-bit hash of the canonical table (core.canonicalize:
the least of the labelings grown from an isomorphism-invariant set of
generator tuples), so isomorphic tables collide by construction.  Each
line is checked against one compiled record pattern (_RECORD), built
from util.VALUE_PATTERNS and commutator.FIELD_KINDS; reading a catalog
builds no records, and a line the pattern rejects goes to the
per-column parser (CatalogRecord._from_columns), which decides: a bad
column, or an order column other than the report's order, raises
Malformed naming it.  A catalog with records but without the header holds fingerprints
of an earlier canonical form and is rejected.  Writers are exclusive
(single-writer rule): an append holds an exclusive flock on the catalog
from its read to its write.  Readers take no lock and may run at any
time.  A writer that dies mid-record leaves a last line without its
trailing newline: readers skip it with a warning, and the next append
cuts it off before writing.  A source tag is one column of one line, so
a tab, CR or LF in it raises Malformed before anything is written.
"""

from __future__ import annotations

import fcntl
import logging
import operator
import re
from dataclasses import dataclass

from .commutator import FIELD_KINDS, HierarchyReport, check_report_order, hierarchy_report
from .core import LoopTable, fingerprint
from .errors import Malformed
from .util import VALUE_PATTERNS, parse_value, values_of

HEADER = "# loopkit-catalog v2"

_FINGERPRINT = re.compile("[0-9a-f]{16}")
_SOURCE_BREAKS = re.compile("[\t\r\n]")
# One record line whose report order repeats the order column's text; a
# line it rejects goes to CatalogRecord._from_columns.  Its groups: the
# fingerprint, the report's fields in dataclass order (order, the first,
# is the order column), the source.
_RECORD = re.compile(
    "\t".join(
        [
            f"({_FINGERPRINT.pattern})",
            f"(?P<order>{VALUE_PATTERNS['int']})",
            *(
                "(?P=order)" if name == "order" else f"({VALUE_PATTERNS[kind]})"
                for name, kind in FIELD_KINDS.items()
            ),
            "([^\t\r\n]*)",
        ]
    )
)

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CatalogRecord:
    fingerprint: int
    order: int
    report: HierarchyReport
    source: str

    def __post_init__(self):
        _check_source(self.source)

    def to_line(self) -> str:
        cols = [f"{self.fingerprint:016x}", str(self.order)]
        cols.extend(self.report.field_values().values())  # in dataclass field order
        cols.append(self.source)
        return "\t".join(cols)

    @classmethod
    def from_line(cls, line: str) -> "CatalogRecord":
        """to_line's inverse; a bad column raises Malformed naming it.  A
        line _RECORD matches is read from its groups, any other by
        _from_columns."""
        line = line.rstrip("\n")
        match = _RECORD.fullmatch(line)
        if match is None:
            return cls._from_columns(line)
        fp, *values, source = match.groups()
        report = HierarchyReport(*values_of(values))
        return cls(int(fp, 16), report.order, report, source)

    @classmethod
    def _from_columns(cls, line: str) -> "CatalogRecord":
        """The per-column parser, which decides what a record line is."""
        cols = line.split("\t")
        if len(cols) != 2 + len(FIELD_KINDS) + 1:
            raise Malformed(f"catalog record has {len(cols)} columns")
        if not _FINGERPRINT.fullmatch(cols[0]):
            raise Malformed(f"fingerprint needs 16 lowercase hex digits, got {cols[0]!r}")
        report = HierarchyReport.from_values(dict(zip(FIELD_KINDS, cols[2:-1])))
        if parse_value(cols[1], "int", "order") != report.order:
            raise Malformed(f"order column {cols[1]} differs from the report's {report.order}")
        return cls(int(cols[0], 16), report.order, report, cols[-1])


def _check_source(source: str) -> None:
    """Malformed, naming the source, when it holds a tab, CR or LF."""
    if _SOURCE_BREAKS.search(source):
        raise Malformed(f"source {source!r} holds a tab or line break")


def record_for(Q: LoopTable, source: str = "") -> CatalogRecord:
    return CatalogRecord(
        fingerprint=fingerprint(Q),
        order=Q.order,
        report=hierarchy_report(Q),
        source=source,
    )


def _record_lines(path, data: bytes) -> tuple[list[str], bytes]:
    """The record lines among the complete lines of data, each one
    checked, and the torn last line (b"" if none).  A malformed complete
    line, or a first line that is not HEADER, raises Malformed naming the
    file (and the 1-based line)."""
    end = data.rfind(b"\n") + 1
    torn = data[end:]
    if torn:
        _log.warning(
            "catalog %s: skipping a torn last line (%d bytes, no trailing newline)",
            path,
            len(torn),
        )
    try:
        lines = data[:end].decode("utf-8").split("\n")[:-1]
    except UnicodeDecodeError as exc:
        raise Malformed(f"catalog {path} is not UTF-8: {exc}") from None
    if lines and lines[0] != HEADER:
        raise Malformed(
            f"catalog {path} does not start with {HEADER!r}; its fingerprints "
            "are from an earlier canonical form"
        )
    checked = []
    match = _RECORD.fullmatch
    for number, ln in enumerate(lines, 1):
        if match(ln):  # only an accelerator: _from_columns decides the rest
            checked.append(ln)
        elif ln.strip() and ln[0] != "#":
            try:
                CatalogRecord._from_columns(ln)
            except Malformed as exc:
                raise Malformed(f"catalog {path} line {number}: {exc}") from None
            checked.append(ln)
    return checked, torn


def load_catalog(path) -> list[CatalogRecord]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return []
    return [CatalogRecord.from_line(ln) for ln in _record_lines(path, data)[0]]


def _append(path, fp: int, make_record) -> bool:
    """Append make_record() unless fingerprint fp is already present,
    holding an exclusive lock from the read to the write.  A torn last
    line is cut off first, so the record starts a line of its own; a
    catalog with no complete line gets the header first."""
    with open(path, "a+b") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)  # released when fh closes
        fh.seek(0)
        lines, torn = _record_lines(path, fh.read())
        key = f"{fp:016x}"
        if any(ln[:16] == key for ln in lines):
            return False
        text = make_record().to_line() + "\n"
        start = fh.tell() - len(torn)
        if torn:
            fh.truncate(start)
        fh.write(((HEADER + "\n" if start == 0 else "") + text).encode("utf-8"))
    return True


def append_record(path, record: CatalogRecord) -> bool:
    """Append unless an equal fingerprint is already present."""
    return _append(path, record.fingerprint, lambda: record)


def add_table(path, Q: LoopTable, source: str = "") -> tuple[bool, int]:
    """(added, fingerprint) for adding Q's record; the catalog is read
    once, and the report is built only for a new fingerprint.  A source
    with a tab or line break (Malformed) and an order above the report
    cap (CapExceeded) raise before any of that."""
    _check_source(source)
    check_report_order(Q)
    fp = fingerprint(Q)

    def record() -> CatalogRecord:
        return CatalogRecord(fp, Q.order, hierarchy_report(Q), source)

    return _append(path, fp, record), fp


_OPS = {
    "<=": operator.le,
    ">=": operator.ge,
    "!=": operator.ne,
    "=": operator.eq,
    "<": operator.lt,
    ">": operator.gt,
}
_OP_PATTERN = re.compile("|".join(map(re.escape, _OPS)))  # two-character operators first


def parse_filter(text: str):
    """One filter 'field OP value' with OP in  = != <= >= < >, as (field,
    operator, value).  The value is parsed with the field's kind here (a
    decimal fingerprint), so a bad one raises Malformed before any
    catalog is read."""
    match = _OP_PATTERN.search(text)  # the leftmost operator, two characters if it can
    if match is None:
        raise Malformed(f"no comparison operator in filter {text!r}")
    field_name, op_text, raw = text[: match.start()].strip(), match[0], text[match.end():].strip()
    if field_name == "source":
        return field_name, _OPS[op_text], raw
    kind = "int" if field_name == "fingerprint" else FIELD_KINDS.get(field_name)
    if kind is None:
        raise Malformed(f"unknown field {field_name!r}")
    return field_name, _OPS[op_text], parse_value(raw, kind, field_name)


def _record_value(record: CatalogRecord, field_name: str):
    if field_name in ("source", "fingerprint"):
        return getattr(record, field_name)
    return getattr(record.report, field_name)


def query(records, filters) -> list[CatalogRecord]:
    """Records matching every filter (from parse_filter), sorted by
    fingerprint."""
    out = [
        record
        for record in records
        if all(op(_record_value(record, name), want) for name, op, want in filters)
    ]
    return sorted(out, key=lambda r: r.fingerprint)
