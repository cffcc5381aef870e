"""Invariant catalog: append-only, line-delimited, tab-separated records.

One record per line: hex fingerprint, order, the thirteen report fields
in dataclass order, then the source tag.  The fingerprint is the 64-bit
hash of the canonical (lex-least, neutral-at-0) relabeling, so isomorphic
tables collide by construction.  Writers are expected to be exclusive
(single-writer rule); readers may run at any time.  A writer that dies
mid-record leaves a last line without its trailing newline: readers skip
it with a warning, and the next append cuts it off before writing.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass, fields

from .commutator import HierarchyReport, hierarchy_report
from .core import LoopTable, fingerprint
from .errors import Malformed
from .util import parse_class, parse_value

_REPORT_FIELDS = [f.name for f in fields(HierarchyReport)]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CatalogRecord:
    fingerprint: int
    order: int
    report: HierarchyReport
    source: str

    def to_line(self) -> str:
        values = self.report.field_values()
        cols = [f"{self.fingerprint:016x}", str(self.order)]
        cols.extend(values[name] for name in _REPORT_FIELDS)
        cols.append(self.source)
        return "\t".join(cols)

    @classmethod
    def from_line(cls, line: str) -> "CatalogRecord":
        cols = line.rstrip("\n").split("\t")
        if len(cols) != 2 + len(_REPORT_FIELDS) + 1:
            raise Malformed(f"catalog record has {len(cols)} columns")
        return cls(
            fingerprint=int(cols[0], 16),
            order=int(cols[1]),
            report=HierarchyReport.from_values(dict(zip(_REPORT_FIELDS, cols[2:-1]))),
            source=cols[-1],
        )


def record_for(Q: LoopTable, source: str = "") -> CatalogRecord:
    return CatalogRecord(
        fingerprint=fingerprint(Q),
        order=Q.order,
        report=hierarchy_report(Q),
        source=source,
    )


def _load(path) -> tuple[list[CatalogRecord], bytes]:
    """The records of the complete lines, and the torn last line (b"" if
    none).  A malformed complete line raises Malformed."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return [], b""
    end = data.rfind(b"\n") + 1
    torn = data[end:]
    if torn:
        _log.warning(
            "catalog %s: skipping a torn last line (%d bytes, no trailing newline)",
            path,
            len(torn),
        )
    try:
        lines = data[:end].decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise Malformed(f"catalog {path} is not UTF-8: {exc}") from None
    return [CatalogRecord.from_line(ln) for ln in lines if ln.strip()], torn


def load_catalog(path) -> list[CatalogRecord]:
    return _load(path)[0]


def append_record(path, record: CatalogRecord) -> bool:
    """Append unless an equal fingerprint is already present.  A torn last
    line is cut off first, so the record starts a line of its own."""
    existing, torn = _load(path)
    if any(r.fingerprint == record.fingerprint for r in existing):
        return False
    with open(path, "ab") as fh:
        if torn:
            fh.truncate(fh.tell() - len(torn))
        fh.write((record.to_line() + "\n").encode("utf-8"))
    return True


_OPS = {
    "<=": operator.le,
    ">=": operator.ge,
    "!=": operator.ne,
    "=": operator.eq,
    "<": operator.lt,
    ">": operator.gt,
}


def parse_filter(text: str):
    """One filter 'field OP value' with OP in  = != <= >= < >  and
    inf-aware values."""
    for op_text in ("<=", ">=", "!=", "=", "<", ">"):
        if op_text in text:
            field_name, _, raw = text.partition(op_text)
            field_name = field_name.strip()
            raw = raw.strip()
            break
    else:
        raise Malformed(f"no comparison operator in filter {text!r}")
    if field_name not in _REPORT_FIELDS and field_name not in ("order", "source", "fingerprint"):
        raise Malformed(f"unknown field {field_name!r}")
    return field_name, _OPS[op_text], raw


def _record_value(record: CatalogRecord, field_name: str):
    if field_name == "order":
        return record.order
    if field_name == "source":
        return record.source
    if field_name == "fingerprint":
        return record.fingerprint
    return getattr(record.report, field_name)


def _coerce(raw: str, sample):
    if isinstance(sample, bool):
        if raw not in ("true", "false"):
            raise Malformed(f"boolean field needs true/false, got {raw!r}")
        return parse_value(raw)
    if isinstance(sample, str):
        return raw
    return parse_class(raw)


def query(records, filters) -> list[CatalogRecord]:
    """Records matching every filter, sorted by fingerprint."""
    out = []
    for record in records:
        keep = True
        for field_name, op, raw in filters:
            have = _record_value(record, field_name)
            want = _coerce(raw, have)
            if not op(have, want):
                keep = False
                break
        if keep:
            out.append(record)
    return sorted(out, key=lambda r: r.fingerprint)
