"""Invariant catalog: append-only, line-delimited, tab-separated records.

One record per line: hex fingerprint, order, the thirteen report fields
in dataclass order, then the source tag.  The fingerprint is the 64-bit
hash of the canonical (lex-least, neutral-at-0) relabeling, so isomorphic
tables collide by construction.  Writers are expected to be exclusive
(single-writer rule); readers may run at any time.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields

from .commutator import HierarchyReport, hierarchy_report
from .core import LoopTable, fingerprint
from .errors import Malformed
from .util import parse_class, parse_value

_REPORT_FIELDS = [f.name for f in fields(HierarchyReport)]


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


def load_catalog(path) -> list[CatalogRecord]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh if ln.strip()]
    except FileNotFoundError:
        return []
    return [CatalogRecord.from_line(ln) for ln in lines]


def append_record(path, record: CatalogRecord) -> bool:
    """Append unless an equal fingerprint is already present."""
    existing = load_catalog(path)
    if any(r.fingerprint == record.fingerprint for r in existing):
        return False
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(record.to_line() + "\n")
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
