"""The four workloads: seeded corpora, untraced and traced ops, checks.

Every corpus comes from loopkit's own `pools` and `tables` generators and
`loopkit.util.SplitMix64`; the program sees only the generated tables
(written to files where the command under test reads a file).

The hunt draws its candidates at the workload seed, as `loopkit search
--seed` does.  The other workloads run a fixed set of tables, the random
pool's at the pool's own master seed, and the workload seed draws the
order they run in.  Two seeds thus give different inputs that do the
same work: the cost of some calls (the canonical form above all) depends
on the labeling of a table, so relabeling at the seed would make runs at
different seeds incomparable.  Outputs are recorded per table.

Each workload builds ops twice over:

* the untraced op is what a user runs: `cli.main([...])` in-process with
  stdout captured, or the public function a search or a check calls;
* the traced op performs the same public calls one level down, each in a
  span, and must produce the same output.  It mirrors the call structure
  of the program as of the commit that introduced the benchmark.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import math
import os

from loopkit import cli
from loopkit.catalog import CatalogRecord, append_record, load_catalog, parse_filter, query
from loopkit.commutator import (
    HierarchyReport,
    classical_derived_series,
    commutator_subloop,
    is_abelian_in_A1,
    is_abelian_in_A3,
    is_abelian_in_A4,
    is_central_in,
    upper_central_series,
)
from loopkit.core import direct_product, fingerprint, format_table, is_isomorphic, parse_table
from loopkit.errors import CapExceeded, NotNormal
from loopkit.extensions import (
    AbelianGroupTable,
    build_extension,
    extract_cocycle,
    iter_cocycles_random,
)
from loopkit.multgrp import assoc_group
from loopkit.perm import derived_series, group_order, lower_central_series
from loopkit.pools import POOL_MASTER_SEED, random_extension_pool
from loopkit.structure import Subloop, all_normal_subloops, center_subloop, is_normal
from loopkit.tables import cyclic, klein
from loopkit.util import INFINITE, SplitMix64, hash_tokens, is_finite

from harness import Op

# Deadline of the order-64 analyze op, and the safety deadline of every
# other op (none comes near it at the commit that set these values), in
# reference seconds (speed.py).
O64_DEADLINE_S = 4.0
SAFETY_DEADLINE_S = 60.0

# Ops a run attempts per second of --seconds.  A run attempts a fixed
# number of ops, ceil(seconds * OPS_PER_S) (abelian-routes: the pairs of
# as many whole tables as give about that many), so that every run of a
# workload covers the same kinds of tables in the same proportions and a
# faster program finishes the same ops sooner.  At --seconds 16 that is
# 36, 240, 260 and 30 ops, whose op phases take about 16, 6, 11 and 15
# reference seconds (speed.py) at the commit that set these values.
OPS_PER_S = {"analyze": 2.25, "hunt": 15.0, "abelian-routes": 16.25, "catalog-add": 1.875}

HUNT_PRESET = "mltq-solvability-hunt"

def ops_for(workload: str, seconds: float) -> int:
    """The number of ops a run of `seconds` attempts."""
    return max(1, math.ceil(seconds * OPS_PER_S[workload]))


def derive(seed: int, name: str) -> int:
    """A 64-bit seed for one corpus, fixed by the workload seed and a name."""
    return hash_tokens([seed, *name.encode()])


def _capture(argv):
    """cli.main in-process: (succeeded, stdout text or stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        return False, f"exit {code}: {err.getvalue().strip()}"
    return True, out.getvalue()


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_corpus(workdir, texts):
    paths = []
    for i, text in enumerate(texts):
        path = os.path.join(workdir, f"t{i:04d}.table")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)
    return paths


def forget_program_state():
    """Empty every functools cache in loopkit's modules and collect
    garbage: the state a fresh `loopkit` process starts from.  Runs
    between ops, outside their latency but inside the phase's time."""
    for name in ("core", "perm", "multgrp", "structure", "commutator", "extensions", "catalog"):
        module = importlib.import_module(f"loopkit.{name}")
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()
    gc.collect()


def _key(label: str) -> str:
    """The table key of an op label "<workload>#<index>:<key>"."""
    return label.rsplit(":", 1)[1]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- traced building blocks ----------------------------------------------------


def _series(T, span, fn, group):
    """derived_series / lower_central_series with its counts."""
    with T.span(span):
        result = fn(group)
    T.count("perm.generators_in", len(group.generators))
    T.count("perm.series_steps", len(result.orders) - 1 + (not is_finite(result.cls)))
    return result


def _group(T, Q, which):
    with T.span("multgrp.assoc_group"):
        group = assoc_group(Q, which)
    T.count("multgrp.generators", len(group.generators))
    return group


def _order(T, group):
    with T.span("perm.group_order"):
        return group_order(group)


def _commutator(T, Q, A, B):
    with T.span("commutator.commutator_subloop"):
        result = commutator_subloop(Q, A, B)
    T.count("commutator.commutator_calls")
    return result


def _congruence_class(T, Q):
    """congruence_derived_series(Q)[1], one span per commutator."""
    with T.span("commutator.congruence_derived_series"):
        series = [Subloop(Q, tuple(range(Q.order)))]
        while True:
            current = series[-1]
            if current.is_trivial():
                return len(series) - 1
            nxt = _commutator(T, Q, current, current)
            if nxt.elements == current.elements:
                return INFINITE
            if not set(nxt.elements) <= set(current.elements):
                raise AssertionError("commutator series failed to descend")
            series.append(nxt)


def traced_report(T, Q) -> HierarchyReport:
    """hierarchy_report(Q), broken into the public calls it is made of."""
    with T.span("commutator.hierarchy_report"):
        mlt = _group(T, Q, "MLT")
        inn = _group(T, Q, "INN")
        commutative, associative = Q.is_commutative, Q.is_associative
        with T.span("structure.center_subloop"):
            center_size = center_subloop(Q).size
        with T.span("commutator.upper_central_series"):
            nilpotency = upper_central_series(Q)[1]
        congruence = _congruence_class(T, Q)
        with T.span("structure.all_normal_subloops"):
            T.count("structure.normal_subloops", len(all_normal_subloops(Q)))
        with T.span("commutator.classical_derived_series"):
            classical = classical_derived_series(Q)[1]
        mlt_order = _order(T, mlt)
        with T.span("commutator.is_supernilpotent"):
            supernilpotent = is_finite(
                _series(T, "perm.lower_central_series", lower_central_series, mlt).cls
            )
        mlt_solvable = _series(T, "perm.derived_series", derived_series, mlt).cls
        mlt_nilpotency = _series(T, "perm.lower_central_series", lower_central_series, mlt).cls
        inn_order = _order(T, inn)
        inn_solvable = _series(T, "perm.derived_series", derived_series, inn).cls
        report = HierarchyReport(
            order=Q.order,
            commutative=commutative,
            associative=associative,
            center_size=center_size,
            nilpotency_class=nilpotency,
            congruence_solvability_class=congruence,
            classical_solvability_class=classical,
            supernilpotent=supernilpotent,
            mlt_order=mlt_order,
            mlt_solvable_class=mlt_solvable,
            mlt_nilpotency_class=mlt_nilpotency,
            inn_order=inn_order,
            inn_solvable_class=inn_solvable,
        )
        report.check()
    return report


def _parse(T, text):
    with T.span("core.parse_table"):
        return parse_table(text)


# -- analyze ---------------------------------------------------------------------


def pool_tables(count: int):
    """The first `count` random pool extensions (orders 8..16), in the
    pool's round-robin order over its 22 shapes."""
    return [e.table for e in random_extension_pool(count)]


def shuffled(items, rng):
    """A uniformly drawn permutation of the list (Fisher-Yates)."""
    items = list(items)
    for j in range(len(items) - 1, 0, -1):
        k = rng.below(j + 1)
        items[j], items[k] = items[k], items[j]
    return items


def analyze_corpus(seed: int, count: int) -> list[tuple[str, str]]:
    """`count` (key, table text) pairs: one order-32 extension (Z8 by K4),
    one order-64 table (the first order-16 pool table times Z4), then the
    first count - 2 pool tables in an order drawn at the seed."""
    pool = pool_tables(max(count - 2, 6))
    gamma = next(iter(iter_cocycles_random(
        AbelianGroupTable(cyclic(8)), klein(), seed=POOL_MASTER_SEED, budget=1
    )))
    o64 = direct_product(next(t for t in pool if t.order == 16), cyclic(4))
    rest = shuffled(list(enumerate(pool[:count - 2])), SplitMix64(derive(seed, "analyze")))
    tables = [("o32", build_extension(gamma)), ("o64", o64)]
    tables += [(f"pool{i}", t) for i, t in rest]
    return [(key, format_table(t)) for key, t in tables[:count]]


class Analyze:
    """`loopkit analyze FILE` per table, each op from a fresh-process state."""

    name = "analyze"
    host_sensitivity = 1.0

    def __init__(self, seed, workdir, n_ops):
        corpus = analyze_corpus(seed, n_ops)
        self.keys = [key for key, _ in corpus]
        self.paths = _write_corpus(workdir, [text for _, text in corpus])

    def ops(self, T=None):
        for i, (key, path) in enumerate(zip(self.keys, self.paths)):
            forget_program_state()
            deadline = O64_DEADLINE_S if key == "o64" else SAFETY_DEADLINE_S
            if T is None:
                fn = lambda p=path: _capture(["analyze", p])
            else:
                fn = lambda p=path, i=i: self._traced(T, i, p)
            yield Op(f"analyze#{i}:{key}", fn, deadline)

    @staticmethod
    def _traced(T, i, path):
        T.op = i
        with T.span("cli.analyze"):
            Q = _parse(T, _read(path))
            out = traced_report(T, Q).to_lines()
        return True, out

    def check(self, results, expected):
        problems = []
        expected = expected or {}
        for r in results:
            if not r.ok:
                continue
            report = HierarchyReport.from_lines(r.output)
            try:
                report.check()
            except AssertionError as exc:
                problems.append(f"{r.label}: {exc}")
            if report.mlt_order != report.order * report.inn_order:
                problems.append(f"{r.label}: |Mlt| != n * |Inn|")
            want = expected.get(_key(r.label))
            if want is not None and digest(r.output) != want:
                problems.append(f"{r.label}: report differs from the recorded one")
        return problems

    @staticmethod
    def record(results):
        """Each completed table's report digest, by table key."""
        return {_key(r.label): digest(r.output) for r in results if r.ok}


# -- hunt --------------------------------------------------------------------------


class Hunt:
    """Candidates of the mltq-solvability-hunt preset, drawn and tested as
    `loopkit search` draws and tests them."""

    name = "hunt"
    host_sensitivity = 1.0

    def __init__(self, seed, workdir, n_ops):
        self.seed = seed
        self.n_ops = n_ops
        self.preset = cli.PRESETS[HUNT_PRESET]

    def stream(self):
        p = self.preset
        return iter_cocycles_random(
            AbelianGroupTable(p["A"]()), p["F"](), self.seed, p["default_budget"], p["central"]
        )

    def ops(self, T=None):
        stream = self.stream()
        predicate = self.preset["predicate"]

        def untraced():
            return True, predicate(build_extension(next(stream)))

        def traced(i):
            T.op = i
            with T.span("search.candidate"):
                with T.span("extensions.iter_cocycles_random"):
                    gamma = next(stream)
                with T.span("extensions.build_extension"):
                    Q = build_extension(gamma)
                hit = self._traced_predicate(T, Q)
            T.count("extensions.candidates")
            T.count("extensions.hits", hit)
            return True, hit

        for i in range(self.n_ops):
            fn = untraced if T is None else (lambda i=i: traced(i))
            yield Op(f"hunt#{i}", fn, SAFETY_DEADLINE_S)

    @staticmethod
    def _traced_predicate(T, Q):
        """The preset predicate: Inn solvable and Mlt not."""
        inn = _group(T, Q, "INN")
        _order(T, inn)
        if not is_finite(_series(T, "perm.derived_series", derived_series, inn).cls):
            return False
        mlt = _group(T, Q, "MLT")
        _order(T, mlt)
        return not is_finite(_series(T, "perm.derived_series", derived_series, mlt).cls)

    def check(self, results, expected):
        """Each candidate's verdict (1 = hit) equals the recorded one; a
        failed op has none and counts in completed_share instead."""
        if expected is None:
            return []
        return [f"hunt#{i}: verdict {got} differs from the recorded {want}"
                for i, (got, want) in enumerate(zip(self.record(results), expected))
                if got != want and "-" not in got + want]

    @staticmethod
    def record(results):
        return "".join("-" if not r.ok else "1" if r.output else "0" for r in results)


# -- abelian-routes ------------------------------------------------------------------

# Mean number of normal subloops of the first 60 to 133 pool tables.
PAIRS_PER_TABLE = 4.3


def abelian_corpus(seed: int, count: int) -> list[tuple[str, str]]:
    """The first `count` pool tables as (key, text), in an order drawn at
    the seed."""
    tables = shuffled(list(enumerate(pool_tables(count))), SplitMix64(derive(seed, "abelian-routes")))
    return [(f"pool{i}", format_table(t)) for i, t in tables]


class AbelianRoutes:
    """Every (table, normal subloop) pair through every abelianess and
    centrality route.  Parsing, normal-subloop enumeration and the center
    run once per table, between ops: they count in the phase's time
    but not in any op's latency.  A run takes every pair of as many
    tables as give about `n_ops` pairs, so that every seed runs the same
    pairs (260 ops ask for the first 61 tables, which have 261 pairs)."""

    name = "abelian-routes"
    # These ops slow less than the probe kernel on a loaded host.  Over
    # 200 alternations of probe and op on a 2-vCPU VM, the slope of log op
    # time against log probe time was 0.52 for one of the heaviest pairs
    # (0.87 for hunt candidates, which keep the default 1); the short
    # pairs follow the kernel more closely.  Over ten seeds, full scaling
    # left ops_per_s and op_tail_ms spreading by 0.11 and 0.18 of their
    # median (runs on a quieter host read slower); over six, 0.5 left
    # op_p50_ms at 0.11 the other way and 0.75 kept all three under 0.07.
    host_sensitivity = 0.75

    def __init__(self, seed, workdir, n_ops):
        self.texts = abelian_corpus(seed, math.ceil(n_ops / PAIRS_PER_TABLE))

    def ops(self, T=None):
        for t, (key, text) in enumerate(self.texts):
            forget_program_state()
            if T is None:
                Q = parse_table(text)
                normals = all_normal_subloops(Q)
                center = set(center_subloop(Q).elements)
            else:
                T.op = None
                Q = _parse(T, text)
                with T.span("structure.all_normal_subloops"):
                    normals = all_normal_subloops(Q)
                T.count("structure.normal_subloops", len(normals))
                with T.span("structure.center_subloop"):
                    center = set(center_subloop(Q).elements)
            for k, A in enumerate(normals):
                label = f"abelian-routes#{t}.{k}:{key}"
                if T is None:
                    fn = lambda Q=Q, A=A, c=center: (True, self._untraced(Q, A, c))
                else:
                    fn = lambda Q=Q, A=A, c=center, label=label: (
                        True, self._traced(T, label, Q, A, c))
                yield Op(label, fn, SAFETY_DEADLINE_S)

    @staticmethod
    def _untraced(Q, A, center):
        verdicts = (
            is_abelian_in_A1(Q, A),
            is_abelian_in_A3(Q, A),
            is_abelian_in_A4(Q, A) is not None,
            is_central_in(Q, A, "C1"),
            is_central_in(Q, A, "C3"),
            is_central_in(Q, A, "C3prime"),
            is_central_in(Q, A, "C4"),
        )
        return verdicts, set(A.elements) <= center

    @staticmethod
    def _traced(T, label, Q, A, center):
        T.op = label
        whole = Subloop(Q, tuple(range(Q.order)))

        def normal():
            with T.span("structure.is_normal"):
                if not is_normal(Q, A):
                    raise NotNormal("subloop is not normal")

        def extract():
            with T.span("extensions.extract_cocycle"):
                return extract_cocycle(Q, A)

        def identities(mode):
            with T.span("commutator.is_central_in"):
                return is_central_in(Q, A, mode)

        with T.span("routes.pair"):
            a1 = _commutator(T, Q, A, A).is_trivial()
            with T.span("commutator.is_abelian_in_A3"):
                a3 = is_abelian_in_A3(Q, A)
            normal()
            a4 = extract() is not None
            normal()
            c1 = _commutator(T, Q, A, whole).is_trivial()
            c3 = identities("C3")
            c3p = identities("C3prime")
            normal()
            result = extract()
            c4 = result is not None and result[0].is_central()
        return (a1, a3, a4, c1, c3, c3p, c4), set(A.elements) <= center

    @staticmethod
    def verdict(output):
        (a1, a3, a4, c1, c3, c3p, c4), inside_center = output
        if not (a1 == a3 == a4) or not (c1 == c3 == c3p == c4):
            return "x"
        if c1 and not a1:
            return "y"
        if c1 != inside_center:
            return "z"
        return "c" if c1 else "a" if a1 else "n"

    def check(self, results, expected):
        problems = []
        meaning = {"x": "routes disagree", "y": "central but not abelian",
                   "z": "central iff inside the center fails"}
        for r in results:
            v = self.verdict(r.output) if r.ok else "-"
            if v in meaning:
                problems.append(f"{r.label}: {meaning[v]} {r.output}")
        for key, got in self.record(results).items():
            want = (expected or {}).get(key)
            if want is not None and got != want and "-" not in got + want:
                problems.append(f"{key}: verdicts {got} differ from the recorded {want}")
        return problems

    @classmethod
    def record(cls, results):
        """Each table's verdicts, in the order of its normal subloops, by
        table key; the last table, which a traced run may have cut short,
        is left out."""
        tables = {}
        for r in results:
            tables.setdefault(_key(r.label), []).append(cls.verdict(r.output) if r.ok else "-")
        return {key: "".join(v) for key, v in list(tables.items())[:-1]}


# -- catalog-add -----------------------------------------------------------------------


def catalog_corpus(seed: int, count: int) -> list[tuple[str, str]]:
    """`count` (key, table text) pairs: pool tables, each followed by a
    relabeling of itself (an isomorphic duplicate, the same at every
    seed), the pairs in an order drawn at the seed."""
    relabel = SplitMix64(POOL_MASTER_SEED)
    pairs = []
    for i, table in enumerate(pool_tables(math.ceil(count / 2))):
        copy = table.relabel(shuffled(range(table.order), relabel))
        pairs.append([(f"pool{i}", format_table(table)), (f"pool{i}r", format_table(copy))])
    order = shuffled(pairs, SplitMix64(derive(seed, "catalog-add")))
    return [item for pair in order for item in pair][:count]


class CatalogAdd:
    """`loopkit catalog add` of one table, then `loopkit catalog query`
    for its fingerprint, against a catalog file that grows in the run;
    each op from a fresh-process state."""

    name = "catalog-add"
    host_sensitivity = 1.0

    def __init__(self, seed, workdir, n_ops):
        corpus = catalog_corpus(seed, n_ops)
        self.keys = [key for key, _ in corpus]
        self.texts = [text for _, text in corpus]
        self.paths = _write_corpus(workdir, self.texts)
        self.workdir = workdir
        self.passes = 0

    def ops(self, T=None):
        self.passes += 1
        catalog = os.path.join(self.workdir, f"catalog-{self.passes}.tsv")
        for i, (key, path) in enumerate(zip(self.keys, self.paths)):
            forget_program_state()
            source = key
            if T is None:
                fn = lambda p=path, s=source: self._untraced(p, s, catalog)
            else:
                fn = lambda p=path, s=source, i=i: self._traced(T, i, p, s, catalog)
            yield Op(f"catalog-add#{i}:{key}", fn, SAFETY_DEADLINE_S)

    @staticmethod
    def _untraced(path, source, catalog):
        ok, added = _capture(["catalog", "add", path, "--catalog", catalog, "--source", source])
        if not ok:
            return False, added
        fp = int(added.split()[1], 16)
        ok, found = _capture(["catalog", "query", f"fingerprint={fp}", "--catalog", catalog])
        return ok, (source, added, found) if ok else found

    @staticmethod
    def _traced(T, i, path, source, catalog):
        T.op = i
        with T.span("cli.catalog_add"):
            Q = _parse(T, _read(path))
            with T.span("core.fingerprint"):
                try:
                    fp = fingerprint(Q)
                except CapExceeded:
                    T.count("core.fingerprint_cap_hits")
                    raise
            record = CatalogRecord(fingerprint=fp, order=Q.order,
                                   report=traced_report(T, Q), source=source)
            with T.span("catalog.append_record"):
                was_added = append_record(catalog, record)
            added = f"{'added' if was_added else 'duplicate'}\t{fp:016x}\n"
        T.count("catalog.adds")
        T.count("catalog.added", was_added)
        with T.span("cli.catalog_query"):
            filters = [parse_filter(f"fingerprint={fp}")]
            with T.span("catalog.query"):
                records = query(load_catalog(catalog), filters)
            found = "".join(r.to_line() + "\n" for r in records)
        return True, (source, added, found)

    def check(self, results, expected):
        problems = []
        done = [(i, r) for i, r in enumerate(results) if r.ok]
        new = 0
        for i, r in done:
            source, added, found = r.output
            status, fp_hex = added.split()
            new += status == "added"
            lines = found.splitlines()
            if len(lines) != 1:
                problems.append(f"{r.label}: query returned {len(lines)} records")
                continue
            rec = CatalogRecord.from_line(lines[0])
            if (rec.fingerprint != int(fp_hex, 16)
                    or rec.order != int(self.texts[i].split(None, 1)[0])
                    or (status == "added" and rec.source != source)):
                problems.append(f"{r.label}: query did not return its record")
        classes = []
        for i, _ in done:
            Q = parse_table(self.texts[i])
            if not any(is_isomorphic(Q, R) is not None for R in classes):
                classes.append(Q)
        if new != len(classes):
            problems.append(f"{new} new records for {len(classes)} isomorphism classes")
        return problems

    @staticmethod
    def record(results):
        return None


WORKLOAD_CLASSES = {w.name: w for w in (Analyze, Hunt, AbelianRoutes, CatalogAdd)}
