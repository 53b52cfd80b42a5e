"""Pieces every workload shares: the document, the seeded request
sequences, the stdlib reference, latency statistics, spans and the
single-threaded per-phase replay.

Nothing here reaches inside the program: requests go through the public
entry points (``XmlDbms``, ``parse_program``, ``XQEngine``,
``serialize``) and the counters it already exports (``buffer_stats``,
``mvcc_stats``, ``PlanProfiler``).
"""

from __future__ import annotations

import os
import random
import statistics
import time
import xml.etree.ElementTree as ET
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass

from repro.core.dbms import XmlDbms
from repro.engine.algebraic import iter_relfors
from repro.obs.profile import PlanProfiler
from repro.storage.pager import PAGE_SIZE
from repro.storage.wal import default_wal_path
from repro.workloads.dblp import DblpConfig, generate_dblp
from repro.xmlkit.serializer import serialize
from repro.xq.parser import parse_program

DOC = "dblp"

#: The prepared author lookup.  Bound, it scans every author's text node
#: (the planner cannot use the value index for ``$who``); with the name
#: inlined as a literal the same lookup probes the index.
AUTHOR_QUERY = ("declare variable $who external; "
                "for $a in //author return "
                "if (some $t in $a/text() satisfies $t = $who) "
                "then $a else ()")

#: Session plan-cache capacity (the ``Session`` default); the replay's
#: compile memo mirrors it.
PLAN_CACHE_CAPACITY = 128


def document_xml(seed: int) -> str:
    """The synthetic DBLP input every workload loads."""
    return generate_dblp(DblpConfig(articles=500, inproceedings=150,
                                    name_pool=40, seed=seed))


def canonical(xml: str) -> str:
    """C14N form of one serialized element, for comparing rows."""
    return ET.canonicalize(xml_data=xml)


def title_query(tag: str, title: str) -> str:
    """Ad-hoc exact-title lookup with the title inlined as a literal."""
    return (f"for $r in //{tag} return for $t in $r/title return "
            f'if (some $x in $t/text() satisfies $x = "{title}") '
            f"then $r else ()")


class Reference:
    """Expected answers computed from the generated XML with
    ``xml.etree``, independently of the program under test.

    XASR stores element and text nodes only, as in the paper, so the
    records' ``key`` attributes are not part of the stored document and
    are dropped here too.
    """

    def __init__(self, xml: str):
        root = ET.fromstring(xml)
        for element in root.iter():
            element.attrib.clear()
        self.records: list[tuple[str, str]] = []
        self._by_title: dict[tuple[str, str], list[str]] = {}
        author_counts: dict[str, int] = {}
        for record in root:
            key = (record.tag, record.findtext("title"))
            self.records.append(key)
            self._by_title.setdefault(key, []).append(
                canonical(ET.tostring(record, encoding="unicode")))
            for author in record.iter("author"):
                author_counts[author.text] = (
                    author_counts.get(author.text, 0) + 1)
        self.authors = sorted(author_counts)
        self._author_rows = {
            name: [canonical(f"<author>{name}</author>")] * count
            for name, count in author_counts.items()}

    def title_rows(self, tag: str, title: str) -> list[str]:
        return list(self._by_title.get((tag, title), ()))

    def author_rows(self, name: str) -> list[str]:
        return list(self._author_rows[name])


@dataclass(frozen=True)
class Request:
    """One operation of a served workload."""

    kind: str                       #: title, author, insert or replace
    text: str                       #: query or update statement
    bindings: dict | None = None
    #: Canonical rows a read must return; None for writes.
    expect: tuple[str, ...] | None = None
    #: Title of the record a write creates or changes.
    title: str | None = None
    #: The record's canonical form after the write.
    record: str | None = None

    @property
    def is_write(self) -> bool:
        return self.expect is None


def _recent(rng: random.Random, count: int) -> int:
    """Index into a log of ``count`` entries, skewed to the newest."""
    return count - 1 - min(count - 1, int(rng.expovariate(1 / 3)))


class Connection:
    """The seeded requests of one connection.

    Reads and writes come from separate seeded streams, so a caller may
    decide *when* to write (``mixed`` writes on a fixed schedule) while
    the content of every request stays a function of the seed alone.

    Reads: 80% ad-hoc title lookups drawn uniformly over the document's
    records, 20% prepared author lookups drawn Zipf-skewed over the
    author names.  In ``mixed``, half the title lookups are aimed at
    this connection's own recent writes.  Writes: inserts of new records
    (70%) and year replacements on records this connection inserted
    (30%).  A connection reads back only its own writes, so every
    expected answer is known without coordinating with the other one.
    """

    def __init__(self, reference: Reference, workload: str, seed: int,
                 conn: int):
        self.reference = reference
        self.workload = workload
        self.seed = seed
        self.conn = conn
        self._reads = random.Random(f"{workload}:{seed}:{conn}:reads")
        self._writes = random.Random(f"{workload}:{seed}:{conn}:writes")
        self._authors = list(reference.authors)
        self._reads.shuffle(self._authors)
        self._author_weights = [1.0 / (rank + 1)
                                for rank in range(len(self._authors))]
        #: (title, year, journal) of every record this connection wrote.
        self.written: list[tuple[str, int, str]] = []

    def _record(self, title: str, year: int, journal: str) -> str:
        return (f"<article><author>Bench Writer {self.conn}</author>"
                f"<title>{title}</title><year>{year}</year>"
                f"<journal>{journal}</journal></article>")

    def read(self) -> Request:
        rng = self._reads
        if rng.random() < 0.2:
            name = rng.choices(self._authors,
                               weights=self._author_weights)[0]
            return Request("author", AUTHOR_QUERY, {"who": name},
                           tuple(self.reference.author_rows(name)))
        if self.workload == "mixed" and self.written and rng.random() < 0.5:
            title, year, journal = self.written[
                _recent(rng, len(self.written))]
            return Request("title", title_query("article", title),
                           expect=(canonical(
                               self._record(title, year, journal)),))
        tag, title = rng.choice(self.reference.records)
        return Request("title", title_query(tag, title),
                       expect=tuple(self.reference.title_rows(tag, title)))

    def write(self) -> Request:
        rng = self._writes
        if self.written and rng.random() < 0.3:
            index = _recent(rng, len(self.written))
            title, year, journal = self.written[index]
            year = 2007 + (year - 2006) % 10
            self.written[index] = (title, year, journal)
            return Request(
                "replace",
                ("replace value of node for $r in //article return "
                 "for $t in $r/title return "
                 f'if (some $x in $t/text() satisfies $x = "{title}") '
                 f'then $r/year else () with "{year}"'),
                title=title,
                record=canonical(self._record(title, year, journal)))
        title = f"Bench {self.seed}-{self.conn}-{len(self.written) + 1}"
        year = rng.randint(1990, 2006)
        journal = rng.choice(["TODS", "TKDE", "VLDB Journal"])
        self.written.append((title, year, journal))
        xml = self._record(title, year, journal)
        return Request("insert", f"insert node {xml} as last into /{DOC}",
                       title=title, record=canonical(xml))

    def sequence(self):
        """The requests in a fixed order: in ``mixed`` every fifth one
        is a write (the replay's order; served runs write on a clock)."""
        count = 0
        while True:
            count += 1
            if self.workload == "mixed" and count % 5 == 0:
                yield self.write()
            else:
                yield self.read()


# -- statistics ---------------------------------------------------------------

def percentile(values: list[float], pct: int) -> float:
    """Linearly interpolated ``pct``-th percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def latency_summary(seconds: list[float], tail_pct: int) -> dict:
    """Median and tail latency in ms, with the sample counts behind
    them; the tail percentile is fixed per workload so that a normal
    run has at least ten samples beyond it."""
    ms = [value * 1e3 for value in seconds]
    if not ms:
        return {"count": 0, "p50_ms": 0.0, "tail_ms": 0.0,
                "tail_pct": tail_pct, "beyond_tail": 0}
    tail = percentile(ms, tail_pct)
    return {"count": len(ms), "p50_ms": statistics.median(ms),
            "tail_ms": tail, "tail_pct": tail_pct,
            "beyond_tail": sum(1 for value in ms if value > tail)}


def file_bytes(db_path: str) -> int:
    """Database plus write-ahead-log bytes on disk."""
    total = 0
    for path in (db_path, default_wal_path(db_path)):
        if os.path.exists(path):
            total += os.path.getsize(path)
    return total


def db_pages(db_path: str) -> int:
    return os.path.getsize(db_path) // PAGE_SIZE


# -- spans --------------------------------------------------------------------

class Tracer:
    """In-memory spans: name, start, end, parent and request id.

    Spans recorded around the benchmark's own calls into a layer carry
    real start/end times; operator spans derived from the program's
    ``PlanProfiler`` carry only a duration (``start`` is None).  A
    span's self time is its duration minus its children's durations —
    children of one span never overlap, since one thread runs them.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, request: int):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "request": request,
                  "start": time.perf_counter() - self._origin,
                  "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._origin

    def add_operator_tree(self, payload: dict, request: int,
                          parent: int) -> None:
        """Graft one ``PlanProfiler`` span payload under ``parent``."""
        record = {"id": len(self.spans),
                  "name": "physical." + payload["name"],
                  "parent": parent, "request": request, "start": None,
                  "end": None, "duration": payload["duration_ms"] / 1e3}
        self.spans.append(record)
        for child in payload.get("children", ()):
            self.add_operator_tree(child, request, record["id"])

    @staticmethod
    def duration(record: dict) -> float:
        if "duration" in record:
            return record["duration"]
        return record["end"] - record["start"]

    def self_times(self) -> dict[str, float]:
        """Summed self seconds per span name."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += self.duration(record)
        totals: dict[str, float] = {}
        for record in self.spans:
            own = max(0.0, self.duration(record) - covered[record["id"]])
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def total(self, name: str) -> float:
        return sum(self.duration(record) for record in self.spans
                   if record["name"] == name)


# -- the per-phase replay -----------------------------------------------------

class Replay:
    """Run requests single-threaded and in-process, calling each layer's
    entry point directly inside a span of its own:

    ``parse_program`` → ``XQEngine.prepare`` (translate + rewrites) →
    planning, forced before execution → draining
    ``XQEngine.stream_compiled_batches`` (operator self times from the
    program's ``PlanProfiler``) → ``serialize``; writes go through
    ``parse_program`` → ``XmlDbms.update``.

    Compiled queries are memoised like a ``Session`` plan cache: LRU of
    the same capacity, keyed by text, profile and catalog version, so a
    write voids them exactly as it voids cached plans.  Per-request
    deltas of ``buffer_stats`` and ``mvcc_stats`` are kept per class.
    """

    def __init__(self, dbms: XmlDbms, db_path: str, tracer: Tracer):
        self.dbms = dbms
        self.tracer = tracer
        self._memo: OrderedDict = OrderedDict()
        self.lookups = 0
        self.hits = 0
        self.plans_built = 0
        self.rows_out = 0
        self.bytes_out = 0
        self.requests = 0
        #: class -> list of per-request page accesses
        self.pages: dict[str, list[int]] = {}
        self.misses = 0
        self.evictions = 0
        self.writes = 0
        self.wal_bytes: list[int] = []
        self.versions_installed = 0
        self.wal_path = default_wal_path(db_path)

    def _compiled(self, text: str, profile: str, request: int):
        key = (text, profile, self.dbms.catalog_version(DOC))
        self.lookups += 1
        compiled = self._memo.get(key)
        if compiled is not None:
            self.hits += 1
            self._memo.move_to_end(key)
            return compiled
        tracer = self.tracer
        with tracer.span("xq.parse", request):
            program = parse_program(text)
        engine = self.dbms.engine(DOC, profile)
        with tracer.span("algebra.compile", request):
            compiled = engine.prepare(program)
        with tracer.span("optimizer.plan", request):
            # The engine plans lazily on first execution; force it here
            # so planning is timed apart from execution.
            algebraic = engine._algebraic
            if algebraic is not None:
                for relfor in iter_relfors(compiled.tpm):
                    algebraic.plan_for(relfor, compiled.plans)
                    self.plans_built += 1
        self._memo[key] = compiled
        while len(self._memo) > PLAN_CACHE_CAPACITY:
            self._memo.popitem(last=False)
        return compiled

    def warm(self, text: str, profile: str) -> None:
        """Compile into the memo outside any measured span, as a
        workload that builds its plans before timing does."""
        saved = (self.tracer, self.lookups, self.hits, self.plans_built)
        self.tracer = Tracer()
        try:
            self._compiled(text, profile, -1)
        finally:
            (self.tracer, self.lookups, self.hits,
             self.plans_built) = saved

    def run(self, request: int, kind: str, text: str,
            bindings: dict | None = None, profile: str = "m4"):
        """One request; returns serialized rows (reads) or the
        ``UpdateResult`` (writes)."""
        tracer = self.tracer
        stats = self.dbms.buffer_stats
        before = (stats.accesses, stats.misses, stats.evictions)
        versions_before = self.dbms.mvcc_stats()["versions_installed"]
        wal_before = os.path.getsize(self.wal_path)
        with tracer.span("request", request):
            if kind in ("insert", "replace"):
                with tracer.span("xq.parse", request):
                    program = parse_program(text)
                with tracer.span("updates.update", request):
                    result = self.dbms.update(DOC, program,
                                              bindings=bindings)
            else:
                compiled = self._compiled(text, profile, request)
                engine = compiled.engine
                evaluator = engine.profile.evaluator
                name = ("navigational.exec" if evaluator == "navigational"
                        else "engine.exec")
                profiler = PlanProfiler()
                with tracer.span(name, request) as exec_span:
                    nodes = [node for batch in
                             engine.stream_compiled_batches(
                                 compiled, bindings=bindings,
                                 profiler=profiler)
                             for node in batch]
                for plan in profiler.as_span_dicts():
                    for root in plan.get("children", ()):
                        tracer.add_operator_tree(root, request,
                                                 exec_span["id"])
                        self.rows_out += root["attributes"]["rows"]
                with tracer.span("xmlkit.serialize", request):
                    result = [serialize(node) for node in nodes]
                self.bytes_out += sum(len(row) for row in result)
        self.requests += 1
        self.pages.setdefault(kind, []).append(stats.accesses - before[0])
        self.misses += stats.misses - before[1]
        self.evictions += stats.evictions - before[2]
        if kind in ("insert", "replace"):
            self.writes += 1
            self.versions_installed += (
                self.dbms.mvcc_stats()["versions_installed"]
                - versions_before)
            grown = os.path.getsize(self.wal_path) - wal_before
            # A commit that triggers a checkpoint resets the log; its
            # appended size is then unknown and the sample is skipped.
            if grown > 0:
                self.wal_bytes.append(grown)
        return result

    def layer_metrics(self) -> dict[str, float]:
        """Per-request layer numbers from the recorded spans."""
        selfs = self.tracer.self_times()
        count = max(1, self.requests)

        def per_request_ms(name: str) -> float:
            return selfs.get(name, 0.0) * 1e3 / count

        operator_ms = {}
        for name, seconds in selfs.items():
            if name.startswith("physical."):
                operator_ms[name[len("physical."):]] = (
                    seconds * 1e3 / count)
        request_total = self.tracer.total("request")
        attributed = sum(seconds for name, seconds in selfs.items()
                         if name != "request")
        accesses = [value for values in self.pages.values()
                    for value in values]
        return {
            "xq.parse_ms": per_request_ms("xq.parse"),
            "algebra.compile_ms": per_request_ms("algebra.compile"),
            "optimizer.plan_ms": per_request_ms("optimizer.plan"),
            "optimizer.plans_built": self.plans_built,
            "session.plan_cache_hit_ratio": (
                self.hits / self.lookups if self.lookups else 0.0),
            "engine.exec_ms": per_request_ms("engine.exec"),
            "navigational.exec_ms": per_request_ms("navigational.exec"),
            "updates.update_ms": per_request_ms("updates.update"),
            "xmlkit.serialize_ms": per_request_ms("xmlkit.serialize"),
            "xmlkit.bytes_out": self.bytes_out / count,
            "physical.rows_out": self.rows_out / count,
            "operators_ms": operator_ms,
            "storage.page_accesses": (sum(accesses) / len(accesses)
                                      if accesses else 0.0),
            "storage.versions_per_write": (
                self.versions_installed / self.writes
                if self.writes else 0.0),
            "storage.wal_bytes_per_write": (
                statistics.mean(self.wal_bytes) if self.wal_bytes
                else 0.0),
            "unattributed_share": ((request_total - attributed)
                                   / request_total
                                   if request_total else 0.0),
            "request_seconds": request_total,
        }

    def pages_per_class(self) -> dict[str, float]:
        """Mean logical page accesses per request of each class."""
        return {kind: sum(values) / len(values)
                for kind, values in self.pages.items()}
