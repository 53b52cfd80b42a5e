"""The ``ladder`` workload: the paper's milestone ladder in one process.

One in-process ``Session`` runs, pass after pass in a closed loop, the
efficiency queries, the Example-6 query and two join queries on the
m2, m3 and m4 profiles, with every plan built before timing starts.
The buffer pool holds the whole file.  Every result is checked against
the milestone-1 in-memory evaluator run on the generated XML.
"""

from __future__ import annotations

import os
import resource
import statistics
import time

from repro.core.dbms import XmlDbms
from repro.workloads.queries import EFFICIENCY_QUERIES
from repro.xmlkit.parser import parse as parse_xml
from repro.xmlkit.serializer import serialize
from repro.xq.eval_memory import evaluate
from repro.xq.parser import parse_program

from common import (
    DOC,
    Replay,
    Tracer,
    db_pages,
    document_xml,
    file_bytes,
    latency_summary,
)

PROFILES = ("m2", "m3", "m4")
#: Frames enough for the whole file plus execution scratch.
POOL_FRAMES = 1024
TAIL_PCT = 90
#: Passes measured at least, so the p90 has ten samples beyond it —
#: unless that would stretch the run past 1.5 times its seconds.
MIN_PASSES = 5

QUERIES = {query.name: query.xq for query in EFFICIENCY_QUERIES
           if query.name != "test-3"}
QUERIES.update({
    # Example 6: authors of articles that carry a volume.
    "example-6": ("for $x in //article return "
                  "if (some $v in $x/volume satisfies true()) "
                  "then for $y in $x//author return $y else ()"),
    "exists-check": ("for $x in //article return "
                     "if (some $v in $x/volume satisfies true()) "
                     "then $x/title else ()"),
    "zz-no-such-author": (
        "for $a in //article return for $n in $a/author return "
        'if (some $x in $n/text() satisfies $x = "zz-no-such-author") '
        "then <hit/> else ()"),
})

#: (query, profile) pairs that hit the Figure-7 time cap by design.
SKIPPED = {("test-5", "m3")}

#: One pass, in order: (profile, query name).
PASS = [(profile, name) for profile in PROFILES for name in QUERIES
        if (name, profile) not in SKIPPED]


def oracle(xml: str) -> dict[str, str]:
    """Each query's output from the milestone-1 in-memory evaluator."""
    document = parse_xml(xml)
    return {name: "".join(serialize(node) for node in evaluate(
                parse_program(text).body, document))
            for name, text in QUERIES.items()}


def _setup(workdir: str, seed: int, index: int):
    """Generate, load, open a session and build every plan."""
    started = time.perf_counter()
    xml = document_xml(seed)
    db_path = os.path.join(workdir, f"ladder{index}.db")
    dbms = XmlDbms(db_path, buffer_capacity=POOL_FRAMES)
    load_started = time.perf_counter()
    stats = dbms.load(DOC, xml=xml)
    load_s = time.perf_counter() - load_started
    session = dbms.session()
    prepared = {}
    for profile, name in PASS:
        prepared[profile, name] = session.prepare(DOC, QUERIES[name],
                                                  profile=profile)
        # explain() plans every relfor of the cached compiled query, so
        # no plan is built inside the timed loop.
        session.explain(DOC, QUERIES[name], profile=profile)
    setup_s = time.perf_counter() - started
    return {"xml": xml, "db_path": db_path, "dbms": dbms,
            "session": session, "prepared": prepared, "setup_s": setup_s,
            "load_s": load_s, "nodes": stats.total_nodes}


def _passes(env: dict, expected: dict, seconds: float, min_passes: int):
    """Closed loop of whole passes; returns latencies and pass times."""
    prepared = env["prepared"]
    latencies: list[float] = []
    pass_times = {profile: [] for profile in PROFILES}
    failed = 0
    started = time.perf_counter()
    passes = 0
    while True:
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and (passes >= min_passes
                                   or elapsed >= 1.5 * seconds):
            break
        spent = dict.fromkeys(PROFILES, 0.0)
        for profile, name in PASS:
            op_started = time.perf_counter()
            with prepared[profile, name].execute() as cursor:
                output = cursor.serialize()
            latency = time.perf_counter() - op_started
            spent[profile] += latency
            latencies.append(latency)
            if output != expected[name]:
                failed += 1
        for profile in PROFILES:
            pass_times[profile].append(spent[profile])
        passes += 1
    return {"latencies": latencies, "pass_times": pass_times,
            "failed": failed, "elapsed": time.perf_counter() - started}


def run(workdir: str, seed: int, seconds: float, trace: bool,
        setup_repeats: int) -> dict:
    setup_times = []
    env = None
    try:
        # Set-up is repeated and its median reported; the last one runs.
        for index in range(1 if trace else setup_repeats):
            if env is not None:
                env["dbms"].close()
                env = None
            env = _setup(workdir, seed, index)
            setup_times.append(env["setup_s"])
        expected = oracle(env["xml"])
        xml_bytes = len(env["xml"].encode())
        record = {
            "document_bytes": xml_bytes,
            "document_pages": db_pages(env["db_path"]),
            "document_nodes": env["nodes"],
            "pool_frames": POOL_FRAMES,
            "loop": "closed, one in-process session",
            "clients": 1,
            "flush_policy": "read-only (no commits)",
            "pass": [f"{profile}:{name}" for profile, name in PASS],
        }
        if trace:
            return _traced(env, expected, seconds, record)
        result = _passes(env, expected, seconds, MIN_PASSES)
    finally:
        if env is not None:
            env["dbms"].close()
    latencies = latency_summary(result["latencies"], TAIL_PCT)
    ops = len(result["latencies"])
    record["passes"] = len(result["pass_times"]["m2"])
    record["read_latency"] = latencies
    return {
        "attempted": ops, "failed": result["failed"], "record": record,
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "bytes_per_xml_byte": file_bytes(env["db_path"]) / xml_bytes,
        },
        "reported": {
            "ops_per_s": (ops / result["elapsed"], "op/s"),
            "read_p50_ms": (latencies["p50_ms"], "ms"),
            "read_tail_ms": (latencies["tail_ms"], "ms"),
            **{f"{profile}_pass_s": (statistics.median(times), "s")
               for profile, times in result["pass_times"].items()},
        }}


def _traced(env: dict, expected: dict, seconds: float,
            record: dict) -> dict:
    """Untraced passes, and the same passes through the per-phase
    replay with spans, for layer times and exact page counts.  The
    quarters run untraced, traced, traced, untraced, so a drift in
    machine speed over the run cancels out of the traced/untraced
    ratio."""
    tracer = Tracer()
    replay = Replay(env["dbms"], env["db_path"], tracer)
    for profile, name in PASS:
        replay.warm(QUERIES[name], profile)
    untraced: list[float] = []
    failed = attempted = 0
    pages: dict[str, set[int]] = {}
    pass_pages = {profile: [] for profile in PROFILES}
    request = 0
    started = time.perf_counter()
    for quarter, traced in enumerate((False, True, True, False)):
        if quarter >= 2 and time.perf_counter() - started >= seconds:
            # Passes so slow (Materializer spill seeds) that the first
            # two quarters used the run up: stop at one of each.
            break
        if not traced:
            result = _passes(env, expected, seconds / 4, 1)
            untraced += result["latencies"]
            failed += result["failed"]
            attempted += len(result["latencies"])
            continue
        quarter_started = time.perf_counter()
        while True:
            totals = dict.fromkeys(PROFILES, 0)
            for profile, name in PASS:
                rows = replay.run(request, f"{profile}:{name}",
                                  QUERIES[name], profile=profile)
                attempted += 1
                if "".join(rows) != expected[name]:
                    failed += 1
                count = replay.pages[f"{profile}:{name}"][-1]
                pages.setdefault(f"{profile}:{name}", set()).add(count)
                totals[profile] += count
                request += 1
            for profile in PROFILES:
                pass_pages[profile].append(totals[profile])
            if time.perf_counter() - quarter_started >= seconds / 4:
                break
    layers = replay.layer_metrics()
    untraced_mean = statistics.mean(untraced)
    traced_mean = layers["request_seconds"] / replay.requests
    stats_accesses = sum(sum(values) for values in replay.pages.values())
    record["page_accesses"] = {key: sorted(values)
                               for key, values in pages.items()}
    record["page_counts_repeat"] = all(len(values) == 1
                                       for values in pages.values())
    layers.update({
        "xasr.load_s": env["load_s"],
        "xasr.nodes_per_s": env["nodes"] / env["load_s"],
        "storage.pages_per_m2_pass": pass_pages["m2"][0],
        "storage.pages_per_m3_pass": pass_pages["m3"][0],
        "storage.pages_per_m4_pass": pass_pages["m4"][0],
        "storage.misses": replay.misses / replay.requests,
        "storage.evictions": replay.evictions / replay.requests,
        "storage.hit_ratio": (1 - replay.misses / stats_accesses
                              if stats_accesses else 0.0),
        "obs.trace_overhead": traced_mean / untraced_mean,
    })
    return {"attempted": attempted, "failed": failed, "record": record,
            "layers": layers, "spans": tracer.spans}
