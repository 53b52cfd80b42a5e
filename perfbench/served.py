"""The served workloads, ``lookup`` and ``mixed``.

A server runs as ``python -m repro.serve --load`` in its own process
with 2 workers.  This process is the load generator: 2 ``NetClient``
connections, one thread each, in a closed loop over seeded request
sequences (see :class:`common.Connection`).  ``lookup`` gives the
pool about a third of the file; ``mixed`` gives it the whole file and
adds writes, which commit through the WAL under the default
group-commit policy.  After a ``mixed`` run the server is killed and
the file reopened, so every acknowledged write must come back through
WAL recovery.
"""

from __future__ import annotations

import os
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time

from repro.core.dbms import XmlDbms
from repro.errors import ReproError
from repro.net.client import NetClient
from repro.xmlkit.serializer import serialize

from common import (
    AUTHOR_QUERY,
    DOC,
    Connection,
    Reference,
    Replay,
    Tracer,
    canonical,
    db_pages,
    document_xml,
    file_bytes,
    latency_summary,
    percentile,
    title_query,
)

WORKERS = 2
CONNECTIONS = 2
#: Requests of connection 0's sequence replayed in-process when traced.
REPLAY_REQUESTS = 100
SERVER_START_TIMEOUT = 60.0

SETTINGS = {
    # 64 frames is about a third of the 181-page file.  The tail
    # percentiles leave ten or more reads beyond them in a normal run.
    "lookup": {"frames": 64, "tail_pct": 97, "write_interval": None},
    # One write per connection every half second: about a fifth of the
    # requests at the measured request rate.
    "mixed": {"frames": 1024, "tail_pct": 95, "write_interval": 0.5},
}

#: Node counts an acknowledged write must report.
WRITE_COUNTS = {"insert": ("nodes_inserted", 9),
                "replace": ("values_replaced", 1)}


class Server:
    """One ``python -m repro.serve`` process on a fresh database file."""

    def __init__(self, root: str, workdir: str, index: int,
                 xml_path: str, frames: int):
        self.db_path = os.path.join(workdir, f"serve{index}.db")
        self._log = open(os.path.join(workdir, f"serve{index}.log"), "wb")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--db", self.db_path,
             "--load", f"{DOC}={xml_path}", "--workers", str(WORKERS),
             "--buffer-capacity", str(frames), "--log-interval", "0",
             "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log)
        try:
            self.host, self.port = self._await_listening()
        except BaseException:
            self.stop(signal.SIGKILL)
            raise

    def _await_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if selector.select(timeout=deadline - time.monotonic()):
                    line = self.proc.stdout.readline().decode()
                    if line.startswith("LISTENING"):
                        __, host, port = line.split()
                        return host, int(port)
                    if not line:
                        break
        raise RuntimeError(f"server did not start (exit code "
                           f"{self.proc.poll()}); see its log")

    def stop(self, signum: int = signal.SIGTERM) -> None:
        """Signal the process and wait for it to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signum)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Setup:
    """A served database, ready: document generated and loaded, server
    listening, connections open, the author lookup prepared."""

    def __init__(self, root: str, workdir: str, seed: int, index: int,
                 frames: int):
        started = time.perf_counter()
        self.xml = document_xml(seed)
        xml_path = os.path.join(workdir, f"dblp{index}.xml")
        with open(xml_path, "w", encoding="utf-8") as handle:
            handle.write(self.xml)
        self.server = Server(root, workdir, index, xml_path, frames)
        self.clients: list[NetClient] = []
        try:
            for __ in range(CONNECTIONS):
                self.clients.append(NetClient(self.server.host,
                                              self.server.port))
            self.statements = [client.prepare(DOC, AUTHOR_QUERY)
                               for client in self.clients]
        except BaseException:
            self.close()
            raise
        self.seconds = time.perf_counter() - started

    def close_clients(self) -> None:
        for client in self.clients:
            client.close()

    def close(self, signum: int = signal.SIGTERM) -> None:
        self.close_clients()
        self.server.stop(signum)


def _execute(client: NetClient, statement, request, trace_id):
    """Send one request; returns the rows (or the write's response), the
    server's spans and whether the server's plan cache hit."""
    trace = {"id": trace_id} if trace_id else None
    if request.is_write:
        response = client.update(DOC, request.text, trace=trace)
        return response, response.pop("spans", None), None
    if request.kind == "author":
        cursor = statement.execute(bindings=request.bindings, trace=trace)
    else:
        cursor = client.execute(DOC, request.text, trace=trace)
    with cursor:
        rows = cursor.fetchall()
    return rows, cursor.spans, cursor.plan_cache_hit


def _correct(request, answer) -> bool:
    if request.is_write:
        field, count = WRITE_COUNTS[request.kind]
        return answer.get(field) == count
    return tuple(canonical(row) for row in answer) == request.expect


def drive(setup: Setup, connections: list, seconds: float,
          traced: bool, write_interval: float | None,
          acked: list[list]) -> dict:
    """Closed loop on every connection for ``seconds``.

    With ``write_interval`` set, each connection also owes one write
    per interval, due on a fixed clock: when one is due it goes next,
    otherwise a read does.  Every write owed is sent, so a run commits
    the same number of writes however fast the reads are, and the file
    size after it does not depend on read speed.
    """
    ops: list[list[dict]] = [[] for __ in setup.clients]
    errors: list[BaseException] = []
    started = time.perf_counter()
    deadline = started + seconds
    writes_owed = int(seconds / write_interval) if write_interval else 0

    def connection(index: int) -> None:
        client = setup.clients[index]
        statement = setup.statements[index]
        workload = connections[index]
        writes = 0
        try:
            while True:
                now = time.perf_counter()
                due = (started + (writes + 0.5) * write_interval
                       if writes < writes_owed else None)
                if due is not None and now >= due:
                    request = workload.write()
                    writes += 1
                elif now < deadline:
                    request = workload.read()
                    due = None
                else:
                    break
                trace_id = (f"c{index}-{len(ops[index])}" if traced
                            else None)
                sent = time.perf_counter()
                op = {"kind": request.kind,
                      "late": None if due is None else sent - due}
                ops[index].append(op)
                try:
                    answer, spans, hit = _execute(client, statement,
                                                  request, trace_id)
                except ReproError as error:
                    op.update(seconds=None, ok=False,
                              error=type(error).__name__)
                    continue
                op.update(seconds=time.perf_counter() - sent,
                          ok=_correct(request, answer), spans=spans,
                          plan_cache_hit=hit)
                if op["ok"] and request.is_write:
                    acked[index].append(request)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [threading.Thread(target=connection, args=(index,))
               for index in range(len(setup.clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return {"ops": [op for per_connection in ops for op in per_connection],
            "elapsed": time.perf_counter() - started}


def check_durability(db_path: str, frames: int,
                     acked: list[list]) -> tuple[int, int]:
    """Reopen the file (WAL recovery) and read back the last
    acknowledged state of every record a connection wrote; returns
    (records checked, records wrong)."""
    final: dict[str, str] = {}
    for requests in acked:
        for request in requests:
            final[request.title] = request.record
    wrong = 0
    with XmlDbms(db_path, buffer_capacity=frames) as dbms:
        for title, record in final.items():
            nodes = dbms.execute(DOC, title_query("article", title))
            if [canonical(serialize(node)) for node in nodes] != [record]:
                wrong += 1
    return len(final), wrong


def _parse_metrics(text: str) -> dict[str, float]:
    values = {}
    for line in text.splitlines():
        name, __, value = line.partition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values


def run(root: str, workdir: str, workload: str, seed: int,
        seconds: float, trace: bool, setup_repeats: int) -> dict:
    settings = SETTINGS[workload]
    frames = settings["frames"]
    setup_times = []
    current = None
    try:
        # Set-up is repeated and its median reported; the last one runs.
        for index in range(1 if trace else setup_repeats):
            if current is not None:
                current.close()
                current = None
            current = Setup(root, workdir, seed, index, frames)
            setup_times.append(current.seconds)
        reference = Reference(current.xml)
        connections = [Connection(reference, workload, seed, conn)
                       for conn in range(CONNECTIONS)]
        interval = settings["write_interval"]
        acked: list[list] = [[] for __ in range(CONNECTIONS)]
        xml_bytes = len(current.xml.encode())
        record = {
            "document_bytes": xml_bytes,
            "document_pages": db_pages(current.server.db_path),
            "pool_frames": frames,
            "workers": WORKERS,
            "loop": "closed, one thread per connection",
            "clients": CONNECTIONS,
            "flush_policy": ("group commit: one fsync per batch of "
                             "queued commits, checkpoint every 16"),
        }
        if trace:
            before = (current.clients[0].stats(),
                      _parse_metrics(current.clients[0].metrics()))
            # Quarters untraced, traced, traced, untraced, so a drift in
            # machine speed over the run cancels out of the ratio of
            # traced to untraced latency.
            phases = {False: [], True: []}
            for traced_phase in (False, True, True, False):
                phases[traced_phase] += drive(
                    current, connections, seconds / 4, traced_phase,
                    interval, acked)["ops"]
            untraced, traced = ({"ops": phases[False]},
                                {"ops": phases[True]})
            after = (current.clients[0].stats(),
                     _parse_metrics(current.clients[0].metrics()))
        else:
            result = drive(current, connections, seconds, False,
                           interval, acked)
        current.close_clients()
        if workload == "mixed":
            current.server.stop(signal.SIGKILL)
            checked, wrong = check_durability(current.server.db_path,
                                              frames, acked)
            record["durability"] = {"records": checked, "wrong": wrong}
        else:
            current.server.stop()
            wrong = 0
        db_path = current.server.db_path
        current = None
    finally:
        if current is not None:
            current.close(signal.SIGKILL)
    if trace:
        return _traced(workdir, workload, seed, reference, record,
                       untraced, traced, before, after, wrong)
    ops = result["ops"]
    completed = [op for op in ops if op["seconds"] is not None]
    reads = latency_summary([op["seconds"] for op in completed
                             if op["kind"] in ("title", "author")],
                            settings["tail_pct"])
    record["read_latency"] = reads
    reported = {"ops_per_s": (len(completed) / result["elapsed"], "op/s"),
                "read_p50_ms": (reads["p50_ms"], "ms"),
                "read_tail_ms": (reads["tail_ms"], "ms")}
    if workload == "mixed":
        writes = latency_summary([op["seconds"] for op in completed
                                  if op["kind"] in ("insert", "replace")],
                                 settings["tail_pct"])
        record["write_latency"] = writes
        reported.update(write_p50_ms=(writes["p50_ms"], "ms"),
                        write_tail_ms=(writes["tail_ms"], "ms"))
    record["by_kind"] = {
        kind: latency_summary([op["seconds"] for op in completed
                               if op["kind"] == kind],
                              settings["tail_pct"])
        for kind in sorted({op["kind"] for op in completed})}
    late = [op["late"] for op in ops if op["late"] is not None]
    if late:
        # How long owed writes waited for their connection to be free.
        record["write_late_ms"] = statistics.median(late) * 1e3
    failed = sum(1 for op in ops if not op["ok"]) + wrong
    return {
        "attempted": len(ops), "failed": failed, "record": record,
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            # Per byte of XML the database holds: the document plus
            # the records the run inserted.
            "bytes_per_xml_byte": file_bytes(db_path) / (
                xml_bytes + sum(len(request.record.encode())
                                for requests in acked
                                for request in requests
                                if request.kind == "insert")),
        },
        "reported": reported}


def _span_children(spans: list | None) -> tuple[float, dict[str, float]]:
    """Server root duration and its direct children's durations, ms."""
    root = (spans or [{}])[0]
    children = {}
    for child in root.get("children", ()):
        children[child["name"]] = (children.get(child["name"], 0.0)
                                   + child["duration_ms"])
    return root.get("duration_ms", 0.0), children


def _traced(workdir, workload, seed, reference, record, untraced, traced,
            before, after, wrong) -> dict:
    settings = SETTINGS[workload]
    tail_pct = settings["tail_pct"]
    ops = untraced["ops"] + traced["ops"]
    failed = sum(1 for op in ops if not op["ok"]) + wrong
    attempted = len(ops)

    # Served layers, from the wire spans of the traced phase.
    queue_ms, execution_ms, wire_ms = [], [], []
    rtt_total = covered = 0.0
    for op in traced["ops"]:
        if op["seconds"] is None:
            continue
        root_ms, children = _span_children(op.get("spans"))
        rtt_ms = op["seconds"] * 1e3
        run_ms = children.get("execute", 0.0) + children.get("update", 0.0)
        queue_ms.append(children.get("queue", 0.0))
        execution_ms.append(run_ms)
        wire_ms.append(rtt_ms - root_ms)
        rtt_total += rtt_ms
        covered += (rtt_ms - root_ms) + children.get("queue", 0.0) + run_ms
    stats_before, metrics_before = before
    stats_after, metrics_after = after

    def delta(name: str) -> float:
        return metrics_after.get(name, 0.0) - metrics_before.get(name, 0.0)

    served_requests = max(1, sum(1 for op in ops
                                 if op["seconds"] is not None))
    hits = delta("repro_storage_buffer_hits")
    misses = delta("repro_storage_buffer_misses")
    net_before, net_after = stats_before["network"], stats_after["network"]
    server_before, server_after = stats_before["server"], stats_after["server"]
    commits = server_after["group_commits"] - server_before["group_commits"]
    fsyncs = server_after["group_fsyncs"] - server_before["group_fsyncs"]

    # Per-phase numbers and exact page counts: connection 0's sequence
    # replayed single-threaded in-process on a fresh database.
    db_path = os.path.join(workdir, "replay.db")
    tracer = Tracer()
    with XmlDbms(db_path, buffer_capacity=settings["frames"]) as dbms:
        load_started = time.perf_counter()
        stats = dbms.load(DOC, xml=document_xml(seed))
        load_s = time.perf_counter() - load_started
        replay = Replay(dbms, db_path, tracer)
        sequence = Connection(reference, workload, seed, 0).sequence()
        for index in range(REPLAY_REQUESTS):
            request = next(sequence)
            answer = replay.run(index, request.kind, request.text,
                                request.bindings)
            attempted += 1
            if request.is_write:
                field, count = WRITE_COUNTS[request.kind]
                ok = getattr(answer, field) == count
            else:
                ok = _correct(request, answer)
            failed += 0 if ok else 1
    layers = replay.layer_metrics()
    replay_unattributed = layers["unattributed_share"]
    pages = replay.pages_per_class()
    record["page_accesses"] = pages
    record["replay_unattributed_share"] = replay_unattributed
    untraced_ms = statistics.mean(op["seconds"] for op in untraced["ops"]
                                  if op["seconds"] is not None)
    traced_ms = statistics.mean(op["seconds"] for op in traced["ops"]
                                if op["seconds"] is not None)
    record["replay_plan_cache_hit_ratio"] = layers[
        "session.plan_cache_hit_ratio"]
    lookups = [op["plan_cache_hit"] for op in ops
               if op.get("plan_cache_hit") is not None]
    layers.update({
        # The served sessions' own cache, as the server reports it.
        "session.plan_cache_hit_ratio": sum(lookups) / len(lookups),
        "xasr.load_s": load_s,
        "xasr.nodes_per_s": stats.total_nodes / load_s,
        "storage.pages_per_title": pages.get("title", 0.0),
        "storage.pages_per_author": pages.get("author", 0.0),
        "storage.pages_per_insert": pages.get("insert", 0.0),
        "storage.pages_per_replace": pages.get("replace", 0.0),
        "storage.misses": misses / served_requests,
        "storage.evictions": (delta("repro_storage_buffer_evictions")
                              / served_requests),
        "storage.hit_ratio": hits / (hits + misses) if hits else 0.0,
        "storage.fsyncs_per_commit": fsyncs / commits if commits else 0.0,
        "storage.versioned_reads": (
            (server_after["snapshot_reads"]
             - server_before["snapshot_reads"]) / served_requests),
        "server.queue_wait_p50_ms": statistics.median(queue_ms),
        "server.queue_wait_tail_ms": percentile(queue_ms, tail_pct),
        "server.execution_p50_ms": statistics.median(execution_ms),
        "server.execution_tail_ms": percentile(execution_ms, tail_pct),
        "net.wire_ms": statistics.median(wire_ms),
        "net.bytes_per_request": (
            (net_after["bytes_sent"] - net_before["bytes_sent"]
             + net_after["bytes_received"] - net_before["bytes_received"])
            / served_requests),
        "obs.trace_overhead": traced_ms / untraced_ms,
        # The served requests' round trips not covered by wire, queue
        # and server execution; the server's compile path has no span
        # of its own, so it shows here.
        "unattributed_share": (rtt_total - covered) / rtt_total,
    })
    wire = [{"kind": op["kind"], "rtt_ms": op["seconds"] * 1e3,
             "spans": op.get("spans")}
            for op in traced["ops"] if op["seconds"] is not None]
    return {"attempted": attempted, "failed": failed, "record": record,
            "layers": layers,
            "spans": {"replay": tracer.spans, "wire": wire}}
