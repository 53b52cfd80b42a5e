"""One benchmark for the whole DBMS.

Run from the repository root::

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

Workloads (the ``why`` of each is in ``WHY`` below and in
``BENCHMARK.json``): ``ladder`` (milestone ladder, in-process),
``lookup`` (served point reads, pool smaller than the file) and
``mixed`` (served reads and WAL-committed writes).  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` is a separate run that
reports per-layer numbers from spans recorded around every call into a
layer, the server's STATS/METRICS counters and wire spans, and exact
logical page accesses per request class.

The program is imported from ``src/`` of the checkout; the benchmark
builds its own inputs from ``--seed`` and hands the program only the
generated XML.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report.  Spans and the run record are written
to ``perfbench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WHY = {
    "ladder": ("the paper's milestone ladder: operators and storage do "
               "the work, m3 is NestedLoopsJoin-bound"),
    "lookup": ("served point reads with a working set larger than the "
               "pool and the plan cache; the bound lookup scans"),
    "mixed": ("the same reads beside WAL-committed writes that void "
              "cached plans; costs to writers, MVCC or space show"),
}
#: Set-ups made per untraced run; their median is ``setup_s``.
SETUP_REPEATS = 3

#: The nine physical operators reported one by one; the rest are summed.
OPERATORS = ("NestedLoopsJoin", "IndexNestedLoopsJoin", "SemiJoin",
             "Filter", "ResidualFilter", "FullScan", "LabelIndexScan",
             "ValueIndexProbe", "ChildLookup")


def _load_program():
    """Import the program from the checkout; exit if it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, src)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _layer_values(layers: dict) -> dict[str, float]:
    """Flatten per-layer numbers to the names in BENCHMARK.json."""
    values = dict(layers)
    operators = values.pop("operators_ms")
    values.pop("request_seconds", None)
    for name in OPERATORS:
        values[f"physical.{name}.self_ms"] = operators.pop(name, 0.0)
    values["physical.other.self_ms"] = sum(operators.values())
    return values


def run_all(args) -> int:
    """Every workload in turn, each in a process of its own (peak RSS
    is per process); the last line sums them up."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WHY:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, check=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{name}": entry
                        for name, entry in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=[*WHY, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    spec = _spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    trace = bool(args.trace)

    import ladder
    import served

    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if args.workload == "ladder":
            result = ladder.run(workdir, args.seed, args.seconds, trace,
                                SETUP_REPEATS)
        else:
            result = served.run(ROOT, workdir, args.workload, args.seed,
                                args.seconds, trace, SETUP_REPEATS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = (_layer_values(result["layers"]) if trace
                else result["metrics"])
    # A layer the workload does not exercise (no server in ``ladder``,
    # no writes in ``lookup``) did no work in it: reported as 0.
    idle = [entry["name"] for entry in wanted
            if entry["name"] not in measured]
    metrics = {entry["name"]: {"value": measured.get(entry["name"], 0.0),
                               "unit": entry["unit"]}
               for entry in wanted}
    # Measured and printed on every run but not bounded: on a shared
    # two-core machine they spread past any usable bound (README).
    reported = {name: {"value": value, "unit": unit} for name, (value, unit)
                in result.get("reported", {}).items()}
    record = {
        "workload": args.workload, "why": WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        **result["record"],
        "attempted": result["attempted"], "failed": result["failed"],
        "failed_ratio": result["failed"] / result["attempted"],
        "metrics": metrics, "reported": reported,
    }
    out_dir = os.path.join(ROOT, "perfbench_results")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, stem + ".json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)
    if trace:
        with open(os.path.join(out_dir, stem + "-spans.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(result["spans"], handle)

    print(f"workload {args.workload} (seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}): {WHY[args.workload]}")
    for key in ("nproc", "python", "document_bytes", "document_pages",
                "pool_frames", "flush_policy", "loop", "clients"):
        print(f"  {key}: {record[key]}")
    for key in ("read_latency", "write_latency",
                "write_late_ms", "by_kind", "durability", "page_accesses"):
        if key in record:
            print(f"  {key}: {json.dumps(record[key], sort_keys=True)}")
    if idle:
        print(f"  not exercised (reported as 0): {', '.join(idle)}")
    print(f"  failed_ratio: {record['failed_ratio']} "
          f"({result['failed']} of {result['attempted']})")
    for name, entry in reported.items():
        print(f"  {name}: {entry['value']} {entry['unit']} (not bounded)")
    for name, entry in metrics.items():
        print(f"  {name}: {entry['value']} {entry['unit']}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
