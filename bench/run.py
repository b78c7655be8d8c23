#!/usr/bin/env python3
"""pctree benchmark: compile, verify and query workloads.

Usage, from the root of the repository::

    python3 bench/run.py --workload dag-compile [--seed 1] [--seconds 40] [--trace 0]

One caller, one thread, a closed loop: each operation starts when the
previous one has returned.  A run starts worker processes one after another
(at least two, more while the next one still fits in ``--seconds``) and
merges their samples.  Each worker sets up its inputs, warms up on the
smallest input, then repeats timed passes over the workload's corpus for
its share of the time.  Timings are medians over all passes of all
workers, in process CPU seconds scaled to a reference machine speed
(``workloads.Timer``).  Fresh processes differ in speed by up to 8 % in
this program's ratio to the speed probe, so no run rests on one process.

Every output is checked against an oracle that is not the compiler: the
exact polynomial (``extract_polynomial``/``poly_equal``) or the randomized
identity test, and the *input* circuit's value at seeded query points.
Failed checks are counted, not fatal, and listed by input and check.

``--trace 1`` runs one worker that alternates untraced and traced passes,
with spans around every call into pctree's layers (see ``tracing.py``),
compiles stage by stage instead of through ``treeify`` and checks that the
output hashes match.  It reports per-layer numbers, in raw CPU seconds,
from the spans inside the calls the run times, and writes all spans to
``bench/out/<run>/spans.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is false
when a check finds an output of the program wrong; a randomized verdict of
UNEQUAL that the exact oracle contradicts is a failed operation of the
tester and is counted in ``failed`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
WORKER_SECONDS = 5.0  # timed window of one worker process
MIN_WORKERS = 2
RUN_LIMIT = 170.0  # seconds; a run must end well within three minutes


def metric_units(kind: str) -> dict[str, str]:
    """Metric names and units, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def import_package() -> None:
    """Put this checkout's ``src`` first on the path; refuse to fall back
    to any other copy of pctree."""
    if not os.path.isfile(os.path.join(SRC, "pctree", "__init__.py")):
        sys.exit(f"error: no pctree sources at {SRC}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    import pctree
    if os.path.dirname(os.path.dirname(os.path.abspath(pctree.__file__))) != SRC:
        sys.exit(f"error: imported pctree from {pctree.__file__}, not {SRC}")


def summary(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond
    it; up to twenty samples that is the median, and the maximum is given
    instead."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    if n > 20:
        pct = int(100 * (1 - 10 / n))
        out[f"p{pct}"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    else:
        out["max"] = max(values)
    return out


def run_name(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def environment(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "PC_TERM_BUDGET": os.environ.get("PC_TERM_BUDGET", "unset"),
            "clock": "process CPU, scaled by the speed probe",
            "loop": "closed, 1 caller, 1 thread, worker processes in sequence"}


def spawn_worker(args, seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        sys.exit("error: worker process exceeded the run's time limit")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"error: worker process exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Merged:
    """Results of all worker processes of one run."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.out: dict[str, list[int]] = {}
        self.hashes: dict[str, str] = {}
        self.failures: dict[tuple[str, str], list] = {}
        self.attempted = self.failed = self.passes = 0
        self.wrong_output = False
        self.probes: list[float] = []
        self.peak_rss_mb = 0.0
        self.workers: list[dict] = []

    def add(self, rec: dict) -> None:
        self.workers.append(rec)
        for k, v in rec["samples"].items():
            self.samples.setdefault(k, []).extend(v)
        self.out.update(rec["out"])
        for c, k, n, d in rec["failures"]:
            self.failures.setdefault((c, k), [0, d])[0] += n
        self.attempted += rec["attempted"]
        self.failed += rec["failed"]
        self.wrong_output |= rec["wrong_output"]
        self.passes += rec["passes"]
        self.probes += rec["probes"]
        self.peak_rss_mb = max(self.peak_rss_mb, rec["peak_rss_mb"])
        for name, digest in rec["hashes"].items():  # every worker must agree
            seen = self.hashes.setdefault(name, digest)
            self.attempted += 1
            if seen != digest:
                self.failed += 1
                self.wrong_output = True
                self.failures.setdefault((name, "same-hash-across-workers"),
                                         [0, "workers compiled different outputs"])[0] += 1

    def end_to_end(self) -> dict[str, dict]:
        out = {k: summary(v) for k, v in self.samples.items() if v}
        out["out_nodes"] = {"median": sum(n for n, _ in self.out.values())}
        out["out_depth"] = {"median": max((d for _, d in self.out.values()), default=0)}
        out["peak_rss_mb"] = {"median": self.peak_rss_mb}
        return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(
        "dag-compile", "hard-compile", "tree-query"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_package()
    if args.worker:
        import worker
        worker.main(args, os.path.join(OUT, run_name(args)))
        return 0
    from workloads import PROBE_REF

    end_to_end, per_layer = metric_units("end_to_end"), metric_units("per_layer")
    env = environment(args)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT
    merged = Merged()
    walls: list[float] = []
    if args.trace:  # one process, so that traced and untraced passes share its speed
        merged.add(spawn_worker(args, args.seconds, deadline))
    else:
        while (len(walls) < MIN_WORKERS
               or time.monotonic() - start + statistics.median(walls) <= args.seconds):
            t0 = time.monotonic()
            merged.add(spawn_worker(args, min(WORKER_SECONDS, args.seconds), deadline))
            walls.append(time.monotonic() - t0)

    for name, digest in merged.hashes.items():
        nodes, depth = merged.out[name]
        print(f"output {name} nodes={nodes} depth={depth} sha256={digest}")
    e2e = merged.end_to_end()
    for name, unit in end_to_end.items():
        stats = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in e2e[name].items())
        print(f"metric {name} unit={unit} {stats}")
    print(f"metric fail_ratio unit=ratio median={merged.failed / max(merged.attempted, 1):.6g} "
          f"failed={merged.failed} attempted={merged.attempted} passes={merged.passes} "
          f"workers={len(merged.workers)}")
    for (name, check), (count, detail) in sorted(merged.failures.items()):
        print(f"failure {name} {check} x{count}: {detail}")
    probe = summary([1000 * p for p in merged.probes])
    print("speed probe_ms " + " ".join(f"{k}={v:.4g}" for k, v in probe.items())
          + f" reference={1000 * PROBE_REF:g}")

    if args.trace:
        rec = merged.workers[0]
        layers = {k: rec["per_layer"].get(k, 0) for k in per_layer}
        for name, value in layers.items():
            print(f"layer {name} unit={per_layer[name]} value={value:.6g}")
        print(f"spans {rec['span_count']} written to {os.path.relpath(rec['spans'], ROOT)}")
        metrics = {k: {"value": v, "unit": per_layer[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": e2e[k]["median"], "unit": u} for k, u in end_to_end.items()}

    record = {"env": env, "end_to_end": e2e, "hashes": merged.hashes,
              "passes": merged.passes, "workers": len(merged.workers), "probe_ms": probe,
              "samples": merged.samples,
              "failures": [{"input": c, "check": k, "count": n, "detail": d}
                           for (c, k), (n, d) in sorted(merged.failures.items())],
              "metrics": metrics}
    run_dir = os.path.join(OUT, run_name(args))
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": not merged.wrong_output, "attempted": merged.attempted,
                      "failed": merged.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
