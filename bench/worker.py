"""One worker process of a benchmark run (started by ``run.py --worker``).

A worker sets up its inputs, warms up on the smallest one, then repeats
timed passes over the workload's corpus until the next pass would not fit
in its window, and prints its raw samples, checks and hashes as one JSON
line for ``run.py`` to merge.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time

import tracing
import workloads as wl


class Worker:
    """Repeated set-up, warm-up, then timed passes until the window ends."""

    def __init__(self, args, out_dir: str):
        self.args = args
        self.w = wl.WORKLOADS[args.workload]
        self.dir = out_dir
        os.makedirs(self.dir, exist_ok=True)
        self.ledger = wl.Ledger()
        self.tracer = tracing.Tracer()
        self.timer = wl.Timer(self.tracer)
        self.hashes: dict[str, str] = {}
        self.out: dict[str, tuple[int, int]] = {}  # input -> (nodes, depth) of its tree
        self.samples = {k: [] for k in ("setup_s", "compile_s", "verify_s", "load_s", "eval_ms")}
        self.slices: list[tuple[int, int, dict]] = []  # traced phases: span range, record
        self.compile_raw = {False: [], True: []}  # raw CPU seconds of passes, by traced
        self.passes = 0

    # -- phases ---------------------------------------------------------------

    def _compile(self, case, staged: bool, rec: dict) -> None:
        self.tracer.stage = "compile"
        raw = self.timer.raw_s
        dt, info = wl.compile_case(case, self.ledger, self.tracer, self.timer, staged)
        rec["compile"] += dt
        rec["compile_raw"] += self.timer.raw_s - raw
        rec["infos"].append(info)
        if case.tree is not None:
            seen = self.hashes.setdefault(case.name, case.hash)
            self.ledger.check(case.name, "same-hash", seen == case.hash,
                              "output differs from the first compile of this input")
            self.out[case.name] = (info["out_nodes"], info["out_depth"])

    def setup(self, staged: bool) -> tuple[list, dict]:
        """Generate the inputs; tree-query then compiles and writes its
        trees.  ``setup`` is the sum of the timed parts.  The reference
        values are computed untimed: they are the checks' oracle."""
        tr = self.tracer
        tr.stage = "setup"
        cases, total = self.timer.run(wl.generate, self.w, self.args.seed, tr)
        wl.reference_values(cases)
        rec = {"compile": 0.0, "compile_raw": 0.0, "infos": []}
        if self.w.compile_in_setup:
            for case in cases:
                tr.new_op(f"setup/{case.name}")
                self._compile(case, staged, rec)
                tr.stage = "setup"
                if case.tree is not None:
                    total += wl.save(case, self.dir, self.timer)
            total += rec["compile"]
        rec["setup"] = total
        return cases, rec

    def compile_pass(self, cases, label: str, staged: bool) -> dict:
        w = self.w
        rec = {"compile": 0.0, "compile_raw": 0.0, "verify": 0.0, "load": 0.0, "eval": 0.0,
               "evals": 0, "infos": [], "random_wrong": self.ledger.random_wrong}
        for case in cases:
            self.tracer.new_op(f"{label}/{case.name}")
            self._compile(case, staged, rec)
            if case.tree is None:
                continue
            self.tracer.stage = "verify"
            exact_s, random_s = wl.verify_case(case, case.name in w.exact, self.ledger,
                                               self.timer)
            rec["verify"] += exact_s + (random_s if w.random_in_verify_s else 0.0)
            self.tracer.stage = "load"
            wl.save(case, self.dir, self.timer)
            self._query(case, rec)
            case.tree = None
        rec["random_wrong"] = self.ledger.random_wrong - rec["random_wrong"]
        return rec

    def query_pass(self, cases, label: str) -> dict:
        rec = {"verify": 0.0, "load": 0.0, "eval": 0.0, "evals": 0, "infos": [],
               "random_wrong": 0}
        for case in cases:
            self.tracer.new_op(f"{label}/{case.name}")
            self.tracer.stage = "verify"
            rec["verify"] += self.timer.run(wl.reference_values, [case])[1]
            if case.path:
                self._query(case, rec)
        return rec

    def _query(self, case, rec: dict) -> None:
        self.tracer.stage = "load"
        dt, loaded = wl.load_case(case, self.ledger, self.timer)
        rec["load"] += dt
        if loaded is not None:
            self.tracer.stage = "query"
            dt, k = wl.query_case(case, loaded, self.ledger, self.timer)
            rec["eval"] += dt
            rec["evals"] += k

    def traced(self, fn):
        start = len(self.tracer.spans)
        with self.tracer.instrument():
            result = fn()
        rec = result[1] if isinstance(result, tuple) else result
        self.slices.append((start, len(self.tracer.spans), rec))
        return result

    # -- the run --------------------------------------------------------------

    def execute(self) -> None:
        w, args, s = self.w, self.args, self.samples
        for _ in range(w.setups):
            gc.collect()
            cases, rec = self.setup(False)
            s["setup_s"].append(rec["setup"])
            if w.compile_in_setup:
                s["compile_s"].append(rec["compile"])
                self.compile_raw[False].append(rec["compile_raw"])
        if args.trace:
            gc.collect()
            cases, rec = self.traced(lambda: self.setup(True))
            if w.compile_in_setup:
                self.compile_raw[True].append(rec["compile_raw"])
        gc.collect()
        gc.freeze()  # the inputs live for the whole run; keep them out of collections

        # warm-up on the smallest input, kept out of the ledger and the samples
        ledger, self.ledger = self.ledger, wl.Ledger()
        if w.compile_in_setup:
            self.query_pass(cases[:1], "warmup")
        else:
            self.compile_pass(cases[:1], "warmup", False)
        self.ledger = ledger

        start = time.monotonic()
        walls: list[float] = []
        while True:
            i = self.passes
            staged = bool(args.trace) and i % 2 == 1
            gc.collect()
            t0 = time.monotonic()
            if w.compile_in_setup:
                run = lambda: self.query_pass(cases, f"pass{i}")
            else:
                run = lambda: self.compile_pass(cases, f"pass{i}", staged)
            rec = self.traced(run) if staged else run()
            walls.append(time.monotonic() - t0)
            self.passes += 1
            if not w.compile_in_setup:
                self.compile_raw[staged].append(rec["compile_raw"])
            if not staged:
                if not w.compile_in_setup:
                    s["compile_s"].append(rec["compile"])
                s["verify_s"].append(rec["verify"])
                s["load_s"].append(rec["load"])
                s["eval_ms"].append(1000 * rec["eval"] / max(rec["evals"], 1))
            if args.trace and self.passes < 2:
                continue  # a traced run needs one untraced and one traced pass
            if time.monotonic() - start + statistics.median(walls) > args.seconds:
                break

    # -- results --------------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        spans = self.tracer.spans
        setup_m, pass_ms, infos = {}, [], []
        for k, (a, b, rec) in enumerate(self.slices):
            m = tracing.layer_metrics(spans[a:b], spans)
            m["poly.equiv_wrong"] = rec.get("random_wrong", 0)
            infos = infos or [i for i in rec["infos"] if "reduce_nodes" in i]
            if k == 0:
                setup_m = m
            else:
                pass_ms.append(m)
        keys = set(setup_m).union(*pass_ms) if pass_ms else set(setup_m)
        out = {k: setup_m.get(k, 0) + (statistics.median(m.get(k, 0) for m in pass_ms)
                                       if pass_ms else 0) for k in keys}
        reduced = sum(i["reduce_nodes"] for i in infos)
        out["transforms.reduce_depth_nodes"] = reduced
        out["transforms.reduce_depth_depth"] = max((i["reduce_depth"] for i in infos), default=0)
        out["transforms.duplicate_nodes"] = sum(i["dup_nodes"] for i in infos)
        out["transforms.duplicate_growth"] = out["transforms.duplicate_nodes"] / max(reduced, 1)
        out["transforms.bands"] = sum(i["bands"] for i in infos)
        out["transforms.frontier_nodes"] = sum(i["frontier_nodes"] for i in infos)
        # raw CPU seconds, like the spans: traced staged compile minus
        # untraced treeify compile of the same corpus in the same process
        out["trace.overhead_s"] = (statistics.median(self.compile_raw[True])
                                   - statistics.median(self.compile_raw[False]))
        return out


def main(args, out_dir: str) -> None:
    """Run one worker and print its raw record as one JSON line."""
    run = Worker(args, out_dir)
    run.execute()
    led = run.ledger
    record = {
        "samples": run.samples, "out": run.out, "hashes": run.hashes, "passes": run.passes,
        "attempted": led.attempted, "failed": led.failed, "wrong_output": led.wrong_output,
        "failures": [[c, k, n, d] for (c, k), (n, d) in led.failures.items()],
        "probes": run.timer.probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        record["per_layer"] = run.per_layer()
        record["spans"] = os.path.join(run.dir, "spans.tsv")
        record["span_count"] = len(run.tracer.spans)
        run.tracer.write(record["spans"])
    print(json.dumps(record))
