"""The three benchmark workloads: inputs, set-up, timed passes and checks.

Every call into pctree goes through a module attribute (``transforms.treeify``,
``serialize.read_circuit``...), so that the tracer's wrappers see it.

Inputs.  The random DAGs keep the structure of the corpus named in ROADMAP
(``random_valid_pc`` with seed 1 and reuse 0.5).  The generator's size
depends strongly on its seed: at n=48 the binarized DAG has 11.6k to 22k
nodes over seeds 1..12, which would move ``reduce_depth`` time several-fold
between seeds and swamp any change to the code.  So ``--seed`` draws the sum
weights (seed 1 keeps the generator's own weights, i.e. exactly the ROADMAP
corpus), the query points, and nothing that changes the amount of work.  The
hard instances depend only on k.

Timing.  On a shared machine the speed of every program drifts, by up to
2x within a minute, and a fixed pure-Python probe slows down with the
workload.  :class:`Timer` runs the probe next to the timed calls and scales
each call's process CPU time by ``(PROBE_REF / probe) ** alpha``: the
result reads in seconds at the speed where one probe chunk takes
``PROBE_REF`` seconds.  A call much shorter than ``PROBE_EVERY`` runs at the
speed its adjacent probes measure, and ``alpha`` is near one.  Over a long
call the speed wanders, the probes at its ends predict its mean speed less
well, and ``alpha`` falls toward ``PROBE_EXPONENT``.  On a shared 2-vCPU Xeon
VM, over six runs per workload, the spread of per-process times was
smallest near ``alpha`` = 1 for calls of milliseconds and near 0.6-0.75 for
calls of seconds.  Raw CPU seconds stay in the spans of traced runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field

from pctree import circuit, instances, poly, serialize, transforms
from pctree.circuit import Circuit, Leaf, Sum

CORPUS_SEED = 1
REUSE = 0.5
REL_TOL = 1e-9  # the package's own tolerance for float comparisons
POINTS = {"boolean": 8, "marginal": 1, "real": 8}


#: Probe chunk time that defines the reference speed; a chunk takes about
#: this long with Python 3.11 on an idle Xeon vCPU.
PROBE_REF = 0.005
#: CPU seconds after which the speed probe is rerun (see :class:`Timer`).
PROBE_EVERY = 0.25
#: How strongly the CPU time of a long call follows the probe's (module
#: docstring).
PROBE_EXPONENT = 0.75


def cpu() -> float:
    return time.process_time()


def _probe_chunk() -> int:
    # the mix the compiler spends its time on: int-keyed dicts and
    # shifts and masks of large ints
    counts: dict[int, int] = {}
    mask = (1 << 4000) - 1
    acc = 0
    for i in range(13000):
        k = (i * 2654435761) & 1023
        counts[k] = counts.get(k, 0) + 1
        acc ^= (mask >> (i & 2047)) & 0xFFFF
    return acc


class Timer:
    """CPU time of calls, scaled to the reference speed (module docstring).

    The probe runs before a call when the last one is older than
    ``PROBE_EVERY`` CPU seconds, and again after it on the same condition, so
    long calls are bracketed by fresh probes and runs of short calls share
    one.  While the tracer instruments the package, each call sits in a
    ``bench.call`` span, which marks the program's work that the run times.
    ``raw_s`` sums the unscaled CPU seconds of all calls.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.probes: list[float] = []
        self.raw_s = 0.0
        self._probe()

    def _probe(self) -> None:
        times = []
        for _ in range(5):
            t = cpu()
            _probe_chunk()
            times.append(cpu() - t)
        self.speed = statistics.median(times)
        self.probes.append(self.speed)
        self.at = cpu()

    def run(self, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), scaled seconds)``; exceptions pass through."""
        if cpu() - self.at >= PROBE_EVERY:
            self._probe()
        before = self.speed
        span = self.tracer.open("bench.call") if self.tracer.active else None
        t = cpu()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = cpu() - t
            if span is not None:
                self.tracer.close(span)
        self.raw_s += dt
        if cpu() - self.at >= PROBE_EVERY:
            self._probe()
        alpha = 1 - (1 - PROBE_EXPONENT) * dt / (dt + PROBE_EVERY)
        return result, dt * (2 * PROBE_REF / (before + self.speed)) ** alpha


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json records why each was chosen."""

    name: str
    inputs: tuple[tuple[str, int], ...]  # ("dag", n) or ("hard", k)
    exact: tuple[str, ...]  # inputs also verified by exact expansion
    setups: int  # set-up repetitions per worker process
    compile_in_setup: bool  # tree-query: compile once, then time load + evaluate
    random_in_verify_s: bool  # whether randomized verdicts count toward verify_s


WORKLOADS = {w.name: w for w in (
    Workload("dag-compile", (("dag", 16), ("dag", 32), ("dag", 48)), ("dag-16",),
             3, False, True),
    # verify_s times the exact verdicts only; the randomized one is known to
    # be wrong at k=4 (overflow) and counts in `failed` and the poly layer
    Workload("hard-compile", (("hard", 3), ("hard", 4)), ("hard-3", "hard-4"),
             5, False, False),
    Workload("tree-query", (("dag", 32), ("hard", 4)), (), 1, True, False),
)}


@dataclass
class Case:
    name: str
    circuit: Circuit
    points: list[list[float]]
    reference: list[float] = field(default_factory=list)
    tree: Circuit | None = None
    constant: float = 1.0
    hash: str = ""
    path: str = ""


@dataclass
class Ledger:
    """Operations attempted and failed; failures keyed by (input, check)."""

    attempted: int = 0
    failed: int = 0
    failures: dict[tuple[str, str], list] = field(default_factory=dict)
    wrong_output: bool = False  # a check found an output of the program incorrect
    random_wrong: int = 0

    def check(self, case: str, check: str, ok: bool, detail: str = "",
              output_wrong: bool = True) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong_output |= output_wrong
            entry = self.failures.setdefault((case, check), [0, detail])
            entry[0] += 1
        return ok


def table_hash(c: Circuit) -> str:
    """SHA-256 of the node table, root and variable count; weights are
    written with shortest round-trip precision, so equal hashes mean
    node-for-node identical circuits."""
    rows = []
    for node in c.nodes:
        if isinstance(node, Leaf):
            rows.append(("L", node.var, node.negated))
        elif isinstance(node, Sum):
            rows.append(("S", node.children, [repr(w) for w in node.weights]))
        else:
            rows.append(("P", node.children))
    text = json.dumps([c.num_vars, c.root, rows], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def depth_bound(num_vars: int) -> int:
    return 2 * math.ceil(math.log2(num_vars)) + 1


def _reweight(c: Circuit, rng: random.Random) -> Circuit:
    nodes = [Sum(node.children, tuple(rng.uniform(0.2, 1.0) for _ in node.children))
             if isinstance(node, Sum) else node for node in c.nodes]
    return circuit.build_circuit(c.num_vars, nodes, c.root)


def _points(num_vars: int, rng: random.Random) -> list[list[float]]:
    pts = [circuit.boolean_assignment([rng.randint(0, 1) for _ in range(num_vars)])
           for _ in range(POINTS["boolean"])]
    pts += [circuit.marginal_assignment(num_vars)] * POINTS["marginal"]
    pts += [[rng.uniform(0.05, 0.95) for _ in range(2 * num_vars)]
            for _ in range(POINTS["real"])]
    return pts


def generate(w: Workload, seed: int, tracer) -> list[Case]:
    cases = []
    for kind, size in w.inputs:
        name = f"{kind}-{size}"
        tracer.new_op(f"setup/{name}")
        rng = random.Random(f"{seed}/{name}")
        if kind == "dag":
            c = instances.random_valid_pc(
                instances.GenParams(n=size, seed=CORPUS_SEED, reuse_prob=REUSE))
            if seed != CORPUS_SEED:
                c = _reweight(c, rng)
        else:
            c = instances.build_hard_instance(size)
        cases.append(Case(name, c, _points(c.num_vars, rng)))
    return cases


def reference_values(cases: list[Case]) -> None:
    """The oracle for every evaluation check: the *input* circuit's value
    at each query point."""
    for case in cases:
        case.reference = [case.circuit.evaluate(a) for a in case.points]


# -- compile ------------------------------------------------------------------

def _treeify(c: Circuit):
    tree, report = transforms.treeify(c, normalize_output=True)
    return tree, report.root_constant, None


def _stages(c: Circuit):
    # the stage metrics are taken as treeify takes them, so that staged and
    # treeify passes do the same work
    transforms.stage_metrics("input", c)
    b = transforms.binarize(c)
    transforms.stage_metrics("binarize", b)
    r = transforms.reduce_depth(b)
    transforms.stage_metrics("reduce_depth", r)
    d = transforms.duplicate_to_tree(r)
    transforms.stage_metrics("duplicate", d)
    tree, constant = transforms.normalize(d)
    transforms.stage_metrics("normalize", tree)
    return tree, constant, (b, r, d)


def compile_case(case: Case, ledger: Ledger, tracer, timer: Timer,
                 staged: bool) -> tuple[float, dict]:
    """treeify with output normalization; with ``staged`` the four stages
    are called one by one and their sizes recorded.  Returns (scaled
    seconds, stage info)."""
    info: dict = {}
    # a fresh copy, as a file read would give, so that no pass finds the
    # input's cached analyses filled in by an earlier one
    source = Circuit(case.circuit.num_vars, case.circuit.nodes, case.circuit.root)
    try:
        (tree, constant, parts), dt = timer.run(_stages if staged else _treeify, source)
    except Exception as exc:  # a failed compile is counted, not fatal
        ledger.check(case.name, "compile", False, f"{type(exc).__name__}: {exc}")
        case.tree = None
        return 0.0, info
    ledger.check(case.name, "compile", True)
    if parts:
        tracer.stage = "analyses"
        info = stage_info(*parts, tracer)
    case.tree, case.constant = tree, constant
    case.hash = table_hash(tree)
    stats = tree.stats()
    info["out_nodes"], info["out_depth"] = stats.num_nodes, stats.depth
    bound = depth_bound(case.circuit.num_vars)
    ledger.check(case.name, "depth-bound", stats.depth <= bound,
                 f"depth {stats.depth} > {bound}")
    ledger.check(case.name, "is-tree", stats.is_tree, "output has a shared node")
    ledger.check(case.name, "normalized", tree.validity().normalized,
                 "output sum weights do not total one")
    ledger.check(case.name, "constant", math.isfinite(constant) and constant > 0,
                 f"root constant {constant!r}")
    return dt, info


def stage_info(b: Circuit, r: Circuit, d: Circuit, tracer) -> dict:
    """Sizes after each stage, the band structure of the binarized input,
    and the cost of the cached analyses on a fresh copy of it."""
    copy = Circuit(b.num_vars, b.nodes, b.root)
    with tracer.span("circuit.analyses"):
        for cached in ("degrees", "descendant_masks", "ancestor_masks", "topo_positions"):
            getattr(copy, cached)
        copy.validity()
    d_root = b.degrees[b.root]
    bands = (d_root - 1).bit_length() if d_root > 1 else 0
    frontier = sum(len(transforms.degree_frontier(b, 1 << i).members) for i in range(bands))
    return {"reduce_nodes": len(r.nodes), "reduce_depth": r.stats().depth,
            "dup_nodes": len(d.nodes), "bands": bands, "frontier_nodes": frontier}


# -- verify -------------------------------------------------------------------

def _denormalized(case: Case) -> Circuit:
    """The output tree times its root constant, as a circuit: one extra sum
    node over the root.  Equal to the input when the compile is right."""
    tree = case.tree
    return Circuit(tree.num_vars, tree.nodes + (Sum((tree.root,), (case.constant,)),),
                   len(tree.nodes))


def _exact_equal(case: Case) -> bool:
    p = poly.extract_polynomial(case.circuit)
    q = poly.extract_polynomial(case.tree)
    return poly.poly_equal(p, q.scaled(case.constant), tol=REL_TOL)


def verify_case(case: Case, exact: bool, ledger: Ledger, timer: Timer) -> tuple[float, float]:
    """Exact verdict (extract both sides, compare coefficients) when asked,
    and the randomized verdict always.  Returns their scaled seconds."""
    exact_s = random_s = 0.0
    exact_equal = None
    if exact:
        try:
            exact_equal, exact_s = timer.run(_exact_equal, case)
        except Exception as exc:
            exact_equal = False
            ledger.check(case.name, "exact-verdict", False, f"{type(exc).__name__}: {exc}")
        else:
            ledger.check(case.name, "exact-verdict", exact_equal, "exact oracle: UNEQUAL")
    scaled = _denormalized(case)
    try:
        verdict, random_s = timer.run(poly.random_equivalence, case.circuit, scaled)
    except Exception as exc:
        verdict, why = False, f"{type(exc).__name__}: {exc}"
    else:
        why = "random_equivalence: UNEQUAL"
    if not verdict:
        ledger.random_wrong += 1
    # when the exact oracle proved the output equal, a wrong randomized
    # verdict is a failed operation of the tester, not a wrong compile
    tester_only = exact_equal is True
    ledger.check(case.name, "random-verdict", verdict,
                 why + (" (exact oracle: EQUAL)" if tester_only else ""),
                 output_wrong=not tester_only)
    return exact_s, random_s


# -- load and query -------------------------------------------------------------

def save(case: Case, out_dir: str, timer: Timer) -> float:
    case.path = os.path.join(out_dir, f"{case.name}.tree.json")
    return timer.run(serialize.write_circuit, case.tree, case.path)[1]


def load_case(case: Case, ledger: Ledger, timer: Timer) -> tuple[float, Circuit | None]:
    try:
        loaded, dt = timer.run(serialize.read_circuit, case.path)
    except Exception as exc:
        ledger.check(case.name, "load", False, f"{type(exc).__name__}: {exc}")
        return 0.0, None
    ledger.check(case.name, "load", table_hash(loaded) == case.hash,
                 "read_circuit returned a different node table")
    return dt, loaded


def query_case(case: Case, tree: Circuit, ledger: Ledger, timer: Timer) -> tuple[float, int]:
    """Evaluate the tree at every query point; each value times the root
    constant must match the input circuit's value."""
    total = 0.0
    for i, (a, ref) in enumerate(zip(case.points, case.reference)):
        try:
            got, dt = timer.run(tree.evaluate, a)
        except Exception as exc:
            ledger.check(case.name, f"evaluate[{i}]", False, f"{type(exc).__name__}: {exc}")
            continue
        total += dt
        ledger.check(case.name, f"evaluate[{i}]",
                     math.isclose(got * case.constant, ref, rel_tol=REL_TOL),
                     f"{got * case.constant!r} vs reference {ref!r}")
    return total, len(case.points)
