"""The benchmark's four closed-loop workloads.

Each workload builds its inputs from the seed (input generation is excluded
from every metric), runs one untimed warm-up operation (a full operation
body), then repeats :meth:`op` until the run's time is up.  An operation
returns the work items it completed, a :class:`Clock` holding the wall
seconds, CPU seconds and cost of its timed regions (the library calls and
requests, not the benchmark's own input generation or checks) and its
latency samples as costs; every output is checked, and each failed check
counts one failed item.  :meth:`Workload.mark` and :meth:`Workload.rewind`
let a traced run replay exactly the operations of the untraced run before
it.

* ``audit``    op = one round: a ``hub`` audit (sum) then a ``torus`` audit
  (max); items = audits; sample = the round.
* ``dynamics`` op = one round: batched sum dynamics to convergence from two
  ``sparse`` and two ``dense`` census graphs; items = applied moves;
  sample = the round.
* ``fleet``    op = one checkpointed ``trajectory`` fleet of 3 slots (one
  per family); the ops cycle through ten root seeds and a run stops only at
  the end of a cycle; items = slots; sample = the fleet.
* ``service``  op = one graph visit: four query kinds, each sent cold, warm
  and with ``If-None-Match``; items = HTTP requests; samples = the four cold
  requests.

CPU seconds count this process (every thread: the client, the in-process
server) and its child processes (the pool workers).  The kernel leaves out
of them the time a shared host's hypervisor gives to other guests (steal)
and the time spent waiting for a core, which the wall clock does not.  A
region's cost divides them by the reference kernel's CPU seconds of the
moment (see reference.py), which also takes out most of the host's changes
of speed.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import shutil
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import reference
import tracer
from repro.constructions import rotated_torus
from repro.core import (
    SwapDynamics,
    TrajectoryRecord,
    best_swap,
    find_deletion_criticality_violation,
    find_swap_violation,
    graph_fingerprint,
    is_equilibrium,
    seed_graph,
)
from repro import experiments
from repro.experiments.registry import get_experiment
from repro.graphs import CSRGraph, random_connected_gnm
from repro.io import summarize_stream
from repro.service import build_server


def child_pids() -> list:
    """Live child processes of this process, from /proc."""
    me, pids = os.getpid(), []
    for tid in os.listdir(f"/proc/{me}/task"):
        try:
            text = Path(f"/proc/{me}/task/{tid}/children").read_text()
        except OSError:
            continue
        pids += [int(p) for p in text.split()]
    return pids


def _process_cpu_clock(pid: int) -> int:
    # Linux's CPU-time clock id of another process, as glibc's
    # clock_getcpuclockid builds it (MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)).
    return ((~pid) << 3) | 2


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its children.

    Live children are read through their CPU-time clocks (nanoseconds);
    children already reaped through ``os.times()``.
    """
    reaped = os.times()
    total = time.process_time() + reaped.children_user + reaped.children_system
    for pid in child_pids():
        try:
            total += time.clock_gettime(_process_cpu_clock(pid))
        except OSError:  # exited meanwhile; counted once it is reaped
            pass
    return total


class Clock:
    """Wall seconds, CPU seconds and cost summed over the timed regions of one op.

    A region's cost is its CPU seconds divided by the reference kernel's CPU
    seconds as last sampled before it (see reference.py), in ``ref`` units;
    with no active reference (set-up, traced runs) it is its CPU seconds.
    """

    def __init__(self) -> None:
        self.wall = self.cpu = self.cost = 0.0

    @staticmethod
    def start() -> tuple:
        level = reference.level()  # samples the reference first when due
        return time.perf_counter(), cpu_seconds(), level

    def add(self, start: tuple) -> float:
        """Charge the region begun at ``start`` (from :meth:`start`); its cost."""
        wall, cpu = time.perf_counter(), cpu_seconds()
        self.wall += wall - start[0]
        self.cpu += cpu - start[1]
        cost = (cpu - start[1]) / start[2]
        self.cost += cost
        return cost


def _seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.default_rng(seed).integers(2**31, size=count)]


def _relabel(graph: CSRGraph, rng: np.random.Generator) -> CSRGraph:
    perm = rng.permutation(graph.n)
    return CSRGraph(graph.n, [(perm[a], perm[b]) for a, b in graph.iter_edges()])


class Workload:
    """Counters and no-op hooks shared by the workloads."""

    #: A timed loop ends only after a whole number of cycles of ops.
    CYCLE = 1

    def __init__(self) -> None:
        self.failed = self.attempted = 0

    def warmup(self) -> None:
        """One untimed operation; its outputs are checked like any other."""
        self.op()

    def mark(self) -> None:
        """Remember where the input sequence stands."""

    def rewind(self) -> None:
        """Return to the last :meth:`mark`; the next ops repeat the same inputs."""

    def check(self) -> None:
        """Output checks that run after the timed loop."""

    def close(self) -> None:
        """Release servers and connections."""


class Audit(Workload):
    """Serial batched equilibrium audits of two n=512 equilibria."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        rng = np.random.default_rng(seed)
        n, m = 512, 1024
        edges = {(0, v) for v in range(1, n)}
        while len(edges) < m:
            a, b = sorted(int(x) for x in rng.choice(np.arange(1, n), 2, replace=False))
            edges.add((a, b))
        self.inputs = [
            ("hub", _relabel(CSRGraph(n, sorted(edges)), rng), "sum"),
            ("torus", _relabel(rotated_torus(16), rng), "max"),
        ]

    def op(self):
        clock = Clock()
        verdicts = []
        for _, graph, objective in self.inputs:
            start = clock.start()
            verdicts.append(is_equilibrium(graph, objective, mode="batched"))
            clock.add(start)
        self.attempted += len(verdicts)
        self.failed += sum(v is not True for v in verdicts)
        return len(verdicts), clock, [clock.cost]


class Dynamics(Workload):
    """Batched sum dynamics to convergence from four n=256 census graphs."""

    def __init__(self, seed: int, workdir: Path):
        # The cost per move depends on the input graph; two graphs of each
        # family per round average that part of the run-to-run spread.
        super().__init__()
        families = ("sparse", "dense") * 2
        self.inputs = [
            seed_graph(family, 256, s)
            for family, s in zip(families, _seeds(seed, len(families)))
        ]
        self.endpoints: dict = {}  # input index -> (fingerprint, graph)

    def _run(self, k: int):
        return SwapDynamics(objective="sum", engine_mode="batched").run(
            self.inputs[k]
        )

    def warmup(self) -> None:
        # One graph of each family: every first-call cost, half the time.
        self._round(range(2))

    def op(self):
        return self._round(range(len(self.inputs)))

    def _round(self, indices):
        clock, moves = Clock(), 0
        for k in indices:
            start = clock.start()
            result = self._run(k)
            clock.add(start)
            moves += result.steps
            self.attempted += 1
            fingerprint = graph_fingerprint(result.graph)
            first = self.endpoints.setdefault(k, (fingerprint, result.graph))
            self.failed += not result.converged or fingerprint != first[0]
        return moves, clock, [clock.cost]

    def check(self) -> None:
        # One fresh batched audit per distinct endpoint, outside the timing.
        for _, graph in self.endpoints.values():
            if not is_equilibrium(graph, "sum", mode="batched"):
                self.failed += 1


class Fleet(Workload):
    """The registered trajectory experiment, checkpointed and streamed.

    It runs on one worker (``run_fleet``'s serial path): with two workers
    busy on a 2-vCPU guest, the fleet's cost per slot moved with the host
    far more than the single-threaded reference (spread 0.13-0.19 across
    five seeds even in ``ref`` units).  The pool is measured on ``service``.
    """

    FAMILIES = ("tree", "sparse", "dense")
    REPLICATES = 1
    CYCLE = 10  # root seeds

    def __init__(self, seed: int, workdir: Path):
        # The work of a fleet varies with its root seed; a run covers whole
        # cycles of CYCLE root seeds, so any number of cycles does the same
        # work per fleet on average.
        super().__init__()
        self.root_seeds = _seeds(seed, self.CYCLE)
        self.workdir = workdir
        self._runs = 0
        self.next = self.saved = 0  # index of the next op's root seed
        self.first: dict = {}  # root seed -> the first fleet's records

    def _fleet(self, root_seed, clock):
        experiment = get_experiment("trajectory").build(
            [64], families=self.FAMILIES, replicates=self.REPLICATES,
            root_seed=root_seed,
        )
        run_dir = self.workdir / f"fleet{self._runs}"
        self._runs += 1
        start = clock.start()
        records = experiments.run_fleet(
            experiment,
            workers=1,
            jsonl_path=run_dir / "stream.jsonl",
            durability="fsync",
            checkpoint_dir=run_dir / "checkpoints",
            checkpoint_every=1,
        )
        cost = clock.add(start)
        summary = summarize_stream(run_dir / "stream.jsonl")
        shutil.rmtree(run_dir)
        return records, summary, cost

    def warmup(self) -> None:
        # One op's work (every family once, checkpointed and streamed)
        # without moving the cycle, so a traced replay starts where the
        # untraced run did.
        records, _, _ = self._fleet(self.root_seeds[0], Clock())
        self.attempted += len(records)
        self.failed += sum(
            not (isinstance(row, TrajectoryRecord) and row.converged)
            for row in records
        )

    def mark(self) -> None:
        self.saved = self.next

    def rewind(self) -> None:
        self.next = self.saved

    def op(self):
        slots = len(self.FAMILIES) * self.REPLICATES
        root_seed = self.root_seeds[self.next % self.CYCLE]
        self.next += 1
        clock = Clock()
        records, summary, cost = self._fleet(root_seed, clock)
        header = summary.header or {}
        stream_ok = (
            summary.results == slots
            and not summary.failures
            and not summary.torn_tail
            and header.get("families") == list(self.FAMILIES)
            and header.get("replicates") == self.REPLICATES
            and header.get("n_values") == [64]
        )
        # The same grid gives the same records every time it runs.
        first = self.first.setdefault(root_seed, records)
        good = sum(
            stream_ok
            and isinstance(row, TrajectoryRecord)
            and row.converged
            and row.verified_equilibrium is True
            and row == reference
            for row, reference in zip(records, first)
        )
        self.attempted += slots
        self.failed += slots - good
        return slots, clock, [cost]


def _encode(value):
    """Non-finite floats as the service encodes them (strict JSON)."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def _violation(v) -> dict:
    if v is None:
        return {"violation": None}
    return {"violation": {
        "kind": v.kind, "vertex": int(v.vertex),
        "drop": None if v.drop is None else int(v.drop), "add": v.add,
        "before": _encode(float(v.before)), "after": _encode(float(v.after)),
    }}


def _library_answer(kind: str, graph: CSRGraph, vertex: int) -> dict:
    """The direct library call a cold service answer must equal."""
    if kind == "is_equilibrium":
        return {"is_equilibrium": bool(is_equilibrium(graph, "sum", mode="repair"))}
    if kind == "find_swap_violation":
        return _violation(find_swap_violation(graph, "sum", mode="repair"))
    if kind == "criticality":
        return _violation(find_deletion_criticality_violation(graph, mode="repair"))
    r = best_swap(graph, vertex, "sum", mode="repair")
    swap = None if r.swap is None else [r.swap.vertex, r.swap.drop, r.swap.add]
    return {"swap": swap, "before": _encode(float(r.before)),
            "after": _encode(float(r.after)), "is_deletion": bool(r.is_deletion)}


class Service(Workload):
    """One loopback HTTP client against an in-process audit server."""

    KINDS = ("is_equilibrium", "find_swap_violation", "best_swap", "criticality")

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.visits = 0
        self.caches = 0
        self.cold: list = []  # (kind, graph, vertex, answer) for the check
        self.server = self.thread = self.conn = None
        self.saved = None
        # The warm-up visit has its own input, so it leaves the sequence of
        # timed visits alone.
        self.warm_input = self._graph(64)

    def _graph(self, n: int):
        graph = random_connected_gnm(n, 2 * n, int(self.rng.integers(2**31)))
        vertex = int(self.rng.integers(n))
        spec = {"n": n, "edges": [[int(a), int(b)] for a, b in graph.iter_edges()]}
        return graph, vertex, spec

    def _post(self, clock, body: bytes, etag=None):
        headers = {"Content-Type": "application/json"}
        if etag:
            headers["If-None-Match"] = f'"{etag}"'
        with tracer.scope("service.request"):
            start = clock.start()
            self.conn.request("POST", "/audit", body=body, headers=headers)
            resp = self.conn.getresponse()
            data = resp.read()
            cost = clock.add(start)
        return cost, resp.status, data

    def _visit(self, graph, vertex, spec):
        clock, cold = Clock(), []
        for kind in self.KINDS:
            query = {"query": kind, "graph": spec}
            if kind == "best_swap":
                query["vertex"] = vertex
            body = json.dumps(query).encode()
            c_cost, c_status, c_data = self._post(clock, body)
            c = json.loads(c_data) if c_status == 200 else {}
            _, w_status, w_data = self._post(clock, body)
            w = json.loads(w_data) if w_status == 200 else {}
            _, m_status, m_data = self._post(clock, body, c.get("etag"))
            cold.append(c_cost)
            self.attempted += 3
            self.failed += not (c_status == 200 and c.get("cached") is False)
            self.failed += not (
                w_status == 200 and w.get("cached") is True
                and w.get("result") == c.get("result")
                and w.get("etag") == c.get("etag")
            )
            self.failed += not (m_status == 304 and m_data == b"")
            self.cold.append((kind, graph, vertex, c.get("result")))
        return clock, cold

    def warmup(self) -> None:
        if self.server is None:
            self.caches += 1
            cache_dir = self.workdir / f"cache{self.caches}"
            self.server = build_server(cache_dir=str(cache_dir))
            self.thread = threading.Thread(target=self.server.serve_forever)
            self.thread.start()
            host, port = self.server.server_address
            self.conn = http.client.HTTPConnection(host, port, timeout=60)
        self._visit(*self.warm_input)

    def mark(self) -> None:
        self.saved = (self.rng.bit_generator.state, self.visits)

    def rewind(self) -> None:
        # Replayed queries must be cold again: a new server, an empty cache.
        self.rng.bit_generator.state, self.visits = self.saved
        self.close()
        self.server = self.thread = self.conn = None

    def op(self):
        n = (64, 128)[self.visits % 2]
        self.visits += 1
        clock, cold = self._visit(*self._graph(n))
        return 3 * len(self.KINDS), clock, cold

    def check(self) -> None:
        for kind, graph, vertex, answer in self.cold:
            if answer != _library_answer(kind, graph, vertex):
                self.failed += 1

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
        if self.server is not None:
            self.server.close()
            self.thread.join(timeout=30)


WORKLOADS = {
    "audit": Audit,
    "dynamics": Dynamics,
    "fleet": Fleet,
    "service": Service,
}


def make_workdir(base: Path) -> Path:
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=base))
