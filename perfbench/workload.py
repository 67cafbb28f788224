"""One benchmark workload, run in a fresh process by ``run.py``.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR [--setup-only]

The program is imported from ``src/`` (``run.py`` sets PYTHONPATH).  It
is driven only through ``load_benchmark``, ``TAXISolver``, ``run_batch``
and ``SolveService``; the traced run of ``solve-33810`` additionally
calls the solver's steps one at a time.  Inputs derive from ``--seed``.

A run does set-up (imports, instance generation, service and pool
start), then whole rounds of the workload's operation until
``--seconds`` have passed (at least one round), then checks every
output with the independent checker and the property checks.  It prints
one JSON line: the time set-up finished, operations attempted and
failed, whether every check passed, and the metrics of its mode.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import sys
import threading
import time
import zlib

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import procs  # noqa: E402
from spans import Recorder, installed  # noqa: E402

PER_LAYER = (
    "tsp.load_s", "clustering.hierarchy_s", "clustering.subproblems",
    "core.fixing_s", "core.ising_s", "core.merge_s",
    "macro.iterations", "macro.iterations_per_s",
    "engine.pool_map_s", "engine.pool_tasks", "engine.batch_s",
    "engine.replica_s", "engine.replica_setup_s", "engine.lockstep",
    "engine.worker_peak_rss_mb",
    "service.submit_s", "service.fingerprint_s",
    "service.cold_latency_p50_s", "service.warm_latency_p50_s",
    "service.wait_s", "service.cache_hits", "service.cache_misses",
    "service.batches", "service.mean_batch_size",
)


def derive_seed(seed: int, *keys) -> int:
    """A 31-bit seed that depends only on ``seed`` and ``keys``."""
    words = [seed] + [zlib.crc32(str(key).encode()) for key in keys]
    return int(np.random.SeedSequence(words).generate_state(1)[0] >> 1)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Context:
    def __init__(self, args) -> None:
        self.seed = args.seed
        self.trace = bool(args.trace)
        self.rec = Recorder(self.trace)
        self.layer = dict.fromkeys(PER_LAYER, 0.0)
        self.errors: list[str] = []

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.errors.append(message)


def _phase_layers(ctx: Context, solves) -> None:
    """Per-layer figures from the program's own PhaseTimes and LevelStats."""
    for times, level_stats in solves:
        ctx.layer["clustering.hierarchy_s"] += times.clustering
        ctx.layer["core.fixing_s"] += times.fixing
        ctx.layer["core.ising_s"] += times.ising
        ctx.layer["core.merge_s"] += times.merge
        for stats in level_stats:
            ctx.layer["clustering.subproblems"] += stats.n_subproblems
            ctx.layer["macro.iterations"] += stats.total_iterations
    if ctx.layer["core.ising_s"] > 0:
        ctx.layer["macro.iterations_per_s"] = (
            ctx.layer["macro.iterations"] / ctx.layer["core.ising_s"])


def _check_tour(ctx, checker, instance, order, length, bound, what) -> float:
    try:
        return checker.check_tour(instance.coords, instance.metric.value, order,
                                  length, bound)
    except checker.TourError as exc:
        ctx.errors.append(f"{what}: {exc}")
        return float(length)


class Workload:
    """Set-up, one round's operation, teardown, checks and layer figures."""

    #: Program modules loaded during set-up, so that no timed round pays
    #: for an import (forked pool workers inherit them too).
    MODULES: tuple[str, ...] = ()

    def setup(self, ctx: Context) -> None:
        raise NotImplementedError

    def prepare(self, ctx: Context, round_index: int) -> None:
        """Untimed input preparation before a round."""

    def operation(self, ctx: Context, round_index: int) -> int:
        """Run one round; return the operations attempted."""
        raise NotImplementedError

    def teardown(self, ctx: Context) -> None:
        pass

    def failed(self) -> int:
        return 0

    def latencies(self) -> list[float] | None:
        """Per-request latencies, where a round holds many requests."""
        return None

    def verify(self, ctx: Context, checker) -> float:
        """Check every output; return the tour ratio."""
        raise NotImplementedError

    def layers(self, ctx: Context) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# solve-33810: one TAXI solve of the paper's headline size
# ----------------------------------------------------------------------

class Solve33810(Workload):
    MODULES = ("repro.core.solver", "repro.tsp.benchmarks")
    SWEEPS = 30
    WORKERS = 2

    def setup(self, ctx: Context) -> None:
        from repro.tsp.benchmarks import load_benchmark

        with ctx.rec.span("tsp.load"):
            self.instance = load_benchmark("syn33810")
        self.outputs = []  # (config, order, reported length, times, stats)

    def config(self, ctx: Context, round_index: int):
        from repro.core.config import TAXIConfig

        return TAXIConfig(seed=derive_seed(ctx.seed, "solve-33810", round_index),
                          sweeps=self.SWEEPS, workers=self.WORKERS)

    def operation(self, ctx: Context, round_index: int) -> int:
        from repro.core.solver import TAXISolver

        config = self.config(ctx, round_index)
        if ctx.trace:
            self.outputs.append((config, *self.stepwise(ctx, config)))
        else:
            result = TAXISolver(config).solve(self.instance)
            self.outputs.append((config, result.tour.order, result.tour.length,
                                 result.phase_seconds, result.level_stats))
        return 1

    def stepwise(self, ctx: Context, config):
        """``TAXISolver.solve`` one step at a time, each step spanned."""
        from repro.clustering.agglomerative import cluster_with_max_size
        from repro.clustering.hierarchy import build_hierarchy
        from repro.core.pipeline import solve_hierarchical
        from repro.macro.batch import BatchedMacroSolver
        from repro.tsp.tour import Tour
        from repro.utils.rng import ensure_rng

        if config.clustering != "ward":
            raise RuntimeError("the traced steps follow the ward path")
        rng = ensure_rng(config.seed)
        int(rng.integers(0, 2**31 - 1))  # the solver's cluster-seed draw
        with ctx.rec.span("clustering.build_hierarchy") as span:
            hierarchy = build_hierarchy(self.instance, config.max_cluster_size,
                                        cluster_with_max_size)
        macro = BatchedMacroSolver(config.macro_config(), seed=rng,
                                   backend=config.backend)
        with ctx.rec.span("core.solve_hierarchical"):
            order, times, stats = solve_hierarchical(
                hierarchy, macro, config.schedule(),
                endpoint_fixing=config.endpoint_fixing,
                workers=config.workers, chunk_size=config.chunk_size)
        times.clustering = span["end"] - span["start"]
        length = Tour(self.instance, order, closed=True).length
        return order, length, times, stats

    def verify(self, ctx: Context, checker) -> float:
        from repro.core.solver import TAXISolver

        bound = checker.mst_lower_bound(self.instance.coords,
                                        self.instance.metric.value)
        total = 0.0
        for config, order, length, _, _ in self.outputs:
            total += _check_tour(ctx, checker, self.instance, order, length,
                                 bound, "solve-33810")
            if ctx.trace:
                public = TAXISolver(config).solve(self.instance)
                ctx.check(_tour_digest(order) == _tour_digest(public.tour.order),
                          "traced step-by-step tour differs from TAXISolver.solve")
        return total / (bound * len(self.outputs))

    def layers(self, ctx: Context) -> None:
        _phase_layers(ctx, [(times, stats)
                            for _, _, _, times, stats in self.outputs])


# ----------------------------------------------------------------------
# batch-replicas: multi-start batch through the engine
# ----------------------------------------------------------------------

class BatchReplicas(Workload):
    MODULES = ("repro.core.solver", "repro.engine.replica_batch",
               "repro.engine.runner", "repro.tsp.benchmarks")
    INSTANCES = ("syn442", "syn575", "syn783")
    REPLICAS = 8
    SWEEPS = 134
    WORKERS = 2

    def setup(self, ctx: Context) -> None:
        from repro.tsp.benchmarks import load_benchmark

        with ctx.rec.span("tsp.load"):
            self.instances = [load_benchmark(name) for name in self.INSTANCES]
        self.outputs = []

    def job(self, ctx: Context, round_index: int):
        from repro.core.config import EngineConfig
        from repro.engine.jobs import BatchJob

        engine = EngineConfig(replicas=self.REPLICAS, workers=self.WORKERS,
                              seed=derive_seed(ctx.seed, "batch", round_index))
        return BatchJob.create(list(self.INSTANCES), solver="taxi",
                               params={"sweeps": self.SWEEPS}, engine=engine)

    def operation(self, ctx: Context, round_index: int) -> int:
        from repro.engine.runner import run_batch

        job = self.job(ctx, round_index)
        with ctx.rec.span("engine.run_batch"):
            results = run_batch(job)
        self.outputs.append((job, results))
        return sum(len(result.replicas) for result in results)

    def verify(self, ctx: Context, checker) -> float:
        from repro.core.config import TAXIConfig
        from repro.core.solver import TAXISolver
        from repro.utils.rng import replica_seeds

        bounds = [checker.mst_lower_bound(inst.coords, inst.metric.value)
                  for inst in self.instances]
        best = bound_sum = 0.0
        self.resolved = []
        for round_index, (job, results) in enumerate(self.outputs):
            for inst, bound, result in zip(self.instances, bounds, results):
                ctx.check(result.instance_name == inst.name
                          and len(result.replicas) == self.REPLICAS,
                          f"batch result for {inst.name} is incomplete")
                lengths = [
                    _check_tour(ctx, checker, inst, rep.order, rep.length, bound,
                                f"{inst.name} replica {rep.index}")
                    for rep in result.replicas
                ]
                best += min(lengths)
                bound_sum += bound
            # A sampled replica k must be exactly the solo solve with the
            # k-th replica seed, whether or not lock-step ran.
            rng = np.random.default_rng(derive_seed(ctx.seed, "batch-sample",
                                                    round_index))
            i, k = int(rng.integers(len(results))), int(rng.integers(self.REPLICAS))
            seed = replica_seeds(job.engine.seed, self.REPLICAS)[k]
            solo = TAXISolver(TAXIConfig(seed=seed, sweeps=self.SWEEPS)
                              ).solve(self.instances[i])
            self.resolved.append((solo.phase_seconds, solo.level_stats))
            replica = results[i].replicas[k]
            ctx.check(replica.index == k and replica.seed == seed
                      and np.array_equal(replica.order, solo.tour.order),
                      f"{self.INSTANCES[i]} replica {k} differs from its solo solve")
        return best / bound_sum

    def layers(self, ctx: Context) -> None:
        from repro.engine.replica_batch import lockstep_engaged

        # Replicas run in pool workers and return no PhaseTimes; the
        # phase split comes from the sampled replica's in-process re-solve.
        _phase_layers(ctx, self.resolved)
        ctx.layer["engine.batch_s"] = ctx.rec.total("engine.run_batch")
        replicas = [rep for _, results in self.outputs for result in results
                    for rep in result.replicas]
        ctx.layer["engine.replica_s"] = sum(rep.seconds for rep in replicas)
        ctx.layer["engine.replica_setup_s"] = sum(
            rep.setup_seconds for rep in replicas)
        job = self.outputs[0][0]
        ctx.layer["engine.lockstep"] = float(
            lockstep_engaged(job, job.engine.replica_batch))


# ----------------------------------------------------------------------
# serve-closed: closed-loop clients against an in-process SolveService
# ----------------------------------------------------------------------

class ServeClosed(Workload):
    MODULES = ("repro.core.solver", "repro.service.queue")
    CLIENTS = 2
    PER_CLIENT = 125
    REPEATS_PER_CLIENT = 38
    SIZES = (60, 200)
    SWEEPS = 30
    WORKERS = 2
    WAIT_TIMEOUT = 120.0

    def setup(self, ctx: Context) -> None:
        from repro.core.config import ServiceConfig
        from repro.service.queue import SolveService

        self.rounds = [self.schedule(ctx, 0)]
        self.service = SolveService(ServiceConfig(workers=self.WORKERS)).start()
        self.responses: dict[tuple[int, int, int], dict] = {}

    def schedule(self, ctx: Context, round_index: int) -> dict:
        """Requests of one round: colds on fresh instances, then repeats.

        Instance sizes are a fixed spread over ``SIZES`` and the families
        alternate, so the total work hardly depends on the seed; the seed
        picks coordinates, order, solver seeds and which colds repeat.
        """
        from repro.service.queue import SolveRequest
        from repro.tsp.instance import EdgeWeightType, TSPInstance

        rng = np.random.default_rng(derive_seed(ctx.seed, "serve", round_index))
        colds_per_client = self.PER_CLIENT - self.REPEATS_PER_CLIENT
        count = self.CLIENTS * colds_per_client
        sizes = rng.permutation(np.linspace(*self.SIZES, count).round().astype(int))
        instances, requests = [], []
        with ctx.rec.span("tsp.load"):
            for index, n in enumerate(sizes):
                if index % 2:
                    centres = rng.uniform(100, 900, (int(rng.integers(3, 7)), 2))
                    coords = (centres[rng.integers(len(centres), size=n)]
                              + rng.normal(0, 40, (n, 2)))
                else:
                    coords = rng.uniform(0, 1000, (n, 2))
                instances.append(TSPInstance(f"serve-{round_index}-{index}",
                                             coords, EdgeWeightType.EUC_2D))
        for instance in instances:
            requests.append(SolveRequest.create(
                instance, solver="taxi", params={"sweeps": self.SWEEPS},
                seed=int(rng.integers(0, 2**31 - 1))))
        # Each client's stream opens with a cold request; a repeat names an
        # earlier cold of the same client, so in a closed loop it is sent
        # only after that cold has completed.
        streams = []
        for client in range(self.CLIENTS):
            colds = list(range(client * colds_per_client,
                               (client + 1) * colds_per_client))
            repeat_at = set(1 + rng.choice(self.PER_CLIENT - 1,
                                           self.REPEATS_PER_CLIENT, replace=False))
            stream, issued = [], []
            for position in range(self.PER_CLIENT):
                if position in repeat_at:
                    stream.append(("warm", issued[int(rng.integers(len(issued)))]))
                else:
                    issued.append(colds.pop(0))
                    stream.append(("cold", issued[-1]))
            streams.append(stream)
        return {"instances": instances, "requests": requests, "streams": streams}

    def prepare(self, ctx: Context, round_index: int) -> None:
        if round_index >= len(self.rounds):
            self.rounds.append(self.schedule(ctx, round_index))

    def operation(self, ctx: Context, round_index: int) -> int:
        plan = self.rounds[round_index]

        def client(number: int) -> None:
            for position, (kind, index) in enumerate(plan["streams"][number]):
                ctx.rec.request_id = (round_index, number, position)
                started = time.perf_counter()
                try:
                    with ctx.rec.span("service.submit"):
                        job = self.service.submit(plan["requests"][index])
                    job = self.service.wait(job.id, timeout=self.WAIT_TIMEOUT)
                except Exception as exc:  # counted in failed(), not fatal
                    print(f"request failed: {type(exc).__name__}: {exc}",
                          file=sys.stderr)
                    continue
                self.responses[(round_index, number, position)] = {
                    "kind": kind, "index": index, "started": started,
                    "latency": time.perf_counter() - started,
                    "status": job.status, "cached": job.cached,
                    "result": job.result, "error": job.error,
                }

        threads = [threading.Thread(target=client, args=(number,))
                   for number in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return self.CLIENTS * self.PER_CLIENT

    def failed(self) -> int:
        total = len(self.rounds) * self.CLIENTS * self.PER_CLIENT
        done = sum(1 for r in self.responses.values() if r["status"] == "done")
        return total - done

    def teardown(self, ctx: Context) -> None:
        self.stats = self.service.stats()
        self.service.stop()

    def latencies(self, kind: str | None = None) -> list[float]:
        """Per-request latencies, of one kind ("cold"/"warm") or all."""
        return [r["latency"] for r in self.responses.values()
                if kind is None or r["kind"] == kind]

    def verify(self, ctx: Context, checker) -> float:
        from repro.core.config import TAXIConfig
        from repro.core.solver import TAXISolver

        length_sum = bound_sum = 0.0
        cold_hash: dict[tuple[int, int], str] = {}
        done = [(key, r) for key, r in sorted(self.responses.items())
                if r["status"] == "done"]
        for (round_index, _, _), response in done:
            if response["kind"] == "cold":
                plan = self.rounds[round_index]
                instance = plan["instances"][response["index"]]
                bound = checker.mst_lower_bound(instance.coords, "EUC_2D")
                result = response["result"]
                length_sum += _check_tour(ctx, checker, instance, result["tour"],
                                          result["length"], bound, instance.name)
                bound_sum += bound
                cold_hash[(round_index, response["index"])] = _tour_digest(
                    result["tour"])
                ctx.check(not response["cached"],
                          f"cold request {instance.name} was served cached")
        for (round_index, _, _), response in done:
            if response["kind"] == "warm":
                ctx.check(
                    response["cached"] and _tour_digest(response["result"]["tour"])
                    == cold_hash.get((round_index, response["index"])),
                    f"repeat of request {response['index']} differs from its cold")
        # A sample of cold responses must equal an in-process solve.
        rng = np.random.default_rng(derive_seed(ctx.seed, "serve-sample"))
        colds = [(key[0], r) for key, r in done if r["kind"] == "cold"]
        for pick in rng.choice(len(colds), min(4, len(colds)), replace=False):
            round_index, response = colds[int(pick)]
            plan = self.rounds[round_index]
            request = plan["requests"][response["index"]]
            instance = plan["instances"][response["index"]]
            solo = TAXISolver(TAXIConfig(seed=request.seed, sweeps=self.SWEEPS)
                              ).solve(instance)
            ctx.check(list(solo.tour.order) == response["result"]["tour"],
                      f"{instance.name} differs from its in-process solve")
        # Cache ledger: every cold misses and every repeat hits, exactly.
        expected_hits = len(self.rounds) * self.CLIENTS * self.REPEATS_PER_CLIENT
        expected_misses = len(self.rounds) * self.CLIENTS * (
            self.PER_CLIENT - self.REPEATS_PER_CLIENT)
        cache = self.stats["cache"]
        ctx.check(cache["hits"] == expected_hits
                  and cache["misses"] == expected_misses,
                  f"cache ledger {cache['hits']} hits/{cache['misses']} misses, "
                  f"schedule implies {expected_hits}/{expected_misses}")
        return length_sum / bound_sum

    def layers(self, ctx: Context) -> None:
        submits = [s["end"] - s["start"] for s in ctx.rec.named("service.submit")]
        prints = [s["end"] - s["start"]
                  for s in ctx.rec.named("service.fingerprint")]
        ctx.layer["service.submit_s"] = percentile(submits, 50)
        ctx.layer["service.fingerprint_s"] = percentile(prints, 50)
        ctx.layer["service.cold_latency_p50_s"] = percentile(
            self.latencies("cold"), 50)
        ctx.layer["service.warm_latency_p50_s"] = percentile(
            self.latencies("warm"), 50)
        # Wait: submit to the start of the pool call that carried the
        # request, matched by (instance name, solver seed).
        dispatched = {}
        for span in ctx.rec.named("engine.pool_map"):
            for label, seed in span["attrs"]["keys"]:
                dispatched.setdefault((label, seed), span["start"])
        waits = []
        for (round_index, _, _), response in self.responses.items():
            if response["kind"] == "cold":
                request = self.rounds[round_index]["requests"][response["index"]]
                start = dispatched.get((request.spec.label, request.seed))
                if start is not None:
                    waits.append(start - response["started"])
        ctx.check(len(waits) == len(self.latencies("cold")),
                  "some cold requests matched no pool call")
        ctx.layer["service.wait_s"] = percentile(waits, 95) if waits else 0.0
        requests = self.stats["requests"]
        ctx.layer["service.cache_hits"] = self.stats["cache"]["hits"]
        ctx.layer["service.cache_misses"] = self.stats["cache"]["misses"]
        ctx.layer["service.batches"] = requests["batches"]
        ctx.layer["service.mean_batch_size"] = (
            requests["batched_requests"] / requests["windows"]
            if requests["windows"] else 0.0)


def _tour_digest(order) -> str:
    import hashlib

    return hashlib.sha256(np.asarray(order, dtype=np.int64).tobytes()).hexdigest()


WORKLOADS = {
    "solve-33810": Solve33810,
    "batch-replicas": BatchReplicas,
    "serve-closed": ServeClosed,
}


def _stop_resource_tracker() -> None:
    """Stop and reap the tracker that shared memory starts, if it runs.

    It outlives ``SolveService.stop()``; nothing else ends it before
    interpreter exit.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    procs.become_subreaper()
    ctx = Context(args)
    workload = WORKLOADS[args.workload]()
    for name in workload.MODULES:
        importlib.import_module(name)
    workload.setup(ctx)
    report: dict = {"ready": time.monotonic()}
    if args.setup_only:
        workload.teardown(ctx)
    else:
        report.update(measure(ctx, workload, args))
    _stop_resource_tracker()
    leaked = procs.kill_and_reap(os.getpid(), set(), grace=5.0)
    if leaked:
        report["leaked"] = [entry["pid"] for entry in leaked]
    print(json.dumps(report))
    return 0


def measure(ctx: Context, workload, args) -> dict:
    """Whole rounds until ``--seconds`` pass, then checks and metrics."""
    walls, cpus = [], []
    attempted = round_index = 0
    started = time.perf_counter()
    while round_index == 0 or time.perf_counter() - started < args.seconds:
        workload.prepare(ctx, round_index)
        cpu_before = procs.tree_cpu_seconds()
        begin = time.perf_counter()
        with installed(ctx.rec) if ctx.trace else contextlib.nullcontext():
            attempted += workload.operation(ctx, round_index)
        walls.append(time.perf_counter() - begin)
        cpus.append(procs.tree_cpu_seconds() - cpu_before)
        round_index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.teardown(ctx)
    # Pools are closed and reaped by now, so the children's peak is final.
    worker_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    import checker

    tour_ratio = workload.verify(ctx, checker)
    latencies = workload.latencies() or walls
    report = {"attempted": attempted, "failed": workload.failed(),
              "correct": not ctx.errors, "errors": ctx.errors[:20],
              "samples": len(latencies)}
    if ctx.trace:
        workload.layers(ctx)
        pool_maps = ctx.rec.named("engine.pool_map")
        ctx.layer.update({
            "tsp.load_s": ctx.rec.total("tsp.load"),
            "engine.pool_map_s": ctx.rec.total("engine.pool_map"),
            "engine.pool_tasks": sum(span["attrs"]["tasks"] for span in pool_maps),
            "engine.worker_peak_rss_mb": worker_rss_mb,
        })
        ctx.rec.write(
            os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "wall_s": walls,
             "cpu_s": cpus, "layers": ctx.layer})
        values = ctx.layer
    else:
        values = {
            "wall_s": float(np.median(walls)),
            "cpu_s": float(np.median(cpus)),
            "latency_p50_s": percentile(latencies, 50),
            "latency_p95_s": percentile(latencies, 95),
            "tour_ratio": tour_ratio,
            "peak_rss_mb": peak_rss_mb,
        }
    report["metrics"] = {name: {"value": float(value), "unit": UNITS[name]}
                         for name, value in values.items()}
    return report


UNITS = {
    "wall_s": "s", "cpu_s": "s", "latency_p50_s": "s", "latency_p95_s": "s",
    "tour_ratio": "ratio", "peak_rss_mb": "MB",
    "clustering.subproblems": "count", "macro.iterations": "count",
    "macro.iterations_per_s": "1/s", "engine.pool_tasks": "count",
    "engine.lockstep": "count", "engine.worker_peak_rss_mb": "MB",
    "service.cache_hits": "count", "service.cache_misses": "count",
    "service.batches": "count", "service.mean_batch_size": "count",
}
UNITS.update({name: "s" for name in PER_LAYER if name not in UNITS})


if __name__ == "__main__":
    sys.exit(main())
