"""``serve_cluster``: tiny jobs through ``ClusterScheduler`` to local shards.

Two shard processes (one worker each, fresh result-cache directories)
serve jobs of all four tasks on named backends.  One client process runs
a closed loop of ``CALLERS`` callers, each waiting for its reply before
sending again.  A fixed share of the requests repeats an earlier request
("warm": a cache read on the owning shard); the rest are new ("cold":
execute, then a cache write).  The wire codec, per-request connections,
the shard queue and the result cache dominate; routing is bypassed.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import uuid
from typing import Any, Dict, List

import numpy as np

import layers
import reference as ref
from harness import (
    Op,
    PassLog,
    median,
    now,
    process_peak_rss_kb,
    set_operation,
)
from sim_mix import family_seed, pauli_for

SHARDS = 2
CALLERS = 1
WARM_REPEATS = 3  # per template and pass, beside one new (cold) request
SHOTS = 500
ATOL = 1e-7

# (task, backend, family): tiny jobs on named backends.  Every family is
# seeded, so a cold request (a new instance) never shares a cache key
# with an earlier one; tableau sampling (~0.4 ms a shot) stays in sim_mix.
TEMPLATES = [
    ("simulate", "arrays", "qv4"),
    ("simulate", "dd", "qft4"),
    ("simulate", "mps", "brick5"),
    ("simulate", "stab", "clifford5"),
    ("sample", "arrays", "dense5"),
    ("sample", "dd", "qft4"),
    ("expectation", "arrays", "dense5"),
    ("expectation", "tn", "brick5"),
    ("expectation", "mps", "qv4"),
    ("expectation", "stab", "clifford5"),
    ("single_amplitude", "arrays", "qft4"),
    ("single_amplitude", "tn", "dense5"),
    ("single_amplitude", "dd", "clifford5"),
]


def families(lib, rc, circuit_cls):
    def qft_of_product_state(s):
        """QFT of a seeded product state: a seeded input to a fixed circuit."""
        rng = np.random.default_rng(s)
        qc = circuit_cls(4, name="qft4")
        for q in range(4):
            qc.ry(float(rng.uniform(0, np.pi)), q)
        qc.compose(lib.qft(4))
        return qc

    return {
        "qv4": lambda s: lib.quantum_volume_circuit(4, 3, seed=s),
        "qft4": qft_of_product_state,
        "brick5": lambda s: rc.brickwork_circuit(5, 3, seed=s),
        "clifford5": lambda s: rc.random_clifford_circuit(5, 30, seed=s),
        "dense5": lambda s: rc.random_circuit(5, 6, seed=s),
    }


def set_affinity(pid: int, cpus) -> None:
    """Put every thread of process ``pid`` on ``cpus``.

    ``sched_setaffinity`` acts on one thread; threads a process starts
    later inherit the mask of the thread that starts them, but those it
    already runs (a shard's job-executor thread) keep their own.
    """
    try:
        tids = [int(t) for t in os.listdir(f"/proc/{pid}/task")]
    except OSError:
        tids = [pid]
    for tid in tids:
        try:
            os.sched_setaffinity(tid, cpus)
        except (ProcessLookupError, PermissionError):
            pass


@contextlib.contextmanager
def pinned(shards):
    """Client and shards, every thread of each, on one CPU for the block.

    With one request in flight the client and one shard take turns, so
    one CPU does all the work.  Left to the scheduler they shared a CPU
    in some runs and not in others, which moved every serving figure by
    10-20% between identical runs; on one CPU the calibration loop,
    which runs in the client, also times the CPU the shards run on.
    Pinning only each shard's main thread left its job-executor thread,
    which runs every cold request, free to run on the other CPU, so a
    neighbour's load there slowed cold requests by a quarter for minutes
    while the calibration loop read the same.  The client's own CPU set
    is restored afterwards.
    """
    cpus = sorted(os.sched_getaffinity(0))
    for shard in shards:
        set_affinity(shard.pid, {cpus[0]})
    set_affinity(os.getpid(), {cpus[0]})
    try:
        yield
    finally:
        set_affinity(os.getpid(), cpus)


class Request:
    """One job plus its reference answer."""

    def __init__(self, repro, template, circuit, seed: int) -> None:
        from repro.service import JobSpec

        task, backend, _ = template
        state = ref.statevector(circuit)
        args: Dict[str, Any] = {}
        if task == "sample":
            args = {"shots": SHOTS}
        elif task == "expectation":
            args = {"pauli": pauli_for(circuit.num_qubits, seed)}
        elif task == "single_amplitude":
            args = {"basis_index": int(np.argmax(np.abs(state) > 1e-6))}
        options = {"seed": seed} if task == "sample" else {}
        self.job = JobSpec(
            circuit=circuit,
            task=task,
            backend=backend,
            options=repro.core.SimOptions.from_kwargs(**options),
            task_args=args,
        )
        self.task, self.state, self.args = task, state, args
        self.first_value = None

    def fresh_job(self):
        """The same request under a new job id, as a client resubmits it."""
        job = self.job
        return type(job)(
            circuit=job.circuit, task=job.task, backend=job.backend,
            options=job.options, task_args=job.task_args,
            job_id=uuid.uuid4().hex,
        )

    def correct(self, value) -> bool:
        if self.task == "simulate":
            return ref.phase_distance(value.state, self.state) < ATOL
        answer = value[0]
        if self.task == "sample":
            return ref.samples_ok(answer, ref.probabilities(self.state), SHOTS)
        if self.task == "expectation":
            return abs(answer - ref.pauli_expectation(
                self.state, self.args["pauli"])) < ATOL
        return abs(answer - self.state[self.args["basis_index"]]) < ATOL

    def same_bits(self, value) -> bool:
        """Bitwise equality with the first (cold) result of this request."""
        first = self.first_value
        if self.task == "simulate":
            a, b = np.asarray(first.state), np.asarray(value.state)
            return a.dtype == b.dtype and a.tobytes() == b.tobytes()
        a, b = first[0], value[0]
        if self.task == "sample":
            return a == b
        return type(a) is type(b) and np.asarray(a).tobytes() == \
            np.asarray(b).tobytes()


class Workload:
    """``serve_cluster`` behind the interface ``run.py`` drives."""

    layers = "serve"

    def __init__(self, seed: int, repro, run_dir: str, small=False) -> None:
        self.seed, self.repro, self.run_dir = seed, repro, run_dir
        self.small = small
        self.shards: List[Any] = []
        self.scheduler = None
        self.loop = None
        self.pool: List[Request] = []
        self.positions: List[Op] = []
        self.passes_done = 0

    # -- lifecycle ----------------------------------------------------------

    def setup(self) -> None:
        try:
            self._setup()
        except BaseException:
            self.teardown()
            raise

    def _setup(self) -> None:
        from repro.service.remote import ClusterScheduler, ShardProcess

        lib, rc = self.repro.circuits.library, self.repro.circuits.random_circuits
        self.builders = families(lib, rc, self.repro.circuits.QuantumCircuit)
        self.pool = [
            self._request(template, f"pool{i}", 0)
            for i, template in enumerate(TEMPLATES)
        ]
        count = 1 if self.small else SHARDS
        tag = uuid.uuid4().hex[:8]
        for i in range(count):
            cache_dir = os.path.join(self.run_dir, f"shard-cache-{tag}-{i}")
            shard = ShardProcess(
                max_workers=1,
                env={"REPRO_CACHE": "1", "REPRO_CACHE_DIR": cache_dir},
            )
            self.shards.append(shard)
            shard.start()
            shard.cache_dir = cache_dir
        self.loop = asyncio.new_event_loop()
        self.scheduler = ClusterScheduler([s.address for s in self.shards])
        self.loop.run_until_complete(self.scheduler.start())
        # Every pool request runs once cold: its result is the one warm
        # repeats must reproduce bit for bit.
        for request in self.pool:
            outcome = self.loop.run_until_complete(
                self.scheduler.submit(request.fresh_job())
            )
            if outcome.status != "done" or not request.correct(outcome.value):
                raise RuntimeError(
                    f"warm-up request {request.job.task}/"
                    f"{request.job.backend} failed: {outcome.error}"
                )
            request.first_value = outcome.value
        # Each pass sends every template WARM_REPEATS times warm and once
        # cold, in a seeded order: the mix is fixed, the sequence is not.
        slots = [
            (index, warm)
            for index in range(len(TEMPLATES))
            for warm in [True] * WARM_REPEATS + [False]
        ]
        if self.small:
            slots = [(0, True), (0, False), (1, True), (1, False)]
        rng = np.random.default_rng(family_seed(self.seed, "positions", 0))
        order = rng.permutation(len(slots))
        self.positions = []
        for i, k in enumerate(order):
            index, warm = slots[int(k)]
            op = Op(f"pos{i}", "serve.request", None, None, None, warm=warm,
                    backend=TEMPLATES[index][1],
                    spec={"pool": index, "template": TEMPLATES[index]})
            self.positions.append(op)

    def _request(self, template, tag: str, index: int) -> Request:
        s = family_seed(self.seed, tag, index)
        circuit = self.builders[template[2]](s)
        return Request(self.repro, template, circuit, s)

    def teardown(self) -> None:
        if self.scheduler is not None:
            self.loop.run_until_complete(self.scheduler.stop())
            self.scheduler = None
        for shard in self.shards:
            shard.stop()
        self.shards = []
        if self.loop is not None:
            self.loop.close()
            self.loop = None

    # -- timed phase --------------------------------------------------------

    def timed(self, seconds: float, tracer) -> PassLog:
        with pinned(self.shards):
            return self._timed(seconds, tracer)

    def _timed(self, seconds: float, tracer) -> PassLog:
        log = PassLog(self.positions)
        start = now()
        while True:
            requests = []
            for i, op in enumerate(self.positions):
                if op.warm:
                    requests.append(self.pool[op.spec["pool"]])
                else:
                    requests.append(self._request(
                        op.spec["template"], f"cold{i}", self.passes_done
                    ))
            self.loop.run_until_complete(
                self._closed_loop(requests, log, tracer)
            )
            log.twoq_total += sum(
                r.job.circuit.two_qubit_gate_count() for r in requests
            )
            log.end_pass()
            self.passes_done += 1
            elapsed = now() - start
            if elapsed + elapsed / log.passes > seconds:
                break
        log.extra_rss_kb = sum(process_peak_rss_kb(s.pid) for s in self.shards)
        return log

    async def _closed_loop(self, requests, log, tracer) -> None:
        pending = list(zip(self.positions, requests))
        pending.reverse()

        async def caller() -> None:
            while pending:
                op, request = pending.pop()
                set_operation(f"{op.name}#{log.passes}")
                job = request.fresh_job()
                log.gauge.tick()
                with tracer.span("serve.request", op=op.name):
                    t0 = now()
                    try:
                        outcome = await self.scheduler.submit(job)
                    except Exception as exc:  # noqa: BLE001 - failure is data
                        log.record(op, now() - t0, False,
                                   f"{type(exc).__name__}: {exc}")
                        continue
                    elapsed = now() - t0
                ok = outcome.status == "done" and request.correct(outcome.value)
                if ok and op.warm:
                    ok = request.same_bits(outcome.value)
                log.record(op, elapsed, ok)
                log.responses.append((op, request, outcome))

        await asyncio.gather(*(caller() for _ in range(CALLERS)))

    # -- traced run -----------------------------------------------------------

    def hooks(self, tracer):
        from repro.service.remote import wire

        def wrap_async(name):
            def make(fn):
                async def traced(*args, **kwargs):
                    with tracer.span(name):
                        return await fn(*args, **kwargs)

                return traced

            return make

        return [
            (wire, "encode_frame", lambda fn: tracer.wrap("wire.encode", fn)),
            (wire, "decode_body", lambda fn: tracer.wrap("wire.decode", fn)),
            (asyncio, "open_connection", wrap_async("cluster.connect")),
        ]

    def layer_metrics(self, tracer, log):
        return serve_layer_metrics(self, log)


@contextlib.contextmanager
def local_cache(service_cache, directory: str):
    """This process's result cache on, in ``directory``, for the block."""
    saved = {k: os.environ.get(k) for k in ("REPRO_CACHE", "REPRO_CACHE_DIR")}
    os.environ["REPRO_CACHE"], os.environ["REPRO_CACHE_DIR"] = "1", directory
    service_cache.reset_default_cache()
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        service_cache.reset_default_cache()


def serve_layer_metrics(workload, log):
    """``(SERVE_LAYERS figures, notes)`` from the traced phase and probes."""
    from repro.service import ResultCache, SimulationService
    from repro.service import cache as service_cache
    from repro.service import engine
    from repro.service.remote import parse_address, routing_key, wire
    from repro.service.remote.shard import decode_job_result, encode_job_result

    loop = workload.loop
    responses = log.responses
    warm = [(op, req, out) for op, req, out in responses if op.warm]
    metrics: Dict[str, float] = {}
    metrics["cache.warm_hit_ratio"] = (
        sum(out.cache_hit for _, _, out in warm) / len(warm) if warm else 0.0
    )
    ring = workload.scheduler.ring()
    owned = 0
    for _, req, out in warm:
        meta = engine.result_metadata(out.value)
        cluster = meta.get("cluster", {}) if isinstance(meta, dict) else {}
        owner = ring.route(routing_key(req.job))
        owned += bool(out.cache_hit) and cluster.get("shard") == owner
    metrics["cluster.affinity_ratio"] = owned / len(warm) if warm else 0.0

    # Wire codec: request frame and result value, out and back.
    codec = []
    for _, req, out in responses[: 4 * len(workload.positions)]:
        start = now()
        frame = wire.make_frame(
            wire.REQUEST, id=1, op="submit", job=req.job.to_dict(), stream=False
        )
        wire.decode_frame(wire.encode_frame(frame))
        reply = wire.make_frame(
            wire.RESPONSE, id=1, ok=True, result=encode_job_result(out)
        )
        decode_job_result(wire.decode_frame(wire.encode_frame(reply))["result"])
        codec.append(now() - start)
    metrics["wire.codec_ms"] = median(codec) * 1e3

    # One bare connection open and close to a shard.
    _, target = parse_address(workload.shards[0].address)

    async def connect_once():
        start = now()
        _, writer = await asyncio.open_connection(*target)
        writer.close()
        await writer.wait_closed()
        return now() - start

    connects = [loop.run_until_complete(connect_once()) for _ in range(20)]
    metrics["cluster.connect_ms"] = median(connects) * 1e3

    # The same requests replayed in-process through SimulationService,
    # with a result cache of its own, and straight through the facade.
    requests = [req for _, req, _ in responses[: len(workload.positions)]]
    key_calls = []

    def counting(fn):
        def count(*args, **kwargs):
            key_calls.append(1)
            return fn(*args, **kwargs)

        return count

    async def replay():
        async with SimulationService(max_workers=1) as service:
            seen = set()
            for req in requests:
                fresh = id(req) not in seen
                seen.add(id(req))
                start = now()
                await service.result(await service.submit(job=req.fresh_job()))
                (cold_s if fresh else warm_s).append(now() - start)
                if fresh:
                    start = now()
                    await service.result(
                        await service.submit(job=req.fresh_job())
                    )
                    warm_s.append(now() - start)

    cold_s, warm_s, facade_s = [], [], []
    probe_dir = os.path.join(workload.run_dir, f"probe-cache-{uuid.uuid4().hex}")
    with local_cache(service_cache, probe_dir), layers.patched(
        [(service_cache, "request_key", counting)]
    ):
        loop.run_until_complete(replay())
    metrics["cache.keys_per_request"] = len(key_calls) / (
        len(cold_s) + len(warm_s)
    )
    for req in {id(r): r for r in requests}.values():
        job = req.fresh_job()
        start = now()
        engine.execute_job(job)
        facade_s.append(now() - start)
    metrics["service.cold_ms"] = median(cold_s) * 1e3
    metrics["service.warm_ms"] = median(warm_s) * 1e3
    metrics["service.overhead_ms"] = (median(cold_s) - median(facade_s)) * 1e3
    cluster_warm = [
        t for op in log.ops if op.warm for t in log.raw_times[op.name]
    ]
    metrics["cluster.overhead_ms"] = (median(cluster_warm) - median(warm_s)) * 1e3

    keys = []
    for req in requests:
        start = now()
        routing_key(req.job)
        keys.append(now() - start)
    metrics["cache.key_ms"] = median(keys) * 1e3

    # Cache store and lookup at the size the busiest shard's cache reached.
    directory = max(
        (s.cache_dir for s in workload.shards),
        key=lambda d: len(os.listdir(d)) if os.path.isdir(d) else 0,
    )
    writer = ResultCache(directory=directory, memory_entries=0)
    puts, gets, probe_keys = [], [], []
    for i in range(20):
        key = f"designbench-probe-{uuid.uuid4().hex}"
        start = now()
        writer.put(key, np.zeros(16), {"probe": i}, "arrays")
        puts.append(now() - start)
        probe_keys.append(key)
    reader = ResultCache(directory=directory, memory_entries=0)
    for key in probe_keys:
        start = now()
        reader.get(key)
        gets.append(now() - start)
    metrics["cache.put_ms"] = median(puts) * 1e3
    metrics["cache.get_ms"] = median(gets) * 1e3
    entries = len([n for n in os.listdir(directory) if not n.endswith(".tmp")])
    return metrics, {"cache entries (busiest shard)": entries}
