"""Measure again the reference figures quoted in ``designbench/README.md``.

Usage (from the repository root)::

    python3 designbench/figures.py [auto_sampling|trajectories|compile_size|
                                    verify_auto|cache_put|serving|faults]

With no argument every figure is measured in turn.  Each figure is a
median of a few wall-clock calls on the machine it runs on, not scaled to
reference speed, so expect the machine's own spread around it.  Cache
files and shard sockets live in a scratch directory under
``.designbench_run/`` that is removed afterwards.
"""

import os
import shutil
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def timed(fn, repeats=3):
    """``(median seconds, last result)`` of ``repeats`` calls."""
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def auto_sampling(repro):
    core, lib = repro.core, repro.circuits.library
    rc = repro.circuits.random_circuits
    cases = [
        ("ghz_state(16), 1000 shots", lib.ghz_state(16), 1000),
        ("random Clifford 12q x 120, 1000 shots",
         rc.random_clifford_circuit(12, 120, seed=7), 1000),
        ("brickwork 12q x 3, 1000 shots", rc.brickwork_circuit(12, 3, seed=5),
         1000),
    ]
    for label, circuit, shots in cases:
        auto, (_, meta) = timed(lambda: core.sample(
            circuit, shots, backend="auto", seed=1, with_metadata=True), 1)
        dense, _ = timed(lambda: core.sample(
            circuit, shots, backend="arrays", seed=1))
        print(f"{label}: auto -> {meta['auto']['selected']} "
              f"{auto * 1e3:.1f} ms, arrays {dense * 1e3:.1f} ms")


def trajectories(repro):
    from repro.arrays import NoiseModel, TrajectorySimulator
    from repro.dd.noise_sim import NoisyDDSimulator

    circuit = repro.circuits.random_circuits.random_circuit(5, 8, seed=3)
    model = NoiseModel.uniform_depolarizing(0.01, 0.03)
    count = 200
    print(f"{count} trajectories of a 5-qubit, {len(circuit)}-gate circuit:")
    serial, _ = timed(lambda: TrajectorySimulator(model, seed=1).run(
        circuit, count), 1)
    engine, _ = timed(lambda: TrajectorySimulator(model, seed=1).run(
        circuit, count, n_jobs=1))
    dd, _ = timed(lambda: NoisyDDSimulator(model, seed=1).run(
        circuit, count), 1)
    print(f"  arrays default (serial loop) {serial:.3f} s, arrays n_jobs=1 "
          f"{engine:.3f} s, NoisyDDSimulator default {dd:.3f} s")


def compile_size(repro):
    from repro.compile import compile_circuit, coupling

    lib = repro.circuits.library
    for label, circuit in (("cuccaro_adder(2)", lib.cuccaro_adder(2)),
                           ("qft(6)", lib.qft(6))):
        counts = []
        for level in (1, 2, 3):
            result = compile_circuit(
                circuit, coupling=coupling.line(circuit.num_qubits),
                optimization_level=level, seed=0,
            )
            counts.append(result.stats["output_two_qubit"])
        print(f"{label} routed on a line: two-qubit gates at levels 1/2/3 = "
              + "/".join(map(str, counts)))


def verify_auto(repro):
    from repro.compile import compile_circuit
    from repro.verify import check_equivalence

    adder = repro.circuits.library.cuccaro_adder(2)
    compiled = compile_circuit(adder, optimization_level=3, seed=0).circuit
    for method in ("auto", "arrays"):
        took, verdict = timed(
            lambda: check_equivalence(adder, compiled, method=method), 1
        )
        print(f"check_equivalence(method={method!r}) on the level-3 "
              f"compiled adder pair: {took * 1e3:.1f} ms -> {verdict}")


def cache_put(repro, scratch):
    import numpy as np

    from repro.service import ResultCache

    cache = ResultCache(directory=os.path.join(scratch, "cache"))
    value = np.zeros(16)
    marks = {100, 1000, 3000}
    for i in range(1, max(marks) + 1):
        start = time.perf_counter()
        cache.put(f"entry-{i}", value, {"i": i}, "arrays")
        took = time.perf_counter() - start
        if i in marks:
            print(f"ResultCache.put at {i} entries: {took * 1e3:.2f} ms")


def serving(repro, scratch):
    import asyncio

    from repro.service import JobSpec, SimulationService
    from repro.service import cache as service_cache
    from repro.service.remote import ClusterScheduler, ShardProcess

    circuit = repro.circuits.random_circuits.random_circuit(5, 6, seed=3)

    def job():
        return JobSpec(circuit=circuit, task="simulate", backend="arrays")

    shard = ShardProcess(max_workers=1, env={
        "REPRO_CACHE": "1", "REPRO_CACHE_DIR": os.path.join(scratch, "shard"),
    }).start()
    os.environ["REPRO_CACHE"] = "1"
    os.environ["REPRO_CACHE_DIR"] = os.path.join(scratch, "local")
    service_cache.reset_default_cache()

    async def measure():
        cluster, local = [], []
        scheduler = await ClusterScheduler([shard.address]).start()
        try:
            await scheduler.submit(job())
            for _ in range(200):
                start = time.perf_counter()
                await scheduler.submit(job())
                cluster.append(time.perf_counter() - start)
        finally:
            await scheduler.stop()
        async with SimulationService(max_workers=1) as service:
            await service.result(await service.submit(job=job()))
            for _ in range(200):
                start = time.perf_counter()
                await service.result(await service.submit(job=job()))
                local.append(time.perf_counter() - start)
        return statistics.median(cluster), statistics.median(local)

    try:
        cluster, local = asyncio.run(measure())
    finally:
        shard.stop()
    print(f"warm request, one in flight: cluster {cluster * 1e3:.2f} ms, "
          f"in-process SimulationService {local * 1e3:.2f} ms")


def faults(repro):
    import numpy as np

    import reference as ref

    lib, rc = repro.circuits.library, repro.circuits.random_circuits
    core = repro.core
    circuit = lib.quantum_volume_circuit(6, 6, seed=11)
    exact = ref.probabilities(ref.statevector(circuit))
    for backend in ("mps", "arrays"):
        counts = core.sample(circuit, 40000, backend=backend, seed=17)
        empirical = np.zeros(len(exact))
        for key, count in counts.items():
            empirical[int(key, 2)] += count / 40000
        tv = 0.5 * np.abs(empirical - exact).sum()
        print(f"(a) qv(6,6) seed 11, 40000 shots on {backend}: "
              f"TV distance {tv:.3f}")
    circuit = rc.random_clifford_circuit(12, 120, seed=7)
    state = ref.statevector(circuit)
    index = int(np.argmax(np.abs(state) > 1e-6))
    got = core.single_amplitude(circuit, index, backend="stab")
    print(f"(b) random Clifford 12q x 120 seed 7, <{index}|U|0>: stab "
          f"{got:.4f}, exact {state[index]:.4f}")


FIGURES = ("auto_sampling", "trajectories", "compile_size", "verify_auto",
           "cache_put", "serving", "faults")


def main(argv) -> int:
    names = argv or list(FIGURES)
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        print(f"unknown figure(s) {unknown}; choose from {FIGURES}")
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    scratch = os.path.join(ROOT, ".designbench_run", f"figures-{os.getpid()}")
    os.makedirs(scratch)
    os.environ["REPRO_AUTOTUNE_CACHE"] = os.path.join(scratch, "autotune.json")
    import repro

    try:
        for name in names:
            fn = globals()[name]
            if name in ("cache_put", "serving"):
                fn(repro, scratch)
            else:
                fn(repro)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
