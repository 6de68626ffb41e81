"""``sim_mix``: in-process simulation through the ``repro.core`` facades.

Seeded circuits from the paper's families run through ``backend="auto"``
and through named backends, beside default-setting noisy trajectories
and a parameter sweep.  Routing, the five backend kernels, the
trajectory engines and the process pool do the work; no socket, shard
or result cache is touched.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List

import numpy as np

import reference as ref
from harness import Op, geomean, median, now, run_passes
from layers import BACKENDS, core_hooks

SHOTS = 1000
FAULT_SHOTS = 2000
ATOL = 1e-7
NOISE_1Q, NOISE_2Q = 0.01, 0.03


def family_seed(seed: int, family: str, instance: int) -> int:
    """Input seed of one circuit instance, derived from the workload seed."""
    digest = np.random.SeedSequence(
        [seed, instance, *map(ord, family)]
    ).generate_state(1)
    return int(digest[0] & 0x7FFFFFFF)


def families(lib, rc) -> Dict[str, Callable[[int], Any]]:
    """Circuit builders ``seed -> circuit``; fixed ones ignore the seed."""

    def clifford_few_t(s):
        qc = rc.random_clifford_t_circuit(8, 60, seed=s, t_prob=0.05)
        if qc.t_count() == 0:  # keep the family non-Clifford
            qc.t(0)
        return qc

    return {
        "ghz10": lambda s: lib.ghz_state(10),
        "clifford8": lambda s: rc.random_clifford_circuit(8, 60, seed=s),
        "cliffT8": clifford_few_t,
        "brick8": lambda s: rc.brickwork_circuit(8, 4, seed=s),
        "qv6": lambda s: lib.quantum_volume_circuit(6, 6, seed=s),
        "qft8": lambda s: lib.qft(8),
        "dense8": lambda s: rc.random_circuit(8, 10, seed=s),
        "grover5": lambda s: lib.grover(5, s % 32),
        "noisy4": lambda s: rc.random_circuit(4, 6, seed=s),
        # Fixed inputs of the two known faults (see README): they fail
        # on every run, whatever the workload seed.
        "fault_qv6": lambda s: lib.quantum_volume_circuit(6, 6, seed=11),
        "fault_brick12": lambda s: rc.brickwork_circuit(12, 3, seed=5),
        "fault_clifford12": lambda s: rc.random_clifford_circuit(
            12, 120, seed=7
        ),
    }


# Rows of the probe other workloads' traced runs use for these layers.
SMALL = {
    "simulate:auto:ghz10",
    "simulate:arrays:clifford8",
    "simulate:tn:brick8",
    "simulate:dd:qv6",
    "simulate:mps:dense8",
    "simulate:arrays:dense8:fusion",
    "sample:auto:clifford8",
    "sample:dd:grover5",
    "expectation:auto:qv6",
    "single_amplitude:mps:cliffT8",
    "arrays.trajectories:default",
    "dd.trajectories:default",
    "parallel.sweep:n_jobs=2",
    "parallel.sweep:serial",
}

FIXED = {"ghz10", "qft8", "fault_qv6", "fault_brick12", "fault_clifford12"}

# (task, backend, family, warm[, options]).  Cold rows draw a fresh
# circuit each pass; sampling rows never route to ``mps`` on seeded
# inputs (the fault (a) rows below use fixed inputs instead).  Fusion is
# off by default in the facades, so three rows turn it on.
OPS = [
    ("simulate", "auto", "ghz10", True),
    ("simulate", "auto", "clifford8", True),
    ("simulate", "stab", "clifford8", False),
    ("simulate", "arrays", "clifford8", True),
    ("simulate", "auto", "cliffT8", True),
    ("simulate", "arrays", "cliffT8", False),
    ("simulate", "auto", "brick8", False),
    ("simulate", "arrays", "brick8", True),
    ("simulate", "tn", "brick8", True),
    ("simulate", "auto", "qv6", True),
    ("simulate", "arrays", "qv6", False),
    ("simulate", "dd", "qv6", True),
    ("simulate", "auto", "qft8", True),
    ("simulate", "dd", "qft8", True),
    ("simulate", "auto", "dense8", False),
    ("simulate", "arrays", "dense8", True),
    ("simulate", "mps", "dense8", True),
    ("simulate", "auto", "grover5", True),
    ("simulate", "arrays", "grover5", False),
    ("sample", "auto", "ghz10", True),
    ("sample", "arrays", "ghz10", True),
    ("sample", "auto", "clifford8", True),
    ("sample", "arrays", "clifford8", False),
    ("sample", "auto", "cliffT8", False),
    ("sample", "auto", "qft8", True),
    ("sample", "dd", "grover5", True),
    ("sample", "arrays", "dense8", True),
    ("expectation", "auto", "clifford8", False),
    ("expectation", "dd", "cliffT8", True),
    ("expectation", "mps", "brick8", True),
    ("expectation", "tn", "dense8", False),
    ("expectation", "auto", "qv6", True),
    ("single_amplitude", "tn", "brick8", False),
    ("single_amplitude", "auto", "qv6", True),
    ("single_amplitude", "arrays", "qv6", True),
    ("single_amplitude", "dd", "qft8", True),
    ("single_amplitude", "mps", "cliffT8", True),
    ("single_amplitude", "auto", "dense8", True),
    ("simulate", "arrays", "dense8", True, {"fusion": True}),
    ("simulate", "dd", "qft8", True, {"fusion": True}),
    ("expectation", "arrays", "brick8", True, {"fusion": True}),
    # fault (a): MPS sampling draws from a wrong distribution
    ("sample", "mps", "fault_qv6", True),
    ("sample", "auto", "fault_brick12", True),
    # fault (b): stab amplitudes lose the global phase
    ("single_amplitude", "stab", "fault_clifford12", True),
    ("single_amplitude", "auto", "fault_clifford12", True),
]


def pauli_for(n: int, s: int) -> str:
    """A seeded two-site ``Z``/``X`` observable on ``n`` qubits."""
    rng = np.random.default_rng(s)
    chars = ["I"] * n
    for q in rng.choice(n, size=2, replace=False):
        chars[int(q)] = "ZX"[int(rng.integers(0, 2))]
    return "".join(chars)


def build(seed: int, repro) -> List[Op]:
    """The fixed operation list of one ``sim_mix`` run."""
    core = repro.core
    lib, rc = repro.circuits.library, repro.circuits.random_circuits
    builders = families(lib, rc)
    ops: List[Op] = []

    for task, backend, family, warm, *extra in OPS:
        options = extra[0] if extra else {}
        name = f"{task}:{backend}:{family}" + ("" if warm else ":cold")
        name += "".join(f":{k}" for k in sorted(options))
        sample_seed = 17 if family in FIXED else family_seed(seed, "shots", 0)

        def make(index, family=family, task=task):
            s = family_seed(seed, family, index)
            circuit = builders[family](s)
            state = ref.statevector(circuit)
            inp = {"circuit": circuit, "state": state}
            n = circuit.num_qubits
            if task == "expectation":
                inp["pauli"] = pauli_for(n, s)
                inp["expect"] = ref.pauli_expectation(state, inp["pauli"])
            if task == "single_amplitude":
                inp["index"] = int(np.argmax(np.abs(state) > 1e-6))
            return inp

        shots = FAULT_SHOTS if family.startswith("fault") else SHOTS
        if family in ("ghz10", "clifford8") and backend != "arrays":
            shots = 200  # tableau sampling costs ~1 ms per shot
        spec = {"task": task, "shots": shots, "sample_seed": sample_seed,
                "options": options}
        call, check = _task_call(core, backend=backend, **spec)
        ops.append(
            Op(name, f"core.{task}", make, call, check, warm=warm,
               twoq=lambda inp, out: inp["circuit"].two_qubit_gate_count(),
               backend=backend, spec=spec,
               known_fault=family.startswith("fault"))
        )

    ops += _noise_ops(seed, repro, builders)
    ops += _sweep_ops(seed, repro)
    return ops


def _task_call(core, task, backend, shots, sample_seed, options):
    """``(call, check)`` of one facade row."""
    if task == "simulate":
        return (
            lambda inp: core.simulate(inp["circuit"], backend=backend,
                                      **options),
            lambda inp, out: ref.phase_distance(out.state, inp["state"]) < ATOL,
        )
    if task == "sample":
        return (
            lambda inp: core.sample(
                inp["circuit"], shots, backend=backend, seed=sample_seed,
                with_metadata=True, **options,
            ),
            lambda inp, out: ref.samples_ok(
                out[0], ref.probabilities(inp["state"]), shots
            ),
        )
    if task == "expectation":
        return (
            lambda inp: core.expectation(
                inp["circuit"], inp["pauli"], backend=backend,
                with_metadata=True, **options,
            ),
            lambda inp, out: abs(out[0] - inp["expect"]) < ATOL,
        )
    return (
        lambda inp: core.single_amplitude(
            inp["circuit"], inp["index"], backend=backend, with_metadata=True,
            **options,
        ),
        lambda inp, out: abs(out[0] - inp["state"][inp["index"]]) < ATOL,
    )


def _channel_for(name: str, num_qubits: int):
    return ref.depolarizing_kraus(NOISE_1Q if num_qubits == 1 else NOISE_2Q)


def _noise_ops(seed, repro, builders) -> List[Op]:
    """Noisy trajectories at default settings, checked against ``rho``."""
    from repro.arrays import NoiseModel, TrajectorySimulator
    from repro.dd.noise_sim import NoisyDDSimulator

    model = NoiseModel.uniform_depolarizing(NOISE_1Q, NOISE_2Q)
    rows = [
        ("arrays.trajectories", "default", 60,
         lambda c, t, s: TrajectorySimulator(model, seed=s).run(c, t)),
        ("arrays.trajectories", "n_jobs=1", 200,
         lambda c, t, s: TrajectorySimulator(model, seed=s).run(
             c, t, n_jobs=1)),
        ("dd.trajectories", "default", 5,
         lambda c, t, s: NoisyDDSimulator(model, seed=s).run(c, t)),
    ]
    ops = []
    for layer, variant, count, run in rows:

        def make(index):
            circuit = builders["noisy4"](family_seed(seed, "noisy4", index))
            return {
                "circuit": circuit,
                "rho": ref.density_matrix(circuit, _channel_for),
                "seed": family_seed(seed, "trajectories", index),
            }

        ops.append(
            Op(
                f"{layer}:{variant}",
                layer,
                make,
                lambda inp, run=run, count=count: run(
                    inp["circuit"], count, inp["seed"]
                ),
                lambda inp, out, count=count: ref.trajectories_ok(
                    out.probabilities(), inp["rho"], count
                ),
                twoq=lambda inp, out: inp["circuit"].two_qubit_gate_count(),
            )
        )
    return ops


def ansatz(parameters):
    """Sweep factory: a 6-qubit two-local ansatz (module level: picklable)."""
    from repro.circuits import library

    return library.hardware_efficient_ansatz(6, 2, parameters)


def _sweep_ops(seed, repro) -> List[Op]:
    """A parameter sweep through ``simulate_many``, pooled and serial."""
    core = repro.core
    rng = np.random.default_rng(family_seed(seed, "sweep", 0))
    bindings = [rng.uniform(0, 2 * math.pi, size=36) for _ in range(8)]

    def make(index):
        return {
            "bindings": bindings,
            "states": [ref.statevector(ansatz(b)) for b in bindings],
        }

    def check(inp, out):
        return len(out) == len(inp["states"]) and all(
            ref.phase_distance(r.state, s) < ATOL
            for r, s in zip(out, inp["states"])
        )

    def twoq(inp, out):
        return sum(ansatz(b).two_qubit_gate_count() for b in inp["bindings"])

    return [
        Op("parallel.sweep:n_jobs=2", "parallel.sweep", make,
           lambda inp: core.simulate_many(
               ansatz, param_bindings=inp["bindings"], n_jobs=2),
           check, twoq=twoq),
        Op("parallel.sweep:serial", "parallel.sweep_serial", make,
           lambda inp: core.simulate_many(
               ansatz, param_bindings=inp["bindings"]),
           check, twoq=twoq),
    ]


def warm_up(repro) -> None:
    """Touch every backend and task once so lazy imports are paid."""
    core = repro.core
    qc = repro.circuits.library.ghz_state(3)
    for backend in ("arrays", "dd", "tn", "mps", "stab"):
        core.simulate(qc, backend=backend)
        core.expectation(qc, "ZZI", backend=backend)
        core.single_amplitude(qc, 0, backend=backend)
        if backend != "tn":
            core.sample(qc, 10, backend=backend)


class Workload:
    """``sim_mix`` behind the interface ``run.py`` drives.

    ``small=True`` keeps the ``SMALL`` rows: the probe other workloads'
    traced runs use to report this workload's layers.
    """

    layers = "sim"

    def __init__(self, seed: int, repro, run_dir: str, small=False) -> None:
        self.seed, self.repro, self.small = seed, repro, small
        self.ops: List[Op] = []
        self.passes_done = 0

    def setup(self) -> None:
        ops = build(self.seed, self.repro)
        if self.small:
            ops = [op for op in ops if op.name in SMALL]
        for op in ops:
            op.input_for(0)
        warm_up(self.repro)
        self.ops = ops

    def teardown(self) -> None:
        self.ops = []

    def timed(self, seconds: float, tracer) -> Any:
        log = run_passes(self.ops, seconds, tracer, self.passes_done)
        self.passes_done += log.passes
        return log

    def hooks(self, tracer):
        return core_hooks(tracer, self.repro)

    def layer_metrics(self, tracer, log):
        return sim_layer_metrics(self.repro, tracer, log)


def sim_layer_metrics(repro, tracer, log):
    """``(SIM_LAYERS figures, notes)`` of one traced pass log."""
    ops = {op.name: op for op in log.ops}
    kernel_names = {f"{b}.kernel" for b in BACKENDS}
    children: Dict[int, List[Dict]] = {}
    for s in tracer.spans:
        children.setdefault(s["parent"], []).append(s)
    overhead, picks, picked = [], {b: 0 for b in BACKENDS}, set()
    for s in tracer.spans:
        if s["name"] not in FACADES:
            continue
        kernels = [
            k for k in children.get(s["id"], []) if k["name"] in kernel_names
        ]
        if not kernels:
            continue
        overhead.append(
            s["end"] - s["start"] - sum(k["end"] - k["start"] for k in kernels)
        )
        name = s["op"].rsplit("#", 1)[0]
        op = ops.get(name)
        if op is not None and op.backend == "auto" and name not in picked:
            picked.add(name)
            picks[kernels[-1]["name"].split(".")[0]] += 1

    def med_ms(name):
        values = tracer.durations(name)
        return median(values) * 1e3 if values else 0.0

    metrics = {
        "core.analyze_ms": med_ms("core.analyze"),
        "core.dispatch_overhead_ms": median(overhead) * 1e3 if overhead else 0.0,
        "core.auto_regret": auto_regret(repro, log),
        "compile.fuse_ms": med_ms("compile.fusion"),
    }
    for b in BACKENDS:
        metrics[f"{b}.kernel_ms"] = med_ms(f"{b}.kernel")
    metrics["dd.peak_nodes"] = _max_meta(log, "peak_nodes", "nodes")
    metrics["mps.max_bond"] = _max_meta(log, "max_bond_reached")
    for layer in ("arrays.trajectories", "dd.trajectories",
                  "parallel.sweep", "parallel.sweep_serial"):
        metrics[f"{layer}_ms"] = med_ms(layer)
    sweep = log.outputs.get("parallel.sweep:n_jobs=2")
    metrics["parallel.shm_bytes"] = float(
        sweep[0].metadata.get("batch", {}).get("shm_bytes", 0) if sweep else 0
    )
    return metrics, {"auto_picks": picks}


FACADES = ("core.simulate", "core.sample", "core.expectation",
           "core.single_amplitude")


def _metadata(out) -> Dict:
    if hasattr(out, "metadata"):
        return out.metadata
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], dict):
        return out[1]
    return {}


def _max_meta(log, *keys: str) -> float:
    """Largest of ``keys`` over the outputs whose metadata has the first."""
    values = [
        float(meta.get(key) or 0)
        for meta in map(_metadata, log.outputs.values())
        if keys[0] in meta
        for key in keys
    ]
    return max(values) if values else 0.0


def auto_regret(repro, log) -> float:
    """Geomean over ``auto`` rows of auto time / fastest named backend.

    Every named backend that accepts the row's task and circuit is timed
    on the row's first input (median of three calls for calls under
    50 ms, one call otherwise).
    """
    ratios = []
    for op in log.ops:
        if op.backend != "auto" or not op.spec:
            continue
        inp = op.input_for(0)
        times = {}
        for backend in ("auto",) + BACKENDS:
            call, _ = _task_call(repro.core, backend=backend, **op.spec)
            try:
                times[backend] = _best_time(call, inp)
            except Exception:  # noqa: BLE001 - incapable backend: skip it
                continue
        named = [t for b, t in times.items() if b != "auto"]
        if "auto" in times and named:
            ratios.append(times["auto"] / min(named))
    return geomean(ratios) if ratios else 0.0


def _best_time(call, inp) -> float:
    start = now()
    call(inp)
    first = now() - start
    if first > 0.05:
        return first
    samples = [first]
    for _ in range(2):
        start = now()
        call(inp)
        samples.append(now() - start)
    return median(samples)
