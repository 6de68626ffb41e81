"""Independent dense reference for the benchmark's correctness checks.

Everything here is plain NumPy over the benchmark's own gate table.  It
never imports ``repro``: circuits are read as data (gate name, parameters,
targets, controls) and their meaning comes from the table below, so a
fault in the program's gate library, kernels or backends cannot also
hide in the reference.

Conventions follow the circuit IR's documented ones: qubit ``q`` is bit
``q`` of a basis index (qubit ``n-1`` most significant), a multi-target
gate's first target is the least significant bit of its local matrix,
controls are positive, bitstring keys print qubit ``n-1`` first, and a
Pauli string's first character acts on qubit ``n-1``.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

_S2 = 1.0 / math.sqrt(2.0)

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _u(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ]
    )


def _pauli_rotation(pauli: np.ndarray, theta: float) -> np.ndarray:
    """``exp(-i theta/2 P)`` for an involutory ``P``."""
    eye = np.eye(len(pauli))
    return math.cos(theta / 2) * eye - 1j * math.sin(theta / 2) * pauli


_FIXED = {
    "id": np.eye(2),
    "x": PAULI["X"],
    "y": PAULI["Y"],
    "z": PAULI["Z"],
    "h": _S2 * np.array([[1, 1], [1, -1]]),
    "s": np.diag([1, 1j]),
    "sdg": np.diag([1, -1j]),
    "t": np.diag([1, cmath.exp(1j * math.pi / 4)]),
    "tdg": np.diag([1, cmath.exp(-1j * math.pi / 4)]),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]),
    "sxdg": 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]]),
    "swap": np.eye(4)[[0, 2, 1, 3]],
    "iswap": np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]]
    ),
    "iswapdg": np.array(
        [[1, 0, 0, 0], [0, 0, -1j, 0], [0, -1j, 0, 0], [0, 0, 0, 1]]
    ),
}

_PARAMETRIC = {
    "rx": lambda t: _pauli_rotation(PAULI["X"], t),
    "ry": lambda t: _pauli_rotation(PAULI["Y"], t),
    "rz": lambda t: _pauli_rotation(PAULI["Z"], t),
    "p": lambda lam: np.diag([1, cmath.exp(1j * lam)]),
    "u1": lambda lam: np.diag([1, cmath.exp(1j * lam)]),
    "u": _u,
    "u3": _u,
    "u2": lambda phi, lam: _u(math.pi / 2, phi, lam),
    "rxx": lambda t: _pauli_rotation(np.kron(PAULI["X"], PAULI["X"]), t),
    "ryy": lambda t: _pauli_rotation(np.kron(PAULI["Y"], PAULI["Y"]), t),
    "rzz": lambda t: _pauli_rotation(np.kron(PAULI["Z"], PAULI["Z"]), t),
    "gphase": lambda a: np.array([[cmath.exp(1j * a)]]),
}

# Gates whose matrix *is* their definition (random SU(4) blocks drawn by
# the input generators): the reference takes the matrix as input data.
RAW_MATRIX_GATES = frozenset({"unitary2q"})


def gate_matrix(name: str, params: Sequence[float], raw=None) -> np.ndarray:
    """The reference matrix of one named gate over its targets."""
    if name in _FIXED:
        return np.asarray(_FIXED[name], dtype=complex)
    if name in _PARAMETRIC:
        return np.asarray(_PARAMETRIC[name](*params), dtype=complex)
    if name in RAW_MATRIX_GATES and raw is not None:
        return np.asarray(raw, dtype=complex)
    raise KeyError(f"reference has no gate '{name}'")


class Op:
    """One gate application read out of a circuit, as plain data."""

    __slots__ = ("name", "params", "targets", "controls", "matrix")

    def __init__(self, name, params, targets, controls, matrix) -> None:
        self.name = name
        self.params = tuple(params)
        self.targets = tuple(targets)
        self.controls = tuple(controls)
        self.matrix = matrix

    @property
    def qubits(self) -> Tuple[int, ...]:
        return self.targets + self.controls


def ops_of(circuit) -> Tuple[int, List[Op]]:
    """``(num_qubits, ops)`` of a circuit, measurements and barriers dropped.

    Only the IR's plain data is read (gate name and parameters, qubit
    tuples); the gate's own matrix is used for raw-matrix gates alone.
    """
    ops: List[Op] = []
    for op in circuit.operations:
        name = op.gate.name
        if name in ("measure", "barrier"):
            continue
        if op.condition is not None:
            raise ValueError("reference handles unconditioned circuits only")
        raw = op.gate.matrix if name in RAW_MATRIX_GATES else None
        matrix = gate_matrix(name, op.gate.params, raw)
        ops.append(Op(name, op.gate.params, op.targets, op.controls, matrix))
    return circuit.num_qubits, ops


def _local_matrix(op: Op) -> np.ndarray:
    """Matrix over ``op.qubits`` (targets low, controls high)."""
    k, m = len(op.targets), len(op.controls)
    if m == 0:
        return op.matrix
    full = np.eye(2 ** (k + m), dtype=complex)
    full[-(2**k):, -(2**k):] = op.matrix
    return full


def _apply(tensor: np.ndarray, n: int, matrix: np.ndarray, qubits, offset=0):
    """Apply ``matrix`` to ``qubits`` of an ``n``-qubit axis block.

    ``tensor`` has one axis per qubit, most significant first, starting
    at axis ``offset`` (a density matrix keeps rows at offset 0 and
    columns at offset ``n``).
    """
    k = len(qubits)
    if k == 0:
        return tensor * matrix[0, 0]
    axes = [offset + n - 1 - q for q in reversed(qubits)]
    gate = matrix.reshape((2,) * (2 * k))
    out = np.tensordot(gate, tensor, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def statevector(circuit) -> np.ndarray:
    """Exact output state ``U|0...0>``, global phase included."""
    n, ops = ops_of(circuit)
    return evolve(n, ops)


def evolve(n: int, ops: Iterable[Op], state: Optional[np.ndarray] = None):
    """Apply ``ops`` to ``state`` (default ``|0...0>``).

    ``state`` may carry a trailing batch axis, ``(2**n, batch)``: every
    column evolves at once.
    """
    if state is None:
        state = np.zeros(2**n, dtype=complex)
        state[0] = 1.0
    state = np.asarray(state, dtype=complex)
    batch = state.shape[1:]
    tensor = state.reshape((2,) * n + batch).copy()
    for op in ops:
        tensor = _apply(tensor, n, _local_matrix(op), op.qubits)
    return tensor.reshape((2**n,) + batch)


def unitary(circuit) -> np.ndarray:
    """Exact ``2**n x 2**n`` unitary (columns are images of basis states)."""
    n, ops = ops_of(circuit)
    return evolve(n, ops, np.eye(2**n, dtype=complex))


def density_matrix(circuit, channel_for) -> np.ndarray:
    """Exact noisy output ``rho`` under a gate-attached noise model.

    ``channel_for(display_name, num_qubits)`` returns a list of Kraus
    matrices (or ``None``).  A one-qubit channel acts on every qubit the
    gate touches, after the gate; an arity-matched channel acts on them
    jointly.
    """
    n, ops = ops_of(circuit)
    rho = np.zeros((2,) * (2 * n), dtype=complex)
    rho.reshape(-1)[0] = 1.0

    def conj_apply(rho, matrix, qubits):
        rho = _apply(rho, n, matrix, qubits, offset=0)
        return _apply(rho, n, matrix.conj(), qubits, offset=n)

    for op in ops:
        rho = conj_apply(rho, _local_matrix(op), op.qubits)
        kraus = channel_for("c" * len(op.controls) + op.name, len(op.qubits))
        if kraus is None:
            continue
        arity = int(len(kraus[0])).bit_length() - 1
        groups = [[q] for q in op.qubits] if arity == 1 else [list(op.qubits)]
        for group in groups:
            rho = sum(conj_apply(rho, k, group) for k in kraus)
    return rho.reshape(2**n, 2**n)


def depolarizing_kraus(p: float) -> List[np.ndarray]:
    """Maximally mixed with probability ``p``: ``rho -> (1-p) rho + p I/2``."""
    return [
        math.sqrt(1 - 3 * p / 4) * PAULI["I"],
        math.sqrt(p / 4) * PAULI["X"],
        math.sqrt(p / 4) * PAULI["Y"],
        math.sqrt(p / 4) * PAULI["Z"],
    ]


def pauli_expectation(state: np.ndarray, pauli: str) -> float:
    """Exact ``<psi|P|psi>``; ``pauli[0]`` acts on the top qubit."""
    n = int(len(state)).bit_length() - 1
    if len(pauli) != n:
        raise ValueError("Pauli string length does not match the state")
    tensor = np.asarray(state, dtype=complex).reshape((2,) * n)
    for pos, ch in enumerate(pauli.upper()):
        if ch != "I":
            tensor = _apply(tensor, n, PAULI[ch], [n - 1 - pos])
    return float(np.vdot(state, tensor.reshape(-1)).real)


def probabilities(state: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(state)) ** 2


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``min_phi ||a - e^{i phi} b||_inf`` via the optimal overlap phase."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return math.inf
    overlap = np.vdot(b, a)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-300 else 1.0
    return float(np.max(np.abs(a - phase * b)))


def layout_permutation(n: int, mapping: Dict[int, int]) -> np.ndarray:
    """Permutation matrix sending logical qubit ``l`` to ``mapping[l]``."""
    dim = 2**n
    perm = np.zeros((dim, dim))
    for index in range(dim):
        image = 0
        for logical in range(n):
            if (index >> logical) & 1:
                image |= 1 << mapping[logical]
        perm[image, index] = 1.0
    return perm


def undo_layout(compiled_u, initial: Dict[int, int], final: Dict[int, int]):
    """Logical unitary of a routed circuit: ``P_final^T U P_initial``."""
    n = int(len(compiled_u)).bit_length() - 1
    return (
        layout_permutation(n, final).T
        @ compiled_u
        @ layout_permutation(n, initial)
    )


def unitary_phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """``min_phi ||u - e^{i phi} v||_max`` (equivalence up to phase)."""
    return phase_distance(u.reshape(-1), v.reshape(-1))


# -- sampling checks ----------------------------------------------------------


def correlators(n: int) -> List[Tuple[int, ...]]:
    """All one-qubit ``Z_i`` and two-qubit ``Z_i Z_j`` correlator supports."""
    singles = [(q,) for q in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return singles + pairs


def _parity_signs(n: int, support: Tuple[int, ...]) -> np.ndarray:
    index = np.arange(2**n)
    parity = np.zeros(2**n, dtype=np.int64)
    for q in support:
        parity ^= (index >> q) & 1
    return 1.0 - 2.0 * parity


def correlator_deviation(counts: Dict[str, int], probs: np.ndarray) -> float:
    """Worst ``|<Z..Z>_sampled - <Z..Z>_exact|`` in units of ``1/sqrt(shots)``.

    ``1/sqrt(shots)`` bounds the standard error of every +-1-valued
    correlator estimate, so the returned number is a worst-case count of
    standard errors over all one- and two-qubit Z correlators.
    """
    n = int(len(probs)).bit_length() - 1
    shots = sum(counts.values())
    if shots <= 0:
        return math.inf
    empirical = np.zeros(2**n)
    for key, count in counts.items():
        if len(key) != n or set(key) - {"0", "1"}:
            return math.inf
        empirical[int(key, 2)] += count
    empirical /= shots
    worst = 0.0
    for support in correlators(n):
        signs = _parity_signs(n, support)
        worst = max(worst, abs(float(signs @ empirical - signs @ probs)))
    return worst * math.sqrt(shots)


SAMPLING_SIGMAS = 5.0
"""Correlator tolerance in standard errors.  At 2000 shots a faithful
sampler stays under ~2.7 on the benchmark's circuits while a sampler
drawing from a wrong distribution misses by 6.5 or more."""


def samples_ok(counts: Dict[str, int], probs: np.ndarray, shots: int) -> bool:
    return (
        sum(counts.values()) == shots
        and correlator_deviation(counts, probs) <= SAMPLING_SIGMAS
    )


def trajectories_ok(probs: np.ndarray, rho: np.ndarray, trajectories: int):
    """Trajectory average vs ``diag(rho)`` within its sampling error.

    Each trajectory contributes a probability vector with entries in
    ``[0, 1]``, so an entry's variance is at most ``p(1-p)`` of its exact
    mean ``p``; every entry must sit within ``SAMPLING_SIGMAS`` of those
    standard errors (plus a floating-point floor), and the average must
    be a normalized distribution.
    """
    exact = np.real(np.diag(rho))
    probs = np.asarray(probs, dtype=float)
    if probs.shape != exact.shape or abs(probs.sum() - 1.0) > 1e-9:
        return False
    sigma = np.sqrt(np.clip(exact * (1 - exact), 0, None) / trajectories)
    return bool(np.all(np.abs(probs - exact) <= SAMPLING_SIGMAS * sigma + 1e-9))


# -- self-tests against closed forms -----------------------------------------


class _Circuit:
    """Minimal stand-in exposing the IR fields :func:`ops_of` reads."""

    class _Gate:
        def __init__(self, name, params=()):
            self.name, self.params, self.matrix = name, tuple(params), None

    class _Op:
        def __init__(self, gate, targets, controls=()):
            self.gate, self.targets, self.controls = gate, targets, controls
            self.condition = None

    def __init__(self, n: int) -> None:
        self.num_qubits = n
        self.operations: List = []

    def add(self, name, targets, controls=(), params=()):
        gate = self._Gate(name, params)
        self.operations.append(self._Op(gate, tuple(targets), tuple(controls)))
        return self


def self_test() -> None:
    """Check the reference against closed forms; raises on a mismatch."""
    bell = _Circuit(2).add("h", [0]).add("x", [1], controls=[0])
    expect = np.array([_S2, 0, 0, _S2])
    _require(np.allclose(statevector(bell), expect), "Bell state")
    _require(abs(pauli_expectation(expect, "ZZ") - 1) < 1e-12, "Bell <ZZ>")
    _require(abs(pauli_expectation(expect, "XX") - 1) < 1e-12, "Bell <XX>")
    _require(abs(pauli_expectation(expect, "ZI")) < 1e-12, "Bell <ZI>")

    n = 5
    ghz = _Circuit(n).add("h", [0])
    for q in range(1, n):
        ghz.add("x", [q], controls=[0])
    expect = np.zeros(2**n)
    expect[0] = expect[-1] = _S2
    _require(np.allclose(statevector(ghz), expect), "GHZ state")

    # QFT of |x>: amplitude e^{2 pi i x k / 2^n} / sqrt(2^n) at |k>,
    # textbook circuit (H, controlled phases, final swaps).
    n, x = 4, 0b1011
    qft = _Circuit(n)
    for q in range(n):
        if (x >> q) & 1:
            qft.add("x", [q])
    for j in reversed(range(n)):
        qft.add("h", [j])
        for k in reversed(range(j)):
            qft.add("p", [j], controls=[k], params=[math.pi / 2 ** (j - k)])
    for q in range(n // 2):
        qft.add("swap", [q, n - 1 - q])
    dim = 2**n
    expect = np.exp(2j * math.pi * x * np.arange(dim) / dim) / math.sqrt(dim)
    _require(phase_distance(statevector(qft), expect) < 1e-12, "QFT |x>")

    # Depolarizing shrinks the Bloch vector by (1 - p).
    p, theta = 0.3, 0.7
    one = _Circuit(1).add("ry", [0], params=[theta])
    rho = density_matrix(one, lambda name, k: depolarizing_kraus(p))
    bloch_z = float(np.real(rho[0, 0] - rho[1, 1]))
    bloch_x = float(2 * np.real(rho[0, 1]))
    _require(abs(bloch_z - (1 - p) * math.cos(theta)) < 1e-12, "depol z")
    _require(abs(bloch_x - (1 - p) * math.sin(theta)) < 1e-12, "depol x")
    _require(abs(np.trace(rho) - 1) < 1e-12, "depol trace")

    # Layout undo: a SWAP routed as identity with swapped final layout.
    swap_u = unitary(_Circuit(2).add("swap", [0, 1]))
    undone = undo_layout(np.eye(4), {0: 0, 1: 1}, {0: 1, 1: 0})
    _require(unitary_phase_distance(undone, swap_u) < 1e-12, "layout undo")

    # Sampling statistic: exact counts give zero deviation.
    probs = np.array([0.5, 0, 0, 0.5])
    _require(correlator_deviation({"00": 50, "11": 50}, probs) < 1e-12, "dev")
    _require(correlator_deviation({"00": 100}, probs) > 5, "dev miss")


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(f"reference self-test failed: {what}")


if __name__ == "__main__":
    self_test()
    print("reference self-test ok")
