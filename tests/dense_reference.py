"""Dense references and test helpers, kept apart from the package.

execute_register runs a program as the two-slot register circuit of its
windows, on one matrix holding the whole register: the ancilla (when the
program declares one) on the most significant qubit, the system next, and
the live env slots below in order of preparation. The first window
prepares its env; at a cut the collided env is traced and the window's
fresh one prepared (`trace a; prepare b`), at a carry the fresh env is
prepared, swapped with the collided one and traced in its place
(`prepare b; swap(a, b); trace a`), and the last env is traced at the end,
so at most n + 2w qubits are live. A fragment's product U is the live
register's (everything but the ancilla), made a full-register matrix with
np.kron: I (x) U with an ancilla, or the block-diagonal
|p><p| (x) U + |1-p><1-p| (x) I when controlled at polarity p. A trace is a
partial trace and a swap a product of two-qubit swaps.

count_items prices a program by walking its windows, a preparation each
and a swap per carry, and each fragment's items (fragment_items: `step`
repeated `steps` times, or a sampled fragment's picks of its table) with
the cost rule of the circuits module docstring (price_items), and describe
prints a program one window and one fragment per line.
rotations_by_item is the bit-for-bit reference of hamsim.rotations_dense.

segments reads a sampled-LCU draw back as its Segments; sampled_dense and
lcu_expected_dense are the dense forms of one such draw and of the Taylor
factor its draws average to, and pauli_mul is the exact word product that
lcu_sample's words are checked against; generic_path_calls counts
joint-register steps, which no run takes, and per_run_program_calls the
program checks and pricings that a skeleton's runs make once per estimate,
not per run; memory_witness is the trace-distance revival that certifies
non-Markovian backflow. jump_dense is a jump operator's 2^n x 2^n matrix.
pauli_sum and write_state build test inputs.
"""

import math
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

import collidesim
from collidesim import PauliString, PauliSum, circuits, exact_nonmarkov, states, trace_distance
from collidesim.circuits import PREP_CNOTS, SWAP_CNOTS_PER_QUBIT
from collidesim.hamsim import _FOLD_BELOW
from collidesim.states import _axis_action_rowform

_SWAP = np.eye(4)[[0, 2, 1, 3]]


def gate_dense(axis, angle):
    """e^{-i angle P} for a rotation item, the word itself for (word, None)."""
    word = axis.to_dense()
    if angle is None:
        return word
    return np.cos(angle) * np.eye(len(word)) - 1j * np.sin(angle) * word


def embed(u, qubits, n):
    """u on the listed qubits of an n-qubit register (qubits[0] most significant)."""
    qubits = list(qubits)
    order = qubits + [q for q in range(n) if q not in qubits]
    full = np.kron(u, np.eye(1 << (n - len(qubits)))).reshape((2,) * (2 * n))
    back = list(np.argsort(order))
    return full.transpose(back + [n + q for q in back]).reshape(1 << n, 1 << n)


def controlled(u, polarity):
    """|p><p| (x) u + |1-p><1-p| (x) I, the control on the top qubit."""
    on = np.diag([1.0 - polarity, float(polarity)])
    return np.kron(on, u) + np.kron(np.eye(2) - on, np.eye(len(u)))


def partial_trace(rho, qubits, n):
    keep = [q for q in range(n) if q not in qubits]
    order = keep + list(qubits)
    dk, dt = 1 << len(keep), 1 << len(qubits)
    view = rho.reshape((2,) * (2 * n)).transpose(order + [n + q for q in order])
    return np.einsum("atbt->ab", view.reshape(dk, dt, dk, dt))


def fragment_items(frag):
    """The items a fragment applies, in order: the entries its picks name,
    or its step repeated `steps` times."""
    if frag.picks is not None:
        return [frag.step[i] for i in frag.picks]
    return list(frag.step) * frag.steps


def execute_register(program, rho_system, env_preparers=None):
    """The program's final register: ancilla (+) system, or the system alone."""
    head = 1 if program.ancilla else 0
    plus = np.full((2, 2), 0.5)
    rho = np.kron(plus, rho_system.data) if program.ancilla else rho_system.data.copy()
    n = head + program.n_system
    live = []  # the widths of the live env slots, in order of preparation

    def prepare(window):
        nonlocal rho, n
        rho = np.kron(rho, env_preparers[window.prep]().data)
        n += window.width
        live.append(window.width)

    def trace_oldest():
        nonlocal rho, n
        base = head + program.n_system
        rho = partial_trace(rho, list(range(base, base + live[0])), n)
        n -= live.pop(0)

    def apply(g):
        nonlocal rho
        rho = g @ rho @ g.conj().T

    for i, window in enumerate(program.ops):
        if i == 0:
            prepare(window)
        elif window.carry:  # prepare b; swap(a, b); trace a
            prepare(window)
            base, w = head + program.n_system, window.width
            g = np.eye(1 << n)
            for q in range(base, base + w):
                g = embed(_SWAP, (q, q + w), n) @ g
            apply(g)
            trace_oldest()
        else:  # trace a; prepare b
            trace_oldest()
            prepare(window)
        for frag in window.fragments:  # on the whole live register
            u = np.eye(1 << (n - head))
            for axis, angle in fragment_items(frag):
                u = gate_dense(axis, angle) @ u
            apply(np.kron(np.eye(1 << head), u) if frag.polarity is None else controlled(u, frag.polarity))
    if live:
        trace_oldest()
    return rho


def price_items(items, ctl):
    """(cnot, rotation, pauli_gate) of a list of items, walked one by one."""
    cnot = rot = paulis = 0
    for axis, angle in items:
        if angle is None:
            paulis += 1
            cnot += axis.weight if ctl else 0
        elif axis.weight:
            cnot += 2 * (axis.weight - 1) + 2 * ctl
            rot += 1 + ctl
        else:
            rot += ctl  # a controlled identity rotation is a phase kick
    return cnot, rot, paulis


def count_items(program):
    """(cnot, rotation, pauli_gate, depth_proxy, env_preps) by an item walk."""
    cnot = rot = paulis = 0
    for window in program.ops:
        cnot += PREP_CNOTS
        if window.carry:
            cnot += SWAP_CNOTS_PER_QUBIT * window.width
        for frag in window.fragments:
            c, r, p = price_items(fragment_items(frag), frag.polarity is not None)
            cnot, rot, paulis = cnot + c, rot + r, paulis + p
    return cnot, rot, paulis, cnot + rot, len(program.ops)


def rotations_by_item(items, n):
    """The product of rotations_dense's one-sided updates, made item by item
    with (d, 1) row scales and no action kept: its bit-for-bit reference.
    A non-diagonal rotation with |cos| >= 1/2 adds its -i tan term and puts
    its cosine into a factor, multiplied in at the end or once it falls
    below the fold threshold."""
    dim = 1 << n
    out = np.eye(dim, dtype=np.complex128)
    out_q = out.reshape((2,) * n + (dim,))
    factor = 1.0
    for axis, angle in items:
        rows = _axis_action_rowform(n, axis.x, axis.z)
        if axis.x == 0:
            if angle is None:
                out *= (axis.phase * rows)[:, None]
            else:
                out *= (math.cos(angle) - (1j * math.sin(angle)) * rows)[:, None]
            continue
        flip = tuple(slice(None, None, -1) if axis.x >> (n - 1 - q) & 1 else slice(None) for q in range(n))
        row_shape = out_q.shape[:-1] + (1,)
        if angle is None:
            out_q[...] = (axis.phase * rows).reshape(row_shape) * out_q[flip]
        elif abs(math.cos(angle)) >= 0.5:
            moved = out_q[flip] * ((-1j * math.tan(angle)) * rows).reshape(row_shape)
            out += moved.reshape(dim, dim)
            factor *= math.cos(angle)
            if abs(factor) < _FOLD_BELOW:
                out *= factor
                factor = 1.0
        else:
            moved = out_q[flip] * ((-1j * math.sin(angle)) * rows).reshape(row_shape)
            out *= math.cos(angle)
            out += moved.reshape(dim, dim)
    if factor != 1.0:
        out *= factor
    return out


def describe(program):
    """The program as text: a header line, then a line per window, its
    env's preparer key and width and whether it carries the previous env,
    and an indented line per fragment."""
    lines = [f"program system={program.n_system} ancilla={int(program.ancilla)}"]
    for window in program.ops:
        carry = " carried" if window.carry else ""
        lines.append(f"window prep={window.prep} width={window.width}{carry}")
        for frag in window.fragments:
            items = ", ".join(
                axis.label() if angle is None else f"{axis.label()} {angle!r}"
                for axis, angle in (frag.step if frag.picks is None else fragment_items(frag))
            )
            head = "fragment" if frag.polarity is None else f"cfragment(anc={frag.polarity})"
            lines.append(f"  {head} {frag.steps} x [{items}]")
    return "\n".join(lines)


@dataclass(frozen=True)
class Segment:
    """One sampled segment: word then rotation, applied rotation-first."""

    k: int
    word: PauliString  # (-i)^k P_l1 ... P_lk with all term signs folded in
    axis: PauliString  # bare rotation axis
    angle: float  # sign-folded phi_k = arctan(x/(k+1))


def segments(draw):
    """The Segments of one sampled-LCU draw, read back from its picks: each
    rotation pick at entry (k/2) L + l (L terms), then a word pick (an entry
    whose angle is None) unless the word is +I."""
    table, picks = draw.table, draw.picks
    out = []
    i = 0
    while i < len(picks):
        axis, angle = table[picks[i]]
        k = 2 * (picks[i] // table.n_terms)
        i += 1
        word = PauliString(table.n, 0, 0)
        if i < len(picks) and table[picks[i]][1] is None:
            word = table[picks[i]][0]
            i += 1
        out.append(Segment(k, word, axis, angle))
    return tuple(out)


def sampled_dense(draw):
    """The dense unitary of one sampled-LCU draw: per segment its rotation,
    then its word, segment 0 first."""
    out = np.eye(1 << draw.table.n, dtype=np.complex128)
    for seg in segments(draw):
        out = seg.word.to_dense() @ gate_dense(seg.axis, seg.angle) @ out
    return out


def lcu_expected_dense(nh, params):
    """Utilde: the degree-(q+1) Taylor truncation of a segment, powered r."""
    h = nh.h.to_dense()
    a = (-1j * params.x) * h
    dim = h.shape[0]
    seg = np.eye(dim, dtype=np.complex128)
    power = np.eye(dim, dtype=np.complex128)
    fact = 1.0
    for j in range(1, params.q + 2):
        power = power @ a
        fact *= j
        seg = seg + power / fact
    return np.linalg.matrix_power(seg, params.r)


def pauli_mul(a, b):
    """Exact product of two Pauli words (same register width)."""
    if a.n != b.n:
        raise ValueError("width mismatch")
    x = a.x ^ b.x
    z = a.z ^ b.z
    n_y_c = (x & z).bit_count()
    k = a.phase_exp + b.phase_exp + a.n_y + b.n_y - n_y_c + 2 * (a.z & b.x).bit_count()
    return PauliString(a.n, x, z, k % 4)


def jump_dense(jump):
    """A = x_part + i y_part as a dense matrix."""
    return jump.x_part.to_dense() + 1j * jump.y_part.to_dense()


def memory_witness(nmspec, rho_a, rho_b):
    """Largest single-collision revival of trace distance between two inputs.

    Markovian (p = 0) dynamics is CPTP at every step, so distances contract
    and the witness stays at numerical zero; a positive value certifies
    information backflow through the env memory.
    """
    _, traj_a = exact_nonmarkov(nmspec, rho_a, trajectory=True)
    _, traj_b = exact_nonmarkov(nmspec, rho_b, trajectory=True)
    dists = [trace_distance(rho_a, rho_b)]
    dists += [trace_distance(a, b) for a, b in zip(traj_a, traj_b)]
    return max(b - a for a, b in zip(dists, dists[1:]))


def pauli_sum(pairs):
    """A PauliSum from (coefficient, label) pairs, e.g. (0.5, '-XZ')."""
    terms = [(c, PauliString.from_label(label)) for c, label in pairs]
    return PauliSum(terms[0][1].n, terms)


def write_state(state, path):
    """Write the state file load_state reads: a 4-byte little-endian qubit
    count, then row-major (re, im) float64 pairs."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", state.n))
        interleaved = np.empty(2 * state.data.size, dtype="<f8")
        interleaved[0::2] = state.data.real.ravel()
        interleaved[1::2] = state.data.imag.ravel()
        fh.write(interleaved.tobytes())


def generic_path_calls(monkeypatch):
    """Counter of the calls to states.tensor_append, partial_trace and
    apply_swap, the joint-register steps that execution never takes: every
    run is Kraus windows on the system plus one env."""
    calls = Counter()
    for name in ("tensor_append", "partial_trace", "apply_swap"):
        real = getattr(states, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(states, name, counted)
    return calls


def per_run_program_calls(monkeypatch):
    """Counter of the calls to CircuitProgram.validate and count_resources
    (under every name the package binds it to), the per-program work that
    building and pricing a program costs: a walk over all its windows. An
    estimate validates its one skeleton and prices its plan with
    expected_resources, so it never calls count_resources."""
    calls = Counter()
    real_validate = circuits.CircuitProgram.validate
    real_count = circuits.count_resources

    def validate(self):
        calls["validate"] += 1
        return real_validate(self)

    def count_resources(program):
        calls["count_resources"] += 1
        return real_count(program)

    monkeypatch.setattr(circuits.CircuitProgram, "validate", validate)
    for module in (collidesim, circuits):
        monkeypatch.setattr(module, "count_resources", count_resources)
    return calls
