"""Dense register references for circuit programs, kept apart from the package.

execute_register runs a program on one matrix holding the whole register:
the ancilla (when the program declares one) on the most significant qubit,
the system next, and active env slots below in order of preparation. Every
gate is a full-register matrix built with np.kron; a controlled gate is the
block-diagonal |p><p| (x) U + |1-p><1-p| (x) I on [control] + targets, a
trace is a partial trace and a swap a product of two-qubit swaps.

count_items prices a program by walking each fragment's items, `step`
repeated `steps` times, with the cost rule of the circuits module docstring.
"""

import numpy as np

from collidesim.circuits import ANCILLA, PREP_CNOTS, SWAP_CNOTS_PER_QUBIT

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


def execute_register(program, rho_system, env_preparers=None):
    """The program's final register: ancilla (+) system, or the system alone."""
    head = 1 if program.ancilla else 0
    plus = np.full((2, 2), 0.5)
    rho = np.kron(plus, rho_system.data) if program.ancilla else rho_system.data.copy()
    n = head + program.n_system
    active = []

    def phys(vid):
        if vid == ANCILLA:
            return 0
        if vid < program.n_system:
            return head + vid
        slot = program._slot_of(vid)
        base = head + program.n_system
        for s in active:
            if s == slot:
                break
            base += program.env_widths[s]
        return base + vid - program.slot_base(slot)

    def slot_qubits(slot):
        return [phys(v) for v in program.slot_qubits(slot)]

    for op in program.ops:
        if op.kind == "prepare":
            key = op.slot if op.prep is None else op.prep
            rho = np.kron(rho, env_preparers[key]().data)
            n += program.env_widths[op.slot]
            active.append(op.slot)
            continue
        if op.kind == "trace":
            qubits = slot_qubits(op.slot)
            rho = partial_trace(rho, qubits, n)
            n -= len(qubits)
            active.remove(op.slot)
            continue
        if op.kind == "swap":
            g = np.eye(1 << n)
            for qa, qb in zip(slot_qubits(op.slots[0]), slot_qubits(op.slots[1])):
                g = embed(_SWAP, (qa, qb), n) @ g
        else:  # fragment
            u = np.eye(1 << len(op.targets))
            for axis, angle in op.step * op.steps:
                u = gate_dense(axis, angle) @ u
            qubits = [phys(v) for v in op.targets]
            if op.control is not None:
                u = controlled(u, op.polarity)
                qubits = [phys(op.control)] + qubits
            g = embed(u, qubits, n)
        rho = g @ rho @ g.conj().T
    return rho


def count_items(program):
    """(cnot, rotation, pauli_gate, depth_proxy, env_preps) by an item walk."""
    cnot = rot = paulis = preps = 0
    for op in program.ops:
        if op.kind == "prepare":
            cnot += PREP_CNOTS
            preps += 1
        elif op.kind == "swap":
            cnot += SWAP_CNOTS_PER_QUBIT * program.env_widths[op.slots[0]]
        elif op.kind == "fragment":
            ctl = op.control is not None
            for axis, angle in op.step * op.steps:
                if angle is None:
                    paulis += 1
                    cnot += axis.weight if ctl else 0
                elif axis.weight:
                    cnot += 2 * (axis.weight - 1) + 2 * ctl
                    rot += 1 + ctl
                else:
                    rot += ctl  # a controlled identity rotation is a phase kick
    return cnot, rot, paulis, cnot + rot, preps
