"""Collision-circuit intermediate representation, executor, and gate costs.

A program owns one system register, an optional single control ancilla, and
a set of environment slots that are prepared fresh, collided with, and traced
away (possibly several times per slot). Virtual qubit ids are static:

    ancilla          -1 (only when the program declares one)
    system qubit q   q
    env slot s, k    n_system + sum(widths of slots < s) + k

Physically the ancilla is the most significant qubit, the system follows,
and active env slots stack below in order of preparation, so a freshly
prepared slot always lands on the least significant qubits.

Every collision of every backend is one `fragment` op on the collision's
n+w targets: a one-step schedule of items repeated `steps` times, where an
item is a rotation (bare axis, angle) or a Pauli word (word, None) with its
phase. With a control the fragment acts only where the ancilla reads
`polarity`. It executes as a single dense conjugation: the step unitary is
built by hamsim.rotations_dense on the targets alone, raised to `steps`, and
embedded block-diagonally on [control] + targets when controlled. Product
formulas repeat their fragments across collisions and runs, so their unitary
is memoized (hamsim.step_unitary); a `sampled` fragment (one qDRIFT or LCU
draw) is built once for its run and never memoized. validate, describe and
count_resources treat a fragment as its expanded gate list: the rotation,
crotation, pauli and cpauli kinds, which stay as that reference form and
execute gate by gate, but which no compiler emits.

CNOT accounting: a weight-w Pauli-axis rotation costs 2(w-1) CNOTs via the
usual parity staircase, its controlled version adds 2 (controlled-Rz = 2
CNOTs + 2 Rz), a controlled weight-w Pauli word costs w, a controlled phase
costs 0, a register swap costs SWAP_CNOTS_PER_QUBIT = 3 per qubit pair, and
an env preparation costs a flat PREP_CNOTS = 2 (thermal qubit
purification). depth_proxy is cnot_count + rotation_count: sequential
layers, no parallelism credit.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import states
from .hamsim import rotations_dense, step_unitary
from .pauli import PauliString

ANCILLA = -1
PREP_CNOTS = 2  # one env preparation
SWAP_CNOTS_PER_QUBIT = 3  # one qubit pair of a register swap

_KINDS = ("pauli", "rotation", "cpauli", "crotation", "fragment", "swap", "prepare", "trace")


@dataclass(frozen=True)
class GateOp:
    kind: str
    axis: PauliString | None = None
    angle: float = 0.0
    targets: tuple = ()
    control: int | None = None
    polarity: int = 1
    slot: int | None = None
    slots: tuple | None = None
    prep: int | None = None  # preparer key for prepare ops (defaults to slot)
    step: tuple = ()  # fragment ops: one step of (bare axis, angle) | (word, None), in order
    steps: int = 1  # fragment ops: repetitions of the step
    sampled: bool = False  # fragment ops: one random draw, never memoized

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")

    def describe(self):
        def q(v):
            return "anc" if v == ANCILLA else str(v)

        ts = ",".join(q(t) for t in self.targets)
        if self.kind == "pauli":
            return f"pauli {self.axis.label()} on [{ts}]"
        if self.kind == "rotation":
            return f"rot {self.axis.label()} angle {self.angle!r} on [{ts}]"
        if self.kind == "cpauli":
            return f"cpauli({q(self.control)}={self.polarity}) {self.axis.label()} on [{ts}]"
        if self.kind == "crotation":
            return (
                f"crot({q(self.control)}={self.polarity}) {self.axis.label()} "
                f"angle {self.angle!r} on [{ts}]"
            )
        if self.kind == "fragment":
            items = ", ".join(
                axis.label() if angle is None else f"{axis.label()} {angle!r}"
                for axis, angle in self.step
            )
            head = "fragment"
            if self.control is not None:
                head = f"cfragment({q(self.control)}={self.polarity})"
            return f"{head} {self.steps} x [{items}] on [{ts}]"
        if self.kind == "swap":
            return f"swap slots {self.slots[0]}<->{self.slots[1]}"
        if self.kind == "prepare":
            return f"prepare slot {self.slot}"
        return f"trace slot {self.slot}"


def pauli_op(axis, targets, control=None, polarity=1):
    kind = "pauli" if control is None else "cpauli"
    return GateOp(kind, axis=axis, targets=tuple(targets), control=control, polarity=polarity)


def rotation_op(axis, angle, targets, control=None, polarity=1):
    kind = "rotation" if control is None else "crotation"
    return GateOp(
        kind, axis=axis, angle=float(angle), targets=tuple(targets), control=control, polarity=polarity
    )


def fragment_op(step, steps, targets, control=None, polarity=1, sampled=False):
    """`steps` repetitions of a one-step schedule of (bare axis, angle) and
    (word, None) items, optionally controlled; `sampled` marks one random draw."""
    return GateOp(
        "fragment",
        targets=tuple(targets),
        control=control,
        polarity=polarity,
        step=tuple(step),
        steps=int(steps),
        sampled=sampled,
    )


def expand_fragments(program):
    """The program with every fragment spelled out as its reference gates:
    the step's rotation and Pauli-word ops (controlled like the fragment),
    repeated `steps` times. Same effect and same costs, executed gate by gate."""
    ops = []
    for op in program.ops:
        if op.kind != "fragment":
            ops.append(op)
            continue
        for axis, angle in op.step * op.steps:
            if angle is None:
                ops.append(pauli_op(axis, op.targets, op.control, op.polarity))
            else:
                ops.append(rotation_op(axis, angle, op.targets, op.control, op.polarity))
    return replace(program, ops=tuple(ops))


@dataclass(frozen=True)
class CircuitProgram:
    n_system: int
    ancilla: bool = False
    env_widths: tuple = ()
    ops: tuple = ()

    def __post_init__(self):
        self.validate()

    def slot_base(self, slot):
        return self.n_system + sum(self.env_widths[:slot])

    def slot_qubits(self, slot):
        base = self.slot_base(slot)
        return tuple(range(base, base + self.env_widths[slot]))

    def validate(self):
        n_ids = self.n_system + sum(self.env_widths)
        active = set()
        for op in self.ops:
            if op.kind == "prepare":
                if op.slot in active:
                    raise ValueError(f"slot {op.slot} prepared while active")
                if not 0 <= op.slot < len(self.env_widths):
                    raise ValueError(f"unknown slot {op.slot}")
                active.add(op.slot)
            elif op.kind == "trace":
                if op.slot not in active:
                    raise ValueError(f"slot {op.slot} traced while inactive")
                active.discard(op.slot)
            elif op.kind == "swap":
                a, b = op.slots
                if a == b or a not in active or b not in active:
                    raise ValueError(f"swap needs two distinct active slots, got {op.slots}")
                if self.env_widths[a] != self.env_widths[b]:
                    raise ValueError("swap needs equal slot widths")
            else:
                ids = set(op.targets)
                if op.control is not None:
                    if op.control in ids:
                        raise ValueError("control overlaps targets")
                    ids.add(op.control)
                for v in ids:
                    if v == ANCILLA:
                        if not self.ancilla:
                            raise ValueError("op touches a missing ancilla")
                    elif not 0 <= v < n_ids:
                        raise ValueError(f"virtual qubit {v} out of range")
                    elif v >= self.n_system:
                        slot = self._slot_of(v)
                        if slot not in active:
                            raise ValueError(f"op touches inactive slot {slot}")
                if op.axis is not None and op.axis.n != len(op.targets):
                    raise ValueError("axis width != target count")
                if op.kind == "fragment":
                    if op.steps < 1 or not op.step:
                        raise ValueError("fragment needs a non-empty step and steps >= 1")
                    if op.sampled and op.steps != 1:
                        raise ValueError("a sampled fragment is one draw: steps must be 1")
                    width = len(op.targets)
                    for axis, angle in op.step:
                        if axis.n != width:
                            raise ValueError("axis width != target count")
                        if angle is not None and axis.phase_exp != 0:
                            raise ValueError("fragment rotation axes must have phase +1")
        if active:
            raise ValueError(f"slots never traced: {sorted(active)}")

    def _slot_of(self, vid):
        off = vid - self.n_system
        for s, w in enumerate(self.env_widths):
            if off < w:
                return s
            off -= w
        raise ValueError(f"virtual qubit {vid} beyond declared slots")

    def describe(self):
        head = (
            f"program system={self.n_system} ancilla={int(self.ancilla)} "
            f"slots={list(self.env_widths)}"
        )
        return "\n".join([head, *(op.describe() for op in self.ops)])


def execute(program, rho_system, env_preparers=None):
    """Run the program and return the final ancilla(+)system state.

    env_preparers maps slot id to a zero-argument callable producing that
    slot's fresh state; required whenever the program prepares slots.
    """
    if rho_system.n != program.n_system:
        raise ValueError("system state width mismatch")
    if program.ancilla:
        state = states.tensor_append(states.DensityMatrix.plus(), rho_system)
    else:
        state = rho_system.copy()
    head = 1 if program.ancilla else 0
    active = []  # slot ids in preparation order

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
        return base + (vid - program.slot_base(slot))

    for op in program.ops:
        if op.kind == "prepare":
            key = op.slot if op.prep is None else op.prep
            fresh = env_preparers[key]()
            if fresh.n != program.env_widths[op.slot]:
                raise ValueError(f"slot {op.slot} preparer has wrong width")
            states.tensor_append(state, fresh)
            active.append(op.slot)
        elif op.kind == "trace":
            qubits = [phys(v) for v in _slot_vids(program, op.slot)]
            states.partial_trace(state, qubits)
            active.remove(op.slot)
        elif op.kind == "swap":
            a, b = op.slots
            states.apply_swap(
                state,
                [phys(v) for v in _slot_vids(program, a)],
                [phys(v) for v in _slot_vids(program, b)],
            )
        elif op.kind == "fragment":
            qubits = [phys(v) for v in op.targets]
            if op.sampled:
                u = rotations_dense(op.step, len(qubits))
            else:
                u = step_unitary(op.step, op.steps)
            if op.control is not None:
                u = _controlled(u, op.polarity)
                qubits.insert(0, phys(op.control))
            states.apply_unitary(state, u, qubits)
        elif op.kind in ("pauli", "cpauli"):
            states.apply_pauli(
                state,
                op.axis,
                [phys(v) for v in op.targets],
                control=None if op.control is None else phys(op.control),
                polarity=op.polarity,
            )
        else:
            states.apply_pauli_rotation(
                state,
                op.axis,
                op.angle,
                [phys(v) for v in op.targets],
                control=None if op.control is None else phys(op.control),
                polarity=op.polarity,
            )
    return state


def _controlled(u, polarity):
    """Block-diagonal unitary on [control] + targets: u where the control
    reads polarity, identity where it does not."""
    dim = u.shape[0]
    out = np.zeros((2 * dim, 2 * dim), dtype=np.complex128)
    on, off = (dim, 0) if polarity else (0, dim)
    out[on : on + dim, on : on + dim] = u
    out.reshape(-1)[:: 2 * dim + 1][off : off + dim] = 1.0
    return out


def _slot_vids(program, slot):
    base = program.slot_base(slot)
    return range(base, base + program.env_widths[slot])


@dataclass(frozen=True)
class ResourceReport:
    cnot_count: int = 0
    rotation_count: int = 0
    pauli_gate_count: int = 0
    depth_proxy: int = 0
    env_preps: int = 0

    def __add__(self, other):
        return ResourceReport(
            self.cnot_count + other.cnot_count,
            self.rotation_count + other.rotation_count,
            self.pauli_gate_count + other.pauli_gate_count,
            self.depth_proxy + other.depth_proxy,
            self.env_preps + other.env_preps,
        )

    FIELDS = ("cnot_count", "rotation_count", "pauli_gate_count", "depth_proxy", "env_preps")

    def as_tuple(self):
        return tuple(getattr(self, f) for f in self.FIELDS)


@lru_cache(maxsize=4096)
def _gate_cost(axis, rotation, controlled):
    """(cnots, rotations, Pauli gates) of one rotation or Pauli-word gate."""
    w = axis.weight
    if not rotation:
        return (w if controlled else 0), 0, 1
    if w == 0:
        return 0, int(controlled), 0  # a controlled identity rotation is a phase kick
    return 2 * (w - 1) + 2 * controlled, 1 + controlled, 0


def count_resources(program):
    """Gate costs of the program; a fragment counts as its expanded gate list."""
    cnot = rot = paulis = preps = 0
    for op in program.ops:
        if op.kind == "fragment":
            gates, reps = op.step, op.steps
        elif op.kind in ("rotation", "crotation"):
            gates, reps = ((op.axis, op.angle),), 1
        elif op.kind in ("pauli", "cpauli"):
            gates, reps = ((op.axis, None),), 1
        else:
            if op.kind == "swap":
                cnot += SWAP_CNOTS_PER_QUBIT * program.env_widths[op.slots[0]]
            elif op.kind == "prepare":
                cnot += PREP_CNOTS
                preps += 1
            continue
        controlled = op.control is not None
        for axis, angle in gates:
            c, r, p = _gate_cost(axis, angle is not None, controlled)
            cnot += reps * c
            rot += reps * r
            paulis += reps * p
    return ResourceReport(cnot, rot, paulis, cnot + rot, preps)
