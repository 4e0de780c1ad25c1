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

A product-formula fragment is one op: a one-step schedule of rotations
repeated `steps` times. It executes as a single dense conjugation by the
memoized step unitary to the power `steps`, and is counted as its expanded
rotation list.

CNOT accounting (CostModel defaults): a weight-w Pauli-axis rotation costs
2(w-1) CNOTs via the usual parity staircase, its controlled version adds 2
(controlled-Rz = 2 CNOTs + 2 Rz), a controlled weight-w Pauli word costs w,
a controlled phase costs 0, a register swap costs 3 per qubit pair, and an
env preparation costs a flat 2 (thermal qubit purification). depth_proxy is
cnot_count + rotation_count: sequential layers, no parallelism credit.
"""

from dataclasses import dataclass, replace

from . import states
from .hamsim import step_unitary
from .pauli import PauliString

ANCILLA = -1

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
    step: tuple = ()  # fragment ops: one step of (bare axis, angle), in order
    steps: int = 1  # fragment ops: repetitions of the step

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
            rots = ", ".join(f"{axis.label()} {angle!r}" for axis, angle in self.step)
            return f"fragment {self.steps} x [{rots}] on [{ts}]"
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


def fragment_op(step, steps, targets):
    """`steps` repetitions of a one-step rotation schedule [(bare axis, angle)]."""
    return GateOp("fragment", targets=tuple(targets), step=tuple(step), steps=int(steps))


@dataclass(frozen=True)
class CircuitProgram:
    n_system: int
    ancilla: bool = False
    env_widths: tuple = ()
    ops: tuple = ()
    notes: tuple = ()

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
                    if any(axis.n != len(op.targets) for axis, _ in op.step):
                        raise ValueError("axis width != target count")
                    if any(axis.phase_exp != 0 for axis, _ in op.step):
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

    def with_notes(self, notes):
        return replace(self, notes=tuple(notes))


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
            states.apply_unitary(
                state, step_unitary(op.step, op.steps), [phys(v) for v in op.targets]
            )
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


def _slot_vids(program, slot):
    base = program.slot_base(slot)
    return range(base, base + program.env_widths[slot])


@dataclass(frozen=True)
class CostModel:
    prep_cnots: int = 2
    swap_cnots_per_qubit: int = 3


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


def count_resources(program, cost_model=CostModel()):
    cnot = rot = paulis = preps = 0
    for op in program.ops:
        if op.kind == "pauli":
            paulis += 1
        elif op.kind == "cpauli":
            paulis += 1
            cnot += op.axis.weight
        elif op.kind == "rotation":
            w = op.axis.weight
            if w > 0:
                cnot += 2 * (w - 1)
                rot += 1
        elif op.kind == "fragment":
            weights = [axis.weight for axis, _ in op.step]
            cnot += op.steps * sum(2 * (w - 1) for w in weights if w > 0)
            rot += op.steps * sum(1 for w in weights if w > 0)
        elif op.kind == "crotation":
            w = op.axis.weight
            if w > 0:
                cnot += 2 * (w - 1) + 2
                rot += 2
            else:
                rot += 1
        elif op.kind == "swap":
            cnot += cost_model.swap_cnots_per_qubit * program.env_widths[op.slots[0]]
        elif op.kind == "prepare":
            cnot += cost_model.prep_cnots
            preps += 1
    return ResourceReport(cnot, rot, paulis, cnot + rot, preps)
