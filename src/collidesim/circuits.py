"""Collision-circuit intermediate representation, executor, and gate costs.

A program owns one system register, an optional single control ancilla, and
a set of environment slots that are prepared fresh, collided with, and traced
away (possibly several times per slot). At most two slots are live at
once, and a fragment acts while at most one is, so its live register is
the system, then that slot on the least significant qubits.

One rule is the program grammar: a fragment's table acts on the whole live
register. Its `step` is a hamsim.RotationTable of items, rotations (bare
axis, angle) and Pauli words (word, None) with their phase, as wide as the
live register. A product-formula fragment applies its table in order,
`steps` times. A sampled fragment (one qDRIFT or LCU draw) adds `picks`, the
indices of the drawn items in order, applied once. A fragment with a
`polarity` in {0, 1} is controlled by the ancilla and acts only where the
ancilla reads that value; `polarity` None is uncontrolled. Besides fragments
a program holds only the `prepare`, `trace` and `swap` ops of its env slots,
so the circuit IR has four op kinds. A table checks its entries as they
enter it, and validation its width and the picks.

The ancilla is not a register: execute evolves the system-sized blocks
rho_ab of the ancilla (+) system state (a, b the ancilla values), and a
controlled fragment multiplies a block on the side(s) whose ancilla value
matches its polarity.

Execution. CircuitProgram.validate is the one walk of this grammar: it
checks a program and records its Kraus windows, each (the index of the
prepare whose env it collides, None while no slot is live; of the swap that
carries the previous window's env into it, None at a cut; of its
fragments). A window opens at a `prepare` while no env slot is live and
collects the fragments that follow. With the env state's eigen-columns
E = [sqrt(p_b) e_b], the window's fragments that act on one side of a
block are applied to I (x) E (states.kraus_start), giving V = U (I x E),
whose d_s x d_s blocks are the Kraus operators
K_ab = (I x <a|) U (I x sqrt(p_b) |e_b>); a block then becomes
sum_k L_k rho R_k† through states.apply_kraus, the exact maps' kernel. A
sampled fragment is built by hamsim.rotations_dense on the d_s * rank(E)
columns of V alone, a product-formula one is its step unitary
(hamsim.step_unitary) times V. Between collisions on two slots a and b
sits a cut or a carry. A cut, `prepare b; trace a`, traces the collided
env: the open window is applied and the next starts from I (x) E of b's
fresh state. A carry, `prepare b; swap(a, b); trace a`, hands the collided
env on to b: V is kept and the next collision's fragments multiply it.
Fragments while no slot is live form a one-operator window from the
identity. A program that validates is one that executes.

Skeletons. Every run, of execute or of an estimate, is a Skeleton's: the
template program with its sampled fragments' picks and its partial swaps
left open, one draw function per open op, and the env preparers bound. It
reads the template's windows and binds once what no run changes, and a
run draws the open ops in op order with its own generator and runs that
draw with no program of its own: an open swap is a cut or a carry by the
draw. A sampled fragment is built once for its run and never memoized,
but its table keeps each entry's action across the draws of an estimate.

CNOT accounting: a fragment costs `steps` times the sum of its items; a
sampled one prices each table entry once and weights it by its pick count,
and a skeleton's runs pool their pick counts per table, so the table is
priced once per block of runs. A
weight-w Pauli-axis rotation costs 2(w-1) CNOTs via the usual parity
staircase, its controlled version adds 2 (controlled-Rz = 2 CNOTs + 2 Rz),
a controlled weight-w Pauli word costs w, a controlled phase costs 0, a
register swap costs SWAP_CNOTS_PER_QUBIT = 3 per qubit pair, and an env
preparation costs a flat PREP_CNOTS = 2 (thermal qubit purification).
depth_proxy is cnot_count + rotation_count: sequential layers, no
parallelism credit.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import states
from ._limits import check_dense
from .hamsim import RotationTable, rotations_dense, step_unitary

PREP_CNOTS = 2  # one env preparation
SWAP_CNOTS_PER_QUBIT = 3  # one qubit pair of a register swap

_KINDS = ("fragment", "swap", "prepare", "trace")


@dataclass(frozen=True)
class GateOp:
    kind: str
    polarity: int | None = None  # fragment ops: the ancilla value it acts at;
    # None for an uncontrolled fragment
    slot: int | None = None
    slots: tuple | None = None
    prep: int | None = None  # preparer key for prepare ops (defaults to slot)
    step: RotationTable | None = None  # fragment ops: the items applied in order
    # on the whole live register, or the table a sampled fragment picks from
    steps: int = 1  # fragment ops: repetitions of the step
    picks: tuple | None = None  # sampled fragments: indices into `step`, in order

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")


def fragment_op(step, steps, polarity=None, picks=None):
    """`steps` repetitions of a one-step schedule of (bare axis, angle) and
    (word, None) items on the whole live register, controlled by the ancilla
    when `polarity` is 0 or 1. With `picks`, one random draw: step[picks[0]],
    step[picks[1]], ... applied once, never memoized. A hand-built item list
    becomes a RotationTable as wide as its items."""
    if not isinstance(step, RotationTable):
        items = tuple(step)
        step = RotationTable(items[0][0].n if items else 0, items)
    return GateOp(
        "fragment",
        polarity=polarity,
        step=step,
        steps=int(steps),
        picks=None if picks is None else tuple(picks),
    )


@dataclass(frozen=True)
class CircuitProgram:
    n_system: int
    ancilla: bool = False
    env_widths: tuple = ()
    ops: tuple = ()
    windows: tuple = field(init=False, repr=False, compare=False)  # validate's record

    def __post_init__(self):
        object.__setattr__(self, "windows", self.validate())

    def validate(self):
        """Accept exactly the programs Skeleton.run executes and return their
        Kraus windows in op order (module docstring). At most two env slots
        are live: the one the open window collides and a fresh one prepared
        after it. A fragment acts while at most one slot is live, and a swap
        sits only in `prepare b; swap(a, b); trace a`, with a the older
        slot. An empty window is dropped unless a carry follows it."""
        live = {}  # active slot -> its prepare's index, in order of preparation
        width = self.n_system  # the live register's width
        ops = self.ops
        windows = [(None, None, [])]
        for i, op in enumerate(ops):
            if op.kind == "prepare":
                if not 0 <= op.slot < len(self.env_widths):
                    raise ValueError(f"unknown slot {op.slot}")
                if op.slot in live:
                    raise ValueError(f"slot {op.slot} prepared while active")
                if len(live) == 2:
                    raise ValueError(f"slot {op.slot} prepared while slots {list(live)} are live")
                if not live:
                    windows.append((i, None, []))
                live[op.slot] = i
                width += self.env_widths[op.slot]
            elif op.kind == "trace":
                if op.slot not in live:
                    raise ValueError(f"slot {op.slot} traced while inactive")
                older = op.slot == next(iter(live))
                del live[op.slot]
                width -= self.env_widths[op.slot]
                if not live:
                    windows.append((None, None, []))
                elif older:  # the collided env goes, or a swap handed it on
                    [fresh] = live.values()
                    windows.append((fresh, i - 1 if ops[i - 1].kind == "swap" else None, []))
            elif op.kind == "swap":
                a, b = op.slots
                around = [(o.kind, o.slot) for o in ops[max(i - 1, 0) : i + 2]]
                if list(live) != [a, b] or around != [("prepare", b), ("swap", None), ("trace", a)]:
                    raise ValueError(f"swap {op.slots} outside prepare b; swap(a, b); trace a")
                if self.env_widths[a] != self.env_widths[b]:
                    raise ValueError("swap needs equal slot widths")
            else:  # fragment
                if len(live) == 2:
                    raise ValueError(f"fragment while slots {list(live)} are live")
                if op.polarity is not None and (not self.ancilla or op.polarity not in (0, 1)):
                    raise ValueError("a polarity is 0 or 1 and needs the ancilla")
                if op.steps < 1 or not op.step:
                    raise ValueError("fragment needs a non-empty step and steps >= 1")
                if op.picks is not None:
                    if op.steps != 1:
                        raise ValueError("a sampled fragment is one draw: steps must be 1")
                    if not op.picks or min(op.picks) < 0 or max(op.picks) >= len(op.step):
                        raise ValueError("a sampled fragment needs picks in range(len(step))")
                if op.step.n != width:  # entries checked as they entered
                    raise ValueError(f"fragment width {op.step.n} != live register width {width}")
                windows[-1][2].append(i)
        if live:
            raise ValueError(f"slots never traced: {sorted(live)}")
        carried = [swap is not None for _, swap, _ in windows[1:]] + [False]
        return tuple((prepare, swap, tuple(frags))
                     for (prepare, swap, frags), kept in zip(windows, carried) if frags or kept)


ANCILLA_BLOCKS = ((0, 0), (1, 1), (1, 0))  # what a shot readout of the joined state needs


def execute(program, rho_system, env_preparers=None, blocks=None):
    """Run the program; return the final system state, or for an ancilla
    program a dict of the final blocks rho_ab of the ancilla (+) system state.

    env_preparers maps each prepare's key (its `prep`, else its slot) to a
    zero-argument callable producing that slot's fresh state; required
    whenever the program prepares slots.

    An ancilla program never holds the ancilla: it evolves the d x d blocks
    rho_ab (a, b the ancilla values) listed in `blocks`, default
    ANCILLA_BLOCKS, from |+><+| (x) rho, whose blocks are all rho/2. A
    fragment with polarity p acts on the row side of rho_ab when a == p and
    on the column side when b == p; an uncontrolled one acts on both sides
    of every block, and prepare and trace act on each block. rho_10 alone
    gives Tr[(sigma^x (x) O) rho] = 2 Re Tr[O rho_10].

    The program runs as a Skeleton with no open op, its windows on each
    block. A preparer of the wrong width is a ValueError, a system and env
    register past the dense limit a DenseLimitError, and an env state with
    an eigenvalue below -1e-12 a NumericalError, as in the exact map.
    """
    return Skeleton(program, (), env_preparers).run((), rho_system, blocks)


def _registers(program, rho_system, blocks):
    """The registers a run evolves: {None: rho}, or the ancilla blocks
    {(a, b): rho/2} named in `blocks` (default ANCILLA_BLOCKS)."""
    if rho_system.n != program.n_system:
        raise ValueError("system state width mismatch")
    if program.ancilla:
        keys = ANCILLA_BLOCKS if blocks is None else tuple(blocks)
        half = states.DensityMatrix(0.5 * rho_system.data, check=False)
        return {key: half.copy() for key in keys}
    if blocks is not None:
        raise ValueError("blocks apply only to a program with an ancilla")
    return {None: rho_system.copy()}


def _run_window(start, frags, draw, n_system, regs):
    """Run one Kraus window, its fragments given as (op, unitary, draw
    position), on every block. The window's fragments that act on ancilla
    value v (all of them without an ancilla), applied to `start` = I (x) E
    (the identity while no env is live), give V_v = U_v (I x E), whose
    d_s x d_s blocks are the Kraus operators
    of that side; block rho_ab becomes sum_k L_k rho_ab R_k† with L_k from
    V_a and R_k from V_b."""
    ds = 1 << n_system
    shape = (ds, start.shape[0] // ds, ds, start.shape[1] // ds)
    products, stacked, adjoints = {}, {}, {}

    def product(v):
        if v not in products:
            out = start
            for frag in frags:
                op = frag[0]
                if op.polarity is None or op.polarity == v:
                    out = _unitary(frag, draw, out)
            products[v] = out.reshape(shape)
        return products[v]

    for key, reg in regs.items():
        row, col = (None, None) if key is None else key
        if row not in stacked:
            stacked[row] = states.kraus_stacked(product(row))
        if col not in adjoints:
            adjoints[col] = states.kraus_adjoints(product(col))
        reg.data = states.apply_kraus(reg.data, stacked[row], adjoints[col])


def _unitary(frag, draw, start):
    """The dense unitary on the live register of a fragment given as (op,
    unitary, draw position), times the d x c `start`: the unitary of a closed
    product-formula fragment, or a sampled one built on those columns alone
    from its picks, the op's own or the draw's at that position."""
    op, u, pos = frag
    if u is None:
        picks = op.picks if pos is None else draw[pos]
        return rotations_dense(op.step, picks, start)
    return u @ start


class Skeleton:
    """A program with its draws left open, built and validated once and run
    once per draw.

    `template` is a CircuitProgram holding every op. The ops that `draws`
    names are open: a sampled fragment there has no picks of its own (its
    step is the RotationTable they index) and a swap there is kept or
    dropped per run. `draws` pairs each open op's index, in op order, with
    a function of the run's generator giving that fragment's picks or
    whether that swap is kept; draw() calls them in that order, so a run
    consumes its generator as emitting the program op by op would, and
    fill(draw) is that program. tally() prices runs from pooled pick counts.

    `env_preparers` maps each prepare's key to its preparer, as execute
    takes them. Before its first run a skeleton binds to the template's
    windows what no run changes: each window's start I (x) E (one preparer
    call and one eigh per prep key), each closed fragment's unitary, the
    draw positions, and a closed swap's carry, which joins two windows. A
    run reads only its draw, where a kept open swap carries the open window
    on and a dropped one cuts it, and does the arithmetic.
    """

    def __init__(self, template, draws, env_preparers=None):
        self.template = template
        self.draws = tuple(draws)
        self.env_preparers = env_preparers
        self._windows = None  # worked out at the first run

    @property
    def ancilla(self):
        return self.template.ancilla

    def draw(self, rng):
        """One value per open op, in op order: picks, or whether a swap is kept."""
        return tuple(make(rng) for _, make in self.draws)

    def fill(self, draw):
        """The program of one draw; a template with no open op is its own."""
        if not self.draws:
            return self.template
        ops = list(self.template.ops)
        for (index, _), value in zip(self.draws, draw):
            op = ops[index]
            if op.kind == "fragment":
                ops[index] = replace(op, picks=tuple(value))
            elif not value:
                ops[index] = None
        t = self.template
        return CircuitProgram(
            t.n_system, t.ancilla, t.env_widths, tuple(op for op in ops if op is not None)
        )

    def run(self, draw, rho_system, blocks=None):
        """The final state of one draw, as execute(self.fill(draw), ...) gives it."""
        t = self.template
        regs = _registers(t, rho_system, blocks)
        if self._windows is None:
            self._windows = self._compile()
        start, frags = None, ()
        for next_start, pos, next_frags in self._windows:
            if pos is not None and draw[pos]:  # a kept swap carries the env on
                frags += next_frags
                continue
            if frags:
                _run_window(start, frags, draw, t.n_system, regs)
            start, frags = next_start, next_frags
        if frags:
            _run_window(start, frags, draw, t.n_system, regs)
        return regs if t.ancilla else regs[None]

    def _compile(self):
        """A run's windows in op order, each (start, pos, frags): the start
        I (x) E of the env it collides, or the identity while no slot is
        live; the draw position of the open swap that carries the previous
        window's env into it instead, else None; and its fragments, each
        (op, its unitary if closed and product formula, pos), pos the op's
        draw position, None when closed. They are the template's windows
        (CircuitProgram.validate), with a closed swap's carry joining a
        window's fragments to the one before it."""
        t = self.template
        ops, n = t.ops, t.n_system
        position = {index: pos for pos, (index, _) in enumerate(self.draws)}
        fresh, starts = {}, {}  # per prep key: the fresh state, its I (x) E
        bare = np.eye(1 << n, dtype=np.complex128)  # the start while no slot is live
        bare.setflags(write=False)
        windows = []
        for prepare, swap, indices in t.windows:
            start = bare
            if prepare is not None:
                op = ops[prepare]
                key = op.slot if op.prep is None else op.prep
                if key not in fresh:
                    fresh[key] = self.env_preparers[key]()
                if fresh[key].n != t.env_widths[op.slot]:
                    raise ValueError(f"slot {op.slot} preparer has wrong width")
                if key not in starts:
                    check_dense(n + fresh[key].n)
                    starts[key] = states.kraus_start(n, fresh[key].data)
                start = starts[key]
            frags = []
            for i in indices:
                op = ops[i]
                closed = op.picks is None and i not in position
                frags.append((op, step_unitary(op.step, op.steps) if closed else None, position.get(i)))
            if swap is not None and swap not in position:  # a closed swap's carry
                windows[-1][2].extend(frags)
            else:
                windows.append((start, position.get(swap), frags))
        return tuple((start, pos, tuple(frags)) for start, pos, frags in windows)

    def tally(self):
        return _Tally(self)


_POOL = 1 << 16  # picks a _Pool holds before it counts them


class _Pool:
    """The picks of one table's fragments that share a control flag, counted
    per entry with np.bincount every _POOL picks."""

    def __init__(self, table, controlled):
        self.table = table
        self.controlled = controlled
        self.pending = []
        self.counts = np.zeros(0, dtype=np.int64)

    def add(self, picks):
        self.pending.extend(picks)
        if len(self.pending) >= _POOL:
            self.count()

    def count(self):
        counts = np.bincount(np.array(self.pending, dtype=np.intp), minlength=len(self.table))
        counts[: len(self.counts)] += self.counts  # the table only grows
        self.counts = counts
        self.pending.clear()

    def cost(self):
        """(cnots, rotations, Pauli gates) of every pick so far."""
        self.count()
        return self.counts @ _entry_costs(self.table, self.controlled)


class _Tally:
    """Summed gate costs of a skeleton's runs: its closed ops priced once and
    counted per run, each table's picks pooled and priced per entry, and
    each kept swap at its slot width. The sums are integers, so they equal
    the sum of count_resources over the filled programs."""

    def __init__(self, skeleton):
        template = skeleton.template
        open_ops = {index for index, _ in skeleton.draws}
        closed = [op for i, op in enumerate(template.ops) if i not in open_ops]
        self.fixed = _ops_cost(closed, template.env_widths)
        self.runs = 0
        self.swap_cnots = 0
        pools = {}
        self.sinks = []  # per open op: its pool, or the CNOTs of the swap
        for index, _ in skeleton.draws:
            op = template.ops[index]
            if op.kind == "fragment":
                key = (id(op.step), op.polarity is not None)
                if key not in pools:
                    pools[key] = _Pool(op.step, key[1])
                self.sinks.append(pools[key])
            else:
                self.sinks.append(SWAP_CNOTS_PER_QUBIT * template.env_widths[op.slots[0]])
        self.pools = tuple(pools.values())

    def add(self, draw):
        self.runs += 1
        for sink, value in zip(self.sinks, draw):
            if isinstance(sink, _Pool):
                sink.add(value)
            elif value:
                self.swap_cnots += sink

    def report(self):
        """The summed ResourceReport of the runs added."""
        cnot, rot, paulis, preps = (self.runs * v for v in self.fixed)
        cnot += self.swap_cnots
        for pool in self.pools:
            c, r, p = pool.cost().tolist()
            cnot, rot, paulis = cnot + c, rot + r, paulis + p
        return ResourceReport(cnot, rot, paulis, cnot + rot, preps)


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


def _item_cost(item, controlled):
    """(cnots, rotations, Pauli gates) of a (bare axis, angle) or (word, None)
    item, priced from its masks' weight w: a rotation 2(w-1) CNOTs, plus 2
    CNOTs and a rotation when controlled; a controlled word w CNOTs; a
    controlled identity rotation is a phase kick."""
    axis, angle = item
    w = (axis.x | axis.z).bit_count()
    if angle is None:
        return w * controlled, 0, 1
    if w:
        return 2 * (w - 1) + 2 * controlled, 1 + controlled, 0
    return 0, int(controlled), 0


def _entry_costs(table, controlled):
    """One row (cnots, rotations, Pauli gates) per entry, as an int array,
    kept on the table until it grows."""
    rows = table.costs.get(controlled)
    if rows is None or len(rows) != len(table):
        rows = np.array([_item_cost(item, controlled) for item in table], dtype=np.int64)
        table.costs[controlled] = rows
    return rows


def _picked_cost(table, picks, controlled):
    """(cnots, rotations, Pauli gates) of the items table[picks[i]]: each
    entry priced once, weighted by its pick count."""
    rows = _entry_costs(table, controlled)
    return tuple((np.bincount(picks, minlength=len(rows)) @ rows).tolist())


def count_resources(program):
    """Gate costs of the program; a fragment costs its step's items `steps`
    times, a sampled one its picked items."""
    cnot, rot, paulis, preps = _ops_cost(program.ops, program.env_widths)
    return ResourceReport(cnot, rot, paulis, cnot + rot, preps)


def _ops_cost(ops, env_widths):
    """(cnots, rotations, Pauli gates, env preparations) of a list of ops."""
    cnot = rot = paulis = preps = 0
    for op in ops:
        if op.kind == "fragment":
            if op.picks is None:
                c, r, p = _entry_costs(op.step, op.polarity is not None).sum(axis=0).tolist()
            else:
                c, r, p = _picked_cost(op.step, op.picks, op.polarity is not None)
            cnot += op.steps * c
            rot += op.steps * r
            paulis += op.steps * p
        elif op.kind == "swap":
            cnot += SWAP_CNOTS_PER_QUBIT * env_widths[op.slots[0]]
        elif op.kind == "prepare":
            cnot += PREP_CNOTS
            preps += 1
    return cnot, rot, paulis, preps
