"""Collision-circuit intermediate representation, executor, and gate costs.

A program is one system register, an optional single control ancilla, and
its Kraus windows (Window), one per collision, in order. A window prepares
a fresh environment of `width` qubits with the preparer its `prep` key
names, applies its fragments to the live register (the system, then the
env it collides on the least significant qubits) and traces one env out.
Its `carry` says which env it collides. At a cut (False) it is its own
fresh env, the previous window's having been traced. At a carry (True) the
fresh env is swapped with the previous window's collided one and traced in
its place, so the fragments act on the carried env. At most two envs of one
width are so live beside the system and the ancilla: the paper's circuit
on n + 2w qubits.

One rule is the fragment grammar: a fragment's table acts on the whole live
register. Its `step` is a hamsim.RotationTable of items, rotations (bare
axis, angle) and Pauli words (word, None) with their phase, as wide as the
live register. A product-formula fragment applies its table in order,
`steps` times. A sampled fragment (one qDRIFT or LCU draw) adds `picks`, the
indices of the drawn items in order, applied once. A fragment with a
`polarity` in {0, 1} is controlled by the ancilla and acts only where the
ancilla reads that value; `polarity` None is uncontrolled. A table checks
its entries as they enter it, and CircuitProgram.validate each window: its
fragments' width, polarity, steps and picks, and that a carry follows a
window of its own width.

The ancilla is not a register: execute evolves the system-sized blocks
rho_ab of the ancilla (+) system state (a, b the ancilla values), and a
controlled fragment multiplies a block on the side(s) whose ancilla value
matches its polarity.

Execution. With the env state's eigen-columns E = [sqrt(p_b) e_b], a
window's fragments that act on one side of a block are applied to I (x) E
(states.kraus_start), giving V = U (I x E), whose d_s x d_s blocks are the
Kraus operators K_ab = (I x <a|) U (I x sqrt(p_b) |e_b>); a block then
becomes sum_k L_k rho R_k† through states.apply_kraus, the exact maps'
kernel. A sampled fragment is built by hamsim.rotations_dense on the
d_s * rank(E) columns of V alone, a product-formula one is its step
unitary (hamsim.step_unitary) times V. A cut applies the open product and
starts the next from I (x) E of its window's fresh state; a carry keeps V,
and the next window's fragments multiply it. A program that validates is
one that executes.

Skeletons. Every run, of execute or of an estimate, is a Skeleton's: the
template program with its sampled fragments' picks and its partial swaps'
carries left open, one draw function per open part, and the env preparers
bound. It binds once what no run changes, and a run draws the open parts in
window order (a window's carry, then its fragments) with its own generator
and runs that draw with no program of its own: an open carry is kept or
cut by the draw. A sampled fragment is built once for its run and never
memoized, but its table keeps each entry's action across the draws of an
estimate.

CNOT accounting (count_resources): a fragment costs `steps` times the sum
of its items; a sampled one prices each table entry once and weights it by
its pick count. An estimate counts no run's gates: it reports the expected
price of its plan (collisions.expected_resources), priced by the same item
rules. A weight-w Pauli-axis rotation costs 2(w-1) CNOTs via the usual parity
staircase, its controlled version adds 2 (controlled-Rz = 2 CNOTs + 2 Rz),
a controlled weight-w Pauli word costs w, a controlled phase costs 0, a
window's env preparation costs a flat PREP_CNOTS = 2 (thermal qubit
purification), and a carry's register swap SWAP_CNOTS_PER_QUBIT = 3 per
qubit pair. depth_proxy is cnot_count + rotation_count: sequential layers,
no parallelism credit.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import states
from ._limits import check_dense
from .hamsim import RotationTable, rotations_dense, step_unitary

PREP_CNOTS = 2  # one env preparation
SWAP_CNOTS_PER_QUBIT = 3  # one qubit pair of a register swap


@dataclass(frozen=True)
class Fragment:
    """`steps` repetitions of a one-step schedule `step` of (bare axis,
    angle) and (word, None) items on the whole live register, controlled by
    the ancilla when `polarity` is 0 or 1 (None: uncontrolled). With
    `picks`, one random draw: step[picks[0]], step[picks[1]], ... applied
    once, never memoized. A hand-built item list becomes a RotationTable as
    wide as its items."""

    step: RotationTable
    steps: int = 1
    polarity: int | None = None
    picks: tuple | None = None  # sampled fragments: indices into `step`, in order

    def __post_init__(self):
        if not isinstance(self.step, RotationTable):
            items = tuple(self.step)
            object.__setattr__(self, "step", RotationTable(items[0][0].n if items else 0, items))
        object.__setattr__(self, "steps", int(self.steps))
        if self.picks is not None:
            object.__setattr__(self, "picks", tuple(np.asarray(self.picks).tolist()))


@dataclass(frozen=True)
class Window:
    """One collision: a fresh env of `width` qubits from the preparer keyed
    `prep`, and the fragments, in order, on the system and the env it
    collides; that env is the previous window's, swapped in rather than
    traced, when `carry` is True. In a skeleton's template, a carry that the
    draws name is open: each run's draw keeps it or cuts it."""

    prep: int
    width: int
    fragments: tuple = ()
    carry: bool = False


@dataclass(frozen=True)
class CircuitProgram:
    n_system: int
    ancilla: bool = False
    ops: tuple = ()  # its Windows, one per collision, in order

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Accept exactly the programs Skeleton.run executes. Per window:
        each fragment is as wide as the system and the window's env, has a
        polarity only with the ancilla, a non-empty step, steps >= 1, and a
        sampled one picks in range; a carry follows a window of its width."""
        previous = None
        for window in self.ops:
            if window.carry and (previous is None or previous.width != window.width):
                raise ValueError("a carry needs a previous window of its env width")
            width = self.n_system + window.width
            for frag in window.fragments:
                if frag.polarity is not None and (not self.ancilla or frag.polarity not in (0, 1)):
                    raise ValueError("a polarity is 0 or 1 and needs the ancilla")
                if frag.steps < 1 or not frag.step:
                    raise ValueError("fragment needs a non-empty step and steps >= 1")
                if frag.picks is not None:
                    if frag.steps != 1:
                        raise ValueError("a sampled fragment is one draw: steps must be 1")
                    if not frag.picks or min(frag.picks) < 0 or max(frag.picks) >= len(frag.step):
                        raise ValueError("a sampled fragment needs picks in range(len(step))")
                if frag.step.n != width:  # entries checked as they entered
                    raise ValueError(f"fragment width {frag.step.n} != live register width {width}")
            previous = window


ANCILLA_BLOCKS = ((0, 0), (1, 1), (1, 0))  # what a shot readout of the joined state needs
_BLOCK_KEYS = ((0, 0), (0, 1), (1, 0), (1, 1))


def execute(program, rho_system, env_preparers=None, blocks=None):
    """Run the program; return the final system state, or for an ancilla
    program a dict of the final blocks rho_ab of the ancilla (+) system state.

    env_preparers maps each window's `prep` key to a zero-argument callable
    producing that env's fresh state; a key it lacks is a ValueError.

    An ancilla program never holds the ancilla: it evolves the d x d blocks
    rho_ab (a, b the ancilla values) listed in `blocks`, default
    ANCILLA_BLOCKS, from |+><+| (x) rho, whose blocks are all rho/2. A
    fragment with polarity p acts on the row side of rho_ab when a == p and
    on the column side when b == p; an uncontrolled one acts on both sides
    of every block, and each window's env acts on each block. rho_10 alone
    gives Tr[(sigma^x (x) O) rho] = 2 Re Tr[O rho_10]; a block key other
    than such an (a, b) is a ValueError.

    The program runs as a Skeleton with no open part, its windows on each
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
        for key in keys:
            if key not in _BLOCK_KEYS:
                raise ValueError(f"block {key!r} is not an (a, b) pair of ancilla values 0 and 1")
        half = states.DensityMatrix(0.5 * rho_system.data, check=False)
        return {key: half.copy() for key in keys}
    if blocks is not None:
        raise ValueError("blocks apply only to a program with an ancilla")
    return {None: rho_system.copy()}


def _run_window(start, frags, draw, n_system, regs):
    """Run one Kraus window, its fragments given as (fragment, unitary,
    draw position), on every block. The window's fragments that act on
    ancilla value v (all of them without an ancilla), applied to
    `start` = I (x) E, give V_v = U_v (I x E), whose d_s x d_s blocks are
    the Kraus operators of that side; block rho_ab becomes
    sum_k L_k rho_ab R_k† with L_k from V_a and R_k from V_b."""
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
    """The dense unitary on the live register of a fragment given as
    (fragment, unitary, draw position), times the d x c `start`: the unitary
    of a closed product-formula fragment, or a sampled one built on those
    columns alone from its picks, the fragment's own or the draw's at that
    position."""
    op, u, pos = frag
    if u is None:
        picks = op.picks if pos is None else draw[pos]
        return rotations_dense(op.step, picks, start)
    return u @ start


class Skeleton:
    """A program with its draws left open, built and validated once and run
    once per draw.

    `template` is a CircuitProgram holding every window. The parts that
    `draws` names are open: a sampled fragment there has no picks of its own
    (its step is the RotationTable they index) and a carry there is kept or
    cut per run. `draws` pairs each open part's address, (window index,
    fragment index), or (window index, None) for its carry, with a function
    of the run's generator giving that fragment's picks or whether that
    carry is kept. They come in window order, a window's carry before its
    fragments, and draw() calls them in that order, so a run consumes its
    generator as emitting the program collision by collision would, and
    fill(draw) is that program.

    `env_preparers` maps each window's `prep` key to its preparer, as
    execute takes them. Before its first run a skeleton binds what no run
    changes: each window's start I (x) E (one preparer call and one eigh per
    prep key), each closed fragment's unitary, the draw positions, and a
    closed carry, which joins two windows. A run reads only its draw, where
    a kept open carry carries the open window on and a cut one closes it,
    and does the arithmetic.
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
        """One value per open part, in window order: picks, or whether a carry is kept."""
        return tuple(make(rng) for _, make in self.draws)

    def fill(self, draw):
        """The program of one draw; a template with no open part is its own."""
        if not self.draws:
            return self.template
        windows = list(self.template.ops)
        for ((w, k), _), value in zip(self.draws, draw):
            window = windows[w]
            if k is None:
                windows[w] = replace(window, carry=bool(value))
            else:
                frags = list(window.fragments)
                frags[k] = replace(frags[k], picks=value)
                windows[w] = replace(window, fragments=tuple(frags))
        t = self.template
        return CircuitProgram(t.n_system, t.ancilla, tuple(windows))

    def run(self, draw, rho_system, blocks=None):
        """The final state of one draw, as execute(self.fill(draw), ...) gives it."""
        t = self.template
        regs = _registers(t, rho_system, blocks)
        if self._windows is None:
            self._windows = self._compile()
        start, frags = None, ()
        for next_start, pos, next_frags in self._windows:
            if pos is not None and draw[pos]:  # a kept carry takes the env on
                frags += next_frags
                continue
            if frags:
                _run_window(start, frags, draw, t.n_system, regs)
            start, frags = next_start, next_frags
        if frags:
            _run_window(start, frags, draw, t.n_system, regs)
        return regs if t.ancilla else regs[None]

    def _compile(self):
        """A run's windows in order, each (start, pos, frags): the start
        I (x) E of the window's fresh env; the draw position of its open
        carry, else None; and its fragments, each (fragment, its unitary if
        closed and product formula, pos), pos the fragment's draw position,
        None when closed. A closed carry joins a window's fragments to the
        one before it."""
        t = self.template
        n = t.n_system
        position = {address: pos for pos, (address, _) in enumerate(self.draws)}
        preparers = self.env_preparers or {}
        fresh, starts = {}, {}  # per prep key: the fresh state, its I (x) E
        windows = []
        for w, window in enumerate(t.ops):
            key = window.prep
            if key not in fresh:
                if key not in preparers:
                    raise ValueError(f"no env preparer for key {key!r}")
                fresh[key] = preparers[key]()
            if fresh[key].n != window.width:
                raise ValueError(f"env preparer {key!r} has wrong width")
            if key not in starts:
                check_dense(n + fresh[key].n)
                starts[key] = states.kraus_start(n, fresh[key].data)
            frags = []
            for k, frag in enumerate(window.fragments):
                pos = position.get((w, k))
                closed = frag.picks is None and pos is None
                frags.append((frag, step_unitary(frag.step, frag.steps) if closed else None, pos))
            pos = position.get((w, None))
            if window.carry and pos is None:  # a closed carry
                windows[-1][2].extend(frags)
            else:
                windows.append((starts[key], pos, frags))
        return tuple((start, pos, tuple(frags)) for start, pos, frags in windows)


@dataclass(frozen=True)
class ResourceReport:
    cnot_count: int = 0
    rotation_count: int = 0
    pauli_gate_count: int = 0
    depth_proxy: int = 0
    env_preps: int = 0

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
    """Gate costs of the program: one preparation per window, a swap per
    carry, and each fragment's step items `steps` times, a sampled one's
    picked items."""
    windows = program.ops
    cnot = rot = paulis = 0
    for window in windows:
        if window.carry:
            cnot += SWAP_CNOTS_PER_QUBIT * window.width
        for frag in window.fragments:
            if frag.picks is None:
                c, r, p = _entry_costs(frag.step, frag.polarity is not None).sum(axis=0).tolist()
            else:
                c, r, p = _picked_cost(frag.step, frag.picks, frag.polarity is not None)
            cnot += frag.steps * c
            rot += frag.steps * r
            paulis += frag.steps * p
    cnot += PREP_CNOTS * len(windows)
    return ResourceReport(cnot, rot, paulis, cnot + rot, len(windows))
