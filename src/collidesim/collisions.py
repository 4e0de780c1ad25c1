"""Collision-map engine.

A CollisionSpec lists K collisions against fresh environment registers. Each
collision j evolves system+env under the joint Hamiltonian

    H_j = H_S + H_Ej + H_Ij = sum_i h_ij P_ij   (h_ij > 0, signs in the words)

for duration dt, i.e. U_j = e^{-i beta_j dt Hbar_j} with Hbar_j = H_j/beta_j
and beta_j the total weight. The exact map composes Tr_E[U_j(. x rho_Ej)U_j†];
programs replace each U_j with a compiled approximation at a per-collision
precision eps' = eps/(3 K normO) (deterministic product formulas, triangle
inequality over K collisions) or eps' = eps/(6 K normO) for the sampled-LCU
backend, whose Hadamard-test protocol pays the factor 2.

Lindblad discretization: an (m, nu) spec has K = m*nu collisions of duration
dt = t/nu, cycling through the m jump couplings scaled by lambda = sqrt(nu/t)
(so lambda^2 dt = 1), with the system term rescaled to H_S/m.

Non-Markovian extension: two alternating env registers; after collision j the
just-collided register is partially swapped (probability p) with the freshly
prepared one before being traced, so the next environment inherits memory.
Odd j collides the first register, even j the second; the last collision has
no swap.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import hamsim
from .circuits import (
    ANCILLA,
    CircuitProgram,
    CostModel,
    GateOp,
    ResourceReport,
    fragment_op,
    pauli_op,
    rotation_op,
)
from .errors import NumericalError
from .pauli import PauliString, PauliSum, normalize
from .states import apply_swap, partial_trace, tensor_append


@dataclass(frozen=True, eq=False)
class Collision:
    """One collision's environment: width, local Hamiltonian pieces, preparer.

    env_prep must be pure: every call returns a fresh copy of the same state.
    Estimates rely on this to compute a run-independent final state once.
    """

    env_width: int
    env_h: PauliSum  # on env_width qubits
    interaction_h: PauliSum  # on n_system + env_width qubits
    env_prep: object  # pure zero-argument callable -> a fresh DensityMatrix

    def __post_init__(self):
        if self.env_width < 1:
            raise ValueError("env register needs at least one qubit")
        if self.env_h.n != self.env_width:
            raise ValueError("env Hamiltonian width mismatch")


class CollisionSpec:
    """System + dt + K collision records, with per-collision derived data cached.

    Repeated Collision instances (the Lindblad cycle reuses m of them) share
    their normalized joint Hamiltonian and dense unitary.
    """

    def __init__(self, n, system_h, collisions, dt):
        if system_h.n != n:
            raise ValueError("system Hamiltonian width mismatch")
        if dt < 0:
            raise ValueError("dt must be >= 0")
        collisions = tuple(collisions)
        for c in collisions:
            if c.interaction_h.n != n + c.env_width:
                raise ValueError("interaction width must be system + env")
        self.n = n
        self.system_h = system_h
        self.collisions = collisions
        self.dt = float(dt)
        seen = {}
        unique = []
        index = []
        for c in collisions:
            if id(c) not in seen:
                seen[id(c)] = len(unique)
                unique.append(c)
            index.append(seen[id(c)])
        self.unique = tuple(unique)
        self.unique_index = tuple(index)
        self._joint = {}
        self._dense_u = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_joint"] = {}
        state["_dense_u"] = {}
        return state

    @property
    def K(self):
        return len(self.collisions)

    def joint(self, j):
        """(normalized joint Hamiltonian, beta_j) for collision j."""
        u = self.unique_index[j]
        if u not in self._joint:
            c = self.unique[u]
            total = self.n + c.env_width
            h = self.system_h.embed(total, 0) + c.env_h.embed(total, self.n) + c.interaction_h
            nh = normalize(h)
            self._joint[u] = (nh, nh.beta)
        return self._joint[u]

    def dense_unitary(self, j):
        """Exact e^{-i dt H_j} on the joint register, cached per distinct collision."""
        from .oracles import unitary_exact

        u = self.unique_index[j]
        if u not in self._dense_u:
            nh, beta = self.joint(j)
            self._dense_u[u] = unitary_exact(nh.h, beta * self.dt)
        return self._dense_u[u]

    def tau(self, j):
        return self.joint(j)[1] * self.dt

    @property
    def beta(self):
        return max(self.joint(j)[1] for j in range(self.K)) if self.K else 0.0

    def env_preparers(self):
        return {u: c.env_prep for u, c in enumerate(self.unique)}

    def env_state(self, j):
        return self.collisions[j].env_prep()


@dataclass(frozen=True)
class NonMarkovSpec:
    """A CollisionSpec plus the partial-swap memory parameter p."""

    base: CollisionSpec
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        widths = {c.env_width for c in self.base.collisions}
        if len(widths) > 1:
            raise ValueError("partial swap needs equal env widths across collisions")


# ------------------------------------------------------------- exact maps


def exact_k_collision(spec, rho_system):
    """Compose the K exact collisions; returns the final system state."""
    state = rho_system.copy()
    n = spec.n
    for j in range(spec.K):
        c = spec.collisions[j]
        tensor_append(state, c.env_prep())
        u = spec.dense_unitary(j)
        state.data = u @ state.data @ u.conj().T
        partial_trace(state, range(n, n + c.env_width))
    return state


def _partial_swap(state, n, w, p):
    """Channel (1-p) rho + p S rho S† on the two env blocks below the system."""
    if p == 0.0:
        return state
    group_a = list(range(n, n + w))
    group_b = list(range(n + w, n + 2 * w))
    if p == 1.0:
        return apply_swap(state, group_a, group_b)
    kept = state.data.copy()
    apply_swap(state, group_a, group_b)
    state.data = (1.0 - p) * kept + p * state.data
    return state


def exact_nonmarkov(nmspec, rho_system, trajectory=False):
    """Deterministic two-branch composition of the non-Markovian map.

    With trajectory=True also returns the system marginal after every
    collision (memory-witness bookkeeping).
    """
    spec, p = nmspec.base, nmspec.p
    n, k_total = spec.n, spec.K
    if k_total == 0:
        return (rho_system.copy(), []) if trajectory else rho_system.copy()
    w = spec.collisions[0].env_width
    state = rho_system.copy()
    tensor_append(state, spec.env_state(0))
    marginals = []
    for j in range(1, k_total + 1):
        u = spec.dense_unitary(j - 1)
        state.data = u @ state.data @ u.conj().T
        if j < k_total:
            tensor_append(state, spec.env_state(j))
            _partial_swap(state, n, w, p)
            partial_trace(state, range(n, n + w))
        else:
            partial_trace(state, range(n, n + w))
        if trajectory:
            marginal = state.copy()
            if marginal.n > n:
                partial_trace(marginal, range(n, marginal.n))
            marginals.append(marginal)
    return (state, marginals) if trajectory else state


def memory_witness(nmspec, rho_a, rho_b):
    """Largest single-collision revival of trace distance between two inputs.

    Markovian (p = 0) dynamics is CPTP at every step, so distances contract
    and the witness stays at numerical zero; a positive value certifies
    information backflow through the env memory.
    """
    from .oracles import trace_distance

    _, traj_a = exact_nonmarkov(nmspec, rho_a, trajectory=True)
    _, traj_b = exact_nonmarkov(nmspec, rho_b, trajectory=True)
    dists = [trace_distance(rho_a, rho_b)]
    dists += [trace_distance(a, b) for a, b in zip(traj_a, traj_b)]
    return max(b - a for a, b in zip(dists, dists[1:]))


# ----------------------------------------------------------- budget / plan


def required_precision(k_collisions, norm_o, eps, mode="generic"):
    """Per-collision unitary precision for a total observable bias eps."""
    if k_collisions < 1:
        raise ValueError("need at least one collision")
    if norm_o <= 0 or eps <= 0:
        raise ValueError("norm_o and eps must be > 0")
    if mode == "generic":
        return eps / (3.0 * k_collisions * norm_o)
    if mode == "salcu":
        return eps / (6.0 * k_collisions * norm_o)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class Budget:
    eps: float
    norm_o: float
    mode: str = "auto"  # auto: generic for product formulas, salcu for salcu


@dataclass(frozen=True)
class Backend:
    kind: str  # trotter | qdrift | salcu | exact
    order: int = 1  # trotter product-formula order (1 or 2k)
    steps: int = 0  # 0 = choose automatically
    length: int = 0
    r: int = 0
    q: int = -1  # -1 = choose automatically (q = 0 is meaningful)
    c_r: float = 1.0
    step_strategy: str = "empirical"

    def label(self):
        if self.kind == "trotter":
            return "trotter1" if self.order == 1 else f"trotter2k:{self.order // 2}"
        return self.kind

    @property
    def deterministic(self):
        return self.kind in ("trotter", "exact")


def parse_backend(text, **overrides):
    """'trotter1' | 'trotter2k:<k>' | 'qdrift' | 'salcu' | 'exact' + overrides."""
    text = text.strip().lower()
    if text == "trotter1":
        base = Backend(kind="trotter", order=1)
    elif text.startswith("trotter2k:"):
        k = int(text.split(":", 1)[1])
        if k < 1:
            raise ValueError("trotter2k needs k >= 1")
        base = Backend(kind="trotter", order=2 * k)
    elif text in ("qdrift", "salcu", "exact"):
        base = Backend(kind=text)
    else:
        raise ValueError(f"unknown backend {text!r}")
    return replace(base, **overrides) if overrides else base


@dataclass(frozen=True)
class CollisionPlan:
    """Resolved per-collision compilation parameters for one spec/backend."""

    backend: Backend
    eps_prime: float
    ancilla: bool
    per_collision: tuple  # steps | length | LcuParams | None, one per collision
    zeta: float


def markov_plan(spec, backend, budget):
    """Resolve steps/lengths/LCU parameters once; sampling happens per run."""
    k_total = spec.K
    if k_total == 0:
        raise ValueError("empty collision spec")
    mode = budget.mode
    if mode == "auto":
        mode = "salcu" if backend.kind == "salcu" else "generic"
    eps_prime = required_precision(k_total, budget.norm_o, budget.eps, mode)
    cache = {}
    per = []
    for j in range(k_total):
        u = spec.unique_index[j]
        if u not in cache:
            nh, beta = spec.joint(j)
            if backend.kind == "trotter":
                cache[u] = backend.steps or hamsim.choose_trotter_steps(
                    nh, beta, spec.dt, backend.order, eps_prime, backend.step_strategy
                )
            elif backend.kind == "qdrift":
                cache[u] = backend.length or hamsim.choose_qdrift_length(beta, spec.dt, eps_prime)
            elif backend.kind == "salcu":
                cache[u] = hamsim.choose_lcu_params(
                    beta * spec.dt,
                    k_total,
                    eps_prime,
                    c_r=backend.c_r,
                    r_override=backend.r or None,
                    q_override=None if backend.q < 0 else backend.q,
                )
            elif backend.kind == "exact":
                cache[u] = None
            else:
                raise ValueError(f"unknown backend kind {backend.kind!r}")
        per.append(cache[u])
    zeta = 1.0
    if backend.kind == "salcu":
        zeta = float(np.prod([params.alpha_total for params in per]))
    return CollisionPlan(backend, eps_prime, backend.kind == "salcu", tuple(per), zeta)


# ------------------------------------------------------- program emission


def _collision_targets(spec, j, slot_base):
    n = spec.n
    w = spec.collisions[j].env_width
    return tuple(range(n)) + tuple(range(slot_base, slot_base + w))


def _collision_ops(spec, j, plan, rng, targets):
    """The gates of collision j: one product-formula fragment, qDRIFT
    rotations, or the sampled-LCU pair (controlled X, anti-controlled Y)."""
    nh, beta = spec.joint(j)
    backend = plan.backend
    param = plan.per_collision[j]
    if backend.kind == "trotter":
        step = hamsim.trotter_step(nh, beta, spec.dt, param, backend.order)
        return [fragment_op(step, param, targets)]
    if backend.kind == "qdrift":
        rotations = hamsim.qdrift_rotations(nh, beta, spec.dt, param, rng)
        return [rotation_op(axis, angle, targets) for axis, angle in rotations]
    if backend.kind == "salcu":
        ops = []
        for polarity in (1, 0):
            ops.extend(_sampled_unitary_ops(hamsim.lcu_sample(nh, param, rng), targets, polarity))
        return ops
    raise ValueError(f"no collision gates for backend {backend.kind!r}")


def _sampled_unitary_ops(su, targets, polarity):
    ops = []
    for seg in su.segments:
        ops.append(rotation_op(seg.axis, seg.angle, targets, control=ANCILLA, polarity=polarity))
        if not (seg.word.is_identity_axes() and seg.word.phase_exp == 0):
            ops.append(pauli_op(seg.word, targets, control=ANCILLA, polarity=polarity))
    return ops


def markov_program(spec, backend, budget=None, rng=None, plan=None):
    """Emit the full K-collision program (prepare, collide, trace per collision).

    Product formulas emit one fragment op per collision. Randomized backends
    (qdrift, salcu) consume rng; call again for a fresh sample. The salcu
    backend adds the control ancilla and emits, per collision, the controlled
    draw X (ancilla = 1) and the anti-controlled independent draw Y
    (ancilla = 0).
    """
    if plan is None:
        plan = markov_plan(spec, backend, budget)
    backend = plan.backend
    if backend.kind == "exact":
        raise ValueError("the exact backend evolves densely; no program exists")
    widths = []
    slot_of_width = {}
    for c in spec.collisions:
        if c.env_width not in slot_of_width:
            slot_of_width[c.env_width] = len(widths)
            widths.append(c.env_width)
    ops = []
    for j in range(spec.K):
        w = spec.collisions[j].env_width
        slot = slot_of_width[w]
        base = spec.n + sum(widths[:slot])
        targets = _collision_targets(spec, j, base)
        ops.append(GateOp("prepare", slot=slot, prep=spec.unique_index[j]))
        ops.extend(_collision_ops(spec, j, plan, rng, targets))
        ops.append(GateOp("trace", slot=slot))
    return CircuitProgram(
        n_system=spec.n, ancilla=plan.ancilla, env_widths=tuple(widths), ops=tuple(ops)
    )


def nonmarkov_program(nmspec, backend, budget=None, rng=None, plan=None):
    """Two-register program: odd collisions hit slot 0, even collisions slot 1.

    After each non-final collision the fresh env lands in the other slot and
    the just-collided slot is swapped with it with probability p (the swap op
    is present or absent per sample), then traced.
    """
    spec, p = nmspec.base, nmspec.p
    if plan is None:
        plan = markov_plan(spec, backend, budget)
    backend = plan.backend
    if backend.kind == "exact":
        raise ValueError("the exact backend evolves densely; no program exists")
    w = spec.collisions[0].env_width
    ops = [GateOp("prepare", slot=0, prep=spec.unique_index[0])]
    notes = ["collision 1: active slot 0 (env 1)"]
    for j in range(1, spec.K + 1):
        active = 0 if j % 2 == 1 else 1
        base = spec.n + active * w
        targets = _collision_targets(spec, j - 1, base)
        ops.extend(_collision_ops(spec, j - 1, plan, rng, targets))
        if j < spec.K:
            other = 1 - active
            ops.append(GateOp("prepare", slot=other, prep=spec.unique_index[j]))
            swapped = bool(rng.random() < p) if p > 0 else False
            if swapped:
                ops.append(GateOp("swap", slots=(active, other)))
            notes.append(
                f"collision {j + 1}: active slot {other} (env {j + 1}), "
                f"swap {'applied' if swapped else 'skipped'} after collision {j}"
            )
            ops.append(GateOp("trace", slot=active))
        else:
            ops.append(GateOp("trace", slot=active))
    return CircuitProgram(
        n_system=spec.n,
        ancilla=plan.ancilla,
        env_widths=(w, w),
        ops=tuple(ops),
        notes=tuple(notes),
    )


# --------------------------------------------------- Lindblad discretization


def lindblad_collision_spec(model, t, nu):
    """The (m, nu) collision discretization of a LindbladModel over time t."""
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if t <= 0:
        raise ValueError("t must be > 0")
    m = len(model.jumps)
    dt = t / nu
    lam = math.sqrt(nu / t)
    z_env = PauliSum(1, [(model.env_strength, PauliString.from_label("Z"))])
    prep = _thermal_prep(model.env_omega)
    unique = tuple(
        Collision(1, z_env, lam * jump.interaction, prep) for jump in model.jumps
    )
    collisions = tuple(unique[j % m] for j in range(m * nu))
    return CollisionSpec(model.n, (1.0 / m) * model.system_h, collisions, dt)


def _thermal_prep(omega):
    from .models import ThermalPrep

    return ThermalPrep(omega)


def suggest_nu(model, t, obs, rho0, eps, start=1, cap=1 << 20):
    """Double nu until the exact collision estimate settles within eps/2.

    Returns (nu, trace) where trace rows are (nu, estimate, change-from-half).
    """
    from .states import expectation

    def est(nu):
        spec = lindblad_collision_spec(model, t, nu)
        return expectation(exact_k_collision(spec, rho0), obs)

    nu = start
    prev = est(nu)
    rows = [(nu, prev, math.nan)]
    while nu <= cap:
        nxt = est(2 * nu)
        delta = abs(nxt - prev)
        rows.append((2 * nu, nxt, delta))
        if delta < eps / 2.0:
            return 2 * nu, rows
        nu *= 2
        prev = nxt
    raise NumericalError(f"nu did not settle below {cap}")


# -------------------------------------------------------- expected resources


def expected_resources(spec, backend, budget, seed=0, lcu_samples=32, plan=None):
    """Expected per-coherent-run ResourceReport without materializing K programs.

    Deterministic backends count exactly; qdrift uses the analytic term-weight
    expectation; salcu averages `lcu_samples` sampled collision blocks per
    distinct collision (seeded, so the report is reproducible).
    """
    if plan is None:
        plan = markov_plan(spec, backend, budget)
    backend = plan.backend
    if backend.kind == "exact":
        raise ValueError("the exact backend has no gate costs")
    cost = CostModel()
    rng = np.random.default_rng(seed)
    cnot = rot = paulis = 0.0
    per_unique = {}
    for j in range(spec.K):
        u = spec.unique_index[j]
        if u not in per_unique:
            nh, beta = spec.joint(j)
            weights = np.array([p.weight for _, p in nh.h.terms], dtype=np.float64)
            if backend.kind == "trotter":
                steps = plan.per_collision[j]
                if backend.order == 1:
                    appearances = np.ones(len(nh), dtype=np.float64) * steps
                else:
                    sched = hamsim._suzuki_fractions(backend.order // 2, len(nh))
                    counts = np.zeros(len(nh))
                    for l, _ in sched:
                        counts[l] += 1
                    appearances = counts * steps
                c = float((appearances * 2 * np.clip(weights - 1, 0, None)).sum())
                per_unique[u] = (c, float(appearances.sum()), 0.0)
            elif backend.kind == "qdrift":
                length = plan.per_collision[j]
                mean_cnot = float((nh.probs * 2 * np.clip(weights - 1, 0, None)).sum())
                per_unique[u] = (length * mean_cnot, float(length), 0.0)
            else:
                params = plan.per_collision[j]
                acc = np.zeros(3)
                for _ in range(lcu_samples):
                    for polarity in (1, 0):
                        su = hamsim.lcu_sample(nh, params, rng)
                        for seg in su.segments:
                            w_axis = seg.axis.weight
                            if w_axis:
                                acc += (2 * (w_axis - 1) + 2, 2, 0)
                            else:
                                acc += (0, 1, 0)
                            if not (seg.word.is_identity_axes() and seg.word.phase_exp == 0):
                                acc += (seg.word.weight, 0, 1)
                per_unique[u] = tuple(acc / lcu_samples)
        dc, dr, dp = per_unique[u]
        cnot += dc
        rot += dr
        paulis += dp
    cnot += cost.prep_cnots * spec.K
    return ResourceReport(cnot, rot, paulis, cnot + rot, spec.K)
