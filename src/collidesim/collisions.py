"""Collision-map engine.

A CollisionSpec lists K collisions against fresh environment registers. Each
collision j evolves system+env under the joint Hamiltonian

    H_j = H_S + H_Ej + H_Ij = sum_i h_ij P_ij   (h_ij > 0, signs in the words)

for duration dt, i.e. U_j = e^{-i tau_j Hbar_j} with Hbar_j = H_j/beta_j,
beta_j the total weight and tau_j = beta_j dt. CollisionSpec.joint(j)
returns (Hbar_j, tau_j), the one target every hamsim compiler takes, and
plans, programs, exact maps and prices walk the distinct collisions once,
each at its first index (CollisionSpec.first_use). A price
(expected_resources) is a function of the plan alone: a randomized
backend's is the exact mean over its draws. The exact map composes
Tr_E[U_j(. x rho_Ej)U_j†] as Kraus maps on the system: with rho_Ej = sum_b
p_b |e_b><e_b|, collision j is rho -> sum_ab K_ab rho K_ab† with
K_ab = sqrt(p_b) (I x <a|) U_j (I x |e_b>), so the exact state never
carries an env register; the eigen-columns, the stacking and the two-matmul
step are states' Kraus helpers, which every program run goes through as
well, Markov or not.
Programs replace each U_j with a compiled approximation at the per-collision
precision eps' = eps_c/(3 K normO) (triangle inequality over K collisions),
where eps_c is the part of the target bias the circuits may spend. One rule,
estimator.resolve_plan, sets it: a statistical estimate (shot readout, or a
randomized program: qdrift, salcu, a partial swap with 0 < p < 1) spends
eps_c = eps/2 and leaves the other half to Hoeffding's T; any other estimate
runs once and spends eps_c = eps.

Lindblad discretization: an (m, nu) spec has K = m*nu collisions of duration
dt = t/nu, cycling through the m jump couplings scaled by lambda = sqrt(nu/t)
(so lambda^2 dt = 1), with the system term rescaled to H_S/m.

Non-Markovian extension: two alternating env registers; after collision j the
just-collided register is partially swapped (probability p) with the freshly
prepared one before being traced, so the next environment inherits memory.
The last collision has no swap. The exact map needs only one env: appending
sigma_{j+1}, mixing with the swap and tracing the collided env gives
Tr_Ea[(1-p) rho x sigma_{j+1} + p S(rho x sigma_{j+1})S†] = (1-p) Tr_E[rho]
x sigma_{j+1} + p rho, since the swap hands the collided env to the
surviving register. A program is one Kraus window per collision
(circuits.Window), Markov or not: each window after the first carries the
collided env on where the swap is kept and cuts it where the swap is
dropped. It is priced as the circuit on n + 2w qubits, a preparation per
collision and a swap per carry, but it runs on the system and one env.
"""

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import _kernels, hamsim
from .circuits import (
    PREP_CNOTS,
    SWAP_CNOTS_PER_QUBIT,
    CircuitProgram,
    Fragment,
    ResourceReport,
    Skeleton,
    Window,
    _entry_costs,
    _item_cost,
)
from .errors import NumericalError
from .pauli import PauliString, PauliSum, normalize
from .states import DensityMatrix, apply_kraus, env_columns, kraus_adjoints, kraus_stacked


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

    Repeated Collision instances (the Lindblad cycle reuses m of them) are
    one distinct collision: `unique` holds them in order of first use,
    `unique_index[j]` names collision j's, and `first_use[u]` is the first
    index of distinct collision u. They share their joint target and dense
    unitary, and collisions with one env preparer (all m of the cycle) share
    its key, state and eigh. Derived data is kept in one cache, which a
    pickled spec carries empty.
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
        self.unique, self.unique_index, self.first_use = _distinct(collisions)
        self._preparers, self.prep_index, _ = _distinct([c.env_prep for c in collisions])
        self._cache = {}

    def __getstate__(self):
        return {**self.__dict__, "_cache": {}}

    @property
    def K(self):
        return len(self.collisions)

    def joint(self, j):
        """(nh, tau) for collision j: nh = normalize(H_j), the normalized joint
        Hamiltonian Hbar_j, and tau = nh.beta * dt, so U_j = e^{-i tau Hbar_j}."""
        u = self.unique_index[j]
        if ("joint", u) not in self._cache:
            c = self.unique[u]
            total = self.n + c.env_width
            h = self.system_h.embed(total, 0) + c.env_h.embed(total, self.n) + c.interaction_h
            nh = normalize(h)
            self._cache["joint", u] = (nh, nh.beta * self.dt)
        return self._cache["joint", u]

    def dense_unitary(self, j):
        """Exact e^{-i dt H_j} on the joint register, cached per distinct collision."""
        from .oracles import unitary_exact

        u = self.unique_index[j]
        if ("unitary", u) not in self._cache:
            nh, tau = self.joint(j)
            self._cache["unitary", u] = unitary_exact(nh.h, tau)
        return self._cache["unitary", u]

    def kraus(self, j):
        """(stacked, adjoints) Kraus operators of collision j, cached per
        distinct collision.

        With the env state sigma = sum_b p_b |e_b><e_b| (states.env_columns),
        the ops are K_ab = sqrt(p_b) (I x <a|) U_j (I x |e_b>) on the system,
        for env basis states a and the p_b > 0, stacked as states.apply_kraus
        reads them (states.kraus_stacked and kraus_adjoints).
        """
        u = self.unique_index[j]
        if ("kraus", u) not in self._cache:
            d, de = 1 << self.n, 1 << self.unique[u].env_width
            k = self.prep_index[j]  # one eigh per distinct preparer
            if ("env_cols", k) not in self._cache:
                self._cache["env_cols", k] = env_columns(self.env_state(j).data)
            vecs = self._cache["env_cols", k]
            # ops[s, a, s', b] = sum_e U[(s, a), (s', e)] vecs[e, b]
            ops = self.dense_unitary(j).reshape(d, de, d, de) @ vecs
            self._cache["kraus", u] = (kraus_stacked(ops), kraus_adjoints(ops))
        return self._cache["kraus", u]

    def env_preparers(self):
        """Each distinct preparer by its key, as prep_index names them."""
        return dict(enumerate(self._preparers))

    def env_state(self, j):
        """Collision j's env state, prepared once per distinct preparer; read-only."""
        k = self.prep_index[j]
        if ("env", k) not in self._cache:
            state = self._preparers[k]()
            state.data.setflags(write=False)
            self._cache["env", k] = state
        return self._cache["env", k]


def _distinct(objects):
    """(the distinct objects by identity, in order of first use; each
    object's index among them; each distinct object's first index)."""
    first = {}  # id -> (index among the distinct, first index)
    for j, obj in enumerate(objects):
        first.setdefault(id(obj), (len(first), j))
    firsts = tuple(j for _, j in first.values())
    return tuple(objects[j] for j in firsts), tuple(first[id(obj)][0] for obj in objects), firsts


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
    """Compose the K exact collisions as Kraus maps on the system; returns
    the final system state.

    Each collision is states.apply_kraus with its distinct collision's
    stacked operators and adjoints: two matmuls.
    """
    if spec.K == 0:
        return rho_system.copy()
    per_unique = [spec.kraus(j) for j in spec.first_use]
    data = rho_system.data
    for u in spec.unique_index:
        data = apply_kraus(data, *per_unique[u])
    return DensityMatrix(data, check=False)


def exact_nonmarkov(nmspec, rho_system, trajectory=False):
    """Deterministic composition of the non-Markovian map on system + one env.

    After collision j < K the fresh env sigma_{j+1} is appended, partially
    swapped with the collided env and the collided env traced; in closed form
    rho <- (1-p) Tr_E[rho] x sigma_{j+1} + p rho. With trajectory=True also
    returns the system marginal Tr_E[rho] after every collision.

    The joint index is s*de + e, so the env-diagonal blocks are the strided
    views data[e::de, e::de]: the marginal is their sum, and the mix writes
    (1-p) sigma[i,k] Tr_E[rho] into block (i, k) of p*rho in place.
    """
    spec, p = nmspec.base, nmspec.p
    k_total = spec.K
    if k_total == 0:
        return (rho_system.copy(), []) if trajectory else rho_system.copy()
    de = 1 << spec.collisions[0].env_width
    per_unique = []  # per distinct collision: (U, U†, its preparer's env state)
    for j in spec.first_use:
        unitary = spec.dense_unitary(j)
        per_unique.append((unitary, unitary.conj().T, spec.env_state(j).data))
    steps = [per_unique[u] for u in spec.unique_index]
    data = _kernels.kron(rho_system.data, steps[0][2])
    marginals = []
    for j in range(1, k_total + 1):
        unitary, adjoint, _ = steps[j - 1]
        data = unitary @ data @ adjoint
        if j < k_total and p == 1.0 and not trajectory:
            continue  # the collided env carries over whole
        marginal = data[0::de, 0::de] + data[1::de, 1::de]
        for e in range(2, de):
            marginal += data[e::de, e::de]
        if trajectory:
            marginals.append(DensityMatrix(marginal.copy(), check=False))
        if j < k_total and p < 1.0:
            sigma = steps[j][2]
            if p == 0.0:
                data.fill(0.0)
            else:
                data *= p
            for i, k in zip(*np.nonzero(sigma)):
                data[i::de, k::de] += (1.0 - p) * (sigma[i, k] * marginal)
    final = DensityMatrix(marginal, check=False)
    return (final, marginals) if trajectory else final


# ----------------------------------------------------------- budget / plan


def required_precision(k_collisions, norm_o, eps):
    """Per-collision unitary precision for a circuit bias eps."""
    if k_collisions < 1:
        raise ValueError("need at least one collision")
    if norm_o <= 0 or eps <= 0:
        raise ValueError("norm_o and eps must be > 0")
    return eps / (3.0 * k_collisions * norm_o)


@dataclass(frozen=True)
class Backend:
    kind: str  # trotter | qdrift | salcu | exact
    order: int = 1  # trotter product-formula order (1 or 2k)
    steps: int | None = None  # None = choose automatically, as for length, r and q
    length: int | None = None
    r: int | None = None
    q: int | None = None
    c_r: float = 1.0
    step_strategy: str = "empirical"

    def __post_init__(self):
        for name in ("steps", "length", "r"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"backend {name} must be >= 1, got {value!r}")
        if self.q is not None and (self.q < 0 or self.q % 2):
            raise ValueError(f"backend q must be a nonnegative even integer, got {self.q!r}")

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
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            k = 0
        if k < 1:
            raise ValueError(f"backend {text!r}: trotter2k:<k> needs an integer k >= 1")
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
    per_collision: tuple  # steps | length | LcuParams, one per collision
    zeta: float


def markov_plan(spec, backend, eps, norm_o):
    """Resolve steps/lengths/LCU parameters once for a circuit bias eps;
    sampling happens per run. The exact backend runs no program, so it has
    no plan."""
    k_total = spec.K
    if k_total == 0:
        raise ValueError("empty collision spec")
    if backend.kind == "exact":
        raise ValueError("the exact backend evolves densely; it has no plan")
    eps_prime = required_precision(k_total, norm_o, eps)
    per_unique = [
        _compile_param(backend, *spec.joint(j), k_total, eps_prime) for j in spec.first_use
    ]
    per = [per_unique[u] for u in spec.unique_index]
    zeta = 1.0
    if backend.kind == "salcu":
        zeta = float(np.prod([params.alpha_total for params in per]))
    return CollisionPlan(backend, eps_prime, backend.kind == "salcu", tuple(per), zeta)


def _compile_param(backend, nh, tau, k_total, eps_prime):
    """The steps, length or LcuParams of one collision's target (nh, tau)."""
    if backend.kind == "trotter":
        return backend.steps or hamsim.choose_trotter_steps(
            nh, tau, backend.order, eps_prime, backend.step_strategy
        )
    if backend.kind == "qdrift":
        return backend.length or hamsim.choose_qdrift_length(tau, eps_prime)
    if backend.kind == "salcu":
        return hamsim.choose_lcu_params(
            tau, k_total, eps_prime, c_r=backend.c_r, r_override=backend.r, q_override=backend.q
        )
    raise ValueError(f"unknown backend kind {backend.kind!r}")


# ------------------------------------------------------- program emission


def _swap_kept(p, rng):
    return bool(rng.random() < p)


def _collision_parts(spec, plan):
    """Per distinct collision, its fragments as (step, steps, polarity,
    draw): the product-formula step (polarity None, no draw), the qDRIFT
    table and its draw, or the sampled-LCU pair on one table, the controlled
    X (polarity 1) then the anti-controlled Y (polarity 0), each drawn on
    its own. A draw maps a run's generator to the fragment's picks, with
    its collision's table (and salcu's segment-order table) bound once."""
    return [_fragments(plan.backend, *spec.joint(j), plan.per_collision[j]) for j in spec.first_use]


def _fragments(backend, nh, tau, param):
    if backend.kind == "trotter":
        return ((hamsim.trotter_step(nh, tau, param, backend.order), param, None, None),)
    if backend.kind == "qdrift":
        table = hamsim.qdrift_table(nh, tau, param)
        return ((table, 1, None, partial(hamsim.qdrift_picks, nh, param)),)
    table = hamsim.lcu_table(nh, param)  # salcu
    draw = partial(hamsim.lcu_picks, nh, table, hamsim._k_cdf(param.weights), param.r)
    return ((table, 1, 1, draw), (table, 1, 0, draw))


def markov_skeleton(spec, plan, p=0.0):
    """The K-collision program as a circuits.Skeleton: one window per
    collision (prepare, collide, trace), every collision one fragment (two
    for salcu), and a randomized backend's fragments open, drawn per run
    collision by collision (salcu: X, then Y). With a partial-swap
    probability p > 0 (nonmarkov_skeleton), each collision after the first
    carries the previous collision's env, kept per run with probability p
    when 0 < p < 1 and drawn before that collision's fragments. Built and
    validated once per plan; it holds the spec's env preparers."""
    parts = _collision_parts(spec, plan)
    windows, draws = [], []
    for j, u in enumerate(spec.unique_index):
        if j and 0 < p < 1:
            draws.append(((j, None), partial(_swap_kept, p)))
        draws += [((j, k), draw) for k, (*_, draw) in enumerate(parts[u]) if draw is not None]
        frags = tuple(Fragment(step, steps, polarity) for step, steps, polarity, _ in parts[u])
        width = spec.collisions[j].env_width
        windows.append(Window(spec.prep_index[j], width, frags, carry=j > 0 and p > 0))
    template = CircuitProgram(n_system=spec.n, ancilla=plan.ancilla, ops=tuple(windows))
    return Skeleton(template, draws, spec.env_preparers())


def markov_program(spec, plan, rng=None):
    """Emit the full K-collision program of a plan: markov_skeleton plus one draw.

    Every collision is one window of one fragment (two for salcu).
    Randomized backends (qdrift, salcu) consume rng and emit sampled
    fragments; call again for a fresh sample. The salcu backend adds the
    control ancilla and emits, per collision, the controlled draw X
    (ancilla = 1) and the anti-controlled independent draw Y (ancilla = 0).
    """
    skeleton = markov_skeleton(spec, plan)
    return skeleton.fill(skeleton.draw(rng))


def nonmarkov_skeleton(nmspec, plan):
    """The partial-swap program as a circuits.Skeleton: markov_skeleton's
    windows for the base spec, each after the first carrying the collided
    env on (the swap kept) or cut from it (the swap dropped). The carry is
    open, kept with probability p per run, when 0 < p < 1, closed at p = 1
    and absent at p = 0. A run draws each collision's carry, then its
    fragments."""
    return markov_skeleton(nmspec.base, plan, nmspec.p)


def nonmarkov_program(nmspec, plan, rng=None):
    """Partial-swap program of a plan for the base spec: nonmarkov_skeleton
    plus one draw, so each window's carry is kept or cut per sample."""
    skeleton = nonmarkov_skeleton(nmspec, plan)
    return skeleton.fill(skeleton.draw(rng))


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
    # the env's own sigma^z; its strength drops out of the nu -> inf limit
    z_env = PauliSum(1, [(1.0, PauliString.from_label("Z"))])
    prep = _thermal_prep(model.env_omega)
    unique = tuple(
        Collision(1, z_env, lam * jump.interaction, prep) for jump in model.jumps
    )
    collisions = tuple(unique[j % m] for j in range(m * nu))
    return CollisionSpec(model.n, (1.0 / m) * model.system_h, collisions, dt)


def _thermal_prep(omega):
    from .models import ThermalPrep

    return ThermalPrep(omega)


def suggest_nu(model, t, obs, rho0, eps, cap=1 << 20):
    """Double nu until the exact collision estimate settles within eps/2.

    Returns (nu, trace) where trace rows are (nu, estimate, change-from-half).
    No nu above cap is evaluated: a search that has not settled by then is a
    NumericalError.
    """
    from .states import expectation

    def est(nu):
        spec = lindblad_collision_spec(model, t, nu)
        return expectation(exact_k_collision(spec, rho0), obs)

    nu = 1
    prev = est(nu)
    rows = [(nu, prev, math.nan)]
    while 2 * nu <= cap:
        nxt = est(2 * nu)
        delta = abs(nxt - prev)
        rows.append((2 * nu, nxt, delta))
        if delta < eps / 2.0:
            return 2 * nu, rows
        nu *= 2
        prev = nxt
    raise NumericalError(f"nu did not settle up to {cap}")


# -------------------------------------------------------- expected resources


def expected_resources(spec, plan):
    """Expected per-coherent-run ResourceReport of a plan's programs without
    materializing K programs: a function of the plan alone.

    Gates are priced as count_resources prices them. Deterministic backends
    count exactly; qdrift uses the analytic term-weight expectation (an
    identity-axis rotation is free); salcu takes the exact mean of its X and
    Y draws (_lcu_price). A NonMarkovSpec adds its partial swaps: each of
    the K-1 swap points swaps the two env registers with probability p.
    """
    swap_cnots = 0.0
    if isinstance(spec, NonMarkovSpec):
        width = spec.base.collisions[0].env_width
        swap_cnots = spec.p * (spec.base.K - 1) * SWAP_CNOTS_PER_QUBIT * width
        spec = spec.base
    backend = plan.backend
    cnot = rot = paulis = 0.0
    per_unique = []
    for j in spec.first_use:
        nh, tau = spec.joint(j)
        param = plan.per_collision[j]
        if backend.kind == "trotter":
            step = hamsim.trotter_step(nh, tau, param, backend.order)
            costs = _entry_costs(step, False).sum(axis=0).tolist()
            per_unique.append(tuple(float(param * v) for v in costs))
        elif backend.kind == "qdrift":
            costs = np.array([_item_cost((p, 1.0), False)[0] for _, p in nh.h.terms])
            per_unique.append((
                param * float((nh.probs * costs).sum()),
                param * (1.0 - _identity_share(nh)),
                0.0,
            ))
        else:
            per_unique.append(_lcu_price(nh, param))
    for u in spec.unique_index:
        dc, dr, dp = per_unique[u]
        cnot += dc
        rot += dr
        paulis += dp
    cnot += PREP_CNOTS * spec.K + swap_cnots
    return ResourceReport(cnot, rot, paulis, cnot + rot, spec.K)


def _identity_share(nh):
    """The probability of drawing an identity term l ~ p."""
    return float(sum(q for q, (_, p) in zip(nh.probs, nh.h.terms) if p.weight == 0))


def _lcu_price(nh, params):
    """Exact mean (cnots, rotations, Pauli gates) of one collision's X and Y
    draws, r segments each. A segment is the controlled rotation of a term
    m ~ p, at a price that does not depend on its order k, and, with
    probability w_k / sum w, the controlled word (-i)^k P_l1 ... P_lk: its
    weight in CNOTs and one Pauli gate, unless it is +I."""
    cnots = np.array([_item_cost((p, 1.0), True)[0] for _, p in nh.h.terms])
    k_probs = np.array(params.weights) / sum(params.weights)
    weight, identity = hamsim.lcu_word_moments(nh, params.q)
    segment = (
        float(nh.probs @ cnots) + float(k_probs @ weight),
        2.0 - _identity_share(nh),  # a controlled identity rotation is one phase kick
        float(k_probs @ (1.0 - identity)),
    )
    return tuple(2 * params.r * v for v in segment)
