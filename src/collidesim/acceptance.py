"""Self-contained release checks, one per pinned behavior of the package.

Each criterion function runs a fixed, seeded scenario and returns a
CriterionResult. `collidesim validate` prints one line per criterion and the
test suite asserts each one, so the two entry points can never disagree about
what "working" means. Tolerances are part of the contract and are stated in
the detail strings.

The criteria need numpy alone: their exponentials of Hermitian matrices go
through oracles.unitary_exact, and the hoeffding-coverage allowance is an
exact binomial quantile (_binom_quantile).
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import hamsim
from .collisions import (
    Collision,
    CollisionSpec,
    NonMarkovSpec,
    exact_k_collision,
    exact_nonmarkov,
    expected_resources,
    lindblad_collision_spec,
    parse_backend,
    suggest_nu,
)
from .estimator import estimate, hoeffding_T, resolve_plan
from .models import amp_damp_model, magnetization
from .oracles import lindblad_evolve, spectral_norm, trace_distance, unitary_exact
from .pauli import PauliString, PauliSum, normalize
from .states import DensityMatrix, Observable, expectation


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0  # wall time of the check


# ------------------------------------------------------------ shared helpers


class FixedPrep:
    """Zero-argument preparer returning a fresh copy of a fixed state."""

    def __init__(self, data):
        self.data = np.array(data, dtype=np.complex128)

    def __call__(self):
        return DensityMatrix(self.data.copy(), check=False)


def _random_word(rng, n):
    while True:
        axes = "".join(rng.choice(list("IXYZ"), size=n))
        if axes != "I" * n:
            return axes


def _random_sum(rng, n, n_terms):
    labels = set()
    while len(labels) < n_terms:
        labels.add(_random_word(rng, n))
    terms = []
    for lab in sorted(labels):
        sign = "-" if rng.random() < 0.5 else "+"
        terms.append((float(rng.uniform(0.2, 1.0)), PauliString.from_label(sign + lab)))
    return PauliSum(n, terms)


def _random_state(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def _random_kraus(rng, dim, k):
    """k Kraus operators from a Haar isometry, so sum K†K = I exactly."""
    g = rng.normal(size=(dim * k, dim)) + 1j * rng.normal(size=(dim * k, dim))
    q, _ = np.linalg.qr(g)
    return [q[i * dim : (i + 1) * dim, :] for i in range(k)]


def _apply_kraus(kraus, rho):
    return sum(k @ rho @ k.conj().T for k in kraus)


def _binom_quantile(q, n, p):
    """Smallest k with P[Bin(n, p) <= k] >= q, in exact rational arithmetic.

    With p = a / b and q = c / e exactly (a float is a dyadic rational),
    P[Bin(n, p) <= k] = sum_{j <= k} C(n, j) a^j (b - a)^(n - j) / b^n, so
    each k is tested as e * sum >= c * b^n on integers. A CDF equal to q
    reaches it.
    """
    a, b = p.as_integer_ratio()
    c, e = q.as_integer_ratio()
    target = c * b**n
    total = 0
    for k in range(n + 1):
        total += math.comb(n, k) * a**k * (b - a) ** (n - k)
        if e * total >= target:
            return k
    return n


def _loglog_slope(xs, ys):
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


def _random_collision(rng, n_system, env_width):
    env_h = _random_sum(rng, env_width, 2 if env_width > 1 else 1)
    inter = _random_sum(rng, n_system + env_width, 3)
    psi = rng.normal(size=1 << env_width) + 1j * rng.normal(size=1 << env_width)
    psi /= np.linalg.norm(psi)
    return Collision(env_width, env_h, inter, FixedPrep(np.outer(psi, psi.conj())))


# ---------------------------------------------------------------- criteria


def exact_map_equivalence():
    """K = 5 collisions on 2 system + 1 env qubits: engine vs. hand composition."""
    rng = np.random.default_rng(11)
    n, dt, k_total = 2, 0.3, 5
    sys_h = _random_sum(rng, n, 3)
    collisions = [_random_collision(rng, n, 1) for _ in range(k_total)]
    spec = CollisionSpec(n, sys_h, collisions, dt)
    rho0 = DensityMatrix(_random_state(rng, 1 << n))

    rho = rho0.data.copy()
    for j, c in enumerate(collisions):
        h = (
            np.kron(sys_h.to_dense(), np.eye(2))
            + np.kron(np.eye(1 << n), c.env_h.to_dense())
            + c.interaction_h.to_dense()
        )
        joint = np.kron(rho, c.env_prep().data)
        u = unitary_exact(h, dt)
        joint = u @ joint @ u.conj().T
        rho = np.einsum("aibi->ab", joint.reshape(1 << n, 2, 1 << n, 2))
    dist = trace_distance(exact_k_collision(spec, rho0), rho)
    return CriterionResult(
        "exact-map-equivalence",
        dist <= 1e-10,
        f"trace distance engine vs hand composition = {dist:.3e} (tol 1e-10)",
    )


def lcu_segment_bound():
    """Enumerated segment decomposition hits the unitary within eps' and the
    total weight stays under e^{tau^2/r}."""
    rng = np.random.default_rng(23)
    eps_prime = 1e-3
    worst_err = 0.0
    worst_slack = -math.inf
    checks = 0
    for _ in range(5):
        h = _random_sum(rng, 2, 3)
        nh = normalize(h)
        for tau in (0.3, 0.7):
            for r in (2, 4):
                params = hamsim.choose_lcu_params(tau, 1, eps_prime, r_override=r)
                u = unitary_exact(nh.h, tau)
                u_tilde = hamsim.lcu_enumerate_dense(nh, params)
                worst_err = max(worst_err, spectral_norm(u - u_tilde))
                bound = math.exp(tau * tau / r) + 1e-9
                worst_slack = max(worst_slack, params.alpha_total - bound)
                checks += 1
    ok = worst_err <= eps_prime and worst_slack <= 0.0
    return CriterionResult(
        "lcu-segment-bound",
        ok,
        f"{checks} instances: max ||U - Utilde|| = {worst_err:.3e} (tol {eps_prime}), "
        f"max alpha_total - bound = {worst_slack:.3e} (must be <= 0)",
    )


def _two_collision_instance():
    sys_h = PauliSum(1, [(0.4, PauliString.from_label("Z"))])
    env_a = PauliSum(1, [(0.3, PauliString.from_label("X"))])
    env_b = PauliSum(1, [(0.5, PauliString.from_label("Z"))])
    int_a = PauliSum(
        2,
        [
            (0.5, PauliString.from_label("XX")),
            (0.2, PauliString.from_label("-ZY")),
        ],
    )
    int_b = PauliSum(
        2,
        [
            (0.6, PauliString.from_label("YY")),
            (0.3, PauliString.from_label("XZ")),
        ],
    )
    col_a = Collision(1, env_a, int_a, FixedPrep([[1.0, 0.0], [0.0, 0.0]]))
    col_b = Collision(1, env_b, int_b, FixedPrep([[0.25, 0.0], [0.0, 0.75]]))
    return CollisionSpec(1, sys_h, (col_a, col_b), 0.2)


def estimator_unbiasedness():
    """Sampled-LCU analytic-mode mean lands on the exact two-collision value."""
    spec = _two_collision_instance()
    obs = Observable(PauliSum(1, [(1.0, PauliString.from_label("Z"))]))
    rho0 = DensityMatrix.plus()
    truth = expectation(exact_k_collision(spec, rho0), obs)
    rep = estimate(
        spec, rho0, obs, "salcu", eps=0.02, delta=0.05, seed=7, t_override=100_000
    )
    gap = abs(rep.mu - truth)
    band = 3.0 * rep.stderr
    ok = gap <= band and gap <= 0.02
    return CriterionResult(
        "estimator-unbiasedness",
        ok,
        f"T = {rep.t_runs}: |mu - truth| = {gap:.4f} vs 3 sigma = {band:.4f} "
        f"and eps = 0.02 (mu = {rep.mu:.4f}, truth = {truth:.4f}, zeta = {rep.zeta:.4f})",
    )


def hoeffding_coverage():
    """200 shot-mode estimates at (eps, delta) = (0.1, 0.1): failures within the
    99% binomial envelope for a true failure rate of delta."""
    rng = np.random.default_rng(5)
    sys_h = PauliSum(1, [(0.3, PauliString.from_label("Z"))])
    col = _random_collision(rng, 1, 1)
    spec = CollisionSpec(1, sys_h, (col,), 0.3)
    obs = Observable(PauliSum(1, [(1.0, PauliString.from_label("Z"))]))
    rho0 = DensityMatrix.plus()
    truth = expectation(exact_k_collision(spec, rho0), obs)
    eps = delta = 0.1
    t_runs = hoeffding_T(obs.norm, eps, delta)
    n_rep = 200
    failures = 0
    t_match = True
    for i in range(n_rep):
        rep = estimate(
            spec, rho0, obs, "trotter1", eps, delta, seed=1000 + i, measurement="shot"
        )
        t_match = t_match and rep.t_runs == t_runs
        failures += abs(rep.mu - truth) > eps
    allowed = _binom_quantile(0.99, n_rep, delta)
    return CriterionResult(
        "hoeffding-coverage",
        t_match and failures <= allowed,
        f"{failures}/{n_rep} estimates off by > {eps} (T = {t_runs} each); "
        f"99% binomial allowance at rate {delta} is {allowed}",
    )


def lindblad_convergence():
    """Single-qubit amplitude damping: collision estimate converges to the
    analytic <sigma^z> at first order in 1/nu."""
    model = amp_damp_model(1, J=0.0, h=0.0, gamma=1.0)
    obs = magnetization(1)
    rho0 = DensityMatrix.basis(1, 1)
    target = 1.0 - 2.0 * math.exp(-1.0)
    nus = (8, 16, 32, 64)
    errs = []
    for nu in nus:
        spec = lindblad_collision_spec(model, 1.0, nu)
        errs.append(abs(expectation(exact_k_collision(spec, rho0), obs) - target))
    slope = _loglog_slope(nus, errs)
    ok = abs(slope + 1.0) <= 0.3
    return CriterionResult(
        "lindblad-convergence",
        ok,
        f"errors at nu = {nus}: {[f'{e:.2e}' for e in errs]}, "
        f"log-log slope = {slope:.3f} (target -1 +- 0.3)",
    )


def damped_tfim_benchmark():
    """4-site damped TFIM magnetization: collision estimate vs. the dense
    Liouvillian oracle, with nu picked automatically."""
    model = amp_damp_model(4, J=1.0, h=0.1, gamma=1.0)
    obs = magnetization(4)
    rho0 = DensityMatrix.basis(4, 0)
    eps = 0.01
    nu, _ = suggest_nu(model, 1.0, obs, rho0, eps)
    spec = lindblad_collision_spec(model, 1.0, nu)
    est = expectation(exact_k_collision(spec, rho0), obs)
    oracle = expectation(lindblad_evolve(model, rho0, 1.0), obs)
    gap = abs(est - oracle)
    return CriterionResult(
        "damped-tfim-benchmark",
        gap <= eps,
        f"nu = {nu}: |collision - Liouvillian| = {gap:.5f} (tol {eps}); "
        f"estimate {est:.5f}, oracle {oracle:.5f}",
    )


_TREND_TARGETS = {"trotter1": 2.0, "qdrift": 2.0, "trotter2k:1": 1.25, "salcu": 1.0}


def resource_trend():
    """Per-run CNOT scaling vs 1/eps for each compiler on the damped TFIM
    benchmark, plus the cheapness ordering at the tightest eps."""
    model = amp_damp_model(4, J=1.0, h=0.1, gamma=1.0)
    obs = magnetization(4)
    rho0 = DensityMatrix.basis(4, 0)
    eps_grid = (1e-1, 1e-2, 1e-3)
    cnots = {label: [] for label in _TREND_TARGETS}
    for eps in eps_grid:
        # first-order prescription nu ~ t^2 m / eps; the empirical doubling
        # helper stalls at tiny nu on this weakly damped instance and would
        # flatten every slope
        nu = int(np.ceil(len(model.jumps) / eps))
        spec = lindblad_collision_spec(model, 1.0, nu)
        for label in _TREND_TARGETS:
            backend = parse_backend(label, step_strategy="worst_case")
            # priced under the plan an analytic estimate runs
            _, plan = resolve_plan(spec, backend, eps, "analytic", obs.norm)
            rep = expected_resources(spec, plan)
            cnots[label].append(rep.cnot_count)
    slopes = {
        label: _loglog_slope([1.0 / e for e in eps_grid], counts)
        for label, counts in cnots.items()
    }
    slopes_ok = all(
        abs(slopes[label] - target) <= 0.35 for label, target in _TREND_TARGETS.items()
    )
    tight = {label: counts[-1] for label, counts in cnots.items()}
    order_ok = tight["salcu"] < tight["trotter2k:1"] < tight["qdrift"]
    slope_text = ", ".join(
        f"{label} {slopes[label]:.2f} (target {t})" for label, t in _TREND_TARGETS.items()
    )
    order_text = ", ".join(f"{label} {tight[label]:.3g}" for label in _TREND_TARGETS)
    return CriterionResult(
        "resource-trend",
        slopes_ok and order_ok,
        f"slopes: {slope_text}; CNOTs at eps = 1e-3: {order_text} "
        f"(need salcu < trotter2k:1 < qdrift)",
    )


def nonmarkov_reductions():
    """p = 0 reduces to the Markov map, p = 1 hands the environment over
    exactly, and p = 1/2 is detectably different."""
    rng = np.random.default_rng(41)
    sys_h = PauliSum(1, [(0.4, PauliString.from_label("Z"))])
    env_h = PauliSum(1, [(0.3, PauliString.from_label("Z"))])
    inter = PauliSum(
        2,
        [
            (0.9, PauliString.from_label("XX")),
            (0.4, PauliString.from_label("YY")),
        ],
    )
    prep_one = FixedPrep([[0.0, 0.0], [0.0, 1.0]])
    prep_zero = FixedPrep([[1.0, 0.0], [0.0, 0.0]])
    col_1 = Collision(1, env_h, inter, prep_one)
    col_2 = Collision(1, env_h, inter, prep_zero)
    spec = CollisionSpec(1, sys_h, (col_1, col_2), 0.6)
    rho0 = DensityMatrix(_random_state(rng, 2))

    d_markov = trace_distance(
        exact_nonmarkov(NonMarkovSpec(spec, 0.0), rho0),
        exact_k_collision(spec, rho0),
    )

    # p = 1: both collisions act on one persistent environment register
    u1 = spec.dense_unitary(0)
    u2 = spec.dense_unitary(1)
    joint = np.kron(rho0.data, prep_one().data)
    joint = u2 @ u1 @ joint @ u1.conj().T @ u2.conj().T
    persistent = np.einsum("aibi->ab", joint.reshape(2, 2, 2, 2))
    d_handoff = trace_distance(exact_nonmarkov(NonMarkovSpec(spec, 1.0), rho0), persistent)

    # p = 1 with a decoupled second collision: the inherited env rides along
    empty = PauliSum(2, [])
    col_free = Collision(1, PauliSum(1, []), empty, prep_zero)
    spec_free = CollisionSpec(1, sys_h, (col_1, col_free), 0.6)
    v = unitary_exact(sys_h, 0.6)
    expected = v @ exact_k_collision(CollisionSpec(1, sys_h, (col_1,), 0.6), rho0).data @ v.conj().T
    d_free = trace_distance(exact_nonmarkov(NonMarkovSpec(spec_free, 1.0), rho0), expected)

    d_half = trace_distance(
        exact_nonmarkov(NonMarkovSpec(spec, 0.5), rho0),
        exact_nonmarkov(NonMarkovSpec(spec, 0.0), rho0),
    )
    ok = d_markov <= 1e-10 and d_handoff <= 1e-10 and d_free <= 1e-10 and d_half > 1e-3
    return CriterionResult(
        "nonmarkov-reductions",
        ok,
        f"p=0 vs Markov {d_markov:.2e}, p=1 vs persistent env {d_handoff:.2e}, "
        f"decoupled handoff {d_free:.2e} (tol 1e-10); p=0.5 vs p=0 {d_half:.2e} (> 1e-3)",
    )


def map_distance_bounds():
    """The three perturbation bounds the error budget rests on, each on 100
    random instances: expectation robustness, CPTP composition, unitary+CPTP."""
    rng = np.random.default_rng(61)
    n_inst = 100

    worst = -math.inf
    for _ in range(n_inst):
        dim = int(rng.choice([2, 4, 8]))
        p = _random_unitary(rng, dim)
        pert = _random_hermitian(rng, dim)
        pert *= rng.uniform(0.01, 0.8) / spectral_norm(pert)
        q = p + pert
        gamma = spectral_norm(p - q)
        rho = _random_state(rng, dim)
        o = _random_hermitian(rng, dim)
        lhs = abs(
            np.trace(o @ p @ rho @ p.conj().T).real
            - np.trace(o @ q @ rho @ q.conj().T).real
        )
        worst = max(worst, lhs - 3.0 * spectral_norm(o) * gamma)
    exp_ok = worst <= 1e-12
    exp_worst = worst

    worst = -math.inf
    for _ in range(n_inst):
        dim = int(rng.choice([2, 4]))
        k_maps = int(rng.integers(1, 5))
        rho_a = rho_b = _random_state(rng, dim)
        eps_cert = 0.0
        for _ in range(k_maps):
            if rng.random() < 0.5:
                u = _random_unitary(rng, dim)
                g = _random_hermitian(rng, dim)
                g *= rng.uniform(0.0, 0.3) / spectral_norm(g)
                v = u @ unitary_exact(g, 1.0)
                eps_cert = max(eps_cert, 2.0 * spectral_norm(u - v))
                rho_a = u @ rho_a @ u.conj().T
                rho_b = v @ rho_b @ v.conj().T
            else:
                a, b = rng.uniform(0.0, 1.0, size=2)
                eps_cert = max(eps_cert, 2.0 * abs(a - b))
                eye = np.eye(dim) / dim
                rho_a = (1 - a) * rho_a + a * np.trace(rho_a) * eye
                rho_b = (1 - b) * rho_b + b * np.trace(rho_b) * eye
        lhs = trace_distance(rho_a, rho_b)
        worst = max(worst, lhs - k_maps * eps_cert)
    comp_ok = worst <= 1e-12
    comp_worst = worst

    worst = -math.inf
    for _ in range(n_inst):
        dim = int(rng.choice([2, 4, 8]))
        u = _random_unitary(rng, dim)
        g = _random_hermitian(rng, dim)
        g *= rng.uniform(0.0, 0.5) / spectral_norm(g)
        u_tilde = u @ unitary_exact(g, 1.0)
        ka = _random_kraus(rng, dim, int(rng.integers(1, 4)))
        kb = _random_kraus(rng, dim, int(rng.integers(1, 4)))
        rho = _random_state(rng, dim)
        a_rho = _apply_kraus(ka, rho)
        b_rho = _apply_kraus(kb, rho)
        lhs = trace_distance(u @ a_rho @ u.conj().T, u_tilde @ b_rho @ u_tilde.conj().T)
        rhs = 2.0 * spectral_norm(u - u_tilde) + trace_distance(a_rho, b_rho)
        worst = max(worst, lhs - rhs)
    mix_ok = worst <= 1e-12
    ok = exp_ok and comp_ok and mix_ok
    return CriterionResult(
        "map-distance-bounds",
        ok,
        f"worst slack over {n_inst} instances each: expectation {exp_worst:.2e}, "
        f"composition {comp_worst:.2e}, unitary+CPTP {worst:.2e} (all must be <= 0)",
    )


CRITERIA = (
    ("exact-map-equivalence", exact_map_equivalence),
    ("lcu-segment-bound", lcu_segment_bound),
    ("estimator-unbiasedness", estimator_unbiasedness),
    ("hoeffding-coverage", hoeffding_coverage),
    ("lindblad-convergence", lindblad_convergence),
    ("damped-tfim-benchmark", damped_tfim_benchmark),
    ("resource-trend", resource_trend),
    ("nonmarkov-reductions", nonmarkov_reductions),
    ("map-distance-bounds", map_distance_bounds),
)


def run_criterion(name):
    for key, fn in CRITERIA:
        if key == name:
            start = time.perf_counter()
            result = fn()
            return replace(result, seconds=time.perf_counter() - start)
    raise ValueError(f"unknown criterion {name!r}")


def run_all(names=None):
    picked = names if names is not None else [k for k, _ in CRITERIA]
    return [run_criterion(name) for name in picked]
