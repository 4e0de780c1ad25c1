"""Monte-Carlo estimation of Tr[O M_K[rho]].

Protocol per run: build the collision program, execute it on a fresh copy
of the input state, and measure. When the final state does not depend on the
run (the exact backend, or a fixed program), it is computed once per estimate
and each run only measures it with its own RNG. With the sampled-LCU backend
the program carries the control ancilla and the measured operator is
sigma^x (x) O, whose per-run conditional expectation averages to
Tr[O Mtilde_K[rho]]/zeta^2; the estimate is mu = (zeta^2 / T) sum_k mu_k.
Product-formula backends measure O directly (zeta = 1).

Budget split: the statistical half is covered by T = hoeffding_T(normO, eps,
delta, zeta) = ceil(8 normO^2 ln(2/delta) zeta^4 / eps^2), which pins the
confidence half-width to eps/2; the approximation half goes to the
per-collision precision. A deterministic backend measured analytically has no
statistical error, so it runs once with the full eps on the approximation.

Runs are seeded independently as SeedSequence((root_seed, run_index)), making
results identical for any worker count; aggregation sums in run-index order.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .circuits import ResourceReport, count_resources, execute
from .collisions import (
    Budget,
    NonMarkovSpec,
    exact_k_collision,
    exact_nonmarkov,
    markov_plan,
    markov_program,
    nonmarkov_program,
    parse_backend,
)
from .states import Observable, born_sample, expectation


def hoeffding_T(norm_o, eps, delta, zeta=1.0):
    """Runs needed for confidence half-width eps/2 at failure probability delta."""
    if eps <= 0 or not 0 < delta < 1 or norm_o <= 0:
        raise ValueError("need eps > 0, 0 < delta < 1, norm_o > 0")
    return math.ceil(8.0 * norm_o**2 * math.log(2.0 / delta) * zeta**4 / eps**2)


def measured_observable(obs, ancilla):
    """sigma^x (x) O when the Hadamard-test ancilla is present, else O."""
    if not ancilla:
        return obs
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    return Observable(np.kron(x, obs.matrix))


def _measure(final, measured, measurement, rng):
    """Conditional mean, or one shot drawn with the run's RNG."""
    if measurement == "analytic":
        return expectation(final, measured)
    return born_sample(final, measured, rng)


def run_once(program, rho_system, env_preparers, measured, measurement, rng):
    """One coherent run: execute and measure (conditional mean or one shot)."""
    return _measure(execute(program, rho_system, env_preparers), measured, measurement, rng)


@dataclass
class EstimateReport:
    mu: float
    stderr: float
    t_runs: int
    zeta: float
    eps: float
    eps_prime: float
    delta: float
    backend: str
    measurement: str
    seed: int
    resources_mean: ResourceReport
    under_sampled: bool = False
    samples: tuple = ()  # per-run zeta^2 mu_k, kept only on request

    ROW_FIELDS = (
        "mu",
        "stderr",
        "t_runs",
        "zeta",
        "eps",
        "eps_prime",
        "delta",
        "backend",
        "measurement",
        "seed",
        "cnot_mean",
        "rotation_mean",
        "pauli_gate_mean",
        "depth_proxy_mean",
        "env_preps_mean",
        "under_sampled",
    )

    def as_row(self):
        r = self.resources_mean
        return (
            self.mu,
            self.stderr,
            self.t_runs,
            self.zeta,
            self.eps,
            self.eps_prime,
            self.delta,
            self.backend,
            self.measurement,
            self.seed,
            r.cnot_count,
            r.rotation_count,
            r.pauli_gate_count,
            r.depth_proxy,
            r.env_preps,
            int(self.under_sampled),
        )


def _run_rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def _program_is_random(spec, backend):
    """True when per-run programs differ: sampling compilers, or a partial
    swap drawn with probability p strictly inside (0, 1)."""
    if not backend.deterministic:
        return True
    return isinstance(spec, NonMarkovSpec) and 0.0 < spec.p < 1.0


def _prepare(spec, backend, eps, measurement, norm_o):
    """Resolve (base spec, plan-or-None) for one estimate call."""
    base = spec.base if isinstance(spec, NonMarkovSpec) else spec
    if backend.kind == "exact":
        return base, None
    if backend.kind == "salcu":
        budget = Budget(eps, norm_o, "salcu")
    elif not _program_is_random(spec, backend) and measurement == "analytic":
        budget = Budget(eps, norm_o, "generic")
    else:
        # randomized circuit or shot noise: half the budget is statistical
        budget = Budget(eps / 2.0, norm_o, "generic")
    return base, markov_plan(base, backend, budget)


def _build_program(spec, base, plan, rng):
    if isinstance(spec, NonMarkovSpec):
        return nonmarkov_program(spec, None, rng=rng, plan=plan)
    return markov_program(base, None, rng=rng, plan=plan)


def _fixed_final_state(spec, base, rho0, fixed):
    """The run-independent final state: the exact map, or the fixed program's output."""
    if fixed is not None:
        return execute(fixed, rho0, base.env_preparers())
    if isinstance(spec, NonMarkovSpec):
        return exact_nonmarkov(spec, rho0)
    return exact_k_collision(base, rho0)


def _run_block(spec, base, plan, rho0, measured, measurement, seed, indices, final):
    """Sequential runs for the given indices; the parallel path ships this off.

    With a final state given, each run only measures it; otherwise each run
    builds, executes and counts its own program.
    """
    mus = np.empty(len(indices))
    totals = ResourceReport()
    for pos, k in enumerate(indices):
        rng = _run_rng(seed, k)
        if final is not None:
            mus[pos] = _measure(final, measured, measurement, rng)
            continue
        program = _build_program(spec, base, plan, rng)
        mus[pos] = run_once(program, rho0, base.env_preparers(), measured, measurement, rng)
        totals = totals + count_resources(program)
    return mus, totals


def _block_worker(args):
    return _run_block(*args)


def estimate(
    spec,
    rho0,
    obs,
    backend,
    eps,
    delta=0.05,
    seed=0,
    measurement="analytic",
    t_override=None,
    workers=1,
    keep_samples=False,
):
    """Estimate Tr[O M_K[rho0]] to within eps with probability >= 1 - delta.

    spec is a CollisionSpec or NonMarkovSpec; backend a selector string or
    Backend. t_override forces the run count (downward overrides are flagged
    in the report). workers > 1 distributes runs; results are identical to
    the serial order for any worker count.
    """
    if measurement not in ("analytic", "shot"):
        raise ValueError(f"unknown measurement mode {measurement!r}")
    if isinstance(backend, str):
        backend = parse_backend(backend)
    base, plan = _prepare(spec, backend, eps, measurement, obs.norm)
    zeta = 1.0 if plan is None else plan.zeta
    fixed_program = backend.kind != "exact" and not _program_is_random(spec, backend)
    run_independent = backend.kind == "exact" or fixed_program
    if run_independent and measurement == "analytic":
        t_runs = 1
    else:
        t_runs = hoeffding_T(obs.norm, eps, delta, zeta)
    under_sampled = False
    if t_override is not None:
        under_sampled = t_override < t_runs
        t_runs = int(t_override)
    ancilla = plan.ancilla if plan is not None else False
    measured = measured_observable(obs, ancilla)
    measured.eig()  # prime the cache once, before any fork
    fixed = _build_program(spec, base, plan, _run_rng(seed, 0)) if fixed_program else None
    # computed here, in the parent, so workers only measure it
    final = _fixed_final_state(spec, base, rho0, fixed) if run_independent else None
    indices = list(range(t_runs))
    if workers > 1 and t_runs > 1:
        chunks = np.array_split(indices, min(workers * 4, t_runs))
        args = [
            (spec, base, plan, rho0, measured, measurement, seed, list(c), final)
            for c in chunks
            if len(c)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_block_worker, args))
        mus = np.concatenate([r[0] for r in results])
        totals = ResourceReport()
        for r in results:
            totals = totals + r[1]
    else:
        mus, totals = _run_block(
            spec, base, plan, rho0, measured, measurement, seed, indices, final
        )
    scaled = zeta**2 * mus
    mu = float(scaled.sum() / t_runs)
    stderr = float(scaled.std(ddof=1) / math.sqrt(t_runs)) if t_runs > 1 else 0.0
    if backend.kind == "exact":
        res_mean = ResourceReport()
    elif fixed is not None:
        res_mean = count_resources(fixed)
    else:
        res_mean = ResourceReport(
            *(v / t_runs for v in totals.as_tuple())
        )
    return EstimateReport(
        mu=mu,
        stderr=stderr,
        t_runs=t_runs,
        zeta=zeta,
        eps=eps,
        eps_prime=0.0 if plan is None else plan.eps_prime,
        delta=delta,
        backend=backend.label(),
        measurement=measurement,
        seed=seed,
        resources_mean=res_mean,
        under_sampled=under_sampled,
        samples=tuple(float(v) for v in scaled) if keep_samples else (),
    )
