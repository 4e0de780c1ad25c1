"""Monte-Carlo estimation of Tr[O M_K[rho]].

Protocol: an estimate builds its collision program once, as one skeleton
(circuits.Skeleton) of one Kraus window per collision, with the random
parts left open and the env preparers bound; each run, Markov or not,
draws the open parts with its own RNG, runs that draw on a fresh copy of
the input state with no program of its own, and measures. No run's gates
are counted: the estimate's price, resources_mean, is its plan's expected
gate count per run (collisions.expected_resources), worked out before the
skeleton is built, so it depends on neither the seed, the run count nor
the worker count. When the final state does not depend on the run (the
exact backend, or a fixed program: the skeleton's one run), it is computed
and measured once per estimate: its conditional mean, or the Born
distribution from which its T shots are drawn. With the sampled-LCU
backend the program carries the control ancilla and the measured operator
is sigma^x (x) O. The ancilla is never held as a register: a run evolves
the system-sized blocks rho_ab of the ancilla (+) system state, and the
conditional expectation reads 2 Re Tr[O rho_10] from the one block rho_10
(a shot draws from the state joined from rho_00, rho_11 and rho_10). Its
mean over runs is Tr[O Mtilde_K[rho]]/zeta^2; the estimate is
mu = (zeta^2 / T) sum_k mu_k.
Product-formula backends measure O directly (zeta = 1).

Budget split (resolve_plan, the one place a plan is sized): a statistical
estimate, one with shot readout or a randomized program, covers half of eps
with T = hoeffding_T(normO, eps, delta, zeta) = ceil(8 normO^2 ln(2/delta)
zeta^4 / eps^2) runs, which pins the confidence half-width to eps/2, and
spends the other half on the per-collision precision. Any other estimate has
no statistical error, so it runs once with the full eps on the circuits.

The runs of a randomized program are seeded independently as
SeedSequence((root_seed, run_index)), making results identical for any
worker count; aggregation sums in run-index order. The T shots of a
run-independent estimate are i.i.d. draws from its one Born distribution,
taken in run order from run 0's generator, one rng.random block and one
searchsorted at a time. Only the runs of a randomized program go to worker
processes: a run-independent estimate reads its one outcome in process
whatever the worker count.
"""

import math
from dataclasses import dataclass
import numpy as np

from ._draws import draw_index
from .circuits import ResourceReport
from .collisions import (
    NonMarkovSpec,
    exact_k_collision,
    exact_nonmarkov,
    expected_resources,
    markov_plan,
    markov_skeleton,
    nonmarkov_skeleton,
    parse_backend,
)
from .states import (
    Observable,
    born_distribution,
    born_sample,
    expectation,
    hadamard_expectation,
    join_blocks,
)


def hoeffding_T(norm_o, eps, delta, zeta=1.0):
    """Runs needed for confidence half-width eps/2 at failure probability delta."""
    if eps <= 0 or not 0 < delta < 1 or norm_o <= 0:
        raise ValueError("need eps > 0, 0 < delta < 1, norm_o > 0")
    return math.ceil(8.0 * norm_o**2 * math.log(2.0 / delta) * zeta**4 / eps**2)


def measured_observable(obs, ancilla):
    """sigma^x (x) O when the Hadamard-test ancilla is present, else O.

    The ancilla is the most significant qubit, so the upper-right block of
    sigma^x (x) O is O itself."""
    if not ancilla:
        return obs
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    return Observable(np.kron(x, obs.matrix))


def run_once(skeleton, draw, rho_system, measured, measurement, rng):
    """One coherent run: run one draw of a Skeleton (which holds its own env
    preparers) and measure (conditional mean or one shot).

    With the Hadamard-test ancilla the conditional mean of sigma^x (x) O is
    2 Re Tr[O rho_10], so only that block is evolved; a shot is drawn from
    the joined state of the blocks rho_00, rho_11 and rho_10.
    """
    if skeleton.ancilla and measurement == "analytic":
        return hadamard_expectation(skeleton.run(draw, rho_system, ((1, 0),))[1, 0], measured)
    final = skeleton.run(draw, rho_system)
    if skeleton.ancilla:
        final = join_blocks(final)
    if measurement == "analytic":
        return expectation(final, measured)
    return born_sample(final, measured, rng)


@dataclass
class EstimateReport:
    """One estimate of Tr[O M_K[rho0]] from t_runs runs. resources_mean is
    the plan's expected gate counts per run (expected CNOTs per run, and so
    on: collisions.expected_resources), all zero for the exact backend."""

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
            *self.resources_mean.as_tuple(),
            int(self.under_sampled),
        )


_SHOT_BLOCK = 1 << 14  # shots per generator call: scratch stays O(block) whatever T


def _run_rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def _program_is_random(spec, backend):
    """True when per-run programs differ: sampling compilers, or a partial
    swap drawn with probability p strictly inside (0, 1). The exact backend
    runs no program."""
    if backend.kind == "exact":
        return False
    if not backend.deterministic:
        return True
    return isinstance(spec, NonMarkovSpec) and 0.0 < spec.p < 1.0


def _is_statistical(spec, backend, measurement):
    """True when the estimate has statistical error: shot readout, or a
    randomized program."""
    return measurement == "shot" or _program_is_random(spec, backend)


def resolve_plan(spec, backend, eps, measurement, norm_o):
    """(base spec, plan) as estimate runs it; the plan is None for the exact
    backend, which runs no program. The one budget rule: a statistical
    estimate spends eps/2 on its circuits, the other half going to
    Hoeffding's T; any other estimate runs once and spends all of eps."""
    base = spec.base if isinstance(spec, NonMarkovSpec) else spec
    if backend.kind == "exact":
        return base, None
    circuit_eps = eps / 2.0 if _is_statistical(spec, backend, measurement) else eps
    return base, markov_plan(base, backend, circuit_eps, norm_o)


def _skeleton(spec, base, plan):
    if isinstance(spec, NonMarkovSpec):
        return nonmarkov_skeleton(spec, plan)
    return markov_skeleton(base, plan)


def _exact_final_state(spec, base, rho0):
    if isinstance(spec, NonMarkovSpec):
        return exact_nonmarkov(spec, rho0)
    return exact_k_collision(base, rho0)


def _fixed_runs(final, measured, measurement, seed, t_runs):
    """The t_runs values measured on a run-independent final state: its
    conditional mean, or t_runs shots from its Born distribution, drawn in
    run order from run 0's generator, _SHOT_BLOCK doubles at a time."""
    if measurement == "analytic":
        return np.full(t_runs, expectation(final, measured))
    vals, _, cdf = born_distribution(final, measured)
    rng = _run_rng(seed, 0)
    mus = np.empty(t_runs)
    for lo in range(0, t_runs, _SHOT_BLOCK):
        hi = min(lo + _SHOT_BLOCK, t_runs)
        mus[lo:hi] = vals[draw_index(cdf, rng, hi - lo)]
    return mus


def _run_block(skeleton, rho0, measured, measurement, seed, start, stop):
    """The values of sequential runs start..stop-1 of a randomized program;
    the parallel path ships this off. Each run draws the skeleton's open
    parts with its own generator and runs that draw."""
    mus = np.empty(stop - start)
    for pos, k in enumerate(range(start, stop)):
        rng = _run_rng(seed, k)
        mus[pos] = run_once(skeleton, skeleton.draw(rng), rho0, measured, measurement, rng)
    return mus


def _shared_floats(values):
    """The values as a tuple of floats holding one float object per distinct
    bit pattern: shot runs repeat a few eigenvalues, so a kept sample costs
    its 8-byte slot rather than a float object of its own."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    objects = bits.view(np.float64).tolist()
    return tuple(map(objects.__getitem__, inverse.tolist()))


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
    Backend. t_override (>= 1) forces the run count (downward overrides are
    flagged in the report). workers > 1 distributes the runs of a randomized
    program; results are identical to the serial order for any worker count.
    An argument out of its bound is refused up front, by name, as
    cli.build_config refuses its key.
    """
    if measurement not in ("analytic", "shot"):
        raise ValueError(f"unknown measurement mode {measurement!r}")
    for name, value, ok, bound in (
        ("eps", eps, eps > 0, "> 0"),
        ("delta", delta, 0 < delta < 1, "in (0, 1)"),
        ("seed", seed, seed >= 0, ">= 0"),
        ("workers", workers, workers >= 1, ">= 1"),
        ("t_override", t_override, t_override is None or t_override >= 1, ">= 1"),
    ):
        if not ok:
            raise ValueError(f"{name} must be {bound}, got {value!r}")
    if isinstance(backend, str):
        backend = parse_backend(backend)
    base, plan = resolve_plan(spec, backend, eps, measurement, obs.norm)
    res_mean = ResourceReport() if plan is None else expected_resources(spec, plan)
    zeta = 1.0 if plan is None else plan.zeta
    run_independent = not _program_is_random(spec, backend)
    if _is_statistical(spec, backend, measurement):
        t_runs = hoeffding_T(obs.norm, eps, delta, zeta)
    else:
        t_runs = 1
    under_sampled = False
    if t_override is not None:
        under_sampled = t_override < t_runs
        t_runs = int(t_override)
    skeleton = None if plan is None else _skeleton(spec, base, plan)
    measured = measured_observable(obs, skeleton is not None and skeleton.ancilla)
    if measurement == "shot":
        measured.eig()  # shots read it: prime the cache once, before any fork
    if run_independent:  # every run only reads one final state: no worker is started
        if skeleton is None:
            final = _exact_final_state(spec, base, rho0)
        else:  # a fixed program: the skeleton's one run
            final = skeleton.run((), rho0)
        mus = _fixed_runs(final, measured, measurement, seed, t_runs)
    else:
        if workers > 1 and t_runs > 1:
            from concurrent.futures import ProcessPoolExecutor  # serial runs never load it

            bounds = np.linspace(0, t_runs, min(workers * 4, t_runs) + 1).astype(int).tolist()
            args = [
                (skeleton, rho0, measured, measurement, seed, lo, hi)
                for lo, hi in zip(bounds, bounds[1:])
            ]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                mus = np.concatenate(list(pool.map(_block_worker, args)))
        else:
            mus = _run_block(skeleton, rho0, measured, measurement, seed, 0, t_runs)
    scaled = zeta**2 * mus
    mu = float(scaled.sum() / t_runs)
    stderr = float(scaled.std(ddof=1) / math.sqrt(t_runs)) if t_runs > 1 else 0.0
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
        samples=_shared_floats(scaled) if keep_samples else (),
    )
