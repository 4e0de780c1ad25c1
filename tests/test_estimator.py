"""Estimator: run counts, budget split, seeding, and statistical behavior."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from collidesim import (
    Collision,
    CollisionSpec,
    DensityMatrix,
    EstimateReport,
    NonMarkovSpec,
    Observable,
    PauliString,
    PauliSum,
    ThermalPrep,
    amp_damp_model,
    estimate,
    exact_k_collision,
    exact_nonmarkov,
    execute,
    expected_resources,
    expectation,
    hoeffding_T,
    lindblad_collision_spec,
    magnetization,
    markov_plan,
    markov_program,
    nonmarkov_program,
    parse_backend,
    required_precision,
)
from collidesim.acceptance import _random_collision
from collidesim.circuits import Skeleton
from collidesim.collisions import nonmarkov_skeleton
from collidesim.estimator import _SHOT_BLOCK, measured_observable, resolve_plan, run_once
from collidesim.states import born_distribution, join_blocks
from dense_reference import (
    execute_register,
    generic_path_calls,
    pauli_sum,
    per_run_program_calls,
)


def _spec():
    sys_h = pauli_sum([(0.4, "Z")])
    col_a = Collision(
        1,
        pauli_sum([(0.3, "X")]),
        pauli_sum([(0.5, "XX"), (0.2, "-ZY")]),
        ThermalPrep(math.inf),
    )
    col_b = Collision(
        1,
        pauli_sum([(0.5, "Z")]),
        pauli_sum([(0.6, "YY"), (0.3, "XZ")]),
        ThermalPrep(math.log(3.0)),
    )
    return CollisionSpec(1, sys_h, (col_a, col_b), 0.2)


OBS = magnetization(1)
RHO0 = DensityMatrix.basis(1, 1)


def test_hoeffding_t_frozen():
    assert hoeffding_T(1.0, 0.1, 0.05) == 2952
    assert hoeffding_T(1.0, 0.1, 0.10) == 2397
    # zeta enters at the fourth power
    assert hoeffding_T(1.0, 0.1, 0.05, zeta=2.0) == math.ceil(
        16.0 * 8.0 * math.log(40.0) / 0.01
    )
    with pytest.raises(ValueError):
        hoeffding_T(1.0, 0.0, 0.05)
    with pytest.raises(ValueError):
        hoeffding_T(1.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        hoeffding_T(0.0, 0.1, 0.05)


def test_exact_backend_single_analytic_run():
    spec = _spec()
    rep = estimate(spec, RHO0, OBS, "exact", eps=0.05, seed=3)
    assert rep.t_runs == 1
    assert rep.stderr == 0.0
    assert rep.zeta == 1.0
    assert rep.eps_prime == 0.0
    assert rep.resources_mean.as_tuple() == (0, 0, 0, 0, 0)
    assert rep.mu == pytest.approx(expectation(exact_k_collision(spec, RHO0), OBS))


def test_deterministic_backend_gets_full_budget():
    spec = _spec()
    eps = 1e-3
    rep = estimate(spec, RHO0, OBS, "trotter1", eps=eps, seed=0)
    assert rep.t_runs == 1
    # no statistical half: the whole eps funds the circuit accuracy
    assert rep.eps_prime == pytest.approx(required_precision(spec.K, OBS.norm, eps))
    truth = expectation(exact_k_collision(spec, RHO0), OBS)
    assert abs(rep.mu - truth) <= eps
    res = rep.resources_mean
    assert res.rotation_count == int(res.rotation_count) > 0


def test_repeating_a_fixed_program_changes_nothing():
    spec = _spec()
    one = estimate(spec, RHO0, OBS, "trotter1", eps=0.01, seed=1)
    many = estimate(spec, RHO0, OBS, "trotter1", eps=0.01, seed=1, t_override=3)
    assert many.t_runs == 3
    assert not many.under_sampled
    assert many.mu == pytest.approx(one.mu, abs=1e-15)
    assert many.stderr < 1e-12  # identical runs, up to mean-subtraction noise


def test_shot_measurement_halves_budget_and_samples():
    spec = _spec()
    eps, delta = 0.2, 0.2
    rep = estimate(spec, RHO0, OBS, "trotter1", eps=eps, delta=delta,
                   measurement="shot", seed=11)
    assert rep.t_runs == hoeffding_T(OBS.norm, eps, delta)
    assert rep.eps_prime == pytest.approx(required_precision(spec.K, OBS.norm, eps / 2.0))
    truth = expectation(exact_k_collision(spec, RHO0), OBS)
    assert abs(rep.mu - truth) <= eps
    assert rep.stderr > 0.0


def test_t_override_flags_under_sampling():
    spec = _spec()
    low = estimate(spec, RHO0, OBS, "qdrift", eps=0.2, delta=0.2, seed=2,
                   t_override=25)
    assert low.t_runs == 25
    assert low.under_sampled
    high = estimate(spec, RHO0, OBS, "trotter1", eps=0.2, seed=2, t_override=2)
    assert not high.under_sampled


def test_t_override_below_one_is_rejected():
    with pytest.raises(ValueError):
        estimate(_spec(), RHO0, OBS, "qdrift", eps=0.2, delta=0.2, seed=2, t_override=0)


REFUSED_ARGUMENTS = [
    (dict(eps=-1.0), r"eps must be > 0, got -1\.0"),
    (dict(eps=0.0), r"eps must be > 0, got 0\.0"),
    (dict(delta=5.0), r"delta must be in \(0, 1\), got 5\.0"),
    (dict(delta=0.0), r"delta must be in \(0, 1\), got 0\.0"),
    (dict(workers=0), r"workers must be >= 1, got 0"),
    (dict(workers=-4), r"workers must be >= 1, got -4"),
    (dict(seed=-3), r"seed must be >= 0, got -3"),
]


@pytest.mark.parametrize("backend", ["trotter1", "trotter2k:1", "qdrift", "salcu", "exact"])
@pytest.mark.parametrize("bad, message", REFUSED_ARGUMENTS,
                         ids=[f"{k}={v}" for bad, _ in REFUSED_ARGUMENTS for k, v in bad.items()])
def test_an_argument_out_of_its_config_bound_is_refused_by_name(backend, bad, message):
    # the bounds cli.build_config puts on dynamics.eps (> 0), dynamics.delta,
    # execution.workers and execution.seed hold for every backend, whether or
    # not the estimate would have read the value
    kw = {"eps": 0.2, "delta": 0.2, "seed": 2, "t_override": 4, **bad}
    with pytest.raises(ValueError, match=message):
        estimate(_spec(), RHO0, OBS, backend, **kw)


def test_qdrift_seed_determinism():
    spec = _spec()
    kw = dict(eps=0.2, delta=0.2, seed=7, t_override=40)
    a = estimate(spec, RHO0, OBS, "qdrift", **kw)
    b = estimate(spec, RHO0, OBS, "qdrift", **kw)
    c = estimate(spec, RHO0, OBS, "qdrift", eps=0.2, delta=0.2, seed=8, t_override=40)
    assert a.mu == b.mu and a.stderr == b.stderr
    assert a.mu != c.mu


def test_worker_count_does_not_change_the_estimate():
    spec = _spec()
    kw = dict(eps=0.2, delta=0.2, seed=5, t_override=16)
    serial = estimate(spec, RHO0, OBS, "qdrift", **kw)
    parallel = estimate(spec, RHO0, OBS, "qdrift", workers=2, **kw)
    assert parallel.mu == serial.mu
    assert parallel.stderr == serial.stderr
    assert parallel.resources_mean.as_tuple() == serial.resources_mean.as_tuple()


def test_run_independent_estimates_start_no_worker(monkeypatch):
    # every run of a fixed program or of the exact map only reads one outcome
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a run-independent estimate started worker processes")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    spec = _spec()
    for backend in ("trotter1", "exact"):
        kw = dict(eps=0.2, delta=0.2, seed=5, measurement="shot")
        serial = estimate(spec, RHO0, OBS, backend, **kw)
        parallel = estimate(spec, RHO0, OBS, backend, workers=2, **kw)
        assert parallel.t_runs > 1 and repr(parallel) == repr(serial)


def test_salcu_estimate_is_unbiased_and_bounded():
    spec = _spec()
    eps = 0.25
    rep = estimate(spec, RHO0, OBS, "salcu", eps=eps, delta=0.3, seed=17,
                   keep_samples=True)
    assert rep.zeta > 1.0
    assert rep.eps_prime == pytest.approx(
        required_precision(spec.K, OBS.norm, eps / 2.0)
    )
    assert rep.t_runs == hoeffding_T(OBS.norm, eps, 0.3, rep.zeta)
    assert len(rep.samples) == rep.t_runs
    # each sample is zeta^2 times a conditional mean of sigma^x (x) O
    bound = rep.zeta**2 * OBS.norm + 1e-9
    assert max(abs(s) for s in rep.samples) <= bound
    truth = expectation(exact_k_collision(spec, RHO0), OBS)
    assert abs(rep.mu - truth) <= 5.0 * rep.stderr + 1e-3


def test_nonmarkov_partial_swap_randomizes_deterministic_backends():
    spec = _spec()
    ends = [
        estimate(NonMarkovSpec(spec, p), RHO0, OBS, "trotter1", eps=0.05, seed=0)
        for p in (0.0, 1.0)
    ]
    assert all(r.t_runs == 1 for r in ends)
    mid = estimate(NonMarkovSpec(spec, 0.4), RHO0, OBS, "trotter1",
                   eps=0.2, delta=0.2, seed=0, t_override=60)
    assert mid.under_sampled  # the true requirement is hoeffding-sized
    assert mid.eps_prime == pytest.approx(required_precision(spec.K, OBS.norm, 0.1))
    assert mid.stderr > 0.0


@pytest.mark.parametrize("p_swap", [None, 0.0, 0.5, 1.0], ids=["markov", "p0", "p0.5", "p1"])
@pytest.mark.parametrize("measurement", ["analytic", "shot"])
@pytest.mark.parametrize("backend", ["trotter1", "trotter2k:1", "qdrift", "salcu", "exact"])
def test_one_budget_rule(backend, measurement, p_swap):
    # statistical: shot readout, or a randomized program (a sampling
    # compiler, or a partial swap with 0 < p < 1); exact runs no program
    base = _spec()
    spec = base if p_swap is None else NonMarkovSpec(base, p_swap)
    eps, delta = 0.5, 0.5
    rep = estimate(spec, RHO0, OBS, backend, eps, delta, seed=1, measurement=measurement)
    randomized = backend in ("qdrift", "salcu") or (backend != "exact" and p_swap == 0.5)
    statistical = measurement == "shot" or randomized
    _, plan = resolve_plan(spec, parse_backend(backend), eps, measurement, OBS.norm)
    if backend == "exact":
        assert plan is None and rep.eps_prime == 0.0
    else:
        want = required_precision(base.K, OBS.norm, eps / 2.0 if statistical else eps)
        assert rep.eps_prime == plan.eps_prime == want
    assert (rep.t_runs == 1) == (not statistical)
    if statistical:
        assert rep.t_runs == hoeffding_T(OBS.norm, eps, delta, rep.zeta)


def test_report_row_matches_field_list():
    spec = _spec()
    rep = estimate(spec, RHO0, OBS, "trotter1", eps=0.05, seed=0)
    row = rep.as_row()
    assert len(row) == len(EstimateReport.ROW_FIELDS)
    assert row[EstimateReport.ROW_FIELDS.index("backend")] == "trotter1"
    assert row[EstimateReport.ROW_FIELDS.index("under_sampled")] == 0


def test_rejects_unknown_measurement():
    with pytest.raises(ValueError):
        estimate(_spec(), RHO0, OBS, "exact", eps=0.1, measurement="weak")


@pytest.mark.parametrize("workers", [1, 2])
def test_fixed_program_shots_are_run_0_generators_doubles_in_run_order(workers):
    # the hoeffding-coverage instance: one collision, shot readout, with more
    # runs than two generator calls of _fixed_runs draw
    rng = np.random.default_rng(5)
    spec = CollisionSpec(1, pauli_sum([(0.3, "Z")]), (_random_collision(rng, 1, 1),), 0.3)
    obs = Observable(PauliSum(1, [(1.0, PauliString.from_label("Z"))]))
    rho0 = DensityMatrix.plus()
    eps = delta = 0.1
    seed = 1000
    runs = 2 * _SHOT_BLOCK + 5
    kwargs = dict(seed=seed, measurement="shot", t_override=runs, workers=workers, keep_samples=True)
    rep = estimate(spec, rho0, obs, "trotter1", eps, delta, **kwargs)
    assert estimate(spec, rho0, obs, "trotter1", eps, delta, **kwargs) == rep
    # reference: the program's one final state, read through one random(T)
    # call of run 0's generator
    _, plan = resolve_plan(spec, parse_backend("trotter1"), eps, "shot", obs.norm)
    skeleton = Skeleton(markov_program(spec, plan), (), spec.env_preparers())
    vals, _, cdf = born_distribution(skeleton.run((), rho0), obs)
    run0 = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    mus = vals[cdf.searchsorted(run0.random(runs), side="right")]
    assert rep.t_runs == runs and len(set(mus.tolist())) == 2
    assert rep.samples == tuple(float(v) for v in mus)
    assert rep.mu == float(mus.sum() / runs)
    assert rep.stderr == float(mus.std(ddof=1) / math.sqrt(runs))
    # run 0's shot is the one a per-run loop gives it
    first = run_once(skeleton, (), rho0, obs, "shot",
                     np.random.default_rng(np.random.SeedSequence((seed, 0))))
    assert rep.samples[0] == first


def test_quickstart_cnot_counts_stay_pinned():
    model = amp_damp_model(m=4, J=1.0, h=0.1, gamma=1.0)
    spec = lindblad_collision_spec(model, 1.0, 2)
    obs = magnetization(4)
    rho0 = DensityMatrix.basis(4, 0)
    truth = expectation(exact_k_collision(spec, rho0), obs)
    for backend, cnots in (("trotter1", 122_896), ("trotter2k:1", 3_856)):
        rep = estimate(spec, rho0, obs, backend, eps=1e-2, seed=0)
        assert rep.resources_mean.cnot_count == cnots
        assert abs(rep.mu - truth) <= 1e-2


@pytest.mark.parametrize("p_swap", [None, 0.0, 0.5, 1.0], ids=["markov", "p0", "p0.5", "p1"])
@pytest.mark.parametrize("backend", ["trotter1", "trotter2k:1", "qdrift", "salcu"])
def test_every_estimate_reports_the_expected_price_of_its_plan(backend, p_swap):
    # one price per plan: at either readout, worker count, seed and run count
    base = _spec()
    target = base if p_swap is None else NonMarkovSpec(base, p_swap)
    for measurement in ("analytic", "shot"):
        _, plan = resolve_plan(target, parse_backend(backend), 0.2, measurement, OBS.norm)
        want = expected_resources(target, plan)
        for workers, seed, runs in ((1, 3, 2), (1, 4, 5), (2, 3, 5), (2, 4, 2)):
            rep = estimate(target, RHO0, OBS, backend, 0.2, 0.2, seed=seed,
                           measurement=measurement, t_override=runs, workers=workers)
            assert rep.resources_mean == want, (measurement, workers, seed, runs)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("backend", ["qdrift", "salcu"])
def test_randomized_estimate_matches_expanded_programs(backend, workers):
    spec = _spec()
    eps, delta, seed, runs = 0.2, 0.2, 13, 12
    rep = estimate(spec, RHO0, OBS, backend, eps, delta, seed=seed, t_override=runs,
                   workers=workers, keep_samples=True)
    # reference: every run's program on the dense register; the price is the plan's
    _, plan = resolve_plan(spec, parse_backend(backend), eps, "analytic", OBS.norm)
    measured = measured_observable(OBS, plan.ancilla)
    mus = []
    for k in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        program = markov_program(spec, plan, rng)
        mus.append(rep.zeta**2 * _register_readout(program, measured, "analytic", rng))
    np.testing.assert_allclose(rep.samples, mus, rtol=0, atol=1e-10)
    assert rep.resources_mean == expected_resources(spec, plan)


def _register_readout(program, measured, measurement, rng):
    """One run measured on the dense ancilla register: the conditional mean
    Tr[M rho], or a shot drawn by rng.choice from its Born distribution."""
    rho = execute_register(program, RHO0, _spec().env_preparers())
    if measurement == "analytic":
        return float(np.trace(measured.matrix @ rho).real)
    vals, vecs = measured.eig()
    probs = np.clip(np.einsum("ia,ij,ja->a", vecs.conj(), rho, vecs).real, 0.0, None)
    return float(rng.choice(vals, p=probs / probs.sum()))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("measurement", ["analytic", "shot"])
@pytest.mark.parametrize("p_swap", [None, 0.5], ids=["markov", "nonmarkov"])
def test_salcu_runs_match_the_dense_ancilla_register(p_swap, measurement, workers):
    base = _spec()
    spec = base if p_swap is None else NonMarkovSpec(base, p_swap)
    eps, delta, seed, runs = 0.2, 0.2, 17, 24
    rep = estimate(spec, RHO0, OBS, "salcu", eps, delta, seed=seed, measurement=measurement,
                   t_override=runs, workers=workers, keep_samples=True)
    _, plan = resolve_plan(spec, parse_backend("salcu"), eps, measurement, OBS.norm)
    measured = measured_observable(OBS, True)
    want, swaps = [], 0
    for k in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        if p_swap is None:
            program = markov_program(base, plan, rng)
        else:
            program = nonmarkov_program(spec, plan, rng)
        swaps += sum(w.carry for w in program.ops)
        want.append(rep.zeta**2 * _register_readout(program, measured, measurement, rng))
    if p_swap is not None:
        assert swaps > 0
    if measurement == "shot":
        assert rep.samples == tuple(want)  # the same draw in every run
    else:
        np.testing.assert_allclose(np.array(rep.samples) / rep.zeta**2,
                                   np.array(want) / rep.zeta**2, rtol=0, atol=1e-12)


def test_markov_estimates_never_touch_the_joint_register(monkeypatch):
    # a tripwire: every run, Markov or not, is Kraus windows on the system
    # plus one env, with no joint-register step
    calls = generic_path_calls(monkeypatch)
    spec = _spec()
    for backend, runs in (("qdrift", 3), ("salcu", 3), ("trotter1", None)):
        estimate(spec, RHO0, OBS, backend, 0.2, 0.2, seed=3, t_override=runs)
    for p in (0.0, 0.5, 1.0):
        for backend, runs in (("trotter1", 4), ("qdrift", 3), ("salcu", 3)):
            for measurement in ("analytic", "shot"):
                estimate(NonMarkovSpec(spec, p), RHO0, OBS, backend, 0.2, 0.2, seed=3,
                         measurement=measurement, t_override=runs)
    assert not calls


SKELETON_CASES = [
    ("qdrift", None, "analytic"),
    ("salcu", None, "analytic"),
    ("salcu", None, "shot"),
    ("qdrift", 0.5, "analytic"),
    ("trotter2k:1", 0.5, "analytic"),
    ("qdrift", 1.0, "analytic"),
    ("salcu", 1.0, "shot"),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("backend, p_swap, measurement", SKELETON_CASES)
def test_skeleton_runs_equal_per_run_programs_bit_for_bit(backend, p_swap, measurement, workers):
    # reference: build each run's own program, as markov_program and
    # nonmarkov_program give it for the run's generator; its run must give the
    # estimate's sample bit for bit and its final state must be the dense
    # two-slot register's; the estimate's price is the plan's
    base = _spec()
    spec = base if p_swap is None else NonMarkovSpec(base, p_swap)
    eps, delta, seed, runs = 0.2, 0.2, 19, 16
    rep = estimate(spec, RHO0, OBS, backend, eps, delta, seed=seed, measurement=measurement,
                   t_override=runs, workers=workers, keep_samples=True)
    _, plan = resolve_plan(spec, parse_backend(backend), eps, measurement, OBS.norm)
    measured = measured_observable(OBS, plan.ancilla)
    preps = base.env_preparers()
    want = []
    for k in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        if p_swap is None:
            program = markov_program(base, plan, rng)
        else:
            program = nonmarkov_program(spec, plan, rng)
        mu = run_once(Skeleton(program, (), preps), (), RHO0, measured, measurement, rng)
        want.append(rep.zeta**2 * mu)
        final = execute(program, RHO0, preps)
        final = join_blocks(final) if program.ancilla else final
        np.testing.assert_allclose(final.data, execute_register(program, RHO0, preps),
                                   rtol=0, atol=1e-10)
    assert rep.samples == tuple(want)
    assert rep.resources_mean == expected_resources(spec, plan)
    if p_swap == 1.0:  # a certain carry is closed: a run draws only its fragments
        skeleton = nonmarkov_skeleton(spec, plan)
        assert skeleton.draws and all(k is not None for (_, k), _ in skeleton.draws)


def test_randomized_estimates_check_and_price_no_program_per_run(monkeypatch):
    # a tripwire: the skeleton is validated once per estimate and the price
    # is the plan's, so no count grows with the run count and no program is
    # priced, and a non-Markov run executes its draw with no program of its own
    calls = per_run_program_calls(monkeypatch)
    spec = _spec()
    memory = NonMarkovSpec(spec, 0.5)
    for target, backend, measurement in (
        (spec, "qdrift", "analytic"),
        (spec, "salcu", "analytic"),
        (spec, "salcu", "shot"),
        (memory, "qdrift", "analytic"),
        (memory, "trotter2k:1", "analytic"),
    ):
        for runs in (1, 20):
            calls.clear()
            estimate(target, RHO0, OBS, backend, 0.2, 0.2, seed=3, measurement=measurement,
                     t_override=runs)
            assert calls == {"validate": 1}, (backend, measurement, runs)


def test_a_fixed_estimate_runs_the_one_skeleton_it_builds(monkeypatch):
    # a tripwire: a fixed program's final state is one run of the estimate's
    # skeleton and its price the plan's, so the program is checked once and
    # no second skeleton is built, nor any program priced
    calls = per_run_program_calls(monkeypatch)
    real_init = Skeleton.__init__

    def init(self, *args, **kwargs):
        calls["Skeleton"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Skeleton, "__init__", init)
    spec = _spec()
    for target, backend, measurement in (
        (spec, "trotter1", "analytic"),
        (spec, "trotter1", "shot"),
        (NonMarkovSpec(spec, 0.0), "trotter2k:1", "analytic"),
        (NonMarkovSpec(spec, 1.0), "trotter2k:1", "analytic"),
    ):
        calls.clear()
        rep = estimate(target, RHO0, OBS, backend, 0.2, 0.2, seed=3, measurement=measurement,
                       t_override=5)
        assert calls == {"validate": 1, "Skeleton": 1}, (backend, measurement, target)
        assert rep.resources_mean.cnot_count > 0


class _CountedPrep:
    """A preparer that counts its calls under its key."""

    def __init__(self, prep, calls, key):
        self.prep, self.calls, self.key = prep, calls, key

    def __call__(self):
        self.calls[self.key] += 1
        return self.prep()


def test_env_states_are_prepared_once_per_prep_key():
    # a tripwire: a skeleton prepares each distinct env state once, before
    # its first run, so no run calls a preparer; collisions that share a
    # preparer (as the Lindblad cycle's do) share its one call
    calls = Counter()
    base = _spec()
    shared = _CountedPrep(base.collisions[0].env_prep, calls, "s")
    for keys in ("ab", "ss"):
        col_a, col_b = (
            replace(c, env_prep=shared if key == "s" else _CountedPrep(c.env_prep, calls, key))
            for key, c in zip(keys, base.collisions)
        )
        collisions = (col_a, col_b, col_a, col_b)
        _check_one_call_per_preparer(base, collisions, calls, dict.fromkeys(keys, 1))


def _check_one_call_per_preparer(base, collisions, calls, want):
    spec = CollisionSpec(1, base.system_h, collisions, base.dt)
    memory = NonMarkovSpec(spec, 0.5)
    for target, backend, measurement in (
        (spec, "qdrift", "analytic"),
        (spec, "salcu", "shot"),
        (spec, "trotter1", "shot"),
        (memory, "qdrift", "analytic"),
        (memory, "trotter2k:1", "analytic"),
    ):
        for runs in (1, 20):
            calls.clear()
            estimate(target, RHO0, OBS, backend, 0.2, 0.2, seed=3, measurement=measurement,
                     t_override=runs)
            assert calls == want, (backend, measurement, runs)
    rng = np.random.default_rng(5)
    for program in (
        markov_program(spec, markov_plan(spec, parse_backend("salcu"), 0.1, 1.0), rng),
        nonmarkov_program(
            NonMarkovSpec(spec, 1.0), markov_plan(spec, parse_backend("trotter1"), 0.2, 1.0), rng
        ),
    ):
        calls.clear()
        execute(program, RHO0, spec.env_preparers())
        assert calls == want
    # the exact maps read one state per preparer of a fresh spec
    for exact in (
        lambda s: exact_k_collision(s, RHO0),
        lambda s: exact_nonmarkov(NonMarkovSpec(s, 0.5), RHO0),
    ):
        calls.clear()
        exact(CollisionSpec(1, base.system_h, collisions, base.dt))
        assert calls == want


def test_the_empirical_step_search_runs_once_per_spec(monkeypatch):
    from collections import Counter

    from collidesim import oracles

    calls = Counter()
    real = oracles.unitary_exact

    def unitary_exact(*args, **kwargs):
        calls["unitary_exact"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(oracles, "unitary_exact", unitary_exact)
    spec = NonMarkovSpec(_spec(), 0.5)
    kw = dict(seed=3, keep_samples=True)
    one = estimate(spec, RHO0, OBS, "trotter2k:1", 0.2, 0.2, t_override=1, **kw)
    assert calls["unitary_exact"] == 2  # one search per distinct collision
    many = estimate(spec, RHO0, OBS, "trotter2k:1", 0.2, 0.2, t_override=5, **kw)
    assert calls["unitary_exact"] == 2  # the step counts are kept on the spec's sums
    assert many.samples[0] == one.samples[0]
