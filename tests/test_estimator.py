"""Estimator: run counts, budget split, seeding, and statistical behavior."""

import math

import numpy as np
import pytest

from collidesim import (
    Budget,
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
    expectation,
    hoeffding_T,
    lindblad_collision_spec,
    magnetization,
    markov_plan,
    markov_program,
    parse_backend,
    required_precision,
)
from collidesim.acceptance import _random_collision
from collidesim.estimator import run_once


def _spec():
    sys_h = PauliSum.from_labels([(0.4, "Z")])
    col_a = Collision(
        1,
        PauliSum.from_labels([(0.3, "X")]),
        PauliSum.from_labels([(0.5, "XX"), (0.2, "-ZY")]),
        ThermalPrep(math.inf),
    )
    col_b = Collision(
        1,
        PauliSum.from_labels([(0.5, "Z")]),
        PauliSum.from_labels([(0.6, "YY"), (0.3, "XZ")]),
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


def test_salcu_estimate_is_unbiased_and_bounded():
    spec = _spec()
    eps = 0.25
    rep = estimate(spec, RHO0, OBS, "salcu", eps=eps, delta=0.3, seed=17,
                   keep_samples=True)
    assert rep.zeta > 1.0
    assert rep.eps_prime == pytest.approx(
        required_precision(spec.K, OBS.norm, eps, mode="salcu")
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
def test_fixed_program_shots_match_a_per_run_loop(workers):
    # the hoeffding-coverage instance: one collision, shot readout
    rng = np.random.default_rng(5)
    spec = CollisionSpec(1, PauliSum.from_labels([(0.3, "Z")]), (_random_collision(rng, 1, 1),), 0.3)
    obs = Observable(PauliSum(1, [(1.0, PauliString.from_label("Z"))]))
    rho0 = DensityMatrix.plus()
    eps = delta = 0.1
    seed = 1000
    rep = estimate(spec, rho0, obs, "trotter1", eps, delta, seed=seed, measurement="shot",
                   workers=workers, keep_samples=True)
    # reference: rebuild and re-execute the program on every run
    plan = markov_plan(spec, parse_backend("trotter1"), Budget(eps / 2.0, obs.norm, "generic"))
    mus = np.array([
        run_once(markov_program(spec, None, plan=plan), rho0, spec.env_preparers(), obs, "shot",
                 np.random.default_rng(np.random.SeedSequence((seed, k))))
        for k in range(rep.t_runs)
    ])
    assert rep.t_runs == hoeffding_T(obs.norm, eps, delta)
    assert rep.samples == tuple(float(v) for v in mus)
    assert rep.mu == float(mus.sum() / rep.t_runs)
    assert rep.stderr == float(mus.std(ddof=1) / math.sqrt(rep.t_runs))


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
