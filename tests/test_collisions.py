"""Collision maps, plans, program emission, and the Lindblad discretization."""

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from collidesim import (
    Backend,
    Budget,
    Collision,
    CollisionSpec,
    DensityMatrix,
    NonMarkovSpec,
    PauliString,
    PauliSum,
    ThermalPrep,
    amp_damp_model,
    count_resources,
    exact_k_collision,
    exact_nonmarkov,
    execute,
    expected_resources,
    lindblad_collision_spec,
    markov_plan,
    markov_program,
    memory_witness,
    nonmarkov_program,
    parse_backend,
    required_precision,
    rotation_op,
    suggest_nu,
    trace_distance,
)


def _prep(mat):
    arr = np.asarray(mat, dtype=np.complex128)

    class P:
        def __call__(self):
            return DensityMatrix(arr.copy(), check=False)

    return P()


def _two_collision_spec():
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


def _rand_rho(rng, n):
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


def test_spec_validation():
    sys_h = PauliSum.from_labels([(0.4, "Z")])
    good = Collision(1, PauliSum.from_labels([(0.3, "X")]),
                     PauliSum.from_labels([(0.5, "XX")]), ThermalPrep(math.inf))
    with pytest.raises(ValueError):
        CollisionSpec(2, sys_h, (good,), 0.1)  # system width mismatch
    with pytest.raises(ValueError):
        CollisionSpec(1, sys_h, (good,), -0.1)
    with pytest.raises(ValueError):
        Collision(1, PauliSum.from_labels([(0.3, "XX")]),
                  PauliSum.from_labels([(0.5, "XX")]), ThermalPrep(math.inf))
    with pytest.raises(ValueError):  # interaction must span system + env
        CollisionSpec(2, PauliSum(2, []), (good,), 0.1)


def test_joint_hamiltonian_and_dense_unitary():
    spec = _two_collision_spec()
    nh, beta = spec.joint(0)
    want_h = (
        0.4 * np.kron(np.diag([1.0, -1.0]), np.eye(2))
        + 0.3 * np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))
        + PauliSum.from_labels([(0.5, "XX"), (0.2, "-ZY")]).to_dense()
    )
    np.testing.assert_allclose(beta * nh.h.to_dense(), want_h, atol=1e-13)
    assert beta == pytest.approx(0.4 + 0.3 + 0.5 + 0.2)
    assert spec.tau(0) == pytest.approx(beta * 0.2)
    np.testing.assert_allclose(
        spec.dense_unitary(0), expm(-1j * 0.2 * want_h), atol=1e-12
    )


def test_exact_map_matches_hand_composition():
    rng = np.random.default_rng(61)
    spec = _two_collision_spec()
    rho = _rand_rho(rng, 1)
    state = rho.data
    for j in range(2):
        u = spec.dense_unitary(j)
        joint = u @ np.kron(state, spec.env_state(j).data) @ u.conj().T
        state = np.einsum("aibi->ab", joint.reshape(2, 2, 2, 2))
    got = exact_k_collision(spec, rho)
    assert trace_distance(got, DensityMatrix(state, check=False)) < 1e-12


def test_required_precision_frozen():
    assert required_precision(4, 2.0, 0.12) == pytest.approx(0.005)
    assert required_precision(4, 2.0, 0.12, mode="salcu") == pytest.approx(0.0025)
    with pytest.raises(ValueError):
        required_precision(0, 1.0, 0.1)
    with pytest.raises(ValueError):
        required_precision(1, 1.0, 0.1, mode="heuristic")


def test_parse_backend():
    assert parse_backend("trotter1") == Backend(kind="trotter", order=1)
    assert parse_backend("trotter2k:2").order == 4
    assert parse_backend("qdrift").kind == "qdrift"
    assert parse_backend("salcu").label() == "salcu"
    assert parse_backend("exact").deterministic
    assert not parse_backend("qdrift").deterministic
    assert parse_backend("trotter2k:1").label() == "trotter2k:1"
    assert parse_backend("trotter1", steps=7).steps == 7
    with pytest.raises(ValueError):
        parse_backend("suzuki")
    with pytest.raises(ValueError):
        parse_backend("trotter2k:0")


def test_markov_plan_caching_and_zeta():
    model = amp_damp_model(2, J=0.8, h=0.2, gamma=0.9)
    spec = lindblad_collision_spec(model, 1.0, 3)  # K = 6, two unique collisions
    budget = Budget(0.05, 1.0)
    plan = markov_plan(spec, parse_backend("trotter1"), budget)
    assert plan.eps_prime == pytest.approx(required_precision(6, 1.0, 0.05))
    assert len(plan.per_collision) == 6
    assert plan.per_collision[0] == plan.per_collision[2] == plan.per_collision[4]
    assert plan.zeta == 1.0
    assert not plan.ancilla

    lcu = markov_plan(spec, parse_backend("salcu"), budget)
    assert lcu.ancilla
    assert lcu.eps_prime == pytest.approx(required_precision(6, 1.0, 0.05, mode="salcu"))
    want_zeta = float(np.prod([p.alpha_total for p in lcu.per_collision]))
    assert lcu.zeta == pytest.approx(want_zeta)
    assert lcu.zeta >= 1.0


def test_markov_program_structure_and_accuracy():
    spec = _two_collision_spec()
    rng = np.random.default_rng(63)
    rho = _rand_rho(rng, 1)
    prog = markov_program(spec, parse_backend("trotter1"), Budget(1e-4, 1.0))
    kinds = [op.kind for op in prog.ops]
    assert kinds.count("prepare") == 2
    assert kinds.count("trace") == 2
    assert kinds[0] == "prepare" and kinds[-1] == "trace"
    # prepare ops carry the distinct-collision preparer key
    preps = [op.prep for op in prog.ops if op.kind == "prepare"]
    assert preps == [0, 1]
    got = execute(prog, rho, spec.env_preparers())
    assert trace_distance(got, exact_k_collision(spec, rho)) < 1e-4


def test_qdrift_program_seed_determinism():
    spec = _two_collision_spec()
    backend = parse_backend("qdrift")
    budget = Budget(0.05, 1.0)
    a = markov_program(spec, backend, budget, rng=np.random.default_rng(5))
    b = markov_program(spec, backend, budget, rng=np.random.default_rng(5))
    c = markov_program(spec, backend, budget, rng=np.random.default_rng(6))
    assert a.ops == b.ops
    assert a.ops != c.ops
    plan = markov_plan(spec, backend, budget)
    n_rot = sum(1 for op in a.ops if op.kind == "rotation")
    assert n_rot == sum(plan.per_collision)


def test_salcu_program_is_controlled_pair_protocol():
    spec = _two_collision_spec()
    prog = markov_program(
        spec, parse_backend("salcu"), Budget(0.05, 1.0), rng=np.random.default_rng(7)
    )
    assert prog.ancilla
    gate_kinds = {op.kind for op in prog.ops} - {"prepare", "trace"}
    assert gate_kinds <= {"crotation", "cpauli"}
    pols = {op.polarity for op in prog.ops if op.kind in ("crotation", "cpauli")}
    assert pols == {0, 1}


def test_expected_resources_match_counted_programs():
    spec = _two_collision_spec()
    budget = Budget(0.02, 1.0)
    trotter = parse_backend("trotter1")
    want = count_resources(markov_program(spec, trotter, budget))
    got = expected_resources(spec, trotter, budget)
    assert got.as_tuple() == want.as_tuple()

    qdrift = parse_backend("qdrift")
    counted = count_resources(markov_program(spec, qdrift, budget, rng=np.random.default_rng(9)))
    expected = expected_resources(spec, qdrift, budget)
    assert expected.rotation_count == counted.rotation_count
    assert expected.env_preps == counted.env_preps

    with pytest.raises(ValueError):
        expected_resources(spec, parse_backend("exact"), budget)
    with pytest.raises(ValueError):
        markov_program(spec, parse_backend("exact"), budget)


def test_lindblad_collision_spec_scaling():
    model = amp_damp_model(2, J=1.0, h=0.1, gamma=0.81, omega=math.log(3.0))
    t, nu = 2.0, 8
    spec = lindblad_collision_spec(model, t, nu)
    assert spec.K == 2 * nu
    assert spec.dt == pytest.approx(t / nu)
    lam = math.sqrt(nu / t)
    # lambda^2 dt = 1 makes the damping rate survive the collision limit
    assert lam * lam * spec.dt == pytest.approx(1.0)
    c0 = spec.collisions[0]
    inter = {p.axes: c for c, p in c0.interaction_h.terms}
    # site-0 jump couples qubit 0 to the appended env qubit
    assert set(inter) == {"XIX", "YIY"}
    assert inter["XIX"] == pytest.approx(lam * math.sqrt(0.81) / 2.0)
    # system Hamiltonian is divided across the m collisions of one cycle
    assert spec.system_h.total_weight == pytest.approx(model.system_h.total_weight / 2.0)
    assert c0.env_h.terms[0][0] == pytest.approx(model.env_strength)
    np.testing.assert_allclose(c0.env_prep().data, np.diag([0.75, 0.25]), atol=1e-14)
    assert spec.collisions[2] is c0
    with pytest.raises(ValueError):
        lindblad_collision_spec(model, t, 0)


def test_exact_nonmarkov_trajectory_and_endpoints():
    rng = np.random.default_rng(67)
    spec = _two_collision_spec()
    rho = _rand_rho(rng, 1)
    final, traj = exact_nonmarkov(NonMarkovSpec(spec, 0.3), rho, trajectory=True)
    assert len(traj) == spec.K
    assert trace_distance(traj[-1], final) < 1e-13
    assert all(abs(s.trace() - 1.0) < 1e-10 for s in traj)
    # p = 0 reduces to discarding the env every collision
    markov = exact_nonmarkov(NonMarkovSpec(spec, 0.0), rho)
    assert trace_distance(markov, exact_k_collision(spec, rho)) < 1e-12
    with pytest.raises(ValueError):
        NonMarkovSpec(spec, 1.2)


def test_memory_witness_sees_backflow():
    # half-swap exchange collisions: the state leaves the system after the
    # first collision and, with a persistent env, returns after the second
    inter = PauliSum.from_labels([(0.5, "XX"), (0.5, "YY")])
    col = Collision(1, PauliSum(1, []), inter, ThermalPrep(math.inf))
    spec = CollisionSpec(1, PauliSum(1, []), (col, col, col), math.pi / 2.0)
    a, b = DensityMatrix.basis(1, 0), DensityMatrix.basis(1, 1)
    assert memory_witness(NonMarkovSpec(spec, 1.0), a, b) > 1.9
    assert memory_witness(NonMarkovSpec(spec, 0.0), a, b) <= 1e-12


def test_nonmarkov_program_swaps_follow_p():
    spec = _two_collision_spec()
    budget = Budget(0.05, 1.0)
    backend = parse_backend("trotter1")

    def swap_count(p, seed):
        prog = nonmarkov_program(
            NonMarkovSpec(spec, p), backend, budget, rng=np.random.default_rng(seed)
        )
        return sum(1 for op in prog.ops if op.kind == "swap")

    assert swap_count(0.0, 1) == 0
    assert swap_count(1.0, 1) == spec.K - 1
    mid = [swap_count(0.5, s) for s in range(40)]
    assert 0 < sum(mid) < 40 * (spec.K - 1)


def test_nonmarkov_program_matches_exact_at_p_one():
    rng = np.random.default_rng(69)
    spec = _two_collision_spec()
    rho = _rand_rho(rng, 1)
    nmspec = NonMarkovSpec(spec, 1.0)
    prog = nonmarkov_program(
        nmspec, parse_backend("trotter1"), Budget(1e-4, 1.0), rng=np.random.default_rng(0)
    )
    got = execute(prog, rho, spec.env_preparers())
    assert trace_distance(got, exact_nonmarkov(nmspec, rho)) < 1e-4


def test_spec_survives_pickling():
    spec = _two_collision_spec()
    rho = DensityMatrix.plus()
    spec.dense_unitary(0)  # populate the cache that pickling must drop
    again = pickle.loads(pickle.dumps(spec))
    assert trace_distance(exact_k_collision(again, rho), exact_k_collision(spec, rho)) < 1e-13


def test_suggest_nu_doubles_until_settled():
    model = amp_damp_model(1, J=0.0, h=0.3, gamma=1.0)
    from collidesim import magnetization

    obs = magnetization(1)
    rho0 = DensityMatrix.basis(1, 1)
    eps = 1e-3
    nu, rows = suggest_nu(model, 1.0, obs, rho0, eps)
    assert nu == rows[-1][0]
    assert nu & (nu - 1) == 0  # doubling from 1 keeps powers of two
    assert rows[-1][2] < eps / 2.0
    assert math.isnan(rows[0][2])
    assert [r[0] for r in rows] == [2**i for i in range(len(rows))]


def _expanded(program):
    """The program with every fragment spelled out as its rotation list."""
    ops = []
    for op in program.ops:
        if op.kind == "fragment":
            ops.extend(rotation_op(a, t, op.targets) for a, t in op.step * op.steps)
        else:
            ops.append(op)
    return replace(program, ops=tuple(ops))


@pytest.mark.parametrize("nonmarkov", [False, True], ids=["markov", "nonmarkov"])
def test_fragments_match_expanded_rotations(nonmarkov):
    rng = np.random.default_rng(71)
    spec = _two_collision_spec()
    rho = _rand_rho(rng, 1)
    budget = Budget(1e-3, 1.0)
    if nonmarkov:
        prog = nonmarkov_program(
            NonMarkovSpec(spec, 0.5), parse_backend("trotter1"), budget, rng=np.random.default_rng(4)
        )
    else:
        prog = markov_program(spec, parse_backend("trotter2k:1"), budget)
    kinds = [op.kind for op in prog.ops]
    assert kinds.count("fragment") == spec.K and "rotation" not in kinds
    flat = _expanded(prog)
    assert count_resources(prog) == count_resources(flat)
    got = execute(prog, rho, spec.env_preparers())
    want = execute(flat, rho, spec.env_preparers())
    np.testing.assert_allclose(got.data, want.data, atol=1e-10)
