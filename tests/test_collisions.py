"""Collision maps, plans, program emission, and the Lindblad discretization."""

import functools
import itertools
import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from collidesim import (
    Backend,
    Collision,
    CollisionSpec,
    DensityMatrix,
    NonMarkovSpec,
    NumericalError,
    PauliString,
    PauliSum,
    ThermalPrep,
    amp_damp_model,
    apply_swap,
    count_resources,
    estimate,
    exact_k_collision,
    exact_nonmarkov,
    execute,
    expected_resources,
    lindblad_collision_spec,
    markov_plan,
    magnetization,
    markov_program,
    nonmarkov_program,
    parse_backend,
    partial_trace,
    required_precision,
    suggest_nu,
    tensor_append,
    trace_distance,
)
from collidesim import collisions, hamsim
from collidesim.circuits import PREP_CNOTS
from collidesim.pauli import NormalizedPauliSum, normalize
from collidesim.states import join_blocks
from dense_reference import (
    count_items,
    execute_register,
    fragment_items,
    memory_witness,
    pauli_sum,
    price_items,
)


def _prep(mat):
    arr = np.asarray(mat, dtype=np.complex128)

    class P:
        def __call__(self):
            return DensityMatrix(arr.copy(), check=False)

    return P()


def _two_collision_spec():
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


def _rand_rho(rng, n):
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


def test_spec_validation():
    sys_h = pauli_sum([(0.4, "Z")])
    good = Collision(1, pauli_sum([(0.3, "X")]),
                     pauli_sum([(0.5, "XX")]), ThermalPrep(math.inf))
    with pytest.raises(ValueError):
        CollisionSpec(2, sys_h, (good,), 0.1)  # system width mismatch
    with pytest.raises(ValueError):
        CollisionSpec(1, sys_h, (good,), -0.1)
    with pytest.raises(ValueError):
        Collision(1, pauli_sum([(0.3, "XX")]),
                  pauli_sum([(0.5, "XX")]), ThermalPrep(math.inf))
    with pytest.raises(ValueError):  # interaction must span system + env
        CollisionSpec(2, PauliSum(2, []), (good,), 0.1)


def test_joint_hamiltonian_and_dense_unitary():
    spec = _two_collision_spec()
    nh, tau = spec.joint(0)
    assert tau == nh.beta * spec.dt
    want_h = (
        0.4 * np.kron(np.diag([1.0, -1.0]), np.eye(2))
        + 0.3 * np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))
        + pauli_sum([(0.5, "XX"), (0.2, "-ZY")]).to_dense()
    )
    np.testing.assert_allclose(nh.beta * nh.h.to_dense(), want_h, atol=1e-13)
    assert nh.beta == pytest.approx(0.4 + 0.3 + 0.5 + 0.2)
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


def _reference_k_collision(spec, rho):
    """Append each env, conjugate the joint register by U_j, trace the env."""
    state = rho.copy()
    for j in range(spec.K):
        w = spec.collisions[j].env_width
        tensor_append(state, spec.env_state(j))
        u = spec.dense_unitary(j)
        state.data = u @ state.data @ u.conj().T
        partial_trace(state, range(spec.n, spec.n + w))
    return state


def _reference_nonmarkov(nmspec, rho):
    """(final, marginals) on a two-env register: collide, append the fresh
    env, swap the env blocks with probability p as a mix, trace the collided."""
    spec, p = nmspec.base, nmspec.p
    n, w = spec.n, spec.collisions[0].env_width
    a, b = list(range(n, n + w)), list(range(n + w, n + 2 * w))
    state = tensor_append(rho.copy(), spec.env_state(0))
    marginals = []
    for j in range(1, spec.K + 1):
        u = spec.dense_unitary(j - 1)
        state.data = u @ state.data @ u.conj().T
        if j < spec.K:
            tensor_append(state, spec.env_state(j))
            kept = state.data.copy()
            apply_swap(state, a, b)
            state.data = (1.0 - p) * kept + p * state.data
        partial_trace(state, a)
        marginal = state.copy()
        if marginal.n > n:
            partial_trace(marginal, range(n, marginal.n))
        marginals.append(marginal)
    return state, marginals


def _mixed_prep(rng, width):
    """Preparer of a random full-rank, non-diagonal env state."""
    return _prep(_rand_rho(rng, width).data)


def _kraus_case_specs(rng):
    sys_h = pauli_sum([(0.4, "ZI"), (0.3, "XX")])
    wide = Collision(
        2,
        pauli_sum([(0.3, "XZ"), (0.2, "YI")]),
        pauli_sum([(0.5, "XIXI"), (0.2, "-ZYIY"), (0.4, "IXZZ")]),
        _mixed_prep(rng, 2),
    )
    pure = Collision(
        1,
        pauli_sum([(0.5, "Z")]),
        pauli_sum([(0.6, "YIY"), (0.3, "XZX")]),
        ThermalPrep(math.inf),
    )
    return {
        "width-2 mixed": CollisionSpec(2, sys_h, (wide, wide, wide), 0.3),
        "rank-1 thermal": CollisionSpec(2, sys_h, (pure, pure), 0.4),
        "widths 1 and 2": CollisionSpec(2, sys_h, (pure, wide, pure, wide), 0.25),
    }


def test_exact_map_matches_kron_reference():
    rng = np.random.default_rng(71)
    for name, spec in _kraus_case_specs(rng).items():
        rho = _rand_rho(rng, spec.n)
        got = exact_k_collision(spec, rho)
        assert trace_distance(got, _reference_k_collision(spec, rho)) < 1e-12, name


def test_exact_map_rejects_non_positive_env():
    col = Collision(
        1,
        pauli_sum([(0.3, "X")]),
        pauli_sum([(0.5, "XX")]),
        _prep(np.diag([1.2, -0.2])),
    )
    spec = CollisionSpec(1, pauli_sum([(0.4, "Z")]), (col,), 0.2)
    with pytest.raises(NumericalError):
        exact_k_collision(spec, DensityMatrix.plus())


def test_exact_nonmarkov_matches_register_swap_reference():
    rng = np.random.default_rng(73)
    sys_h = pauli_sum([(0.4, "Z")])
    inter = pauli_sum([(0.5, "XX"), (0.2, "-ZY")])
    cols = [Collision(1, pauli_sum([(0.3, "X")]), inter, _mixed_prep(rng, 1))
            for _ in range(2)]
    wide = Collision(
        2,
        pauli_sum([(0.3, "XZ")]),
        pauli_sum([(0.5, "XXI"), (0.4, "ZYY")]),
        _mixed_prep(rng, 2),
    )
    specs = (
        CollisionSpec(1, sys_h, (cols[0], cols[1], cols[0], cols[1]), 0.3),
        CollisionSpec(1, sys_h, (wide,) * 3, 0.3),
    )
    for spec in specs:
        rho = _rand_rho(rng, 1)
        for p in (0.0, 0.3, 1.0):
            nmspec = NonMarkovSpec(spec, p)
            final, traj = exact_nonmarkov(nmspec, rho, trajectory=True)
            want, want_traj = _reference_nonmarkov(nmspec, rho)
            assert trace_distance(final, want) < 1e-12
            assert trace_distance(exact_nonmarkov(nmspec, rho), want) < 1e-12
            assert len(traj) == len(want_traj) == spec.K
            for got, ref in zip(traj, want_traj):
                assert trace_distance(got, ref) < 1e-12


def test_required_precision_frozen():
    assert required_precision(4, 2.0, 0.12) == pytest.approx(0.005)
    # half the budget over 3 K normO is eps/(6 K normO), bit for bit
    assert required_precision(4, 2.0, 0.12 / 2.0) == 0.12 / (6.0 * 4 * 2.0)
    with pytest.raises(ValueError):
        required_precision(0, 1.0, 0.1)


def test_parse_backend():
    assert parse_backend("trotter1") == Backend(kind="trotter", order=1)
    assert parse_backend("trotter2k:2").order == 4
    assert parse_backend("qdrift").kind == "qdrift"
    assert parse_backend("salcu").label() == "salcu"
    assert parse_backend("exact").deterministic
    assert not parse_backend("qdrift").deterministic
    assert parse_backend("trotter2k:1").label() == "trotter2k:1"
    assert parse_backend("trotter1", steps=7).steps == 7
    assert parse_backend("salcu", q=0).q == 0  # q = 0 is an order; None chooses one
    assert parse_backend("salcu").q is None and parse_backend("trotter1").steps is None
    for field, value, bound in (
        ("steps", 0, ">= 1"),
        ("length", 0, ">= 1"),
        ("r", -1, ">= 1"),
        ("q", -2, "a nonnegative even integer"),
        ("q", 3, "a nonnegative even integer"),
    ):
        with pytest.raises(ValueError, match=f"backend {field} must be {bound}, got {value}"):
            parse_backend("salcu", **{field: value})
    with pytest.raises(ValueError):
        parse_backend("suzuki")
    with pytest.raises(ValueError):
        parse_backend("trotter2k:0")
    with pytest.raises(ValueError, match=r"'trotter2k:x'.*integer k >= 1"):
        parse_backend("trotter2k:x")


def test_markov_plan_caching_and_zeta():
    model = amp_damp_model(2, J=0.8, h=0.2, gamma=0.9)
    spec = lindblad_collision_spec(model, 1.0, 3)  # K = 6, two unique collisions
    assert spec.unique_index == (0, 1) * 3 and spec.first_use == (0, 1)
    plan = markov_plan(spec, parse_backend("trotter1"), 0.05, 1.0)
    assert plan.eps_prime == pytest.approx(required_precision(6, 1.0, 0.05))
    assert len(plan.per_collision) == 6
    assert plan.per_collision[0] == plan.per_collision[2] == plan.per_collision[4]
    assert plan.zeta == 1.0
    assert not plan.ancilla

    lcu = markov_plan(spec, parse_backend("salcu"), 0.025, 1.0)
    assert lcu.ancilla
    assert lcu.eps_prime == pytest.approx(required_precision(6, 1.0, 0.025))
    want_zeta = float(np.prod([p.alpha_total for p in lcu.per_collision]))
    assert lcu.zeta == pytest.approx(want_zeta)
    assert lcu.zeta >= 1.0


def test_markov_program_structure_and_accuracy():
    spec = _two_collision_spec()
    rng = np.random.default_rng(63)
    rho = _rand_rho(rng, 1)
    prog = markov_program(spec, markov_plan(spec, parse_backend("trotter1"), 1e-4, 1.0))
    # one window per collision, each cut from the one before
    assert [(len(w.fragments), w.width, w.carry) for w in prog.ops] == [(1, 1, False)] * 2
    # a window carries the key of its collision's preparer, one per distinct preparer
    preps = [w.prep for w in prog.ops]
    assert preps == [0, 1] and list(spec.env_preparers()) == [0, 1]
    shared = replace(spec.collisions[1], env_prep=spec.collisions[0].env_prep)
    one_prep = CollisionSpec(1, spec.system_h, (spec.collisions[0], shared), spec.dt)
    shared_plan = markov_plan(one_prep, parse_backend("trotter1"), 1e-4, 1.0)
    shared_prog = markov_program(one_prep, shared_plan)
    assert [w.prep for w in shared_prog.ops] == [0, 0]
    assert list(one_prep.env_preparers()) == [0]
    got = execute(prog, rho, spec.env_preparers())
    assert trace_distance(got, exact_k_collision(spec, rho)) < 1e-4


def test_qdrift_program_seed_determinism():
    spec = _two_collision_spec()
    plan = markov_plan(spec, parse_backend("qdrift"), 0.05, 1.0)
    a = markov_program(spec, plan, np.random.default_rng(5))
    b = markov_program(spec, plan, np.random.default_rng(5))
    c = markov_program(spec, plan, np.random.default_rng(6))
    assert a.ops == b.ops
    assert a.ops != c.ops
    frags = [frag for w in a.ops for frag in w.fragments]
    assert [len(op.picks) for op in frags] == list(plan.per_collision)
    assert all(op.picks is not None and op.steps == 1 and op.polarity is None for op in frags)


def test_salcu_program_is_controlled_pair_protocol():
    spec = _two_collision_spec()
    plan = markov_plan(spec, parse_backend("salcu"), 0.025, 1.0)
    prog = markov_program(spec, plan, np.random.default_rng(7))
    assert prog.ancilla
    assert [len(w.fragments) for w in prog.ops] == [2] * spec.K
    frags = [frag for w in prog.ops for frag in w.fragments]
    assert [op.polarity for op in frags] == [1, 0] * spec.K  # X controlled, then Y anti-controlled
    assert any(angle is not None for op in frags for _, angle in fragment_items(op))


def test_expected_resources_match_counted_programs():
    spec = _two_collision_spec()
    plan = markov_plan(spec, parse_backend("trotter1"), 0.02, 1.0)
    want = count_resources(markov_program(spec, plan))
    got = expected_resources(spec, plan)
    assert got.as_tuple() == want.as_tuple()

    qdrift = parse_backend("qdrift")
    plan = markov_plan(spec, qdrift, 0.02, 1.0)
    counted = count_resources(markov_program(spec, plan, np.random.default_rng(9)))
    expected = expected_resources(spec, plan)
    assert expected.rotation_count == counted.rotation_count
    assert expected.env_preps == counted.env_preps

    # an identity system term: its rotations are free, as count_resources prices them
    col = spec.collisions[0]
    id_spec = CollisionSpec(1, pauli_sum([(0.3, "I"), (0.4, "Z")]), (col, col), 0.2)
    for label in ("trotter1", "trotter2k:1"):
        plan = markov_plan(id_spec, parse_backend(label), 0.02, 1.0)
        want = count_resources(markov_program(id_spec, plan))
        assert expected_resources(id_spec, plan).as_tuple() == want.as_tuple()
    plan = markov_plan(id_spec, qdrift, 0.02, 1.0)
    nh, _ = id_spec.joint(0)
    p_identity = sum(q for q, (_, p) in zip(nh.probs, nh.h.terms) if p.weight == 0)
    assert p_identity > 0
    closed = sum(length * (1.0 - p_identity) for length in plan.per_collision)
    got = expected_resources(id_spec, plan)
    assert got.rotation_count == pytest.approx(closed, rel=1e-15)

    # the exact backend runs no program, so it has no plan to build or price
    with pytest.raises(ValueError, match="exact backend"):
        markov_plan(spec, parse_backend("exact"), 0.02, 1.0)


def _pauli_basis(n):
    """Every bare n-qubit word with its dense matrix."""
    words = [PauliString(n, x, z) for x in range(1 << n) for z in range(1 << n)]
    return [(p, p.to_dense()) for p in words]


def _brute_salcu_price(nh, params):
    """Mean (cnots, rotations, Pauli gates) of one collision's X and Y draws
    by enumerating every (k, l_1 .. l_k, m) tuple of a segment, each word
    the dense product (-i)^k P_l1 ... P_lk and priced from that matrix."""
    dim = 1 << nh.n
    eye = np.eye(dim)
    basis = _pauli_basis(nh.n)
    terms = [(float(prob), p, p.to_dense()) for prob, (_, p) in zip(nh.probs, nh.h.terms)]
    rotation = np.zeros(3)
    for prob, p, _ in terms:
        rotation += prob * np.array(price_items([(p.bare(), 0.1)], True))
    word_price = np.zeros(3)
    total_weight = sum(params.weights)
    for k, w_k in zip(range(0, params.q + 1, 2), params.weights):
        for combo in itertools.product(terms, repeat=k):
            prob = w_k / total_weight * math.prod(t[0] for t in combo)
            word = (-1j) ** k * functools.reduce(np.matmul, [t[2] for t in combo], eye)
            if np.allclose(word, eye, atol=1e-12):
                continue  # +I is no gate
            # the word's masks: the one basis word it is a multiple of
            (axes,) = [b for b, dense in basis if abs(np.trace(dense.conj().T @ word)) > dim / 2]
            word_price += prob * np.array([axes.weight, 0, 1])
    return 2 * params.r * (rotation + word_price)


def _random_sum(rng, n, n_terms):
    """n_terms distinct signed words on n qubits, the identity allowed."""
    codes = rng.choice(4**n, size=n_terms, replace=False)
    terms = []
    for code in codes.tolist():
        label = "".join("IXYZ"[code >> (2 * q) & 3] for q in range(n))
        sign = "-" if rng.random() < 0.5 else ""
        terms.append((float(rng.uniform(0.1, 1.0)), sign + label))
    return pauli_sum(terms)


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_expected_salcu_resources_match_a_brute_force_enumeration(n, q):
    rng = np.random.default_rng(100 * n + q)
    for n_terms in (2, 3, 4):
        h = _random_sum(rng, n, n_terms)
        nh = normalize(h)
        params = hamsim.choose_lcu_params(1.2, 1, 1e-3, r_override=2, q_override=q)
        want = _brute_salcu_price(nh, params)
        assert np.allclose(collisions._lcu_price(nh, params), want, rtol=1e-12, atol=1e-12)
        if n == 1:
            continue
        # a one-collision spec whose joint target is this sum, the env one qubit
        empty = PauliSum(1, ())
        spec = CollisionSpec(n - 1, PauliSum(n - 1, ()), (Collision(1, empty, h, ThermalPrep(math.inf)),),
                             params.tau / nh.beta)
        plan = markov_plan(spec, parse_backend("salcu", r=2, q=q), 1e-3, 1.0)
        got = expected_resources(spec, plan).as_tuple()
        cnot = want[0] + PREP_CNOTS
        assert np.allclose(got, (cnot, want[1], want[2], cnot + want[1], 1), rtol=1e-12, atol=1e-12)


def test_expected_salcu_resources_are_the_mean_of_sampled_draws():
    # 20,000 draws of one collision (X or Y alike), each priced item by item
    h = pauli_sum([(0.2, "II"), (0.4, "XY"), (0.3, "-ZZ"), (0.25, "YI"), (0.15, "-XZ")])
    nh = normalize(h)
    params = hamsim.choose_lcu_params(1.6, 1, 1e-3, r_override=2, q_override=4)  # x = 0.8: many words
    rng = np.random.default_rng(23)
    prices = np.array([
        price_items([draw.table[i] for i in draw.picks], True)
        for draw in (hamsim.lcu_sample(nh, params, rng) for _ in range(20_000))
    ])
    exact = np.array(collisions._lcu_price(nh, params)) / 2
    sigma = prices.std(axis=0, ddof=1) / math.sqrt(len(prices))
    assert (sigma > 0).all()
    assert (np.abs(prices.mean(axis=0) - exact) <= 5 * sigma).all()


def _ten_site_salcu(q):
    spec = lindblad_collision_spec(amp_damp_model(m=10, J=1.0, h=0.1, gamma=1.0), 1.0, 1)
    return spec, markov_plan(spec, parse_backend("salcu", q=q), 1e-2, 1.0)


def test_expected_salcu_resources_price_the_ten_site_chain_at_q_10():
    # the paper's 10-site chain has 22 terms a collision; at q = 10 the word
    # law of 5-term products could hold 4 sum_{j <= 5} C(22, j) = 141,772
    # keys, past 2^16, but really holds fewer, and is priced
    spec, plan = _ten_site_salcu(10)
    n_terms = len(spec.joint(0)[0])
    assert n_terms == 22 and 4 * sum(math.comb(n_terms, j) for j in range(6)) > 1 << 16
    rep = expected_resources(spec, plan)
    assert rep.cnot_count > 0 and rep.pauli_gate_count > 0


def test_expected_salcu_resources_refuse_past_the_key_cap():
    # at q = 12 the law of 6-term products passes 2^16 keys on its way to
    # 153,738: refused at the size it reached, before it grows further
    spec, plan = _ten_site_salcu(12)
    with pytest.raises(NumericalError, match=r"6-term products reached (\d+) ") as info:
        expected_resources(spec, plan)
    reached = int(re.search(r"reached (\d+) ", str(info.value)).group(1))
    assert (1 << 16) < reached <= (1 << 16) + 22


def test_an_estimate_whose_price_is_refused_refuses_before_its_first_run(monkeypatch):
    from collidesim import estimator

    def no_run(*args, **kwargs):
        raise AssertionError("an estimate ran before its price was refused")

    monkeypatch.setattr(estimator, "_skeleton", no_run)
    monkeypatch.setattr(estimator, "run_once", no_run)
    spec, _ = _ten_site_salcu(12)
    rho0 = DensityMatrix.basis(10, 0)
    with pytest.raises(NumericalError, match="past the cap"):
        estimate(spec, rho0, magnetization(10), parse_backend("salcu", q=12), 1e-2, seed=3,
                 t_override=1)


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
    assert c0.env_h.terms == ((1.0, PauliString.from_label("Z")),)
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
    inter = pauli_sum([(0.5, "XX"), (0.5, "YY")])
    col = Collision(1, PauliSum(1, []), inter, ThermalPrep(math.inf))
    spec = CollisionSpec(1, PauliSum(1, []), (col, col, col), math.pi / 2.0)
    a, b = DensityMatrix.basis(1, 0), DensityMatrix.basis(1, 1)
    assert memory_witness(NonMarkovSpec(spec, 1.0), a, b) > 1.9
    assert memory_witness(NonMarkovSpec(spec, 0.0), a, b) <= 1e-12


def test_nonmarkov_program_swaps_follow_p():
    spec = _two_collision_spec()
    plan = markov_plan(spec, parse_backend("trotter1"), 0.05, 1.0)

    def swap_count(p, seed):
        prog = nonmarkov_program(NonMarkovSpec(spec, p), plan, np.random.default_rng(seed))
        return sum(1 for w in prog.ops if w.carry)

    assert swap_count(0.0, 1) == 0
    assert swap_count(1.0, 1) == spec.K - 1
    mid = [swap_count(0.5, s) for s in range(40)]
    assert 0 < sum(mid) < 40 * (spec.K - 1)


def _shape(program):
    """Each window's preparer and width, and its fragments' items, steps,
    polarity and picks: a program up to its carries and table objects."""
    return [
        (w.prep, w.width, [(f.step.items, f.steps, f.polarity, f.picks) for f in w.fragments])
        for w in program.ops
    ]


@pytest.mark.parametrize(
    "backend, eps", [("trotter1", 0.05), ("qdrift", 0.05), ("salcu", 0.025)],
    ids=["trotter1", "qdrift", "salcu"],
)
def test_partial_swaps_at_p_zero_and_one_are_closed_carries(backend, eps):
    # p = 0 is the Markov program, and p = 1 that program with every later
    # window carrying the collided env; neither draws a carry
    base = _two_collision_spec()
    spec = CollisionSpec(base.n, base.system_h, base.collisions * 2, base.dt)
    plan = markov_plan(spec, parse_backend(backend), eps, 1.0)
    markov = collisions.markov_skeleton(spec, plan)
    for p, carries in ((0.0, [False] * 4), (1.0, [False] + [True] * 3)):
        skeleton = collisions.nonmarkov_skeleton(NonMarkovSpec(spec, p), plan)
        assert [w.carry for w in skeleton.template.ops] == carries
        assert _shape(skeleton.template) == _shape(markov.template)
        assert [address for address, _ in skeleton.draws] == [address for address, _ in markov.draws]


def test_a_run_draws_each_carry_before_its_collisions_fragments():
    # the draw order of emitting the program collision by collision: collision
    # j's fragments (salcu: X, then Y), then the carry into collision j + 1
    base = _two_collision_spec()
    spec = CollisionSpec(base.n, base.system_h, base.collisions + base.collisions[:1], base.dt)
    plan = markov_plan(spec, parse_backend("salcu"), 0.025, 1.0)
    skeleton = collisions.nonmarkov_skeleton(NonMarkovSpec(spec, 0.5), plan)
    assert [address for address, _ in skeleton.draws] == [
        (0, 0), (0, 1), (1, None), (1, 0), (1, 1), (2, None), (2, 0), (2, 1)
    ]
    # a draw fills each window in that order
    draw = skeleton.draw(np.random.default_rng(3))
    prog = skeleton.fill(draw)
    values = iter(draw)
    for window in prog.ops[:1]:
        assert [frag.picks for frag in window.fragments] == [tuple(next(values).tolist()) for _ in "XY"]
    for window in prog.ops[1:]:
        assert window.carry == next(values)
        assert [frag.picks for frag in window.fragments] == [tuple(next(values).tolist()) for _ in "XY"]
    # the draw keeps int arrays, a filled fragment a tuple of ints
    assert all(type(i) is int for window in prog.ops for frag in window.fragments for i in frag.picks)


def test_nonmarkov_program_matches_exact_at_p_one():
    rng = np.random.default_rng(69)
    spec = _two_collision_spec()
    rho = _rand_rho(rng, 1)
    nmspec = NonMarkovSpec(spec, 1.0)
    plan = markov_plan(spec, parse_backend("trotter1"), 1e-4, 1.0)
    prog = nonmarkov_program(nmspec, plan)  # every swap is certain: nothing to draw
    got = execute(prog, rho, spec.env_preparers())
    assert trace_distance(got, exact_nonmarkov(nmspec, rho)) < 1e-4


def test_spec_survives_pickling():
    spec = _two_collision_spec()
    rho = DensityMatrix.plus()
    spec.dense_unitary(0)  # populate the cache that pickling must drop
    again = pickle.loads(pickle.dumps(spec))
    assert spec._cache and again._cache == {}
    assert trace_distance(exact_k_collision(again, rho), exact_k_collision(spec, rho)) < 1e-13


def test_suggest_nu_doubles_until_settled():
    model = amp_damp_model(1, J=0.0, h=0.3, gamma=1.0)
    obs = magnetization(1)
    rho0 = DensityMatrix.basis(1, 1)
    eps = 1e-3
    nu, rows = suggest_nu(model, 1.0, obs, rho0, eps)
    assert nu == rows[-1][0]
    assert nu & (nu - 1) == 0  # doubling from 1 keeps powers of two
    assert rows[-1][2] < eps / 2.0
    assert math.isnan(rows[0][2])
    assert [r[0] for r in rows] == [2**i for i in range(len(rows))]


def test_suggest_nu_never_evaluates_past_its_cap(monkeypatch):
    model = amp_damp_model(2)
    obs, rho0 = magnetization(2), DensityMatrix.basis(2, 0)
    eps = 2e-4  # eps/2 lies between the 4 -> 8 change (4.5e-5) and the 2 -> 4 one (2.4e-4)
    built = []
    real = collisions.lindblad_collision_spec

    def counted(model, t, nu):
        built.append(nu)
        return real(model, t, nu)

    monkeypatch.setattr(collisions, "lindblad_collision_spec", counted)
    nu, rows = suggest_nu(model, 1.0, obs, rho0, eps, cap=8)
    assert nu == 8 and max(built) == 8 and rows[-1][2] < eps / 2.0
    built.clear()
    with pytest.raises(NumericalError, match="up to 4"):
        suggest_nu(model, 1.0, obs, rho0, eps, cap=4)
    assert built == [1, 2, 4]


def test_suggest_nu_on_the_five_site_chain():
    model = amp_damp_model(5, J=1.0, h=0.1, gamma=1.0)
    nu, rows = suggest_nu(model, 1.0, magnetization(5), DensityMatrix.basis(5, 0), 2e-5)
    assert nu == 256
    assert abs(rows[-1][1] - 0.9948760807189073) < 1e-12


@pytest.mark.parametrize("nonmarkov", [False, True], ids=["markov", "nonmarkov"])
def test_fragments_match_expanded_rotations(nonmarkov):
    rng = np.random.default_rng(71)
    spec = _two_collision_spec()
    rho = _rand_rho(rng, 1)
    if nonmarkov:
        plan = markov_plan(spec, parse_backend("trotter1"), 1e-3, 1.0)
        prog = nonmarkov_program(NonMarkovSpec(spec, 0.5), plan, np.random.default_rng(4))
    else:
        prog = markov_program(spec, markov_plan(spec, parse_backend("trotter2k:1"), 1e-3, 1.0))
    assert [len(w.fragments) for w in prog.ops] == [1] * spec.K
    assert count_resources(prog).as_tuple() == count_items(prog)
    got = execute(prog, rho, spec.env_preparers())
    want = execute_register(prog, rho, spec.env_preparers())
    np.testing.assert_allclose(got.data, want, atol=1e-10)


@pytest.mark.parametrize(
    "backend, nonmarkov, eps",
    [("qdrift", False, 0.02), ("salcu", False, 0.01), ("qdrift", True, 0.02)],
    ids=["qdrift", "salcu", "nonmarkov-qdrift"],
)
def test_sampled_fragments_match_gate_by_gate(backend, nonmarkov, eps):
    rng = np.random.default_rng(73)
    base = _two_collision_spec()
    # longer collisions in two segments each, so LCU draws carry phased words
    spec = CollisionSpec(base.n, base.system_h, base.collisions, 0.6)
    rho = _rand_rho(rng, 1)
    selector = parse_backend(backend, r=2) if backend == "salcu" else parse_backend(backend)
    plan = markov_plan(spec, selector, eps, 1.0)
    words = 0
    for seed in range(3):
        draw = np.random.default_rng(seed)
        if nonmarkov:
            prog = nonmarkov_program(NonMarkovSpec(spec, 0.5), plan, draw)
        else:
            prog = markov_program(spec, plan, draw)
        frags = [frag for w in prog.ops for frag in w.fragments]
        per_collision = 2 if backend == "salcu" else 1
        assert len(frags) == per_collision * spec.K and all(op.picks for op in frags)
        words += sum(angle is None for op in frags for _, angle in fragment_items(op))
        assert count_resources(prog).as_tuple() == count_items(prog)
        # against the dense register, the ancilla (salcu) held as a qubit
        want = execute_register(prog, rho, spec.env_preparers())
        got = execute(prog, rho, spec.env_preparers())
        got = join_blocks(got) if prog.ancilla else got
        np.testing.assert_allclose(got.data, want, atol=1e-10)
    assert (words > 0) == (backend == "salcu")


def _rng_choice_draws(monkeypatch):
    """Every weighted draw made by rng.choice(..., p=...), as before the cached tables."""
    monkeypatch.setattr(
        NormalizedPauliSum,
        "sample_term",
        lambda self, rng, size=None: rng.choice(len(self.probs), size=size, p=self.probs),
    )
    monkeypatch.setattr(hamsim, "_k_cdf", lambda w: np.array(w, dtype=np.float64) / np.sum(w))
    monkeypatch.setattr(
        hamsim, "draw_index", lambda p, rng, size=None: rng.choice(len(p), size=size, p=p)
    )


@pytest.mark.parametrize(
    "backend, eps", [("qdrift", 0.05), ("salcu", 0.025)], ids=["qdrift", "salcu"]
)
def test_sampled_programs_match_rng_choice_draws(backend, eps, monkeypatch):
    spec = _two_collision_spec()
    spec = CollisionSpec(spec.n, spec.system_h, spec.collisions, 0.6)  # multi-segment draws
    plan = markov_plan(spec, parse_backend(backend), eps, 1.0)

    def programs():
        out = []
        for seed in range(300):
            rng = np.random.default_rng(np.random.SeedSequence((9, seed)))
            out.append((markov_program(spec, plan, rng).ops, rng.random()))
        return out

    got = programs()
    with monkeypatch.context() as patched:
        _rng_choice_draws(patched)
        want = programs()
    assert got == want


@pytest.mark.parametrize(
    "backend, nonmarkov, eps",
    [
        ("qdrift", False, 0.02),
        ("salcu", False, 0.01),
        ("qdrift", True, 0.02),
        ("trotter1", False, 0.02),
        ("trotter2k:1", True, 0.02),
    ],
    ids=["qdrift", "salcu", "nonmarkov-qdrift", "trotter1", "nonmarkov-trotter2k"],
)
def test_counts_match_an_item_walk(backend, nonmarkov, eps):
    base = _two_collision_spec()
    spec = CollisionSpec(base.n, base.system_h, base.collisions, 0.6)
    selector = parse_backend(backend, r=2) if backend == "salcu" else parse_backend(backend)
    plan = markov_plan(spec, selector, eps, 1.0)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        if nonmarkov:
            prog = nonmarkov_program(NonMarkovSpec(spec, 0.5), plan, rng)
        else:
            prog = markov_program(spec, plan, rng)
        assert count_resources(prog).as_tuple() == count_items(prog)


def test_expected_resources_price_the_partial_swaps():
    spec = lindblad_collision_spec(amp_damp_model(m=2, J=1.0, h=0.1, gamma=1.0), 1.0, 2)
    backend = parse_backend("trotter2k:1")
    plan = markov_plan(spec, backend, 1e-2, 1.0)
    reports = {}
    for p in (0.0, 0.5, 1.0):
        reports[p] = expected_resources(NonMarkovSpec(spec, p), plan)
    # at p = 0 and p = 1 every program has the same swaps
    for p in (0.0, 1.0):
        prog = nonmarkov_program(NonMarkovSpec(spec, p), plan, np.random.default_rng(3))
        assert reports[p].as_tuple() == count_resources(prog).as_tuple()
    mean = [(a + b) / 2 for a, b in zip(reports[0.0].as_tuple(), reports[1.0].as_tuple())]
    assert list(reports[0.5].as_tuple()) == mean
    assert reports[1.0].cnot_count - reports[0.0].cnot_count == 3 * (spec.K - 1)


def test_quickstart_counts_and_expected_resources_stay_pinned():
    spec = lindblad_collision_spec(amp_damp_model(m=4, J=1.0, h=0.1, gamma=1.0), 1.0, 2)
    # label -> (the circuit eps its plan spends, the pinned counts)
    pinned = {
        "trotter1": (1e-2, (122_896.0, 122_880.0, 0.0, 245_776.0, 8)),
        "trotter2k:1": (1e-2, (3_856.0, 3_840.0, 0.0, 7_696.0, 8)),
        "qdrift": (1e-2, (135663.00124312122, 102_296.0, 0.0, 237959.00124312122, 8)),
        "salcu": (5e-3, (1188.761693358044, 704.0, 0.9640449180780388, 1892.761693358044, 8)),
    }
    plans = {
        label: markov_plan(spec, parse_backend(label), eps, 1.0)
        for label, (eps, _) in pinned.items()
    }
    for label, (_, want) in pinned.items():
        assert expected_resources(spec, plans[label]).as_tuple() == want
    for label in ("trotter1", "trotter2k:1"):
        prog = markov_program(spec, plans[label])
        assert count_resources(prog).cnot_count == count_items(prog)[0] == pinned[label][1][0]
