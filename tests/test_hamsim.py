"""Compiled collision unitaries against the dense exponential."""

import hashlib
import math

import numpy as np
import pytest

from collidesim import (
    DensityMatrix,
    Observable,
    choose_lcu_params,
    choose_qdrift_length,
    choose_taylor_order,
    choose_trotter_steps,
    lcu_enumerate_dense,
    lcu_sample,
    normalize,
    qdrift_rotations,
    segment_weights,
    spectral_norm,
    taylor_tail,
    trotter_step,
    unitary_exact,
)
from collidesim._draws import draw_index
from collidesim.hamsim import _EXPAND_DIM, Draw, RotationTable, _k_cdf, rotations_dense, step_unitary
from collidesim.pauli import PauliString
from collidesim.states import born_distribution, born_draw
from dense_reference import (
    Segment,
    gate_dense,
    lcu_expected_dense,
    pauli_mul,
    pauli_sum,
    rotations_by_item,
    sampled_dense,
    segments,
)

# XI and ZZ anticommute, so no product formula is exact here
H2 = pauli_sum([(0.5, "XI"), (0.3, "-ZZ"), (0.2, "YX")])
H1 = pauli_sum([(0.7, "X"), (0.3, "Z")])


def _trotter_error(h, tau, steps, order):
    nh = normalize(h)
    step = trotter_step(nh, tau, steps, order)
    u = rotations_dense(step, tuple(range(len(step))) * steps)
    return spectral_norm(u - unitary_exact(nh.h, tau))


def test_rotation_dense_matches_expm():
    from scipy.linalg import expm
    from collidesim import PauliString

    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        axis = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        theta = float(rng.uniform(-2, 2))
        want = expm(-1j * theta * axis.to_dense())
        np.testing.assert_allclose(gate_dense(axis, theta), want, atol=1e-12)


def test_trotter_orders_converge_at_their_rates():
    # halving the step angle should cut the error ~2x (order 1), ~4x (order 2)
    e1a, e1b = _trotter_error(H2, 0.9, 4, 1), _trotter_error(H2, 0.9, 8, 1)
    assert e1a / e1b > 1.7
    e2a, e2b = _trotter_error(H2, 0.9, 4, 2), _trotter_error(H2, 0.9, 8, 2)
    assert e2a / e2b > 3.4
    assert e2a < e1a


def test_trotter_rotation_schedule_shape():
    nh = normalize(H2)
    r1 = trotter_step(nh, 0.3, 5, order=1)
    assert len(r1) == len(nh)
    r2 = trotter_step(nh, 0.3, 5, order=2)
    assert len(r2) == 2 * len(nh)
    # all axes are bare; signed terms fold the sign into the angle
    assert all(axis.phase_exp == 0 for axis, _ in [*r1, *r2])
    with pytest.raises(ValueError):
        trotter_step(nh, 0.3, 0)


# (length, sha256 of repr([(axis label, angle), ...])) of trotter_step(normalize(H2), 0.3, 5,
# order): the items, angles and order every Trotter estimate and CNOT count rests on
TROTTER_STEP_DIGESTS = {
    1: (3, "23df8146ce1683643352e92096843d65c1c2c679fb5355ca328f2b42f41c054b"),
    2: (6, "e455b7636cc40f2f64c78f51ac96e08d6414001556b0a2f242b474d2433c3d8a"),
    4: (30, "68c4dcd868f30168bd1fce75c5ac80456d8659e8f8f3e49916b967fe74141cb0"),
}


def _suzuki_reference(terms, lam, order):
    """(axis, angle) of the order-`order` product formula, by the textbook
    recursion S_2k(lam) = S_2k-2(u lam)^2 S_2k-2((1-4u) lam) S_2k-2(u lam)^2."""
    if order == 1:
        return [(p.bare(), lam * c * (1.0 if p.phase_exp == 0 else -1.0)) for c, p in terms]
    if order == 2:
        half = _suzuki_reference(terms, lam / 2, 1)
        return half + half[::-1]
    k = order // 2
    u = 1.0 / (4.0 - 4.0 ** (1.0 / (2 * k - 1)))
    outer = _suzuki_reference(terms, u * lam, order - 2)
    return outer * 2 + _suzuki_reference(terms, (1.0 - 4.0 * u) * lam, order - 2) + outer * 2


@pytest.mark.parametrize("order", [1, 2, 4])
def test_trotter_step_keeps_its_items_angles_and_order(order):
    nh = normalize(H2)
    step = trotter_step(nh, 0.3, 5, order)
    assert type(step) is RotationTable and step.n == nh.n
    items = list(step)
    length, digest = TROTTER_STEP_DIGESTS[order]
    text = repr([(axis.label(), angle) for axis, angle in items])
    assert len(items) == length and hashlib.sha256(text.encode()).hexdigest() == digest
    want = _suzuki_reference([nh.term(l) for l in range(len(nh))], 0.3 / 5, order)
    assert [axis for axis, _ in items] == [axis for axis, _ in want]
    np.testing.assert_allclose([a for _, a in items], [a for _, a in want], rtol=1e-14, atol=0)


def test_a_product_formula_step_keeps_no_actions():
    # a step is walked once and its power memoized, so no workspace stays on it
    nh = normalize(H2)
    step = trotter_step(nh, 0.3, 5, order=2)
    u = step_unitary(step, 5)
    assert step.work is None and not u.flags.writeable
    # equal steps share one product, whichever table asks
    assert step_unitary(trotter_step(nh, 0.3, 5, order=2), 5) is u
    assert u.tobytes() == np.linalg.matrix_power(rotations_dense(step), 5).tobytes()
    assert step.work is None  # walked in order, with no picks


def test_choose_trotter_steps_worst_case_frozen():
    nh = normalize(H2)
    # ceil(0.5 * 0.75^2 / 1e-3) and ceil(0.75^1.5 * sqrt(1e3))
    assert choose_trotter_steps(nh, 0.75, 1, 1e-3, strategy="worst_case") == 282
    assert choose_trotter_steps(nh, 0.75, 2, 1e-3, strategy="worst_case") == 21
    with pytest.raises(ValueError):
        choose_trotter_steps(nh, 0.75, 1, 0.0, strategy="worst_case")


def test_choose_trotter_steps_empirical_is_certified():
    nh = normalize(H2)
    tau = 1.1
    for order in (1, 2):
        steps = choose_trotter_steps(nh, tau, order, 1e-4, strategy="empirical")
        assert steps & (steps - 1) == 0  # power of two
        assert _trotter_error(H2, tau, steps, order) <= 1e-4
        if steps > 1:
            assert _trotter_error(H2, tau, steps // 2, order) > 1e-4


def _svd_every_time_steps(nh, tau, order, eps_prime):
    """The empirical step count with a spectral norm taken at every doubling."""
    target = unitary_exact(nh.h, tau)
    steps = 1
    while spectral_norm(target - step_unitary(trotter_step(nh, tau, steps, order), steps)) > eps_prime:
        steps *= 2
    return steps


def test_the_empirical_step_search_rejects_by_column_norm_and_chooses_as_svd_does(monkeypatch):
    import collidesim.oracles as oracles

    rng = np.random.default_rng(101)
    svds = []
    real_norm = oracles.spectral_norm
    monkeypatch.setattr(oracles, "spectral_norm", lambda a: svds.append(1) or real_norm(a))
    doublings = 0
    for n in (1, 2, 3, 5):
        labels = {"".join(rng.choice(list("IXYZ"), size=n)) for _ in range(5)} - {"I" * n}
        h = pauli_sum([(float(rng.uniform(-1.0, 1.0)), label) for label in sorted(labels)])
        tau = float(rng.uniform(0.3, 1.5))
        for order in (1, 2, 4):
            for eps_prime in (1e-1, 1e-3, 1e-5, 1e-7):
                if order == 1 and eps_prime < 1e-5:
                    continue  # a million steps; the other orders cover the small targets
                nh = normalize(h)
                want = _svd_every_time_steps(nh, tau, order, eps_prime)
                doublings += want.bit_length()
                assert choose_trotter_steps(nh, tau, order, eps_prime, "empirical") == want
    # the column norm rejects most counts: far fewer SVDs than doublings searched
    assert len(svds) < doublings // 2


def test_qdrift_length_frozen():
    assert choose_qdrift_length(1.0, 0.01) == 200
    assert choose_qdrift_length(0.3, 1e-3) == 180
    assert choose_qdrift_length(0.01, 1.0) == 1


def test_qdrift_channel_is_unbiased():
    # the averaged conjugation, not the averaged unitary, approximates the
    # exact channel: check an observable expectation over many draws
    rng = np.random.default_rng(43)
    nh = normalize(H1)
    tau = 0.4
    length = choose_qdrift_length(tau, 1e-3)
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=np.complex128)
    z = np.diag([1.0, -1.0]).astype(np.complex128)
    u_exact = unitary_exact(nh.h, tau)
    want = float(np.trace(z @ u_exact @ rho @ u_exact.conj().T).real)
    vals = []
    for _ in range(1500):
        draw = qdrift_rotations(nh, tau, length, rng)
        u = rotations_dense(draw.table, draw.picks)
        vals.append(float(np.trace(z @ u @ rho @ u.conj().T).real))
    vals = np.asarray(vals)
    tol = 1e-3 + 4 * vals.std() / math.sqrt(vals.size)
    assert abs(vals.mean() - want) < tol


def test_taylor_tail_brackets_the_remainder():
    for x in (0.05, 0.3, 0.9):
        for q in (0, 2, 4):
            true = math.exp(x) - sum(x**k / math.factorial(k) for k in range(q + 1))
            bound = taylor_tail(x, q)
            # upper bound up to float rounding (the exp-minus-partial-sum
            # oracle itself cancels at ~1e-16), and tight to a relative 1e-9
            assert bound >= true - 1e-14
            assert bound <= true * (1 + 1e-9) + 1e-15
            assert taylor_tail(x, q + 2) < bound
    assert taylor_tail(0.0, 2) == 0.0


def test_choose_taylor_order_is_minimal_even():
    for tau, r, eps in ((0.6, 2, 1e-3), (0.4, 4, 1e-6), (0.9, 3, 1e-4)):
        q = choose_taylor_order(tau, r, eps)
        assert q % 2 == 0
        assert r * taylor_tail(tau / r, q) <= eps
        if q >= 2:
            assert r * taylor_tail(tau / r, q - 2) > eps


def test_choose_lcu_params_invariants():
    rng = np.random.default_rng(45)
    for _ in range(30):
        tau = float(rng.uniform(0.05, 2.5))
        k_col = int(rng.integers(1, 30))
        params = choose_lcu_params(tau, k_col, 1e-4)
        assert params.r >= math.ceil(tau) + 1
        assert params.r >= math.ceil(params.c_r * tau * tau * k_col)
        assert params.x < 1.0
        assert params.q % 2 == 0
        assert params.weights == segment_weights(tau, params.r, params.q)
        assert params.alpha_total == pytest.approx(sum(params.weights) ** params.r)
        assert params.alpha_total <= math.exp(tau * tau / params.r) + 1e-9
    with pytest.raises(ValueError):
        choose_lcu_params(2.0, 1, 1e-3, r_override=2)  # per-segment angle 1


def test_segment_weights_formula():
    x = 0.25
    w = segment_weights(0.5, 2, 4)
    assert w[0] == pytest.approx(math.sqrt(1 + x * x))
    assert w[1] == pytest.approx(x**2 / 2 * math.sqrt(1 + (x / 3) ** 2))
    assert w[2] == pytest.approx(x**4 / 24 * math.sqrt(1 + (x / 5) ** 2))


def test_lcu_dual_route_and_error_bound():
    rng = np.random.default_rng(47)
    for h in (H1, H2):
        for tau, r in ((0.35, 2), (0.8, 3)):
            nh = normalize(h)
            eps = 1e-3
            params = choose_lcu_params(tau, 1, eps, r_override=r)
            enum = lcu_enumerate_dense(nh, params)
            fact = lcu_expected_dense(nh, params)
            np.testing.assert_allclose(enum, fact, atol=1e-12)
            u = unitary_exact(nh.h, tau)
            assert spectral_norm(u - fact) <= eps


def test_lcu_enumerate_cap():
    nh = normalize(H2)
    params = choose_lcu_params(0.5, 1, 1e-12)
    with pytest.raises(ValueError):
        lcu_enumerate_dense(nh, params, cap=10)


def test_lcu_sample_mean_recovers_expected():
    rng = np.random.default_rng(49)
    nh = normalize(H1)
    params = choose_lcu_params(0.5, 1, 1e-2)
    want = lcu_expected_dense(nh, params)
    acc = np.zeros_like(want)
    n_draws = 4000
    for _ in range(n_draws):
        acc += sampled_dense(lcu_sample(nh, params, rng))
    got = params.alpha_total * acc / n_draws
    assert np.abs(got - want).max() < 0.05
    # every sampled segment count is even and weights are positive
    su = lcu_sample(nh, params, rng)
    assert type(su) is Draw
    assert len(segments(su)) == params.r
    assert all(seg.k % 2 == 0 for seg in segments(su))


def test_rotations_dense_matches_the_matmul_product():
    # reference: each item made dense and multiplied on the left
    rng = np.random.default_rng(51)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        items = []
        for _ in range(int(rng.integers(1, 12))):
            x = 0 if rng.random() < 0.3 else int(rng.integers(0, 1 << n))  # diagonal axes too
            z = int(rng.integers(0, 1 << n))
            if rng.random() < 0.4:
                items.append((PauliString(n, x, z, int(rng.integers(0, 4))), None))
            else:
                items.append((PauliString(n, x, z), float(rng.uniform(-2, 2))))
        want = np.eye(1 << n, dtype=np.complex128)
        for axis, angle in items:
            gate = gate_dense(axis, angle)
            want = gate @ want
        np.testing.assert_allclose(rotations_dense(RotationTable(n, items)), want, atol=1e-12)


@pytest.mark.parametrize("theta", [math.pi / 2, -math.pi / 2, 2.0, -2.0, math.pi])
def test_rotations_dense_matches_the_matmul_product_at_wide_angles(theta):
    # |cos| < 1/2 keeps the sin update, cos = -1 takes the tan update with tan ~ 0
    rng = np.random.default_rng(52)
    for n in (1, 2, 3, 4):
        items = []
        for _ in range(12):
            x = 0 if rng.random() < 0.2 else int(rng.integers(1, 1 << n))
            axis = PauliString(n, x, int(rng.integers(0, 1 << n)))
            items.append((axis, theta) if rng.random() < 0.7 else (axis, float(rng.uniform(-2, 2))))
        want = np.eye(1 << n, dtype=np.complex128)
        for axis, angle in items:
            want = gate_dense(axis, angle) @ want
        got = rotations_dense(RotationTable(n, items))
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert got.tobytes() == rotations_by_item(items, n).tobytes()


def test_a_long_draw_at_cos_0_6_folds_its_cosines_and_stays_exact():
    # 0.6^5000 is far below the smallest double, so the cosine product must be
    # multiplied in along the way
    n = 3
    theta = math.acos(0.6)
    rng = np.random.default_rng(53)
    items = [
        (PauliString(n, int(rng.integers(1, 1 << n)), int(rng.integers(0, 1 << n))), angle)
        for angle in (theta, -theta, math.pi - theta, theta - math.pi)
        for _ in range(3)
    ]
    table = RotationTable(n, items)
    picks = tuple(int(v) for v in rng.integers(0, len(table), size=5000))
    got = rotations_dense(table, picks)
    assert np.isfinite(got).all()
    assert got.tobytes() == rotations_by_item([table[i] for i in picks], n).tobytes()
    want = np.eye(1 << n, dtype=np.complex128)
    for i in picks:
        want = gate_dense(*table[i]) @ want
    np.testing.assert_allclose(got, want, atol=1e-12)


def _random_items(rng, n, count):
    """Diagonal and non-diagonal rotations and phased words, as LCU tables hold."""
    items = []
    for _ in range(count):
        x = 0 if rng.random() < 0.3 else int(rng.integers(0, 1 << n))
        z = int(rng.integers(0, 1 << n))
        if rng.random() < 0.3:
            items.append((PauliString(n, x, z, int(rng.integers(0, 4))), None))
        else:
            items.append((PauliString(n, x, z), float(rng.uniform(-2, 2))))
    return items


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_rotations_dense_on_picks_is_the_item_product_bit_for_bit(n):
    rng = np.random.default_rng(60 + n)
    table = RotationTable(n, _random_items(rng, n, 9))
    kept = (1 << n) <= _EXPAND_DIM
    for count in (1, 5, 300):  # each entry once, and many times
        picks = tuple(int(v) for v in rng.integers(0, len(table), size=count))
        want = rotations_by_item([table[i] for i in picks], n)
        got = rotations_dense(table, picks)
        assert got.tobytes() == want.tobytes()
        assert (table.work is not None) == kept  # actions kept on small tables only
        # the table's entries once each, in order
        once = rotations_by_item(table.items, n)
        assert rotations_dense(table).tobytes() == once.tobytes()
    # an entry appended after actions were kept, picked beside the old ones
    fresh = table.append(_random_items(rng, n, 1)[0])
    picks = (fresh, 0, fresh, 1)
    want = rotations_by_item([table[i] for i in picks], n)
    assert rotations_dense(table, picks).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_rotations_dense_from_identity_columns_is_the_full_build_bit_for_bit(n):
    rng = np.random.default_rng(90 + n)
    dim = 1 << n
    table = RotationTable(n, _random_items(rng, n, 9))
    eye = np.eye(dim, dtype=np.complex128)
    column_sets = [np.arange(dim), np.arange(0, dim, 2), rng.permutation(dim)[: max(1, dim // 4)]]
    for grow in (False, True):
        if grow:  # an entry appended between calls, picked beside the old ones
            table.append(_random_items(rng, n, 1)[0])
        picks = tuple(int(v) for v in rng.integers(0, len(table), size=40)) + (len(table) - 1,)
        full = rotations_dense(table, picks)
        for cols in column_sets:
            start = eye[:, cols]
            want = full[:, cols]
            got = rotations_dense(table, picks, start=start)  # kept actions up to d = 32, then not
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert (table.work is not None) == (dim <= _EXPAND_DIM)
        # back to the full build once the kept workspace was sized for fewer columns
        assert rotations_dense(table, picks).tobytes() == full.tobytes()


def test_rotation_table_checks_entries_as_they_enter():
    table = RotationTable(2)
    with pytest.raises(ValueError):
        table.append((PauliString.from_label("X"), 0.1))  # width
    with pytest.raises(ValueError):
        table.append((PauliString.from_label("-XX"), 0.1))  # phased rotation axis
    assert table.append((PauliString.from_label("-iXY"), None)) == 0  # a word keeps its phase


def test_draws_keep_what_the_benchmark_tracer_reads():
    # perfbench counts len() of a draw as the gates a sampler hands to
    # emission; for an LCU draw that is its segments plus non-identity words
    nh = normalize(H2)
    draw = qdrift_rotations(nh, 0.3, 77, np.random.default_rng(3))
    assert len(draw) == 77 == len(draw.picks)
    params = choose_lcu_params(1.6, 1, 1e-6, r_override=2)
    for seed in range(10):
        su = lcu_sample(nh, params, np.random.default_rng(seed))
        segs = segments(su)
        words = sum(1 for s in segs if not (s.word.is_identity_axes() and s.word.phase_exp == 0))
        assert len(segs) + words == len(su) == len(su.picks)
        items = [su.table[i] for i in su.picks]
        assert items == [
            item
            for seg in segs
            for item in [(seg.axis, seg.angle)] + ([(seg.word, None)] if seg.word != PauliString(nh.n, 0, 0) else [])
        ]


def _lcu_sample_reference(nh, params, rng):
    """lcu_sample's draws, made by rng.choice, with every word product taken
    by pauli_mul."""
    k_probs = np.array(params.weights) / np.sum(params.weights)
    ks = 2 * np.atleast_1d(rng.choice(len(k_probs), size=params.r, p=k_probs))
    n_draws = int(ks.sum()) + params.r
    picks = iter(np.atleast_1d(rng.choice(len(nh.probs), size=n_draws, p=nh.probs)))
    out = []
    for k in (int(v) for v in ks):
        word = PauliString(nh.n, 0, 0, 3 * k % 4)
        for _ in range(k):
            word = pauli_mul(word, nh.term(int(next(picks)))[1])
        pm = nh.term(int(next(picks)))[1]
        sign = 1.0 if pm.phase_exp == 0 else -1.0
        out.append(Segment(k, word, pm.bare(), math.atan(params.x / (k + 1)) * sign))
    return tuple(out)


def test_lcu_sample_words_match_pauli_mul():
    h3 = pauli_sum([(0.4, "XYZ"), (0.3, "-YYI"), (0.2, "ZXY"), (0.1, "-IZX")])
    for h in (H1, H2, h3):
        nh = normalize(h)
        params = choose_lcu_params(1.6, 1, 1e-6, r_override=2)  # x = 0.8: many words
        for seed in range(20):
            got = lcu_sample(nh, params, np.random.default_rng(seed))
            want = _lcu_sample_reference(nh, params, np.random.default_rng(seed))
            assert segments(got) == want


def test_cached_cdf_draws_match_rng_choice():
    nh = normalize(H2)
    params = choose_lcu_params(1.6, 1, 1e-6, r_override=3)
    k_probs = np.array(params.weights) / np.sum(params.weights)
    rho = DensityMatrix.from_vector([0.3, 0.5j, -0.2, 0.7])
    born = born_distribution(rho, Observable(pauli_sum([(0.6, "ZI"), (0.4, "XX")])))
    for seed in range(2000):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in (None, 7):
            want = b.choice(len(nh.probs), size=size, p=nh.probs)
            assert np.array_equal(nh.sample_term(a, size), want)
        # the LCU segment-order draw and one Born shot
        assert np.array_equal(draw_index(_k_cdf(params.weights), a, params.r),
                              b.choice(len(k_probs), size=params.r, p=k_probs))
        assert born_draw(born, a) == float(b.choice(born[0], p=born[1]))
        assert a.random() == b.random()
