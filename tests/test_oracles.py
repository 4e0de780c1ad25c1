"""Dense reference machinery: norms, exponentials, Liouvillian evolution."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from collidesim import (
    DenseLimitError,
    DensityMatrix,
    JumpOp,
    LindbladModel,
    Liouvillian,
    NumericalError,
    PauliSum,
    amp_damp_model,
    exact_k_collision,
    expectation,
    lindblad_collision_spec,
    lindblad_evolve,
    magnetization,
    spectral_norm,
    thermal_env_state,
    trace_distance,
    unitary_exact,
)
from collidesim import oracles
from dense_reference import jump_dense, pauli_sum
from fresh_interpreter import run_child


def _rand_rho(rng, n):
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


def test_spectral_norm_is_largest_singular_value():
    rng = np.random.default_rng(51)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert spectral_norm(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0])


def test_trace_distance_conventions():
    zero = DensityMatrix.basis(1, 0)
    one = DensityMatrix.basis(1, 1)
    assert trace_distance(zero, one) == pytest.approx(2.0)
    assert trace_distance(zero, zero) == pytest.approx(0.0)
    # triangle inequality on random triples
    rng = np.random.default_rng(53)
    for _ in range(20):
        a, b, c = (_rand_rho(rng, 2) for _ in range(3))
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


def test_unitary_exact_matches_expm():
    # a PauliSum and a dense Hermitian array, the forms the release criteria pass
    h = pauli_sum([(0.8, "XZ"), (0.4, "-YI"), (0.3, "ZZ")])
    rng = np.random.default_rng(59)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    for herm in (h, h.to_dense(), (g + g.conj().T) / 2.0):
        dense = herm.to_dense() if isinstance(herm, PauliSum) else herm
        for tau in (0.0, 0.3, 2.1):
            np.testing.assert_allclose(unitary_exact(herm, tau), expm(-1j * tau * dense), atol=1e-12)


def _act(liou, x):
    """L[x] for a Hermitian x, through the Liouvillian's action."""
    x = np.ascontiguousarray(x, dtype=np.complex128)
    return liou.apply(x, np.empty_like(x), np.empty_like(x))


def test_liouvillian_matches_term_by_term():
    # the action vs the commutator/dissipator formula applied densely;
    # a thermal env (populations 3/4, 1/4 at omega = ln 3) pairs each jump A
    # with sqrt(3/4) A and sqrt(1/4) A†
    rng = np.random.default_rng(55)
    rho = _rand_rho(rng, 2).data
    for omega, p0, p1 in ((math.inf, 1.0, 0.0), (math.log(3.0), 0.75, 0.25)):
        model = amp_damp_model(2, J=0.9, h=0.4, gamma=0.7, omega=omega)
        h = model.system_h.to_dense()
        want = -1j * (h @ rho - rho @ h)
        for a in map(jump_dense, model.jumps):
            for a in (math.sqrt(p0) * a, math.sqrt(p1) * a.conj().T):
                ada = a.conj().T @ a
                want += a @ rho @ a.conj().T - 0.5 * (ada @ rho + rho @ ada)
        got = _act(Liouvillian(model), rho)
        np.testing.assert_allclose(got, want, atol=1e-12)
        # the generator preserves trace: tr L[rho] = 0
        assert abs(got.trace()) < 1e-12


def _kron_liouvillian(model):
    """The generator summed term by term from dense Kronecker products, with
    each jump A paired as sqrt(p0) A, sqrt(p1) A† (p1 = 0 at omega = inf)."""
    dim = 1 << model.n
    eye = np.eye(dim, dtype=np.complex128)
    h = model.system_h.to_dense()
    mat = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    p0, p1 = thermal_env_state(model.env_omega).data.diagonal().real
    for jump in model.jumps:
        a = jump_dense(jump)
        for b in (math.sqrt(p0) * a, math.sqrt(p1) * a.conj().T):
            bdb = b.conj().T @ b
            mat += np.kron(b, b.conj())
            mat -= 0.5 * (np.kron(bdb, eye) + np.kron(eye, bdb.T))
    return mat


def _hermitian_basis(dim):
    """E_ii, E_ij + E_ji and i(E_ij - E_ji) for i < j: a real basis of the
    Hermitian d x d matrices, so the action on it fixes the whole generator."""
    for i in range(dim):
        for j in range(i, dim):
            for phase in (1.0, 1j) if i < j else (1.0,):
                e = np.zeros((dim, dim), dtype=np.complex128)
                e[i, j] = phase
                e[j, i] = np.conj(phase)
                yield e


def _assert_action_matches_kron(model, atol):
    liou, kron = Liouvillian(model), _kron_liouvillian(model)
    dim = 1 << model.n
    for e in _hermitian_basis(dim):
        want = (kron @ e.reshape(-1)).reshape(dim, dim)
        np.testing.assert_allclose(_act(liou, e), want, rtol=0, atol=atol)


def test_liouvillian_matches_kron_build():
    for n in (1, 2, 3):
        _assert_action_matches_kron(amp_damp_model(n, J=0.9, h=0.4, gamma=0.7), atol=1e-14)


def test_liouvillian_bound_covers_the_generator_norm():
    # vec is an isometry of the Frobenius norm, so ||L|| is the spectral norm of the Kronecker build
    for model in (
        amp_damp_model(1, J=0.0, h=0.0, gamma=1.0),
        amp_damp_model(2, J=0.9, h=0.4, gamma=0.7, omega=math.log(3.0)),
        amp_damp_model(3, J=1.0, h=0.1, gamma=1.0),
    ):
        assert spectral_norm(_kron_liouvillian(model)) <= Liouvillian(model).bound


def test_taylor_degree_cap_is_the_first_that_bounds_the_tail():
    # by degree K the tail bound theta^(K+1) / (K! (K + 1 - theta)) is under half the unit roundoff
    def tail(k):
        return oracles._THETA ** (k + 1) / (math.factorial(k) * (k + 1 - oracles._THETA))

    cap = oracles._DEGREE_CAP
    assert tail(cap) <= 2.0**-54 < tail(cap - 1)


def test_unconverged_taylor_step_is_a_numerical_error(monkeypatch):
    monkeypatch.setattr(oracles, "_DEGREE_CAP", 3)
    model = amp_damp_model(2, J=1.0, h=0.1, gamma=1.0)
    with pytest.raises(NumericalError, match="did not converge by degree 3"):
        lindblad_evolve(model, DensityMatrix.basis(2, 0), 1.0)


def test_lindblad_evolve_rejects_a_non_hermitian_state():
    # the action computes X Heff† as (Heff X)†, which holds for a Hermitian X only
    model = amp_damp_model(1, J=0.0, h=0.3, gamma=1.0)
    rho = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=np.complex128)
    with pytest.raises(ValueError, match="not Hermitian"):
        lindblad_evolve(model, rho, 1.0)


def test_lindblad_evolve_rejects_a_non_finite_time():
    model = amp_damp_model(1, J=0.0, h=0.3, gamma=1.0)
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t must be finite"):
            lindblad_evolve(model, DensityMatrix.basis(1, 0), t)


def test_oracle_runs_m7_under_the_default_limit(monkeypatch):
    # a dense 4^7 x 4^7 generator is past the 12-qubit budget; its nonzeros are not.
    # Without coupling or field, each site decays alone: <Z>(t) = 1 - 2 e^{-gamma t}
    monkeypatch.delenv("COLLIDESIM_DENSE_LIMIT", raising=False)
    model = amp_damp_model(7, J=0.0, h=0.0, gamma=0.8)
    out = lindblad_evolve(model, DensityMatrix.basis(7, (1 << 7) - 1), 1.5)
    want = 1.0 - 2.0 * math.exp(-0.8 * 1.5)
    assert expectation(out, magnetization(7)) == pytest.approx(want, abs=1e-9)


def test_oracle_guard_refuses_m11_before_building(monkeypatch):
    # at m = 11 the four 2048 x 2048 work arrays alone fill a dense 12-qubit
    # matrix (256 MiB); the model holds Pauli terms and the guard counts the
    # mask vectors and the work arrays before allocating either, so building
    # the model and the refusal together stay under one dense 1024 x 1024
    # complex matrix
    monkeypatch.setenv("COLLIDESIM_DENSE_LIMIT", "12")
    tracemalloc.start()
    try:
        model = amp_damp_model(11, J=1.0, h=0.1, gamma=1.0)
        with pytest.raises(DenseLimitError, match="11-qubit Liouvillian stores up to 16848896 "):
            Liouvillian(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 4**10


def test_sparse_oracle_matches_dense_generator_at_m5():
    model = amp_damp_model(5, J=1.0, h=0.1, gamma=1.0)
    rho0 = DensityMatrix.basis(5, 0)
    want = expm_multiply(_kron_liouvillian(model), rho0.data.reshape(-1)).reshape(32, 32)
    got = lindblad_evolve(model, rho0, 1.0)
    np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)


def _evolve_peak_rise_mib(m):
    """Rise of a fresh interpreter's own peak resident memory over one
    lindblad_evolve on the m-site chain."""
    code = (
        "import collidesim as cs; "
        f"model = cs.amp_damp_model({m}, J=1.0, h=0.1, gamma=1.0); "
        f"rho0 = cs.DensityMatrix.basis({m}, 0); "
        "before = peak_mib(); "
        "cs.lindblad_evolve(model, rho0, 1.0); "
        "print(peak_mib() - before)"
    )
    return float(run_child(code))


def test_oracle_memory_stays_near_the_nonzeros_at_m6():
    # a dense 4096 x 4096 generator alone is 256 MiB; the action holds four
    # 64 x 64 work arrays and a few mask vectors
    assert _evolve_peak_rise_mib(6) < 64


def test_oracle_memory_stays_small_at_m8():
    # four 256 x 256 complex work arrays are 4 MiB; a generator-sized copy of
    # the m = 8 Liouvillian, sparse or not, would be far more
    assert _evolve_peak_rise_mib(8) < 32


@pytest.mark.parametrize("m", [5, 6])
def test_oracle_guard_count_covers_the_traced_peak(monkeypatch, m):
    # the count is read from the guard's own refusal under a 1-qubit limit,
    # and bounds, at 16 bytes an entry, all that building the Liouvillian and
    # evolving with it hold at once
    model = amp_damp_model(m, J=1.0, h=0.1, gamma=1.0)
    rho0 = DensityMatrix.basis(m, 0)
    monkeypatch.setenv("COLLIDESIM_DENSE_LIMIT", "1")
    with pytest.raises(DenseLimitError) as refusal:
        Liouvillian(model)
    counted = int(re.search(r"stores up to (\d+) entries", str(refusal.value)).group(1))
    monkeypatch.delenv("COLLIDESIM_DENSE_LIMIT")
    lindblad_evolve(model, rho0, 1.0)  # fills the index caches the oracle keeps
    tracemalloc.start()
    try:
        lindblad_evolve(model, rho0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 4 * 16 * 4**m <= peak <= 16 * counted


def test_expm_path_matches_dense_exponential():
    rng = np.random.default_rng(59)
    for n in (1, 2, 3):
        model = amp_damp_model(n, J=1.0, h=0.3, gamma=0.8)
        liou, kron = Liouvillian(model), _kron_liouvillian(model)
        rho = _rand_rho(rng, n)
        for t in (0.0, 0.1, 0.7, 2.5):
            want = (expm(kron * t) @ rho.data.reshape(-1)).reshape(rho.data.shape)
            got = lindblad_evolve(liou, rho, t)
            np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)


def test_amplitude_damping_analytic():
    # single qubit, gamma = 1, rho0 = |1><1|: <sz>(t) = 1 - 2 e^{-t}
    model = amp_damp_model(1, J=0.0, h=0.0, gamma=1.0)
    rho0 = DensityMatrix.basis(1, 1)
    for t in (0.25, 1.0, 2.0):
        out = lindblad_evolve(model, rho0, t)
        sz = float((out.data[0, 0] - out.data[1, 1]).real)
        assert sz == pytest.approx(1.0 - 2.0 * math.exp(-t), abs=1e-9)


def test_thermal_environment_relaxes_to_its_populations():
    # single qubit, J = h = 0, env qubits in diag(p0, p1): the decay |1> -> |0>
    # at rate gamma p0 and the excitation |0> -> |1> at rate gamma p1 relax
    # <sz> to p0 - p1 = tanh(omega/2) at rate gamma; from |1>,
    # <sz>(t) = tanh(omega/2) - (1 + tanh(omega/2)) e^{-gamma t}
    gamma, omega = 0.7, 1.0
    rho0 = DensityMatrix.basis(1, 1)
    cold = lindblad_evolve(amp_damp_model(1, J=0.0, h=0.0, gamma=gamma), rho0, 1.5)
    warm = lindblad_evolve(amp_damp_model(1, J=0.0, h=0.0, gamma=gamma, omega=omega), rho0, 1.5)
    z = magnetization(1)
    decay = math.exp(-gamma * 1.5)
    assert expectation(cold, z) == pytest.approx(1.0 - 2.0 * decay, abs=1e-9)
    want = math.tanh(omega / 2.0) - (1.0 + math.tanh(omega / 2.0)) * decay
    assert expectation(warm, z) == pytest.approx(want, abs=1e-9)
    assert expectation(cold, z) - expectation(warm, z) > 0.1


def test_thermal_collisions_converge_to_the_oracle_at_first_order():
    # the (m, nu) collision map of a finite-temperature chain approaches the
    # oracle's e^{Lt} with a gap that falls 4x when nu grows 4x
    model = amp_damp_model(2, J=1.0, h=0.1, gamma=1.0, omega=1.0)
    rho0 = DensityMatrix.basis(2, 3)
    truth = lindblad_evolve(model, rho0, 1.0)
    gaps = [
        trace_distance(exact_k_collision(lindblad_collision_spec(model, 1.0, nu), rho0), truth)
        for nu in (64, 256)
    ]
    assert gaps[1] < 5e-4
    assert 3.5 < gaps[0] / gaps[1] < 4.5


def test_import_loads_no_ode_or_special_function_modules():
    # the package needs numpy alone (scipy is the tests' reference), and a
    # serial estimate never needs the process pool
    code = (
        "import collidesim; "
        "print(scipy_modules(), 'concurrent.futures.process' in sys.modules)"
    )
    assert run_child(code).strip() == "[] False"


def test_oracle_loads_no_scipy():
    code = (
        "import collidesim as cs; "
        "model = cs.amp_damp_model(3, J=1.0, h=0.1, gamma=1.0); "
        "cs.lindblad_evolve(cs.Liouvillian(model), cs.DensityMatrix.basis(3, 0), 1.0); "
        "print(scipy_modules())"
    )
    assert run_child(code).strip() == "[]"


def test_evolution_preserves_state_structure():
    rng = np.random.default_rng(57)
    model = amp_damp_model(2, J=0.5, h=0.2, gamma=1.3)
    rho = _rand_rho(rng, 2)
    out = lindblad_evolve(model, rho, 1.5)
    assert abs(out.trace() - 1.0) < 1e-10
    vals = np.linalg.eigvalsh(out.data)
    assert vals.min() > -1e-10
    # CPTP maps contract trace distance
    sigma = _rand_rho(rng, 2)
    d_out = trace_distance(out, lindblad_evolve(model, sigma, 1.5))
    assert d_out <= trace_distance(rho, sigma) + 1e-10


def test_custom_jump_model():
    # dephasing: L = sqrt(g) Z kills coherence at rate 2g, keeps populations
    g = 0.6
    jump = JumpOp(pauli_sum([(math.sqrt(g), "Z")]), PauliSum(1, []))
    model = LindbladModel(1, PauliSum(1, []), (jump,))
    # the collisions' coupling comes from the same jump: sqrt(g) Z x X_env
    assert jump.interaction.terms == pauli_sum([(math.sqrt(g), "ZX")]).terms
    with pytest.raises(ValueError, match="jump operator width"):
        LindbladModel(1, PauliSum(1, []), (JumpOp(jump.x_part, PauliSum(2, [])),))
    plus = DensityMatrix.plus()
    out = lindblad_evolve(model, plus, 1.0)
    assert out.data[0, 0].real == pytest.approx(0.5, abs=1e-10)
    assert out.data[0, 1].real == pytest.approx(0.5 * math.exp(-2.0 * g), abs=1e-9)


def test_custom_jump_with_both_parts_matches_kron_build():
    # A = x_part + i y_part with non-commuting, multi-term parts on two qubits
    h = pauli_sum([(0.7, "ZZ"), (0.3, "XI"), (0.2, "-IY")])
    jumps = (
        JumpOp(pauli_sum([(0.4, "XI"), (0.25, "-ZY")]), pauli_sum([(0.35, "YZ"), (0.1, "IX")])),
        JumpOp(pauli_sum([(0.5, "IZ")]), pauli_sum([(0.3, "XX"), (0.2, "-YI")])),
    )
    for omega in (math.inf, math.log(3.0)):
        _assert_action_matches_kron(LindbladModel(2, h, jumps, env_omega=omega), atol=1e-14)
    # the coupling is A x sigma^+_env + A† x sigma^-_env, env last
    sp = np.array([[0, 0], [1, 0]], dtype=np.complex128)  # |1><0|
    for jump in jumps:
        a = jump_dense(jump)
        want = np.kron(a, sp) + np.kron(a.conj().T, sp.conj().T)
        np.testing.assert_allclose(jump.interaction.to_dense(), want, atol=1e-15)
