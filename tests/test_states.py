"""State backend against dense linear-algebra oracles."""

import numpy as np
import pytest
from scipy.linalg import expm

from collidesim import _kernels

from collidesim import (
    DensityMatrix,
    Observable,
    PauliString,
    apply_pauli,
    apply_pauli_rotation,
    apply_swap,
    apply_unitary,
    born_sample,
    embed_pauli,
    expectation,
    load_state,
    partial_trace,
    save_state,
    tensor_append,
)


def _rand_rho(rng, n):
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


def _rand_word(rng, n, bare=False):
    p = PauliString(
        n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), int(rng.integers(0, 4))
    )
    return p.bare() if bare else p


def _controlled(gate, n, control, polarity):
    # control qubit is outside the gate's support, so the projector commutes
    idx = np.arange(1 << n)
    match = ((idx >> (n - 1 - control)) & 1) == polarity
    return gate @ np.diag(match.astype(np.complex128)) + np.diag((~match).astype(np.complex128))


def test_constructors():
    e1 = DensityMatrix.basis(2, 1)
    assert e1.data[1, 1] == 1.0 and abs(e1.trace() - 1) < 1e-15
    plus = DensityMatrix.plus()
    np.testing.assert_allclose(plus.data, np.full((2, 2), 0.5), atol=1e-15)
    v = np.array([1.0, 1j]) / np.sqrt(2)
    psi = DensityMatrix.from_vector(v)
    assert psi.purity() == pytest.approx(1.0)
    mm = DensityMatrix.maximally_mixed(3)
    assert mm.purity() == pytest.approx(1.0 / 8)


def test_validation_rejects_bad_states():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3) / 3)  # not 2^n


def test_apply_pauli_matches_dense():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        rho = _rand_rho(rng, n)
        w = int(rng.integers(1, n + 1))
        targets = tuple(int(q) for q in rng.permutation(n)[:w])
        p = _rand_word(rng, w)
        g = embed_pauli(p, n, targets).to_dense()
        want = g @ rho.data @ g.conj().T
        got = apply_pauli(rho.copy(), p, targets)
        np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_apply_pauli_controlled():
    rng = np.random.default_rng(4)
    for polarity in (0, 1):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            rho = _rand_rho(rng, n)
            qubits = rng.permutation(n)
            w = int(rng.integers(1, n))
            targets = tuple(int(q) for q in qubits[:w])
            control = int(qubits[w])
            p = _rand_word(rng, w)
            g = _controlled(embed_pauli(p, n, targets).to_dense(), n, control, polarity)
            want = g @ rho.data @ g.conj().T
            got = apply_pauli(rho.copy(), p, targets, control=control, polarity=polarity)
            np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_apply_rotation_matches_expm():
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        rho = _rand_rho(rng, n)
        w = int(rng.integers(1, n + 1))
        targets = tuple(int(q) for q in rng.permutation(n)[:w])
        axis = _rand_word(rng, w, bare=True)
        theta = float(rng.uniform(-np.pi, np.pi))
        g = expm(-1j * theta * embed_pauli(axis, n, targets).to_dense())
        want = g @ rho.data @ g.conj().T
        got = apply_pauli_rotation(rho.copy(), axis, theta, targets)
        np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_apply_rotation_controlled_matches_expm():
    rng = np.random.default_rng(8)
    for polarity in (0, 1):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            rho = _rand_rho(rng, n)
            qubits = rng.permutation(n)
            w = int(rng.integers(1, n))
            targets = tuple(int(q) for q in qubits[:w])
            control = int(qubits[w])
            axis = _rand_word(rng, w, bare=True)
            theta = float(rng.uniform(-np.pi, np.pi))
            g = _controlled(
                expm(-1j * theta * embed_pauli(axis, n, targets).to_dense()),
                n,
                control,
                polarity,
            )
            want = g @ rho.data @ g.conj().T
            got = apply_pauli_rotation(
                rho.copy(), axis, theta, targets, control=control, polarity=polarity
            )
            np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_rotation_rejects_phased_axis():
    rho = DensityMatrix.plus()
    with pytest.raises(ValueError):
        apply_pauli_rotation(rho, PauliString.from_label("-X"), 0.3, (0,))


def test_swap_matches_permutation():
    rng = np.random.default_rng(10)
    rho = _rand_rho(rng, 4)
    # swap qubits (0, 1) with (2, 3): dense oracle permutes basis index bits
    idx = np.arange(16)
    hi = (idx >> 2) & 3
    lo = idx & 3
    perm = (lo << 2) | hi
    want = rho.data[np.ix_(perm, perm)]
    got = apply_swap(rho.copy(), (0, 1), (2, 3))
    np.testing.assert_allclose(got.data, want, atol=1e-14)
    with pytest.raises(ValueError):
        apply_swap(rho.copy(), (0, 1), (1, 2))


def test_tensor_and_partial_trace_round_trip():
    rng = np.random.default_rng(12)
    sys = _rand_rho(rng, 2)
    env = _rand_rho(rng, 1)
    joint = tensor_append(sys.copy(), env)
    assert joint.n == 3
    np.testing.assert_allclose(joint.data, np.kron(sys.data, env.data), atol=1e-14)
    back = partial_trace(joint, (2,))
    np.testing.assert_allclose(back.data, sys.data, atol=1e-13)


def test_partial_trace_matches_einsum():
    rng = np.random.default_rng(14)
    rho = _rand_rho(rng, 3)
    block = rho.data.reshape(2, 2, 2, 2, 2, 2)
    want_drop_middle = np.einsum("aibcid->abcd", block).reshape(4, 4)
    got = partial_trace(rho.copy(), (1,))
    np.testing.assert_allclose(got.data, want_drop_middle, atol=1e-13)
    with pytest.raises(ValueError):
        partial_trace(_rand_rho(rng, 2), (0, 1))


def test_expectation_and_born_sampling():
    rng = np.random.default_rng(16)
    rho = _rand_rho(rng, 2)
    herm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    obs = Observable(herm + herm.conj().T)
    want = float(np.trace(obs.matrix @ rho.data).real)
    assert expectation(rho, obs) == pytest.approx(want, abs=1e-12)

    draws = np.array([born_sample(rho, obs, rng) for _ in range(4000)])
    vals = obs.eig()[0]
    assert set(np.round(draws, 9)) <= set(np.round(vals, 9))
    assert draws.mean() == pytest.approx(want, abs=5 * draws.std() / np.sqrt(draws.size))


def test_observable_norm_and_validation():
    z = Observable(np.diag([1.0, -1.0]))
    assert z.norm == pytest.approx(1.0)
    with pytest.raises(ValueError):
        Observable(np.array([[0, 1], [0, 0]]))  # not Hermitian


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(18)
    rho = _rand_rho(rng, 2)
    path = tmp_path / "state.bin"
    save_state(rho, path)
    again = load_state(path)
    assert again.n == 2
    np.testing.assert_allclose(again.data, rho.data, atol=0)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        load_state(path)


def _embedded(u, targets, n):
    """Dense oracle: U on the listed qubits (targets[0] its top bit), identity elsewhere."""
    dim = 1 << n
    rest = [q for q in range(n) if q not in targets]

    def bits(i, qubits):
        return [(i >> (n - 1 - q)) & 1 for q in qubits]

    def local(i):
        return int("".join(map(str, bits(i, targets))), 2)

    full = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        for j in range(dim):
            if bits(i, rest) == bits(j, rest):
                full[i, j] = u[local(i), local(j)]
    return full


@pytest.mark.parametrize("targets", [(0, 1, 2, 3), (2, 0, 3), (3,), (1, 3)])
def test_apply_unitary_matches_dense(targets):
    rng = np.random.default_rng(83)
    rho = _rand_rho(rng, 4)
    k = len(targets)
    a = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
    u, _ = np.linalg.qr(a)
    full = _embedded(u, targets, 4)
    want = full @ rho.data @ full.conj().T
    got = apply_unitary(rho.copy(), u, targets)
    np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_apply_unitary_rejects_bad_targets():
    rho = DensityMatrix.basis(2, 0)
    for bad in ((0, 0), (0, 2), (0,)):  # repeated, outside the register, wrong width
        with pytest.raises(ValueError):
            apply_unitary(rho.copy(), np.eye(4), bad)


@pytest.mark.parametrize("dim", [2, 8, 32])
def test_born_probs_numpy_matches_dense_diagonal(dim):
    rng = np.random.default_rng(dim)
    rho = _rand_rho(rng, dim.bit_length() - 1).data
    vecs, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    want = np.diag(vecs.conj().T @ rho @ vecs).real
    np.testing.assert_allclose(_kernels.born_probs_numpy(vecs, rho), want, atol=1e-14)
