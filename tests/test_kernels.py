"""The dense kernels against dense matrix oracles.

Inputs mirror what the state backend actually feeds the kernels: XOR
permutations with unit-modulus amplitudes, two-sparse rotation rows, and
Hermitian unit-trace matrices.
"""

import numpy as np

from collidesim import _kernels as kern

DIMS = (2, 4, 8, 16)


def _rand_rho(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return np.ascontiguousarray(rho / np.trace(rho))


def _scatter(order):
    # subsystem index bit j (MSB first) lands at global bit position order[j]
    out = np.zeros(1 << len(order), dtype=np.int64)
    for i in range(out.size):
        v = 0
        for j, b in enumerate(order):
            if (i >> (len(order) - 1 - j)) & 1:
                v |= 1 << b
        out[i] = v
    return out


def test_monomial_conj_agrees_with_dense():
    rng = np.random.default_rng(7)
    for dim in DIMS:
        for _ in range(5):
            rho = _rand_rho(rng, dim)
            xmask = int(rng.integers(0, dim))
            perm = np.arange(dim, dtype=np.int64) ^ xmask
            amps = np.exp(2j * np.pi * rng.random(dim))
            u = np.zeros((dim, dim), dtype=np.complex128)
            u[perm, np.arange(dim)] = amps
            want = u @ rho @ u.conj().T
            np.testing.assert_allclose(kern.monomial_conj(rho, perm, amps), want, atol=1e-12)


def test_two_sparse_conj_agrees_with_dense():
    rng = np.random.default_rng(11)
    for dim in DIMS:
        for _ in range(5):
            rho = _rand_rho(rng, dim)
            x = int(rng.integers(1, dim))
            xidx = np.arange(dim, dtype=np.int64) ^ x
            # rotation-shaped rows; unitarity is irrelevant to the identity
            theta = rng.random() * np.pi
            diag = np.full(dim, np.cos(theta), dtype=np.complex128)
            off = -1j * np.sin(theta) * np.exp(2j * np.pi * rng.random(dim))
            u = np.diag(diag).astype(np.complex128)
            u[np.arange(dim), xidx] += off
            want = u @ rho @ u.conj().T
            np.testing.assert_allclose(kern.two_sparse_conj(rho, xidx, diag, off), want, atol=1e-12)


def test_kron_matches_numpy():
    rng = np.random.default_rng(13)
    for da in (2, 4, 32):
        for db in (2, 4, 8):
            a = _rand_rho(rng, da)
            b = _rand_rho(rng, db)
            got = kern.kron(a, b)
            assert got.flags.c_contiguous
            assert np.array_equal(got, np.kron(a, b))


def test_partial_trace_agrees_with_reshape():
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        dim = 1 << n
        rho = _rand_rho(rng, dim)
        for _ in range(4):
            n_keep = int(rng.integers(1, n))
            bits = list(rng.permutation(n)[:n_keep])
            rest = [b for b in range(n) if b not in bits]
            keep = _scatter(sorted(bits, reverse=True))
            tr = _scatter(sorted(rest, reverse=True))
            got = kern.partial_trace(rho, keep, tr)
            # oracle: scatter-gather the kept block by explicit index math
            want = np.zeros_like(got)
            for i, ki in enumerate(keep):
                for j, kj in enumerate(keep):
                    want[i, j] = sum(rho[ki | s, kj | s] for s in tr)
            np.testing.assert_allclose(got, want, atol=1e-12)
        assert abs(np.trace(kern.partial_trace(rho, keep, tr)) - 1.0) < 1e-12


def test_expect_tr_and_born_probs():
    rng = np.random.default_rng(19)
    for dim in DIMS:
        rho = _rand_rho(rng, dim)
        herm = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        herm = herm + herm.conj().T
        want = complex(np.trace(herm @ rho))
        assert abs(kern.expect_tr(herm, rho) - want) < 1e-12

        vecs = np.linalg.eigh(herm)[1]
        want_p = np.diag(vecs.conj().T @ rho @ vecs).real
        got = kern.born_probs(np.ascontiguousarray(vecs), rho)
        np.testing.assert_allclose(got, want_p, atol=1e-12)
        assert abs(got.sum() - 1.0) < 1e-10


def test_one_kernel_set():
    assert kern.ACTIVE == "numpy"
    names = ("monomial_conj", "two_sparse_conj", "kron", "partial_trace", "expect_tr", "born_probs")
    assert all(callable(getattr(kern, name)) for name in names)
