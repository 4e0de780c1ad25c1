"""Dense density-matrix kernels.

Every kernel exists twice with identical semantics: a pure-numpy version and
a numba @njit version. The active set is picked once at import time from the
COLLIDESIM_KERNELS environment variable:

    auto   use numba when importable, numpy otherwise (default)
    numba  require numba, fail loudly if missing
    numpy  force the pure-numpy path

Both sets stay importable (``monomial_conj_numpy``, ``monomial_conj_numba``,
...) so the equivalence tests can compare them directly regardless of the
active choice. ``python3 perfbench/kernel_sweep.py`` times the active set by
matrix dimension; numba is an optional extra (``pip install .[numba]``).

Unitaries reaching these kernels are at most 2-sparse per row:

    monomial:   U|c> = amps[c] |perm[c]>            (Pauli words, controlled
                Pauli words, swaps, phases)
    two-sparse: (Uv)[c] = diag[c] v[c] + off[c] v[c^x], i.e. row c holds
                diag[c] and off[c] (Pauli-axis rotations and their
                controlled versions, x != 0)

which keeps gate conjugation at O(dim^2) instead of dense O(dim^3).
"""

import os

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

_CHOICE = os.environ.get("COLLIDESIM_KERNELS", "auto").lower()
if _CHOICE not in ("auto", "numba", "numpy"):
    raise ValueError(f"COLLIDESIM_KERNELS must be auto|numba|numpy, got {_CHOICE!r}")
if _CHOICE == "numba" and not HAS_NUMBA:
    raise ImportError("COLLIDESIM_KERNELS=numba but numba is not importable")

USE_NUMBA = HAS_NUMBA and _CHOICE != "numpy"


# ---------------------------------------------------------------- numpy set


def monomial_conj_numpy(rho, perm, amps):
    """rho -> U rho U† for U|c> = amps[c] |perm[c]> (perm a permutation)."""
    out = np.empty_like(rho)
    out[perm[:, None], perm[None, :]] = (amps[:, None] * amps.conj()[None, :]) * rho
    return out


def two_sparse_conj_numpy(rho, xidx, diag, off):
    """rho -> U rho U† for (Uv)[c] = diag[c] v[c] + off[c] v[xidx[c]], xidx[c] = c^x."""
    b = diag[:, None] * rho + off[:, None] * rho[xidx]
    return b * diag.conj()[None, :] + b[:, xidx] * off.conj()[None, :]


def kron_numpy(a, b):
    """Tensor product, row-major qubit order (a on the high bits)."""
    return np.kron(a, b)


def partial_trace_numpy(rho, keep_scatter, trace_scatter):
    """Trace out the complement of the kept index bits.

    keep_scatter[i] places the bits of kept-subsystem index i at their global
    positions; trace_scatter likewise for the traced subsystem. The two bit
    sets are disjoint and cover the full index.
    """
    idx = (keep_scatter[:, None] | trace_scatter[None, :]).ravel()
    nk, nt = keep_scatter.size, trace_scatter.size
    block = rho[idx[:, None], idx[None, :]].reshape(nk, nt, nk, nt)
    return np.einsum("atbt->ab", block)


def expect_tr_numpy(op, rho):
    """Tr[op rho]."""
    return complex(np.einsum("ij,ji->", op, rho))


def born_probs_numpy(vecs, rho):
    """Diagonal of V† rho V (columns of vecs are orthonormal), real part.

    One matmul plus a column-wise dot: O(d^3) in BLAS, not elementwise.
    """
    return (vecs.conj() * (rho @ vecs)).sum(axis=0).real


# ---------------------------------------------------------------- numba set

if HAS_NUMBA:

    @njit(cache=True)
    def monomial_conj_numba(rho, perm, amps):
        d = rho.shape[0]
        out = np.empty_like(rho)
        for a in range(d):
            pa = perm[a]
            va = amps[a]
            for b in range(d):
                out[pa, perm[b]] = va * np.conj(amps[b]) * rho[a, b]
        return out

    @njit(cache=True)
    def two_sparse_conj_numba(rho, xidx, diag, off):
        d = rho.shape[0]
        tmp = np.empty_like(rho)
        for a in range(d):
            da = diag[a]
            oa = off[a]
            ax = xidx[a]
            for b in range(d):
                tmp[a, b] = da * rho[a, b] + oa * rho[ax, b]
        out = np.empty_like(rho)
        for a in range(d):
            for b in range(d):
                out[a, b] = tmp[a, b] * np.conj(diag[b]) + tmp[a, xidx[b]] * np.conj(off[b])
        return out

    @njit(cache=True)
    def kron_numba(a, b):
        da, db = a.shape[0], b.shape[0]
        out = np.empty((da * db, da * db), dtype=np.complex128)
        for i in range(da):
            for j in range(da):
                aij = a[i, j]
                for k in range(db):
                    for l in range(db):
                        out[i * db + k, j * db + l] = aij * b[k, l]
        return out

    @njit(cache=True)
    def partial_trace_numba(rho, keep_scatter, trace_scatter):
        nk = keep_scatter.size
        nt = trace_scatter.size
        out = np.zeros((nk, nk), dtype=np.complex128)
        for i in range(nk):
            ki = keep_scatter[i]
            for j in range(nk):
                kj = keep_scatter[j]
                acc = 0.0 + 0.0j
                for t in range(nt):
                    s = trace_scatter[t]
                    acc += rho[ki | s, kj | s]
                out[i, j] = acc
        return out

    @njit(cache=True)
    def expect_tr_numba(op, rho):
        d = op.shape[0]
        acc = 0.0 + 0.0j
        for i in range(d):
            for j in range(d):
                acc += op[i, j] * rho[j, i]
        return acc

    @njit(cache=True)
    def born_probs_numba(vecs, rho):
        d = vecs.shape[0]
        out = np.empty(d, dtype=np.float64)
        for a in range(d):
            acc = 0.0 + 0.0j
            for i in range(d):
                vi = np.conj(vecs[i, a])
                for j in range(d):
                    acc += vi * rho[i, j] * vecs[j, a]
            out[a] = acc.real
        return out

else:  # pragma: no cover - exercised only without numba
    monomial_conj_numba = None
    two_sparse_conj_numba = None
    kron_numba = None
    partial_trace_numba = None
    expect_tr_numba = None
    born_probs_numba = None


if USE_NUMBA:
    monomial_conj = monomial_conj_numba
    two_sparse_conj = two_sparse_conj_numba
    kron = kron_numba
    partial_trace = partial_trace_numba
    expect_tr = expect_tr_numba
    born_probs = born_probs_numba
    ACTIVE = "numba"
else:
    monomial_conj = monomial_conj_numpy
    two_sparse_conj = two_sparse_conj_numpy
    kron = kron_numpy
    partial_trace = partial_trace_numpy
    expect_tr = expect_tr_numpy
    born_probs = born_probs_numpy
    ACTIVE = "numpy"
