"""Dense density-matrix kernels, one numpy set.

``ACTIVE`` names the set for reports; ``python3 perfbench/kernel_sweep.py``
times each kernel by matrix dimension.

Collisions do not go through the conjugation kernels: every run, Markov or
not, is a sequence of Kraus maps on the system (states.apply_kraus). The
two sparse conjugations serve the register swaps of states.apply_swap and
the single Pauli words and rotations of states.apply_pauli and
states.apply_pauli_rotation, which no program runs; their unitaries are at
most 2-sparse per row:

    monomial:   U|c> = amps[c] |perm[c]>            (Pauli words, controlled
                Pauli words, swaps, phases)
    two-sparse: (Uv)[c] = diag[c] v[c] + off[c] v[c^x], i.e. row c holds
                diag[c] and off[c] (Pauli-axis rotations and their
                controlled versions, x != 0)

so such a gate costs O(dim^2) instead of dense O(dim^3).
"""

import numpy as np

ACTIVE = "numpy"


def monomial_conj(rho, perm, amps):
    """rho -> U rho U† for U|c> = amps[c] |perm[c]> (perm a permutation)."""
    out = np.empty_like(rho)
    out[perm[:, None], perm[None, :]] = (amps[:, None] * amps.conj()[None, :]) * rho
    return out


def two_sparse_conj(rho, xidx, diag, off):
    """rho -> U rho U† for (Uv)[c] = diag[c] v[c] + off[c] v[xidx[c]], xidx[c] = c^x."""
    b = diag[:, None] * rho + off[:, None] * rho[xidx]
    return b * diag.conj()[None, :] + b[:, xidx] * off.conj()[None, :]


def kron(a, b):
    """Tensor product, row-major qubit order (a on the high bits).

    One broadcast multiply, bit-identical to np.kron without its generic
    reshaping overhead.
    """
    da, db = a.shape[0], b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(da * db, da * db)


def partial_trace(rho, keep_scatter, trace_scatter):
    """Trace out the complement of the kept index bits.

    keep_scatter[i] places the bits of kept-subsystem index i at their global
    positions; trace_scatter likewise for the traced subsystem. The two bit
    sets are disjoint and cover the full index.
    """
    idx = (keep_scatter[:, None] | trace_scatter[None, :]).ravel()
    nk, nt = keep_scatter.size, trace_scatter.size
    block = rho[idx[:, None], idx[None, :]].reshape(nk, nt, nk, nt)
    return np.einsum("atbt->ab", block)


def expect_tr(op, rho):
    """Tr[op rho]."""
    return complex(np.einsum("ij,ji->", op, rho))


def born_probs(vecs, rho):
    """Diagonal of V† rho V (columns of vecs are orthonormal), real part.

    One matmul plus a column-wise dot: O(d^3) in BLAS, not elementwise.
    """
    return (vecs.conj() * (rho @ vecs)).sum(axis=0).real
