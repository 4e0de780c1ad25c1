"""Dense density-matrix backend.

Qubit 0 is the most significant index bit. tensor_append puts the appended
register on the least significant bits, partial_trace keeps the survivors in
their original relative order. Gate application mutates the state in place
(the wrapped array is replaced); trace and Hermiticity are construction
invariants, positivity is left to the tests.

Gate arguments are translated once into the monomial / two-sparse form the
kernels consume, and those translations are memoized: collision programs
re-apply the same few Pauli words millions of times across Monte-Carlo runs.
Dense unitaries (whole product-formula fragments) go through apply_unitary.
"""

import struct
from functools import lru_cache

import numpy as np

from . import _kernels
from ._limits import check_dense
from .errors import NumericalError
from .pauli import PauliString, PauliSum, embed_pauli

_HERM_TOL = 1e-10
_TRACE_TOL = 1e-8
_IMAG_TOL = 1e-8


class DensityMatrix:
    """A 2^n x 2^n state; `data` is complex128 and owned by this object."""

    def __init__(self, data, check=True):
        data = np.ascontiguousarray(data, dtype=np.complex128)
        dim = data.shape[0]
        n = dim.bit_length() - 1
        if data.shape != (dim, dim) or 1 << n != dim:
            raise ValueError(f"state shape {data.shape} is not (2^n, 2^n)")
        if check:
            if abs(np.trace(data).real - 1.0) > _TRACE_TOL or abs(np.trace(data).imag) > _TRACE_TOL:
                raise ValueError(f"trace {np.trace(data)} != 1")
            if np.abs(data - data.conj().T).max() > _HERM_TOL:
                raise ValueError("state is not Hermitian")
        self.data = data
        self.n = n

    @classmethod
    def basis(cls, n, index=0):
        """|index><index| in the computational basis."""
        dim = 1 << n
        data = np.zeros((dim, dim), dtype=np.complex128)
        data[index, index] = 1.0
        return cls(data, check=False)

    @classmethod
    def from_vector(cls, vec):
        vec = np.asarray(vec, dtype=np.complex128)
        vec = vec / np.linalg.norm(vec)
        return cls(np.outer(vec, vec.conj()), check=False)

    @classmethod
    def plus(cls):
        """Single-qubit |+><+|."""
        return cls.from_vector([1.0, 1.0])

    @classmethod
    def maximally_mixed(cls, n):
        dim = 1 << n
        return cls(np.eye(dim, dtype=np.complex128) / dim, check=False)

    def copy(self):
        out = DensityMatrix.__new__(DensityMatrix)
        out.data = self.data.copy()
        out.n = self.n
        return out

    def trace(self):
        return complex(np.trace(self.data))

    def purity(self):
        return float(np.einsum("ij,ji->", self.data, self.data).real)

    def __repr__(self):
        return f"DensityMatrix(n={self.n})"


class Observable:
    """Hermitian observable with cached dense form, norm, and eigensystem."""

    def __init__(self, source, n=None):
        if isinstance(source, PauliSum):
            self.pauli_sum = source
            self.n = source.n
            self._matrix = None
        else:
            mat = np.asarray(source, dtype=np.complex128)
            dim = mat.shape[0]
            self.n = dim.bit_length() - 1
            if n is not None and n != self.n:
                raise ValueError("explicit n disagrees with matrix shape")
            if mat.shape != (dim, dim) or 1 << self.n != dim:
                raise ValueError(f"observable shape {mat.shape} is not (2^n, 2^n)")
            if np.abs(mat - mat.conj().T).max() > _HERM_TOL:
                raise ValueError("observable is not Hermitian")
            self.pauli_sum = None
            self._matrix = mat
        self._norm = None
        self._eig = None

    @property
    def matrix(self):
        if self._matrix is None:
            self._matrix = self.pauli_sum.to_dense()
        return self._matrix

    @property
    def norm(self):
        """Spectral norm, cached."""
        if self._norm is None:
            self._norm = float(np.linalg.norm(self.matrix, 2))
        return self._norm

    def eig(self):
        """(eigenvalues, eigenvector columns), cached, for Born sampling."""
        if self._eig is None:
            vals, vecs = np.linalg.eigh(self.matrix)
            self._eig = (vals, np.ascontiguousarray(vecs))
        return self._eig


# ------------------------------------------------------- gate compilation

# Memoized translations from (masks, phase, control) to kernel arguments.
# Keys are small ints so hit rates across Monte-Carlo runs are near 1.


@lru_cache(maxsize=8192)
def _indices(dim):
    return np.arange(dim, dtype=np.int64)


@lru_cache(maxsize=8192)
def _xor_index(n, x):
    return np.ascontiguousarray(_indices(1 << n) ^ x)


@lru_cache(maxsize=8192)
def _axis_action(n, x, z, phase_exp):
    """amps with P|c> = amps[c] |c^x> for the word (x, z, i^phase_exp)."""
    idx = _indices(1 << n)
    n_y = bin(x & z).count("1")
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & z) & 1).astype(np.float64)
    return np.ascontiguousarray((1j ** ((phase_exp + n_y) % 4)) * signs)


@lru_cache(maxsize=8192)
def _axis_action_rowform(n, x, z):
    """w[c^x] for a bare axis word: row c of its matrix holds w[c^x] at col c^x."""
    amps = _axis_action(n, x, z, 0)
    return np.ascontiguousarray(amps[_xor_index(n, x)])

@lru_cache(maxsize=8192)
def _control_mask(n, control_bit, polarity):
    idx = _indices(1 << n)
    return np.ascontiguousarray(((idx >> control_bit) & 1) == polarity)


@lru_cache(maxsize=8192)
def _monomial_args(n, x, z, phase_exp, control_bit, polarity):
    """(perm, amps) for a possibly controlled Pauli word on the full register."""
    perm = _xor_index(n, x).copy()
    amps = _axis_action(n, x, z, phase_exp).copy()
    if control_bit >= 0:
        keep = ~_control_mask(n, control_bit, polarity)
        perm[keep] = _indices(1 << n)[keep]
        amps[keep] = 1.0
    perm.setflags(write=False)
    amps.setflags(write=False)
    return perm, amps


def _bit(n, qubit):
    return n - 1 - qubit


def _embed(p, n, targets):
    return embed_pauli(p, n, tuple(targets))


# --------------------------------------------------------------- gate ops


def apply_pauli(state, p, targets, control=None, polarity=1):
    """state -> P state P† with P on the listed qubits, optionally controlled.

    The word's exact phase rides along; conjugation cancels a global phase
    but keeps it as a relative phase in the controlled case.
    """
    g = _embed(p, state.n, targets)
    cbit = -1 if control is None else _bit(state.n, control)
    if control is not None and control in targets:
        raise ValueError("control overlaps targets")
    perm, amps = _monomial_args(state.n, g.x, g.z, g.phase_exp, cbit, polarity)
    state.data = _kernels.monomial_conj(state.data, perm, amps)
    return state


def apply_pauli_rotation(state, axis, angle, targets, control=None, polarity=1):
    """state -> e^{-i angle P} state e^{+i angle P}, optionally controlled.

    The axis must carry phase +1; fold signs into the angle instead.
    """
    if axis.phase_exp != 0:
        raise ValueError(f"rotation axis must have phase +1, got {axis.label()!r}")
    if control is not None and control in targets:
        raise ValueError("control overlaps targets")
    g = _embed(axis, state.n, targets)
    n, dim = state.n, 1 << state.n
    c, s = np.cos(angle), np.sin(angle)
    if g.x == 0:
        # diagonal axis: e^{-i angle P} is itself monomial
        w = _axis_action(n, 0, g.z, 0)
        amps = c - 1j * s * w
        if control is not None:
            amps = np.where(_control_mask(n, _bit(n, control), polarity), amps, 1.0)
        state.data = _kernels.monomial_conj(state.data, _indices(dim), np.ascontiguousarray(amps))
        return state
    w_row = _axis_action_rowform(n, g.x, g.z)
    diag = np.full(dim, c, dtype=np.complex128)
    off = (-1j * s) * w_row
    if control is not None:
        match = _control_mask(n, _bit(n, control), polarity)
        diag = np.where(match, diag, 1.0)
        off = np.where(match, off, 0.0)
    state.data = _kernels.two_sparse_conj(
        state.data, _xor_index(n, g.x), np.ascontiguousarray(diag), np.ascontiguousarray(off)
    )
    return state


def apply_unitary(state, u, targets):
    """state -> U state U† for a dense U on the listed qubits, in any order.

    targets[0] is U's most significant qubit. The whole register in order is
    a plain U rho U†; otherwise the targets are moved to the front of a
    qubit-axis view, U acts there, and the axes move back.
    """
    n = state.n
    targets = tuple(targets)
    k = len(targets)
    if u.shape != (1 << k, 1 << k):
        raise ValueError(f"unitary shape {u.shape} does not fit {k} targets")
    if len(set(targets)) != k or any(not 0 <= q < n for q in targets):
        raise ValueError(f"targets {targets} are not distinct qubits of the register")
    if targets == tuple(range(n)):
        state.data = u @ state.data @ u.conj().T
        return state
    order = targets + tuple(q for q in range(n) if q not in targets)
    axes = order + tuple(n + q for q in order)
    dk, dr = 1 << k, 1 << (n - k)
    view = state.data.reshape((2,) * (2 * n)).transpose(axes).reshape(dk, dr, dk, dr)
    view = np.tensordot(u, view, axes=(1, 0))  # (a, i, c, j) = U rho
    view = np.tensordot(view, u.conj(), axes=(2, 1)).transpose(0, 1, 3, 2)  # ... U†
    back = view.reshape((2,) * (2 * n)).transpose(np.argsort(axes))
    state.data = np.ascontiguousarray(back.reshape(1 << n, 1 << n))
    return state


def apply_swap(state, targets_a, targets_b):
    """Swap two disjoint, equal-width qubit groups (in listed order)."""
    if len(targets_a) != len(targets_b):
        raise ValueError("swap groups must have equal width")
    if set(targets_a) & set(targets_b):
        raise ValueError("swap groups overlap")
    n, dim = state.n, 1 << state.n
    idx = _indices(dim)
    perm = idx.copy()
    for qa, qb in zip(targets_a, targets_b):
        ba, bb = _bit(n, qa), _bit(n, qb)
        bit_a = (idx >> ba) & 1
        bit_b = (idx >> bb) & 1
        perm ^= (bit_a ^ bit_b) * ((1 << ba) | (1 << bb))
    amps = np.ones(dim, dtype=np.complex128)
    state.data = _kernels.monomial_conj(state.data, np.ascontiguousarray(perm), amps)
    return state


def tensor_append(state, env):
    """Append a register on the least significant qubits."""
    check_dense(state.n + env.n)
    state.data = _kernels.kron(state.data, env.data)
    state.n += env.n
    return state


def partial_trace(state, traced):
    """Trace out the listed qubits; survivors keep their relative order."""
    traced = sorted(set(traced))
    if any(not 0 <= q < state.n for q in traced):
        raise ValueError("traced qubit outside register")
    if len(traced) == state.n:
        raise ValueError("cannot trace away the whole register")
    if not traced:
        return state
    n = state.n
    keep = [q for q in range(n) if q not in traced]
    keep_pos = tuple(_bit(n, q) for q in keep)
    trace_pos = tuple(_bit(n, q) for q in traced)
    state.data = _kernels.partial_trace(state.data, _scatter(keep_pos), _scatter(trace_pos))
    state.n = len(keep)
    return state


@lru_cache(maxsize=4096)
def _scatter(positions):
    """All values of packing a local index into the given global bit slots.

    positions[0] is the local most significant bit's global position.
    """
    count = len(positions)
    local = np.arange(1 << count, dtype=np.int64)
    out = np.zeros(1 << count, dtype=np.int64)
    for j, pos in enumerate(positions):
        out |= ((local >> (count - 1 - j)) & 1) << pos
    out.setflags(write=False)
    return out


def expectation(state, obs):
    """Tr[O rho] as a real number; a complex residue is a numerical failure."""
    mat = obs.matrix if isinstance(obs, Observable) else np.asarray(obs, dtype=np.complex128)
    val = _kernels.expect_tr(mat, state.data)
    val = complex(val)
    if abs(val.imag) > _IMAG_TOL * max(1.0, abs(val.real)):
        raise NumericalError(f"expectation has imaginary residue {val.imag:.3e}")
    return val.real


def born_sample(state, obs, rng):
    """Draw one eigenvalue of obs from the Born distribution of the state."""
    vals, vecs = obs.eig()
    probs = _kernels.born_probs(vecs, state.data)
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if not 0.9 < total < 1.1:
        raise NumericalError(f"Born probabilities sum to {total}")
    return float(rng.choice(vals, p=probs / total))


# ------------------------------------------------------------- state dump


def save_state(state, path):
    """4-byte little-endian qubit count, then row-major (re, im) float64 pairs."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", state.n))
        interleaved = np.empty(2 * state.data.size, dtype="<f8")
        interleaved[0::2] = state.data.real.ravel()
        interleaved[1::2] = state.data.imag.ravel()
        fh.write(interleaved.tobytes())


def load_state(path):
    with open(path, "rb") as fh:
        (n,) = struct.unpack("<I", fh.read(4))
        dim = 1 << n
        raw = np.frombuffer(fh.read(), dtype="<f8")
    if raw.size != 2 * dim * dim:
        raise ValueError(f"state file payload has {raw.size} floats, expected {2 * dim * dim}")
    data = (raw[0::2] + 1j * raw[1::2]).reshape(dim, dim)
    return DensityMatrix(data)
