"""Pauli words and weighted Pauli sums with exact phase bookkeeping.

A PauliString is stored as two bitmasks over qubits plus a phase exponent
k with phase = i^k, so products never touch floating point. Qubit 0 is the
most significant index bit: qubit q of an n-qubit word sits at bit n-1-q,
which lines up mask bits with dense matrix index bits.

Sign conventions: Y = i X Z per qubit, so the bare word for given masks is
i^(#Y) * prod_q X^x Z^z and carries phase +1.
"""

from dataclasses import dataclass

import numpy as np

from ._draws import cdf_of, draw_index
from ._limits import check_dense

_AXES = "IXZY"  # index = (x bit) + 2*(z bit)
_PHASE_LABEL = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_LABEL_PHASE = {"": 0, "+": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}

COEFF_EPS = 1e-15  # canonicalization drop threshold
_I_POWERS = np.array([1, 1j, -1, -1j])  # i^k


def _popcount(v):
    return bin(v).count("1")


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli word times a phase in {+1, +i, -1, -i}."""

    n: int
    x: int
    z: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("PauliString needs at least one qubit")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("mask bits outside the register")
        if self.phase_exp not in (0, 1, 2, 3):
            raise ValueError(f"phase exponent must be in Z4, got {self.phase_exp}")

    @classmethod
    def from_label(cls, label):
        """Parse '+iXZIY' style text: optional sign/phase prefix, then axes."""
        body = label.strip()
        prefix = ""
        while body and body[0] in "+-i":
            prefix += body[0]
            body = body[1:]
        if prefix not in _LABEL_PHASE:
            raise ValueError(f"bad phase prefix in {label!r}")
        if not body or any(c not in _AXES for c in body):
            raise ValueError(f"bad axes word in {label!r}")
        n = len(body)
        x = z = 0
        for q, c in enumerate(body):
            bit = 1 << (n - 1 - q)
            if c in "XY":
                x |= bit
            if c in "ZY":
                z |= bit
        return cls(n, x, z, _LABEL_PHASE[prefix])

    @property
    def axes(self):
        """Axes word, e.g. 'XZIY' (qubit 0 first)."""
        out = []
        for q in range(self.n):
            bit = 1 << (self.n - 1 - q)
            out.append(_AXES[(1 if self.x & bit else 0) + (2 if self.z & bit else 0)])
        return "".join(out)

    @property
    def phase(self):
        return 1j ** self.phase_exp

    @property
    def weight(self):
        """Number of non-identity axes."""
        return _popcount(self.x | self.z)

    @property
    def n_y(self):
        return _popcount(self.x & self.z)

    def label(self):
        return _PHASE_LABEL[self.phase_exp] + self.axes

    def __str__(self):
        return self.label()

    def bare(self):
        """Same axes with phase +1."""
        return PauliString(self.n, self.x, self.z, 0)

    def is_identity_axes(self):
        return self.x == 0 and self.z == 0

    def hermitian(self):
        """True when the phase is real, i.e. the word is +-(Hermitian)."""
        return self.phase_exp % 2 == 0

    def monomial(self):
        """(perm, amps) with P|c> = amps[c] |perm[c]>, both length 2^n."""
        dim = 1 << self.n
        idx = np.arange(dim, dtype=np.int64)
        perm = idx ^ self.x
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & self.z) & 1).astype(np.float64)
        amps = (1j ** ((self.phase_exp + self.n_y) % 4)) * signs
        return perm, amps.astype(np.complex128)

    def to_dense(self):
        """The 2^n x 2^n matrix, scattered from monomial(): column c holds
        amps[c] at row perm[c]."""
        check_dense(self.n)
        perm, amps = self.monomial()
        dim = 1 << self.n
        out = np.zeros((dim, dim), dtype=np.complex128)
        out[perm, np.arange(dim)] = amps
        return out


def embed_pauli(p, n_total, targets):
    """Lift a word onto the listed qubits of a wider register.

    targets[q] is the global qubit carrying local qubit q; all other axes
    become identity. Phase is unchanged.
    """
    if len(targets) != p.n:
        raise ValueError("target count must match the word width")
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target qubit")
    x = z = 0
    for q, t in enumerate(targets):
        if not 0 <= t < n_total:
            raise ValueError(f"target {t} outside register of {n_total}")
        src = 1 << (p.n - 1 - q)
        dst = 1 << (n_total - 1 - t)
        if p.x & src:
            x |= dst
        if p.z & src:
            z |= dst
    return PauliString(n_total, x, z, p.phase_exp)


class PauliSum:
    """Real combination sum_l c_l P_l, canonicalized.

    After construction every coefficient is > 0, every word phase is +-1,
    no two terms share (axes, phase), and near-zero terms are dropped. The
    instance is treated as immutable.
    """

    def __init__(self, n, terms=()):
        if n < 1:
            raise ValueError("PauliSum needs at least one qubit")
        acc = {}
        for coeff, p in terms:
            if p.n != n:
                raise ValueError("term width mismatch")
            if not p.hermitian():
                raise ValueError(f"non-Hermitian term phase {p.label()!r}")
            c = float(coeff)
            if p.phase_exp == 2:
                c = -c
            key = (p.x, p.z)
            acc[key] = acc.get(key, 0.0) + c
        canon = []
        for (x, z), c in acc.items():
            if abs(c) < COEFF_EPS:
                continue
            phase_exp = 0 if c > 0 else 2
            canon.append((abs(c), PauliString(n, x, z, phase_exp)))
        canon.sort(key=lambda t: (t[1].x, t[1].z))
        self.n = n
        self.terms = tuple(canon)

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __add__(self, other):
        if not isinstance(other, PauliSum):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("width mismatch")
        return PauliSum(self.n, self.terms + other.terms)

    def __mul__(self, scalar):
        s = float(scalar)
        return PauliSum(self.n, [(s * c, p) for c, p in self.terms])

    __rmul__ = __mul__

    @property
    def total_weight(self):
        """Sum of coefficients (the normalization constant beta)."""
        return float(sum(c for c, _ in self.terms))

    def embed(self, n_total, offset):
        """Place this sum on qubits offset..offset+n-1 of a wider register."""
        return PauliSum(
            n_total,
            [(c, embed_pauli(p, n_total, range(offset, offset + self.n))) for c, p in self.terms],
        )

    def entries(self):
        """(values, (rows, cols)) of the 2^n x 2^n matrix: a block of 2^n entries per
        distinct X mask, summing its terms' monomials times coefficients in term order."""
        dim = 1 << self.n
        cols = np.arange(dim, dtype=np.int64)
        coeffs = np.array([c for c, _ in self.terms])
        masks, block = np.unique(np.array([p.x for _, p in self.terms], dtype=np.int64),
                                 return_inverse=True)
        z = np.array([p.z for _, p in self.terms], dtype=np.int64)[:, None]
        phases = _I_POWERS[[(p.phase_exp + p.n_y) % 4 for _, p in self.terms]]
        signs = 1.0 - 2.0 * (np.bitwise_count(cols & z) & 1)
        values = np.zeros(len(masks) * dim, dtype=np.complex128)
        # add.at is unbuffered and walks the terms in order, as a per-term sum would
        slots = (block[:, None] * dim + cols).ravel()
        np.add.at(values, slots, ((coeffs * phases)[:, None] * signs).ravel())
        return values, ((cols ^ masks[:, None]).ravel(), np.tile(cols, len(masks)))

    def to_dense(self):
        """The 2^n x 2^n matrix, scattered from entries()."""
        check_dense(self.n)
        values, index = self.entries()
        out = np.zeros((1 << self.n, 1 << self.n), dtype=np.complex128)
        out[index] = values
        return out

    @classmethod
    def from_text(cls, text, n=None):
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"line {lineno}: expected '<coefficient> <word>'")
            pairs.append((float(fields[0]), PauliString.from_label(fields[1])))
        if not pairs and n is None:
            raise ValueError("empty text and no explicit width")
        width = n if n is not None else pairs[0][1].n
        return cls(width, pairs)

    def __repr__(self):
        body = " ".join(f"{c:g}*{p.label()}" for c, p in self.terms[:4])
        more = "" if len(self.terms) <= 4 else f" ... ({len(self.terms)} terms)"
        return f"PauliSum(n={self.n}, {body}{more})"


class NormalizedPauliSum:
    """A PauliSum rescaled to unit total weight, with the scale kept aside."""

    def __init__(self, h, beta):
        self.h = h
        self.beta = float(beta)
        self.probs = np.array([c for c, _ in h.terms], dtype=np.float64)
        total = self.probs.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"coefficients sum to {total}, expected 1")
        # kill the float residue so draws read an exactly normalized distribution
        self.probs = self.probs / total
        self.cdf = cdf_of(self.probs)
        self.derived = {}  # compiler data made from this sum (hamsim's draw tables)

    @property
    def n(self):
        return self.h.n

    def __len__(self):
        return len(self.h)

    def term(self, index):
        return self.h.terms[index]

    def sample_term(self, rng, size=None):
        """Draw term indices i.i.d. with probability = coefficient (the draws of
        rng.choice(len(probs), size, p=probs), read from the cached table)."""
        return draw_index(self.cdf, rng, size)


def normalize(h):
    """Split h into (h/beta, beta) with beta = total weight; beta must be > 0."""
    if len(h) == 0:
        raise ValueError("cannot normalize an empty sum")
    beta = h.total_weight
    scaled = PauliSum(h.n, [(c / beta, p) for c, p in h.terms])
    return NormalizedPauliSum(scaled, beta)
