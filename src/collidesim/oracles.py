"""Reference computations the sampled machinery is tested against.

Everything here is direct: eigendecomposition exponentials, Schatten norms,
and the Lindblad generator's exponential applied to one state.

The Liouvillian is never held as a matrix. With Heff = -iH - (1/2) sum_j A_j†A_j,

    L[X] = Heff X + X Heff† + sum_j A_j X A_j†

acts on the d x d state itself (d = 2^n). Heff and each A_j are held, from
their Pauli terms (PauliSum.entries), as one row vector w_x of d entries per
distinct X mask x:

    (M X)[r] = sum_x w_x[r] X[r ^ x].

Row r ^ x of X is read through a view whose qubit axes are reversed where x
has a bit, as hamsim's rotations read theirs, so no row is gathered. For a
Hermitian X, Heff X + X Heff† is (Heff X) + (Heff X)†. A jump adds, per pair
(a, b) of its masks, w_a[r] conj(w_b[c]) X[r ^ a, c ^ b], taken only on the
rows and columns where the vectors can be nonzero (sigma^- vanishes on half
of each) and with a constant vector taken as a scalar. The A_j are the
model's zero-temperature jumps. A thermal environment, whose qubits are
prepared in diag(p0, p1) with p1 > 0, replaces each A_j with the pair
sqrt(p0) A_j and sqrt(p1) A_j†, and the sums run over both.

A mask form is a sum of diagonals times permutations, so its norm is at
most sum_x max_r |w_x[r]|, and

    b = 2 sum_x max|w_x(Heff)| + sum_j (sum_x max|w_x(A_j)|)^2

bounds ||L|| as a map of the Frobenius norm. lindblad_evolve applies e^{Lt}
as s = ceil(|t| b / theta) steps of h = t / s, each a Taylor series of
e^{hL} with ||hL|| <= theta = _THETA = 4. Past degree k the terms T_j of a
step shrink at least by theta / (j + 1) each, so ||T_k|| theta / (k + 1 - theta)
bounds the rest of the series. A step stops at the first k where that bound
is at most 2^-53 ||X||, X the step's input. Since ||T_k|| <= theta^k / k! ||X||,
the bound is under half that tolerance by degree _DEGREE_CAP = 32, so a step
stops by then in exact arithmetic; one that has not raises NumericalError.

The Liouvillian is guarded by what the oracle holds: the mask vectors, the
four d x d arrays of the integrator (sum, term, next term, and the action's
scratch), and the buffers numpy's ufuncs iterate strided views through, at
most np.getbufsize() entries for each of a call's three operands:

    4 * 4^n + 3 * min(4^n, np.getbufsize()) + d * (masks of Heff and the A_j)

entries. They must fit in 4^limit entries, the size of one dense matrix at
the qubit limit, else DenseLimitError. At the default limit of 12 this
admits the 10-site chain (about 4.2M entries) and refuses the 11-site one
(16.8M: its four work arrays alone fill a dense 12-qubit matrix) before
allocating any d x d array.
"""

import math

import numpy as np

from ._limits import check_entries
from .errors import NumericalError
from .hamsim import _row_flip
from .models import thermal_env_state
from .pauli import PauliSum
from .states import DensityMatrix, _xor_index

_DRIFT_TOL = 1e-9  # largest trace or Hermiticity drift read as rounding
_WORK_ARRAYS = 4  # complex d x d arrays lindblad_evolve holds
_BUFFERED_OPERANDS = 3  # operands of one ufunc call, each iterated through a buffer
_UNIT_ROUNDOFF = 2.0**-53
_THETA = 4.0  # bound on ||hL|| for one Taylor step


def _degree_cap(theta):
    """Smallest degree k whose tail bound theta^(k+1) / (k! (k + 1 - theta))
    is at most half the unit roundoff: the series must stop by it."""
    k = math.floor(theta) + 1
    while theta ** (k + 1) / (math.factorial(k) * (k + 1 - theta)) > _UNIT_ROUNDOFF / 2:
        k += 1
    return k


_DEGREE_CAP = _degree_cap(_THETA)


def spectral_norm(a):
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(a), 2))


def trace_distance(a, b):
    """Full Schatten-1 norm of the difference (orthogonal pure states give 2)."""
    da = a.data if isinstance(a, DensityMatrix) else np.asarray(a)
    db = b.data if isinstance(b, DensityMatrix) else np.asarray(b)
    return float(np.linalg.svd(da - db, compute_uv=False).sum())


def unitary_exact(h, tau):
    """e^{-i tau H} for a Hermitian H, a PauliSum or a dense array, via its
    eigendecomposition."""
    dense = h.to_dense() if isinstance(h, PauliSum) else np.asarray(h)
    vals, vecs = np.linalg.eigh(dense)
    return (vecs * np.exp(-1j * tau * vals)) @ vecs.conj().T


# An operator in mask form is a dict {X mask x: row vector w_x}, with
# (M X)[r] = sum_x w_x[r] X[r ^ x].


def _mask_form(h, scale=1.0):
    """Mask form of a PauliSum's matrix times scale: entries() holds block x
    by column, v[c] = M[c ^ x, c], so w_x[r] = v[r ^ x]."""
    n, dim = h.n, 1 << h.n
    values, (rows, _) = h.entries()
    return {
        int(x): scale * values[k * dim:(k + 1) * dim][_xor_index(n, int(x))]
        for k, x in enumerate(rows[::dim])
    }


def _accumulate(acc, form, scale=1.0):
    for x, w in form.items():
        acc[x] = acc[x] + scale * w if x in acc else scale * w
    return acc


def _adjoint(form, n):
    """M†[r, r ^ x] = conj(M[r ^ x, r]) = conj(w_x[r ^ x])."""
    return {x: w[_xor_index(n, x)].conj() for x, w in form.items()}


def _product(a, b, n):
    """(A B X)[r] = sum_{x, y} a_x[r] b_y[r ^ x] X[r ^ x ^ y]."""
    out = {}
    for x, wa in a.items():
        for y, wb in b.items():
            _accumulate(out, {x ^ y: wa * wb[_xor_index(n, x)]})
    return out


def _nonzero(form):
    return {x: w for x, w in form.items() if np.any(w)}


def _mask_norm(form):
    """sum_x max_r |w_x[r]|, a bound on the operator norm."""
    return float(sum(np.abs(w).max() for w in form.values()))


def _factor(w):
    """w itself, or its one value when it is constant."""
    flat = w.reshape(-1)
    return complex(flat[0]) if np.all(flat == flat[0]) else w


def _support(w, n):
    """(bits, factor) of a row vector: bits[q] is the one value of qubit q
    where w can be nonzero, or None where it takes both, and factor is w on
    that support, one axis per free qubit."""
    wq, bits = w.reshape((2,) * n), []
    for _ in range(n):
        zero, one = (np.take(wq, v, axis=bits.count(None)) for v in (0, 1))
        bit = 0 if not np.any(one) else 1 if not np.any(zero) else None
        bits.append(bit)
        if bit is not None:
            wq = (zero, one)[bit]
    return bits, _factor(wq)


_ALL, _REVERSED = slice(None), slice(None, None, -1)


def _jump_term(n, a, wa, b, wb):
    """(out index, x index, factors) into the (2,)*2n views of
    w_a[r] conj(w_b[c]) X[r ^ a, c ^ b], on the rows and columns where it
    can be nonzero: a qubit the vectors fix is indexed, not sliced."""
    rows, row_factor = _support(wa, n)
    cols, col_factor = _support(wb.conj(), n)
    out_index, x_index = [], []
    for bits, mask in ((rows, a), (cols, b)):
        for q, bit in enumerate(bits):
            flip = mask >> (n - 1 - q) & 1
            out_index.append(_ALL if bit is None else bit)
            x_index.append((_REVERSED if flip else _ALL) if bit is None else bit ^ flip)
    if not isinstance(row_factor, complex):
        row_factor = row_factor.reshape(row_factor.shape + (1,) * cols.count(None))
    if not isinstance(col_factor, complex):
        col_factor = col_factor.reshape((1,) * rows.count(None) + col_factor.shape)
    pair = (row_factor, col_factor)
    scale = math.prod(f for f in pair if isinstance(f, complex))
    arrays = [f for f in pair if not isinstance(f, complex)]
    factors = [arrays[0] * scale] + arrays[1:] if arrays else [scale]
    # the trailing ... keeps a view, not a scalar, when every axis is indexed
    return (*out_index, ...), (*x_index, ...), factors


class Liouvillian:
    """Action of a LindbladModel's generator on a d x d Hermitian state,
    from Heff and the jumps in mask form; `bound` is a bound on ||L||."""

    def __init__(self, model):
        n, dim = model.n, 1 << model.n
        jumps = [_accumulate(_mask_form(j.x_part), _mask_form(j.y_part, 1j)) for j in model.jumps]
        p0, p1 = thermal_env_state(model.env_omega).data.diagonal().real
        if p1 > 0.0:  # a thermal env also drives each jump's adjoint
            jumps = [{x: math.sqrt(p0) * w for x, w in a.items()} for a in jumps] + [
                {x: math.sqrt(p1) * w for x, w in _adjoint(a, n).items()} for a in jumps
            ]
        heff = _mask_form(model.system_h, -1j)
        for a in jumps:
            _accumulate(heff, _product(_adjoint(a, n), a, n), -0.5)
        heff = _nonzero(heff) or {0: np.zeros(dim, dtype=np.complex128)}
        jumps = [a for a in map(_nonzero, jumps) if a]
        check_entries(
            _WORK_ARRAYS * dim * dim
            + _BUFFERED_OPERANDS * min(dim * dim, np.getbufsize())
            + dim * (len(heff) + sum(map(len, jumps))),
            f"the {n}-qubit Liouvillian",
        )
        self.n = n
        self.bound = 2.0 * _mask_norm(heff) + sum(_mask_norm(a) ** 2 for a in jumps)
        rows = (2,) * n + (1,) * n
        self._heff = [(_row_flip(2 * n, x << n), _factor(w.reshape(rows))) for x, w in heff.items()]
        self._jumps = [
            _jump_term(n, x, wx, y, wy) for a in jumps for x, wx in a.items() for y, wy in a.items()
        ]

    def __repr__(self):
        return f"Liouvillian(n={self.n})"

    def apply(self, x, out, work):
        """out = L[x] for a Hermitian d x d x; work is a d x d scratch array."""
        shape = (2,) * (2 * self.n)
        xq, outq, workq = x.reshape(shape), out.reshape(shape), work.reshape(shape)
        (flip, w), *rest = self._heff
        np.multiply(xq[flip], w, out=workq)  # work = Heff x
        for flip, w in rest:
            np.multiply(xq[flip], w, out=outq)
            work += out
        np.conjugate(work.T, out=out)  # out = Heff x + (Heff x)† = Heff x + x Heff†
        out += work
        for dst, src, factors in self._jumps:  # out += A x A†, pair by pair of masks
            part = workq[dst]
            np.multiply(xq[src], factors[0], out=part)
            for f in factors[1:]:
                part *= f
            outq[dst] += part
        return out


def lindblad_evolve(model, rho0, t):
    """Evolve rho0 for time t under the model's Liouvillian (or a prebuilt one).

    Applies e^{Lt} to rho0 by Taylor steps of the action, without forming
    it. t must be finite and rho0 Hermitian (ValueError otherwise). The
    result is re-symmetrized; drift beyond 1e-9 in trace or Hermiticity is a
    numerical failure.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    liou = model if isinstance(model, Liouvillian) else Liouvillian(model)
    rho = rho0.data if isinstance(rho0, DensityMatrix) else np.asarray(rho0, dtype=np.complex128)
    dim = 1 << liou.n
    if rho.shape != (dim, dim):
        raise ValueError(f"rho0 has shape {rho.shape}, not ({dim}, {dim})")
    # the four d x d arrays the guard counts; moduli are written to term.real
    total, work, term, nxt = (
        np.empty((dim, dim), dtype=np.complex128) for _ in range(_WORK_ARRAYS)
    )
    np.conjugate(rho.T, out=total)
    np.subtract(rho, total, out=work)
    if np.abs(work, out=term.real).max() > _DRIFT_TOL:
        raise ValueError("rho0 is not Hermitian")
    total += rho
    total *= 0.5
    steps = math.ceil(abs(t) * liou.bound / _THETA)
    h = t / max(steps, 1)
    for _ in range(steps):
        start = np.linalg.norm(total)
        term[...] = total
        for k in range(1, _DEGREE_CAP + 1):
            liou.apply(term, nxt, work)
            nxt *= h / k
            total += nxt
            term, nxt = nxt, term
            tail = np.linalg.norm(term) * _THETA
            if k + 1 > _THETA and tail <= (k + 1 - _THETA) * _UNIT_ROUNDOFF * start:
                break
        else:
            raise NumericalError(
                f"a Taylor step of e^{{Lt}} did not converge by degree {_DEGREE_CAP}"
            )
    np.conjugate(total.T, out=work)
    work -= total
    herm_drift = np.abs(work, out=term.real).max()
    trace_drift = abs(np.trace(total) - 1.0)
    if herm_drift > _DRIFT_TOL or trace_drift > _DRIFT_TOL:
        raise NumericalError(
            f"e^{{Lt}} drift: hermiticity {herm_drift:.3e}, trace {trace_drift:.3e}"
        )
    np.conjugate(total.T, out=work)
    work += total
    work /= np.trace(work).real
    return DensityMatrix(work, check=False)
