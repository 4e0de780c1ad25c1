"""Reference computations the sampled machinery is tested against.

Everything here is direct: eigendecomposition exponentials, the vectorized
Liouvillian, its exponential's action on one vector, and Schatten norms. All
of it is dense except the Liouvillian, which is held as a CSR matrix: at
m = 5 its 4^n x 4^n generator has about 12 nonzeros per row. Vectorization
uses numpy's native row-major flatten,
vec(rho) = rho.reshape(-1), under which

    vec(A X B) = (A kron B^T) vec(X)

so with Heff = -iH - (1/2) sum_j A_j†A_j, which makes
L[rho] = Heff rho + rho Heff† + sum_j A_j rho A_j†, the generator is

    L = Heff kron I + I kron conj(Heff) + sum_j A_j kron conj(A_j).

The A_j are the model's zero-temperature jumps. A thermal environment,
whose qubits are prepared in diag(p0, p1) with p1 > 0, replaces each A_j
with the pair sqrt(p0) A_j and sqrt(p1) A_j†, and the sums run over both.

lindblad_evolve applies e^{Lt} to vec(rho0) (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33, 2011) and never forms the 4^n x 4^n exponential.

The Liouvillian is guarded by what the oracle stores, counted from the
nonzeros of Heff and the A_j, held as CSR matrices built from their Pauli
terms (PauliSum.entries) without any dense 2^n x 2^n array (d = 2^n):

    2 d nnz(Heff) + sum_j nnz(A_j)^2 + 8 * 4^n

entries: the two Heff Kronecker products, one product per jump, and eight
vectors of 4^n entries for e^{Lt}'s iteration and the drift checks. They
must fit in 4^limit entries, the size of one dense matrix at the qubit
limit, else DenseLimitError. Like check_dense, the guard sizes the objects
held; expm_multiply also makes up to three transient scaled or shifted
copies of the generator while it runs. At the default limit of 12 this
admits the 9-site chain (about 5.8M generator entries) and refuses the
10-site one (about 26M) before allocating it.

scipy is imported only inside Liouvillian and lindblad_evolve, so the rest of
the package loads without it.
"""

import math

import numpy as np

from ._limits import check_entries
from .errors import NumericalError
from .models import thermal_env_state
from .states import DensityMatrix

_DRIFT_TOL = 1e-9  # largest trace or Hermiticity drift read as rounding
_WORK_VECTORS = 8  # 4^n vectors the guard reserves beside the generator


def spectral_norm(a):
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(a), 2))


def trace_distance(a, b):
    """Full Schatten-1 norm of the difference (orthogonal pure states give 2)."""
    da = a.data if isinstance(a, DensityMatrix) else np.asarray(a)
    db = b.data if isinstance(b, DensityMatrix) else np.asarray(b)
    return float(np.linalg.svd(da - db, compute_uv=False).sum())


def unitary_exact(h, tau):
    """e^{-i tau H} for a PauliSum H, via Hermitian eigendecomposition."""
    dense = h.to_dense()
    vals, vecs = np.linalg.eigh(dense)
    return (vecs * np.exp(-1j * tau * vals)) @ vecs.conj().T


class Liouvillian:
    """4^n x 4^n generator of a LindbladModel as a CSR matrix, row-major
    vectorization, summed from two sparse Kronecker products of Heff and
    one per jump (two per jump of a thermal environment)."""

    def __init__(self, model):
        from scipy import sparse

        dim = 1 << model.n

        def csr(h):
            return sparse.csr_array(h.entries(), shape=(dim, dim))

        jumps = [csr(jump.x_part) + 1j * csr(jump.y_part) for jump in model.jumps]
        p0, p1 = thermal_env_state(model.env_omega).data.diagonal().real
        if p1 > 0.0:  # a thermal env also drives each jump's adjoint
            jumps = [math.sqrt(p0) * a for a in jumps] + [math.sqrt(p1) * a.conj().T for a in jumps]
        heff = -1j * csr(model.system_h) - 0.5 * sum(a.conj().T @ a for a in jumps)
        for a in jumps + [heff]:
            a.eliminate_zeros()
        check_entries(
            2 * dim * heff.nnz + sum(a.nnz**2 for a in jumps) + _WORK_VECTORS * dim * dim,
            f"the {model.n}-qubit Liouvillian",
        )
        eye = sparse.eye_array(dim, dtype=np.complex128, format="csr")
        mat = sparse.kron(heff, eye, format="csr") + sparse.kron(eye, heff.conj(), format="csr")
        for a in jumps:
            mat += sparse.kron(a, a.conj(), format="csr")
        self.n = model.n
        self.matrix = mat

    def __repr__(self):
        return f"Liouvillian(n={self.n})"


def lindblad_evolve(model, rho0, t):
    """Evolve rho0 for time t under the model's Liouvillian (or a prebuilt one).

    Applies e^{Lt} to vec(rho0) without forming it. The result is
    re-symmetrized; drift beyond 1e-9 in trace or Hermiticity is a numerical
    failure.
    """
    from scipy.sparse.linalg import expm_multiply

    liou = model if isinstance(model, Liouvillian) else Liouvillian(model)
    dim = 1 << liou.n
    rho = rho0.data if isinstance(rho0, DensityMatrix) else np.asarray(rho0, dtype=np.complex128)
    out = expm_multiply(t * liou.matrix, rho.reshape(-1)).reshape(dim, dim)
    herm_drift = np.abs(out - out.conj().T).max()
    trace_drift = abs(np.trace(out) - 1.0)
    if herm_drift > _DRIFT_TOL or trace_drift > _DRIFT_TOL:
        raise NumericalError(
            f"e^{{Lt}} drift: hermiticity {herm_drift:.3e}, trace {trace_drift:.3e}"
        )
    out = 0.5 * (out + out.conj().T)
    out = out / np.trace(out).real
    return DensityMatrix(out, check=False)
