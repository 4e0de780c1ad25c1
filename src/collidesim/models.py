"""Benchmark models: transverse-field Ising system with per-site amplitude
damping, thermal environment qubits, and the magnetization observable.

Site indices are 0-based. A jump is held once, as two Hermitian Pauli sums,
never as a 2^n x 2^n matrix. Interaction sums live on n+1 qubits with the
environment qubit appended last (qubit n), matching how collision programs
stack a fresh env register below the system.
"""

import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliString, PauliSum
from .states import DensityMatrix, Observable, tensor_append


def tfim_hamiltonian(m, J=1.0, h=0.1, periodic=False):
    """-J sum_i Z_i Z_{i+1} - h sum_i X_i on an m-site chain (open boundary)."""
    if m < 2:
        raise ValueError(f"TFIM chain needs m >= 2 sites, got {m}")
    pairs = [(i, i + 1) for i in range(m - 1)]
    if periodic:
        pairs.append((m - 1, 0))
    terms = []
    for i, j in pairs:
        axes = "".join("Z" if q in (i, j) else "I" for q in range(m))
        terms.append((-J, PauliString.from_label(axes)))
    for i in range(m):
        axes = "".join("X" if q == i else "I" for q in range(m))
        terms.append((-h, PauliString.from_label(axes)))
    return PauliSum(m, terms)


def field_hamiltonian(m, h):
    """-h sum_i X_i; the m = 1 degeneration of the benchmark system."""
    terms = []
    for i in range(m):
        axes = "".join("X" if q == i else "I" for q in range(m))
        terms.append((-h, PauliString.from_label(axes)))
    return PauliSum(m, terms)


def magnetization(m):
    """(1/m) sum_i Z_i as an Observable (spectral norm 1)."""
    terms = []
    for i in range(m):
        axes = "".join("Z" if q == i else "I" for q in range(m))
        terms.append((1.0 / m, PauliString.from_label(axes)))
    return Observable(PauliSum(m, terms))


def amp_damp_jump(site, gamma, m):
    """sqrt(gamma) sigma^-_site = (sqrt(gamma)/2)(X_site + i Y_site) on m qubits, whose
    coupling (sqrt(gamma)/2)(X_site X_env + Y_site Y_env) = sqrt(gamma)(sigma^+_site
    sigma^-_env + h.c.) generates amplitude damping at rate gamma in the collision limit."""
    if not 0 <= site < m:
        raise ValueError(f"site {site} outside chain of {m}")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    c = math.sqrt(gamma) / 2.0
    x, y = ("".join(axis if q == site else "I" for q in range(m)) for axis in "XY")
    return JumpOp(
        PauliSum(m, [(c, PauliString.from_label(x))]),
        PauliSum(m, [(c, PauliString.from_label(y))]),
    )


def thermal_env_state(omega):
    """(|0><0| + e^{-omega}|1><1|) / (1 + e^{-omega}); omega = inf is |0><0|."""
    if omega < 0:
        raise ValueError("omega must be >= 0 (or inf)")
    if math.isinf(omega):
        return DensityMatrix.basis(1, 0)
    w = math.exp(-omega)
    data = np.diag([1.0 / (1.0 + w), w / (1.0 + w)]).astype(np.complex128)
    return DensityMatrix(data, check=False)


@dataclass(frozen=True)
class ThermalPrep:
    """Picklable factory producing a product of thermal env qubits."""

    omega: float
    width: int = 1

    def __call__(self):
        state = thermal_env_state(self.omega)
        for _ in range(self.width - 1):
            state = tensor_append(state, thermal_env_state(self.omega))
        return state


@dataclass(frozen=True)
class JumpOp:
    """One dissipation channel, the zero-temperature jump operator
    A = x_part + i y_part (rate folded in), with both parts Hermitian Pauli
    sums on the system."""

    x_part: PauliSum
    y_part: PauliSum

    @property
    def interaction(self):
        """The system-env coupling that realizes the jump in collisions, on
        n+1 qubits with the env last: the exchange coupling
        A x sigma^+_env + A† x sigma^-_env = x_part x X_env + y_part x Y_env."""
        n = self.x_part.n
        terms = [(c, PauliString(n + 1, p.x << 1 | 1, p.z << 1 | env_z, p.phase_exp))
                 for part, env_z in ((self.x_part, 0), (self.y_part, 1)) for c, p in part]
        return PauliSum(n + 1, terms)


@dataclass(frozen=True)
class LindbladModel:
    """dρ/dt = -i[H, ρ] + sum_j (L_j ρ L_j† - {L_j†L_j, ρ}/2).

    The jumps A_j are the zero-temperature ones. Collisions with env qubits
    prepared in thermal_env_state(env_omega) = diag(p0, p1) give each A_j
    the pair L = sqrt(p0) A_j and sqrt(p1) A_j†; at env_omega = inf, p1 = 0
    and the A_j alone remain.
    """

    n: int
    system_h: PauliSum
    jumps: tuple
    env_omega: float = math.inf

    def __post_init__(self):
        if len(self.jumps) < 1:
            raise ValueError("need at least one jump channel")
        if self.system_h.n != self.n:
            raise ValueError("system Hamiltonian width mismatch")
        if any(self.n != j.x_part.n or self.n != j.y_part.n for j in self.jumps):
            raise ValueError("jump operator width mismatch")


def amp_damp_model(m, J=1.0, h=0.1, gamma=1.0, omega=math.inf):
    """TFIM chain with uniform per-site amplitude damping (field-only at m=1)."""
    system_h = tfim_hamiltonian(m, J, h) if m >= 2 else field_hamiltonian(m, h)
    jumps = tuple(amp_damp_jump(site, gamma, m) for site in range(m))
    return LindbladModel(m, system_h, jumps, env_omega=omega)

