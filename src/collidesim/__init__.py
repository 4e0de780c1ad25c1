"""Collision-model simulator and resource estimator for open-system dynamics.

Dense density-matrix simulation of K-collision maps (Markovian and partial-swap
non-Markovian), compiled collision unitaries (Trotter/Suzuki, qDRIFT, sampled
single-ancilla LCU), Lindblad discretization with automatic collision-count
selection, a Hoeffding-sized Monte-Carlo expectation estimator, and CNOT-level
resource accounting.
"""

from ._kernels import ACTIVE as active_kernels
from ._limits import DENSE_QUBIT_DEFAULT, check_dense, dense_qubit_limit
from .circuits import (
    CircuitProgram,
    Fragment,
    ResourceReport,
    Window,
    count_resources,
    execute,
)
from .collisions import (
    Backend,
    Collision,
    CollisionPlan,
    CollisionSpec,
    NonMarkovSpec,
    exact_k_collision,
    exact_nonmarkov,
    expected_resources,
    lindblad_collision_spec,
    markov_plan,
    markov_program,
    nonmarkov_program,
    parse_backend,
    required_precision,
    suggest_nu,
)
from .errors import DenseLimitError, NumericalError
from .estimator import EstimateReport, estimate, hoeffding_T, measured_observable
from .hamsim import (
    LcuParams,
    choose_lcu_params,
    choose_qdrift_length,
    choose_taylor_order,
    choose_trotter_steps,
    lcu_enumerate_dense,
    lcu_sample,
    qdrift_rotations,
    segment_weights,
    taylor_tail,
    trotter_step,
)
from .models import (
    JumpOp,
    LindbladModel,
    ThermalPrep,
    amp_damp_jump,
    amp_damp_model,
    field_hamiltonian,
    magnetization,
    tfim_hamiltonian,
    thermal_env_state,
)
from .oracles import (
    Liouvillian,
    lindblad_evolve,
    spectral_norm,
    trace_distance,
    unitary_exact,
)
from .pauli import (
    NormalizedPauliSum,
    PauliString,
    PauliSum,
    embed_pauli,
    normalize,
)
from .states import (
    DensityMatrix,
    Observable,
    apply_pauli,
    apply_pauli_rotation,
    apply_swap,
    born_sample,
    expectation,
    load_state,
    partial_trace,
    tensor_append,
)

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "CircuitProgram",
    "Collision",
    "CollisionPlan",
    "CollisionSpec",
    "DENSE_QUBIT_DEFAULT",
    "DenseLimitError",
    "DensityMatrix",
    "EstimateReport",
    "Fragment",
    "JumpOp",
    "LcuParams",
    "LindbladModel",
    "Liouvillian",
    "NonMarkovSpec",
    "NormalizedPauliSum",
    "NumericalError",
    "Observable",
    "PauliString",
    "PauliSum",
    "ResourceReport",
    "ThermalPrep",
    "Window",
    "active_kernels",
    "amp_damp_jump",
    "amp_damp_model",
    "apply_pauli",
    "apply_pauli_rotation",
    "apply_swap",
    "born_sample",
    "check_dense",
    "choose_lcu_params",
    "choose_qdrift_length",
    "choose_taylor_order",
    "choose_trotter_steps",
    "count_resources",
    "dense_qubit_limit",
    "embed_pauli",
    "estimate",
    "exact_k_collision",
    "exact_nonmarkov",
    "execute",
    "expectation",
    "expected_resources",
    "field_hamiltonian",
    "hoeffding_T",
    "lcu_enumerate_dense",
    "lcu_sample",
    "lindblad_collision_spec",
    "lindblad_evolve",
    "load_state",
    "magnetization",
    "markov_plan",
    "markov_program",
    "measured_observable",
    "nonmarkov_program",
    "normalize",
    "parse_backend",
    "partial_trace",
    "qdrift_rotations",
    "required_precision",
    "segment_weights",
    "spectral_norm",
    "suggest_nu",
    "taylor_tail",
    "tensor_append",
    "tfim_hamiltonian",
    "thermal_env_state",
    "trace_distance",
    "trotter_step",
    "unitary_exact",
]
