"""Gate IR: execution against dense oracles, validation, resource accounting."""

import pickle

import numpy as np
import pytest
from scipy.linalg import expm

from collidesim import (
    ANCILLA,
    CircuitProgram,
    CostModel,
    DensityMatrix,
    GateOp,
    PauliString,
    ResourceReport,
    count_resources,
    execute,
    fragment_op,
    pauli_op,
    rotation_op,
)

_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def _prep(mat):
    arr = np.asarray(mat, dtype=np.complex128)
    return lambda: DensityMatrix(arr.copy(), check=False)


def _rand_rho(rng, n):
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


def test_op_constructors_pick_kinds():
    x = PauliString.from_label("X")
    assert pauli_op(x, (0,)).kind == "pauli"
    assert pauli_op(x, (0,), control=1).kind == "cpauli"
    assert rotation_op(x, 0.3, (0,)).kind == "rotation"
    assert rotation_op(x, 0.3, (0,), control=1).kind == "crotation"
    with pytest.raises(ValueError):
        GateOp("hadamard")


def test_execute_one_collision_matches_dense():
    rng = np.random.default_rng(31)
    rho = _rand_rho(rng, 1)
    env = np.diag([0.25, 0.75]).astype(np.complex128)
    theta = 0.47
    xx = PauliString.from_label("XX")
    prog = CircuitProgram(
        1,
        env_widths=(1,),
        ops=(
            GateOp("prepare", slot=0),
            rotation_op(xx, theta, (0, 1)),
            GateOp("trace", slot=0),
        ),
    )
    got = execute(prog, rho, {0: _prep(env)})
    u = expm(-1j * theta * np.kron(_X, _X))
    joint = u @ np.kron(rho.data, env) @ u.conj().T
    want = np.einsum("aibi->ab", joint.reshape(2, 2, 2, 2))
    np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_execute_remaps_after_out_of_order_trace():
    # slot 1 ops must follow the physical compaction after slot 0 is traced
    rng = np.random.default_rng(33)
    rho = _rand_rho(rng, 1)
    theta = 0.6
    xx = PauliString.from_label("XX")
    prog = CircuitProgram(
        1,
        env_widths=(1, 1),
        ops=(
            GateOp("prepare", slot=0),
            GateOp("prepare", slot=1),
            GateOp("trace", slot=0),
            rotation_op(xx, theta, (0, 2)),  # vid 2 = slot 1
            GateOp("trace", slot=1),
        ),
    )
    env0 = np.diag([1.0, 0.0])
    env1 = np.diag([0.25, 0.75]).astype(np.complex128)
    got = execute(prog, rho, {0: _prep(env0), 1: _prep(env1)})
    u = expm(-1j * theta * np.kron(_X, _X))
    joint = u @ np.kron(rho.data, env1) @ u.conj().T
    want = np.einsum("aibi->ab", joint.reshape(2, 2, 2, 2))
    np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_execute_ancilla_controls():
    rng = np.random.default_rng(35)
    rho = _rand_rho(rng, 1)
    prog = CircuitProgram(
        1,
        ancilla=True,
        ops=(pauli_op(PauliString.from_label("X"), (0,), control=ANCILLA, polarity=1),),
    )
    got = execute(prog, rho)
    # |+><+| ancilla on the top bit, controlled-X on the system qubit
    cx = np.eye(4, dtype=np.complex128)
    cx[2:, 2:] = _X
    joint = np.kron(np.full((2, 2), 0.5), rho.data)
    want = cx @ joint @ cx.conj().T
    assert got.n == 2
    np.testing.assert_allclose(got.data, want, atol=1e-13)


def test_execute_swap_moves_env_state():
    # prepare |1> and |0> envs, swap them, then flip the system iff the
    # surviving slot holds |1>: the flip must fire
    rho = DensityMatrix.basis(1, 0)
    prog = CircuitProgram(
        1,
        env_widths=(1, 1),
        ops=(
            GateOp("prepare", slot=0),
            GateOp("prepare", slot=1),
            GateOp("swap", slots=(0, 1)),
            pauli_op(PauliString.from_label("X"), (0,), control=2, polarity=1),
            GateOp("trace", slot=0),
            GateOp("trace", slot=1),
        ),
    )
    got = execute(prog, rho, {0: _prep(np.diag([0.0, 1.0])), 1: _prep(np.diag([1.0, 0.0]))})
    np.testing.assert_allclose(got.data, DensityMatrix.basis(1, 1).data, atol=1e-14)


def test_validate_rejects_bad_programs():
    x = PauliString.from_label("X")
    with pytest.raises(ValueError):  # touches a slot never prepared
        CircuitProgram(1, env_widths=(1,), ops=(pauli_op(x, (1,)),))
    with pytest.raises(ValueError):  # double prepare
        CircuitProgram(
            1,
            env_widths=(1,),
            ops=(GateOp("prepare", slot=0), GateOp("prepare", slot=0), GateOp("trace", slot=0)),
        )
    with pytest.raises(ValueError):  # never traced
        CircuitProgram(1, env_widths=(1,), ops=(GateOp("prepare", slot=0),))
    with pytest.raises(ValueError):  # ancilla op without ancilla
        CircuitProgram(1, ops=(pauli_op(x, (0,), control=ANCILLA),))
    with pytest.raises(ValueError):  # axis width != targets
        CircuitProgram(1, ops=(pauli_op(PauliString.from_label("XX"), (0,)),))
    with pytest.raises(ValueError):  # swap width mismatch
        CircuitProgram(
            1,
            env_widths=(1, 2),
            ops=(
                GateOp("prepare", slot=0),
                GateOp("prepare", slot=1),
                GateOp("swap", slots=(0, 1)),
                GateOp("trace", slot=0),
                GateOp("trace", slot=1),
            ),
        )


def test_describe_is_stable():
    prog = CircuitProgram(
        2,
        ancilla=True,
        env_widths=(1,),
        ops=(
            GateOp("prepare", slot=0),
            rotation_op(PauliString.from_label("XZ"), 0.25, (0, 2), control=ANCILLA, polarity=0),
            GateOp("trace", slot=0),
        ),
    )
    assert prog.describe().splitlines() == [
        "program system=2 ancilla=1 slots=[1]",
        "prepare slot 0",
        "crot(anc=0) +XZ angle 0.25 on [0,2]",
        "trace slot 0",
    ]


def test_count_resources_frozen_costs():
    z3 = PauliString.from_label("ZZZ")
    xx = PauliString.from_label("XX")
    prog = CircuitProgram(
        3,
        ancilla=True,
        env_widths=(2, 2),
        ops=(
            GateOp("prepare", slot=0),  # 2 cnots, 1 prep
            GateOp("prepare", slot=1),  # 2 cnots, 1 prep
            rotation_op(z3, 0.1, (0, 1, 2)),  # weight 3: 4 cnots, 1 rot
            rotation_op(xx, 0.2, (3, 4), control=ANCILLA),  # 2(w-1)+2 = 4 cnots, 2 rots
            rotation_op(PauliString.identity(1), 0.3, (0,), control=ANCILLA),  # phase kick: 1 rot
            pauli_op(xx, (0, 1)),  # 1 pauli, 0 cnots
            pauli_op(xx, (0, 1), control=2),  # 1 pauli, 2 cnots
            GateOp("swap", slots=(0, 1)),  # 3 per qubit * width 2 = 6 cnots
            GateOp("trace", slot=0),
            GateOp("trace", slot=1),
        ),
    )
    rep = count_resources(prog)
    assert rep.cnot_count == 2 + 2 + 4 + 4 + 0 + 0 + 2 + 6
    assert rep.rotation_count == 1 + 2 + 1
    assert rep.pauli_gate_count == 2
    assert rep.env_preps == 2
    assert rep.depth_proxy == rep.cnot_count + rep.rotation_count
    # wider swaps priced by the cost model
    cheap = count_resources(prog, CostModel(prep_cnots=0, swap_cnots_per_qubit=1))
    assert cheap.cnot_count == rep.cnot_count - 4 - 4


def test_resource_report_addition():
    a = ResourceReport(1, 2, 3, 3, 1)
    b = ResourceReport(10, 20, 30, 30, 10)
    assert (a + b).as_tuple() == (11, 22, 33, 33, 11)
    assert ResourceReport.FIELDS == (
        "cnot_count",
        "rotation_count",
        "pauli_gate_count",
        "depth_proxy",
        "env_preps",
    )


def _slots_program(gates):
    """Two system qubits and two one-qubit slots, both active around the gates."""
    return CircuitProgram(
        2,
        env_widths=(1, 1),
        ops=(
            GateOp("prepare", slot=0),
            GateOp("prepare", slot=1),
            *gates,
            GateOp("trace", slot=0),
            GateOp("trace", slot=1),
        ),
    )


def test_fragment_on_permuted_targets_matches_rotations():
    rng = np.random.default_rng(41)
    rho = _rand_rho(rng, 2)
    step = (
        (PauliString.from_label("XYZ"), 0.11),
        (PauliString.from_label("ZIX"), -0.07),
        (PauliString.from_label("IYY"), 0.05),
    )
    targets = (3, 0, 2)  # slot 1, system 0, slot 0: out of order, skipping system 1
    frag = _slots_program((fragment_op(step, 3, targets),))
    rots = _slots_program(tuple(rotation_op(a, t, targets) for a, t in step * 3))
    preps = {0: _prep(np.diag([0.3, 0.7])), 1: _prep(_rand_rho(rng, 1).data)}
    got = execute(frag, rho, preps)
    want = execute(rots, rho, preps)
    np.testing.assert_allclose(got.data, want.data, atol=1e-10)
    assert count_resources(frag) == count_resources(rots)


def test_fragment_op_is_small_and_validated():
    xx = PauliString.from_label("XX")
    op = fragment_op([(xx, 0.25), (PauliString.from_label("ZI"), -0.5)], 2, (0, 1))
    assert op.kind == "fragment" and op.step[0] == (xx, 0.25) and op.steps == 2
    assert pickle.loads(pickle.dumps(op)) == op and hash(op) == hash(fragment_op(op.step, 2, (0, 1)))
    prog = CircuitProgram(
        1, env_widths=(1,), ops=(GateOp("prepare", slot=0), op, GateOp("trace", slot=0))
    )
    assert prog.describe().splitlines()[2] == "fragment 2 x [+XX 0.25, +ZI -0.5] on [0,1]"
    # 2 steps x (XX: 2 cnots + 1 rot, ZI: 0 cnots + 1 rot), plus the preparation
    assert count_resources(prog).as_tuple() == (2 + 2 * 2, 2 * 2, 0, 6 + 4, 1)
    for bad in (
        fragment_op([(PauliString.from_label("X"), 0.1)], 1, (0, 1)),  # axis width
        fragment_op([(PauliString.from_label("-XX"), 0.1)], 1, (0, 1)),  # phased axis
        fragment_op([(xx, 0.1)], 0, (0, 1)),  # no repetitions
        fragment_op([], 1, (0, 1)),  # empty step
    ):
        with pytest.raises(ValueError):
            CircuitProgram(
                1, env_widths=(1,), ops=(GateOp("prepare", slot=0), bad, GateOp("trace", slot=0))
            )
