"""Gate IR: execution against dense oracles, validation, resource accounting."""

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from collidesim import (
    CircuitProgram,
    Collision,
    CollisionSpec,
    DenseLimitError,
    DensityMatrix,
    GateOp,
    NonMarkovSpec,
    PauliString,
    ResourceReport,
    ThermalPrep,
    count_resources,
    execute,
    fragment_op,
    markov_plan,
    markov_program,
    nonmarkov_program,
    parse_backend,
)
from collidesim.acceptance import _random_collision
from collidesim.circuits import Skeleton
from collidesim.collisions import nonmarkov_skeleton
from collidesim.hamsim import RotationTable
from collidesim.states import join_blocks
from dense_reference import count_items, describe, execute_register, generic_path_calls, pauli_sum

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
    assert fragment_op([(x, 0.3)], 1).kind == "fragment"
    assert fragment_op([(x, None)], 1, polarity=1).kind == "fragment"
    for kind in ("hadamard", "rotation"):
        with pytest.raises(ValueError):
            GateOp(kind)


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
            fragment_op([(xx, theta)], 1),
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
            fragment_op([(xx, theta)], 1),  # the system and slot 1
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
        ops=(fragment_op([(PauliString.from_label("X"), None)], 1, polarity=1),),
    )
    blocks = execute(prog, rho)
    assert set(blocks) == {(0, 0), (1, 1), (1, 0)}
    assert all(b.n == 1 for b in blocks.values())  # no register holds the ancilla
    got = join_blocks(blocks)
    # |+><+| ancilla on the top bit, controlled-X on the system qubit
    cx = np.eye(4, dtype=np.complex128)
    cx[2:, 2:] = _X
    joint = np.kron(np.full((2, 2), 0.5), rho.data)
    want = cx @ joint @ cx.conj().T
    assert got.n == 2
    np.testing.assert_allclose(got.data, want, atol=1e-13)
    # rho_10 alone evolves as X rho / 2
    alone = execute(prog, rho, blocks=((1, 0),))
    assert set(alone) == {(1, 0)}
    np.testing.assert_allclose(alone[1, 0].data, _X @ rho.data / 2, atol=1e-15)
    with pytest.raises(ValueError):  # blocks need an ancilla
        execute(CircuitProgram(1), rho, blocks=((1, 0),))


def test_execute_swap_moves_env_state():
    # prepare |1> in slot 0 and |0> in slot 1, then trace slot 0, with or
    # without swapping first, and flip the system iff slot 1 holds |1>: the
    # swap carries |1> into slot 1 and the flip fires. The CNOT from slot 1 to
    # the system is e^{i pi/4 (I - Z_c)(I - X_t)}
    # = e^{-i pi/4 Z_c} e^{-i pi/4 X_t} e^{i pi/4 X_t Z_c} up to a global phase.
    cnot = [
        (PauliString.from_label("IZ"), math.pi / 4),
        (PauliString.from_label("XI"), math.pi / 4),
        (PauliString.from_label("XZ"), -math.pi / 4),
    ]
    rho = DensityMatrix.basis(1, 0)
    preps = {0: _prep(np.diag([0.0, 1.0])), 1: _prep(np.diag([1.0, 0.0]))}
    for swap, flipped in ((True, 1), (False, 0)):
        prog = CircuitProgram(
            1,
            env_widths=(1, 1),
            ops=(
                GateOp("prepare", slot=0),
                GateOp("prepare", slot=1),
                *([GateOp("swap", slots=(0, 1))] if swap else []),
                GateOp("trace", slot=0),
                fragment_op(cnot, 1),  # the system and slot 1
                GateOp("trace", slot=1),
            ),
        )
        got = execute(prog, rho, preps)
        np.testing.assert_allclose(got.data, execute_register(prog, rho, preps), atol=1e-12)
        np.testing.assert_allclose(got.data, DensityMatrix.basis(1, flipped).data, atol=1e-12)


def test_validate_rejects_bad_programs():
    x = PauliString.from_label("X")
    xx = PauliString.from_label("XX")
    with pytest.raises(ValueError):  # touches a slot never prepared
        CircuitProgram(1, env_widths=(1,), ops=(fragment_op([(xx, None)], 1),))
    with pytest.raises(ValueError):  # double prepare
        CircuitProgram(
            1,
            env_widths=(1,),
            ops=(GateOp("prepare", slot=0), GateOp("prepare", slot=0), GateOp("trace", slot=0)),
        )
    with pytest.raises(ValueError):  # never traced
        CircuitProgram(1, env_widths=(1,), ops=(GateOp("prepare", slot=0),))
    with pytest.raises(ValueError):  # ancilla op without ancilla
        CircuitProgram(1, ops=(fragment_op([(x, None)], 1, polarity=1),))
    with pytest.raises(ValueError):  # a polarity is an ancilla value
        CircuitProgram(1, ancilla=True, ops=(fragment_op([(x, None)], 1, polarity=2),))
    with pytest.raises(ValueError):  # fragment narrower than the live register
        CircuitProgram(
            1,
            env_widths=(1,),
            ops=(GateOp("prepare", slot=0), fragment_op([(x, 0.1)], 1), GateOp("trace", slot=0)),
        )
    with pytest.raises(ValueError):  # fragment wider than the live register
        CircuitProgram(1, ops=(fragment_op([(xx, None)], 1),))
    with pytest.raises(ValueError, match="swap needs equal slot widths"):
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
            fragment_op([(PauliString.from_label("XIZ"), 0.25)], 1, polarity=0),
            GateOp("trace", slot=0),
        ),
    )
    assert describe(prog).splitlines() == [
        "program system=2 ancilla=1 slots=[1]",
        "prepare slot 0",
        "cfragment(anc=0) 1 x [+XIZ 0.25] on system+[0]",
        "trace slot 0",
    ]


def test_count_resources_frozen_costs():
    # the words are padded with identities to the live register, which cost nothing
    z3 = PauliString.from_label("ZZZII")
    xx = PauliString.from_label("IIIXX")
    prog = CircuitProgram(
        3,
        ancilla=True,
        env_widths=(2, 2),
        ops=(
            GateOp("prepare", slot=0),  # 2 cnots, 1 prep
            fragment_op([(z3, 0.1)], 1),  # weight 3: 4 cnots, 1 rot
            fragment_op([(xx, 0.2)], 1, polarity=1),  # 2(w-1)+2 = 4 cnots, 2 rots
            # phase kick: 1 rot
            fragment_op([(PauliString(5, 0, 0), 0.3)], 1, polarity=1),
            fragment_op([(xx, None)], 1),  # 1 pauli, 0 cnots
            fragment_op([(xx, None)], 1, polarity=1),  # 1 pauli, 2 cnots
            GateOp("prepare", slot=1),  # 2 cnots, 1 prep
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
    assert rep.as_tuple() == count_items(prog)


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


def test_fragment_op_is_small_and_validated():
    xx = PauliString.from_label("XX")
    op = fragment_op([(xx, 0.25), (PauliString.from_label("ZI"), -0.5)], 2)
    assert op.kind == "fragment" and op.step[0] == (xx, 0.25) and op.steps == 2
    assert type(op.step) is RotationTable and op.step.n == 2
    # a copy holds an equal table of its own
    copy = pickle.loads(pickle.dumps(op))
    assert copy.step is not op.step and (copy.step.n, copy.step.items) == (op.step.n, op.step.items)
    assert replace(copy, step=op.step) == op and hash(op) == hash(fragment_op(op.step, 2))
    prog = CircuitProgram(
        1, env_widths=(1,), ops=(GateOp("prepare", slot=0), op, GateOp("trace", slot=0))
    )
    assert describe(prog).splitlines()[2] == "fragment 2 x [+XX 0.25, +ZI -0.5] on system+[0]"
    # 2 steps x (XX: 2 cnots + 1 rot, ZI: 0 cnots + 1 rot), plus the preparation
    assert count_resources(prog).as_tuple() == (2 + 2 * 2, 2 * 2, 0, 6 + 4, 1)
    # an item is checked as it enters the fragment's table
    with pytest.raises(ValueError):
        fragment_op([(xx, 0.1), (PauliString.from_label("X"), 0.1)], 1)  # axis width
    with pytest.raises(ValueError):
        fragment_op([(PauliString.from_label("-XX"), 0.1)], 1)  # phased axis
    for bad in (
        fragment_op(RotationTable(1, [(PauliString.from_label("X"), 0.1)]), 1),  # table width
        fragment_op([(xx, 0.1)], 0),  # no repetitions
        fragment_op([], 1),  # empty step
    ):
        with pytest.raises(ValueError):
            CircuitProgram(
                1, env_widths=(1,), ops=(GateOp("prepare", slot=0), bad, GateOp("trace", slot=0))
            )


@pytest.mark.parametrize("polarity", [0, 1])
def test_controlled_fragment_on_permuted_targets_matches_gates(polarity):
    rng = np.random.default_rng(43)
    # whole-register words on (system 0, system 1, slot 0 of two qubits) that
    # leave system 1 alone
    step = (
        (PauliString.from_label("YIZX"), 0.31),
        (PauliString.from_label("-iXIYZ"), None),  # phased word
        (PauliString.from_label("IIZZ"), -0.2),  # diagonal axis
        (PauliString.from_label("-ZIII"), None),  # phased diagonal word
        (PauliString.from_label("YIXY"), 0.17),
    )
    picks = range(len(step))
    frag = fragment_op(step, 1, polarity, picks=picks)

    def program(gates):
        return CircuitProgram(
            2,
            ancilla=True,
            env_widths=(2,),
            ops=(GateOp("prepare", slot=0), *gates, GateOp("trace", slot=0)),
        )

    prog = program((frag,))
    rho = _rand_rho(rng, 2)
    preps = {0: _prep(np.kron(np.diag([0.3, 0.7]), _rand_rho(rng, 1).data))}
    want = execute_register(prog, rho, preps)
    got = join_blocks(execute(prog, rho, preps))
    np.testing.assert_allclose(got.data, want, atol=1e-10)
    # the off-diagonal block alone, as an analytic readout evolves it
    alone = execute(prog, rho, preps, blocks=((1, 0),))[1, 0]
    np.testing.assert_allclose(alone.data, want[4:, :4], atol=1e-12)
    assert count_resources(prog).as_tuple() == count_items(prog)
    assert describe(prog).splitlines()[2] == (
        f"cfragment(anc={polarity}) 1 x [+YIZX 0.31, -iXIYZ, +IIZZ -0.2, -ZIII, +YIXY 0.17]"
        " on system+[0]"
    )
    with pytest.raises(ValueError):  # a sampled fragment is one draw
        program((fragment_op(step, 2, 1, picks=picks),))


def _table_program(step, picks, polarity=None):
    op = fragment_op(step, 1, polarity, picks=picks)
    return CircuitProgram(
        1,
        ancilla=polarity is not None,
        env_widths=(1,),
        ops=(GateOp("prepare", slot=0), op, GateOp("trace", slot=0)),
    )


def test_picked_fragments_price_each_entry_by_its_pick_count():
    rng = np.random.default_rng(71)
    table = RotationTable(2, [
        (PauliString.from_label("XY"), 0.3),  # weight 2 rotation
        (PauliString.from_label("ZI"), -0.1),  # weight 1 rotation
        (PauliString.from_label("II"), 0.2),  # identity rotation: a phase kick when controlled
        (PauliString.from_label("-iZX"), None),  # phased word
    ])
    for polarity in (None, 1):
        for size in (1, 7, 500):
            picks = tuple(int(v) for v in rng.integers(0, len(table), size=size))
            prog = _table_program(table, picks, polarity)
            assert count_resources(prog).as_tuple() == count_items(prog)
    # the table keeps one row of prices per entry and control flag, extended as it grows
    assert set(table.costs) == {False, True}
    table.append((PauliString.from_label("YY"), 0.4))
    prog = _table_program(table, (4, 4, 0), 1)
    assert count_resources(prog).as_tuple() == count_items(prog)


def test_validate_checks_the_pick_range():
    table = RotationTable(2, [(PauliString.from_label("XY"), 0.3), (PauliString.from_label("ZZ"), 0.1)])
    _table_program(table, (0, 1, 1))
    for bad in ((0, -1), (2,), (0, 1, 5), ()):
        with pytest.raises(ValueError):
            _table_program(table, bad)
    narrow = RotationTable(1, [(PauliString.from_label("X"), 0.3)])
    with pytest.raises(ValueError):  # a table as wide as the live register
        _table_program(narrow, (0,))
    with pytest.raises(ValueError):  # a draw is applied once
        CircuitProgram(1, ops=(fragment_op(narrow, 2, picks=(0,)),))


# --------------------------------------------------------- Kraus windows


_WINDOW_ENVS = {
    "pure": ThermalPrep(math.inf),
    "thermal": ThermalPrep(math.log(3.0)),  # p1 = 1/4: two Kraus columns per input
    "coverage": _random_collision(np.random.default_rng(5), 1, 1).env_prep,  # non-diagonal, pure
}


def _window_spec(prep, k=3):
    col = Collision(
        1,
        pauli_sum([(0.5, "Z")]),
        pauli_sum([(0.6, "YIY"), (0.3, "XZX"), (0.2, "-ZIZ")]),
        prep,
    )
    return CollisionSpec(2, pauli_sum([(0.4, "ZI"), (0.3, "XX")]), (col,) * k, 0.3)


def _assert_matches_register(prog, rho, preps):
    want = execute_register(prog, rho, preps)
    if not prog.ancilla:
        np.testing.assert_allclose(execute(prog, rho, preps).data, want, rtol=0, atol=1e-12)
        return
    d = rho.data.shape[0]
    got = join_blocks(execute(prog, rho, preps))  # the shot blocks (0,0), (1,1), (1,0)
    np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)
    alone = execute(prog, rho, preps, blocks=((1, 0),))  # the analytic block
    np.testing.assert_allclose(alone[1, 0].data, want[d:, :d], rtol=0, atol=1e-12)


@pytest.mark.parametrize("env", sorted(_WINDOW_ENVS))
@pytest.mark.parametrize(
    "backend, eps",
    [("qdrift", 0.2), ("salcu", 0.1), ("trotter1", 0.2), ("trotter2k:1", 0.2)],
    ids=["qdrift", "salcu", "trotter1", "trotter2k:1"],
)
def test_kraus_windows_match_the_dense_register(backend, eps, env, monkeypatch):
    spec = _window_spec(_WINDOW_ENVS[env])
    rho = _rand_rho(np.random.default_rng(81), spec.n)
    plan = markov_plan(spec, parse_backend(backend), eps, 1.0)
    prog = markov_program(spec, plan, np.random.default_rng(83))
    calls = generic_path_calls(monkeypatch)
    _assert_matches_register(prog, rho, spec.env_preparers())
    assert not calls  # every collision ran as a Kraus map


def test_a_hand_built_window_with_two_fragments_per_side_takes_the_kraus_path(monkeypatch):
    rng = np.random.default_rng(85)
    table = RotationTable(2, [
        (PauliString.from_label("XY"), 0.3),
        (PauliString.from_label("ZI"), -0.4),
        (PauliString.from_label("-iYX"), None),
    ])
    step = ((PauliString.from_label("YZ"), 0.2), (PauliString.from_label("XX"), -0.35))
    preps = {0: _prep(_rand_rho(rng, 1).data)}  # full rank: two Kraus columns
    rho = _rand_rho(rng, 1)
    for ancilla in (False, True):
        on, off = (1, 0) if ancilla else (None, None)
        window = (
            fragment_op(table, 1, on, picks=(0, 2, 1, 0)),
            fragment_op(step, 3),
            fragment_op(table, 1, on, picks=(1, 1, 2)),
            fragment_op(step, 2, off),
        )
        prog = CircuitProgram(
            1,
            ancilla=ancilla,
            env_widths=(1,),
            ops=(GateOp("prepare", slot=0), *window, GateOp("trace", slot=0)) * 2,
        )
        calls = generic_path_calls(monkeypatch)
        _assert_matches_register(prog, rho, preps)
        assert not calls


def test_non_markov_and_out_of_order_programs_run_as_kraus_windows(monkeypatch):
    spec = _window_spec(_WINDOW_ENVS["thermal"])
    rho = _rand_rho(np.random.default_rng(87), spec.n)
    plan = markov_plan(spec, parse_backend("trotter1"), 0.2, 1.0)
    nonmarkov = nonmarkov_program(NonMarkovSpec(spec, 1.0), plan, np.random.default_rng(88))
    assert any(op.kind == "swap" for op in nonmarkov.ops)
    xx = PauliString.from_label("XX")
    out_of_order = CircuitProgram(  # slot 1 collides after slot 0 was traced: a cut
        1,
        env_widths=(1, 1),
        ops=(
            GateOp("prepare", slot=0),
            GateOp("prepare", slot=1),
            GateOp("trace", slot=0),
            fragment_op([(xx, 0.6)], 1),
            GateOp("trace", slot=1),
        ),
    )
    env = _prep(np.diag([0.25, 0.75]))
    one = _rand_rho(np.random.default_rng(89), 1)
    for prog, state, preps in (
        (nonmarkov, rho, spec.env_preparers()),
        (out_of_order, one, {0: env, 1: env}),
    ):
        calls = generic_path_calls(monkeypatch)
        _assert_matches_register(prog, state, preps)
        assert not calls


_PATTERNS = {"all kept": (1, 1, 1, 1), "none kept": (0, 0, 0, 0), "alternating": (1, 0, 1, 0)}


@pytest.mark.parametrize("pattern", sorted(_PATTERNS))
@pytest.mark.parametrize(
    "backend, eps", [("trotter1", 0.2), ("qdrift", 0.2), ("salcu", 0.1)],
    ids=["trotter1", "qdrift", "salcu"],
)
def test_forced_swap_patterns_match_the_dense_register(backend, eps, pattern, monkeypatch):
    # K = 5 collisions on a rank-2 thermal env, each of the 4 open swaps kept
    # (a carry) or dropped (a cut) as the pattern says
    spec = _window_spec(_WINDOW_ENVS["thermal"], k=5)
    rho = _rand_rho(np.random.default_rng(95), spec.n)
    plan = markov_plan(spec, parse_backend(backend), eps, 1.0)
    skeleton = nonmarkov_skeleton(NonMarkovSpec(spec, 0.5), plan)
    swaps = iter(_PATTERNS[pattern])
    draw = tuple(
        bool(next(swaps)) if skeleton.template.ops[index].kind == "swap" else value
        for (index, _), value in zip(skeleton.draws, skeleton.draw(np.random.default_rng(97)))
    )
    prog = skeleton.fill(draw)
    assert sum(op.kind == "swap" for op in prog.ops) == sum(_PATTERNS[pattern])
    calls = generic_path_calls(monkeypatch)
    _assert_matches_register(prog, rho, spec.env_preparers())
    assert not calls
    # the open swaps, read from the draw, run as the filled program's closed ones
    for blocks in ((None, ((1, 0),)) if prog.ancilla else (None,)):
        got = skeleton.run(draw, rho, blocks)
        want = execute(prog, rho, spec.env_preparers(), blocks)
        if not prog.ancilla:
            got, want = {None: got}, {None: want}
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[key].data, want[key].data) for key in want)


_XX, _XXX = PauliString.from_label("XX"), PauliString.from_label("XXX")
_REFUSED = {
    "two collided live slots": (
        (GateOp("prepare", slot=0), fragment_op([(_XX, 0.1)], 1), GateOp("prepare", slot=1),
         fragment_op([(_XXX, 0.1)], 1), GateOp("trace", slot=0), GateOp("trace", slot=1)),
        r"fragment while slots \[0, 1\] are live",
    ),
    "fragment while two slots are live": (
        (GateOp("prepare", slot=0), GateOp("prepare", slot=1), fragment_op([(_XXX, 0.1)], 1),
         GateOp("trace", slot=1), GateOp("trace", slot=0)),
        r"fragment while slots \[0, 1\] are live",
    ),
    "third live slot": (
        (GateOp("prepare", slot=0), GateOp("prepare", slot=1), GateOp("prepare", slot=2),
         GateOp("trace", slot=0), GateOp("trace", slot=1), GateOp("trace", slot=2)),
        r"slot 2 prepared while slots \[0, 1\] are live",
    ),
    "swap then the fresh slot traced": (
        (GateOp("prepare", slot=0), fragment_op([(_XX, 0.1)], 1), GateOp("prepare", slot=1),
         GateOp("swap", slots=(0, 1)), GateOp("trace", slot=1), GateOp("trace", slot=0)),
        r"swap \(0, 1\) outside prepare b; swap\(a, b\); trace a",
    ),
    "swap named fresh slot first": (
        (GateOp("prepare", slot=0), GateOp("prepare", slot=1), GateOp("swap", slots=(1, 0)),
         GateOp("trace", slot=0), GateOp("trace", slot=1)),
        r"swap \(1, 0\) outside prepare b; swap\(a, b\); trace a",
    ),
    "two swaps": (
        (GateOp("prepare", slot=0), GateOp("prepare", slot=1), GateOp("swap", slots=(0, 1)),
         GateOp("swap", slots=(0, 1)), GateOp("trace", slot=0), GateOp("trace", slot=1)),
        r"swap \(0, 1\) outside prepare b; swap\(a, b\); trace a",
    ),
    "swap of an unknown slot": (
        (GateOp("prepare", slot=0), GateOp("prepare", slot=1), GateOp("swap", slots=(0, 5)),
         GateOp("trace", slot=0), GateOp("trace", slot=1)),
        r"swap \(0, 5\) outside prepare b; swap\(a, b\); trace a",
    ),
    "swap at the end": (
        (GateOp("prepare", slot=0), GateOp("prepare", slot=1), GateOp("swap", slots=(0, 1))),
        r"swap \(0, 1\) outside prepare b; swap\(a, b\); trace a",
    ),
}


@pytest.mark.parametrize("shape", sorted(_REFUSED))
def test_validate_refuses_what_no_window_runs(shape):
    ops, message = _REFUSED[shape]
    with pytest.raises(ValueError, match=message):
        CircuitProgram(1, env_widths=(1, 1, 1), ops=ops)


def test_kraus_windows_keep_the_executor_guards(monkeypatch):
    spec = _window_spec(_WINDOW_ENVS["pure"])
    rho = _rand_rho(np.random.default_rng(91), spec.n)
    for backend, eps in (("qdrift", 0.2), ("salcu", 0.1)):
        plan = markov_plan(spec, parse_backend(backend), eps, 1.0)
        prog = markov_program(spec, plan, np.random.default_rng(93))
        with pytest.raises(ValueError, match="slot 0 preparer has wrong width"):
            execute(prog, rho, {u: ThermalPrep(math.inf, width=2) for u in range(len(spec.unique))})
        monkeypatch.setenv("COLLIDESIM_DENSE_LIMIT", "2")  # the joint register has 3 qubits
        with pytest.raises(DenseLimitError):
            execute(prog, rho, spec.env_preparers())
        monkeypatch.setenv("COLLIDESIM_DENSE_LIMIT", "3")
        execute(prog, rho, spec.env_preparers())
        monkeypatch.delenv("COLLIDESIM_DENSE_LIMIT")


def _xx(theta):
    return fragment_op([(_XX, theta)], 1)


_P0, _P1 = GateOp("prepare", slot=0), GateOp("prepare", slot=1)
_T0, _T1 = GateOp("trace", slot=0), GateOp("trace", slot=1)
_X1 = PauliString.from_label("X")
_SWAP01, _SWAP10 = GateOp("swap", slots=(0, 1)), GateOp("swap", slots=(1, 0))
# (ops, their windows: (prepare index or None, carrying swap index or None, fragment indices))
_WINDOWS = {
    "cut": (
        (_P0, _xx(0.3), _P1, _T0, _xx(0.4), _T1),
        ((0, None, (1,)), (2, None, (4,))),
    ),
    "one slot, collided twice": (
        (_P0, _xx(0.3), _T0, _P0, _xx(0.4), _T0),
        ((0, None, (1,)), (3, None, (4,))),
    ),
    "carry": (
        (_P0, _xx(0.3), _P1, _SWAP01, _T0, _xx(0.4), _T1),
        ((0, None, (1,)), (2, 3, (5,))),
    ),
    "an empty window that a carry follows": (
        (_P0, _xx(0.3), _P1, _T0, _P0, _SWAP10, _T1, _xx(0.4), _T0),
        ((0, None, (1,)), (2, None, ()), (4, 5, (7,))),
    ),
    "fragments before any prepare and after the last trace": (
        (fragment_op([(_X1, 0.2)], 1), _P0, _xx(0.3), _T0, fragment_op([(_X1, 0.5)], 2)),
        ((None, None, (0,)), (1, None, (2,)), (None, None, (4,))),
    ),
    "out-of-order trace": (
        (_P0, _P1, _T0, _xx(0.4), _T1),
        ((1, None, (3,)),),
    ),
    "the fresh slot traced first": (
        (_P0, _xx(0.3), _P1, _T1, _xx(0.4), _T0),
        ((0, None, (1, 4)),),
    ),
    "no fragment": ((_P0, _T0), ()),
}


@pytest.mark.parametrize("shape", sorted(_WINDOWS))
def test_validate_records_the_kraus_windows(shape):
    ops, windows = _WINDOWS[shape]
    prog = CircuitProgram(1, env_widths=(1, 1), ops=ops)
    assert prog.windows == windows
    # the windows are what a run executes
    preps = {0: _prep(np.diag([0.25, 0.75])), 1: _prep(np.array([[0.5, 0.3j], [-0.3j, 0.5]]))}
    _assert_matches_register(prog, _rand_rho(np.random.default_rng(99), 1), preps)


def test_an_open_swap_is_read_from_the_draw_and_a_closed_one_joins_its_windows():
    ops, windows = _WINDOWS["carry"]
    prog = CircuitProgram(1, env_widths=(1, 1), ops=ops)
    preps = {0: _prep(np.diag([0.25, 0.75])), 1: _prep(np.diag([0.6, 0.4]))}
    rho = _rand_rho(np.random.default_rng(101), 1)
    closed = Skeleton(prog, (), preps)
    closed.run((), rho)
    assert [(pos, [op for op, _, _ in frags]) for _, pos, frags in closed._windows] == [
        (None, [ops[1], ops[5]])
    ]
    open_swap = Skeleton(prog, ((3, None),), preps)
    for kept in (True, False):
        got = open_swap.run((kept,), rho)
        want = execute_register(open_swap.fill((kept,)), rho, preps)
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)
    assert [pos for _, pos, _ in open_swap._windows] == [None, 0]
