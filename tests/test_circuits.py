"""Window IR: execution against dense oracles, validation, resource accounting."""

import math
import pickle
import re
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
    Fragment,
    NonMarkovSpec,
    PauliString,
    ResourceReport,
    ThermalPrep,
    Window,
    count_resources,
    execute,
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


def test_execute_one_collision_matches_dense():
    rng = np.random.default_rng(31)
    rho = _rand_rho(rng, 1)
    env = np.diag([0.25, 0.75]).astype(np.complex128)
    theta = 0.47
    xx = PauliString.from_label("XX")
    prog = CircuitProgram(1, ops=(Window(0, 1, (Fragment([(xx, theta)]),)),))
    got = execute(prog, rho, {0: _prep(env)})
    u = expm(-1j * theta * np.kron(_X, _X))
    joint = u @ np.kron(rho.data, env) @ u.conj().T
    want = np.einsum("aibi->ab", joint.reshape(2, 2, 2, 2))
    np.testing.assert_allclose(got.data, want, atol=1e-12)


_PURE0 = {0: _prep(np.diag([1.0, 0.0]))}


def _controlled_x():
    """An ancilla program: X on the system where the ancilla reads 1, the
    env |0> left alone."""
    frag = Fragment([(PauliString.from_label("XI"), None)], 1, polarity=1)
    return CircuitProgram(1, ancilla=True, ops=(Window(0, 1, (frag,)),))


def test_execute_ancilla_controls():
    rng = np.random.default_rng(35)
    rho = _rand_rho(rng, 1)
    prog = _controlled_x()
    blocks = execute(prog, rho, _PURE0)
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
    alone = execute(prog, rho, _PURE0, blocks=((1, 0),))
    assert set(alone) == {(1, 0)}
    np.testing.assert_allclose(alone[1, 0].data, _X @ rho.data / 2, atol=1e-15)
    with pytest.raises(ValueError):  # blocks need an ancilla
        execute(CircuitProgram(1), rho, blocks=((1, 0),))


@pytest.mark.parametrize("key", [(2, 7), (1, 2), (0,), (1, 0, 1)], ids=str)
def test_execute_refuses_a_block_that_is_no_pair_of_ancilla_values(key):
    rho = _rand_rho(np.random.default_rng(36), 1)
    prog = _controlled_x()
    for run in (lambda: execute(prog, rho, _PURE0, blocks=((1, 0), key)),
                lambda: Skeleton(prog, (), _PURE0).run((), rho, (key,))):
        with pytest.raises(ValueError, match=rf"block {re.escape(repr(key))} is not an \(a, b\) pair"):
            run()


def test_execute_refuses_a_program_without_its_preparers():
    rho = _rand_rho(np.random.default_rng(37), 1)
    prog = _controlled_x()
    for run in (lambda: execute(prog, rho), lambda: Skeleton(prog, ()).run((), rho)):
        with pytest.raises(ValueError, match="no env preparer for key 0"):
            run()


def test_execute_refuses_a_preparer_key_it_lacks():
    rho = _rand_rho(np.random.default_rng(38), 1)
    xx = Fragment([(PauliString.from_label("XX"), 0.2)])
    prog = CircuitProgram(1, ops=(Window(0, 1, (xx,)), Window(3, 1, (xx,))))
    for preps in ({}, _PURE0, {3: _PURE0[0]}):
        missing = 3 if 0 in preps else 0
        for run in (lambda: execute(prog, rho, preps), lambda: Skeleton(prog, (), preps).run((), rho)):
            with pytest.raises(ValueError, match=f"no env preparer for key {missing}"):
                run()


def test_execute_swap_moves_env_state():
    # prepare |1> in the first window and |0> in the second, which either
    # carries the first env (its swap kept) or collides its own, and flip the
    # system iff the env it collides holds |1>: the carry hands |1> on and the
    # flip fires. The CNOT from the env to the system is
    # e^{i pi/4 (I - Z_c)(I - X_t)} = e^{-i pi/4 Z_c} e^{-i pi/4 X_t} e^{i pi/4 X_t Z_c}
    # up to a global phase.
    cnot = Fragment([
        (PauliString.from_label("IZ"), math.pi / 4),
        (PauliString.from_label("XI"), math.pi / 4),
        (PauliString.from_label("XZ"), -math.pi / 4),
    ])
    rho = DensityMatrix.basis(1, 0)
    preps = {0: _prep(np.diag([0.0, 1.0])), 1: _prep(np.diag([1.0, 0.0]))}
    for carry, flipped in ((True, 1), (False, 0)):
        prog = CircuitProgram(1, ops=(Window(0, 1), Window(1, 1, (cnot,), carry=carry)))
        got = execute(prog, rho, preps)
        np.testing.assert_allclose(got.data, execute_register(prog, rho, preps), atol=1e-12)
        np.testing.assert_allclose(got.data, DensityMatrix.basis(1, flipped).data, atol=1e-12)


def test_validate_rejects_bad_programs():
    x = PauliString.from_label("X")
    xx = PauliString.from_label("XX")
    with pytest.raises(ValueError):  # ancilla op without ancilla
        CircuitProgram(1, ops=(Window(0, 1, (Fragment([(xx, None)], 1, polarity=1),)),))
    with pytest.raises(ValueError):  # a polarity is an ancilla value
        CircuitProgram(1, ancilla=True, ops=(Window(0, 1, (Fragment([(xx, None)], 1, polarity=2),)),))
    with pytest.raises(ValueError):  # fragment narrower than the live register
        CircuitProgram(1, ops=(Window(0, 1, (Fragment([(x, 0.1)]),)),))
    with pytest.raises(ValueError):  # fragment wider than the live register
        CircuitProgram(1, ops=(Window(0, 1, (Fragment([(PauliString.from_label("XXX"), None)]),)),))


_BAD_CARRIES = {
    "on the first window": (Window(0, 1, carry=True),),
    "into a wider env": (Window(0, 1), Window(1, 2, carry=True)),
    "into a narrower env": (Window(0, 2), Window(1, 2), Window(1, 1, carry=True)),
}


@pytest.mark.parametrize("shape", sorted(_BAD_CARRIES))
def test_validate_refuses_a_carry_with_no_env_of_its_width(shape):
    with pytest.raises(ValueError, match="a carry needs a previous window of its env width"):
        CircuitProgram(1, ops=_BAD_CARRIES[shape])
    # a carry between envs of one width, after a cut between two widths, runs
    CircuitProgram(1, ops=(Window(0, 1), Window(1, 2), Window(1, 2, carry=True)))


def test_describe_is_stable():
    prog = CircuitProgram(
        2,
        ancilla=True,
        ops=(
            Window(0, 1, (Fragment([(PauliString.from_label("XIZ"), 0.25)], 1, polarity=0),)),
            Window(1, 1, (Fragment([(PauliString.from_label("IYX"), None)]),), carry=True),
        ),
    )
    assert describe(prog).splitlines() == [
        "program system=2 ancilla=1",
        "window prep=0 width=1",
        "  cfragment(anc=0) 1 x [+XIZ 0.25]",
        "window prep=1 width=1 carried",
        "  fragment 1 x [+IYX]",
    ]


def test_count_resources_frozen_costs():
    # the words are padded with identities to the live register, which cost nothing
    z3 = PauliString.from_label("ZZZII")
    xx = PauliString.from_label("IIIXX")
    prog = CircuitProgram(
        3,
        ancilla=True,
        ops=(
            Window(0, 2, (  # 2 cnots, 1 prep
                Fragment([(z3, 0.1)]),  # weight 3: 4 cnots, 1 rot
                Fragment([(xx, 0.2)], 1, polarity=1),  # 2(w-1)+2 = 4 cnots, 2 rots
                Fragment([(PauliString(5, 0, 0), 0.3)], 1, polarity=1),  # phase kick: 1 rot
                Fragment([(xx, None)]),  # 1 pauli, 0 cnots
                Fragment([(xx, None)], 1, polarity=1),  # 1 pauli, 2 cnots
            )),
            # 2 cnots, 1 prep; its carry swaps 3 per qubit * width 2 = 6 cnots
            Window(1, 2, carry=True),
        ),
    )
    rep = count_resources(prog)
    assert rep.cnot_count == 2 + 2 + 4 + 4 + 0 + 0 + 2 + 6
    assert rep.rotation_count == 1 + 2 + 1
    assert rep.pauli_gate_count == 2
    assert rep.env_preps == 2
    assert rep.depth_proxy == rep.cnot_count + rep.rotation_count
    assert rep.as_tuple() == count_items(prog)
    assert ResourceReport.FIELDS == (
        "cnot_count",
        "rotation_count",
        "pauli_gate_count",
        "depth_proxy",
        "env_preps",
    )


def test_fragment_op_is_small_and_validated():
    xx = PauliString.from_label("XX")
    op = Fragment([(xx, 0.25), (PauliString.from_label("ZI"), -0.5)], 2)
    assert op.step[0] == (xx, 0.25) and op.steps == 2 and op.polarity is None and op.picks is None
    assert type(op.step) is RotationTable and op.step.n == 2
    # a copy holds an equal table of its own
    copy = pickle.loads(pickle.dumps(op))
    assert copy.step is not op.step and (copy.step.n, copy.step.items) == (op.step.n, op.step.items)
    assert replace(copy, step=op.step) == op and hash(op) == hash(Fragment(op.step, 2))
    prog = CircuitProgram(1, ops=(Window(0, 1, (op,)),))
    assert describe(prog).splitlines()[2] == "  fragment 2 x [+XX 0.25, +ZI -0.5]"
    # 2 steps x (XX: 2 cnots + 1 rot, ZI: 0 cnots + 1 rot), plus the preparation
    assert count_resources(prog).as_tuple() == (2 + 2 * 2, 2 * 2, 0, 6 + 4, 1)
    # an item is checked as it enters the fragment's table
    with pytest.raises(ValueError):
        Fragment([(xx, 0.1), (PauliString.from_label("X"), 0.1)])  # axis width
    with pytest.raises(ValueError):
        Fragment([(PauliString.from_label("-XX"), 0.1)])  # phased axis
    for bad in (
        Fragment(RotationTable(1, [(PauliString.from_label("X"), 0.1)])),  # table width
        Fragment([(xx, 0.1)], 0),  # no repetitions
        Fragment([]),  # empty step
    ):
        with pytest.raises(ValueError):
            CircuitProgram(1, ops=(Window(0, 1, (bad,)),))


@pytest.mark.parametrize("polarity", [0, 1])
def test_controlled_fragment_on_permuted_targets_matches_gates(polarity):
    rng = np.random.default_rng(43)
    # whole-register words on (system 0, system 1, the env's two qubits) that
    # leave system 1 alone
    step = (
        (PauliString.from_label("YIZX"), 0.31),
        (PauliString.from_label("-iXIYZ"), None),  # phased word
        (PauliString.from_label("IIZZ"), -0.2),  # diagonal axis
        (PauliString.from_label("-ZIII"), None),  # phased diagonal word
        (PauliString.from_label("YIXY"), 0.17),
    )
    picks = range(len(step))
    frag = Fragment(step, 1, polarity, picks=picks)

    def program(gates):
        return CircuitProgram(2, ancilla=True, ops=(Window(0, 2, gates),))

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
        f"  cfragment(anc={polarity}) 1 x [+YIZX 0.31, -iXIYZ, +IIZZ -0.2, -ZIII, +YIXY 0.17]"
    )
    with pytest.raises(ValueError):  # a sampled fragment is one draw
        program((Fragment(step, 2, 1, picks=picks),))


def _table_program(step, picks, polarity=None, steps=1):
    frag = Fragment(step, steps, polarity, picks=picks)
    return CircuitProgram(1, ancilla=polarity is not None, ops=(Window(0, 1, (frag,)),))


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
        _table_program(table, (0,), steps=2)


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
        window = Window(0, 1, (
            Fragment(table, 1, on, picks=(0, 2, 1, 0)),
            Fragment(step, 3),
            Fragment(table, 1, on, picks=(1, 1, 2)),
            Fragment(step, 2, off),
        ))
        prog = CircuitProgram(1, ancilla=ancilla, ops=(window,) * 2)
        calls = generic_path_calls(monkeypatch)
        _assert_matches_register(prog, rho, preps)
        assert not calls


def test_non_markov_and_out_of_order_programs_run_as_kraus_windows(monkeypatch):
    spec = _window_spec(_WINDOW_ENVS["thermal"])
    rho = _rand_rho(np.random.default_rng(87), spec.n)
    plan = markov_plan(spec, parse_backend("trotter1"), 0.2, 1.0)
    nonmarkov = nonmarkov_program(NonMarkovSpec(spec, 1.0), plan, np.random.default_rng(88))
    assert any(w.carry for w in nonmarkov.ops)
    xx = PauliString.from_label("XX")
    # the env prepared first is traced uncollided and the second collides:
    # an empty window, then a cut
    out_of_order = CircuitProgram(1, ops=(Window(0, 1), Window(1, 1, (Fragment([(xx, 0.6)]),))))
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
        bool(next(swaps)) if k is None else value
        for ((_, k), _), value in zip(skeleton.draws, skeleton.draw(np.random.default_rng(97)))
    )
    prog = skeleton.fill(draw)
    assert [w.carry for w in prog.ops] == [False] + [bool(v) for v in _PATTERNS[pattern]]
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


def test_kraus_windows_keep_the_executor_guards(monkeypatch):
    spec = _window_spec(_WINDOW_ENVS["pure"])
    rho = _rand_rho(np.random.default_rng(91), spec.n)
    for backend, eps in (("qdrift", 0.2), ("salcu", 0.1)):
        plan = markov_plan(spec, parse_backend(backend), eps, 1.0)
        prog = markov_program(spec, plan, np.random.default_rng(93))
        with pytest.raises(ValueError, match="env preparer 0 has wrong width"):
            execute(prog, rho, {u: ThermalPrep(math.inf, width=2) for u in range(len(spec.unique))})
        monkeypatch.setenv("COLLIDESIM_DENSE_LIMIT", "2")  # the joint register has 3 qubits
        with pytest.raises(DenseLimitError):
            execute(prog, rho, spec.env_preparers())
        monkeypatch.setenv("COLLIDESIM_DENSE_LIMIT", "3")
        execute(prog, rho, spec.env_preparers())
        monkeypatch.delenv("COLLIDESIM_DENSE_LIMIT")


_XX = PauliString.from_label("XX")


def _xx(theta):
    return Fragment([(_XX, theta)])


# hand-built window programs on a one-qubit system and one-qubit envs
_WINDOWS = {
    "cut": (Window(0, 1, (_xx(0.3),)), Window(1, 1, (_xx(0.4),))),
    "one slot, collided twice": (Window(0, 1, (_xx(0.3),)), Window(0, 1, (_xx(0.4),))),
    "carry": (Window(0, 1, (_xx(0.3),)), Window(1, 1, (_xx(0.4),), carry=True)),
    "an empty window that a carry follows": (
        Window(0, 1, (_xx(0.3),)), Window(1, 1), Window(0, 1, (_xx(0.4),), carry=True),
    ),
    "no fragment": (Window(0, 1),),
    # the env prepared first is traced uncollided and the second collides
    "out-of-order trace": (Window(0, 1), Window(1, 1, (_xx(0.4),))),
}


@pytest.mark.parametrize("shape", sorted(_WINDOWS))
def test_validate_records_the_kraus_windows(shape):
    windows = _WINDOWS[shape]
    prog = CircuitProgram(1, ops=windows)
    assert prog.ops == windows
    assert count_resources(prog).as_tuple() == count_items(prog)
    # the windows are what a run executes
    preps = {0: _prep(np.diag([0.25, 0.75])), 1: _prep(np.array([[0.5, 0.3j], [-0.3j, 0.5]]))}
    _assert_matches_register(prog, _rand_rho(np.random.default_rng(99), 1), preps)


def test_an_open_swap_is_read_from_the_draw_and_a_closed_one_joins_its_windows():
    windows = _WINDOWS["carry"]
    prog = CircuitProgram(1, ops=windows)
    preps = {0: _prep(np.diag([0.25, 0.75])), 1: _prep(np.diag([0.6, 0.4]))}
    rho = _rand_rho(np.random.default_rng(101), 1)
    closed = Skeleton(prog, (), preps)
    closed.run((), rho)
    assert [(pos, [frag for frag, _, _ in frags]) for _, pos, frags in closed._windows] == [
        (None, [windows[0].fragments[0], windows[1].fragments[0]])
    ]
    open_swap = Skeleton(prog, (((1, None), None),), preps)
    for kept in (True, False):
        got = open_swap.run((kept,), rho)
        filled = open_swap.fill((kept,))
        assert [w.carry for w in filled.ops] == [False, kept]
        want = execute_register(filled, rho, preps)
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)
    assert [pos for _, pos, _ in open_swap._windows] == [None, 0]
