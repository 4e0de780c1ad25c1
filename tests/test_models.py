"""Benchmark model builders: Hamiltonians, jumps, thermal environments."""

import math

import numpy as np
import pytest

from collidesim import (
    CollisionSpec,
    DensityMatrix,
    ThermalPrep,
    amp_damp_jump,
    amp_damp_model,
    expectation,
    field_hamiltonian,
    lindblad_collision_spec,
    magnetization,
    tfim_hamiltonian,
    thermal_env_state,
)
from dense_reference import jump_dense, pauli_sum

_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)


def test_tfim_term_count_and_weight():
    h = tfim_hamiltonian(10, J=1.0, h=0.1)
    assert len(h) == 19  # 9 bonds + 10 fields
    assert h.total_weight == pytest.approx(10.0)
    ring = tfim_hamiltonian(4, J=1.0, h=0.1, periodic=True)
    assert len(ring) == 8
    with pytest.raises(ValueError):
        tfim_hamiltonian(1)


def test_tfim_dense_small():
    h = tfim_hamiltonian(2, J=1.0, h=0.5)
    z = np.diag([1.0, -1.0])
    want = -np.kron(z, z) - 0.5 * (np.kron(_X, np.eye(2)) + np.kron(np.eye(2), _X))
    np.testing.assert_allclose(h.to_dense(), want, atol=1e-14)
    f = field_hamiltonian(1, 0.3)
    np.testing.assert_allclose(f.to_dense(), -0.3 * _X, atol=1e-15)


def test_magnetization_normalized():
    obs = magnetization(4)
    assert obs.norm == pytest.approx(1.0)
    all_up = DensityMatrix.basis(4, 0)
    all_down = DensityMatrix.basis(4, 0b1111)
    assert expectation(all_up, obs) == pytest.approx(1.0)
    assert expectation(all_down, obs) == pytest.approx(-1.0)


def test_amp_damp_interaction_is_exchange():
    # sqrt(g)(sigma+_site sigma-_env + h.c.) on system qubit 0, env appended
    g = 0.49
    inter = amp_damp_jump(0, g, 1).interaction
    sp = np.array([[0, 0], [1, 0]], dtype=np.complex128)  # |1><0|
    sm = sp.T.conj()
    want = math.sqrt(g) * (np.kron(sp, sm) + np.kron(sm, sp))
    np.testing.assert_allclose(inter.to_dense(), want, atol=1e-14)
    # term for term, (sqrt(g)/2)(X_s X_env + Y_s Y_env) on every site
    c = math.sqrt(g) / 2.0
    for s, label in ((0, "{}II{}"), (1, "I{}I{}"), (2, "II{}{}")):
        want = pauli_sum([(c, label.format("X", "X")), (c, label.format("Y", "Y"))])
        assert amp_damp_jump(s, g, 3).interaction.terms == want.terms
    with pytest.raises(ValueError):
        amp_damp_jump(2, g, 2)
    with pytest.raises(ValueError):
        amp_damp_jump(0, -g, 2)


def test_amp_damp_jump_site_placement():
    j = amp_damp_jump(1, 1.0, 2)
    want = np.kron(np.eye(2), np.array([[0, 1], [0, 0]]))
    np.testing.assert_allclose(jump_dense(j), want, atol=1e-15)


def test_thermal_env_state_values():
    np.testing.assert_allclose(
        thermal_env_state(math.log(3.0)).data, np.diag([0.75, 0.25]), atol=1e-14
    )
    np.testing.assert_allclose(thermal_env_state(math.inf).data, np.diag([1.0, 0.0]), atol=0)
    np.testing.assert_allclose(thermal_env_state(0.0).data, np.eye(2) / 2, atol=1e-15)
    with pytest.raises(ValueError):
        thermal_env_state(-0.1)


def test_thermal_prep_width_and_pickle():
    import pickle

    prep = ThermalPrep(math.log(3.0), width=2)
    state = prep()
    assert state.n == 2
    np.testing.assert_allclose(state.data, np.kron(np.diag([0.75, 0.25]), np.diag([0.75, 0.25])), atol=1e-14)
    again = pickle.loads(pickle.dumps(prep))
    np.testing.assert_allclose(again().data, state.data, atol=0)


def test_amp_damp_model_shapes():
    model = amp_damp_model(3, J=1.0, h=0.2, gamma=0.5)
    assert model.n == 3
    assert len(model.jumps) == 3
    for site, jump in enumerate(model.jumps):
        assert jump.interaction.n == 4
        # jump operator acts on its own site only: sqrt(gamma) sigma^- there
        want = np.eye(1)
        for q in range(3):
            want = np.kron(want, np.array([[0, math.sqrt(0.5)], [0, 0]]) if q == site else np.eye(2))
        np.testing.assert_allclose(jump_dense(jump), want, atol=0)
    single = amp_damp_model(1, h=0.3)
    assert len(single.system_h) == 1


def test_benchmark_spec_is_consistent():
    model = amp_damp_model(2, J=1.0, h=0.1, gamma=1.0)
    spec = lindblad_collision_spec(model, t=1.0, nu=3)
    assert isinstance(spec, CollisionSpec)
    assert spec.n == model.n
    assert spec.K == 2 * 3
    assert spec.dt == pytest.approx(1.0 / 3.0)
    # the m collisions cycle: collision j uses the (j mod m)-th interaction
    assert spec.collisions[0] is spec.collisions[2]
    assert spec.collisions[1] is spec.collisions[3]
    assert spec.collisions[0] is not spec.collisions[1]
