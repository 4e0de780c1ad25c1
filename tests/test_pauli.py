"""Pauli word algebra against dense matrix arithmetic."""

import numpy as np
import pytest

from collidesim import (
    NormalizedPauliSum,
    PauliString,
    PauliSum,
    embed_pauli,
    normalize,
)
from dense_reference import pauli_mul, pauli_sum

_I = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_SINGLE = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


def _dense_from_label(label):
    phase = {"": 1, "+": 1, "-": -1, "+i": 1j, "-i": -1j}
    body = label
    pre = ""
    while body and body[0] in "+-i":
        pre += body[0]
        body = body[1:]
    out = np.array([[phase[pre]]], dtype=np.complex128)
    for c in body:
        out = np.kron(out, _SINGLE[c])
    return out


def _random_word(rng, n):
    return PauliString(
        n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), int(rng.integers(0, 4))
    )


def test_label_round_trip_and_dense():
    for label in ("X", "-Z", "+iY", "-iXZ", "YIZX", "-IIII"):
        p = PauliString.from_label(label)
        np.testing.assert_allclose(p.to_dense(), _dense_from_label(label), atol=1e-15)
        assert PauliString.from_label(p.label()) == p


def test_label_rejects_garbage():
    for bad in ("", "+", "xz", "X Z", "++X", "iiX", "-iQ"):
        with pytest.raises(ValueError):
            PauliString.from_label(bad)


def test_mul_frozen_case():
    # X.Z = -iY and Z.X = +iY per qubit, so (XZ)(ZX) = (-i)(+i) YY = +YY
    a = PauliString.from_label("XZ")
    b = PauliString.from_label("ZX")
    assert pauli_mul(a, b).label() == "+YY"


def test_mul_matches_dense():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        a, b = _random_word(rng, n), _random_word(rng, n)
        want = a.to_dense() @ b.to_dense()
        np.testing.assert_allclose(pauli_mul(a, b).to_dense(), want, atol=1e-13)


def test_mul_associative_and_involutive():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        a, b, c = (_random_word(rng, n) for _ in range(3))
        assert pauli_mul(pauli_mul(a, b), c) == pauli_mul(a, pauli_mul(b, c))
        # bare words square to the identity
        sq = pauli_mul(a.bare(), a.bare())
        assert sq.is_identity_axes()
        assert sq.phase == 1


def test_monomial_matches_dense():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        p = _random_word(rng, n)
        perm, amps = p.monomial()
        dim = 1 << n
        u = np.zeros((dim, dim), dtype=np.complex128)
        u[perm, np.arange(dim)] = amps
        np.testing.assert_allclose(u, _dense_from_label(p.label()), atol=1e-14)


def test_to_dense_equals_kron_product_exactly():
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for phase_exp in range(4):
            for _ in range(5):
                p = PauliString(
                    n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), phase_exp
                )
                assert np.array_equal(p.to_dense(), _dense_from_label(p.label()))


def test_weight_and_hermiticity():
    p = PauliString.from_label("XIYZ")
    assert p.weight == 3
    assert p.n_y == 1
    assert p.hermitian()
    assert not PauliString.from_label("+iXIYZ").hermitian()
    assert PauliString.from_label("-iXIYZ").bare() == p


def test_embed_matches_kron():
    p = PauliString.from_label("XY")
    g = embed_pauli(p, 4, (1, 3))
    want = np.kron(np.kron(np.kron(_I, _X), _I), _Y)
    np.testing.assert_allclose(g.to_dense(), want, atol=1e-14)
    with pytest.raises(ValueError):
        embed_pauli(p, 4, (1, 1))
    with pytest.raises(ValueError):
        embed_pauli(p, 4, (1, 4))


def test_sum_canonicalization():
    x = PauliString.from_label("X")
    z = PauliString.from_label("Z")
    s = PauliSum(1, [(0.5, x), (0.25, x), (-0.3, z), (1e-15, z.bare())])
    # duplicates merge, signs move into the word phase, coefficients stay > 0
    assert len(s) == 2
    coeffs = {p.label(): c for c, p in s.terms}
    assert coeffs["+X"] == pytest.approx(0.75)
    assert coeffs["-Z"] == pytest.approx(0.3)
    assert s.total_weight == pytest.approx(1.05)
    # exact cancellation drops the term
    assert len(PauliSum(1, [(0.4, x), (-0.4, x)])) == 0


def test_sum_rejects_non_hermitian_terms():
    with pytest.raises(ValueError):
        PauliSum(1, [(0.5, PauliString.from_label("+iX"))])


def test_sum_dense_and_algebra():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        terms = [
            (float(rng.uniform(-1, 1)), _random_word(rng, n).bare())
            for _ in range(int(rng.integers(1, 6)))
        ]
        s = PauliSum(n, terms)
        want = sum(c * p.to_dense() for c, p in terms)
        np.testing.assert_allclose(s.to_dense(), want, atol=1e-13)
        np.testing.assert_allclose((2.0 * s).to_dense(), 2.0 * s.to_dense(), atol=1e-13)
        np.testing.assert_allclose((s + s).to_dense(), 2.0 * s.to_dense(), atol=1e-13)


def _per_term_dense(s):
    """The sum accumulated term by term from each word's dense matrix."""
    dim = 1 << s.n
    out = np.zeros((dim, dim), dtype=np.complex128)
    for c, p in s.terms:
        out += c * p.to_dense()
    return out


def test_sum_dense_is_the_per_term_sum_bit_for_bit():
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        s = PauliSum(
            n,
            [(float(rng.uniform(-1, 1)), _random_word(rng, n).bare())
             for _ in range(int(rng.integers(0, 25)))],
        )
        got, want = s.to_dense(), _per_term_dense(s)
        assert np.array_equal(got, want)
        # zeros keep their sign too
        assert np.array_equal(np.signbit(got.view(np.float64)), np.signbit(want.view(np.float64)))


def test_sum_text_round_trip():
    s = pauli_sum([(0.5, "XX"), (0.25, "-ZI"), (0.125, "YZ")])
    again = PauliSum.from_text("0.5 +XX\n0.25 -ZI\n0.125 +YZ\n")
    assert again.n == s.n
    assert again.terms == s.terms
    parsed = PauliSum.from_text("# comment\n0.5 XX\n\n0.3 -YZ # trailing\n")
    assert len(parsed) == 2
    with pytest.raises(ValueError):
        PauliSum.from_text("0.5 XX extra")
    with pytest.raises(ValueError):
        PauliSum.from_text("")


def test_embed_sum_offsets():
    s = pauli_sum([(0.7, "X"), (0.3, "-Z")])
    wide = s.embed(3, 1)
    want = np.kron(np.kron(_I, 0.7 * _X - 0.3 * _Z), _I)
    np.testing.assert_allclose(wide.to_dense(), want, atol=1e-14)


def test_normalize_splits_scale():
    s = pauli_sum([(0.6, "XX"), (0.9, "-ZI"), (1.5, "YY")])
    nh = normalize(s)
    assert isinstance(nh, NormalizedPauliSum)
    assert nh.beta == pytest.approx(3.0)
    assert nh.probs.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(nh.h.to_dense() * nh.beta, s.to_dense(), atol=1e-13)
    with pytest.raises(ValueError):
        normalize(PauliSum(2, []))


def test_sample_term_follows_coefficients():
    s = pauli_sum([(0.5, "X"), (0.3, "-Y"), (0.2, "Z")])
    nh = normalize(s)
    rng = np.random.default_rng(33)
    draws = nh.sample_term(rng, size=20000)
    freq = np.bincount(draws, minlength=3) / draws.size
    np.testing.assert_allclose(freq, nh.probs, atol=0.02)
