"""Compilers for one collision unitary e^{-i beta dt Hbar}.

All routes consume a NormalizedPauliSum Hbar = sum_l p_l P_l (p_l > 0,
sum = 1, each P_l a signed Pauli word) plus the scale beta and duration dt.
Rotation emission folds a word's -1 sign into the angle so every rotation
axis is a bare (+1 phase) word.

Routes:

  trotter order 1      steps repetitions of prod_l e^{-i (beta dt/steps) p_l P_l}
  trotter order 2k     Suzuki recursion, step schedule length 2*5^(k-1)*L
  qdrift               N gates e^{-i (beta dt/N) P_l}, l ~ p i.i.d.
  sampled LCU          r segments, each a Hadamard-test-ready product
                       (-i)^k P_l1 ... P_lk e^{-i phi_k P_m} drawn so that the
                       mean over draws is Utilde / alpha_total, with Utilde the
                       degree-(q+1) Taylor truncation of a segment, powered r.

Step/length/order choosers implement the matching worst-case formulas; the
empirical strategy instead doubles the step count until the dense product is
within eps_prime of the exact exponential.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError
from .pauli import PauliString, pauli_mul

_EMPIRICAL_STEP_CAP = 1 << 22


def _term_sign(p):
    return 1.0 if p.phase_exp == 0 else -1.0


def rotation_dense(axis, angle):
    """Dense e^{-i angle P} for a bare Pauli word."""
    dim = 1 << axis.n
    return math.cos(angle) * np.eye(dim, dtype=np.complex128) - (
        1j * math.sin(angle)
    ) * axis.to_dense()


def rotations_dense(rotations, n):
    """Dense product of rotations applied in list order (entry 0 first)."""
    out = np.eye(1 << n, dtype=np.complex128)
    for axis, angle in rotations:
        out = rotation_dense(axis, angle) @ out
    return out


# ------------------------------------------------------------ Trotter / Suzuki


@lru_cache(maxsize=64)
def _suzuki_fractions(k, n_terms):
    """Per-step schedule [(term index, fraction of the step angle)] for order 2k."""
    if k == 1:
        fwd = [(l, 0.5) for l in range(n_terms)]
        return tuple(fwd + fwd[::-1])
    u = 1.0 / (4.0 - 4.0 ** (1.0 / (2 * k - 1)))
    inner = _suzuki_fractions(k - 1, n_terms)
    outer = [(l, f * u) for l, f in inner]
    middle = [(l, f * (1.0 - 4.0 * u)) for l, f in inner]
    return tuple(outer * 2 + middle + outer * 2)


def trotter_step(nh, beta, dt, steps, order=1):
    """One step of the product formula: a tuple of (bare axis, angle) in
    application order; the full formula applies it `steps` times."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    lam = beta * dt / steps
    if order == 1:
        schedule = tuple((l, 1.0) for l in range(len(nh)))
    elif order >= 2 and order % 2 == 0:
        schedule = _suzuki_fractions(order // 2, len(nh))
    else:
        raise ValueError(f"order must be 1 or even, got {order}")
    step = []
    for l, frac in schedule:
        c, p = nh.term(l)
        step.append((p.bare(), lam * c * frac * _term_sign(p)))
    return tuple(step)


def trotter_rotations(nh, beta, dt, steps, order=1):
    """[(bare axis, angle)] in application order for the full product formula."""
    return list(trotter_step(nh, beta, dt, steps, order)) * steps


@lru_cache(maxsize=32)
def step_unitary(step, steps):
    """Dense rotations_dense(step)^steps, memoized on the schedule's value.

    Shared by the empirical step search and program execution, so a certified
    product is not rebuilt when its fragment runs. The result is read-only.
    """
    u = np.linalg.matrix_power(rotations_dense(step, step[0][0].n), steps)
    u.setflags(write=False)
    return u


def choose_trotter_steps(nh, beta, dt, order, eps_prime, strategy="worst_case"):
    """Step count for a target dense error eps_prime.

    worst_case: ceil(c * (beta dt)^(1+1/p) * (1/eps')^(1/p)) with p = order and
    documented constants c = 0.5 for order 1 (first-order commutator bound for
    a unit-weight sum), c = 1.0 otherwise. empirical: smallest power of two
    whose dense product is within eps_prime of the exact exponential.
    """
    if eps_prime <= 0:
        raise ValueError("eps_prime must be > 0")
    tau = beta * dt
    if tau == 0:
        return 1
    if strategy == "worst_case":
        c = 0.5 if order == 1 else 1.0
        return max(1, math.ceil(c * tau ** (1.0 + 1.0 / order) * (1.0 / eps_prime) ** (1.0 / order)))
    if strategy != "empirical":
        raise ValueError(f"unknown strategy {strategy!r}")
    from .oracles import spectral_norm, unitary_exact

    target = unitary_exact(nh.h, tau)
    steps = 1
    while steps <= _EMPIRICAL_STEP_CAP:
        product = step_unitary(trotter_step(nh, beta, dt, steps, order), steps)
        if spectral_norm(target - product) <= eps_prime:
            return steps
        steps *= 2
    raise NumericalError(f"no step count up to {_EMPIRICAL_STEP_CAP} reaches {eps_prime}")


# ----------------------------------------------------------------- qDRIFT


def choose_qdrift_length(beta, dt, eps_prime):
    """N = ceil(2 (beta dt)^2 / eps_prime), at least 1."""
    if eps_prime <= 0:
        raise ValueError("eps_prime must be > 0")
    return max(1, math.ceil(2.0 * (beta * dt) ** 2 / eps_prime))


def qdrift_rotations(nh, beta, dt, length, rng):
    """[(bare axis, angle)]: length draws l ~ p, each rotated by beta dt/N."""
    if length < 1:
        raise ValueError("length must be >= 1")
    base = beta * dt / length
    picks = np.atleast_1d(nh.sample_term(rng, size=length))
    out = []
    for l in picks:
        _, p = nh.term(int(l))
        out.append((p.bare(), base * _term_sign(p)))
    return out


# ------------------------------------------------------------- sampled LCU


def taylor_tail(x, order):
    """sum_{k > order} x^k / k! with an e^x remainder bound folded in."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return 0.0
    term = 1.0
    for i in range(1, order + 2):
        term *= x / i
    acc = 0.0
    k = order + 1
    while k < order + 200:
        acc += term
        term *= x / (k + 1)
        k += 1
        if term < acc * 1e-18 + 1e-300:
            break
    return acc + term * math.exp(x)


def choose_taylor_order(tau, r, eps_prime):
    """Smallest even q with r * tail(tau/r, q) <= eps_prime."""
    if eps_prime <= 0:
        raise ValueError("eps_prime must be > 0")
    x = tau / r
    q = 0
    while r * taylor_tail(x, q) > eps_prime:
        q += 2
        if q > 400:
            raise NumericalError("Taylor order selection did not converge")
    return q


@dataclass(frozen=True)
class LcuParams:
    """Segmentation of one collision unitary: e^{-i tau Hbar} ~ (segment)^r."""

    tau: float
    r: int
    q: int
    c_r: float
    weights: tuple
    alpha_segment: float
    alpha_total: float

    @property
    def x(self):
        return self.tau / self.r


def segment_weights(tau, r, q):
    """w_k = x^k/k! * sqrt(1 + (x/(k+1))^2) for even k <= q, x = tau/r."""
    x = tau / r
    out = []
    for k in range(0, q + 1, 2):
        out.append(x**k / math.factorial(k) * math.sqrt(1.0 + (x / (k + 1)) ** 2))
    return tuple(out)


def choose_lcu_params(tau, k_collisions, eps_prime, c_r=1.0, r_override=None, q_override=None):
    """Pick (r, q) for a collision of angle tau inside a K-collision run.

    r = max(ceil(c_r tau^2 K), ceil(tau) + 1) keeps the per-segment angle
    below 1 and the total weight alpha_total = alpha_segment^r <= e^{tau^2/r}
    bounded by a constant when r ~ tau^2 K. q is the smallest even Taylor
    order with r * tail(tau/r, q) <= eps_prime.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if r_override is not None:
        r = int(r_override)
    else:
        r = max(math.ceil(c_r * tau * tau * k_collisions), math.ceil(tau) + 1)
    if r < 1:
        raise ValueError("r must be >= 1")
    if tau / r >= 1.0:
        raise ValueError(f"per-segment angle tau/r = {tau / r} must be < 1")
    q = int(q_override) if q_override is not None else choose_taylor_order(tau, r, eps_prime)
    if q % 2 or q < 0:
        raise ValueError("q must be a nonnegative even integer")
    weights = segment_weights(tau, r, q)
    alpha_segment = float(sum(weights))
    return LcuParams(
        tau=float(tau),
        r=r,
        q=q,
        c_r=float(c_r),
        weights=weights,
        alpha_segment=alpha_segment,
        alpha_total=alpha_segment**r,
    )


@lru_cache(maxsize=1024)
def _k_distribution(weights):
    probs = np.array(weights, dtype=np.float64)
    return probs / probs.sum()


@dataclass(frozen=True)
class Segment:
    """One sampled segment: word then rotation, applied rotation-first."""

    k: int
    word: PauliString  # (-i)^k P_l1 ... P_lk with all term signs folded in
    axis: PauliString  # bare rotation axis
    angle: float  # sign-folded phi_k = arctan(x/(k+1))

    def to_dense(self):
        return self.word.to_dense() @ rotation_dense(self.axis, self.angle)


@dataclass(frozen=True)
class SampledUnitary:
    n: int
    segments: tuple

    def to_dense(self):
        out = np.eye(1 << self.n, dtype=np.complex128)
        for seg in self.segments:
            out = seg.to_dense() @ out
        return out


def lcu_sample(nh, params, rng):
    """Draw one unitary whose mean over draws is lcu_expected_dense / alpha_total."""
    x = params.x
    k_probs = _k_distribution(params.weights)
    ks = 2 * np.atleast_1d(rng.choice(len(k_probs), size=params.r, p=k_probs))
    n_draws = int(ks.sum()) + params.r
    picks = iter(np.atleast_1d(nh.sample_term(rng, size=n_draws)))
    segments = []
    for k in (int(v) for v in ks):
        word = PauliString.identity(nh.n).with_phase_exp(3 * k)  # (-i)^k
        for _ in range(k):
            _, p = nh.term(int(next(picks)))
            word = pauli_mul(word, p)
        _, pm = nh.term(int(next(picks)))
        phi = math.atan(x / (k + 1))
        segments.append(Segment(k, word, pm.bare(), phi * _term_sign(pm)))
    return SampledUnitary(nh.n, tuple(segments))


def lcu_expected_dense(nh, params):
    """Utilde: the degree-(q+1) Taylor truncation of a segment, powered r."""
    h = nh.h.to_dense()
    a = (-1j * params.x) * h
    dim = h.shape[0]
    seg = np.eye(dim, dtype=np.complex128)
    power = np.eye(dim, dtype=np.complex128)
    fact = 1.0
    for j in range(1, params.q + 2):
        power = power @ a
        fact *= j
        seg = seg + power / fact
    return np.linalg.matrix_power(seg, params.r)


def lcu_enumerate_dense(nh, params, cap=200_000):
    """Utilde by literal enumeration of every (k, l_1..l_k, m) tuple.

    Exponential in q; guarded by cap. Exists to pin the sampled decomposition
    (weights times unitaries) against the factorized Taylor form.
    """
    from itertools import product as iproduct

    terms = [(c, p.to_dense()) for c, p in nh.h.terms]
    n_terms = len(terms)
    work = sum(n_terms ** (k + 1) for k in range(0, params.q + 1, 2))
    if work > cap:
        raise ValueError(f"enumeration of {work} tuples exceeds cap {cap}")
    dim = 1 << nh.n
    eye = np.eye(dim, dtype=np.complex128)
    x = params.x
    seg = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(0, params.q + 1, 2):
        coeff = x**k / math.factorial(k)
        a = x / (k + 1)
        for combo in iproduct(range(n_terms), repeat=k):
            weight = coeff * math.prod(terms[i][0] for i in combo)
            mat = eye
            for i in combo:
                mat = mat @ terms[i][1]
            mat = ((-1j) ** k) * mat
            for m in range(n_terms):
                seg += weight * terms[m][0] * (mat @ (eye - 1j * a * terms[m][1]))
    return np.linalg.matrix_power(seg, params.r)
