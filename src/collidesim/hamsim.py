"""Compilers for one collision unitary e^{-i tau Hbar}.

All routes consume one target: a NormalizedPauliSum Hbar = sum_l p_l P_l
(p_l > 0, sum = 1, each P_l a signed Pauli word) and the angle tau >= 0
(a collision's tau is beta dt, its total weight times its duration; see
collisions.CollisionSpec.joint). Rotation emission folds a word's -1 sign
into the angle so every rotation axis is a bare (+1 phase) word.

Routes:

  trotter order 1      steps repetitions of prod_l e^{-i (tau/steps) p_l P_l}
  trotter order 2k     Suzuki recursion, step schedule length 2*5^(k-1)*L
  qdrift               N gates e^{-i (tau/N) P_l}, l ~ p i.i.d.
  sampled LCU          r segments, each a Hadamard-test-ready product
                       (-i)^k P_l1 ... P_lk e^{-i phi_k P_m} drawn so that the
                       mean over draws is Utilde / alpha_total, with Utilde the
                       degree-(q+1) Taylor truncation of a segment, powered r.

Step/length/order choosers implement the matching worst-case formulas, each
a function of tau alone; the empirical strategy instead doubles the step
count until the dense product is within eps_prime of the exact exponential,
and keeps the count it finds on the normalized sum, so later plans on the
same sum do not search again.

Every schedule is a RotationTable, walked in order (a Trotter step) or by a
draw's picks, and rotations_dense is the one builder of its dense unitary
on the collision's live register, the system and its environment. Most
rotations cost it two numpy passes: it carries their cosines in a scalar
factor and adds -i tan(angle) times the flipped rows. A sampled fragment
inside a collision is built only on the columns its environment's state can
feed, U (I x E) with E the state's eigen-columns sqrt(p_b) e_b, by starting
the product from I x E instead of the identity (circuits).

A sampled draw is a Draw: picks, an index tuple into its collision's
RotationTable. The qDRIFT table holds one rotation per term; the LCU table
holds the rotation of every (segment order, term) pair, then each word as
it is first drawn. Tables are kept on the normalized sum (its `derived`
dict), per compiler parameters, for as long as the sum lives, so all draws
of an estimate share them; qdrift_table and lcu_table name a table before
any draw, as a program skeleton needs, and qdrift_picks and lcu_picks draw
its picks, as an int array, with no table lookup per draw. rotations_dense
keeps each entry's dense action on a table walked by picks. A table's kept
actions write one buffer, so a table is used by one thread at a time;
estimates run in parallel as processes. lcu_word_moments gives the exact
law of a segment's word, which an LCU draw's expected price reads, through
pauli_times, the one word product that lcu_picks also takes.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._draws import cdf_of, draw_index
from .errors import NumericalError
from .pauli import PauliString
from .states import _axis_action_rowform

_EMPIRICAL_STEP_CAP = 1 << 22
_EXPAND_DIM = 32  # tables up to this dimension hold full d x c row scales
_EXPAND_ENTRIES = 64  # ... for their first entries: at most 1 MiB per table at d = 32
_WORD_KEYS = 1 << 16  # (x, z, phase) keys past which lcu_word_moments refuses a word law
_FOLD_BELOW = 1e-150  # rotations_dense multiplies its cosine product in below this
_DIAGONAL, _WORD, _TAN, _SIN = "diagonal", "word", "tan", "sin"  # kinds of item action


def _term_sign(p):
    return 1.0 if p.phase_exp == 0 else -1.0


class RotationTable:
    """Schedule items, (bare axis, angle) or (word, None), in a fixed order:
    one product-formula step, or the entries a collision's draws pick from.

    Append-only, so the picks of a draw stay valid as the table grows. Each
    entry is checked as it enters: its width is the table's and a rotation
    axis has phase +1. `costs` keeps the entries' gate prices by control
    flag (circuits prices them), and rotations_dense keeps picked actions.
    """

    def __init__(self, n, items=()):
        self.n = n
        self.items = []
        self.costs = {}
        self.work = None
        for item in items:
            self.append(item)

    def append(self, item):
        """Add an item; returns its index."""
        axis, angle = item
        if axis.n != self.n:
            raise ValueError("axis width != table width")
        if angle is not None and axis.phase_exp != 0:
            raise ValueError("rotation axes must have phase +1")
        self.items.append(item)
        return len(self.items) - 1

    def __len__(self):
        return len(self.items)

    def __getitem__(self, index):
        return self.items[index]

    def __getstate__(self):
        # kept actions are views of the workspace buffer; a copy makes its own
        return {**self.__dict__, "work": None}


@dataclass(frozen=True)
class Draw:
    """One sampled schedule: item i is table[picks[i]]."""

    table: RotationTable
    picks: tuple

    def __len__(self):
        return len(self.picks)


class _Workspace:
    """The d x cols product buffer of rotations_dense, its row-flipped views
    and each entry's action on them, made at the entry's first pick."""

    def __init__(self, n, cols):
        dim = 1 << n
        self.out = np.empty((dim, cols), dtype=np.complex128)
        self.moved = np.empty_like(self.out)
        self.out_q = self.out.reshape((2,) * n + (cols,))
        self.moved_q = self.moved.reshape(self.out_q.shape)
        self.actions = []


def rotations_dense(table, picks=None, start=None):
    """Dense product of table[picks[0]], table[picks[1]], ... applied in that
    order (the first pick first); with no picks, of the entries in order.
    With a d x c `start`, the product times start, so only the c columns a
    caller needs are built; without, the product itself.

    An item (bare axis, angle) is the rotation e^{-i angle P}; an item
    (word, None) is the Pauli word itself, phase included. The product grows
    from the start (the identity by default) by one-sided updates
    U <- G U: row r of P U is row r^x of U times a per-row phase, read
    through a view of U whose qubit axes are reversed where x has a bit, so
    each item costs O(2^n c), no gate is made dense and no row is gathered.
    A diagonal item is one pass (a per-row scale) and a word two (its
    phases times the flipped rows into a second buffer, copied back). A
    non-diagonal rotation with |cos(angle)| >= 1/2 is two passes,
    U <- U + (-i tan(angle) rows) * flipped U, its cosine joining a scalar
    factor that multiplies the result once at the end, or earlier when it
    falls below _FOLD_BELOW; any other rotation is three,
    U <- cos(angle) U + (-i sin(angle) rows) * flipped U. Every update is
    elementwise and the factor depends on the picks alone, so column j of
    the result is bit for bit column j of the product applied to column j
    of the start.

    Each entry's action (its kind, cosine, flipped view and row scale) is made
    once, at its first pick, and the picks are walked by index. Walked by
    picks, a table of dimension at most _EXPAND_DIM keeps its actions, on a
    buffer of its own sized by the start's column count, across calls, and
    holds the row scales of its first _EXPAND_ENTRIES entries as full
    d x c arrays: draws reuse entries, and a contiguous multiply costs about
    half a (d, 1) broadcast at d = 32. A call with another column count
    remakes them. A table walked in order (a Trotter step, whose power
    step_unitary memoizes) or larger keeps (d, 1) scales for one call.
    """
    n = table.n
    dim = 1 << n
    cols = dim if start is None else start.shape[1]
    kept = picks is not None and dim <= _EXPAND_DIM
    if kept:
        if table.work is None or table.work.out.shape[1] != cols:
            table.work = _Workspace(n, cols)
        work = table.work
    else:
        work = _Workspace(n, cols)
    out, moved, moved_q = work.out, work.moved, work.moved_q
    out[...] = _identity(dim) if start is None else start
    actions = work.actions
    if len(actions) < len(table):
        actions.extend([None] * (len(table) - len(actions)))
    multiply, add = np.multiply, np.add  # called with a positional out: the loop is per-call bound
    factor = 1.0  # the product so far is factor * out
    for i in range(len(table)) if picks is None else np.asarray(picks).tolist():
        action = actions[i]
        if action is None:
            action = actions[i] = _item_action(table[i], work, kept and i < _EXPAND_ENTRIES)
        kind, cos, flipped, scale = action
        if kind is _TAN:  # out + (-i tan(angle) rows) * flipped rows; the cosine joins factor
            multiply(flipped, scale, moved_q)
            add(out, moved, out)
            factor *= cos
            if abs(factor) < _FOLD_BELOW:
                out *= factor
                factor = 1.0
        elif kind is _DIAGONAL:  # a per-row scale
            multiply(out, scale, out)
        elif kind is _WORD:  # its phases times the flipped rows
            multiply(scale, flipped, moved_q)
            out[...] = moved
        else:  # cos(angle) out + (-i sin(angle) rows) * flipped rows
            multiply(flipped, scale, moved_q)
            out *= cos
            add(out, moved, out)
    if factor != 1.0:
        if kept:
            return out * factor
        out *= factor
        return out
    return out.copy() if kept else out


@lru_cache(maxsize=16)
def _identity(dim):
    eye = np.eye(dim, dtype=np.complex128)
    eye.setflags(write=False)
    return eye


def _item_action(item, work, expand):
    """(kind, cos(angle) or None for a word, row-flipped view of the
    workspace buffer or None when the axis is diagonal, per-row scale, as a
    full array when `expand`) of one schedule item. A non-diagonal rotation
    with |cos(angle)| >= 1/2 is of kind _TAN, its scale -i tan(angle) times
    the rows; one with a smaller cosine keeps -i sin(angle)."""
    axis, angle = item
    out_q = work.out_q
    n = out_q.ndim - 1
    rows = _axis_action_rowform(n, axis.x, axis.z)
    if axis.x == 0:
        if angle is None:
            scale = (axis.phase * rows)[:, None]
        else:
            scale = (math.cos(angle) - (1j * math.sin(angle)) * rows)[:, None]
        return _DIAGONAL, None, None, _expanded(scale, work.out.shape) if expand else scale
    flipped = out_q[_row_flip(n, axis.x)]
    row_shape = out_q.shape[:-1] + (1,)
    if angle is None:
        kind, cos, scale = _WORD, None, (axis.phase * rows).reshape(row_shape)
    else:
        cos = math.cos(angle)
        if abs(cos) >= 0.5:
            kind, scale = _TAN, ((-1j * math.tan(angle)) * rows).reshape(row_shape)
        else:
            kind, scale = _SIN, ((-1j * math.sin(angle)) * rows).reshape(row_shape)
    return kind, cos, flipped, _expanded(scale, out_q.shape) if expand else scale


def _expanded(scale, shape):
    return np.ascontiguousarray(np.broadcast_to(scale, shape))


@lru_cache(maxsize=4096)
def _row_flip(n, x):
    """Index of the qubit-axis view whose row r is row r^x: the axis of
    qubit q reversed where x has its bit."""
    return tuple(slice(None, None, -1) if x >> (n - 1 - q) & 1 else slice(None) for q in range(n))


# ------------------------------------------------------------ Trotter / Suzuki


def _derived(nh, key, make):
    """make(), kept on the normalized sum under key for as long as it lives."""
    value = nh.derived.get(key)
    if value is None:
        value = nh.derived[key] = make()
    return value


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


def trotter_step(nh, tau, steps, order=1):
    """One step of the product formula for e^{-i tau Hbar}: a RotationTable
    of (bare axis, angle) in application order; the full formula applies it
    `steps` times."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    lam = tau / steps
    if order == 1:
        schedule = tuple((l, 1.0) for l in range(len(nh)))
    elif order >= 2 and order % 2 == 0:
        schedule = _suzuki_fractions(order // 2, len(nh))
    else:
        raise ValueError(f"order must be 1 or even, got {order}")
    step = RotationTable(nh.n)
    for l, frac in schedule:
        c, p = nh.term(l)
        step.append((p.bare(), lam * c * frac * _term_sign(p)))
    return step


def step_unitary(step, steps):
    """Dense rotations_dense(step)^steps, memoized on the step's items and
    `steps`, so the tables of fresh specs on equal sums share one product.

    Shared by the empirical step search and program execution, so a certified
    product is not rebuilt when its fragment runs. The result is read-only.
    """
    return _step_power(step.n, tuple(step.items), steps)


@lru_cache(maxsize=32)
def _step_power(n, items, steps):
    u = np.linalg.matrix_power(rotations_dense(RotationTable(n, items)), steps)
    u.setflags(write=False)
    return u


def choose_trotter_steps(nh, tau, order, eps_prime, strategy):
    """Step count for e^{-i tau Hbar} at a target dense error eps_prime.

    worst_case: ceil(c * tau^(1+1/p) * (1/eps')^(1/p)) with p = order and
    documented constants c = 0.5 for order 1 (first-order commutator bound for
    a unit-weight sum), c = 1.0 otherwise. empirical: smallest power of two
    whose dense product is within eps_prime of the exact exponential, kept
    on nh per (tau, order, eps_prime).
    """
    if eps_prime <= 0:
        raise ValueError("eps_prime must be > 0")
    if tau == 0:
        return 1
    if strategy == "worst_case":
        c = 0.5 if order == 1 else 1.0
        return max(1, math.ceil(c * tau ** (1.0 + 1.0 / order) * (1.0 / eps_prime) ** (1.0 / order)))
    if strategy != "empirical":
        raise ValueError(f"unknown strategy {strategy!r}")
    key = ("empirical_steps", tau, order, eps_prime)
    return _derived(nh, key, lambda: _empirical_steps(nh, tau, order, eps_prime))


def _empirical_steps(nh, tau, order, eps_prime):
    """Smallest power of two whose dense product is within eps_prime of the
    exact exponential, up to _EMPIRICAL_STEP_CAP. The largest column norm
    of the difference is a lower bound on its spectral norm, so a count it
    puts above eps_prime (1 + 1e-12), past rounding, is rejected without an
    SVD; the spectral norm decides the rest."""
    from .oracles import spectral_norm, unitary_exact

    target = unitary_exact(nh.h, tau)
    steps = 1
    while steps <= _EMPIRICAL_STEP_CAP:
        diff = target - step_unitary(trotter_step(nh, tau, steps, order), steps)
        column = float(np.linalg.norm(diff, axis=0).max())
        if column <= eps_prime * (1.0 + 1e-12) and spectral_norm(diff) <= eps_prime:
            return steps
        steps *= 2
    raise NumericalError(f"no step count up to {_EMPIRICAL_STEP_CAP} reaches {eps_prime}")


# ----------------------------------------------------------------- qDRIFT


def choose_qdrift_length(tau, eps_prime):
    """N = ceil(2 tau^2 / eps_prime), at least 1."""
    if eps_prime <= 0:
        raise ValueError("eps_prime must be > 0")
    return max(1, math.ceil(2.0 * tau**2 / eps_prime))


def _signed_axes(nh):
    """Per term index: (bare axis, sign of the term's word), built once per sum."""
    return _derived(nh, "axes", lambda: tuple((p.bare(), _term_sign(p)) for _, p in nh.h.terms))


def qdrift_table(nh, tau, length):
    """The table qdrift_rotations draws from: per term l, the rotation (bare
    axis of term l, its sign times tau/N)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    base = tau / length

    def make():
        return RotationTable(nh.n, ((axis, base * sign) for axis, sign in _signed_axes(nh)))

    return _derived(nh, ("qdrift", base), make)


def qdrift_rotations(nh, tau, length, rng):
    """length draws l ~ p into qdrift_table."""
    return Draw(qdrift_table(nh, tau, length), tuple(qdrift_picks(nh, length, rng).tolist()))


def qdrift_picks(nh, length, rng):
    """The picks of one qDRIFT draw, as an int array: length term indices
    l ~ p, which index qdrift_table(nh, tau, length) for every tau."""
    return nh.sample_term(rng, size=length)


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
    below 1 and the total weight alpha_total = (sum_k w_k)^r <= e^{tau^2/r}
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
    return LcuParams(
        tau=float(tau),
        r=r,
        q=q,
        c_r=float(c_r),
        weights=weights,
        alpha_total=float(sum(weights)) ** r,
    )


@lru_cache(maxsize=1024)
def _k_cdf(weights):
    """Draw table of the segment order k/2, with probability proportional to weight."""
    probs = np.array(weights, dtype=np.float64)
    return cdf_of(probs / probs.sum())


class _LcuTable(RotationTable):
    """The rotation (bare axis of term l, its sign times phi_k) of segment
    order k at entry (k/2) L + l, L terms; then each word as first drawn."""

    def __init__(self, nh, params):
        axes = _signed_axes(nh)
        super().__init__(
            nh.n,
            (
                (axis, math.atan(params.x / (k + 1)) * sign)
                for k in range(0, params.q + 1, 2)
                for axis, sign in axes
            ),
        )
        self.n_terms = len(axes)
        self.words = {}  # (x, z, phase_exp) -> entry


def lcu_table(nh, params):
    """The table lcu_sample draws from, kept on the sum per parameters."""
    return _derived(nh, params, lambda: _LcuTable(nh, params))


def lcu_sample(nh, params, rng):
    """Draw one unitary whose mean over draws is Utilde / alpha_total, with
    Utilde the factor lcu_enumerate_dense enumerates. Its picks hold, per
    segment, the rotation's entry and then the word's, unless the word is +I.
    No estimate or price calls it: skeletons bind lcu_picks."""
    table = lcu_table(nh, params)
    picks = lcu_picks(nh, table, _k_cdf(params.weights), params.r, rng)
    return Draw(table, tuple(picks.tolist()))


def lcu_picks(nh, table, k_cdf, r, rng):
    """The picks of one lcu_sample draw of r segments into its lcu_table, as
    an int array, the segment orders drawn from k_cdf, the _k_cdf of the
    weights; a sampler that binds the table and k_cdf looks neither up per
    draw. A draw of order 0 throughout is its drawn terms: the rotations of
    order 0 are the table's first entries, and every word is +I."""
    ks = 2 * draw_index(k_cdf, rng, r)
    drawn = nh.sample_term(rng, size=int(ks.sum()) + r)
    if not ks.any():
        return drawn
    drawn = iter(drawn.tolist())
    terms = nh.h.terms
    picks = []
    for k in ks.tolist():
        if not k:  # the word is +I: the rotation alone
            picks.append(next(drawn))
            continue
        # (-i)^k P_l1 ... P_lk, multiplied on the masks with exact phases
        wx = wz = 0
        phase = 3 * k
        for _ in range(k):
            p = terms[next(drawn)][1]
            wx, wz, phase = pauli_times(wx, wz, phase, p.x, p.z, p.phase_exp)
        picks.append((k // 2) * table.n_terms + next(drawn))
        key = (wx, wz, phase % 4)
        if key != (0, 0, 0):
            entry = table.words.get(key)
            if entry is None:
                entry = table.words[key] = table.append((_word(nh.n, *key), None))
            picks.append(entry)
    return np.array(picks)


def pauli_times(wx, wz, phase, x, z, phase_exp):
    """(x, z, phase) of the word (wx, wz, phase) times the word (x, z,
    phase_exp), both as PauliString stores them: the masks XOR, and the
    phase exponent, mod 4, gains the second word's and the exact sign of
    moving its X past the first word's Z."""
    x2, z2 = wx ^ x, wz ^ z
    phase += (
        phase_exp
        + (wx & wz).bit_count()
        + (x & z).bit_count()
        - (x2 & z2).bit_count()
        + 2 * (wz & x).bit_count()
    )
    return x2, z2, phase


def lcu_word_moments(nh, q):
    """Per even segment order k <= q, the expected weight of its word
    (-i)^k P_l1 ... P_lk, l ~ p i.i.d., and the probability that the word
    is +I: two arrays indexed by k/2, kept on the normalized sum per q.

    The weight is a sum over qubits. A qubit's Pauli in the word is the XOR
    of its Paulis in the k terms, a k-fold XOR convolution, which the
    characters of the four one-qubit Paulis (the signs of the x bit, the z
    bit and their XOR) diagonalize: the qubit is I with probability
    (1 + sum_s E[chi_s]^k) / 4. The word is +I when its two halves of k/2
    terms have equal masks and phases that cancel, so that probability
    pairs the (x, z, phase) law of k/2 products with itself. A law grown
    past _WORD_KEYS keys is refused with a NumericalError naming the size
    it reached, so the work stays within (q/2) _WORD_KEYS L word products
    for L terms."""
    return _derived(nh, ("word_moments", q), lambda: _word_moments(nh, q))


def _word_moments(nh, q):
    xs = np.array([p.x for _, p in nh.h.terms])
    zs = np.array([p.z for _, p in nh.h.terms])
    bits = 1 << np.arange(nh.n)
    chars = np.stack([nh.probs @ np.where(m[:, None] & bits, -1.0, 1.0) for m in (xs, zs, xs ^ zs)])
    ks = np.arange(0, q + 1, 2)
    weight = ((3.0 - (chars[..., None] ** ks).sum(axis=0)) / 4.0).sum(axis=0)
    terms = [(prob, p.x, p.z, p.phase_exp) for prob, (_, p) in zip(nh.probs.tolist(), nh.h.terms)]
    law = {(0, 0, 0): 1.0}  # of the product of j terms
    identity = []
    for j in range(q // 2 + 1):
        if j:
            grown = {}
            for (wx, wz, phase), mass in law.items():
                for prob, x, z, phase_exp in terms:
                    x2, z2, phase2 = pauli_times(wx, wz, phase, x, z, phase_exp)
                    key = (x2, z2, phase2 % 4)
                    grown[key] = grown.get(key, 0.0) + mass * prob
                if len(grown) > _WORD_KEYS:
                    raise NumericalError(
                        f"pricing LCU words of order {q} on {len(terms)} terms: the law of "
                        f"{j}-term products reached {len(grown)} (x, z, phase) keys, "
                        f"past the cap of {_WORD_KEYS}"
                    )
            law = grown
        plus_i = 0.0
        for (x, z, phase), mass in law.items():
            # (-i)^k times this half, times a second half on the same masks
            # whose phase exponent cancels the product's
            *_, total = pauli_times(x, z, phase + 6 * j, x, z, 0)
            plus_i += mass * law.get((x, z, -total % 4), 0.0)
        identity.append(plus_i)
    return weight, np.array(identity)


@lru_cache(maxsize=4096)
def _word(n, x, z, phase_exp):
    """One PauliString per drawn word value, shared across draws."""
    return PauliString(n, x, z, phase_exp)


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
