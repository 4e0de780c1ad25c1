"""The benchmark's workloads.

A bundle builds its problem from collidesim's public API and runs a fixed set
of public calls per iteration, as a user's script would: every iteration
builds a fresh collision spec. A workload runs two bundles per iteration.
Inputs come only from the workload seed and the iteration index, so a (seed,
index) pair always replays the same calls. Checks run after the timed
iteration and are either deterministic or fail by chance with probability
below 1e-9 at any seed, so correct code reads 0 failures.
"""

import hashlib
import math
import statistics
import time

import numpy as np

T_EVOLVE = 1.0  # evolution time of every chain workload
HOEFFDING_FAIL = 1e-9  # tail probability of the Monte-Carlo mean checks


class Call:
    """One timed public-API call inside an iteration, made by bundle `part`."""

    def __init__(self, part, name, seconds, value):
        self.part = part
        self.name = name
        self.seconds = seconds
        self.value = value
        self.failures = []


class Iteration:
    """The calls of one bundle, their timings and their check failures."""

    def __init__(self, index, traced=False):
        self.index = index
        self.traced = traced
        self.calls = []
        self.error = None
        self.seconds = 0.0
        self.part = ""  # the bundle whose calls are being made

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        self.calls.append(Call(self.part, name, time.perf_counter() - start, value))
        return value

    def view(self, part):
        """The calls of one bundle, as an iteration of their own timed by their sum."""
        sub = Iteration(self.index, self.traced)
        sub.calls = [c for c in self.calls if c.part == part]
        sub.seconds = sum(c.seconds for c in sub.calls)
        return sub

    def get(self, name):
        return next((c for c in self.calls if c.name == name), None)

    @property
    def attempted(self):
        return len(self.calls) + (1 if self.error else 0)

    @property
    def failed(self):
        return sum(1 for c in self.calls if c.failures) + (1 if self.error else 0)


def hoeffding_radius(value_range, t_runs, fail=HOEFFDING_FAIL):
    """Half-width s with P(|mean - E| >= s) <= fail for t_runs samples in a range."""
    return value_range * math.sqrt(math.log(2.0 / fail) / (2.0 * t_runs))


def fingerprint(value):
    """Exact summary of a call's result, for bit-identity comparisons."""
    if hasattr(value, "mu") and hasattr(value, "t_runs"):
        return ("estimate", repr((value.mu, value.stderr, value.t_runs, value.samples, value.resources_mean)))
    if hasattr(value, "data") and hasattr(value, "n"):
        return ("state", value.n, hashlib.sha256(value.data.tobytes()).hexdigest())
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[0], int):
        return ("nu", value[0], repr(value[1]))
    return ("value", repr(value))


def _run_seed(seed, index):
    """Estimate seed of iteration `index`, a pure function of the workload seed."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def _check(call, ok, message):
    if not ok:
        call.failures.append(message)


class Workload:
    name = ""
    why = ""

    def __init__(self, cs, seed, scale="full"):
        self.cs = cs
        self.seed = seed
        self.scale = scale

    def build(self):
        """Problem build: part of set-up time."""

    def reference(self):
        """Values the checks compare against; computed once, outside every timing."""

    def iterate(self, it, index):
        raise NotImplementedError

    def check(self, it):
        """Append failure messages to the calls of a finished iteration."""

    def inputs(self):
        return {}

    def extra_metrics(self, iterations):
        """Workload-specific end-to-end metrics: [(name, value, unit)]."""
        return []


def _chain(cs, m):
    model = cs.amp_damp_model(m=m, J=1.0, h=0.1, gamma=1.0)
    return model, cs.magnetization(m), cs.DensityMatrix.basis(m, 0)


def _runs_per_s(iterations):
    runs = sum(
        c.value.t_runs for it in iterations for c in it.calls if hasattr(c.value, "t_runs")
    )
    seconds = sum(it.seconds for it in iterations)
    return [("runs_per_s", runs / seconds, "1/s")] if seconds > 0 else []


class QuickstartAnalytic(Workload):
    name = "quickstart-analytic"
    why = (
        "README chain at dim 32: large deterministic programs run gate by gate, "
        "so execute, states gate dispatch and two_sparse_conj dominate"
    )
    SIZES = {"full": 4, "smoke": 2}
    EPS = 1e-2
    DELTA = 0.05
    BACKENDS = ("trotter1", "trotter2k:1", "exact")
    # Per-run CNOT counts of the programs at the seed commit, by chain length.
    CNOT_PINS = {
        4: {"trotter1": 122_896, "trotter2k:1": 3_856},
        2: {"trotter1": 24_584, "trotter2k:1": 776},
    }

    def build(self):
        self.m = self.SIZES[self.scale]
        self.model, self.obs, self.rho0 = _chain(self.cs, self.m)

    def reference(self):
        cs = self.cs
        self.lindblad = cs.expectation(cs.lindblad_evolve(self.model, self.rho0, T_EVOLVE), self.obs)

    def iterate(self, it, index):
        cs = self.cs
        nu, _ = it.call("suggest_nu", cs.suggest_nu, self.model, T_EVOLVE, self.obs, self.rho0, self.EPS)
        spec = cs.lindblad_collision_spec(self.model, T_EVOLVE, nu)
        self.nu = nu
        for backend in self.BACKENDS:
            it.call(
                backend, cs.estimate, spec, self.rho0, self.obs, backend,
                eps=self.EPS, delta=self.DELTA, seed=self.seed,
            )

    def check(self, it):
        exact = it.get("exact")
        for call in it.calls:
            if call.name == "suggest_nu":
                continue
            rep = call.value
            _check(call, rep.t_runs == 1, f"{call.name}: analytic readout ran {rep.t_runs} times")
            if call.name == "exact":
                gap = abs(rep.mu - self.lindblad)
                _check(call, gap <= self.EPS, f"exact is {gap:.3e} from lindblad_evolve (eps {self.EPS})")
                continue
            if exact is not None:
                gap = abs(rep.mu - exact.value.mu)
                _check(call, gap <= self.EPS, f"{call.name} is {gap:.3e} from the exact map (eps {self.EPS})")
            pin = self.CNOT_PINS[self.m][call.name]
            cnots = rep.resources_mean.cnot_count
            _check(call, cnots == pin, f"{call.name}: {cnots} CNOTs per run, pinned at {pin}")

    def inputs(self):
        nu = getattr(self, "nu", None)
        return {
            "m": self.m, "nu": nu, "K": None if nu is None else self.m * nu,
            "eps": self.EPS, "delta": self.DELTA, "backends": list(self.BACKENDS),
            "measurement": "analytic", "T_slice": 1, "T_full": 1,
        }


class _FixedState:
    """Preparer returning a fresh copy of a fixed density matrix."""

    def __init__(self, cs, data):
        self.cs = cs
        self.data = np.array(data, dtype=np.complex128)

    def __call__(self):
        return self.cs.DensityMatrix(self.data.copy(), check=False)


def _random_sum(cs, rng, n, n_terms):
    labels = set()
    while len(labels) < n_terms:
        axes = "".join(rng.choice(list("IXYZ"), size=n))
        if axes != "I" * n:
            labels.add(axes)
    terms = []
    for label in sorted(labels):
        sign = "-" if rng.random() < 0.5 else "+"
        terms.append((float(rng.uniform(0.2, 1.0)), cs.PauliString.from_label(sign + label)))
    return cs.PauliSum(n, terms)


def coverage_collision(cs):
    """The single collision of the `hoeffding-coverage` release criterion
    (1 system + 1 env qubit), drawn from the same generator and seed."""
    rng = np.random.default_rng(5)
    env_h = _random_sum(cs, rng, 1, 1)
    inter = _random_sum(cs, rng, 2, 3)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    return cs.Collision(1, env_h, inter, _FixedState(cs, np.outer(psi, psi.conj())))


class ShotCoverage(Workload):
    name = "shot-coverage"
    why = (
        "one fixed 4-qubit program re-executed on every shot run, so per-run overhead "
        "in estimator, execute, tensor/trace and born_sample dominates"
    )
    SIZES = {"full": 0.1, "smoke": 0.3}  # eps = delta
    DT = 0.3

    def build(self):
        cs = self.cs
        self.eps = self.delta = self.SIZES[self.scale]
        self.system_h = cs.PauliSum(1, [(0.3, cs.PauliString.from_label("Z"))])
        self.collision = coverage_collision(cs)
        self.obs = cs.Observable(cs.PauliSum(1, [(1.0, cs.PauliString.from_label("Z"))]))
        self.rho0 = cs.DensityMatrix.plus()

    def _spec(self):
        return self.cs.CollisionSpec(1, self.system_h, (self.collision,), self.DT)

    def reference(self):
        cs = self.cs
        self.truth = cs.expectation(cs.exact_k_collision(self._spec(), self.rho0), self.obs)
        self.t_full = cs.hoeffding_T(self.obs.norm, self.eps, self.delta)
        self.spectrum = np.linalg.eigvalsh(self.obs.matrix)

    def iterate(self, it, index):
        it.call(
            "estimate", self.cs.estimate, self._spec(), self.rho0, self.obs, "trotter1",
            self.eps, self.delta, seed=_run_seed(self.seed, index), measurement="shot",
            keep_samples=True,
        )

    def check(self, it):
        for call in it.calls:
            rep = call.value
            _check(call, rep.t_runs == self.t_full, f"t_runs {rep.t_runs} != hoeffding_T {self.t_full}")
            shots = np.asarray(rep.samples)
            off = np.abs(shots[:, None] - self.spectrum[None, :]).min(axis=1) if shots.size else shots
            _check(call, shots.size == rep.t_runs, f"{shots.size} shots kept for {rep.t_runs} runs")
            _check(call, bool(np.all(off <= 1e-12)), "a shot lies outside the spectrum of O")
            bound = hoeffding_radius(2.0 * self.obs.norm, rep.t_runs) + self.eps / 2.0
            gap = abs(rep.mu - self.truth)
            _check(call, gap <= bound, f"mean is {gap:.3e} from the exact map (bound {bound:.3e})")

    def inputs(self):
        return {
            "n_system": 1, "env_width": 1, "K": 1, "backend": "trotter1",
            "eps": self.eps, "delta": self.delta, "measurement": "shot",
            "T_slice": getattr(self, "t_full", None), "T_full": getattr(self, "t_full", None),
        }

    def extra_metrics(self, iterations):
        return _runs_per_s(iterations)


class RandomizedSlice(Workload):
    name = "randomized-slice"
    why = (
        "every run samples and builds a new program (salcu, qdrift, partial swaps), so "
        "hamsim sampling, GateOp emission, validate and count_resources block each run"
    )
    NU = 2
    DELTA = 0.05
    P_SWAP = 0.5
    # (label, backend, eps, runs in the slice, non-Markovian), per scale
    SLICES = {
        "full": (4, (("salcu", "salcu", 1e-2, 40, False),
                     ("qdrift", "qdrift", 1e-1, 2, False),
                     ("nonmarkov", "trotter2k:1", 1e-2, 8, True))),
        "smoke": (2, (("salcu", "salcu", 1e-1, 3, False),
                      ("qdrift", "qdrift", 3e-1, 2, False),
                      ("nonmarkov", "trotter2k:1", 1e-1, 2, True))),
    }

    def build(self):
        self.m, self.slices = self.SLICES[self.scale]
        self.model, self.obs, self.rho0 = _chain(self.cs, self.m)

    def reference(self):
        cs = self.cs
        spec = cs.lindblad_collision_spec(self.model, T_EVOLVE, self.NU)
        self.truth = {
            False: cs.expectation(cs.exact_k_collision(spec, self.rho0), self.obs),
            True: cs.expectation(cs.exact_nonmarkov(cs.NonMarkovSpec(spec, self.P_SWAP), self.rho0), self.obs),
        }
        self.t_full = {}

    def iterate(self, it, index):
        cs = self.cs
        spec = cs.lindblad_collision_spec(self.model, T_EVOLVE, self.NU)
        for label, backend, eps, runs, nonmarkov in self.slices:
            target = cs.NonMarkovSpec(spec, self.P_SWAP) if nonmarkov else spec
            # A one-run call beside the slice separates per-call from per-run cost.
            for name, t_override in ((label + ".one", 1), (label, runs)):
                it.call(
                    name, cs.estimate, target, self.rho0, self.obs, backend,
                    eps=eps, delta=self.DELTA, seed=self.seed, t_override=t_override,
                    keep_samples=True,
                )

    def check(self, it):
        for call in it.calls:
            label = call.name.split(".")[0]
            _, _, eps, runs, nonmarkov = next(s for s in self.slices if s[0] == label)
            rep = call.value
            expected = 1 if call.name.endswith(".one") else runs
            _check(call, rep.t_runs == expected, f"t_runs {rep.t_runs} != t_override {expected}")
            _check(call, rep.under_sampled, "a short slice is not flagged under_sampled")
            half = rep.zeta**2 * self.obs.norm
            samples = np.asarray(rep.samples)
            _check(call, bool(np.all(np.abs(samples) <= half * (1 + 1e-9))), "a run lies outside +-zeta^2 |O|")
            bound = hoeffding_radius(2.0 * half, rep.t_runs) + eps / 2.0
            gap = abs(rep.mu - self.truth[nonmarkov])
            _check(call, gap <= bound, f"mean is {gap:.3e} from the exact map (bound {bound:.3e})")
            self.t_full[label] = self.cs.hoeffding_T(self.obs.norm, eps, self.DELTA, rep.zeta)

    def inputs(self):
        return {
            "m": self.m, "nu": self.NU, "K": self.m * self.NU, "delta": self.DELTA,
            "p_swap": self.P_SWAP,
            "slices": {
                label: {"backend": backend, "eps": eps, "T_slice": runs,
                        "T_full": getattr(self, "t_full", {}).get(label),
                        "nonmarkov": nonmarkov}
                for label, backend, eps, runs, nonmarkov in self.slices
            },
        }

    def extra_metrics(self, iterations):
        """Each slice projected to its full Hoeffding T: seconds per run times T
        plus the per-call fixed cost, both from the one-run and slice calls."""
        out = _runs_per_s(iterations)
        for label, _, _, runs, _ in self.slices:
            projected = []
            for it in iterations:
                one, full = it.get(label + ".one"), it.get(label)
                if one is None or full is None:
                    continue
                per_run = (full.seconds - one.seconds) / (runs - 1)
                fixed = one.seconds - per_run
                projected.append(per_run * self.t_full[label] + fixed)
            if projected:
                out.append((f"certified_estimate_s.{label}", statistics.median(projected), "s"))
        return out


class ExactReference(Workload):
    name = "exact-reference"
    why = (
        "m=5 dense exact maps, the nu doubling search and the Lindblad oracle, "
        "which no Monte-Carlo workload exercises"
    )
    SIZES = {"full": (5, 2e-5), "smoke": (3, 1e-3)}
    P_SWAP = 0.5

    def build(self):
        self.m, self.eps = self.SIZES[self.scale]
        self.model, self.obs, self.rho0 = _chain(self.cs, self.m)

    def iterate(self, it, index):
        cs = self.cs
        nu, _ = it.call("suggest_nu", cs.suggest_nu, self.model, T_EVOLVE, self.obs, self.rho0, self.eps)
        self.nu = nu
        spec = cs.lindblad_collision_spec(self.model, T_EVOLVE, nu)
        it.call("exact_k_collision", cs.exact_k_collision, spec, self.rho0)
        it.call("exact_nonmarkov", cs.exact_nonmarkov, cs.NonMarkovSpec(spec, self.P_SWAP), self.rho0)
        it.call("lindblad_evolve", cs.lindblad_evolve, self.model, self.rho0, T_EVOLVE)

    def check(self, it):
        cs = self.cs
        oracle = it.get("lindblad_evolve")
        for call in it.calls:
            if call.name == "suggest_nu":
                continue
            data = call.value.data
            trace_gap = abs(np.trace(data) - 1.0)
            _check(call, trace_gap <= 1e-9, f"{call.name}: trace is off by {trace_gap:.3e}")
            herm = np.abs(data - data.conj().T).max()
            _check(call, herm <= 1e-9, f"{call.name}: Hermiticity drift {herm:.3e}")
            low = np.linalg.eigvalsh(0.5 * (data + data.conj().T)).min()
            _check(call, low >= -1e-9, f"{call.name}: eigenvalue {low:.3e} < 0")
            if call.name == "exact_k_collision" and oracle is not None:
                gap = abs(cs.expectation(call.value, self.obs) - cs.expectation(oracle.value, self.obs))
                _check(call, gap <= self.eps, f"exact map is {gap:.3e} from lindblad_evolve (eps {self.eps})")

    def inputs(self):
        nu = getattr(self, "nu", None)
        return {
            "m": self.m, "nu": nu, "K": None if nu is None else self.m * nu,
            "eps": self.eps, "p_swap": self.P_SWAP, "T_slice": None, "T_full": None,
        }


class Combined(Workload):
    """Two bundles, one after the other in every iteration. Each bundle checks
    its own calls and reports its own metrics, prefixed with its name, beside
    `<bundle>.iter_s`, the median of its calls' summed time per iteration."""

    BUNDLES = ()

    def __init__(self, cs, seed, scale="full"):
        super().__init__(cs, seed, scale)
        self.bundles = [bundle(cs, seed, scale) for bundle in self.BUNDLES]

    def build(self):
        for bundle in self.bundles:
            bundle.build()

    def reference(self):
        for bundle in self.bundles:
            bundle.reference()

    def iterate(self, it, index):
        for bundle in self.bundles:
            it.part = bundle.name
            bundle.iterate(it, index)

    def check(self, it):
        for bundle in self.bundles:
            bundle.check(it.view(bundle.name))

    def inputs(self):
        return {bundle.name: bundle.inputs() for bundle in self.bundles}

    def extra_metrics(self, iterations):
        out = []
        for bundle in self.bundles:
            views = [it.view(bundle.name) for it in iterations]
            out.append((f"{bundle.name}.iter_s", statistics.median(v.seconds for v in views), "s"))
            out += [(f"{bundle.name}.{name}", value, unit) for name, value, unit in bundle.extra_metrics(views)]
        return out


# Two workloads, not one per bundle: the host's speed shifts by up to a third for
# stretches of 10 s to a minute, so runs must be long (50 s) to average over
# them, and the time all runs may take together allows two such workloads.
class MonteCarlo(Combined):
    name = "monte-carlo"
    why = (
        "per-run work: shot estimates re-run one tiny program, randomized slices sample and "
        "build a new one each run; estimator, born_sample, hamsim sampling and emission dominate"
    )
    BUNDLES = (ShotCoverage, RandomizedSlice)


class AnalyticExact(Combined):
    name = "analytic-exact"
    why = (
        "deterministic work: dim-32 analytic programs run gate by gate, then m=5 dense exact "
        "maps, the nu search and the Lindblad oracle; no per-run sampling"
    )
    BUNDLES = (QuickstartAnalytic, ExactReference)


WORKLOADS = {w.name: w for w in (MonteCarlo, AnalyticExact)}
