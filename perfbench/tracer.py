"""Per-layer spans, recorded from outside the package.

While a Tracer is active, each public function named in SPANS is replaced,
under every collidesim module attribute bound to it, by a wrapper that times
the call and the part of it covered by nested wrapped calls; a span's self
time is its duration minus that part. Class methods are wrapped on the class.
Callers look these attributes up at call time (`states.apply_pauli_rotation`,
`_kernels.two_sparse_conj`, a function-local `from .oracles import
unitary_exact`), so the wrappers see every call. Spans are aggregated in memory
per name; every attribute is restored on exit. Nothing under src/ changes.
"""

import statistics
import sys
import time
from collections import Counter, defaultdict

from kernel_sweep import KERNELS, kernel_cost

SPANS = (
    ("collidesim.estimator", "estimate", "estimator.estimate"),
    ("collidesim.circuits", "execute", "circuits.execute"),
    ("collidesim.circuits", "count_resources", "circuits.count_resources"),
    ("collidesim.circuits", "CircuitProgram.validate", "circuits.validate"),
    ("collidesim.states", "apply_pauli", "states.gate"),
    ("collidesim.states", "apply_pauli_rotation", "states.gate"),
    ("collidesim.states", "apply_swap", "states.gate"),
    ("collidesim.states", "tensor_append", "states.tensor_trace"),
    ("collidesim.states", "partial_trace", "states.tensor_trace"),
    ("collidesim.states", "born_sample", "states.born_sample"),
    ("collidesim.states", "expectation", "states.expectation"),
    ("collidesim.pauli", "embed_pauli", "pauli.embed"),
    ("collidesim.hamsim", "choose_trotter_steps", "hamsim.choose_trotter_steps"),
    ("collidesim.hamsim", "qdrift_rotations", "hamsim.sample"),
    ("collidesim.hamsim", "lcu_sample", "hamsim.sample"),
    ("collidesim.collisions", "markov_plan", "collisions.plan"),
    ("collidesim.collisions", "markov_program", "collisions.program"),
    ("collidesim.collisions", "nonmarkov_program", "collisions.program"),
    ("collidesim.collisions", "suggest_nu", "collisions.suggest_nu"),
    ("collidesim.collisions", "exact_k_collision", "collisions.exact"),
    ("collidesim.collisions", "exact_nonmarkov", "collisions.exact"),
    ("collidesim.oracles", "unitary_exact", "oracles.unitary_exact"),
    ("collidesim.oracles", "lindblad_evolve", "oracles.lindblad_evolve"),
) + tuple(("collidesim._kernels", k, "kernels." + k) for k in KERNELS)


def _sampled_gates(result):
    """Gates a sampler hands to program emission: rotations, plus LCU words."""
    segments = getattr(result, "segments", None)
    if segments is None:
        return len(result)
    words = sum(1 for s in segments if not (s.word.is_identity_axes() and s.word.phase_exp == 0))
    return len(segments) + words


def _exact_collisions(tracer, args, result):
    spec = args[0]
    k = getattr(spec, "base", spec).K
    tracer.counts["exact_collisions"] += k
    if any(frame[0] == "collisions.suggest_nu" for frame in tracer.stack):
        tracer.counts["suggest_nu_collisions"] += k


def _ops_hook(key):
    def hook(tracer, args, result):
        tracer.counts[key] += len(args[0].ops)

    return hook


def _program_hook(tracer, args, result):
    tracer.counts["programs_built"] += 1
    tracer.counts["ops_emitted"] += len(result.ops)


def _sample_hook(tracer, args, result):
    tracer.counts["sampled_gates"] += _sampled_gates(result)


def _kernel_hook(name):
    def hook(tracer, args, result):
        tracer.kernel_shapes[name][tuple(a.shape[0] for a in args)] += 1

    return hook


HOOKS = {
    "circuits.execute": _ops_hook("ops_executed"),
    "circuits.validate": _ops_hook("ops_validated"),
    "circuits.count_resources": _ops_hook("ops_counted"),
    "collisions.program": _program_hook,
    "collisions.exact": _exact_collisions,
    "hamsim.sample": _sample_hook,
    **{"kernels." + k: _kernel_hook(k) for k in KERNELS},
}

# (name, unit); "count" metrics are exact per-iteration counts.
LAYER_METRICS = (
    ("estimator.self_s", "s"),
    ("estimator.calls", "count"),
    ("collisions.plan_s", "s"),
    ("collisions.program_us_per_op", "us/op"),
    ("collisions.programs_built", "count"),
    ("collisions.ops_emitted", "count"),
    ("collisions.suggest_nu_s", "s"),
    ("collisions.suggest_nu_collisions", "count"),
    ("collisions.exact_us_per_collision", "us/op"),
    ("hamsim.choose_trotter_steps_s", "s"),
    ("hamsim.sample_us_per_gate", "us/op"),
    ("circuits.execute_self_us_per_op", "us/op"),
    ("circuits.ops_executed", "count"),
    ("circuits.validate_us_per_op", "us/op"),
    ("circuits.count_resources_us_per_op", "us/op"),
    ("states.gate_self_us", "us"),
    ("states.gate_calls", "count"),
    ("states.born_sample_us", "us"),
    ("states.tensor_trace_us", "us"),
    ("states.expectation_us", "us"),
    ("states.memo_hit_ratio", "ratio"),
    ("pauli.embed_us", "us"),
    ("pauli.embed_calls", "count"),
    ("oracles.unitary_exact_s", "s"),
    ("oracles.unitary_exact_calls", "count"),
    ("oracles.lindblad_evolve_s", "s"),
) + tuple(
    (f"kernels.{k}.{field}", unit)
    for k in KERNELS
    for field, unit in (("calls", "count"), ("busy_s", "s"), ("computed_gb_per_s", "GB/s"))
)


def _memo_tables(states):
    return {name: fn for name, fn in vars(states).items() if hasattr(fn, "cache_info")}


def _per(numerator, denominator, scale=1.0):
    return numerator * scale / denominator if denominator else 0.0


class Tracer:
    """Wraps the SPANS for the duration of a `with` block; one block per iteration."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # span -> [calls, total s, self s]
        self.counts = Counter()
        self.kernel_shapes = defaultdict(Counter)  # kernel -> {arg leading dims: calls}
        self.stack = []  # [span, seconds covered by child spans]
        self.missing = []
        self._patched = []
        self._memo_before = {}
        self.memo_hits = self.memo_misses = 0

    def _wrap(self, fn, span, hook):
        stack, stats, clock = self.stack, self.stats[span], time.perf_counter

        def traced(*args, **kwargs):
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        package = [m for n, m in list(sys.modules.items()) if n == "collidesim" or n.startswith("collidesim.")]
        for module_name, attr, span in SPANS:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, span, HOOKS.get(span))
            if path:
                bindings = [(owner, leaf)]
            else:
                bindings = [(m, n) for m in package for n, v in list(vars(m).items()) if v is original]
            for target, name in bindings:
                setattr(target, name, wrapper)
                self._patched.append((target, name, original))
        states = sys.modules["collidesim.states"]
        self._memo_before = {n: f.cache_info() for n, f in _memo_tables(states).items()}
        return self

    def __exit__(self, *exc):
        memo_after = {n: f.cache_info() for n, f in _memo_tables(sys.modules["collidesim.states"]).items()}
        self.memo_hits = sum(memo_after[n].hits - self._memo_before[n].hits for n in memo_after)
        self.memo_misses = sum(memo_after[n].misses - self._memo_before[n].misses for n in memo_after)
        for target, name, original in reversed(self._patched):
            setattr(target, name, original)
        self._patched.clear()
        return False

    def metrics(self):
        """Per-layer metrics of the traced block, keyed as LAYER_METRICS."""
        st, c = self.stats, self.counts

        def calls(span):
            return st[span][0]

        def total(span):
            return st[span][1]

        def own(span):
            return st[span][2]

        out = {
            "estimator.self_s": own("estimator.estimate"),
            "estimator.calls": calls("estimator.estimate"),
            "collisions.plan_s": own("collisions.plan"),
            "collisions.program_us_per_op": _per(own("collisions.program"), c["ops_emitted"], 1e6),
            "collisions.programs_built": c["programs_built"],
            "collisions.ops_emitted": c["ops_emitted"],
            "collisions.suggest_nu_s": total("collisions.suggest_nu"),
            "collisions.suggest_nu_collisions": c["suggest_nu_collisions"],
            "collisions.exact_us_per_collision": _per(total("collisions.exact"), c["exact_collisions"], 1e6),
            "hamsim.choose_trotter_steps_s": own("hamsim.choose_trotter_steps"),
            "hamsim.sample_us_per_gate": _per(total("hamsim.sample"), c["sampled_gates"], 1e6),
            "circuits.execute_self_us_per_op": _per(own("circuits.execute"), c["ops_executed"], 1e6),
            "circuits.ops_executed": c["ops_executed"],
            "circuits.validate_us_per_op": _per(total("circuits.validate"), c["ops_validated"], 1e6),
            "circuits.count_resources_us_per_op": _per(total("circuits.count_resources"), c["ops_counted"], 1e6),
            "states.gate_self_us": _per(own("states.gate"), calls("states.gate"), 1e6),
            "states.gate_calls": calls("states.gate"),
            "states.born_sample_us": _per(own("states.born_sample"), calls("states.born_sample"), 1e6),
            "states.tensor_trace_us": _per(own("states.tensor_trace"), calls("states.tensor_trace"), 1e6),
            "states.expectation_us": _per(own("states.expectation"), calls("states.expectation"), 1e6),
            "states.memo_hit_ratio": _per(self.memo_hits, self.memo_hits + self.memo_misses),
            "pauli.embed_us": _per(total("pauli.embed"), calls("pauli.embed"), 1e6),
            "pauli.embed_calls": calls("pauli.embed"),
            "oracles.unitary_exact_s": total("oracles.unitary_exact"),
            "oracles.unitary_exact_calls": calls("oracles.unitary_exact"),
            "oracles.lindblad_evolve_s": total("oracles.lindblad_evolve"),
        }
        for k in KERNELS:
            span = "kernels." + k
            moved = sum(kernel_cost(k, dims)[0] * n for dims, n in self.kernel_shapes[k].items())
            out[f"{span}.calls"] = calls(span)
            out[f"{span}.busy_s"] = total(span)
            out[f"{span}.computed_gb_per_s"] = _per(moved, total(span), 1e-9)
        return out


def combine(per_iteration):
    """One value per layer metric over traced iterations: counts from the first
    iteration (they repeat exactly for a fixed seed), times as the median."""
    units = dict(LAYER_METRICS)
    first = per_iteration[0]
    return {
        name: first[name] if units[name] == "count" else statistics.median(m[name] for m in per_iteration)
        for name in first
    }
