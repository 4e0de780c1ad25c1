"""Experiment runner: config loading, subcommands, CSV artifacts.

Config format: flat `section.key = value` lines (# comments), or a JSON file
with the same dotted keys (nested objects are flattened). Model section picks
the damped-chain benchmark (m, J, h, gamma, omega) or a custom collision
problem from Pauli-sum text files. Each key is one row of `_SCHEMA` (its
parse, default, bound and scope), and CLI flags and swept values are read
through the same rows. All outputs are RFC-4180 CSV with floats
printed at 17 significant digits, so a fixed (config, seed) pair reproduces
byte-identical files.

Exit codes: 0 ok, 1 config error, 2 dense-limit exceeded, 3 numerical failure.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .collisions import (
    Collision,
    CollisionSpec,
    NonMarkovSpec,
    exact_nonmarkov,
    expected_resources,
    lindblad_collision_spec,
    parse_backend,
    suggest_nu,
)
from .errors import DenseLimitError, NumericalError
from .estimator import EstimateReport, estimate, resolve_plan
from .models import ThermalPrep, amp_damp_model, magnetization
from .oracles import Liouvillian, lindblad_evolve
from .pauli import PauliSum
from .states import DensityMatrix, Observable, expectation, load_state

# Keys that change how a run executes, never what it computes: left out of
# config_hash so the CSVs stay byte-identical across them.
_EXECUTION_ONLY_KEYS = ("execution.workers",)


def parse_config_text(text):
    """Flat `key = value` lines into a string map; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"config line {lineno}: empty key")
        if key in out:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = val.strip()
    return out


def _flatten(obj, prefix=""):
    out = {}
    for key, val in obj.items():
        dotted = f"{prefix}{key}"
        if isinstance(val, dict):
            out.update(_flatten(val, dotted + "."))
        else:
            out[dotted] = val
    return out


def load_config_mapping(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        return _flatten(json.loads(text))
    return parse_config_text(text)


# ------------------------------------------------------------ config schema
#
# A parser takes a key's value as given (text, or a JSON scalar) and returns
# it parsed, or raises ValueError with a phrase that build_config prefixes
# with the key's name.


def _text(raw):
    return str(raw).strip()


def _one_of(*choices):
    def parse(raw):
        text = _text(raw)
        if text not in choices:
            raise ValueError(f"must be {' or '.join(choices)}, got {text!r}")
        return text

    return parse


def _flag(raw):
    text = _text(raw).lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"must be true or false, got {raw!r}")


def _real(raw, allow_inf=False):
    try:
        v = float(raw)
    except (TypeError, ValueError):
        v = math.nan
    if math.isnan(v) or (math.isinf(v) and not allow_inf):
        kind = "a number or inf" if allow_inf else "a finite number"
        raise ValueError(f"must be {kind}, got {raw!r}")
    return v


def _real_or_inf(raw):
    return _real(raw, allow_inf=True)


def _integer(raw):
    """Integer text (or a JSON integer) exactly. A float spelling such as 2.0
    or 1e3 is taken only up to 2**53, below which every integer is a float."""
    try:
        return int(repr(raw) if isinstance(raw, float) else raw)
    except (TypeError, ValueError):
        pass
    try:
        v = float(raw)
    except (TypeError, ValueError):
        v = math.nan
    if not (math.isfinite(v) and v == int(v) and abs(v) <= 2**53):
        raise ValueError(f"must be an integer (a float spelling at most 2**53), got {raw!r}")
    return int(v)


def _cycles(raw):
    """dynamics.nu: auto (0, resolved by suggest_nu) or a cycle count >= 1."""
    text = _text(raw)
    if text.lower() == "auto":
        return 0
    try:
        nu = _integer(text)
    except ValueError:
        nu = 0
    if nu < 1:
        raise ValueError(f"must be auto or an integer >= 1, got {text}")
    return nu


def _backend(raw):
    label = _text(raw)
    try:
        parse_backend(label)
    except ValueError as exc:
        raise ValueError(f"must be a backend label, got {label!r}: {exc}") from None
    return label


def _backends(raw):
    """Comma-separated labels; empty text is no list (the default applies)."""
    text = _text(raw)
    return tuple(_backend(s) for s in text.split(",") if s.strip()) if text else None


# A bound is (predicate, phrase); a value it refuses reads "<key> must be
# <phrase>, got <value>".
_AT_LEAST_0 = (lambda v: v >= 0, ">= 0")
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_POSITIVE = (lambda v: v > 0, "> 0")
_OPEN_UNIT = (lambda v: 0 < v < 1, "in (0, 1)")
_UNIT = (lambda v: 0 <= v <= 1, "in [0, 1]")
_EVEN = (lambda v: v >= 0 and v % 2 == 0, "a nonnegative even integer")
_NONEMPTY = (bool, "nonempty")

_BENCH, _CUSTOM = "benchmark", "custom"

# One row per config key: (key, field, parse, default, bound, scope). `field`
# names the ExperimentConfig attribute; None marks a backend override, kept
# in cfg.overrides under the key's last part and only when given. A default
# is taken as it stands; a bound checks a given value. A key with a scope is
# refused under the other model.kind. README.md's config reference mirrors
# these rows.
_SCHEMA = (
    ("model.kind", "kind", _one_of(_BENCH, _CUSTOM), _BENCH, None, None),
    ("model.m", "m", _integer, 4, _AT_LEAST_1, _BENCH),
    ("model.J", "J", _real, 1.0, None, _BENCH),
    ("model.h", "h", _real, 0.1, None, _BENCH),
    ("model.gamma", "gamma", _real, 1.0, _AT_LEAST_0, _BENCH),
    ("model.omega", "omega", _real_or_inf, math.inf, _AT_LEAST_0, _BENCH),
    ("model.system_file", "system_file", _text, "", None, _CUSTOM),
    ("model.env_file", "env_file", _text, "", None, _CUSTOM),
    ("model.interaction_file", "interaction_file", _text, "", None, _CUSTOM),
    ("model.env_width", "env_width", _integer, 1, _AT_LEAST_1, _CUSTOM),
    ("model.env_omega", "env_omega", _real_or_inf, math.inf, _AT_LEAST_0, _CUSTOM),
    ("model.observable_file", "observable_file", _text, "", None, None),
    ("model.rho0_file", "rho0_file", _text, "", None, None),
    ("dynamics.t", "t", _real, 1.0, _POSITIVE, None),
    ("dynamics.eps", "eps", _real, 0.01, _OPEN_UNIT, None),
    ("dynamics.delta", "delta", _real, 0.05, _OPEN_UNIT, None),
    ("dynamics.nu", "nu", _cycles, 0, None, None),
    ("dynamics.backend", "backend", _backend, "trotter1", None, None),
    ("dynamics.backends", "backends", _backends, None, None, None),  # None: (backend,)
    ("dynamics.measurement", "measurement", _one_of("analytic", "shot"), "analytic", None, None),
    ("dynamics.nonmarkov", "nonmarkov", _flag, False, None, None),
    ("dynamics.p", "p", _real, 0.0, _UNIT, None),
    ("dynamics.collisions", "collisions", _integer, 1, _AT_LEAST_1, _CUSTOM),
    ("dynamics.dt", "dt", _real, 0.0, _AT_LEAST_0, _CUSTOM),  # 0: t / collisions
    ("dynamics.grid", "grid", _integer, 1, _AT_LEAST_1, None),
    ("dynamics.steps", None, _integer, None, _AT_LEAST_1, None),
    ("dynamics.length", None, _integer, None, _AT_LEAST_1, None),
    ("dynamics.r", None, _integer, None, _AT_LEAST_1, None),
    ("dynamics.q", None, _integer, None, _EVEN, None),
    ("dynamics.c_r", None, _real, None, _POSITIVE, None),
    ("execution.seed", "seed", _integer, 0, _AT_LEAST_0, None),
    ("execution.workers", "workers", _integer, 1, _AT_LEAST_1, None),
    ("execution.t_override", "t_override", _integer, 0, _AT_LEAST_0, None),  # 0: none
    ("execution.dense_limit", "dense_limit", _integer, 0, _AT_LEAST_0, None),  # 0: default
    ("output.dir", "out_dir", _text, ".", _NONEMPTY, None),
    ("output.samples", "samples", _flag, False, None, None),
)


class ExperimentConfig(SimpleNamespace):
    """A loaded config: one attribute per _SCHEMA field, `overrides` (the
    backend overrides given) and `raw` (the mapping as given)."""

    def config_hash(self):
        keys = sorted(k for k in self.raw if k not in _EXECUTION_ONLY_KEYS)
        lines = "\n".join(f"{k}={self.raw[k]}" for k in keys)
        return hashlib.sha256(lines.encode()).hexdigest()[:12]


def build_config(mapping, names=None):
    """Parse and check a flat `key -> value` mapping, row by row of _SCHEMA,
    then apply the rules that join keys. `names` maps a key to the name its
    errors give instead, such as the CLI flag that set it."""
    names = names or {}
    unknown = sorted(set(mapping) - {row[0] for row in _SCHEMA})
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    cfg = ExperimentConfig(overrides={}, raw=dict(mapping))
    for key, field, parse, default, bound, scope in _SCHEMA:
        if key not in mapping:
            if field:
                setattr(cfg, field, default)
            continue
        if scope and scope != cfg.kind:
            raise ValueError(f"{scope} model keys present with model.kind = {cfg.kind}: {key}")
        name = names.get(key, key)
        try:
            value = parse(mapping[key])
        except ValueError as exc:
            raise ValueError(f"{name} {exc}") from None
        if bound and not bound[0](value):
            raise ValueError(f"{name} must be {bound[1]}, got {value!r}")
        if field:
            setattr(cfg, field, value)
        else:
            cfg.overrides[key.split(".")[1]] = value

    if cfg.backends is None:
        cfg.backends = (cfg.backend,)
    if cfg.kind == _CUSTOM:
        for name in ("system_file", "env_file", "interaction_file", "observable_file"):
            if not getattr(cfg, name):
                raise ValueError(f"model.{name} is required for a custom model")
        if cfg.nu:
            raise ValueError("dynamics.nu applies to the benchmark model only")
    for name in ("system_file", "env_file", "interaction_file", "observable_file", "rho0_file"):
        path = getattr(cfg, name)
        if path and not os.path.exists(path):
            raise ValueError(f"model.{name}: no such file {path!r}")
    return cfg


# -------------------------------------------------------------- CSV output


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


# -------------------------------------------------------- problem assembly


@dataclass
class Problem:
    spec: object  # CollisionSpec or NonMarkovSpec
    obs: Observable
    rho0: DensityMatrix
    model: object  # LindbladModel or None
    nu: int  # 0 when not a benchmark discretization
    nu_trace: tuple


def _load_observable(cfg, n):
    if cfg.observable_file:
        with open(cfg.observable_file, "r", encoding="utf-8") as fh:
            obs = Observable(PauliSum.from_text(fh.read(), n=n))
        return obs
    return magnetization(n)


def _load_rho0(cfg, n):
    if cfg.rho0_file:
        rho0 = load_state(cfg.rho0_file)
        if rho0.n != n:
            raise ValueError(f"rho0 has {rho0.n} qubits, the model has {n}")
        return rho0
    return DensityMatrix.basis(n, 0)


def build_problem(cfg):
    """Assemble (spec, observable, initial state) for one run, resolving nu."""
    if cfg.kind == "benchmark":
        model = amp_damp_model(cfg.m, cfg.J, cfg.h, cfg.gamma, cfg.omega)
        obs = _load_observable(cfg, cfg.m)
        rho0 = _load_rho0(cfg, cfg.m)
        trace = ()
        nu_used = cfg.nu
        if not nu_used:
            nu_used, rows = suggest_nu(model, cfg.t, obs, rho0, cfg.eps)
            trace = tuple(rows)
        spec = lindblad_collision_spec(model, cfg.t, nu_used)
    else:
        with open(cfg.system_file, "r", encoding="utf-8") as fh:
            system_h = PauliSum.from_text(fh.read())
        n = system_h.n
        with open(cfg.env_file, "r", encoding="utf-8") as fh:
            env_h = PauliSum.from_text(fh.read(), n=cfg.env_width)
        with open(cfg.interaction_file, "r", encoding="utf-8") as fh:
            inter = PauliSum.from_text(fh.read(), n=n + cfg.env_width)
        dt = cfg.dt if cfg.dt > 0 else cfg.t / cfg.collisions
        col = Collision(cfg.env_width, env_h, inter, ThermalPrep(cfg.env_omega, cfg.env_width))
        spec = CollisionSpec(n, system_h, (col,) * cfg.collisions, dt)
        obs = _load_observable(cfg, n)
        rho0 = _load_rho0(cfg, n)
        model = None
        nu_used = 0
        trace = ()
    if cfg.nonmarkov:
        spec = NonMarkovSpec(spec, cfg.p)
    return Problem(spec, obs, rho0, model, nu_used, trace)


def _write_nu_trace(out_dir, cfg, problem):
    if not problem.nu_trace:
        return
    rows = [(nu, est, delta) for nu, est, delta in problem.nu_trace]
    _write_csv(
        os.path.join(out_dir, "nu_trace.csv"),
        ("nu", "estimate", "change"),
        [(n, e, None if isinstance(d, float) and math.isnan(d) else d) for n, e, d in rows],
    )


def _estimate(cfg, problem, backend_label, keep_samples=False):
    backend = parse_backend(backend_label, **cfg.overrides)
    return estimate(
        problem.spec,
        problem.rho0,
        problem.obs,
        backend,
        cfg.eps,
        delta=cfg.delta,
        seed=cfg.seed,
        measurement=cfg.measurement,
        t_override=cfg.t_override or None,
        workers=cfg.workers,
        keep_samples=keep_samples,
    )


# ------------------------------------------------------------- subcommands


def cmd_run(cfg, out_dir):
    problem = build_problem(cfg)
    _write_nu_trace(out_dir, cfg, problem)
    rep = _estimate(cfg, problem, cfg.backend, keep_samples=cfg.samples)
    header = EstimateReport.ROW_FIELDS + ("config_hash",)
    _write_csv(os.path.join(out_dir, "run.csv"), header, [rep.as_row() + (cfg.config_hash(),)])
    if cfg.samples:
        _write_csv(
            os.path.join(out_dir, "samples.csv"),
            ("run_index", "mu_k"),
            list(enumerate(rep.samples)),
        )
    print(
        f"mu = {rep.mu:.6g} +- {rep.stderr:.3g} (T = {rep.t_runs}, backend {rep.backend}, "
        f"expected CNOTs per run = {rep.resources_mean.cnot_count:.6g})",
        file=sys.stderr,
    )
    return 0


def _evolve_through(liou, rho0, times):
    """(t, state at t) for increasing times, each state evolved from the last."""
    state, now = rho0, 0.0
    for t in times:
        state = lindblad_evolve(liou, state, float(t) - now)
        now = float(t)
        yield now, state


def cmd_oracle(cfg, out_dir):
    problem = build_problem(cfg)
    _write_nu_trace(out_dir, cfg, problem)
    rows = []
    if cfg.kind == "benchmark" and not cfg.nonmarkov:
        times = np.linspace(0.0, cfg.t, cfg.grid) if cfg.grid > 1 else [cfg.t]
        for t, state in _evolve_through(Liouvillian(problem.model), problem.rho0, times):
            rows.append((t, expectation(state, problem.obs)))
    else:
        spec = problem.spec if cfg.nonmarkov else NonMarkovSpec(problem.spec, 0.0)
        base = spec.base
        rows.append((0.0, expectation(problem.rho0, problem.obs)))
        _, marginals = exact_nonmarkov(spec, problem.rho0, trajectory=True)
        for k, state in enumerate(marginals, 1):
            rows.append((k * base.dt, expectation(state, problem.obs)))
    h = cfg.config_hash()
    _write_csv(
        os.path.join(out_dir, "oracle.csv"),
        ("t", "expectation", "config_hash"),
        [(t, v, h) for t, v in rows],
    )
    print(f"oracle <O>(t = {rows[-1][0]:.6g}) = {rows[-1][1]:.8g}", file=sys.stderr)
    return 0


def cmd_resources(cfg, out_dir):
    problem = build_problem(cfg)
    _write_nu_trace(out_dir, cfg, problem)
    h = cfg.config_hash()
    rows = []
    for label in cfg.backends:
        backend = parse_backend(label, **cfg.overrides)
        # priced under the plan an estimate of this config runs
        spec, plan = resolve_plan(
            problem.spec, backend, cfg.eps, cfg.measurement, problem.obs.norm
        )
        if plan is None:
            raise ValueError(f"backend {backend.label()!r} has no gate costs")
        rep = expected_resources(problem.spec, plan)
        rows.append(
            (
                backend.label(),
                cfg.t,
                cfg.eps,
                problem.nu or None,
                spec.K,
                *rep.as_tuple(),
                h,
            )
        )
    _write_csv(
        os.path.join(out_dir, "resources.csv"),
        (
            "backend",
            "t",
            "eps",
            "nu",
            "collisions",
            "cnot",
            "rotation",
            "pauli_gate",
            "depth_proxy",
            "env_preps",
            "config_hash",
        ),
        rows,
    )
    for row in rows:
        print(f"{row[0]}: {row[5]:.6g} CNOTs/run", file=sys.stderr)
    return 0


_SWEEP_AXES = ("eps", "t", "nu", "p")


def cmd_sweep(cfg, out_dir, axis, values):
    """One estimate row per (value, backend); `values` are texts, each read
    as the config's dynamics.<axis> key."""
    if not values:
        raise ValueError("--values needs at least one value")
    if axis == "p" and not cfg.nonmarkov:
        raise ValueError("p sweeps need dynamics.nonmarkov = true")
    key = f"dynamics.{axis}"
    points = [getattr(build_config({**cfg.raw, key: text}), axis) for text in values]
    if axis == "nu" and 0 in points:  # auto is a search, not a point
        raise ValueError(f"{key} sweep values must be integers >= 1, not auto")
    h = cfg.config_hash()
    oracle_cache = {}

    def oracle_at(problem, t):
        if cfg.kind != "benchmark" or cfg.nonmarkov:
            return None
        if not oracle_cache:
            # no swept axis changes the model or rho0: one pass through the
            # sorted times gives every oracle value
            times = sorted(set(points)) if axis == "t" else [t]
            liou = Liouvillian(problem.model)
            for now, state in _evolve_through(liou, problem.rho0, times):
                oracle_cache[now] = expectation(state, problem.obs)
        return oracle_cache[t]

    rows = []
    for point in points:
        swept = ExperimentConfig(**{**vars(cfg), axis: point})
        problem = build_problem(swept)
        oracle = oracle_at(problem, swept.t)
        for label in cfg.backends:
            rep = _estimate(swept, problem, label)
            err = None if oracle is None else abs(rep.mu - oracle)
            rows.append(
                (
                    axis,
                    float(point),
                    rep.backend,
                    rep.mu,
                    rep.stderr,
                    rep.t_runs,
                    rep.zeta,
                    rep.resources_mean.cnot_count,
                    rep.resources_mean.depth_proxy,
                    oracle,
                    err,
                    h,
                )
            )
    _write_csv(
        os.path.join(out_dir, "sweep.csv"),
        (
            "axis",
            "value",
            "backend",
            "mu",
            "stderr",
            "t_runs",
            "zeta",
            "cnot_mean",
            "depth_proxy_mean",
            "oracle",
            "error",
            "config_hash",
        ),
        rows,
    )
    print(f"sweep over {axis}: {len(rows)} rows", file=sys.stderr)
    return 0


def cmd_validate(names=None):
    from . import acceptance  # only validate needs the release criteria

    results = acceptance.run_all(names)
    all_ok = True
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        all_ok = all_ok and res.passed
        print(f"{tag} {res.name}: {res.detail}")
        print(f"{res.name}: {res.seconds:.2f} s", file=sys.stderr)
    return 0 if all_ok else 1


# ------------------------------------------------------------------ driver


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="collidesim",
        description="Collision-model simulation and resource estimation runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="config file path")
        p.add_argument("--seed", type=int, default=None, help="override execution.seed")
        p.add_argument("--workers", type=int, default=None, help="override execution.workers")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--backend", default=None, help="override dynamics.backend")

    common(sub.add_parser("run", help="estimate Tr[O M_K[rho]] and write run.csv"))
    common(sub.add_parser("oracle", help="exact Lindblad / collision expectation CSV"))
    common(sub.add_parser("resources", help="per-backend expected gate counts CSV"))
    sweep = sub.add_parser("sweep", help="one estimate row per (value, backend)")
    common(sweep)
    sweep.add_argument("--axis", required=True, choices=_SWEEP_AXES)
    sweep.add_argument("--values", required=True, help="comma-separated axis values")
    val = sub.add_parser("validate", help="run the release criteria, print PASS/FAIL lines")
    val.add_argument("--only", default=None, help="comma-separated criterion names")
    return parser


_FLAG_KEYS = (
    ("seed", "execution.seed"),
    ("workers", "execution.workers"),
    ("backend", "dynamics.backend"),
)


def _flagged_config(args):
    """The config file with the --seed, --workers, --backend and --out values
    written over their keys, built as one mapping: an error in a flag names
    the flag."""
    mapping = load_config_mapping(args.config)
    names = {}
    for flag, key in _FLAG_KEYS:
        value = getattr(args, flag)
        if value is not None:
            mapping[key] = str(value)
            names[key] = f"--{flag}"
    raw = dict(mapping)
    if args.out is not None:  # where the CSVs go, not what they hold: not in raw or config_hash
        mapping["output.dir"] = args.out
        names["output.dir"] = "--out"
    cfg = build_config(mapping, names)
    cfg.raw = raw
    if args.backend is not None:
        cfg.backends = (cfg.backend,)  # the flag runs its backend alone
    return cfg


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            names = [s.strip() for s in args.only.split(",")] if args.only else None
            return cmd_validate(names)
        cfg = _flagged_config(args)
        if cfg.dense_limit:
            os.environ["COLLIDESIM_DENSE_LIMIT"] = str(cfg.dense_limit)
        out_dir = cfg.out_dir
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "run":
            return cmd_run(cfg, out_dir)
        if args.command == "oracle":
            return cmd_oracle(cfg, out_dir)
        if args.command == "resources":
            return cmd_resources(cfg, out_dir)
        if args.command == "sweep":
            values = [s.strip() for s in args.values.split(",") if s.strip()]
            return cmd_sweep(cfg, out_dir, args.axis, values)
        raise ValueError(f"unknown command {args.command!r}")
    except DenseLimitError as exc:
        print(f"dense-limit error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
