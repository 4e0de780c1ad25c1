"""Experiment runner: config loading, subcommands, CSV artifacts.

Config format: flat `section.key = value` lines (# comments), or a JSON file
with the same dotted keys (nested objects are flattened). Model section picks
the damped-chain benchmark (m, J, h, gamma, omega) or a custom collision
problem from Pauli-sum text files. All outputs are RFC-4180 CSV with floats
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
from dataclasses import dataclass, field

import numpy as np

from . import acceptance
from .collisions import (
    Budget,
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
from .estimator import EstimateReport, estimate
from .models import ThermalPrep, amp_damp_model, magnetization
from .oracles import lindblad_evolve
from .pauli import PauliSum
from .states import DensityMatrix, Observable, expectation, load_state

_KNOWN_KEYS = {
    "model.kind",
    "model.m",
    "model.J",
    "model.h",
    "model.gamma",
    "model.omega",
    "model.system_file",
    "model.env_file",
    "model.interaction_file",
    "model.env_width",
    "model.env_omega",
    "model.observable_file",
    "model.rho0_file",
    "dynamics.t",
    "dynamics.eps",
    "dynamics.delta",
    "dynamics.nu",
    "dynamics.backend",
    "dynamics.backends",
    "dynamics.measurement",
    "dynamics.nonmarkov",
    "dynamics.p",
    "dynamics.collisions",
    "dynamics.dt",
    "dynamics.grid",
    "dynamics.steps",
    "dynamics.length",
    "dynamics.N",
    "dynamics.r",
    "dynamics.q",
    "dynamics.c_r",
    "execution.seed",
    "execution.workers",
    "execution.t_override",
    "execution.dense_limit",
    "execution.compilations",
    "output.dir",
    "output.samples",
}

# Keys that change how a run executes, never what it computes: left out of
# config_hash so the CSVs stay byte-identical across them.
_EXECUTION_ONLY_KEYS = ("execution.workers",)

_BENCH_KEYS = ("model.m", "model.J", "model.h", "model.gamma", "model.omega")
_CUSTOM_KEYS = (
    "model.system_file",
    "model.env_file",
    "model.interaction_file",
    "model.env_width",
    "model.env_omega",
)


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


def _as_bool(raw):
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _as_float(raw):
    if isinstance(raw, str) and raw.strip().lower() in ("inf", "+inf", "infinity"):
        return math.inf
    return float(raw)


def _as_int(raw):
    v = float(raw)
    if v != int(v):
        raise ValueError(f"expected an integer, got {raw!r}")
    return int(v)


@dataclass
class ExperimentConfig:
    kind: str = "benchmark"
    m: int = 4
    J: float = 1.0
    h: float = 0.1
    gamma: float = 1.0
    omega: float = math.inf
    system_file: str = ""
    env_file: str = ""
    interaction_file: str = ""
    env_width: int = 1
    env_omega: float = math.inf
    observable_file: str = ""
    rho0_file: str = ""
    t: float = 1.0
    eps: float = 0.01
    delta: float = 0.05
    nu: int = 0  # 0 = auto
    backend: str = "trotter1"
    backends: tuple = ()
    measurement: str = "analytic"
    nonmarkov: bool = False
    p: float = 0.0
    collisions: int = 1
    dt: float = 0.0  # 0 = t / collisions
    grid: int = 1
    overrides: dict = field(default_factory=dict)
    seed: int = 0
    workers: int = 1
    t_override: int = 0  # 0 = no override
    dense_limit: int = 0  # 0 = leave the default
    compilations: int = 32
    out_dir: str = "."
    samples: bool = False
    raw: dict = field(default_factory=dict)

    def config_hash(self):
        keys = sorted(k for k in self.raw if k not in _EXECUTION_ONLY_KEYS)
        lines = "\n".join(f"{k}={self.raw[k]}" for k in keys)
        return hashlib.sha256(lines.encode()).hexdigest()[:12]


def build_config(mapping):
    unknown = sorted(set(mapping) - _KNOWN_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    cfg = ExperimentConfig(raw=dict(mapping))
    get = mapping.get
    cfg.kind = str(get("model.kind", "benchmark")).strip()
    if cfg.kind not in ("benchmark", "custom"):
        raise ValueError(f"model.kind must be benchmark or custom, got {cfg.kind!r}")
    if cfg.kind == "benchmark" and any(k in mapping for k in _CUSTOM_KEYS):
        raise ValueError("custom model keys present with model.kind = benchmark")
    if cfg.kind == "custom" and any(k in mapping for k in _BENCH_KEYS):
        raise ValueError("benchmark model keys present with model.kind = custom")
    cfg.m = _as_int(get("model.m", 4))
    cfg.J = _as_float(get("model.J", 1.0))
    cfg.h = _as_float(get("model.h", 0.1))
    cfg.gamma = _as_float(get("model.gamma", 1.0))
    cfg.omega = _as_float(get("model.omega", math.inf))
    cfg.system_file = str(get("model.system_file", "")).strip()
    cfg.env_file = str(get("model.env_file", "")).strip()
    cfg.interaction_file = str(get("model.interaction_file", "")).strip()
    cfg.env_width = _as_int(get("model.env_width", 1))
    cfg.env_omega = _as_float(get("model.env_omega", math.inf))
    cfg.observable_file = str(get("model.observable_file", "")).strip()
    cfg.rho0_file = str(get("model.rho0_file", "")).strip()
    cfg.t = _as_float(get("dynamics.t", 1.0))
    cfg.eps = _as_float(get("dynamics.eps", 0.01))
    cfg.delta = _as_float(get("dynamics.delta", 0.05))
    nu_raw = get("dynamics.nu", "auto")
    cfg.nu = 0 if str(nu_raw).strip().lower() == "auto" else _as_int(nu_raw)
    cfg.backend = str(get("dynamics.backend", "trotter1")).strip()
    backends_raw = str(get("dynamics.backends", "")).strip()
    cfg.backends = (
        tuple(s.strip() for s in backends_raw.split(",") if s.strip())
        if backends_raw
        else (cfg.backend,)
    )
    cfg.measurement = str(get("dynamics.measurement", "analytic")).strip()
    cfg.nonmarkov = _as_bool(get("dynamics.nonmarkov", False))
    cfg.p = _as_float(get("dynamics.p", 0.0))
    cfg.collisions = _as_int(get("dynamics.collisions", 1))
    cfg.dt = _as_float(get("dynamics.dt", 0.0))
    cfg.grid = _as_int(get("dynamics.grid", 1))
    for key, name in (
        ("dynamics.steps", "steps"),
        ("dynamics.length", "length"),
        ("dynamics.N", "length"),
        ("dynamics.r", "r"),
        ("dynamics.q", "q"),
    ):
        if key in mapping:
            cfg.overrides[name] = _as_int(mapping[key])
    if "dynamics.c_r" in mapping:
        cfg.overrides["c_r"] = _as_float(mapping["dynamics.c_r"])
    cfg.seed = _as_int(get("execution.seed", 0))
    cfg.workers = _as_int(get("execution.workers", 1))
    cfg.t_override = _as_int(get("execution.t_override", 0))
    cfg.dense_limit = _as_int(get("execution.dense_limit", 0))
    cfg.compilations = _as_int(get("execution.compilations", 32))
    cfg.out_dir = str(get("output.dir", ".")).strip()
    cfg.samples = _as_bool(get("output.samples", False))

    if not 0.0 < cfg.eps < 1.0:
        raise ValueError(f"dynamics.eps must be in (0, 1), got {cfg.eps}")
    if not 0.0 < cfg.delta < 1.0:
        raise ValueError(f"dynamics.delta must be in (0, 1), got {cfg.delta}")
    if cfg.measurement not in ("analytic", "shot"):
        raise ValueError("dynamics.measurement must be analytic or shot")
    if not 0.0 <= cfg.p <= 1.0:
        raise ValueError(f"dynamics.p must be in [0, 1], got {cfg.p}")
    if cfg.kind == "custom":
        for name, path in (
            ("model.system_file", cfg.system_file),
            ("model.env_file", cfg.env_file),
            ("model.interaction_file", cfg.interaction_file),
            ("model.observable_file", cfg.observable_file),
        ):
            if not path:
                raise ValueError(f"{name} is required for a custom model")
            if not os.path.exists(path):
                raise ValueError(f"{name}: no such file {path!r}")
        if cfg.nu:
            raise ValueError("dynamics.nu applies to the benchmark model only")
        if cfg.collisions < 1:
            raise ValueError("dynamics.collisions must be >= 1")
    if cfg.rho0_file and not os.path.exists(cfg.rho0_file):
        raise ValueError(f"model.rho0_file: no such file {cfg.rho0_file!r}")
    parse_backend(cfg.backend)
    for label in cfg.backends:
        parse_backend(label)
    return cfg


def load_config(path):
    return build_config(load_config_mapping(path))


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


def build_problem(cfg, eps=None, t=None, nu=None, p=None):
    """Assemble (spec, observable, initial state) for one run, resolving nu."""
    eps = cfg.eps if eps is None else eps
    t = cfg.t if t is None else t
    p = cfg.p if p is None else p
    if cfg.kind == "benchmark":
        model = amp_damp_model(cfg.m, cfg.J, cfg.h, cfg.gamma, cfg.omega)
        obs = _load_observable(cfg, cfg.m)
        rho0 = _load_rho0(cfg, cfg.m)
        trace = ()
        nu_used = nu if nu is not None else cfg.nu
        if not nu_used:
            nu_used, rows = suggest_nu(model, t, obs, rho0, eps)
            trace = tuple(rows)
        spec = lindblad_collision_spec(model, t, nu_used)
    else:
        with open(cfg.system_file, "r", encoding="utf-8") as fh:
            system_h = PauliSum.from_text(fh.read())
        n = system_h.n
        with open(cfg.env_file, "r", encoding="utf-8") as fh:
            env_h = PauliSum.from_text(fh.read(), n=cfg.env_width)
        with open(cfg.interaction_file, "r", encoding="utf-8") as fh:
            inter = PauliSum.from_text(fh.read(), n=n + cfg.env_width)
        dt = cfg.dt if cfg.dt > 0 else t / cfg.collisions
        col = Collision(cfg.env_width, env_h, inter, ThermalPrep(cfg.env_omega, cfg.env_width))
        spec = CollisionSpec(n, system_h, (col,) * cfg.collisions, dt)
        obs = _load_observable(cfg, n)
        rho0 = _load_rho0(cfg, n)
        model = None
        nu_used = 0
        trace = ()
    if cfg.nonmarkov:
        spec = NonMarkovSpec(spec, p)
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


def _estimate(cfg, problem, backend_label, eps=None, keep_samples=False):
    backend = parse_backend(backend_label, **cfg.overrides)
    return estimate(
        problem.spec,
        problem.rho0,
        problem.obs,
        backend,
        cfg.eps if eps is None else eps,
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
        f"mean CNOTs/run = {rep.resources_mean.cnot_count:.6g})",
        file=sys.stderr,
    )
    return 0


def cmd_oracle(cfg, out_dir):
    problem = build_problem(cfg)
    _write_nu_trace(out_dir, cfg, problem)
    rows = []
    if cfg.kind == "benchmark" and not cfg.nonmarkov:
        times = np.linspace(0.0, cfg.t, cfg.grid) if cfg.grid > 1 else [cfg.t]
        for t in times:
            val = expectation(lindblad_evolve(problem.model, problem.rho0, float(t)), problem.obs)
            rows.append((float(t), val))
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
    spec = problem.spec.base if cfg.nonmarkov else problem.spec
    budget = Budget(cfg.eps, problem.obs.norm)
    h = cfg.config_hash()
    rows = []
    for label in cfg.backends:
        backend = parse_backend(label, **cfg.overrides)
        rep = expected_resources(
            spec, backend, budget, seed=cfg.seed, lcu_samples=cfg.compilations
        )
        rows.append(
            (
                backend.label(),
                cfg.t,
                cfg.eps,
                problem.nu or None,
                spec.K,
                rep.cnot_count,
                rep.rotation_count,
                rep.pauli_gate_count,
                rep.depth_proxy,
                rep.env_preps,
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
    if axis not in _SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {_SWEEP_AXES}, got {axis!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    if axis == "nu" and cfg.kind != "benchmark":
        raise ValueError("nu sweeps apply to the benchmark model only")
    if axis == "p" and not cfg.nonmarkov:
        raise ValueError("p sweeps need dynamics.nonmarkov = true")
    h = cfg.config_hash()
    oracle_cache = {}

    def oracle_at(problem, t):
        if cfg.kind != "benchmark" or cfg.nonmarkov:
            return None
        if t not in oracle_cache:
            oracle_cache[t] = expectation(
                lindblad_evolve(problem.model, problem.rho0, t), problem.obs
            )
        return oracle_cache[t]

    rows = []
    for value in values:
        kw = {}
        eps = cfg.eps
        if axis == "eps":
            eps = float(value)
            kw["eps"] = eps
        elif axis == "t":
            kw["t"] = float(value)
        elif axis == "nu":
            kw["nu"] = int(value)
        else:
            kw["p"] = float(value)
        problem = build_problem(cfg, **kw)
        t_here = kw.get("t", cfg.t)
        oracle = oracle_at(problem, t_here)
        for label in cfg.backends:
            rep = _estimate(cfg, problem, label, eps=eps)
            err = None if oracle is None else abs(rep.mu - oracle)
            rows.append(
                (
                    axis,
                    float(value),
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
    results = acceptance.run_all(names)
    all_ok = True
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        all_ok = all_ok and res.passed
        print(f"{tag} {res.name}: {res.detail}")
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


def _apply_flag_overrides(cfg, args):
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.raw["execution.seed"] = str(args.seed)
    if args.workers is not None:
        cfg.workers = args.workers
        cfg.raw["execution.workers"] = str(args.workers)
    if args.backend is not None:
        parse_backend(args.backend)
        cfg.backend = args.backend
        cfg.backends = (args.backend,)
        cfg.raw["dynamics.backend"] = args.backend
    if args.out is not None:
        cfg.out_dir = args.out


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            names = [s.strip() for s in args.only.split(",")] if args.only else None
            return cmd_validate(names)
        cfg = load_config(args.config)
        _apply_flag_overrides(cfg, args)
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
            values = [float(s) for s in args.values.split(",") if s.strip()]
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
