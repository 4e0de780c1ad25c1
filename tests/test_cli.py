"""Config parsing, subcommand plumbing, CSV reproducibility, exit codes."""

import csv
import json
import math
import os
import re

import pytest

from collidesim import (
    DensityMatrix,
    amp_damp_model,
    cli,
    estimate,
    expectation,
    expected_resources,
    lindblad_evolve,
    magnetization,
    parse_backend,
    required_precision,
)
from collidesim.errors import NumericalError
from collidesim.estimator import EstimateReport, resolve_plan
from collidesim.oracles import Liouvillian
from fresh_interpreter import run_child


def test_parse_config_text():
    text = """
    # damped chain, short run
    model.m = 3
    dynamics.eps = 0.05   # trailing comment
    dynamics.backend = qdrift
    """
    got = cli.parse_config_text(text)
    assert got == {"model.m": "3", "dynamics.eps": "0.05", "dynamics.backend": "qdrift"}


@pytest.mark.parametrize(
    "bad",
    ["model.m 3", "= 5", "model.m = 1\nmodel.m = 2"],
    ids=["no-equals", "empty-key", "duplicate"],
)
def test_parse_config_text_rejects(bad):
    with pytest.raises(ValueError):
        cli.parse_config_text(bad)


def test_build_config_defaults_and_overrides():
    cfg = cli.build_config({})
    assert cfg.kind == "benchmark" and cfg.m == 4 and cfg.nu == 0
    assert cfg.backends == ("trotter1",)
    cfg = cli.build_config(
        {
            "dynamics.backends": "trotter1, qdrift ,salcu",
            "dynamics.steps": "12",
            "dynamics.length": "40",
            "dynamics.c_r": "1.5",
            "dynamics.nu": "8",
            "model.omega": "inf",
        }
    )
    assert cfg.backends == ("trotter1", "qdrift", "salcu")
    assert cfg.overrides == {"steps": 12, "length": 40, "c_r": 1.5}
    assert cfg.nu == 8
    assert cfg.omega == math.inf


_HERE = os.path.abspath(__file__)
# a custom model whose four files exist (this file stands in for each)
_CUSTOM = {
    "model.kind": "custom",
    "model.system_file": _HERE,
    "model.env_file": _HERE,
    "model.interaction_file": _HERE,
    "model.observable_file": _HERE,
}

# (id, mapping, the key its error must name)
_REJECTS = [
    ("unknown-key", {"model.flavor": "x"}, "model.flavor"),
    ("eps-range", {"dynamics.eps": "0"}, "dynamics.eps"),
    ("delta-range", {"dynamics.delta": "1"}, "dynamics.delta"),
    ("p-range", {"dynamics.p": "1.5"}, "dynamics.p"),
    ("measurement", {"dynamics.measurement": "weak"}, "dynamics.measurement"),
    ("backend", {"dynamics.backend": "suzuki"}, "dynamics.backend"),
    ("custom-missing-files", {"model.kind": "custom"}, "model.system_file"),
    ("mixed-custom", {"model.kind": "custom", "model.J": "1.0"}, "model.J"),
    ("mixed-benchmark", {"model.kind": "benchmark", "model.env_width": "2"}, "model.env_width"),
    ("non-integer", {"model.m": "2.5"}, "model.m"),
    ("negative-t-override", {"execution.t_override": "-3"}, "execution.t_override"),
    ("length-alias", {"dynamics.N": "40"}, "dynamics.N"),
    ("no-compilations", {"execution.compilations": "0"}, "execution.compilations"),
    ("infinite-seed", {"execution.seed": "inf"}, "execution.seed"),
    ("overflowing-nu", {"dynamics.nu": "1e400"}, "dynamics.nu"),
    ("nu-zero", {"dynamics.nu": "0"}, "dynamics.nu"),
    ("nu-negative", {"dynamics.nu": "-2"}, "dynamics.nu"),
    ("negative-seed", {"execution.seed": "-1"}, "execution.seed"),
    ("negative-dense-limit", {"execution.dense_limit": "-1"}, "execution.dense_limit"),
    ("nan-gamma", {"model.gamma": "nan"}, "model.gamma"),
    ("nan-J", {"model.J": "nan"}, "model.J"),
    ("infinite-h", {"model.h": "-inf"}, "model.h"),
    ("nan-omega", {"model.omega": "nan"}, "model.omega"),
    ("nan-t", {"dynamics.t": "nan"}, "dynamics.t"),
    ("infinite-t", {"dynamics.t": "inf"}, "dynamics.t"),
    ("zero-t", {"dynamics.t": "0"}, "dynamics.t"),
    ("nan-dt", {"model.kind": "custom", "dynamics.dt": "nan"}, "dynamics.dt"),
    ("infinite-c_r", {"dynamics.c_r": "inf"}, "dynamics.c_r"),
    ("negative-gamma", {"model.gamma": "-1"}, "model.gamma"),
    ("negative-omega", {"model.omega": "-1"}, "model.omega"),
    ("negative-env_omega", {"model.kind": "custom", "model.env_omega": "-1"}, "model.env_omega"),
    ("negative-length", {"dynamics.length": "-2"}, "dynamics.length"),
    (
        "zero-overrides",
        {"dynamics.steps": "0", "dynamics.length": "0", "dynamics.r": "0"},
        "dynamics.steps",
    ),
    ("zero-steps", {"dynamics.steps": "0"}, "dynamics.steps"),
    ("zero-length", {"dynamics.length": "0"}, "dynamics.length"),
    ("zero-r", {"dynamics.r": "0"}, "dynamics.r"),
    (
        "negative-steps-for-qdrift",
        {"dynamics.steps": "-3", "dynamics.backend": "qdrift"},
        "dynamics.steps",
    ),
    ("zero-c_r", {"dynamics.c_r": "0"}, "dynamics.c_r"),
    ("negative-c_r", {"dynamics.c_r": "-1.5"}, "dynamics.c_r"),
    ("negative-q", {"dynamics.q": "-2"}, "dynamics.q"),
    ("negative-dt", {"model.kind": "custom", "dynamics.dt": "-0.1"}, "dynamics.dt"),
    ("benchmark-dt", {"dynamics.dt": "0.3"}, "dynamics.dt"),
    ("benchmark-collisions", {"dynamics.collisions": "7"}, "dynamics.collisions"),
    ("kind", {"model.kind": "chain"}, "model.kind"),
    ("zero-m", {"model.m": "0"}, "model.m"),
    ("negative-m", {"model.m": "-2"}, "model.m"),
    ("benchmark-system_file", {"model.system_file": _HERE}, "model.system_file"),
    ("missing-env_file", {**_CUSTOM, "model.env_file": "missing.txt"}, "model.env_file"),
    (
        "missing-interaction_file",
        {**_CUSTOM, "model.interaction_file": "missing.txt"},
        "model.interaction_file",
    ),
    ("zero-env_width", {**_CUSTOM, "model.env_width": "0"}, "model.env_width"),
    (
        "missing-observable_file",
        {**_CUSTOM, "model.observable_file": "missing.txt"},
        "model.observable_file",
    ),
    ("missing-rho0_file", {"model.rho0_file": "missing.bin"}, "model.rho0_file"),
    ("nan-delta", {"dynamics.delta": "nan"}, "dynamics.delta"),
    ("nu-text", {"dynamics.nu": "abc"}, "dynamics.nu"),
    ("custom-nu", {**_CUSTOM, "dynamics.nu": "4"}, "dynamics.nu"),
    ("backend-k-text", {"dynamics.backend": "trotter2k:x"}, "dynamics.backend"),
    ("backend-k-zero", {"dynamics.backend": "trotter2k:0"}, "dynamics.backend"),
    ("backends", {"dynamics.backends": "trotter1,trotter2k:0"}, "dynamics.backends"),
    ("nonmarkov", {"dynamics.nonmarkov": "maybe"}, "dynamics.nonmarkov"),
    ("zero-collisions", {**_CUSTOM, "dynamics.collisions": "0"}, "dynamics.collisions"),
    ("zero-grid", {"dynamics.grid": "0"}, "dynamics.grid"),
    ("odd-q", {"dynamics.q": "3"}, "dynamics.q"),
    ("inexact-seed", {"execution.seed": "1e30"}, "execution.seed"),
    ("non-integer-workers", {"execution.workers": "2.5"}, "execution.workers"),
    ("samples", {"output.samples": "2"}, "output.samples"),
]


@pytest.mark.parametrize("mapping, key", [pytest.param(m, k, id=i) for i, m, k in _REJECTS])
def test_build_config_rejects(mapping, key):
    with pytest.raises(ValueError, match=re.escape(key)):
        cli.build_config(mapping)


def test_every_config_key_has_a_rejecting_input():
    # output.dir alone takes any text: it names a directory made at run time
    keys = {row[0] for row in cli._SCHEMA} - {"output.dir"}
    assert keys <= {key for _, _, key in _REJECTS}
    assert cli.build_config(_CUSTOM).kind == "custom"  # the custom base loads


def test_integer_keys_load_exactly():
    # integer text is read as an integer, not through a float; a float
    # spelling is taken where it is exact, and refused above 2**53
    for text in ("9007199254740993", "12345678901234567891"):
        assert cli.build_config({"execution.seed": text}).seed == int(text)
    assert cli.build_config({"execution.seed": "2.0"}).seed == 2
    assert cli.build_config({"execution.seed": "1e3"}).seed == 1000
    assert cli.build_config({"execution.seed": str(2**53) + ".0"}).seed == 2**53
    with pytest.raises(ValueError, match="execution.seed"):
        cli.build_config({"execution.seed": "1e30"})


def test_build_config_checks_dt_range_before_custom_files():
    # a custom model's dt is range-checked with the config, ahead of its files
    for value, message in (("nan", "must be a finite number"), ("-0.1", "must be >= 0")):
        with pytest.raises(ValueError, match=f"dynamics.dt {message}"):
            cli.build_config({"model.kind": "custom", "dynamics.dt": value})


def test_benchmark_model_refuses_the_custom_collision_keys(tmp_path):
    # the benchmark model takes its collisions from dynamics.nu; dt and
    # collisions would otherwise be accepted and ignored
    for extra in ("dynamics.dt = 0.3\n", "dynamics.collisions = 7\n"):
        with pytest.raises(ValueError, match="custom model keys present"):
            cli.build_config(cli.load_config_mapping(_bench_cfg(tmp_path, extra)))
        assert cli.main(["resources", "--config", _bench_cfg(tmp_path, extra)]) == 1


def test_build_config_names_a_negative_model_value():
    # checked with the config, not later when a model or env state is built
    for key, extra in (
        ("model.gamma", {}),
        ("model.omega", {}),
        ("model.env_omega", {"model.kind": "custom"}),
    ):
        with pytest.raises(ValueError, match=f"{key} must be >= 0"):
            cli.build_config({**extra, key: "-1"})


def test_build_config_takes_inf_only_for_env_omegas(tmp_path):
    # inf is the zero-temperature environment; every other float key must be finite
    assert cli.build_config({"model.omega": "inf"}).omega == math.inf
    custom = cli.load_config_mapping(_custom_files(tmp_path))
    assert cli.build_config({**custom, "model.env_omega": "inf"}).env_omega == math.inf
    with pytest.raises(ValueError, match="model.env_omega"):
        cli.build_config({**custom, "model.env_omega": "nan"})


def test_json_config_flattens(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"m": 3}, "dynamics": {"eps": 0.2}}))
    cfg = cli.build_config(cli.load_config_mapping(str(path)))
    assert cfg.m == 3 and cfg.eps == 0.2


def test_config_hash_tracks_raw_content():
    a = cli.build_config({"model.m": "3"})
    b = cli.build_config({"model.m": "3"})
    c = cli.build_config({"model.m": "4"})
    assert a.config_hash() == b.config_hash() != c.config_hash()


def _bench_cfg(tmp_path, extra=""):
    path = tmp_path / "bench.cfg"
    path.write_text(
        "model.m = 2\n"
        "dynamics.t = 0.5\n"
        "dynamics.eps = 0.05\n"
        "dynamics.nu = 2\n"
        "dynamics.backend = trotter1\n"
        f"output.dir = {tmp_path}\n" + extra
    )
    return str(path)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_run_writes_csv_and_reproduces(tmp_path):
    cfg = _bench_cfg(tmp_path)
    assert cli.main(["run", "--config", cfg]) == 0
    out = tmp_path / "run.csv"
    rows = _read_csv(out)
    assert rows[0] == list(EstimateReport.ROW_FIELDS) + ["config_hash"]
    assert len(rows) == 2
    mu = float(rows[1][0])
    assert -1.0 <= mu <= 1.0
    first = out.read_bytes()
    assert cli.main(["run", "--config", cfg]) == 0
    assert out.read_bytes() == first


def test_run_seed_flag_changes_hash_column(tmp_path):
    cfg = _bench_cfg(tmp_path, "execution.t_override = 5\n")
    assert cli.main(["run", "--config", cfg, "--backend", "qdrift"]) == 0
    base = _read_csv(tmp_path / "run.csv")[1]
    assert base[EstimateReport.ROW_FIELDS.index("backend")] == "qdrift"
    assert cli.main(["run", "--config", cfg, "--backend", "qdrift", "--seed", "9"]) == 0
    seeded = _read_csv(tmp_path / "run.csv")[1]
    assert seeded[-1] != base[-1]  # hash covers the effective config
    assert seeded[EstimateReport.ROW_FIELDS.index("seed")] == "9"


def test_run_with_auto_nu_writes_trace(tmp_path):
    cfg = _bench_cfg(tmp_path, "dynamics.nu = auto\n")
    # duplicate-key guard applies per file, so rebuild without the pinned nu
    (tmp_path / "bench.cfg").write_text(
        "model.m = 2\ndynamics.t = 0.5\ndynamics.eps = 0.1\n"
        f"dynamics.nu = auto\noutput.dir = {tmp_path}\n"
    )
    assert cli.main(["run", "--config", cfg]) == 0
    rows = _read_csv(tmp_path / "nu_trace.csv")
    assert rows[0] == ["nu", "estimate", "change"]
    assert rows[1][2] == ""  # no change column for the first doubling
    assert int(rows[1][0]) == 1


def test_oracle_grid_csv(tmp_path):
    cfg = _bench_cfg(tmp_path, "dynamics.grid = 3\n")
    assert cli.main(["oracle", "--config", cfg]) == 0
    rows = _read_csv(tmp_path / "oracle.csv")
    assert rows[0] == ["t", "expectation", "config_hash"]
    times = [float(r[0]) for r in rows[1:]]
    assert times == pytest.approx([0.0, 0.25, 0.5])
    # magnetization of the all-zeros state decays from 1 under damping to |0>
    assert float(rows[1][1]) == pytest.approx(1.0)


def test_oracle_grid_csv_reproduces(tmp_path):
    cfg = _bench_cfg(tmp_path, "dynamics.grid = 3\n")
    assert cli.main(["oracle", "--config", cfg]) == 0
    first = (tmp_path / "oracle.csv").read_bytes()
    assert cli.main(["oracle", "--config", cfg]) == 0
    assert (tmp_path / "oracle.csv").read_bytes() == first


def _count_applies(monkeypatch):
    calls = []
    apply = Liouvillian.apply

    def counted(self, *args, **kwargs):
        calls.append(1)
        return apply(self, *args, **kwargs)

    monkeypatch.setattr(Liouvillian, "apply", counted)
    return calls


def test_oracle_grid_evolves_each_time_from_the_last(tmp_path, monkeypatch):
    calls = _count_applies(monkeypatch)
    lindblad_evolve(amp_damp_model(3), DensityMatrix.basis(3, 0), 2.0)
    endpoint = len(calls)
    calls.clear()
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "model.m = 3\ndynamics.t = 2.0\ndynamics.nu = 2\ndynamics.grid = 11\n"
        f"output.dir = {tmp_path}\n"
    )
    assert cli.main(["oracle", "--config", str(cfg)]) == 0
    # the endpoint's work plus a few Taylor terms per grid interval, where
    # evolving every time from rho0 made about grid / 2 endpoints' worth
    assert len(calls) <= endpoint + 8 * 10
    rows = _read_csv(tmp_path / "oracle.csv")
    model, obs, rho0 = amp_damp_model(3), magnetization(3), DensityMatrix.basis(3, 0)
    for row in rows[1:]:
        want = expectation(lindblad_evolve(model, rho0, float(row[0])), obs)
        assert abs(float(row[1]) - want) <= 1e-12


def test_sweep_t_evolves_its_sorted_times_once(tmp_path, monkeypatch):
    calls = _count_applies(monkeypatch)
    lindblad_evolve(amp_damp_model(2), DensityMatrix.basis(2, 0), 1.0)
    endpoint = len(calls)
    calls.clear()
    cfg = _bench_cfg(tmp_path)
    values = "1.0,0.25,0.75,0.5"
    argv = ["sweep", "--config", cfg, "--axis", "t", "--values", values, "--backend", "trotter1"]
    assert cli.main(argv) == 0
    assert len(calls) <= endpoint + 8 * 4


def _custom_files(tmp_path):
    (tmp_path / "system.txt").write_text("0.4 Z\n")
    (tmp_path / "env.txt").write_text("0.3 X\n")
    (tmp_path / "inter.txt").write_text("0.5 XX\n0.2 -ZY\n")
    (tmp_path / "obs.txt").write_text("1.0 Z\n")
    path = tmp_path / "custom.cfg"
    path.write_text(
        "model.kind = custom\n"
        f"model.system_file = {tmp_path / 'system.txt'}\n"
        f"model.env_file = {tmp_path / 'env.txt'}\n"
        f"model.interaction_file = {tmp_path / 'inter.txt'}\n"
        f"model.observable_file = {tmp_path / 'obs.txt'}\n"
        "dynamics.collisions = 3\n"
        "dynamics.dt = 0.2\n"
        "dynamics.eps = 0.05\n"
        f"output.dir = {tmp_path}\n"
    )
    return str(path)


def test_custom_model_oracle_walks_collisions(tmp_path):
    cfg = _custom_files(tmp_path)
    assert cli.main(["oracle", "--config", cfg]) == 0
    rows = _read_csv(tmp_path / "oracle.csv")
    times = [float(r[0]) for r in rows[1:]]
    assert times == pytest.approx([0.0, 0.2, 0.4, 0.6])  # k * dt per collision
    assert cli.main(["run", "--config", cfg]) == 0
    assert (tmp_path / "run.csv").exists()


def test_resources_rows_per_backend(tmp_path):
    cfg = _bench_cfg(tmp_path, "dynamics.backends = trotter1,qdrift\n")
    assert cli.main(["resources", "--config", cfg]) == 0
    rows = _read_csv(tmp_path / "resources.csv")
    assert rows[0][0] == "backend" and rows[0][5] == "cnot"
    assert [r[0] for r in rows[1:]] == ["trotter1", "qdrift"]
    assert all(float(r[5]) > 0 for r in rows[1:])


@pytest.mark.parametrize("measurement", ["analytic", "shot"])
def test_resources_price_the_plan_estimate_runs(tmp_path, measurement):
    extra = f"dynamics.backends = trotter1,qdrift,salcu\ndynamics.measurement = {measurement}\n"
    cfg_path = _bench_cfg(tmp_path, extra)
    assert cli.main(["resources", "--config", cfg_path]) == 0
    rows = _read_csv(tmp_path / "resources.csv")[1:]
    cfg = cli.build_config(cli.load_config_mapping(cfg_path))
    problem = cli.build_problem(cfg)
    for row, label in zip(rows, ("trotter1", "qdrift", "salcu")):
        backend = parse_backend(label)
        spec, plan = resolve_plan(problem.spec, backend, cfg.eps, measurement, problem.obs.norm)
        # the plan an estimate runs: qdrift, and any program read by shots, at eps/2
        ran = estimate(problem.spec, problem.rho0, problem.obs, backend, cfg.eps,
                       measurement=measurement, t_override=1)
        halved = label == "qdrift" or (label == "trotter1" and measurement == "shot")
        mode = "salcu" if label == "salcu" else "generic"
        assert ran.eps_prime == plan.eps_prime == required_precision(
            spec.K, problem.obs.norm, cfg.eps / 2 if halved else cfg.eps, mode
        )
        want = expected_resources(
            spec, backend, None, seed=cfg.seed, lcu_samples=cfg.compilations, plan=plan
        )
        assert row[0] == label
        assert [float(v) for v in row[5:10]] == [float(v) for v in want.as_tuple()]


def _readme():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        return fh.read()


def test_readme_config_reference_matches_the_schema():
    # one table row per schema row, in order, with the row's bound and scope
    table = re.findall(r"^\| `([\w.]+)` \|(.*)\|$", _readme(), flags=re.M)
    assert [key for key, _ in table] == [row[0] for row in cli._SCHEMA]
    for (key, cells), row in zip(table, cli._SCHEMA):
        _, bound, scope, _ = (c.strip() for c in cells.split("|")[1:])
        assert scope == (row[5] or "any"), key
        if row[4]:
            assert bound == row[4][1], key


def test_readme_config_resources_rows(tmp_path):
    # the README's experiment.cfg at dynamics.nu = 2: every backend's expected
    # gate counts, pinned digit for digit (config_hash left out)
    block = re.search(r"```\n(# experiment\.cfg.*?)```", _readme(), flags=re.S).group(1)
    mapping = {**cli.parse_config_text(block), "dynamics.nu": "2"}
    path = tmp_path / "readme.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
    assert cli.main(["resources", "--config", str(path), "--out", str(tmp_path)]) == 0
    rows = [row[:-1] for row in _read_csv(tmp_path / "resources.csv")]
    assert rows == [
        ["backend", "t", "eps", "nu", "collisions", "cnot", "rotation", "pauli_gate",
         "depth_proxy", "env_preps"],
        ["trotter1", "1", "0.01", "2", "8", "122896", "122880", "0", "245776", "8"],
        ["trotter2k:1", "1", "0.01", "2", "8", "3856", "3840", "0", "7696", "8"],
        ["qdrift", "1", "0.01", "2", "8", "271299.39429032133", "204584", "0",
         "475883.39429032133", "8"],
        ["salcu", "1", "0.01", "2", "8", "1196.875", "704", "1.4375", "1900.875", "8"],
    ]


def test_resources_at_m10_stays_small(tmp_path):
    # the paper's 10-site chain: the model holds Pauli terms, not ten dense
    # 1024 x 1024 jump matrices, so pricing qdrift and salcu stays well
    # under 128 MiB of resident memory
    path = tmp_path / "m10.cfg"
    path.write_text(
        "model.m = 10\ndynamics.nu = 10\ndynamics.backends = qdrift,salcu\n"
        f"output.dir = {tmp_path}\n"
    )
    code = (
        "from collidesim.cli import main; "
        "rc = main(['resources', '--config', sys.argv[1]]); "
        "print(rc, peak_mib())"
    )
    rc, peak = run_child(code, path).split()[-2:]
    assert rc == "0"
    assert float(peak) < 128
    rows = _read_csv(tmp_path / "resources.csv")
    assert [r[0] for r in rows[1:]] == ["qdrift", "salcu"]


def test_sweep_eps_reports_oracle_error(tmp_path):
    cfg = _bench_cfg(tmp_path)
    code = cli.main(
        ["sweep", "--config", cfg, "--axis", "eps", "--values", "0.2,0.1"]
    )
    assert code == 0
    rows = _read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 3
    assert [float(r[1]) for r in rows[1:]] == [0.2, 0.1]
    errs = [float(r[rows[0].index("error")]) for r in rows[1:]]
    assert all(e >= 0 for e in errs)


def test_sweep_t_oracle_matches_lindblad_evolve(tmp_path):
    cfg = _bench_cfg(tmp_path)
    assert cli.main(["sweep", "--config", cfg, "--axis", "t", "--values", "0.25,0.5"]) == 0
    rows = _read_csv(tmp_path / "sweep.csv")
    model = amp_damp_model(2)
    obs, rho0 = magnetization(2), DensityMatrix.basis(2, 0)
    for row in rows[1:]:
        want = expectation(lindblad_evolve(model, rho0, float(row[1])), obs)
        assert float(row[rows[0].index("oracle")]) == want


def test_sweep_axis_validation(tmp_path, capsys):
    cfg = _bench_cfg(tmp_path)
    assert cli.main(["sweep", "--config", cfg, "--axis", "p", "--values", "0.5"]) == 1
    # nu values must be integers >= 1, checked before any row runs
    for values in ("2.5", "0", "2,0", "inf"):
        assert cli.main(["sweep", "--config", cfg, "--axis", "nu", "--values", values]) == 1
        assert "config error" in capsys.readouterr().err
    # eps, t and p values obey the config file's rules, also checked before any row runs
    nonmarkov = tmp_path / "nonmarkov.cfg"  # own file: _bench_cfg reuses one path
    nonmarkov.write_text((tmp_path / "bench.cfg").read_text() + "dynamics.nonmarkov = true\n")
    for path, axis, values in (
        (cfg, "t", "nan"),
        (cfg, "t", "inf"),
        (cfg, "t", "0"),
        (cfg, "t", "0.5,-1"),
        (cfg, "eps", "nan"),
        (cfg, "eps", "0"),
        (cfg, "eps", "0.05,1"),
        (str(nonmarkov), "p", "-0.1"),
        (str(nonmarkov), "p", "0.5,nan"),
    ):
        argv = ["sweep", "--config", path, "--axis", axis, "--values", values]
        assert cli.main(argv + ["--backend", "trotter1"]) == 1, (axis, values)
        assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["run", "--backend", "trotter2k:0"], "--backend"),
        (["run", "--backend", "trotter2k:x"], "--backend"),
        (["sweep", "--axis", "eps", "--values", "abc"], "dynamics.eps"),
        (["sweep", "--axis", "nu", "--values", "2,abc"], "dynamics.nu"),
        (["sweep", "--axis", "nu", "--values", "auto"], "dynamics.nu"),
    ],
    ids=["backend-k-zero", "backend-k-text", "eps-text", "nu-text", "nu-auto"],
)
def test_flags_and_sweep_values_name_their_key(tmp_path, capsys, argv, name):
    assert cli.main(argv + ["--config", _bench_cfg(tmp_path)]) == 1
    assert f"config error: {name} " in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def test_validate_only_runs_named_criterion(capsys):
    assert cli.main(["validate", "--only", "nonmarkov-reductions"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS nonmarkov-reductions")
    assert len(out.strip().splitlines()) == 1


def test_validate_times_each_criterion_on_stderr(capsys):
    assert cli.main(["validate", "--only", "nonmarkov-reductions,lindblad-convergence"]) == 0
    captured = capsys.readouterr()
    assert [line.split()[0] for line in captured.out.splitlines()] == ["PASS", "PASS"]
    err = [line for line in captured.err.splitlines() if line.endswith(" s")]
    assert [line.split(":")[0] for line in err] == ["nonmarkov-reductions", "lindblad-convergence"]
    assert all(float(line.split()[-2]) >= 0 for line in err)


def test_exit_codes(tmp_path, monkeypatch):
    assert cli.main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.mm = 3\n")
    assert cli.main(["run", "--config", str(bad)]) == 1
    cfg = _bench_cfg(tmp_path)
    assert cli.main(["run", "--config", cfg, "--backend", "nope"]) == 1
    infinite = tmp_path / "infinite.cfg"
    infinite.write_text("execution.seed = inf\n")
    assert cli.main(["run", "--config", str(infinite)]) == 1

    tight = tmp_path / "tight.cfg"  # own file: _bench_cfg reuses one path
    tight.write_text(
        f"model.m = 2\ndynamics.nu = 2\nexecution.dense_limit = 1\noutput.dir = {tmp_path}\n"
    )
    try:
        assert cli.main(["run", "--config", str(tight)]) == 2
    finally:
        os.environ.pop("COLLIDESIM_DENSE_LIMIT", None)

    monkeypatch.setattr(
        cli, "cmd_run", lambda cfg, out: (_ for _ in ()).throw(NumericalError("diverged"))
    )
    assert cli.main(["run", "--config", cfg]) == 3


@pytest.mark.parametrize("grid", ["0", "-4"])
def test_grid_below_one_is_a_config_error(tmp_path, capsys, grid):
    cfg = _bench_cfg(tmp_path, f"dynamics.grid = {grid}\n")
    assert cli.main(["oracle", "--config", cfg]) == 1
    assert f"dynamics.grid must be >= 1, got {grid}" in capsys.readouterr().err
    assert not (tmp_path / "oracle.csv").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        ("dynamics.nu = 0\n", "dynamics.nu must be auto or an integer >= 1, got 0"),
        ("execution.seed = -1\n", "execution.seed must be >= 0, got -1"),
        ("execution.dense_limit = -1\n", "execution.dense_limit must be >= 0, got -1"),
    ],
    ids=["nu-zero", "negative-seed", "negative-dense-limit"],
)
def test_bad_execution_keys_are_refused_at_load(tmp_path, capsys, monkeypatch, extra, message):
    # refused before any work (suggest_nu included) starts, naming the key
    monkeypatch.setattr(cli, "suggest_nu", lambda *a, **k: pytest.fail("suggest_nu ran"))
    monkeypatch.delenv("COLLIDESIM_DENSE_LIMIT", raising=False)
    cfg = tmp_path / "qdrift.cfg"
    cfg.write_text(f"model.m = 2\ndynamics.backend = qdrift\noutput.dir = {tmp_path}\n" + extra)
    assert cli.main(["run", "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err
    assert "COLLIDESIM_DENSE_LIMIT" not in os.environ
    assert not (tmp_path / "run.csv").exists()


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    cfg = _bench_cfg(tmp_path)
    assert cli.main(["run", "--config", cfg, "--seed", "-1"]) == 1
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


def test_workers_below_one_is_a_config_error(tmp_path, capsys):
    cfg = _bench_cfg(tmp_path, "execution.workers = -3\n")
    assert cli.main(["run", "--config", cfg]) == 1
    assert "execution.workers must be >= 1, got -3" in capsys.readouterr().err
    # the flag overrides the config after it is built, and is checked there
    cfg = _bench_cfg(tmp_path)
    assert cli.main(["run", "--config", cfg, "--workers", "0"]) == 1
    assert "--workers must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


def _loaded_scipy_modules(tmp_path, argv):
    """Exit code and scipy modules of one command on the m = 2 config, run in
    a fresh interpreter."""
    code = (
        "from collidesim.cli import main; "
        f"rc = main({argv!r} + ['--config', sys.argv[1]]); "
        "print(rc, scipy_modules())"
    )
    return run_child(code, _bench_cfg(tmp_path)).strip()


def test_run_loads_no_scipy(tmp_path):
    # the package needs numpy alone; scipy is only the tests' reference
    assert _loaded_scipy_modules(tmp_path, ["run"]) == "0 []"
    assert (tmp_path / "run.csv").exists()


def test_oracle_and_sweep_load_no_scipy(tmp_path):
    # the oracle and the sweep's oracle column evolve the state by the
    # Liouvillian's action, with numpy alone
    assert _loaded_scipy_modules(tmp_path, ["oracle"]) == "0 []"
    assert _read_csv(tmp_path / "oracle.csv")[1][1]
    argv = ["sweep", "--axis", "t", "--values", "0.25,0.5"]
    assert _loaded_scipy_modules(tmp_path, argv) == "0 []"
    rows = _read_csv(tmp_path / "sweep.csv")
    assert all(row[rows[0].index("oracle")] for row in rows[1:])


def test_run_csv_is_independent_of_workers(tmp_path):
    cfg = _bench_cfg(tmp_path, "dynamics.measurement = shot\nexecution.t_override = 40\n")
    out = tmp_path / "run.csv"
    assert cli.main(["run", "--config", cfg, "--workers", "1"]) == 0
    serial = out.read_bytes()
    assert cli.main(["run", "--config", cfg, "--workers", "2"]) == 0
    assert out.read_bytes() == serial
