"""Config parsing, subcommand plumbing, CSV reproducibility, exit codes."""

import csv
import json
import math
import os

import pytest

from collidesim import cli
from collidesim.errors import NumericalError
from collidesim.estimator import EstimateReport


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
            "dynamics.N": "40",
            "dynamics.c_r": "1.5",
            "dynamics.nu": "8",
            "model.omega": "inf",
        }
    )
    assert cfg.backends == ("trotter1", "qdrift", "salcu")
    assert cfg.overrides == {"steps": 12, "length": 40, "c_r": 1.5}
    assert cfg.nu == 8
    assert cfg.omega == math.inf


@pytest.mark.parametrize(
    "mapping",
    [
        {"model.flavor": "x"},
        {"dynamics.eps": "0"},
        {"dynamics.delta": "1"},
        {"dynamics.p": "1.5"},
        {"dynamics.measurement": "weak"},
        {"dynamics.backend": "suzuki"},
        {"model.kind": "custom"},  # missing the required files
        {"model.kind": "custom", "model.J": "1.0"},
        {"model.kind": "benchmark", "model.env_width": "2"},
        {"model.m": "2.5"},
    ],
    ids=[
        "unknown-key",
        "eps-range",
        "delta-range",
        "p-range",
        "measurement",
        "backend",
        "custom-missing-files",
        "mixed-custom",
        "mixed-benchmark",
        "non-integer",
    ],
)
def test_build_config_rejects(mapping):
    with pytest.raises(ValueError):
        cli.build_config(mapping)


def test_json_config_flattens(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"m": 3}, "dynamics": {"eps": 0.2}}))
    cfg = cli.load_config(str(path))
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


def test_sweep_axis_validation(tmp_path):
    cfg = _bench_cfg(tmp_path)
    assert cli.main(["sweep", "--config", cfg, "--axis", "p", "--values", "0.5"]) == 1


def test_validate_only_runs_named_criterion(capsys):
    assert cli.main(["validate", "--only", "nonmarkov-reductions"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS nonmarkov-reductions")
    assert len(out.strip().splitlines()) == 1


def test_exit_codes(tmp_path, monkeypatch):
    assert cli.main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.mm = 3\n")
    assert cli.main(["run", "--config", str(bad)]) == 1
    cfg = _bench_cfg(tmp_path)
    assert cli.main(["run", "--config", cfg, "--backend", "nope"]) == 1

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


def test_run_csv_is_independent_of_workers(tmp_path):
    cfg = _bench_cfg(tmp_path, "dynamics.measurement = shot\nexecution.t_override = 40\n")
    out = tmp_path / "run.csv"
    assert cli.main(["run", "--config", cfg, "--workers", "1"]) == 0
    serial = out.read_bytes()
    assert cli.main(["run", "--config", cfg, "--workers", "2"]) == 0
    assert out.read_bytes() == serial
