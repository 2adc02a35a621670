import json

import numpy as np
import pytest

from hermsem.cli import main, run
from hermsem.config import ConfigError, ExperimentConfig
from hermsem.csvio import Table, emit_csv
from hermsem.paths import SemimartingaleSpec, simulate


def write_config(tmp_path, **kv):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(kv))
    return str(path)


def written(tmp_path, table) -> bytes:
    p = tmp_path / "t.csv"
    emit_csv(table, str(p))
    return p.read_bytes()


class TestCsv:
    def test_empty_table_header_only(self, tmp_path):
        assert written(tmp_path, Table(a=[], b=[])) == b"a,b\r\n"

    def test_one_row(self, tmp_path):
        assert written(tmp_path, Table(x=[1.0], y=[0.5])) == b"x,y\r\n1,0.5\r\n"

    def test_float_round_trip_bits(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = list(rng.normal(size=50)) + [1e-300, 1e300, 2.0 / 3.0]
        lines = written(tmp_path, Table(v=vals)).decode().strip().split("\r\n")[1:]
        back = [float(s) for s in lines]
        assert len(back) == len(vals)
        assert all(a == b for a, b in zip(vals, back))

    def test_quoting(self, tmp_path):
        assert written(tmp_path, Table(s=['a,"b"'])) == b's\r\n"a,""b"""\r\n'

    def test_format_value(self, tmp_path):
        data = written(tmp_path, Table(b=[True], i=[3], f=[np.pi]))
        b, i, f = data.split(b"\r\n")[1].split(b",")
        assert (b, i) == (b"1", b"3")
        assert float(f) == np.pi

    def test_exact_bytes_per_column_kind(self, tmp_path):
        floats = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 2.0 / 3.0]
        table = Table(
            x=floats,
            flag=np.array([True, False] * 3 + [True]),
            n=np.arange(7, dtype=np.int64) - 3,
            **{
                "a,b": ["plain", "x,y", 'say "hi"', "two\nlines", "cr\r", "", "z"],
            },
        )
        assert written(tmp_path, table) == (
            b'x,flag,n,"a,b"\r\n'
            b"nan,1,-3,plain\r\n"
            b'inf,0,-2,"x,y"\r\n'
            b'-inf,1,-1,"say ""hi"""\r\n'
            b'-0,0,0,"two\nlines"\r\n'
            b'4.9406564584124654e-324,1,1,"cr\r"\r\n'
            b"1.0000000000000001e+300,0,2,\r\n"
            b"0.66666666666666663,1,3,z\r\n"
        )

    def test_ragged_table_raises(self):
        with pytest.raises(ValueError, match="length"):
            Table(a=[1.0, 2.0], b=[1.0])
        with pytest.raises(ValueError, match="1-D"):
            Table(a=np.zeros((2, 2)))

    def test_unwritable_output_exits_1(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cfg = write_config(
            tmp_path, experiment="simulate", level=2, replicas=1,
            output_dir=str(blocker / "nested"),
        )
        assert run(cfg) == 1


class TestConfig:
    def test_unknown_experiment(self, tmp_path):
        path = write_config(tmp_path, experiment="frobnicate")
        with pytest.raises(ConfigError, match="experiment"):
            ExperimentConfig.from_file(path)

    def test_negative_sigma_names_field(self, tmp_path):
        path = write_config(tmp_path, experiment="simulate", sigma=-1.0)
        with pytest.raises(ConfigError, match="sigma"):
            ExperimentConfig.from_file(path)

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, experiment="simulate", sigmaa=1.0)
        with pytest.raises(ConfigError, match="sigmaa"):
            ExperimentConfig.from_file(path)

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"experiment": "simulate",\n bad}')
        with pytest.raises(ConfigError, match="line"):
            ExperimentConfig.from_file(str(p))

    def test_quad_order_guard(self, tmp_path):
        path = write_config(
            tmp_path, experiment="simulate", truncation=64, quad_order=64
        )
        with pytest.raises(ConfigError, match="quad_order"):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("replicas", True),
            ("truncation", 8.5),
            ("quad_order", 200.0),
            ("level", False),
            ("seed", 7.0),
            ("n_max", True),
            ("levels", [4, True]),
            ("levels", [4, 5.0]),
            ("mu", float("nan")),
            ("z0", float("inf")),
            ("horizon", float("-inf")),
            ("sigma", True),
            ("jump_sd", "0.4"),
            ("hitting_levels", [1.0, float("nan")]),
        ],
    )
    def test_wrong_type_exits_2_naming_field(self, tmp_path, capsys, name, value):
        path = write_config(tmp_path, experiment="ito-verify", **{name: value})
        assert run(path) == 2
        assert f"field {name!r}" in capsys.readouterr().err

    def test_int_in_float_field_is_valid(self, tmp_path):
        path = write_config(
            tmp_path, experiment="simulate", horizon=1, z0=0, jump_intensity=2
        )
        cfg = ExperimentConfig.from_file(path)
        assert (cfg.horizon, cfg.z0, cfg.jump_intensity) == (1, 0, 2)

    def test_resolved_fills_defaults(self, tmp_path):
        path = write_config(tmp_path, experiment="simulate")
        cfg = ExperimentConfig.from_file(path)
        resolved = cfg.resolved()
        assert resolved["sigma"] == 1.0
        assert resolved["truncation"] == 64


class TestRun:
    def test_bad_config_exit_2(self, tmp_path):
        path = write_config(tmp_path, experiment="simulate", sigma=-2.0)
        assert run(path) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run(str(tmp_path / "none.json")) == 2

    def test_simulate_runs_and_echoes_config(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            experiment="simulate",
            jump_intensity=2.0,
            level=4,
            replicas=3,
            seed=5,
            output_dir=str(out),
        )
        assert main(["run", "--config", path]) == 0
        assert (out / "path_0.csv").exists()
        assert (out / "path_2.csv").read_bytes().startswith(b"t,z_t,z_tminus,jump_flag")
        assert (out / "summary.txt").exists()
        echoed = json.loads((out / "config_resolved.json").read_text())
        assert echoed["seed"] == 5 and echoed["experiment"] == "simulate"

    def test_simulate_path_dumps_round_trip(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path, experiment="simulate", jump_intensity=3.0, level=4,
            replicas=3, seed=11, output_dir=str(out),
        )
        assert run(path) == 0
        spec = SemimartingaleSpec(jump_intensity=3.0)
        jumps = 0
        for i in range(3):
            p = simulate(spec, 2**4, [11, i])
            lines = (out / f"path_{i}.csv").read_bytes().decode().split("\r\n")
            assert lines[0] == "t,z_t,z_tminus,jump_flag" and lines[-1] == ""
            cells = np.array([ln.split(",") for ln in lines[1:-1]])
            for k, expected in enumerate([p.times, p.values, p.left_values]):
                assert cells[:, k].astype(float).tobytes() == expected.tobytes()
            flag = cells[:, 3].astype(int)
            assert set(flag.tolist()) <= {0, 1}
            assert flag.sum() == len(p.jump_times)
            assert np.array_equal(p.times[flag == 1], p.jump_times)
            jumps += len(p.jump_times)
        assert jumps > 0

    def test_seed_and_output_dir_overrides(self, tmp_path):
        path = write_config(
            tmp_path, experiment="simulate", level=3, replicas=2, seed=1,
            output_dir=str(tmp_path / "ignored"),
        )
        out = tmp_path / "cli_out"
        assert main(
            ["run", "--config", path, "--output-dir", str(out), "--seed", "99"]
        ) == 0
        echoed = json.loads((out / "config_resolved.json").read_text())
        assert echoed["seed"] == 99
        assert not (tmp_path / "ignored").exists()

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(
            tmp_path,
            experiment="metrics",
            sigma=1.0,
            jump_intensity=1.0,
            jump_sd=0.5,
            level=5,
            replicas=10,
            n_max=1,
            seed=21,
            output_dir="unused",
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(path, output_dir=str(a)) == 0
        assert run(path, output_dir=str(b)) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "config_resolved.json").read_text() != ""

    def test_metrics_horizon_guard(self, tmp_path):
        path = write_config(
            tmp_path, experiment="metrics", horizon=1.0, n_max=4, replicas=2,
            output_dir=str(tmp_path / "o"),
        )
        assert run(path) == 2

    def test_ito_verify_small(self, tmp_path):
        out = tmp_path / "ito"
        path = write_config(
            tmp_path,
            experiment="ito-verify",
            sigma=1.0,
            jump_intensity=1.0,
            jump_sd=0.4,
            level=7,
            replicas=6,
            seed=3,
            output_dir=str(out),
        )
        assert run(path) == 0
        text = (out / "ito_residuals.csv").read_text()
        assert text.startswith("seed,mesh_level,phi_id,T_id,residual")

    def test_integrator_probe_small(self, tmp_path):
        out = tmp_path / "probe"
        path = write_config(
            tmp_path,
            experiment="integrator-probe",
            sigma=1.0,
            jump_intensity=1.0,
            jump_sd=0.4,
            level=6,
            replicas=12,
            seed=4,
            output_dir=str(out),
        )
        assert run(path) == 0
        assert (out / "probe_cases.csv").exists()
        summary = (out / "summary.txt").read_text()
        assert "PASS" in summary

    def test_hitting_partition_kind(self, tmp_path):
        out = tmp_path / "hit"
        path = write_config(
            tmp_path,
            experiment="ito-verify",
            sigma=1.0,
            jump_intensity=1.0,
            jump_sd=0.4,
            partition_kind="hitting",
            hitting_levels=[0.5, 1.0, 2.0],
            level=6,
            replicas=4,
            seed=8,
            output_dir=str(out),
        )
        assert run(path) in (0, 1)  # coarse partitions may miss the gate
        assert (out / "ito_residuals.csv").exists()

    def test_hitting_rejected_for_riemann_converge(self, tmp_path):
        path = write_config(
            tmp_path,
            experiment="riemann-converge",
            partition_kind="hitting",
            levels=[3, 4],
            replicas=2,
            output_dir=str(tmp_path / "x"),
        )
        assert run(path) == 2

    def test_bad_hitting_levels(self, tmp_path):
        path = write_config(
            tmp_path, experiment="simulate", hitting_levels=[-1.0]
        )
        with pytest.raises(ConfigError, match="hitting_levels"):
            ExperimentConfig.from_file(path)

    def test_riemann_converge_small(self, tmp_path):
        out = tmp_path / "rc"
        path = write_config(
            tmp_path,
            experiment="riemann-converge",
            sigma=1.0,
            jump_intensity=1.0,
            jump_sd=0.5,
            levels=[3, 4, 5, 6, 7],
            replicas=12,
            seed=6,
            output_dir=str(out),
        )
        code = run(path)
        assert code in (0, 1)  # small-sample slope may be noisy; file contract matters
        assert (out / "riemann_converge.csv").exists()
