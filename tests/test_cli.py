"""End-to-end tests of the command line front end."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from corrflux import cli
from corrflux.dynamics import Trajectory, TrajectoryDiagnosticsWarning, integrate
from corrflux.linalg import SIGMA_Z, random_density_matrix
from corrflux.model import matrix_to_json, parse_scenario
from corrflux.twoqubit import ExampleParams, decay_rate, scenario_document

from helpers import random_system

EXPECTED_HEADER = (
    "t,U,U_A,U_B,U_prod,U_chi,dU_prod_dt,dU_chi_dt,dU_dt,"
    "chi_norm,trace_drift,min_eig,cond_i_resid,cond_ii_resid"
)

STANDARD = ExampleParams(omega_A=1.0, omega_B=1.0, g=0.2, beta_A=0.5, beta_B=1.0, c=0.02)


def write_scenario(tmp_path, name="scenario.json", **kwargs):
    defaults = dict(t_final=0.5, dt=2e-3, record_every=25)
    defaults.update(kwargs)
    params = defaults.pop("params", STANDARD)
    doc = scenario_document(params, **defaults)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path, doc


def read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return lines[0], rows


def column(rows, name):
    return [row[cli.COLUMNS.index(name)] for row in rows]


def test_run_writes_expected_header_and_is_deterministic(tmp_path):
    scenario, _ = write_scenario(tmp_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli.main(["run", str(scenario), "--output", str(out_a)]) == 0
    assert cli.main(["run", str(scenario), "--output", str(out_b)]) == 0
    header, rows = read_csv(out_a)
    assert header == EXPECTED_HEADER
    assert out_a.read_bytes() == out_b.read_bytes()
    assert rows[0][0] == 0.0
    assert rows[-1][0] == pytest.approx(0.5, abs=1e-12)


def test_run_csv_values_match_library_pipeline(tmp_path):
    scenario_path, doc = write_scenario(tmp_path)
    out = tmp_path / "run.csv"
    assert cli.main(["run", str(scenario_path), "--output", str(out)]) == 0

    scenario = parse_scenario(doc)
    traj = integrate(
        scenario.system,
        scenario.initial_state,
        scenario.t_final,
        scenario.dt,
        record_every=scenario.record_every,
    )
    records = cli.compute_records(scenario.system, traj)
    _, rows = read_csv(out)
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        for j, col in enumerate(cli.COLUMNS):
            # 17 significant digits round-trip doubles exactly
            assert row[j] == float(getattr(rec, col))


def test_run_json_format_round_trips(tmp_path):
    scenario_path, doc = write_scenario(tmp_path)
    out = tmp_path / "run.json"
    assert cli.main(["run", str(scenario_path), "--output", str(out), "--format", "json"]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert isinstance(data, list)
    assert set(data[0]) == set(cli.COLUMNS)

    scenario = parse_scenario(doc)
    traj = integrate(
        scenario.system,
        scenario.initial_state,
        scenario.t_final,
        scenario.dt,
        record_every=scenario.record_every,
    )
    records = cli.compute_records(scenario.system, traj)
    assert len(data) == len(records)
    for entry, rec in zip(data, records):
        for col in cli.COLUMNS:
            assert entry[col] == float(getattr(rec, col))


def test_run_zero_horizon_single_row(tmp_path):
    scenario, _ = write_scenario(tmp_path, t_final=0.0)
    out = tmp_path / "zero.csv"
    assert cli.main(["run", str(scenario), "--output", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert column(rows, "U_chi")[0] == pytest.approx(4.0 * 0.2 * 0.02, abs=1e-14)
    assert column(rows, "cond_i_resid")[0] <= 1e-13
    assert column(rows, "cond_ii_resid")[0] > 1.0


def test_run_input_errors(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "missing.json"), "--output", str(tmp_path / "o.csv")]) == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert cli.main(["run", str(bad), "--output", str(tmp_path / "o.csv")]) == 1
    assert "invalid JSON" in capsys.readouterr().err

    scenario, doc = write_scenario(tmp_path, name="dt0.json")
    doc["integration"]["dt"] = 0.0
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["run", str(scenario), "--output", str(tmp_path / "o.csv")]) == 1
    assert "dt" in capsys.readouterr().err

    scenario, doc = write_scenario(tmp_path, name="bigc.json")
    doc["initial_state"]["c"] = 0.5
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["run", str(scenario), "--output", str(tmp_path / "o.csv")]) == 1
    assert "positivity range" in capsys.readouterr().err


@pytest.mark.parametrize("t_final, dt", [(1e308, 1e-3), (1.0, 5e-324), (1e200, 0.01)])
def test_run_step_count_beyond_an_index_exits_1(tmp_path, capsys, t_final, dt):
    scenario, doc = write_scenario(tmp_path)
    doc["integration"].update(t_final=t_final, dt=dt)
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["run", str(scenario), "--output", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "step count" in err


def test_run_diagnostic_breach_exits_2_but_writes(tmp_path):
    # oversized fixed step on a dephasing channel: RK4 blows up the coherence
    doc = {
        "shape": {"dA": 2, "dB": 2},
        "H_A": matrix_to_json(np.zeros((2, 2))),
        "H_B": matrix_to_json(np.zeros((2, 2))),
        "V": matrix_to_json(np.zeros((4, 4))),
        "channels": [
            {"side": "A", "rate": 1.0, "operator": matrix_to_json(SIGMA_Z), "label": "A:z"}
        ],
        "initial_state": matrix_to_json(
            np.kron(0.5 * np.ones((2, 2)), np.diag([1.0, 0.0]))
        ),
        "integration": {"t_final": 6.0, "dt": 2.0},
    }
    path = tmp_path / "breach.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "breach.csv"
    with pytest.warns(TrajectoryDiagnosticsWarning):
        rc = cli.main(["run", str(path), "--output", str(out)])
    assert rc == 2
    _, rows = read_csv(out)
    assert min(column(rows, "min_eig")) < -1e-6


def test_run_rejects_non_finite_number(tmp_path, capsys):
    scenario, doc = write_scenario(tmp_path)
    doc["V"]["g"] = float("nan")
    scenario.write_text(json.dumps(doc), encoding="utf-8")  # written as the literal NaN
    assert cli.main(["run", str(scenario), "--output", str(tmp_path / "o.csv")]) == 1
    assert "V.g: expected a finite number" in capsys.readouterr().err


def test_run_divergence_exits_2_and_writes_rows(tmp_path):
    # A 1e308 bath rate overflows the state within the first record interval.
    scenario, doc = write_scenario(tmp_path, t_final=0.02, dt=1e-3, record_every=10)
    doc["baths"][0]["base_rates"][0]["rate"] = 1e308
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "diverged.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["run", str(scenario), "--output", str(out)])
    # The divergence is reported once, by integrate, and by no numpy warning.
    assert [w.category for w in caught] == [TrajectoryDiagnosticsWarning]
    assert "not finite" in str(caught[0].message)
    assert rc == 2
    _, rows = read_csv(out)
    assert column(rows, "t") == [0.0, pytest.approx(0.01, abs=1e-15)]
    assert np.isfinite(rows[0][cli.COLUMNS.index("U")])
    assert not np.isfinite(column(rows, "U")[-1])


def test_run_json_of_a_diverged_run_writes_null_for_non_finite_values(tmp_path):
    scenario, doc = write_scenario(tmp_path, t_final=0.02, dt=1e-3, record_every=10)
    doc["baths"][0]["base_rates"][0]["rate"] = 1e308
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "diverged.json"
    with pytest.warns(TrajectoryDiagnosticsWarning):
        assert cli.main(["run", str(scenario), "--output", str(out), "--format", "json"]) == 2
    rows = json.loads(out.read_text(encoding="utf-8"), parse_constant=lambda token: pytest.fail(f"JSON has {token}"))
    assert [row["t"] for row in rows] == [0.0, pytest.approx(0.01, abs=1e-15)]
    assert isinstance(rows[0]["U"], float) and rows[-1]["U"] is None


def test_sweep_of_a_diverged_point_writes_nan_sign(tmp_path):
    scenario, _ = write_scenario(tmp_path, t_final=0.02, dt=1e-3, record_every=10)
    outdir = tmp_path / "sweep_rate"
    argv = ["sweep", str(scenario), "--param", "baths.0.base_rates.0.rate"]
    argv += ["--min", "1e308", "--max", "1e308", "--steps", "1", "--output-dir", str(outdir)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv)
    assert [w.category for w in caught] == [TrajectoryDiagnosticsWarning]
    assert rc == 2
    summary = (outdir / "summary.csv").read_text(encoding="utf-8").strip().split("\n")
    assert summary[1:] == ["1e+308,nan,nan"]


def test_only_non_finite_records_silence_numpy_warnings():
    rng = np.random.default_rng(5)
    system = random_system(rng)
    rho = random_density_matrix(4, rng)
    diverged = rho.copy()
    diverged[0, 1] = np.inf

    def trajectory(*states):
        n = len(states)
        return Trajectory(
            times=np.arange(float(n)),
            states=list(states),
            trace_drift=np.zeros(n),
            hermiticity_residual=np.zeros(n),
            min_eigenvalue=np.zeros(n),
        )

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = cli.compute_records(system, trajectory(rho, diverged))
    assert np.isfinite(records[0].U) and not np.isfinite(records[1].dU_dt)
    # A finite state whose ledger overflows still gets numpy's warning.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cli.compute_records(system, trajectory(1e200 * rho))
    assert any("overflow" in str(w.message) for w in caught if w.category is RuntimeWarning)


@pytest.mark.parametrize("c", ["0.02", "0"])
def test_example_with_overflowing_rates_exits_1_without_warnings(tmp_path, capsys, c):
    argv = ["example", "--beta-a", "1000", "--c", c, "--output", str(tmp_path / "o.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 1
    assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "beta_A*omega_A = 1000" in lines[0]
    assert not (tmp_path / "o.csv").exists()


def test_sweep_over_c_signs(tmp_path):
    strong = ExampleParams(omega_A=1.0, omega_B=1.0, g=0.5, beta_A=0.5, beta_B=1.0, c=0.02)
    scenario, _ = write_scenario(tmp_path, params=strong)
    outdir = tmp_path / "sweep_c"
    rc = cli.main(
        [
            "sweep",
            str(scenario),
            "--param",
            "c",
            "--min",
            "-0.01",
            "--max",
            "0.01",
            "--steps",
            "5",
            "--output-dir",
            str(outdir),
        ]
    )
    assert rc == 0
    summary = (outdir / "summary.csv").read_text(encoding="utf-8").strip().split("\n")
    assert summary[0] == "param,DeltaU_chi_final,sign"
    assert len(summary) == 6
    grid = np.linspace(-0.01, 0.01, 5)
    for line, c in zip(summary[1:], grid):
        value, delta, sign = line.split(",")
        assert float(value) == pytest.approx(c, abs=1e-12)
        expected_sign = 0 if c == 0 else (-1 if 0.5 * c > 0 else 1)
        assert int(sign) == expected_sign
    for index in range(5):
        assert (outdir / f"sweep_c_{index}.csv").exists()


def test_sweep_over_g_matches_closed_form(tmp_path):
    scenario, doc = write_scenario(tmp_path)
    outdir = tmp_path / "sweep_g"
    rc = cli.main(
        [
            "sweep",
            str(scenario),
            "--param",
            "g",
            "--min",
            "-0.2",
            "--max",
            "0.2",
            "--steps",
            "5",
            "--output-dir",
            str(outdir),
        ]
    )
    assert rc == 0
    lam = decay_rate(STANDARD)
    t_final = doc["integration"]["t_final"]
    summary = (outdir / "summary.csv").read_text(encoding="utf-8").strip().split("\n")[1:]
    for line in summary:
        g, delta, sign = line.split(",")
        expected = 4.0 * float(g) * 0.02 * (np.exp(-lam * t_final) - 1.0)
        assert float(delta) == pytest.approx(float(expected), abs=1e-8)


def test_sweep_single_step_equals_run(tmp_path):
    scenario, doc = write_scenario(tmp_path)
    outdir = tmp_path / "one"
    rc = cli.main(
        [
            "sweep", str(scenario),
            "--param", "c",
            "--min", "0.004", "--max", "0.004", "--steps", "1",
            "--output-dir", str(outdir),
        ]
    )
    assert rc == 0
    doc["initial_state"]["c"] = 0.004
    direct = tmp_path / "direct.json"
    direct.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "direct.csv"
    assert cli.main(["run", str(direct), "--output", str(out)]) == 0
    assert (outdir / "sweep_c_0.csv").read_bytes() == out.read_bytes()


def test_sweep_dotted_parameter_paths(tmp_path):
    scenario, _ = write_scenario(tmp_path)
    outdir = tmp_path / "alpha"
    rc = cli.main(
        [
            "sweep", str(scenario),
            "--param", "alpha_A",
            "--min", "0.0", "--max", "1.0", "--steps", "2",
            "--output-dir", str(outdir),
        ]
    )
    assert rc == 0
    # U_A + U_B must be alpha independent: compare the two endpoint files
    _, rows0 = read_csv(outdir / "sweep_alpha_A_0.csv")
    _, rows1 = read_csv(outdir / "sweep_alpha_A_1.csv")
    for r0, r1 in zip(rows0, rows1):
        total0 = r0[cli.COLUMNS.index("U_A")] + r0[cli.COLUMNS.index("U_B")]
        total1 = r1[cli.COLUMNS.index("U_A")] + r1[cli.COLUMNS.index("U_B")]
        assert total0 == pytest.approx(total1, abs=1e-12)

    outdir2 = tmp_path / "beta"
    rc = cli.main(
        [
            "sweep", str(scenario),
            "--param", "baths.0.beta",
            "--min", "0.2", "--max", "0.4", "--steps", "2",
            "--output-dir", str(outdir2),
        ]
    )
    assert rc == 0
    assert (outdir2 / "sweep_baths.0.beta_0.csv").exists()


def test_sweep_rejects_bad_parameters(tmp_path, capsys):
    scenario, _ = write_scenario(tmp_path)
    rc = cli.main(
        [
            "sweep", str(scenario),
            "--param", "nonsense",
            "--min", "0.0", "--max", "1.0", "--steps", "2",
            "--output-dir", str(tmp_path / "x"),
        ]
    )
    assert rc == 1
    assert "nonsense" in capsys.readouterr().err

    rc = cli.main(
        [
            "sweep", str(scenario),
            "--param", "initial_state.preset",
            "--min", "0.0", "--max", "1.0", "--steps", "2",
            "--output-dir", str(tmp_path / "y"),
        ]
    )
    assert rc == 1
    assert "scalar" in capsys.readouterr().err

    rc = cli.main(
        [
            "sweep", str(scenario),
            "--param", "c",
            "--min", "0.0", "--max", "1.0", "--steps", "0",
            "--output-dir", str(tmp_path / "z"),
        ]
    )
    assert rc == 1


def test_check_conditions_report(tmp_path, capsys):
    scenario, _ = write_scenario(tmp_path)
    rc = cli.main(["check-conditions", str(scenario), "--samples", "5", "--seed", "3"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["condition_i_pass"] is True
    assert report["condition_ii_pass"] is False
    assert report["samples"] == 5
    assert report["seed"] == 3
    assert report["state_dependent"] is False
    assert report["adjoint_residual"] > 1.0


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_check_conditions_bad_tol_exits_1(tmp_path, capsys, tol):
    scenario, _ = write_scenario(tmp_path)
    assert cli.main(["check-conditions", str(scenario), "--samples", "1", "--tol", tol]) == 1
    assert "tol must be a finite nonnegative number" in capsys.readouterr().err


def test_example_subcommand_default_horizon(tmp_path):
    out = tmp_path / "example.csv"
    emitted = tmp_path / "example.json"
    rc = cli.main(
        [
            "example",
            "--dt", "2e-3",
            "--record-every", "50",
            "--output", str(out),
            "--emit-scenario", str(emitted),
        ]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == EXPECTED_HEADER
    # default horizon is twelve correlation lifetimes
    lam = decay_rate(STANDARD)
    assert rows[-1][0] == pytest.approx(12.0 / lam, abs=1e-12)
    assert rows[-1][0] == pytest.approx(2.246596462505997, abs=1e-12)
    # the correlation energy has fully drained by then
    assert column(rows, "U_chi")[-1] == pytest.approx(0.0, abs=1e-6)
    assert column(rows, "U_chi")[0] == pytest.approx(0.016, abs=1e-14)

    emitted_doc = json.loads(emitted.read_text(encoding="utf-8"))
    scenario = parse_scenario(emitted_doc)
    assert scenario.dt == 2e-3
    assert scenario.record_every == 50


def test_example_subcommand_explicit_flags(tmp_path):
    out = tmp_path / "ex.csv"
    rc = cli.main(
        [
            "example",
            "--g", "-0.1", "--c", "0.01",
            "--t-final", "0.3", "--dt", "1e-2", "--record-every", "10",
            "--output", str(out),
        ]
    )
    assert rc == 0
    _, rows = read_csv(out)
    assert rows[-1][0] == pytest.approx(0.3, abs=1e-12)
    # Delta U_chi > 0 for g c < 0: correlations absorb energy
    deltas = column(rows, "U_chi")
    assert deltas[-1] - deltas[0] > 1e-4

    rc = cli.main(["example", "--c", "0.5", "--output", str(tmp_path / "bad.csv")])
    assert rc == 1


def test_module_entry_point(tmp_path):
    out = tmp_path / "entry.csv"
    proc = subprocess.run(
        [
            sys.executable, "-m", "corrflux",
            "example", "--t-final", "0", "--output", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
