"""End-to-end tests of the command line front end."""

import json
import subprocess
import sys

import numpy as np
import pytest

from corrflux import cli
from corrflux.dynamics import TrajectoryDiagnosticsWarning, integrate
from corrflux.linalg import SIGMA_Z
from corrflux.model import matrix_to_json, parse_scenario
from corrflux.twoqubit import ExampleParams, decay_rate, scenario_document

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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_divergence_exits_2_and_writes_rows(tmp_path):
    # A 1e308 bath rate overflows the state within the first record interval.
    scenario, doc = write_scenario(tmp_path, t_final=0.02, dt=1e-3, record_every=10)
    doc["baths"][0]["base_rates"][0]["rate"] = 1e308
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "diverged.csv"
    with pytest.warns(TrajectoryDiagnosticsWarning, match="not finite"):
        rc = cli.main(["run", str(scenario), "--output", str(out)])
    assert rc == 2
    _, rows = read_csv(out)
    assert column(rows, "t") == [0.0, pytest.approx(0.01, abs=1e-15)]
    assert np.isfinite(rows[0][cli.COLUMNS.index("U")])
    assert not np.isfinite(column(rows, "U")[-1])


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


def test_check_conditions_seed_env_override(tmp_path, capsys, monkeypatch):
    scenario, _ = write_scenario(tmp_path)
    monkeypatch.setenv("CORRFLUX_SEED", "9")
    rc = cli.main(["check-conditions", str(scenario), "--samples", "3", "--seed", "3"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 9

    monkeypatch.setenv("CORRFLUX_SEED", "not-a-number")
    rc = cli.main(["check-conditions", str(scenario), "--samples", "3"])
    assert rc == 1
    assert "CORRFLUX_SEED" in capsys.readouterr().err


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
