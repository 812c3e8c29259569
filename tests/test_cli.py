"""End-to-end tests of the command line front end."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corrflux import cli
from corrflux.dynamics import Trajectory, TrajectoryDiagnosticsWarning, integrate
from corrflux.energetics import NumericalConsistencyWarning
from corrflux.linalg import SIGMA_Z, kron, random_density_matrix
from corrflux.model import matrix_to_json, parse_scenario
from corrflux.twoqubit import ExampleParams, decay_rate, scenario_document

from helpers import random_system, reference_write_records_csv, reference_write_records_json

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
    table = cli.compute_records(scenario.system, traj)
    assert table.dtype == np.float64 and table.flags.c_contiguous
    _, rows = read_csv(out)
    assert table.shape == (len(rows), len(cli.COLUMNS))
    # 17 significant digits round-trip doubles exactly
    assert rows == table.tolist()


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
    table = cli.compute_records(scenario.system, traj)
    assert [[entry[col] for col in cli.COLUMNS] for entry in data] == table.tolist()


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


def records_table(rows):
    """A record table of the given rows: one float64 row per record, in COLUMNS order."""
    return np.array(rows, dtype=float).reshape(-1, len(cli.COLUMNS))


def assert_json_writers_agree(table, tmp_path):
    """The row-template writer and json.dump write the same bytes; returns the text."""
    ours, reference = tmp_path / "ours.json", tmp_path / "reference.json"
    cli.write_records_json(table, ours)
    reference_write_records_json(table, reference)
    assert ours.read_bytes() == reference.read_bytes()
    return ours.read_text(encoding="utf-8")


def every_record_of_the_example():
    """The 2248 records of corrflux example --record-every 1."""
    doc = scenario_document(STANDARD, 12.0 / decay_rate(STANDARD), 1e-3, 1)
    scenario = parse_scenario(doc)
    traj = integrate(scenario.system, scenario.initial_state, scenario.t_final, scenario.dt, record_every=1)
    return cli.compute_records(scenario.system, traj)


def diverged_records(rate=1e308):
    """The records of the example with a huge bath rate, up to the first non-finite state."""
    doc = scenario_document(STANDARD, t_final=0.02, dt=1e-3, record_every=1)
    doc["baths"][0]["base_rates"][0]["rate"] = rate
    scenario = parse_scenario(doc)
    with pytest.warns(TrajectoryDiagnosticsWarning):
        traj = integrate(scenario.system, scenario.initial_state, scenario.t_final, scenario.dt, record_every=1)
    return cli.compute_records(scenario.system, traj)


def test_write_records_json_equals_json_dump_on_every_record_of_the_example(tmp_path):
    records = every_record_of_the_example()
    assert len(records) == 2248
    text = assert_json_writers_agree(records, tmp_path)
    out = tmp_path / "example.json"
    assert cli.main(["example", "--record-every", "1", "--format", "json", "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == text


def test_write_records_json_equals_json_dump_on_a_diverged_run(tmp_path):
    text = assert_json_writers_agree(diverged_records(), tmp_path)
    assert '"U": null' in text and "NaN" not in text and "Infinity" not in text


EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, 1e16, 0.1]


def edge_rows():
    """One record holding each edge value once, then records cycling through all of them."""
    width = len(cli.COLUMNS)
    once = [EDGE_VALUES[i] if i < len(EDGE_VALUES) else 1.0 for i in range(width)]
    cycled = [[EDGE_VALUES[(i + j) % len(EDGE_VALUES)] for j in range(width)] for i in range(len(EDGE_VALUES))]
    return [once, *cycled]


def test_write_records_json_equals_json_dump_on_edge_values(tmp_path):
    text = assert_json_writers_agree(records_table(edge_rows()), tmp_path)
    for value in EDGE_VALUES:
        assert f": {value!r}" in text
    assert str(json.loads(text)[0]["t"]) == "-0.0"


def test_write_records_json_of_no_records(tmp_path):
    assert assert_json_writers_agree(records_table([]), tmp_path) == "[]\n"


def test_write_records_json_writes_numpy_floats_as_plain_numbers(tmp_path):
    # Every cell of the table is an np.float64, and under numpy 2 repr(np.float64(0.1))
    # is "np.float64(0.1)"; that holds for the finite path and the per-cell path alike.
    for rows in (edge_rows(), [*edge_rows(), [math.nan] * len(cli.COLUMNS)]):
        assert "np." not in assert_json_writers_agree(records_table(rows), tmp_path)


@st.composite
def record_tables(draw):
    """Tables of up to six records, either all finite or with non-finite values allowed."""
    finite = draw(st.booleans())
    cells = st.floats(allow_nan=not finite, allow_infinity=not finite)
    width = len(cli.COLUMNS)
    return records_table(draw(st.lists(st.lists(cells, min_size=width, max_size=width), max_size=6)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(record_tables())
def test_write_records_json_equals_json_dump_on_random_rows(tmp_path, table):
    assert_json_writers_agree(table, tmp_path)


def assert_csv_writers_agree(table, tmp_path):
    """The row-template writer and the cell-by-cell writer write the same bytes; returns the text."""
    ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
    cli.write_records_csv(table, ours)
    reference_write_records_csv(table, reference)
    assert ours.read_bytes() == reference.read_bytes()
    return ours.read_text(encoding="utf-8")


def test_write_records_csv_equals_the_cell_writer_on_every_record_of_the_example(tmp_path):
    records = every_record_of_the_example()
    text = assert_csv_writers_agree(records, tmp_path)
    assert text.count("\n") == 1 + 2248
    out = tmp_path / "example.csv"
    assert cli.main(["example", "--record-every", "1", "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == text


def test_write_records_csv_equals_the_cell_writer_on_a_diverged_run(tmp_path):
    # At a rate of 1e50 the state overflows to a record with inf and -inf cells, then turns NaN.
    rows = [line.split(",") for line in assert_csv_writers_agree(diverged_records(1e50), tmp_path).splitlines()[1:]]
    assert len(rows) == 3 and math.isfinite(float(rows[0][1]))
    assert {"inf", "-inf"} <= set(rows[1]) and rows[2][1:-1] == ["nan"] * 12


def test_write_records_csv_equals_the_cell_writer_on_edge_values(tmp_path):
    special = [*[math.nan, math.inf, -math.inf] * 4, 0.0, 1.0]
    lines = assert_csv_writers_agree(records_table([*edge_rows(), special]), tmp_path).splitlines()
    assert lines[1].startswith("-0,4.9406564584124654e-324,1.7976931348623157e+308,10000000000000000,0.10000000000000001,1,")
    assert lines[-1] == "nan,inf,-inf," * 4 + "0,1"


def test_write_records_csv_of_no_records(tmp_path):
    assert assert_csv_writers_agree(records_table([]), tmp_path) == EXPECTED_HEADER + "\n"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(record_tables())
def test_write_records_csv_equals_the_cell_writer_on_random_rows(tmp_path, table):
    assert_csv_writers_agree(table, tmp_path)


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


def test_compute_records_reports_overflow_without_numpy_warnings():
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
        table = cli.compute_records(system, trajectory(rho, diverged))
    assert np.isfinite(column(table, "U")[0]) and not np.isfinite(column(table, "dU_dt")[1])
    # A run of finite states whose ledger overflows gets one warning of its own, and none from numpy.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = cli.compute_records(system, trajectory(rho, 1e200 * rho))
    assert [w.category for w in caught] == [NumericalConsistencyWarning]
    assert str(caught[0].message) == "ledger is not finite at 1 of 2 records, first at t = 1"
    assert np.isfinite(column(table, "U_chi")).tolist() == [True, False]


@pytest.mark.parametrize("command", ["run", "run-json", "example", "sweep"])
def test_a_table_with_non_finite_cells_of_finite_states_exits_2(tmp_path, command):
    # V.g = 1e308 at t_final = 0: the one state is finite, its rates and residuals are NaN.
    scenario, doc = write_scenario(tmp_path, t_final=0.0)
    doc["V"]["g"] = 1e308
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out.csv"
    argv = {
        "run": ["run", str(scenario), "--output", str(out)],
        "run-json": ["run", str(scenario), "--output", str(tmp_path / "out.json"), "--format", "json"],
        "example": ["example", "--g", "1e308", "--t-final", "0", "--output", str(out)],
        "sweep": ["sweep", str(scenario), "--param", "g", "--min", "1e308", "--max", "1e308", "--steps", "1",
                  "--output-dir", str(tmp_path / "sweep")],
    }[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 2
    assert [w.category for w in caught] == [NumericalConsistencyWarning]
    if command in ("run", "example"):
        _, rows = read_csv(out)
        nan_columns = [name for name, x in zip(cli.COLUMNS, rows[0]) if math.isnan(x)]
        assert nan_columns == ["dU_prod_dt", "dU_chi_dt", "dU_dt", "cond_i_resid", "cond_ii_resid"]
    if command == "sweep":
        summary = (tmp_path / "sweep" / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert summary[1:] == ["1e+308,0,0"]


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


def test_example_with_huge_finite_rates_writes_finite_residuals(tmp_path):
    # exp(400) is a finite rate, but the squares inside ||D#[H]||_F overflow
    # unless the norm scales its matrix first.
    out = tmp_path / "o.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["example", "--beta-a", "400", "--c", "0", "--output", str(out)]) == 0
    assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []
    header, rows = read_csv(out)
    resid = np.array([row[header.split(",").index("cond_ii_resid")] for row in rows])
    assert np.isfinite(resid).all() and resid.min() > 1e173


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


def test_sweep_summary_is_the_change_of_u_chi_in_each_point_file(tmp_path):
    scenario, _ = write_scenario(tmp_path)
    outdir = tmp_path / "sweep_c"
    argv = ["sweep", str(scenario), "--param", "c", "--min", "-0.01", "--max", "0.03", "--steps", "3"]
    assert cli.main([*argv, "--output-dir", str(outdir)]) == 0
    summary = (outdir / "summary.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(summary) == 3
    for index, line in enumerate(summary):
        _, rows = read_csv(outdir / f"sweep_c_{index}.csv")
        u_chi = column(rows, "U_chi")
        delta = float(line.split(",")[1])
        assert delta != 0.0 and delta == u_chi[-1] - u_chi[0]


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


def test_every_command_reports_a_malformed_scenario_file_alike(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    for argv in (
        ["run", str(bad), "--output", str(tmp_path / "o.csv")],
        ["check-conditions", str(bad)],
        ["sweep", str(bad), "--param", "c", "--min", "0", "--max", "1", "--steps", "2",
         "--output-dir", str(tmp_path / "sweep")],
    ):
        assert cli.main(argv) == 1
        assert f"error: {bad}: invalid JSON: " in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


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


def _reject_constant(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.mark.parametrize("coupling", ["g", "matrix"])
def test_check_conditions_fails_and_prints_null_for_an_overflowing_residual(tmp_path, capsys, coupling):
    # V = 1e308 sz x sz overflows the drive of condition (i) and D#[H].
    scenario, doc = write_scenario(tmp_path)
    doc["V"] = {"pattern": "zz", "g": 1e308} if coupling == "g" else matrix_to_json(1e308 * kron(SIGMA_Z, SIGMA_Z))
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["check-conditions", str(scenario), "--samples", "3"]) == 0
    assert [str(w.message) for w in caught] == []
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert report["commutator_residual"] is None and report["condition_i_pass"] is False
    assert report["adjoint_residual"] is None and report["condition_ii_pass"] is False


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
