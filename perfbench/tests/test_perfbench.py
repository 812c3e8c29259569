"""Tests of the benchmark's own code: span self time, scaling, output checks, seeded inputs.

    python3 -m pytest perfbench/tests
"""

import csv
import json
import math
import os
import signal
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402
from tracing import Span  # noqa: E402

LEDGER_COLUMNS = ("t", "U", "U_A", "U_B", "U_prod", "U_chi", "trace_drift", "min_eig", "cond_ii_resid")


# ---------------------------------------------------------------------------
# Self time


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span("root", 0, 100, -1),
        Span("a", 10, 40, 0),
        Span("a.inner", 15, 20, 1),
        Span("b", 30, 60, 0),  # overlaps a: together they cover 10..60
        Span("c", 90, 120, 0),  # runs past its parent: only 90..100 counts
    ]
    assert tracing.self_times(spans) == [100 - 50 - 10, 30 - 5, 5, 30, 30]


def test_layer_metrics_counts_per_record_calls_and_excludes_per_run_work():
    ms = 1_000_000
    spans = [Span("cli.main", 0, 100 * ms, -1),
             Span("dynamics.integrate", 1 * ms, 51 * ms, 0, size=500),
             Span("cli.compute_records", 60 * ms, 90 * ms, 0, size=2),
             Span("conditions.adjoint_residual", 60 * ms, 61 * ms, 2),
             Span("dynamics.adjoint_generator", 60 * ms, 61 * ms, 3)]
    for k in range(2):  # two records, one ledger each with three decompositions
        start = (62 + 10 * k) * ms
        ledger = len(spans)
        spans.append(Span("energetics.energy_ledger", start, start + 8 * ms, 2))
        spans.append(Span("dynamics.adjoint_generator", start, start + 1 * ms, ledger))
        for j in range(3):
            spans.append(Span("energetics.decompose", start + (2 + j) * ms, start + (3 + j) * ms, ledger))
    spans.append(Span("cli.write_records", 91 * ms, 95 * ms, 0, size=1234))

    m = tracing.layer_metrics(spans, wall_s=0.1)
    assert m["energetics.decompose.calls_per_record"] == 3.0
    assert m["dynamics.adjoint_generator.calls_per_record"] == 1.0
    assert m["conditions.adjoint_residual.calls"] == 1
    assert m["dynamics.integrate.step_us"] == pytest.approx(100.0)
    assert m["dynamics.integrate.wall_frac"] == pytest.approx(0.5)
    assert m["cli.compute_records.us_per_record"] == pytest.approx(15_000.0)
    assert m["energetics.energy_ledger.self_s"] == pytest.approx(2 * 4e-3)
    assert m["cli.main.self_s"] == pytest.approx((100 - 50 - 30 - 4) * 1e-3)
    assert m["cli.write_records.bytes"] == 1234
    assert m["model.parse_scenario.calls"] == 0


def test_tracer_records_nested_spans_and_restores_every_binding(tmp_path):
    from corrflux import cli, energetics

    original_main, original_kron = cli.main, energetics.kron
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main is not original_main
        code = cli.main(["example", "--t-final", "0.01", "--output", str(tmp_path / "ex.csv")])
    assert code == 0
    assert (cli.main, energetics.kron) == (original_main, original_kron)
    spans = tracer.take()
    names = [s.name for s in spans]
    assert spans[0].name == "cli.main" and spans[0].parent == -1
    integrate = spans[names.index("dynamics.integrate")]
    assert integrate.size == 10 and spans[integrate.parent].name == "cli.main"
    records = spans[names.index("cli.compute_records")]
    assert records.size == 2
    ledger = spans[names.index("energetics.energy_ledger")]
    assert spans[ledger.parent].name == "cli.compute_records"
    assert "energetics.kron" in names
    assert tracer.take() == []


# ---------------------------------------------------------------------------
# Scaling to the reference speed


def test_scaled_values_pair_each_sample_with_its_own_reference():
    samples = {"wall_s": [2.0, 3.0, 2.2], "stepping_wall_s": [1.5, 2.25, 1.65], "cpu_s": [1.9, 2.85, 2.1],
               "reference_s": [0.10, 0.15, 0.11],
               "setup_s": [0.1, 0.15, 0.11], "import_reference_s": [0.05, 0.075, 0.05]}
    values = run.scaled_values(samples, "blas", steps=300)
    # The second iteration ran on a 1.5 times slower host and scales back to the first.
    assert values["wall_s"] == pytest.approx(2.0 * run.REFERENCE_NOMINAL_S["blas"] / 0.10)
    assert values["cpu_s"] == pytest.approx(1.9 * run.REFERENCE_NOMINAL_S["blas"] / 0.10)
    assert values["steps_per_s"] == pytest.approx(300 / (1.5 * run.REFERENCE_NOMINAL_S["blas"] / 0.10))
    assert values["setup_s"] == pytest.approx(2.0 * run.REFERENCE_NOMINAL_S["import"])

    slow = run.scaled_values({k: [1.5 * x for x in v] for k, v in samples.items()}, "blas", steps=300)
    assert slow == pytest.approx(values)


def test_sampler_times_snippets_only_inside_its_block():
    sampler = reference.Sampler("interpreter")
    with sampler.sampling() as sampled:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    taken = len(sampled)
    assert taken >= 3 and all(0 < t < 0.1 for t in sampled)
    time.sleep(2 * reference.INTERVAL_S)
    assert len(sampled) == taken
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_plans_count_steps_only_for_commands_that_integrate(tmp_path):
    plan = w.wide_d36(str(tmp_path), 5)
    assert [argv[0] for argv in plan.commands] == ["run", "check-conditions"]
    assert plan.command_steps == [300, 0]
    assert plan.reference == "blas"
    assert w.paper_sweep(str(tmp_path), 5).command_steps == [9 * 2247]


# ---------------------------------------------------------------------------
# Output checks reject corrupted outputs


def _write_csv(path, rows, columns):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(float(row[c])) for c in columns])


def _dense_rows(n=50):
    lam = w.decay_rate(w.BETA_A, w.OMEGA_A, w.BETA_B, w.OMEGA_B)
    return [{"t": t, "U_A": -0.4, "U_B": -0.7, "U_chi": 0.01 + w.closed_form_delta(w.G, w.C, lam, t)}
            for t in (2.0 * k / (n - 1) for k in range(n))]


def _write_json(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh)


def test_dense_check_accepts_the_closed_form_and_rejects_corruption(tmp_path):
    path = str(tmp_path / "dense.json")
    rows = _dense_rows()
    _write_json(path, rows)
    assert w.check_dense(path, len(rows)) == []
    assert w.check_dense(path, len(rows) + 1)  # wrong row count

    drifted = [dict(r) for r in rows]
    drifted[20]["U_chi"] += 1e-5
    _write_json(path, drifted)
    assert any("closed form" in p for p in w.check_dense(path, len(rows)))

    thawed = [dict(r) for r in rows]
    thawed[-1]["U_B"] += 1e-7
    _write_json(path, thawed)
    assert any("U_B moved" in p for p in w.check_dense(path, len(rows)))

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(rows)[:500])  # truncated file
    problems = w._guarded(lambda: w.check_dense(path, len(rows)))
    assert problems and problems[0].startswith("unreadable output")


def _sweep_outputs(out_dir, records, t_final):
    lam = w.decay_rate(w.BETA_A, w.OMEGA_A, w.BETA_B, w.OMEGA_B)
    os.makedirs(out_dir, exist_ok=True)
    summary = []
    for index, c in enumerate(np.linspace(w.SWEEP_C_MIN, w.SWEEP_C_MAX, w.SWEEP_POINTS)):
        delta = w.closed_form_delta(w.G, c, lam, t_final)
        summary.append({"param": c, "DeltaU_chi_final": delta, "sign": w._sign(delta)})
        _write_csv(os.path.join(out_dir, f"sweep_c_{index}.csv"),
                   [{"t": 0.0, "U_chi": 0.0}] * records, ("t", "U_chi"))
    return summary


def test_sweep_check_rejects_a_wrong_sign_a_drifted_point_and_a_missing_table(tmp_path):
    out_dir, t_final = str(tmp_path / "sweep"), 2.0
    summary = _sweep_outputs(out_dir, 3, t_final)
    columns = ("param", "DeltaU_chi_final", "sign")
    path = os.path.join(out_dir, "summary.csv")
    _write_csv(path, summary, columns)
    assert w.check_sweep(out_dir, t_final, 3) == []

    flipped = [dict(r) for r in summary]
    flipped[0]["sign"] = -flipped[0]["sign"]
    _write_csv(path, flipped, columns)
    assert any("sign" in p for p in w.check_sweep(out_dir, t_final, 3))

    drifted = [dict(r) for r in summary]
    drifted[-1]["DeltaU_chi_final"] *= 1.01
    _write_csv(path, drifted, columns)
    assert any("closed form" in p for p in w.check_sweep(out_dir, t_final, 3))

    _write_csv(path, summary, columns)
    os.remove(os.path.join(out_dir, "sweep_c_4.csv"))
    assert w._guarded(lambda: w.check_sweep(out_dir, t_final, 3))


def _ledger_rows(n=5):
    rows = []
    for k in range(n):
        U_A, U_B, U_chi = 0.3 - 0.01 * k, -0.2 + 0.003 * k, 0.05 * math.exp(-k)
        rows.append({"t": 0.5 * k, "U": U_A + U_B + U_chi, "U_A": U_A, "U_B": U_B, "U_prod": U_A + U_B,
                     "U_chi": U_chi, "trace_drift": 1e-15, "min_eig": 0.001, "cond_ii_resid": 0.25})
    return rows


def test_wide_checks_reject_broken_identities_and_a_mismatched_residual(tmp_path):
    path = str(tmp_path / "wide.csv")
    rows = _ledger_rows()
    _write_csv(path, rows, LEDGER_COLUMNS)
    report = json.dumps({"commutator_residual": 0.5, "adjoint_residual": 0.25, "samples": 50})
    assert w.check_ledger_table(path, len(rows)) == []
    assert w.check_conditions_report(report, path, 50) == []
    assert w.check_conditions_report(report.replace("0.25", "0.2500001"), path, 50)

    broken = [dict(r) for r in rows]
    broken[2]["U_A"] += 1e-9
    broken[3]["min_eig"] = -1e-5
    _write_csv(path, broken, LEDGER_COLUMNS)
    problems = w.check_ledger_table(path, len(rows))
    assert any("U_prod != U_A + U_B" in p for p in problems)
    assert any("min_eig" in p for p in problems)


# ---------------------------------------------------------------------------
# Seeded inputs


def test_wide_scenario_is_a_function_of_the_seed():
    assert w.wide_scenario(11) == w.wide_scenario(11)
    assert w.wide_scenario(11) != w.wide_scenario(12)


def test_wide_scenario_has_the_stated_sizes():
    from corrflux import model

    scenario = model.parse_scenario(w.wide_scenario(3))
    assert scenario.system.shape.dim == 36
    assert len(scenario.system.channels) == 60
    assert w.rk4_steps(scenario.t_final, scenario.dt) == 300
    assert w.record_count(300, scenario.record_every) == 13


def test_example_scenario_matches_what_the_cli_emits(tmp_path):
    from corrflux import cli

    emitted = tmp_path / "emitted.json"
    code = cli.main(["example", "--t-final", "0.002", "--output", str(tmp_path / "ex.csv"),
                     "--emit-scenario", str(emitted)])
    assert code == 0
    document = json.loads(emitted.read_text())
    ours = w.example_scenario()
    assert document["integration"]["dt"] == ours["integration"]["dt"]
    document["integration"] = ours["integration"] = None
    assert document == ours


def test_step_and_record_counts_match_the_paper_workloads():
    steps = w.rk4_steps(w.example_t_final(), w.EXAMPLE_DT)
    assert steps == 2247
    assert w.record_count(steps, 10) == 226
    assert w.record_count(steps, 1) == 2248
