"""The benchmark's workloads: seeded inputs, CLI commands, sizes and output checks.

Each workload is a list of ``corrflux`` command lines. Every command comes
with a checker that reads what the command wrote (or printed) and returns
the problems it found; an empty list means the output is correct. The
oracles are independent of the package: the two-qubit closed form is
evaluated here from the paper's formula, and the wide scenario is checked
against the ledger identities and diagnostic bounds the acceptance suite
uses.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Defaults of `corrflux example`: the paper's two-qubit scenario.
OMEGA_A = OMEGA_B = 1.0
G = 0.2
BETA_A, BETA_B = 0.5, 1.0
C = 0.02
EXAMPLE_DT = 1e-3
SWEEP_C_MIN, SWEEP_C_MAX, SWEEP_POINTS = -0.01, 0.01, 9

WIDE_SIDE = 6
WIDE_DT, WIDE_T_FINAL, WIDE_RECORD_EVERY = 0.01, 3.0, 25

CLOSED_FORM_TOL = 1e-6  # acceptance criteria 1 and 2
FROZEN_TOL = 1e-8  # acceptance criterion 3
LEDGER_TOL = 1e-10  # EnergyLedger's own identity bound
DIAGNOSTIC_TOL = 1e-6  # the integrator's breach band
SIGN_ZERO_TOL = 1e-12  # below this the CLI reports sign 0

Checker = Callable[[str], "list[str]"]


@dataclass
class Plan:
    """What one iteration of a workload runs and how its outputs are judged.

    commands[i] is an argv for ``corrflux.cli.main``, checks[i] receives
    that command's captured stdout, and command_steps[i] counts the RK4
    steps that command integrates (0 for one that integrates nothing).
    outputs lists the paths an iteration writes, removed before each
    iteration so stale files cannot pass. reference names the loop in
    ``reference.py`` that does the same kind of work as the commands.
    setup_args tells ``setup_probe.py`` how a CLI user obtains the parsed
    Scenario. sizes records the traffic: dimension, channels, RK4 steps and
    ledger records per iteration.
    """

    commands: list[list[str]]
    checks: list[Checker]
    command_steps: list[int]
    outputs: list[str]
    reference: str
    setup_args: list[str]
    sizes: dict


def decay_rate(beta_A: float, omega_A: float, beta_B: float, omega_B: float) -> float:
    """lambda = 2 cosh(beta_A omega_A) + 2 cosh(beta_B omega_B)."""
    return 2.0 * math.cosh(beta_A * omega_A) + 2.0 * math.cosh(beta_B * omega_B)


def closed_form_delta(g: float, c: float, lam: float, t: float) -> float:
    """Delta U_chi(t) = 4 g c (exp(-lambda t) - 1)."""
    return 4.0 * g * c * (math.exp(-lam * t) - 1.0)


def rk4_steps(t_final: float, dt: float) -> int:
    """Steps the fixed-step integrator takes, counting a trailing short step."""
    n_full = int(math.floor(t_final / dt + 1e-12))
    remainder = t_final - n_full * dt
    return n_full + (1 if remainder >= 1e-12 * max(dt, 1.0) else 0)


def record_count(steps: int, every: int) -> int:
    """Rows written: the initial state, every `every`-th step, the last step."""
    return 1 + steps // every + (1 if steps % every else 0)


def example_t_final() -> float:
    """The CLI's default horizon: twelve correlation lifetimes."""
    return 12.0 / decay_rate(BETA_A, OMEGA_A, BETA_B, OMEGA_B)


def _sign(x: float) -> int:
    return 0 if abs(x) <= SIGN_ZERO_TOL else (1 if x > 0 else -1)


def _read_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _read_rows(path: str) -> list[dict]:
    if path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            return [{k: float(v) for k, v in row.items()} for row in json.load(fh)]
    return _read_csv(path)


def _guarded(check: Callable[[], "list[str]"]) -> list[str]:
    """Run a check; a missing file or malformed table is a problem, not a crash."""
    try:
        return check()
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# Output checks


def check_sweep(out_dir: str, t_final: float, expected_records: int) -> list[str]:
    """Criteria 1 and 4 over the sweep summary, plus the per-point tables."""
    problems = []
    lam = decay_rate(BETA_A, OMEGA_A, BETA_B, OMEGA_B)
    rows = _read_csv(os.path.join(out_dir, "summary.csv"))
    grid = np.linspace(SWEEP_C_MIN, SWEEP_C_MAX, SWEEP_POINTS)
    if len(rows) != SWEEP_POINTS:
        problems.append(f"summary has {len(rows)} rows, expected {SWEEP_POINTS}")
    for row, c in zip(rows, grid.tolist()):
        if row["param"] != float(c):
            problems.append(f"summary param {row['param']!r} is not grid value {c!r}")
        expected = closed_form_delta(G, c, lam, t_final)
        if not abs(row["DeltaU_chi_final"] - expected) <= CLOSED_FORM_TOL:
            problems.append(f"c={c:.4g}: DeltaU_chi_final {row['DeltaU_chi_final']!r} vs closed form {expected!r}")
        # sign(4 g c (e^{-lambda t} - 1)) is -sign(g c), and 0 where the CLI rounds to 0.
        if int(row["sign"]) != _sign(expected):
            problems.append(f"c={c:.4g}: sign {row['sign']!r}, expected -sign(g c) = {_sign(expected)}")
    for index in range(SWEEP_POINTS):
        table = _read_csv(os.path.join(out_dir, f"sweep_c_{index}.csv"))
        if len(table) != expected_records:
            problems.append(f"sweep point {index}: {len(table)} rows, expected {expected_records}")
    return problems


def check_dense(path: str, expected_records: int) -> list[str]:
    """Criteria 1 and 3 at every recorded step."""
    problems = []
    rows = _read_rows(path)
    if len(rows) != expected_records:
        problems.append(f"{len(rows)} rows, expected {expected_records}")
    if not rows:
        return problems
    lam = decay_rate(BETA_A, OMEGA_A, BETA_B, OMEGA_B)
    first = rows[0]
    for i, row in enumerate(rows):
        for key in ("U_A", "U_B"):
            if not abs(row[key] - first[key]) <= FROZEN_TOL:
                problems.append(f"row {i}: {key} moved by {row[key] - first[key]!r}")
        expected = closed_form_delta(G, C, lam, row["t"])
        got = row["U_chi"] - first["U_chi"]
        if not abs(got - expected) <= CLOSED_FORM_TOL:
            problems.append(f"row {i} (t={row['t']!r}): Delta U_chi {got!r} vs closed form {expected!r}")
    return problems


def check_ledger_table(path: str, expected_records: int) -> list[str]:
    """Ledger identities and trace/positivity diagnostics on every row."""
    problems = []
    rows = _read_rows(path)
    if len(rows) != expected_records:
        problems.append(f"{len(rows)} rows, expected {expected_records}")
    for i, row in enumerate(rows):
        if not abs(row["U"] - (row["U_prod"] + row["U_chi"])) <= LEDGER_TOL:
            problems.append(f"row {i}: U != U_prod + U_chi")
        if not abs(row["U_prod"] - (row["U_A"] + row["U_B"])) <= LEDGER_TOL:
            problems.append(f"row {i}: U_prod != U_A + U_B")
        if not row["trace_drift"] <= DIAGNOSTIC_TOL:
            problems.append(f"row {i}: trace_drift {row['trace_drift']!r}")
        if not row["min_eig"] >= -DIAGNOSTIC_TOL:
            problems.append(f"row {i}: min_eig {row['min_eig']!r}")
    return problems


def check_conditions_report(stdout: str, table_path: str, samples: int) -> list[str]:
    """The sampled report's residual (ii) must equal the run's cond_ii_resid column."""
    problems = []
    report = json.loads(stdout)
    if report.get("samples") != samples:
        problems.append(f"report covers {report.get('samples')!r} samples, expected {samples}")
    if not isinstance(report.get("commutator_residual"), float) or not math.isfinite(report["commutator_residual"]):
        problems.append(f"commutator_residual {report.get('commutator_residual')!r} is not a finite number")
    adjoint = float(report["adjoint_residual"])
    for i, row in enumerate(_read_rows(table_path)):
        if not abs(row["cond_ii_resid"] - adjoint) <= 1e-12 * max(1.0, abs(adjoint)):
            problems.append(f"row {i}: cond_ii_resid {row['cond_ii_resid']!r} != report {adjoint!r}")
    return problems


# ---------------------------------------------------------------------------
# Seeded wide scenario


def _matrix_json(m: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).reshape(-1)]


def _hermitize(m: np.ndarray) -> np.ndarray:
    # (m + m†)/2 is exactly Hermitian in floating point: entry (j, i) is
    # computed as the conjugate of entry (i, j).
    return 0.5 * (m + m.conj().T)


def _complex_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _local_hamiltonian(rng: np.random.Generator, d: int) -> np.ndarray:
    """U diag(E) U† with level gaps in [0.2, 0.6], so the spectrum is nondegenerate."""
    energies = np.cumsum(rng.uniform(0.2, 0.6, size=d))
    energies -= energies.mean()
    q, r = np.linalg.qr(_complex_gaussian(rng, d))
    unitary = q * (np.diag(r) / np.abs(np.diag(r)))
    return _hermitize((unitary * energies) @ unitary.conj().T)


def wide_scenario(seed: int) -> dict:
    """A random WIDE_SIDE x WIDE_SIDE scenario drawn from `seed` alone.

    Nondegenerate local Hamiltonians, one detailed-balance bath per side with
    a base rate for every level pair (WIDE_SIDE (WIDE_SIDE - 1) channels per
    side), a dense generic Hermitian coupling and a full-rank initial state.
    """
    rng = np.random.default_rng(seed)
    d = WIDE_SIDE * WIDE_SIDE
    H_A = _local_hamiltonian(rng, WIDE_SIDE)
    H_B = _local_hamiltonian(rng, WIDE_SIDE)
    V = _hermitize(_complex_gaussian(rng, d)) * (0.3 / math.sqrt(d))
    baths = []
    for name in ("A", "B"):
        rates = [
            {"from": hi, "to": lo, "rate": float(rng.uniform(0.05, 0.5))}
            for lo in range(WIDE_SIDE)
            for hi in range(lo + 1, WIDE_SIDE)
        ]
        baths.append({"side": name, "beta": float(rng.uniform(0.5, 1.5)), "base_rates": rates})
    w = _complex_gaussian(rng, d)
    mixed = w @ w.conj().T
    rho = 0.9 * mixed / np.trace(mixed).real + 0.1 * np.eye(d) / d
    rho = _hermitize(rho)
    rho /= np.trace(rho).real
    return {
        "shape": {"dA": WIDE_SIDE, "dB": WIDE_SIDE},
        "H_A": _matrix_json(H_A),
        "H_B": _matrix_json(H_B),
        "V": _matrix_json(V),
        "alpha_A": 0.5,
        "baths": baths,
        "initial_state": _matrix_json(rho),
        "integration": {"t_final": WIDE_T_FINAL, "dt": WIDE_DT, "record_every": WIDE_RECORD_EVERY},
    }


def example_scenario() -> dict:
    """The scenario `corrflux example --emit-scenario` writes with its defaults.

    Built here from the paper's parameters in the package's JSON schema, so
    the sweep's input does not depend on the code under test.
    """
    def bath(side: str, beta: float, omega: float) -> dict:
        return {"side": side, "beta": beta, "base_rates": [{"from": 1, "to": 0, "rate": math.exp(beta * omega)}]}

    sz = np.diag([1.0, -1.0])
    return {
        "shape": {"dA": 2, "dB": 2},
        "H_A": _matrix_json(OMEGA_A * sz),
        "H_B": _matrix_json(OMEGA_B * sz),
        "V": {"pattern": "zz", "g": G},
        "alpha_A": 0.5,
        "baths": [bath("A", BETA_A, OMEGA_A), bath("B", BETA_B, OMEGA_B)],
        "initial_state": {"preset": "thermal_plus_zz", "c": C},
        "integration": {"t_final": example_t_final(), "dt": EXAMPLE_DT, "record_every": 10},
    }


def _write_json(document: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Plans


def paper_sweep(workdir: str, seed: int) -> Plan:
    """The paper's headline check: 9-point c sweep of the two-qubit scenario."""
    del seed  # the paper fixes every input of this workload
    scenario = os.path.join(workdir, "example_scenario.json")
    _write_json(example_scenario(), scenario)
    out_dir = os.path.join(workdir, "sweep")
    t_final = example_t_final()
    steps = rk4_steps(t_final, EXAMPLE_DT)
    records = record_count(steps, 10)
    argv = ["sweep", scenario, "--param", "c", "--min", repr(SWEEP_C_MIN), "--max", repr(SWEEP_C_MAX),
            "--steps", str(SWEEP_POINTS), "--output-dir", out_dir]
    return Plan(
        commands=[argv],
        checks=[lambda _stdout: _guarded(lambda: check_sweep(out_dir, t_final, records))],
        command_steps=[SWEEP_POINTS * steps],
        outputs=[out_dir],
        reference="interpreter",
        setup_args=["file", scenario],
        sizes={"d": 4, "channels": 4, "commands": 1, "points": SWEEP_POINTS,
               "steps": SWEEP_POINTS * steps, "records": SWEEP_POINTS * records},
    )


def paper_dense(workdir: str, seed: int) -> Plan:
    """The same physics with every step recorded and written as JSON."""
    del seed  # the paper fixes every input of this workload
    out = os.path.join(workdir, "dense.json")
    steps = rk4_steps(example_t_final(), EXAMPLE_DT)
    records = record_count(steps, 1)
    argv = ["example", "--record-every", "1", "--format", "json", "--output", out]
    return Plan(
        commands=[argv],
        checks=[lambda _stdout: _guarded(lambda: check_dense(out, records))],
        command_steps=[steps],
        outputs=[out],
        reference="interpreter",
        setup_args=["example"],
        sizes={"d": 4, "channels": 4, "commands": 1, "steps": steps, "records": records},
    )


def wide_d36(workdir: str, seed: int) -> Plan:
    """A seeded d = 36 scenario: `run`, then `check-conditions` on the same file."""
    scenario = os.path.join(workdir, f"wide_d36_seed{seed}.json")
    _write_json(wide_scenario(seed), scenario)
    out = os.path.join(workdir, "wide.csv")
    steps = rk4_steps(WIDE_T_FINAL, WIDE_DT)
    records = record_count(steps, WIDE_RECORD_EVERY)
    samples = 50
    return Plan(
        commands=[
            ["run", scenario, "--output", out],
            ["check-conditions", scenario, "--seed", str(seed), "--samples", str(samples)],
        ],
        checks=[
            lambda _stdout: _guarded(lambda: check_ledger_table(out, records)),
            lambda stdout: _guarded(lambda: check_conditions_report(stdout, out, samples)),
        ],
        command_steps=[steps, 0],
        outputs=[out],
        reference="blas",
        setup_args=["file", scenario],
        sizes={"d": WIDE_SIDE * WIDE_SIDE, "channels": 2 * WIDE_SIDE * (WIDE_SIDE - 1), "commands": 2,
               "steps": steps, "records": records, "condition_samples": samples},
    )


PLANS = {"paper-sweep": paper_sweep, "paper-dense": paper_dense, "wide-d36": wide_d36}
