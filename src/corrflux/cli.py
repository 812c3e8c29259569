"""Command line front end.

Subcommands:
  run               integrate a scenario and write the energy ledger table
  sweep             rerun a scenario over a grid of one scalar parameter
  check-conditions  sample the no-exchange conditions and print a report
  example           materialize and run the built-in two-qubit scenario

Exit codes: 0 success; 1 input error; 2 the run finished but breached its
trace/positivity diagnostics, or its table has a NaN or infinite cell (output
files are still written).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import re
import sys
import warnings
from dataclasses import fields

import numpy as np

from . import conditions, dynamics, energetics, model, twoqubit
from .linalg import frobenius_norm

__all__ = ["main", "COLUMNS"]

_RUN_COLUMNS = ("chi_norm", "trace_drift", "min_eig", "cond_i_resid", "cond_ii_resid")
COLUMNS = ("t", *(f.name for f in fields(energetics.EnergyLedger)), *_RUN_COLUMNS)

SIGN_ZERO_TOL = 1e-12


def compute_records(system: model.BipartiteSystem, trajectory: dynamics.Trajectory) -> np.ndarray:
    """The record table: one float64 row per record, column j holding COLUMNS[j].

    Evaluates the full ledger and both condition residuals at every record at
    once. Overflow leaves NaN or infinite cells, with no numpy warning. A
    non-finite state is the last record of a diverged run, which integrate has
    already reported; in a run without one, non-finite cells get one
    NumericalConsistencyWarning.
    """
    states = np.asarray(trajectory.states, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        columns = {
            "t": trajectory.times,
            **vars(energetics.energy_ledger(system, states)),
            "chi_norm": frobenius_norm(energetics.decompose(states, system.shape).chi),
            "trace_drift": trajectory.trace_drift,
            "min_eig": trajectory.min_eigenvalue,
            "cond_i_resid": conditions.commutator_residual(system, states),
            "cond_ii_resid": np.full(len(states), conditions.adjoint_residual(system)),
        }
    table = np.stack([np.asarray(columns[name], dtype=float) for name in COLUMNS], axis=1)
    broken = ~np.isfinite(table).all(axis=1)
    if broken.any() and np.isfinite(states).all():
        warnings.warn(
            f"ledger is not finite at {int(broken.sum())} of {len(states)} records, "
            f"first at t = {trajectory.times[broken.argmax()]:.6g}",
            energetics.NumericalConsistencyWarning,
            stacklevel=2,
        )
    return table


# One CSV row. "%.17g" writes nan, inf and -inf as such, so no cell needs a path of its own.
_CSV_ROW = ",".join(["%.17g"] * len(COLUMNS))


def write_records_csv(table: np.ndarray, path) -> None:
    """The header of COLUMNS, then one row per record, each cell to 17 significant digits.

    Every double round-trips exactly. A non-finite value is written nan, inf or -inf.
    """
    lines = [",".join(COLUMNS), *(_CSV_ROW % row for row in map(tuple, table.tolist()))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# One record as json.dump(rows, indent=2) lays it out, with a %s for each value
# (str of a Python float is its repr).
_JSON_ROW = "  {\n" + ",\n".join(f"    {json.dumps(col)}: %s" for col in COLUMNS) + "\n  }"


def _json_number(x: float) -> str:
    return repr(x) if math.isfinite(x) else "null"


def write_records_json(table: np.ndarray, path) -> None:
    """The file json.dump(rows, indent=2) writes for one object per record, plus a newline.

    Floats are written by float.__repr__, as json writes them. A non-finite value,
    which JSON cannot hold, is written as null.
    """
    rows = map(tuple, table.tolist())
    # A finite table, the output of every run that did not diverge, formats
    # each row in one step; any other goes through the per-cell path.
    if np.isfinite(table).all():
        body = [_JSON_ROW % row for row in rows]
    else:
        body = [_JSON_ROW % tuple(map(_json_number, row)) for row in rows]
    text = "[\n" + ",\n".join(body) + "\n]\n" if body else "[]\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _execute_run(scenario: model.Scenario, output, fmt: str) -> tuple[int, np.ndarray]:
    """Integrate, write the table and return (exit status, table)."""
    trajectory = dynamics.integrate(
        scenario.system,
        scenario.initial_state,
        scenario.t_final,
        scenario.dt,
        record_every=scenario.record_every,
    )
    table = compute_records(scenario.system, trajectory)
    writer = write_records_csv if fmt == "csv" else write_records_json
    writer(table, output)
    return (2 if trajectory.breached or not np.isfinite(table).all() else 0), table


def _cmd_run(args) -> int:
    scenario = model.load_scenario(args.scenario)
    return _execute_run(scenario, args.output, args.format)[0]


_PARAM_ALIASES = {"c": ("initial_state", "c"), "g": ("V", "g")}


def _set_scenario_param(document: dict, param: str, value: float) -> None:
    """Overwrite one scalar field of the scenario document in place."""
    path = list(_PARAM_ALIASES.get(param, tuple(param.split("."))))
    node = document
    trail: list[str] = []
    for segment in path[:-1]:
        trail.append(segment)
        if isinstance(node, list):
            try:
                node = node[int(segment)]
            except (ValueError, IndexError) as exc:
                raise model.ValidationError(
                    f"parameter {param!r}: scenario has no element {'.'.join(trail)}"
                ) from exc
        elif isinstance(node, dict) and segment in node:
            node = node[segment]
        else:
            raise model.ValidationError(
                f"parameter {param!r}: scenario has no field {'.'.join(trail)}"
            )
    leaf = path[-1]
    if (
        isinstance(node, dict)
        and isinstance(node.get(leaf), (int, float))
        and not isinstance(node.get(leaf), bool)
    ):
        node[leaf] = value
    else:
        raise model.ValidationError(
            f"parameter {param!r} does not name a scalar scenario field"
        )


def _sign(value: float) -> str:
    """The sign column: -1, 0 or 1, and nan where a diverged run left no value."""
    if not np.isfinite(value):
        return "nan"
    if abs(value) <= SIGN_ZERO_TOL:
        return "0"
    return "1" if value > 0 else "-1"


def _cmd_sweep(args) -> int:
    if args.steps < 1:
        raise model.ValidationError(f"--steps must be >= 1, got {args.steps}")
    base = model.load_document(args.scenario)
    os.makedirs(args.output_dir, exist_ok=True)
    safe_param = re.sub(r"[^A-Za-z0-9_.-]", "_", args.param)

    grid = np.linspace(args.min, args.max, args.steps)
    summary = ["param,DeltaU_chi_final,sign"]
    status = 0
    for index, value in enumerate(grid):
        document = copy.deepcopy(base)
        _set_scenario_param(document, args.param, float(value))
        scenario = model.parse_scenario(document)
        out_path = os.path.join(args.output_dir, f"sweep_{safe_param}_{index}.csv")
        point_status, table = _execute_run(scenario, out_path, "csv")
        status = max(status, point_status)
        first, last = table[[0, -1], COLUMNS.index("U_chi")].tolist()
        delta = last - first
        summary.append("%.17g,%.17g,%s" % (value, delta, _sign(delta)))
    with open(os.path.join(args.output_dir, "summary.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(summary) + "\n")
    return status


def _cmd_check_conditions(args) -> int:
    scenario = model.load_scenario(args.scenario)
    report = conditions.check_conditions_sampled(
        scenario.system, samples=args.samples, tol=args.tol, seed=args.seed
    )
    print(json.dumps(report.to_json(), indent=2))
    return 0


def _cmd_example(args) -> int:
    params = twoqubit.ExampleParams(
        omega_A=args.omega_a,
        omega_B=args.omega_b,
        g=args.g,
        beta_A=args.beta_a,
        beta_B=args.beta_b,
        c=args.c,
    )
    t_final = args.t_final
    if t_final is None:
        # Default horizon: twelve correlation lifetimes, deep in the plateau.
        t_final = 12.0 / twoqubit.decay_rate(params)
    document = twoqubit.scenario_document(params, t_final, args.dt, args.record_every)
    if args.emit_scenario:
        with open(args.emit_scenario, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
    scenario = model.parse_scenario(document)
    return _execute_run(scenario, args.output, args.format)[0]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrflux",
        description="Energy bookkeeping for bipartite open quantum systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario and write the ledger table")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--output", required=True, help="output file path")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="rerun a scenario over a parameter grid")
    p_sweep.add_argument("scenario", help="path to a scenario JSON file")
    p_sweep.add_argument("--param", required=True, help="scalar field to sweep (e.g. c, g, alpha_A)")
    p_sweep.add_argument("--min", type=float, required=True)
    p_sweep.add_argument("--max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--output-dir", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser("check-conditions", help="sample the no-exchange conditions")
    p_check.add_argument("scenario", help="path to a scenario JSON file")
    p_check.add_argument("--samples", type=int, default=conditions.DEFAULT_SAMPLES)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--tol", type=float, default=conditions.DEFAULT_TOL)
    p_check.set_defaults(func=_cmd_check_conditions)

    p_example = sub.add_parser("example", help="run the built-in two-qubit scenario")
    p_example.add_argument("--omega-a", type=float, default=1.0)
    p_example.add_argument("--omega-b", type=float, default=1.0)
    p_example.add_argument("--g", type=float, default=0.2)
    p_example.add_argument("--beta-a", type=float, default=0.5)
    p_example.add_argument("--beta-b", type=float, default=1.0)
    p_example.add_argument("--c", type=float, default=0.02)
    p_example.add_argument("--t-final", type=float, default=None, help="default: 12 / lambda")
    p_example.add_argument("--dt", type=float, default=1e-3)
    p_example.add_argument("--record-every", type=int, default=10)
    p_example.add_argument("--output", default="example.csv")
    p_example.add_argument("--format", choices=("csv", "json"), default="csv")
    p_example.add_argument("--emit-scenario", default=None, help="also write the scenario JSON here")
    p_example.set_defaults(func=_cmd_example)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (model.ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
