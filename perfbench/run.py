"""corrflux benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload paper-dense --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. Workloads (see ``workloads.py``): ``paper-sweep``,
``paper-dense`` and ``wide-d36``.

With ``--trace 0`` the run measures, in this one process and after a
warm-up iteration, the wall and CPU time of the workload's CLI commands,
and in fresh interpreters the set-up time. It also times fixed reference
work that uses numpy alone: short snippets sampled while the commands run
(``reference.Sampler``), and a fresh-interpreter reference right after each
set-up probe (``setup_probe.py reference``). Each sample is scaled to a
machine on which that reference takes REFERENCE_NOMINAL_S, so that the
host running faster or slower from one moment to the next does not move
the metrics. With ``--trace 1`` it alternates untraced and traced
iterations and reports per-layer metrics from spans recorded around the
package's public functions. Every iteration's outputs
are checked; a command that exits non-zero or writes a wrong output counts
as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with the environment, the sizes and every sample, is written to
``perfbench/out/<workload>-seed<seed>-trace<t>/result.json``, and the spans
of the last traced iteration to ``spans.json`` beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 7  # set-up probes per run at least; setup_s is the median of their scaled times
MIN_SAMPLES = 3  # timed iterations per run, even past --seconds
# Nominal seconds of each reference: the snippets of reference.SNIPPETS as
# sampled inside a workload's commands, and "import", the fresh-interpreter
# reference that scales setup_s. They are roughly what a 2-vCPU x86-64 VM
# shows in its fast stretches, so scaled times read as seconds there.
REFERENCE_NOMINAL_S = {"interpreter": 0.00045, "blas": 0.0005, "import": 0.07}
PROBE_TIMEOUT_S = 60
# One BLAS thread, which is no more than nproc anywhere. On a shared 2-CPU
# box a second OpenBLAS thread added ~70 ms to every fresh interpreter's
# set-up (pool start-up) and spin-waited between calls, which made runs
# noisier, while the d = 36 integration ran no faster with it.
BLAS_THREADS = 1


def _median_and_tail(samples: list[float]) -> dict:
    """Median, and the highest percentile that keeps at least ten samples above it."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    for pct in (99, 95, 90, 75):
        if len(samples) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(samples, n=100)[pct - 1]
            break
    return out


def _openblas_threads() -> int | None:
    """Thread count OpenBLAS reports, if numpy bundles a library that answers."""
    import ctypes

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):  # else git would report an enclosing repository
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_requested": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_effective": _openblas_threads(),
        "git_sha": sha,
    }


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for `kind`."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def probe(args: list[str]) -> float:
    """Seconds one fresh interpreter takes for a ``setup_probe.py`` set-up."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, *args],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Counter:
    """Commands attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, argv: list[str], problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{argv[0]}: {problems[0]} ({len(problems)} problems)")


def run_iteration(cli, plan, counter: Counter, sampler=None) -> tuple[list[float], float, list[float]]:
    """Run the workload's commands once.

    Returns each command's wall time, their total CPU time and, with a
    sampler, the snippet times sampled while they ran. The snippets' own
    time is taken out of both wall and CPU time.
    """
    for path in plan.outputs:
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)
    captured = []
    walls, cpu, snippets = [], 0.0, []
    for argv in plan.commands:
        stdout = io.StringIO()
        with sampler.sampling() if sampler else contextlib.nullcontext([]) as sampled:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
            except Exception:  # a crash in the program under test is a failed command
                traceback.print_exc()
                code = "exception"
            wall, used = time.perf_counter() - t0, time.process_time() - c0
        walls.append(wall - sum(sampled))
        cpu += used - sum(sampled)
        snippets.extend(sampled)
        captured.append((argv, code, stdout.getvalue()))
    for (argv, code, out), check in zip(captured, plan.checks):
        counter.record(argv, [f"exit code {code}"] if code != 0 else check(out))
    return walls, cpu, snippets


def timed_loop(seconds: float, step) -> None:
    """Call step() for about `seconds`, and at least MIN_SAMPLES times.

    A further call is made only if one more call as long as the last still
    ends within `seconds`, so a run does not overshoot by a whole iteration.
    """
    start = time.perf_counter()
    calls, last = 0, 0.0
    while calls < MIN_SAMPLES or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        calls += 1


def scaled_values(samples: dict, kind: str, steps: int) -> dict:
    """Medians of the timed samples, each scaled by the reference timed with it.

    Iteration k's times are multiplied by REFERENCE_NOMINAL_S[kind] over
    reference_s[k], the mean snippet time sampled while it ran; set-up probe
    j's time by the "import" nominal over the fresh-interpreter reference
    run right after it. The same program then reads the same on a host that
    runs everything 1.5 times slower.
    """
    scales = [REFERENCE_NOMINAL_S[kind] / ref for ref in samples["reference_s"]]
    values = {name: statistics.median(x * k for x, k in zip(samples[name], scales)) for name in ("wall_s", "cpu_s")}
    values["steps_per_s"] = statistics.median(steps / (x * k) for x, k in zip(samples["stepping_wall_s"], scales))
    values["setup_s"] = statistics.median(
        x * REFERENCE_NOMINAL_S["import"] / ref for x, ref in zip(samples["setup_s"], samples["import_reference_s"])
    )
    return values


def end_to_end(cli, plan, counter: Counter, seconds: float) -> tuple[dict, dict]:
    """End-to-end metric values and the raw samples behind them."""
    from reference import Sampler

    # Each set-up probe is followed by its reference, so both see the same
    # moment of machine time.
    setup, import_reference = [probe(plan.setup_args)], [probe(["reference"])]
    run_iteration(cli, plan, counter)  # warm-up: lazy loading, BLAS start-up, first LAPACK calls
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sampler = Sampler(plan.reference)
    walls, stepping, cpus, reference = [], [], [], []

    def step():
        command_walls, cpu, snippets = run_iteration(cli, plan, counter, sampler)
        walls.append(sum(command_walls))
        stepping.append(sum(wall for wall, n in zip(command_walls, plan.command_steps) if n))
        cpus.append(cpu)
        reference.append(statistics.mean(snippets))
        setup.append(probe(plan.setup_args))
        import_reference.append(probe(["reference"]))

    timed_loop(seconds, step)
    while len(setup) < SETUP_PROBES:
        setup.append(probe(plan.setup_args))
        import_reference.append(probe(["reference"]))
    samples = {"wall_s": walls, "stepping_wall_s": stepping, "cpu_s": cpus, "reference_s": reference,
               "setup_s": setup, "import_reference_s": import_reference}
    values = scaled_values(samples, plan.reference, sum(plan.command_steps))
    values["peak_rss_mb"] = peak_rss_mb
    values["ops_ok_frac"] = 1.0 - counter.failed / counter.attempted
    return values, samples


def traced(cli, plan, counter: Counter, seconds: float, spans_path: str) -> tuple[dict, dict]:
    """Per-layer metrics from alternating untraced and traced iterations."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    run_iteration(cli, plan, counter)  # warm-up
    plain, traced_walls, per_iteration = [], [], []
    last_spans = []

    def step():
        nonlocal last_spans
        plain.append(sum(run_iteration(cli, plan, counter)[0]))
        with tracer.installed():
            wall = sum(run_iteration(cli, plan, counter)[0])
        last_spans = tracer.take()
        traced_walls.append(wall)
        per_iteration.append(layer_metrics(last_spans, wall))

    timed_loop(seconds, step)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump([[s.name, s.start, s.end, s.parent, s.size] for s in last_spans], fh)
    values = {name: statistics.median(m[name] for m in per_iteration) for name in per_iteration[0]}
    untraced = statistics.median(plain)
    values["trace.overhead_frac"] = (statistics.median(traced_walls) - untraced) / untraced
    return values, {"untraced_wall_s": plain, "traced_wall_s": traced_walls}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "corrflux", "__init__.py")):
        print(f"error: no corrflux sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # OpenBLAS reads its thread count when numpy loads it, so set it before any import of numpy.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import corrflux
    from corrflux import cli
    from workloads import PLANS

    if os.path.dirname(os.path.abspath(corrflux.__file__)) != os.path.join(SRC, "corrflux"):
        print(f"error: imported corrflux from {corrflux.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in PLANS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(PLANS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    plan = PLANS[args.workload](workdir, args.seed)
    counter = Counter()
    if args.trace:
        values, samples = traced(cli, plan, counter, args.seconds, os.path.join(workdir, "spans.json"))
    else:
        values, samples = end_to_end(cli, plan, counter, args.seconds)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        print(f"error: measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
        return 2

    result = {
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "sizes": plan.sizes,
              "environment": environment(), "failures": counter.reasons, "samples": samples,
              "summaries": {name: _median_and_tail(v) for name, v in samples.items()}, **result}
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    print(f"workload {args.workload} seed {args.seed}: "
          + ", ".join(f"{k}={v}" for k, v in plan.sizes.items()))
    print("environment: " + json.dumps(report["environment"]))
    for reason in counter.reasons:
        print(f"FAILED {reason}")
    if not args.trace:
        print(f"{plan.reference} snippet: median {statistics.median(samples['reference_s']):.4g} s, "
              f"fresh-interpreter reference: median "
              f"{statistics.median(samples['import_reference_s']):.4g} s; times below are scaled "
              f"to {REFERENCE_NOMINAL_S[plan.reference]} s and {REFERENCE_NOMINAL_S['import']} s")
    for name, unit in units.items():
        sampled = "stepping_wall_s" if name == "steps_per_s" else name
        n = f"  (median of {len(samples[sampled])})" if sampled in samples else ""
        print(f"{name:52s} {values[name]:.6g} {unit}{n}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
