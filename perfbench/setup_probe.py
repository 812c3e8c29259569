"""Time one CLI user's set-up in a fresh interpreter and print it in seconds.

    python3 setup_probe.py SRC_DIR example
    python3 setup_probe.py SRC_DIR file SCENARIO.json
    python3 setup_probe.py SRC_DIR reference

The clock starts before ``import corrflux`` (which imports numpy and loads
BLAS) and stops once the workload's Scenario is parsed, so import cost and
the first LAPACK calls of parsing are both inside. ``example`` builds the
scenario the way ``corrflux example`` does with its defaults; ``file``
loads it the way ``run``, ``sweep`` and ``check-conditions`` do.
``reference`` imports numpy and makes one first LAPACK call without
touching the package: the fixed part of set-up, which measures how fast the
machine runs fresh interpreters right now.
"""

import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    if argv[2] == "reference":
        import numpy

        numpy.linalg.eigh(numpy.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
        print(repr(time.perf_counter() - start))
        return 0
    sys.path.insert(0, argv[1])
    import corrflux  # noqa: F401  (the import is what is being timed)
    from corrflux import model, twoqubit

    if argv[2] == "example":
        params = twoqubit.ExampleParams(omega_A=1.0, omega_B=1.0, g=0.2, beta_A=0.5, beta_B=1.0, c=0.02)
        t_final = 12.0 / twoqubit.decay_rate(params)
        model.parse_scenario(twoqubit.scenario_document(params, t_final, 1e-3, 1))
    elif argv[2] == "file":
        model.load_scenario(argv[3])
    else:
        print(f"unknown set-up kind {argv[2]!r}", file=sys.stderr)
        return 2
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
