"""Reference work that measures how fast the machine runs while a workload runs.

The benchmark's host may run the same code at different speeds from one
moment to the next: on a shared 2-vCPU VM, Python-bound code ran about 1.7
times slower in its slow stretches and 36 x 36 matrix products about 1.45
times slower, and the two speeds alternated within seconds. A reference
timed before or after a workload's command therefore misses the speed the
command ran at. ``Sampler`` instead interrupts the command every
INTERVAL_S seconds of wall time and times a short fixed snippet there, so
the snippets sample the same moments as the command (see ``run.py``).

There is one snippet per kind of work, because the kinds slow down by
different factors: ``interpreter`` runs Python-level steps over 4 x 4
complex matrices, as the two-qubit integration and ledger do; ``blas``
runs 36 x 36 complex matrix products, as the d = 36 integration does. The
snippets use numpy alone and no code of the package, and they never
change, so their time is a property of the machine, not of the program
under test.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

INTERVAL_S = 0.05
# (matrix side, midpoint steps) per snippet: 0.4 to 0.8 ms each on a 2-vCPU
# x86-64 VM, so the snippets take 1 to 2% of a command's wall time.
SNIPPETS = {"interpreter": (4, 40), "blas": (36, 8)}


def _commutator_steps(gen: np.ndarray, rho: np.ndarray, steps: int) -> float:
    """Midpoint steps of rho' = [gen, rho]; returns the final trace."""
    for _ in range(steps):
        k1 = gen @ rho - rho @ gen
        half = rho + 0.005 * k1
        rho = rho + 0.01 * (gen @ half - half @ gen)
    return float(np.trace(rho).real)


class Sampler:
    """Times the `kind` snippet every INTERVAL_S seconds while sampling() is active."""

    def __init__(self, kind: str):
        n, self.steps = SNIPPETS[kind]
        rng = np.random.default_rng(n)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        self.gen = 0.5 * (m - m.conj().T) / n
        w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho = w @ w.conj().T
        self.rho = rho / np.trace(rho).real
        self.samples: list[float] = []
        self._tick(signal.SIGALRM, None)  # first call outside any timed window

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        _commutator_steps(self.gen, self.rho, self.steps)
        self.samples.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def sampling(self):
        """Yield a fresh list that collects the snippet times taken inside the block.

        The handler runs in the main thread between bytecodes, so a long C
        call delays a sample rather than being cut short.
        """
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self.samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
