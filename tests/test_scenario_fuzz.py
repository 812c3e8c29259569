"""Property tests: a malformed scenario document fails only with the package's input
error, in the library and through every command of the command line."""

import contextlib
import copy
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrflux import cli
from corrflux.linalg import SIGMA_Z
from corrflux.model import ValidationError, matrix_to_json, parse_scenario
from corrflux.twoqubit import ExampleParams, scenario_document

# A short horizon: ten steps.
EXAMPLE = scenario_document(
    ExampleParams(omega_A=1.0, omega_B=1.0, g=0.2, beta_A=0.5, beta_B=1.0, c=0.02),
    t_final=0.1,
    dt=1e-2,
)


def _channel(side, dim):
    return [{"side": side, "rate": 1.0, "operator": matrix_to_json(np.diag(np.arange(dim)))}]


def _paths(*dotted):
    return [tuple(int(key) if key.isdigit() else key for key in path.split(".")) for path in dotted]


SCALARS = [float("nan"), float("inf"), 1e308, -1e308, 5e-324, -1.0, 0, True, "text", None]
MATRICES = [
    matrix_to_json(np.eye(3)),
    matrix_to_json(1e308 * np.ones((2, 2))),
    matrix_to_json(1e308 * np.ones((4, 4))),
    matrix_to_json(1e308 * np.diag([1, -1])),
    [[float("nan"), 0.0]] * 4,
    [["1", 0.0]] * 4,
    [[1.0, 0.0]],
    "text",
    {},
]
# 0.25 I plus 1e308 at (0, 1) and -1e308 at (1, 0): finite, but m - m† overflows.
HUGE_ANTI_HERMITIAN_PAIR = matrix_to_json(0.25 * np.eye(4) + 1e308 * np.pad([[0, 1], [-1, 0]], (0, 2)))
STRUCTURES = [None, [], {}, "text", 3]
# A valid explicit channel, channels of the wrong size for their side, and a bad side.
CHANNELS = [_channel("A", 2), _channel("B", 3), _channel("A", 4), _channel("C", 2)]

MUTATIONS = (
    [
        (path, value)
        for path in _paths(
            "shape.dA", "V.g", "alpha_A", "baths.0.side", "baths.0.beta", "baths.1.base_rates.0.from",
            "baths.1.base_rates.0.rate", "initial_state.c", "integration.t_final", "integration.dt",
            "integration.record_every",
        )
        for value in SCALARS
    ]
    + [(path, value) for path in _paths("H_A", "H_B", "V", "initial_state") for value in MATRICES]
    + [
        (path, value)
        for path in _paths("shape", "baths", "baths.0", "baths.1.base_rates", "channels", "integration")
        for value in STRUCTURES
    ]
    + [(("channels",), value) for value in CHANNELS]
)


def _mutated(mutations):
    """The example document with each value set at its path; an earlier
    mutation can make a later path unreachable, and that one is skipped."""
    document = copy.deepcopy(EXAMPLE)
    for path, value in mutations:
        try:
            parent = document
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass
    return document


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3))
# beta * dE overflows, and an anti-Hermitian pair overflows the Hermiticity residual;
# the derandomized draws never produce these documents.
@example([(("baths", 0, "beta"), 1e308)])
@example([(("initial_state",), HUGE_ANTI_HERMITIAN_PAIR)])
def test_parse_scenario_lets_only_input_errors_escape(mutations):
    try:
        parse_scenario(_mutated(mutations))
    except ValidationError:
        pass


def _reject_constant(name):
    raise AssertionError(f"{name} is not JSON")


def _commands(scenario, workdir):
    """run, check-conditions and a two-point sweep of c, each with its own outputs."""
    return [
        ["run", scenario, "--output", os.path.join(workdir, "run.csv")],
        ["check-conditions", scenario, "--samples", "3"],
        ["sweep", scenario, "--param", "c", "--min", "0", "--max", "0.01", "--steps", "2",
         "--output-dir", os.path.join(workdir, "sweep")],
    ]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3))
# Overflowing couplings: check-conditions passed condition (i) and printed NaN for
# both, and at t_final = 0 run let numpy warn about the ledger of a finite state.
@example([(("V", "g"), 1e308)])
@example([(("V",), MATRICES[2])])
@example([(("V", "g"), 1e308), (("integration", "t_final"), 0)])
# Two side-A rates of 1e308: the generator's channel sums overflow.
@example([(("channels",), [{"side": "A", "rate": 1e308, "operator": matrix_to_json(SIGMA_Z)}] * 2)])
def test_cli_exits_with_a_status_and_no_numpy_warning(mutations):
    """Each command returns 0, 1 or 2, lets no exception escape, raises no
    RuntimeWarning, and prints only strict JSON."""
    with tempfile.TemporaryDirectory() as workdir:
        scenario = os.path.join(workdir, "scenario.json")
        with open(scenario, "w", encoding="utf-8") as fh:
            json.dump(_mutated(mutations), fh)
        for argv in _commands(scenario, workdir):
            stdout = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("ignore")
                warnings.simplefilter("error", RuntimeWarning)
                status = cli.main(argv)
            assert status in (0, 1, 2), argv
            if argv[0] == "check-conditions" and status == 0:
                json.loads(stdout.getvalue(), parse_constant=_reject_constant)
