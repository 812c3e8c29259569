"""Tests for system descriptions, thermal channels and the scenario schema."""

import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from corrflux.linalg import SIGMA_Z, BipartiteShape, ShapeError, kron
from corrflux.model import (
    BipartiteSystem,
    DegenerateSpectrumError,
    JumpChannel,
    ThermalBathSpec,
    ValidationError,
    build_thermal_channels,
    gibbs_state,
    load_scenario,
    matrix_from_json,
    matrix_to_json,
    parse_scenario,
    require_density_matrix,
    total_hamiltonian,
)

from helpers import SIGMA_X, detailed_balance_residual, nondegenerate_hermitian

RAISE = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0| in the computational basis
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)


def example_document(c=0.02, t_final=1.0, dt=1e-2, record_every=1, g=0.2):
    """Two-qubit scenario with thermal baths at beta_A = 0.5, beta_B = 1.0."""
    return {
        "shape": {"dA": 2, "dB": 2},
        "H_A": matrix_to_json(SIGMA_Z),
        "H_B": matrix_to_json(SIGMA_Z),
        "V": {"pattern": "zz", "g": g},
        "baths": [
            {"side": "A", "beta": 0.5, "base_rates": [{"from": 1, "to": 0, "rate": float(np.exp(0.5))}]},
            {"side": "B", "beta": 1.0, "base_rates": [{"from": 1, "to": 0, "rate": float(np.exp(1.0))}]},
        ],
        "initial_state": {"preset": "thermal_plus_zz", "c": c},
        "integration": {"t_final": t_final, "dt": dt, "record_every": record_every},
    }


def test_jump_channel_validation():
    op = np.eye(2, dtype=complex)
    with pytest.raises(ValidationError):
        JumpChannel(op, -0.5, "A", "bad rate")
    with pytest.raises(ValidationError):
        JumpChannel(op, 1.0, "C", "bad side")
    with pytest.raises(ShapeError):
        JumpChannel(np.ones((2, 3), dtype=complex), 1.0, "A", "bad shape")
    ch = JumpChannel(op, 1.0, "A", "ok")
    assert not ch.operator.flags.writeable


def test_system_validation():
    shape = BipartiteShape(2, 2)
    good = dict(
        shape=shape,
        H_A=SIGMA_Z,
        H_B=SIGMA_Z,
        V=0.1 * kron(SIGMA_Z, SIGMA_Z),
    )
    system = BipartiteSystem(**good)
    assert system.alpha_A == 0.5
    assert system.alpha_B == 0.5
    assert BipartiteSystem(**{**good, "alpha_A": 0.2}).alpha_B == pytest.approx(0.8, abs=1e-15)

    with pytest.raises(ValidationError):
        BipartiteSystem(**{**good, "H_A": np.array([[0, 1], [0, 0]], dtype=complex)})
    with pytest.raises(ShapeError):
        BipartiteSystem(**{**good, "V": SIGMA_Z})
    with pytest.raises(ValidationError):
        BipartiteSystem(**{**good, "alpha_A": 1.5})
    with pytest.raises(ShapeError, match="d_A = 2"):
        BipartiteSystem(**good, channels=(JumpChannel(np.eye(4, dtype=complex), 1.0, "A", "joint"),))
    lopsided = {**good, "shape": BipartiteShape(2, 3), "H_B": np.diag([1.0, 0.0, -1.0]), "V": np.zeros((6, 6))}
    BipartiteSystem(**lopsided, channels=(JumpChannel(np.eye(3, dtype=complex), 1.0, "B", "B:ok"),))
    with pytest.raises(ShapeError, match="d_A = 2"):
        BipartiteSystem(**lopsided, channels=(JumpChannel(np.eye(3, dtype=complex), 1.0, "A", "B-sized"),))


def _with_nan(m, i=0, j=1):
    bad = np.array(m, dtype=complex)
    bad[i, j] = np.nan
    return bad


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: BipartiteSystem(BipartiteShape(2, 2), _with_nan(SIGMA_Z), SIGMA_Z, kron(SIGMA_Z, SIGMA_Z)), "H_A"),
        (lambda: JumpChannel(_with_nan(np.eye(2)), 1.0, "A", "A:nan"), "jump operator 'A:nan'"),
        (lambda: require_density_matrix(_with_nan(0.5 * np.eye(2), 0, 0), "rho0"), "rho0"),
    ],
    ids=["system", "jump_channel", "density_matrix"],
)
def test_non_finite_matrices_are_rejected(build, match):
    # NaN compares false against every tolerance, so only a finiteness check catches it.
    with pytest.raises(ValidationError, match=f"{match} has non-finite entries"):
        build()


def test_system_defensive_copies():
    H_A = np.array(SIGMA_Z)
    system = BipartiteSystem(
        shape=BipartiteShape(2, 2), H_A=H_A, H_B=SIGMA_Z, V=np.zeros((4, 4), dtype=complex)
    )
    H_A[0, 0] = 5.0
    assert system.H_A[0, 0] == 1.0
    assert not system.H_A.flags.writeable


def test_total_hamiltonian_diagonal_example():
    system = BipartiteSystem(
        shape=BipartiteShape(2, 2),
        H_A=SIGMA_Z,
        H_B=SIGMA_Z,
        V=0.5 * kron(SIGMA_Z, SIGMA_Z),
    )
    expected = np.diag([2.5, -0.5, -0.5, -1.5]).astype(complex)
    assert np.max(np.abs(total_hamiltonian(system) - expected)) <= 1e-15


def test_thermal_bath_spec_validation():
    with pytest.raises(ValidationError):
        ThermalBathSpec(beta=-1.0, base_rates={})
    with pytest.raises(ValidationError):
        ThermalBathSpec(beta=1.0, base_rates={(0, 0): 1.0})
    with pytest.raises(ValidationError):
        ThermalBathSpec(beta=1.0, base_rates={(0, 1): 1.0, (1, 0): 2.0})
    with pytest.raises(ValidationError):
        ThermalBathSpec(beta=1.0, base_rates={(0, 1): -1.0})


def test_build_thermal_channels_qubit_rates():
    # Stored jump: level 1 -> level 0 at rate e (levels in ascending eigenvalue
    # order, so level 0 is the sigma_z eigenvector with eigenvalue -1, i.e.
    # basis |1>). The derived partner rate is e * exp(-beta * 2) = 1/e.
    shape = BipartiteShape(2, 1)
    bath = ThermalBathSpec(beta=1.0, base_rates={(1, 0): float(np.e)})
    channels = build_thermal_channels(SIGMA_Z, bath, "A", shape)
    assert len(channels) == 2
    by_label = {ch.label: ch for ch in channels}
    stored = by_label["A:0<-1"]
    derived = by_label["A:1<-0"]
    assert stored.rate == pytest.approx(float(np.e), rel=1e-15)
    assert derived.rate == pytest.approx(0.36787944117144233, rel=1e-12)
    assert np.max(np.abs(np.abs(stored.operator) - np.abs(RAISE))) <= 1e-12
    assert np.max(np.abs(np.abs(derived.operator) - np.abs(LOWER))) <= 1e-12
    for ch in channels:
        assert ch.bath_tag == "A"


def test_build_thermal_channels_rate_ratio_property():
    rng = np.random.default_rng(21)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        side = "A" if rng.uniform() < 0.5 else "B"
        shape = BipartiteShape(d, 2) if side == "A" else BipartiteShape(2, d)
        H = nondegenerate_hermitian(rng, d)
        beta = float(rng.uniform(0.0, 2.0))
        base = {}
        for i in range(d):
            for j in range(i + 1, d):
                if rng.uniform() < 0.7:
                    base[(i, j) if rng.uniform() < 0.5 else (j, i)] = float(rng.uniform(0.1, 1.0))
        if not base:
            base[(0, 1)] = 1.0
        channels = build_thermal_channels(H, ThermalBathSpec(beta, base), side, shape)
        assert len(channels) == 2 * len(base)
        assert detailed_balance_residual(channels, H, beta, side, shape) <= 1e-12
        energies = np.linalg.eigvalsh(H)
        rates = {}
        for ch in channels:
            tag, arrow = ch.label.split(":")
            dst, src = (int(x) for x in arrow.split("<-"))
            rates[(dst, src)] = ch.rate
        for (m, n), gamma in rates.items():
            expected = rates[(n, m)] * np.exp(-beta * (energies[m] - energies[n]))
            assert abs(gamma - expected) <= 1e-12 * max(1.0, gamma)


def test_build_thermal_channels_at_a_huge_beta():
    shape = BipartiteShape(2, 1)
    # Stored downward jump: beta * dE overflows to -inf, and the reverse rate is 0.
    channels = build_thermal_channels(SIGMA_Z, ThermalBathSpec(1e308, {(1, 0): 1.0}), "A", shape)
    assert [ch.rate for ch in channels] == [1.0, 0.0]
    # Stored upward jump: the reverse rate exp(beta * dE) is not finite.
    for beta, shown in ((400.0, "800"), (1e308, "inf")):
        with pytest.raises(ValidationError, match=rf"side A: .* beta\*dE = {shown}$"):
            build_thermal_channels(SIGMA_Z, ThermalBathSpec(beta, {(0, 1): 1.0}), "A", shape)


def test_build_thermal_channels_rejects_a_spectrum_whose_spread_overflows():
    # Levels (-1e308, 0, 1e308): the neighbouring gaps are finite, the spread is not.
    bath = ThermalBathSpec(beta=1.0, base_rates={(1, 0): 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^side B: the local spectrum spans inf"):
            build_thermal_channels(np.diag([-1e308, 0.0, 1e308]), bath, "B", BipartiteShape(1, 3))
        with pytest.raises(ValidationError, match="^side A: the local spectrum spans inf"):
            build_thermal_channels(1e308 * SIGMA_Z, bath, "A", BipartiteShape(2, 1))


def test_build_thermal_channels_degenerate_spectrum():
    shape = BipartiteShape(2, 1)
    bath = ThermalBathSpec(beta=1.0, base_rates={(1, 0): 1.0})
    with pytest.raises(DegenerateSpectrumError):
        build_thermal_channels(np.eye(2, dtype=complex), bath, "A", shape)
    with pytest.raises(DegenerateSpectrumError):
        build_thermal_channels(np.diag([0.0, 5e-10]).astype(complex), bath, "A", shape)


def test_build_thermal_channels_level_out_of_range():
    shape = BipartiteShape(2, 1)
    bath = ThermalBathSpec(beta=1.0, base_rates={(0, 5): 1.0})
    with pytest.raises(ValidationError):
        build_thermal_channels(SIGMA_Z, bath, "A", shape)


def test_detailed_balance_residual_flags_violations():
    shape = BipartiteShape(2, 1)
    bath = ThermalBathSpec(beta=1.0, base_rates={(1, 0): float(np.e)})
    good = build_thermal_channels(SIGMA_Z, bath, "A", shape)
    assert detailed_balance_residual(good, SIGMA_Z, 1.0, "A", shape) <= 1e-13

    tampered = [good[0], JumpChannel(good[1].operator, good[1].rate * 2.0, "A", "x")]
    assert detailed_balance_residual(tampered, SIGMA_Z, 1.0, "A", shape) > 0.3

    with pytest.raises(ValidationError):
        detailed_balance_residual([good[0]], SIGMA_Z, 1.0, "A", shape)
    scaled = [JumpChannel(0.5 * good[0].operator, 1.0, "A", "s"), good[1]]
    with pytest.raises(ValidationError):
        detailed_balance_residual(scaled, SIGMA_Z, 1.0, "A", shape)
    diag_op = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValidationError):
        detailed_balance_residual([JumpChannel(diag_op, 1.0, "A", "d")], SIGMA_Z, 1.0, "A", shape)


def test_detailed_balance_residual_rejects_wrong_side_or_dimension():
    shape = BipartiteShape(2, 2)
    wrong_side = JumpChannel(RAISE, 1.0, "B", "B-tagged")
    with pytest.raises(ValidationError, match="'B-tagged' is not a side A operator of dim 2"):
        detailed_balance_residual([wrong_side], SIGMA_Z, 1.0, "A", shape)
    joint = JumpChannel(np.kron(RAISE, SIGMA_X), 1.0, "A", "joint")
    with pytest.raises(ValidationError, match="'joint' is not a side A operator of dim 2"):
        detailed_balance_residual([joint], SIGMA_Z, 1.0, "A", shape)


def test_gibbs_state_sigma_z():
    rho = gibbs_state(SIGMA_Z, 1.0)
    assert rho[0, 0].real == pytest.approx(0.11920292202211756, abs=1e-14)
    assert rho[1, 1].real == pytest.approx(0.8807970779778824, abs=1e-14)
    assert abs(rho[0, 1]) <= 1e-15
    assert abs(np.trace(rho) - 1.0) <= 1e-14


def test_gibbs_state_infinite_temperature():
    rho = gibbs_state(SIGMA_Z, 0.0)
    assert np.max(np.abs(rho - 0.5 * np.eye(2))) <= 1e-15


def test_gibbs_state_sigma_x_basis():
    rho = gibbs_state(SIGMA_X, 1.0)
    # same populations as sigma_z, but in the sigma_x eigenbasis
    vals = np.linalg.eigvalsh(rho)
    assert vals[0] == pytest.approx(0.11920292202211756, abs=1e-12)
    assert np.max(np.abs(rho @ SIGMA_X - SIGMA_X @ rho)) <= 1e-14


def test_gibbs_state_boltzmann_ratio_property():
    rng = np.random.default_rng(22)
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        H = nondegenerate_hermitian(rng, dim)
        beta = float(rng.uniform(0.0, 2.0))
        rho = gibbs_state(H, beta)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert float(np.min(np.linalg.eigvalsh(rho))) >= -1e-14
        energies, vecs = np.linalg.eigh(H)
        pops = np.real(np.diag(vecs.conj().T @ rho @ vecs))
        for i in range(dim - 1):
            expected = pops[i + 1] * np.exp(-beta * (energies[i] - energies[i + 1]))
            assert abs(pops[i] - expected) <= 1e-10 * max(1.0, expected)


def test_require_density_matrix():
    rho = np.diag([0.5, 0.5]).astype(complex)
    out = require_density_matrix(rho, "state")
    assert np.array_equal(out, rho)
    with pytest.raises(ValidationError, match="Hermitian"):
        require_density_matrix(np.array([[0.5, 0.4], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValidationError, match="trace"):
        require_density_matrix(np.eye(2, dtype=complex))
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        require_density_matrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValidationError, match="square"):
        require_density_matrix(np.ones((2, 3)))


def test_matrix_json_round_trip():
    rng = np.random.default_rng(23)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    encoded = matrix_to_json(m)
    assert len(encoded) == 9
    decoded = matrix_from_json(encoded, 3, "m")
    assert np.array_equal(decoded, m)


def test_matrix_from_json_errors():
    with pytest.raises(ValidationError, match="m"):
        matrix_from_json("nope", 2, "m")
    with pytest.raises(ValidationError, match="4 entries"):
        matrix_from_json([[0.0, 0.0]] * 3, 2, "m")
    with pytest.raises(ValidationError, match=r"m\[1\]"):
        matrix_from_json([[0.0, 0.0], [1.0], [0.0, 0.0], [0.0, 0.0]], 2, "m")
    with pytest.raises(ValidationError):
        matrix_from_json([[0.0, 0.0], [True, 0.0], [0.0, 0.0], [0.0, 0.0]], 2, "m")
    # json.load accepts NaN, Infinity and -Infinity, and ints beyond float range
    for entry in ([float("nan"), 0.0], [0.0, float("inf")], [-float("inf"), 0.0], [10**400, 0.0]):
        with pytest.raises(ValidationError, match=r"m\[0\]: expected a finite number"):
            matrix_from_json([entry] + [[0.0, 0.0]] * 3, 2, "m")


def _entrywise_matrix_from_json(value, dim):
    """The decoder as one complex() per entry: the reference for the one-pass decode."""
    flat = np.empty(dim * dim, dtype=complex)
    for i, (re, im) in enumerate(value):
        flat[i] = complex(re, im)
    return flat.reshape(dim, dim)


def _wide_scenario(seed):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.wide_scenario(seed)


def test_matrix_from_json_equals_the_entrywise_decoder_on_the_wide_scenario():
    document = _wide_scenario(1)
    for key in ("V", "initial_state"):
        decoded = matrix_from_json(document[key], 36, key)
        expected = _entrywise_matrix_from_json(document[key], 36)
        assert np.array_equal(decoded.view(np.int64), expected.view(np.int64))
    # ints, tuples, signed zeros and subnormals decode bit for bit as well
    odd = [(1, -2), [0.0, -0.0], [-0.0, 5e-324], [2**64 + 1, -(10**300)]]
    decoded = matrix_from_json(odd, 2, "m")
    assert np.array_equal(decoded.view(np.int64), _entrywise_matrix_from_json(odd, 2).view(np.int64))


@pytest.mark.parametrize(
    "bad, index, later, message",
    [
        (["1.5", 0.0], 5, [float("nan"), 0.0], r"m\[5\]: expected an \[re, im\] pair of numbers"),
        ([0.0, True], 7, [float("inf"), 0.0], r"m\[7\]: expected an \[re, im\] pair of numbers"),
        ([10**400, 0.0], 3, ["x", 0.0], r"m\[3\]: expected a finite number"),
    ],
)
def test_matrix_from_json_names_the_first_bad_entry(bad, index, later, message):
    value = [[0.5, -0.5]] * 9
    value[index] = bad
    with pytest.raises(ValidationError, match=message):
        matrix_from_json(value, 3, "m")
    # A fault of the other kind further on does not take its place.
    value[8] = later
    with pytest.raises(ValidationError, match=message):
        matrix_from_json(value, 3, "m")


def test_parse_scenario_round_trip():
    doc = example_document()
    scenario = parse_scenario(doc)
    assert scenario.system.shape == BipartiteShape(2, 2)
    assert np.max(np.abs(scenario.system.H_A - SIGMA_Z)) == 0.0
    assert np.max(np.abs(scenario.system.V - 0.2 * kron(SIGMA_Z, SIGMA_Z))) <= 1e-15
    assert scenario.system.alpha_A == 0.5
    assert scenario.t_final == 1.0
    assert scenario.dt == 1e-2
    assert scenario.record_every == 1

    rates = sorted(ch.rate for ch in scenario.system.channels)
    expected = sorted([np.exp(-1.0), np.exp(-0.5), np.exp(0.5), np.exp(1.0)])
    assert np.max(np.abs(np.array(rates) - np.array(expected))) <= 1e-12

    pi_A = gibbs_state(SIGMA_Z, 0.5)
    pi_B = gibbs_state(SIGMA_Z, 1.0)
    expected_rho = kron(pi_A, pi_B) + 0.02 * kron(SIGMA_Z, SIGMA_Z)
    assert np.max(np.abs(scenario.initial_state - expected_rho)) <= 1e-14


def test_parse_scenario_matrix_interaction_matches_pattern():
    doc = example_document()
    doc["V"] = matrix_to_json(0.2 * kron(SIGMA_Z, SIGMA_Z))
    scenario = parse_scenario(doc)
    assert np.max(np.abs(scenario.system.V - 0.2 * kron(SIGMA_Z, SIGMA_Z))) <= 1e-15


def test_parse_scenario_explicit_initial_matrix():
    doc = example_document()
    doc["initial_state"] = matrix_to_json(np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex))
    scenario = parse_scenario(doc)
    assert scenario.initial_state[0, 0] == 0.4

    doc["initial_state"] = matrix_to_json(np.eye(4, dtype=complex))
    with pytest.raises(ValidationError, match="trace"):
        parse_scenario(doc)


def test_parse_scenario_rejects_a_huge_anti_hermitian_initial_state_without_warnings():
    # Finite entries whose Hermiticity residual, 2e308, overflows the float range.
    rho = 0.25 * np.eye(4, dtype=complex)
    rho[0, 1], rho[1, 0] = 1e308, -1e308
    doc = example_document()
    doc["initial_state"] = matrix_to_json(rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="not Hermitian: residual inf"):
            parse_scenario(doc)


def test_parse_scenario_explicit_channels():
    doc = {
        "shape": {"dA": 2, "dB": 2},
        "H_A": matrix_to_json(SIGMA_Z),
        "H_B": matrix_to_json(SIGMA_Z),
        "V": matrix_to_json(np.diag([0.3, -0.1, 0.2, 0.0]).astype(complex)),
        "channels": [
            {"side": "A", "rate": 0.5, "operator": matrix_to_json(SIGMA_Z), "label": "A:dephase"},
            {"side": "B", "rate": 0.25, "operator": matrix_to_json(SIGMA_Z)},
        ],
        "initial_state": matrix_to_json(np.diag([0.25] * 4).astype(complex)),
        "integration": {"t_final": 0.1, "dt": 0.01},
    }
    scenario = parse_scenario(doc)
    assert len(scenario.system.channels) == 2
    ch_A, ch_B = scenario.system.channels
    assert ch_A.label == "A:dephase"
    assert ch_A.rate == 0.5
    assert np.array_equal(ch_A.operator, SIGMA_Z)
    assert np.array_equal(ch_B.operator, SIGMA_Z)
    assert ch_B.bath_tag == "B"
    assert ch_B.label == "B:channel1"
    assert scenario.record_every == 1


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda d: d.pop("H_A"), "H_A"),
        (lambda d: d.pop("shape"), "shape"),
        (lambda d: d.pop("initial_state"), "initial_state"),
        (lambda d: d.pop("integration"), "integration"),
        (lambda d: d["shape"].update(dA=0), "shape"),
        (lambda d: d["shape"].update(dA=2.5), "shape.dA"),
        (lambda d: d.update(V={"pattern": "xx", "g": 1.0}), "pattern"),
        (lambda d: d.update(V=[[0.0, 0.0]] * 3), "16 entries"),
        (lambda d: d["integration"].update(dt=0.0), "dt"),
        (lambda d: d["integration"].update(dt=-0.1), "dt"),
        (lambda d: d["integration"].update(t_final=-1.0), "t_final"),
        (lambda d: d["integration"].update(record_every=0), "record_every"),
        (lambda d: d["integration"].update(record_every=True), "record_every"),
        (lambda d: d["baths"][0].update(side="C"), r"baths\[0\].side"),
        (lambda d: d["baths"][0].pop("beta"), "beta"),
        (lambda d: d["baths"][0]["base_rates"][0].update({"from": 1.5}), "from"),
        (lambda d: d["initial_state"].update(c=0.2), "positivity range"),
        (lambda d: d["initial_state"].update(preset="bogus"), "preset"),
        (lambda d: d["V"].update(g=float("nan")), "V.g: expected a finite number"),
        (lambda d: d.update(H_A=[[float("inf"), 0.0]] + d["H_A"][1:]), r"H_A\[0\]: expected a finite number"),
        (lambda d: d["integration"].update(t_final=float("inf")), "integration.t_final: expected a finite number"),
        (
            lambda d: d["baths"][0]["base_rates"][0].update(rate=-float("inf")),
            r"baths\[0\].base_rates\[0\].rate: expected a finite number",
        ),
        (lambda d: d["baths"][1].update(beta=float("nan")), r"baths\[1\].beta: expected a finite number"),
        (lambda d: d.update(alpha_A=float("nan")), "scenario.alpha_A: expected a finite number"),
        (lambda d: d["shape"].update(dB=0), "shape.dB: expected a positive integer"),
        (
            lambda d: d.update(H_A=matrix_to_json([[1.0, 0.0], [1.0, -1.0]])),
            "local Hamiltonian for side A is not Hermitian",
        ),
    ],
)
def test_parse_scenario_errors(mutate, match):
    doc = example_document()
    mutate(doc)
    with pytest.raises(ValidationError, match=match):
        parse_scenario(doc)


def test_parse_scenario_zz_pattern_needs_qubits():
    doc = example_document()
    doc["shape"] = {"dA": 3, "dB": 2}
    doc["H_A"] = matrix_to_json(np.diag([-1.0, 0.0, 1.0]))
    with pytest.raises(ValidationError, match="two-qubit"):
        parse_scenario(doc)


def test_parse_scenario_preset_needs_one_bath_per_side():
    doc = example_document()
    doc["baths"].append(
        {"side": "A", "beta": 0.1, "base_rates": [{"from": 1, "to": 0, "rate": 1.0}]}
    )
    with pytest.raises(ValidationError, match="exactly one bath"):
        parse_scenario(doc)


def test_parse_scenario_preset_needs_diagonal_hamiltonians():
    doc = example_document()
    doc["H_A"] = matrix_to_json(SIGMA_X)
    with pytest.raises(ValidationError, match="diagonal"):
        parse_scenario(doc)


def test_parse_scenario_duplicate_base_rate_pair():
    doc = example_document()
    doc["baths"][0]["base_rates"].append({"from": 1, "to": 0, "rate": 2.0})
    with pytest.raises(ValidationError, match="duplicate"):
        parse_scenario(doc)


def test_load_scenario(tmp_path):
    import json

    path = tmp_path / "scn.json"
    path.write_text(json.dumps(example_document()), encoding="utf-8")
    scenario = load_scenario(path)
    assert scenario.t_final == 1.0

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_scenario(bad)
