"""Bipartite open-system descriptions.

A system is H = H_A (x) I + I (x) H_B + V together with a list of jump
channels, each an operator on one side's factor. Thermal channels between
eigenlevels m, n of a local Hamiltonian obey detailed balance,

    gamma_mn = gamma_nm * exp(-beta (E_m - E_n)),

where gamma_mn is the rate of L_mn = |m><n| (a jump n -> m). The builder
stores one free rate per level pair and derives the partner, so detailed
balance holds by construction.

This module also defines the JSON scenario schema consumed by the command
line front end.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    BipartiteShape,
    HermiticityError,
    ShapeError,
    SIGMA_Z,
    dagger,
    embed_A,
    embed_B,
    hermitian_eig,
    kron,
    require_hermitian,
    state_diagnostics,
)

__all__ = [
    "ValidationError",
    "DegenerateSpectrumError",
    "JumpChannel",
    "BipartiteSystem",
    "ThermalBathSpec",
    "total_hamiltonian",
    "build_thermal_channels",
    "gibbs_state",
    "require_density_matrix",
    "zz_positivity_window",
    "thermal_plus_zz",
    "Scenario",
    "matrix_from_json",
    "matrix_to_json",
    "parse_scenario",
    "load_scenario",
]

# Minimum eigenvalue gap below which a local spectrum counts as degenerate
# and thermal level labeling is ill-defined.
DEGENERACY_GAP = 1e-9

HERMITICITY_TOL = 1e-12

# require_density_matrix's bounds: Hermiticity residual, |Tr rho - 1|, least eigenvalue.
STATE_HERMITICITY_TOL, STATE_TRACE_TOL, STATE_EIG_FLOOR = 1e-10, 1e-8, -1e-10


class ValidationError(ValueError):
    """Input data violates a structural or physical requirement."""


class DegenerateSpectrumError(ValidationError):
    """A local Hamiltonian has (near-)degenerate eigenvalues."""


def _finite_matrix(m, name: str) -> np.ndarray:
    """m as a complex array; NaN or infinite entries are a ValidationError naming it."""
    a = np.asarray(m, dtype=complex)
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} has non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class JumpChannel:
    """One GKLS jump channel, local to the side that bath_tag ("A" or "B") names.

    operator is l, a d_side x d_side matrix; only dynamics.Generator lifts it
    to L = l (x) I_B or I_A (x) l. rate is the nonnegative prefactor gamma of
    gamma * (L rho L† - (1/2){L†L, rho}); label is free text such as "A:1<-0".
    """

    operator: np.ndarray
    rate: float
    bath_tag: str
    label: str = ""

    def __post_init__(self):
        op = np.array(_finite_matrix(self.operator, f"jump operator {self.label!r}"))
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ShapeError(f"jump operator must be square, got shape {op.shape}")
        op.setflags(write=False)
        object.__setattr__(self, "operator", op)
        if not np.isfinite(self.rate) or self.rate < 0:
            raise ValidationError(f"channel rate must be nonnegative, got {self.rate}")
        if self.bath_tag not in ("A", "B"):
            raise ValidationError(f"bath_tag must be 'A' or 'B', got {self.bath_tag!r}")


@dataclass(frozen=True, eq=False)
class BipartiteSystem:
    """Closed description of the model: local Hamiltonians, coupling, noise.

    H_A and H_B are bare local Hamiltonians (d_A and d_B dimensional), V is
    the interaction on the joint space, channels hold every local jump operator.
    alpha_A fixes how the scalar mean of V is split between the two local
    energy accounts; alpha_B = 1 - alpha_A. Treat instances as immutable.
    """

    shape: BipartiteShape
    H_A: np.ndarray
    H_B: np.ndarray
    V: np.ndarray
    channels: tuple[JumpChannel, ...] = ()
    alpha_A: float = 0.5

    def __post_init__(self):
        try:
            H_A, H_B, V = (
                require_hermitian(_finite_matrix(getattr(self, name), name), HERMITICITY_TOL, name)
                for name in ("H_A", "H_B", "V")
            )
        except HermiticityError as exc:
            raise ValidationError(str(exc)) from exc
        if H_A.shape[0] != self.shape.d_A:
            raise ShapeError(f"H_A dim {H_A.shape[0]} does not match d_A = {self.shape.d_A}")
        if H_B.shape[0] != self.shape.d_B:
            raise ShapeError(f"H_B dim {H_B.shape[0]} does not match d_B = {self.shape.d_B}")
        if V.shape[0] != self.shape.dim:
            raise ShapeError(f"V dim {V.shape[0]} does not match joint dim {self.shape.dim}")
        for arr, name in ((H_A, "H_A"), (H_B, "H_B"), (V, "V")):
            frozen = np.array(arr)
            frozen.setflags(write=False)
            object.__setattr__(self, name, frozen)
        object.__setattr__(self, "channels", tuple(self.channels))
        for ch in self.channels:
            d_side = self.shape.d_A if ch.bath_tag == "A" else self.shape.d_B
            if ch.operator.shape[0] != d_side:
                raise ShapeError(
                    f"channel {ch.label!r} dim {ch.operator.shape[0]} "
                    f"does not match d_{ch.bath_tag} = {d_side}"
                )
        if not (0.0 <= self.alpha_A <= 1.0):
            raise ValidationError(f"alpha_A must lie in [0, 1], got {self.alpha_A}")

    @property
    def alpha_B(self) -> float:
        return 1.0 - self.alpha_A


def total_hamiltonian(system: BipartiteSystem) -> np.ndarray:
    """H = H_A (x) I + I (x) H_B + V."""
    return (
        embed_A(system.H_A, system.shape)
        + embed_B(system.H_B, system.shape)
        + system.V
    )


@dataclass(frozen=True)
class ThermalBathSpec:
    """Free rates of a detailed-balance bath on one side.

    base_rates maps an ordered eigenlevel pair (from_level, to_level) to the
    rate of the jump from_level -> to_level; levels index the ascending
    eigenvalue order of the local Hamiltonian. Only one member of each
    unordered pair may appear; the partner rate is derived.
    """

    beta: float
    base_rates: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.beta) or self.beta < 0:
            raise ValidationError(f"bath beta must be nonnegative, got {self.beta}")
        for (src, dst), rate in self.base_rates.items():
            if src == dst:
                raise ValidationError(f"base rate {src}->{dst} is not a jump between distinct levels")
            if (dst, src) in self.base_rates:
                raise ValidationError(
                    f"both orientations of level pair ({src}, {dst}) supplied; "
                    "store one and let detailed balance fix the other"
                )
            if not np.isfinite(rate) or rate < 0:
                raise ValidationError(f"base rate {src}->{dst} must be nonnegative, got {rate}")


def build_thermal_channels(
    H_local: np.ndarray,
    bath: ThermalBathSpec,
    bath_tag: str,
    shape: BipartiteShape,
) -> list[JumpChannel]:
    """Assemble detailed-balance jump channels for one side.

    For each stored rate r of the jump f -> t (operator |t><f| between
    eigenvectors of H_local) the builder also emits the reverse jump t -> f
    with rate r * exp(-beta (E_f - E_t)), so every pair satisfies detailed
    balance exactly. The local spectrum must be nondegenerate; operators are
    returned as d_side x d_side matrices on the side's own factor.
    """
    if bath_tag not in ("A", "B"):
        raise ValidationError(f"bath_tag must be 'A' or 'B', got {bath_tag!r}")
    d_local = shape.d_A if bath_tag == "A" else shape.d_B
    try:
        energies, vecs = hermitian_eig(H_local)
    except HermiticityError as exc:
        raise ValidationError(f"local Hamiltonian for side {bath_tag}: {exc}") from exc
    if energies.shape[0] != d_local:
        raise ShapeError(
            f"local Hamiltonian dim {energies.shape[0]} does not match side {bath_tag} dim {d_local}"
        )
    if d_local > 1 and float(np.diff(energies).min()) < DEGENERACY_GAP:
        raise DegenerateSpectrumError(
            f"local spectrum on side {bath_tag} has a gap below {DEGENERACY_GAP:.1e}; "
            "thermal level pairs are ill-defined"
        )
    channels = []
    for (src, dst) in sorted(bath.base_rates):
        rate = bath.base_rates[(src, dst)]
        for level in (src, dst):
            if not (0 <= level < d_local):
                raise ValidationError(
                    f"level index {level} out of range for side {bath_tag} (dim {d_local})"
                )
        jump_fwd = np.outer(vecs[:, dst], vecs[:, src].conj())
        jump_rev = np.outer(vecs[:, src], vecs[:, dst].conj())
        rate_rev = rate * float(np.exp(-bath.beta * (energies[src] - energies[dst])))
        channels.append(
            JumpChannel(jump_fwd, rate, bath_tag, f"{bath_tag}:{dst}<-{src}")
        )
        channels.append(
            JumpChannel(jump_rev, rate_rev, bath_tag, f"{bath_tag}:{src}<-{dst}")
        )
    return channels


def gibbs_state(H: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta H) / Tr[exp(-beta H)], computed in the eigenbasis of H."""
    vals, vecs = hermitian_eig(H)
    shift = vals.min() if beta >= 0 else vals.max()
    weights = np.exp(-beta * (vals - shift))
    weights /= weights.sum()
    return (vecs * weights) @ dagger(vecs)


def require_density_matrix(rho, name: str = "state") -> np.ndarray:
    """Validate finiteness, Hermiticity, unit trace and positivity of a state."""
    a = _finite_matrix(rho, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    trace_drift, resid, min_eig = state_diagnostics(a)
    if resid > STATE_HERMITICITY_TOL:
        raise ValidationError(f"{name} is not Hermitian: residual {resid:.3e}")
    if trace_drift > STATE_TRACE_TOL:
        raise ValidationError(f"{name} trace {np.trace(a):.12g} is not 1 within {STATE_TRACE_TOL:.1e}")
    if min_eig < STATE_EIG_FLOOR:
        raise ValidationError(f"{name} has negative eigenvalue {min_eig:.3e}")
    return a


def zz_positivity_window(pi_A, pi_B) -> tuple[float, float]:
    """Range of c for which pi_A (x) pi_B + c sz (x) sz stays positive.

    pi_A and pi_B are diagonal qubit states with populations p = diag(pi).
    The state's diagonal is (pA0 pB0 + c, pA0 pB1 - c, pA1 pB0 - c, pA1 pB1 + c),
    so positivity holds exactly on
    [-min(pA0 pB0, pA1 pB1), min(pA0 pB1, pA1 pB0)].
    """
    p_A, p_B = np.diag(pi_A).real, np.diag(pi_B).real
    c_min = -min(p_A[0] * p_B[0], p_A[1] * p_B[1])
    c_max = min(p_A[0] * p_B[1], p_A[1] * p_B[0])
    return float(c_min), float(c_max)


def thermal_plus_zz(H_A, H_B, beta_A: float, beta_B: float, c: float, name: str = "c") -> np.ndarray:
    """pi_A (x) pi_B + c sz (x) sz, pi the Gibbs states of diagonal qubit Hamiltonians.

    Raises ValidationError, calling c `name`, when c leaves zz_positivity_window.
    """
    pi_A, pi_B = gibbs_state(H_A, beta_A), gibbs_state(H_B, beta_B)
    c_min, c_max = zz_positivity_window(pi_A, pi_B)
    if not (c_min <= c <= c_max):
        raise ValidationError(f"{name} = {c:.6g} is outside the positivity range [{c_min:.6g}, {c_max:.6g}]")
    return kron(pi_A, pi_B) + c * kron(SIGMA_Z, SIGMA_Z)


# ---------------------------------------------------------------------------
# JSON scenario schema
#
# {
#   "shape": {"dA": int, "dB": int},
#   "H_A": matrix, "H_B": matrix,
#   "V": matrix | {"pattern": "zz", "g": float},
#   "alpha_A": float,                               (optional, default 0.5)
#   "baths": [{"side": "A"|"B", "beta": float,
#              "base_rates": [{"from": int, "to": int, "rate": float}]}],
#   "channels": [{"side": "A"|"B", "rate": float,   (optional, explicit jumps)
#                 "operator": matrix, "label": str}],
#   "initial_state": matrix | {"preset": "thermal_plus_zz", "c": float},
#   "integration": {"t_final": float, "dt": float, "record_every": int}
# }
#
# A matrix is a row-major list of [re, im] pairs of length dim^2.
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Scenario:
    """A parsed scenario: the system, the initial state and run settings."""

    system: BipartiteSystem
    initial_state: np.ndarray
    t_final: float
    dt: float
    record_every: int


def matrix_from_json(value, dim: int, where: str) -> np.ndarray:
    """Decode a row-major list of [re, im] pairs into a dim x dim matrix."""
    if not isinstance(value, list):
        raise ValidationError(f"{where}: expected a list of [re, im] pairs")
    if len(value) != dim * dim:
        raise ValidationError(f"{where}: expected {dim * dim} entries for a {dim}x{dim} matrix, got {len(value)}")
    flat = np.empty(dim * dim, dtype=complex)
    for i, entry in enumerate(value):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
        ):
            raise ValidationError(f"{where}[{i}]: expected an [re, im] pair of numbers")
        try:
            number = complex(entry[0], entry[1])
        except OverflowError:
            number = complex(math.inf)
        if not (math.isfinite(number.real) and math.isfinite(number.imag)):
            raise ValidationError(f"{where}[{i}]: expected a finite number, got {entry!r}")
        flat[i] = number
    return flat.reshape(dim, dim)


def matrix_to_json(m) -> list:
    a = np.asarray(m, dtype=complex).reshape(-1)
    return [[float(x.real), float(x.imag)] for x in a]


def _finite(value, where: str) -> float:
    """float(value) for a finite int or float; json.load also admits NaN and +-Infinity."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{where}: expected a finite number, got {value!r}")
    return number


def _require_number(doc: dict, key: str, where: str, default=None) -> float:
    if key not in doc:
        if default is not None:
            return default
        raise ValidationError(f"{where}: missing required field {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}.{key}: expected a number, got {value!r}")
    return _finite(value, f"{where}.{key}")


def _parse_interaction(raw, shape: BipartiteShape) -> np.ndarray:
    if isinstance(raw, dict):
        pattern = raw.get("pattern")
        if pattern != "zz":
            raise ValidationError(f"V.pattern: unknown pattern {pattern!r} (only 'zz' is defined)")
        if (shape.d_A, shape.d_B) != (2, 2):
            raise ValidationError("V.pattern 'zz' requires a two-qubit shape (dA = dB = 2)")
        g = _require_number(raw, "g", "V")
        return g * kron(SIGMA_Z, SIGMA_Z)
    return matrix_from_json(raw, shape.dim, "V")


def _parse_baths(doc: dict, H_A, H_B, shape: BipartiteShape):
    """The detailed-balance channels of every bath, and the betas of each side's baths."""
    channels: list[JumpChannel] = []
    betas: dict[str, list[float]] = {"A": [], "B": []}
    raw_baths = doc.get("baths", [])
    if not isinstance(raw_baths, list):
        raise ValidationError("baths: expected a list")
    for i, raw in enumerate(raw_baths):
        where = f"baths[{i}]"
        if not isinstance(raw, dict):
            raise ValidationError(f"{where}: expected an object")
        side = raw.get("side")
        if side not in ("A", "B"):
            raise ValidationError(f"{where}.side: expected 'A' or 'B', got {side!r}")
        beta = _require_number(raw, "beta", where)
        raw_rates = raw.get("base_rates", [])
        if not isinstance(raw_rates, list):
            raise ValidationError(f"{where}.base_rates: expected a list")
        base_rates: dict[tuple[int, int], float] = {}
        for j, entry in enumerate(raw_rates):
            ewhere = f"{where}.base_rates[{j}]"
            if not isinstance(entry, dict):
                raise ValidationError(f"{ewhere}: expected an object")
            for key in ("from", "to"):
                if not isinstance(entry.get(key), int) or isinstance(entry.get(key), bool):
                    raise ValidationError(f"{ewhere}.{key}: expected an integer level index")
            pair = (entry["from"], entry["to"])
            if pair in base_rates:
                raise ValidationError(f"{ewhere}: duplicate level pair {pair}")
            base_rates[pair] = _require_number(entry, "rate", ewhere)
        H_local = H_A if side == "A" else H_B
        spec = ThermalBathSpec(beta=beta, base_rates=base_rates)
        channels.extend(build_thermal_channels(H_local, spec, side, shape))
        betas[side].append(beta)
    return channels, betas


def _parse_explicit_channels(doc: dict, shape: BipartiteShape) -> list[JumpChannel]:
    channels: list[JumpChannel] = []
    raw_channels = doc.get("channels", [])
    if not isinstance(raw_channels, list):
        raise ValidationError("channels: expected a list")
    for i, raw in enumerate(raw_channels):
        where = f"channels[{i}]"
        if not isinstance(raw, dict):
            raise ValidationError(f"{where}: expected an object")
        side = raw.get("side")
        if side not in ("A", "B"):
            raise ValidationError(f"{where}.side: expected 'A' or 'B', got {side!r}")
        rate = _require_number(raw, "rate", where)
        d_local = shape.d_A if side == "A" else shape.d_B
        op = matrix_from_json(raw.get("operator"), d_local, f"{where}.operator")
        label = raw.get("label", f"{side}:channel{i}")
        if not isinstance(label, str):
            raise ValidationError(f"{where}.label: expected a string")
        channels.append(JumpChannel(op, rate, side, label))
    return channels


def _parse_initial_state(doc: dict, H_A, H_B, shape: BipartiteShape, betas: dict) -> np.ndarray:
    raw = doc.get("initial_state")
    if raw is None:
        raise ValidationError("missing required field 'initial_state'")
    if isinstance(raw, dict):
        preset = raw.get("preset")
        if preset != "thermal_plus_zz":
            raise ValidationError(f"initial_state.preset: unknown preset {preset!r}")
        if (shape.d_A, shape.d_B) != (2, 2):
            raise ValidationError("preset 'thermal_plus_zz' requires a two-qubit shape")
        for H, name in ((H_A, "H_A"), (H_B, "H_B")):
            off = np.abs(H - np.diag(np.diag(H))).max()
            if off > 1e-12:
                raise ValidationError(f"preset 'thermal_plus_zz' requires diagonal {name}")
        c = _require_number(raw, "c", "initial_state")
        for side in "AB":
            if len(betas[side]) != 1:
                raise ValidationError(
                    f"initial_state preset needs exactly one bath on side {side} to fix its temperature"
                )
        return thermal_plus_zz(H_A, H_B, betas["A"][0], betas["B"][0], c, "initial_state.c")
    state = matrix_from_json(raw, shape.dim, "initial_state")
    return require_density_matrix(state, "initial_state")


def parse_scenario(document: dict) -> Scenario:
    """Build a Scenario from a decoded JSON document.

    Raises ValidationError (with a field path in the message) on any
    structural or physical defect.
    """
    if not isinstance(document, dict):
        raise ValidationError("scenario: expected a JSON object at top level")
    raw_shape = document.get("shape")
    if not isinstance(raw_shape, dict):
        raise ValidationError("shape: expected an object with dA and dB")
    for key in ("dA", "dB"):
        if not isinstance(raw_shape.get(key), int) or isinstance(raw_shape.get(key), bool):
            raise ValidationError(f"shape.{key}: expected a positive integer")
    try:
        shape = BipartiteShape(raw_shape["dA"], raw_shape["dB"])
    except ShapeError as exc:
        raise ValidationError(f"shape: {exc}") from exc

    if "H_A" not in document or "H_B" not in document or "V" not in document:
        raise ValidationError("scenario: H_A, H_B and V are required")
    H_A = matrix_from_json(document["H_A"], shape.d_A, "H_A")
    H_B = matrix_from_json(document["H_B"], shape.d_B, "H_B")
    V = _parse_interaction(document["V"], shape)
    alpha_A = _require_number(document, "alpha_A", "scenario", default=0.5)

    channels, betas = _parse_baths(document, H_A, H_B, shape)
    channels.extend(_parse_explicit_channels(document, shape))

    system = BipartiteSystem(shape=shape, H_A=H_A, H_B=H_B, V=V, channels=tuple(channels), alpha_A=alpha_A)

    initial_state = _parse_initial_state(document, H_A, H_B, shape, betas)

    raw_int = document.get("integration")
    if not isinstance(raw_int, dict):
        raise ValidationError("integration: expected an object with t_final and dt")
    t_final = _require_number(raw_int, "t_final", "integration")
    dt = _require_number(raw_int, "dt", "integration")
    if t_final < 0:
        raise ValidationError(f"integration.t_final must be nonnegative, got {t_final}")
    if dt <= 0:
        raise ValidationError(f"integration.dt must be positive, got {dt}")
    record_every = raw_int.get("record_every", 1)
    if not isinstance(record_every, int) or isinstance(record_every, bool) or record_every < 1:
        raise ValidationError(f"integration.record_every must be a positive integer, got {record_every!r}")

    return Scenario(
        system=system,
        initial_state=initial_state,
        t_final=t_final,
        dt=dt,
        record_every=record_every,
    )


def load_scenario(path) -> Scenario:
    """Read and parse a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    return parse_scenario(document)
