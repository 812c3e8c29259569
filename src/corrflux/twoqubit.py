"""Two thermal qubits exchanging energy only through their correlations.

The model: H_A = omega_A sz (x) I, H_B = omega_B I (x) sz, V = g sz (x) sz,
one detailed-balance bath per side with jump rates

    gamma(|1><0|) = exp(+beta omega),   gamma(|0><1|) = exp(-beta omega),

where |0> is the +1 eigenvector of sz (energy +omega, so |1> is the local
ground state). Starting from rho(0) = pi_A (x) pi_B + c sz (x) sz the
marginals stay pinned at their Gibbs states while the correlation part
decays as a whole:

    chi(t) = exp(-lambda t) c sz (x) sz,
    lambda = sum of the four jump rates = 2 cosh(beta_A omega_A)
             + 2 cosh(beta_B omega_B),
    Delta U_chi(t) = 4 g c (exp(-lambda t) - 1)  ->  -4 g c.

Every watt flows out of (or into) the correlation account alone; its sign
is -sign(g c).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .linalg import SIGMA_Z, BipartiteShape, kron
from .model import BipartiteSystem, JumpChannel, ValidationError, gibbs_state, matrix_to_json

__all__ = [
    "ExampleParams",
    "build_example",
    "thermal_marginals",
    "decay_rate",
    "analytic_chi",
    "analytic_delta_U_chi",
    "sign_of_exchange",
    "scenario_document",
    "valid_c_range",
]

_RAISE = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0|
_LOWER = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|


def _require_nonnegative(**values: float) -> None:
    for name, value in values.items():
        if not np.isfinite(value) or value < 0:
            raise ValidationError(f"{name} must be nonnegative, got {value}")


@dataclass(frozen=True)
class ExampleParams:
    """Parameters of the two-qubit scenario.

    Frequencies and inverse temperatures are nonnegative, the jump rates
    exp(beta omega) and their sum are finite, and c must keep the initial
    state positive, i.e. lie inside valid_c_range.
    """

    omega_A: float
    omega_B: float
    g: float
    beta_A: float
    beta_B: float
    c: float

    def __post_init__(self):
        _require_nonnegative(
            omega_A=self.omega_A, omega_B=self.omega_B, beta_A=self.beta_A, beta_B=self.beta_B
        )
        if not np.isfinite(self.g):
            raise ValidationError(f"g must be finite, got {self.g}")
        if not np.isfinite(decay_rate(self)):
            raise ValidationError(
                f"the jump rates exp(beta omega) overflow at beta_A*omega_A = "
                f"{self.beta_A * self.omega_A:.6g}, beta_B*omega_B = {self.beta_B * self.omega_B:.6g}"
            )
        _initial_state(self)


def _rates(params: ExampleParams) -> dict[str, float]:
    """The four channel rates; past beta omega ~ 709.8 a rate is inf, which ExampleParams rejects."""
    with np.errstate(over="ignore"):
        return {
            "A:1<-0": float(np.exp(params.beta_A * params.omega_A)),
            "A:0<-1": float(np.exp(-params.beta_A * params.omega_A)),
            "B:1<-0": float(np.exp(params.beta_B * params.omega_B)),
            "B:0<-1": float(np.exp(-params.beta_B * params.omega_B)),
        }


def _initial_state(params: ExampleParams) -> np.ndarray:
    return model.thermal_plus_zz(
        params.omega_A * SIGMA_Z, params.omega_B * SIGMA_Z, params.beta_A, params.beta_B, params.c
    )


def valid_c_range(
    beta_A: float, omega_A: float, beta_B: float, omega_B: float
) -> tuple[float, float]:
    """Exact positivity window of c for pi_A (x) pi_B + c sz (x) sz.

    model.zz_positivity_window of the local Gibbs states gibbs_state(omega sz, beta):
    the window that ExampleParams and the scenario preset 'thermal_plus_zz' enforce.
    Its bounds carry the 1/(Z_A Z_B) normalization of the populations.
    """
    _require_nonnegative(beta_A=beta_A, omega_A=omega_A, beta_B=beta_B, omega_B=omega_B)
    return model.zz_positivity_window(
        gibbs_state(omega_A * SIGMA_Z, beta_A), gibbs_state(omega_B * SIGMA_Z, beta_B)
    )


def thermal_marginals(params: ExampleParams) -> tuple[np.ndarray, np.ndarray]:
    """Local Gibbs states (pi_A, pi_B) of the bare qubit Hamiltonians."""
    pi_A = gibbs_state(params.omega_A * SIGMA_Z, params.beta_A)
    pi_B = gibbs_state(params.omega_B * SIGMA_Z, params.beta_B)
    return pi_A, pi_B


def build_example(params: ExampleParams) -> tuple[BipartiteSystem, np.ndarray]:
    """Assemble the two-qubit system and its tilted-thermal initial state."""
    rates = _rates(params)
    operators = {"1<-0": _RAISE, "0<-1": _LOWER}
    channels = tuple(
        JumpChannel(operators[jump], rates[f"{side}:{jump}"], side, f"{side}:{jump}")
        for side in "AB"
        for jump in operators
    )
    system = BipartiteSystem(
        shape=BipartiteShape(2, 2),
        H_A=params.omega_A * SIGMA_Z,
        H_B=params.omega_B * SIGMA_Z,
        V=params.g * kron(SIGMA_Z, SIGMA_Z),
        channels=channels,
    )
    return system, _initial_state(params)


def decay_rate(params: ExampleParams) -> float:
    """Correlation decay rate lambda: the sum of the four channel rates."""
    return float(sum(_rates(params).values()))


def analytic_chi(params: ExampleParams, t: float) -> np.ndarray:
    """Closed-form correlation part chi(t) = exp(-lambda t) c sz (x) sz."""
    lam = decay_rate(params)
    return float(np.exp(-lam * t)) * params.c * kron(SIGMA_Z, SIGMA_Z)


def analytic_delta_U_chi(params: ExampleParams, t: float) -> float:
    """Closed-form Delta U_chi(t) = 4 g c (exp(-lambda t) - 1)."""
    lam = decay_rate(params)
    return 4.0 * params.g * params.c * (float(np.exp(-lam * t)) - 1.0)


def sign_of_exchange(params: ExampleParams) -> str:
    """Direction of the asymptotic correlation-energy change.

    "releases" when Delta U_chi(inf) = -4 g c < 0, "absorbs" when it is
    positive, "none" when g c = 0.
    """
    product = params.g * params.c
    if product > 0:
        return "releases"
    if product < 0:
        return "absorbs"
    return "none"


def scenario_document(
    params: ExampleParams, t_final: float, dt: float, record_every: int = 1
) -> dict:
    """JSON scenario document reproducing this model through the schema.

    The bath entries store the decay rate exp(+beta omega) of the jump from
    level 1 to level 0 (ascending eigenvalue order); the excitation partner
    follows from detailed balance. Requires omega_A, omega_B > 0 so the
    local spectra are nondegenerate.
    """
    if params.omega_A <= 0 or params.omega_B <= 0:
        raise ValidationError("scenario_document needs strictly positive frequencies")
    rates = _rates(params)
    return {
        "shape": {"dA": 2, "dB": 2},
        "H_A": matrix_to_json(params.omega_A * SIGMA_Z),
        "H_B": matrix_to_json(params.omega_B * SIGMA_Z),
        "V": {"pattern": "zz", "g": params.g},
        "alpha_A": 0.5,
        "baths": [
            {"side": side, "beta": beta, "base_rates": [{"from": 1, "to": 0, "rate": rates[f"{side}:1<-0"]}]}
            for side, beta in (("A", params.beta_A), ("B", params.beta_B))
        ],
        "initial_state": {"preset": "thermal_plus_zz", "c": params.c},
        "integration": {"t_final": t_final, "dt": dt, "record_every": record_every},
    }
