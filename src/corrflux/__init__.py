"""corrflux: energy bookkeeping for bipartite open quantum systems.

Simulates two finite subsystems coupled by an interaction V and damped by
local GKLS baths, splits the internal energy into two local accounts plus a
correlation account, checks sufficient conditions under which dissipation
moves no local energy, and carries a two-qubit scenario whose correlation
account can be drained in closed form.
"""

from .linalg import BipartiteShape, ShapeError, HermiticityError
from .model import (
    BipartiteSystem,
    JumpChannel,
    Scenario,
    ThermalBathSpec,
    ValidationError,
    build_thermal_channels,
    gibbs_state,
    load_scenario,
    parse_scenario,
    total_hamiltonian,
)
from .dynamics import (
    Generator,
    Trajectory,
    integrate,
)
from .energetics import (
    Decomposition,
    EffectiveHamiltonians,
    EnergyLedger,
    decompose,
    delta_U_chi,
    effective_hamiltonians,
    energy_ledger,
)
from .conditions import (
    ConditionReport,
    TheoremReport,
    check_conditions,
    check_conditions_sampled,
    verify_theorem,
)
from .twoqubit import (
    ExampleParams,
    analytic_chi,
    analytic_delta_U_chi,
    build_example,
    sign_of_exchange,
    valid_c_range,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteShape",
    "ShapeError",
    "HermiticityError",
    "BipartiteSystem",
    "JumpChannel",
    "Scenario",
    "ThermalBathSpec",
    "ValidationError",
    "build_thermal_channels",
    "gibbs_state",
    "load_scenario",
    "parse_scenario",
    "total_hamiltonian",
    "Generator",
    "Trajectory",
    "integrate",
    "Decomposition",
    "EffectiveHamiltonians",
    "EnergyLedger",
    "decompose",
    "delta_U_chi",
    "effective_hamiltonians",
    "energy_ledger",
    "ConditionReport",
    "TheoremReport",
    "check_conditions",
    "check_conditions_sampled",
    "valid_c_range",
    "verify_theorem",
    "ExampleParams",
    "analytic_chi",
    "analytic_delta_U_chi",
    "build_example",
    "sign_of_exchange",
    "__version__",
]
