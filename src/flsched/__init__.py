"""Online client selection and bandwidth allocation for wireless federated learning."""

from .bandwidth import Allocation, AllocationInstance, barrier_solve
from .lyapunov import drift_bound, update_queue
from .model import Population, RoundContext, SystemConfig
from .scheduler import PolicySpec, RunTrace, run_policy, solve_round
from .selection import SelectionInstance, itmcs
from .simenv import Scenario, ScenarioSpec, generate_population, sample_round

__all__ = [
    "Allocation", "AllocationInstance", "barrier_solve",
    "drift_bound", "update_queue",
    "Population", "RoundContext", "SystemConfig",
    "PolicySpec", "RunTrace", "run_policy", "solve_round",
    "SelectionInstance", "itmcs",
    "Scenario", "ScenarioSpec", "generate_population", "sample_round",
]

__version__ = "0.1.0"
