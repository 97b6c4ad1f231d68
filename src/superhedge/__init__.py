"""Super-hedging under execution-price uncertainty.

Library + CLI computing minimal super-hedging prices and strategies for
claims whose execution prices live in random intervals and whose orders
execute with delay, plus a seeded Monte-Carlo engine that verifies the
hedge path by path.
"""

from .pwl import (
    Interval,
    PwlFunction,
    call_payoff,
    put_payoff,
    upper_concave_envelope,
)
from .pricing import (
    AipViolationError,
    MarketModel,
    StepSpec,
    StrategyFn,
    asian_call_payoff,
    asian_tree_price,
    backward_induce,
    check_aip,
    initial_premium,
    one_step_price,
    uniform_bid_ask_model,
)
from .simulation import (
    SimStats,
    draw_step,
    mid_execute,
    run_path_functional,
    simulate_functional,
    simulate_one,
)

__version__ = "0.1.0"

__all__ = [
    "AipViolationError",
    "Interval",
    "MarketModel",
    "PwlFunction",
    "SimStats",
    "StepSpec",
    "StrategyFn",
    "asian_call_payoff",
    "asian_tree_price",
    "backward_induce",
    "call_payoff",
    "check_aip",
    "draw_step",
    "initial_premium",
    "mid_execute",
    "one_step_price",
    "put_payoff",
    "run_path_functional",
    "simulate_functional",
    "simulate_one",
    "uniform_bid_ask_model",
    "upper_concave_envelope",
]
