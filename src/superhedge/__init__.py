"""Super-hedging under execution-price uncertainty.

Library + CLI computing minimal super-hedging prices and strategies for
claims whose execution prices live in random intervals and whose orders
execute with delay, plus a seeded Monte-Carlo engine that verifies the
hedge path by path.
"""

from .pwl import (
    AffineFunction,
    Interval,
    PwlFunction,
    SlopeInterval,
    call_payoff,
    constant_function,
    convex_combine,
    dominates,
    put_payoff,
    scale_compose,
    superdifferential,
    upper_concave_envelope,
)
from .pricing import (
    AipResult,
    AipViolationError,
    MarketModel,
    OneStepQuote,
    PricingResult,
    StepSpec,
    StrategyFn,
    asian_call_payoff,
    asian_tree_price,
    backward_induce,
    check_aip,
    closed_form_call,
    initial_premium,
    one_step_price,
    strategy_at,
    uniform_bid_ask_model,
)
from .simulation import (
    RngConfig,
    SimPath,
    SimStats,
    draw_step,
    execute_delayed_order,
    mid_execute,
    run_path_functional,
    simulate,
    simulate_functional,
    simulate_one,
)

__version__ = "0.1.0"

__all__ = [
    "AffineFunction",
    "AipResult",
    "AipViolationError",
    "Interval",
    "MarketModel",
    "OneStepQuote",
    "PricingResult",
    "PwlFunction",
    "RngConfig",
    "SimPath",
    "SimStats",
    "SlopeInterval",
    "StepSpec",
    "StrategyFn",
    "asian_call_payoff",
    "asian_tree_price",
    "backward_induce",
    "call_payoff",
    "check_aip",
    "closed_form_call",
    "constant_function",
    "convex_combine",
    "dominates",
    "draw_step",
    "execute_delayed_order",
    "initial_premium",
    "mid_execute",
    "one_step_price",
    "put_payoff",
    "run_path_functional",
    "scale_compose",
    "simulate",
    "simulate_functional",
    "simulate_one",
    "strategy_at",
    "superdifferential",
    "uniform_bid_ask_model",
    "upper_concave_envelope",
]
