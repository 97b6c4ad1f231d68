"""The closed-form two-step call: value and holding from explicit case
tables, written without the recursion, as the oracle for `backward_induce`
and `PricingResult.strategy` on two-step models."""

import numpy as np

from superhedge.pricing import MarketModel
from superhedge.pwl import _check_array, _check_scalar


def closed_form_call(t: int, s, strike: float, model: MarketModel):
    """Explicit two-step call value/holding, independent of the recursion.

    Case tables keyed by where the support edges fall relative to the
    strike: three cases at t=1 and six at t=0.  Serves as the oracle for
    `backward_induce` / `PricingResult.strategy` on two-step models.
    Vectorised over s; returns (value, theta) floats or arrays.
    """
    if model.horizon != 2:
        raise ValueError("closed-form oracle requires a two-step model")
    if t not in (0, 1):
        raise ValueError("t must be 0 or 1")
    _check_scalar(strike, "strike")
    m1, M1 = model.steps[1].k_down, model.steps[1].k_up
    m2, M2 = model.steps[2].k_down, model.steps[2].k_up
    if not (m1 < M1 and m2 < M2):
        raise ValueError("oracle requires nondegenerate supports")

    s_arr = np.asarray(s, dtype=float)
    scalar = s_arr.ndim == 0
    s_arr = np.atleast_1d(s_arr)
    _check_array(s_arr, "price")
    K = float(strike)
    c_lo, c_hi = K / M2, K / m2

    if t == 1:
        mid_v = (s_arr * M2 - K) * (1.0 - m2) / (M2 - m2)
        mid_th = (s_arr * M2 - K) / (s_arr * (M2 - m2))
        value = np.where(
            s_arr <= c_lo, 0.0, np.where(s_arr >= c_hi, s_arr - K, mid_v)
        )
        theta = np.where(
            s_arr <= c_lo, 0.0, np.where(s_arr >= c_hi, 1.0, mid_th)
        )
    else:
        a = s_arr * m1  # lower support edge of the first executed price
        b = s_arr * M1  # upper support edge
        za = np.where(a <= c_lo, 0, np.where(a >= c_hi, 2, 1))
        zb = np.where(b <= c_lo, 0, np.where(b >= c_hi, 2, 1))

        d1, d2 = M1 - m1, M2 - m2
        v2 = (s_arr * M1 * M2 - K) * (1.0 - m2) * (1.0 - m1) / (d2 * d1)
        th2 = (s_arr * M1 * M2 - K) * (1.0 - m2) / (s_arr * d2 * d1)
        v3 = (s_arr * M1 - K) * (1.0 - m1) / d1
        th3 = (s_arr * M1 - K) / (s_arr * d1)
        v4 = (s_arr * M2 - K) * (1.0 - m2) / d2
        th4 = np.full_like(s_arr, M2 * (1.0 - m2) / d2)
        v5 = (
            (s_arr * M1 - K) * d2 * (1.0 - m1)
            - (s_arr * m1 * M2 - K) * (1.0 - m2) * (1.0 - M1)
        ) / (d1 * d2)
        th5 = ((s_arr * M1 - K) * d2 - (s_arr * m1 * M2 - K) * (1.0 - m2)) / (
            s_arr * d2 * d1
        )

        cases = [
            zb == 0,  # both edges below the kink zone
            (za == 0) & (zb == 1),
            (za == 0) & (zb == 2),
            (za == 1) & (zb == 1),
            (za == 1) & (zb == 2),
        ]  # otherwise both edges lie past the kink zone
        zero = np.zeros_like(s_arr)
        value = np.select(cases, [zero, v2, v3, v4, v5], default=s_arr - K)
        theta = np.select(cases, [zero, th2, th3, th4, th5], default=1.0)

    if scalar:
        return float(value[0]), float(theta[0])
    return value, theta
