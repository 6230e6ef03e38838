"""Insurance valuation under a constant-hazard strike-time model.

The strike event (job loss) arrives with constant hazard h, so its time T
is exponential: F(t) = 1 - exp(-h t).  Sampling goes through a latent
standard normal Y via T = -ln(1 - Phi(Y)) / h, which is the inverse-CDF
transform composed with the probability integral: if Y ~ N(0,1) then
1 - Phi(Y) ~ U(0,1) and T ~ Exp(h).

The product pays a lump sum L at the strike and charges an annual spread s
until then.  Its per-unit value uses V = E[exp(-r T)], which for the
exponential model is h / (h + r) in closed form; the Monte-Carlo estimator
exists to mirror the original simulation-based pipeline and for models
where no closed form is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri


@dataclass(frozen=True)
class HazardModel:
    """Constant-hazard strike model and the insurance contract terms.

    Parameters
    ----------
    h : float
        Hazard rate per year (> 0).
    r : float
        Utility discount rate per year (>= 0).
    L : float
        Lump-sum payment at the strike, in thousands of currency.
    s : float
        Annual spread payment, in thousands of currency.
    horizon_M : int
        Planning horizon in years (>= 1); spread sums run over 1..horizon_M.
    """

    h: float
    r: float
    L: float
    s: float
    horizon_M: int

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("hazard rate h must be positive")
        if self.r < 0:
            raise ValueError("discount rate r must be nonnegative")
        if self.L < 0 or self.s < 0:
            raise ValueError("payments L and s must be nonnegative")
        if int(self.horizon_M) != self.horizon_M or self.horizon_M < 1:
            raise ValueError("horizon_M must be an integer >= 1")
        object.__setattr__(self, "horizon_M", int(self.horizon_M))


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo estimate with its sampling metadata."""

    value: float
    std_error: float
    n_draws: int
    seed: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.n_draws < 1:
            raise ValueError("n_draws must be positive")


def strike_time_from_latent(y, h: float):
    """Map a latent standard-normal value to a strike time.

    T = -ln(1 - Phi(y)) / h, evaluated through the normal survival function
    so the upper tail keeps full precision.  Accepts scalars or arrays.
    """
    if not h > 0:
        raise ValueError("hazard rate h must be positive")
    t = -np.log(ndtr(-np.asarray(y, dtype=float))) / h
    return float(t) if np.isscalar(y) else t


def survival_prob(model: HazardModel, t: float) -> float:
    """Probability that the strike has not occurred by time t: exp(-h t)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return math.exp(-model.h * t)


def _draw_strike_times(model: HazardModel, n_draws: int, seed: int) -> np.ndarray:
    # Inverse-CDF normals: deterministic for a fixed seed, and the same
    # stream backs both the discount factor and the strike-year estimate.
    rng = np.random.default_rng(seed)
    y = ndtri(rng.random(n_draws))
    return strike_time_from_latent(y, model.h)


def estimate_discount_factor(model: HazardModel, n_draws: int,
                             seed: int) -> McEstimate:
    """Monte-Carlo estimate of V = E[exp(-r T)].

    Draws n standard normals from the seeded generator (inverse-CDF
    method), maps each through :func:`strike_time_from_latent`, and
    averages exp(-r T).  The analytic value of the integral is
    h / (h + r); the estimator exists for fidelity with the original
    simulation pipeline and converges to it at the usual 1/sqrt(n) rate.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be positive")
    times = _draw_strike_times(model, n_draws, seed)
    values = np.exp(-model.r * times)
    value = float(values.mean())
    if n_draws > 1:
        std_error = float(values.std(ddof=1) / math.sqrt(n_draws))
    else:
        std_error = 0.0
    return McEstimate(value=value, std_error=std_error,
                      n_draws=n_draws, seed=seed)


def analytic_discount_factor(model: HazardModel) -> float:
    """Closed form of E[exp(-r T)] for exponential T: h / (h + r)."""
    return model.h / (model.h + model.r)


def expected_strike_year(model: HazardModel, n_draws: int, seed: int) -> int:
    """Ceiling of the Monte-Carlo mean strike time (the income-drop year).

    For the exponential model E[T] = 1/h, so the large-n value is
    ceil(1/h); the finite-n value is exactly ceil(sample mean) for the
    seed's draws.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be positive")
    times = _draw_strike_times(model, n_draws, seed)
    return int(math.ceil(float(times.mean())))


def spread_linear_coefficient(model: HazardModel,
                              v_discount: float | None = None) -> float:
    """Per-unit linear utility coefficient of the insurance position.

    Returns V * L - s * sum_{i=1..M} (1 - F(i)) with 1 - F(i) = exp(-h i):
    the discounted lump-sum benefit less the spread charged while the
    strike has not yet occurred.  V defaults to the analytic h/(h+r);
    pass an MC estimate to reproduce the simulation-based pipeline.
    """
    v = analytic_discount_factor(model) if v_discount is None else float(v_discount)
    years = np.arange(1, model.horizon_M + 1)
    survival = np.exp(-model.h * years)
    return float(v * model.L - model.s * survival.sum())


def spread_variance_coefficient(model: HazardModel) -> float:
    """Per-unit-squared variance coefficient of the insurance position.

    Each year's spread liability is Bernoulli in the survival indicator,
    contributing F(i)(1 - F(i)); the total is s^2 * sum over the horizon.
    """
    years = np.arange(1, model.horizon_M + 1)
    survival = np.exp(-model.h * years)
    return float(model.s ** 2 * ((1.0 - survival) * survival).sum())
