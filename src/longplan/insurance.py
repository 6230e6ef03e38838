"""Insurance valuation under a constant-hazard strike-time model.

The strike event (job loss) arrives with constant hazard h, so its time T
is exponential: F(t) = 1 - exp(-h t).  Sampling inverts F: if U ~ U(0,1)
then T = -ln(1 - U) / h ~ Exp(h).  The same map from a latent standard
normal Y is T = -ln(1 - Phi(Y)) / h, because 1 - Phi(Y) ~ U(0,1) too.

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

from ._counts import whole


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
        for name in ("h", "r", "L", "s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.h > 0:
            raise ValueError("hazard rate h must be positive")
        if self.r < 0:
            raise ValueError("discount rate r must be nonnegative")
        if self.L < 0 or self.s < 0:
            raise ValueError("payments L and s must be nonnegative")
        object.__setattr__(self, "horizon_M", whole("horizon_M", self.horizon_M, 1))


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
    1 - Phi(y) = erfc(y / sqrt(2)) / 2 so the upper tail keeps full
    precision.  Accepts scalars or arrays.
    """
    if not h > 0:
        raise ValueError("hazard rate h must be positive")
    erfc = np.vectorize(math.erfc, otypes=[float])
    t = -np.log(0.5 * erfc(np.asarray(y, dtype=float) / math.sqrt(2.0))) / h
    return float(t) if np.isscalar(y) else t


def survival_prob(model: HazardModel, t: float) -> float:
    """Probability that the strike has not occurred by time t: exp(-h t)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return math.exp(-model.h * t)


def strike_time_estimates(model: HazardModel, n_draws: int,
                          seed: int) -> tuple[McEstimate, int]:
    """V = E[exp(-r T)] and the income-drop year from one seeded stream.

    Maps n seeded uniforms u straight to strike times T = -log1p(-u) / h,
    the inverse exponential CDF.  In exact arithmetic this equals
    :func:`strike_time_from_latent` at the normal quantile Phi^-1(u),
    since 1 - Phi(Phi^-1(u)) = 1 - u.  The first result averages
    exp(-r T), whose analytic value is h / (h + r); the second is the
    ceiling of the sample mean of T, whose large-n value is ceil(1/h).
    Callers needing both draw the stream once.  n_draws (>= 1) and seed
    (>= 0) must be integers; an integer-valued float is taken as its int.
    """
    n_draws, seed = whole("n_draws", n_draws, 1), whole("seed", seed, 0)
    rng = np.random.default_rng(seed)
    times = -np.log1p(-rng.random(n_draws)) / model.h
    values = np.exp(-model.r * times)
    if n_draws > 1:
        std_error = float(values.std(ddof=1) / math.sqrt(n_draws))
    else:
        std_error = 0.0
    estimate = McEstimate(value=float(values.mean()), std_error=std_error,
                          n_draws=n_draws, seed=seed)
    return estimate, int(math.ceil(float(times.mean())))


def estimate_discount_factor(model: HazardModel, n_draws: int,
                             seed: int) -> McEstimate:
    """Monte-Carlo estimate of V = E[exp(-r T)].

    The estimator exists for fidelity with the original simulation
    pipeline and converges to the analytic h / (h + r) at the usual
    1/sqrt(n) rate; see :func:`strike_time_estimates`.
    """
    return strike_time_estimates(model, n_draws, seed)[0]


def analytic_discount_factor(model: HazardModel) -> float:
    """Closed form of E[exp(-r T)] for exponential T: h / (h + r)."""
    return model.h / (model.h + model.r)


def expected_strike_year(model: HazardModel, n_draws: int, seed: int) -> int:
    """Ceiling of the Monte-Carlo mean strike time (the income-drop year).

    For the exponential model E[T] = 1/h, so the large-n value is
    ceil(1/h); the finite-n value is exactly ceil(sample mean) for the
    seed's draws (see :func:`strike_time_estimates`).
    """
    return strike_time_estimates(model, n_draws, seed)[1]


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
