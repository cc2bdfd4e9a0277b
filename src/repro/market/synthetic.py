"""Synthetic spot-market generator.

Substitute for the Kaggle ``AWS Spot Pricing Market`` dataset (offline
here).  Each market is a mean-reverting log-price process with a jump
(spike) component, diurnal and workday demand modulation, a price floor,
and the historical 10x-on-demand cap.  Spikes decay through the mean
reversion, reproducing the saw-tooth spikes of paper Fig. 1 where
r3.xlarge jumps from ~$0.30 to over $3 and relaxes back within hours.

Markets are generated on a 1-minute latent grid and then compressed to
sparse change-only records, matching the source dataset's format;
consumers re-interpolate to the 1-minute grid exactly as the paper
does.

The latent path is computed in closed form rather than minute-by-
minute: the mean-reversion recurrence is linear, so it is solved with
scaled exponentially-weighted cumulative sums (chunked so ``(1-kappa)^t``
never under/overflows), workday flags come arithmetically from the
epoch weekday, and the publish-threshold scan gallops over the
precomputed price array.  The original per-minute loop survives as
:mod:`repro.market.reference`, which the golden regression tests pin
this implementation against.

Calibration: the six experimental markets span the stability spectrum
the paper's discussion (§V-A) relies on — m4.* markets are stable (rare
revocations), r3.xlarge is highly volatile, the rest sit in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cloud.instance import InstanceType
from repro.market.trace import MINUTE, PriceTrace
from repro.sim.clock import DAY, workday_mask
from repro.sim.rng import RngStream


@dataclass(frozen=True)
class MarketModelParams:
    """Parameters of one synthetic spot market.

    Attributes:
        base_discount: Baseline spot price as a fraction of on-demand
            (AWS spot discounts are 70-80%, so 0.2-0.3 is typical).
        mean_reversion: Per-minute pull of log-price toward baseline.
        volatility: Per-minute standard deviation of log-price noise.
        jump_rate_per_hour: Poisson arrival rate of demand spikes.
        jump_log_mean: Mean spike magnitude in log-price units
            (0.7 => ~2x price, 1.6 => ~5x).
        diurnal_amplitude: Log-price amplitude of the 24h demand cycle.
        workday_boost: Additional log-price level on Mon-Fri.
        floor_fraction: Minimum price as a fraction of on-demand.
        cap_multiple: Maximum price as a multiple of on-demand (AWS
            historically capped spot bids at 10x on-demand).
        publish_threshold: Relative move of the latent price required
            before the market publishes a new record.  Real spot markets
            re-price sparsely; stable markets publish a handful of
            records per day while volatile markets re-price minutely.
        turbulent_fraction: Stationary share of time the market spends
            in its turbulent regime.  Real spot markets show volatility
            clustering — demand surges arrive in bursts, not as a
            memoryless process — and that clustering is precisely the
            signal that makes next-hour revocation *learnable* from the
            past hour's features (RevPred's premise).
        regime_stay_probability: Per-minute probability of remaining in
            the current regime (0.995 => mean regime length ~3.3 h).
        turbulence_multiplier: Factor on jump rate and volatility while
            turbulent.
    """

    base_discount: float = 0.25
    mean_reversion: float = 0.015
    volatility: float = 0.004
    jump_rate_per_hour: float = 0.08
    jump_log_mean: float = 1.0
    diurnal_amplitude: float = 0.03
    workday_boost: float = 0.04
    floor_fraction: float = 0.10
    cap_multiple: float = 10.0
    publish_threshold: float = 0.01
    turbulent_fraction: float = 0.3
    regime_stay_probability: float = 0.995
    turbulence_multiplier: float = 8.0

    def __post_init__(self) -> None:
        if not 0 < self.base_discount < 1:
            raise ValueError(f"base_discount must be in (0, 1): {self.base_discount}")
        if self.mean_reversion <= 0 or self.mean_reversion >= 1:
            raise ValueError(f"mean_reversion must be in (0, 1): {self.mean_reversion}")
        if self.floor_fraction >= self.cap_multiple:
            raise ValueError("floor_fraction must be below cap_multiple")
        if not 0.0 <= self.turbulent_fraction < 1.0:
            raise ValueError(
                f"turbulent_fraction must be in [0, 1): {self.turbulent_fraction}"
            )
        if not 0.0 < self.regime_stay_probability < 1.0:
            raise ValueError(
                f"regime_stay_probability must be in (0, 1): {self.regime_stay_probability}"
            )
        if self.turbulence_multiplier < 1.0:
            raise ValueError(
                f"turbulence_multiplier must be >= 1: {self.turbulence_multiplier}"
            )
        if (
            self.turbulent_fraction > 0.0
            and self.turbulence_multiplier > 1.0
            and self.turbulent_entry_probability > 1.0
        ):
            # A large turbulent share combined with long sojourns would
            # need an entry "probability" above 1, so no chain with
            # this stationary share exists.  A multiplier of exactly 1
            # leaves the chain unsampled (the regimes are
            # indistinguishable), so it is not validated.
            raise ValueError(
                f"turbulent_fraction {self.turbulent_fraction} with "
                f"regime_stay_probability {self.regime_stay_probability} "
                f"implies a calm->turbulent entry probability of "
                f"{self.turbulent_entry_probability:.3f} > 1, so no Markov "
                "chain has that stationary turbulent share; lower "
                "turbulent_fraction or raise regime_stay_probability"
            )

    @property
    def turbulent_entry_probability(self) -> float:
        """P(calm -> turbulent) per minute, pinned by stationarity:
        ``pi_T * P(T->C) = pi_C * P(C->T)``."""
        return (
            (1.0 - self.regime_stay_probability)
            * self.turbulent_fraction
            / (1.0 - self.turbulent_fraction)
        )


#: Calibrated profiles for the experimental pool.  Stability ordering:
#: m4.4xlarge (most stable) .. r3.xlarge (most volatile, as in Fig. 1).
#: Volatile markets carry the deepest discounts while stable m4 markets
#: sit much closer to on-demand — the structure real spot markets show
#: and the one the paper's cost ratios imply (the fastest single-spot
#: baseline costs ~4x the cheapest, which needs the price gap to far
#: exceed the ~3x speed gap).
DEFAULT_MARKET_PROFILES: dict[str, MarketModelParams] = {
    "r3.xlarge": MarketModelParams(
        base_discount=0.22,
        volatility=0.015,
        jump_rate_per_hour=0.80,
        jump_log_mean=1.2,
        mean_reversion=0.020,
        turbulent_fraction=0.0,
    ),
    "r4.large": MarketModelParams(
        base_discount=0.24,
        volatility=0.008,
        jump_rate_per_hour=0.50,
        jump_log_mean=1.0,
        mean_reversion=0.016,
        turbulent_fraction=0.0,
    ),
    "r4.xlarge": MarketModelParams(
        base_discount=0.25,
        volatility=0.008,
        jump_rate_per_hour=0.45,
        jump_log_mean=1.0,
        mean_reversion=0.016,
        turbulent_fraction=0.0,
    ),
    "r4.2xlarge": MarketModelParams(
        base_discount=0.27,
        volatility=0.006,
        jump_rate_per_hour=0.30,
        jump_log_mean=0.9,
        turbulent_fraction=0.0,
    ),
    "m4.2xlarge": MarketModelParams(
        base_discount=0.40,
        volatility=0.0012,
        jump_rate_per_hour=0.05,
        jump_log_mean=0.6,
        turbulent_fraction=0.0,
    ),
    "m4.4xlarge": MarketModelParams(
        base_discount=0.45,
        volatility=0.0008,
        jump_rate_per_hour=0.03,
        jump_log_mean=0.5,
        turbulent_fraction=0.0,
    ),
    "t2.micro": MarketModelParams(
        base_discount=0.40,
        volatility=0.0008,
        jump_rate_per_hour=0.04,
        jump_log_mean=0.5,
        turbulent_fraction=0.0,
    ),
}


#: The shortest span :meth:`SyntheticMarketGenerator.generate` accepts:
#: one step of its one-minute latent grid.
MIN_DAYS = MINUTE / DAY


def params_for(instance_name: str) -> MarketModelParams:
    """Calibrated parameters for a known market, defaults otherwise."""
    return DEFAULT_MARKET_PROFILES.get(instance_name, MarketModelParams())


class SyntheticMarketGenerator:
    """Generates sparse spot-price traces for a set of instance markets.

    Different markets use independent random streams forked from the
    root seed, so their price fluctuations are uncorrelated — the paper
    notes this property of real spot markets ("price fluctuations among
    different markets are barely correlated", §II-A).
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = RngStream(seed, "market")

    def generate(
        self,
        instance: InstanceType,
        days: float = 12.0,
        start: float = 0.0,
        params: MarketModelParams | None = None,
    ) -> PriceTrace:
        """Generate a sparse trace for ``instance`` spanning ``days``.

        The latent log-price evolves per minute:
            x_{t+1} = x_t + kappa * (mu_t - x_t) + sigma_t * eps + jumps
        where mu_t carries the diurnal/workday demand level and sigma_t
        and the jump intensity follow a hidden calm/turbulent Markov
        regime (volatility clustering).  The market *publishes* a
        record only when the latent price has moved by more than
        ``publish_threshold`` relative to the last published price
        (clamped to [floor, cap], rounded to $0.0001), which yields the
        sparse change-only records of the source dataset.
        """
        if not days >= MIN_DAYS:
            raise ValueError(f"days must cover at least one minute ({MIN_DAYS:.6g}): {days}")
        p = params if params is not None else params_for(instance.name)
        rng = self._rng.fork(instance.name).generator

        n_minutes = int(round(days * DAY / MINUTE))
        times = start + np.arange(n_minutes) * MINUTE
        base_log = np.log(p.base_discount * instance.on_demand_price)
        floor = p.floor_fraction * instance.on_demand_price
        cap = p.cap_multiple * instance.on_demand_price

        demand = self._demand_level(times, p)
        turbulent = self._regime_path(n_minutes, p, rng)
        sigma = p.volatility * np.where(turbulent, np.sqrt(p.turbulence_multiplier), 1.0)
        jump_rate = p.jump_rate_per_hour * np.where(turbulent, p.turbulence_multiplier, 1.0)
        noise = rng.normal(0.0, 1.0, n_minutes) * sigma
        jump_mask = rng.random(n_minutes) < (jump_rate / 60.0)
        # Demand surges arrive as sharp one-minute jumps that mean
        # reversion then decays — the sawtooth shape of real spot
        # traces (Fig. 1).  Sharp jumps keep the pre-jump price low, so
        # a wrong "will revoke" bet still pays the calm price for its
        # hour, while the jump itself crosses the max price and
        # triggers the (refunded) revocation.
        jump_sizes = rng.exponential(p.jump_log_mean, n_minutes) * jump_mask

        target = base_log + demand
        latent = _mean_reversion_path(target, noise + jump_sizes, p.mean_reversion)
        prices = np.round(np.clip(np.exp(latent), floor, cap), 4)
        keep = _publish_indices(prices, p.publish_threshold)
        return PriceTrace(instance.name, times[keep], prices[keep]).compress()

    @staticmethod
    def _regime_path(
        n_minutes: int, p: MarketModelParams, rng: np.random.Generator
    ) -> np.ndarray:
        """Hidden calm/turbulent regime chain (volatility clustering).

        Transition probabilities are chosen so the stationary turbulent
        share equals ``turbulent_fraction`` while the mean sojourn time
        follows ``regime_stay_probability``.
        """
        if p.turbulent_fraction == 0.0 or p.turbulence_multiplier == 1.0:
            return np.zeros(n_minutes, dtype=bool)
        leave_turbulent = 1.0 - p.regime_stay_probability
        enter_turbulent = p.turbulent_entry_probability
        state = bool(rng.random() < p.turbulent_fraction)
        draws = rng.random(n_minutes)
        # The chain is sequential, but its transitions are sparse: from
        # a given state the path only flips at the first draw under
        # that state's threshold, so hop transition-to-transition
        # instead of minute-to-minute.  Both flip masks are
        # precomputed; the draw at the flip index affects the *next*
        # minute's state, exactly as the per-minute chain did.
        flip_from_turbulent = draws < leave_turbulent
        flip_from_calm = draws < enter_turbulent
        path = np.empty(n_minutes, dtype=bool)
        i = 0
        while i < n_minutes:
            mask = flip_from_turbulent if state else flip_from_calm
            j = _first_true(mask, i)
            if j < 0:
                path[i:] = state
                break
            path[i : j + 1] = state
            state = not state
            i = j + 1
        return path

    @staticmethod
    def _demand_level(times: np.ndarray, p: MarketModelParams) -> np.ndarray:
        """Diurnal + workday log-price demand offsets for each minute."""
        seconds_of_day = np.mod(times, DAY)
        # Demand peaks mid-afternoon UTC (hour 15), troughs at night.
        diurnal = p.diurnal_amplitude * np.sin(2 * np.pi * (seconds_of_day / DAY - 0.375))
        return diurnal + p.workday_boost * workday_mask(times)


def _mean_reversion_path(
    target: np.ndarray, shocks: np.ndarray, kappa: float
) -> np.ndarray:
    """Closed-form solution of the per-minute mean-reversion recurrence.

    Solves ``x[t] = x[t-1] + kappa * (target[t] - x[t-1]) + shocks[t]``
    with ``x[0] = target[0]`` (``shocks[0]`` is ignored, matching the
    loop formulation).  Writing ``a = 1 - kappa`` and ``b[t] =
    kappa * target[t] + shocks[t]`` the recurrence is linear, so within
    a chunk starting at ``s`` with carry ``c = x[s-1]``::

        x[s+j] = a^(j+1) * c + a^j * cumsum(b[s:s+j+1] * a^-m)[j]

    Chunks are sized so the ``a^-m`` rescaling stays within ``e^60`` —
    unchunked, ``(1-kappa)^t`` underflows (and its reciprocal
    overflows) after a few tens of thousands of minutes.
    """
    n = len(target)
    x = np.empty(n)
    x[0] = target[0]
    if n == 1:
        return x
    a = 1.0 - kappa
    b = kappa * target + shocks
    chunk = max(1, min(n - 1, int(60.0 / -math.log(a))))
    carry = x[0]
    s = 1
    while s < n:
        e = min(n, s + chunk)
        j = np.arange(e - s)
        weighted = np.cumsum(b[s:e] * a ** -j)
        x[s:e] = a ** (j + 1) * carry + a ** j * weighted
        carry = x[e - 1]
        s = e
    return x


def _first_true(mask: np.ndarray, start: int) -> int:
    """Index of the first ``True`` in ``mask[start:]``, or -1.

    Gallops in doubling blocks so dense masks answer from the first
    small block while sparse ones avoid re-scanning the prefix.
    """
    n = len(mask)
    lo, step = start, 64
    while lo < n:
        hi = min(n, lo + step)
        j = lo + int(mask[lo:hi].argmax())
        if mask[j]:
            return j
        lo, step = hi, step * 2
    return -1


def _publish_indices(prices: np.ndarray, threshold: float) -> np.ndarray:
    """Indices the market publishes: each record is the first minute
    whose quantised price moved more than ``threshold`` relative to the
    previously published one.

    Only minutes where the quantised price differs from the previous
    minute can publish — an unchanged price repeats a comparison that
    either just failed or just reset the reference — so the scan visits
    the (often sparse) change points only.  The comparison reproduces
    the reference loop's ``abs(candidate - published) / published >
    threshold`` float-for-float: Python floats and numpy float64
    scalars share IEEE-754 arithmetic.
    """
    candidates = np.flatnonzero(prices[1:] != prices[:-1]) + 1
    price_list = prices.tolist()
    published = price_list[0]
    keep = [0]
    for i in candidates.tolist():
        candidate = price_list[i]
        if abs(candidate - published) / published > threshold:
            published = candidate
            keep.append(i)
    return np.asarray(keep, dtype=np.intp)
