"""The staged curve model (paper Equation 4).

Within each stage the metric is fitted by

    L(k) = 1 / (a0 * k^2 + a1 * k + a2) + a3,     a_j >= 0

where k counts steps from the stage start — the inverse-quadratic
family that matches the O(1/k)..O(1/k^2) convergence of gradient
methods (paper §III-C, citing Optimus).  Coefficients are found under
non-negativity bounds by the solver the paper references, scipy's
trust-region-reflective ``least_squares``, run from an exact in-tree
copy (:mod:`repro.earlycurve.trf`) that returns its result bit for bit.
The full curve is the piecewise union of the stage fits; extrapolation
beyond the observed range uses the last stage's fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.earlycurve.stages import DEFAULT_EPS, DEFAULT_XI, Stage, detect_stages
from repro.earlycurve.trf import trf_nonnegative

#: Parameters of a degenerate (constant) stage fit: 1/a2 is negligible
#: and a3 carries the constant level.
_CONSTANT_A2 = 1e12


def _stage_curve(params: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Equation 4 at offsets ``k``; an ``(r, 4)`` stack of parameter rows
    gives one row per parameter set, each equal to its own evaluation."""
    a0, a1, a2, a3 = np.asarray(params).T[..., np.newaxis]
    denominator = np.maximum(a0 * k**2 + a1 * k + a2, 1e-12)
    return 1.0 / denominator + a3


def fit_single_stage(k: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Fit one stage's non-negative inverse-quadratic coefficients.

    ``k`` are step offsets within the stage (starting at 1) and
    ``values`` the observed metrics.  Stages too short to constrain the
    model fall back to a constant fit at the stage mean.
    """
    k = np.asarray(k, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(k) != len(values):
        raise ValueError(f"length mismatch: {len(k)} steps vs {len(values)} values")
    if len(k) < 4:
        return np.array([0.0, 0.0, _CONSTANT_A2, float(np.mean(values))])

    floor = float(np.min(values))
    spread = float(np.max(values) - floor)
    a3_guess = max(floor - 0.05 * max(spread, 1e-6), 0.0)
    first_residual = max(values[0] - a3_guess, 1e-6)
    x0 = np.array([1e-8, 1e-4, 1.0 / first_residual, a3_guess])

    def residuals(params: np.ndarray) -> np.ndarray:
        return _stage_curve(params, k) - values

    return trf_nonnegative(residuals, x0, max_nfev=200)


@dataclass
class CurveFit:
    """A fitted piecewise curve: stages plus per-stage coefficients."""

    stages: list[Stage]
    params: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.stages) != len(self.params):
            raise ValueError(
                f"{len(self.stages)} stages but {len(self.params)} parameter sets"
            )
        if not self.stages:
            raise ValueError("a curve fit needs at least one stage")

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def predict(self, steps: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the fitted curve at (global) step indices.

        Steps beyond the last observed stage extrapolate the last
        stage's fit; steps before 0 are invalid.
        """
        scalar = np.isscalar(steps)
        steps = np.atleast_1d(np.asarray(steps, dtype=float))
        if np.any(steps < 0):
            raise ValueError("steps must be non-negative")
        output = np.empty_like(steps)
        for index, step in enumerate(steps):
            stage, params = self._stage_for(step)
            k_local = step - stage.left + 1.0
            output[index] = _stage_curve(params, np.array([k_local]))[0]
        return float(output[0]) if scalar else output

    def _stage_for(self, step: float) -> tuple[Stage, np.ndarray]:
        for stage, params in zip(self.stages, self.params):
            if step < stage.right:
                return stage, params
        return self.stages[-1], self.params[-1]

    def rmse(self, steps: np.ndarray, values: np.ndarray) -> float:
        """Root-mean-square error of the fit against observations."""
        predictions = self.predict(np.asarray(steps, dtype=float))
        return float(np.sqrt(np.mean((predictions - np.asarray(values)) ** 2)))


class StagedCurveModel:
    """EarlyCurve's fitter: stage detection + per-stage least squares."""

    def __init__(self, xi: float = DEFAULT_XI, eps: float = DEFAULT_EPS) -> None:
        self.xi = xi
        self.eps = eps

    def fit(self, values: np.ndarray) -> CurveFit:
        """Fit the staged model to a metric series indexed 0..n-1."""
        values = np.asarray(values, dtype=float)
        stages = detect_stages(values, xi=self.xi, eps=self.eps)
        params = []
        for stage in stages:
            segment = values[stage.left : stage.right]
            k_local = np.arange(1, stage.length + 1, dtype=float)
            params.append(fit_single_stage(k_local, segment))
        return CurveFit(stages=stages, params=params)

    def fit_predict(self, values: np.ndarray, target_step: float) -> float:
        """Fit on the observed prefix and predict the metric at
        ``target_step`` (paper: the final metric at max_trial_steps).

        Equal to ``fit(values).predict(target_step)``.  The target must
        lie in or past the last stage, whose fit is the only one such a
        prediction reads, so only the last stage is fitted."""
        values = np.asarray(values, dtype=float)
        last = detect_stages(values, xi=self.xi, eps=self.eps)[-1]
        if target_step < last.left:
            raise ValueError(
                f"target step {target_step} precedes the last stage [{last.left}, {last.right})"
            )
        k_local = np.arange(1, last.length + 1, dtype=float)
        params = fit_single_stage(k_local, values[last.left : last.right])
        return float(CurveFit(stages=[last], params=[params]).predict(target_step))
