"""EarlyCurve: ML training-trend prediction (paper §III-C).

EarlyCurve fits the partially observed validation-metric curve of a
training run and extrapolates the final metric so unpromising
hyper-parameter settings can be shut down early.  Unlike prior work
(Optimus, SLAQ) it models the curve as a *staged* piecewise function
(Equation 4): periodic learning-rate decay makes metrics drop sharply
at stage boundaries, which single-stage fits cannot follow (Fig. 5b).

Components:

* :func:`detect_stages` — the Equation 7 online boundary heuristic
  (changing rate over 0.5 after five steady steps under 0.01);
* :class:`StagedCurveModel` — per-stage inverse-quadratic fits by
  scipy's trust-region-reflective ``least_squares`` (the solver the
  paper cites), run from an exact in-tree copy in
  :mod:`repro.earlycurve.trf` that returns scipy's result bit for bit;
* :class:`SlaqCurveModel` — the one-stage baseline;
* :class:`EarlyCurvePredictor` — the online wrapper: collects metric
  points, detects plateau convergence, predicts the final metric at
  theta * max_trial_steps, and ranks configurations.
"""

from repro.earlycurve.model import CurveFit, StagedCurveModel
from repro.earlycurve.predictor import EarlyCurvePredictor, PredictionOutcome
from repro.earlycurve.slaq import SlaqCurveModel
from repro.earlycurve.stages import Stage, detect_stages

__all__ = [
    "CurveFit",
    "StagedCurveModel",
    "EarlyCurvePredictor",
    "PredictionOutcome",
    "SlaqCurveModel",
    "Stage",
    "detect_stages",
]
