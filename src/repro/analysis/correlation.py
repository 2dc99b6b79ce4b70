"""Statistical helpers: correlations and linear fits used by the experiments.

Fig. 4 of the paper reports the linear correlation between per-macro Rtog and
IR-drop (0.977 for DPIM, 0.998 for APIM); these helpers compute the same
quantities for the reproduction's traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["LinearFit", "pearson_correlation", "linear_fit", "rank_correlation"]


@dataclass
class LinearFit:
    """Least-squares line ``y = slope * x + intercept`` plus its correlation."""

    slope: float
    intercept: float
    correlation: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.slope * np.asarray(x) + self.intercept


def pearson_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient; 0.0 for degenerate inputs."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise ValueError("x and y must have the same length")
    if x.size < 2 or np.allclose(x.std(), 0) or np.allclose(y.std(), 0):
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def rank_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation — checks the partial-order claim of Sec. 4.1."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 2 or np.allclose(x.std(), 0) or np.allclose(y.std(), 0):
        return 0.0
    from scipy import stats     # imported on first use: ~1 s per process
    result = stats.spearmanr(x, y)
    return float(result.correlation)


def linear_fit(x: Sequence[float], y: Sequence[float]) -> LinearFit:
    """Least-squares linear fit of y on x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two matching points")
    slope, intercept = np.polyfit(x, y, deg=1)
    return LinearFit(slope=float(slope), intercept=float(intercept),
                     correlation=pearson_correlation(x, y))
