"""Latency statistics: EDFs, summaries, distribution fitting.

Provides the Figure 11 empirical distribution function and the
future-work item "carry out more measurements to produce a more
comprehensive CDF ... and possibly model it with an appropriate
distribution so that it can be used by the community".
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Sequence, Tuple

import numpy as np
from scipy import stats


def empirical_distribution(samples: Sequence[float],
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """The EDF of *samples*: sorted values and cumulative fractions.

    Returns ``(xs, F)`` with ``F[i]`` the fraction of samples <= xs[i];
    plotting ``step(xs, F)`` reproduces Figure 11.
    """
    data = np.sort(np.asarray(list(samples), dtype=float))
    if data.size == 0:
        return np.array([]), np.array([])
    fractions = np.arange(1, data.size + 1) / data.size
    return data, fractions


def edf_at(samples: Sequence[float], x: float) -> float:
    """The EDF evaluated at *x*: fraction of samples <= x."""
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        return float("nan")
    return float((data <= x).mean())


@dataclasses.dataclass(frozen=True)
class LatencySummary:
    """Summary statistics of a latency sample population."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float


def summarize(samples: Sequence[float]) -> LatencySummary:
    """Summary statistics of *samples*."""
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        nan = float("nan")
        return LatencySummary(0, nan, nan, nan, nan, nan, nan, nan)
    return LatencySummary(
        count=int(data.size),
        mean=float(data.mean()),
        std=float(data.std(ddof=1)) if data.size > 1 else 0.0,
        minimum=float(data.min()),
        maximum=float(data.max()),
        p50=float(np.percentile(data, 50)),
        p90=float(np.percentile(data, 90)),
        p99=float(np.percentile(data, 99)),
    )


def bootstrap_mean_ci(samples: Sequence[float], confidence: float = 0.95,
                      resamples: int = 2000, seed: int = 0,
                      ) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval for the mean.

    The paper reports five-run averages with no error bars; this is
    the cheap way to attach them.
    """
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise ValueError("no samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    rng = np.random.default_rng(seed)
    means = rng.choice(data, size=(resamples, data.size),
                       replace=True).mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    return (float(np.quantile(means, alpha)),
            float(np.quantile(means, 1.0 - alpha)))


@dataclasses.dataclass(frozen=True)
class DistributionFit:
    """One candidate distribution fitted to the samples."""

    name: str
    parameters: Tuple[float, ...]
    ks_statistic: float
    ks_pvalue: float
    log_likelihood: float
    aic: float


#: Candidate families for latency modelling.
_CANDIDATES = {
    "normal": stats.norm,
    "lognormal": stats.lognorm,
    "gamma": stats.gamma,
    "weibull": stats.weibull_min,
}

#: Default fitting order (insertion order of ``_CANDIDATES``).
_CANDIDATE_NAMES = tuple(_CANDIDATES)


def fit_distributions(samples: Sequence[float],
                      candidates: Sequence[str] = _CANDIDATE_NAMES,
                      ) -> List[DistributionFit]:
    """Fit candidate distributions; best (lowest AIC) first.

    Latency samples must be positive for the positive-support
    families; non-positive samples restrict fitting to the normal.
    """
    data = np.asarray(list(samples), dtype=float)
    if data.size < 3:
        raise ValueError(f"need at least 3 samples, got {data.size}")
    fits = []
    for name in candidates:
        family = _CANDIDATES.get(name)
        if family is None:
            raise ValueError(f"unknown candidate {name!r}; choose from "
                             f"{sorted(_CANDIDATES)}")
        if name != "normal" and data.min() <= 0:
            continue
        try:
            params = family.fit(data)
            log_likelihood = float(np.sum(family.logpdf(data, *params)))
            if not math.isfinite(log_likelihood):
                continue
            ks = stats.kstest(data, family.cdf, args=params)
            fits.append(DistributionFit(
                name=name,
                parameters=tuple(float(p) for p in params),
                ks_statistic=float(ks.statistic),
                ks_pvalue=float(ks.pvalue),
                log_likelihood=log_likelihood,
                aic=2.0 * len(params) - 2.0 * log_likelihood,
            ))
        except (RuntimeError, ValueError):
            continue
    fits.sort(key=lambda fit: fit.aic)
    return fits
