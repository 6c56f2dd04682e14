"""Paired nonparametric tests for matched binary outcomes.

Implements Cochran's Q omnibus test over k matched binary treatments,
pairwise McNemar tests (exact binomial for small discordant counts,
continuity-corrected chi-square otherwise), Holm step-down adjustment and
the sample variance.
The chi-square survival function is the exact finite sum for an integer
number of degrees of freedom, so the package carries no statistics dependency.
"""

from __future__ import annotations

import math
from typing import Sequence


def chi2_sf(x: float, df: int) -> float:
    """Survival function of the chi-square distribution with ``df`` degrees.

    For an integer ``df`` the tail is a finite sum (Abramowitz & Stegun,
    section 26.4): with h = x/2, the sum over e = 0, 1, ..., df/2 - 1 (even df)
    or e = 1/2, 3/2, ..., df/2 - 1 (odd df, plus erfc(sqrt(h))) of
    exp(-h) h^e / Gamma(e + 1). Each term is formed in log space, so none
    overflows and none underflows before it is negligible.
    """
    if not isinstance(df, int) or df < 1:
        raise ValueError(f"df must be a positive integer, got {df!r}")
    if not math.isfinite(x):
        raise ValueError(f"chi-square statistic must be finite, got {x}")
    if x < 0:
        raise ValueError(f"chi-square statistic must be >= 0, got {x}")
    h = x / 2.0
    if h == 0.0:
        return 1.0
    log_h = math.log(h)
    total = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    for twice_e in range(df % 2, df, 2):
        e = twice_e / 2.0
        total += math.exp(e * log_h - h - math.lgamma(e + 1.0))
    return max(0.0, min(1.0, total))


def _check_binary(values) -> None:
    for v in values:
        if v not in (0, 1):
            raise ValueError(f"expected binary entries, got {v!r}")


def cochran_q(outcomes: Sequence[Sequence[int]]) -> tuple[float, int, float]:
    """Cochran's Q test over an n-by-k matrix of matched binary outcomes.

    Returns (Q, df, p). Rows whose entries are all equal contribute nothing;
    an all-constant matrix yields Q=0, p=1 by convention.
    """
    n = len(outcomes)
    if n < 1:
        raise ValueError("need at least one row")
    k = len(outcomes[0])
    if k < 2:
        raise ValueError("need at least two treatments")
    for row in outcomes:
        if len(row) != k:
            raise ValueError("ragged outcome matrix")
        _check_binary(row)

    col_totals = [sum(column) for column in zip(*outcomes)]
    row_totals = list(map(sum, outcomes))
    grand = sum(row_totals)
    df = k - 1
    denom = k * grand - sum(r * r for r in row_totals)
    if denom == 0:
        return 0.0, df, 1.0
    q = df * (k * sum(c * c for c in col_totals) - grand * grand) / denom
    return q, df, chi2_sf(q, df)


def mcnemar(pairs: Sequence[Sequence[int]]) -> tuple[float, float]:
    """McNemar test on an n-by-2 matrix of paired binary outcomes.

    Uses the exact two-sided binomial test when the discordant count b+c is
    below 25, otherwise the continuity-corrected chi-square statistic.
    Returns (statistic, p).
    """
    b = 0  # first method 1, second 0
    c = 0  # first method 0, second 1
    for row in pairs:
        if len(row) != 2:
            raise ValueError("pairs must have exactly two columns")
        first, second = row
        if first not in (0, 1) or second not in (0, 1):
            _check_binary(row)  # raises, naming the first non-binary entry
        if first != second:
            if first == 1:
                b += 1
            else:
                c += 1
    n_discordant = b + c
    if n_discordant == 0:
        return 0.0, 1.0
    if n_discordant < 25:
        m = min(b, c)
        tail = sum(math.comb(n_discordant, i) for i in range(m + 1))
        p = min(1.0, 2.0 * tail * 0.5**n_discordant)
        return float(m), p
    stat = (abs(b - c) - 1.0) ** 2 / n_discordant
    return stat, chi2_sf(stat, 1)


def holm_adjust(pvalues: Sequence[float]) -> list[float]:
    """Holm step-down adjustment, returned in the original order."""
    m = len(pvalues)
    for p in pvalues:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value out of range: {p}")
    order = sorted(range(m), key=lambda i: pvalues[i])
    adjusted = [0.0] * m
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, min(1.0, (m - rank) * pvalues[idx]))
        adjusted[idx] = running
    return adjusted


def sample_variance(values: Sequence[float]) -> float:
    """Unbiased sample variance (n - 1 denominator); 0.0 for fewer than two values.

    The two-pass float formula, not ``statistics.variance``: that one is exact
    but about 25 times slower on the dozen values of a detection run.
    """
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / (len(values) - 1)
