"""The log-Todd generator series over the rationals."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def log_todd_generator_series(nterms: int) -> list[Fraction]:
    """Coefficients of log(x / (1 - exp(-x))) = x/2 - sum_{m>=2} B_m x^m / (m m!)
    through x^(nterms-1), with the Bernoulli numbers B_m from the
    recurrence sum_{k<=m} C(m+1, k) B_k = 0, B_0 = 1."""
    b = [Fraction(1)]
    for m in range(1, nterms):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return [Fraction(0), Fraction(1, 2)][:nterms] + [-b[m] / (m * factorial(m))
                                                      for m in range(2, nterms)]
