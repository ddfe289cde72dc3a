"""Violation-probability tail bounds and their numerical inversion.

Everything here is a transformation of the binomial lower tail

    T(m, k, eps) = sum_{i=0}^{k} C(m, i) eps^i (1 - eps)^(m - i),

which bounds (or, for the tight families, equals) the probability that a
solution obtained after discarding scenarios violates more than an eps
fraction of the uncertainty.  Three formulas are exposed:

  cascade      T(m, r + d - 1, eps)             batched removal of r = ell*d
  classical    C(r+d-1, r) * T(m, r+d-1, eps)   one-at-a-time discarding,
                                                prefactored (can exceed 1)
  compression  T(m, zeta - 1, eps)              unique compression set of
                                                cardinality zeta (equality)

All functions are pure.  The terms of the tail come from one source: a
multiplicative recurrence seeded by (1-eps)^m, or, when that product
underflows, per-term evaluation in log space, so that huge binomial
coefficients and tiny tail products neither overflow nor underflow.  When
C(m, i) is representable in double precision its exact integer value, built
from C(m, i-1) by an exact integer recurrence, anchors the term; otherwise
log C(m, i) comes from math.lgamma.  This keeps the absolute error of the
sum comfortably below 1e-12 in the ranges this package works in.  Each tail
is the correctly rounded sum of its terms (math.fsum).

Sizing queries sweep the terms once.  max_removable keeps the running sum
exactly, as an integer count of 2**-1074 (every double is a whole number
of these units), and rounds it once per candidate r; integer true division
rounds correctly just as math.fsum does, so each rounded prefix equals the
tail a per-r evaluation would return, bit for bit.  invert_epsilon computes
each log C(m, i) once and reuses it at every bisection step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice, repeat

_FORMULAS = ("cascade", "classical", "compression")

# Exact binomial coefficients above this are replaced by log-gamma, and so
# are all of them beyond _MAX_EXACT_COMB_M samples; these switches fix which
# terms an exact integer anchors, and so the bits of every tail.
_MAX_EXACT_COMB = 1e300
_MAX_EXACT_COMB_M = 10_000

# 2**-1074 is the smallest subnormal double; every finite double is a whole
# multiple of it, so sums of doubles in these units are exact integers.
_UNIT_EXP = 1074
_UNIT_SCALE = 1 << _UNIT_EXP

# invert_epsilon bisects down to an interval of this absolute width in eps.
_BISECT_WIDTH = 1e-9

# The largest sample count a double holds exactly; the log-space terms and
# log-gamma take m as a float.
_MAX_M = 2**53


def _check_m(m: int) -> None:
    if m > _MAX_M:
        raise ValueError(f"m must be at most 2**53, got {m}")


def _validate_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 <= eps <= 1.0 or math.isnan(eps):
        raise ValueError(f"epsilon must lie in [0, 1], got {eps}")
    return eps


def _log_combs(m: int):
    """Yield log C(m, i) for i = 0, 1, ..., m: the log of the exact integer,
    carried by C(m, i+1) = C(m, i) * (m-i) // (i+1), wherever the switches
    above allow it, and log-gamma elsewhere."""
    exact = m <= _MAX_EXACT_COMB_M
    comb = 1
    for i in count():
        if exact and comb <= _MAX_EXACT_COMB:
            yield math.log(comb)
        else:
            yield math.lgamma(m + 1) - math.lgamma(i + 1) - math.lgamma(m - i + 1)
        if exact:
            comb = comb * (m - i) // (i + 1)


def _tail_terms(m: int, eps: float, log_coeffs):
    """Yield C(m, i) eps^i (1-eps)^(m-i) for i = 0, 1, ... (for i < m).

    The usual regime runs a multiplicative term recurrence seeded by the
    log of the i=0 term; every term stays a moderate float even when the
    binomial coefficient alone would overflow.  When (1-eps)^m itself
    underflows, each term is evaluated independently in log space from
    log C(m, i), the i-th item of log_coeffs (_log_combs(m), or a list of
    its items shared by a caller that evaluates many eps).
    """
    if eps == 1.0:
        yield from repeat(0.0)  # only the i = m term is nonzero
        return
    log_1m = math.log1p(-eps)
    log_t0 = m * log_1m
    if log_t0 > -700.0:
        term = math.exp(log_t0)
        ratio = eps / (1.0 - eps)
        yield term
        for i in count(1):
            term *= ratio * (m - i + 1) / i
            yield term
    else:
        log_eps = math.log(eps)
        for i, log_comb in enumerate(log_coeffs):
            yield math.exp(log_comb + i * log_eps + (m - i) * log_1m)


def _tail(m: int, k_max: int, eps: float, log_coeffs) -> float:
    terms = islice(_tail_terms(m, eps, log_coeffs), k_max + 1)
    return min(1.0, math.fsum(terms))


def _prefix_sums(terms):
    """Yield the correctly rounded sum of each prefix of finite doubles.

    The running sum is an exact integer count of 2**-1074 and is rounded
    once per prefix.  Python's integer true division rounds correctly, and
    so does math.fsum, so each value equals math.fsum of its prefix.
    """
    exact = 0
    for x in terms:
        num, den = x.as_integer_ratio()  # den is a power of two <= 2**1074
        exact += num << (_UNIT_EXP + 1 - den.bit_length())
        yield exact / _UNIT_SCALE


def binom_tail(m: int, k_max: int, eps: float) -> float:
    """Lower binomial tail P[Bin(m, eps) <= k_max], 0 <= k_max < m.

    The correctly rounded sum of the first k_max + 1 terms, clamped to 1.
    """
    m = int(m)
    k_max = int(k_max)
    eps = _validate_eps(eps)
    if m < 1:
        raise ValueError("m must be positive")
    _check_m(m)
    if not 0 <= k_max < m:
        raise ValueError(f"k_max must satisfy 0 <= k_max < m, got {k_max}")
    return _tail(m, k_max, eps, _log_combs(m))


@dataclass(frozen=True)
class BoundValue:
    """Evaluated tail probability; raw keeps any value above 1 unclamped."""

    value: float
    raw: float
    formula: str


def bound_cascade(m: int, d: int, r: int, eps: float) -> BoundValue:
    """Batched-removal bound T(m, r+d-1, eps); requires m > r + d."""
    _check_query(m, d, r)
    value = binom_tail(m, r + d - 1, eps)
    return BoundValue(value=value, raw=value, formula="cascade")


def bound_classical(m: int, d: int, r: int, eps: float) -> BoundValue:
    """Classical bound C(r+d-1, r) * T(m, r+d-1, eps); raw may exceed 1."""
    _check_query(m, d, r)
    raw = _classical_raw(d, r, binom_tail(m, r + d - 1, eps))
    return BoundValue(value=min(raw, 1.0), raw=raw, formula="classical")


def _classical_raw(d: int, r: int, tail: float) -> float:
    """C(r+d-1, r) * tail, through logarithms once the factor passes 1e300."""
    factor = math.comb(r + d - 1, r)
    if factor <= _MAX_EXACT_COMB:
        return factor * tail
    if tail == 0.0:
        return 0.0
    log_factor = math.lgamma(r + d) - math.lgamma(r + 1) - math.lgamma(d)
    return math.exp(log_factor + math.log(tail))


def bound_compression(m: int, zeta: int, eps: float) -> BoundValue:
    """Compression equality T(m, zeta-1, eps) for cardinality zeta < m."""
    m, zeta = int(m), int(zeta)
    _check_zeta(m, zeta)
    value = binom_tail(m, zeta - 1, eps)
    return BoundValue(value=value, raw=value, formula="compression")


def analytic_violation_cdf(m: int, r: int, eps: float) -> float:
    """Exact outer probability T(m, r, eps) for the 1-D uniform family.

    For minimizing x over [0, 1] subject to x >= delta_i with uniform
    samples and r single removals, the final solution sits below 1 - eps
    exactly when at most r samples exceed 1 - eps.  Coincides with the
    cascade bound at d = 1, which is what makes that bound tight.
    """
    m, r = int(m), int(r)
    if not 0 <= r < m:
        raise ValueError(f"r must satisfy 0 <= r < m, got r={r} m={m}")
    return binom_tail(m, r, eps)


def _check_query(m: int, d: int, r: int) -> None:
    m, d, r = int(m), int(d), int(r)
    _check_m(m)
    if d < 1:
        raise ValueError("d must be at least 1")
    if r < 0:
        raise ValueError("r must be nonnegative")
    if m <= r + d:
        raise ValueError(f"m must exceed r + d, got m={m}, r+d={r + d}")


def _check_zeta(m: int, zeta: int) -> None:
    _check_m(m)
    if not 0 < zeta < m:
        raise ValueError(f"zeta must satisfy 0 < zeta < m, got zeta={zeta} m={m}")


def _check_formula(formula: str) -> None:
    if formula not in _FORMULAS:
        raise ValueError(f"unknown formula {formula!r}; expected one of {_FORMULAS}")


def _bound_value(formula: str, d: int, r: int, tail: float) -> float:
    """A formula's clamped value at removal count r, from T(m, r+d-1, eps)."""
    if formula == "classical":
        return min(_classical_raw(d, r, tail), 1.0)
    return tail


@dataclass(frozen=True)
class EpsilonInversion:
    """Result of inverting a bound in epsilon at confidence beta."""

    epsilon: float
    at_lower_boundary: bool


def invert_epsilon(
    m: int,
    d: int,
    r: int,
    beta: float,
    formula: str = "cascade",
) -> EpsilonInversion:
    """Smallest eps with bound(m, d, r, eps) <= beta, by bisection.

    The tail is strictly decreasing in eps on (0, 1) for k_max < m, so the
    acceptance region is an interval reaching eps = 1 and bisection to an
    absolute width of _BISECT_WIDTH (1e-9) locates its left endpoint, which
    is returned as the upper end of the final interval.  When even eps -> 0
    already satisfies beta (only possible for beta >= the eps=0 value), the
    boundary flag is set and 0 is returned.

    log C(m, i) does not depend on eps: each is computed at most once per
    call and shared by every bisection step.  Each step returns exactly
    the value of the public bound function at its eps.
    """
    beta = float(beta)
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    m, d, r = int(m), int(d), int(r)
    _check_formula(formula)
    if formula == "compression":
        _check_zeta(m, r + d)
    else:
        _check_query(m, d, r)
    log_coeffs = list(islice(_log_combs(m), r + d))

    def bound(eps: float) -> float:
        return _bound_value(formula, d, r, _tail(m, r + d - 1, eps, log_coeffs))

    if bound(0.0) <= beta:
        return EpsilonInversion(epsilon=0.0, at_lower_boundary=True)
    lo, hi = 0.0, 1.0
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if bound(mid) <= beta:
            hi = mid
        else:
            lo = mid
    return EpsilonInversion(epsilon=hi, at_lower_boundary=False)


def max_removable(
    m: int,
    d: int,
    eps: float,
    beta: float,
    formula: str = "cascade",
    batch: bool = False,
) -> int:
    """Largest r with bound(m, d, r, eps) <= beta; 0 when even r=0 fails.

    The bound increases with r, so an upward scan stops at the first
    failure.  The scan is one sweep over the tail's terms: r's tail
    T(m, r+d-1, eps) is the previous one plus one term, summed exactly and
    rounded once, which equals math.fsum of the prefix bit for bit.  So
    the answer is the one a per-r evaluation of the public bound functions
    gives, in time linear in it.  With batch=True the result is floored to
    the nearest multiple of d, matching schemes that can only discard whole
    batches.
    """
    beta = float(beta)
    eps = _validate_eps(eps)
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    m, d = int(m), int(d)
    _check_formula(formula)
    _check_query(m, d, 0)
    # prefix k = r + d - 1 for r = 0 .. m - d - 1, the largest r with m > r + d
    tails = islice(_prefix_sums(_tail_terms(m, eps, _log_combs(m))), d - 1, m - 1)
    best = 0
    for r, tail in enumerate(tails):
        if _bound_value(formula, d, r, min(1.0, tail)) <= beta:
            best = r
        else:
            break
    if batch:
        best -= best % d
    return best
