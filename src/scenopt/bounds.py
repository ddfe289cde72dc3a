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
sum comfortably below 1e-12 in the ranges this package works in.

Only terms that can be nonzero are evaluated; a term equal to 0.0 adds
nothing to an exact sum.  The recurrence stops at its first term that is
exactly 0.0, since every later one is 0.0 times a finite factor.  In log
space the terms that can be nonzero lie in one window of indices around
the mode, found by bisection (_log_window); it grows as
sqrt(m eps (1-eps)), not with m.  A tail whose window holds more than
_MAX_TERMS = 2**22 terms raises ValueError instead of running for minutes
(the recurrence path never comes close: its terms vanish within a few
thousand indices).  Each tail is the correctly rounded sum of its terms
(math.fsum), which does not depend on their order; they go in largest
first, which keeps fsum's list of partials short.

Sizing queries sweep the terms once.  max_removable keeps the running sum
exactly, as an integer count of 2**-1074 (every double is a whole number
of these units), and rounds it once per candidate r; integer true division
rounds correctly just as math.fsum does, so each rounded prefix equals the
tail a per-r evaluation would return, bit for bit.  Its sweep starts at the
window's first index.  invert_epsilon computes each log C(m, i) at most
once, on the first bisection step whose window holds i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

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

# math.exp is 0.0 below log(2**-1075) = -745.13, where e^x is under half the
# smallest subnormal; the extra 0.87 leaves room for a libm that does not
# round correctly there.  Log-space terms below this are exactly 0.0.
_LOG_ZERO = -746.0

# Relative rounding allowance of a log-space term's argument: 2**13 units in
# the last place of its largest part (see _log_window).
_LOG_ARG_ERR = 2.0**-40

# The most terms a tail may evaluate (and max_removable may sweep).
_MAX_TERMS = 2**22


def _check_m(m: int) -> None:
    if m > _MAX_M:
        raise ValueError(f"m must be at most 2**53, got {m}")


def _validate_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 <= eps <= 1.0 or math.isnan(eps):
        raise ValueError(f"epsilon must lie in [0, 1], got {eps}")
    return eps


def _log_combs(m: int, start: int = 0):
    """Yield log C(m, i) for i = start, start + 1, ..., m: the log of the
    exact integer, carried from math.comb(m, start) by C(m, i+1) =
    C(m, i) * (m-i) // (i+1), wherever the switches above allow it, and
    log-gamma elsewhere."""
    exact = m <= _MAX_EXACT_COMB_M
    comb = math.comb(m, start) if exact else 0
    for i in count(start):
        if exact and comb <= _MAX_EXACT_COMB:
            yield math.log(comb)
        else:
            yield math.lgamma(m + 1) - math.lgamma(i + 1) - math.lgamma(m - i + 1)
        if exact:
            comb = comb * (m - i) // (i + 1)


def _memo_log_combs(m: int):
    """log_combs(lo, hi) -> log C(m, i) for i = lo .. hi, computing each
    value once, from one exact anchor per run of indices not seen before."""
    memo: dict[int, float] = {}
    spans: list[tuple[int, int]] = []  # index ranges already in memo

    def fill(lo: int, hi: int) -> None:
        memo.update(zip(range(lo, hi + 1), _log_combs(m, lo)))

    def log_combs(lo: int, hi: int):
        i = lo
        for a, b in sorted(spans):
            if a > hi:
                break
            if a > i:
                fill(i, a - 1)
            i = max(i, b + 1)
        if i <= hi:
            fill(i, hi)
        if lo <= hi:
            spans.append((lo, hi))
        return map(memo.__getitem__, range(lo, hi + 1))

    return log_combs


def _first_true(pred, lo: int, hi: int) -> int:
    """Bisection: the b in [lo, hi] where pred turns true on [lo, hi).

    pred(b) was seen true unless b == hi, and pred(b - 1) was seen false
    unless b == lo.
    """
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _log_window(m: int, k_max: int, eps: float, log_eps: float,
                log_1m: float) -> tuple[int, int]:
    """(lo, hi): every log-space term with index outside [lo, hi] is 0.0.

    hi <= k_max, and lo > hi when no term up to k_max can be nonzero.
    Let R(i) = log C(m, i) + i log_eps + (m - i) log_1m, in exact
    arithmetic on the two rounded logs.  A term is exp of R(i) evaluated in
    floats; the bisection reads g(i), R(i) evaluated in floats through
    log-gamma.  Every part of either sum is at most
    S = 3 lgamma(m + 1) + m (|log_eps| + |log_1m|) in magnitude, so both lie
    within E = 2**-40 S of R(i): that allows 2**13 ulps of S, which covers
    the handful of roundings and the few-ulp errors of log and lgamma.
    Below the floor F = _LOG_ZERO - 2E, g(i) < F gives R(i) < F + E and a
    term argument below _LOG_ZERO, so the term is 0.0.

    R is concave in i (log-gamma is convex).  The exact log-pmf peaks
    within one index of mu = floor((m+1) eps), computed in integers from
    eps's binary value.  Rounding the logs tilts R's slope by at most
    2**-52 (|log eps| + |log(1-eps)|), which moves the peak by at most that
    times m eps (1-eps), R's inverse curvature there: under 0.7 for
    m <= 2**53.  So R rises on [0, mu - 2] and falls on [mu + 2, m].  On
    the rising part the bisection returns lo with g(lo - 1) < F, hence
    R(i) <= R(lo - 1) < F + E for every i < lo; the falling part is the
    mirror image.  Indices mu - 1 .. mu + 1 are always kept.
    """
    lg_m = math.lgamma(m + 1)
    floor = _LOG_ZERO - 2.0 * _LOG_ARG_ERR * (
        3.0 * lg_m + m * (abs(log_eps) + abs(log_1m)))

    def above(i: int) -> bool:
        return (lg_m - math.lgamma(i + 1) - math.lgamma(m - i + 1)
                + i * log_eps + (m - i) * log_1m) >= floor

    a, q = eps.as_integer_ratio()
    mu = (m + 1) * a // q
    lo = _first_true(above, 0, max(mu - 1, 0))
    if k_max < mu + 2:
        return lo, k_max
    return lo, _first_true(lambda i: not above(i), mu + 2, k_max + 1) - 1


def _recurrence_terms(m: int, eps: float, log_t0: float, k_max: int):
    term = math.exp(log_t0)
    ratio = eps / (1.0 - eps)
    yield term
    for i in range(1, k_max + 1):
        term *= ratio * (m - i + 1) / i
        if term == 0.0:
            return  # every later term is 0.0 times a finite factor
        yield term


def _tail_terms(m: int, eps: float, k_max: int, log_combs=None):
    """(first, terms): the terms C(m, i) eps^i (1-eps)^(m-i) for i = first,
    first + 1, ... (at most to k_max < m) that can be nonzero, in index
    order, as a lazy iterable.  Every term left out is exactly 0.0.

    The usual regime runs a multiplicative term recurrence seeded by the
    log of the i=0 term; every term stays a moderate float even when the
    binomial coefficient alone would overflow.  When (1-eps)^m itself
    underflows, each term of _log_window's window is evaluated on its own
    in log space from log C(m, i): log_combs(lo, hi) supplies them
    (_memo_log_combs, for a caller that evaluates many eps), else
    _log_combs.  Raises ValueError when the window exceeds _MAX_TERMS.
    """
    if eps == 1.0:
        return k_max + 1, ()  # only the i = m term is nonzero
    log_1m = math.log1p(-eps)
    log_t0 = m * log_1m
    if log_t0 > -700.0:
        return 0, _recurrence_terms(m, eps, log_t0, k_max)
    log_eps = math.log(eps)
    lo, hi = _log_window(m, k_max, eps, log_eps, log_1m)
    if hi - lo + 1 > _MAX_TERMS:
        raise ValueError(
            f"the binomial tail at m={m}, eps={eps} spans {hi - lo + 1} "
            f"terms that may be nonzero, more than the cap of 2**22 terms")
    coeffs = log_combs(lo, hi) if log_combs is not None else _log_combs(m, lo)
    return lo, (math.exp(log_comb + i * log_eps + (m - i) * log_1m)
                for i, log_comb in zip(range(lo, hi + 1), coeffs))


def _tail(m: int, k_max: int, eps: float, log_combs=None) -> float:
    _, terms = _tail_terms(m, eps, k_max, log_combs)
    return min(1.0, math.fsum(sorted(terms, reverse=True)))


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
    Raises ValueError when more than 2**22 of them can be nonzero.
    """
    m = int(m)
    k_max = int(k_max)
    eps = _validate_eps(eps)
    if m < 1:
        raise ValueError("m must be positive")
    _check_m(m)
    if not 0 <= k_max < m:
        raise ValueError(f"k_max must satisfy 0 <= k_max < m, got {k_max}")
    return _tail(m, k_max, eps)


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
    call, on the first step whose window holds i, and shared by every later
    step.  Each step returns exactly the value of the public bound function
    at its eps, and raises the same ValueError past the 2**22-term cap.
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
    log_combs = _memo_log_combs(m)

    def bound(eps: float) -> float:
        return _bound_value(formula, d, r, _tail(m, r + d - 1, eps, log_combs))

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
    failure.  The scan is one sweep over the tail's terms that can be
    nonzero: r's tail T(m, r+d-1, eps) is the previous one plus one term,
    summed exactly and rounded once, which equals math.fsum of the prefix
    bit for bit.  Every r whose prefix ends before the first such term has
    tail 0 <= beta, so the sweep starts there; past the last one the tail
    stays put.  So the answer is the one a per-r evaluation of the public
    bound functions gives, in time linear in the nonzero terms swept, which
    grow as sqrt(m eps (1-eps)), not with the answer.  When more than 2**22
    terms up to k = m - 2 can be nonzero, ValueError is raised before any
    is evaluated.  With batch=True the result is floored to the nearest
    multiple of d, matching schemes that can only discard whole batches.
    """
    beta = float(beta)
    eps = _validate_eps(eps)
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    m, d = int(m), int(d)
    _check_formula(formula)
    _check_query(m, d, 0)
    r_last = m - d - 1  # the largest r with m > r + d; its prefix is k = m - 2
    first, terms = _tail_terms(m, eps, m - 2)
    k, tail = first - 1, 0.0
    for k, tail in enumerate(_prefix_sums(terms), first):
        r = k - d + 1
        if r >= 0 and _bound_value(formula, d, r, min(1.0, tail)) > beta:
            break
    else:
        # Past the last nonzero term every prefix sums to this tail.  The
        # cascade and compression bounds stay put, and so does the classical
        # one at d = 1; beta >= 1 passes every clamped value.  Otherwise the
        # classical factor C(r+d-1, r) >= r + 1 grows until it fails.
        r = max(k - d + 2, 0)
        constant = formula != "classical" or d == 1 or beta >= 1.0
        while r <= r_last and _bound_value(formula, d, r, min(1.0, tail)) <= beta:
            r = r_last + 1 if constant else r + 1
    best = max(r - 1, 0)
    if batch:
        best -= best % d
    return best
