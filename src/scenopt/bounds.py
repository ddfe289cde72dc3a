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
coefficients and tiny tail products neither overflow nor underflow.  A
log-space term takes log C(m, i) from _log_comb: the log of the exact
integer math.comb(m, i) while that is at most 1e300 and m <= 10,000, and
log-gamma otherwise.  This keeps the absolute error of the sum comfortably
below 1e-12 in the ranges this package works in.

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

Each bisection step of invert_epsilon needs only a verdict, bound <= beta.
On the log-space path it walks the window down from its top index, and
stops as soon as a certified lower or upper bound on the window's exact sum
(the float running sum widened by the error bound of recursive summation,
plus a geometric bound on the terms not yet read) settles the verdict; the
bound formulas round monotonically in the tail, so that verdict is the one
the exact tail gives (_tail_accepted).  Only when the two bounds straddle
beta, a near-tie, is the whole window read and summed exactly.  So every
verdict, and every answer, is the one exact summation gives, bit for bit,
from the largest few dozen terms of each window.  The check bound <= beta
is built once per query, with its classical factor (_accepts).

Sizing queries (max_removable) look for the first removal count r whose
bound fails.  On the log-space path, when it lies below the tail's mode,
they bisect in r with the same certified verdicts: the verdicts are
monotone in r, so the search finds the first failure a sweep finds, from
a few dozen terms (_search).  Otherwise they sweep the terms once from the
window's first index, keeping the running sum exactly, as an integer count
of 2**-1074 (every double is a whole number of these units), and rounding
it once per candidate r; integer true division rounds correctly just as
math.fsum does, so each rounded prefix equals the tail a per-r evaluation
would return, bit for bit (_sweep).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

_FORMULAS = ("cascade", "classical", "compression")

# Exact binomial coefficients above this are replaced by log-gamma, and so
# are all of them beyond _MAX_EXACT_COMB_M samples; these switches fix which
# log C(m, i) come from the exact integer (_log_comb), and so the bits of
# every tail.
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

# invert_epsilon's certified decision (_tail_accepted): the relative slack
# that outweighs the roundings of its bounds, and the subnormal spacing.
_SLACK = 1.0 + 2.0**-40
_TINY = 2.0**-1074


def _check_ints(**counts: int) -> list[int]:
    """The counts as ints.  Python and numpy integers pass; a float, a
    string or any other non-integer raises ValueError instead of being
    truncated."""
    ints = []
    for name, value in counts.items():
        try:
            ints.append(operator.index(value))
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
    return ints


def _check_m(m: int) -> None:
    if m > _MAX_M:
        raise ValueError(f"m must be at most 2**53, got {m}")


def _validate_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 <= eps <= 1.0 or math.isnan(eps):
        raise ValueError(f"epsilon must lie in [0, 1], got {eps}")
    return eps


def _log_comb(m: int, i: int) -> float:
    """log C(m, i): the log of the exact integer math.comb(m, i) where the
    switches above allow it, and log-gamma elsewhere.

    log(1e300) = 690.78, and for m <= _MAX_EXACT_COMB_M the rounding of the
    log-gamma expression lg is below 1e-9, so every C(m, i) <= 1e300 has
    lg < 691: math.comb runs for each index whose exact integer is used
    (and a few just above the switch), never for the rest.
    """
    lg = math.lgamma(m + 1) - math.lgamma(i + 1) - math.lgamma(m - i + 1)
    if m <= _MAX_EXACT_COMB_M and lg < 691.0:
        comb = math.comb(m, i)
        if comb <= _MAX_EXACT_COMB:
            return math.log(comb)
    return lg


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


def _mode(m: int, eps: float) -> int:
    """mu = floor((m + 1) eps), computed in integers from eps's binary
    value; the exact log-pmf of Bin(m, eps) peaks within one index of it."""
    a, q = eps.as_integer_ratio()
    return (m + 1) * a // q


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
    floor = _LOG_ZERO - 2.0 * _log_arg_err(m, log_eps, log_1m)

    def above(i: int) -> bool:
        return (lg_m - math.lgamma(i + 1) - math.lgamma(m - i + 1)
                + i * log_eps + (m - i) * log_1m) >= floor

    mu = _mode(m, eps)
    lo = _first_true(above, 0, max(mu - 1, 0))
    if k_max < mu + 2:
        return lo, k_max
    return lo, _first_true(lambda i: not above(i), mu + 2, k_max + 1) - 1


def _recurrence_terms(m: int, eps: float, log_1m: float, k_max: int):
    term = math.exp(m * log_1m)
    ratio = eps / (1.0 - eps)
    yield term
    for i in range(1, k_max + 1):
        term *= ratio * (m - i + 1) / i
        if term == 0.0:
            return  # every later term is 0.0 times a finite factor
        yield term


def _log_arg_err(m: int, log_eps: float, log_1m: float) -> float:
    """E: how far a log-space term's argument, or _log_window's g(i), may
    sit from R(i) (see _log_window)."""
    return _LOG_ARG_ERR * (3.0 * math.lgamma(m + 1)
                           + m * (abs(log_eps) + abs(log_1m)))


def _log_space(m: int, eps: float, k_max: int):
    """(lo, hi, log_eps, log_1m) when the terms of T(m, k_max, eps), eps <
    1, are evaluated in log space on the window [lo, hi]; None when they
    come from the term recurrence.  Raises ValueError when the window
    exceeds _MAX_TERMS, before any term is evaluated."""
    log_1m = math.log1p(-eps)
    if m * log_1m > -700.0:
        return None
    log_eps = math.log(eps)
    lo, hi = _log_window(m, k_max, eps, log_eps, log_1m)
    if hi - lo + 1 > _MAX_TERMS:
        raise ValueError(
            f"the binomial tail at m={m}, eps={eps} spans {hi - lo + 1} "
            f"terms that may be nonzero, more than the cap of 2**22 terms")
    return lo, hi, log_eps, log_1m


def _log_term(m: int, i: int, log_eps: float, log_1m: float) -> float:
    """The log-space term C(m, i) eps^i (1-eps)^(m-i); every log-space term
    is evaluated here."""
    return math.exp(_log_comb(m, i) + i * log_eps + (m - i) * log_1m)


def _tail_terms(m: int, eps: float, k_max: int):
    """(first, terms): the terms C(m, i) eps^i (1-eps)^(m-i) for i = first,
    first + 1, ... (at most to k_max < m) that can be nonzero, in index
    order, as a lazy iterable.  Every term left out is exactly 0.0.

    The usual regime runs a multiplicative term recurrence seeded by the
    log of the i=0 term; every term stays a moderate float even when the
    binomial coefficient alone would overflow.  When (1-eps)^m itself
    underflows, each term of _log_window's window is evaluated on its own
    in log space (_log_term).  Raises ValueError when the window exceeds
    _MAX_TERMS.
    """
    if eps == 1.0:
        return k_max + 1, ()  # only the i = m term is nonzero
    space = _log_space(m, eps, k_max)
    if space is None:
        return 0, _recurrence_terms(m, eps, math.log1p(-eps), k_max)
    lo, hi, log_eps, log_1m = space
    return lo, (_log_term(m, i, log_eps, log_1m) for i in range(lo, hi + 1))


def _tail(m: int, k_max: int, eps: float) -> float:
    _, terms = _tail_terms(m, eps, k_max)
    return _exact_sum(terms)


def _exact_sum(terms) -> float:
    """The correctly rounded sum of the terms, clamped to 1."""
    return min(1.0, math.fsum(sorted(terms, reverse=True)))


def _tail_accepted(m: int, k_max: int, eps: float, accepts, space) -> bool:
    """accepts(T(m, k_max, eps)) for 0 < eps < 1, where accepts is a
    predicate on tails in [0, 1] that turns false from some tail upward,
    and space is the caller's _log_space(m, eps, k_max).

    On the log-space path the window is walked from its top index down,
    keeping the float running sum s of the n terms seen.  Recursive
    summation of positive terms is off by at most gamma_{n-1} < g = (n+4)
    2**-52 of their exact sum (Higham, Accuracy and Stability of Numerical
    Algorithms, 4.2), so L = s (1 - g) bounds the sum of the window from
    below, and U = (s + rest) (1 + g) from above, where rest bounds the
    terms below index j, the last one seen; each is rounded once more
    outward with math.nextafter.  Floats that bound the exact sum also
    bound its correctly rounded value, the tail _tail returns, and accepts
    is monotone: not accepts(L) decides false and accepts(U) decides true,
    each with the verdict of the exact sum.

    rest: R(i) (see _log_window) is concave, so exp(R(i - 1) - R(i)) =
    rho_i = i / (m - i + 1) exp(log_1m - log_eps) grows with i, and once
    rho_j < 1 the terms below j add up to at most exp(R(j)) rho_j /
    (1 - rho_j).  A computed term lies within a factor exp(E) and one ulp
    of exp(R(i)), E = _log_arg_err, or within 2**-1074 when subnormal, so
    rest = pad (t_j + 2**-1074) rho_j / (1 - rho_j) + (j - lo + 1) 2**-1074
    with pad = exp(2E) (1 + 2**-40) and rho_j rounded up by 2**-40: these
    slacks outweigh every rounding of the few float operations involved.
    Past E = 300 (m beyond a few 10**12) exp(2E) nears overflow, and the
    window is summed exactly instead.

    When the whole window is read and neither bound decides, the tail lies
    within a factor 1 +- g of the verdict's turning point: the exact sum of
    the terms seen, which are the whole window, decides.  The recurrence
    path is summed exactly as _tail does.
    """
    if space is None:
        return accepts(_tail(m, k_max, eps))
    lo, hi, log_eps, log_1m = space
    err = _log_arg_err(m, log_eps, log_1m)
    if err > 300.0:
        return accepts(_tail(m, k_max, eps))
    pad = math.exp(2.0 * err) * _SLACK
    ratio = math.exp(log_1m - log_eps) * _SLACK
    seen = []
    s = 0.0
    for j in range(hi, lo - 1, -1):
        t = _log_term(m, j, log_eps, log_1m)
        seen.append(t)
        s += t
        g = (len(seen) + 4) * 2.0**-52
        if not accepts(min(1.0, math.nextafter(s * (1.0 - g), 0.0))):
            return False
        rho = j / (m - j + 1) * ratio
        if rho >= 1.0:
            continue
        rest = 0.0 if j == lo else (
            (t + _TINY) * (pad * rho / (1.0 - rho)) + (j - lo + 1) * _TINY)
        if accepts(min(1.0, math.nextafter((s + rest) * (1.0 + g), math.inf))):
            return True
    return accepts(_exact_sum(seen))


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
    m, k_max = _check_ints(m=m, k_max=k_max)
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
    m, d, r = _check_query(m, d, r)
    value = binom_tail(m, r + d - 1, eps)
    return BoundValue(value=value, raw=value, formula="cascade")


def bound_classical(m: int, d: int, r: int, eps: float) -> BoundValue:
    """Classical bound C(r+d-1, r) * T(m, r+d-1, eps); raw may exceed 1."""
    m, d, r = _check_query(m, d, r)
    raw = _classical_raw(d, r)(binom_tail(m, r + d - 1, eps))
    return BoundValue(value=min(raw, 1.0), raw=raw, formula="classical")


def _classical_raw(d: int, r: int):
    """The map tail -> C(r+d-1, r) * tail, with the factor computed once:
    a product with the exact integer while that is at most 1e300 (an int
    times a float is the int rounded to a float times the float, so
    rounding it here first gives the same bits), and through logarithms
    past it, where a product above the largest double is inf."""
    factor = math.comb(r + d - 1, r)
    if factor <= _MAX_EXACT_COMB:
        factor = float(factor)
        return lambda tail: factor * tail
    log_factor = math.lgamma(r + d) - math.lgamma(r + 1) - math.lgamma(d)

    def raw(tail: float) -> float:
        try:
            return math.exp(log_factor + math.log(tail)) if tail else 0.0
        except OverflowError:  # the product exceeds the largest double
            return math.inf

    return raw


def bound_compression(m: int, zeta: int, eps: float) -> BoundValue:
    """Compression equality T(m, zeta-1, eps) for cardinality zeta < m."""
    m, zeta = _check_zeta(m, zeta)
    value = binom_tail(m, zeta - 1, eps)
    return BoundValue(value=value, raw=value, formula="compression")


def analytic_violation_cdf(m: int, r: int, eps: float) -> float:
    """Exact outer probability T(m, r, eps) for the 1-D uniform family.

    For minimizing x over [0, 1] subject to x >= delta_i with uniform
    samples and r single removals, the final solution sits below 1 - eps
    exactly when at most r samples exceed 1 - eps.  Coincides with the
    cascade bound at d = 1, which is what makes that bound tight.
    """
    m, r = _check_ints(m=m, r=r)
    if not 0 <= r < m:
        raise ValueError(f"r must satisfy 0 <= r < m, got r={r} m={m}")
    return binom_tail(m, r, eps)


def _check_query(m: int, d: int, r: int) -> tuple[int, int, int]:
    m, d, r = _check_ints(m=m, d=d, r=r)
    _check_m(m)
    if d < 1:
        raise ValueError("d must be at least 1")
    if r < 0:
        raise ValueError("r must be nonnegative")
    if m <= r + d:
        raise ValueError(f"m must exceed r + d, got m={m}, r+d={r + d}")
    return m, d, r


def _check_zeta(m: int, zeta: int) -> tuple[int, int]:
    m, zeta = _check_ints(m=m, zeta=zeta)
    _check_m(m)
    if not 0 < zeta < m:
        raise ValueError(f"zeta must satisfy 0 < zeta < m, got zeta={zeta} m={m}")
    return m, zeta


def _check_formula(formula: str) -> None:
    if formula not in _FORMULAS:
        raise ValueError(f"unknown formula {formula!r}; expected one of {_FORMULAS}")


def _accepts(formula: str, d: int, r: int, beta: float):
    """The check bound(m, d, r, eps) <= beta on a tail T(m, r+d-1, eps) in
    [0, 1]: the public bound's clamped value, built once per (formula, d,
    r, beta), so a query's classical factor is computed once, not per
    tail."""
    if formula != "classical":
        return lambda tail: tail <= beta
    raw = _classical_raw(d, r)
    return lambda tail: min(raw(tail), 1.0) <= beta


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

    Each step's verdict, bound(eps) <= beta, is the one the public bound
    function's value at eps gives.  On the log-space path it comes from
    certified bounds on the tail built from its largest terms, and from
    the exact sum of the whole window only when they straddle beta
    (_tail_accepted).  A step raises the same ValueError past the
    2**22-term cap, before any term is evaluated.
    """
    beta = float(beta)
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    m, d, r = _check_ints(m=m, d=d, r=r)
    _check_formula(formula)
    if formula == "compression":
        _check_zeta(m, r + d)
    else:
        _check_query(m, d, r)

    k = r + d - 1
    accepts = _accepts(formula, d, r, beta)
    if accepts(_tail(m, k, 0.0)):
        return EpsilonInversion(epsilon=0.0, at_lower_boundary=True)
    lo, hi = 0.0, 1.0
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if _tail_accepted(m, k, mid, accepts, _log_space(m, mid, k)):
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

    The bound increases with r, so the answer is one below the first r
    whose bound fails, found by a search or a sweep that both give the
    answer a per-r evaluation of the public bound functions gives, bit for
    bit.  When more than 2**22 terms up to k = m - 2 can be nonzero,
    ValueError is raised before any is evaluated.  With batch=True the
    result is floored to the nearest multiple of d, matching schemes that
    can only discard whole batches.

    The search runs on the log-space path with 0 < eps < 1 when the bound
    already fails at r_top = mu - 2 - d + 1, mu = floor((m+1) eps): it
    bisects [0, r_top] for the first failing r (_search).  The sweep runs
    in every other case: on the recurrence path, at eps of 0 or 1, at
    beta >= 1 (where no clamped bound fails), for answers at or above the
    mode, and for a classical factor above 1e300 at r_top (_sweep).
    """
    beta = float(beta)
    eps = _validate_eps(eps)
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    _check_formula(formula)
    m, d, _ = _check_query(m, d, 0)
    space = None if eps == 1.0 else _log_space(m, eps, m - 2)
    r = None if space is None else _search(m, d, eps, beta, formula, space)
    if r is None:
        r = _sweep(m, d, eps, beta, formula)
    best = max(r - 1, 0)
    if batch:
        best -= best % d
    return best


def _search(m: int, d: int, eps: float, beta: float, formula: str,
            space) -> int | None:
    """The first r whose bound fails, by a certified bisection below the
    mode; None when the sweep must decide.  space is _log_space(m, eps,
    m - 2), whose window starts at lo: a probe at k <= mu - 2 has the
    window (lo, k) (see _log_window), inside the one the term cap passed.

    Each verdict is not _tail_accepted(m, r + d - 1, eps, ...): certified
    from the largest terms of T(m, r + d - 1, eps), and decided by the
    exact sum of its window at a near-tie, so it is the verdict of the
    public bound's value at r.  The verdicts are monotone in r:
      - computed tails never decrease in k: each is the correctly rounded
        sum of the window's terms up to k, the window's first index does
        not depend on k, and a larger k only adds terms >= 0;
      - the classical factor C(r+d-1, r) never decreases in r;
      - rounding is monotone: the factor's float, its product with the
        tail, and the clamp to 1.
    So every r past the first failure fails too, and bisection finds the
    first failure the sweep finds.  The last point needs the exact factor,
    so the classical search runs only while C(r_top + d - 1, r_top) is at
    most 1e300; past it the product goes through logarithms, whose
    rounding is not monotone in r.  k <= top = mu - 2, at most the top
    index of the window up to m - 2, keeps every window on the rising side
    of the terms, where the largest come first and a verdict reads a few
    of them.
    """
    top = _mode(m, eps) - 2
    r_top = top - d + 1
    if r_top < 0 or (formula == "classical"
                     and math.comb(top, d - 1) > _MAX_EXACT_COMB):
        return None

    lo, _, log_eps, log_1m = space

    def fails(r: int) -> bool:
        k = r + d - 1
        accepts = _accepts(formula, d, r, beta)
        return not _tail_accepted(m, k, eps, accepts, (lo, k, log_eps, log_1m))

    if not fails(r_top):
        return None
    return _first_true(fails, max(lo - d + 1, 0), r_top)


def _sweep(m: int, d: int, eps: float, beta: float, formula: str) -> int:
    """The first r whose bound fails, or m - d when none does, by one sweep
    over the tail's terms that can be nonzero.

    r's tail T(m, r+d-1, eps) is the previous one plus one term, summed
    exactly and rounded once, which equals math.fsum of the prefix bit for
    bit.  Every r whose prefix ends before the first such term has tail
    0 <= beta, so the sweep starts there; past the last one the tail stays
    put.  Its time is linear in the nonzero terms swept, which grow as
    sqrt(m eps (1-eps)), not with the answer.
    """
    r_last = m - d - 1  # the largest r with m > r + d; its prefix is k = m - 2
    first, terms = _tail_terms(m, eps, m - 2)
    k, tail = first - 1, 0.0
    for k, tail in enumerate(_prefix_sums(terms), first):
        r = k - d + 1
        if r >= 0 and not _accepts(formula, d, r, beta)(min(1.0, tail)):
            return r
    # Past the last nonzero term every prefix sums to this tail.  The
    # cascade and compression bounds stay put, and so does the classical
    # one at d = 1; beta >= 1 passes every clamped value.  Otherwise the
    # classical factor C(r+d-1, r) >= r + 1 grows until it fails.
    r = max(k - d + 2, 0)
    constant = formula != "classical" or d == 1 or beta >= 1.0
    while r <= r_last and _accepts(formula, d, r, beta)(min(1.0, tail)):
        r = r_last + 1 if constant else r + 1
    return r
