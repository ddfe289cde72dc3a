import math
from itertools import count

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scenopt import bounds
from scenopt.bounds import (
    _log_comb,
    _prefix_sums,
    analytic_violation_cdf,
    binom_tail,
    bound_cascade,
    bound_classical,
    bound_compression,
    invert_epsilon,
    max_removable,
)

from oracles import (
    _public_bound,
    binom_tail_exact,
    binom_tail_termwise,
    classical_exact,
    invert_epsilon_bisect,
    max_removable_rescan,
    max_removable_sweep,
)

FORMULAS = ("cascade", "classical", "compression")


def switch_eps(m, scale):
    """eps with m * log(1 - eps) = -700 * scale: scale 1 is where the term
    recurrence hands over to log space."""
    return -math.expm1(-700.0 * scale / m)


# (m, eps) on either side of the recurrence switch, on each log-space path
SWITCH = [(m, switch_eps(m, scale))
          for m in (1_500, 9_000, 30_000) for scale in (0.98, 1.0, 1.02)]


def tail_path(m, eps):
    """Which term source binom_tail uses at (m, eps)."""
    if eps in (0.0, 1.0) or m * math.log1p(-eps) > -700.0:
        return "recurrence"
    return "exact-comb" if m <= 10_000 else "log-gamma"


class TestBinomTail:
    def test_eps_zero_is_one(self):
        for m, k in [(5, 0), (100, 3), (17, 16)]:
            assert binom_tail(m, k, 0.0) == 1.0

    def test_complement_of_full_violation(self):
        # summing every term but i = m leaves 1 - eps^m
        for m, eps in [(7, 0.2), (12, 0.5), (30, 0.9)]:
            assert binom_tail(m, m - 1, eps) == pytest.approx(
                1.0 - eps**m, abs=1e-13
            )

    def test_frozen_exact_value(self):
        # C(10,0).7^10 + C(10,1).3 .7^9 + C(10,2).3^2 .7^8
        assert binom_tail(10, 2, 0.3) == pytest.approx(
            0.3827827864, abs=1e-10
        )

    def test_exact_oracle_agreement(self):
        worst = 0.0
        for m in (1, 3, 10, 47, 200):
            for eps in (0.01, 0.1, 0.3, 0.7):
                for k in range(0, min(m, 40), 3):
                    got = binom_tail(m, k, eps)
                    want = float(binom_tail_exact(m, k, eps))
                    worst = max(worst, abs(got - want))
        assert worst <= 1e-12

    def test_large_m_against_oracle(self):
        got = binom_tail(2000, 29, 0.03)
        assert got == pytest.approx(
            float(binom_tail_exact(2000, 29, 0.03)), abs=1e-12
        )

    def test_log_gamma_path_against_exact_oracle(self):
        # beyond m = 10,000 every log C(m, i) comes from math.lgamma
        for m, k, eps in [(20_000, 30, 0.04), (12_000, 40, 0.07)]:
            assert tail_path(m, eps) == "log-gamma"
            want = float(binom_tail_exact(m, k, eps))
            assert abs(binom_tail(m, k, eps) - want) <= 1e-10 * want, (m, k, eps)

    def test_decreasing_in_eps(self):
        # strictly decreasing wherever double precision can resolve the
        # change; never increasing anywhere, including the plateaus where
        # the tail saturates at 1 or underflows
        for m, k in [(20, 4), (100, 10), (2000, 29)]:
            grid = [i / 10_000 for i in range(1, 10_000)]
            values = [binom_tail(m, k, e) for e in grid]
            assert all(a >= b - 5e-16 for a, b in zip(values, values[1:]))
            resolvable = [
                (a, b)
                for a, b in zip(values, values[1:])
                if 1e-13 < b and a < 1.0 - 1e-12
            ]
            assert resolvable, "grid never leaves the saturation plateaus"
            assert all(a > b for a, b in resolvable)

    def test_matches_termwise_reference_bit_for_bit(self):
        cases = [(m, eps) for m in (1, 7, 200, 2000)
                 for eps in (0.0, 1e-300, 0.03, 0.5, 0.999, 1.0)]
        cases += [(10_000, 0.075), (10_000, 0.5), (20_000, 0.04), (20_000, 0.9)]
        assert {tail_path(m, eps) for m, eps in cases} == {
            "recurrence", "exact-comb", "log-gamma"}
        for m, eps in cases:
            for k in ({0, m // 3, m - 1} if m <= 2000 else {0, 300, 900}):
                assert binom_tail(m, k, eps) == binom_tail_termwise(m, k, eps), (
                    m, k, eps)

    def test_window_matches_termwise_reference_across_the_switch(self):
        # k below the window of nonzero terms, inside it, above the mode
        # and past the window's end; near the switch the window starts at 0
        cases = SWITCH + [(9_000, 0.5), (100_000, 0.3)]
        assert {tail_path(m, eps) for m, eps in cases} == {
            "recurrence", "exact-comb", "log-gamma"}
        for m, eps in cases:
            mean, sigma = m * eps, math.sqrt(m * eps * (1.0 - eps))
            ks = {min(max(round(mean + z * sigma), 0), m - 1)
                  for z in (-40, -37, -3, 0, 3, 37, 40)}
            for k in sorted(ks | {0, m - 1}):
                assert binom_tail(m, k, eps) == binom_tail_termwise(m, k, eps), (
                    m, k, eps)

    def test_empty_window_is_exactly_zero(self):
        # every term up to k is 0.0: nothing is evaluated, and no cap applies
        assert binom_tail(2**53, 2, 0.5) == 0.0
        assert binom_tail(10**15, 10**6, 0.5) == 0.0
        assert binom_tail(10**6, 480_000, 0.5) == 0.0

    @pytest.mark.parametrize("m", [2_000, 9_999, 10_000, 10_001])
    def test_log_coefficients_match_per_index_comb(self, m):
        # up to m = 10,000 the exact-comb log below 1e300 and log-gamma above
        # it, as computed from math.comb(m, i) afresh for each i; log-gamma
        # alone beyond
        def reference(i):
            if m <= 10_000 and (c := math.comb(m, i)) <= 1e300:
                return math.log(c)
            return math.lgamma(m + 1) - math.lgamma(i + 1) - math.lgamma(m - i + 1)

        # s: the first index past the 1e300 switch, mirrored at m - s
        s = next(i for i in count() if math.comb(m, i) > 1e300)
        switch = [*range(s - 3, s + 3), *range(m - s - 2, m - s + 4)]
        indices = {*range(400), *range(m // 2 - 3, m // 2 + 4),
                   *range(m - 400, m + 1), *switch}
        assert {math.comb(m, i) <= 1e300 for i in switch} == {True, False}
        for i in sorted(indices):
            assert _log_comb(m, i) == reference(i), i

    def test_range_validation(self):
        with pytest.raises(ValueError):
            binom_tail(10, 10, 0.5)
        with pytest.raises(ValueError):
            binom_tail(10, -1, 0.5)
        with pytest.raises(ValueError):
            binom_tail(10, 2, 1.5)
        with pytest.raises(ValueError, match="at most 2\\*\\*53"):
            binom_tail(2**53 + 1, 2, 0.5)
        assert binom_tail(2**53, 2, 0.5) == 0.0  # the largest exact m is kept


class TestBoundFormulas:
    def test_classical_factor_one_at_r_zero(self):
        a = bound_classical(50, 3, 0, 0.1)
        b = bound_cascade(50, 3, 0, 0.1)
        assert a.raw == b.value
        assert a.value == b.value

    def test_classical_dominates_cascade(self):
        for m, d, r, eps in [(100, 2, 4, 0.2), (2000, 10, 20, 0.05),
                             (60, 5, 10, 0.3)]:
            assert bound_classical(m, d, r, eps).raw >= bound_cascade(m, d, r, eps).value

    def test_classical_exact_value(self):
        got = bound_classical(100, 2, 4, 0.2)
        assert got.raw == pytest.approx(float(classical_exact(100, 2, 4, 0.2)),
                                        abs=1e-12)
        assert got.raw == pytest.approx(5 * binom_tail(100, 5, 0.2), rel=1e-14)

    def test_classical_clamping(self):
        v = bound_classical(40, 8, 20, 0.05)
        assert v.raw > 1.0
        assert v.value == 1.0

    def test_cascade_matches_compression_index_algebra(self):
        for m, d, r, eps in [(100, 2, 4, 0.2), (50, 1, 5, 0.2)]:
            assert bound_cascade(m, d, r, eps).value == bound_compression(
                m, r + d, eps
            ).value

    def test_compression_single_element(self):
        assert bound_compression(30, 1, 0.25).value == pytest.approx(
            0.75**30, rel=1e-13
        )

    def test_cascade_vanishes_near_eps_one(self):
        assert bound_cascade(100, 2, 4, 1 - 1e-12).value < 1e-10

    def test_analytic_is_cascade_at_d_one(self):
        assert analytic_violation_cdf(50, 5, 0.2) == bound_cascade(
            50, 1, 5, 0.2
        ).value

    def test_analytic_r_zero(self):
        assert analytic_violation_cdf(20, 0, 0.1) == pytest.approx(
            0.9**20, rel=1e-13
        )

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            bound_cascade(10, 2, 8, 0.1)  # m must exceed r + d
        with pytest.raises(ValueError):
            bound_compression(10, 10, 0.1)
        with pytest.raises(ValueError):
            analytic_violation_cdf(10, 10, 0.1)
        for guarded in (lambda m: bound_classical(m, 1, 2, 0.5),
                        lambda m: bound_compression(m, 3, 0.5),
                        lambda m: invert_epsilon(m, 1, 2, 1e-6, "compression")):
            with pytest.raises(ValueError, match="at most 2\\*\\*53"):
                guarded(2**53 + 1)

    @pytest.mark.parametrize("func,kwargs,name", [
        pytest.param(func, kwargs, name, id=f"{func.__name__}-{name}")
        for func, kwargs in [
            (binom_tail, dict(m=100, k_max=5, eps=0.1)),
            (bound_cascade, dict(m=100, d=2, r=3, eps=0.1)),
            (bound_classical, dict(m=100, d=2, r=3, eps=0.1)),
            (bound_compression, dict(m=100, zeta=3, eps=0.1)),
            (analytic_violation_cdf, dict(m=100, r=3, eps=0.1)),
            (invert_epsilon, dict(m=100, d=2, r=3, beta=1e-3)),
            (max_removable, dict(m=100, d=2, eps=0.1, beta=1e-3)),
        ]
        for name in kwargs if name in ("m", "d", "r", "zeta", "k_max")])
    def test_counts_must_be_integers(self, func, kwargs, name):
        """A count given as a float or a string raises ValueError instead of
        being truncated; numpy integers are counts."""
        want = func(**kwargs)
        for bad in (kwargs[name] + 0.7, float(kwargs[name]), str(kwargs[name])):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                func(**{**kwargs, name: bad})
        assert func(**{**kwargs, name: np.int64(kwargs[name])}) == want


class TestPrefixSums:
    """The exact running sum behind max_removable's one-pass scan."""

    doubles = st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=2.2250738585072014e-308),  # subnormal
        st.floats(min_value=0.0, max_value=1e-300),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1.0 - 1e-12, max_value=1.0),
        st.floats(min_value=0.0, max_value=1e300),
    )

    @given(st.lists(doubles, max_size=40))
    def test_each_prefix_equals_fsum(self, xs):
        assert list(_prefix_sums(xs)) == [
            math.fsum(xs[: i + 1]) for i in range(len(xs))]

    def test_ties_round_to_even(self):
        # 1 + 2**-53 is exactly halfway between 1 and its successor
        xs = [1.0, 2.0**-53, 2.0**-53, 2.0**-1074]
        assert list(_prefix_sums(xs)) == [math.fsum(xs[: i + 1]) for i in range(4)]
        assert list(_prefix_sums(xs))[1] == 1.0


class TestInversion:
    QUERIES = [
        (2000, 10, 10, 1e-6),     # recurrence
        (200, 2, 4, 0.2),
        (100, 2, 0, 1.0),         # lower boundary
        (10_000, 10, 440, 1e-6),  # bisection crosses into exact-comb log space
        (20_000, 10, 30, 1e-6),   # and onto the log-gamma path
        (30_000, 10, 700, 0.5),   # steps across the switch, k near the mode
        (9_000, 2, 300, 0.999),   # k above the mode at the answer
    ]

    @pytest.mark.parametrize("formula", FORMULAS)
    @pytest.mark.parametrize("m,d,r,beta", QUERIES)
    def test_matches_bisection_over_public_bounds(self, m, d, r, beta, formula):
        inv = invert_epsilon(m, d, r, beta, formula)
        assert (inv.epsilon, inv.at_lower_boundary) == invert_epsilon_bisect(
            m, d, r, beta, formula)

    def test_log_coefficients_read_inside_the_window(self, monkeypatch):
        seen = []
        log_comb = bounds._log_comb

        def spy(m, i):
            seen.append(i)
            return log_comb(m, i)

        monkeypatch.setattr(bounds, "_log_comb", spy)
        # exact-comb and log-gamma coefficients; at the answer the leading
        # terms underflow, so no window reaches i = 0
        for m, r in ((9_000, 3_000), (100_000, 20_000)):
            seen.clear()
            inv = invert_epsilon(m, 10, r, 1e-6)
            assert seen, m
            assert 0 < min(seen) and max(seen) <= r + 9, m
            assert (inv.epsilon, inv.at_lower_boundary) == invert_epsilon_bisect(
                m, 10, r, 1e-6)

    @pytest.mark.parametrize("below", (False, True), ids=("at", "below"))
    @pytest.mark.parametrize("formula", FORMULAS)
    @pytest.mark.parametrize("m,d,r", [(10_000, 10, 440), (20_000, 10, 660)],
                             ids=("exact-comb", "log-gamma"))
    def test_exact_sum_decides_a_near_tie(self, m, d, r, formula, below,
                                          monkeypatch):
        """beta is the public bound at the last midpoint of the bisection
        for beta = 1e-6 that takes this log-space path with a bound in
        (0, 1), or the float just below it.  The bisection for that beta
        meets the midpoint again, where no certified interval can separate
        the tail from beta: the exact sum of its window decides, and the
        answer is the reference one."""
        path = "exact-comb" if m <= 10_000 else "log-gamma"
        midpoints = []
        invert_epsilon_bisect(m, d, r, 1e-6, formula, midpoints=midpoints)
        mid, beta = [(eps, bound) for eps in midpoints
                     if tail_path(m, eps) == path
                     for bound in [_public_bound(formula, m, d, r, eps)]
                     if 0.0 < bound < 1.0][-1]
        if below:
            beta = math.nextafter(beta, 0.0)
        midpoints.clear()
        expected = invert_epsilon_bisect(m, d, r, beta, formula,
                                         midpoints=midpoints)
        assert mid in midpoints
        sums = []
        exact_sum = bounds._exact_sum

        def spy(terms):
            sums.append(exact_sum(terms))
            return sums[-1]

        monkeypatch.setattr(bounds, "_exact_sum", spy)
        inv = invert_epsilon(m, d, r, beta, formula)
        assert (inv.epsilon, inv.at_lower_boundary) == expected
        assert binom_tail(m, r + d - 1, mid) in sums

    def test_certified_steps_evaluate_a_tenth_of_the_terms(self, monkeypatch):
        """Summing every window, as each step did before the certified
        decision, evaluates 16,823 log-space terms at this query (measured);
        a step now stops after its largest few dozen."""
        seen = []
        log_term = bounds._log_term

        def spy(m, i, *args):
            seen.append(i)
            return log_term(m, i, *args)

        expected = invert_epsilon_bisect(20_000, 10, 660, 1e-6)
        monkeypatch.setattr(bounds, "_log_term", spy)
        inv = invert_epsilon(20_000, 10, 660, 1e-6)
        assert (inv.epsilon, inv.at_lower_boundary) == expected
        assert 0 < len(seen) <= 16_823 // 10

    @pytest.mark.parametrize("m,r,formula", [
        (10**11, 10**5, "classical"),  # E about 8: terms may sit e^8 off
        (10**15, 10, "cascade"),       # E about 10**5: exp(2E) overflows
    ])
    def test_matches_bisection_at_huge_m(self, m, r, formula):
        """E, the allowance for a log-space term's argument, grows with m;
        past E = 300 the certified decision gives way to the exact sum."""
        inv = invert_epsilon(m, 1, r, 1e-6, formula)
        assert (inv.epsilon, inv.at_lower_boundary) == invert_epsilon_bisect(
            m, 1, r, 1e-6, formula)

    def test_round_trip(self):
        for m, d, r in [(2000, 10, 10), (200, 2, 4), (50, 1, 5)]:
            inv = invert_epsilon(m, d, r, 1e-6)
            assert not inv.at_lower_boundary
            assert bound_cascade(m, d, r, inv.epsilon).value <= 1e-6
            assert bound_cascade(m, d, r, inv.epsilon - 1e-6).value > 1e-6

    def test_boundary_flag_for_trivial_beta(self):
        inv = invert_epsilon(100, 2, 0, 1.0)
        assert inv.at_lower_boundary
        assert inv.epsilon == 0.0

    def test_cascade_needs_smaller_eps_than_classical(self):
        # the tightened formula certifies the same confidence at lower eps
        for r in (5, 10, 20):
            a = invert_epsilon(2000, 10, r, 1e-6, "cascade").epsilon
            b = invert_epsilon(2000, 10, r, 1e-6, "classical").epsilon
            assert a <= b + 1e-9


class TestMaxRemovable:
    def test_reference_workflow_values(self):
        """Sizing at m=2000, d=10, eps=0.03, beta=1e-6.

        The published account of this workflow quotes a maximum of 18
        before batch rounding, but exact rational arithmetic over the tail
        gives T(2000, 27, 0.03) = 1.10029668e-06 > 1e-6, so r = 18 is not
        certified and the true maximum is 17.  Both round down to the same
        operative batch of 10.
        """
        raw = max_removable(2000, 10, 0.03, 1e-6, "cascade")
        assert raw == 17
        assert float(binom_tail_exact(2000, 17 + 9, 0.03)) <= 1e-6
        assert float(binom_tail_exact(2000, 18 + 9, 0.03)) > 1e-6
        assert max_removable(2000, 10, 0.03, 1e-6, "cascade", batch=True) == 10

    def test_zero_region_after_batch_rounding(self):
        for eps in (0.01, 0.015, 0.02):
            assert max_removable(2000, 10, eps, 1e-6, "cascade", batch=True) == 0

    def test_returns_zero_when_r0_fails(self):
        # at eps = 0.01 even the undiscarded program misses beta
        assert max_removable(2000, 10, 0.01, 1e-6, "cascade") == 0

    def test_monotone_in_eps_and_beta(self):
        eps_grid = [0.02, 0.03, 0.05, 0.08]
        values = [max_removable(2000, 10, e, 1e-6) for e in eps_grid]
        assert values == sorted(values)
        beta_grid = [1e-9, 1e-6, 1e-3]
        values = [max_removable(2000, 10, 0.05, b) for b in beta_grid]
        assert values == sorted(values)

    def test_certified_bound_holds_at_result(self):
        for eps in (0.03, 0.05, 0.08):
            r = max_removable(2000, 10, eps, 1e-6)
            if r > 0:
                assert bound_cascade(2000, 10, r, eps).value <= 1e-6

    # (m, d, eps, beta): small answers keep the per-r rescan cheap
    SIZING = [
        (2000, 10, 0.03, 1e-6),
        (300, 3, 0.2, 1e-4),
        (12, 3, 0.5, 0.9),
        (10_000, 620, 0.075, 1e-6),
        (10_000, 2, 0.075, 1e-250),
        (20_000, 650, 0.04, 1e-6),
        (20_000, 5, 0.04, 1e-200),
        (50, 2, 0.0, 1.0),
        (50, 2, 0.0, 0.5),
        (50, 2, 1.0, 1e-9),
    ]

    def test_sizing_grid_covers_every_tail_path(self):
        assert {tail_path(m, eps) for m, _, eps, _ in self.SIZING} == {
            "recurrence", "exact-comb", "log-gamma"}

    @pytest.mark.parametrize("batch", (False, True))
    @pytest.mark.parametrize("formula", FORMULAS)
    @pytest.mark.parametrize("m,d,eps,beta", SIZING)
    def test_matches_per_r_rescan(self, m, d, eps, beta, formula, batch):
        assert max_removable(m, d, eps, beta, formula, batch) == (
            max_removable_rescan(m, d, eps, beta, formula, batch))

    # (m, d, eps, beta) across the switch; beta near and at 1 sweeps the
    # whole window and then the constant tail past it
    SWEEP = [(m, d, eps, beta) for m, eps in SWITCH[::2] for d in (1, 10)
             for beta in (1e-6, 1.0 - 1e-15)]
    SWEEP += [(m, 3, eps, 1.0) for m, eps in SWITCH[1::3]]
    SWEEP += [(3_000, 2, 0.5, 0.5), (3_000, 2, 1.0 - 1e-9, 1e-3),
              (2_000, 2, 1.0, 1e-9), (2_000, 2, 0.0, 0.5)]

    @pytest.mark.parametrize("batch", (False, True))
    @pytest.mark.parametrize("formula", FORMULAS)
    @pytest.mark.parametrize("m,d,eps,beta", SWEEP)
    def test_matches_sweep_over_every_term(self, m, d, eps, beta, formula,
                                           batch):
        assert max_removable(m, d, eps, beta, formula, batch) == (
            max_removable_sweep(m, d, eps, beta, formula, batch))

    # (m, d, eps, beta, oracle): log-space queries whose answer lies below
    # the mode, where the first failing r is found by a certified search;
    # the per-r rescan checks the small answers, the sweep the others
    BELOW_MODE = [
        (10_000, 10, 0.07, 1e-6, "sweep"),
        (10_000, 2, 0.075, 1e-250, "rescan"),
        (20_000, 10, 0.04, 1e-6, "sweep"),
        (20_000, 5, 0.04, 1e-200, "rescan"),
        (10**6, 1, 0.0008, 1e-200, "rescan"),
        (10**6, 3, 0.002, 1e-6, "sweep"),
    ]
    ORACLES = {"rescan": max_removable_rescan, "sweep": max_removable_sweep}

    def test_below_mode_grid_covers_both_log_space_paths(self):
        assert {tail_path(m, eps) for m, _, eps, _, _ in self.BELOW_MODE} == {
            "exact-comb", "log-gamma"}

    @pytest.mark.parametrize("tie", (None, 0, 1),
                             ids=("plain", "tie-at", "tie-next"))
    @pytest.mark.parametrize("batch", (False, True))
    @pytest.mark.parametrize("formula", FORMULAS)
    @pytest.mark.parametrize("m,d,eps,beta,oracle", BELOW_MODE)
    def test_search_below_the_mode_matches_the_oracles(
            self, m, d, eps, beta, oracle, formula, batch, tie):
        """beta as listed, or the public bound at r* or r* + 1, r* the
        answer at the listed beta: an exact tie at the answer or just past
        it."""
        oracle = self.ORACLES[oracle]
        r_star = oracle(m, d, eps, beta, formula)
        # the first failure, r* + 2 at most, lies at or below the mode's
        # r_top = mu - 2 - d + 1, so the search runs
        assert r_star + 2 <= bounds._mode(m, eps) - 2 - d + 1
        if tie is not None:
            beta = _public_bound(formula, m, d, r_star + tie, eps)
        assert max_removable(m, d, eps, beta, formula, batch) == oracle(
            m, d, eps, beta, formula, batch)

    @pytest.mark.parametrize("m,eps,answer,cap", [
        (10_000, 0.07, 572, 583 // 10),
        (20_000, 0.04, 662, 658 // 10 + 1),
    ], ids=("exact-comb", "log-gamma"))
    def test_search_evaluates_a_tenth_of_the_terms(self, m, eps, answer, cap,
                                                   monkeypatch):
        """The two log-space --max-r queries of the bound-sizing benchmark.
        Sweeping up from the window's first index evaluates 583 and 658
        log-space terms (measured); each verdict of the search reads the
        largest few terms of its window."""
        assert max_removable_sweep(m, 10, eps, 1e-6) == answer
        seen = []
        log_term = bounds._log_term

        def spy(m, i, *args):
            seen.append(i)
            return log_term(m, i, *args)

        monkeypatch.setattr(bounds, "_log_term", spy)
        assert max_removable(m, 10, eps, 1e-6) == answer
        assert 0 < len(seen) <= cap

    @pytest.mark.parametrize("below", (False, True), ids=("at", "below"))
    @pytest.mark.parametrize("formula", FORMULAS)
    @pytest.mark.parametrize("m,eps", [(10_000, 0.07), (20_000, 0.04)],
                             ids=("exact-comb", "log-gamma"))
    def test_exact_sum_decides_a_near_tie(self, m, eps, formula, below,
                                          monkeypatch):
        """beta is the public bound at r*, the answer for beta = 1e-6, or
        the float just below it.  The search meets r*, where no certified
        interval can separate the tail from beta: the exact sum of its
        window decides, and the answer is the sweep's."""
        d = 10
        r_star = max_removable_sweep(m, d, eps, 1e-6, formula)
        beta = _public_bound(formula, m, d, r_star, eps)
        if below:
            beta = math.nextafter(beta, 0.0)
        expected = max_removable_sweep(m, d, eps, beta, formula)
        assert expected == (r_star - 1 if below else r_star)
        sums = []
        exact_sum = bounds._exact_sum

        def spy(terms):
            sums.append(exact_sum(terms))
            return sums[-1]

        monkeypatch.setattr(bounds, "_exact_sum", spy)
        assert max_removable(m, d, eps, beta, formula) == expected
        assert binom_tail(m, r_star + d - 1, eps) in sums

    @pytest.mark.parametrize("args,message", [
        ((10, 10, 0.5, 1e-6), "m must exceed r \\+ d"),
        ((10, 12, 0.5, 1e-6, "classical"), "m must exceed r \\+ d"),
        ((10, 0, 0.5, 1e-6, "compression"), "d must be at least 1"),
        ((5, 10, 0.5, 1e-6, "bogus"), "unknown formula"),
        ((2**53 + 1, 1, 0.5, 1e-6), "m must be at most 2\\*\\*53"),
    ])
    def test_inputs_validated_before_scanning(self, args, message):
        with pytest.raises(ValueError, match=message):
            max_removable(*args)

    def test_classical_batch_floors_to_zero_at_low_eps(self):
        assert max_removable(2000, 10, 0.03, 1e-6, "classical", batch=True) == 0


class TestTermCap:
    """Beyond 2**22 terms that can be nonzero, a query fails fast."""

    def test_binom_tail(self):
        with pytest.raises(ValueError, match="cap of 2\\*\\*22 terms"):
            binom_tail(10**15, 5 * 10**14, 0.5)

    @pytest.mark.parametrize("formula", FORMULAS)
    def test_max_removable(self, formula):
        with pytest.raises(ValueError, match="cap of 2\\*\\*22 terms"):
            max_removable(10**15, 1, 0.5, 1e-6, formula)

    @pytest.mark.parametrize("formula", FORMULAS)
    def test_invert_epsilon(self, formula):
        with pytest.raises(ValueError, match="cap of 2\\*\\*22 terms"):
            invert_epsilon(10**15, 1, 5 * 10**14, 1e-6, formula)

    def test_recorded_large_m_answer(self):
        # the 480,793 leading terms underflow to 0.0; the sweep skips them
        assert max_removable(10**6, 1, 0.5, 1e-6) == 497_622
