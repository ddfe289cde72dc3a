import hashlib
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenopt.lp as lp_module
from scenopt.engine import run_cascade
from scenopt.experiments import RandomSource, gen_resource
from scenopt.lp import (
    ACTIVE_TOL,
    FEAS_TOL,
    X_TOL,
    LinearProgram,
    LpInputError,
    LpStatus,
    SimplexStallError,
    _phase_one,
    check_feasible,
    solve,
)

from oracles import enumerate_lp


def box_lp(cost, rows, rhs, lower, upper):
    return LinearProgram(
        cost=np.asarray(cost, dtype=float),
        row_coeffs=np.asarray(rows, dtype=float).reshape(len(rhs), len(cost)),
        row_rhs=np.asarray(rhs, dtype=float),
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
    )


def tight_rows(lp, x):
    """Rows of lp that hold with equality at x, within ACTIVE_TOL."""
    slack = np.abs(lp.row_coeffs @ x - lp.row_rhs)
    return frozenset(np.flatnonzero(slack <= ACTIVE_TOL).tolist())


def random_lp(rng, d_max=4, rows_max=12):
    d = int(rng.integers(1, d_max + 1))
    k = int(rng.integers(0, rows_max + 1))
    return LinearProgram(
        cost=rng.normal(size=d),
        row_coeffs=rng.normal(size=(k, d)),
        row_rhs=rng.normal(size=k),
        lower=rng.uniform(-3.0, -0.5, d),
        upper=rng.uniform(0.5, 3.0, d),
    )


class TestSolveBasics:
    def test_single_lower_row(self):
        lp = box_lp([1.0], [[-1.0]], [-0.7], [0.0], [1.0])
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(0.7, abs=1e-9)
        assert sol.objective == pytest.approx(0.7, abs=1e-9)
        assert tight_rows(lp, sol.x) == frozenset({0})

    def test_tie_break_on_pure_box(self):
        # every point with x2 = -10 ties on cost; the smallest x1 wins
        lp = LinearProgram(
            cost=[0.0, 1.0],
            row_coeffs=np.zeros((0, 2)),
            row_rhs=np.zeros(0),
            lower=[-10.0, -10.0],
            upper=[10.0, 10.0],
        )
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [-10.0, -10.0], atol=1e-9)
        assert sol.objective == pytest.approx(-10.0, abs=1e-9)

    def test_tie_break_on_degenerate_face(self):
        # min -x1-x2 on the simplex face x1+x2 = 1: the whole edge is
        # optimal and the lexicographic rule must select (0, 1)
        lp = box_lp([-1.0, -1.0], [[1.0, 1.0]], [1.0], [0.0, 0.0],
                    [np.inf, np.inf])
        sol = solve(lp)
        assert sol.objective == pytest.approx(-1.0, abs=1e-9)
        np.testing.assert_allclose(sol.x, [0.0, 1.0], atol=1e-8)
        status, obj, lex = enumerate_lp(lp)
        assert status == "optimal"
        assert obj == pytest.approx(sol.objective, abs=1e-8)
        np.testing.assert_allclose(sol.x, lex, atol=1e-7)

    def test_infeasible(self):
        lp = box_lp([1.0], [[-1.0]], [-2.0], [0.0], [1.0])
        assert solve(lp).status is LpStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram(
            cost=[-1.0], row_coeffs=np.zeros((0, 1)), row_rhs=np.zeros(0),
            lower=[0.0], upper=[np.inf],
        )
        assert solve(lp).status is LpStatus.UNBOUNDED

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("cost, rows, rhs, lower, upper, status", [
        # min x, x free, x <= -1
        ([1.0], [[1.0]], [-1.0], [-np.inf], [np.inf], LpStatus.UNBOUNDED),
        # x free, x >= 1 and x <= 0
        ([1.0], [[-1.0], [1.0]], [-1.0, 0.0], [-np.inf], [np.inf],
         LpStatus.INFEASIBLE),
        # min x1, x1 free, x2 in [0, 1], x1 - x2 <= -2
        ([1.0, 0.0], [[1.0, -1.0]], [-2.0], [-np.inf, 0.0], [np.inf, 1.0],
         LpStatus.UNBOUNDED),
    ])
    def test_free_variables_infeasible_or_unbounded(
            self, cost, rows, rhs, lower, upper, status, refine):
        # both unbounded LPs have an infeasible dual, so the elastic
        # feasibility probe decides them; it must see x1 free, not split
        lp = box_lp(cost, rows, rhs, lower, upper)
        assert solve(lp, refine=refine).status is status


def validated_copy(lp, rows):
    return LinearProgram(cost=lp.cost, row_coeffs=lp.row_coeffs[rows],
                         row_rhs=lp.row_rhs[rows], lower=lp.lower,
                         upper=lp.upper)


def assert_same_solves(sub, ref):
    """Refined and unrefined solves of sub and ref agree bit for bit."""
    for refine in (True, False):
        a, b = solve(sub, refine=refine), solve(ref, refine=refine)
        assert a.status is b.status
        if a.is_optimal:
            assert np.array_equal(a.x, b.x)
            assert tight_rows(sub, a.x) == tight_rows(ref, b.x)


class TestSelect:
    """A mask selection runs on its parent's dual form, with the parent's
    other rows priced out; a validated copy builds a form of its own from
    the selected rows alone.  Both must reach the same bits."""

    def test_select_matches_a_validated_copy(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lp = random_lp(rng)
            rows = rng.random(lp.n_rows) < 0.5
            sub = lp.select(rows)
            ref = validated_copy(lp, rows)
            assert sub.n_rows == ref.n_rows and sub.d == ref.d
            assert not sub.row_coeffs.flags.writeable
            assert_same_solves(sub, ref)
            # a selection of a selection still shares lp's form
            again = rng.random(sub.n_rows) < 0.7
            assert_same_solves(sub.select(again), validated_copy(sub, again))

    def test_cascade_stages_match_validated_copies(self):
        # each stage LP of a d=10 cascade is a mask of the program's LP
        prog = gen_resource(10, 2, 300, np.random.default_rng(8))
        trace = run_cascade(prog, 3)
        labels = set(prog.labels)
        for stage in trace.stages:
            lp, _ = prog.assemble(labels)
            assert_same_solves(lp, LinearProgram(
                cost=lp.cost, row_coeffs=lp.row_coeffs, row_rhs=lp.row_rhs,
                lower=lp.lower, upper=lp.upper))
            labels -= stage.removed

    def test_free_variable(self):
        # the third variable is free, so the shared form splits it in two
        rng = np.random.default_rng(4)
        solved = 0
        for _ in range(20):
            lp = LinearProgram(cost=rng.normal(size=3),
                               row_coeffs=rng.normal(size=(30, 3)),
                               row_rhs=rng.uniform(0.5, 2.0, 30),
                               lower=[-1.0, -2.0, -np.inf],
                               upper=[1.0, 2.0, np.inf])
            rows = rng.random(30) < 0.6
            assert_same_solves(lp.select(rows), validated_copy(lp, rows))
            solved += solve(lp.select(rows)).is_optimal
        assert solved > 10

    def test_interleaved_siblings_leave_the_shared_form_unwritten(self):
        # The cost core negates dual rows 0 and 2, where the cost is
        # positive, and refinement core j negates row j.  Siblings of one
        # parent solved in turn would see each other's signs if a core
        # wrote to the form they share.
        rng = np.random.default_rng(6)
        parent = LinearProgram(cost=[1.0, -1.0, 0.5, -0.5],
                               row_coeffs=rng.normal(size=(60, 4)),
                               row_rhs=rng.uniform(0.5, 2.0, 60),
                               lower=[-2.0, -np.inf, -1.0, -3.0],
                               upper=[2.0, np.inf, 1.0, np.inf])
        masks = [rng.random(60) < share for share in (0.3, 0.6, 0.9)]
        subs = [parent.select(mask) for mask in masks]
        refs = [validated_copy(parent, mask) for mask in masks]
        expected = [[solve(ref, refine=refine) for ref in refs]
                    for refine in (True, False)]
        assert all(sol.is_optimal for sols in expected for sol in sols)
        for _ in range(2):
            for i in (2, 0, 1):
                for refine, sols in zip((True, False), expected):
                    assert np.array_equal(solve(subs[i], refine=refine).x,
                                          sols[i].x)


def test_dependent_equality_rows_raise_a_stall():
    # the second row of E's two usable columns is zero, so its phase-1
    # artificial (the last four columns are the +-e_r pairs) stays basic
    E = np.array([[1.0, 1.0, 1.0, -1.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 1.0, -1.0]])
    q = np.array([0.0, 0.0] + [np.inf] * 4)  # phase 2 prices no artificial
    with pytest.raises(SimplexStallError, match="linearly dependent"):
        _phase_one(E, np.array([1.0, 0.0]), q, np.array([2, 4]))


def test_stall_errors_name_the_phase_shape_and_pivots(monkeypatch):
    # max x1 + x2 with x >= 0 under two rows: phase 1 needs two pivots
    lp = box_lp([-1.0, -1.0], [[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0],
                [0.0, 0.0], [np.inf, np.inf])
    monkeypatch.setattr(lp_module, "_MAX_PIVOTS", 1)
    with pytest.raises(SimplexStallError) as err:
        solve(lp)
    assert str(err.value) == ("simplex phase 1 (rows=2, columns=4): "
                              "no convergence within 1 pivots")


def spy_linalg(monkeypatch):
    """Count np.linalg.inv and np.linalg.solve calls from now on."""
    calls = Counter()
    for name in ("inv", "solve"):
        real = getattr(np.linalg, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def spy_pivots(monkeypatch):
    """Pivots per kernel call (_iterate) from now on, in call order."""
    pivots = []
    real_iterate, real_entering = lp_module._iterate, lp_module._entering

    def iterate(*args, **kwargs):
        pivots.append(0)
        return real_iterate(*args, **kwargs)

    def entering(*args, **kwargs):
        enter = real_entering(*args, **kwargs)
        pivots[-1] += enter is not None
        return enter

    monkeypatch.setattr(lp_module, "_iterate", iterate)
    monkeypatch.setattr(lp_module, "_entering", entering)
    return pivots


def resource_stage():
    """Stage 0 of a resource program with d=10 and m=2000 (4000 rows)."""
    prog = gen_resource(10, 2, 2000, np.random.default_rng(0))
    return prog.assemble(prog.labels)[0]


class TestFactorizations:
    @pytest.mark.parametrize("sense, refine, cores, certificates", [
        pytest.param(1.0, False, 1, 0, id="False-1"),
        pytest.param(1.0, True, 1, 1, id="True-1-certified"),
        pytest.param(-1.0, True, 2, 1, id="True-2-refine-loop")])
    def test_each_lp_core_factorizes_once(self, monkeypatch, sense, refine,
                                          cores, certificates):
        # min x on [0, 1] with x >= 0.2, 0.9, 0.5 (sense 1), or max x with
        # x <= 0.2, 0.9, 0.5 (sense -1): each LP core is one phase-2 pivot
        # on the inverse taken at its start, then one exact solve for pi at
        # optimality, which is also the dual vector the core reads its
        # minimizer from.  A refined solve inverts the cost core's basis
        # once more for the lex-min certificate; the row x >= 0.9 passes
        # it, so no refinement core runs, and x <= 0.2 fails it, so d = 1
        # refinement core follows.
        lp = box_lp([sense], -sense * np.ones((3, 1)),
                    -sense * np.array([0.2, 0.9, 0.5]), [0.0], [1.0])
        calls = spy_linalg(monkeypatch)
        sol = solve(lp, refine=refine)
        assert sol.x[0] == pytest.approx(0.9 if sense > 0 else 0.2, abs=1e-12)
        assert calls == {"inv": cores + certificates, "solve": cores}

    def test_long_pivot_paths_solve_no_system_per_pivot(self, monkeypatch):
        lp = resource_stage()
        pivots = spy_pivots(monkeypatch)
        calls = spy_linalg(monkeypatch)
        assert solve(lp).is_optimal
        # one exact pi per kernel call, one phase-1 x_b per LP core, and a
        # fresh inverse per kernel call and per _REFACTOR_EVERY pivots
        assert max(pivots) > lp_module._REFACTOR_EVERY
        assert calls["solve"] * 10 < sum(pivots)
        assert calls["inv"] * 5 < sum(pivots)


def lower_bounding_lp(rng, d):
    """min c.x, c > 0, over rows x_j >= b + beta.x that each bound one
    coordinate from below (beta >= 0, sum beta <= 1/2, b <= 1/2), scaled
    by positive factors, inside the box [-1, 0]^d .. [1.5, 2]^d.
    Componentwise minima of feasible points are feasible, so the optimum is
    the componentwise minimum, at most 1 in every coordinate; its d tight
    normals N have N^-1 <= 0, and the box is narrow and the rows well
    enough scaled for _componentwise_min's rounding bound to pass."""
    k = int(rng.integers(0, 3 * d + 1))
    own = rng.integers(0, d, k)
    beta = rng.uniform(0.0, 0.5 / d, (k, d))
    beta[np.arange(k), own] = 0.0
    scale = rng.uniform(0.5, 1.5, k)
    rows = (beta - np.eye(d)[own]) * scale[:, None]
    rhs = -rng.uniform(-1.0, 0.5, k) * scale
    return LinearProgram(cost=rng.uniform(0.1, 2.0, d), row_coeffs=rows,
                         row_rhs=rhs, lower=rng.uniform(-1.0, 0.0, d),
                         upper=rng.uniform(1.5, 2.0, d))


@contextmanager
def certificates(result=None):
    """Record _componentwise_min's verdicts; with result set, every verdict
    is replaced by it (False forces the refine loop)."""
    verdicts = []
    real = lp_module._componentwise_min

    def spy(form, basis):
        verdicts.append(real(form, basis) if result is None else result)
        return verdicts[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_module, "_componentwise_min", spy)
        yield verdicts


class TestLexCertificate:
    """solve returns the cost core's vertex, with no refinement core, when
    its basis proves it the componentwise minimum of the feasible set."""

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_certified_point_is_the_refined_lex_min(self, d, seed):
        rng = np.random.default_rng(seed)
        lp = lower_bounding_lp(rng, d)
        with certificates() as verdicts:
            sol = solve(lp)
        assert verdicts == [True]
        status, objective, lex = enumerate_lp(lp)
        assert status == "optimal"
        assert sol.objective == pytest.approx(objective, abs=1e-9)
        assert np.abs(sol.x - lex).max() <= X_TOL
        with certificates(False):
            forced = solve(lp)
        assert np.abs(sol.x - forced.x).max() <= X_TOL
        perm = rng.permutation(lp.n_rows)
        shuffled = solve(LinearProgram(
            cost=lp.cost, row_coeffs=lp.row_coeffs[perm],
            row_rhs=lp.row_rhs[perm], lower=lp.lower, upper=lp.upper))
        assert np.abs(sol.x - shuffled.x).max() <= X_TOL

    def test_a_cost_tie_runs_the_refine_loop(self):
        # min x1 over [0, 1]^2: the cost core stops at (0, 1) on the bound
        # columns x1 >= 0 and x2 <= 1, whose inverse has a positive entry
        lp = box_lp([1.0, 0.0], np.zeros((0, 2)), [], [0.0, 0.0], [1.0, 1.0])
        form = lp._form
        status, x, basis = lp_module._solve_core(
            form, lp.cost, form.prices(slice(0, 0), lp.row_rhs))
        assert status is LpStatus.OPTIMAL and x.tolist() == [0.0, 1.0]
        assert basis.tolist() == [form.bounds + 2, form.bounds + 1]
        with certificates() as verdicts:
            sol = solve(lp)
        assert verdicts == [False]
        assert sol.x.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("upper", [np.inf, 1e4])
    def test_an_unbounded_or_wide_box_is_not_certified(self, upper):
        # min x, x >= 0.5 passes the sign test, but a rounding-level wrong
        # sign could let x fall by 2 PIVOT_TOL times the box width, so
        # here the certificate takes widths up to X_TOL / (2 PIVOT_TOL)
        with certificates() as verdicts:
            assert solve(box_lp([1.0], [[-1.0]], [-0.5], [0.0],
                                [upper])).x[0] == 0.5
        assert verdicts == [False]


@contextmanager
def refinement_cores_report_infeasible(after=0):
    """Every LP core after the cost core and `after` refinement cores
    reports the pinned face infeasible."""
    real = lp_module._solve_core
    calls = []

    def lossy(form, objective, q):
        calls.append(None)
        if len(calls) > 1 + after:
            return LpStatus.INFEASIBLE, None, None
        return real(form, objective, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_module, "_solve_core", lossy)
        yield calls


class TestLostRefinementFace:
    """A refinement core that loses its pinned face ends the refine loop
    with the cost core's vertex when that basis proves the optimum unique,
    and raises otherwise."""

    def test_a_dual_degenerate_optimum_still_raises(self):
        # the cost tie of TestLexCertificate: x2 <= 1 is basic with a zero
        # multiplier, so the face {x1 = 0} holds more than the cost vertex
        lp = box_lp([1.0, 0.0], np.zeros((0, 2)), [], [0.0, 0.0], [1.0, 1.0])
        with refinement_cores_report_infeasible(), pytest.raises(
                SimplexStallError, match="refinement core 1 of 2"):
            solve(lp)
        with refinement_cores_report_infeasible(after=1), pytest.raises(
                SimplexStallError, match=r"refinement core 2 of 2 \(minim"):
            solve(lp)

    @pytest.mark.parametrize("after", [0, 1])
    def test_a_unique_optimum_returns_the_cost_vertex(self, after):
        # min x1 + x2 over x1 + 2 x2 >= 1, 2 x1 + x2 >= 1 in an unbounded
        # box: both multipliers are 1/3, but the box is not finite, so the
        # refine loop runs and its cores lose the face
        lp = box_lp([1.0, 1.0], [[-1.0, -2.0], [-2.0, -1.0]], [-1.0, -1.0],
                    [0.0, 0.0], [np.inf, np.inf])
        with refinement_cores_report_infeasible(after) as calls:
            sol = solve(lp)
        assert len(calls) == 2 + after
        assert sol.is_optimal
        np.testing.assert_allclose(sol.x, [1.0 / 3.0, 1.0 / 3.0], atol=1e-15)
        assert sol.x.tolist() == solve(lp, refine=False).x.tolist()


def random_corpus_lp(rng):
    """d 1-10 and up to 300 rows, feasible at the origin nine times in ten;
    a quarter have small integer data, whose vertices are often degenerate
    so that ratio tests tie.  Some bounds are infinite."""
    d = int(rng.integers(1, 11))
    k = int(rng.integers(0, 301))
    if rng.random() < 0.25:
        coeffs = rng.integers(-3, 4, size=(k, d)).astype(float)
        rhs = rng.integers(0, 6, size=k).astype(float)
        cost = rng.integers(-3, 4, size=d).astype(float)
    else:
        coeffs = rng.normal(size=(k, d))
        rhs = rng.uniform(0.0, 2.0, size=k) - float(rng.random() < 0.1)
        cost = rng.normal(size=d)
    lower = np.where(rng.random(d) < 0.2, -np.inf, -rng.uniform(0.5, 3.0, d))
    upper = np.where(rng.random(d) < 0.2, np.inf, rng.uniform(0.5, 3.0, d))
    return LinearProgram(cost=cost, row_coeffs=coeffs, row_rhs=rhs,
                         lower=lower, upper=upper)


def solve_outcomes(lps, refine=True):
    return [(sol.status, sol.x) for sol in (solve(lp, refine=refine)
                                            for lp in lps)]


def outcome_digest(outcomes):
    """sha256 of (status, x) outcomes, each zero of x written as +0.0."""
    digest = hashlib.sha256()
    for status, x in outcomes:
        digest.update(status.value.encode())
        if x is not None:
            digest.update((x + 0.0).tobytes())
    return digest.hexdigest()


class TestKernelAgreement:
    """A fresh inverse at every pivot and eta steps alone (no refactoring)
    reach the statuses and minimizers of the default kernel."""

    @pytest.fixture(scope="class")
    def corpus(self):
        rng = np.random.default_rng(11)
        lps = [random_corpus_lp(rng) for _ in range(300)]
        return lps, solve_outcomes(lps)

    @pytest.fixture(scope="class")
    def resource_lps(self):
        # a d=10, m=2000 stage, and a greedy candidate of resource-compare
        # at seed 2754417050 whose refinement core once ended on a basis
        # where eta-updated prices showed an eligible column with no
        # blocking row: an unbounded ray that a fresh inverse does not see
        prog = gen_resource(10, 2, 2000, RandomSource(2754417050).generator())
        removed = {42, 363, 527, 550, 604, 737, 840, 951, 1453, 1485, 1738}
        lps = [resource_stage(), prog.assemble(prog.labels - removed)[0]]
        return lps, solve_outcomes(lps)

    def test_outcomes_match_their_recorded_digests(self, corpus,
                                                   resource_lps):
        # refined, then unrefined: the statuses and minimizers bit for bit,
        # up to the sign of a zero
        lps = corpus[0] + resource_lps[0]
        digests = [outcome_digest(corpus[1] + resource_lps[1]),
                   outcome_digest(solve_outcomes(lps, refine=False))]
        assert digests == [
            "3a63466470fd62775404f5da08e24d0aad704f6b7a6688e5bf1400caa1fee9ef",
            "83c29360df85460a9d93f70c07760d390b1571922d85179f526d85906d4ed8b3"]

    @staticmethod
    def assert_agree(got, expected):
        assert [s for s, _ in got] == [s for s, _ in expected]
        for (_, x), (_, x_ref) in zip(got, expected):
            if x_ref is not None:
                np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("every", [1, 10**6])
    def test_random_corpus(self, monkeypatch, corpus, every):
        lps, expected = corpus
        assert sum(s is LpStatus.OPTIMAL for s, _ in expected) > 200
        monkeypatch.setattr(lp_module, "_REFACTOR_EVERY", every)
        self.assert_agree(solve_outcomes(lps), expected)

    @pytest.mark.parametrize("every", [1, 10**6])
    def test_resource_lps(self, monkeypatch, resource_lps, every):
        lps, expected = resource_lps
        assert all(s is LpStatus.OPTIMAL for s, _ in expected)
        monkeypatch.setattr(lp_module, "_REFACTOR_EVERY", every)
        self.assert_agree(solve_outcomes(lps), expected)


class TestValidation:
    def test_nan_cost_rejected(self):
        with pytest.raises(LpInputError):
            box_lp([np.nan], [[1.0]], [1.0], [0.0], [1.0])

    def test_inf_row_rejected(self):
        with pytest.raises(LpInputError):
            box_lp([1.0], [[np.inf]], [1.0], [0.0], [1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(LpInputError):
            LinearProgram(cost=[1.0, 2.0], row_coeffs=[[1.0]], row_rhs=[1.0],
                          lower=[0.0, 0.0], upper=[1.0, 1.0])

    def test_crossed_bounds(self):
        with pytest.raises(LpInputError):
            box_lp([1.0], [[1.0]], [1.0], [2.0], [1.0])

    @pytest.mark.parametrize("lower, upper", [([np.inf], [np.inf]),
                                              ([-np.inf], [-np.inf])])
    def test_infinite_bound_on_the_wrong_side_rejected(self, lower, upper):
        # the box is empty; an infinite bound must not read as no bound
        with pytest.raises(LpInputError):
            box_lp([1.0], [[-1.0]], [-0.5], lower, upper)

    def test_check_feasible_dimension(self):
        lp = box_lp([1.0], [[-1.0]], [-0.7], [0.0], [1.0])
        with pytest.raises(LpInputError):
            check_feasible(lp, [0.5, 0.5])


class TestCheckFeasible:
    def test_boundary_inclusive(self):
        lp = box_lp([1.0], [[-1.0]], [-0.7], [0.0], [1.0])
        assert check_feasible(lp, [0.7])

    @pytest.mark.parametrize("rows, rhs, x", [
        (np.zeros((0, 1)), [], np.nan), (np.zeros((0, 1)), [], np.inf),
        (np.zeros((0, 1)), [], -np.inf), ([[-1.0]], [-0.5], np.nan)])
    def test_non_finite_point_is_infeasible(self, rows, rhs, x):
        lp = box_lp([1.0], rows, rhs, [-np.inf], [np.inf])
        assert not check_feasible(lp, [x])

    def test_violated_beyond_tolerance(self):
        lp = box_lp([1.0], [[-1.0]], [-0.7], [0.0], [1.0])
        assert not check_feasible(lp, [0.7 - 2 * FEAS_TOL])

    def test_solver_output_feasible(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(1000):
            lp = random_lp(rng)
            sol = solve(lp)
            if sol.status is LpStatus.OPTIMAL:
                assert check_feasible(lp, sol.x)
                checked += 1
        assert checked > 350


class TestAgainstEnumeration:
    def test_optimality_certificate(self):
        # finite boxes keep every instance bounded, so enumeration of basic
        # feasible points is a complete oracle
        rng = np.random.default_rng(23)
        solved = 0
        for _ in range(1000):
            lp = random_lp(rng)
            sol = solve(lp)
            status, obj, lex = enumerate_lp(lp)
            if status == "infeasible":
                assert sol.status is LpStatus.INFEASIBLE
                continue
            assert sol.status is LpStatus.OPTIMAL
            assert sol.objective == pytest.approx(obj, abs=1e-8)
            np.testing.assert_allclose(sol.x, lex, atol=1e-6)
            solved += 1
        assert solved > 350

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            lp = random_lp(rng)
            sol = solve(lp)
            perm = rng.permutation(lp.n_rows)
            lp_shuffled = LinearProgram(
                cost=lp.cost, row_coeffs=lp.row_coeffs[perm],
                row_rhs=lp.row_rhs[perm], lower=lp.lower, upper=lp.upper,
            )
            sol_shuffled = solve(lp_shuffled)
            assert sol.status is sol_shuffled.status
            if sol.status is LpStatus.OPTIMAL:
                np.testing.assert_allclose(
                    sol.x, sol_shuffled.x, atol=FEAS_TOL
                )

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(17)
        lp = random_lp(rng)
        first = solve(lp)
        second = solve(lp)
        assert first.status is second.status
        if first.status is LpStatus.OPTIMAL:
            assert np.array_equal(first.x, second.x)

    def test_monotone_under_row_addition(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            lp = random_lp(rng)
            sol = solve(lp)
            extra = rng.normal(size=lp.d)
            tightened = LinearProgram(
                cost=lp.cost, row_coeffs=np.vstack([lp.row_coeffs, extra]),
                row_rhs=np.append(lp.row_rhs, rng.normal()),
                lower=lp.lower, upper=lp.upper,
            )
            sol_t = solve(tightened)
            if sol.status is LpStatus.INFEASIBLE:
                assert sol_t.status is LpStatus.INFEASIBLE
                continue
            if sol_t.status is LpStatus.INFEASIBLE:
                continue
            assert sol_t.objective >= sol.objective - 1e-7


# ---------------------------------------------------------------------------
# Pathological corpus: exponential pivot paths, many rows through one
# vertex, tied maxima, near-parallel rows and badly scaled rows.  Every case
# must end in a status, never in a SimplexStallError.
# ---------------------------------------------------------------------------


def assert_matches_enumeration(lp, sol, compare_x=True):
    """Status and objective of enumerate_lp on lp, and sol.x feasible in lp."""
    status, objective, lex = enumerate_lp(lp)
    assert sol.status.value == status
    if status == "optimal":
        assert sol.objective == pytest.approx(objective, abs=1e-7)
        assert check_feasible(lp, sol.x)
        if compare_x:
            np.testing.assert_allclose(sol.x, lex, rtol=0.0, atol=1e-6)


def klee_minty(d):
    """max sum_j 2^(d-j) x_j  s.t.  2 sum_{j<i} 2^(i-j) x_j + x_i <= 5^i,
    x >= 0, the cube on which primal Dantzig pricing from the origin visits
    all 2^d vertices; the optimum is (0, ..., 0, 5^d)."""
    rows = np.zeros((d, d))
    for i in range(d):
        rows[i, :i] = 2.0 ** (i - np.arange(i) + 1)
        rows[i, i] = 1.0
    return LinearProgram(
        cost=-(2.0 ** np.arange(d - 1, -1, -1)), row_coeffs=rows,
        row_rhs=5.0 ** np.arange(1, d + 1), lower=np.zeros(d),
        upper=np.full(d, np.inf),
    )


def forty_rows_through_one_vertex(d):
    """40 nonnegative normals through an interior point v of [0, 1]^d, 10
    rows slack there, and a cost inside the normal cone of the first d
    tight rows, so v is the unique minimizer; returns (lp, v)."""
    rng = np.random.default_rng(d)
    v = rng.uniform(0.2, 0.8, d)
    tight = rng.uniform(0.1, 1.0, (40, d))
    loose = rng.normal(size=(10, d))
    rows = np.vstack([tight, loose])
    rhs = np.concatenate([tight @ v, loose @ v + rng.uniform(0.1, 1.0, 10)])
    perm = rng.permutation(50)
    lp = box_lp(-(rng.uniform(0.5, 1.0, d) @ tight[:d]), rows[perm],
                rhs[perm], np.zeros(d), np.ones(d))
    return lp, v


def twenty_equal_analytic_maxima():
    """The analytic family's rows x >= delta_i, the largest delta 20
    times; returns (lp, deltas)."""
    rng = np.random.default_rng(20)
    deltas = rng.permutation(
        np.concatenate([rng.uniform(0.0, 0.6, 10), np.full(20, 0.75)]))
    return box_lp([1.0], -np.ones((30, 1)), -deltas, [0.0], [1.0]), deltas


def thirty_near_parallel_rows(d):
    """a.x <= 1 perturbed by 1e-9 and maximized along a: the optimal face
    is nearly flat, so points 0.05 apart differ in cost by about 1e-9."""
    rng = np.random.default_rng(30 + d)
    a = rng.normal(size=d)
    rows = a + 1e-9 * rng.normal(size=(30, d))
    rhs = 1.0 + 1e-9 * rng.normal(size=30)
    return box_lp(-a, rows, rhs, np.full(d, -5.0), np.full(d, 5.0))


def scaled_resource_rows(scale):
    """A d=3 resource stage with every row scaled by scale, which keeps
    the feasible set and the optimum."""
    program = gen_resource(3, 2, 20, RandomSource(seed=40).generator())
    base, _ = program.assemble(program.labels)
    return LinearProgram(cost=base.cost, row_coeffs=base.row_coeffs * scale,
                         row_rhs=base.row_rhs * scale, lower=base.lower,
                         upper=base.upper)


PATHOLOGICAL_CORPUS = {
    **{f"klee_minty-{d}": lambda d=d: klee_minty(d) for d in range(2, 9)},
    **{f"forty_rows-{d}": lambda d=d: forty_rows_through_one_vertex(d)[0]
       for d in (2, 3, 5)},
    "twenty_maxima": lambda: twenty_equal_analytic_maxima()[0],
    **{f"near_parallel-{d}": lambda d=d: thirty_near_parallel_rows(d)
       for d in (2, 3)},
    **{f"scaled_resource-{scale:g}": lambda scale=scale: scaled_resource_rows(
        scale) for scale in (1e-6, 1e6)},
}


class TestPathologicalCorpus:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_klee_minty_cube(self, d):
        sol = solve(klee_minty(d))
        assert sol.status is LpStatus.OPTIMAL
        expected = np.zeros(d)
        expected[-1] = 5.0 ** d
        np.testing.assert_allclose(sol.x, expected, rtol=0.0, atol=1e-9)
        assert sol.objective == -(5.0 ** d)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_forty_rows_through_one_vertex(self, d):
        lp, v = forty_rows_through_one_vertex(d)
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, v, rtol=0.0, atol=1e-12)
        assert len(tight_rows(lp, sol.x)) == 40
        if d <= 3:
            # at d = 5 the 60 constraints have 5.5 million 5-subsets
            assert_matches_enumeration(lp, sol)

    def test_twenty_equal_analytic_maxima(self):
        lp, deltas = twenty_equal_analytic_maxima()
        sol = solve(lp)
        assert sol.x[0] == 0.75 and sol.objective == 0.75
        assert tight_rows(lp, sol.x) == frozenset(
            np.flatnonzero(deltas == 0.75).tolist())
        assert_matches_enumeration(lp, sol)

    @pytest.mark.parametrize("d", [2, 3])
    def test_thirty_near_parallel_rows(self, d):
        # the lex point is not compared: the face is nearly flat
        lp = thirty_near_parallel_rows(d)
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert_matches_enumeration(lp, sol, compare_x=False)

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_scaled_resource_rows(self, scale):
        lp = scaled_resource_rows(scale)
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert_matches_enumeration(lp, sol)

    @pytest.mark.parametrize("case", PATHOLOGICAL_CORPUS)
    def test_matches_the_forced_refine_loop(self, case):
        # where the lex-min certificate skips refinement (the analytic
        # maxima), the refine loop reaches the same point; elsewhere both
        # run the loop
        lp = PATHOLOGICAL_CORPUS[case]()
        with certificates() as verdicts:
            sol = solve(lp)
        with certificates(False):
            forced = solve(lp)
        assert verdicts == [case == "twenty_maxima"]
        assert sol.status is forced.status is LpStatus.OPTIMAL
        assert np.abs(sol.x - forced.x).max() <= X_TOL
