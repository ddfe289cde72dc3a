import numpy as np
import pytest

from scenopt.lp import (
    DEFAULT_TOL,
    LinearProgram,
    LpInputError,
    LpStatus,
    LpTolerances,
    SimplexStallError,
    _solve_standard_form,
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
        assert sol.active_rows == frozenset({0})

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


class TestSelect:
    def test_select_matches_a_validated_copy(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lp = random_lp(rng)
            rows = rng.random(lp.n_rows) < 0.5
            sub = lp.select(rows)
            ref = LinearProgram(cost=lp.cost, row_coeffs=lp.row_coeffs[rows],
                                row_rhs=lp.row_rhs[rows], lower=lp.lower,
                                upper=lp.upper)
            assert sub.n_rows == ref.n_rows and sub.d == ref.d
            assert not sub.row_coeffs.flags.writeable
            a, b = solve(sub), solve(ref)
            assert a.status is b.status
            if a.is_optimal:
                assert np.array_equal(a.x, b.x)
                assert a.active_rows == b.active_rows


def test_dependent_equality_rows_raise_a_stall():
    # the second row of E is zero, so its phase-1 artificial stays basic
    E = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(SimplexStallError, match="linearly dependent"):
        _solve_standard_form(E, np.array([1.0, 0.0]), np.array([1.0, 2.0]),
                             DEFAULT_TOL)


@pytest.mark.parametrize("refine, expected", [(False, 4), (True, 8)])
def test_each_basis_system_is_solved_once(monkeypatch, refine, expected):
    # min x on [0, 1] with x >= 0.2, 0.9, 0.5: each LP core is one phase-2
    # pivot (pi, x_b, direction) and a final pricing that solves only for
    # pi, which is also the dual vector the core reads its minimizer from
    calls = []
    real_solve = np.linalg.solve

    def spy(*args, **kwargs):
        calls.append(None)
        return real_solve(*args, **kwargs)

    lp = box_lp([1.0], [[-1.0], [-1.0], [-1.0]], [-0.2, -0.9, -0.5],
                [0.0], [1.0])
    monkeypatch.setattr(np.linalg, "solve", spy)
    sol = solve(lp, refine=refine)
    assert sol.x[0] == pytest.approx(0.9, abs=1e-12)
    assert len(calls) == expected


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

    def test_check_feasible_dimension(self):
        lp = box_lp([1.0], [[-1.0]], [-0.7], [0.0], [1.0])
        with pytest.raises(LpInputError):
            check_feasible(lp, [0.5, 0.5])


@pytest.mark.parametrize("field", ["feas", "active", "x", "pivot"])
@pytest.mark.parametrize("value", [0.0, -1e-6, np.nan, np.inf])
def test_tolerances_must_be_finite_and_positive(field, value):
    with pytest.raises(LpInputError, match=f"tolerance {field}="):
        LpTolerances(**{field: value})


class TestCheckFeasible:
    def test_boundary_inclusive(self):
        lp = box_lp([1.0], [[-1.0]], [-0.7], [0.0], [1.0])
        assert check_feasible(lp, [0.7])

    def test_violated_beyond_tolerance(self):
        lp = box_lp([1.0], [[-1.0]], [-0.7], [0.0], [1.0])
        assert not check_feasible(lp, [0.7 - 2 * DEFAULT_TOL.feas])

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
                    sol.x, sol_shuffled.x, atol=DEFAULT_TOL.feas
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
