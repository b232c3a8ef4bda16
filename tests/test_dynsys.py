"""Fixed points, linearization, eigen-classification, and two-species exclusion."""
import math

import numpy as np
import pytest

from growthdyn import (CENTER, DEGENERATE, MARGINAL, SADDLE,
                       SPECIES_1_SURVIVES, SPECIES_2_SURVIVES, STABLE_FOCUS,
                       STABLE_NODE, UNSTABLE_FOCUS, UNSTABLE_NODE,
                       AutonomousSystem, CompetitionParams,
                       NonConvergenceError, NumericalError, ParameterError, classify,
                       competition_system, coupled_logistic_demo,
                       exclusion_verdict, find_fixed_point, integrate_adaptive,
                       linearize, stability_report)


def _logistic_pair():
    # two uncoupled logistic coordinates, fixed point at (1, 1)
    return AutonomousSystem(2, lambda s: np.array([s[0] * (1.0 - s[0]),
                                                   s[1] * (1.0 - s[1])]))


class TestFixedPoint:
    def test_logistic_pair_from_nearby_guess(self):
        fp = find_fixed_point(_logistic_pair(), (0.9, 0.9))
        assert fp.s_c == pytest.approx(1.0, abs=1e-10)
        assert fp.r_c == pytest.approx(1.0, abs=1e-10)
        assert fp.residual_norm < 1e-10

    def test_as_array(self):
        fp = find_fixed_point(_logistic_pair(), (0.9, 0.9))
        arr = fp.as_array()
        assert arr.shape == (2,)
        np.testing.assert_allclose(arr, [1.0, 1.0], atol=1e-10)

    def test_origin_found_from_origin_guess(self):
        fp = find_fixed_point(_logistic_pair(), (0.0, 0.0))
        assert fp.s_c == 0.0 and fp.r_c == 0.0

    def test_no_root_raises_with_best_attempt(self):
        system = AutonomousSystem(2, lambda s: np.array([1.0, 1.0]))
        with pytest.raises(NonConvergenceError) as info:
            find_fixed_point(system, (0.0, 0.0))
        assert hasattr(info.value, "best")

    def test_linear_saddle_converges_from_afar(self):
        system = AutonomousSystem(2, lambda s: np.array([s[0] - 3.0, -s[1] + 1.0]))
        fp = find_fixed_point(system, (10.0, -10.0))
        assert (fp.s_c, fp.r_c) == pytest.approx((3.0, 1.0), abs=1e-10)


class TestLinearize:
    def test_logistic_pair_at_carrying_level(self):
        a, b, c, d = linearize(_logistic_pair(), (1.0, 1.0))
        assert a == pytest.approx(-1.0, abs=1e-6)
        assert d == pytest.approx(-1.0, abs=1e-6)
        assert abs(b) < 1e-9 and abs(c) < 1e-9

    def test_linear_system_recovered_exactly(self):
        system = AutonomousSystem(
            2, lambda s: np.array([2.0 * s[0] + 3.0 * s[1],
                                   -1.0 * s[0] + 0.5 * s[1]]))
        a, b, c, d = linearize(system, (0.4, -1.7))
        np.testing.assert_allclose([a, b, c, d], [2.0, 3.0, -1.0, 0.5],
                                   rtol=1e-9, atol=1e-9)


class TestClassify:
    @pytest.mark.parametrize("jac, expected", [
        ((-1.0, 0.0, 0.0, -2.0), STABLE_NODE),
        ((1.0, 0.0, 0.0, 1.0), UNSTABLE_NODE),
        ((2.0, 0.0, 0.0, -3.0), SADDLE),
        ((-1.0, -2.0, 2.0, -1.0), STABLE_FOCUS),
        ((1.0, -2.0, 2.0, 1.0), UNSTABLE_FOCUS),
        ((0.0, 1.0, -1.0, 0.0), CENTER),
        ((1.0, 1.0, 0.0, 1.0), DEGENERATE),
        ((1.0, 0.0, 0.0, 0.0), DEGENERATE),
    ])
    def test_canonical_matrices(self, jac, expected):
        assert classify(jac).classification == expected

    def test_star_point_is_a_node(self):
        # repeated eigenvalue with a full eigenspace is a node, not degenerate
        assert classify((1.0, 0.0, 0.0, 1.0)).classification == UNSTABLE_NODE
        assert classify((-1.0, 0.0, 0.0, -1.0)).classification == STABLE_NODE

    def test_eigenvalues_of_rotation(self):
        out = classify((0.0, 1.0, -1.0, 0.0))
        lams = sorted(out.eigenvalues, key=lambda z: z.imag)
        assert lams[0] == pytest.approx(-1j)
        assert lams[1] == pytest.approx(1j)

    @pytest.mark.parametrize("seed", range(10))
    def test_trace_and_determinant_identities(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c, d = rng.uniform(-3.0, 3.0, 4)
        out = classify((a, b, c, d))
        lam1, lam2 = out.eigenvalues
        assert (lam1 + lam2).real == pytest.approx(a + d, abs=1e-9)
        assert abs((lam1 + lam2).imag) < 1e-9
        assert (lam1 * lam2).real == pytest.approx(a * d - b * c, abs=1e-9)
        assert out.trace == pytest.approx(a + d, abs=1e-12)
        assert out.determinant == pytest.approx(a * d - b * c, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_positive_scaling_preserves_class(self, seed):
        rng = np.random.default_rng(1000 + seed)
        jac = tuple(rng.uniform(-2.0, 2.0, 4))
        k = rng.uniform(0.1, 10.0)
        scaled = tuple(k * v for v in jac)
        assert classify(jac).classification == classify(scaled).classification

    @pytest.mark.parametrize("jac, expected", [
        ((-1.0, 0.0, 0.0, -2.0), STABLE_NODE),
        ((-1.0, 0.5, 0.0, -1.2), STABLE_NODE),
        ((0.1, -1.0, 1.0, 0.1), UNSTABLE_FOCUS),
        ((-1.0, -3.0, 1.0, -1.0), STABLE_FOCUS),
        ((0.0, 1.0, -1.0, 0.0), CENTER),
        ((1.0, 1.0, 0.0, 1.0), DEGENERATE),
        ((1.0, 0.0, 0.0, 0.0), DEGENERATE),
    ])
    @pytest.mark.parametrize("k", [1e-12, 1e-9, 1e-7, 1e-3, 1e3, 1e6])
    def test_label_is_free_of_the_time_unit(self, jac, expected, k):
        assert classify(tuple(k * v for v in jac)).classification == expected

    def test_slow_system_keeps_its_label(self):
        # the demo with every rate 1e-9 times smaller has the same fixed point
        # (2, 2) and eigenvalues -1e-9 and -3e-9
        system = coupled_logistic_demo(1e-9, 1e-9, 0.5e-9, 1e-9, 1e-9, 0.5e-9)
        report = stability_report(system, (2.1, 1.9))
        assert (report.fixed_point.s_c, report.fixed_point.r_c) == (2.0, 2.0)
        assert report.classification == STABLE_NODE


class TestOverflowingRhs:
    """An rhs that overflows ends in a typed error, not a numpy warning."""

    def test_linearize(self):
        with pytest.raises(NumericalError, match="while differencing"):
            linearize(coupled_logistic_demo(), [1e300, 2.0])

    @pytest.mark.parametrize("guess", [[1e300, 2.0], [1e154, 2.0]])
    def test_stability_report(self, guess):
        # 1e154 overflows in the descent's sum of squares, 1e300 in the rhs
        with pytest.raises(NonConvergenceError, match="best residual inf"):
            stability_report(coupled_logistic_demo(), guess)


class TestStabilityReport:
    def test_logistic_pair_summary(self):
        report = stability_report(_logistic_pair(), (0.9, 0.9))
        assert report.classification == STABLE_NODE
        assert report.fixed_point.s_c == pytest.approx(1.0, abs=1e-9)
        assert report.trace == pytest.approx(-2.0, abs=1e-5)
        assert report.determinant == pytest.approx(1.0, abs=1e-5)

    def test_coupled_demo_interior_point(self):
        system = coupled_logistic_demo()
        report = stability_report(system, (2.1, 1.9))
        assert report.fixed_point.s_c == pytest.approx(2.0, abs=1e-8)
        assert report.fixed_point.r_c == pytest.approx(2.0, abs=1e-8)
        assert report.classification == STABLE_NODE
        lams = sorted(lam.real for lam in report.eigenvalues)
        assert lams[0] == pytest.approx(-3.0, abs=1e-5)
        assert lams[1] == pytest.approx(-1.0, abs=1e-5)

    def test_coupled_demo_origin_repels(self):
        report = stability_report(coupled_logistic_demo(), (0.0, 0.0))
        assert report.classification == UNSTABLE_NODE


class TestCompetition:
    def test_params_validated(self):
        with pytest.raises(ParameterError):
            CompetitionParams(a1=0.0, a2=1.0, d1=1.0, d2=1.0, b=1.0, c=1.0)

    def test_rhs_structure(self):
        params = CompetitionParams(a1=2.0, a2=1.0, d1=1.0, d2=1.0, b=1.0, c=1.0)
        system = competition_system(params)
        rhs = system.rhs(np.array([1.0, 1.0]))
        # crowding term b*phi1 + c*phi2 = 2 at (1, 1)
        np.testing.assert_allclose(rhs, [(2.0 - 2.0) * 1.0, (1.0 - 2.0) * 1.0])

    def test_boundary_fixed_point_and_jacobian(self):
        params = CompetitionParams(a1=2.0, a2=1.0, d1=1.0, d2=1.0, b=1.0, c=1.0)
        system = competition_system(params)
        fp = find_fixed_point(system, (1.9, 0.05))
        assert fp.s_c == pytest.approx(2.0, abs=1e-9)
        assert abs(fp.r_c) < 1e-9
        a, b, c, d = linearize(system, (2.0, 0.0))
        np.testing.assert_allclose([a, b, c, d], [-2.0, -2.0, 0.0, -1.0],
                                   rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("params, expected, limit", [
        (CompetitionParams(2.0, 1.0, 1.0, 1.0, 1.0, 1.0), SPECIES_1_SURVIVES, 2.0),
        (CompetitionParams(1.0, 3.0, 2.0, 1.0, 1.0, 2.0), SPECIES_2_SURVIVES, 1.5),
    ])
    def test_exclusion_examples(self, params, expected, limit):
        verdict = exclusion_verdict(params)
        assert verdict.verdict == expected
        assert verdict.survivor_limit == pytest.approx(limit, rel=1e-12)

    def test_symmetric_case_is_marginal(self):
        verdict = exclusion_verdict(CompetitionParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0))
        assert verdict.verdict == MARGINAL
        assert verdict.survivor_limit is None
        assert verdict.ratio == pytest.approx(1.0)

    @pytest.mark.parametrize("rates, expected, limit, ratio", [
        # a1*d2 or a2*d1 overflows or underflows: these used to read marginal
        # (the first two) or raised a bare ZeroDivisionError
        ((1e200, 1, 1, 1e200, 1, 1), SPECIES_1_SURVIVES, 1e200, math.inf),
        ((1, 1e200, 1e200, 1, 1, 1), SPECIES_2_SURVIVES, 1e200, 0.0),
        ((1e-200, 1e-200, 1e-200, 1e-200, 1, 1), MARGINAL, None, 1.0),
        ((1e200, 1e-200, 1e-200, 1e200, 1, 1), SPECIES_1_SURVIVES, math.inf, math.inf),
        ((1e-300, 1, 1e-200, 1, 1e-200, 1), SPECIES_2_SURVIVES, 1.0, 1e-100),
    ])
    def test_products_beyond_float64(self, rates, expected, limit, ratio):
        verdict = exclusion_verdict(CompetitionParams(*rates))
        assert (verdict.verdict, verdict.survivor_limit) == (expected, limit)
        assert verdict.ratio == pytest.approx(ratio, rel=1e-15)

    @pytest.mark.parametrize("shift", [600, -600])
    def test_verdict_is_scale_free(self, shift):
        # all four rates times 2**shift: the products leave float64, the
        # verdict and the ratio do not change, and the limit scales exactly
        for rates in [(2.0, 1.0, 1.0, 1.0), (1.0, 3.0, 2.0, 1.0), (1.0, 1.0, 1.0, 1.0)]:
            plain = exclusion_verdict(CompetitionParams(*rates, 1.0, 2.0))
            scaled = exclusion_verdict(CompetitionParams(
                *(math.ldexp(r, shift) for r in rates), 1.0, 2.0))
            assert (scaled.verdict, scaled.ratio) == (plain.verdict, plain.ratio)
            assert scaled.survivor_limit == plain.survivor_limit

    def test_normal_products_keep_their_bits(self):
        # where both products are normal floats, the verdict and the ratio are
        # those of the plain products, bit for bit
        rng = np.random.default_rng(7)
        for _ in range(2000):
            a1, a2, d1, d2 = np.exp(rng.uniform(-300, 300, 4)).tolist()
            if rng.random() < 0.3:
                d2 = a2 * d1 / a1 * (1.0 + rng.uniform(-2e-12, 2e-12))
            lhs, rhs = a1 * d2, a2 * d1
            if not (2.0 ** -1022 <= min(lhs, rhs) and max(lhs, rhs) < math.inf) or d2 == 0:
                continue
            verdict = exclusion_verdict(CompetitionParams(a1, a2, d1, d2, 1.0, 1.0))
            marginal = abs(lhs - rhs) <= 1e-12 * max(lhs, rhs)
            assert verdict.verdict == (MARGINAL if marginal else SPECIES_1_SURVIVES
                                       if lhs > rhs else SPECIES_2_SURVIVES)
            assert verdict.ratio == lhs / rhs

    def test_near_tie_within_tolerance_is_marginal(self):
        params = CompetitionParams(1.0, 1.0 + 1e-14, 1.0, 1.0, 1.0, 1.0)
        assert exclusion_verdict(params).verdict == MARGINAL

    @pytest.mark.parametrize("seed", range(5))
    def test_survivor_equilibrium_attracts(self, seed):
        rng = np.random.default_rng(seed)
        vals = np.exp(rng.uniform(math.log(0.5), math.log(2.0), 6))
        params = CompetitionParams(*vals)
        verdict = exclusion_verdict(params)
        if verdict.verdict == MARGINAL or abs(verdict.ratio - 1.0) < 0.2:
            pytest.skip("draw too close to the marginal line for a short run")
        t_end = 80.0 / min(params.a1, params.a2)
        traj = integrate_adaptive(competition_system(params),
                                  np.array([0.3, 0.3]), 0.0, t_end,
                                  rel_tol=1e-9, abs_tol=1e-12)
        phi1, phi2 = traj.states[-1]
        if verdict.verdict == SPECIES_1_SURVIVES:
            assert phi1 == pytest.approx(verdict.survivor_limit, rel=1e-3)
            assert phi2 < 1e-4
        else:
            assert phi2 == pytest.approx(verdict.survivor_limit, rel=1e-3)
            assert phi1 < 1e-4
