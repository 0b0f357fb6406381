import math

import pytest

from rulecover import smooth
from rulecover.involute import involute_cover
from rulecover.verify import (
    Fold,
    FoldFailureError,
    Rule,
    check_fold,
    fold_rule,
    random_rule,
    shrink_cover,
    verify_diameter,
    verify_reachability,
)

W = (0.0, math.sqrt(3) / 2)


class TestRule:
    def test_valid(self):
        rule = Rule((0.5, 1.0, 0.25))
        assert rule.lengths == (0.5, 1.0, 0.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Rule(())

    def test_overlong_segment_rejected(self):
        with pytest.raises(ValueError):
            Rule((0.5, 1.5))

    def test_zero_segment_rejected(self):
        with pytest.raises(ValueError):
            Rule((0.0,))

    def test_random_rule(self):
        rule = random_rule(50, seed=3)
        assert len(rule.lengths) == 50
        assert all(0 < x <= 1 for x in rule.lengths)
        assert random_rule(50, seed=3).lengths == rule.lengths


class TestReachability:
    def test_r2_passes(self, r2_bundle):
        report = verify_reachability(r2_bundle, n_points=32, n_lengths=32)
        assert report.failures == []
        assert report.passed
        assert abs(report.diameter - 1.0) <= 1e-9

    def test_two_edge_passes(self, two_bundle):
        report = verify_reachability(two_bundle, n_points=32, n_lengths=32)
        assert report.passed

    def test_report_json(self, r2_bundle):
        report = verify_reachability(r2_bundle, n_points=16, n_lengths=16)
        doc = report.to_json()
        assert set(doc) == {"points", "lengths", "failures", "diameter", "eps",
                            "passed"}
        assert doc["passed"] is True
        assert doc["eps"] == report.eps == 1e-9
        assert doc["failures"] == []

    def test_smooth_512_edges_passes(self, smooth_optimum):
        # a finer discretization than the 48-edge acceptance check; --points
        # is a floor (one sample per piece), so this verifies 1025 points
        _, co, _ = smooth_optimum
        bundle = involute_cover(smooth.discretize_smooth(co, 512))
        report = verify_reachability(bundle, n_points=32, n_lengths=32)
        assert report.points == 1025
        assert report.failures == []

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_loose_eps_keeps_short_lengths(self, r2_bundle, eps):
        # eps is the containment tolerance only: a q at distance 1/16 from
        # p is a real candidate even when eps exceeds 1/16
        report = verify_reachability(r2_bundle, n_points=16, n_lengths=16,
                                     eps=eps)
        assert report.failures == []
        assert report.passed

    def test_minimum_sampling(self, r2_bundle):
        with pytest.raises(ValueError):
            verify_reachability(r2_bundle, n_points=4, n_lengths=16)

    def test_apex_pairs_with_base_corners(self, r2_bundle):
        # from the apex with the full unit length, both base corners work
        from rulecover.verify import _candidates

        upper = r2_bundle.upper_path
        cands = _candidates(upper, r2_bundle.n_right_upper, W, 1, 1.0)
        assert any(math.dist(q, (-0.5, 0.0)) <= 1e-9 for q, _ in cands)
        assert any(math.dist(q, (0.5, 0.0)) <= 1e-9 for q, _ in cands)

    def test_candidate_distances_are_exact(self, three_bundle):
        from rulecover.verify import _candidates, _upper_samples

        upper = three_bundle.upper_path
        n_right = three_bundle.n_right_upper
        for (p, side) in _upper_samples(upper, n_right, 16):
            for length in (0.25, 0.75, 1.0):
                for q, _ in _candidates(upper, n_right, p, side, length):
                    assert abs(math.dist(p, q) - length) <= 1e-9


class TestMutants:
    def test_shrunk_cover_fails(self, r2_bundle):
        mutant = shrink_cover(r2_bundle, 0.95)
        assert abs(mutant.area - 0.95 ** 2 * r2_bundle.area) <= 1e-12
        report = verify_reachability(mutant, n_points=16, n_lengths=16)
        assert len(report.failures) >= 1
        assert not report.passed
        # the unit length is unreachable everywhere in a diameter-0.95 set
        assert any(length == 1.0 for (_, length) in report.failures)

    def test_apex_cut_fails(self, apex_cut_bundle):
        # points on the chord that cuts off the apex see no partner at the
        # full unit distance
        report = verify_reachability(apex_cut_bundle, n_points=32, n_lengths=32)
        assert len(report.failures) >= 1


class TestDiameter:
    def test_r2(self, r2_bundle):
        assert abs(verify_diameter(r2_bundle, 4096) - 1.0) <= 1e-9

    def test_reference_covers_within_unit(self, three_bundle, four_bundle,
                                      smooth48_bundle):
        for bundle in (three_bundle, four_bundle):
            assert verify_diameter(bundle, 4096) <= 1.0 + 1e-9
        # dense pairwise check for the smooth cover
        assert verify_diameter(smooth48_bundle, 8192) <= 1.0 + 1e-9

    def test_oversize_cover_warns(self, r2_bundle):
        grown = shrink_cover(r2_bundle, 1.2)
        with pytest.warns(UserWarning):
            assert verify_diameter(grown, 256) > 1.0


class TestFold:
    def test_unit_rule_from_corner(self, r2_bundle):
        fold = fold_rule(r2_bundle, Rule((1.0,)))
        assert math.dist(fold.joints[0], (-0.5, 0.0)) <= 1e-12
        q = fold.joints[1]
        assert math.dist(q, (0.5, 0.0)) <= 1e-9 or math.dist(q, W) <= 1e-9

    def test_half_rule_four_segments(self, r2_bundle):
        rule = Rule((0.5,) * 4)
        fold = fold_rule(r2_bundle, rule)
        assert check_fold(r2_bundle, rule, fold)

    def test_random_rule_on_two_edge(self, two_bundle):
        rule = random_rule(40, seed=11)
        fold = fold_rule(two_bundle, rule, seed=11)
        assert check_fold(two_bundle, rule, fold)

    def test_deterministic(self, r2_bundle):
        rule = random_rule(20, seed=2)
        assert fold_rule(r2_bundle, rule).joints == fold_rule(r2_bundle, rule).joints
        f5 = fold_rule(r2_bundle, rule, seed=5)
        assert f5.joints == fold_rule(r2_bundle, rule, seed=5).joints

    def test_fold_failure_on_mutant(self, r2_bundle):
        mutant = shrink_cover(r2_bundle, 0.9)
        with pytest.raises(FoldFailureError) as err:
            fold_rule(mutant, Rule((1.0,)))
        assert err.value.index == 0

    def test_check_fold_rejects_bad_lengths(self, r2_bundle):
        rule = Rule((0.5,))
        bad = Fold(joints=((-0.5, 0.0), (0.2, 0.0)))
        with pytest.raises(AssertionError):
            check_fold(r2_bundle, rule, bad)
