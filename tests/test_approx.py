import math
import random
from fractions import Fraction

import pytest

from bicount.approx import _draws, run_trials, sparsify
from bicount.exact import count_vpp
from bicount.generate import complete_pairs, hub_pairs
from bicount.graph import BipartiteGraph, assign_priorities
from helpers import complete_3x2, edge_list, three_path


def exact_count(g):
    return count_vpp(g, assign_priorities(g)).butterflies


class TestSparsify:
    def test_p_one_keeps_everything(self):
        g = BipartiteGraph.build(hub_pairs(20))
        assert edge_list(sparsify(g, 1.0, seed=5)) == edge_list(g)

    def test_same_seed_same_subset(self):
        g = BipartiteGraph.build(hub_pairs(20))
        assert edge_list(sparsify(g, 0.5, seed=9)) == edge_list(sparsify(g, 0.5, seed=9))

    def test_vertex_universe_unchanged(self):
        g = BipartiteGraph.build(hub_pairs(20))
        sample = sparsify(g, 0.3, seed=1)
        assert sample.upper_count == g.upper_count
        assert sample.lower_count == g.lower_count
        assert sample.external_labels == g.external_labels

    @pytest.mark.parametrize("seed", [0, 1, 3, 3_000_011, 2 ** 40 + 7, -5])
    def test_draws_are_python_random_draws(self, seed):
        for count in (0, 1, 7, 1000, 20_000):
            draw = random.Random(seed).random
            assert _draws(seed, count).tolist() == [draw() for _ in range(count)]
        # One draw per edge, in edge order: an edge stays iff its draw is below p.
        g = BipartiteGraph.build(complete_pairs(7, 25))
        draw = random.Random(seed).random
        assert edge_list(sparsify(g, 0.5, seed)) == [e for e in edge_list(g) if draw() < 0.5]

    def test_invalid_probability_rejected(self):
        g = complete_3x2()
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                sparsify(g, bad, seed=0)

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_kept_count_tracks_the_binomial(self, p):
        # 1000 trials on a 100-edge graph: the mean kept count sits within
        # three standard errors of 100p.
        g = BipartiteGraph.build(complete_pairs(10, 10))
        assert g.edge_count == 100
        trials = 1000
        kept = [sparsify(g, p, seed=i).edge_count for i in range(trials)]
        mean = sum(kept) / trials
        stderr = math.sqrt(100 * p * (1 - p)) / math.sqrt(trials)
        assert abs(mean - 100 * p) <= 3 * stderr


class TestEstimate:
    def test_p_one_is_exact(self):
        g = complete_3x2()
        trials, _ = run_trials(g, 1.0, 1, seed=3, with_exact=False)
        assert trials.estimates[0] == exact_count(g) == 3

    def test_zero_butterflies_stay_zero(self):
        g = three_path()
        # Trial i samples with seed i: seeds 0..4.
        trials, _ = run_trials(g, 0.5, 5, seed=0, with_exact=False)
        assert trials.estimates == [0] * 5

    def test_unbiased_on_complete_3x2(self):
        # Spec-scale check: mean of 10,000 seeded trials within three
        # standard errors of the exact count of 3.
        g = complete_3x2()
        trials = 10_000
        _, summary = run_trials(g, 0.5, trials, seed=17)
        stderr = math.sqrt(float(summary.variance) / trials)
        assert abs(float(summary.mean) - 3) <= 3 * stderr


class TestRunTrials:
    def test_single_trial_mean_is_the_estimate(self):
        g = complete_3x2()
        trials, summary = run_trials(g, 0.5, 1, seed=4)
        assert summary.mean == trials.estimates[0]
        assert summary.variance == 0

    def test_p_one_has_zero_variance(self):
        g = complete_3x2()
        _, summary = run_trials(g, 1.0, 5, seed=4)
        assert summary.variance == 0
        assert summary.mean == 3
        assert summary.relative_error == 0

    def test_deterministic_given_seed(self):
        g = BipartiteGraph.build(hub_pairs(15))
        a, _ = run_trials(g, 0.4, 8, seed=12)
        b, _ = run_trials(g, 0.4, 8, seed=12)
        assert a.estimates == b.estimates

    def test_summary_dict_schema(self):
        g = complete_3x2()
        _, summary = run_trials(g, 0.5, 4, seed=2)
        data = summary.to_dict()
        assert set(data) == {"p", "trials", "mean", "variance", "exact",
                             "relative_error"}
        _, summary = run_trials(three_path(), 0.5, 4, seed=2)
        assert "relative_error" not in summary.to_dict()  # exact count is 0

    def test_expected_work_shrinks_with_p(self):
        g = BipartiteGraph.build(hub_pairs(30))
        averages = []
        for p in (1.0, 0.5, 0.25):
            trials, _ = run_trials(g, p, 30, seed=6, with_exact=False)
            averages.append(sum(trials.wedges) / len(trials.wedges))
        assert averages[0] > averages[1] > averages[2]

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_trials(complete_3x2(), 0.5, 0, seed=1)


class TestInjectedCounter:
    def test_estimator_uses_the_supplied_engine(self):
        calls = []

        def spy_counter(g):
            report = count_vpp(g, assign_priorities(g))
            calls.append(report.butterflies)
            return report

        trials, _ = run_trials(complete_3x2(), 1.0, 1, seed=0,
                               counter=spy_counter, with_exact=False)
        assert calls == [3]
        assert trials.estimates == [Fraction(3)]
