import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from peergrade import (
    GibbsConfig,
    GradingGraph,
    GroundTruth,
    Hyperparameters,
    Model,
    PeerGrade,
    PosteriorSummary,
    StatBlock,
    TraceRecorder,
    VariableStat,
    denormalize,
    gibbs_infer,
    normalize_all,
    resolve_priors,
    zscore_normalize,
)
from peergrade.core import prepare_graph
from conftest import make_graph


class TestPeerGrade:
    def test_rejects_bad_assignment(self):
        with pytest.raises(ValueError, match="assignment"):
            PeerGrade(0, "v", "u", 80.0)

    def test_rejects_empty_ids(self):
        with pytest.raises(ValueError):
            PeerGrade(1, "", "u", 80.0)
        with pytest.raises(ValueError):
            PeerGrade(1, "v", "", 80.0)

    def test_rejects_nonfinite_score(self):
        with pytest.raises(ValueError, match="score"):
            PeerGrade(1, "v", "u", float("nan"))

    def test_rejects_negative_seconds(self):
        with pytest.raises(ValueError, match="seconds"):
            PeerGrade(1, "v", "u", 80.0, seconds=-1.0)

    def test_self_grade_flag(self):
        assert PeerGrade(1, "u", "u", 50.0).is_self_grade
        assert not PeerGrade(1, "v", "u", 50.0).is_self_grade


class TestGradingGraph:
    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate grade"):
            make_graph([(1, "v", "u", 80.0), (1, "v", "u", 70.0)])

    def test_universe_includes_graders_and_gradees(self):
        g = make_graph([(1, "v", "u", 80.0)])
        assert g.submissions(1) == ("u", "v")

    def test_explicit_universe_must_cover_grades(self):
        with pytest.raises(ValueError, match="without submissions"):
            make_graph([(1, "v", "u", 80.0)], submissions={1: ("u",)})

    def test_explicit_universe_allows_empty_assignment(self):
        g = make_graph([(1, "v", "u", 80.0)], submissions={1: ("u", "v"), 2: ()})
        assert g.assignments == (1, 2)
        assert g.submissions(2) == ()

    def test_ground_truth_must_reference_submission(self):
        with pytest.raises(ValueError, match="unknown submission"):
            make_graph([(1, "v", "u", 80.0)], ground_truth={(1, "x"): GroundTruth(consensus_score=70.0)})

    def test_adjacency(self):
        g = make_graph([(1, "v", "u", 80.0), (1, "w", "u", 70.0), (1, "v", "w", 60.0)])
        assert {x.grader for x in g.grades_in(1)} == {"v", "w"}
        assert [x.grader for x in g.graders_of(1, "u")] == ["v", "w"]
        assert [x.gradee for x in g.gradees_of(1, "v")] == ["u", "w"]
        assert list(g.scores_in(1)) == [80.0, 70.0, 60.0]
        assert g.n_grades == 3

    def test_without_received_keeps_universe(self):
        g = make_graph([(1, "v", "u", 80.0), (1, "w", "u", 70.0), (1, "v", "w", 60.0)])
        reduced = g.without_received(1, "u")
        assert len(reduced.grades) == 1
        assert reduced.submissions(1) == g.submissions(1)

    def test_exclude_self_grades(self):
        g = make_graph([(1, "v", "u", 80.0), (1, "u", "u", 99.0)])
        assert g.n_self_grades == 1
        assert all(not x.is_self_grade for x in g.grades)
        assert g.submissions(1) == ("u", "v")


class TestZscore:
    def test_known_values(self):
        g = make_graph([(1, "a", "u", 60.0), (1, "b", "u", 70.0), (1, "c", "u", 80.0), (1, "d", "u", 90.0)])
        normed, params = zscore_normalize(g, 1)
        assert params.mean == 75.0
        assert params.std == 11.180339887498949
        z = sorted(x.score for x in normed.grades)
        assert z == pytest.approx(
            [-1.3416407864998738, -0.4472135954999579, 0.4472135954999579, 1.3416407864998738]
        )

    def test_two_point_case(self):
        g = make_graph([(1, "a", "u", 70.0), (1, "b", "u", 90.0)])
        normed, params = zscore_normalize(g, 1)
        assert (params.mean, params.std) == (80.0, 10.0)
        assert sorted(x.score for x in normed.grades) == [-1.0, 1.0]

    def test_single_grade_errors(self):
        g = make_graph([(1, "a", "u", 70.0)])
        with pytest.raises(ValueError, match="at least 2 grades"):
            zscore_normalize(g, 1)

    def test_degenerate_errors(self):
        g = make_graph([(1, "a", "u", 70.0), (1, "b", "u", 70.0)])
        with pytest.raises(ValueError, match="degenerate"):
            zscore_normalize(g, 1)

    @given(st.lists(st.floats(5.0, 95.0), min_size=3, max_size=9, unique=True))
    def test_roundtrip(self, scores):
        rows = [(1, f"g{i}", "u", s) for i, s in enumerate(scores)]
        g = make_graph(rows)
        normed, params = normalize_all(g)
        back = [denormalize(x.score, params[1]) for x in normed.grades]
        assert back == pytest.approx([x.score for x in g.grades], abs=1e-9)

    def test_normalize_all_matches_per_assignment_chain(self):
        """One pass over all assignments gives the bits that z-scoring them one
        at a time gives; an assignment without grades passes through."""
        rng = np.random.default_rng(5)
        rows = [(int(a), f"v{i}", f"u{i % 7}", float(x))
                for i, (a, x) in enumerate(zip(rng.choice([1, 2, 10], 60), rng.normal(70, 12, 60)))]
        g = make_graph(rows, submissions={1: [f"u{i}" for i in range(7)] + [f"v{i}" for i in range(60)],
                                          2: [f"u{i}" for i in range(7)] + [f"v{i}" for i in range(60)],
                                          3: ["u0"],
                                          10: [f"u{i}" for i in range(7)] + [f"v{i}" for i in range(60)]})
        chained, chained_params = g, {}
        for a in (1, 2, 10):
            chained, chained_params[a] = zscore_normalize(chained, a)
        normed, params = normalize_all(g)
        assert params == chained_params
        assert normed.grades == chained.grades
        assert normed.submissions(3) == ("u0",)

    def test_normalize_all_keeps_errors(self):
        g = make_graph([(1, "a", "u", 70.0), (1, "b", "u", 80.0), (2, "a", "u", 70.0)])
        with pytest.raises(ValueError, match="cannot normalize assignment 2: needs at least 2 grades"):
            normalize_all(g)

    def test_overflowing_variance_names_the_assignment(self):
        # the variance of +-1e308 overflows; numpy's RuntimeWarning is an error under pytest
        g = make_graph([(1, "a", "u", 60.0), (1, "b", "u", 80.0), (2, "a", "u", 1e308), (2, "b", "u", -1e308)])
        with pytest.raises(ValueError) as err:
            normalize_all(g)
        assert str(err.value) == "cannot normalize assignment 2: grades too large, their variance overflows"

    def test_normalized_moments(self):
        g = make_graph([(1, "a", "u", 61.0), (1, "b", "u", 74.5), (1, "c", "w", 88.0)])
        normed, _ = zscore_normalize(g, 1)
        z = np.array([x.score for x in normed.grades])
        assert abs(z.mean()) < 1e-12
        assert np.std(z) == pytest.approx(1.0, abs=1e-12)

    def test_pg2_rejects_a_spread_whose_precisions_cannot_map_back(self):
        """PG2 maps a z-scored precision's variance back to pp by dividing by
        std**4; at grades of 1e-149 that underflows, and the fit is refused
        before it runs. Assumed-normalized grades, and grades of 1e-60, pass."""
        rows = [(1, "a", "u", 6e-149), (1, "b", "u", 8e-149), (2, "a", "u", 7e-149), (2, "b", "u", 9e-149)]
        g = make_graph(rows)
        with pytest.raises(ValueError) as err:
            prepare_graph(g, Model.PG2)
        assert str(err.value) == (
            "assignment 1: grades spread too little (std 1e-149) for z-scored precisions to map back to "
            "percentage points; rescale the grades, or use assume_normalized (--assume-normalized)")
        assert prepare_graph(g, Model.PG2, assume_normalized=True) == (g, {})
        assert prepare_graph(g, Model.PG1) == (g, {})
        _, norm = prepare_graph(make_graph([(a, v, u, x * 1e89) for a, v, u, x in rows]), Model.PG2)
        assert norm[1].std == pytest.approx(1e-60)


class TestHyperparameters:
    def test_defaults_resolve_tau_and_theta(self):
        hp = Hyperparameters()
        assert hp.effective_tau_fixed == pytest.approx(hp.alpha0 / hp.beta0)
        assert hp.effective_theta0 == pytest.approx(hp.alpha0 / hp.beta0)
        assert not hp.is_resolved

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Hyperparameters(gamma0=0.0)
        with pytest.raises(ValueError):
            Hyperparameters(eta0=-1.0)
        with pytest.raises(ValueError):
            Hyperparameters(beta0=0.0)

    @pytest.mark.parametrize("name", ["gamma0", "eta0", "omega0", "beta0", "tau_fixed"])
    def test_rejects_a_precision_whose_reciprocal_overflows(self, name):
        # 1 / (1 / max) rounds up to inf; the next float above has a finite reciprocal
        smallest = 1.0 / sys.float_info.max
        with pytest.raises(ValueError, match=re.escape(f"{name}={smallest!r} is too small: its reciprocal overflows")):
            Hyperparameters(**{name: smallest})
        above = math.nextafter(smallest, 1.0)
        assert math.isfinite(1.0 / above)
        # a beta0 this small needs an alpha0 as small for alpha0/beta0 to stay representable
        scale = {"alpha0": above} if name == "beta0" else {}
        assert getattr(Hyperparameters(**{name: above}, **scale), name) == above

    def test_rejects_an_alpha0_whose_lgamma_overflows(self):
        # lgamma overflows between these two, near 2.56e305
        assert Hyperparameters(alpha0=2.5e305, beta0=1e305).alpha0 == 2.5e305
        for alpha0 in (2.6e305, 1e308):
            with pytest.raises(ValueError, match=re.escape(f"alpha0={alpha0!r} is too large: lgamma(alpha0) overflows")):
                Hyperparameters(alpha0=alpha0)

    def test_rejects_a_reliability_scale_whose_square_overflows(self):
        # squares overflow above sqrt(max float), about 1.34e154: a PG3 fit
        # overflows from beta0=1e-154 (alpha0/beta0 = 2e154) on, not at 1e-153
        limit = math.sqrt(sys.float_info.max)
        assert Hyperparameters(beta0=1e-153).beta0 == 1e-153
        assert Hyperparameters(precision_floor=limit).precision_floor == limit
        with pytest.raises(ValueError, match=re.escape("beta0=1e-154 is too small for alpha0=2.0: "
                                                       "the prior-mean reliability alpha0/beta0 squared overflows")):
            Hyperparameters(beta0=1e-154)
        with pytest.raises(ValueError, match=re.escape("beta0=18.0 is too small for alpha0=1e+200: ")):
            Hyperparameters(alpha0=1e200)
        above = math.nextafter(limit, math.inf)
        message = f"precision_floor={above!r} is too large: its square overflows"
        with pytest.raises(ValueError, match=re.escape(message)):
            Hyperparameters(precision_floor=above)

    def test_resolve_from_scores(self):
        hp = Hyperparameters().resolve([70.0, 80.0, 90.0])
        assert hp.is_resolved
        assert hp.mu0 == pytest.approx(80.0)
        var = np.var([70.0, 80.0, 90.0])
        assert hp.gamma0 == pytest.approx(1.0 / var)

    def test_explicit_values_survive_resolution(self):
        hp = Hyperparameters(mu0=50.0, gamma0=0.1).resolve([70.0, 80.0])
        assert (hp.mu0, hp.gamma0) == (50.0, 0.1)


class TestResolvePriors:
    def test_data_driven_per_assignment(self):
        g = make_graph([(1, "a", "u", 60.0), (1, "b", "u", 80.0), (2, "a", "u", 90.0), (2, "b", "u", 70.0)])
        res = resolve_priors(g, Hyperparameters())
        assert res[1].mu0 == pytest.approx(70.0)
        assert res[2].mu0 == pytest.approx(80.0)

    def test_normalized_fills_standard_units(self):
        g = make_graph([(1, "a", "u", -1.0), (1, "b", "u", 1.0)])
        res = resolve_priors(g, Hyperparameters(), normalized=True)
        assert (res[1].mu0, res[1].gamma0) == (0.0, 1.0)

    def test_empty_assignment_needs_explicit_priors(self):
        g = make_graph([(1, "a", "u", 60.0), (1, "b", "u", 80.0)], submissions={1: ("a", "b", "u"), 2: ()})
        with pytest.raises(ValueError, match="no grades"):
            resolve_priors(g, Hyperparameters())
        res = resolve_priors(g, Hyperparameters(mu0=75.0, gamma0=0.01))
        assert res[2].mu0 == 75.0

    def test_overflowing_variance_names_the_assignment(self):
        # the variance of +-1e308 overflows; numpy's RuntimeWarning is an error under pytest
        g = make_graph([(1, "a", "u", 60.0), (1, "b", "u", 80.0), (2, "a", "u", 1e308), (2, "b", "u", -1e308)])
        with pytest.raises(ValueError) as err:
            resolve_priors(g, Hyperparameters())
        assert str(err.value) == ("assignment 2: grades too large to resolve data-driven priors from: "
                                  "their variance overflows; set mu0 and gamma0 explicitly")

    FAR = ("assignment {}: grades too far from mu0=1e+200: their squared residuals overflow; "
           "rescale the grades or set mu0 nearer to them")

    def test_squared_residuals_must_stay_finite(self):
        # assignment 1's grades sit at mu0, assignment 2's 1e200 from it: their squares overflow
        g = make_graph([(1, "a", "u", 1e200), (1, "b", "u", 1e200), (2, "a", "u", 1.0), (2, "b", "u", -1.0)])
        with pytest.raises(ValueError) as err:
            resolve_priors(g, Hyperparameters(mu0=1e200, gamma0=1.0))
        assert str(err.value) == self.FAR.format(2)
        near = make_graph([(1, "a", "u", 1.0), (1, "b", "u", -1.0)])  # 1e150 squared stays finite
        assert resolve_priors(near, Hyperparameters(mu0=1e150, gamma0=1.0))[1].mu0 == 1e150

    def test_z_scores_must_stay_finite_about_mu0(self):
        g = make_graph([(1, "a", "u", 1.0), (1, "b", "u", -1.0)])
        assert resolve_priors(g, Hyperparameters(mu0=1e150), normalized=True)[1].mu0 == 1e150
        with pytest.raises(ValueError) as err:
            resolve_priors(g, Hyperparameters(mu0=1e200), normalized=True)
        assert str(err.value) == self.FAR.format(1)


class TestModel:
    def test_from_string(self):
        assert Model.from_string("pg1") is Model.PG1
        assert Model.from_string("pg1bias") is Model.PG1_BIAS
        with pytest.raises(ValueError, match="pg1bias"):
            Model.from_string("pg9")

    def test_has_reliability(self):
        assert Model.PG1.has_reliability
        assert Model.PG2.has_reliability
        assert not Model.PG1_BIAS.has_reliability
        assert not Model.PG3.has_reliability


class TestPosteriorSummary:
    def test_estimate_and_confidence(self):
        summ = PosteriorSummary(model=Model.PG1, s={(1, "u"): VariableStat(mean=80.0, var=4.0, n=100)}, b={}, tau={})
        assert summ.estimate(1, "u") == 80.0
        # delta = 2 sd: erf(2/sqrt(2))
        assert summ.confidence(1, "u", 4.0) == pytest.approx(math.erf(4.0 / (2.0 * math.sqrt(2.0))))

    def test_confidence_rejects_bad_inputs(self):
        summ = PosteriorSummary(model=Model.PG1, s={(1, "u"): VariableStat(mean=80.0, var=0.0, n=100)}, b={}, tau={})
        with pytest.raises(ValueError):
            summ.confidence(1, "u", 5.0)

    def test_equality_of_traced_fits(self):
        g = make_graph([(1, "v", "u", 80.0), (1, "u", "v", 70.0)])
        hp = Hyperparameters(mu0=75.0, gamma0=1 / 100)

        def fit(seed):
            cfg = GibbsConfig(model=Model.PG1, total_sweeps=60, burn_in=10, seed=seed)
            trace = TraceRecorder([("s", 1, "u"), ("s", 1, "v")])
            return gibbs_infer(g, hp, cfg, trace=trace), trace.values

        (first, first_draws), (again, again_draws), (other, other_draws) = fit(4), fit(4), fit(5)
        assert first == again and np.array_equal(first_draws, again_draws)
        assert first != other and not np.array_equal(first_draws, other_draws)


class TestStatBlock:
    STATS = {
        (2, "b"): VariableStat(mean=1.5, var=0.25, n=10),
        (10, "a"): VariableStat(mean=-2.0, var=4.0, n=0),
        (2, "a"): VariableStat(mean=np.float64(80.0), var=np.float64(4.0), n=10),
    }

    def test_mapping_protocol(self):
        block = StatBlock.from_stats(self.STATS)
        assert len(block) == 3
        assert list(block) == [(2, "a"), (2, "b"), (10, "a")]
        assert block == self.STATS and self.STATS == block
        assert block != {**self.STATS, (2, "b"): VariableStat(mean=1.5, var=0.25, n=11)}
        assert block.get((10, "a")) == VariableStat(-2.0, 4.0, 0)
        assert block.get((3, "a")) is None and block.get("a") is None
        assert (2, "b") in block and (2, "c") not in block and (7, "a") not in block
        with pytest.raises(KeyError):
            block[(2, "zz")]
        assert dict(block.items()) == self.STATS
        assert list(block.values()) == [self.STATS[k] for k in block]

    def test_fields_are_plain(self):
        stat = StatBlock.from_stats(self.STATS)[(2, "a")]
        assert type(stat.mean) is float and type(stat.var) is float and type(stat.n) is int

    def test_summary_converts_mappings(self):
        summ = PosteriorSummary(model=Model.PG1, s=self.STATS, b={}, tau={})
        assert isinstance(summ.s, StatBlock) and isinstance(summ.b, StatBlock)
        assert len(summ.b) == 0 and list(summ.b) == []
        assert summ.estimate(2, "a") == 80.0
        assert summ == PosteriorSummary(model=Model.PG1, s=StatBlock.from_stats(self.STATS), b={}, tau={})
