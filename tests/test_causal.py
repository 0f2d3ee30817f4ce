import tracemalloc
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairaudit import causal
from fairaudit.causal import (
    _TOL,
    _BLOCK_CELLS,
    BERNOULLI,
    EXOGENOUS,
    GAUSSIAN,
    LINEAR,
    POINT,
    THRESHOLD,
    AbductionError,
    Assignment,
    CounterfactualQuery,
    Dag,
    NoiseSpec,
    Scm,
    cff_gap,
    conditional_intervention_gap,
    counterfactual,
    dcff_gap,
    ecff_gap,
    expectation_intervention_gap,
    intervene,
    pcff_gap,
    _draw_posterior,
    _indicator,
    _propagate,
    sample,
    simulate,
)
from fairaudit.data import Dataset, FeatureColumn, SensitiveAttribute
from fairaudit.synth_experiment import SynthConfig, build_synth_scm, bundled_scm


def chain_scm(noise_x=None):
    """A -> X with X = A + U."""
    dag = Dag(("A", "X"), (("A", "X"),))
    return Scm(
        dag,
        {"A": Assignment(EXOGENOUS), "X": Assignment(LINEAR, coeffs={"A": 1.0})},
        {"A": NoiseSpec.bernoulli(0.5), "X": noise_x or NoiseSpec.gaussian(0.0, 1.0)},
        sensitive="A",
    )


class TestGraphValidation:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            Dag(("A", "B"), (("A", "B"), ("B", "A")))

    def test_unknown_node(self):
        with pytest.raises(ValueError):
            Dag(("A",), (("A", "Z"),))

    def test_coeffs_must_cover_parents(self):
        dag = Dag(("A", "X"), (("A", "X"),))
        with pytest.raises(ValueError, match="cover"):
            Scm(
                dag,
                {"A": Assignment(EXOGENOUS), "X": Assignment(LINEAR, coeffs={})},
                {"A": NoiseSpec.bernoulli(0.5), "X": NoiseSpec.gaussian()},
            )

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec.gaussian(0.0, 0.0)
        with pytest.raises(ValueError):
            NoiseSpec.bernoulli(1.5)

    def test_descendants(self):
        scm = build_synth_scm(SynthConfig(target="high"))
        assert scm.descendants("A") == {"X1", "X3", "Y"}
        assert scm.descendants("X2") == {"Y"}


class TestSampling:
    def test_bit_identical_given_seed(self):
        scm = build_synth_scm(SynthConfig(target="high"))
        v1, l1 = simulate(scm, 500, seed=9)
        v2, l2 = simulate(scm, 500, seed=9)
        for node in scm.nodes:
            assert np.array_equal(v1[node], v2[node])
            assert np.array_equal(l1[node], l2[node])

    def test_single_gaussian_node_mean(self):
        dag = Dag(("Z",), ())
        scm = Scm(dag, {"Z": Assignment(EXOGENOUS)}, {"Z": NoiseSpec.gaussian(0.0, 2.0)})
        n = 40000
        values, _ = simulate(scm, n, seed=0)
        assert abs(values["Z"].mean()) < 4 * 2.0 / np.sqrt(n)

    def test_noiseless_copy_chain(self):
        scm = chain_scm(noise_x=NoiseSpec.point(0.0))
        ds = sample(scm, 200, seed=1)
        assert np.array_equal(ds.feature("X").values, ds.sensitive.values.astype(float))

    def test_synth_x3_expectation(self):
        ds = sample(build_synth_scm(SynthConfig()), 15000, seed=3)
        assert ds.feature("X3").values.mean() == pytest.approx(0.75, abs=0.02)

    def test_dataset_kinds(self):
        ds = sample(build_synth_scm(SynthConfig()), 50, seed=0)
        assert ds.feature("X1").kind == "continuous"
        assert ds.feature("X3").kind == "categorical"
        assert ds.target is not None


class TestIntervene:
    def test_root_intervention_keeps_descendant_assignments(self):
        scm = build_synth_scm(SynthConfig())
        did = intervene(scm, {"A": 1.0})
        assert did.assignments["X1"] == scm.assignments["X1"]
        assert did.dag.parents("X1") == ("A",)
        # original untouched
        assert scm.assignments["A"].kind == EXOGENOUS
        assert scm.noises["A"].kind == "bernoulli"

    def test_do_everything_is_constant(self):
        scm = build_synth_scm(SynthConfig())
        did = intervene(scm, {n: 1.0 for n in scm.nodes})
        values, _ = simulate(did, 10, seed=0)
        for node in scm.nodes:
            assert np.array_equal(values[node], np.ones(10))

    def test_do_a_one_forces_x3(self):
        # 1 + U3 >= 1 for both noise values
        did = intervene(build_synth_scm(SynthConfig()), {"A": 1.0})
        values, _ = simulate(did, 2000, seed=4)
        assert np.array_equal(values["X3"], np.ones(2000))

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            intervene(chain_scm(), {"Q": 1.0})


class TestCounterfactual:
    def test_worked_additive_example(self):
        # observe (A=1, X=1.5); forcing A=0 moves X by the same amount
        scm = chain_scm()
        q = CounterfactualQuery({"A": 1.0, "X": 1.5}, {"A": 0.0})
        out = counterfactual(scm, q)
        assert out.exact
        assert out.means["X"] == 0.5

    def test_null_intervention_reproduces_observation(self):
        # every node type: exogenous bernoulli, linear gaussian,
        # threshold bernoulli, threshold gaussian
        scm = build_synth_scm(SynthConfig(target="high"))
        values, _ = simulate(scm, 40, seed=5)
        for i in range(40):
            obs = {n: float(values[n][i]) for n in scm.nodes}
            out = counterfactual(scm, CounterfactualQuery(obs, {}), mc_budget=64, seed=i)
            for node in scm.nodes:
                assert out.means[node] == pytest.approx(obs[node], abs=1e-12)

    def test_enumerated_noise_posterior(self):
        # observing (A=0, X3=1) pins U3 = 1 exactly; forcing A=1 keeps X3 = 1
        scm = build_synth_scm(SynthConfig(target="high"))
        obs = {"A": 0.0, "X1": 0.3, "X2": -0.1, "X3": 1.0, "Y": 0.0}
        out = counterfactual(scm, CounterfactualQuery(obs, {"A": 1.0}), mc_budget=512)
        assert out.means["X3"] == 1.0
        assert out.means["X1"] == pytest.approx(0.8, abs=1e-12)  # u1 = 0.3

    def test_partial_observation_rejected(self):
        scm = chain_scm()
        with pytest.raises(ValueError, match="missing"):
            counterfactual(scm, CounterfactualQuery({"A": 1.0}, {}))

    def test_inconsistent_evidence(self):
        scm = chain_scm(noise_x=NoiseSpec.point(0.0))
        q = CounterfactualQuery({"A": 1.0, "X": 3.0}, {})
        with pytest.raises(AbductionError):
            counterfactual(scm, q)

    def test_mediator_clash_rejected(self):
        with pytest.raises(ValueError, match="mediators"):
            CounterfactualQuery({"A": 1.0}, {"X": 0.0}, {"X"})


def random_linear_gaussian_scm(rng, max_nodes=6):
    k = int(rng.integers(2, max_nodes + 1))
    names = tuple(f"N{i}" for i in range(k))
    edges = []
    for j in range(1, k):
        for i in range(j):
            if rng.random() < 0.5:
                edges.append((names[i], names[j]))
    assignments, noises = {}, {}
    for j, name in enumerate(names):
        parents = [p for p, c in edges if c == name]
        if parents:
            coeffs = {p: float(rng.normal()) for p in parents}
            assignments[name] = Assignment(LINEAR, float(rng.normal()), coeffs)
        else:
            assignments[name] = Assignment(EXOGENOUS)
        noises[name] = NoiseSpec.gaussian(float(rng.normal()), float(rng.uniform(0.5, 2.0)))
    return Scm(Dag(names, tuple(edges)), assignments, noises, sensitive=names[0])


class TestLinearGaussianIdentities:
    def test_null_intervention_identity_on_random_scms(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            scm = random_linear_gaussian_scm(rng)
            values, _ = simulate(scm, 1, seed=trial)
            obs = {n: float(values[n][0]) for n in scm.nodes}
            out = counterfactual(scm, CounterfactualQuery(obs, {}))
            assert out.exact
            for node in scm.nodes:
                assert out.means[node] == pytest.approx(obs[node], abs=1e-12)

    def test_counterfactual_average_matches_interventional_mean(self):
        # averaging per-unit counterfactual means over units drawn from the
        # model recovers the interventional marginal (law of total probability)
        rng = np.random.default_rng(12)
        scm = random_linear_gaussian_scm(rng, max_nodes=4)
        sens = scm.sensitive
        n = 3000
        values, _ = simulate(scm, n, seed=7)
        last = scm.nodes[-1]
        cf_means = np.empty(n)
        obs_arrays = {k: v for k, v in values.items()}
        # per-unit exact counterfactuals, vectorised through the gap machinery
        from fairaudit.causal import _decision_probs  # internal, test-only

        (probe,) = _decision_probs(
            scm,
            lambda vals: vals[last],
            obs_arrays,
            [{sens: 1.5}],
            frozenset(),
            mc_budget=1,
            seed=0,
        )
        cf_means[:] = probe
        did = intervene(scm, {sens: 1.5})
        ref, _ = simulate(did, 60000, seed=8)
        pop = ref[last]
        se = pop.std(ddof=1) * np.sqrt(1.0 / len(pop) + 1.0 / n)
        assert cf_means.mean() == pytest.approx(pop.mean(), abs=3 * se + 1e-9)


def synth_units(n=300, seed=6, target="high"):
    scm = build_synth_scm(SynthConfig(target=target))
    ds = sample(scm, n, seed=seed)
    return scm, ds


class TestFairnessGaps:
    def test_non_descendant_decision_is_counterfactually_fair(self):
        scm, ds = synth_units()
        gap = cff_gap(scm, lambda v: (v["X2"] > 0).astype(float), ds, 0.0, 1.0, mc_budget=96)
        assert gap == 0.0

    def test_attribute_indicator_flips_everywhere(self):
        scm, ds = synth_units()
        gap = cff_gap(scm, lambda v: (v["A"] > 0.5).astype(float), ds, 0.0, 1.0, mc_budget=48)
        assert gap == 1.0

    def test_linear_gaussian_chain_closed_form(self):
        # X = A + U: forcing A from a to b moves X by (b - a) exactly,
        # so the decision 1[X > c] flips iff X is in the moved band
        scm = chain_scm()
        rng = np.random.default_rng(13)
        a_vals = rng.binomial(1, 0.5, 400)
        x_vals = a_vals + rng.normal(0, 1, 400)
        sa = SensitiveAttribute("A", np.maximum(a_vals, 0), ("0", "1"))
        ds = Dataset((FeatureColumn("X", "continuous", x_vals),), sa)
        c = 0.7
        gap = cff_gap(scm, lambda v: (v["X"] > c).astype(float), ds, 0.0, 1.0)
        x0 = x_vals[a_vals == 0]
        expected = np.mean((x0 > c) != (x0 + 1.0 > c))
        assert gap == pytest.approx(expected, abs=1e-9)

    def test_ecff_constant_decision(self):
        scm, ds = synth_units()
        assert ecff_gap(scm, lambda v: np.ones_like(v["A"]), ds, 0.0, 1.0, mc_budget=32) == 0.0

    def test_ecff_at_most_cff(self):
        scm, ds = synth_units(n=200)
        fn = lambda v: (v["X1"] + v["X3"] > 0.8).astype(float)
        e = ecff_gap(scm, fn, ds, 0.0, 1.0, mc_budget=64, seed=3)
        c = cff_gap(scm, fn, ds, 0.0, 1.0, mc_budget=64, seed=3)
        assert e <= c + 1e-12

    def test_ecff_cancellation_two_units(self):
        # opposite-signed unit gaps cancel in expectation but not individually
        scm = chain_scm()
        sa = SensitiveAttribute("A", np.array([0, 0]), ("0", "1"))
        ds = Dataset(
            (FeatureColumn("X", "continuous", np.array([0.2, -0.3])),), sa
        )
        fn = lambda v: ((v["X"] > 0) & (v["X"] <= 1)).astype(float)
        c = cff_gap(scm, fn, ds, 0.0, 1.0)
        e = ecff_gap(scm, fn, ds, 0.0, 1.0)
        assert c == 1.0
        assert e == 0.0

    def test_expectation_intervention_gap_x3(self):
        scm = build_synth_scm(SynthConfig())
        gap = expectation_intervention_gap(
            scm, lambda v: v["X3"], 1.0, 0.0, mc_budget=20000, seed=5
        )
        assert gap == pytest.approx(0.5, abs=0.02)

    def test_expectation_intervention_gap_ignoring_a(self):
        scm = build_synth_scm(SynthConfig())
        gap = expectation_intervention_gap(
            scm, lambda v: (v["X2"] > 0).astype(float), 1.0, 0.0, mc_budget=5000
        )
        assert gap == 0.0  # common random numbers: identical draws both sides

    def test_degenerate_same_value(self):
        scm = build_synth_scm(SynthConfig())
        assert expectation_intervention_gap(scm, lambda v: v["X3"], 1.0, 1.0) == 0.0

    def test_pcff_empty_mediators_equals_cff_bitwise(self):
        scm, ds = synth_units(n=150, seed=21)
        fn = lambda v: (v["X1"] + 0.5 * v["X3"] > 0.6).astype(float)
        g1, per1 = cff_gap(scm, fn, ds, 0.0, 1.0, mc_budget=128, seed=9, return_per_unit=True)
        g2, per2 = pcff_gap(
            scm, fn, ds, 0.0, 1.0, frozenset(), mc_budget=128, seed=9, return_per_unit=True
        )
        assert g1 == g2
        assert np.array_equal(per1, per2)

    def test_dcff_of_attribute_blind_model_is_zero(self):
        scm, ds = synth_units(n=200, seed=22)
        fn = lambda v: (v["X1"] + v["X2"] + v["X3"] > 1.0).astype(float)
        assert dcff_gap(scm, fn, ds, 0.0, 1.0, mc_budget=64) == 0.0

    def test_pcff_holds_mediator_fixed(self):
        # hand-propagated unit: flipping A changes X1 but X3 stays factual
        scm = build_synth_scm(SynthConfig(target="high"))
        sa = SensitiveAttribute("A", np.array([0]), ("0", "1"))
        ds = Dataset(
            (
                FeatureColumn("X1", "continuous", np.array([0.3])),
                FeatureColumn("X2", "continuous", np.array([-0.1])),
                FeatureColumn("X3", "categorical", np.array([0])),
            ),
            sa,
            target=np.array([0]),
            target_name="Y",
        )
        # decision reads X3 only: held mediator -> no flip possible
        gap_hold = pcff_gap(
            scm, lambda v: v["X3"], ds, 0.0, 1.0, frozenset({"X3"}), mc_budget=256, seed=1
        )
        assert gap_hold == 0.0
        # without holding, do(A=1) forces X3 to 1 while factual X3 = 0
        gap_free = cff_gap(scm, lambda v: v["X3"], ds, 0.0, 1.0, mc_budget=256, seed=1)
        assert gap_free == 1.0
        # and X1 still shifts by 0.5 under the held-mediator query
        q = CounterfactualQuery(
            {"A": 0.0, "X1": 0.3, "X2": -0.1, "X3": 0.0, "Y": 0.0},
            {"A": 1.0},
            {"X3"},
        )
        out = counterfactual(scm, q, mc_budget=128)
        assert out.means["X1"] == pytest.approx(0.8, abs=1e-12)
        assert out.means["X3"] == 0.0


class TestAbductionPosteriors:
    """Statistical checks of the noise posteriors against analytic truth."""

    def threshold_scm(self, cutoff=0.5, m=0.2, s=0.8):
        dag = Dag(("X", "Z"), (("X", "Z"),))
        return Scm(
            dag,
            {
                "X": Assignment(EXOGENOUS),
                "Z": Assignment(THRESHOLD, coeffs={"X": 1.0}, cutoff=cutoff, strict=True),
            },
            {"X": NoiseSpec.gaussian(0.0, 1.0), "Z": NoiseSpec.gaussian(m, s)},
            sensitive="X",
        )

    def test_truncated_gaussian_posterior_matches_analytic(self):
        from scipy.stats import norm

        c, m, s = 0.5, 0.2, 0.8
        x0 = -0.3
        scm = self.threshold_scm(c, m, s)
        edge = c - x0
        # observed Z=0 pins U <= edge; a positive shift re-accepts the band
        # (edge - delta, edge]: probability ratio of gaussian tails
        delta = 0.4
        want = 1.0 - norm.cdf((edge - delta - m) / s) / norm.cdf((edge - m) / s)
        out = counterfactual(
            scm,
            CounterfactualQuery({"X": x0, "Z": 0.0}, {"X": x0 + delta}),
            mc_budget=100000,
            seed=1,
        )
        assert out.exact and out.draws == 1 and out.stderr is None
        assert out.means["Z"] == pytest.approx(want, abs=1e-12)
        # observed Z=1 pins U > edge; a negative shift loses the band
        delta = -0.6
        want = (1.0 - norm.cdf((edge - delta - m) / s)) / (1.0 - norm.cdf((edge - m) / s))
        out = counterfactual(
            scm,
            CounterfactualQuery({"X": x0, "Z": 1.0}, {"X": x0 + delta}),
            mc_budget=100000,
            seed=2,
        )
        assert out.means["Z"] == pytest.approx(want, abs=1e-12)
        # and a positive shift keeps every accepted unit accepted, exactly
        out = counterfactual(
            scm,
            CounterfactualQuery({"X": x0, "Z": 1.0}, {"X": x0 + 0.4}),
            mc_budget=5000,
            seed=3,
        )
        assert out.means["Z"] == 1.0

    def test_ambiguous_bernoulli_posterior_is_prior(self):
        # (A=1, X3=1) is consistent with both noise values, so the posterior
        # equals the prior and do(A=0) makes X3 a fair coin
        scm = build_synth_scm(SynthConfig(target="high"))
        obs = {"A": 1.0, "X1": 0.7, "X2": 0.2, "X3": 1.0, "Y": 1.0}
        out = counterfactual(
            scm, CounterfactualQuery(obs, {"A": 0.0}), mc_budget=50000, seed=4
        )
        assert out.means["X3"] == pytest.approx(0.5, abs=0.01)


class TestConditionalInterventionGap:
    def finite_scm(self):
        dag = Dag(("A", "X", "D"), (("A", "X"), ("X", "D"), ("A", "D")))
        return Scm(
            dag,
            {
                "A": Assignment(EXOGENOUS),
                "X": Assignment(THRESHOLD, coeffs={"A": 1.0}, cutoff=1.0),
                "D": Assignment(LINEAR, coeffs={"X": 1.0, "A": 1.0}),
            },
            {
                "A": NoiseSpec.bernoulli(0.5),
                "X": NoiseSpec.bernoulli(0.5),
                "D": NoiseSpec.point(0.0),
            },
            sensitive="A",
        )

    def test_exact_enumeration(self):
        scm = self.finite_scm()
        # conditioning on X = 1: D = X + A is deterministic given (A, X)
        gap = conditional_intervention_gap(
            scm, lambda v: (v["D"] >= 2).astype(float), {"X": 1.0}, 1.0, 0.0
        )
        assert gap == pytest.approx(1.0)

    def test_continuous_noise_rejected(self):
        scm = build_synth_scm(SynthConfig())
        with pytest.raises(ValueError, match="finite-support"):
            conditional_intervention_gap(scm, lambda v: v["X3"], {"X3": 1.0}, 1.0, 0.0)

    def test_zero_probability_condition(self):
        scm = self.finite_scm()
        with pytest.raises(ValueError, match="zero probability"):
            conditional_intervention_gap(
                scm, lambda v: v["D"], {"X": 0.0}, 1.0, 1.0
            )

    def test_enumeration_matches_rejection_sampling(self):
        # independent estimate: simulate each intervened model and condition
        # by rejection; the exact enumeration must sit inside the MC noise
        dag = Dag(("A", "B", "D"), (("A", "D"), ("B", "D")))
        scm = Scm(
            dag,
            {
                "A": Assignment(EXOGENOUS),
                "B": Assignment(EXOGENOUS),
                "D": Assignment(
                    THRESHOLD, coeffs={"A": 1.0, "B": 1.0}, cutoff=1.5, strict=False
                ),
            },
            {
                "A": NoiseSpec.bernoulli(0.5),
                "B": NoiseSpec.bernoulli(0.3),
                "D": NoiseSpec.bernoulli(0.4),
            },
            sensitive="A",
        )
        decision = lambda v: v["D"]
        exact = conditional_intervention_gap(scm, decision, {"B": 1.0}, 1.0, 0.0)
        estimates = []
        for v in (1.0, 0.0):
            did = intervene(scm, {"A": v})
            values, _ = simulate(did, 200000, seed=int(v))
            keep = values["B"] == 1.0
            estimates.append(values["D"][keep].mean())
        mc = abs(estimates[0] - estimates[1])
        assert exact == pytest.approx(mc, abs=0.01)


class TestSerialization:
    def test_round_trip_preserves_behaviour(self):
        scm = build_synth_scm(SynthConfig(target="low"))
        clone = Scm.from_json(scm.to_json())
        v1, _ = simulate(scm, 100, seed=14)
        v2, _ = simulate(clone, 100, seed=14)
        for node in scm.nodes:
            assert np.array_equal(v1[node], v2[node])
        assert clone.sensitive == "A" and clone.target == "Y"

    @pytest.mark.parametrize("target", ["high", "low"])
    def test_bundled_models_match_builder(self, target):
        bundled = bundled_scm(target)
        built = build_synth_scm(SynthConfig(target=target))
        assert bundled.to_json() == built.to_json()


# The blocked Monte Carlo ``_decision_probs`` and the ``_abduct_block`` it
# calls, from before the exact single pass, kept verbatim as bit-exact
# references (only the reference's name differs), with the block size they
# were written for.

_UNIT_BLOCK = 4096


def _abduct_block(scm, obs):
    """Noise posteriors per node for a block of fully observed units.

    Full observation makes the posterior factorise: each node's noise is
    pinned by its own value and its parents' values. Returns a dict
    node -> ("point", u) | ("bern01", p1) | ("tnorm", lo, hi), and a flag
    telling whether every posterior is a point mass.
    """
    posteriors, exact = {}, True
    for node in scm.dag.nodes:
        a, nz = scm.assignments[node], scm.noises[node]
        x = obs[node]
        if a.kind in (EXOGENOUS, LINEAR):
            u = x - a.linear_part(obs) if a.kind == LINEAR else x.copy()
            if nz.kind == BERNOULLI:
                snapped = np.round(u)
                bad = (np.abs(u - snapped) > _TOL) | ~np.isin(snapped, (0.0, 1.0))
                if bad.any():
                    raise AbductionError(
                        f"node {node!r}: observed value inconsistent with "
                        f"bernoulli noise at unit {int(np.flatnonzero(bad)[0])}"
                    )
                u = snapped
            elif nz.kind == POINT and (np.abs(u - nz.value) > _TOL).any():
                raise AbductionError(
                    f"node {node!r}: observation inconsistent with point noise"
                )
            posteriors[node] = ("point", u)
        else:  # threshold
            bad = ~np.isin(np.round(x), (0.0, 1.0)) | (np.abs(x - np.round(x)) > _TOL)
            if bad.any():
                raise AbductionError(f"node {node!r}: threshold node observed non-binary")
            xb = np.round(x).astype(bool)
            g = a.linear_part(obs)
            gb = np.broadcast_to(np.asarray(g, dtype=float), x.shape)
            if nz.kind == GAUSSIAN:
                edge = a.cutoff - gb
                lo = np.where(xb, edge, -np.inf)
                hi = np.where(xb, np.inf, edge)
                posteriors[node] = ("tnorm", lo, hi)
                exact = False
            elif nz.kind == BERNOULLI:
                ind0 = _indicator(gb + 0.0, a)
                ind1 = _indicator(gb + 1.0, a)
                ok0, ok1 = ind0 == xb, ind1 == xb
                if (~ok0 & ~ok1).any():
                    raise AbductionError(
                        f"node {node!r}: no noise value consistent with observation"
                    )
                p1 = np.where(ok0 & ok1, nz.p, np.where(ok1, 1.0, 0.0))
                posteriors[node] = ("bern01", p1)
                if ((p1 > 0) & (p1 < 1)).any():
                    exact = False
            else:  # point noise
                if (_indicator(gb + nz.value, a) != xb).any():
                    raise AbductionError(
                        f"node {node!r}: observation inconsistent with point noise"
                    )
                posteriors[node] = ("point", np.full(x.shape, nz.value))
    return posteriors, exact


def _reference_decision_probs(scm, decision_fn, obs, interventions, mediators, mc_budget, seed):
    """P(decision = 1 | unit) under each intervention, sharing posterior draws.

    Returns one array per intervention, aligned to the units in ``obs``.
    Blocks over units to bound memory; the block size is fixed, so results
    are deterministic for a given seed.
    """
    n = len(next(iter(obs.values())))
    outs = [np.empty(n) for _ in interventions]
    rng = np.random.default_rng(seed)
    for start in range(0, n, _UNIT_BLOCK):
        sl = slice(start, min(start + _UNIT_BLOCK, n))
        block = {k: v[sl] for k, v in obs.items()}
        posteriors, exact = _abduct_block(scm, block)
        draws = 1 if exact else int(mc_budget)
        noise = {
            node: _draw_posterior(posteriors[node], scm.noises[node], draws, rng)
            for node in scm.dag.nodes
        }
        m = sl.stop - sl.start
        for k, do in enumerate(interventions):
            fixed = dict(do)
            for med in mediators:
                fixed[med] = block[med]
            values = _propagate(scm, noise, fixed)
            dec = np.asarray(decision_fn(values), dtype=float)
            dec = np.broadcast_to(dec, (draws, m))  # tolerate constant decisions
            outs[k][sl] = dec.mean(axis=0)
    return outs


def _same(new, ref):
    return len(new) == len(ref) and all(np.array_equal(a, b) for a, b in zip(new, ref))


def _rule(nodes, weights, cutoff, mode):
    """A 0/1 decision on a weighted sum of ``nodes``, read through ``mode``."""

    def decide(v):
        if mode == "get":
            vals = {k: v.get(k, 0.0) for k in nodes}
        elif mode == "items":
            vals = {k: x for k, x in v.items() if k in nodes}
        elif mode == "in":
            vals = {k: v[k] if k in v else 0.0 for k in nodes}
        else:
            vals = {k: v[k] for k in nodes}
        total = sum(w * vals[k] for k, w in zip(nodes, weights))
        return np.asarray(total > cutoff, dtype=float)

    decide.nodes = tuple(nodes)
    return decide


def _uncertain(scm, obs, do, mediators):
    """Nodes whose counterfactual value is uncertain for some unit: those
    with a non-point posterior or an uncertain parent, unless clamped."""
    posts, _ = _abduct_block(scm, obs)
    fixed, out = set(do) | set(mediators), set()
    for node in scm.nodes:
        kind, p = posts[node][0], posts[node][1]
        random = kind == "tnorm" or (kind == "bern01" and ((p > 0) & (p < 1)).any())
        if node not in fixed and (random or out & set(scm.dag.parents(node))):
            out.add(node)
    return out


def _quadrature_probs(scm, decision_fn, obs, do, mediators, cells=1000):
    """P(decision = 1 | unit) by brute force, and its error allowance.

    Every posterior's support is enumerated jointly: a bernoulli one by its
    two values, a truncated gaussian by equal-mass cells, each represented
    by its median (``scipy.stats.truncnorm``), about ``cells`` combinations
    per unit in all. A threshold node is monotone in its own noise, so
    across one node's cells the decision changes in at most one: the
    allowance is the mass of one cell per gaussian node.
    """
    from scipy.stats import truncnorm

    n, step = len(obs[scm.nodes[0]]), max(1, 250000 // cells)
    if n > step:  # a quarter million combinations at a time
        parts = [
            _quadrature_probs(scm, decision_fn, {k: v[i : i + step] for k, v in obs.items()},
                              do, mediators, cells)
            for i in range(0, n, step)
        ]
        return np.concatenate([p for p, _ in parts]), parts[0][1]
    posts, _ = _abduct_block(scm, obs)
    fixed = set(do) | set(mediators)
    free = [v for v in scm.nodes if v not in fixed and posts[v][0] != "point"]
    gauss = [v for v in free if posts[v][0] == "tnorm"]
    k = max(1, int((cells / 2 ** (len(free) - len(gauss))) ** (1 / max(1, len(gauss)))))
    noise, weights = {}, np.ones((1, n))
    for node in scm.nodes:
        post, nz = posts[node], scm.noises[node]
        if node not in free:
            noise[node] = np.broadcast_to(post[1], (len(weights), n))
            continue
        if post[0] == "bern01":
            u = np.array([[0.0], [1.0]]).repeat(n, axis=1)
            p = np.stack([1.0 - post[1], post[1]])
        else:
            a, b = (post[1] - nz.mean) / nz.std, (post[2] - nz.mean) / nz.std
            q = (np.arange(k)[:, None] + 0.5) / k
            u = truncnorm.ppf(q, a, b, loc=nz.mean, scale=nz.std)
            p = np.full((k, n), 1.0 / k)
        g, m = len(u), len(weights)
        noise = {v: np.repeat(x, g, axis=0) for v, x in noise.items()}
        noise[node] = np.tile(u, (m, 1))
        weights = np.repeat(weights, g, axis=0) * np.tile(p, (m, 1))
    clamp = {**do, **{med: obs[med] for med in mediators}}
    values = _propagate(scm, noise, clamp)
    dec = np.broadcast_to(np.asarray(decision_fn(values), dtype=float), weights.shape)
    return (dec * weights).sum(axis=0), len(gauss) / k


def _assert_exact(scm, decision_fn, obs, do, mediators, got, seed, cells=1000, draws=2000):
    """``got`` is within the quadrature allowance of brute-force enumeration,
    and within 6 stderr of the verbatim Monte Carlo at ``draws`` draws."""
    want, allow = _quadrature_probs(scm, decision_fn, obs, do, mediators, cells)
    assert np.abs(got - want).max() <= allow + 1e-12
    (mc,) = _reference_decision_probs(scm, decision_fn, obs, [do], mediators, draws, seed)
    stderr = np.maximum(np.sqrt(got * (1.0 - got) / draws), 1.0 / draws)
    assert (np.abs(mc - got) <= 6 * stderr).all()


@st.composite
def random_scms(draw):
    """A random linear/threshold SCM with gaussian, bernoulli and point noise."""
    k = draw(st.integers(2, 5))
    names = tuple(f"N{i}" for i in range(k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges, assignments, noises = [], {}, {}
    pilot = {}  # ancestral sample, to put each threshold's cutoff inside its range
    for j, name in enumerate(names):
        parents = [p for p in names[:j] if draw(st.integers(0, 3))]
        edges += [(p, name) for p in parents]
        noise = draw(st.sampled_from([GAUSSIAN, BERNOULLI, POINT]))
        if noise == GAUSSIAN:
            noises[name] = NoiseSpec.gaussian(float(rng.normal()), float(rng.uniform(0.3, 2)))
        elif noise == BERNOULLI:
            noises[name] = NoiseSpec.bernoulli(draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])))
        else:
            noises[name] = NoiseSpec.point(float(rng.normal()))
        kind = draw(st.sampled_from([LINEAR, THRESHOLD] + ([] if parents else [EXOGENOUS])))
        coeffs = {p: float(draw(st.sampled_from([-1.0, 0.5, 1.0, 2.0]))) for p in parents}
        a = Assignment(kind) if kind == EXOGENOUS else Assignment(kind, float(rng.normal()), coeffs)
        u = noises[name].draw(rng, 200)
        if kind == THRESHOLD:
            cutoff = float(np.quantile(a.linear_part(pilot) + u, rng.uniform(0.2, 0.8)))
            a = Assignment(kind, a.intercept, coeffs, cutoff, draw(st.booleans()))
        assignments[name] = a
        pilot[name] = a.evaluate(pilot, u)
    return Scm(Dag(names, tuple(edges)), assignments, noises)


@st.composite
def decision_problems(draw):
    """A random or bundled SCM, units simulated from it, interventions on one
    node, held mediators and a decision reading a random subset of nodes.

    The bundled models add Y's truncated-normal posterior downstream of A,
    which random small models reach only now and then."""
    bundled = st.sampled_from(["high", "low"]).map(
        lambda t: build_synth_scm(SynthConfig(target=t))
    )
    scm = draw(st.one_of(random_scms(), bundled))
    names = scm.nodes
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(1, 3), st.integers(10, 40)))
    obs, _ = simulate(scm, n, seed=int(rng.integers(2**32)))
    target = draw(st.sampled_from(names[:-1]))
    # forced values near the factual ones keep counterfactual flips uncertain
    base = draw(st.sampled_from([0.0, float(np.mean(obs[target]))]))
    shifts = draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), min_size=1, max_size=2))
    interventions = [{target: base + d} for d in shifts]
    mediators = frozenset(
        draw(st.lists(st.sampled_from([m for m in names if m != target]), max_size=2))
    )
    # half the decisions read only nodes downstream of the intervened one, if any
    pool = draw(st.sampled_from([sorted(scm.descendants(target)) or names, names]))
    read = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    weights = [float(rng.normal()) for _ in read]
    # a cutoff inside the factual scores, so that decisions vary across units
    cutoff = float(np.mean(sum(w * obs[r] for r, w in zip(read, weights))))
    mode = draw(st.sampled_from(["getitem", "get", "items", "in"]))
    decision = _rule(read, weights, cutoff, mode)
    mc_budget = draw(st.sampled_from([1, 3, 16]))
    seed = draw(st.integers(0, 2**16))
    return scm, decision, obs, interventions, mediators, mc_budget, seed


class TestExactPassAgainstMonteCarlo:
    @settings(max_examples=300, deadline=None)
    @given(decision_problems())
    def test_bit_identical_to_blocked_monte_carlo(self, problem):
        # bit-identical wherever the decision reads no uncertain node; where
        # it reads one, exact against enumeration and the Monte Carlo
        scm, decision, obs, interventions, mediators, _, seed = problem
        probs = causal._decision_probs(*problem)
        ref = _reference_decision_probs(*problem)
        for p, r, do in zip(probs, ref, interventions):
            if _uncertain(scm, obs, do, mediators) & set(decision.nodes):
                _assert_exact(scm, decision, obs, do, mediators, p, seed)
            else:
                assert np.array_equal(p, r)

    @pytest.mark.parametrize("reads", [("X1",), ("X1", "X3")])
    @pytest.mark.parametrize("mc_budget", [1, 4])
    def test_blocks_with_their_own_exact_flag(self, reads, mc_budget, monkeypatch):
        # A -> X1 (gaussian), A -> X3 = 1[A + U >= 1] (bernoulli): with the
        # A=0 units first, the first blocks' posteriors are all point masses
        # and the later blocks leave X3 a fair coin under do(A=0); blocks of
        # 256 units (X3 random) split them, and no block samples
        dag = Dag(("A", "X1", "X3"), (("A", "X1"), ("A", "X3")))
        scm = Scm(
            dag,
            {
                "A": Assignment(EXOGENOUS),
                "X1": Assignment(LINEAR, coeffs={"A": 0.5}),
                "X3": Assignment(THRESHOLD, coeffs={"A": 1.0}, cutoff=1.0),
            },
            {
                "A": NoiseSpec.bernoulli(0.5),
                "X1": NoiseSpec.gaussian(0.0, 0.5),
                "X3": NoiseSpec.bernoulli(0.5),
            },
            sensitive="A",
        )
        obs, _ = simulate(scm, 2 * 512 + 700, seed=41)
        order = np.argsort(obs["A"], kind="stable")
        obs = {k: v[order] for k, v in obs.items()}
        assert obs["A"][511] == 0.0 and obs["A"][-1] == 1.0
        monkeypatch.setattr(causal, "_BLOCK_CELLS", 512)
        problem = (scm, _rule(reads, (1.0, 0.5), 0.8, "getitem"), obs,
                   [{"A": 0.0}, {"A": 1.0}], frozenset(), mc_budget, 3)
        probs = causal._decision_probs(*problem)
        if reads == ("X1",):
            assert _same(probs, _reference_decision_probs(*problem))
            return
        for p, do in zip(probs, problem[3]):
            want, allow = _quadrature_probs(scm, problem[1], obs, do, frozenset())
            assert allow == 0 and np.abs(p - want).max() <= 1e-12
        assert ((probs[0] > 0) & (probs[0] < 1)).any()  # really a mixture

    def test_several_monte_carlo_blocks(self, monkeypatch):
        # exact in blocks of 512 units, against the reference's own blocks
        scm = build_synth_scm(SynthConfig(target="high"))
        obs = causal._observations_from_dataset(scm, sample(scm, _UNIT_BLOCK + 700, seed=42))
        fn = _rule(("X1", "Y"), (1.0, 0.5), 0.8, "get")
        problem = (scm, fn, obs, [{"A": 0.0}, {"A": 1.0}], frozenset({"X3"}), 4, 3)
        whole = causal._decision_probs(*problem)
        monkeypatch.setattr(causal, "_BLOCK_CELLS", 1024)
        probs = causal._decision_probs(*problem)
        assert _same(probs, whole)
        every = {k: v[::12] for k, v in obs.items()}  # units are independent
        for p, do in zip(probs, problem[3]):
            _assert_exact(scm, fn, every, do, frozenset({"X3"}), p[::12], 3, cells=4000)

    def test_decision_reading_y_is_exact(self):
        scm, ds = synth_units(n=200, seed=31)
        obs = causal._observations_from_dataset(scm, ds)
        shapes = []

        def fn(v):
            shapes.append((v["Y"].shape, v["X1"].shape))
            return ((v["Y"] + v["X1"]) > 1.0).astype(float)

        problem = (scm, fn, obs, [{"A": 0.0}, {"A": 1.0}], frozenset({"X3"}), 64, 5)
        probs = causal._decision_probs(*problem)
        assert shapes == [((2, 200), (1, 200))] * 2  # one call, Y's two branches
        for p, do in zip(probs, problem[3]):
            _assert_exact(scm, lambda v: ((v["Y"] + v["X1"]) > 1.0).astype(float),
                          obs, do, frozenset({"X3"}), p, 5, cells=5000)
        assert any(((p > 0) & (p < 1)).any() for p in probs)  # really a mixture
        # the budget does not matter below the cap
        cheap = causal._decision_probs(scm, fn, obs, problem[3], frozenset({"X3"}), 1, 0)
        assert _same(probs, cheap)

    def test_point_mass_decision_called_once_per_intervention(self):
        scm, ds = synth_units(n=300, seed=32)
        shapes = []

        def fn(v):
            shapes.append(v["X1"].shape)
            return v["X1"] + 0.5 * v["X2"] + v["X3"] > 1.0

        gap = cff_gap(scm, fn, ds, 0.0, 1.0, mc_budget=64, seed=2)
        n0 = int((ds.sensitive.values == 0).sum())
        assert shapes == [(1, n0), (1, n0)]
        obs = causal._observations_from_dataset(scm, ds)
        unit_obs = {k: v[obs["A"] == 0.0] for k, v in obs.items()}
        p_a, p_b = _reference_decision_probs(
            scm, fn, unit_obs, [{"A": 0.0}, {"A": 1.0}], frozenset(), 64, 2
        )
        assert gap == float(np.abs(p_a - p_b).mean())

    def test_unrelated_decision_error_is_reraised_unchanged(self):
        scm, ds = synth_units(n=50, seed=33)
        boom = RuntimeError("decision failed")
        calls = []

        def fn(v):
            calls.append(v["X1"])
            raise boom

        with pytest.raises(RuntimeError) as info:
            cff_gap(scm, fn, ds, 0.0, 1.0, mc_budget=8)
        assert info.value is boom
        assert len(calls) == 1  # no Monte Carlo retry
        # a node the model does not have is the decision's own error
        with pytest.raises(KeyError, match="X9"):
            cff_gap(scm, lambda v: v["X9"], ds, 0.0, 1.0, mc_budget=8)

    def test_non_finite_feature_rejected(self):
        scm, ds = synth_units(n=20, seed=34)
        x1 = ds.feature("X1").values.copy()
        x1[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            cols = tuple(replace(c, values=x1) if c.name == "X1" else c for c in ds.features)
            cff_gap(scm, lambda v: v["X1"] > 0, replace(ds, features=cols), 0.0, 1.0)


# ``_draw_posterior``'s truncated-gaussian branch as it was written over
# ``scipy.stats.norm``, kept verbatim as the reference (only the name
# differs): on intervals whose standardised lower end is at most 0 the
# ``scipy.special`` form must keep every bit.


def _norm_draw_tnorm(post, nz, draws, rng):
    from scipy.stats import norm

    _, lo, hi = post
    fa = norm.cdf((lo - nz.mean) / nz.std)
    fb = norm.cdf((hi - nz.mean) / nz.std)
    q = fa + rng.random((draws, len(lo))) * (fb - fa)
    q = np.clip(q, 1e-300, 1.0 - 1e-16)
    return nz.mean + nz.std * norm.ppf(q)


@st.composite
def lower_half_intervals(draw):
    """Truncation intervals, in standard units, whose lower end is <= 0."""
    m = draw(st.integers(1, 6))
    zlo = np.array(draw(st.lists(
        st.one_of(st.just(-np.inf), st.floats(-30.0, 0.0)), min_size=m, max_size=m
    )))
    width = np.array(draw(st.lists(
        st.one_of(st.just(np.inf), st.floats(0.05, 60.0)), min_size=m, max_size=m
    )))
    return zlo, np.where(np.isinf(zlo), -30.0, zlo) + width


class TestDrawPosteriorPins:
    @settings(max_examples=200, deadline=None)
    @given(lower_half_intervals(), st.floats(-3.0, 3.0), st.floats(0.05, 4.0),
           st.integers(1, 64), st.integers(0, 2**32 - 1))
    def test_equals_norm_formula_when_lower_end_at_most_zero(self, zs, mean, std, draws, seed):
        zlo, zhi = zs
        nz = NoiseSpec.gaussian(mean, std)
        post = ("tnorm", mean + std * zlo, mean + std * zhi)
        assume((((post[1] - mean) / std) <= 0).all())
        new = _draw_posterior(post, nz, draws, np.random.default_rng(seed))
        ref = _norm_draw_tnorm(post, nz, draws, np.random.default_rng(seed))
        assert np.array_equal(new, ref)


def _tnorm_moments(zlo, zhi):
    """Mean and variance of the standard normal truncated to [zlo, zhi].

    Worked in logs on the lower-tail side (an interval above 0 is mirrored),
    so the moments stay exact where the mass is far below 1e-300. Returns
    the log mass too.
    """
    from scipy.special import log_ndtr

    sign = -1.0 if zlo > 0 else 1.0
    a, b = (-zhi, -zlo) if sign < 0 else (zlo, zhi)
    la, lb = log_ndtr(a), log_ndtr(b)
    log_mass = lb + np.log1p(-np.exp(la - lb)) if la < lb else -np.inf

    def dens(x):  # phi(x) / mass, and x * phi(x) / mass
        if np.isinf(x):
            return 0.0, 0.0
        d = np.exp(-0.5 * x * x - 0.5 * np.log(2 * np.pi) - log_mass)
        return d, x * d

    (da, xda), (db, xdb) = dens(a), dens(b)
    mean = da - db
    return sign * mean, 1.0 + xda - xdb - mean * mean, log_mass


@st.composite
def tail_intervals(draw):
    """Truncation intervals, in standard units, with ends in [-45, 45]."""
    end = st.floats(-45.0, 45.0)
    kind = draw(st.sampled_from(["above", "below", "between"]))
    if kind == "above":
        return draw(end), np.inf
    if kind == "below":
        return -np.inf, draw(end)
    lo = draw(end)
    return lo, lo + draw(st.floats(1e-3, 90.0))


class TestTruncatedGaussianTails:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(tail_intervals(), min_size=1, max_size=4), st.floats(-3.0, 3.0),
           st.floats(0.05, 4.0), st.integers(0, 2**32 - 1))
    def test_draws_stay_inside_and_match_the_mean(self, intervals, mean, std, seed):
        zlo = np.array([iv[0] for iv in intervals])
        zhi = np.array([iv[1] for iv in intervals])
        lo, hi = mean + std * zlo, mean + std * zhi
        nz, draws = NoiseSpec.gaussian(mean, std), 10000
        moments = [_tnorm_moments((l - mean) / std, (h - mean) / std) for l, h in zip(lo, hi)]
        try:
            out = _draw_posterior(("tnorm", lo, hi), nz, draws, np.random.default_rng(seed), "U")
        except AbductionError as exc:
            unit = int(str(exc).rsplit(" ", 1)[1])
            assert str(exc).startswith("node 'U': ")
            assert moments[unit][2] < np.log(1e-300)  # the mass really underflows
            return
        assert out.shape == (draws, len(intervals))
        assert ((out >= lo) & (out <= hi)).all()
        for j, (m, v, _) in enumerate(moments):
            stderr = std * np.sqrt(max(v, 0.0) / draws)
            expect = mean + std * m
            assert abs(out[:, j].mean() - expect) <= 6 * stderr + 1e-12 * abs(expect)

    @pytest.mark.parametrize("k", [7.5, 8.0, 8.5, 20.0, 37.0])
    def test_deep_upper_tail_is_resolved(self, k):
        # before the mirror, ndtr rounded these upper tails to 1: at 7.5 sd
        # 10,000 draws took 287 values, from 8.5 sd every draw sat below lo
        nz = NoiseSpec.gaussian(0.0, 0.5)
        lo = np.array([0.5 * k])
        out = _draw_posterior(("tnorm", lo, np.array([np.inf])), nz, 10000,
                              np.random.default_rng(0))
        assert len(np.unique(out)) == 10000
        assert (out >= lo).all()

    @pytest.mark.parametrize("k", [7.5, 8.5, 20.0, 37.0])
    def test_deep_upper_tail_weights_are_resolved(self, k):
        # observed Z=1 pins U above a cutoff k sd up; moving X down by 0.1 sd
        # keeps Z=1 with probability sf(k + 0.1) / sf(k), read from logs
        from scipy.stats import norm

        scm = TestAbductionPosteriors().threshold_scm(cutoff=0.5, m=0.0, s=0.5)
        x0 = 0.5 - 0.5 * k
        query = CounterfactualQuery({"X": x0, "Z": 1.0}, {"X": x0 - 0.05})
        want = np.exp(norm.logsf(k + 0.1) - norm.logsf(k))
        out = counterfactual(scm, query)
        assert out.exact and out.means["Z"] == pytest.approx(want, rel=1e-9)

    def test_underflowing_mass_names_node_and_unit(self):
        nz = NoiseSpec.gaussian(0.0, 0.5)
        lo = np.array([-np.inf, -np.inf, -np.inf])
        hi = np.array([0.0, 1.0, -20.0])  # the last one is 40 sd below the mean
        with pytest.raises(AbductionError, match="node 'Y': .* at unit 12$"):
            _draw_posterior(("tnorm", lo, hi), nz, 5, np.random.default_rng(0), "Y", 10)

    def test_counterfactual_on_an_impossible_tail_raises(self):
        scm = bundled_scm("high")
        unit = {"A": 0.0, "X1": 0.0, "X2": -40.0, "X3": 0.0, "Y": 1.0}
        query = CounterfactualQuery(unit, {"A": 1.0})
        with pytest.raises(AbductionError, match="node 'Y': .* at unit 0$"):
            counterfactual(scm, query, mc_budget=100)

    def test_monte_carlo_blocks_name_the_unit(self, monkeypatch):
        scm = bundled_scm("high")
        obs, _ = simulate(scm, 10, seed=3)
        obs["X2"][6], obs["Y"][6] = -40.0, 1.0
        monkeypatch.setattr(causal, "_EXACT_CAP", 0)
        monkeypatch.setattr(causal, "_BLOCK_CELLS", 32)
        fn = lambda v: v["Y"] > 0.5  # Monte Carlo past the cap, in blocks of 4 units
        with pytest.raises(AbductionError, match="node 'Y': .* at unit 6$"):
            causal._decision_probs(scm, fn, obs, [{"A": 0.0}], frozenset(), 8, 0)

    def test_exact_blocks_name_the_unit(self, monkeypatch):
        scm = bundled_scm("high")
        obs, _ = simulate(scm, 10, seed=3)
        obs["X2"][6], obs["Y"][6] = -40.0, 1.0
        monkeypatch.setattr(causal, "_BLOCK_CELLS", 8)
        fn = lambda v: v["Y"] > 0.5  # reads Y: its weights, in blocks of 2 or 4 units
        with pytest.raises(AbductionError, match="node 'Y': .* at unit 6$"):
            causal._decision_probs(scm, fn, obs, [{"A": 0.0}], frozenset(), 8, 0)


def _units(ds, order):
    """``ds`` with its rows in ``order``."""
    cols = tuple(replace(c, values=c.values[order]) for c in ds.features)
    sens = replace(ds.sensitive, values=ds.sensitive.values[order])
    return replace(ds, features=cols, sensitive=sens, target=ds.target[order])


def cap_rule(v):
    ts = [v[k] for k in v if k.startswith("T")]
    return (sum(ts) >= len(ts) / 2).astype(float)


def cap_scm(k=13):
    """A -> X -> T1..Tk: k gaussian threshold nodes, all random once observed."""
    names = ("A", "X") + tuple(f"T{i}" for i in range(1, k + 1))
    edges = (("A", "X"),) + tuple(("X", t) for t in names[2:])
    assignments = {"A": Assignment(EXOGENOUS), "X": Assignment(LINEAR, coeffs={"A": 1.0})}
    noises = {"A": NoiseSpec.bernoulli(0.5), "X": NoiseSpec.gaussian(0.0, 1.0)}
    for i, t in enumerate(names[2:]):
        assignments[t] = Assignment(THRESHOLD, coeffs={"X": 1.0}, cutoff=0.1 * i - 0.6)
        noises[t] = NoiseSpec.gaussian(0.0, 1.0)
    return Scm(Dag(names, edges), assignments, noises, sensitive="A")


class TestInvariance:
    @settings(max_examples=150, deadline=None)
    @given(decision_problems(), st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 8, 64]))
    def test_unit_probabilities_ignore_order_and_blocks(self, problem, perm_seed, cells):
        scm, decision, obs, interventions, mediators, mc_budget, seed = problem
        probs = causal._decision_probs(*problem)
        order = np.random.default_rng(perm_seed).permutation(len(obs[scm.nodes[0]]))
        shuffled = {k: v[order] for k, v in obs.items()}
        with patch.object(causal, "_BLOCK_CELLS", cells):
            blocked = causal._decision_probs(*problem)
            both = causal._decision_probs(scm, decision, shuffled, *problem[3:])
        assert _same(blocked, probs)
        assert _same(both, [p[order] for p in probs])

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["high", "low"]), st.integers(5, 60), st.integers(0, 2**16),
           st.lists(st.sampled_from(["X1", "X2", "X3", "Y"]), min_size=1, max_size=3,
                    unique=True),
           st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 5, 16]))
    def test_four_gaps_ignore_order_and_blocks(self, target, n, seed, reads, perm_seed, cells):
        scm = bundled_scm(target)
        ds = sample(scm, n, seed=seed)
        assume(0 < ds.sensitive.values.sum() < n)
        fn = _rule(reads, [1.0, -0.5, 2.0][: len(reads)], 0.7, "getitem")

        def gaps(data):
            return (
                cff_gap(scm, fn, data, 0, 1),
                pcff_gap(scm, fn, data, 0, 1, frozenset({"X3"})),
                dcff_gap(scm, fn, data, 0, 1),
                ecff_gap(scm, fn, data, 0, 1),
            )

        want = gaps(ds)
        with patch.object(causal, "_BLOCK_CELLS", cells):
            assert gaps(ds) == want
            shuffled = gaps(_units(ds, np.random.default_rng(perm_seed).permutation(n)))
        # a mean over reordered units may round differently in its last bits
        assert shuffled == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_many_branches_one_unit_per_block(self, monkeypatch):
        # 32 branches: a plain row sum of one unit would round otherwise
        scm = cap_scm(k=5)
        obs, _ = simulate(scm, 60, seed=8)
        problem = (scm, cap_rule, obs, [{"A": 0.0}, {"A": 1.0}], frozenset(), 16, 0)
        probs = causal._decision_probs(*problem)
        monkeypatch.setattr(causal, "_BLOCK_CELLS", 32)
        assert _same(causal._decision_probs(*problem), probs)


class TestPastTheCap:
    def test_monte_carlo_matches_the_mixture(self, monkeypatch):
        scm = cap_scm()
        obs, _ = simulate(scm, 12, seed=5)
        problem = (scm, cap_rule, obs, [{"A": 0.0}, {"A": 1.0}], frozenset(), 4000, 1)
        mc = causal._decision_probs(*problem)
        monkeypatch.setattr(causal, "_EXACT_CAP", 13)
        exact = causal._decision_probs(*problem)
        for m, e in zip(mc, exact):
            assert (np.abs(m - e) <= 6 * np.maximum(np.sqrt(e * (1 - e) / 4000), 1 / 4000)).all()
        assert not _same(mc, exact)

    def test_counterfactual_reports_monte_carlo(self, monkeypatch):
        scm = cap_scm()
        values, _ = simulate(scm, 1, seed=6)
        query = CounterfactualQuery({k: float(v[0]) for k, v in values.items()}, {"A": 1.0})
        mc = counterfactual(scm, query, mc_budget=4000, seed=2)
        assert not mc.exact and mc.draws == 4000 and set(mc.stderr) == set(scm.nodes)
        monkeypatch.setattr(causal, "_EXACT_CAP", 13)
        exact = counterfactual(scm, query)
        assert exact.exact and exact.stderr is None
        for node in scm.nodes:
            m, e = mc.means[node], exact.means[node]
            assert abs(m - e) <= 6 * max(mc.stderr[node], 1 / 4000)
            if node.startswith("T"):  # 0/1 values: the sample stderr in closed form
                assert mc.stderr[node] == pytest.approx(np.sqrt(m * (1 - m) / 3999), rel=1e-9)

    def test_clamped_nodes_do_not_count(self):
        # 13 random nodes, one of them intervened on or held: 12, exact
        scm = cap_scm()
        obs, _ = simulate(scm, 4, seed=7)
        unit = {k: float(v[0]) for k, v in obs.items()}
        assert counterfactual(scm, CounterfactualQuery(unit, {"T1": 1.0})).exact
        assert counterfactual(scm, CounterfactualQuery(unit, {"A": 1.0}, {"T1"})).exact
        calls = []

        def rule(v):
            calls.append(v["T2"].shape)
            return cap_rule(v)

        flips = [{"T1": 0.0}, {"T1": 1.0}]
        causal._decision_probs(scm, rule, obs, flips, frozenset(), 4000, 0)
        assert calls == [(1 << 12, 4)] * 2  # one exact call per intervention


class TestBoundedMemory:
    @staticmethod
    def peak_mb(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_y_reading_gap_at_a_large_budget(self):
        scm = bundled_scm("high")
        ds = sample(scm, 2000, seed=11)
        fn = lambda v: ((v["Y"] > 0.5) | (v["X1"] > 1)).astype(float)
        gap = []
        assert self.peak_mb(lambda: gap.append(cff_gap(scm, fn, ds, 0, 1, mc_budget=100000))) < 150
        assert 0 < gap[0] < 1

    def test_monte_carlo_past_the_cap_at_a_large_budget(self):
        # a block holds _BLOCK_CELLS draws x units per node array: 15 nodes'
        # noise and values at 65536 cells of 8 bytes are 16 MB
        scm = cap_scm()
        obs, _ = simulate(scm, 3, seed=5)
        ds = Dataset(
            tuple(FeatureColumn(k, "continuous", obs[k]) for k in scm.nodes[1:]),
            SensitiveAttribute("A", obs["A"].astype(int), ("0", "1")),
        )
        a = int(obs["A"][0])
        assert self.peak_mb(lambda: cff_gap(scm, cap_rule, ds, a, 1 - a, mc_budget=100000)) < 64
        query = CounterfactualQuery({k: float(v[0]) for k, v in obs.items()}, {"A": 1.0 - a})
        out = []
        assert self.peak_mb(lambda: out.append(counterfactual(scm, query, 100000))) < 64
        assert out[0].draws == 100000 and not out[0].exact

    def test_expectation_gap_at_a_large_budget(self):
        # the priors are drawn in blocks of _BLOCK_CELLS draws, not all at once
        scm = bundled_scm("high")
        fn, gap = lambda v: v["X3"], []
        run = lambda: gap.append(expectation_intervention_gap(scm, fn, 1.0, 0.0, 4_000_000))
        assert self.peak_mb(run) < 32
        assert gap[0] == pytest.approx(0.5, abs=0.005)


def _no_work(*args, **kwargs):
    raise AssertionError("the query worked before it checked mc_budget")


class TestBudget:
    @pytest.mark.parametrize("budget", [0, -5])
    @pytest.mark.parametrize("model", [chain_scm, cap_scm])
    @pytest.mark.parametrize("query", ["counterfactual", "pcff_gap", "cff_gap", "dcff_gap",
                                       "ecff_gap", "expectation_intervention_gap"])
    def test_below_one_raises_before_any_work(self, monkeypatch, query, model, budget):
        # chain_scm is answered exactly and draws nothing; cap_scm is past the cap
        scm = model()
        ds = sample(scm, 20, seed=1)
        values, _ = simulate(scm, 1, seed=6)
        unit = CounterfactualQuery({k: float(v[0]) for k, v in values.items()}, {"A": 1.0})
        fn = lambda v: v["X"]
        calls = {
            "counterfactual": lambda: counterfactual(scm, unit, budget),
            "pcff_gap": lambda: pcff_gap(scm, fn, ds, 0, 1, frozenset({"X"}), budget),
            "cff_gap": lambda: cff_gap(scm, fn, ds, 0, 1, budget),
            "dcff_gap": lambda: dcff_gap(scm, fn, ds, 0, 1, budget),
            "ecff_gap": lambda: ecff_gap(scm, fn, ds, 0, 1, budget),
            "expectation_intervention_gap":
                lambda: expectation_intervention_gap(scm, fn, 1.0, 0.0, budget),
        }
        for engine in ("_abduct", "_mixture_means", "_mc_means"):
            monkeypatch.setattr(causal, engine, _no_work)
        with pytest.raises(ValueError, match="mc_budget must be at least 1"):
            calls[query]()
