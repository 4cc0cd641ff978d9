"""Suite orchestration: determinism, pass criteria, and constrained generation."""

import math
from dataclasses import asdict

import numpy as np
import pytest

import kricci.suites
from kricci.extremes import CertifyOptions, certify_k_ricci
from kricci.forms import HermitianForm
from kricci.suites import (
    CaseRecord,
    RicKUpper,
    SuiteConfig,
    generate_forms,
    run_suite,
)


def small_config(suite, **kwargs):
    defaults = dict(count=2, seed=3, samples=20_000)
    defaults.update(kwargs)
    return SuiteConfig(suite=suite, **defaults)


class TestSuiteRuns:
    def test_royden_passes(self):
        report = run_suite(small_config("royden", n_values=(1, 2)))
        assert report.ok
        assert report.pass_count == 4
        assert report.worst_margin > -1e-12

    def test_rigidity_model_passes_at_tight_tolerance(self):
        report = run_suite(small_config("rigidity-model", n_values=(2, 3), k_values=(2, 3)))
        assert report.ok
        assert report.worst_margin > -1e-12

    def test_interpolation_passes(self):
        report = run_suite(small_config("interpolation", n_values=(3,), k_values=(2,), count=1))
        assert report.ok

    def test_ric_scalar_passes(self):
        report = run_suite(small_config("ric-scalar", n_values=(3,), k_values=(2,), count=1))
        assert report.ok

    def test_mixed_trace_passes(self):
        report = run_suite(small_config("mixed-trace", n_values=(2,), count=1))
        assert report.ok

    def test_berger_passes(self):
        report = run_suite(small_config("berger", n_values=(2,), count=1))
        assert report.ok

    def test_berger_records_monte_carlo_verdict(self):
        # Suite seed 14's n=3 case: its 1e5-point estimate lies outside 3
        # standard errors, a 1e3-point one inside; the exact gate passes both.
        config = dict(n_values=(2, 3), count=1, seed=14)
        coarse = run_suite(SuiteConfig(suite="berger", samples=1000, **config)).cases[1]
        fine = run_suite(SuiteConfig(suite="berger", samples=100_000, **config)).cases[1]
        assert (coarse.within_z, fine.within_z) == (True, False)
        assert coarse.passed and fine.passed
        assert (coarse.lhs, coarse.rhs, coarse.margin) == (fine.lhs, fine.rhs, fine.margin)

    @pytest.mark.parametrize("seed", range(4))
    def test_berger_monte_carlo_changes_only_its_verdict(self, seed):
        # The Monte Carlo draws come last from each case's generator, so the
        # instances, verdicts and margins do not depend on ``samples``.
        config = dict(n_values=(2, 3), count=2, seed=seed)
        exact = run_suite(SuiteConfig(suite="berger", **config)).cases
        sampled = run_suite(SuiteConfig(suite="berger", samples=100_000, **config)).cases
        assert all(case.within_z is None for case in exact)
        assert all(case.within_z is not None for case in sampled)
        assert [asdict(case) for case in exact] == [
            dict(asdict(case), within_z=None) for case in sampled
        ]

    def test_only_berger_records_monte_carlo_verdict(self):
        report = run_suite(small_config("royden", n_values=(2,), count=1))
        assert report.cases[0].within_z is None

    def test_infeasible_k_yields_no_cases(self):
        report = run_suite(small_config("ric-scalar", n_values=(2,), k_values=(5,)))
        assert report.cases == []
        assert report.ok
        assert report.worst_margin == math.inf

    def test_zero_count_is_empty_success(self):
        report = run_suite(small_config("royden", count=0))
        assert report.cases == []
        assert report.ok

    def test_tolerance_override_can_fail_cases(self):
        report = run_suite(small_config("royden", n_values=(2,), tolerance=1e-300))
        assert not report.ok
        assert report.pass_count < len(report.cases)


class TestRegistry:
    # The case builder each suite runs, by the name the benchmark tracer patches;
    # and, for the suites that take a k, the k values run at n = 2 and n = 3.
    BUILDERS = {
        "royden": "_royden_case",
        "interpolation": "_interpolation_case",
        "mixed-trace": "_mixed_trace_case",
        "ric-scalar": "_ric_scalar_case",
        "berger": "_berger_case",
        "rigidity-model": "_rigidity_case",
    }
    K_VALUES = {"interpolation": {2: (1, 2), 3: (1, 2, 3)}, "ric-scalar": {2: (2,), 3: (2, 3)}}

    @pytest.mark.parametrize("suite", sorted(BUILDERS))
    def test_run_suite_calls_the_builder_on_the_module(self, monkeypatch, suite):
        calls = []

        def builder(config, case_id, n, k, index, rng):
            calls.append((case_id, n, k, index, rng.random()))
            return CaseRecord(case_id, "patched", 0.0, 0.0, 0.0, True)

        monkeypatch.setattr(kricci.suites, self.BUILDERS[suite], builder)
        config = SuiteConfig(suite=suite, n_values=(2, 3), k_values=(1, 2, 3), count=2, seed=5)
        report = run_suite(config)
        ks = self.K_VALUES.get(suite, {2: (None,), 3: (None,)})
        expected = [(n, k, i) for n in (2, 3) for k in ks[n] for i in range(2)]
        assert [call[1:3] for call in calls] == [(n, k) for n, k, _ in expected]
        assert [call[0] for call in calls] == [
            f"{suite}-n{n}{'' if k is None else f'-k{k}'}-{i:03d}" for n, k, i in expected
        ]
        assert [call[3] for call in calls] == list(range(len(expected)))
        # Each case draws from its own generator, keyed by (seed, case index).
        assert [call[4] for call in calls] == [
            np.random.default_rng([5, index]).random() for index in range(len(expected))
        ]
        assert [case.lemma for case in report.cases] == ["patched"] * len(expected)


class TestDeterminism:
    def test_same_seed_reproduces_records(self):
        a = run_suite(small_config("royden", n_values=(1, 2)))
        b = run_suite(small_config("royden", n_values=(1, 2)))
        assert [asdict(c) for c in a.cases] == [asdict(c) for c in b.cases]

    def test_seed_changes_instances(self):
        a = run_suite(small_config("berger", n_values=(2,), count=1, seed=0))
        b = run_suite(small_config("berger", n_values=(2,), count=1, seed=1))
        assert a.cases[0].rhs != b.cases[0].rhs


class TestConfigValidation:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            SuiteConfig(suite="unheard-of")

    def test_negative_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SuiteConfig(suite="royden", count=-1)

    def test_bad_dimension(self):
        with pytest.raises(ValueError, match="positive"):
            SuiteConfig(suite="royden", n_values=(0,))


class TestGeneration:
    def test_zero_count(self):
        assert generate_forms(2, 0, seed=0) == []

    def test_unconstrained_shifts_are_zero(self):
        forms = generate_forms(2, 3, seed=5)
        assert [shift for _, shift in forms] == [0.0, 0.0, 0.0]

    def test_determinism(self):
        a = generate_forms(2, 2, seed=9)
        b = generate_forms(2, 2, seed=9)
        for (Sa, _), (Sb, _) in zip(a, b):
            assert np.array_equal(Sa.entries, Sb.entries)

    def test_constrained_forms_recertify(self):
        bound = -3.0
        constraint = RicKUpper(k=2, bound=bound)
        forms = generate_forms(2, 3, seed=11, constraint=constraint)
        h = HermitianForm(np.eye(2))
        options = CertifyOptions(starts=16, presweep=256, max_iter=120)
        for S, shift in forms:
            assert shift != 0.0
            cert = certify_k_ricci(
                S, h, 2, bound=bound, options=options, rng=np.random.default_rng(99)
            )
            assert cert.status == "satisfied"

    def test_constrained_dimension_limit(self):
        with pytest.raises(ValueError, match="n <= 6"):
            generate_forms(7, 1, seed=0, constraint=RicKUpper(k=1, bound=0.0))
