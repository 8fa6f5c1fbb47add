"""Bit-identity of the scalar per-decision kernels with their array forms.

The runtime decides on Python floats: :meth:`AdmissionCriterion.admissible_count`
evaluates eqn (42) with ``math.sqrt`` and :func:`cross_section` uses method
reductions.  Committed golden decision digests depend on every target and
every estimate being the same float as the NumPy forms produce, so these
properties compare with ``==``, never approximately.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.admission import AdmissionCriterion, admissible_flow_count_alpha
from repro.core.estimators import CrossSection, cross_section
from repro.errors import ConvergenceError, EstimatorError, ParameterError
from repro.theory import inversion
from repro.theory.inversion import OVERFLOW_FORMULAS, adjusted_ce_alpha

positive = st.floats(
    min_value=5e-324, max_value=1e300, allow_nan=False, allow_infinity=False
)
magnitudes = st.one_of(
    positive,
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from([1e-300, 1e-12, 1.0, 100.0, 1e12, 1e300]),
)
sigmas = st.one_of(st.just(0.0), magnitudes)
alphas = st.one_of(
    st.floats(min_value=-40.0, max_value=40.0),
    st.floats(min_value=-1e200, max_value=1e200),
    st.sampled_from([0.0, -0.0, 1.645, 2.326, 35.0, -3.0]),
)


def same(got: float, want: float) -> bool:
    return got == want or (math.isnan(got) and math.isnan(want))


def array_form(mu, sigma, capacity, alpha) -> float:
    with np.errstate(all="ignore"):
        return admissible_flow_count_alpha(mu, sigma, capacity, alpha)


class TestScalarEqn42:
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(mu=magnitudes, sigma=sigmas, capacity=magnitudes, alpha=alphas)
    def test_equals_array_form_exactly(self, mu, sigma, capacity, alpha):
        got = AdmissionCriterion(capacity=capacity, alpha=alpha).admissible_count(
            mu, sigma
        )
        assert type(got) is float
        assert same(got, array_form(mu, sigma, capacity, alpha))

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        mu=st.floats(min_value=1e-3, max_value=1.0),
        sigma=st.floats(min_value=1e4, max_value=1e8),
        capacity=st.floats(min_value=1e-3, max_value=1.0),
        alpha=st.floats(min_value=1.0, max_value=40.0),
    )
    def test_conjugate_regime(self, mu, sigma, capacity, alpha):
        # 4 c mu < 1e-6 (sigma alpha)^2: the conjugate form is the one used.
        assert 4.0 * capacity * mu < 1e-6 * (sigma * alpha) ** 2
        got = AdmissionCriterion(capacity=capacity, alpha=alpha).admissible_count(
            mu, sigma
        )
        assert got == array_form(mu, sigma, capacity, alpha)

    def test_overflow_gives_inf_not_an_error(self):
        crit = AdmissionCriterion(capacity=1e300, alpha=-1e200)
        got = crit.admissible_count(1e-300, 1e200)
        assert got == math.inf == array_form(1e-300, 1e200, 1e300, -1e200)

    def test_numpy_scalars_in_python_float_out(self):
        crit = AdmissionCriterion(capacity=100.0, alpha=2.326)
        got = crit.admissible_count(np.float64(1.0), np.float64(0.3))
        assert type(got) is float
        assert got == crit.admissible_count(1.0, 0.3)

    @pytest.mark.parametrize(
        "mu, sigma, capacity, match",
        [
            (0.0, 0.3, 10.0, "mu"),
            (-1.0, 0.3, 10.0, "mu"),
            (1.0, -0.1, 10.0, "sigma"),
            (1.0, 0.3, 0.0, "capacity"),
            (1.0, 0.3, -5.0, "capacity"),
        ],
    )
    def test_same_parameter_errors(self, mu, sigma, capacity, match):
        with pytest.raises(ParameterError, match=match):
            admissible_flow_count_alpha(mu, sigma, capacity, 2.0)
        with pytest.raises(ParameterError, match=match):
            AdmissionCriterion(capacity=capacity, alpha=2.0).admissible_count(
                mu, sigma
            )


def old_cross_section(rates) -> CrossSection:
    """The historical ``np.mean`` form of :func:`cross_section`."""
    arr = np.asarray(rates, dtype=float)
    n = int(arr.size)
    if n == 0:
        return CrossSection(n=0, mean=0.0, second_moment=0.0, variance=0.0)
    if not np.all(np.isfinite(arr)):
        raise EstimatorError("per-flow rates must be finite (got NaN or inf)")
    if np.any(arr < 0.0):
        raise EstimatorError("per-flow rates must be non-negative")
    mean = float(arr.mean())
    m2 = float(np.mean(arr * arr))
    if n >= 2:
        var = float(max(0.0, (m2 - mean * mean)) * n / (n - 1))
    else:
        var = 0.0
    return CrossSection(n=n, mean=mean, second_moment=m2, variance=var)


rates = st.one_of(
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e150),
    st.sampled_from([0.0, 1e-300, 0.1, 1.0, 3.0]),
)


class TestCrossSectionReductions:
    @pytest.mark.parametrize("n", [1, 2, 3, 100, 1000])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_equals_np_mean_form_exactly(self, n, data):
        arr = data.draw(arrays(np.float64, n, elements=rates))
        assert cross_section(arr) == old_cross_section(arr)

    @pytest.mark.parametrize("n", [1, 2, 3, 100, 1000])
    def test_equals_np_mean_form_on_random_rates(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-6, 1.0, 1e4):
            arr = rng.gamma(2.0, scale, size=n)
            assert cross_section(arr) == old_cross_section(arr)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_same_errors(self, bad):
        arr = np.array([1.0, bad, 2.0])
        with pytest.raises(EstimatorError) as old:
            old_cross_section(arr)
        with pytest.raises(EstimatorError) as new:
            cross_section(arr)
        assert str(new.value) == str(old.value)


class TestInversionCache:
    KW = dict(correlation_time=1, holding_time_scaled=37, snr=0.5,
              formula="separation")

    def test_returns_the_identical_float(self):
        first = adjusted_ce_alpha(1e-3, memory=3.25, **self.KW)
        again = adjusted_ce_alpha(1e-3, memory=3.25, **self.KW)
        assert again is first
        uncached = inversion._solve_alpha_ce.__wrapped__(
            1e-3, 3.25, 1.0, 37.0, 0.5, "separation"
        )
        assert first == uncached

    def test_int_and_float_share_a_key(self):
        first = adjusted_ce_alpha(1e-3, memory=4, **self.KW)
        before = inversion._solve_alpha_ce.cache_info()
        again = adjusted_ce_alpha(
            1e-3, memory=4.0, correlation_time=1.0, holding_time_scaled=37.0,
            snr=0.5, formula="separation",
        )
        after = inversion._solve_alpha_ce.cache_info()
        assert again is first
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_errors_are_not_cached(self, monkeypatch):
        calls = []

        def always_overflows(model, alpha):
            calls.append(alpha)
            return 0.5

        monkeypatch.setitem(OVERFLOW_FORMULAS, "always-overflows", always_overflows)
        kw = dict(memory=1.0, correlation_time=1.0, holding_time_scaled=37.0,
                  snr=0.5, formula="always-overflows")
        with pytest.raises(ConvergenceError):
            adjusted_ce_alpha(1e-3, **kw)
        solved_once = len(calls)
        with pytest.raises(ConvergenceError):
            adjusted_ce_alpha(1e-3, **kw)
        assert len(calls) == 2 * solved_once > 0
        with pytest.raises(ParameterError):
            adjusted_ce_alpha(0.7, **kw)
        with pytest.raises(ParameterError):
            adjusted_ce_alpha(0.7, **kw)
