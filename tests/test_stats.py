"""Shared statistics helpers: t quantiles, aligned histograms, KS gaps, quantiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from portcanyon import stats, vehicle
from portcanyon.errors import DomainError, InsufficientDataError
from portcanyon.stats import (
    MAX_HISTOGRAM_BINS,
    aligned_histograms,
    empirical_cdf,
    gaussian_cdf,
    ks_gap,
    sorted_ks_gap,
    t_quantile,
)


class TestTQuantile:
    def test_bit_identical_to_scipy_t_ppf(self):
        for df in range(1, 2001):
            assert t_quantile(0.975, df) == float(sps.t.ppf(0.975, df)), df

    def test_returns_python_float(self):
        assert type(t_quantile(0.975, 10)) is float

    def test_known_values(self):
        assert t_quantile(0.975, 1) == pytest.approx(12.7062047, rel=1e-8)
        assert t_quantile(0.5, 7) == 0.0


def _reference_edges(samples, width):
    """The aligned-edge rule both histogram call sites used before sharing it."""
    lo = math.floor(samples.min() / width) * width
    hi = math.ceil(samples.max() / width) * width
    if hi <= lo:
        hi = lo + width
    n_bins = int(round((hi - lo) / width))
    return lo + width * np.arange(n_bins + 1)


def _reference_counts(samples, edges):
    """The per-column np.histogram loop that the one-pass count replaced."""
    return np.stack([np.histogram(samples[:, i], bins=edges)[0]
                     for i in range(samples.shape[1])])


class TestAlignedHistograms:
    @pytest.mark.parametrize("columns, width, edge_case", [
        ([[-60.0, -50.0, -55.0], [-52.5, -50.0, -59.0]], 1.0, "max on the last edge"),
        ([[-63.6, -4.1, -63.6], [-30.0, -4.2, -63.6]], 0.3, "min below the first edge"),
        ([[-60.8, -27.2], [-27.2, -55.55]], 0.1, "max above the last edge"),
    ])
    def test_counts_equal_the_histogram_loop(self, columns, width, edge_case):
        samples = np.array(columns).T
        edges, counts = aligned_histograms(samples, width)
        if edge_case == "max on the last edge":
            assert samples.max() == edges[-1]
        elif edge_case == "min below the first edge":
            assert samples.min() < edges[0]
        else:
            assert samples.max() > edges[-1]
        assert counts.tolist() == _reference_counts(samples, edges).tolist()

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 12)),
        width=st.sampled_from([0.01, 0.1, 0.3, 0.5, 1.0, 3.3]),
        decimals=st.integers(0, 3),
        offset=st.sampled_from([0.0, 1e6, 1e14]),  # far from 0, edges round unevenly
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_counts_equal_the_histogram_loop(self, shape, width, decimals, offset, seed):
        samples = np.round(np.random.default_rng(seed).normal(-70.0, 10.0, shape),
                           decimals) + offset
        edges, counts = aligned_histograms(samples, width)
        assert counts.tolist() == _reference_counts(samples, edges).tolist()

    @pytest.mark.parametrize("rows", [stats.CHUNK_ROWS - 1, stats.CHUNK_ROWS,
                                      stats.CHUNK_ROWS + 1, 3 * stats.CHUNK_ROWS + 5])
    def test_counts_over_row_chunks_equal_the_histogram_loop(self, rows):
        # One value per row sits far below the rest, so a row that a chunk
        # skips or takes twice changes a count at that row's column.
        samples = np.round(np.random.default_rng(rows).normal(-70.0, 10.0, (rows, 7)), 1)
        samples[np.arange(rows), np.arange(rows) % 7] = -200.0 - np.arange(rows)
        edges, counts = aligned_histograms(samples, 0.5)
        assert counts.tolist() == _reference_counts(samples, edges).tolist()

    @pytest.mark.parametrize("width", [1.0, 0.5, 2.0, 0.1])
    def test_edges_byte_identical_to_reference_rule(self, width):
        rng = np.random.default_rng(3)
        samples = rng.normal(-80.0, 9.0, size=(500, 36))
        edges, counts = aligned_histograms(samples, width)
        assert edges.tobytes() == _reference_edges(samples, width).tobytes()
        assert counts.shape == (36, edges.size - 1)
        assert np.all(counts.sum(axis=1) == 500)

    def test_constant_sample_gets_one_bin(self):
        edges, counts = aligned_histograms(np.full((4, 3), 2.0), 1.0)
        assert edges.tolist() == [2.0, 3.0]
        assert counts.tolist() == [[4], [4], [4]]

    def test_bin_count_at_the_bound_is_allowed(self):
        samples = np.array([[0.0], [float(MAX_HISTOGRAM_BINS)]])
        edges, counts = aligned_histograms(samples, 1.0)
        assert edges.size == MAX_HISTOGRAM_BINS + 1
        assert counts.sum() == 2

    @pytest.mark.parametrize("width", [1e-9, 1e-300, 5e-324])
    def test_too_many_bins_is_domain_error(self, width):
        with pytest.raises(DomainError, match="bins"):
            aligned_histograms(np.array([[-60.0], [-70.0]]), width)

    def test_one_bin_over_the_bound_is_domain_error(self):
        samples = np.array([[0.0], [float(MAX_HISTOGRAM_BINS + 1)]])
        with pytest.raises(DomainError):
            aligned_histograms(samples, 1.0)

    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan, math.inf])
    def test_bad_width_is_domain_error(self, width):
        with pytest.raises(DomainError, match="bin width"):
            aligned_histograms(np.zeros((2, 2)), width)


@pytest.mark.parametrize("sigma", [0.0, 0.5, 6.91])
def test_sorted_ks_gap_equals_ks_gap_bit_for_bit(sigma):
    rng = np.random.default_rng(3)
    samples = np.round(rng.normal(1.13, 6.91, 5000), 1)  # ties included
    values = np.sort(samples)
    reference = gaussian_cdf(values, 1.13, sigma)
    assert sorted_ks_gap(reference) == ks_gap(samples, 1.13, sigma)
    report = vehicle.delta_cdf_report(samples)
    assert report.sup_gap == ks_gap(samples, report.fit.mu_db, report.fit.sigma_db)


def _one_pass_ks_gap(reference):
    """The gap from one k/n array and two full-size differences."""
    steps = np.arange(reference.size + 1.0) / reference.size
    return float(max((steps[1:] - reference).max(), (reference - steps[:-1]).max()))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=700),
       seed=st.integers(min_value=0, max_value=2**32 - 1), ties=st.booleans())
def test_sorted_ks_gap_equals_one_pass(n, seed, ties):
    rng = np.random.default_rng(seed)
    values = np.sort(rng.normal(0.0, 1.0, n))
    reference = gaussian_cdf(np.round(values, 1) if ties else values, 0.1, 0.9)
    assert sorted_ks_gap(reference) == _one_pass_ks_gap(reference)


@pytest.mark.parametrize("p", [0.0, -0.5, 1.5, float("nan")])
def test_quantile_outside_unit_interval_is_domain_error(p):
    with pytest.raises(DomainError, match="p must be in"):
        empirical_cdf([1.0, 2.0, 3.0]).quantile(p)


def test_empty_samples_are_insufficient_data():
    with pytest.raises(InsufficientDataError, match="^empirical CDF needs at least one sample$"):
        empirical_cdf([])
    with pytest.raises(InsufficientDataError, match="^KS gap needs at least one sample$"):
        stats.ks_gap([], 0.0, 1.0)
