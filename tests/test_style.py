"""Histogram matching, vendor transfer, and distribution reports."""

import numpy as np
import pytest

from cineprop import style
from cineprop.errors import InvalidParameterError
from cineprop.style import (
    MAX_BINS,
    SOURCE_BINS,
    build_reference,
    histogram_match,
    histogram_report,
    ks_statistic,
    vendor_transfer,
)
from cineprop.volume import ScalarVolume
from helpers import ks_brute_force, ks_eight_search_oracle


def _normal_volume(rng, mean, std, dims=(16, 16, 16)):
    return ScalarVolume(rng.normal(mean, std, size=dims).astype(np.float32))


def _z_replicated(rng, dims=(12, 12, 8)):
    """Each z-slice identical, so any slice has the whole volume's distribution."""
    plate = rng.uniform(0, 200, size=dims[:2]).astype(np.float32)
    return ScalarVolume(np.repeat(plate[:, :, None], dims[2], axis=2))


def _on_bin_edges(rng):
    """Values on, and one float32 step either side of, every source-bin edge of an irregular range.

    One z-slice, so the slice is the whole volume; the range's ends are its extremes.
    """
    lo, hi = np.float32(-37.3), np.float32(211.9)
    edges = np.linspace(float(lo), float(hi), SOURCE_BINS + 1).astype(np.float32)
    values = np.concatenate([np.nextafter(edges, lo), edges, np.nextafter(edges, hi)])
    return ScalarVolume(rng.permutation(values).reshape(-1, 3, 1))


class TestBuildReference:
    def test_single_constant_volume(self):
        vol = ScalarVolume(np.full((4, 4, 4), 7.0, dtype=np.float32))
        ref = build_reference([vol], 1, seed=0)
        assert np.all(ref.intensities == 7.0)
        assert ref.median == 7.0

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(1)
        corpus = [_normal_volume(rng, 100, 10) for _ in range(5)]
        r1 = build_reference(corpus, 3, seed=9)
        r2 = build_reference(corpus, 3, seed=9)
        assert np.array_equal(r1.intensities, r2.intensities)

    def test_selection_matches_documented_generator(self):
        rng = np.random.default_rng(2)
        corpus = [
            ScalarVolume(rng.normal(0, 1, size=(4, 4, int(rng.integers(3, 9)))).astype(np.float32))
            for _ in range(5)
        ]
        seed = 123
        ref = build_reference(corpus, 3, seed=seed)
        oracle = np.random.default_rng(seed)
        chosen = oracle.choice(5, size=3, replace=False)
        expected = 0
        for idx in chosen:
            k = int(oracle.integers(0, corpus[int(idx)].dims[2]))
            expected += corpus[int(idx)].dims[0] * corpus[int(idx)].dims[1]
        assert ref.intensities.size == expected

    def test_empty_corpus_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_reference([], 1, seed=0)

    def test_n_larger_than_corpus_rejected(self):
        vol = ScalarVolume(np.zeros((2, 2, 2)))
        with pytest.raises(InvalidParameterError):
            build_reference([vol], 2, seed=0)

    def test_negative_seed_rejected(self):
        vol = ScalarVolume(np.zeros((2, 2, 2)))
        with pytest.raises(InvalidParameterError, match="seed"):
            build_reference([vol], 1, seed=-1)


class TestHistogramMatch:
    def test_self_match_within_one_quantization_step(self):
        rng = np.random.default_rng(5)
        for vol in (_z_replicated(rng), _on_bin_edges(rng)):
            ref = build_reference([vol], 1, seed=6)
            matched, degenerate = histogram_match(vol, ref)
            assert not degenerate
            step = (float(vol.data.max()) - float(vol.data.min())) / SOURCE_BINS
            assert float(np.abs(matched.data - vol.data).max()) <= step + 1e-5

    def test_two_point_mapping(self):
        from cineprop.style import ReferenceHistogram

        src = np.zeros((4, 4, 2), dtype=np.float32)
        src[:, :, 1] = 10.0  # values {0, 10} equally frequent
        ref = ReferenceHistogram(np.array([100.0] * 8 + [200.0] * 8))
        matched, _ = histogram_match(ScalarVolume(src), ref)
        assert np.all(matched.data[src == 0.0] == 100.0)
        assert np.all(matched.data[src == 10.0] == 200.0)

    def test_constant_volume_degenerate(self):
        rng = np.random.default_rng(7)
        ref = build_reference([_normal_volume(rng, 150, 20)], 1, seed=8)
        vol = ScalarVolume(np.full((4, 4, 4), 3.0, dtype=np.float32))
        matched, degenerate = histogram_match(vol, ref)
        assert degenerate
        assert np.allclose(matched.data, ref.median, atol=1e-5)

    def test_monotone_exactly(self):
        rng = np.random.default_rng(9)
        vol = _normal_volume(rng, 100, 25)
        ref = build_reference([_normal_volume(rng, 180, 40)], 1, seed=10)
        matched, _ = histogram_match(vol, ref)
        order = np.argsort(vol.data.ravel())  # every voxel, in ascending input order
        assert np.all(np.diff(matched.data.ravel()[order]) >= 0)

    def test_output_range_within_reference(self):
        rng = np.random.default_rng(11)
        vol = _normal_volume(rng, 100, 25)
        ref = build_reference([_normal_volume(rng, 180, 40)], 1, seed=12)
        matched, _ = histogram_match(vol, ref)
        assert float(matched.data.min()) >= float(ref.intensities.min()) - 1e-5
        assert float(matched.data.max()) <= float(ref.intensities.max()) + 1e-5

    def test_cdf_convergence_bound(self):
        rng = np.random.default_rng(13)
        vol = _normal_volume(rng, 100, 25, dims=(16, 16, 16))
        ref = build_reference([_normal_volume(rng, 180, 40, dims=(24, 24, 24))], 1, seed=14)
        matched, _ = histogram_match(vol, ref)
        n = matched.data.size
        bound = 2.0 / SOURCE_BINS + 2.0 / np.sqrt(n)
        assert ks_statistic(matched.data.ravel(), ref.intensities) <= bound

    def test_idempotent_up_to_quantization(self):
        rng = np.random.default_rng(15)
        vol = _normal_volume(rng, 100, 25)
        ref = build_reference([_normal_volume(rng, 180, 40)], 1, seed=16)
        once, _ = histogram_match(vol, ref)
        twice, _ = histogram_match(once, ref)
        step = (float(once.data.max()) - float(once.data.min())) / SOURCE_BINS
        assert float(np.abs(twice.data - once.data).max()) <= step + 1e-5


class TestVendorTransfer:
    def _dataset(self, seed=19):
        rng = np.random.default_rng(seed)
        a = [(_normal_volume(rng, 100, 10), "A") for _ in range(3)]
        b = [(_normal_volume(rng, 200, 20), "B") for _ in range(3)]
        return a + b

    def test_moment_transfer(self):
        dataset = self._dataset()
        out = vendor_transfer(dataset, "A", "B", seed=20)
        assert len(out) == 3
        values = np.concatenate([v.data.ravel() for v in out])
        assert abs(float(values.mean()) - 200.0) < 5.0
        assert abs(float(values.std()) - 20.0) < 5.0

    def test_same_vendor_near_identity(self):
        dataset = self._dataset(seed=21)
        out = vendor_transfer(dataset, "B", "B", seed=22)
        originals = [v for v, tag in dataset if tag == "B"]
        for orig, new in zip(originals, out):
            step = (float(orig.data.max()) - float(orig.data.min())) / SOURCE_BINS
            # pooled reference differs slightly from each single volume
            assert float(np.abs(new.data - orig.data).mean()) <= 5 * step

    def test_missing_vendor(self):
        dataset = self._dataset(seed=23)
        with pytest.raises(InvalidParameterError, match="vendor 'C' absent"):
            vendor_transfer(dataset, "A", "C", seed=24)

    def test_inputs_untouched(self):
        dataset = self._dataset(seed=25)
        before = [v.data.copy() for v, _ in dataset]
        vendor_transfer(dataset, "A", "B", seed=26)
        for (vol, _), snapshot in zip(dataset, before):
            assert np.array_equal(vol.data, snapshot)


def _oracle_pairs():
    """Small pools: ties, unequal sizes, one-value pools, runs of ties across blocks, and 40 random pairs."""
    rng = np.random.default_rng(30)
    pairs = [
        (np.round(rng.normal(0.0, 3.0, size=301)), np.round(rng.normal(1.0, 4.0, size=173))),  # ties, unequal sizes
        (np.array([2.0]), np.array([-1.0])),  # single-element pools
        (np.array([0.5]), np.round(rng.normal(0.0, 1.0, size=40))),
        (np.array([0.0] * 5 + [1.0] * 9 + [2.0] * 3), np.array([1.0, 1.0, 3.0])),  # a run of 1.0 across block 7
        (np.full(20, 4.0), np.array([3.0, 4.0, 4.0, 5.0])),  # blocks made only of ties
    ]
    for _ in range(40):
        n_a, n_b = (int(n) for n in rng.integers(1, 60, size=2))
        scale = float(rng.choice([0.3, 1.0, 5.0]))
        pairs.append((np.round(rng.normal(0.0, scale, size=n_a)), np.round(rng.normal(1.0, scale, size=n_b))))
    return pairs


def _assert_equals_oracles(pairs):
    for a, b in pairs:
        want = ks_eight_search_oracle(a, b)
        assert want == ks_brute_force(a, b)
        assert ks_statistic(a, b) == ks_statistic(b, a) == want


def _record_runs(monkeypatch) -> list[int]:
    """The length of every run that ``ks_statistic`` refines, as it refines them."""
    runs = []
    refine = style._ks_run

    def recorded(pool, start, stop, *other):
        runs.append(stop - start)
        return refine(pool, start, stop, *other)

    monkeypatch.setattr(style, "_ks_run", recorded)
    return runs


class TestKsStatistic:
    def test_identical_samples_zero(self):
        rng = np.random.default_rng(27)
        x = rng.normal(size=500)
        assert ks_statistic(x, x) == 0.0

    def test_disjoint_samples_one(self):
        assert ks_statistic(np.zeros(10), np.ones(10)) == 1.0

    def test_shifted_normals(self):
        rng = np.random.default_rng(28)
        a = rng.normal(100, 10, size=100_000)
        b = rng.normal(200, 20, size=100_000)
        assert ks_statistic(a, b) >= 0.9

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_equals_eight_search_and_brute_force_oracles(self, monkeypatch, block):
        monkeypatch.setattr(style, "_KS_BLOCK", block)
        _assert_equals_oracles(_oracle_pairs())

    @pytest.mark.parametrize("step", [1, 2, 3, 7, 1 << 20])  # 1 << 20: past every pool's size
    def test_checkpoint_steps_equal_oracles(self, monkeypatch, step):
        monkeypatch.setattr(style, "_KS_STEP", step)
        monkeypatch.setattr(style, "_KS_BLOCK", 7)  # runs that span blocks
        for join in (1, style._KS_JOIN):  # every run refined on its own, then short gaps joined
            monkeypatch.setattr(style, "_KS_JOIN", join)
            _assert_equals_oracles(_oracle_pairs())

    def test_identical_pools_refine_every_value(self, monkeypatch):
        rng = np.random.default_rng(33)
        x = np.round(rng.normal(0.0, 30.0, size=5000))  # ties
        runs = _record_runs(monkeypatch)
        assert ks_statistic(x, x) == 0.0
        # nothing is pruned: one run per pool, from above the first checkpoint (the minimum) to the end
        assert runs == [x.size - np.count_nonzero(x == x.min())] * 2

    def test_maximum_strictly_inside_a_checkpoint_interval(self, monkeypatch):
        a = np.arange(4000.0)
        b = 2000.5 + np.arange(4000.0) / 10.0  # dense from 2000.5: F_a - F_b peaks at 2000 alone
        checkpoints = np.concatenate([a[:: style._KS_STEP], b[:: style._KS_STEP], [a[-1], b[-1]]])
        assert 2000.0 not in checkpoints
        runs = _record_runs(monkeypatch)
        want = ks_eight_search_oracle(a, b)
        assert want == 2001 / 4000
        assert ks_statistic(a, b) == want
        assert 0 < sum(runs) < a.size + b.size  # refined, and pruned

    @pytest.mark.parametrize("n_other", [1, 1000, 100_000])
    def test_one_value_pool(self, n_other):
        rng = np.random.default_rng(34)
        other = np.round(rng.normal(0.0, 2.0, size=n_other), 1)  # ties, some equal to the one value
        for value in (float(other.min()), 0.0, float(other.max()), 9.0):
            one = np.array([value])
            want = ks_eight_search_oracle(one, other)
            if n_other <= 1000:  # the brute force is quadratic
                assert want == ks_brute_force(one, other)
            assert ks_statistic(one, other) == ks_statistic(other, one) == want

    def test_float32_against_float64(self):
        rng = np.random.default_rng(35)
        a32 = np.round(rng.normal(0.0, 1.0, size=3000), 2).astype(np.float32)  # ties
        b32 = rng.normal(0.2, 1.3, size=2000).astype(np.float32)
        b64 = rng.normal(0.2, 1.3, size=2000)
        for b in (b32, b64):
            want = ks_eight_search_oracle(a32.astype(np.float64), b)
            assert ks_statistic(a32, b) == ks_statistic(b, a32) == want
            # histogram_report's path: pools sorted as float32 are searched as they are
            assert style._ks_sorted(np.sort(a32), np.sort(b)) == style._ks_sorted(np.sort(b), np.sort(a32)) == want

    @pytest.mark.parametrize(
        "a, b", [([np.nan], [1.0]), ([np.nan, 0.0], [np.nan, 0.0]), ([0.0, 1.0], [2.0, np.nan])]
    )
    def test_nan_rejected(self, a, b):
        with pytest.raises(InvalidParameterError, match="NaN"):
            ks_statistic(np.array(a), np.array(b))


class TestHistogramReport:
    def test_constant_group_single_bin(self):
        vol = ScalarVolume(np.full((4, 4, 4), 9.0, dtype=np.float32))
        report = histogram_report({"only": [vol]}, bins=16)
        dens = report.densities["only"]
        assert dens[0] == 1.0
        assert dens[1:].sum() == 0.0

    def test_identical_groups_ks_zero(self):
        rng = np.random.default_rng(29)
        vol = _normal_volume(rng, 50, 5)
        report = histogram_report({"a": [vol], "b": [vol]}, bins=32)
        assert report.ks[("a", "b")] == 0.0

    def test_ks_equals_statistic_on_shuffled_pools_and_oracle(self):
        rng = np.random.default_rng(32)
        rounded = ScalarVolume(np.round(rng.normal(120, 20, size=(16, 16, 16))).astype(np.float32))  # ties
        groups = {"a": [_normal_volume(rng, 100, 10), rounded], "b": [rounded, _normal_volume(rng, 130, 25)]}
        report = histogram_report(groups, bins=16)
        pools = {tag: np.concatenate([v.data.ravel() for v in vols]).astype(np.float64) for tag, vols in groups.items()}
        want = ks_eight_search_oracle(pools["a"], pools["b"])
        assert 0.0 < want < 1.0
        assert report.ks[("a", "b")] == ks_statistic(rng.permutation(pools["a"]), rng.permutation(pools["b"])) == want

    def test_zero_range_end_prints_as_positive_zero(self):
        # -0.0 == 0.0, so which of them a sort leaves at a pool's end depends on the sort and the layout
        for values in ([-0.0, 0.0, 1.0, 2.0], [0.0, -0.0, 1.0, 2.0], [-2.0, -1.0, -0.0, 0.0], [-2.0, -1.0, 0.0, -0.0]):
            for n in (2, 8, 20):
                vol = ScalarVolume(np.resize(np.array(values, dtype=np.float32), (n, n, n)))
                lines = histogram_report({"v": [vol]}, bins=4).to_text().splitlines()
                assert "range_min = -0.0" not in lines and "range_max = -0.0" not in lines, (values, n)

    def test_densities_sum_to_one(self):
        rng = np.random.default_rng(30)
        groups = {"x": [_normal_volume(rng, 100, 10)], "y": [_normal_volume(rng, 150, 30)]}
        report = histogram_report(groups, bins=24)
        for dens in report.densities.values():
            assert float(dens.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_densities_equal_np_histogram(self):
        # values on interior edges and at the global maximum (counted by the closed last bin),
        # in two groups with different ranges
        x = np.arange(0.0, 17.0).reshape(17, 1, 1)  # range [0, 16]: on every edge of 8 bins
        y = np.array([4.0, 4.0, 6.0, 7.5, 10.0, 16.0]).reshape(6, 1, 1)
        rng = np.random.default_rng(32)
        z = np.round(rng.uniform(2.0, 12.0, size=(9, 9, 3)))  # with y: range [2, 16]
        report = histogram_report({"x": [ScalarVolume(x)], "yz": [ScalarVolume(y), ScalarVolume(z)]}, bins=8)
        assert (report.range_min, report.range_max) == (0.0, 16.0)
        edges = np.linspace(report.range_min, report.range_max, report.bins + 1)
        for tag, pool in {"x": x, "yz": np.concatenate([y.ravel(), z.ravel()])}.items():
            want = np.histogram(pool.ravel().astype(np.float64), edges)[0] / pool.size
            assert report.densities[tag].tolist() == want.tolist()

    def test_text_format(self):
        rng = np.random.default_rng(31)
        groups = {"x": [_normal_volume(rng, 100, 10)], "y": [_normal_volume(rng, 150, 30)]}
        text = histogram_report(groups, bins=4).to_text()
        lines = text.splitlines()
        assert lines[0] == "bins = 4"
        assert sum(1 for l in lines if l.startswith("hist x ")) == 4
        assert sum(1 for l in lines if l.startswith("ks x y ")) == 1
        assert "np.float" not in text  # plain parseable floats only
        for line in lines:
            if line.startswith("hist "):
                tag, b, left, right, density = line.split()[1:]
                assert float(right) > float(left)
                assert 0.0 <= float(density) <= 1.0

    def test_empty_group_rejected(self):
        with pytest.raises(InvalidParameterError):
            histogram_report({"a": []}, bins=8)

    def test_too_few_bins_rejected(self):
        vol = ScalarVolume(np.zeros((2, 2, 2)))
        with pytest.raises(InvalidParameterError):
            histogram_report({"a": [vol]}, bins=1)

    def test_bins_bounded_above_before_any_allocation(self):
        vol = ScalarVolume(np.zeros((2, 2, 2)))
        assert histogram_report({"a": [vol]}, bins=MAX_BINS).bins == MAX_BINS
        for bins in (MAX_BINS + 1, 10**12):  # 10**12 edges would not fit in memory: the check comes first
            with pytest.raises(InvalidParameterError, match=str(MAX_BINS)):
                histogram_report({"a": [vol]}, bins=bins)

    @pytest.mark.parametrize("tag", ["GE Medical", "", "B x", "tab\there", " lead", "trail\n"])
    def test_tag_that_would_not_split_back_rejected(self, tag):
        vol = ScalarVolume(np.arange(8, dtype=np.float32).reshape(2, 2, 2))
        with pytest.raises(InvalidParameterError) as excinfo:
            histogram_report({"A": [vol], tag: [vol]}, bins=4)
        assert repr(tag) in str(excinfo.value)
