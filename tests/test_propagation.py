"""Warp-norm template selection and per-frame pseudo-label emission."""

import dataclasses
import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from cineprop import cli, propagation, registration, volume
from cineprop.errors import DegenerateInputError, InvalidParameterError, SeriesPropagationError
from cineprop.metrics import dice
from cineprop.phantom import PhantomSpec, generate_cine
from cineprop.propagation import (
    PropagationResult,
    Template,
    field_norm,
    propagate_frame,
    propagate_series,
)
from cineprop.registration import DisplacementField, RegistrationParams
from cineprop.volume import CineSeries, LabelMap, ScalarVolume
from helpers import convolve1d_pad_oracle, phantom_frame, thick_slice_series, write_cine_dir

TINY_SPEC = PhantomSpec(
    dims=(20, 20, 20),
    lv_radius_es=5.0,
    lv_radius_ed=4.2,
    myo_thickness=2.0,
    rv_offset=(-6.0, 0.0, 0.0),
    rv_radius=3.0,
    frames=4,
    es_index=0,
    ed_index=3,
)

FAST = RegistrationParams(pyramid_levels=2, iterations_per_level=(30, 20))


@pytest.fixture(scope="module")
def tiny_cine():
    return generate_cine(TINY_SPEC)


@pytest.fixture(scope="module")
def series_results(tiny_cine):
    return propagate_series(tiny_cine.series, FAST, workers=1)


class TestFieldNorm:
    def test_zero_field(self):
        field = DisplacementField(np.zeros((3, 5, 6, 4)), (1, 1, 1))
        assert field_norm(field) == 0.0

    def test_uniform_field_closed_form(self):
        u = np.zeros((3, 5, 6, 4))
        u[0] = 3.0
        u[1] = 4.0
        assert field_norm(DisplacementField(u, (1, 1, 1))) == pytest.approx(5.0, abs=1e-12)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(0)
        u = rng.normal(0, 2, size=(3, 5, 6, 4))
        field = DisplacementField(u, (1, 1, 1))
        total = 0.0
        for i in range(5):
            for j in range(6):
                for k in range(4):
                    total += float(np.sqrt(u[:, i, j, k] @ u[:, i, j, k]))
        assert field_norm(field) == pytest.approx(total / 120, abs=1e-12)


class TestCandidateInvariants:
    def test_result_checks_selection(self):
        lab = LabelMap(np.zeros((2, 2, 2), dtype=np.uint8))
        for es_norm, ed_norm, chosen in ((0.5, 0.5, Template.ES), (0.4, 0.5, Template.ES), (2.0, 0.5, Template.ED)):
            assert PropagationResult(1, lab, es_norm, ed_norm).chosen_template is chosen


class TestPropagateFrame:
    def test_template_frame_rejected(self, tiny_cine):
        with pytest.raises(InvalidParameterError, match="template frame"):
            propagate_frame(tiny_cine.series, 0, FAST)
        with pytest.raises(InvalidParameterError, match="template frame"):
            propagate_frame(tiny_cine.series, 3, FAST)

    def test_out_of_range_rejected(self, tiny_cine):
        with pytest.raises(InvalidParameterError):
            propagate_frame(tiny_cine.series, 9, FAST)

    def test_duplicated_es_frame_chooses_es(self, tiny_cine):
        frames = list(tiny_cine.series.frames)
        frames[2] = frames[0]  # exact ES duplicate as an unlabeled frame
        series = CineSeries(
            frames=tuple(frames),
            es_index=0,
            ed_index=3,
            es_label=tiny_cine.series.es_label,
            ed_label=tiny_cine.series.ed_label,
        )
        res = propagate_frame(series, 2, FAST)
        assert res.chosen_template is Template.ES
        assert res.es_norm < 0.05 * res.ed_norm
        agreement = float(np.mean(res.pseudo_label.data == series.es_label.data))
        assert agreement >= 0.99

    def test_exact_tie_chooses_es(self, tiny_cine):
        # identical template content on both sides makes the norms exactly equal
        es_frame = tiny_cine.series.frames[0]
        target = tiny_cine.series.frames[1]
        series = CineSeries(
            frames=(es_frame, target, es_frame),
            es_index=0,
            ed_index=2,
            es_label=tiny_cine.series.es_label,
            ed_label=tiny_cine.series.es_label,
        )
        res = propagate_frame(series, 1, FAST)
        assert res.es_norm == res.ed_norm
        assert res.chosen_template is Template.ES

    def test_deterministic_against_series_run(self, tiny_cine, series_results):
        res = propagate_frame(tiny_cine.series, 1, FAST)
        ref = series_results[0]
        assert res.chosen_template is ref.chosen_template
        assert res.es_norm == pytest.approx(ref.es_norm, abs=1e-6)
        assert res.ed_norm == pytest.approx(ref.ed_norm, abs=1e-6)
        assert np.array_equal(res.pseudo_label.data, ref.pseudo_label.data)


class TestPropagateSeries:
    def test_cardinality_and_order(self, series_results):
        assert [r.frame_index for r in series_results] == [1, 2]

    def test_selection_invariant(self, tiny_cine, series_results):
        for res in series_results:
            assert (res.chosen_template is Template.ES) == (res.es_norm <= res.ed_norm)
            labels = set(np.unique(res.pseudo_label.data))
            template_label = (
                tiny_cine.series.es_label if res.chosen_template is Template.ES else tiny_cine.series.ed_label
            )
            assert labels <= set(np.unique(template_label.data))

    def test_identical_frames_degenerate_series(self):
        vol, lab = phantom_frame(TINY_SPEC, 0)
        series = CineSeries(frames=(vol, vol, vol, vol), es_index=0, ed_index=3, es_label=lab, ed_label=lab)
        results = propagate_series(series, FAST)
        assert len(results) == 2
        for res in results:
            assert res.es_norm < 0.05
            assert res.ed_norm < 0.05
            assert dice(res.pseudo_label, lab, 1) == 1.0

    def test_pyramids_built_once_per_volume(self, monkeypatch):
        # fresh frames: the shared fixture's volumes may already hold their cached halves
        calls = []
        original = volume.downsample2x

        def counting(vol):
            calls.append(vol.dims)
            return original(vol)

        monkeypatch.setattr(volume, "downsample2x", counting)
        params = RegistrationParams(pyramid_levels=2, iterations_per_level=(2, 2))
        results = propagate_series(generate_cine(TINY_SPEC).series, params, workers=1)
        assert [r.frame_index for r in results] == [1, 2]
        # one half per target and per template, plus one per deformable stage's
        # affine-resampled moving image (2 templates x 2 targets): 2 + 2 + 4
        assert calls == [(20, 20, 20)] * 8

    def test_full_resolution_samples_per_frame(self, monkeypatch):
        # 40x40x32 voxels, above registration._MAX_OBJECTIVE_SAMPLES: the objectives stride, so every full-grid
        # sample is a stage's own.  Per template, rigid samples its result (the identity, on the target's own
        # grid, takes the moving image's voxels); affine only its result, starting from rigid's _Stage; deformable
        # none, its affine-resampled image and its fallback's score being affine's sample and score.
        spec = dataclasses.replace(
            TINY_SPEC,
            dims=(40, 40, 32),
            lv_radius_es=8.0,
            lv_radius_ed=6.5,
            myo_thickness=3.0,
            rv_offset=(-9.0, 0.0, 0.0),
            rv_radius=5.0,
            frames=3,
            ed_index=2,
            noise_sigma=5.0,
            seed=3,
        )
        series = generate_cine(spec).series
        sizes = []
        sample_affine = registration._sample_affine

        def counting(moving, transform, grid):
            sizes.append(np.broadcast(*grid).size)
            return sample_affine(moving, transform, grid)

        monkeypatch.setattr(registration, "_sample_affine", counting)
        propagate_frame(series, 1, RegistrationParams(pyramid_levels=3, iterations_per_level=(2, 2, 2)))
        assert sizes.count(40 * 40 * 32) == 2 * 2

    def test_linear_objective_evaluations_per_frame(self, monkeypatch):
        # every rigid/affine objective value of one frame: each level's start value plus every line-search
        # candidate, over 2 templates x 2 stages x 3 levels of 5 iterations.  Searches that halve down to a
        # tiny step, instead of interpolating and stopping at 1/64 voxel or degree, raise this count.
        calls = []
        level_objective = registration._level_objective

        def counting(*args):
            objective, gradient = level_objective(*args)

            def counted(theta):
                calls.append(1)
                return objective(theta)

            return counted, gradient

        monkeypatch.setattr(registration, "_level_objective", counting)
        propagate_frame(thick_slice_series(), 1, RegistrationParams(pyramid_levels=3, iterations_per_level=(5, 5, 5)))
        assert len(calls) == 77

    def test_demons_target_data_built_once_per_frame(self, monkeypatch):
        # the demons gradient images of the target (_gradient_images with the level spacing): one per pyramid
        # level and frame, shared by ES and ED, not one per template: 2 frames x 3 levels
        calls = []
        gradient_images = registration._gradient_images

        def counting(data, *spacing):
            if spacing:  # the rigid/affine objectives take their moving gradients in voxel units
                calls.append(data.shape)
            return gradient_images(data, *spacing)

        monkeypatch.setattr(registration, "_gradient_images", counting)
        params = RegistrationParams(pyramid_levels=3, iterations_per_level=(1, 1, 1))
        assert [r.frame_index for r in propagate_series(thick_slice_series(), params, workers=1)] == [1, 2]
        assert calls == [(8, 8, 2), (16, 16, 3), (32, 32, 6)] * 2

    @pytest.mark.parametrize("exponent", [66, -66])
    def test_intensity_scale_changes_nothing(self, exponent):
        # float32 squares overflow above about 1.8e19, and the demons update's absolute 1e-12 floor would
        # stop every update of a dim series: a power-of-two intensity scale must change no byte and no norm
        series = thick_slice_series()
        factor = np.float32(2.0**exponent)
        scaled = dataclasses.replace(series, frames=[ScalarVolume(f.data * factor, f.spacing) for f in series.frames])
        params = RegistrationParams(pyramid_levels=3, iterations_per_level=(5, 5, 5))
        for target in (1, 2):
            want, got = propagate_frame(series, target, params), propagate_frame(scaled, target, params)
            assert got.pseudo_label.data.tobytes() == want.pseudo_label.data.tobytes()
            assert (got.es_norm, got.ed_norm) == (want.es_norm, want.ed_norm)

    def test_workers_do_not_change_results(self, tiny_cine, series_results):
        par = propagate_series(tiny_cine.series, FAST, workers=3)
        assert len(par) == len(series_results)
        for a, b in zip(series_results, par):
            assert a.frame_index == b.frame_index
            assert a.chosen_template is b.chosen_template
            assert a.es_norm == b.es_norm
            assert a.ed_norm == b.ed_norm
            assert np.array_equal(a.pseudo_label.data, b.pseudo_label.data)
            assert not b.pseudo_label.data.flags.writeable
        assert multiprocessing.active_children() == []

    def test_more_workers_than_frames(self, tiny_cine, series_results):
        # frame 1 between the same two templates is the only target: the work is sized to one process
        frames = tuple(tiny_cine.series.frames[i] for i in (0, 1, 3))
        (alone,) = propagate_series(dataclasses.replace(tiny_cine.series, frames=frames, ed_index=2), FAST, workers=2)
        ref = series_results[0]
        assert alone.frame_index == ref.frame_index == 1
        assert (alone.chosen_template, alone.es_norm, alone.ed_norm) == (ref.chosen_template, ref.es_norm, ref.ed_norm)
        assert np.array_equal(alone.pseudo_label.data, ref.pseudo_label.data)
        assert multiprocessing.active_children() == []

    def test_bad_worker_count(self, tiny_cine):
        with pytest.raises(InvalidParameterError):
            propagate_series(tiny_cine.series, FAST, workers=0)

    def test_five_voxel_series_propagates(self, tiny_cine):
        # the field smoothing's radius, 5 voxels, reaches past every edge of a 5x5x4 crop through RV, MYO and LV
        crop = (slice(3, 8), slice(8, 13), slice(8, 12))
        series = tiny_cine.series
        small = CineSeries(
            frames=[ScalarVolume(f.data[crop], f.spacing) for f in series.frames],
            es_index=series.es_index,
            ed_index=series.ed_index,
            es_label=LabelMap(series.es_label.data[crop], series.es_label.spacing),
            ed_label=LabelMap(series.ed_label.data[crop], series.ed_label.spacing),
        )
        results = propagate_series(small)
        assert [r.frame_index for r in results] == [1, 2]
        assert all(r.pseudo_label.dims == (5, 5, 4) for r in results)


class TestWorkerFailures:
    """Frames run in forked workers, which inherit a ``propagate_frame`` patched here."""

    SPEC = dataclasses.replace(TINY_SPEC, frames=6, ed_index=5, noise_sigma=4.0)  # targets 1-4

    @pytest.fixture
    def cine_dir(self, tmp_path):
        mpath, cine = write_cine_dir(tmp_path / "cine", self.SPEC)
        return mpath, cine.series

    @pytest.fixture(autouse=True)
    def no_hang(self):
        def timed_out(signum, frame):
            raise TimeoutError("propagate_series did not return")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(120)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    @staticmethod
    def quick_result(series, target):
        return PropagationResult(target, series.es_label, 0.0, 1.0)

    def test_failure_stays_with_its_frame(self, cine_dir, tmp_path, monkeypatch):
        mpath, series = cine_dir

        def fake(series, target, params=None):
            if target == 2:
                raise DegenerateInputError("frame 2 is constant")
            return self.quick_result(series, target)

        monkeypatch.setattr(propagation, "propagate_frame", fake)
        with pytest.raises(SeriesPropagationError) as info:
            propagate_series(series, FAST, workers=2)
        ((frame, exc),) = info.value.failures
        assert frame == 2
        assert [res.frame_index for res in info.value.results] == [1, 3, 4]
        assert type(exc) is DegenerateInputError
        assert str(exc) == "frame 2 is constant"
        argv = ["propagate", "--manifest", str(mpath), "--out", str(tmp_path / "out"), "--workers", "2"]
        assert cli.run(argv) == cli.EXIT_DEGENERATE

    def test_dead_worker_fails_the_frames_left(self, cine_dir, tmp_path, monkeypatch):
        mpath, series = cine_dir
        test_pid = os.getpid()

        def fake(series, target, params=None):
            if target == 2 and os.getpid() != test_pid:
                os._exit(1)
            return self.quick_result(series, target)

        monkeypatch.setattr(propagation, "propagate_frame", fake)
        with pytest.raises(SeriesPropagationError) as info:
            propagate_series(series, FAST, workers=2)
        frames = [frame for frame, _ in info.value.failures]
        assert 2 in frames
        assert frames == sorted(set(frames)) and set(frames) <= {1, 2, 3, 4}
        assert all(isinstance(exc, BrokenProcessPool) for _, exc in info.value.failures)
        argv = ["propagate", "--manifest", str(mpath), "--out", str(tmp_path / "out"), "--workers", "2"]
        assert cli.run(argv) == cli.EXIT_IO


class TestThickSliceSmoothingOracle:
    def test_frame_matches_pad_convolution(self, monkeypatch):
        """A thick-slice frame gives the same bytes with the replaced ``np.pad`` convolution patched in.

        Both runs share one process and one CPU, so the check holds whatever
        SIMD paths numpy takes.
        """
        series = thick_slice_series()
        params = RegistrationParams(pyramid_levels=3, iterations_per_level=(2, 2, 2))
        results = [propagate_frame(series, 1, params)]

        axes = []

        def oracle(arr, kernel, axis, offset=0):
            axes.append(axis)
            return convolve1d_pad_oracle(arr, kernel, axis, offset)

        monkeypatch.setattr(volume, "_convolve1d_replicate", oracle)
        results.append(propagate_frame(series, 1, params))
        assert 2 in axes  # the short through-plane axis was smoothed
        new, old = results
        assert new.pseudo_label.data.tobytes() == old.pseudo_label.data.tobytes()
        assert (new.chosen_template, new.es_norm, new.ed_norm) == (old.chosen_template, old.es_norm, old.ed_norm)
