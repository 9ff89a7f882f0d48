"""Dataset builder: counts, labels, determinism, resume."""

import dataclasses
import hashlib
import os
import shutil

import numpy as np
import pytest

from painforge.errors import ConfigError, DataError, GeometryError
from painforge.facesynth import dataset
from painforge.facesynth.au import AUVector, pspi_score
from painforge.facesynth.dataset import (DatasetSpec, build_dataset,
                                         demographic_summary, load_model_inputs)
from painforge.fileio import file_sha256, load_tensor, read_manifest, save_tensor
from painforge.model import ModelConfig


SPEC = DatasetSpec(identities=3, expressions_per_identity=2, views=(-30.0, 0.0, 30.0),
                   resolution=32, seed=11)


def _file_digests(out):
    """Every file of a build, by path relative to its root."""
    return {str(p.relative_to(out)): file_sha256(p)
            for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    manifest = build_dataset(SPEC, out)
    return out, manifest, read_manifest(manifest)


class TestCounts:
    def test_frame_and_heatmap_totals(self, built):
        out, _, rows = built
        assert len(rows) == SPEC.frames_total == 3 * (2 + 1) * 3
        heatmaps = {r["heatmap_path"] for r in rows if r["heatmap_path"]}
        assert len(heatmaps) == SPEC.heatmaps_total == 3 * 2
        assert len(list((out / "frames").iterdir())) == SPEC.frames_total
        assert len(list((out / "heatmaps").iterdir())) == SPEC.heatmaps_total

    def test_minimal_spec_counts(self, tmp_path):
        spec = DatasetSpec(identities=1, expressions_per_identity=1, views=(0.0,),
                           resolution=32, seed=0)
        rows = read_manifest(build_dataset(spec, tmp_path))
        assert len(rows) == 2
        assert sum(1 for r in rows if r["heatmap_path"]) == 1


class TestRowInvariants:
    def test_pspi_matches_score_of_au(self, built):
        _, _, rows = built
        for row in rows:
            assert row["pspi"] == pspi_score(AUVector.from_array(np.array(row["au"])))

    def test_neutral_rows_zero_au_no_heatmap(self, built):
        _, _, rows = built
        neutrals = [r for r in rows if r["expression_id"] is None]
        assert len(neutrals) == 3 * 3
        for r in neutrals:
            assert r["pspi"] == 0
            assert not any(r["au"])
            assert r["heatmap_path"] is None

    def test_heatmap_zero_iff_au_zero(self, built):
        out, _, rows = built
        for r in rows:
            if r["heatmap_path"] is None:
                continue
            heat = load_tensor(out / r["heatmap_path"])
            if any(r["au"]):
                assert heat.max() > 0
            else:
                assert np.all(heat == 0)

    def test_views_and_yaws(self, built):
        _, _, rows = built
        yaws = sorted({r["camera_yaw"] for r in rows})
        assert yaws == [-30.0, 0.0, 30.0]

    def test_demographic_summary_totals(self, built):
        _, _, rows = built
        summary = demographic_summary(rows)
        assert summary["total"] == 3
        assert sum(summary["age"].values()) == 3

    def test_rgb_loads_in_unit_range(self, built):
        out, _, rows = built
        img = load_tensor(out / rows[0]["rgb_path"])
        assert img.shape == (32, 32, 3)
        assert img.min() >= 0.0 and img.max() <= 1.0


class TestModelInputs:
    @pytest.mark.parametrize("channels", [3, 1])
    def test_inputs_equal_the_stacked_images(self, built, channels):
        out, _, rows = built
        config = ModelConfig(image_size=32, in_channels=channels)
        inputs = load_model_inputs(out, rows, config)[0]
        if channels == 3:
            oracle = np.stack([load_tensor(out / r["rgb_path"]) for r in rows])
        else:
            first = {}
            for r in rows:
                if r["heatmap_path"]:
                    first.setdefault((r["identity_id"], r["expression_id"]), r)
            oracle = np.stack([load_tensor(out / r["heatmap_path"])[..., None]
                               for r in first.values()])
        oracle = oracle.astype(np.float32)  # the files' own dtype, stacked as is
        assert inputs.dtype == oracle.dtype and inputs.shape == oracle.shape
        assert inputs.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("channels", [3, 1])
    def test_later_file_of_another_dtype_is_a_data_error(self, built, tmp_path,
                                                         channels):
        out, _, rows = built
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        key = "rgb_path" if channels == 3 else "heatmap_path"
        victim = [r[key] for r in rows if r[key]][-1]
        save_tensor(copy / victim, load_tensor(copy / victim).astype(np.float64))
        with pytest.raises(DataError, match=f"{victim}: float64"):
            load_model_inputs(copy, rows, ModelConfig(image_size=32,
                                                      in_channels=channels))

    def test_frame_of_another_shape_is_a_data_error(self, built, tmp_path):
        out, _, rows = built
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        save_tensor(copy / rows[4]["rgb_path"], np.zeros((16, 16, 3), np.float32))
        with pytest.raises(DataError, match=rows[4]["rgb_path"]):
            load_model_inputs(copy, rows, ModelConfig(image_size=32))


class TestDeterminism:
    def test_rebuild_is_byte_identical(self, built, tmp_path):
        out_a, manifest_a, rows = built
        manifest_b = build_dataset(SPEC, tmp_path)
        assert file_sha256(manifest_a) == file_sha256(manifest_b)
        for row in rows:
            assert file_sha256(out_a / row["rgb_path"]) == \
                file_sha256(tmp_path / row["rgb_path"])
        for row in rows:
            if row["heatmap_path"]:
                assert file_sha256(out_a / row["heatmap_path"]) == \
                    file_sha256(tmp_path / row["heatmap_path"])

    def test_resume_on_complete_run_is_identical(self, built):
        out, manifest, _ = built
        before = file_sha256(manifest)
        build_dataset(SPEC, out, resume=True)
        assert file_sha256(manifest) == before

    def test_resume_repairs_missing_files(self, built):
        out, manifest, rows = built
        rigged = [r for r in rows if r["expression_id"] is not None]
        # a neutral frame, a rigged frame and a heatmap, of different identities
        victims = [out / rows[0]["rgb_path"], out / rigged[-1]["rgb_path"],
                   out / next(r["heatmap_path"] for r in rigged
                              if r["identity_id"] == 1)]
        originals = [file_sha256(v) for v in victims + [manifest]]
        for victim in victims:
            victim.unlink()
        build_dataset(SPEC, out, resume=True)
        assert [file_sha256(v) for v in victims + [manifest]] == originals

    def test_resume_rerenders_damaged_files(self, built):
        out, manifest, rows = built
        # a truncated frame and a heatmap of the wrong shape, of different identities
        frame = out / rows[0]["rgb_path"]
        heatmap = out / next(r["heatmap_path"] for r in rows
                             if r["heatmap_path"] and r["identity_id"] == 1)
        originals = [file_sha256(v) for v in (frame, heatmap, manifest)]
        raw = frame.read_bytes()
        frame.write_bytes(raw[:len(raw) // 2])
        save_tensor(heatmap, np.zeros((16, 16), np.float32))
        build_dataset(SPEC, out, resume=True)
        assert [file_sha256(v) for v in (frame, heatmap, manifest)] == originals

    def test_resume_over_another_seed_matches_a_fresh_build(self, tmp_path):
        # The files of seed 0 have the names and shapes of seed 1's, so only
        # the spec record tells the resume not to trust them.
        seed_1 = dataclasses.replace(SPEC, seed=1)
        build_dataset(dataclasses.replace(SPEC, seed=0), tmp_path / "reused")
        build_dataset(seed_1, tmp_path / "reused", resume=True)
        build_dataset(seed_1, tmp_path / "fresh")
        assert _file_digests(tmp_path / "reused") == _file_digests(tmp_path / "fresh")

    def test_untrusted_build_deletes_every_manifest_in_its_root(self, tmp_path):
        # A split manifest copied from the old build names frames the new
        # build deletes, so it must not outlive them.
        spec = DatasetSpec(identities=1, expressions_per_identity=1, views=(0.0,),
                           resolution=16, seed=0)
        manifest = build_dataset(spec, tmp_path)
        shutil.copy(manifest, tmp_path / "manifest_train.jsonl")
        build_dataset(dataclasses.replace(spec, seed=1), tmp_path, resume=True)
        assert [p.name for p in tmp_path.glob("*.jsonl")] == ["manifest.jsonl"]

    def test_resume_after_a_crash_renders_only_the_rest(self, tmp_path, monkeypatch):
        build_dataset(SPEC, tmp_path / "fresh")
        monkeypatch.setenv("PAINFORGE_THREADS", "1")
        render, rendered = dataset._render_identity, []

        def crash_at_identity_2(spec, profile, plan, rows, out_dir):
            if rows[0]["identity_id"] == 2:
                raise GeometryError("injected fault in identity 2")
            render(spec, profile, plan, rows, out_dir)

        def recording(spec, profile, plan, rows, out_dir):
            rendered.append(rows[0]["identity_id"])
            render(spec, profile, plan, rows, out_dir)

        monkeypatch.setattr(dataset, "_render_identity", crash_at_identity_2)
        with pytest.raises(GeometryError):
            build_dataset(SPEC, tmp_path / "crashed")
        monkeypatch.setattr(dataset, "_render_identity", recording)
        build_dataset(SPEC, tmp_path / "crashed", resume=True)
        assert rendered == [2]
        assert _file_digests(tmp_path / "crashed") == _file_digests(tmp_path / "fresh")

    def test_different_seed_changes_expressions(self, built, tmp_path):
        _, _, rows_a = built
        spec_b = dataclasses.replace(SPEC, seed=12)
        rows_b = read_manifest(build_dataset(spec_b, tmp_path))
        aus_a = [tuple(r["au"]) for r in rows_a if r["expression_id"] is not None]
        aus_b = [tuple(r["au"]) for r in rows_b if r["expression_id"] is not None]
        assert aus_a != aus_b

    def test_pinned_generation_bytes(self, tmp_path):
        # Reruns of one version are compared above; this digest pins the
        # bytes themselves, so a deterministic change in rendering (or in
        # labels, file layout or the tensor format) shows here.
        spec = DatasetSpec(identities=2, expressions_per_identity=2,
                           views=(-90.0, -30.0, 0.0, 30.0, 90.0), resolution=32,
                           seed=2024)
        manifest = build_dataset(spec, tmp_path)
        digest = hashlib.sha256(manifest.read_bytes())
        for row in read_manifest(manifest):
            for key in ("rgb_path", "heatmap_path"):
                if row[key]:
                    digest.update((tmp_path / row[key]).read_bytes())
        assert digest.hexdigest() == \
            "2d0f8372f9641fc439a9a6d98efb4688cc0e22d7ca6df29fb30097daa19d1417"


class TestSpecValidation:
    def test_bad_distribution(self):
        with pytest.raises(ConfigError):
            DatasetSpec(pspi_distribution=tuple([0.5] * 17))

    def test_bad_counts(self):
        with pytest.raises(ConfigError):
            DatasetSpec(identities=0)

    @pytest.mark.parametrize("resolution", [0, -4])
    def test_bad_resolution(self, resolution):
        with pytest.raises(ConfigError):
            DatasetSpec(resolution=resolution)

    def test_unwritable_out_dir(self, tmp_path):
        from painforge.errors import DataError
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        spec = DatasetSpec(identities=1, expressions_per_identity=1,
                           views=(0.0,), resolution=32, seed=0)
        with pytest.raises(DataError):
            build_dataset(spec, blocker / "sub")

    def test_non_integer_threads_env_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PAINFORGE_THREADS", "abc")
        spec = DatasetSpec(identities=1, expressions_per_identity=1,
                           views=(0.0,), resolution=8, seed=0)
        with pytest.raises(ConfigError, match="PAINFORGE_THREADS.*'abc'"):
            build_dataset(spec, tmp_path)

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_nonpositive_threads_env_rejected(self, tmp_path, monkeypatch, raw):
        monkeypatch.setenv("PAINFORGE_THREADS", raw)
        spec = DatasetSpec(identities=1, expressions_per_identity=1,
                           views=(0.0,), resolution=8, seed=0)
        with pytest.raises(ConfigError, match=f"PAINFORGE_THREADS.*got {raw}$"):
            build_dataset(spec, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_workers_parallel_build_matches_serial(self, tmp_path, monkeypatch):
        spec = DatasetSpec(identities=4, expressions_per_identity=1, views=(0.0,),
                           resolution=32, seed=5)
        serial = tmp_path / "serial"
        monkeypatch.setenv("PAINFORGE_THREADS", "1")
        m1 = build_dataset(spec, serial)
        rows = read_manifest(m1)
        files = [r[k] for r in rows for k in ("rgb_path", "heatmap_path") if r[k]]
        assert sum(1 for r in rows if r["heatmap_path"]) == 4
        # two workers asked for, then the default on a host of two CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        for name, threads in (("two", "2"), ("default", None)):
            if threads is None:
                monkeypatch.delenv("PAINFORGE_THREADS")
            else:
                monkeypatch.setenv("PAINFORGE_THREADS", threads)
            parallel = tmp_path / name
            m2 = build_dataset(spec, parallel)
            assert file_sha256(m1) == file_sha256(m2)
            for path in files:
                assert file_sha256(serial / path) == file_sha256(parallel / path)


class _RecordingExecutor:
    """Stands in for the process pool: records ``max_workers``, maps in-process."""

    def __init__(self, built, max_workers):
        built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


class TestWorkerCount:
    SMALL = DatasetSpec(identities=3, expressions_per_identity=1, views=(0.0,),
                        resolution=8, seed=3)

    @pytest.fixture()
    def executors(self, monkeypatch):
        built = []
        monkeypatch.setattr(dataset, "ProcessPoolExecutor",
                            lambda max_workers: _RecordingExecutor(built, max_workers))
        monkeypatch.delenv("PAINFORGE_THREADS", raising=False)
        return built

    @pytest.mark.parametrize("threads, cpus, identities, expected", [
        ("64", None, 3, [3]),   # never more workers than identities
        (None, 8, 2, [2]),      # the default: CPUs this process may use, capped
        (None, 2, 3, [2]),
        (None, 1, 3, []),       # one CPU renders in-process
        ("64", None, 1, []),    # one identity renders in-process
    ])
    def test_workers_capped_at_pending_identities(
            self, executors, monkeypatch, tmp_path, threads, cpus, identities,
            expected):
        if threads is not None:
            monkeypatch.setenv("PAINFORGE_THREADS", threads)
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
        spec = DatasetSpec(identities=identities, expressions_per_identity=1,
                           views=(0.0,), resolution=8, seed=3)
        build_dataset(spec, tmp_path)
        assert executors == expected

    def test_cpu_count_where_affinity_is_unknown(self, executors, monkeypatch,
                                                 tmp_path):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        build_dataset(self.SMALL, tmp_path)
        assert executors == [2]

    def test_resume_with_one_identity_pending_builds_no_pool(
            self, executors, monkeypatch, tmp_path):
        monkeypatch.setenv("PAINFORGE_THREADS", "1")
        manifest = build_dataset(self.SMALL, tmp_path)
        rows = read_manifest(manifest)
        victim = tmp_path / next(r["rgb_path"] for r in rows if r["identity_id"] == 2)
        original = file_sha256(victim)
        victim.unlink()
        monkeypatch.setenv("PAINFORGE_THREADS", "64")
        build_dataset(self.SMALL, tmp_path, resume=True)
        assert executors == []
        assert file_sha256(victim) == original


def test_worker_failure_is_a_typed_error(identity_one_fails, tmp_path):
    with pytest.raises(identity_one_fails) as exc:
        build_dataset(TestWorkerCount.SMALL, tmp_path / "out")
    if identity_one_fails is DataError:
        assert str(tmp_path / "out") in str(exc.value)
