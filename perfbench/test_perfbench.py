"""Tests of the benchmark's own arithmetic and tracing.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans as S  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_nested_and_back_to_back_children():
    spans = [
        _span("root", 0, 100, None),
        _span("a", 10, 40, 0),
        _span("a.inner", 15, 25, 1),
        _span("b", 40, 70, 0),        # starts exactly where "a" ends
        _span("c", 70, 71, 0),
    ]
    assert S.self_times(spans) == [100 - 61, 30 - 10, 10, 30, 1]


def test_self_time_merges_overlap_and_clips_to_parent():
    spans = [
        _span("root", 0, 100, None),
        _span("x", 10, 30, 0),
        _span("y", 20, 50, 0),        # overlaps x: covered is [10, 50]
        _span("z", 90, 120, 0),       # runs past the parent: only [90, 100]
    ]
    assert S.self_times(spans)[0] == 100 - 40 - 10


def test_self_times_sum_to_root_duration():
    spans = [_span("root", 0, 1000, None)]
    start = 5
    for i in range(20):
        spans.append(_span("leaf", start, start + 30, 0))
        spans.append(_span("leaf.child", start + 3, start + 9, len(spans) - 1))
        start += 40
    assert sum(S.self_times(spans)) == 1000


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in range(1, 2000):
        values = [float(v) for v in range(n, 0, -1)]  # distinct, unsorted
        q, value, count = S.tail_percentile(values)
        assert count == n
        if n <= 10:
            assert q is None and value is None
            continue
        assert sum(v > value for v in values) >= 10, n
        # The next whole percentile up would leave fewer than ten beyond it.
        if q < 99:
            assert n - math.ceil((q + 1) * n / 100) < 10, n


def test_median():
    assert S.median([3.0, 1.0, 2.0]) == 2.0
    assert S.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert S.median([]) == 0.0


def _fake_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) + mod.leaf(x)

    class Thing:
        def method(self, x):
            return mod.outer(x)

    mod.leaf, mod.outer, mod.Thing = leaf, outer, Thing
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    return mod


def test_tracer_records_parents_only_inside_a_root(monkeypatch):
    mod = _fake_module(monkeypatch)
    tracer = S.Tracer([("leaf", "perfbench_fake:leaf", None),
                       ("outer", "perfbench_fake:outer", lambda a, k: a[0]),
                       ("method", "perfbench_fake:Thing.method", None)])
    tracer.install()
    try:
        assert mod.Thing().method(1) == 4     # outside a root: not recorded
        assert tracer.spans == []
        with tracer.root("pass") as root:
            assert mod.Thing().method(2) == 6
    finally:
        tracer.uninstall()
    names = [s[S.NAME] for s in tracer.spans]
    assert names == ["pass", "method", "outer", "leaf", "leaf"]
    parents = [s[S.PARENT] for s in tracer.spans]
    assert parents == [None, root, 1, 2, 2]
    assert tracer.spans[2][S.INFO] == 2
    assert all(s[S.END] >= s[S.START] for s in tracer.spans)


def test_tracer_restores_every_wrapped_function():
    import workloads as W

    originals = []
    for _, target, _ in W.TRACE_TARGETS:
        owner, attr = S._resolve(target)
        originals.append((owner, attr, vars(owner)[attr]))
    tracer = S.Tracer(W.TRACE_TARGETS)
    tracer.install()
    try:
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original, f"{owner}.{attr} not wrapped"
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"


def test_trace_sees_calls_where_the_caller_looks_them_up():
    import workloads as W
    from painforge.facesynth import dataset
    from painforge.facesynth.demographics import DemographicProfile
    from painforge.facesynth.mesh import make_identity_mesh

    profile = DemographicProfile(age_group="Young", ethnicity="White",
                                 gender="Man", identity_seed=3)
    face = make_identity_mesh(profile)
    tracer = S.Tracer(W.TRACE_TARGETS)
    tracer.install()
    try:
        with tracer.root("pass"):
            dataset.render_rgb(face, profile, 0.0, 32)
    finally:
        tracer.uninstall()
    by_name = {s[S.NAME]: i for i, s in enumerate(tracer.spans)}
    render = by_name["facesynth.render_rgb"]
    for child in ("facesynth.skin_albedo", "facesynth.vertex_normals",
                  "facesynth.rasterize"):
        assert tracer.spans[by_name[child]][S.PARENT] == render
    self_ns = S.self_times(tracer.spans)
    assert sum(self_ns) == tracer.spans[0][S.END] - tracer.spans[0][S.START]


def test_layer_metrics_account_for_the_traced_pass():
    spans = [
        _span("pass", 0, 1000, None),
        _span("model.forward", 0, 400, 0),
        _span("model.patch_embed", 10, 110, 1),
        _span("tensor.backward", 400, 900, 0),
    ]
    spans[1][S.INFO] = (32, True)
    metrics, details = run._layer_metrics(spans, [0], [1e-6], [0.5e-6])
    self_total = sum(metrics[f"{n}.self_s"] for n in run.W.SPAN_NAMES)
    assert self_total + metrics["trace.unattributed_s"] == pytest.approx(1e-6)
    assert metrics["model.forward.images"] == 32
    assert metrics["tensor.backward.calls"] == 1
    assert metrics["trace.overhead_s"] == pytest.approx(0.5e-6)
    assert set(metrics) == set(run.PER_LAYER)


def test_attribution_splits_the_traced_pass():
    spans = [
        _span("pass", 0, 1000, None),
        _span("training", 0, 800, 0),
        _span("model.forward", 100, 500, 1),
        _span("tensor.backward", 500, 700, 1),
    ]
    spans[2][S.INFO] = (32, True)
    metrics, _ = run._layer_metrics(spans, [0], [1e-6], [0.9e-6, 0.9e-6])
    att = run._attribution(metrics, [0.9e-6, 0.9e-6])
    assert att["layer_share"] == pytest.approx(0.6)
    assert att["entry_share"] == pytest.approx(0.2)
    assert att["unattributed_share"] == pytest.approx(0.2)
    assert att["overhead_share"] == pytest.approx(1 / 9)
    assert att["untraced_wall_spread"] == 0.0
    assert not att["overhead_within_spread"]
    one = run._attribution(metrics, [0.9e-6])
    assert one["untraced_wall_spread"] is None and not one["overhead_within_spread"]


def test_peak_rss_restarts_after_reset():
    import numpy as np

    block = np.ones(64 * 2**20 // 8)  # 64 MiB, touched
    before = run._peak_rss_mb()
    del block
    run._reset_peak_rss()
    assert run._peak_rss_mb() < before - 32


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == {"generate", "train", "evaluate"}


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_runs_one_blas_thread_whatever_the_environment_asks():
    code = "import run, numpy; print(run._blas_threads())"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.split()[-1] == "1"
