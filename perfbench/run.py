"""painforge benchmark: one workload per invocation, closed loop, one process.

Run from the repository root:

    python3 perfbench/run.py --workload generate|train|evaluate \
        --seed N --seconds S --trace 0|1

Each workload runs in this one process with one render worker and one
OpenBLAS thread. The workload is set up several times (``setup_s`` is the median), then passes
run back to back until ``--seconds`` have elapsed. Every pass is checked for
correct output and its output digest must equal the first pass's digest; a
pass that fails either counts in ``failed``. With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the object carries the
per-layer metrics instead. A fuller record (environment, per-pass times,
digests, tail percentiles, and in trace mode every span) is written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# One OpenBLAS thread. On a shared 2-core host a second BLAS thread stalls
# whenever another process holds the other core: with one busy neighbour
# process, train passes took 35 % longer at 2 threads but only 5 % longer at
# 1; on an idle machine 1 thread was at most 6 % slower. OpenBLAS reads
# this when numpy and scipy load, so it is set before either is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import spans as S  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "painforge" / "__init__.py").is_file():
    sys.exit(f"perfbench: no painforge sources under {SRC}")
sys.path.insert(0, str(SRC))

import workloads as W  # noqa: E402

# Set-up runs at least 3 times, and up to 15 while their total stays under
# two seconds, so that a cheap set-up is still reported as a steady median.
SETUP_REPEATS = (3, 15)
SETUP_REPEAT_SECONDS = 2.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "images_per_s": "img/s",
              "peak_rss_mb": "MB"}

# One self_s metric per traced span name; their sum plus the pass root's own
# time is the traced pass.
PER_LAYER = {f"{name}.self_s": "s" for name in W.SPAN_NAMES}
PER_LAYER.update({
    "facesynth.rasterize.calls": "count",
    "facesynth.rasterize.ms_p50": "ms",
    "facesynth.vertex_normals.ms_p50": "ms",
    "facesynth.render_rgb.ms_p50": "ms",
    "fileio.save_tensor.bytes": "B",
    "fileio.load_tensor.bytes": "B",
    "model.forward.calls": "count",
    "model.forward.images": "count",
    "model.forward.eval_ms_p50": "ms",
    "model.save_checkpoint.calls": "count",
    "model.save_checkpoint.ms_p50": "ms",
    "tensor.backward.calls": "count",
    "optim.adamw_step.calls": "count",
    "training.step_ms_p50": "ms",
    "training.step_ms_tail": "ms",
    "trace.pass_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
})

# ROADMAP item 1's figures, recorded next to the matching per-call medians.
ROADMAP_MS = {"facesynth.render_rgb.ms_p50": 8.4, "facesynth.rasterize.ms_p50": 6.2,
              "facesynth.vertex_normals.ms_p50": 1.7, "training.step_ms_p50": 70.0,
              "model.save_checkpoint.ms_p50": 10.0, "model.forward.eval_ms_p50": 25.0}


def _environment(seed: int, sizes: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "render_workers": int(os.environ.get("PAINFORGE_THREADS", "1")),
            "machine": platform.machine(), "seed": seed, "sizes": sizes}


def _blas_threads():
    """OpenBLAS's thread count, read from numpy's bundled library if present."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _layer_metrics(spans: list, roots: list, traced: list, untraced: list):
    """Per-pass means of self time, calls and bytes; per-call medians."""
    self_ns = S.self_times(spans)
    passes = len(roots)
    totals: dict = {}
    durations: dict = {}
    root_self = 0
    for i, span in enumerate(spans):
        if span[S.PARENT] is None:
            root_self += self_ns[i]
            continue
        name = span[S.NAME]
        t = totals.setdefault(name, {"self_ns": 0, "calls": 0, "info": 0})
        t["self_ns"] += self_ns[i]
        t["calls"] += 1
        if isinstance(span[S.INFO], int):
            t["info"] += span[S.INFO]
        durations.setdefault(name, []).append(span[S.END] - span[S.START])

    def per_pass(name, key):
        return totals.get(name, {}).get(key, 0) / passes

    def ms_p50(values_ns):
        return S.median(values_ns) / 1e6

    # (images, training mode) per forward call; None when the call raised
    forwards = [s[:S.INFO] + [s[S.INFO] or (0, False)] for s in spans
                if s[S.NAME] == "model.forward"]
    steps: dict = {}
    for s in forwards:
        if s[S.INFO][1]:
            steps.setdefault(s[S.PARENT], []).append(s[S.START])
    intervals = [b - a for starts in steps.values()
                 for a, b in zip(starts, starts[1:])]
    tail_q, tail_ns, n_steps = S.tail_percentile(intervals)

    m = {f"{name}.self_s": per_pass(name, "self_ns") / 1e9 for name in W.SPAN_NAMES}
    m.update({
        "facesynth.rasterize.calls": per_pass("facesynth.rasterize", "calls"),
        "facesynth.rasterize.ms_p50": ms_p50(durations.get("facesynth.rasterize", [])),
        "facesynth.vertex_normals.ms_p50":
            ms_p50(durations.get("facesynth.vertex_normals", [])),
        "facesynth.render_rgb.ms_p50": ms_p50(durations.get("facesynth.render_rgb", [])),
        "fileio.save_tensor.bytes": per_pass("fileio.save_tensor", "info"),
        "fileio.load_tensor.bytes": per_pass("fileio.load_tensor", "info"),
        "model.forward.calls": len(forwards) / passes,
        "model.forward.images": sum(s[S.INFO][0] for s in forwards) / passes,
        "model.forward.eval_ms_p50": ms_p50([s[S.END] - s[S.START] for s in forwards
                                             if not s[S.INFO][1]]),
        "model.save_checkpoint.calls": per_pass("model.save_checkpoint", "calls"),
        "model.save_checkpoint.ms_p50":
            ms_p50(durations.get("model.save_checkpoint", [])),
        "tensor.backward.calls": per_pass("tensor.backward", "calls"),
        "optim.adamw_step.calls": per_pass("optim.adamw_step", "calls"),
        "training.step_ms_p50": ms_p50(intervals),
        "training.step_ms_tail": (tail_ns or 0) / 1e6,
        "trace.pass_s": S.median(traced),
        "trace.unattributed_s": root_self / passes / 1e9,
        "trace.overhead_s": S.median(traced) - S.median(untraced),
        "trace.spans": (len(spans) - passes) / passes,
    })
    details = {"training_step_tail_pct": tail_q, "training_steps": n_steps,
               "training_images_traced":
                   sum(s[S.INFO][0] for s in forwards if s[S.INFO][1]) / passes}
    return m, details


def _reset_peak_rss() -> None:
    """Hand freed heap back to the OS (glibc), then restart the kernel's
    peak-RSS count (VmHWM) from the current RSS."""
    ctypes.CDLL(None).malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _attribution(metrics: dict, untraced: list) -> dict:
    """Where the traced pass went, and whether tracing distorted it.

    The self times of a pass's spans tile it exactly, so their sum is the
    traced pass by construction. What can fail is the split: the share left
    in the entry-point spans' glue or outside any span, and a tracing overhead
    larger than the untraced passes' own spread.
    """
    pass_s = sum(metrics[f"{name}.self_s"] for name in W.SPAN_NAMES) \
        + metrics["trace.unattributed_s"]
    entry = sum(metrics[f"{name}.self_s"] for name in W.ENTRY_SPANS)
    wall = S.median(untraced)
    spread = None
    if len(untraced) >= 2:
        q1, _, q3 = statistics.quantiles(untraced, n=4)
        spread = (q3 - q1) / wall
    overhead = metrics["trace.overhead_s"] / wall
    return {"layer_share": (pass_s - entry - metrics["trace.unattributed_s"]) / pass_s,
            "entry_share": entry / pass_s,
            "unattributed_share": metrics["trace.unattributed_s"] / pass_s,
            "overhead_share": overhead, "untraced_wall_spread": spread,
            "overhead_within_spread": spread is not None and abs(overhead) <= spread}


def _run(args) -> int:
    os.environ.pop("PAINFORGE_THREADS", None)  # program default: one render worker
    workload = W.WORKLOADS[args.workload](args.seed)
    base = ROOT / ".perfbench"
    work = base / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results_dir = base / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _measure(args, workload, work, results_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, workload, work: Path, results_dir: Path) -> int:
    setup_times = []
    while len(setup_times) < SETUP_REPEATS[0] or (
            sum(setup_times) < SETUP_REPEAT_SECONDS
            and len(setup_times) < SETUP_REPEATS[1]):
        i = len(setup_times)
        start = time.perf_counter()
        workload.setup(work / f"setup{i}")
        setup_times.append(time.perf_counter() - start)
        if i:
            shutil.rmtree(work / f"setup{i - 1}", ignore_errors=True)

    tracer = S.Tracer(W.TRACE_TARGETS) if args.trace else None
    roots, traced_walls, untraced_walls = [], [], []
    failures = []
    reference = None
    attempted = 0
    # peak_rss_mb is the peak of the passes alone, not of the set-up (which
    # for evaluate trains two models).
    _reset_peak_rss()
    deadline = time.perf_counter() + args.seconds
    # Two passes at least, so the digest is always compared, and in trace
    # mode one of them is traced.
    while attempted < 2 or time.perf_counter() < deadline:
        traced = bool(args.trace) and attempted % 2 == 1
        out = work / f"pass{attempted}"
        attempted += 1
        try:
            if traced:
                tracer.install()
                try:
                    with tracer.root("pass") as root:
                        roots.append(root)
                        result = workload.run(out)
                finally:
                    tracer.uninstall()
                span = tracer.spans[root]
                traced_walls.append((span[S.END] - span[S.START]) / 1e9)
            else:
                start = time.perf_counter()
                result = workload.run(out)
                untraced_walls.append(time.perf_counter() - start)
            digest = workload.check(out, result)
            if reference is None:
                reference = digest
            elif digest != reference:
                raise W.CheckFailed(f"output digest {digest} differs from the "
                                    f"first pass's {reference}")
        except Exception as exc:  # a failed pass is counted, not fatal
            failures.append({"pass": attempted - 1, "error": repr(exc),
                             "traceback": traceback.format_exc()})
        finally:
            shutil.rmtree(out, ignore_errors=True)

    walls = untraced_walls
    wall = S.median(walls)
    tail_q, tail_v, n = S.tail_percentile(walls)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(args.seed, workload.sizes),
        "setup_s_samples": setup_times, "wall_s_samples": walls,
        "wall_s_tail": {"percentile": tail_q, "value_s": tail_v, "samples": n},
        "images_per_pass": workload.images_per_pass,
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "digest": reference,
    }
    if args.trace:
        metrics, details = _layer_metrics(tracer.spans, roots, traced_walls,
                                          untraced_walls)
        units = PER_LAYER
        record["traced_wall_s_samples"] = traced_walls
        record.update(details)
        record["roadmap_ms"] = {k: {"roadmap": v, "measured": metrics[k]}
                                for k, v in ROADMAP_MS.items()}
        record["attribution"] = _attribution(metrics, walls)
        spans_path = results_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        metrics = {
            "setup_s": S.median(setup_times),
            "wall_s": wall,
            "images_per_s": workload.images_per_pass / wall if wall else 0.0,
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = END_TO_END
    record["metrics"] = metrics
    results_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={attempted} failed={len(failures)}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {units[name]}")
    print(f"  {'fail_frac':34s} {len(failures) / attempted:14.6f} ratio "
          f"({len(failures)}/{attempted})")
    if args.trace:
        att = record["attribution"]
        print(f"  traced pass: {att['layer_share']:.1%} in layer spans, "
              f"{att['entry_share']:.1%} in entry-point glue, "
              f"{att['unattributed_share']:.1%} outside any span")
        spread = att["untraced_wall_spread"]
        print(f"  trace overhead {att['overhead_share']:+.1%} of untraced wall_s "
              + ("(one untraced pass, no spread)" if spread is None else
                 f"(its spread {spread:.1%}): "
                 f"{'within' if att['overhead_within_spread'] else 'OUTSIDE'} the spread"))
    tail = f"p{tail_q} = {tail_v:.6f} s" if tail_q is not None else "none"
    print(f"  wall_s tail over {n} untraced passes: {tail}")
    print(f"  digest sha256:{reference}")
    for failure in failures:
        print(f"  FAILED pass {failure['pass']}: {failure['error']}")
    print(f"  record {results_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["generate", "train", "evaluate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return _run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
