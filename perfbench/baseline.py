"""Record a baseline: every workload over several seeds, plus one traced run.

Run from the repository root:

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload in BENCHMARK.json and each of the seeds 0-9 it runs
``run.py --trace 0`` and collects the end-to-end metrics; it reports their median, quartiles and spread (the
distance between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them), plus the output digest of
every seed. One ``--trace 1`` run per workload, on the first seed, gives the
per-layer split and the per-call medians compared against ROADMAP item 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import ROADMAP_MS  # noqa: E402

SEEDS = list(range(10))

# Where each ROADMAP item 1 figure is measured, and what it measures there.
ROADMAP_SOURCE = {
    "facesynth.render_rgb.ms_p50": "generate",
    "facesynth.rasterize.ms_p50": "generate",
    "facesynth.vertex_normals.ms_p50": "generate",
    "training.step_ms_p50": "train",
    "model.save_checkpoint.ms_p50": "train",
    "model.forward.eval_ms_p50": "train",
}


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = ROOT / ".perfbench" / "results" / \
        f"{workload}-seed{seed}-trace{trace}.json"
    return {"result": result, "record": json.loads(record_path.read_text())}


def _summary(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    out: dict = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, seed, seconds, 0) for seed in SEEDS]
        traced = _run(workload, SEEDS[0], seconds, 1)
        metrics = {name: _summary([r["result"]["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["result"]["metrics"]}
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        record = traced["record"]
        out["environment"] = {k: v for k, v in record["environment"].items()
                              if k not in ("seed", "sizes")}
        out["workloads"][workload] = {
            "sizes": record["environment"]["sizes"],
            "end_to_end": metrics,
            "fail_frac": failed / attempted, "attempted": attempted,
            "digests": {str(r["record"]["seed"]): r["record"]["digest"] for r in runs},
            "per_layer_seed": SEEDS[0],
            "per_layer": traced["result"]["metrics"] | {
                "training.step_tail_pct": record["training_step_tail_pct"],
                "training.steps": record["training_steps"]},
            "traced_correct": traced["result"]["correct"],
            "attribution": record["attribution"],
        }
        print(f"{workload}: " + ", ".join(
            f"{k} {v['median']:.4f} (spread {v['spread']:.4f})"
            for k, v in metrics.items()), flush=True)

    comparison = {}
    for name, roadmap in ROADMAP_MS.items():
        workload = ROADMAP_SOURCE[name]
        entry = out["workloads"][workload]
        measured = entry["per_layer"][name]["value"]
        spread = entry["end_to_end"]["wall_s"]["spread"]
        change = (measured - roadmap) / roadmap
        comparison[name] = {"workload": workload, "roadmap_ms": roadmap,
                            "measured_ms": measured, "relative_change": change,
                            "wall_s_spread": spread,
                            "differs": abs(change) > spread}
    out["roadmap_item_1"] = comparison
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
