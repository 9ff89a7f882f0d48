"""Generate a small paired RGB/heatmap dataset and inspect its manifest.

Every identity gets one neutral frame set plus rigged frame sets, rendered
from each camera view; heatmaps are rendered frontally, one per expression.
A rerun with the same seed reproduces every byte.
"""

from collections import Counter
from pathlib import Path

from painforge.facesynth.dataset import (DatasetSpec, build_dataset,
                                         demographic_summary)
from painforge.fileio import file_sha256, load_tensor, read_manifest

out = Path("demo_out/dataset")
spec = DatasetSpec(identities=12, expressions_per_identity=3,
                   views=(-30.0, 0.0, 30.0), resolution=64, seed=7)
manifest = build_dataset(spec, out)
rows = read_manifest(manifest)

print(f"frames: {len(rows)} (expected {spec.frames_total})")
print(f"heatmaps: {len({r['heatmap_path'] for r in rows if r['heatmap_path']})} "
      f"(expected {spec.heatmaps_total})")
print("pain-score distribution over expressions:")
scores = Counter(r["pspi"] for r in rows if r["expression_id"] is not None)
print(" ", dict(sorted(scores.items())))

summary = demographic_summary(rows)
print("identity demographics:", summary)

row = next(r for r in rows if r["expression_id"] is not None)
print(f"one rigged frame: identity {row['identity_id']}, yaw {row['camera_yaw']}, "
      f"PSPI {row['pspi']}, rgb {load_tensor(out / row['rgb_path']).shape}, "
      f"heatmap {load_tensor(out / row['heatmap_path']).shape}")

print("manifest sha256:", file_sha256(manifest)[:16], "(stable across reruns)")
