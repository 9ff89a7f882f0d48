"""Train the heatmap teacher, then a supervised and a distilled RGB student.

Desk-scale run (a few minutes on a laptop CPU). The distilled student adds
three transfer terms on top of its supervised loss: temperature-softened
score distributions, AU predictions, and CLS feature alignment.
"""

from pathlib import Path

from painforge.evaluation import evaluate_model
from painforge.facesynth.dataset import DatasetSpec, build_dataset
from painforge.fileio import read_manifest, write_manifest
from painforge.metrics import subject_holdout
from painforge.model import ModelConfig
from painforge.rng import STREAM_SPLIT
from painforge.training import TrainConfig, train_student, train_teacher

out = Path("demo_out/training")
spec = DatasetSpec(identities=64, expressions_per_identity=4, views=(0.0,),
                   resolution=64, seed=5)
manifest = build_dataset(spec, out / "data")

# identity-disjoint train/test split
rows = read_manifest(manifest)
test_subjects = subject_holdout([r["split_subject_id"] for r in rows], 0.2,
                                (5, STREAM_SPLIT))
train_manifest = out / "data" / "train.jsonl"
test_manifest = out / "data" / "test.jsonl"
write_manifest(train_manifest, [r for r in rows
                                if r["split_subject_id"] not in test_subjects])
write_manifest(test_manifest, [r for r in rows
                               if r["split_subject_id"] in test_subjects])

model_config = ModelConfig(image_size=64, patch_size=16, hidden_dim=64,
                           num_layers=2, num_heads=4)
train_config = TrainConfig(epochs=15, freeze_epochs=3, lr_backbone=3e-4,
                           lr_heads=3e-3, batch_size=32, seed=0)

print("training heatmap teacher...")
teacher_ckpt, teacher_report = train_teacher(
    train_manifest, out / "teacher", model_config=model_config,
    train_config=train_config)
print(f"  best validation macro AUROC: {teacher_report.best_val_macro_auroc:.3f}")

print("training supervised RGB student...")
baseline_ckpt, _ = train_student(train_manifest, out / "baseline",
                                 model_config=model_config,
                                 train_config=train_config)

print("training distilled RGB student...")
distilled_ckpt, distilled_report = train_student(
    train_manifest, out / "distilled", teacher_checkpoint=teacher_ckpt,
    model_config=model_config, train_config=train_config)
first = distilled_report.epochs[0]
print(f"  epoch-0 loss terms: supervised CE {first['loss_pspi']:.3f}, "
      f"AU {first['loss_au']:.3f}, KL {first['loss_pspi_distill']:.3f}, "
      f"AU-transfer {first['loss_au_distill']:.3f}, "
      f"feature {first['loss_feature_distill']:.3f}")

print("\nheld-out test macro AUROC:")
for name, ckpt in [("teacher", teacher_ckpt), ("baseline", baseline_ckpt),
                   ("distilled", distilled_ckpt)]:
    score = evaluate_model(ckpt, test_manifest)["overall"]["macro_auroc"]
    print(f"  {name:10s} {score:.4f}")
