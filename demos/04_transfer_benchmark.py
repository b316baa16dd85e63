"""The full cross-intersection benchmark at desk scale.

Trains the transferable model and the no-transform baseline on two scenes
with different corner angles (90 and 60 degrees), then evaluates every
train/test combination and prints the comparison table. The point to
notice: the baseline collapses when moved across intersections, the
curbside-frame model does not.
"""

from tasnsc import PipelineConfig, evaluate, train
from tasnsc.metrics import format_table
from tasnsc.synthgen import generate, scene_a, scene_b, with_seed


def main():
    scenes = {"A": scene_a(), "B": scene_b()}
    data = {}
    for name, scene in scenes.items():
        data[name] = {
            "train": generate(scene, 80, tag=f"{name.lower()}-train"),
            "test": generate(with_seed(scene, 1007), 16, tag=f"{name.lower()}-test"),
            "frame": scene.frame(),
        }

    models = {}
    for name in scenes:
        for mode in ("tasnsc", "baseline"):
            models[(mode, name)] = train(
                data[name]["train"], data[name]["frame"], PipelineConfig(mode=mode)
            )

    grid = [
        ("baseline", "A", "A"), ("tasnsc", "A", "A"), ("tasnsc", "B", "A"), ("baseline", "B", "A"),
        ("baseline", "B", "B"), ("tasnsc", "B", "B"), ("tasnsc", "A", "B"),
    ]
    rows = []
    for mode, train_in, test_in in grid:
        report = evaluate(models[(mode, train_in)], data[test_in]["test"], data[test_in]["frame"])
        rows.append(report.table_row(mode, train_in, test_in))
    print(format_table(rows))
    transfer = next(r for r in rows if r["algorithm"] == "TASNSC" and r["train_in"] == "B" and r["test_in"] == "A")
    collapsed = next(r for r in rows if r["algorithm"] == "ASNSC" and r["train_in"] == "B" and r["test_in"] == "A")
    print(
        f"\ncross-intersection gap: curbside-frame model {transfer['accuracy']:.1f}% "
        f"vs local-frame baseline {collapsed['accuracy']:.1f}%"
    )


if __name__ == "__main__":
    main()
