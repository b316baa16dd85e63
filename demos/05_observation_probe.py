"""The observation probe: the six compare rows over five seeds, at 2.5 s and 2.0 s.

At the protocol's 2.5 s observation the canonical scenes saturate near
100% accuracy, so a change that costs quality barely shows there. At
2.0 s every row falls below saturation. This demo trains the four compare
models at seeds 0-4 (seed n trains with ``PipelineConfig(seed=n)`` on the
canonical scenes and tests at scene seeds 1007 + n and 1011 + n, so seed 0
is the README Quickstart's protocol), evaluates the six rows at both
observation lengths, and prints each row's five-seed mean and min-max. A
change to training is read against that spread.
"""

import dataclasses
import statistics

from tasnsc import PipelineConfig, evaluate, train
from tasnsc.synthgen import generate, scene_a, scene_b, with_seed

SEEDS = range(5)
T_OBS = (2.5, 2.0)
TEST_SEEDS = {"A": 1007, "B": 1011}
# The rows of `tasnsc compare`, in its order: (mode, train scene, test scene).
GRID = [
    ("baseline", "A", "A"),
    ("tasnsc", "A", "A"),
    ("tasnsc", "B", "A"),
    ("baseline", "B", "B"),
    ("tasnsc", "B", "B"),
    ("tasnsc", "A", "B"),
]


def probe() -> dict:
    """``{(t_obs, row): [(accuracy %, mean MHD m) per seed]}`` for every grid row."""
    scenes = {"A": scene_a(), "B": scene_b()}
    frames = {name: scene.frame() for name, scene in scenes.items()}
    train_sets = {name: generate(scene, 150, tag=f"{name.lower()}-train") for name, scene in scenes.items()}
    cells = {}
    for seed in SEEDS:
        tests = {
            name: generate(with_seed(scene, TEST_SEEDS[name] + seed), 30, tag=f"{name.lower()}-test")
            for name, scene in scenes.items()
        }
        models = {}
        for mode, tr, te in GRID:
            if (mode, tr) not in models:
                models[mode, tr] = train(train_sets[tr], frames[tr], PipelineConfig(mode=mode, seed=seed))
            model = models[mode, tr]
            for t_obs in T_OBS:
                probed = dataclasses.replace(model, config=dataclasses.replace(model.config, t_obs=t_obs))
                report = evaluate(probed, tests[te], frames[te])
                cells.setdefault((t_obs, (mode, tr, te)), []).append((report.classification_accuracy, report.mean_mhd))
    return cells


def row_name(row: tuple) -> str:
    mode, tr, te = row
    return f"{'ASNSC' if mode == 'baseline' else 'TASNSC'} {tr}->{te}"


def main():
    cells = probe()
    for t_obs in T_OBS:
        print(f"\nt_obs {t_obs} s: accuracy % / mean MHD m")
        header = ["row"] + [f"seed {s}" for s in SEEDS] + ["mean", "min-max accuracy", "min-max MHD"]
        lines = []
        for row in GRID:
            runs = cells[t_obs, row]
            acc, mhd = zip(*runs)
            lines.append(
                [row_name(row)]
                + [f"{a:.1f} / {m:.3f}" for a, m in runs]
                + [
                    f"{statistics.fmean(acc):.1f} / {statistics.fmean(mhd):.3f}",
                    f"{min(acc):.1f}-{max(acc):.1f}",
                    f"{min(mhd):.3f}-{max(mhd):.3f}",
                ]
            )
        widths = [max(len(line[i]) for line in [header] + lines) for i in range(len(header))]
        for line in [header] + lines:
            print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())


if __name__ == "__main__":
    main()
