#!/usr/bin/env python3
"""Equal-budget training of the three verification heads across seeds, then
re-ranking of the toy occluded benchmark with the trained two-image head.

Prints held-out pair accuracy per variant and seed, and stage-1 versus
stage-2 P@1 with the trained reranker. Optionally saves the trained two-image
weights per seed."""

import argparse
from pathlib import Path

import numpy as np

from facevit.experiments import run_ablation, run_occlusion_seed
from facevit.model import save_weights
from facevit.pipeline import Reranker


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--save-weights-dir", type=Path, default=None)
    args = ap.parse_args()

    seeds = tuple(range(args.seeds))
    result = run_ablation(seeds=seeds, epochs=args.epochs)

    print("held-out pair accuracy (clean pairs)")
    print("seed   " + "  ".join(f"{name:>5}" for name in result.accuracy))
    for i, seed in enumerate(seeds):
        row = "  ".join(f"{result.accuracy[name][i]:5.2f}" for name in result.accuracy)
        print(f"{seed:4d}   {row}")
    means = "  ".join(f"{np.mean(result.accuracy[name]):5.2f}" for name in result.accuracy)
    print(f"mean   {means}")

    print("\noccluded-benchmark P@1 with the trained two-image reranker")
    st1s, st2s = [], []
    for seed in seeds:
        r = run_occlusion_seed(seed, Reranker.H2L,
                               weights=result.h2l_states[seed].weights, toy=True)
        st1, st2 = r.stage1.p_at_1, r.stage2.p_at_1
        st1s.append(st1)
        st2s.append(st2)
        print(f"seed {seed}: stage1={st1:.3f} stage2={st2:.3f} gain={st2 - st1:+.3f}")
    print(f"mean : stage1={np.mean(st1s):.3f} stage2={np.mean(st2s):.3f}")

    if args.save_weights_dir is not None:
        args.save_weights_dir.mkdir(parents=True, exist_ok=True)
        for seed in seeds:
            path = args.save_weights_dir / f"h2l_seed{seed}.fvwt"
            save_weights(result.h2l_states[seed].weights, path)
            print(f"saved {path}")


if __name__ == "__main__":
    main()
