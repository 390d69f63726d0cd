#!/usr/bin/env python3
"""Score the occluded-query benchmark with the transport reranker over many
seeds and report the stage-1 to stage-2 P@1 improvement."""

import argparse

import numpy as np

from facevit.experiments import run_occlusion_seed
from facevit.pipeline import Reranker


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--toy", action="store_true",
                    help="use the 16-d / 4x4 benchmark instead of 512-d / 8x8")
    args = ap.parse_args()

    st1s, st2s = [], []
    for seed in range(args.seeds):
        r = run_occlusion_seed(seed, Reranker.EMD, toy=args.toy)
        st1, st2 = r.stage1.p_at_1, r.stage2.p_at_1
        st1s.append(st1)
        st2s.append(st2)
        print(f"seed {seed:2d}: stage1={st1:.3f} stage2={st2:.3f} gain={st2 - st1:+.3f}")
    gain = np.mean(st2s) - np.mean(st1s)
    print(f"mean   : stage1={np.mean(st1s):.3f} stage2={np.mean(st2s):.3f}"
          f" gain={gain:+.3f}")


if __name__ == "__main__":
    main()
