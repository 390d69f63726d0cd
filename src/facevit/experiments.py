"""Canonical evaluation experiments: the occluded-query benchmark and the
head-ablation training study.

The occluded benchmark comes in two sizes. The full-size variant (512-d
embeddings, 8x8 patch grid) is what the optimal-transport reranker is
evaluated on; the toy variant (16-d, 4x4) uses the same identity/record
layout at dimensions small enough to train the transformer heads on directly,
so trained rerankers can be scored on data shaped like their training set.
Noise levels were picked by sweeping sigma over {0.1, ..., 1.0} until clean
stage-1 P@1 stayed in [0.95, 1.0] while masked queries lost at least 10
points (scripts/calibrate_sigma.py reproduces the sweep).
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelConfig, Variant
from .pipeline import (EmdSettings, EvalReport, PipelineConfig, Reranker,
                       evaluate, run_pipeline)
from .records import Gallery, QuerySet, SynthConfig, generate_synthetic
from .trainer import TrainConfig, TrainState, train

N_IDENTITIES = 20
RECORDS_PER_IDENTITY = 10
OCCLUDED_FRACTION = 0.5

# calibrated intra-class noise per benchmark size
SIGMA_FULL = 0.7   # dim=512, grid=8
SIGMA_TOY = 0.1    # dim=16, grid=4

# entropic regularization for the benchmark's transport reranker; coarser
# than the solver default so 20 seeded runs fit a small time budget
BENCH_EMD_EPS = 0.15

TOY_DIM = 16
TOY_GRID = 4


def benchmark_config(seed: int, toy: bool = False,
                     occluded_fraction: float = OCCLUDED_FRACTION) -> SynthConfig:
    if toy:
        return SynthConfig(N_IDENTITIES, RECORDS_PER_IDENTITY, SIGMA_TOY,
                           seed=seed, occluded_fraction=occluded_fraction,
                           queries_per_identity=1, dim=TOY_DIM, grid=TOY_GRID)
    return SynthConfig(N_IDENTITIES, RECORDS_PER_IDENTITY, SIGMA_FULL,
                       seed=seed, occluded_fraction=occluded_fraction,
                       queries_per_identity=1)


def make_benchmark(seed: int, toy: bool = False) -> tuple[Gallery, QuerySet]:
    return generate_synthetic(benchmark_config(seed, toy))


@dataclass
class OcclusionSeedResult:
    seed: int
    stage1: EvalReport
    stage2: EvalReport


def run_occlusion_seed(seed: int, reranker: Reranker, weights=None,
                       toy: bool = False) -> OcclusionSeedResult:
    """Stage-1 and stage-2 retrieval reports on one seeded benchmark
    instance; the shortlist is 100, capped at the gallery size."""
    g, q = make_benchmark(seed, toy)
    st1 = evaluate(run_pipeline(g, q, PipelineConfig(reranker=Reranker.NONE)), g)
    cfg = PipelineConfig(reranker=reranker, k=min(100, len(g)), weights=weights,
                         emd=EmdSettings(eps=BENCH_EMD_EPS))
    st2 = evaluate(run_pipeline(g, q, cfg), g)
    return OcclusionSeedResult(seed, st1, st2)


def toy_model_config(variant: Variant) -> ModelConfig:
    return ModelConfig(variant, depth=1, heads=2, dim=TOY_DIM,
                       n_patches=TOY_GRID * TOY_GRID, out_dim=TOY_DIM)


def train_toy_variant(variant: Variant, seed: int,
                      epochs: int = 30) -> tuple[TrainState, list[dict]]:
    """Train one head variant on the clean toy benchmark gallery (equal
    budget across variants: same data, epochs, and batch schedule)."""
    cfg = benchmark_config(seed, toy=True, occluded_fraction=0.0)
    gallery, _ = generate_synthetic(cfg)
    return train(toy_model_config(variant), None, gallery,
                 TrainConfig(seed=seed, epochs=epochs))


@dataclass
class AblationResult:
    accuracy: dict[str, list[float]]       # variant name -> per-seed holdout accuracy
    h2l_states: dict[int, TrainState]      # seed -> trained two-image state


def run_ablation(seeds=(0, 1, 2, 3, 4), epochs: int = 30) -> AblationResult:
    """Equal-budget training of all three head variants across seeds."""
    accuracy = {v.name: [] for v in (Variant.H2L, Variant.H2, Variant.H1)}
    h2l_states: dict[int, TrainState] = {}
    for seed in seeds:
        for variant in (Variant.H2L, Variant.H2, Variant.H1):
            state, history = train_toy_variant(variant, seed, epochs)
            accuracy[variant.name].append(history[-1]["holdout_accuracy"])
            if variant is Variant.H2L:
                h2l_states[seed] = state
    return AblationResult(accuracy, h2l_states)
