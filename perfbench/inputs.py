"""Seeded synthetic inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the
same bytes.  The PGM writer and the CSV writer are the benchmark's own, so
the program under test sees only generated files and bytes.

Textures: class ``c`` is an oriented sinusoidal grating with its own angle,
period and noise level, plus a random phase per image.  Blockwise ROI at 8
gray levels separates them well, which keeps classification outputs stable
enough to compare exactly.
"""

from __future__ import annotations

import json

import numpy as np

N_CLASSES = 7
ANGLES_DEG = (0.0, 30.0, 60.0, 90.0, 120.0, 150.0, 45.0)
PERIODS_PX = (6.0, 9.0, 12.0, 5.0, 8.0, 14.0, 10.0)
NOISE_STD = (20.0, 30.0, 15.0, 25.0, 35.0, 10.0, 40.0)

# Program settings shared by every CLI call that extracts features.  Blockwise
# ROI throughout: at the defaults (pixelwise, 3 levels, sn=6) each region of a
# quantized image holds one gray level, every GLCM has one non-zero cell, and
# `train` stops with "PCA keeps only 1 components".
EXTRACT_CONFIG = {"roi": {"mode": "blockwise", "block_size": 8}, "texture": {"levels": 8}}

# Sizes suit a shared 2-core virtual machine whose speed drifts by up to 1.8x
# for seconds at a time: there only the fastest of many short repetitions
# reads the same from run to run, and the shorter the repetition the more
# surely one of them falls in a fast moment.  So batches stay well under
# half a second where the workload allows and each run repeats few distinct
# items many times.

# extract-blockwise: a batch is one 256x256 P5 image, of a class the seed
# picks, plus one 64x64 image per class; those are also sent alone as items.
EXTRACT_SIDE = 256
ITEM_SIDE = 64

# train-classify: 32x32 images, 7 classes of unequal size, P2 queries.  A
# shortened schedule keeps one `train` near a tenth of a second (at the
# default 100 steps per sample it takes 0.5-0.7 s, and its fastest
# repetition spread by a quarter from run to run); SOM training still takes
# most of it.
SMALL_SIDE = 32
TRAIN_CLASS_SIZES = (20, 28, 36, 40, 44, 52, 60)
QUERIES_PER_CLASS = 6
TRAIN_CONFIG = dict(EXTRACT_CONFIG, schedule={"steps_per_sample": 20})

# evaluate-grid: Gaussian feature rows, 7 classes of unequal size, 24 dims,
# the default grid of pipelines and classifiers.  Three folds instead of ten
# and a shortened schedule keep one grid near 0.14 s (ten folds at 5 steps
# per sample take 0.35 s, and the fastest of those spread by up to a sixth
# from run to run); SOM training still takes about two thirds of it.
EVAL_CLASS_SIZES = (3, 4, 4, 5, 6, 7, 8)
EVAL_DIM = 24
EVAL_CONFIG = {"folds": 3, "schedule": {"steps_per_sample": 10}}

# Independent random streams per corpus, so resizing one leaves the others alone.
_STREAM_EXTRACT, _STREAM_TRAIN, _STREAM_QUERY, _STREAM_EVAL = 1, 2, 3, 4


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def texture(rng: np.random.Generator, cls: int, side: int) -> np.ndarray:
    """One (side, side) uint8 texture of class ``cls``; values lie in [1, 255]."""
    theta = np.deg2rad(ANGLES_DEG[cls])
    phase = rng.uniform(0.0, 2.0 * np.pi)
    y, x = np.mgrid[0:side, 0:side].astype(np.float64)
    wave = np.sin(2.0 * np.pi * (x * np.cos(theta) + y * np.sin(theta)) / PERIODS_PX[cls] + phase)
    noise = rng.normal(0.0, NOISE_STD[cls], size=(side, side))
    return np.clip(np.rint(128.0 + 80.0 * wave + noise), 1, 255).astype(np.uint8)


def p5_bytes(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.astype(np.uint8).tobytes()


def p2_bytes(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape
    rows = "\n".join(" ".join(str(int(v)) for v in row) for row in pixels)
    return f"P2\n{w} {h}\n255\n{rows}\n".encode("ascii")


def _images(rng: np.random.Generator, classes, side: int, writer) -> list[tuple[bytes, int]]:
    return [(writer(texture(rng, c, side)), c) for c in classes]


def extract_corpus(seed: int) -> tuple[list[tuple[bytes, int]], list[tuple[bytes, int]]]:
    """(P5 bytes, class) of the large and of the item images for extract-blockwise."""
    rng = _rng(seed, _STREAM_EXTRACT)
    large = [int(rng.integers(N_CLASSES))]
    return _images(rng, large, EXTRACT_SIDE, p5_bytes), _images(rng, range(N_CLASSES), ITEM_SIDE, p5_bytes)


def _by_class(sizes) -> list[int]:
    return [c for c, n in enumerate(sizes) for _ in range(n)]


def train_corpus(seed: int) -> list[tuple[bytes, int]]:
    """(P5 bytes, class) for the train-classify training set."""
    return _images(_rng(seed, _STREAM_TRAIN), _by_class(TRAIN_CLASS_SIZES), SMALL_SIDE, p5_bytes)


def query_pool(seed: int) -> list[tuple[bytes, int]]:
    """(P2 bytes, class) for the train-classify queries, classes interleaved."""
    classes = [c for _ in range(QUERIES_PER_CLASS) for c in range(N_CLASSES)]
    return _images(_rng(seed, _STREAM_QUERY), classes, SMALL_SIDE, p2_bytes)


def features_csv(X: np.ndarray, labels) -> str:
    """The program's features CSV layout: f0..f{d-1},label at 17 digits."""
    lines = [",".join([f"f{i}" for i in range(X.shape[1])] + ["label"])]
    for row, label in zip(X, labels):
        lines.append(",".join([format(float(v), ".17g") for v in row] + [str(int(label))]))
    return "\n".join(lines) + "\n"


def eval_features(seed: int) -> str:
    """Labeled Gaussian rows for evaluate-grid: one mean and scale per class."""
    rng = _rng(seed, _STREAM_EVAL)
    means = rng.normal(0.0, 3.0, size=(N_CLASSES, EVAL_DIM))
    scales = rng.uniform(0.5, 1.5, size=N_CLASSES)
    labels = _by_class(EVAL_CLASS_SIZES)
    X = np.stack([means[c] + scales[c] * rng.normal(size=EVAL_DIM) for c in labels])
    return features_csv(X, labels)


def manifest(entries) -> str:
    """``filename,class_id`` lines for the CLI `extract` command."""
    return "".join(f"{name},{cls}\n" for name, cls in entries)


def config_json(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True) + "\n"
