"""Synthetic multimodal dataset generation and file round-tripping.

Every sample carries three raw feature sequences (text, visual, audio)
whose contents embed a latent sentiment score at modality-specific
signal-to-noise ratios: text carries the cleanest copy of the signal,
audio the noisiest. Generation is a pure function of (n, shapes, seed,
label_range, split_fracs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import container


@dataclass
class ShapeSpec:
    t_text: int = 16
    d_text: int = 32
    t_visual: int = 24
    d_visual: int = 16
    t_audio: int = 32
    d_audio: int = 8

    def of(self, modality):
        return {
            "t": (self.t_text, self.d_text),
            "v": (self.t_visual, self.d_visual),
            "a": (self.t_audio, self.d_audio),
        }[modality]


DEFAULT_SNR = {"t": 6.0, "v": 1.5, "a": 0.8}


@dataclass
class Sample:
    x_t: np.ndarray
    x_v: np.ndarray
    x_a: np.ndarray
    y: float

    def modality(self, m):
        return {"t": self.x_t, "v": self.x_v, "a": self.x_a}[m]


@dataclass
class Dataset:
    samples: list
    shapes: ShapeSpec
    label_low: float
    label_high: float
    seed: int
    snr: dict
    unknown_text_vector: np.ndarray
    split_sizes: tuple = (0, 0, 0)

    def split(self, name):
        n_train, n_valid, n_test = self.split_sizes
        if name == "train":
            return self.samples[:n_train]
        if name == "valid":
            return self.samples[n_train:n_train + n_valid]
        if name == "test":
            return self.samples[n_train + n_valid:]
        raise ValueError(f"unknown split {name!r}")


def generate(n, shapes=None, seed=0, label_range=(-3.0, 3.0),
             split_fracs=(0.7, 0.15, 0.15)):
    """Build a deterministic synthetic dataset.

    Each modality's features are y * pattern * snr + unit noise plus a
    shared per-sample nuisance component on the non-text modalities.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    shapes = shapes or ShapeSpec()
    snr = dict(DEFAULT_SNR)
    for m in ("t", "v", "a"):
        t, d = shapes.of(m)
        if t < 1 or d < 1:
            raise ValueError(f"invalid shape for modality {m}: {(t, d)}")
    rng = np.random.default_rng(seed)
    low, high = label_range

    patterns = {}
    nuisance_dirs = {}
    for m in ("t", "v", "a"):
        t, d = shapes.of(m)
        pat = rng.standard_normal((t, d))
        patterns[m] = pat / np.linalg.norm(pat) * np.sqrt(t)
        nuisance_dirs[m] = rng.standard_normal((t, d)) * 0.5

    samples = []
    for _ in range(n):
        y = rng.uniform(low, high)
        confound = rng.standard_normal()
        xs = {}
        for m in ("t", "v", "a"):
            t, d = shapes.of(m)
            x = y * snr[m] * patterns[m] + rng.standard_normal((t, d))
            if m != "t":
                x = x + confound * nuisance_dirs[m]
            xs[m] = x
        samples.append(Sample(xs["t"], xs["v"], xs["a"], float(y)))

    unk = rng.standard_normal(shapes.d_text)
    n_train = int(round(split_fracs[0] * n))
    n_valid = int(round(split_fracs[1] * n))
    n_test = n - n_train - n_valid
    return Dataset(samples, shapes, low, high, seed, snr, unk,
                   (n_train, n_valid, n_test))


def save(dataset, directory):
    named = []
    for i, s in enumerate(dataset.samples):
        named.append((f"sample{i}.x_t", s.x_t))
        named.append((f"sample{i}.x_v", s.x_v))
        named.append((f"sample{i}.x_a", s.x_a))
    named.append(("labels", np.array([s.y for s in dataset.samples])))
    named.append(("unknown_text_vector", dataset.unknown_text_vector))
    sh = dataset.shapes
    extra = [
        ("n_samples", len(dataset.samples)),
        ("seed", dataset.seed),
        ("label_low", dataset.label_low),
        ("label_high", dataset.label_high),
        ("shape_text", f"{sh.t_text}x{sh.d_text}"),
        ("shape_visual", f"{sh.t_visual}x{sh.d_visual}"),
        ("shape_audio", f"{sh.t_audio}x{sh.d_audio}"),
        ("snr_t", dataset.snr["t"]),
        ("snr_v", dataset.snr["v"]),
        ("snr_a", dataset.snr["a"]),
        ("split_train", dataset.split_sizes[0]),
        ("split_valid", dataset.split_sizes[1]),
        ("split_test", dataset.split_sizes[2]),
    ]
    container.save_named(directory, named, extra)


def _shape_pair(value):
    t, d = (int(v) for v in value.split("x"))
    return t, d


def load(directory):
    manifest, named = container.load_named(directory)

    def get(key, parse):
        return container.manifest_value(manifest, key, parse)

    n = get("n_samples", int)
    if len(named) != 3 * n + 2:
        raise container.ManifestKeyError(
            f"manifest entry 'n_samples': {n} samples need {3 * n + 2} "
            f"tensors, the file holds {len(named)}")
    arrays = dict(named)

    def tensor(name):
        if name not in arrays:
            raise container.ManifestKeyError(f"dataset has no tensor {name!r}")
        if not np.all(np.isfinite(arrays[name])):
            raise container.ContainerError(
                f"tensor {name!r} holds non-finite values")
        return arrays[name]

    splits = tuple(get(f"split_{k}", int) for k in ("train", "valid", "test"))
    if min(splits) < 0 or sum(splits) != n:
        raise container.ManifestKeyError(
            f"manifest entries 'split_train', 'split_valid', 'split_test': "
            f"sizes {splits} must be >= 0 and sum to n_samples {n}")
    tt, dt = get("shape_text", _shape_pair)
    tv, dv = get("shape_visual", _shape_pair)
    ta, da = get("shape_audio", _shape_pair)
    shapes = ShapeSpec(tt, dt, tv, dv, ta, da)
    labels = tensor("labels")
    unk = tensor("unknown_text_vector")
    for name, arr, exp in (("labels", labels, (n,)),
                           ("unknown_text_vector", unk, (dt,))):
        if arr.shape != exp:
            raise container.ManifestShapeError(
                f"tensor {name}: expected {exp}, got {arr.shape}")
    samples = []
    for i in range(n):
        x_t = tensor(f"sample{i}.x_t")
        x_v = tensor(f"sample{i}.x_v")
        x_a = tensor(f"sample{i}.x_a")
        for arr, exp in ((x_t, (tt, dt)), (x_v, (tv, dv)), (x_a, (ta, da))):
            if arr.shape != exp:
                raise container.ManifestShapeError(
                    f"sample {i}: expected {exp}, got {arr.shape}")
        samples.append(Sample(x_t, x_v, x_a, float(labels[i])))
    return Dataset(
        samples, shapes, get("label_low", float), get("label_high", float),
        get("seed", int),
        {m: get(f"snr_{m}", float) for m in ("t", "v", "a")}, unk, splits,
    )


def export_labels_csv(dataset, path):
    lines = ["index,label"]
    lines += [f"{i},{s.y!r}" for i, s in enumerate(dataset.samples)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
