#!/usr/bin/env python3
"""Write the verdict corpus: 28 signal CSVs made from formulas, for classify.

Usage: python scripts/verdict_corpus.py OUTDIR

Every input is sampled at dt 0.05 from t0 = 0 (one from t0 = 1000) and
written in the documented CSV form (header ``t,x1[,x2]``, every field as
``%.17g``), so two runs write the same bytes.  The inputs reach kinds of
signal the catalog does not: short spans, slow tones, large and small
amplitudes, growing amplitudes, a constant and two components.

- 18 two-tone inputs sin t + a sin(w t), w in {sqrt 2, sqrt 3, 0.5, 2, pi/3,
  0.05, 0.01, 0.2, 1.5} and a in {1, 0.3}, 2,000 samples;
- sin t + sin(sqrt 2 t), 4,000 samples, scaled by 1e3 and by 1e-3, shifted
  by +100, on times from t0 = 1000, and negated;
- t sin t and e^(t/400) sin t, 8,000 samples;
- sin(0.01 t) + sin(sqrt 2 t), 20,000 samples;
- a constant column, 2,000 samples;
- (sin t, cos(sqrt 2 t)), 2,000 samples.

CI's drift step classifies each input with the base and the head branch and
compares the JSON reports byte for byte.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

DT = 0.05
_TONES = (("sqrt2", math.sqrt(2.0)), ("sqrt3", math.sqrt(3.0)), ("0.5", 0.5), ("2", 2.0),
          ("pi3", math.pi / 3), ("0.05", 0.05), ("0.01", 0.01), ("0.2", 0.2), ("1.5", 1.5))


def _t(n: int) -> np.ndarray:
    return DT * np.arange(n)


def corpus() -> dict:
    """{file name: (t0, samples of shape (n, dim))} of every input."""
    t = _t(2_000)
    out = {f"two-tone-w{wn}-a{an}.csv": (0.0, np.sin(t) + a * np.sin(w * t))
           for wn, w in _TONES for an, a in (("1", 1.0), ("0.3", 0.3))}
    t = _t(4_000)
    pair = np.sin(t) + np.sin(math.sqrt(2.0) * t)
    out.update({"pair-times-1e3.csv": (0.0, 1e3 * pair),
                "pair-times-1e-3.csv": (0.0, 1e-3 * pair),
                "pair-plus-100.csv": (0.0, pair + 100.0),
                "pair-from-t1000.csv": (1000.0, pair),
                "pair-negated.csv": (0.0, -pair)})
    t = _t(8_000)
    out["t-sin-t.csv"] = (0.0, t * np.sin(t))
    out["exp-t-over-400-sin-t.csv"] = (0.0, np.exp(t / 400.0) * np.sin(t))
    t = _t(20_000)
    out["slow-tone-0.01.csv"] = (0.0, np.sin(0.01 * t) + np.sin(math.sqrt(2.0) * t))
    t = _t(2_000)
    out["constant.csv"] = (0.0, np.ones_like(t))
    out["two-component.csv"] = (0.0, np.column_stack([np.sin(t), np.cos(math.sqrt(2.0) * t)]))
    return out


def write(outdir: Path) -> list:
    """Write every input of ``corpus()`` into ``outdir``; the paths written."""
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, (t0, x) in corpus().items():
        x = x.reshape(len(x), -1)
        header = "t," + ",".join(f"x{j + 1}" for j in range(x.shape[1]))
        paths.append(outdir / name)
        np.savetxt(paths[-1], np.column_stack([t0 + _t(len(x)), x]), fmt="%.17g",
                   delimiter=",", header=header, comments="")
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    paths = write(parser.parse_args(argv).outdir)
    print(f"{len(paths)} inputs in {paths[0].parent}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
