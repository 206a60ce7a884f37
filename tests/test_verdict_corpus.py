import importlib.util
from pathlib import Path

import pytest

from poisson_lab.signals import read_signal_csv

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "verdict_corpus.py"
_SPEC = importlib.util.spec_from_file_location("verdict_corpus", _SCRIPT)
verdict_corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(verdict_corpus)


def test_the_corpus_is_the_same_bytes_on_every_run(tmp_path):
    runs = [tmp_path / "a", tmp_path / "b"]
    for outdir in runs:
        assert verdict_corpus.main([str(outdir)]) == 0
    corpus = verdict_corpus.corpus()
    names = sorted(p.name for p in runs[0].iterdir())
    assert len(names) == 28 and names == sorted(p.name for p in runs[1].iterdir()) == sorted(corpus)
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
        # Each is read back as the samples written; dt is read from the times.
        sig = read_signal_csv(runs[0] / name)
        t0, x = corpus[name]
        assert sig.t0 == t0 and sig.dt == pytest.approx(verdict_corpus.DT, rel=1e-12)
        assert sig.samples.tobytes() == x.reshape(len(x), -1).tobytes()
