"""The benchmark's tracer finds every function it wraps.

`perfbench/tracer.py` replaces each `TARGETS` entry by looking it up in
its owner's own namespace; a renamed or deleted target makes every traced
benchmark run fail. This check fails first.
"""
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer.TARGETS
               if attr not in owner.__dict__]
    assert not missing, f"tracer targets not found: {missing}"
