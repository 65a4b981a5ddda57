"""The names that the benchmark's tracer patches exist in the package.

`perfbench/spans.py` wraps layer functions at every place a caller looks
them up (`linalg.rank`, `jets.umul`, `blowup.pmul`, each oracle's
class-level `hilbert`, ...), and refuses to install when one is missing
or is not the function it traces.  Installing and uninstalling it here
catches a refactor that drops or rebinds such a name.  The tracer is only
read, never edited.
"""

import importlib.util
from pathlib import Path

from motive_series import blowup, jets, linalg

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    originals = (linalg.rank, jets.umul, blowup.pmul, blowup.DivisorialOracle.hilbert)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert linalg.rank is not originals[0]
        # both oracles rank through the one traced kernel
        m = blowup.run_script({"steps": [{"center": "origin"}, {"center": {"on": 1, "param": "0"}}]})
        assert blowup.DivisorialOracle(m).hilbert((2, 3)) == 4  # 1, x, y, x^2
        metrics = tracer.metrics()
        assert metrics["linalg.rank_calls"][0] == 1
        assert metrics["blowup.div_hilbert_misses"][0] == 1
    finally:
        tracer.uninstall()
    assert (linalg.rank, jets.umul, blowup.pmul, blowup.DivisorialOracle.hilbert) == originals
