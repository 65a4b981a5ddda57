"""The names that the benchmark's tracer patches exist in the package.

`perfbench/spans.py` wraps layer functions at every place a caller looks
them up (`linalg.rank`, `jets.umul`, `blowup.pmul`, each oracle's
class-level `hilbert`, ...), and refuses to install when one is missing
or is not the function it traces.  Installing and uninstalling it here
catches a refactor that drops or rebinds such a name.  The tracer is only
read, never edited.
"""

import importlib.util
import json
from pathlib import Path

from motive_series import blowup, cli, formulas, jets, linalg

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


def test_tracer_counts_the_curve_formula(tmp_path, capsys):
    # the cusp's resolution graph with its arrow
    cusp = {
        "vertices": [{"self_int": -3}, {"self_int": -2}, {"self_int": -1}],
        "edges": [[1, 3], [2, 3]],
        "arrows": [{"attach": 3}],
    }
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(cusp))
    spans = load_spans()
    originals = [getattr(formulas, name) for name in spans.FORMULA_SPANS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert formulas.curve_series is not originals[0]
        argv = ["poincare", "--graph", str(path), "--bound", "8", "--filtration", "curve"]
        assert cli.main(argv) == 0
        assert tracer.totals["formulas.curve_series"][0] == 1
        # 1, t^2, t^3, ..., t^8: every coefficient but the one at t
        assert tracer.counts["formulas.coeffs_out"] == 8
        assert tracer.metrics()["formulas.self_s"][0] > 0
    finally:
        tracer.uninstall()
    assert [getattr(formulas, name) for name in spans.FORMULA_SPANS] == originals
    assert len(json.loads(capsys.readouterr().out)["terms"]) == 8


def test_tracer_counts_one_oracle_series(tmp_path, capsys):
    # transverse lines: Pg on [0, (4, 4)] reads h on the six lines of [0, (5, 5)],
    # ranks the top one and restricts its basis to each of the other five
    lines = {"ambient_dim": 2, "branches": [{"coords": [[[1, "1"]], []]}, {"coords": [[], [[1, "1"]]]}]}
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(lines))
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        argv = ["poincare", "--curve", str(path), "--kind", "Pg", "--bound", "4,4", "--format", "json"]
        assert cli.main(argv) == 0
        assert tracer.totals["jets.series"][0] == 1
        assert tracer.metrics()["linalg.rank_calls"][0] == 1
    finally:
        tracer.uninstall()
    # 1, and q^(a + b - 1) - q^(a + b) at each (a, b) >= (1, 1)
    assert len(json.loads(capsys.readouterr().out)["terms"]) == 17
