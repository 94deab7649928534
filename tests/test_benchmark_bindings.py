"""The benchmark's tracer still finds everything it wraps in the library.

``perfbench/layers.py`` rebinds the package's public functions, their
aliases in the importing modules and three ``SymmetricBandedMatrix`` methods,
all by name.  A library change that renames one of them fails here, in the
repository's own tests, instead of in every traced benchmark run.  These
tests import ``perfbench`` modules and change none of them.
"""

import sys
from pathlib import Path

from splinespectra import cli

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import layers
    from workloads import job_argv
finally:
    sys.path.remove(PERFBENCH)

LINE = "stopbands --method riga --p 2 --block 5 --elements 20"


def test_traced_job_runs_and_uninstall_restores_every_binding(tmp_path):
    before = layers.bindings()
    tracer = layers.install_tracer()
    tracer.job = 0
    try:
        during = layers.bindings()
        wrapped = {k for k, obj in during.items() if obj is not before[k]}
        assert cli.main(job_argv(LINE, str(tmp_path / "job0"))) == 0
    finally:
        tracer.uninstall()
    after = layers.bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    for key in [("splinespectra.analysis", "span_basis_rows"),
                ("splinespectra.assembly", "span_basis_rows"),
                *(("SymmetricBandedMatrix", name)
                  for name in ("add_symmetric_block", "to_dense", "to_sparse"))]:
        assert key in wrapped
    # one basis evaluation per assembly, one stacked scatter per matrix
    metrics = layers.layer_metrics(tracer, {0: LINE})
    assert metrics["assembly.assemble_layout.calls"] == 1
    assert metrics["splines.span_basis_rows.calls"] == 1
    assert metrics["assembly.add_symmetric_block.calls"] == 2
