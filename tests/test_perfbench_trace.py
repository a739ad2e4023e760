"""The benchmark's traced run reports every layer metric as a finite number.

perfbench records spans by wrapping qisim functions at the module attributes
the program looks up at call time. A call that reaches a layer through a
binding perfbench does not wrap leaves that layer without spans; its
per-call mean is then NaN, and the run's last line, which must be strict
JSON, is not.
"""

import json
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_traced_coverage_pass_gives_strict_json_metrics(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import bench
    import spans
    import workloads

    tracer = spans.Tracer()
    with tracer.installed():
        tracer.op_id = spans.COVERAGE_OP
        workloads.coverage_pass(str(tmp_path), 1)
    # the probes the traced run adds besides its spans, as finite placeholders
    timings = ("raster_scan.w1_s", "raster_scan.w2_s", "run_sweep.w1_s", "run_sweep.w2_s")
    pool = dict.fromkeys(timings, 1.0)
    extra = {
        "overhead_frac": 0.0,
        "poisson_mpulses_per_s": 1.0,
        "poisson_useful_frac": 1.0,
        "alloc_peak_mb": 1.0,
        "pool": pool,
    }
    metrics = bench.layer_metrics(spans.LayerView(tracer), extra, 80e6)
    json.dumps(metrics, allow_nan=False)
