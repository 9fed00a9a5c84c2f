"""The BLAS thread policy of ``import repro``.

Each case runs a fresh interpreter, does a 504x64 GEMM (the size of a
GCN layer on or1200_if) and counts the OpenBLAS threads from
``/proc/self/task``: every task that is not a Python thread is an
OpenBLAS helper, and the main thread runs BLAS work too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or len(os.sched_getaffinity(0)) < 2,
    reason="counts threads via /proc; needs 2 or more usable CPUs",
)

#: Defines ``blas_threads()`` in the child interpreter.
PRELUDE = textwrap.dedent('''
    import json, os, threading

    def blas_threads():
        import numpy as np
        a = np.ones((504, 64))
        a @ a.T
        return (len(os.listdir("/proc/self/task"))
                - threading.active_count() + 1)
''')

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                  "OMP_NUM_THREADS")


def _run(body: str, **environ: str) -> dict:
    """Run ``PRELUDE + body`` with none of the BLAS variables set
    except ``environ``; returns the JSON of its last stdout line."""
    env = {key: value for key, value in os.environ.items()
           if key not in BLAS_VARIABLES}
    env.update(environ)
    source = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


IMPORT_REPRO = '''
    before = dict(os.environ)
    import repro
    print(json.dumps({"threads": blas_threads(),
                      "environ_unchanged": dict(os.environ) == before}))
'''


def test_import_repro_loads_blas_single_threaded():
    result = _run(IMPORT_REPRO)
    assert result == {"threads": 1, "environ_unchanged": True}


@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS",
                                      "OMP_NUM_THREADS"])
def test_user_thread_count_is_honoured(variable):
    result = _run(IMPORT_REPRO, **{variable: "2"})
    assert result == {"threads": 2, "environ_unchanged": True}


def test_numpy_imported_first_keeps_its_configuration():
    default = _run('''
        print(json.dumps({"threads": blas_threads()}))
    ''')["threads"]
    assert default > 1
    result = _run('''
        import numpy
        import repro
        print(json.dumps({"threads": blas_threads()}))
    ''')
    assert result == {"threads": default}


def test_forked_pool_worker_is_single_threaded():
    result = _run('''
        import repro
        from repro.utils.workerpool import PoolPolicy, run_supervised

        [unit] = run_supervised(lambda _: blas_threads(), [0],
                                PoolPolicy(jobs=1))
        assert unit.ok, unit.error
        print(json.dumps({"threads": unit.value}))
    ''')
    assert result == {"threads": 1}


DIGESTS = '''
    import dataclasses, hashlib
    import numpy as np

    from repro import AnalyzerConfig, FaultCriticalityAnalyzer, build_design
    from repro.explain import GNNExplainer
    from repro.nn import TrainingConfig

    short = TrainingConfig(epochs=40)
    analyzer = FaultCriticalityAnalyzer(
        build_design("sdram"),
        AnalyzerConfig(n_workloads=3, workload_cycles=40,
                       training=short, regressor_training=short),
    )

    def sha(*arrays):
        digest = hashlib.sha256()
        for array in arrays:
            digest.update(np.ascontiguousarray(array).tobytes())
        return digest.hexdigest()

    digests = {}
    for name, model, output in [
        ("classifier", analyzer.classifier,
         lambda model: model.predict_proba()),
        ("regressor", analyzer.regressor,
         lambda model: model.predict()),
    ]:
        digests[name] = {
            "parameters": sha(*[parameter.value for parameter
                                in model.model.parameters()]),
            "history": hashlib.sha256(repr(dataclasses.asdict(
                model.history)).encode()).hexdigest(),
            "predictions": sha(output(model)),
        }
    explanations = GNNExplainer(analyzer.classifier, analyzer.data,
                                seed=0).explain_many(
        analyzer.sample_explain_nodes(1)[:2], batch_size=2)
    assert len(explanations) == 2
    digests["explanations"] = sha(*[
        array for explanation in explanations
        for array in (explanation.feature_scores,
                      np.array(explanation.edge_importance))
    ])
    print(json.dumps({"threads": blas_threads(), "digests": digests}))
'''


def test_results_bitwise_identical_across_blas_thread_counts():
    """In-process tests import numpy first and keep multithreaded
    BLAS while the CLI runs single-threaded: both must agree."""
    one = _run(DIGESTS, OPENBLAS_NUM_THREADS="1")
    two = _run(DIGESTS, OPENBLAS_NUM_THREADS="2")
    assert (one["threads"], two["threads"]) == (1, 2)
    assert one["digests"] == two["digests"]
