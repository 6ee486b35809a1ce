"""The stack imports numpy and the standard library, nothing more.

``pyproject.toml`` declares numpy as the only runtime dependency.  A
fresh interpreter importing the package, the scenario layer and the
CLI must not pull in a package that the declaration leaves out.

numpy itself loads only with the first real byte: the simulation is a
timing model, so a timing-only run never imports it, and a run that
executes its kernels on real data does.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np

import repro
from repro.kernels.registry import default_registry

UNDECLARED = ("networkx", "scipy")


def _fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter on this source tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def test_entry_points_import_no_undeclared_package():
    code = (
        "import sys\n"
        "import repro, repro.scenario, repro.cli\n"
        f"print(sorted(m for m in {UNDECLARED!r} if m in sys.modules))\n"
    )
    assert _fresh(code) == "[]"


def test_timing_only_runs_never_import_numpy():
    code = textwrap.dedent("""
        import json, sys
        import repro, repro.scenario, repro.cli
        from repro.cluster import ClusterTopology, discfarm_config
        from repro.core import Scheme, WorkloadSpec, run_scheme
        from repro.pvfs import IOServer, MetadataServer, PVFSClient
        from repro.scenario import get_scenario, run_scenario
        from repro.sim import Environment

        run_scheme(Scheme.DOSAS, WorkloadSpec(n_requests=4))
        run_scenario(get_scenario("kitchen-sink-chaos"), seeds=(0,))
        env = Environment()
        topo = ClusterTopology(env, discfarm_config(n_storage=1, n_compute=1))
        node = topo.storage_nodes[0]
        mds = MetadataServer(1, 1 << 20)
        mds.create("/w", size=1 << 20)
        server = IOServer(env, node, topo.link_for(node), mds, server_index=0)
        client = PVFSClient(env, topo.compute_node(0), [server], mds)
        env.process(client.write(mds.open("/w")))
        env.run()
        timing_only = "numpy" in sys.modules

        r = run_scheme(Scheme.DOSAS, WorkloadSpec(n_requests=4, execute_kernels=True))
        print(json.dumps({"timing_only": timing_only,
                          "real_bytes": "numpy" in sys.modules,
                          "results": len(r.results)}))
    """)
    seen = json.loads(_fresh(code).splitlines()[-1])
    assert seen["timing_only"] is False
    # The positive control: real bytes load numpy, so the check above
    # cannot pass merely because nothing ran.
    assert seen["real_bytes"] is True
    assert seen["results"] == 4


def test_kernel_dtype_names_resolve_to_the_consumed_dtypes():
    bytewise = {"grep", "entropy", "wordcount"}
    names = default_registry.names()
    assert len(names) == 12
    for name in names:
        expected = np.uint8 if name in bytewise else np.float64
        assert np.dtype(default_registry.get(name).dtype) == np.dtype(expected), name


def test_gauss3_is_the_paper_mask():
    from repro.kernels.gaussian import GAUSS3, GAUSS3_NORM

    np.testing.assert_array_equal(
        GAUSS3, np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]])
    )
    assert GAUSS3.dtype == np.float64
    assert GAUSS3_NORM == 16.0
