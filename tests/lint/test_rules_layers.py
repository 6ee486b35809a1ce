"""RPR501/502: the architecture gate, driven by on-disk fixture trees."""

from __future__ import annotations

import pathlib

from repro.lint import LAYERS, layer_of, lint_paths
from tests.lint.util import codes

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestLayerTable:
    def test_foundation_below_policy_below_app(self):
        sim = layer_of("repro.sim.engine")
        qos = layer_of("repro.qos.tokens")
        cli = layer_of("repro.cli")
        assert sim is not None and qos is not None and cli is not None
        assert sim[0] < qos[0] < cli[0]

    def test_longest_prefix_rehomes_harness_submodules(self):
        # The qos package is policy, but the harness prefix
        # repro.qos.soak is re-homed into the experiment layer.
        assert layer_of("repro.qos.tokens")[1] == "policy"
        assert layer_of("repro.qos.soak")[1] == "experiment"
        assert layer_of("repro.qos.soak.runner")[1] == "experiment"

    def test_bare_repro_is_exact_only(self):
        assert layer_of("repro")[1] == "app"
        # "repro" must not swallow arbitrary submodules as a prefix.
        assert layer_of("repro.nosuchpkg") is None

    def test_unmapped_modules_unconstrained(self):
        assert layer_of("tests.lint.util") is None
        assert layer_of("numpy") is None

    def test_table_mentions_every_shipped_package(self):
        prefixes = {p for _, ps in LAYERS for p in ps}
        for pkg in ["repro.sim", "repro.core", "repro.pvfs", "repro.qos",
                    "repro.straggler", "repro.faults", "repro.cluster",
                    "repro.kernels", "repro.workload", "repro.lint"]:
            assert pkg in prefixes, pkg


class TestUpwardImport:
    def test_sim_importing_qos_is_flagged(self):
        fs = lint_paths([str(FIXTURES / "layering" / "src")],
                        select=["RPR501"])
        assert codes(fs) == ["RPR501"]
        assert "bad_upward" in fs[0].path
        assert "foundation" in fs[0].message and "policy" in fs[0].message

    def test_deferred_upward_import_is_exempt(self):
        fs = lint_paths([str(FIXTURES / "layering" / "src")],
                        select=["RPR501"])
        assert all("good_deferred" not in f.path for f in fs)


class TestImportCycle:
    def test_two_module_cycle_flagged_on_both_edges(self):
        fs = lint_paths([str(FIXTURES / "cycle" / "src")],
                        select=["RPR502"])
        assert codes(fs) == ["RPR502", "RPR502"]
        assert {pathlib.Path(f.path).name for f in fs} == {
            "alpha.py", "beta.py"}
        assert "repro.alpha" in fs[0].message
        assert "repro.beta" in fs[0].message

    def test_real_tree_is_acyclic(self):
        repo_root = pathlib.Path(__file__).resolve().parents[2]
        fs = lint_paths([str(repo_root / "src")], select=["RPR502"])
        assert fs == [], "\n".join(f.format() for f in fs)
