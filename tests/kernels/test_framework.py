"""Kernel framework: state bag, checkpoints, registry, cost models, calibration."""

import numpy as np
import pytest

from repro.kernels import (
    Kernel,
    KernelCheckpoint,
    KernelCostModel,
    KernelExecutionError,
    KernelRegistry,
    KernelState,
    SumKernel,
    calibrate_rate,
    calibration_table,
    default_registry,
    get_kernel,
    list_kernels,
)
from repro.kernels.costs import MB, ack_result, identity_result, make_paper_model


class TestKernelState:
    def test_set_get(self):
        s = KernelState()
        s["x"] = 1.5
        s["arr"] = np.arange(3)
        assert s["x"] == 1.5
        assert "arr" in s and "missing" not in s
        assert s.get("missing", 7) == 7
        assert s.names() == ["x", "arr"]
        assert len(s) == 2

    def test_missing_variable_raises(self):
        with pytest.raises(KernelExecutionError):
            KernelState()["nope"]

    def test_bad_name_rejected(self):
        s = KernelState()
        with pytest.raises(KernelExecutionError):
            s[""] = 1

    def test_uncheckpointable_type_rejected(self):
        s = KernelState()
        with pytest.raises(KernelExecutionError):
            s["bad"] = object()
        with pytest.raises(KernelExecutionError):
            s["bad_list"] = [object()]


class TestKernelCheckpoint:
    def test_capture_restore_roundtrip(self):
        s = KernelState()
        s["acc"] = 2.5
        s["n"] = 7
        s["arr"] = np.array([1.0, 2.0])
        cp = KernelCheckpoint.capture("sum", 100, s)
        assert cp.kernel == "sum"
        assert cp.bytes_done == 100
        restored = cp.restore()
        assert restored["acc"] == 2.5
        assert restored["n"] == 7
        assert np.array_equal(restored["arr"], [1.0, 2.0])

    def test_capture_copies_arrays(self):
        s = KernelState()
        arr = np.array([1.0])
        s["a"] = arr
        cp = KernelCheckpoint.capture("k", 0, s)
        arr[0] = 99.0
        assert cp.restore()["a"][0] == 1.0

    def test_nbytes_accounts_array_payloads(self):
        s = KernelState()
        s["a"] = np.zeros(1000)
        cp = KernelCheckpoint.capture("k", 0, s)
        assert cp.nbytes >= 8000

    def test_resume_wrong_kernel_rejected(self):
        k = SumKernel()
        cp = KernelCheckpoint(kernel="gaussian2d", bytes_done=0, records=())
        with pytest.raises(KernelExecutionError, match="gaussian2d"):
            k.resume(cp)


class TestStateFrom:
    """Either side continues a kernel from a checkpoint or from meta."""

    def test_no_checkpoint_starts_from_meta(self):
        state = get_kernel("gaussian2d").state_from(None, {"width": 4})
        assert state["width"] == 4

    def test_records_free_checkpoint_starts_from_meta(self):
        # A timing-only run's checkpoint carries progress, not variables.
        cp = KernelCheckpoint(kernel="gaussian2d", bytes_done=64, records=())
        state = get_kernel("gaussian2d").state_from(cp, {"width": 4})
        assert state["width"] == 4

    def test_checkpoint_with_records_resumes_and_ignores_meta(self):
        k = get_kernel("gaussian2d")
        cp = k.checkpoint(k.init_state({"width": 8}), 0)
        assert k.state_from(cp, {"width": 4})["width"] == 8
        with pytest.raises(KernelExecutionError, match="gaussian2d"):
            SumKernel().state_from(cp)


class TestRegistry:
    def test_default_registry_has_paper_kernels(self):
        names = list_kernels()
        assert "sum" in names and "gaussian2d" in names
        assert len(names) >= 9

    def test_instances_cached(self):
        assert get_kernel("sum") is get_kernel("sum")

    def test_unknown_kernel_raises(self):
        with pytest.raises(KernelExecutionError, match="unknown kernel"):
            get_kernel("nope")

    def test_duplicate_registration_rejected(self):
        reg = KernelRegistry()
        reg.register(SumKernel)
        with pytest.raises(KernelExecutionError, match="already registered"):
            reg.register(SumKernel)

    def test_fresh_shares_factories_not_instances(self):
        reg = default_registry.fresh()
        assert "sum" in reg
        assert reg.get("sum") is not default_registry.get("sum")

    def test_register_factory(self):
        reg = KernelRegistry()
        reg.register_factory("custom_sum", lambda: SumKernel(rate=123.0))
        assert reg.get("custom_sum").rate == 123.0


class TestCostModel:
    def test_paper_models(self):
        sum_model = make_paper_model("sum")
        assert sum_model.rate == 860 * MB
        assert sum_model.h(10**9) == 8.0
        gauss = make_paper_model("gaussian2d")
        assert gauss.rate == 80 * MB
        assert gauss.h(512 * MB) == 4096.0
        with pytest.raises(KeyError):
            make_paper_model("nope")

    def test_compute_time(self):
        m = make_paper_model("gaussian2d")
        assert m.compute_time(80 * MB) == pytest.approx(1.0)
        assert m.compute_time(80 * MB, capability=40 * MB) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            m.compute_time(-1)

    def test_result_helpers(self):
        assert ack_result(1e12) == 4096.0
        assert identity_result(1234.0) == 1234.0

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelCostModel(name="x", rate=0, result_bytes=lambda x: 0)


class TestCalibration:
    def test_calibrate_returns_positive_rate(self):
        rate = calibrate_rate(SumKernel(), nbytes=1 * MB, repeats=1)
        assert rate > 0

    def test_table_includes_paper_rates(self):
        rows = calibration_table(nbytes=1 * MB)
        by_name = {r["kernel"]: r for r in rows}
        assert by_name["sum"]["paper_mb_s"] == 860.0
        assert by_name["gaussian2d"]["paper_mb_s"] == 80.0
        assert all(r["measured_mb_s"] > 0 for r in rows)

    def test_kernel_without_name_rejected(self):
        class Nameless(Kernel):
            def init_state(self, meta=None):  # pragma: no cover
                return KernelState()

            def process_chunk(self, state, chunk):  # pragma: no cover
                pass

            def finalize(self, state):  # pragma: no cover
                return None

        with pytest.raises(KernelExecutionError):
            Nameless()
