"""Files, handles, synthetic data, metadata server."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pvfs import FileHandle, MetadataServer, PVFSError, PVFSFile, SyntheticData
from repro.pvfs.layout import StripeLayout

MB = 1024 * 1024


class TestSyntheticData:
    def test_deterministic(self):
        a = SyntheticData(5).read(0, 800)
        b = SyntheticData(5).read(0, 800)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            SyntheticData(1).read(0, 800), SyntheticData(2).read(0, 800)
        )

    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            SyntheticData().read(3, 8)
        with pytest.raises(ValueError):
            SyntheticData().read(0, 7)

    def test_empty_read(self):
        assert SyntheticData().read(0, 0).size == 0

    @given(
        total=st.integers(min_value=1, max_value=5000),
        cut=st.integers(min_value=0, max_value=5000),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_access_consistency(self, total, cut, seed):
        """read(0,N) == read(0,k) ++ read(k,N−k) for any element cut."""
        cut = min(cut, total)
        s = SyntheticData(seed)
        whole = s.read(0, total * 8)
        parts = np.concatenate([s.read(0, cut * 8), s.read(cut * 8, (total - cut) * 8)])
        assert np.array_equal(whole, parts)


class TestPVFSFile:
    def _file(self, **kw):
        defaults = dict(
            name="/f", size=800, layout=StripeLayout(100, 2),
            synthetic=SyntheticData(0),
        )
        defaults.update(kw)
        return PVFSFile(**defaults)

    def test_size_data_consistency_enforced(self):
        with pytest.raises(ValueError):
            PVFSFile(name="/f", size=10, layout=StripeLayout(10, 1),
                     data=np.zeros(10))  # 80 bytes, not 10

    def test_read_bytes_as_array_from_data(self):
        data = np.arange(100, dtype=np.float64)
        f = PVFSFile(name="/f", size=800, layout=StripeLayout(100, 1), data=data)
        out = f.read_bytes_as_array(80, 160)
        assert np.array_equal(out, data[10:30])

    def test_read_outside_extent_rejected(self):
        f = self._file()
        with pytest.raises(ValueError):
            f.read_bytes_as_array(0, 801)
        with pytest.raises(ValueError):
            f.read_bytes_as_array(-8, 16)

    def test_size_only_file_without_provider_rejects_reads(self):
        f = self._file(synthetic=None)
        assert not f.has_content
        with pytest.raises(ValueError, match="size-only"):
            f.read_bytes_as_array(0, 8)


class TestFileHandle:
    def test_handles_unique(self):
        f = PVFSFile(name="/f", size=0, layout=StripeLayout(10, 1))
        h1 = FileHandle.for_file(f)
        h2 = FileHandle.for_file(f)
        assert h1.handle_id != h2.handle_id

    def test_meta_roundtrip(self):
        f = PVFSFile(name="/f", size=0, layout=StripeLayout(10, 1),
                     meta={"width": 512})
        assert FileHandle.for_file(f).kernel_meta() == {"width": 512}

    def test_request_meta_overrides_file_attributes(self):
        f = PVFSFile(name="/f", size=0, layout=StripeLayout(10, 1),
                     meta={"width": 512, "depth": 2})
        fh = FileHandle.for_file(f)
        assert fh.kernel_meta({"width": 64}) == {"width": 64, "depth": 2}
        assert fh.kernel_meta() == {"width": 512, "depth": 2}

    def test_none_when_file_and_request_meta_are_empty(self):
        fh = FileHandle.for_file(PVFSFile(name="/f", size=0,
                                          layout=StripeLayout(10, 1)))
        assert fh.kernel_meta() is None
        assert fh.kernel_meta({}) is None
        assert fh.kernel_meta({"width": 8}) == {"width": 8}


class TestMetadataServer:
    def test_create_open_stat(self):
        mds = MetadataServer(n_io_servers=2, default_stripe_size=4 * MB)
        mds.create("/a", size=10 * MB)
        fh = mds.open("/a")
        assert fh.size == 10 * MB
        st_ = mds.stat("/a")
        assert st_["n_servers"] == 2
        assert st_["has_content"]  # synthetic provider attached
        assert "/a" in mds and mds.listdir() == ["/a"]

    def test_duplicate_create_rejected(self):
        mds = MetadataServer(1, 1024)
        mds.create("/a", size=10)
        with pytest.raises(PVFSError):
            mds.create("/a", size=10)

    def test_missing_lookups(self):
        mds = MetadataServer(1, 1024)
        with pytest.raises(PVFSError):
            mds.open("/missing")
        with pytest.raises(PVFSError):
            mds.unlink("/missing")

    def test_unlink(self):
        mds = MetadataServer(1, 1024)
        mds.create("/a", size=1)
        mds.unlink("/a")
        assert "/a" not in mds

    def test_data_overrides_size(self):
        mds = MetadataServer(1, 1024)
        f = mds.create("/a", size=999, data=np.zeros(4))
        assert f.size == 32

    def test_narrow_file_on_chosen_server(self):
        mds = MetadataServer(n_io_servers=4, default_stripe_size=1024)
        f = mds.create("/a", size=10 * 1024, n_servers=1, first_server=2)
        assert all(p.server == 2 for p in f.layout.map_extent(0, f.size))

    def test_width_wraps_from_first_server(self):
        mds = MetadataServer(n_io_servers=4, default_stripe_size=1024)
        f = mds.create("/a", size=4096, n_servers=2, first_server=3)
        servers = {p.server for p in f.layout.map_extent(0, 4096)}
        assert servers == {3, 0}

    def test_bad_first_server(self):
        mds = MetadataServer(2, 1024)
        with pytest.raises(PVFSError):
            mds.create("/a", size=1, first_server=5)
