"""Stripe layout correctness, including property-based round-trips."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pvfs import StripeLayout


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            StripeLayout(0, 1)
        with pytest.raises(ValueError):
            StripeLayout(1, 0)
        with pytest.raises(ValueError):
            StripeLayout(1, 2, first_server=2)
        with pytest.raises(ValueError):
            StripeLayout(1, 2, server_list=[0])  # wrong length
        with pytest.raises(ValueError):
            StripeLayout(1, 1, server_list=[-1])

    def test_negative_extent_rejected(self):
        layout = StripeLayout(10, 2)
        with pytest.raises(ValueError):
            layout.map_extent(-1, 5)
        with pytest.raises(ValueError):
            layout.map_extent(0, -5)
        with pytest.raises(ValueError):
            layout.server_of(-1)


class TestRoundRobin:
    def test_server_of_walks_stripes(self):
        layout = StripeLayout(stripe_size=10, n_servers=3)
        assert [layout.server_of(i * 10) for i in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_first_server_rotation(self):
        layout = StripeLayout(stripe_size=10, n_servers=3, first_server=2)
        assert [layout.server_of(i * 10) for i in range(3)] == [2, 0, 1]

    def test_server_list_remaps_to_global(self):
        layout = StripeLayout(stripe_size=10, n_servers=2, server_list=[5, 9])
        assert layout.server_of(0) == 5
        assert layout.server_of(10) == 9
        assert layout.server_of(20) == 5

    def test_map_extent_pieces(self):
        layout = StripeLayout(stripe_size=10, n_servers=2)
        pieces = layout.map_extent(5, 20)  # crosses two boundaries
        assert [(p.server, p.logical_offset, p.length) for p in pieces] == [
            (0, 5, 5), (1, 10, 10), (0, 20, 5),
        ]

    def test_bytes_per_server(self):
        layout = StripeLayout(stripe_size=10, n_servers=2)
        assert layout.bytes_per_server(0, 40) == {0: 20, 1: 20}
        assert layout.bytes_per_server(0, 15) == {0: 10, 1: 5}

    def test_empty_extent(self):
        layout = StripeLayout(10, 2)
        assert layout.map_extent(7, 0) == []
        assert layout.bytes_per_server(7, 0) == {}


@given(
    stripe_size=st.integers(min_value=1, max_value=1 << 20),
    n_servers=st.integers(min_value=1, max_value=16),
    offset=st.integers(min_value=0, max_value=1 << 30),
    stripes_covered=st.integers(min_value=0, max_value=200),
    tail=st.integers(min_value=0, max_value=1 << 20),
)
@settings(max_examples=200, deadline=None)
def test_extent_partition_property(stripe_size, n_servers, offset,
                                   stripes_covered, tail):
    # Bound the extent in *stripes*, not raw bytes, so a 1-byte stripe
    # cannot blow the piece list up to millions of objects.
    size = min(stripes_covered * stripe_size + tail, 300 * stripe_size)
    """Pieces tile [offset, offset+size) exactly: contiguous, in
    order, no gap, no overlap, each within one stripe, and every
    byte's server agrees with server_of."""
    layout = StripeLayout(stripe_size, n_servers)
    pieces = layout.map_extent(offset, size)

    assert sum(p.length for p in pieces) == size
    position = offset
    for p in pieces:
        assert p.logical_offset == position
        assert p.length > 0
        assert p.server == layout.server_of(p.logical_offset)
        # A piece never crosses a stripe boundary.
        assert (p.logical_offset // stripe_size) == (
            (p.logical_end - 1) // stripe_size
        )
        position = p.logical_end
    assert position == offset + size

    per_server = layout.bytes_per_server(offset, size)
    assert sum(per_server.values()) == size


def _grouped_reference(layout, offset, size):
    """map_extent's pieces, same-server neighbours coalesced, grouped
    by server in logical order."""
    runs = []
    for piece in layout.map_extent(offset, size):
        if runs and runs[-1][0] == piece.server:
            server, start, length = runs[-1]
            runs[-1] = (server, start, length + piece.length)
        else:
            runs.append((piece.server, piece.logical_offset, piece.length))
    grouped = {}
    for server, start, length in runs:
        grouped.setdefault(server, []).append((start, length))
    return grouped


@st.composite
def layouts(draw):
    n_servers = draw(st.integers(min_value=1, max_value=8))
    server_list = draw(st.one_of(
        st.none(),
        # Global indices, repeats allowed: two slots may share a server.
        st.lists(st.integers(min_value=0, max_value=12),
                 min_size=n_servers, max_size=n_servers),
    ))
    return StripeLayout(
        stripe_size=draw(st.integers(min_value=1, max_value=1 << 16)),
        n_servers=n_servers,
        first_server=draw(st.integers(min_value=0, max_value=n_servers - 1)),
        server_list=server_list,
    )


@given(
    layout=layouts(),
    offset=st.integers(min_value=0, max_value=1 << 30),
    stripes_covered=st.integers(min_value=0, max_value=40),
    tail=st.integers(min_value=0, max_value=1 << 16),
    aligned=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_extents_by_server_matches_map_extent(layout, offset, stripes_covered,
                                              tail, aligned):
    if aligned:
        offset -= offset % layout.stripe_size
    size = min(stripes_covered * layout.stripe_size + tail,
               60 * layout.stripe_size)
    grouped = layout.extents_by_server(offset, size)
    reference = _grouped_reference(layout, offset, size)
    assert grouped == reference
    # Same servers in the same first-touch order, not just the same dict.
    assert list(grouped) == list(reference)
    assert layout.bytes_per_server(offset, size) == {
        server: sum(length for _off, length in pieces)
        for server, pieces in reference.items()
    }


def test_extents_by_server_edges():
    layout = StripeLayout(stripe_size=10, n_servers=2, first_server=1,
                          server_list=[4, 7])
    assert layout.extents_by_server(7, 0) == {}
    assert layout.extents_by_server(3, 20) == {7: [(3, 7), (20, 3)],
                                               4: [(10, 10)]}
    # One stripe, up to and one byte past its end.
    assert layout.extents_by_server(10, 10) == {4: [(10, 10)]}
    assert layout.extents_by_server(13, 7) == {4: [(13, 7)]}
    assert layout.extents_by_server(13, 8) == {4: [(13, 7)], 7: [(20, 1)]}
    assert layout.extents_by_server(20, 0) == {}
    assert layout.extents_by_server(0, 1) == {7: [(0, 1)]}


def test_extents_by_server_coalesces_contiguous_runs():
    # Width 1: any extent is one run, however many stripes it spans.
    narrow = StripeLayout(stripe_size=10, n_servers=1, server_list=[3])
    assert narrow.extents_by_server(5, 1000) == {3: [(5, 1000)]}
    assert narrow.extents_by_server(0, 0) == {}
    # Two slots backed by one server: their stripes touch and merge.
    shared = StripeLayout(stripe_size=10, n_servers=3, server_list=[2, 2, 5])
    assert shared.extents_by_server(5, 40) == {2: [(5, 15), (30, 15)],
                                              5: [(20, 10)]}


@pytest.mark.parametrize("offset, size", [(-1, 5), (0, -5), (-3, -3)])
def test_extents_by_server_rejects_negative_extents(offset, size):
    layout = StripeLayout(10, 2)
    with pytest.raises(ValueError) as grouped_err:
        layout.extents_by_server(offset, size)
    with pytest.raises(ValueError) as reference_err:
        layout.map_extent(offset, size)
    assert str(grouped_err.value) == str(reference_err.value)
