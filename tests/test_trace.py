"""Trace container invariants and CSR bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ir import TraceBuilder


def build_trace():
    tb = TraceBuilder(["X", "Y"], [10, 20])
    tb.record_read(1, 5)
    tb.record_read(1, 6)
    tb.commit_instance(0, 0, 3, False)
    tb.commit_instance(0, 0, 4, False)  # no reads
    tb.record_read(0, 3)
    tb.commit_instance(1, 1, 19, True)
    return tb.freeze()


class TestBuilder:
    def test_shapes(self):
        trace = build_trace()
        assert trace.n_instances == 3
        assert trace.n_reads == 3
        assert list(trace.r_ptr) == [0, 2, 2, 3]

    def test_reads_of(self):
        trace = build_trace()
        assert trace.reads_of(0) == [(1, 5), (1, 6)]
        assert trace.reads_of(1) == []
        assert trace.reads_of(2) == [(0, 3)]

    def test_instances_iterator(self):
        rows = list(build_trace().instances())
        assert rows[0] == (0, 0, 3, [(1, 5), (1, 6)])
        assert rows[2][0] == 1

    def test_reduction_mask(self):
        trace = build_trace()
        assert list(trace.reduction_mask) == [False, False, True]

    def test_array_id_lookup(self):
        trace = build_trace()
        assert trace.array_id("Y") == 1
        with pytest.raises(ValueError):
            trace.array_id("Z")

    def test_uncommitted_reads_rejected(self):
        tb = TraceBuilder(["X"], [4])
        tb.record_read(0, 1)
        with pytest.raises(RuntimeError, match="uncommitted"):
            tb.freeze()

    def test_abort_instance_discards(self):
        tb = TraceBuilder(["X"], [4])
        tb.record_read(0, 1)
        tb.abort_instance()
        trace = tb.freeze()
        assert trace.n_reads == 0

    def test_names_sizes_mismatch(self):
        with pytest.raises(ValueError):
            TraceBuilder(["X"], [4, 5])


class TestValidate:
    def test_out_of_range_flat_caught(self):
        tb = TraceBuilder(["X"], [4])
        tb.commit_instance(0, 0, 7, False)  # 7 >= size 4
        with pytest.raises(ValueError, match="out of range"):
            tb.freeze()

    def test_empty_trace_is_valid(self):
        trace = TraceBuilder([], []).freeze()
        assert trace.n_instances == 0
        trace.validate()

    def test_validate_rejects_corrupt_rptr(self):
        trace = build_trace()
        bad = type(trace)(
            array_names=trace.array_names,
            array_sizes=trace.array_sizes,
            stmt_ids=trace.stmt_ids,
            w_arr=trace.w_arr,
            w_flat=trace.w_flat,
            r_ptr=np.array([0, 3, 2, 3]),
            r_arr=trace.r_arr,
            r_flat=trace.r_flat,
            reduction_mask=trace.reduction_mask,
        )
        with pytest.raises(ValueError, match="nondecreasing"):
            bad.validate()
