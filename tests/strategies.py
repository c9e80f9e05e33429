"""Hypothesis strategies shared by the differential fidelity suites.

One generator instead of hand-picked cases: `machine_configs` and
`scenarios` draw valid points from the paper's parameter space
(PE counts x page sizes x cache sizes x replacement policies x
partitions x reduction strategies), and `traces` builds small
synthetic access traces directly through
:class:`~repro.ir.trace.TraceBuilder` — including subrange-reduction
folds (repeated writes to accumulator cells under ``reduction_mask``)
and, in the unconstrained mode, reads of elements only written later
in the trace (the istructure-defer pattern).

Two consumers with different validity envelopes share these:

* ``test_vec_fidelity.py`` (the columnar engine vs the scalar
  oracle) replays traces on order-free engines, so it draws
  ``traces()`` unconstrained;
* ``test_timed_fidelity.py`` replays on the discrete-event machine,
  where a read can park forever if its producer never completes, so it
  draws ``traces(timed_safe=True)``: single-assignment writes, and
  reads that touch only pure-input arrays or elements already written
  by an *earlier* instance — progress is then inductively guaranteed.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.backends import Scenario
from repro.core import MachineConfig, named_scheme
from repro.ir.trace import Trace, TraceBuilder

__all__ = [
    "CACHE_POLICIES",
    "PARTITIONS",
    "REDUCTION_STRATEGIES",
    "cyclic_traces",
    "machine_configs",
    "scenarios",
    "sweep_traces",
    "traces",
]

PARTITIONS = ("modulo", "block", "block-cyclic:2", "block-cyclic:4")
CACHE_POLICIES = ("lru", "fifo", "random", "direct")
REDUCTION_STRATEGIES = ("host", "subrange")


@st.composite
def machine_configs(
    draw,
    *,
    cache_policies: tuple[str, ...] = CACHE_POLICIES,
    max_pes: int = 9,
) -> MachineConfig:
    """A valid machine configuration anywhere in the paper's space.

    Small cache sizes against small page sizes are deliberately
    over-represented: capacities of 1-4 pages force evictions, which
    is where replacement policies actually disagree.
    """
    return MachineConfig(
        n_pes=draw(st.integers(min_value=1, max_value=max_pes)),
        page_size=draw(st.sampled_from((2, 4, 8, 16, 32))),
        # 2-element caches (capacity 1 at the smallest page size) put
        # maximum eviction pressure on the FIFO/LRU closed forms.
        cache_elems=draw(st.sampled_from((0, 2, 4, 8, 16, 32, 64, 256))),
        cache_policy=draw(st.sampled_from(cache_policies)),
        partition=named_scheme(draw(st.sampled_from(PARTITIONS))),
        reduction_strategy=draw(st.sampled_from(REDUCTION_STRATEGIES)),
    )


@st.composite
def scenarios(
    draw,
    *,
    backend: str = "untimed",
    topologies: tuple[str, ...] = ("crossbar",),
    modes: tuple[str, ...] = ("blocking",),
    **config_kwargs,
) -> Scenario:
    """A valid :class:`Scenario` for ``backend`` (untimed by default)."""
    return Scenario(
        config=draw(machine_configs(**config_kwargs)),
        backend=backend,
        topology=draw(st.sampled_from(topologies)),
        mode=draw(st.sampled_from(modes)),
    )


@st.composite
def traces(
    draw,
    *,
    timed_safe: bool = False,
    max_arrays: int = 4,
    max_instances: int = 48,
    max_reads_per_instance: int = 4,
) -> Trace:
    """A small synthetic access trace (validated by ``freeze()``).

    Arrays split into *written* arrays and at least one pure-input
    array.  Roughly a quarter of instances are reduction folds into a
    small pool of accumulator cells, so the subrange strategy's
    placement and combine paths are always in play.  With
    ``timed_safe=True`` the trace additionally respects single
    assignment and never reads ahead of its producers (see module
    docstring); unconstrained traces freely read cells that a later
    instance writes — untimed replay ignores ordering, and the timed
    machine must never be handed such a trace.
    """
    n_arrays = draw(st.integers(min_value=2, max_value=max_arrays))
    sizes = tuple(
        draw(
            st.lists(
                st.integers(min_value=4, max_value=96),
                min_size=n_arrays,
                max_size=n_arrays,
            )
        )
    )
    names = tuple(f"A{i}" for i in range(n_arrays))
    builder = TraceBuilder(names, sizes)
    n_written = draw(st.integers(min_value=1, max_value=n_arrays - 1))
    written_ids = tuple(range(n_written))
    input_ids = tuple(range(n_written, n_arrays))

    # Accumulator pool for reduction folds (repeated writes are exempt
    # from single assignment via the reduction mask).
    accumulators: list[tuple[int, int]] = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        arr = draw(st.sampled_from(written_ids))
        accumulators.append((arr, draw(st.integers(0, sizes[arr] - 1))))
    accumulators = list(dict.fromkeys(accumulators))

    # Cells still writable under single assignment (timed_safe mode).
    free_cells = [
        (arr, flat)
        for arr in written_ids
        for flat in range(sizes[arr])
        if (arr, flat) not in accumulators
    ]
    completed: list[tuple[int, int]] = []

    n_instances = draw(st.integers(min_value=0, max_value=max_instances))
    for _ in range(n_instances):
        is_reduction = bool(accumulators) and draw(
            st.integers(min_value=0, max_value=3)
        ) == 0
        if is_reduction:
            w_arr, w_flat = draw(st.sampled_from(accumulators))
        elif timed_safe:
            if not free_cells:
                break  # every cell written once already
            w_arr, w_flat = free_cells.pop(
                draw(st.integers(0, len(free_cells) - 1))
            )
        else:
            w_arr = draw(st.sampled_from(written_ids))
            w_flat = draw(st.integers(0, sizes[w_arr] - 1))
        for _ in range(
            draw(st.integers(min_value=0, max_value=max_reads_per_instance))
        ):
            if timed_safe:
                if completed and draw(st.booleans()):
                    r_arr, r_flat = draw(st.sampled_from(completed))
                else:
                    r_arr = draw(st.sampled_from(input_ids))
                    r_flat = draw(st.integers(0, sizes[r_arr] - 1))
            else:
                # Unconstrained: any cell of any array, including ones
                # a later instance writes (istructure defers) or the
                # accumulators themselves.
                r_arr = draw(st.integers(0, n_arrays - 1))
                r_flat = draw(st.integers(0, sizes[r_arr] - 1))
            builder.record_read(r_arr, r_flat)
        builder.commit_instance(
            draw(st.integers(min_value=0, max_value=3)),
            w_arr,
            w_flat,
            is_reduction,
        )
        if not is_reduction:
            completed.append((w_arr, w_flat))
    return builder.freeze()


@st.composite
def sweep_traces(
    draw,
    *,
    min_sweeps: int = 2,
    max_sweeps: int = 3,
) -> Trace:
    """Back-to-back affine sweeps over one shared input array.

    The shape the warm-cache super-op closed form exists for: each
    sweep compacts into its own super-op, and every sweep after the
    first enters with the cache still warm from the previous one —
    touching overlapping pages of the same array, so the seeded
    reuse-distance decisions (LRU) and the warm-FIFO wall are both
    genuinely exercised.  Read streams are shifted well away from the
    write stream so a healthy share of reads is *nonlocal* under any
    partition (local reads never reach a cache), and a second read
    stream shifted further still produces long-gap page revisits
    within one op — the FIFO eviction-epoch arithmetic's home turf.
    ``min_sweeps=1`` gives the cold single-op variant.
    """
    n = draw(st.integers(min_value=96, max_value=224))
    n_sweeps = draw(st.integers(min_sweeps, max_sweeps))
    shift = draw(st.sampled_from((8, 24, 40)))
    extra = draw(st.sampled_from((0, 16, 32, 48)))
    offsets = [0] + ([extra] if extra else [])
    src_size = n + shift + extra + 4
    builder = TraceBuilder(("out", "src"), (n + 4, src_size))
    for _ in range(n_sweeps):
        for i in range(n):
            for off in offsets:
                builder.record_read(1, i + shift + off)
            builder.commit_instance(0, 0, i, False)
    return builder.freeze()


@st.composite
def cyclic_traces(
    draw,
    *,
    timed_safe: bool = False,
    max_blocks: int = 3,
    max_body: int = 4,
    max_trips: int = 10,
    max_reads_per_stmt: int = 3,
) -> Trace:
    """A trace with genuine cyclic structure for the super-op wall.

    Interleaves irregular "noise" instances with up to ``max_blocks``
    cyclic blocks: a body of affine statements (write and read
    addresses advancing by a per-stream stride every trip, strides 0
    and negative included) repeated 2..``max_trips`` times, optionally
    with an *imperfect tail* (a partial final trip) and *nested*
    bodies (an inner pattern repeated inside each trip, so the
    smallest period is a proper divisor of the block).  Bodies may
    fold into reduction accumulators (stride-0 exempt writes).  The
    detector must collapse whatever it can prove and leave the rest in
    the residual; the fidelity suites only require that replaying the
    compacted view is bit-identical, never that detection succeeds.

    ``timed_safe=True`` mirrors :func:`traces`: single-assignment
    writes (each block's write run comes from a bump allocator, so
    runs never collide) and reads that touch only pure-input arrays or
    cells some earlier instance completed.
    """
    n_written = draw(st.integers(min_value=1, max_value=2))
    n_inputs = draw(st.integers(min_value=1, max_value=2))
    n_arrays = n_written + n_inputs
    sizes = [
        draw(st.integers(min_value=64, max_value=192))
        for _ in range(n_arrays)
    ]
    names = tuple(f"A{i}" for i in range(n_arrays))
    builder = TraceBuilder(names, sizes)
    written_ids = tuple(range(n_written))
    input_ids = tuple(range(n_written, n_arrays))

    # Bump allocator per written array: timed_safe write runs reserve
    # fresh cells so single assignment holds by construction.
    next_free = [0] * n_arrays
    accumulators: list[tuple[int, int]] = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        arr = draw(st.sampled_from(written_ids))
        if next_free[arr] < sizes[arr]:
            accumulators.append((arr, next_free[arr]))
            next_free[arr] += 1
    completed: list[tuple[int, int]] = []

    def emit_noise() -> None:
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            is_reduction = bool(accumulators) and draw(st.booleans())
            if is_reduction:
                w_arr, w_flat = draw(st.sampled_from(accumulators))
            else:
                w_arr = draw(st.sampled_from(written_ids))
                if timed_safe:
                    if next_free[w_arr] >= sizes[w_arr]:
                        continue
                    w_flat = next_free[w_arr]
                    next_free[w_arr] += 1
                else:
                    w_flat = draw(st.integers(0, sizes[w_arr] - 1))
            for _ in range(draw(st.integers(0, max_reads_per_stmt))):
                if timed_safe:
                    if completed and draw(st.booleans()):
                        r_arr, r_flat = draw(st.sampled_from(completed))
                    else:
                        r_arr = draw(st.sampled_from(input_ids))
                        r_flat = draw(st.integers(0, sizes[r_arr] - 1))
                else:
                    r_arr = draw(st.integers(0, n_arrays - 1))
                    r_flat = draw(st.integers(0, sizes[r_arr] - 1))
                builder.record_read(r_arr, r_flat)
            builder.commit_instance(
                draw(st.integers(0, 3)), w_arr, w_flat, is_reduction
            )
            if not is_reduction:
                completed.append((w_arr, w_flat))

    def affine_read(trips: int) -> tuple[int, int, int]:
        """(arr, base, stride) staying in bounds for ``trips`` trips."""
        if timed_safe:
            if completed and draw(st.booleans()):
                arr, flat = draw(st.sampled_from(completed))
                return arr, flat, 0  # stride-0 re-read of a done cell
            arr = draw(st.sampled_from(input_ids))
        else:
            arr = draw(st.integers(0, n_arrays - 1))
        stride = draw(st.sampled_from((-2, -1, 0, 1, 2)))
        span = abs(stride) * (trips - 1)
        if span >= sizes[arr]:
            stride, span = 0, 0
        base = draw(st.integers(0, sizes[arr] - 1 - span))
        if stride < 0:
            base += span
        return arr, base, stride

    emit_noise()
    for _ in range(draw(st.integers(min_value=1, max_value=max_blocks))):
        trips = draw(st.integers(min_value=2, max_value=max_trips))
        inner_len = draw(st.integers(min_value=1, max_value=max_body))
        # Nested cycles: each trip may repeat the inner body, so the
        # block's smallest provable period divides its full length.
        inner_reps = draw(st.sampled_from((1, 1, 2, 3)))
        body = []  # (stmt, is_reduction, w_arr, w_base, w_stride, reads)
        aborted = False
        for _ in range(inner_len):
            stmt = draw(st.integers(0, 3))
            is_reduction = bool(accumulators) and (
                draw(st.integers(0, 3)) == 0
            )
            n_slots = (trips + 1) * inner_reps  # +1 trip of tail headroom
            if is_reduction:
                w_arr, w_base = draw(st.sampled_from(accumulators))
                w_stride = 0
            elif timed_safe:
                w_arr = draw(st.sampled_from(written_ids))
                if next_free[w_arr] + n_slots > sizes[w_arr]:
                    aborted = True
                    break
                w_base = next_free[w_arr]
                next_free[w_arr] += n_slots
                w_stride = 1
            else:
                w_arr = draw(st.sampled_from(written_ids))
                w_stride = draw(st.sampled_from((-2, -1, 0, 1, 2)))
                span = abs(w_stride) * (n_slots - 1)
                if span >= sizes[w_arr]:
                    w_stride, span = 0, 0
                w_base = draw(st.integers(0, sizes[w_arr] - 1 - span))
                if w_stride < 0:
                    w_base += span
            reads = tuple(
                affine_read(n_slots)
                for _ in range(draw(st.integers(0, max_reads_per_stmt)))
            )
            body.append((stmt, is_reduction, w_arr, w_base, w_stride, reads))
        if aborted or not body:
            continue
        # The body cycles; a timed_safe statement's streams advance on
        # every emission of that statement (single assignment), while
        # an unconstrained body advances once per *outer* trip — its
        # inner repetitions replay the same addresses verbatim, which
        # is exactly the nested-cycle shape (smallest provable period
        # = the inner body, a proper divisor of the block).
        tail = draw(st.integers(0, len(body) * inner_reps - 1))
        total = trips * len(body) * inner_reps + tail
        slot_counts = [0] * len(body)
        for emitted in range(total):
            step = emitted // (len(body) * inner_reps)
            pos = emitted % len(body)
            stmt, is_red, w_arr, w_base, w_stride, reads = body[pos]
            offset = (
                slot_counts[pos] if (timed_safe and not is_red) else step
            )
            for r_arr, r_base, r_stride in reads:
                builder.record_read(r_arr, r_base + r_stride * offset)
            w_flat = w_base + w_stride * offset
            builder.commit_instance(stmt, w_arr, w_flat, is_red)
            slot_counts[pos] += 1
            if not is_red:
                completed.append((w_arr, w_flat))
        emit_noise()
    return builder.freeze()
