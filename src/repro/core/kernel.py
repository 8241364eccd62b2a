"""Compiled batch engine — the sweep-scale tier above the vector engine.

:class:`KernelEngine` runs the exact semantics of
:class:`~repro.core.vector.VectorEngine` (zero-contention functional
replay, same update order, same counters) but lowers the nested-closure
hot loop into :mod:`repro.core.kernels`: module-level functions over
flat preallocated numpy arrays, executable as native code.  Counters
are **bit-identical to the vector engine on every config** — the two
tiers share one fidelity contract against the pipeline (see the
``vector`` module docstring), and the golden corpus plus
``repro-sim verify`` lock kernel-vs-vector equality directly.

Execution legs (fastest available wins, ``REPRO_KERNEL_MODE`` overrides):

* ``jit``    — numba ``@njit(cache=True)`` over the kernels, when numba
  is importable and ``NUMBA_DISABLE_JIT`` is not set;
* ``cc``     — the C port in :mod:`repro.core._ckernel`, compiled once
  with the system C compiler and cached by source hash;
* ``interp`` — the same kernel source as plain Python, always available.

Falling below the requested/expected leg degrades gracefully: one
process-wide warning, never a crash, and the chosen leg is recorded in
the result payload (``pipeline.kernel_mode_id`` in ``stats``) so cached
results from different legs are distinguishable — by provenance and
timing only, never by counters.

State layout (all C-contiguous):

* L1: ``tag``/``tpc``/``fid``/``stamp`` int64 + ``dirty``/``pib``/
  ``rib``/``nsp``/``src`` uint8, one slot per way, set-major
  (:func:`repro.mem.geometry.allocate_flat_cache`);
* L2: ``tag``/``stamp`` int64 + ``dirty`` uint8, same layout;
* history table: int64 counter view
  (:meth:`~repro.common.saturating.SaturatingCounterArray.export_int64`);
* SDP shadow directory + await set: open-addressed int64 maps sized to
  ``next_pow2(2 * (memory_ops + 16))`` — inserts are bounded by L1
  demand misses, so the load factor stays under one half and probes
  always terminate;
* counters: ``K`` (37 int64 event slots) and ``T`` (5x7 per-source
  tally rows, flattened), folded into the shared stats tree only at the
  warmup boundary and the end of the run (the StatGroup flush
  discipline the other batch tier uses).

Everything but the history-table view is reused across runs on the same
trace.  The cache, map and counter arrays form one :class:`KernelState`
arena per (L1 geometry, L2 geometry, map capacity), reset in place at
the start of each run.  The per-memory-op columns (class, PC, line) are
computed once per (trace, length, line size, software prefetch) and the
filter-index columns once per (filter, table shape, hash, degree,
prefetchers); both are read-only.  All of it hangs off a
:class:`_TraceMemo` that holds the trace only weakly and is dropped when
the trace dies or another trace runs, so a finished trace group leaves
nothing behind.  The end-of-run flush of resident prefetched lines runs
inside the kernel (``kernel_flush``) on every leg.
"""

from __future__ import annotations

import os
import warnings
import weakref
from typing import Callable, Optional, Tuple

import numpy as np

from repro.common.hashing import table_index_array
from repro.core import _ckernel
from repro.core import kernels as krn
from repro.core.pipeline import OoOPipeline
from repro.core.vector import _MLP_DIVISOR
from repro.filters.null_filter import NullFilter
from repro.filters.pa_filter import PAFilter
from repro.filters.pc_filter import PCFilter
from repro.mem.bus import TransferKind
from repro.mem.cache import FillSource
from repro.mem.geometry import allocate_flat_cache
from repro.sanitize import SanitizerViolation
from repro.trace.record import InstrClass
from repro.trace.stream import Trace

MODE_JIT = "jit"
MODE_CC = "cc"
MODE_INTERP = "interp"

#: Stable ids recorded in the result payload (``pipeline.kernel_mode_id``).
MODE_IDS = {MODE_INTERP: 0, MODE_CC: 1, MODE_JIT: 2}

#: Environment override: force one leg (``jit`` / ``cc`` / ``interp``).
MODE_ENV = "REPRO_KERNEL_MODE"

_SCHEME_IDS = {
    "modulo": krn.SCHEME_MODULO,
    "fold_xor": krn.SCHEME_FOLD_XOR,
    "multiplicative": krn.SCHEME_MULTIPLICATIVE,
}

_warned: set = set()


def _warn_once(message: str) -> None:
    """The graceful-degradation contract: one warning per process."""
    if message not in _warned:
        _warned.add(message)
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def available_modes() -> tuple:
    """Usable legs in preference order (``interp`` is always last)."""
    modes = []
    if krn.HAVE_JIT:
        modes.append(MODE_JIT)
    if _ckernel.load() is not None:
        modes.append(MODE_CC)
    modes.append(MODE_INTERP)
    return tuple(modes)


def select_mode() -> str:
    """Pick the execution leg: env override first, else fastest available."""
    requested = os.environ.get(MODE_ENV, "").strip().lower()
    modes = available_modes()
    if requested:
        if requested not in MODE_IDS:
            raise ValueError(
                f"unknown {MODE_ENV}={requested!r}; choose from jit, cc, interp"
            )
        if requested in modes:
            return requested
        reason = krn.JIT_ERROR if requested == MODE_JIT else _ckernel.LOAD_ERROR
        _warn_once(
            f"kernel engine: requested mode {requested!r} is unavailable "
            f"({reason or 'not built'}); falling back to {modes[0]!r} "
            "(counters are identical across legs, only timing differs)"
        )
        return modes[0]
    if modes[0] != MODE_JIT:
        reason = krn.JIT_ERROR or "numba is not importable"
        _warn_once(
            f"kernel engine: numba JIT unavailable ({reason}); running the "
            f"{modes[0]!r} leg (counters are identical across legs, only "
            "timing differs)"
        )
    return modes[0]


def _bind_leg(mode: str, arrays: tuple) -> Tuple[Callable, Callable]:
    """``(span(start, stop), flush())`` of one leg over one run's arrays."""
    if mode == MODE_CC:
        leg = _ckernel.load()
        if leg is None:  # pragma: no cover - select_mode never hands us this
            raise RuntimeError(f"cc leg unavailable: {_ckernel.LOAD_ERROR}")
        return leg.bind(arrays)
    if mode == MODE_JIT:
        span_fn, flush_fn = krn.kernel_span, krn.kernel_flush
    else:
        span_fn, flush_fn = krn.py_kernel_span, krn.py_kernel_flush

    def span(start: int, stop: int) -> int:
        return span_fn(*arrays, start, stop)

    def flush() -> int:
        return flush_fn(*arrays)

    return span, flush


def _map_capacity(n_mem: int) -> int:
    """Power-of-two map size with load factor <= 1/2 at the insert bound."""
    need = 2 * (n_mem + 16)
    cap = 1024
    while cap < need:
        cap <<= 1
    return cap


class KernelState:
    """All flat arrays of one kernel run, plus their invariant audit.

    Grouping the arrays in one object gives the sanitizer a single
    ``validate()`` entry point (wired into ``CHECK_WALK``) that mirrors
    the vector engine's compact-state sweeps: L1 frame/tag consistency,
    RIB => PIB lineage, PIB <=> prefetch fill source, per-set tag
    uniqueness, history-table counter range, and the L2 frame/tag sweep.
    """

    __slots__ = (
        "l1_tag", "l1_dirty", "l1_pib", "l1_rib", "l1_nsp", "l1_src",
        "l1_tpc", "l1_fid", "l1_stamp",
        "l2_tag", "l2_dirty", "l2_stamp",
        "dir_key", "dir_shadow", "dir_conf", "aw_key", "aw_val",
        "tvals", "K", "T", "S", "P",
    )

    def __init__(self, l1cfg, l2cfg, cap: int) -> None:
        l1 = allocate_flat_cache(
            l1cfg, flags=("dirty", "pib", "rib", "nsp", "src"), extra=("tpc", "fid")
        )
        self.l1_tag = l1["tag"]
        self.l1_dirty = l1["dirty"]
        self.l1_pib = l1["pib"]
        self.l1_rib = l1["rib"]
        self.l1_nsp = l1["nsp"]
        self.l1_src = l1["src"]
        self.l1_tpc = l1["tpc"]
        self.l1_fid = l1["fid"]
        self.l1_stamp = l1["stamp"]
        l2 = allocate_flat_cache(l2cfg, flags=("dirty",))
        self.l2_tag = l2["tag"]
        self.l2_dirty = l2["dirty"]
        self.l2_stamp = l2["stamp"]
        self.dir_key = np.empty(cap, dtype=np.int64)
        self.dir_shadow = np.empty(cap, dtype=np.int64)
        self.dir_conf = np.empty(cap, dtype=np.uint8)
        self.aw_key = np.empty(cap, dtype=np.int64)
        self.aw_val = np.empty(cap, dtype=np.int64)
        self.tvals = np.zeros(1, dtype=np.int64)
        self.K = np.empty(krn.NK, dtype=np.int64)
        self.T = np.empty(krn.NT, dtype=np.int64)
        self.S = np.empty(krn.NS, dtype=np.int64)
        self.P = np.empty(krn.NP_PARAMS, dtype=np.int64)
        self.reset()

    def reset(self) -> None:
        """Return every array to its freshly allocated state, in place:
        caches invalid, maps empty, counters and scratch cleared (which
        also wipes anything a sanitizer trip wrote into the state)."""
        for empty in (self.l1_tag, self.l2_tag, self.dir_key, self.aw_key, self.S):
            empty.fill(-1)
        for zero in (
            self.l1_dirty, self.l1_pib, self.l1_rib, self.l1_nsp, self.l1_src,
            self.l1_tpc, self.l1_fid, self.l1_stamp, self.l2_dirty, self.l2_stamp,
            self.dir_shadow, self.dir_conf, self.aw_val, self.K, self.T, self.P,
        ):
            zero.fill(0)

    def span_args(self, mcls, mpc, mline, selffid, nspfid) -> tuple:
        """The full positional argument tuple of ``kernel_span`` minus
        ``(start, stop)`` — one definition shared by every call site."""
        return (
            mcls, mpc, mline, selffid, nspfid,
            self.l1_tag, self.l1_dirty, self.l1_pib, self.l1_rib,
            self.l1_nsp, self.l1_src, self.l1_tpc, self.l1_fid, self.l1_stamp,
            self.l2_tag, self.l2_dirty, self.l2_stamp,
            self.dir_key, self.dir_shadow, self.dir_conf,
            self.aw_key, self.aw_val,
            self.tvals, self.K, self.T, self.S, self.P,
        )

    def validate(self, pos: int) -> None:
        """Invariant sweep over the flat state (sanitizer entry point)."""
        P = self.P
        W1 = int(P[krn.P_W1])
        l1_mask = int(P[krn.P_L1MASK])
        n1 = len(self.l1_tag)
        valid = self.l1_tag != -1
        sets = np.arange(n1, dtype=np.int64) // W1
        bad = np.nonzero(valid & ((self.l1_tag & l1_mask) != sets))[0]
        if len(bad):
            w = int(bad[0])
            raise SanitizerViolation(
                "kernel.l1",
                f"way {w} holds line {int(self.l1_tag[w]):#x}, which does not "
                f"map to set {int(sets[w])}: frame/tag desync",
                cycle=pos,
                snapshot={"way": w, "tag": int(self.l1_tag[w]), "set": int(sets[w])},
            )
        bad = np.nonzero(valid & (self.l1_rib != 0) & (self.l1_pib == 0))[0]
        if len(bad):
            w = int(bad[0])
            raise SanitizerViolation(
                "kernel.l1",
                f"way {w}: RIB set without PIB — referenced bit without "
                "prefetch lineage",
                cycle=pos,
                snapshot={
                    "way": w, "tag": int(self.l1_tag[w]),
                    "pib": int(self.l1_pib[w]), "rib": int(self.l1_rib[w]),
                },
            )
        bad = np.nonzero(valid & ((self.l1_pib != 0) != (self.l1_src != 0)))[0]
        if len(bad):
            w = int(bad[0])
            raise SanitizerViolation(
                "kernel.l1",
                f"way {w}: PIB={int(self.l1_pib[w])} disagrees with fill "
                f"source {int(self.l1_src[w])}: prefetch lineage lost",
                cycle=pos,
                snapshot={
                    "way": w, "tag": int(self.l1_tag[w]),
                    "pib": int(self.l1_pib[w]), "source": int(self.l1_src[w]),
                },
            )
        if W1 > 1:
            for s in range(n1 // W1):
                b = s * W1
                resident = [int(t) for t in self.l1_tag[b : b + W1] if t != -1]
                if len(resident) != len(set(resident)):
                    raise SanitizerViolation(
                        "kernel.l1",
                        f"duplicate tag in set {s}: the same line is resident "
                        "in two ways",
                        cycle=pos,
                        snapshot={"set": s, "tags": resident},
                    )
        if int(P[krn.P_FMODE]) == krn.FMODE_TABLE and len(self.tvals):
            maxv = int(P[krn.P_MAXV])
            lo = int(self.tvals.min())
            hi = int(self.tvals.max())
            if lo < 0 or hi > maxv:
                value = hi if hi > maxv else lo
                index = int(np.nonzero(self.tvals == value)[0][0])
                raise SanitizerViolation(
                    "kernel.history_table",
                    f"counter {index} holds {value}, outside [0, {maxv}]",
                    cycle=pos,
                    snapshot={"index": index, "value": value, "max": maxv},
                )
        W2 = int(P[krn.P_W2])
        l2_mask = int(P[krn.P_L2MASK])
        n2 = len(self.l2_tag)
        l2_sets = np.arange(n2, dtype=np.int64) // W2
        bad = np.nonzero((self.l2_tag != -1) & ((self.l2_tag & l2_mask) != l2_sets))[0]
        if len(bad):
            w = int(bad[0])
            raise SanitizerViolation(
                "kernel.l2",
                f"way {w} holds line {int(self.l2_tag[w]):#x}, which does not "
                f"map to set {int(l2_sets[w])}: frame/tag desync",
                cycle=pos,
                snapshot={"way": w, "tag": int(self.l2_tag[w]), "set": int(l2_sets[w])},
            )


class _TraceMemo:
    """What :meth:`KernelEngine.run` derives from one trace, kept while
    the trace lives: its memory-op columns, one set of filter-index
    columns and one state arena, each under the key it was built for.

    The memo holds the trace only through a weak reference whose
    callback drops the memo, so it never keeps a trace (or an arena)
    alive after the caller lets go of the trace.
    """

    __slots__ = ("ref", "cols_key", "cols", "fids_key", "fids", "arena_key", "arena")

    def __init__(self, trace: Trace) -> None:
        self.ref = weakref.ref(trace, _forget)
        self.cols_key = self.fids_key = self.arena_key = None
        self.cols: tuple = ()
        self.fids: tuple = ()
        self.arena: Optional[KernelState] = None


#: The memo of the trace the last run used (one trace at a time).
_memo: Optional[_TraceMemo] = None


def _forget(ref: weakref.ref) -> None:
    global _memo
    if _memo is not None and _memo.ref is ref:
        _memo = None


def _trace_memo(trace: Trace) -> _TraceMemo:
    global _memo
    memo = _memo
    if memo is None or memo.ref() is not trace:
        memo = _memo = _TraceMemo(trace)
    return memo


def _read_only(*arrays: np.ndarray) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _memory_columns(trace: Trace, n: int, offset_bits: int, sw_on: bool) -> tuple:
    """``(midx, mcls, mpc, mline)`` over the first ``n`` records: trace
    position, class, PC and line of every memory op the kernel replays."""
    iclass = trace.iclass[:n]
    mask = (iclass == int(InstrClass.LOAD)) | (iclass == int(InstrClass.STORE))
    if sw_on:
        mask |= iclass == int(InstrClass.SW_PREFETCH)
    midx = np.nonzero(mask)[0]
    mcls = iclass[mask].astype(np.int64)
    # Boolean indexing copies, so the int64 views own fresh buffers.
    mpc = trace.pc[:n][mask].view(np.int64)
    mline = (trace.addr[:n][mask] >> np.uint64(offset_bits)).view(np.int64)
    return _read_only(midx, mcls, mpc, mline)


def _filter_columns(filt, mpc, mline, degree: int, nsp_on: bool, sw_on: bool) -> tuple:
    """``(selffid, nspfid)``: per-memory-op filter-index columns (PA keys
    on the prefetched line, PC on the trigger PC); the hot loop only
    hashes for SDP shadow lines under the PA scheme, where the key is
    run-dependent."""
    n_mem = len(mpc)
    selffid = np.zeros(n_mem, dtype=np.int64)
    nspfid = np.zeros(degree * n_mem, dtype=np.int64)
    ftype = type(filt)
    if ftype is PAFilter:
        E, SCH = filt.table.entries, filt.table.hash_scheme
        lines = mline.view(np.uint64)
        if nsp_on:
            for d in range(1, degree + 1):
                nspfid[(d - 1) * n_mem : d * n_mem] = table_index_array(
                    lines + np.uint64(d), E, SCH
                )
        if sw_on:
            selffid = table_index_array(lines, E, SCH)
    elif ftype is PCFilter:
        E, SCH = filt.table.entries, filt.table.hash_scheme
        selffid = table_index_array(mpc.view(np.uint64), E, SCH)
        for d in range(degree):
            nspfid[d * n_mem : (d + 1) * n_mem] = selffid
    return _read_only(selffid, nspfid)


class KernelEngine(OoOPipeline):
    """Classification-accurate compiled engine (no cycle-level timing)."""

    kernel_mode: str = ""

    def _check_supported(self) -> None:
        if self.stride is not None:
            raise ValueError(
                "the kernel engine does not model the stride/extension "
                "prefetcher; run stride configurations on the pipeline engine"
            )
        if self.hierarchy.buffer is not None:
            raise ValueError(
                "the kernel engine does not model the prefetch buffer "
                "(Section 5.5); run buffer configurations on the pipeline engine"
            )
        ftype = type(self.filter)
        if ftype not in (NullFilter, PAFilter, PCFilter):
            raise ValueError(
                f"the kernel engine inlines only the null/PA/PC filters, not "
                f"{ftype.__name__}; run this filter on the vector or pipeline "
                "engine"
            )

    # Straight-line on purpose (set-up here, the replay in ``_replay``),
    # mirroring VectorEngine.run section for section so a side-by-side
    # diff of the two tiers is easy.
    def run(self, trace: Trace) -> int:  # noqa: C901 - deliberate hot-loop driver
        self._check_supported()
        cfg = self.config
        n = len(trace)
        limit = cfg.max_instructions
        if limit is not None:
            n = min(n, limit)

        mode = select_mode()
        self.kernel_mode = mode
        self.stats.set("kernel_mode_id", MODE_IDS[mode])

        l1cfg = cfg.hierarchy.l1
        l2cfg = cfg.hierarchy.l2
        offset_bits = l1cfg.offset_bits
        nsp_on = self.nsp is not None
        sdp_on = self.sdp is not None
        sw_on = self.sw_unit is not None
        degree = cfg.prefetch.degree

        # ---- per-trace columns (memoized while the trace lives) ----------
        memo = _trace_memo(trace)
        cols_key = (n, offset_bits, sw_on)
        if memo.cols_key != cols_key:
            memo.cols = _memory_columns(trace, n, offset_bits, sw_on)
            memo.cols_key, memo.fids_key = cols_key, None
        midx, mcls, mpc, mline = memo.cols
        n_mem = len(midx)
        STORE = int(InstrClass.STORE)
        SW_PF = int(InstrClass.SW_PREFETCH)

        filt = self.filter
        ftype = type(filt)
        is_pa = ftype is PAFilter
        is_pc = ftype is PCFilter
        is_table = is_pa or is_pc
        thresh = maxv = tbits = 0
        scheme_id = 0
        tvals = np.zeros(1, dtype=np.int64)
        fids_key: tuple = (ftype, degree, nsp_on, sw_on)
        if is_table:
            table = filt.table
            tbits = table.entries.bit_length() - 1
            scheme_id = _SCHEME_IDS[table.hash_scheme]
            thresh = table.counters.threshold
            maxv = table.counters.max_value
            tvals = table.counters.export_int64()
            fids_key += (table.entries, table.hash_scheme)
        if memo.fids_key != fids_key:
            memo.fids = _filter_columns(filt, mpc, mline, degree, nsp_on, sw_on)
            memo.fids_key = fids_key
        selffid, nspfid = memo.fids

        # ---- flat state + scalar parameter block -------------------------
        # The arena leaves the memo for the run and goes back after it,
        # raising or not, so a concurrent run on the same trace builds
        # its own rather than sharing this one.
        cap = _map_capacity(n_mem)
        arena_key = (l1cfg.num_sets, l1cfg.ways, l2cfg.num_sets, l2cfg.ways, cap)
        st = memo.arena if memo.arena_key == arena_key else None
        memo.arena = memo.arena_key = None
        if st is None:
            st = KernelState(l1cfg, l2cfg, cap)
        else:
            st.reset()
        try:
            st.tvals = tvals
            P = st.P
            P[krn.P_W1] = l1cfg.ways
            P[krn.P_L1MASK] = l1cfg.num_sets - 1
            P[krn.P_W2] = l2cfg.ways
            P[krn.P_L2MASK] = l2cfg.num_sets - 1
            P[krn.P_WB] = 1 if l1cfg.writeback else 0
            P[krn.P_NSP] = 1 if nsp_on else 0
            P[krn.P_SDP] = 1 if sdp_on else 0
            P[krn.P_DEGREE] = degree
            P[krn.P_TAGF] = 1 if self._tag_fills else 0
            P[krn.P_FMODE] = krn.FMODE_TABLE if is_table else krn.FMODE_NULL
            P[krn.P_THRESH] = thresh
            P[krn.P_MAXV] = maxv
            P[krn.P_TBITS] = tbits
            P[krn.P_SCHEME] = scheme_id
            P[krn.P_SDPHASH] = 1 if is_pa else 0
            P[krn.P_NMEM] = n_mem
            P[krn.P_DIRMASK] = cap - 1
            P[krn.P_AWMASK] = cap - 1
            P[krn.P_STORE] = STORE
            P[krn.P_SWPF] = SW_PF
            args = st.span_args(mcls, mpc, mline, selffid, nspfid)
            return self._replay(st, args, midx, n, mode)
        finally:
            memo.arena, memo.arena_key = st, arena_key

    def _replay(self, st: KernelState, args: tuple, midx: np.ndarray, n: int, mode: str) -> int:
        """Drive the kernel over one run: spans, warmup fold, final flush."""
        cfg = self.config
        span, flush = _bind_leg(mode, args)

        def call(start: int, stop: int) -> None:
            # errstate: the interp leg's uint64 golden-ratio multiplies
            # overflow by design; numba/C wrap silently, numpy warns.
            with np.errstate(over="ignore"):
                status = int(span(start, stop))
            if status != 0:
                raise RuntimeError(
                    f"kernel span aborted with status {status} (SDP map "
                    "overflow — the capacity invariant was violated)"
                )

        # ---- deferred-statistics fold ------------------------------------
        hierarchy = self.hierarchy
        classifier = self.classifier
        filt = self.filter
        is_table = int(st.P[krn.P_FMODE]) == krn.FMODE_TABLE
        K = st.K
        T = st.T
        cum = [0, 0]  # cumulative (L1 demand misses, memory fetches)

        def fold() -> None:
            l1 = hierarchy.l1
            l1._n_read_hit += int(K[krn.K_RH])
            l1._n_read_miss += int(K[krn.K_RM])
            l1._n_write_hit += int(K[krn.K_WH])
            l1._n_write_miss += int(K[krn.K_WM])
            l1._n_first_use += int(K[krn.K_FU])
            l1._n_duplicate_fill += int(K[krn.K_DUP1])
            l1._n_evictions += int(K[krn.K_EV])
            l1._n_evicted_used += int(K[krn.K_EVU])
            l1._n_evicted_unused += int(K[krn.K_EVN])
            l1._n_prefetch_fill += int(K[krn.K_PF1])
            l1._n_demand_fill += int(K[krn.K_DF1])
            l2 = hierarchy.l2
            l2._n_read_hit += int(K[krn.K_L2RH])
            l2._n_read_miss += int(K[krn.K_L2RM])
            l2._n_duplicate_fill += int(K[krn.K_L2DUP])
            l2._n_evictions += int(K[krn.K_L2EV])
            l2._n_demand_fill += int(K[krn.K_L2DF])
            b1 = hierarchy.l1_bus._n_kind
            b1[TransferKind.DEMAND_FILL] += int(K[krn.K_B1D])
            b1[TransferKind.PREFETCH_FILL] += int(K[krn.K_B1P])
            b1[TransferKind.WRITEBACK] += int(K[krn.K_B1W])
            bm = hierarchy.mem_bus._n_kind
            bm[TransferKind.DEMAND_FILL] += int(K[krn.K_BMD])
            bm[TransferKind.PREFETCH_FILL] += int(K[krn.K_BMP])
            bm[TransferKind.WRITEBACK] += int(K[krn.K_BMW])
            if self.nsp is not None:
                self.nsp._n_trigger_miss += int(K[krn.K_NSPM])
                self.nsp._n_trigger_tag += int(K[krn.K_NSPT])
            if self.sdp is not None:
                self.sdp._n_issued += int(K[krn.K_SDPI])
                self.sdp._n_suppressed += int(K[krn.K_SDPS])
                self.sdp._n_learned += int(K[krn.K_SDPL])
                self.sdp._n_confirmed += int(K[krn.K_SDPC])
            if self.sw_unit is not None:
                self.sw_unit._n_executed += int(K[krn.K_SWX])
            filt._n_allowed += int(K[krn.K_FA])
            filt._n_rejected += int(K[krn.K_FR])
            filt._n_fb_good += int(K[krn.K_FBG])
            filt._n_fb_bad += int(K[krn.K_FBB])
            if is_table:
                table = filt.table
                table._n_lookup_good += int(K[krn.K_TLG])
                table._n_lookup_bad += int(K[krn.K_TLB])
                table._n_train_good += int(K[krn.K_TTG])
                table._n_train_bad += int(K[krn.K_TTB])
                table.counters.absorb_int64(st.tvals)
            for src in (1, 2, 3, 4):
                row = T[src * 7 : (src + 1) * 7]
                if row.any():
                    tally = classifier.per_source[FillSource(src)]
                    tally.generated += int(row[krn.T_GEN])
                    tally.squashed += int(row[krn.T_SQ])
                    tally.filtered += int(row[krn.T_FLT])
                    tally.dropped += int(row[krn.T_DRP])
                    tally.issued += int(row[krn.T_ISS])
                    tally.good += int(row[krn.T_GOOD])
                    tally.bad += int(row[krn.T_BAD])
            cum[0] += int(K[krn.K_RM]) + int(K[krn.K_WM])
            cum[1] += int(K[krn.K_BMD]) + int(K[krn.K_BMP])
            K[:] = 0
            T[:] = 0

        def estimate(n_insts: int) -> int:
            l2_lat = cfg.hierarchy.l2.latency
            mem_lat = cfg.hierarchy.memory_latency
            stall = cum[0] * l2_lat + cum[1] * mem_lat
            return max(1, n_insts // cfg.processor.issue_width + stall // _MLP_DIVISOR)

        # ---- drive the spans (sanitizer sweeps chunk the hot loop) -------
        sanitizer = self.sanitizer

        def drive(start: int, stop: int) -> None:
            if sanitizer is None:
                if stop > start:
                    call(start, stop)
                return
            pos = start
            step = max(1, sanitizer.interval)
            while pos < stop:
                nxt = min(stop, pos + step)
                call(pos, nxt)
                tripped = sanitizer.fire_trip()
                if tripped:
                    # Deliberate RIB-without-PIB corruption in way 0 (tag 0
                    # maps to set 0 in any power-of-two layout); the validate
                    # sweep below must catch it.
                    st.l1_tag[0] = 0
                    st.l1_pib[0] = 0
                    st.l1_rib[0] = 1
                    st.l1_src[0] = 0
                st.validate(nxt)
                if tripped:  # pragma: no cover - reachable only if a check rots
                    raise SanitizerViolation(
                        "kernel.sanitizer",
                        "injected invariant trip went undetected",
                        cycle=nxt,
                    )
                pos = nxt

        n_mem = len(midx)
        warmup = min(cfg.warmup_instructions, n)
        if warmup and warmup < n and self.on_warmup is not None:
            split = int(np.searchsorted(midx, warmup))
            drive(0, split)
            fold()
            self.on_warmup(estimate(warmup))
            drive(split, n_mem)
        else:
            drive(0, n_mem)

        # Final flush: classify still-resident prefetched lines exactly the
        # way Cache.flush does — feedback fires, eviction counters do not.
        flush()
        fold()

        if sanitizer is not None:
            st.validate(n_mem)

        cycles = estimate(n)
        self.stats.set("instructions", n)
        self.stats.set("cycles", cycles)
        return cycles
