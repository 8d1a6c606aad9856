//! Control-schedule capture and replay primitives.
//!
//! The paper's central observation — a stencil's memory-access pattern is a
//! *static* function of the spec — applies to the simulator too: for a given
//! (plan, system config, kernel, instance count), every control-plane
//! decision the cycle-accurate model makes (FSM transitions, buffer
//! addresses, DRAM issue cycles, stall/valid handshakes) is independent of
//! the data flowing through the datapath. That makes the control plane
//! *recordable*: run the full simulation once, capture its per-cycle trace
//! and the per-element gather pattern, and subsequent runs of the same spec
//! can **replay** the schedule — indexed buffer moves plus the kernel, no
//! delta settling, no module dispatch — with bit-exact outputs and cycle
//! counts.
//!
//! This module holds the engine-agnostic pieces:
//!
//! * [`GatherTable`] — the per-element read pattern in the compact form
//!   replay reads: per grid slot a `u32` grid index and a `u8` slot
//!   position, per element a kernel mask and a row start, and a side list
//!   for the rare boundary constants. [`SlotSource`] is the per-slot row
//!   form it is built from and written back to.
//! * [`ControlTrace`] — the packed per-cycle control-plane record
//!   ([`CycleRecord`]: FSM phase plus handshake/stall flags) with the
//!   derived totals that replay reports instead of re-simulating.
//! * [`ReplayUnsupported`] — the typed refusal reasons. Replay is only
//!   sound while control stays data-independent; anything that breaks that
//!   (fault injection, stall fuzzing, external backpressure, attached
//!   observers) must refuse, never silently diverge.
//! * [`ScheduleCache`] — a byte-budgeted LRU for captured schedules keyed
//!   by [`fingerprint128`](crate::hash::fingerprint128) of the canonical
//!   spec text.
//!
//! The Smache-specific capture/replay executor lives in
//! `smache_core::system::replay`; `smache serve` stacks a [`ScheduleCache`]
//! behind its result cache so differing-seed requests for one spec hit the
//! fast path.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::Word;

/// Where one stencil-shape slot of one output element reads from during
/// replay. Derived once per spec from the buffer plan; identical for every
/// instance because each instance's input is the previous instance's output
/// and all architectural reads (stream taps and static banks alike) resolve
/// to current-instance grid indices.
///
/// This is the row form a [`GatherTable`] is built from and written back
/// to (the store's on-disk `(tag, value)` triples); the table itself keeps
/// the compact layout replay reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotSource {
    /// Read the current-instance input grid at this flat index.
    Grid(u32),
    /// A boundary constant, injected by the plan.
    Const(Word),
    /// Outside the grid under an open boundary: contributes nothing; the
    /// kernel mask bit for this slot is cleared.
    Hole,
}

/// One boundary constant of one element, kept in the table's side list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstSlot {
    /// The constant's value.
    pub value: Word,
    /// The element whose tuple reads it.
    pub elem: u32,
    /// Its slot position in the tuple.
    pub pos: u8,
}

/// The largest tuple a gather table holds: one bit of the `u64` kernel
/// mask per slot.
pub const MAX_GATHER_WIDTH: usize = 64;

/// The per-element gather pattern, in the compact form replay reads.
///
/// Every element's tuple has the same `width` slots. Element `e`'s grid
/// slots are `starts[e]..starts[e + 1]` of two parallel arrays — the
/// current-instance grid index (`u32`) and the slot position (`u8`) — and
/// `masks[e]` is its kernel mask (bit `p` set when slot `p` is present).
/// Boundary constants are rare, so they live in a side list ordered by
/// element. Any slot that is neither a grid read nor a constant is a hole
/// and reads as zero.
#[derive(Debug, Clone, Default)]
pub struct GatherTable {
    width: usize,
    all_present: bool,
    starts: Vec<u32>,
    index: Vec<u32>,
    pos: Vec<u8>,
    masks: Vec<u64>,
    consts: Vec<ConstSlot>,
}

/// One element's gather row, as [`GatherTable::rows`] yields it.
#[derive(Debug, Clone, Copy)]
pub struct GatherRow<'a> {
    /// Grid index of each grid slot.
    pub index: &'a [u32],
    /// Slot position of each grid slot (parallel to `index`).
    pub pos: &'a [u8],
    /// The element's boundary constants.
    pub consts: &'a [ConstSlot],
    /// The element's kernel mask.
    pub mask: u64,
}

impl GatherRow<'_> {
    /// Writes the row back out as one [`SlotSource`] per tuple slot.
    pub fn sources(&self, width: usize, out: &mut Vec<SlotSource>) {
        out.clear();
        out.resize(width, SlotSource::Hole);
        for (&i, &p) in self.index.iter().zip(self.pos) {
            out[p as usize] = SlotSource::Grid(i);
        }
        for c in self.consts {
            out[c.pos as usize] = SlotSource::Const(c.value);
        }
    }
}

/// Iterator over a [`GatherTable`]'s rows in element order.
pub struct GatherRows<'a> {
    starts: std::slice::Windows<'a, u32>,
    masks: std::slice::Iter<'a, u64>,
    index: &'a [u32],
    pos: &'a [u8],
    /// Constants of this and later elements.
    consts: &'a [ConstSlot],
    e: u32,
}

impl<'a> Iterator for GatherRows<'a> {
    type Item = GatherRow<'a>;

    #[inline]
    fn next(&mut self) -> Option<GatherRow<'a>> {
        let (w, &mask) = self.starts.next().zip(self.masks.next())?;
        let (a, b) = (w[0] as usize, w[1] as usize);
        let mut k = 0;
        while self.consts.get(k).is_some_and(|c| c.elem == self.e) {
            k += 1;
        }
        let (consts, rest) = self.consts.split_at(k);
        self.consts = rest;
        self.e += 1;
        Some(GatherRow {
            index: &self.index[a..b],
            pos: &self.pos[a..b],
            consts,
            mask,
        })
    }
}

impl GatherTable {
    /// Builds a table of `n` elements with `width`-slot tuples. `row(e,
    /// slots)` fills `slots` with element `e`'s sources (exactly `width` of
    /// them) and returns its kernel mask; its first error aborts the build.
    /// The finished table holds no spare capacity.
    ///
    /// # Panics
    ///
    /// When `width` exceeds [`MAX_GATHER_WIDTH`], a row has the wrong
    /// number of slots, or the table would hold more than `u32::MAX` grid
    /// slots — caller bugs, which store decoding rules out before it
    /// builds.
    pub fn build<E>(
        width: usize,
        n: usize,
        mut row: impl FnMut(usize, &mut Vec<SlotSource>) -> Result<u64, E>,
    ) -> Result<GatherTable, E> {
        assert!(
            width <= MAX_GATHER_WIDTH,
            "gather width {width} exceeds the mask"
        );
        let mut table = GatherTable {
            width,
            all_present: true,
            starts: Vec::with_capacity(n + 1),
            index: Vec::with_capacity(n * width),
            pos: Vec::with_capacity(n * width),
            masks: Vec::with_capacity(n),
            consts: Vec::new(),
        };
        let mut slots = Vec::with_capacity(width);
        for e in 0..n {
            table.starts.push(table.index.len() as u32);
            slots.clear();
            let mask = row(e, &mut slots)?;
            table.masks.push(mask);
            assert_eq!(slots.len(), width, "element {e}: gather row width");
            for (p, s) in slots.iter().enumerate() {
                if *s != SlotSource::Hole && mask >> p & 1 == 0 {
                    table.all_present = false;
                }
                match *s {
                    SlotSource::Grid(i) => {
                        table.index.push(i);
                        table.pos.push(p as u8);
                    }
                    SlotSource::Const(value) => table.consts.push(ConstSlot {
                        value,
                        elem: e as u32,
                        pos: p as u8,
                    }),
                    SlotSource::Hole => {}
                }
            }
        }
        assert!(
            u32::try_from(table.index.len()).is_ok(),
            "gather table too large"
        );
        table.starts.push(table.index.len() as u32);
        table.index.shrink_to_fit();
        table.pos.shrink_to_fit();
        table.consts.shrink_to_fit();
        Ok(table)
    }

    /// Number of elements covered by the table.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// True when the table covers no elements.
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Slots in every element's tuple.
    pub fn width(&self) -> usize {
        self.width
    }

    /// True when every grid slot and constant has its element's mask bit
    /// set, so a kernel may read a row's slots without checking the mask.
    /// Every table capture builds has this property.
    pub fn all_present(&self) -> bool {
        self.all_present
    }

    /// The boundary constants of every element, in element order.
    pub fn consts(&self) -> &[ConstSlot] {
        &self.consts
    }

    /// Every element's gather row, in element order.
    #[inline]
    pub fn rows(&self) -> GatherRows<'_> {
        GatherRows {
            starts: self.starts.windows(2),
            masks: self.masks.iter(),
            index: &self.index,
            pos: &self.pos,
            consts: &self.consts,
            e: 0,
        }
    }

    /// Heap bytes the table holds: the capacity of every vector.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.starts.capacity() * size_of::<u32>()
            + self.index.capacity() * size_of::<u32>()
            + self.pos.capacity() * size_of::<u8>()
            + self.masks.capacity() * size_of::<u64>()
            + self.consts.capacity() * size_of::<ConstSlot>()
    }
}

/// One cycle of the recorded control plane, packed into a byte:
/// bits 0–1 the FSM phase code, bits 2–7 the handshake/stall flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleRecord(pub u8);

impl CycleRecord {
    /// Mask of the two phase bits (`warmup`/`streaming`/`done` encoding).
    pub const PHASE_MASK: u8 = 0b11;
    /// The datapath froze this cycle (any stall cause).
    pub const STALLED: u8 = 1 << 2;
    /// FSM-2 emitted one stencil tuple into the kernel pipeline.
    pub const EMITTED: u8 = 1 << 3;
    /// The observed stream transferred a beat (a kernel result drained).
    pub const TRANSFER: u8 = 1 << 4;
    /// The FSM-1 warm-up counter advanced this cycle.
    pub const WARMUP: u8 = 1 << 5;
    /// FSM-2 wanted to shift but no response word was available.
    pub const STARVED: u8 = 1 << 6;
    /// A DRAM read response was routed this cycle.
    pub const RESPONDED: u8 = 1 << 7;

    /// Packs a record from the phase code and the flag bits.
    pub fn pack(phase: u8, flags: u8) -> CycleRecord {
        CycleRecord((phase & Self::PHASE_MASK) | (flags & !Self::PHASE_MASK))
    }

    /// The FSM phase code recorded for this cycle.
    pub fn phase(self) -> u8 {
        self.0 & Self::PHASE_MASK
    }

    /// True when `flag` (one of the bit constants) is set.
    pub fn has(self, flag: u8) -> bool {
        self.0 & flag != 0
    }
}

/// Totals derived by scanning a [`ControlTrace`] — the replay-side source
/// of the cycle statistics a full simulation counts as it goes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceTotals {
    /// Total recorded cycles.
    pub cycles: u64,
    /// Cycles with [`CycleRecord::STALLED`] set.
    pub stall_cycles: u64,
    /// Cycles with [`CycleRecord::TRANSFER`] set.
    pub transfers: u64,
    /// Cycles with [`CycleRecord::WARMUP`] set.
    pub warmup_cycles: u64,
    /// Cycles with [`CycleRecord::EMITTED`] set.
    pub emitted: u64,
}

/// The per-cycle control-plane trace of one captured run.
#[derive(Debug, Clone, Default)]
pub struct ControlTrace {
    records: Vec<CycleRecord>,
}

impl ControlTrace {
    /// Creates an empty trace.
    pub fn new() -> ControlTrace {
        ControlTrace::default()
    }

    /// Rebuilds a trace from its recorded cycles — the inverse of
    /// [`ControlTrace::records`], used when deserialising a persisted
    /// schedule.
    pub fn from_records(records: Vec<CycleRecord>) -> ControlTrace {
        ControlTrace { records }
    }

    /// Drops spare capacity left over from recording.
    pub fn shrink_to_fit(&mut self) {
        self.records.shrink_to_fit();
    }

    /// Appends one cycle's record.
    #[inline]
    pub fn record(&mut self, record: CycleRecord) {
        self.records.push(record);
    }

    /// Number of recorded cycles.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The recorded cycles in order.
    pub fn records(&self) -> &[CycleRecord] {
        &self.records
    }

    /// Scans the trace into its totals.
    pub fn totals(&self) -> TraceTotals {
        let mut t = TraceTotals {
            cycles: self.records.len() as u64,
            ..TraceTotals::default()
        };
        for r in &self.records {
            t.stall_cycles += u64::from(r.has(CycleRecord::STALLED));
            t.transfers += u64::from(r.has(CycleRecord::TRANSFER));
            t.warmup_cycles += u64::from(r.has(CycleRecord::WARMUP));
            t.emitted += u64::from(r.has(CycleRecord::EMITTED));
        }
        t
    }

    /// Heap bytes the trace holds: its vector's capacity.
    pub fn approx_bytes(&self) -> usize {
        self.records.capacity()
    }
}

/// Why a capture or replay refused to run.
///
/// Replay is sound exactly while the control plane is a pure function of
/// the spec. Each variant names a way that stops being true (or a way the
/// recorded schedule fails to match the request). Refusal is the *typed
/// fallback path*: callers run the full simulation instead — replay never
/// silently diverges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayUnsupported {
    /// An active *corrupting* fault-injection plan couples the outcome to
    /// the data (latency-only plans are data-independent and replayable).
    FaultPlan,
    /// An external stall schedule (stall fuzzing) drives backpressure.
    StallSchedule,
    /// An external backpressure callback is attached to the system.
    ExternalBackpressure,
    /// A probe tracer is attached; replay produces no probe events.
    Tracer,
    /// Telemetry is attached; replay produces no telemetry samples.
    Telemetry,
    /// A result tap observes the datapath mid-run.
    ResultTap,
    /// The schedule was recorded for a different kernel.
    KernelMismatch {
        /// Kernel name the schedule was captured with.
        expected: String,
        /// Kernel name the replay was asked to run.
        actual: String,
    },
    /// The input length does not match the captured grid size.
    InputLength {
        /// Grid length the schedule was captured for.
        expected: usize,
        /// Input length supplied to replay.
        actual: usize,
    },
    /// The instance count does not match the captured schedule.
    InstancesMismatch {
        /// Instance count the schedule was captured for.
        expected: u64,
        /// Instance count supplied to replay.
        actual: u64,
    },
    /// Capture self-verification failed: replaying the capture input did
    /// not reproduce the full simulation bit-exactly. Never expected; the
    /// typed refusal keeps the failure loud and the fallback safe.
    ScheduleDivergence {
        /// What diverged.
        detail: String,
    },
}

impl ReplayUnsupported {
    /// Short machine-friendly label (stats, log lines, test assertions).
    pub fn label(&self) -> &'static str {
        match self {
            ReplayUnsupported::FaultPlan => "fault_plan",
            ReplayUnsupported::StallSchedule => "stall_schedule",
            ReplayUnsupported::ExternalBackpressure => "external_backpressure",
            ReplayUnsupported::Tracer => "tracer",
            ReplayUnsupported::Telemetry => "telemetry",
            ReplayUnsupported::ResultTap => "result_tap",
            ReplayUnsupported::KernelMismatch { .. } => "kernel_mismatch",
            ReplayUnsupported::InputLength { .. } => "input_length",
            ReplayUnsupported::InstancesMismatch { .. } => "instances_mismatch",
            ReplayUnsupported::ScheduleDivergence { .. } => "schedule_divergence",
        }
    }
}

impl std::fmt::Display for ReplayUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayUnsupported::FaultPlan => {
                write!(f, "replay unsupported: active corrupting fault-injection plan")
            }
            ReplayUnsupported::StallSchedule => {
                write!(f, "replay unsupported: external stall schedule attached")
            }
            ReplayUnsupported::ExternalBackpressure => {
                write!(f, "replay unsupported: external backpressure attached")
            }
            ReplayUnsupported::Tracer => write!(f, "replay unsupported: probe tracer attached"),
            ReplayUnsupported::Telemetry => write!(f, "replay unsupported: telemetry attached"),
            ReplayUnsupported::ResultTap => write!(f, "replay unsupported: result tap attached"),
            ReplayUnsupported::KernelMismatch { expected, actual } => write!(
                f,
                "replay refused: schedule captured with kernel `{expected}`, asked to run `{actual}`"
            ),
            ReplayUnsupported::InputLength { expected, actual } => write!(
                f,
                "replay refused: schedule covers {expected} elements, input has {actual}"
            ),
            ReplayUnsupported::InstancesMismatch { expected, actual } => write!(
                f,
                "replay refused: schedule captured for {expected} instance(s), asked for {actual}"
            ),
            ReplayUnsupported::ScheduleDivergence { detail } => {
                write!(f, "schedule diverged from full simulation: {detail}")
            }
        }
    }
}

impl std::error::Error for ReplayUnsupported {}

/// Running totals a [`ScheduleCache`] reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleCacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Schedules larger than the whole budget, never stored.
    pub oversize: u64,
}

struct CacheEntry<V> {
    value: Arc<V>,
    bytes: usize,
    last_used: u64,
}

/// A byte-budgeted LRU cache for captured control schedules (or any other
/// fingerprint-keyed value with an explicit byte cost).
///
/// Same deterministic policy as the serve layer's result cache: every hit
/// and insert stamps the entry with a monotonic use counter, and inserts
/// evict the lowest-stamped entries until the budget holds. Values are
/// handed out as [`Arc`] clones so a hit is O(1) regardless of schedule
/// size.
pub struct ScheduleCache<V> {
    budget: usize,
    bytes: usize,
    tick: u64,
    entries: BTreeMap<(u64, u64), CacheEntry<V>>,
    stats: ScheduleCacheStats,
}

impl<V> ScheduleCache<V> {
    /// Creates an empty cache holding at most `budget` bytes of schedules.
    pub fn new(budget: usize) -> ScheduleCache<V> {
        ScheduleCache {
            budget,
            bytes: 0,
            tick: 0,
            entries: BTreeMap::new(),
            stats: ScheduleCacheStats::default(),
        }
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: (u64, u64)) -> Option<Arc<V>> {
        self.tick += 1;
        match self.entries.get_mut(&key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// True when `key` is resident, *without* refreshing its recency or
    /// counting a lookup — a pure probe. The serve reactor uses it to
    /// classify requests at admission (a resident schedule means the job
    /// is a cheap replay) without the classification itself perturbing
    /// the LRU order or the hit/miss statistics.
    pub fn contains(&self, key: (u64, u64)) -> bool {
        self.entries.contains_key(&key)
    }

    /// Stores `value` under `key` with an explicit byte cost, evicting
    /// least-recently-used entries until the budget holds. A value larger
    /// than the entire budget is not stored.
    pub fn insert(&mut self, key: (u64, u64), value: Arc<V>, bytes: usize) {
        if bytes > self.budget {
            self.stats.oversize += 1;
            return;
        }
        self.tick += 1;
        if let Some(old) = self.entries.insert(
            key,
            CacheEntry {
                value,
                bytes,
                last_used: self.tick,
            },
        ) {
            self.bytes -= old.bytes;
        } else {
            self.stats.insertions += 1;
        }
        self.bytes += bytes;

        while self.bytes > self.budget {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("over budget implies non-empty");
            let evicted = self.entries.remove(&victim).expect("victim exists");
            self.bytes -= evicted.bytes;
            self.stats.evictions += 1;
        }
    }

    /// Bytes of schedule data currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The byte budget this cache was created with. A `0` budget can
    /// never store anything — callers use it as "caching disabled".
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The running hit/miss/eviction totals.
    pub fn stats(&self) -> ScheduleCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_record_packs_phase_and_flags() {
        let r = CycleRecord::pack(1, CycleRecord::STALLED | CycleRecord::TRANSFER);
        assert_eq!(r.phase(), 1);
        assert!(r.has(CycleRecord::STALLED));
        assert!(r.has(CycleRecord::TRANSFER));
        assert!(!r.has(CycleRecord::EMITTED));
        // Phase bits never leak into flags and vice versa.
        let r = CycleRecord::pack(2, 0);
        assert_eq!(r.phase(), 2);
        assert!(!r.has(CycleRecord::STALLED));
    }

    #[test]
    fn trace_totals_count_flags() {
        let mut t = ControlTrace::new();
        t.record(CycleRecord::pack(0, CycleRecord::WARMUP));
        t.record(CycleRecord::pack(
            1,
            CycleRecord::EMITTED | CycleRecord::TRANSFER,
        ));
        t.record(CycleRecord::pack(1, CycleRecord::STALLED));
        let totals = t.totals();
        assert_eq!(totals.cycles, 3);
        assert_eq!(totals.warmup_cycles, 1);
        assert_eq!(totals.emitted, 1);
        assert_eq!(totals.transfers, 1);
        assert_eq!(totals.stall_cycles, 1);
    }

    fn two_row_table() -> GatherTable {
        let rows = [
            vec![SlotSource::Grid(4), SlotSource::Hole, SlotSource::Grid(1)],
            vec![SlotSource::Const(9), SlotSource::Grid(0), SlotSource::Hole],
        ];
        GatherTable::build(3, 2, |e, slots| {
            slots.extend_from_slice(&rows[e]);
            Ok::<u64, ()>([0b101, 0b011][e])
        })
        .expect("build")
    }

    #[test]
    fn gather_table_rows_round_trip() {
        let table = two_row_table();
        assert_eq!(table.len(), 2);
        assert_eq!(table.width(), 3);
        assert!(table.all_present());
        let rows: Vec<GatherRow<'_>> = table.rows().collect();
        assert_eq!(rows[0].index, &[4, 1]);
        assert_eq!(rows[0].pos, &[0, 2]);
        assert!(rows[0].consts.is_empty());
        assert_eq!(rows[1].mask, 0b011);
        assert_eq!(rows[1].consts.len(), 1);
        let mut out = Vec::new();
        rows[0].sources(3, &mut out);
        assert_eq!(
            out,
            [SlotSource::Grid(4), SlotSource::Hole, SlotSource::Grid(1)]
        );
        rows[1].sources(3, &mut out);
        assert_eq!(
            out,
            [SlotSource::Const(9), SlotSource::Grid(0), SlotSource::Hole]
        );
    }

    #[test]
    fn gather_table_counts_every_vector_capacity() {
        let table = two_row_table();
        let resident = table.starts.capacity() * 4
            + table.index.capacity() * 4
            + table.pos.capacity()
            + table.masks.capacity() * 8
            + table.consts.capacity() * std::mem::size_of::<ConstSlot>();
        assert!(table.approx_bytes() >= resident);
        let mut trace = ControlTrace::new();
        for _ in 0..5 {
            trace.record(CycleRecord(0));
        }
        assert!(trace.approx_bytes() >= trace.records.capacity());
    }

    #[test]
    fn schedule_cache_is_lru_under_byte_budget() {
        let mut c: ScheduleCache<&'static str> = ScheduleCache::new(30);
        let key = |n: u64| (n, n.wrapping_mul(31));
        c.insert(key(1), Arc::new("a"), 10);
        c.insert(key(2), Arc::new("b"), 10);
        c.insert(key(3), Arc::new("c"), 10);
        assert!(c.get(key(1)).is_some()); // refresh 1
        c.insert(key(4), Arc::new("d"), 10);
        assert!(c.get(key(2)).is_none(), "LRU victim must be 2");
        assert!(c.get(key(1)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.bytes(), 30);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn schedule_cache_rejects_oversize() {
        let mut c: ScheduleCache<u8> = ScheduleCache::new(10);
        c.insert((1, 1), Arc::new(0), 11);
        assert!(c.is_empty());
        assert_eq!(c.stats().oversize, 1);
    }

    #[test]
    fn refusal_labels_are_stable() {
        assert_eq!(ReplayUnsupported::FaultPlan.label(), "fault_plan");
        assert_eq!(ReplayUnsupported::Tracer.label(), "tracer");
        let e = ReplayUnsupported::InstancesMismatch {
            expected: 4,
            actual: 5,
        };
        assert_eq!(e.label(), "instances_mismatch");
        assert!(e.to_string().contains("4 instance(s)"));
    }
}
