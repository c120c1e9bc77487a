//! The collector: retire buffering, the reclaimer lock, and `TS-Collect`.
//!
//! Mirrors §4 of the paper:
//!
//! * each registered thread owns a circular delete buffer
//!   ([`crate::buffer::LocalBuffer`]);
//! * the thread that fills its buffer becomes the **reclaimer**, serialized
//!   by a lock ("we ensure that there is always at most a single active
//!   reclaimer in the system via a lock");
//! * the reclaimer aggregates every thread's buffer into one master buffer
//!   and sorts it on its own thread (under the reclaimer lock), has every
//!   thread scan (via the [`Platform`]), then frees unmarked nodes and
//!   carries marked survivors into the next phase;
//! * a thread that blocked on the reclaimer lock re-checks its buffer and
//!   "will probably discover that its buffer has been drained ... and that
//!   it can go back to work".

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::LocalBuffer;
use crate::config::{CollectPolicy, CollectorConfig};
use crate::errors::HeapBlockError;
use crate::master::MasterBuffer;
use crate::platform::Platform;
use crate::retired::{DropFn, Retired};
use crate::roots::ThreadRoots;
use crate::selfscan::{capture_context, SelfScanContext};
use crate::stats::{CollectorStats, StatsSnapshot};

/// State protected by the reclaimer lock.
struct ReclaimState {
    /// Marked nodes from the previous phase, re-examined next phase.
    survivors: Vec<Retired>,
}

/// A ThreadScan collector.
///
/// Create one per logical region of shared data (typically one per data
/// structure or one per process), register every thread that accesses the
/// data, and hand unlinked nodes to [`ThreadHandle::retire`].
pub struct Collector<P: Platform> {
    platform: Arc<P>,
    config: CollectorConfig,
    reclaim: Mutex<ReclaimState>,
    /// All live per-thread buffers (drained by the reclaimer under the
    /// reclaimer lock, which serializes readers).
    buffers: Mutex<Vec<Arc<LocalBuffer>>>,
    /// Records left behind by unregistered threads; folded into the next
    /// phase.
    orphans: Mutex<Vec<Retired>>,
    /// §7 distributed-free extension: reclaimable nodes awaiting a free by
    /// whichever thread next interacts with the collector.
    free_queue: Mutex<VecDeque<Retired>>,
    /// Registered thread count (mirror of `buffers.len()`), readable
    /// without the registry lock: sizes the adaptive policy's automatic
    /// pending watermark on the retire fast path.
    thread_count: AtomicUsize,
    /// Adaptive-policy hysteresis latch: `true` while the controller may
    /// fire. Cleared when an adaptive collect fires; set again only once
    /// pending falls below half the watermark, so a workload whose
    /// pending level hovers at the watermark (e.g. pinned survivors that
    /// no phase can free) cannot collect-storm.
    adaptive_armed: AtomicBool,
    stats: CollectorStats,
}

impl<P: Platform> Collector<P> {
    /// Creates a collector with the paper-default configuration.
    pub fn new(platform: P) -> Arc<Self> {
        Self::with_config(platform, CollectorConfig::default())
    }

    /// Creates a collector with an explicit configuration.
    pub fn with_config(platform: P, config: CollectorConfig) -> Arc<Self> {
        Arc::new(Self {
            platform: Arc::new(platform),
            config,
            reclaim: Mutex::new(ReclaimState {
                survivors: Vec::new(),
            }),
            buffers: Mutex::new(Vec::new()),
            orphans: Mutex::new(Vec::new()),
            free_queue: Mutex::new(VecDeque::new()),
            thread_count: AtomicUsize::new(0),
            adaptive_armed: AtomicBool::new(true),
            stats: CollectorStats::default(),
        })
    }

    /// Registers the calling thread. All threads that read or mutate the
    /// protected data structure must hold a handle while doing so.
    pub fn register(self: &Arc<Self>) -> ThreadHandle<P> {
        let buffer = Arc::new(LocalBuffer::new(self.config.buffer_capacity));
        let roots = Arc::new(ThreadRoots::new(self.config.max_heap_blocks));
        self.buffers.lock().push(Arc::clone(&buffer));
        self.thread_count.fetch_add(1, Ordering::Relaxed);
        let token = self.platform.register_current(Arc::clone(&roots));
        ThreadHandle {
            collector: Arc::clone(self),
            buffer,
            roots,
            token: Some(token),
            _not_send: PhantomData,
        }
    }

    /// The collector's configuration.
    pub fn config(&self) -> &CollectorConfig {
        &self.config
    }

    /// The underlying platform.
    pub fn platform(&self) -> &P {
        &self.platform
    }

    /// A snapshot of lifetime statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Nodes currently awaiting a later phase (marked survivors), orphaned
    /// records, records still sitting in live per-thread delete buffers,
    /// and queued distributed frees — everything retired but not yet
    /// freed. A record occupies exactly one of those four places at any
    /// time: a collect *moves* buffered records into the master buffer
    /// and from there into either the survivor list or the free queue
    /// (never copying), and unregistration moves a buffer's records to
    /// the orphan list under the same reclaimer lock. The sum therefore
    /// counts every pending node exactly once — pinned by
    /// `pending_estimate_counts_each_source_exactly_once`. Diagnostic;
    /// racy by nature (retires and drains race the four lock
    /// acquisitions, so the value may be momentarily stale, but never
    /// double-counts).
    pub fn pending_estimate(&self) -> usize {
        self.reclaim.lock().survivors.len()
            + self.orphans.lock().len()
            + self.free_queue.lock().len()
            + self.buffers.lock().iter().map(|b| b.len()).sum::<usize>()
    }

    /// Forces a full reclamation phase now, regardless of buffer fullness,
    /// and drains the distributed-free queue. Useful at quiescent points
    /// and in tests.
    pub fn collect_now(&self) {
        // Boundary snapshot: the caller's frames (above this call) are
        // application memory; everything below is collector machinery.
        let ctx = capture_context();
        let mut state = self.reclaim.lock();
        self.collect_locked(&mut state, &ctx, false);
        drop(state);
        // Forced path: block for the queue instead of `try_lock`, so a
        // caller of `flush()` never returns with proven-reclaimable nodes
        // still queued just because another thread's drain was in flight.
        let batch: Vec<Retired> = self.free_queue.lock().drain(..).collect();
        self.reclaim_free_batch(batch);
    }

    /// Triggered collect: called when `trigger`'s owner found it full.
    /// `ctx` was captured at the retire boundary.
    fn collect_for(&self, trigger: &LocalBuffer, ctx: &SelfScanContext) {
        let mut state = self.reclaim.lock();
        if !trigger.is_full() {
            // Another reclaimer drained us while we waited for the lock —
            // back to work (paper §4.2, "Reclamation").
            self.stats.add(&self.stats.collects_skipped, 1);
            return;
        }
        self.collect_locked(&mut state, ctx, false);
    }

    /// The adaptive policy's pending watermark: the configured value, or —
    /// when configured `0` — half the aggregate buffer capacity of the
    /// currently registered threads (i.e. collect once the backlog
    /// reaches what the Fixed policy would accumulate across half the
    /// fleet).
    fn adaptive_pending_watermark(&self) -> usize {
        match self.config.pending_high_watermark {
            0 => {
                let threads = self.thread_count.load(Ordering::Relaxed).max(1);
                (self.config.buffer_capacity * threads / 2).max(1)
            }
            hw => hw,
        }
    }

    /// Cheap retire-path proxy for [`Self::pending_estimate`]: two
    /// relaxed loads instead of four lock acquisitions. Counts the same
    /// population — retired but not yet destructed, wherever the record
    /// currently sits (buffered, surviving, orphaned, or queued).
    fn outstanding_proxy(&self) -> usize {
        self.stats
            .retired
            .load(Ordering::Relaxed)
            .saturating_sub(self.stats.freed.load(Ordering::Relaxed))
    }

    /// Whether either adaptive signal is at or above its watermark.
    fn adaptive_over_watermark(&self) -> bool {
        if self.outstanding_proxy() >= self.adaptive_pending_watermark() {
            return true;
        }
        match (
            &self.config.pressure_source,
            self.config.pressure_high_watermark,
        ) {
            (Some(src), hw) if hw > 0 => src.bytes() >= hw,
            _ => false,
        }
    }

    /// Whether every adaptive signal has fallen below half its watermark
    /// — the hysteresis re-arm threshold.
    fn adaptive_below_rearm(&self) -> bool {
        if self.outstanding_proxy() >= self.adaptive_pending_watermark() / 2 {
            return false;
        }
        match (
            &self.config.pressure_source,
            self.config.pressure_high_watermark,
        ) {
            (Some(src), hw) if hw > 0 => src.bytes() < hw / 2,
            _ => true,
        }
    }

    /// Retire-path check for [`CollectPolicy::Adaptive`]: `true` at most
    /// once per excursion above a watermark. Relaxed atomics only; the
    /// Fixed policy never reaches this.
    fn adaptive_should_collect(&self) -> bool {
        if self.adaptive_over_watermark() {
            // `swap` makes exactly one of the racing retirers the
            // initiator; everyone else keeps working.
            self.adaptive_armed.swap(false, Ordering::Relaxed)
        } else {
            if !self.adaptive_armed.load(Ordering::Relaxed) && self.adaptive_below_rearm() {
                self.adaptive_armed.store(true, Ordering::Relaxed);
            }
            false
        }
    }

    /// Adaptive-policy collect: like [`Self::collect_for`], but the
    /// under-lock re-check is the watermark predicate rather than buffer
    /// fullness — if a reclaimer ran while we waited for the lock it has
    /// already relieved the pressure, so go back to work (the §4.2 move,
    /// applied to the controller).
    fn collect_adaptive(&self, ctx: &SelfScanContext) {
        let mut state = self.reclaim.lock();
        if !self.adaptive_over_watermark() {
            self.stats.add(&self.stats.collects_skipped, 1);
            return;
        }
        self.stats.add(&self.stats.adaptive_collects, 1);
        self.collect_locked(&mut state, ctx, true);
    }

    /// One reclamation phase. Caller holds the reclaimer lock.
    /// `adaptive` is true when the adaptive controller (not a full
    /// buffer or a forced flush) initiated this phase — telemetry only.
    fn collect_locked(&self, state: &mut ReclaimState, ctx: &SelfScanContext, adaptive: bool) {
        use crate::telemetry::PhaseKind;

        let mut entries = std::mem::take(&mut state.survivors);
        entries.append(&mut self.orphans.lock());
        let buffers: Vec<Arc<LocalBuffer>> = self.buffers.lock().clone();
        for buf in &buffers {
            // SAFETY: the reclaimer lock makes this thread the single
            // reader of every registered buffer.
            unsafe { buf.drain_into(&mut entries) };
        }
        if entries.is_empty() {
            return;
        }
        let phase_start = std::time::Instant::now();
        // Telemetry off (`None`) costs exactly this one plain-field
        // branch; ids and clock reads happen only when a sink is set.
        let telemetry = self
            .config
            .telemetry
            .map(|sink| (sink, crate::telemetry::next_collect_id()));
        let entry_count = entries.len();
        if let Some((sink, id)) = telemetry {
            sink.event(PhaseKind::CollectBegin, id, entry_count as u64);
            sink.event(PhaseKind::SortBegin, id, 0);
        }

        let master = MasterBuffer::new(entries, &self.config);
        self.stats.add(&self.stats.sort_ns_total, master.sort_ns());
        self.stats.raise(&self.stats.sort_ns_max, master.sort_ns());
        if let Some((sink, id)) = telemetry {
            sink.event(PhaseKind::SortEnd, id, entry_count as u64);
        }
        let mut session = master.session();
        session.set_telemetry(telemetry);
        let session = session;
        #[cfg(not(ts_mutate_ordering))]
        let outcome = self.platform.scan_all(&session, ctx);
        // Mutation check (`RUSTFLAGS="--cfg ts_mutate_ordering"`, CI's
        // explorer job): sever the scan→free ordering edge — the phase
        // frees without waiting for any thread to scan and mark, exactly
        // what a too-weak ordering on the scan handshake would permit.
        // The exhaustive Lemma 1 scenarios must catch this; if they stop
        // doing so, the explorer has lost its teeth.
        #[cfg(ts_mutate_ordering)]
        let outcome = {
            let _ = ctx;
            crate::platform::ScanOutcome { threads_scanned: 0 }
        };

        self.stats.add(&self.stats.collects, 1);
        self.stats
            .add(&self.stats.threads_scanned, outcome.threads_scanned);
        self.stats
            .add(&self.stats.words_scanned, session.words_scanned());
        self.stats.add(&self.stats.mark_hits, session.hits());

        let (reclaimable, survivors) = master.partition();
        let survivor_count = survivors.len();
        self.stats.add(&self.stats.survivors, survivor_count);
        state.survivors = survivors;

        if let Some((sink, id)) = telemetry {
            sink.event(PhaseKind::FreeBegin, id, reclaimable.len() as u64);
        }
        let freed = if self.config.distribute_frees {
            self.free_queue.lock().extend(reclaimable);
            0
        } else {
            let n = reclaimable.len();
            for r in reclaimable {
                // SAFETY: the scan protocol established that no registered
                // thread holds a reference (Lemma 1).
                unsafe { r.reclaim() };
            }
            self.stats.add(&self.stats.freed, n);
            n
        };
        if let Some((sink, id)) = telemetry {
            sink.event(PhaseKind::FreeEnd, id, freed as u64);
        }

        // Reclaimer-side latency (sort + broadcast + ack wait + sweep):
        // the §7 responsiveness number, measured where the paper's future
        // work proposes to attack it.
        let ns = crate::master::elapsed_ns(phase_start);
        self.stats.add(&self.stats.collect_ns_total, ns);
        self.stats.raise(&self.stats.collect_ns_max, ns);
        self.stats.record_collect_ns(ns);
        if let Some((sink, id)) = telemetry {
            sink.event(PhaseKind::CollectEnd, id, survivor_count as u64);
            (sink.collect_summary)(&crate::telemetry::CollectSummary {
                collect_id: id,
                ns: ns as u64,
                entries: entry_count,
                freed,
                survivors: survivor_count,
                threads_scanned: outcome.threads_scanned,
                adaptive,
                pending: self.outstanding_proxy(),
                armed: self.adaptive_armed.load(Ordering::Relaxed),
            });
        }
    }

    /// Frees up to `max` queued nodes from the distributed-free queue.
    /// Returns how many were freed.
    ///
    /// Best-effort: `try_lock` keeps the `retire` fast path
    /// contention-free, so under contention this may free nothing. The
    /// forced path ([`Self::collect_now`] / `ThreadHandle::flush`) takes a
    /// blocking lock instead and always drains.
    pub fn drain_free_queue(&self, max: usize) -> usize {
        let batch: Vec<Retired> = match self.free_queue.try_lock() {
            Some(mut q) => {
                let n = q.len().min(max);
                q.drain(..n).collect()
            }
            None => return 0,
        };
        self.reclaim_free_batch(batch)
    }

    /// Reclaims a batch popped off the free queue, updating the counters.
    fn reclaim_free_batch(&self, batch: Vec<Retired>) -> usize {
        let n = batch.len();
        for r in batch {
            // SAFETY: nodes only enter the queue after a completed scan
            // phase proved them unreferenced.
            unsafe { r.reclaim() };
        }
        if n > 0 {
            self.stats.add(&self.stats.freed, n);
            self.stats.add(&self.stats.distributed_frees, n);
        }
        n
    }

    fn unregister_buffer(&self, buffer: &Arc<LocalBuffer>) {
        // Serialize with any in-flight collect so that draining our buffer
        // into `orphans` has a single reader.
        let _state = self.reclaim.lock();
        let mut orphans = self.orphans.lock();
        // SAFETY: holding the reclaimer lock makes us the sole reader.
        unsafe { buffer.drain_into(&mut orphans) };
        drop(orphans);
        self.buffers.lock().retain(|b| !Arc::ptr_eq(b, buffer));
        self.thread_count.fetch_sub(1, Ordering::Relaxed);
    }
}

impl<P: Platform> Drop for Collector<P> {
    fn drop(&mut self) {
        // No handles can exist (they hold an Arc to us), so no thread can
        // still reference any retired node: reclaim everything outstanding.
        let state = self.reclaim.get_mut();
        let mut leftovers = std::mem::take(&mut state.survivors);
        leftovers.append(self.orphans.get_mut());
        for buf in self.buffers.get_mut().drain(..) {
            debug_assert!(
                buf.is_empty(),
                "live buffer at collector drop: a ThreadHandle outlived its Collector Arc?"
            );
            // SAFETY: exclusive access via &mut self.
            unsafe { buf.drain_into(&mut leftovers) };
        }
        leftovers.extend(self.free_queue.get_mut().drain(..));
        let n = leftovers.len();
        for r in leftovers {
            // SAFETY: see above — no handle, hence no referencing thread.
            unsafe { r.reclaim() };
        }
        self.stats.add(&self.stats.freed, n);
    }
}

/// Per-thread access to a [`Collector`]. Not `Send`: it is bound to the
/// thread that called [`Collector::register`] (its stack is what gets
/// scanned on this thread's behalf).
pub struct ThreadHandle<P: Platform> {
    collector: Arc<Collector<P>>,
    buffer: Arc<LocalBuffer>,
    roots: Arc<ThreadRoots>,
    token: Option<P::ThreadToken>,
    _not_send: PhantomData<*mut ()>,
}

impl<P: Platform> ThreadHandle<P> {
    /// Retires a node previously allocated as `Box<T>` and since unlinked
    /// from all shared references. The collector will drop the box once no
    /// registered thread's private memory can reach it.
    ///
    /// This is the entire integration surface of ThreadScan: "the
    /// programmer just needs to pass nodes to its interface".
    ///
    /// # Safety
    ///
    /// * `ptr` came from `Box::<T>::into_raw` and is retired at most once.
    /// * The node is unreachable from shared memory (Assumption 1.1).
    /// * Threads that may still hold private references are registered with
    ///   this collector and do not hide pointers (Assumption 1.3).
    pub unsafe fn retire<T>(&self, ptr: *mut T) {
        self.retire_record(Retired::of_box(ptr));
    }

    /// Retires an allocation described by raw parts; see
    /// [`Retired::from_raw_parts`].
    ///
    /// # Safety
    ///
    /// Same as [`Self::retire`], with `drop_fn(addr as *mut u8)` sound to
    /// call exactly once.
    pub unsafe fn retire_raw(&self, addr: usize, size: usize, drop_fn: DropFn) {
        self.retire_record(Retired::from_raw_parts(addr, size, drop_fn));
    }

    fn retire_record(&self, record: Retired) {
        self.collector.stats.add(&self.collector.stats.retired, 1);
        if self.collector.config.distribute_frees {
            self.collector
                .drain_free_queue(self.collector.config.distributed_free_batch);
        }
        let mut record = record;
        loop {
            // SAFETY: this handle's thread is the buffer's only producer.
            match unsafe { self.buffer.push(record) } {
                Ok(()) => {
                    if self.buffer.is_full() {
                        // We inserted the last node: we become the
                        // reclaimer. Snapshot the application boundary
                        // before entering the machinery.
                        let ctx = capture_context();
                        self.collector.collect_for(&self.buffer, &ctx);
                    } else if self.collector.config.collect_policy == CollectPolicy::Adaptive
                        && self.collector.adaptive_should_collect()
                    {
                        // Pending garbage (or allocator pressure) crossed
                        // the watermark while every buffer is still below
                        // capacity: collect early rather than letting the
                        // backlog grow to the fixed trigger.
                        let ctx = capture_context();
                        self.collector.collect_adaptive(&ctx);
                    }
                    return;
                }
                Err(rejected) => {
                    record = rejected;
                    let ctx = capture_context();
                    self.collector.collect_for(&self.buffer, &ctx);
                }
            }
        }
    }

    /// Registers a heap block holding private references
    /// (`TS_add_heap_block`, §4.3). The block is scanned as part of this
    /// thread's roots until removed.
    ///
    /// The block must stay allocated until [`Self::remove_heap_block`] or
    /// until this handle is dropped.
    pub fn add_heap_block(&self, start: *const u8, len: usize) -> Result<(), HeapBlockError> {
        self.roots.add_heap_block(start, len)
    }

    /// Unregisters a heap block (`TS_remove_heap_block`, §4.3).
    pub fn remove_heap_block(&self, start: *const u8) -> Result<(), HeapBlockError> {
        self.roots.remove_heap_block(start)
    }

    /// The collector this handle belongs to.
    pub fn collector(&self) -> &Arc<Collector<P>> {
        &self.collector
    }

    /// Number of nodes currently waiting in this thread's delete buffer.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Forces a reclamation phase (including this thread's buffered nodes).
    pub fn flush(&self) {
        self.collector.collect_now();
    }
}

impl<P: Platform> Drop for ThreadHandle<P> {
    fn drop(&mut self) {
        self.collector.unregister_buffer(&self.buffer);
        // Unregister from the platform only after the buffer is out of the
        // registry; the reclaimer lock acquired above has been released, but
        // any *new* collect will simply no longer signal us — and we no
        // longer contribute roots, which is sound because this thread can
        // only lose references by returning from the code that held them.
        drop(self.token.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{NullPlatform, ScanOutcome};
    use crate::session::ScanSession;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Counts drops so tests can observe reclamation.
    struct Node {
        counter: Arc<AtomicUsize>,
        _pad: [u8; 24],
    }
    impl Drop for Node {
        fn drop(&mut self) {
            self.counter.fetch_add(1, Ordering::SeqCst);
        }
    }
    fn node(counter: &Arc<AtomicUsize>) -> *mut Node {
        Box::into_raw(Box::new(Node {
            counter: Arc::clone(counter),
            _pad: [0; 24],
        }))
    }

    /// A platform whose "threads" report a configurable set of rooted
    /// words: lets tests pin specific nodes as still-referenced.
    #[derive(Default)]
    struct PinPlatform {
        rooted: Mutex<Vec<usize>>,
        rounds: AtomicUsize,
    }
    // SAFETY (test double): the only "registered thread" root set is
    // `rooted`, which scan_all scans in full before acking.
    unsafe impl Platform for PinPlatform {
        type ThreadToken = ();
        fn register_current(&self, _roots: Arc<ThreadRoots>) -> Self::ThreadToken {}
        fn scan_all(&self, session: &ScanSession<'_>, _ctx: &SelfScanContext) -> ScanOutcome {
            self.rounds.fetch_add(1, Ordering::SeqCst);
            session.scan_words(&self.rooted.lock());
            session.ack();
            ScanOutcome { threads_scanned: 1 }
        }
    }

    #[test]
    fn buffer_fill_triggers_collect_and_frees_everything() {
        let counter = Arc::new(AtomicUsize::new(0));
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default().with_buffer_capacity(8),
        );
        let handle = collector.register();
        for _ in 0..8 {
            unsafe { handle.retire(node(&counter)) };
        }
        // Inserting the 8th node made this thread the reclaimer.
        assert_eq!(counter.load(Ordering::SeqCst), 8);
        let snap = collector.stats();
        assert_eq!(snap.collects, 1);
        assert_eq!(snap.retired, 8);
        assert_eq!(snap.freed, 8);
        drop(handle);
    }

    #[test]
    fn pinned_nodes_survive_and_are_freed_once_unpinned() {
        let counter = Arc::new(AtomicUsize::new(0));
        let platform = PinPlatform::default();
        let pinned = node(&counter);
        platform.rooted.lock().push(pinned as usize);
        let collector =
            Collector::with_config(platform, CollectorConfig::default().with_buffer_capacity(4));
        let handle = collector.register();

        unsafe { handle.retire(pinned) };
        for _ in 0..3 {
            unsafe { handle.retire(node(&counter)) };
        }
        // First phase: 3 freed, the pinned one survives.
        assert_eq!(counter.load(Ordering::SeqCst), 3);
        assert_eq!(collector.pending_estimate(), 1);

        // Drop the "reference" and force another phase.
        collector.platform().rooted.lock().clear();
        collector.collect_now();
        assert_eq!(counter.load(Ordering::SeqCst), 4);
        assert_eq!(collector.pending_estimate(), 0);
        drop(handle);
    }

    #[test]
    fn interior_pointer_pins_node_in_range_mode() {
        let counter = Arc::new(AtomicUsize::new(0));
        let platform = PinPlatform::default();
        let pinned = node(&counter);
        // Point 8 bytes into the allocation.
        platform.rooted.lock().push(pinned as usize + 8);
        let collector =
            Collector::with_config(platform, CollectorConfig::default().with_buffer_capacity(2));
        let handle = collector.register();
        unsafe { handle.retire(pinned) };
        unsafe { handle.retire(node(&counter)) };
        assert_eq!(counter.load(Ordering::SeqCst), 1, "interior ref must pin");
        drop(handle);
        drop(collector);
        assert_eq!(
            counter.load(Ordering::SeqCst),
            2,
            "collector drop reclaims survivors"
        );
    }

    #[test]
    fn collect_now_on_empty_collector_is_a_noop() {
        let collector = Collector::new(NullPlatform);
        collector.collect_now();
        assert_eq!(collector.stats().collects, 0);
    }

    #[test]
    fn handle_drop_orphans_are_reclaimed_by_next_collect() {
        let counter = Arc::new(AtomicUsize::new(0));
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default().with_buffer_capacity(64),
        );
        let handle = collector.register();
        for _ in 0..5 {
            unsafe { handle.retire(node(&counter)) };
        }
        drop(handle); // 5 records become orphans
        assert_eq!(counter.load(Ordering::SeqCst), 0);
        collector.collect_now();
        assert_eq!(counter.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn distributed_frees_are_performed_by_retiring_threads() {
        let counter = Arc::new(AtomicUsize::new(0));
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default()
                .with_buffer_capacity(4)
                .with_distributed_frees(true),
        );
        let handle = collector.register();
        for _ in 0..4 {
            unsafe { handle.retire(node(&counter)) };
        }
        // The collect published 4 nodes to the queue instead of freeing.
        assert_eq!(counter.load(Ordering::SeqCst), 0);
        assert_eq!(collector.pending_estimate(), 4);
        // The next retire drains a batch.
        unsafe { handle.retire(node(&counter)) };
        assert_eq!(counter.load(Ordering::SeqCst), 4);
        let snap = collector.stats();
        assert_eq!(snap.distributed_frees, 4);
        drop(handle);
        drop(collector);
        assert_eq!(counter.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn pending_estimate_counts_live_thread_buffers() {
        // Regression: records sitting in a live per-thread buffer used to
        // be invisible to the estimate, so "everything not yet freed" read
        // as zero right after a retire.
        let counter = Arc::new(AtomicUsize::new(0));
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default().with_buffer_capacity(64),
        );
        let handle = collector.register();
        for _ in 0..3 {
            unsafe { handle.retire(node(&counter)) };
        }
        assert_eq!(counter.load(Ordering::SeqCst), 0, "buffer not full yet");
        assert_eq!(
            collector.pending_estimate(),
            3,
            "buffered records are pending"
        );
        handle.flush();
        assert_eq!(collector.pending_estimate(), 0);
        drop(handle);
    }

    #[test]
    fn forced_flush_drains_free_queue_despite_contention() {
        // Regression: `collect_now` used to drain the distributed-free
        // queue with `try_lock`, so a forced flush racing any other drain
        // returned with proven-reclaimable nodes still queued.
        let counter = Arc::new(AtomicUsize::new(0));
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default()
                .with_buffer_capacity(4)
                .with_distributed_frees(true),
        );
        let handle = collector.register();
        for _ in 0..4 {
            unsafe { handle.retire(node(&counter)) };
        }
        assert_eq!(counter.load(Ordering::SeqCst), 0, "queued, not yet freed");

        // Hold the free-queue lock while another thread runs the forced
        // path; with `try_lock` it would bail and leave the queue full.
        let guard = collector.free_queue.lock();
        let flusher = {
            let collector = Arc::clone(&collector);
            std::thread::spawn(move || collector.collect_now())
        };
        std::thread::sleep(std::time::Duration::from_millis(200));
        drop(guard);
        flusher.join().unwrap();

        assert_eq!(
            counter.load(Ordering::SeqCst),
            4,
            "forced flush must block for the queue and free everything"
        );
        assert_eq!(collector.pending_estimate(), 0);
        drop(handle);
    }

    #[test]
    fn outstanding_counts_queued_distributed_frees_like_pending_estimate() {
        // Pins `StatsSnapshot::outstanding` semantics: nodes in the
        // distributed-free queue are proven reclaimable but not yet
        // freed, so both the snapshot arithmetic and `pending_estimate`
        // must count them as outstanding.
        let counter = Arc::new(AtomicUsize::new(0));
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default()
                .with_buffer_capacity(4)
                .with_distributed_frees(true),
        );
        let handle = collector.register();
        for _ in 0..4 {
            unsafe { handle.retire(node(&counter)) };
        }
        // A phase ran; all 4 nodes sit in the free queue, destructors
        // not yet executed.
        assert_eq!(counter.load(Ordering::SeqCst), 0);
        assert_eq!(collector.free_queue.lock().len(), 4);
        assert_eq!(collector.stats().outstanding(), 4);
        assert_eq!(collector.pending_estimate(), 4);
        collector.collect_now(); // forced path drains the queue
        assert_eq!(collector.stats().outstanding(), 0);
        assert_eq!(collector.pending_estimate(), 0);
        drop(handle);
    }

    #[test]
    fn collect_latency_histogram_covers_every_phase() {
        let counter = Arc::new(AtomicUsize::new(0));
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default().with_buffer_capacity(8),
        );
        let handle = collector.register();
        for _ in 0..32 {
            unsafe { handle.retire(node(&counter)) };
        }
        let snap = collector.stats();
        assert!(snap.collects >= 4);
        assert_eq!(
            snap.collect_ns_hist.iter().sum::<usize>(),
            snap.collects,
            "each phase lands in exactly one latency bucket"
        );
        assert!(snap.collect_us_percentile(0.5) > 0.0);
        drop(handle);
    }

    #[test]
    fn multithreaded_retire_reclaims_all_nodes() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 2000;
        let counter = Arc::new(AtomicUsize::new(0));
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default().with_buffer_capacity(32),
        );
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let collector = Arc::clone(&collector);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    let handle = collector.register();
                    for _ in 0..PER_THREAD {
                        unsafe { handle.retire(node(&counter)) };
                    }
                });
            }
        });
        collector.collect_now();
        assert_eq!(counter.load(Ordering::SeqCst), THREADS * PER_THREAD);
        let snap = collector.stats();
        assert_eq!(snap.retired, THREADS * PER_THREAD);
        assert_eq!(snap.freed, THREADS * PER_THREAD);
        assert!(snap.collects >= THREADS * PER_THREAD / 32 / 2);
    }

    #[test]
    fn stats_track_scan_volume() {
        let platform = PinPlatform::default();
        platform.rooted.lock().extend([1usize, 2, 3]);
        let collector =
            Collector::with_config(platform, CollectorConfig::default().with_buffer_capacity(2));
        let handle = collector.register();
        let counter = Arc::new(AtomicUsize::new(0));
        unsafe { handle.retire(node(&counter)) };
        unsafe { handle.retire(node(&counter)) };
        let snap = collector.stats();
        assert_eq!(snap.collects, 1);
        assert_eq!(snap.threads_scanned, 1);
        assert_eq!(snap.words_scanned, 3);
        drop(handle);
    }

    #[test]
    fn adaptive_policy_collects_on_pending_watermark_below_capacity() {
        // The adaptive controller's whole point: a collect fires when the
        // pending backlog crosses the watermark even though every local
        // buffer is far below capacity (the fixed trigger would wait for
        // 64 retires here).
        let counter = Arc::new(AtomicUsize::new(0));
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default()
                .with_buffer_capacity(64)
                .with_collect_policy(CollectPolicy::Adaptive)
                .with_pending_high_watermark(8),
        );
        let handle = collector.register();
        for _ in 0..7 {
            unsafe { handle.retire(node(&counter)) };
        }
        assert_eq!(counter.load(Ordering::SeqCst), 0, "below watermark: idle");
        assert_eq!(collector.stats().collects, 0);
        unsafe { handle.retire(node(&counter)) };
        assert_eq!(counter.load(Ordering::SeqCst), 8, "8th retire hit the mark");
        let snap = collector.stats();
        assert_eq!(snap.collects, 1);
        assert_eq!(snap.adaptive_collects, 1);
        assert!(handle.buffered() < 64, "buffer never filled");
        drop(handle);
    }

    #[test]
    fn adaptive_heap_pressure_fires_with_buffers_below_capacity() {
        // Satellite regression: the heap-pressure leg alone must initiate
        // a collect while every local buffer is below capacity and the
        // pending count is nowhere near its watermark.
        let gauge = Arc::new(AtomicUsize::new(0));
        let source = {
            let gauge = Arc::clone(&gauge);
            crate::config::PressureSource::new(move || gauge.load(Ordering::Relaxed))
        };
        let counter = Arc::new(AtomicUsize::new(0));
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default()
                .with_buffer_capacity(64)
                .with_collect_policy(CollectPolicy::Adaptive)
                .with_pending_high_watermark(1_000_000)
                .with_pressure_source(source, 1 << 20),
        );
        let handle = collector.register();
        for _ in 0..3 {
            unsafe { handle.retire(node(&counter)) };
        }
        assert_eq!(counter.load(Ordering::SeqCst), 0, "no pressure: idle");
        gauge.store(2 << 20, Ordering::Relaxed); // allocator reports 2 MiB
        unsafe { handle.retire(node(&counter)) };
        assert_eq!(
            counter.load(Ordering::SeqCst),
            4,
            "pressure alone must trigger the phase"
        );
        let snap = collector.stats();
        assert_eq!(snap.adaptive_collects, 1);
        assert!(handle.buffered() < 64, "buffer stayed below capacity");
        drop(handle);
    }

    #[test]
    fn fixed_policy_matches_legacy_trigger_points_exactly() {
        // Acceptance pin: `CollectPolicy::Fixed` must be observationally
        // identical to the pre-policy collector — same trigger points,
        // equal `collects` counts — even with adaptive knobs set, since
        // the policy gate is checked before any watermark is consulted.
        let run = |config: CollectorConfig| {
            let counter = Arc::new(AtomicUsize::new(0));
            let collector = Collector::with_config(NullPlatform, config);
            let handle = collector.register();
            let mut collect_points = Vec::new();
            for i in 1..=32usize {
                unsafe { handle.retire(node(&counter)) };
                if counter.load(Ordering::SeqCst) == i {
                    collect_points.push(i);
                }
            }
            drop(handle);
            (collect_points, collector.stats().collects)
        };
        let legacy = CollectorConfig::default().with_buffer_capacity(8);
        let fixed_with_knobs = CollectorConfig::default()
            .with_buffer_capacity(8)
            .with_pending_high_watermark(1); // ignored: policy stays Fixed
        let (legacy_points, legacy_collects) = run(legacy);
        let (fixed_points, fixed_collects) = run(fixed_with_knobs);
        assert_eq!(legacy_points, vec![8, 16, 24, 32], "full-buffer multiples");
        assert_eq!(fixed_points, legacy_points);
        assert_eq!(fixed_collects, legacy_collects);
        assert_eq!(fixed_collects, 4);
    }

    #[test]
    fn adaptive_hysteresis_fires_once_per_excursion() {
        // Survivors a phase cannot free keep the pending proxy above the
        // watermark; without the armed latch every subsequent retire
        // would initiate another phase (a collect storm).
        let counter = Arc::new(AtomicUsize::new(0));
        let platform = PinPlatform::default();
        let pinned: Vec<*mut Node> = (0..4).map(|_| node(&counter)).collect();
        platform
            .rooted
            .lock()
            .extend(pinned.iter().map(|&p| p as usize));
        let collector = Collector::with_config(
            platform,
            CollectorConfig::default()
                .with_buffer_capacity(64)
                .with_collect_policy(CollectPolicy::Adaptive)
                .with_pending_high_watermark(4),
        );
        let handle = collector.register();
        for &p in &pinned {
            unsafe { handle.retire(p) };
        }
        // The 4th retire fired; every node was marked, so all survive.
        let snap = collector.stats();
        assert_eq!(snap.adaptive_collects, 1);
        assert_eq!(snap.survivors, 4);
        assert_eq!(counter.load(Ordering::SeqCst), 0);
        // Pending stays >= the watermark, but the controller is disarmed:
        // further retires must NOT trigger more adaptive phases.
        for _ in 0..8 {
            unsafe { handle.retire(node(&counter)) };
        }
        let snap = collector.stats();
        assert_eq!(snap.adaptive_collects, 1, "disarmed: no collect storm");
        assert_eq!(snap.collects, 1);

        // Unpin, drain, and let pending fall below half the watermark:
        // the controller re-arms and a fresh excursion fires again.
        collector.platform().rooted.lock().clear();
        collector.collect_now();
        assert_eq!(counter.load(Ordering::SeqCst), 12, "everything freed");
        for _ in 0..4 {
            unsafe { handle.retire(node(&counter)) };
        }
        assert_eq!(collector.stats().adaptive_collects, 2, "re-armed and fired");
        drop(handle);
    }

    #[test]
    fn pending_estimate_counts_each_source_exactly_once() {
        // Regression pin for the estimate's no-double-counting contract:
        // survivors, the distributed-free queue, live buffers, and
        // orphans each hold a record exclusively, so the estimate equals
        // `retired - freed` at every step.
        let counter = Arc::new(AtomicUsize::new(0));
        let platform = PinPlatform::default();
        let pinned = node(&counter);
        platform.rooted.lock().push(pinned as usize);
        let collector = Collector::with_config(
            platform,
            CollectorConfig {
                // Batch 0: retires never drain the queue behind our back.
                distributed_free_batch: 0,
                ..CollectorConfig::default()
            }
            .with_buffer_capacity(4)
            .with_distributed_frees(true),
        );
        let handle = collector.register();
        unsafe { handle.retire(pinned) };
        for _ in 0..3 {
            unsafe { handle.retire(node(&counter)) };
        }
        // Phase ran: 1 survivor (pinned), 3 queued frees, empty buffer.
        assert_eq!(collector.reclaim.lock().survivors.len(), 1);
        assert_eq!(collector.free_queue.lock().len(), 3);
        assert_eq!(collector.pending_estimate(), 4);
        assert_eq!(collector.stats().outstanding(), 4);

        // Two more sit in the live buffer: 1 + 3 + 2, no double counts.
        for _ in 0..2 {
            unsafe { handle.retire(node(&counter)) };
        }
        assert_eq!(handle.buffered(), 2);
        assert_eq!(collector.pending_estimate(), 6);
        assert_eq!(collector.stats().outstanding(), 6);

        // Unregistering moves the 2 buffered records to the orphan list —
        // moved, not copied: the estimate must not change.
        drop(handle);
        assert_eq!(collector.orphans.lock().len(), 2);
        assert_eq!(collector.pending_estimate(), 6);

        // A forced phase frees everything except the pinned survivor.
        collector.collect_now();
        assert_eq!(counter.load(Ordering::SeqCst), 5);
        assert_eq!(collector.pending_estimate(), 1);
        assert_eq!(collector.stats().outstanding(), 1);
    }
}
