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
//!   and sorts it on its own thread (under the reclaimer lock), runs the
//!   scan round ([`Round::run`]) in which every thread scans through the
//!   [`Platform`], then carries marked survivors into the next phase;
//! * a thread that blocked on the reclaimer lock re-checks its buffer and
//!   "will probably discover that its buffer has been drained ... and that
//!   it can go back to work".
//!
//! Where the paper's reclaimer then calls `free` on every unmarked node,
//! this one hands them back: the delete buffer has a second stage, a
//! per-thread mailbox, and each thread frees its parked nodes itself —
//! one right before each allocation it announces through
//! [`ThreadHandle::before_alloc`], so the allocator hands the freed chunk
//! straight back, and one per `retire` once its two stages together hold
//! half its buffer. Frees then happen at the rate the thread allocates,
//! on the thread that allocates, instead of in one burst on the
//! reclaimer.

use std::marker::PhantomData;
use std::sync::Arc;
use std::thread::ThreadId;

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;

use crate::buffer::LocalBuffer;
use crate::config::{check_buffer_capacity, CollectorConfig};
use crate::errors::HeapBlockError;
use crate::hist::Hist;
use crate::master::MasterBuffer;
use crate::platform::{Platform, RegistryKey};
use crate::retired::{DropFn, Retired};
use crate::roots::{ThreadRoots, MAX_HEAP_BLOCKS};
use crate::round::{Round, ScanClaim};
use crate::selfscan::{capture_context, SelfScanContext};
use crate::stats::{CollectorStats, StatsSnapshot};

/// What every platform call passes: a collector is its platform's one registry.
const KEY: &RegistryKey = &RegistryKey(());

/// State protected by the reclaimer lock: the survivors, the buffers every
/// phase works in and the phases' latency. A phase refills and empties the
/// buffers but keeps their capacity, so once they have grown to a phase's
/// size, later phases allocate nothing. Between phases they hold no
/// records.
struct ReclaimState<P: Platform> {
    /// Marked nodes from the previous phase, and the fresh records of
    /// threads that unregistered since: the next phase re-examines them.
    survivors: Vec<Retired>,
    /// The phase's aggregated, sorted entries and their key arrays.
    master: MasterBuffer,
    /// The phase's unmarked entries, on their way to a mailbox or a free;
    /// on the forced path first the parked nodes taken back.
    reclaimable: Vec<Retired>,
    /// Each live thread's slot, with the number of records it put into
    /// the phase: its hand-off quota. The slots' platform records are
    /// what the phase's scan round runs over.
    slots: Vec<(Arc<ThreadSlot<P>>, usize)>,
    /// Every phase's reclaimer-side latency; see
    /// [`Collector::collect_latency`].
    collect_ns: Hist,
}

/// One registered thread's platform record, its two-stage delete buffer
/// and its counters. The two stages split `buffer_capacity` in half. A
/// retire that finds both stages together holding half of
/// `buffer_capacity` frees a parked node before it buffers a fresh one, so
/// the thread holds at most that many unfreed nodes across both stages.
struct ThreadSlot<P: Platform> {
    /// The registering thread: a round self-scans its own slots and
    /// reaches every other thread.
    owner: ThreadId,
    /// What a round reaches this thread through, holding its claim.
    record: P::Record,
    /// Stage 1: retires no scan has examined yet. Filling it makes the
    /// owner the reclaimer.
    fresh: LocalBuffer,
    /// Stage 2, the mailbox: nodes a scan proved unreferenced, awaiting
    /// their free. The owner takes one per announced allocation and one
    /// per retire at the bound; the reclaimer-lock holder adds a phase's
    /// share or, on the forced and teardown paths, takes everything back.
    /// The lock covers the pop or the move only, never a destructor.
    mailbox: Mutex<Vec<Retired>>,
    /// Written by the owner only ([`CollectorStats::bump`]), on lines
    /// nothing else writes; merged by [`Collector::stats`].
    counters: CachePadded<CollectorStats>,
}

impl<P: Platform> ThreadSlot<P> {
    fn new(buffer_capacity: usize, record: P::Record) -> Self {
        let half = buffer_capacity.next_power_of_two() / 2;
        Self {
            owner: std::thread::current().id(),
            record,
            fresh: LocalBuffer::new(half),
            mailbox: Mutex::new(Vec::with_capacity(half)),
            counters: CachePadded::new(CollectorStats::default()),
        }
    }
}

/// What started a reclamation phase.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Trigger {
    /// A thread filled the fresh stage of its buffer.
    BufferFull,
    /// `collect_now` / `flush` / `quiesce`: free everything that can be.
    Forced,
}

/// A ThreadScan collector.
///
/// Create one per logical region of shared data (typically one per data
/// structure or one per process), register every thread that accesses the
/// data, and hand unlinked nodes to [`ThreadHandle::retire`].
pub struct Collector<P: Platform> {
    platform: Arc<P>,
    config: CollectorConfig,
    /// Opened by each phase under the reclaimer lock, which registrations
    /// make their claims on it under.
    round: Arc<Round>,
    reclaim: Mutex<ReclaimState<P>>,
    /// The registry: one slot per live registration, added and removed
    /// under the reclaimer lock, a thread's slots next to each other. The
    /// fresh stages are drained and the mailboxes filled by the reclaimer
    /// under that lock too, which serializes those accesses.
    slots: Mutex<Vec<Arc<ThreadSlot<P>>>>,
    stats: CollectorStats,
}

impl<P: Platform> Collector<P> {
    /// Creates a collector with the paper-default configuration.
    pub fn new(platform: P) -> Arc<Self> {
        Self::with_config(platform, CollectorConfig::default())
    }

    /// Creates a collector with an explicit configuration.
    ///
    /// # Panics
    ///
    /// If `config.buffer_capacity < 2`: each thread's buffer is split into
    /// a fresh half and a mailbox half.
    pub fn with_config(platform: P, config: CollectorConfig) -> Arc<Self> {
        check_buffer_capacity(config.buffer_capacity);
        Arc::new(Self {
            platform: Arc::new(platform),
            config,
            round: Arc::new(Round::new()),
            reclaim: Mutex::new(ReclaimState {
                survivors: Vec::new(),
                master: MasterBuffer::default(),
                reclaimable: Vec::new(),
                slots: Vec::new(),
                collect_ns: Hist::default(),
            }),
            slots: Mutex::new(Vec::new()),
            stats: CollectorStats::default(),
        })
    }

    /// Registers the calling thread. All threads that read or mutate the
    /// protected data structure must hold a handle while doing so.
    ///
    /// Waits for a phase in progress to end: the claim is made and the
    /// slot joins the registry under the reclaimer lock, so the thread is
    /// in every later phase's round and can claim no earlier one.
    pub fn register(self: &Arc<Self>) -> ThreadHandle<P> {
        let roots = Arc::new(ThreadRoots::new(MAX_HEAP_BLOCKS));
        let _state = self.reclaim.lock();
        let claim = ScanClaim::at(&self.round);
        let record = self
            .platform
            .register_current(KEY, Arc::clone(&roots), claim);
        let slot = Arc::new(ThreadSlot::new(self.config.buffer_capacity, record));
        let mut slots = self.slots.lock();
        // After this thread's other slots: a round reaches a thread once.
        let at = slots
            .iter()
            .rposition(|s| s.owner == slot.owner)
            .map_or(slots.len(), |i| i + 1);
        slots.insert(at, Arc::clone(&slot));
        ThreadHandle {
            collector: Arc::clone(self),
            slot,
            roots,
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

    /// A snapshot of lifetime statistics: the collector-level counters
    /// merged with every live thread's own. Never waits for a phase.
    pub fn stats(&self) -> StatsSnapshot {
        // The registry lock is held across both reads so that a thread
        // unregistering (which folds its counters into the collector's
        // under this lock) is counted exactly once.
        let slots = self.slots.lock();
        let mut snap = self.stats.snapshot();
        for slot in slots.iter() {
            snap.merge(&slot.counters.snapshot());
        }
        snap
    }

    /// The latency of every completed phase, one record per
    /// [`StatsSnapshot::collects`]: the reclaimer-side nanoseconds from
    /// sort to hand-off, the §7 responsiveness number. Takes the reclaimer
    /// lock, so it waits for a phase in progress to end.
    pub fn collect_latency(&self) -> Hist {
        self.reclaim.lock().collect_ns.clone()
    }

    /// Nodes currently awaiting a later phase (marked survivors and the
    /// fresh records of unregistered threads) and records sitting in
    /// either stage of a live thread's delete buffer — everything retired
    /// but not yet freed. A record occupies exactly one of those three
    /// places at any time: a collect *moves* fresh records into the
    /// master buffer and from there into either the survivor list or a
    /// mailbox (never copying), and unregistration moves a thread's fresh
    /// records to the survivor list under the same reclaimer lock. The
    /// sum therefore counts every pending node exactly once — pinned by
    /// `pending_estimate_counts_each_source_exactly_once`. Diagnostic;
    /// racy by nature (retires, frees and drains race the lock
    /// acquisitions, so the value may be momentarily stale, but never
    /// double-counts).
    pub fn pending_estimate(&self) -> usize {
        self.reclaim.lock().survivors.len()
            + self
                .slots
                .lock()
                .iter()
                .map(|s| s.fresh.len() + s.mailbox.lock().len())
                .sum::<usize>()
    }

    /// Forces a full reclamation phase now, regardless of buffer fullness,
    /// and frees every node it or an earlier phase proved reclaimable,
    /// including those parked in other threads' mailboxes. Useful at
    /// quiescent points and in tests.
    pub fn collect_now(&self) {
        // Boundary snapshot: the caller's frames (above this call) are
        // application memory; everything below is collector machinery.
        let ctx = capture_context();
        let mut state = self.reclaim.lock();
        self.collect_locked(&mut state, &ctx, Trigger::Forced);
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
        self.collect_locked(&mut state, ctx, Trigger::BufferFull);
    }

    /// Runs the destructors of `records` and counts them as freed by the
    /// reclaimer-lock holder.
    ///
    /// # Safety
    ///
    /// A completed scan phase proved every record unreferenced (Lemma 1),
    /// or no registered thread is left to hold a reference.
    unsafe fn reclaim_all(&self, records: impl IntoIterator<Item = Retired>) -> usize {
        let mut n = 0;
        for r in records {
            // SAFETY: the caller's contract, record by record.
            unsafe { r.reclaim() };
            n += 1;
        }
        self.stats.add(&self.stats.freed, n);
        n
    }

    /// One reclamation phase. Caller holds the reclaimer lock.
    fn collect_locked(&self, state: &mut ReclaimState<P>, ctx: &SelfScanContext, trigger: Trigger) {
        state
            .slots
            .extend(self.slots.lock().iter().map(|s| (Arc::clone(s), 0)));
        self.run_phase(state, ctx, trigger);
        state.slots.clear();
    }

    /// The body of [`Self::collect_locked`], with `state.slots` filled.
    fn run_phase(&self, state: &mut ReclaimState<P>, ctx: &SelfScanContext, trigger: Trigger) {
        use crate::telemetry::PhaseKind;

        let ReclaimState {
            survivors,
            master,
            reclaimable,
            slots,
            collect_ns,
        } = state;
        let mut freed = 0;
        if trigger == Trigger::Forced {
            for (slot, _) in slots.iter() {
                reclaimable.append(&mut slot.mailbox.lock());
            }
            // SAFETY: a record enters a mailbox only after the phase that
            // examined it found it unmarked (see the hand-off below).
            freed = unsafe { self.reclaim_all(reclaimable.drain(..)) };
        }
        let entries = master.intake();
        entries.append(survivors);
        for (slot, contributed) in slots.iter_mut() {
            // SAFETY: the reclaimer lock makes this thread the single
            // reader of every registered buffer.
            *contributed = unsafe { slot.fresh.drain_into(entries) };
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

        master.build();
        self.stats.add(&self.stats.sort_ns_total, master.sort_ns());
        self.stats.raise(&self.stats.sort_ns_max, master.sort_ns());
        if let Some((sink, id)) = telemetry {
            sink.event(PhaseKind::SortEnd, id, entry_count as u64);
        }
        let mut session = master.session();
        session.set_telemetry(telemetry);
        let session = session;
        #[cfg(not(ts_mutate_ordering))]
        let scanned = {
            let records = slots.iter().map(|(slot, _)| (slot.owner, &slot.record));
            self.round.run(&*self.platform, KEY, &session, ctx, records)
        };
        // Mutation check (`RUSTFLAGS="--cfg ts_mutate_ordering"`, CI's
        // explorer job): sever the scan→free ordering edge — the phase
        // frees without waiting for any thread to scan and mark, exactly
        // what a too-weak ordering on the scan handshake would permit.
        // The exhaustive Lemma 1 scenarios must catch this; if they stop
        // doing so, the explorer has lost its teeth.
        #[cfg(ts_mutate_ordering)]
        let scanned = {
            let _ = ctx;
            0
        };

        self.stats.add(&self.stats.collects, 1);
        self.stats.add(&self.stats.threads_scanned, scanned);
        self.stats
            .add(&self.stats.words_scanned, session.words_scanned());
        self.stats.add(&self.stats.mark_hits, session.hits());

        master.split_into(reclaimable, survivors);
        let survivor_count = survivors.len();
        self.stats.add(&self.stats.survivors, survivor_count);

        if let Some((sink, id)) = telemetry {
            sink.event(PhaseKind::FreeBegin, id, reclaimable.len() as u64);
        }
        let mut reclaimable = reclaimable.drain(..);
        if trigger != Trigger::Forced {
            // The hand-off. Every registered thread acknowledged this
            // phase's scan and none of them marked these records, so no
            // thread holds a reference to them and none can obtain one
            // (Lemma 1; Assumption 1.1): running their destructors is
            // sound now and stays sound however long it is put off. A
            // mailbox is reachable only through its owner's handle and
            // through the registry, which only the reclaimer-lock holder
            // walks, and whoever takes a record out of it under its lock
            // reclaims it: exactly once.
            //
            // Each thread gets back at most what it put in, so an owner
            // that frees one node per retire at the bound is never handed
            // more than its mailbox — half its buffer — holds.
            for (slot, contributed) in slots.iter() {
                let mut mailbox = slot.mailbox.lock();
                let room = slot.fresh.capacity() - mailbox.len();
                mailbox.extend(reclaimable.by_ref().take((*contributed).min(room)));
            }
        }
        // SAFETY: unmarked after a completed scan, as above.
        freed += unsafe { self.reclaim_all(reclaimable) };
        let overflow_frees = if trigger == Trigger::Forced { 0 } else { freed };
        self.stats.add(&self.stats.overflow_frees, overflow_frees);
        if let Some((sink, id)) = telemetry {
            sink.event(PhaseKind::FreeEnd, id, freed as u64);
        }

        // Reclaimer-side latency (sort + broadcast + ack wait + hand-off):
        // the §7 responsiveness number, measured where the paper's future
        // work proposes to attack it.
        let ns = crate::master::elapsed_ns(phase_start);
        self.stats.add(&self.stats.collect_ns_total, ns);
        self.stats.raise(&self.stats.collect_ns_max, ns);
        collect_ns.record(ns as u64);
        if let Some((sink, id)) = telemetry {
            sink.event(PhaseKind::CollectEnd, id, survivor_count as u64);
        }
    }

    fn unregister(&self, slot: &Arc<ThreadSlot<P>>) {
        // Serialize with any in-flight collect so that draining our buffer
        // has a single reader, and so that the record leaves the platform
        // and the registry between rounds. No scan has examined the fresh
        // records, so they join the survivors the next phase re-examines.
        let mut state = self.reclaim.lock();
        self.platform.unregister_current(KEY, &slot.record);
        // SAFETY: holding the reclaimer lock makes us the sole reader.
        unsafe { slot.fresh.drain_into(&mut state.survivors) };
        let parked = std::mem::take(&mut *slot.mailbox.lock());
        // SAFETY: mailbox records were found unmarked by a completed scan.
        unsafe { self.reclaim_all(parked) };
        // Leave the registry and hand the thread's counters over under one
        // registry lock: `stats` sees them in exactly one place.
        let mut slots = self.slots.lock();
        slots.retain(|s| !Arc::ptr_eq(s, slot));
        self.stats.absorb(&slot.counters.snapshot());
    }
}

impl<P: Platform> Drop for Collector<P> {
    fn drop(&mut self) {
        // No handles can exist (they hold an Arc to us), so no thread can
        // still reference any retired node: reclaim everything outstanding.
        let state = self.reclaim.get_mut();
        let mut leftovers = std::mem::take(&mut state.survivors);
        leftovers.append(state.master.intake());
        for slot in self.slots.get_mut().drain(..) {
            debug_assert!(
                slot.fresh.is_empty() && slot.mailbox.lock().is_empty(),
                "live buffer at collector drop: a ThreadHandle outlived its Collector Arc?"
            );
            // SAFETY: exclusive access via &mut self.
            unsafe { slot.fresh.drain_into(&mut leftovers) };
            leftovers.append(&mut slot.mailbox.lock());
        }
        // SAFETY: see above — no handle, hence no referencing thread.
        unsafe { self.reclaim_all(leftovers) };
    }
}

/// Per-thread access to a [`Collector`]. Not `Send`: it is bound to the
/// thread that called [`Collector::register`] (its stack is what gets
/// scanned on this thread's behalf).
pub struct ThreadHandle<P: Platform> {
    collector: Arc<Collector<P>>,
    slot: Arc<ThreadSlot<P>>,
    roots: Arc<ThreadRoots>,
    _not_send: PhantomData<*mut ()>,
}

impl<P: Platform> ThreadHandle<P> {
    /// Retires a node previously allocated as `Box<T>` and since unlinked
    /// from all shared references. The collector will drop the box once no
    /// registered thread's private memory can reach it.
    ///
    /// This is the entire integration surface of ThreadScan: "the
    /// programmer just needs to pass nodes to its interface". `retire` is
    /// the only call a caller must make: once this thread's two stages
    /// together hold half of `buffer_capacity`, each retire frees one
    /// parked node itself. [`Self::before_alloc`] is optional and only
    /// moves those frees next to the allocations that reuse their memory.
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
        CollectorStats::bump(&self.slot.counters.retired);
        let fresh = &self.slot.fresh;
        if fresh.is_full() {
            // Our earlier retires filled the fresh half: we become the
            // reclaimer. Snapshot the application boundary before
            // entering the machinery.
            let ctx = capture_context();
            self.collector.collect_for(fresh, &ctx);
        }
        // Stage 2: at the bound, free one node a phase handed back before
        // buffering this one. That keeps this thread's fresh + parked
        // count within half its capacity (a retire at the bound moves one
        // node's worth from the parked side to the fresh side, a phase
        // moves the fresh side back), so a phase finds room in the
        // mailbox for everything this thread put in. Below the bound the
        // parked nodes wait for `before_alloc`, or for later retires.
        let parked = {
            let mut mailbox = self.slot.mailbox.lock();
            if fresh.len() + mailbox.len() >= fresh.capacity() {
                mailbox.pop()
            } else {
                None
            }
        };
        if let Some(parked) = parked {
            self.free_parked(parked);
        }
        // SAFETY: this handle's thread is the buffer's only producer.
        unsafe { fresh.push(record) }
            .expect("a phase drains every registered thread's fresh buffer, this one's included");
    }

    /// Frees one parked node, if this thread's mailbox holds any. Call it
    /// right before allocating a node: the allocator then hands the chunk
    /// just freed, on this thread, straight back to that allocation, so
    /// deferred frees refill the heap the thread allocates from instead
    /// of another thread's. Optional — [`Self::retire`] frees parked
    /// nodes at its bound whether or not this is ever called.
    pub fn before_alloc(&self) {
        let parked = {
            let mut mailbox = self.slot.mailbox.lock();
            let parked = mailbox.pop();
            if let Some(next) = mailbox.last() {
                prefetch_for_free(next.addr());
            }
            parked
        };
        let counters = &self.slot.counters;
        match parked {
            Some(parked) => {
                self.free_parked(parked);
                CollectorStats::bump(&counters.alloc_frees);
            }
            None => CollectorStats::bump(&counters.alloc_misses),
        }
    }

    /// Runs the destructor of a record just popped from this thread's
    /// mailbox and counts it as an owner free.
    fn free_parked(&self, parked: Retired) {
        // SAFETY: the reclaimer parked it only after a completed scan found
        // it unmarked (see the hand-off in `collect_locked`), and the
        // caller's pop took it out of the mailbox for good.
        unsafe { parked.reclaim() };
        let counters = &self.slot.counters;
        CollectorStats::bump(&counters.freed);
        CollectorStats::bump(&counters.mailbox_frees);
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

    /// This registration's platform record.
    pub fn record(&self) -> &P::Record {
        &self.slot.record
    }

    /// Number of nodes currently waiting for a scan in the fresh stage of
    /// this thread's delete buffer.
    pub fn buffered(&self) -> usize {
        self.slot.fresh.len()
    }

    /// Number of nodes parked in this thread's mailbox: proven
    /// reclaimable, freed one per [`Self::before_alloc`] and one per
    /// `retire` at the bound. Together with [`Self::buffered`] never more
    /// than half of `buffer_capacity`.
    pub fn mailbox_len(&self) -> usize {
        self.slot.mailbox.lock().len()
    }

    /// Forces a reclamation phase (including this thread's buffered nodes).
    pub fn flush(&self) {
        self.collector.collect_now();
    }
}

/// Starts loading the memory `free` will write for the node at `addr`:
/// its first line and, in common allocators, the chunk header right
/// before it. A parked node has sat untouched since its retire, so
/// without this the free of the next [`ThreadHandle::before_alloc`] stalls
/// on a cache miss inside the caller's operation.
#[inline]
fn prefetch_for_free(addr: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint and never faults, whatever the address.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(addr.wrapping_sub(8) as *const i8);
        _mm_prefetch::<_MM_HINT_T0>(addr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = addr;
}

impl<P: Platform> Drop for ThreadHandle<P> {
    fn drop(&mut self) {
        self.collector.unregister(&self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::NullPlatform;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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
    }
    // SAFETY (test double): every registered thread's root set is
    // `rooted`, which a record scans in full before acking.
    unsafe impl Platform for PinPlatform {
        type Record = ScanClaim;
        fn register_current(
            &self,
            _: &RegistryKey,
            _: Arc<ThreadRoots>,
            c: ScanClaim,
        ) -> ScanClaim {
            c
        }
        fn scan_own(&self, key: &RegistryKey, claim: &ScanClaim, _: &SelfScanContext) {
            self.overdue(key, claim);
        }
        fn overdue(&self, _: &RegistryKey, claim: &ScanClaim) {
            claim.scan_once(|session| session.scan_words(&self.rooted.lock()));
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
        for _ in 0..4 {
            unsafe { handle.retire(node(&counter)) };
        }
        // The fresh half is full; nothing has run yet.
        assert_eq!(collector.stats().collects, 0);
        assert_eq!((handle.buffered(), handle.mailbox_len()), (4, 0));
        // The next retire finds it full: this thread is the reclaimer, the
        // phase hands its 4 nodes back to it, and the retire goes on to
        // free one of them and buffer the new node.
        unsafe { handle.retire(node(&counter)) };
        assert_eq!(collector.stats().collects, 1);
        assert_eq!(counter.load(Ordering::SeqCst), 1);
        assert_eq!((handle.buffered(), handle.mailbox_len()), (1, 3));
        // Each further retire frees exactly one more.
        for freed in 2..=4 {
            unsafe { handle.retire(node(&counter)) };
            assert_eq!(counter.load(Ordering::SeqCst), freed);
            assert_eq!(
                (handle.buffered(), handle.mailbox_len()),
                (freed, 4 - freed)
            );
        }
        // The 9th retire finds the fresh half full again: a second phase.
        unsafe { handle.retire(node(&counter)) };
        assert_eq!((handle.buffered(), handle.mailbox_len()), (1, 3));
        let snap = collector.stats();
        assert_eq!(snap.collects, 2);
        assert_eq!(snap.retired, 9);
        assert_eq!(snap.freed, 5);
        assert_eq!(snap.mailbox_frees, 5);
        assert_eq!(snap.overflow_frees, 0);
        // The forced path frees what is parked and what is fresh.
        handle.flush();
        assert_eq!(counter.load(Ordering::SeqCst), 9);
        assert_eq!(collector.stats().freed, 9);
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
        // A triggered phase and a forced one: 3 freed, the pinned one
        // survives both.
        handle.flush();
        assert_eq!(collector.stats().collects, 2);
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
        handle.flush();
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
        drop(handle); // 5 records wait for the next phase
        assert_eq!(counter.load(Ordering::SeqCst), 0);
        collector.collect_now();
        assert_eq!(counter.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn mailbox_teardown_runs_every_destructor_exactly_once() {
        // Handle drop with a non-empty mailbox frees the parked nodes on
        // the spot and leaves the fresh ones to the next phase; collector
        // drop frees the rest. `Node::drop` counts, so a double free or a
        // leak shows.
        let counter = Arc::new(AtomicUsize::new(0));
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default().with_buffer_capacity(8),
        );
        let handle = collector.register();
        for _ in 0..6 {
            unsafe { handle.retire(node(&counter)) };
        }
        // One phase at the 5th retire; retires 5 and 6 freed one each.
        assert_eq!(counter.load(Ordering::SeqCst), 2);
        assert_eq!((handle.buffered(), handle.mailbox_len()), (2, 2));
        drop(handle);
        assert_eq!(counter.load(Ordering::SeqCst), 4, "parked nodes freed");
        let snap = collector.stats();
        assert_eq!((snap.retired, snap.freed, snap.mailbox_frees), (6, 4, 2));
        assert_eq!(collector.pending_estimate(), 2, "fresh nodes orphaned");
        drop(collector);
        assert_eq!(counter.load(Ordering::SeqCst), 6);
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
    fn forced_flush_frees_nodes_parked_in_other_threads_mailboxes() {
        // A forced flush must not return with proven-reclaimable nodes
        // still parked just because their owner has not retired since.
        let counter = Arc::new(AtomicUsize::new(0));
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default().with_buffer_capacity(8),
        );
        // Two registrations on one thread (as the model checker does).
        let (a, b) = (collector.register(), collector.register());
        for handle in [&a, &b] {
            for _ in 0..5 {
                unsafe { handle.retire(node(&counter)) };
            }
        }
        // Each one's 5th retire ran a phase and freed one node; `b`'s
        // phase also moved `a`'s one fresh node into `a`'s mailbox.
        assert_eq!(counter.load(Ordering::SeqCst), 2);
        assert_eq!((a.mailbox_len(), b.mailbox_len()), (4, 3));
        assert_eq!(collector.stats().outstanding(), 8);

        a.flush();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        assert_eq!((a.mailbox_len(), b.mailbox_len()), (0, 0));
        assert_eq!(collector.stats().outstanding(), 0);
        assert_eq!(collector.pending_estimate(), 0);
    }

    #[test]
    fn outstanding_counts_parked_mailbox_nodes_like_pending_estimate() {
        // Pins `StatsSnapshot::outstanding` semantics: nodes parked in a
        // mailbox are proven reclaimable but not yet freed, so both the
        // snapshot arithmetic and `pending_estimate` must count them as
        // outstanding.
        let counter = Arc::new(AtomicUsize::new(0));
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default().with_buffer_capacity(8),
        );
        let handle = collector.register();
        for _ in 0..5 {
            unsafe { handle.retire(node(&counter)) };
        }
        // A phase ran; 3 of its 4 nodes still sit in the mailbox,
        // destructors not yet executed.
        assert_eq!(counter.load(Ordering::SeqCst), 1);
        assert_eq!(handle.mailbox_len(), 3);
        assert_eq!(collector.stats().outstanding(), 4);
        assert_eq!(collector.pending_estimate(), 4);
        collector.collect_now(); // forced path empties the mailbox
        assert_eq!(collector.stats().outstanding(), 0);
        assert_eq!(collector.pending_estimate(), 0);
        drop(handle);
    }

    #[test]
    fn idle_thread_parks_at_most_half_and_gets_no_more() {
        // A thread that stops retiring keeps what one phase handed it —
        // never more than half its capacity — and later phases hand it
        // nothing, because it puts nothing in.
        let counter = Arc::new(AtomicUsize::new(0));
        let collector = Collector::with_config(
            PinPlatform::default(),
            CollectorConfig::default().with_buffer_capacity(8),
        );
        let (idle, busy) = (collector.register(), collector.register());
        let pinned: Vec<*mut Node> = (0..3).map(|_| node(&counter)).collect();
        collector
            .platform()
            .rooted
            .lock()
            .extend(pinned.iter().map(|&p| p as usize));
        for &p in &pinned {
            unsafe { idle.retire(p) };
        }
        for _ in 0..3 {
            unsafe { idle.retire(node(&counter)) };
        }
        // Phase 1 at the idle thread's 5th retire: its 3 pinned nodes
        // survived and 1 came back. With 1 parked and nothing fresh the
        // thread is below the bound, so it stays parked; two more are
        // fresh.
        assert_eq!((idle.buffered(), idle.mailbox_len()), (2, 1));
        assert_eq!(counter.load(Ordering::SeqCst), 0);

        // Phase 2, at the busy thread's 5th retire: the idle thread put
        // in 2, the busy one 4; all 6 are reclaimable and fit (and the
        // busy thread, at the bound, has already freed one of its own).
        for _ in 0..5 {
            unsafe { busy.retire(node(&counter)) };
        }
        assert_eq!((idle.mailbox_len(), busy.mailbox_len()), (3, 3));
        assert!(idle.buffered() + idle.mailbox_len() <= 8 / 2);
        assert_eq!(collector.stats().overflow_frees, 0);

        // From here the idle thread does nothing. Unpin its survivors:
        // phase 3 finds them reclaimable, but nobody put them into this
        // phase, so no mailbox takes them — the reclaimer frees them
        // itself, and says so.
        collector.platform().rooted.lock().clear();
        let before = counter.load(Ordering::SeqCst);
        for _ in 0..4 {
            unsafe { busy.retire(node(&counter)) };
        }
        let snap = collector.stats();
        assert_eq!(snap.collects, 3);
        assert_eq!(snap.overflow_frees, 3, "the ex-survivors");
        // 4 frees out of the busy thread's mailbox + the 3 overflow frees.
        assert_eq!(counter.load(Ordering::SeqCst) - before, 4 + 3);
        assert_eq!(idle.mailbox_len(), 3, "still parked, not grown");
        assert!(idle.buffered() + idle.mailbox_len() <= 8 / 2);
        assert_eq!(collector.pending_estimate(), snap.outstanding());
        drop((idle, busy));
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
        let latency = collector.collect_latency();
        assert_eq!(
            latency.count(),
            snap.collects as u64,
            "each phase lands in exactly one latency bucket"
        );
        assert!(latency.quantile(0.5).unwrap() > 0.0);
        drop(handle);
    }

    #[test]
    fn phases_of_departed_threads_stay_in_the_latency_histogram() {
        let counter = Arc::new(AtomicUsize::new(0));
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default().with_buffer_capacity(8),
        );
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let handle = collector.register();
                    for _ in 0..40 {
                        unsafe { handle.retire(node(&counter)) };
                    }
                });
            }
        });
        // Every thread that ran a phase has unregistered.
        let collects = collector.stats().collects;
        assert!(collects > 0);
        assert_eq!(collector.collect_latency().count(), collects as u64);
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
    fn per_thread_counters_stay_exact_across_unregistration() {
        // `retired`/`freed` live in per-thread counters while a thread is
        // registered and are folded into the collector's when it leaves:
        // the totals must be exact before, across and after.
        const THREADS: usize = 8;
        let counter = Arc::new(AtomicUsize::new(0));
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default().with_buffer_capacity(16),
        );
        let retired_total: usize = (0..THREADS).map(|t| 100 + 7 * t).sum();
        let all_retired = std::sync::Barrier::new(THREADS + 1);
        let checked = std::sync::Barrier::new(THREADS + 1);
        // Sampled while every thread waits at a barrier, asserted after
        // they are gone (a panic between barriers would hang them): once
        // with all 8 registered, once after every other one has left.
        let samples: Vec<_> = std::thread::scope(|s| {
            for t in 0..THREADS {
                let (collector, counter) = (Arc::clone(&collector), Arc::clone(&counter));
                let (all_retired, checked) = (&all_retired, &checked);
                s.spawn(move || {
                    let handle = collector.register();
                    for _ in 0..100 + 7 * t {
                        unsafe { handle.retire(node(&counter)) };
                    }
                    let mut handle = Some(handle);
                    for leave in [false, t.is_multiple_of(2)] {
                        if leave {
                            drop(handle.take());
                        }
                        all_retired.wait();
                        checked.wait();
                    }
                });
            }
            (0..2)
                .map(|_| {
                    all_retired.wait();
                    let snap = collector.stats();
                    let sample = (
                        snap.retired,
                        snap.freed,
                        counter.load(Ordering::SeqCst),
                        snap.outstanding(),
                        collector.pending_estimate(),
                    );
                    checked.wait();
                    sample
                })
                .collect()
        });
        for (retired, freed, dropped, outstanding, pending) in samples {
            assert_eq!(retired, retired_total);
            assert_eq!(freed, dropped);
            assert_eq!(outstanding, pending);
        }
        let snap = collector.stats();
        assert_eq!(snap.retired, retired_total);
        assert_eq!(snap.freed, counter.load(Ordering::SeqCst));
        collector.collect_now();
        let snap = collector.stats();
        assert_eq!((snap.retired, snap.freed), (retired_total, retired_total));
        assert_eq!(counter.load(Ordering::SeqCst), retired_total);
    }

    #[test]
    fn forced_flush_racing_owner_frees_reclaims_each_node_once() {
        // The mailbox's two consumers at once: an owner freeing parked
        // nodes — at the retire bound, and in the second leg also before
        // every allocation — while another thread keeps forcing flushes
        // that take whole mailboxes back. `Node::drop` counts, so a record
        // handed to both would show as a surplus (or crash), one handed to
        // neither as a deficit.
        const RETIRES: usize = 50_000;
        for hook in [false, true] {
            let counter = Arc::new(AtomicUsize::new(0));
            let collector = Collector::with_config(
                NullPlatform,
                CollectorConfig::default().with_buffer_capacity(8),
            );
            let done = AtomicBool::new(false);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let handle = collector.register();
                    for _ in 0..RETIRES {
                        if hook {
                            handle.before_alloc();
                        }
                        unsafe { handle.retire(node(&counter)) };
                    }
                    drop(handle);
                    done.store(true, Ordering::Release);
                });
                while !done.load(Ordering::Acquire) {
                    collector.collect_now();
                }
            });
            collector.collect_now();
            assert_eq!(counter.load(Ordering::SeqCst), RETIRES, "hook: {hook}");
            let snap = collector.stats();
            assert_eq!((snap.retired, snap.freed), (RETIRES, RETIRES));
            let hooks = if hook { RETIRES } else { 0 };
            assert_eq!(snap.alloc_frees + snap.alloc_misses, hooks);
            assert!(snap.alloc_frees <= snap.mailbox_frees);
        }
    }

    #[test]
    fn retire_frees_only_at_the_bound_and_allocations_free_the_rest() {
        // Half of 8: the bound on one thread's fresh + parked nodes.
        const HALF: usize = 4;
        fn retire_side_frees(collector: &Collector<NullPlatform>) -> usize {
            let snap = collector.stats();
            snap.mailbox_frees - snap.alloc_frees
        }
        // Each leg is a string of ops on a thread of its own collector:
        // `a` announces an allocation, `r` retires; the mixed leg has as
        // many of one as of the other.
        for ops in [
            "r".repeat(40),
            "ar".repeat(40),
            "aarrarrarararraa".repeat(4),
        ] {
            let counter = Arc::new(AtomicUsize::new(0));
            let collector = Collector::with_config(
                NullPlatform,
                CollectorConfig::default().with_buffer_capacity(2 * HALF),
            );
            let handle = collector.register();
            let mut retires = 0;
            for op in ops.chars() {
                let held = handle.buffered() + handle.mailbox_len();
                let before = retire_side_frees(&collector);
                if op == 'a' {
                    handle.before_alloc();
                    assert_eq!(retire_side_frees(&collector), before);
                } else {
                    unsafe { handle.retire(node(&counter)) };
                    retires += 1;
                    // The first HALF retires fill the fresh stage; from
                    // then on a retire frees exactly when the thread sat
                    // at the bound (a triggering retire gets its whole
                    // fresh stage back from the phase, so it does too).
                    let frees = retire_side_frees(&collector) - before;
                    assert_eq!(frees, usize::from(held == HALF && retires > HALF), "{ops}");
                }
                assert!(handle.buffered() + handle.mailbox_len() <= HALF, "{ops}");
            }
            let snap = collector.stats();
            let allocs = ops.matches('a').count();
            assert_eq!(snap.alloc_frees + snap.alloc_misses, allocs);
            assert_eq!(snap.freed, counter.load(Ordering::SeqCst));
            if allocs == 0 {
                // Never announcing an allocation: one free per retire
                // once the first phase has run.
                assert_eq!(snap.mailbox_frees, retires - HALF);
            } else if ops.starts_with("arar") {
                // An allocation before every retire: only the retire
                // that runs a phase reaches the bound, and the
                // allocations free every other parked node.
                assert_eq!(retire_side_frees(&collector), snap.collects);
                assert_eq!(snap.alloc_frees, 3 * snap.collects);
            }
            drop(handle);
        }
    }

    #[test]
    fn stats_track_scan_volume() {
        let platform = PinPlatform::default();
        platform.rooted.lock().extend([1usize, 2, 3]);
        let collector =
            Collector::with_config(platform, CollectorConfig::default().with_buffer_capacity(4));
        let handle = collector.register();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            unsafe { handle.retire(node(&counter)) };
        }
        let snap = collector.stats();
        assert_eq!(snap.collects, 1);
        assert_eq!(snap.threads_scanned, 1);
        assert_eq!(snap.words_scanned, 3);
        drop(handle);
    }

    #[test]
    fn trigger_fires_once_per_half_capacity_exactly() {
        // The one collect trigger: a lone thread collects exactly when a
        // retire finds the fresh half of its buffer full, i.e. once per
        // `capacity / 2` retires, and at no other point.
        let counter = Arc::new(AtomicUsize::new(0));
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default().with_buffer_capacity(8),
        );
        let handle = collector.register();
        let mut collect_points = Vec::new();
        for i in 1..=32usize {
            unsafe { handle.retire(node(&counter)) };
            if collector.stats().collects > collect_points.len() {
                collect_points.push(i);
            }
        }
        drop(handle);
        assert_eq!(
            collect_points,
            vec![5, 9, 13, 17, 21, 25, 29],
            "the retire after each half-capacity multiple"
        );
        assert_eq!(collector.stats().collects, 7);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn struct_literal_config_is_validated_at_construction() {
        // `buffer_capacity` is a `pub` field: a literal bypasses the
        // builder's assert, and used to panic only at the first
        // `register()`, inside `LocalBuffer::new(0)`.
        let config = CollectorConfig {
            buffer_capacity: 1,
            ..Default::default()
        };
        let _ = Collector::with_config(NullPlatform, config);
    }

    #[test]
    fn pending_estimate_counts_each_source_exactly_once() {
        // Regression pin for the estimate's no-double-counting contract:
        // survivors, the mailboxes and live fresh buffers each hold a
        // record exclusively, so the estimate equals
        // `retired - freed` at every step.
        let counter = Arc::new(AtomicUsize::new(0));
        let platform = PinPlatform::default();
        let pinned = node(&counter);
        platform.rooted.lock().push(pinned as usize);
        let collector =
            Collector::with_config(platform, CollectorConfig::default().with_buffer_capacity(8));
        let handle = collector.register();
        // Holds `rooted` once `handle` has left: a round scans registered
        // threads only.
        let _rooted_holder = collector.register();
        unsafe { handle.retire(pinned) };
        for _ in 0..4 {
            unsafe { handle.retire(node(&counter)) };
        }
        // Phase ran: 1 survivor (pinned), 3 handed back — below the
        // bound, so none freed yet — and 1 fresh.
        assert_eq!(collector.reclaim.lock().survivors.len(), 1);
        assert_eq!((handle.buffered(), handle.mailbox_len()), (1, 3));
        assert_eq!(counter.load(Ordering::SeqCst), 0);
        assert_eq!(collector.pending_estimate(), 5);
        assert_eq!(collector.stats().outstanding(), 5);

        // One more retire, at the bound: one parked node freed, one more
        // fresh one buffered — 1 + 2 + 2, no double counts.
        unsafe { handle.retire(node(&counter)) };
        assert_eq!((handle.buffered(), handle.mailbox_len()), (2, 2));
        assert_eq!(collector.pending_estimate(), 5);
        assert_eq!(collector.stats().outstanding(), 5);

        // Unregistering frees the parked records and moves the 2 buffered
        // ones to the survivor list — moved, not copied.
        drop(handle);
        assert_eq!(collector.reclaim.lock().survivors.len(), 3);
        assert_eq!(collector.pending_estimate(), 3);
        assert_eq!(collector.stats().outstanding(), 3);

        // A forced phase frees everything except the pinned survivor.
        collector.collect_now();
        assert_eq!(counter.load(Ordering::SeqCst), 5);
        assert_eq!(collector.pending_estimate(), 1);
        assert_eq!(collector.stats().outstanding(), 1);
    }
}
