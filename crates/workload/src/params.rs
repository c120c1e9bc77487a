//! Experiment parameters, with the paper's §6 "Methodology" presets.

use std::time::Duration;

use crate::dist::KeyDist;
use crate::load::LoadModel;

/// Which evaluation data structure to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureKind {
    /// Harris lock-free linked list (Figure 3 left).
    List,
    /// Lock-free hash table (Figure 3 middle).
    Hash,
    /// Lock-based skip list (Figure 3 right).
    Skip,
    /// Lazy list (the paper's §1 motivating structure; ablations only,
    /// not part of the figures).
    Lazy,
    /// Split-ordered-list resizable hash table (intro cite \[42\];
    /// ablations only, not part of the figures).
    SplitOrdered,
    /// Shavit–Lotan priority queue, driven through its set-shaped
    /// interface (`remove` pops the minimum); not part of the figures
    /// (`fig3 --structures pq --updates 100` is its 50/50
    /// insert/delete-min cell).
    Pq,
}

impl StructureKind {
    /// All three structures, figure order.
    pub const ALL: [StructureKind; 3] = [Self::List, Self::Hash, Self::Skip];

    /// The figure structures plus the beyond-figure ablation structures.
    pub const EXTENDED: [StructureKind; 5] = [
        Self::List,
        Self::Hash,
        Self::Skip,
        Self::Lazy,
        Self::SplitOrdered,
    ];

    /// Harness label.
    pub fn label(self) -> &'static str {
        match self {
            Self::List => "list",
            Self::Hash => "hash",
            Self::Skip => "skiplist",
            Self::Lazy => "lazy-list",
            Self::SplitOrdered => "split-ordered",
            Self::Pq => "pq",
        }
    }

    /// Parses a harness label back to its kind (`--structures` CLI
    /// syntax; `skip` is accepted for `skiplist`).
    pub fn parse(label: &str) -> Option<Self> {
        Some(match label {
            "list" => Self::List,
            "hash" => Self::Hash,
            "skiplist" | "skip" => Self::Skip,
            "lazy-list" => Self::Lazy,
            "split-ordered" => Self::SplitOrdered,
            "pq" => Self::Pq,
            _ => return None,
        })
    }
}

/// Which reclamation scheme to run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// No reclamation (leaks) — the performance ceiling.
    Leaky,
    /// Hazard pointers (per-read fence).
    Hazard,
    /// Epoch-based reclamation.
    Epoch,
    /// Epoch with one 40 ms-delayed errant thread.
    SlowEpoch,
    /// ThreadScan over real POSIX signals.
    ThreadScan,
}

impl SchemeKind {
    /// The five Figure 3 schemes, legend order.
    pub const ALL: [SchemeKind; 5] = [
        Self::Leaky,
        Self::Hazard,
        Self::Epoch,
        Self::SlowEpoch,
        Self::ThreadScan,
    ];

    /// The Figure 4 (oversubscription) subset: "Slow Epoch and Hazard
    /// Pointers were not included in the oversubscription experiment".
    pub const OVERSUB: [SchemeKind; 3] = [Self::Leaky, Self::Epoch, Self::ThreadScan];

    /// Harness label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Leaky => "leaky",
            Self::Hazard => "hazard",
            Self::Epoch => "epoch",
            Self::SlowEpoch => "slow-epoch",
            Self::ThreadScan => "threadscan",
        }
    }

    /// Parses a harness label back to its kind (`--schemes` CLI lists).
    pub fn parse(label: &str) -> Option<Self> {
        Some(match label {
            "leaky" => Self::Leaky,
            "hazard" => Self::Hazard,
            "epoch" => Self::Epoch,
            "slow-epoch" => Self::SlowEpoch,
            "threadscan" => Self::ThreadScan,
            _ => return None,
        })
    }
}

/// One experiment cell: structure × scheme × thread count × workload shape.
#[derive(Debug, Clone)]
pub struct WorkloadParams {
    /// The structure under test.
    pub structure: StructureKind,
    /// Resident keys after prefill.
    pub initial_size: usize,
    /// Keys are drawn uniformly from `[0, key_range)`.
    pub key_range: u64,
    /// Percentage of operations that are updates (half inserts, half
    /// removes). Paper: 20 ("about 10% of all operations were node
    /// removals").
    pub update_pct: u32,
    /// Key distribution (paper methodology: uniform).
    pub key_dist: KeyDist,
    /// Measurement window. Paper: 10 s × 5 runs; the harness default is
    /// shorter so a full sweep finishes in reasonable time.
    pub duration: Duration,
    /// Worker thread count.
    pub threads: usize,
    /// ThreadScan per-thread delete-buffer capacity (1024 stock; 4096 for
    /// the tuned Figure 4 hash-table line).
    pub ts_buffer_capacity: usize,
    /// Slow-epoch injected delay.
    pub slow_epoch_delay: Duration,
    /// Slow-epoch delay cadence in operations.
    pub slow_epoch_period_ops: usize,
    /// How operations arrive at the workers ([`LoadModel`]): the paper's
    /// closed loop by default, or an open-loop arrival schedule for
    /// coordinated-omission-correct per-op latency.
    pub load_model: LoadModel,
    /// Install the `ts-telemetry` sink on the scheme's collector
    /// (ThreadScan runs), so phase events are recorded into the event
    /// log; nothing else changes — the worker loops never see it. Off by
    /// default: a run without it executes zero additional atomics on any
    /// hot path.
    pub telemetry: bool,
}

impl WorkloadParams {
    /// The paper's delete-buffer capacity, every preset's
    /// `ts_buffer_capacity`: "configured to store up to 1024 pointers" (§6).
    pub const PAPER_BUFFER: usize = 1024;

    /// The paper's §6 sizing for `structure`, driven alone by `threads`
    /// workers at the methodology's 20% updates over uniform keys.
    pub fn fig3(structure: StructureKind, threads: usize) -> Self {
        use StructureKind::*;
        let (initial_size, key_range) = match structure {
            // "Linked lists were 1024 nodes long, and the range of values
            // was 2048." The lazy list (not in the figures) borrows it, as
            // §1 describes the same list shape.
            List | Lazy => (1024, 2048),
            // "Hash tables contained 131,072 nodes with a range of
            // 262,144." The resizable table borrows it so the two are
            // directly comparable in ablations.
            Hash | SplitOrdered => (131_072, 262_144),
            // "Skip lists contained 128,000 nodes with a range of values
            // of 256,000."
            Skip => (128_000, 256_000),
            // The priority queue draws fresh random priorities rather than
            // revisiting a key range (a range small enough to revisit
            // rejects inserts as duplicates and lets delete-min drain the
            // queue); a modest resident size keeps delete-min from
            // emptying it between inserts. Uniform keys only: the zipf
            // sampler's setup is linear in the range.
            Pq => (10_000, 1 << 62),
        };
        Self {
            structure,
            initial_size,
            key_range,
            update_pct: 20,
            key_dist: KeyDist::Uniform,
            duration: Duration::from_secs(2),
            threads,
            ts_buffer_capacity: Self::PAPER_BUFFER,
            slow_epoch_delay: Duration::from_millis(40),
            slow_epoch_period_ops: 4096,
            load_model: LoadModel::Closed,
            telemetry: false,
        }
    }

    /// Builder: measurement duration.
    pub fn with_duration(mut self, d: Duration) -> Self {
        self.duration = d;
        self
    }

    /// Builder: update percentage.
    pub fn with_update_pct(mut self, pct: u32) -> Self {
        assert!(pct <= 100);
        self.update_pct = pct;
        self
    }

    /// Builder: ThreadScan buffer capacity (Figure 4 tuning).
    pub fn with_ts_buffer(mut self, cap: usize) -> Self {
        self.ts_buffer_capacity = cap;
        self
    }

    /// Builder: key distribution (skew ablations).
    pub fn with_key_dist(mut self, dist: KeyDist) -> Self {
        self.key_dist = dist;
        self
    }

    /// Builder: shrink the workload by `factor` (both size and range), for
    /// smoke tests and CI.
    pub fn scaled_down(mut self, factor: usize) -> Self {
        assert!(factor >= 1);
        self.initial_size = (self.initial_size / factor).max(16);
        self.key_range = (self.key_range / factor as u64).max(32);
        self
    }

    /// Builder: the load model (closed loop by default; the open model
    /// turns on per-op latency measurement).
    pub fn with_load_model(mut self, model: LoadModel) -> Self {
        model.validate();
        self.load_model = model;
        self
    }

    /// Builder: telemetry (the phase-event log) on/off.
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_match_methodology() {
        // No `..`: every field is a knob some experiment turns; a new one
        // fails to compile here first.
        let WorkloadParams {
            structure,
            initial_size,
            key_range,
            update_pct,
            key_dist,
            duration,
            threads,
            ts_buffer_capacity,
            slow_epoch_delay,
            slow_epoch_period_ops,
            load_model,
            telemetry,
        } = WorkloadParams::fig3(StructureKind::List, 8);
        assert_eq!(structure, StructureKind::List);
        assert_eq!((initial_size, key_range, update_pct), (1024, 2048, 20));
        assert_eq!(key_dist, KeyDist::Uniform);
        assert_eq!((duration, threads), (Duration::from_secs(2), 8));
        assert_eq!(ts_buffer_capacity, 1024);
        assert_eq!(slow_epoch_delay, Duration::from_millis(40));
        assert_eq!(slow_epoch_period_ops, 4096);
        assert_eq!(load_model, LoadModel::Closed);
        assert!(!telemetry);
        let h = WorkloadParams::fig3(StructureKind::Hash, 8);
        assert_eq!((h.initial_size, h.key_range), (131_072, 262_144));
        let s = WorkloadParams::fig3(StructureKind::Skip, 8);
        assert_eq!((s.initial_size, s.key_range), (128_000, 256_000));
    }

    #[test]
    fn oversub_subset_matches_figure4_legend() {
        assert_eq!(
            SchemeKind::OVERSUB.map(|s| s.label()),
            ["leaky", "epoch", "threadscan"]
        );
    }

    #[test]
    fn scaled_down_keeps_ratio_reasonable() {
        let p = WorkloadParams::fig3(StructureKind::Hash, 4).scaled_down(64);
        assert_eq!(p.initial_size, 2048);
        assert_eq!(p.key_range, 4096);
    }

    #[test]
    fn scheme_labels_round_trip_through_parse() {
        for kind in SchemeKind::ALL {
            assert_eq!(SchemeKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(SchemeKind::parse("gc"), None);
    }

    #[test]
    fn structure_labels_round_trip_through_parse() {
        for kind in StructureKind::EXTENDED {
            assert_eq!(StructureKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(StructureKind::parse("pq"), Some(StructureKind::Pq));
        assert_eq!(StructureKind::parse("btree"), None);
    }
}
