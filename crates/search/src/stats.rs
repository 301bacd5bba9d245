//! The search's counter block, declared once.
//!
//! Every statistic a shard counts is one row of the `counters!` table
//! below: a doc comment and, when the counter is published, its
//! [`names`] family. The table generates the per-shard block
//! [`ShardStats`], the counter fields of the run totals [`SearchStats`],
//! the journal's persisted form (`to_array`/`from_array`, in table order),
//! the fold's sum and copy, the by-name read that fills progress
//! snapshots, and the `(family, value)` list [`publish_search_metrics`]
//! publishes. Adding a counter is one row, plus its family in
//! [`names`] if it is published.
//!
//! Expansion and merge increment the plain `u64` fields of a shard's
//! block; the table is read once per progress snapshot and once at run
//! end, never per expansion.

use std::time::Duration;

use sortsynth_obs::names;
use sortsynth_obs::profile::PHASE_COUNT;

use crate::engine::{Outcome, ProgressSample};

macro_rules! counters {
    ($(
        $(#[doc = $doc:literal])*
        $name:ident $(=> $family:ident $(if $when:ident)?)?;
    )*) => {
        /// The counter block of one shard: the best-first driver's only
        /// shard, or one key partition of the layered round loop. The only
        /// counter type the search keeps — expansion fills the pruning
        /// counters, [`crate::shard::Shard::merge`] the merge dispositions —
        /// and the run's [`SearchStats`] totals are its sums. Every
        /// expansion-side counter is attributed to the partition that owns
        /// the expanded state, whichever worker expanded it, so per-shard
        /// figures are deterministic. See [`SearchStats::shards`].
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct ShardStats {
            $( $(#[doc = $doc])* pub $name: u64, )*
        }

        /// Counters and timings for one synthesis run.
        #[derive(Debug, Clone, Default)]
        pub struct SearchStats {
            $( $(#[doc = $doc])* pub $name: u64, )*
            /// The configuration asked for the distance table, but the
            /// machine has too many actions for
            /// [`crate::DistanceTable::supports`]: the search ran with
            /// degraded pruning (no viability budget, no
            /// optimal-first-instruction restriction, no `MaxRemaining`
            /// heuristic).
            pub distance_table_skipped: bool,
            /// Time spent building the machine's live space
            /// ([`crate::LiveSpace`]) and the per-assignment distance table.
            pub distance_build: Duration,
            /// Total wall-clock time of the search (excluding table build).
            pub search_time: Duration,
            /// Progress samples (empty unless `progress_every > 0`).
            pub progress: Vec<ProgressSample>,
            /// Unique canonical states interned into the arenas, summed over
            /// the shards (equals [`SearchStats::states_kept`]).
            pub interned_states: u64,
            /// Bytes of span storage held by the state arena(s) at the end
            /// of the run (contiguous spans of 2-byte live indices, or of
            /// 8-byte `MachineState`s on machines without a live space;
            /// per-state metadata excluded).
            pub arena_bytes: u64,
            /// Cursor-advance steps the shards' bucketed open lists spent
            /// scanning empty buckets/lanes. The amortized-O(1) selection
            /// claim is this number staying small relative to
            /// [`SearchStats::expanded`].
            pub bucket_scans: u64,
            /// Frontier states restored from a resume journal
            /// ([`crate::SynthesisConfig::resume_from`]); 0 for non-resumed
            /// runs.
            pub resumed_frontier_states: u64,
            /// Growth reallocations of the arena's backing stores (span
            /// store, meta store, closed map) after construction. A run
            /// pre-sized from the sizing table pins this to zero after
            /// warm-up.
            pub arena_reallocs: u64,
            /// Bytes of closed-map storage reserved at end of run: capacity
            /// × the 16-byte entry of a folded `u64` key and a `u32` id.
            pub key_bytes: u64,
            /// Estimated resident footprint at end of run: arena spans,
            /// closed map, per-state metadata, and edges. The quantity the
            /// spill tier holds under
            /// [`crate::SynthesisConfig::mem_budget_bytes`].
            pub resident_bytes: u64,
            /// Per-partition counter blocks, in worker order, for runs with
            /// more than one key partition; empty for one-shard runs
            /// (best-first, and layered runs on one worker). The counters
            /// above are the sums of these (each shard owns a disjoint slice
            /// of the key space, so no state is ever counted by two shards).
            pub shards: Vec<ShardStats>,
            /// Nanoseconds attributed to each engine phase by the
            /// instrumented profiler, indexed by
            /// [`sortsynth_obs::profile::Phase`]. All zero unless the
            /// profiler was enabled for the run
            /// ([`sortsynth_obs::profile::set_enabled`]).
            pub phase_nanos: [u64; PHASE_COUNT],
        }

        impl ShardStats {
            /// Number of counters in the block.
            pub(crate) const LEN: usize = [$(stringify!($name)),*].len();

            /// Every counter, in table order — the journal's persisted form.
            pub(crate) fn to_array(&self) -> [u64; Self::LEN] {
                [$(self.$name),*]
            }

            /// The inverse of [`ShardStats::to_array`].
            pub(crate) fn from_array([$($name),*]: [u64; Self::LEN]) -> ShardStats {
                ShardStats { $($name),* }
            }

            /// Adds `other` into `self`, counter by counter.
            pub(crate) fn add(&mut self, other: &ShardStats) {
                $( self.$name += other.$name; )*
            }
        }

        impl SearchStats {
            /// The run total of the counter called `name` (its field name);
            /// `None` when no counter of the block has that name.
            pub(crate) fn get(&self, name: &str) -> Option<u64> {
                match name {
                    $( stringify!($name) => Some(self.$name), )*
                    _ => None,
                }
            }

            /// Writes the run totals `total` into the counter fields.
            pub(crate) fn set_totals(&mut self, total: &ShardStats) {
                $( self.$name = total.$name; )*
            }

            /// The published counters as `(family, run total)` pairs, in
            /// table order. A row marked `if parallel` is published only by
            /// runs with more than one key partition.
            pub(crate) fn families(&self) -> Vec<(&'static str, u64)> {
                let mut families = Vec::new();
                $($(
                    $(if self.$when())? {
                        families.push((names::$family, self.$name));
                    }
                )?)*
                families
            }
        }
    };
}

counters! {
    /// States whose successors were explored.
    expanded => SEARCH_EXPANDED_TOTAL;
    /// States produced by applying an instruction (before any pruning).
    generated => SEARCH_GENERATED_TOTAL;
    /// Successors dropped by the viability checks (§3.3).
    viability_pruned => SEARCH_VIABILITY_PRUNED_TOTAL;
    /// Successors dropped by the cut (§3.5).
    cut_pruned => SEARCH_CUT_PRUNED_TOTAL;
    /// Successors skipped by the liveness-based dead-write cut
    /// ([`crate::SynthesisConfig::dead_write_cut`]): the appended
    /// instruction would have made the parent edge's instruction dead.
    dead_write_pruned => SEARCH_DEAD_WRITE_PRUNED_TOTAL;
    /// Successors skipped by the symbolic value-flow cut
    /// ([`crate::SynthesisConfig::value_flow_cut`]): the appended
    /// instruction was proven effect-free on every assignment of the parent
    /// state (or subsumed by the plain `mov` generated alongside it).
    value_flow_pruned => SEARCH_VALUE_FLOW_PRUNED_TOTAL;
    /// Candidates disposed of by the shard that owns their keys. Per shard
    /// `merged == dedup_hits + reopened + bound_pruned + fresh states kept`
    /// holds exactly (the root state is seeded, not merged).
    merged;
    /// Successors dropped because an equivalent state was already known at
    /// an equal or shorter length (§3.6).
    dedup_hits => SEARCH_DEDUP_HITS_TOTAL;
    /// Candidates re-admitted at a strictly shorter length than previously
    /// recorded (the old open entry becomes stale).
    reopened;
    /// Open entries discarded at pop without expansion: superseded by a
    /// reopen at a shorter length, or overtaken by the length bound while
    /// queued. Best-first runs count their pop-time skips here.
    stale_pops => SEARCH_STALE_POPS_TOTAL;
    /// Always 0: the layered round loop merges in frontier order at every
    /// worker count, so its first goal is minimal without an incumbent
    /// bound. Kept because its journal slot and its readers keep their
    /// layout.
    bound_pruned;
    /// Unique states kept (nodes in the solution DAG).
    states_kept;
    /// Successors filed for a key partition other than their parent's (0
    /// with one partition).
    routed => SEARCH_ROUTED_TOTAL if parallel;
    /// Always 0: the layered round loop splits each round through a shared
    /// cursor and never steals. Kept because its journal slot and its
    /// readers keep their layout.
    steals;
    /// Expansions whose scratch buffers were served entirely from already-
    /// reserved capacity — the steady-state, allocation-free path. The
    /// complement (`expanded - scratch_reused`) counts the warm-up
    /// expansions that grew a scratch or arena buffer.
    scratch_reused => SEARCH_SCRATCH_REUSED_TOTAL;
    /// Stepping passes of up to 8 assignments, each through one action (a
    /// live-index gather, or `MachineState::step` on machines without a
    /// live space).
    swar_batches => SEARCH_SWAR_BATCHES_TOTAL;
    /// Frontier states whose assignment spans were written to a spill
    /// segment instead of the arena (external-memory tier; 0 unless
    /// [`crate::SynthesisConfig::mem_budget_bytes`] is set on a layered
    /// run).
    spilled_open => SEARCH_SPILLED_OPEN_TOTAL;
    /// Closed-map entries evicted to sorted on-disk segments under budget
    /// pressure.
    spilled_closed => SEARCH_SPILLED_CLOSED_TOTAL;
    /// Frontier states deleted by delayed duplicate detection: they
    /// duplicated a state whose closed-map entry had been evicted to disk.
    /// These are dedup hits the resident map could no longer see.
    ddd_dedup_hits => SEARCH_DDD_DEDUP_HITS_TOTAL;
    /// Bytes appended to spill segments (frontier spans + closed entries).
    spilled_bytes => SEARCH_SPILLED_BYTES;
    /// Spill segment files created.
    spill_segments => SEARCH_SPILL_SEGMENTS;
}

impl SearchStats {
    /// Whether the run had more than one key partition (see
    /// [`SearchStats::shards`]).
    fn parallel(&self) -> bool {
        !self.shards.is_empty()
    }
}

/// Adds one run's totals to the process-wide metric families: the
/// table's published counters, then the figures outside the counter
/// block. Called once per run, by [`crate::shard::RunFrame::finish`]; each
/// family's kind and help text come from the [`names::FAMILIES`] table.
pub(crate) fn publish_search_metrics(stats: &SearchStats, outcome: Outcome) {
    let extra = [
        (names::SEARCH_RUNS_TOTAL, 1),
        (names::SEARCH_INTERNED_STATES_TOTAL, stats.interned_states),
        (names::SEARCH_BUCKET_SCANS_TOTAL, stats.bucket_scans),
        (names::SEARCH_ARENA_BYTES, stats.arena_bytes),
        (names::SEARCH_RESIDENT_BYTES, stats.resident_bytes),
        (
            names::SEARCH_RESUMED_FRONTIER_TOTAL,
            stats.resumed_frontier_states,
        ),
    ];
    for (name, value) in stats.families().into_iter().chain(extra) {
        names::publish(name, value);
    }
    // Families that only count some runs.
    for (name, applies) in [
        (
            names::SEARCH_DISTANCE_TABLE_SKIPPED_TOTAL,
            stats.distance_table_skipped,
        ),
        (names::SEARCH_CANCELLED_TOTAL, outcome == Outcome::Cancelled),
        (names::SEARCH_PARALLEL_RUNS_TOTAL, stats.parallel()),
    ] {
        if applies {
            names::publish(name, 1);
        }
    }
    sortsynth_obs::profile::publish_phase_nanos(&stats.phase_nanos);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortsynth_obs::progress::COLUMNS;

    /// Every progress column is read from the counter block by name, except
    /// the four figures the run frame sets by hand.
    #[test]
    fn every_progress_column_is_a_counter_or_set_by_hand() {
        let by_hand = [
            "open",
            "f_bound",
            "resident_bytes",
            "resumed_frontier_states",
        ];
        for col in COLUMNS {
            let counter = SearchStats::default().get(col.name).is_some();
            assert_ne!(counter, by_hand.contains(&col.name), "{}", col.name);
        }
    }
}
