//! The one progress schema: the snapshot a running search hands its
//! progress hook, the flight recorder writes to disk, the service's watch
//! hub fans out, and the `watch` wire reply carries.
//!
//! The counter fields are declared once, in the `schema!` table below,
//! each with the format version it arrived in. Every encoding loops over
//! [`COLUMNS`] instead of naming fields: the recorder writes the columns in
//! table order and decodes a v1 segment by reading only the v1 columns;
//! the wire requires the v1 keys and treats later ones as optional for
//! older peers; the `search_progress` trace event and `inspect --json`
//! emit every column. Adding a statistic is one line in the table.

use std::time::Duration;

/// The type of one counter column: a plain count, or a bound that may be
/// absent (`None` on the wire, `u64::MAX` on disk).
trait Cell {
    /// Whether the column may be absent.
    const NULLABLE: bool;
    /// The column's value, `None` when absent.
    fn get(&self) -> Option<u64>;
    /// The column holding `v`.
    fn put(v: u64) -> Self;
}

impl Cell for u64 {
    const NULLABLE: bool = false;
    fn get(&self) -> Option<u64> {
        Some(*self)
    }
    fn put(v: u64) -> Self {
        v
    }
}

impl Cell for Option<u64> {
    const NULLABLE: bool = true;
    fn get(&self) -> Option<u64> {
        *self
    }
    fn put(v: u64) -> Self {
        Some(v)
    }
}

/// One counter column of [`SearchProgress`]: its field name (also its
/// wire key and trace field name), the format version it arrived in, and
/// accessors.
pub struct Column {
    /// Field name, wire key, and trace field name.
    pub name: &'static str,
    /// The recorder format version (and wire generation) that introduced
    /// the column: 1 for the original block, 2 for the external-memory
    /// counters. Older recordings and peers lack the later columns, which
    /// then read as 0.
    pub since: u32,
    /// Whether the column may be absent: an optional bound (`None` on the
    /// wire, `u64::MAX` on disk) rather than a count.
    pub nullable: bool,
    /// Reads the column; `None` only for an absent nullable column.
    pub get: fn(&SearchProgress) -> Option<u64>,
    /// Writes the column.
    pub set: fn(&mut SearchProgress, u64),
}

macro_rules! schema {
    ($( $(#[doc = $doc:literal])* $name:ident: $ty:ty, since $since:literal; )*) => {
        /// A snapshot of a running (or just-finished) search.
        ///
        /// Emission is throttled by expansion count; a final snapshot with
        /// `finished = true` is always delivered, even for cancelled
        /// searches, so the last snapshot's `expanded` always equals the
        /// run's total.
        #[derive(Debug, Clone, PartialEq, Eq, Default)]
        pub struct SearchProgress {
            /// Wall-clock time since the search started (microseconds on
            /// disk, milliseconds on the wire).
            pub elapsed: Duration,
            $( $(#[doc = $doc])* pub $name: $ty, )*
            /// Whether this run fell back to degraded pruning because the
            /// machine exceeds the distance table's limits.
            pub distance_table_skipped: bool,
            /// `true` exactly once, on the final snapshot of the run.
            pub finished: bool,
            /// How the run ended (`Solved`, `Cancelled`, …); only set when
            /// `finished`. The watch hub closes an unwound search with
            /// `Abandoned`, which is not an engine outcome.
            pub outcome: Option<String>,
            /// Per-shard memory state: one entry per key partition of a
            /// layered run, or a single entry for a one-shard run. Live values:
            /// their running maxima are the high-water marks the flight
            /// recorder exists to capture.
            pub shards: Vec<ShardSnapshot>,
        }

        /// Every counter column, in encoding order.
        pub const COLUMNS: &[Column] = &[$(
            Column {
                name: stringify!($name),
                since: $since,
                nullable: <$ty as Cell>::NULLABLE,
                get: |p| Cell::get(&p.$name),
                set: |p, v| p.$name = Cell::put(v),
            },
        )*];
    };
}

schema! {
    /// States whose successors have been explored so far.
    expanded: u64, since 1;
    /// States produced by applying instructions so far.
    generated: u64, since 1;
    /// Open (not yet expanded) states at the time of the snapshot.
    open: u64, since 1;
    /// Current frontier bound: the layer depth in layered mode (on either
    /// driver), the `f` value of the most recently popped entry in A* mode.
    /// `None` before the first expansion.
    f_bound: Option<u64>, since 1;
    /// Successors dropped by the viability checks so far.
    viability_pruned: u64, since 1;
    /// Successors dropped by the permutation-count cut so far.
    cut_pruned: u64, since 1;
    /// Successors dropped as duplicates so far.
    dedup_hits: u64, since 1;
    /// Successors skipped by the dead-write cut so far.
    dead_write_pruned: u64, since 1;
    /// Successors skipped by the symbolic value-flow cut so far.
    value_flow_pruned: u64, since 1;
    /// Open states whose assignment spans were spilled to disk so far.
    spilled_open: u64, since 2;
    /// Closed-set entries evicted to disk segments so far.
    spilled_closed: u64, since 2;
    /// Duplicates caught by delayed duplicate detection against spilled
    /// closed segments so far.
    ddd_dedup_hits: u64, since 2;
    /// Frontier states restored from a resume journal (0 for fresh runs).
    resumed_frontier_states: u64, since 2;
    /// Estimated bytes of resident (in-memory) search state.
    resident_bytes: u64, since 2;
    /// Bytes written to spill segments so far.
    spilled_bytes: u64, since 2;
}

/// One shard's memory/backlog state inside a [`SearchProgress`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardSnapshot {
    /// Unique canonical states interned into this shard's arena.
    pub interned_states: u64,
    /// Bytes of assignment storage held by this shard's arena.
    pub arena_bytes: u64,
    /// This shard's open-list depth.
    pub open_depth: u64,
}

impl ShardSnapshot {
    /// Field names (wire keys), in encoding order.
    pub const FIELDS: [&'static str; 3] = ["interned_states", "arena_bytes", "open_depth"];

    /// Field values, in [`ShardSnapshot::FIELDS`] order.
    pub fn values(&self) -> [u64; 3] {
        [self.interned_states, self.arena_bytes, self.open_depth]
    }

    /// The inverse of [`ShardSnapshot::values`].
    pub fn from_values([interned_states, arena_bytes, open_depth]: [u64; 3]) -> Self {
        ShardSnapshot {
            interned_states,
            arena_bytes,
            open_depth,
        }
    }
}

impl SearchProgress {
    /// Total interned states across shards.
    pub fn interned_states(&self) -> u64 {
        self.shards.iter().map(|s| s.interned_states).sum()
    }

    /// Total arena bytes across shards.
    pub fn arena_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.arena_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_read_and_write_their_fields() {
        let mut p = SearchProgress::default();
        for (i, col) in COLUMNS.iter().enumerate() {
            (col.set)(&mut p, i as u64 + 1);
        }
        assert_eq!(p.expanded, 1);
        assert_eq!(p.f_bound, Some(4));
        assert_eq!(p.spilled_bytes, COLUMNS.len() as u64);
        for (i, col) in COLUMNS.iter().enumerate() {
            assert_eq!((col.get)(&p), Some(i as u64 + 1), "{}", col.name);
        }
        let nullable: Vec<&str> = COLUMNS
            .iter()
            .filter(|c| c.nullable)
            .map(|c| c.name)
            .collect();
        assert_eq!(nullable, ["f_bound"]);
        assert_eq!((COLUMNS[3].get)(&SearchProgress::default()), None);
        // Versions only grow along the table, so a v1 reader can stop at
        // the first v2 column.
        assert!(COLUMNS.windows(2).all(|w| w[0].since <= w[1].since));
    }

    #[test]
    fn shard_fields_round_trip() {
        let s = ShardSnapshot {
            interned_states: 6,
            arena_bytes: 384,
            open_depth: 2,
        };
        assert_eq!(ShardSnapshot::from_values(s.values()), s);
        assert_eq!(
            SearchProgress {
                shards: vec![s, s],
                ..SearchProgress::default()
            }
            .arena_bytes(),
            768
        );
    }
}
