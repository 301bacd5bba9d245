//! Heuristic evaluation for A* open-state selection (§3.1).

use crate::config::Heuristic;

/// Evaluates `heuristic` from facts cached at intern time
/// ([`crate::intern::StateMeta`]): no state walk, no table lookup — three
/// field reads. `max_dist` is `0` when the run has no distance table, so
/// `MaxRemaining` degrades to uniform cost there (the documented
/// table-skip behavior; see [`crate::SearchStats::distance_table_skipped`]).
pub(crate) fn heuristic_from_meta(
    heuristic: Heuristic,
    perm: u32,
    assign_count: u32,
    max_dist: u16,
) -> u32 {
    match heuristic {
        Heuristic::None => 0,
        Heuristic::PermCount => perm,
        Heuristic::AssignCount => assign_count,
        Heuristic::MaxRemaining => max_dist as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceTable;
    use crate::state::StateSet;
    use sortsynth_isa::{IsaMode, Machine};

    #[test]
    fn heuristic_values_on_initial_state() {
        let m = Machine::new(3, 1, IsaMode::Cmov);
        let s = StateSet::initial(&m);
        let table = DistanceTable::build(&m, false);
        let (perm, assigns) = (s.perm_count(&m), s.assign_count());
        let max_dist = table.max_dist_of(s.assignments());
        let h = |heuristic| heuristic_from_meta(heuristic, perm, assigns, max_dist);
        assert_eq!(h(Heuristic::None), 0);
        assert_eq!(h(Heuristic::PermCount), 6);
        assert_eq!(h(Heuristic::AssignCount), 6);
        let h = h(Heuristic::MaxRemaining);
        // Worst single assignment for n = 3 is a 3-cycle: a 4-mov rotation.
        // (Per-assignment programs know the concrete values, so they never
        // compare — the bound is weak but admissible.)
        assert_eq!(h, 4);
        // Admissibility: never exceeds the known optimum of 11.
        assert!(h <= 11);
    }
}
