//! Per-assignment optimal-distance precomputation.
//!
//! Before the main search starts, the paper (§3.1, third heuristic; §3.2;
//! §3.3) precomputes, for every *single* register assignment, the length of
//! the shortest instruction sequence that sorts it. Every op copies a value
//! and none makes a new one, so an assignment missing a value of `1..=n` is
//! [`UNSORTABLE`] outright, and so is every successor; the table therefore
//! covers the *live* assignments only, indexed by their live number
//! ([`crate::LiveSpace`]): 1 080 at n = 4 cmp/cmov, 2 520 at n = 5 min/max,
//! where the `(n+1)^(n+m)` contents of every flag plane would be 9 375 and
//! 46 656. [`DistanceTable::build`]:
//!
//! 1. takes the successor of each (live assignment, action) pair from the
//!    live space's successor table (machines without a live space step
//!    each pair once into a transient index);
//! 2. runs backward induction from the sorted assignments over that index:
//!    round `d` gives distance `d + 1` to every undecided assignment with a
//!    distance-`d` successor;
//! 3. fills the first moves, and — with a live space — the successor rows:
//!    each live assignment's successor distance and successor projection
//!    number under every action.
//!
//! The table serves three purposes:
//!
//! * the admissible `MaxRemaining` search heuristic — the maximum per-
//!   assignment distance in a state lower-bounds the remaining program
//!   length;
//! * the §3.3 viability check — a state whose `g + max distance` exceeds the
//!   length budget can be pruned without losing optimality;
//! * the §3.2 action restriction — only instructions that start an optimal
//!   completion for *some* assignment of the state are explored.

use sortsynth_isa::{Instr, Machine, MachineState};

use crate::live::{enumerate, index_in, LiveSpace, NONE};
use crate::state::{count_distinct, Assign, ProjScratch, StateSet};

/// Distance value meaning "cannot be sorted" (a value was erased).
pub const UNSORTABLE: u16 = u16::MAX;

/// A bitset over action indices (supports up to 256 actions, which covers
/// every machine this workspace constructs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActionSet([u64; 4]);

impl ActionSet {
    /// The empty set.
    pub fn empty() -> Self {
        ActionSet::default()
    }

    /// Inserts action index `i`.
    pub fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// Whether action index `i` is present.
    pub fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    /// Set union, in place.
    pub fn union_with(&mut self, other: &ActionSet) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a |= b;
        }
    }

    /// Number of actions in the set.
    pub fn len(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }
}

/// Precomputed per-assignment shortest sorting distances (and optionally the
/// optimal first moves) for a [`Machine`], indexed by live number.
///
/// # Examples
///
/// ```
/// use sortsynth_isa::{IsaMode, Machine};
/// use sortsynth_search::DistanceTable;
///
/// let machine = Machine::new(2, 1, IsaMode::Cmov);
/// let table = DistanceTable::build(&machine, false);
/// // The sorted assignment is at distance 0; the swapped one is fixed by a
/// // 3-mov rotation through the scratch register (no comparison needed —
/// // the concrete values are known).
/// assert_eq!(table.dist(machine.initial_state(&[1, 2])), 0);
/// assert_eq!(table.dist(machine.initial_state(&[2, 1])), 3);
/// ```
#[derive(Debug, Clone)]
pub struct DistanceTable {
    /// The live numbering: the live assignments, ascending.
    states: Vec<MachineState>,
    actions: Vec<Instr>,
    dist: Vec<u16>,
    first_moves: Option<Vec<ActionSet>>,
    /// Largest finite distance in the table.
    max_finite: u16,
    /// Successor distances, *live-index-major*: `succ_dist[li * actions +
    /// ai]` is the distance of live assignment `li`'s successor under
    /// `actions[ai]` ([`UNSORTABLE`] when the step erases a value). One
    /// contiguous row holds a parent assignment's distance under *every*
    /// action, so [`DistanceTable::succ_max_dist_sweep`] streams the whole
    /// action sweep as packed integer max (n = 4, m = 1 cmp/cmov: 66
    /// actions × 1 080 live assignments ≈ 139 KiB). Built with a live space
    /// only.
    succ_dist: Option<Vec<u16>>,
    /// The projection number ([`LiveSpace::proj`]) of each successor, same
    /// shape as [`DistanceTable::succ_dist`] (0 where the step erases a
    /// value). Lets the expansion loop count a candidate's distinct
    /// successor projections — the permutation-count cut — *before* the
    /// candidate is ever stepped.
    succ_proj: Option<Vec<u16>>,
}

impl DistanceTable {
    /// Whether `machine` is within the table's representable limits
    /// ([`ActionSet`] holds at most 256 action indices). Machines with many
    /// scratch registers exceed this; callers should fall back to searching
    /// without the table rather than calling [`DistanceTable::build`].
    pub fn supports(machine: &Machine) -> bool {
        machine.actions().len() <= 256
    }

    /// Builds the table by backward induction from the sorted assignments.
    ///
    /// With `with_first_moves`, additionally records for every assignment the
    /// set of actions that start *some* shortest sorting sequence (the §3.2
    /// "optimal instructions" guide).
    pub fn build(machine: &Machine, with_first_moves: bool) -> Self {
        Self::build_over(
            machine,
            LiveSpace::build(machine).as_ref(),
            with_first_moves,
        )
    }

    /// [`DistanceTable::build`] over `machine`'s live space, when it has
    /// one: the table takes its numbering and successors from `space`, and
    /// gains the successor rows the expansion loop reads.
    pub(crate) fn build_over(
        machine: &Machine,
        space: Option<&LiveSpace>,
        with_first_moves: bool,
    ) -> Self {
        let actions = machine.actions();
        assert!(
            actions.len() <= 256,
            "ActionSet supports at most 256 actions"
        );
        let na = actions.len();
        // The successor index: `succ[li * na + ai]` is the live index
        // reached from `li` under `actions[ai]`, `u32::MAX` where the step
        // erases a value.
        let (states, succ) = match space {
            Some(space) => {
                let mut succ = vec![0u32; space.len() * na];
                for ai in 0..na {
                    for (li, &s) in space.succ_row(ai).iter().enumerate() {
                        succ[li * na + ai] = if s == NONE { u32::MAX } else { s as u32 };
                    }
                }
                (space.states().to_vec(), succ)
            }
            None => {
                let (layout, states, index) = enumerate(machine);
                let mut succ = Vec::with_capacity(states.len() * na);
                for &st in &states {
                    succ.extend(actions.iter().map(|&a| index[layout.encode(st.step(a))]));
                }
                (states, succ)
            }
        };
        // An erased successor (`u32::MAX`) indexes past every table.
        let reach = |s: u32, dist: &[u16]| dist.get(s as usize).copied().unwrap_or(UNSORTABLE);

        // Backward induction from the sorted assignments: an undecided
        // assignment gets distance d+1 in round d if some action leads to a
        // distance-d assignment. Erased successors are UNSORTABLE, so they
        // never match.
        let mut dist = vec![UNSORTABLE; states.len()];
        let mut undecided: Vec<u32> = Vec::with_capacity(states.len());
        for (li, &st) in states.iter().enumerate() {
            if machine.is_sorted(st) {
                dist[li] = 0;
            } else {
                undecided.push(li as u32);
            }
        }
        let mut d: u16 = 0;
        while !undecided.is_empty() {
            let before = undecided.len();
            undecided.retain(|&li| {
                let li = li as usize;
                let reaches_d = succ[li * na..(li + 1) * na]
                    .iter()
                    .any(|&s| reach(s, &dist) == d);
                if reaches_d {
                    dist[li] = d + 1;
                }
                !reaches_d
            });
            if undecided.len() == before {
                break; // the rest cannot reach a sorted assignment
            }
            d += 1;
        }
        let max_finite = d;

        let first_moves = with_first_moves.then(|| {
            (succ.chunks_exact(na).enumerate())
                .map(|(li, row)| {
                    let mut moves = ActionSet::empty();
                    let here = dist[li];
                    if here != 0 && here != UNSORTABLE {
                        for (ai, &s) in row.iter().enumerate() {
                            if reach(s, &dist) == here - 1 {
                                moves.insert(ai);
                            }
                        }
                    }
                    moves
                })
                .collect()
        });
        let succ_dist = space.map(|_| succ.iter().map(|&s| reach(s, &dist)).collect());
        let succ_proj = space.map(|space| {
            let proj = |s: u32| u16::try_from(s).map_or(0, |li| space.proj(li));
            succ.iter().map(|&s| proj(s)).collect()
        });

        DistanceTable {
            states,
            actions,
            dist,
            first_moves,
            max_finite,
            succ_dist,
            succ_proj,
        }
    }

    /// The action list the table indexes into (identical to
    /// [`Machine::actions`]).
    pub fn actions(&self) -> &[Instr] {
        &self.actions
    }

    /// Shortest number of instructions sorting `assign`, or [`UNSORTABLE`].
    pub fn dist(&self, assign: MachineState) -> u16 {
        self.index(assign).map_or(UNSORTABLE, |li| self.dist[li])
    }

    /// `assign`'s live index, or `None` when it is not live.
    pub(crate) fn index(&self, assign: MachineState) -> Option<usize> {
        index_in(&self.states, assign)
    }

    /// Number of live assignments the table covers: the register contents
    /// that hold every value of `1..=n`, times the flag planes the ISA can
    /// reach (three with `cmp`, one for min/max).
    pub fn live(&self) -> usize {
        self.dist.len()
    }

    /// The largest finite distance of any assignment — a lower bound on no
    /// program, but a useful diagnostic.
    pub fn max_finite_dist(&self) -> u16 {
        self.max_finite
    }

    /// Admissible heuristic for a search state: the maximum per-assignment
    /// distance (§3.1). Returns [`UNSORTABLE`] if any assignment is
    /// unsortable.
    pub fn max_dist(&self, set: &StateSet) -> u16 {
        self.max_dist_of(set.assignments())
    }

    /// [`DistanceTable::max_dist`] over a span of either element type.
    pub(crate) fn max_dist_of<A: Assign>(&self, span: &[A]) -> u16 {
        let mut worst = 0;
        for &a in span {
            let d = A::table_index(self, a).map_or(UNSORTABLE, |li| self.dist[li]);
            if d == UNSORTABLE {
                return UNSORTABLE;
            }
            worst = worst.max(d);
        }
        worst
    }

    /// The §3.2 action guide: the union, over all assignments of `set`, of
    /// the actions starting a shortest sorting sequence for that assignment.
    ///
    /// # Panics
    ///
    /// Panics if the table was built without first moves.
    pub fn optimal_first_moves(&self, set: &StateSet) -> ActionSet {
        self.optimal_first_moves_of(set.assignments())
    }

    /// [`DistanceTable::optimal_first_moves`] over a span of either element
    /// type (same panic contract). A non-live assignment adds no move.
    pub(crate) fn optimal_first_moves_of<A: Assign>(&self, span: &[A]) -> ActionSet {
        let moves = self
            .first_moves
            .as_ref()
            .expect("DistanceTable built without first moves");
        let mut out = ActionSet::empty();
        for &a in span {
            if let Some(li) = A::table_index(self, a) {
                out.union_with(&moves[li]);
            }
        }
        out
    }

    /// Whether the successor rows were built (the machine has a live
    /// space; see [`DistanceTable::succ_max_dist_sweep`]).
    pub fn has_succ_dist(&self) -> bool {
        self.succ_dist.is_some()
    }

    /// The successor `max_dist` of the live-index span `indices` under
    /// *every* action at once: `worst[ai]` becomes the largest distance of
    /// a successor under action `ai` ([`UNSORTABLE`] — the numeric maximum
    /// — propagates through the running max for free). One expansion's
    /// whole viability sweep is a single streaming pass over `indices.len()`
    /// contiguous rows, which the compiler turns into packed integer max.
    ///
    /// # Panics
    ///
    /// Panics if the table was built without successor rows
    /// ([`DistanceTable::has_succ_dist`]).
    pub fn succ_max_dist_sweep(&self, indices: &[u16], worst: &mut Vec<u16>) {
        let table = self
            .succ_dist
            .as_ref()
            .expect("DistanceTable built without successor distances");
        let na = self.actions.len();
        worst.clear();
        worst.resize(na, 0);
        for &li in indices {
            let row = &table[li as usize * na..(li as usize + 1) * na];
            for (w, &d) in worst.iter_mut().zip(row) {
                *w = (*w).max(d);
            }
        }
    }

    /// Distinct successor projections of the live-index span `indices`
    /// under action `ai` — the §3.5 permutation count of the successor,
    /// computed straight off the projection rows with no successor
    /// materialized. Same cap contract as [`count_distinct`]: a return
    /// `> cap` means the scan stopped early, any return `<= cap` is exact.
    /// Meaningful only when no successor is erased.
    ///
    /// # Panics
    ///
    /// Panics if the table was built without successor rows
    /// ([`DistanceTable::has_succ_dist`]).
    pub(crate) fn succ_perm_capped(
        &self,
        ai: usize,
        indices: &[u16],
        scratch: &mut ProjScratch,
        cap: u32,
    ) -> u32 {
        let table = self
            .succ_proj
            .as_ref()
            .expect("DistanceTable built without successor distances");
        let na = self.actions.len();
        count_distinct(indices, |li| table[li as usize * na + ai], scratch, cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::Layout;
    use sortsynth_isa::{IsaMode, Reg};

    /// The full sweep's output, indexed by [`Layout`] encoding over three
    /// flag planes.
    struct Reference {
        layout: Layout,
        dist: Vec<u16>,
        first_moves: Option<Vec<ActionSet>>,
        max_finite: u16,
        succ_dist: Vec<u16>,
        succ_proj: Vec<u16>,
    }

    /// The full sweep, the reference for [`DistanceTable::build`]: three
    /// flag planes whatever the ISA, and every encoding re-stepped under
    /// every action in each round of induction, and again for the first
    /// moves and the successor rows. No shortcut, so it checks the build's.
    fn reference_build(machine: &Machine, with_first_moves: bool) -> Reference {
        let actions = machine.actions();
        let layout = Layout::with_planes(machine, 3);
        let radix = layout.radix;
        let total = layout.encodings();

        let mut dist = vec![UNSORTABLE; total];
        for (idx, d) in dist.iter_mut().enumerate() {
            if machine.is_sorted(layout.decode(idx)) {
                *d = 0;
            }
        }

        let mut undecided: Vec<u32> = (0..total as u32)
            .filter(|&i| dist[i as usize] == UNSORTABLE)
            .collect();
        let mut d: u16 = 0;
        let mut max_finite = 0;
        while !undecided.is_empty() {
            let mut still = Vec::with_capacity(undecided.len());
            let mut progressed = false;
            for &idx in &undecided {
                let st = layout.decode(idx as usize);
                let reaches_d = actions
                    .iter()
                    .any(|&a| dist[layout.encode(st.step(a))] == d);
                if reaches_d {
                    dist[idx as usize] = d + 1;
                    max_finite = d + 1;
                    progressed = true;
                } else {
                    still.push(idx);
                }
            }
            undecided = still;
            if !progressed {
                break;
            }
            d += 1;
        }

        let first_moves = with_first_moves.then(|| {
            let mut moves = vec![ActionSet::empty(); total];
            for idx in 0..total {
                let here = dist[idx];
                if here == 0 || here == UNSORTABLE {
                    continue;
                }
                let st = layout.decode(idx);
                for (ai, &a) in actions.iter().enumerate() {
                    if dist[layout.encode(st.step(a))] == here - 1 {
                        moves[idx].insert(ai);
                    }
                }
            }
            moves
        });

        let mut succ_dist = vec![0u16; actions.len() * total];
        let mut succ_proj = vec![0u16; actions.len() * total];
        for idx in 0..total {
            let st = layout.decode(idx);
            for (ai, &a) in actions.iter().enumerate() {
                let succ = st.step(a);
                succ_dist[idx * actions.len() + ai] = dist[layout.encode(succ)];
                succ_proj[idx * actions.len() + ai] = packed_proj(machine, radix, succ);
            }
        }

        Reference {
            layout,
            dist,
            first_moves,
            max_finite,
            succ_dist,
            succ_proj,
        }
    }

    /// Radix-packs the value registers `r1..rn` of `st`: `Σ reg(r) · radixʳ`.
    fn packed_proj(machine: &Machine, radix: usize, st: MachineState) -> u16 {
        let mut p = 0usize;
        for r in (0..machine.n() as usize).rev() {
            p = p * radix + st.reg(Reg::new(r as u8)) as usize;
        }
        p as u16
    }

    /// [`DistanceTable::build`] agrees with [`reference_build`] at every
    /// encoding of the flag planes the ISA reaches (all three with `cmp`,
    /// the flag-free one for min/max): distances through `dist()`, first
    /// moves, and the successor rows — a live encoding's row entry by
    /// entry, every other encoding's row wholly unsortable. Successor
    /// projection numbers must name the reference's packed projections.
    fn assert_matches_reference(n: u8, mode: IsaMode) {
        let m = Machine::new(n, 1, mode);
        let space = LiveSpace::build(&m).expect("m = 1 machines have a live space");
        let mut packed = vec![u16::MAX; space.len()];
        let layout = Layout::with_planes(&m, 3);
        for li in 0..space.len() as u16 {
            packed[space.proj(li) as usize] = packed_proj(&m, layout.radix, space.state(li));
        }
        let planes = if mode == IsaMode::Cmov { 3 } else { 1 };
        for with_first_moves in [false, true] {
            let fast = DistanceTable::build(&m, with_first_moves);
            let slow = reference_build(&m, with_first_moves);
            let what = format!("n = {n} {mode:?} first moves {with_first_moves}");
            assert_eq!(fast.actions, m.actions(), "{what}");
            assert_eq!(fast.live(), space.len(), "{what}");
            assert_eq!(fast.max_finite, slow.max_finite, "{what}");
            let na = fast.actions.len();
            let (fd, fp) = (
                fast.succ_dist.as_ref().unwrap(),
                fast.succ_proj.as_ref().unwrap(),
            );
            for e in 0..planes * slow.layout.flag_stride {
                let st = slow.layout.decode(e);
                assert_eq!(fast.dist(st), slow.dist[e], "dist at {e}: {what}");
                let slow_row = &slow.succ_dist[e * na..(e + 1) * na];
                if let Some(moves) = &slow.first_moves {
                    let got = fast.index(st).map_or(ActionSet::empty(), |li| {
                        fast.first_moves.as_ref().unwrap()[li]
                    });
                    assert_eq!(got, moves[e], "first moves at {e}: {what}");
                }
                let Some(li) = fast.index(st) else {
                    assert!(
                        slow_row.iter().all(|&d| d == UNSORTABLE),
                        "erased row {e}: {what}"
                    );
                    continue;
                };
                let row = li * na..(li + 1) * na;
                assert_eq!(&fd[row.clone()], slow_row, "succ_dist row {e}: {what}");
                for ((&d, &p), &want) in fd[row.clone()]
                    .iter()
                    .zip(&fp[row])
                    .zip(&slow.succ_proj[e * na..(e + 1) * na])
                {
                    if d != UNSORTABLE {
                        assert_eq!(packed[p as usize], want, "succ_proj row {e}: {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn build_matches_reference_n2_to_n4() {
        for n in 2..=4 {
            for mode in [IsaMode::Cmov, IsaMode::MinMax] {
                assert_matches_reference(n, mode);
            }
        }
    }

    #[test]
    #[ignore = "the reference sweep takes seconds at n = 5; CI runs it in release"]
    fn build_matches_reference_n5_cmov() {
        assert_matches_reference(5, IsaMode::Cmov);
    }

    #[test]
    #[ignore = "the reference sweep takes seconds at n = 5; CI runs it in release"]
    fn build_matches_reference_n5_minmax() {
        assert_matches_reference(5, IsaMode::MinMax);
    }

    /// A table built without a live space (the path of machines too big
    /// for one) agrees with the live-space build on everything it holds.
    #[test]
    fn build_without_a_live_space_agrees() {
        for mode in [IsaMode::Cmov, IsaMode::MinMax] {
            let m = Machine::new(3, 1, mode);
            let fast = DistanceTable::build(&m, true);
            let plain = DistanceTable::build_over(&m, None, true);
            assert_eq!(fast.states, plain.states);
            assert_eq!(fast.dist, plain.dist);
            assert_eq!(fast.first_moves, plain.first_moves);
            assert_eq!(fast.max_finite, plain.max_finite);
            assert!(!plain.has_succ_dist());
        }
    }

    /// The successor rows must agree with stepping and looking up directly,
    /// for every live assignment and every action.
    #[test]
    fn succ_dist_agrees_with_direct_lookup() {
        for mode in [IsaMode::Cmov, IsaMode::MinMax] {
            let m = Machine::new(3, 1, mode);
            let table = DistanceTable::build(&m, false);
            assert!(table.has_succ_dist());
            let mut worst = Vec::new();
            for li in 0..table.live() {
                let st = table.states[li];
                table.succ_max_dist_sweep(&[li as u16], &mut worst);
                for (ai, &a) in table.actions().iter().enumerate() {
                    assert_eq!(worst[ai], table.dist(st.step(a)), "{mode:?} {li} {ai}");
                }
            }
        }
    }

    #[test]
    fn sorted_assignment_has_distance_zero() {
        let m = Machine::new(3, 1, IsaMode::Cmov);
        let t = DistanceTable::build(&m, false);
        assert_eq!(t.dist(m.initial_state(&[1, 2, 3])), 0);
    }

    #[test]
    fn single_swap_needs_three_instructions_cmov() {
        // For a single *concrete* assignment the values are known, so no
        // comparison is needed: a transposition is a 3-mov rotation through
        // the scratch register. (This is why the per-assignment distance is
        // only a lower bound for the oblivious sorting kernel, which needs a
        // 4-instruction compare-and-swap.)
        let m = Machine::new(2, 1, IsaMode::Cmov);
        let t = DistanceTable::build(&m, false);
        assert_eq!(t.dist(m.initial_state(&[2, 1])), 3);
    }

    #[test]
    fn single_swap_needs_three_instructions_minmax() {
        let m = Machine::new(2, 1, IsaMode::MinMax);
        let t = DistanceTable::build(&m, false);
        assert_eq!(t.dist(m.initial_state(&[2, 1])), 3);
    }

    #[test]
    fn erased_assignment_is_unsortable() {
        let m = Machine::new(2, 1, IsaMode::Cmov);
        let t = DistanceTable::build(&m, false);
        // r = [1, 1], s = 0: the value 2 is gone.
        let st = MachineState::from_values(&[1, 1, 0]);
        assert_eq!(t.dist(st), UNSORTABLE);
    }

    #[test]
    fn scratch_can_rescue_values() {
        let m = Machine::new(2, 1, IsaMode::Cmov);
        let t = DistanceTable::build(&m, false);
        // r = [1, 1], s = 2: one mov fixes it.
        let st = MachineState::from_values(&[1, 1, 2]);
        assert_eq!(t.dist(st), 1);
    }

    #[test]
    fn max_dist_over_state_set() {
        let m = Machine::new(2, 1, IsaMode::Cmov);
        let t = DistanceTable::build(&m, false);
        let set = StateSet::initial(&m);
        assert_eq!(t.max_dist(&set), 3);
    }

    #[test]
    fn optimal_first_moves_decrease_distance() {
        let m = Machine::new(2, 1, IsaMode::Cmov);
        let t = DistanceTable::build(&m, true);
        let set = StateSet::initial(&m);
        let moves = t.optimal_first_moves(&set);
        assert!(!moves.is_empty());
        // Every allowed move keeps the state sortable and at least one
        // strictly decreases the unsorted assignment's distance.
        let unsorted = m.initial_state(&[2, 1]);
        let mut improved = false;
        for (ai, &a) in t.actions().iter().enumerate() {
            if moves.contains(ai) && t.dist(unsorted.step(a)) == 2 {
                improved = true;
            }
        }
        assert!(improved);
    }

    #[test]
    fn action_set_basics() {
        let mut s = ActionSet::empty();
        assert!(s.is_empty());
        s.insert(0);
        s.insert(130);
        assert!(s.contains(0) && s.contains(130) && !s.contains(64));
        assert_eq!(s.len(), 2);
        let mut t = ActionSet::empty();
        t.insert(64);
        t.union_with(&s);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn distances_are_consistent_one_step() {
        // Triangle inequality / Bellman consistency: dist(s) <= dist(succ)+1.
        let m = Machine::new(3, 1, IsaMode::Cmov);
        let t = DistanceTable::build(&m, false);
        for perm in sortsynth_isa::permutations(3) {
            let st = m.initial_state(&perm);
            let d = t.dist(st);
            for &a in t.actions() {
                let ds = t.dist(st.step(a));
                if ds != UNSORTABLE {
                    assert!(d <= ds + 1, "inconsistent distance at {perm:?}");
                }
            }
        }
    }
}
