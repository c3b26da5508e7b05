//! The in-memory function-instance pool.
//!
//! Following the paper's simulation principles (Section V-A / VI-A2), all
//! function instances consume one unit of memory and, by default, a single
//! node holds arbitrarily many instances. A capacity-limited variant backs
//! the FaaSCache baseline, which works against a fixed memory budget.
//!
//! The pool also owns instance expiry. A policy never sweeps the loaded
//! set; it states when an instance may go ([`MemoryPool::expire_at`],
//! [`MemoryPool::hold_until`]) and the engine evicts whatever is due
//! once per slot, right after the policy's decision hook.

use spes_trace::{FunctionId, Slot};

/// One recorded pool transition (the engine turns these into
/// `spes_sim::events::SimEvent`s with the right cause attached).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PoolOp {
    /// An instance was newly loaded.
    Load(FunctionId),
    /// A loaded instance was evicted.
    Evict(FunctionId),
    /// A load was refused by pressure admission control; nothing changed.
    Reject(FunctionId),
}

/// The set of loaded function instances.
///
/// Backed by a dense membership vector plus a swap-remove index so that
/// `contains`, `load`, and `evict` are O(1) and iteration over loaded
/// functions is linear in the number of loaded instances.
///
/// # Expiry
///
/// Each loaded instance may carry a *deadline* ([`MemoryPool::expire_at`],
/// cleared by every load) and each function a *hold*
/// ([`MemoryPool::hold_until`]). After every policy decision hook the
/// engine has the pool evict each loaded instance whose `max(deadline,
/// hold) <= now`, in ascending pool position — the order of a sweep over
/// a copy of [`MemoryPool::loaded`] — so `loaded()` order and the
/// [`MemoryPool::oldest_loaded`] tie-break match such a sweep. Deadlines
/// sit in a column parallel to the loaded list, so the due set is one
/// sequential pass (none while no deadline was ever set).
///
/// With journaling enabled (the engine turns it on), every effective
/// load/evict is additionally recorded as a `PoolOp`; the engine drains
/// the journal after each phase of a slot to emit the corresponding
/// events, which is how policy-initiated transitions become visible to
/// observers without diffing the pool.
#[derive(Debug, Clone)]
pub struct MemoryPool {
    member: Vec<bool>,
    position: Vec<u32>,
    loaded: Vec<FunctionId>,
    capacity: Option<usize>,
    /// Soft pressure budget for admission control; `None` admits every
    /// load. Unlike `capacity` (a hard limit that panics when violated),
    /// the budget makes [`MemoryPool::load`] *refuse* loads that would
    /// push occupancy past it — the engine uses this to reject policy
    /// pre-warms under memory pressure while demand loads (which must
    /// serve a cold start) bypass it.
    admission: Option<usize>,
    /// Slot at which each currently loaded instance was loaded.
    loaded_at: Vec<Slot>,
    /// Expiry deadline of each loaded instance, parallel to `loaded`
    /// (indexed by pool position, so the expiry pass reads it in order);
    /// [`NEVER`] when none is set. Every load starts at [`NEVER`].
    deadline: Vec<Slot>,
    /// Per-function eviction floor; only ever rises, kept across
    /// evictions.
    hold: Vec<Slot>,
    /// Whether any deadline was ever set: a pool whose policy never sets
    /// one (keep-forever) skips the expiry pass.
    armed: bool,
    /// Scratch for the due set of one [`MemoryPool::expire_due`] call.
    due: Vec<FunctionId>,
    /// Transition journal; `None` when journaling is off (the default).
    journal: Option<Vec<PoolOp>>,
}

const NO_POSITION: u32 = u32::MAX;
/// The deadline of an instance that never expires.
const NEVER: Slot = Slot::MAX;

impl MemoryPool {
    /// Creates an empty pool for `n_functions` functions with unlimited
    /// capacity.
    #[must_use]
    pub fn unbounded(n_functions: usize) -> Self {
        Self::with_capacity(n_functions, None)
    }

    /// Creates an empty pool; `capacity` of `Some(k)` limits the pool to
    /// `k` simultaneously loaded instances.
    #[must_use]
    pub fn with_capacity(n_functions: usize, capacity: Option<usize>) -> Self {
        Self {
            member: vec![false; n_functions],
            position: vec![NO_POSITION; n_functions],
            loaded: Vec::new(),
            capacity,
            admission: None,
            loaded_at: vec![0; n_functions],
            deadline: Vec::new(),
            hold: vec![0; n_functions],
            armed: false,
            due: Vec::new(),
            journal: None,
        }
    }

    /// Turns on the transition journal (engine-internal).
    pub(crate) fn enable_journal(&mut self) {
        self.journal = Some(Vec::new());
    }

    /// Sets the pressure-admission budget (engine-internal; see
    /// [`crate::engine::SimConfig::with_pressure_budget`]).
    pub(crate) fn set_admission_budget(&mut self, budget: Option<usize>) {
        self.admission = budget;
    }

    /// The pressure-admission budget, if one is active.
    #[must_use]
    pub fn admission_budget(&self) -> Option<usize> {
        self.admission
    }

    /// Moves all journalled transitions into `out` (engine-internal).
    pub(crate) fn drain_journal_into(&mut self, out: &mut Vec<PoolOp>) {
        if let Some(journal) = &mut self.journal {
            out.append(journal);
        }
    }

    fn record(&mut self, op: PoolOp) {
        if let Some(journal) = &mut self.journal {
            journal.push(op);
        }
    }

    /// Number of functions the pool tracks.
    #[must_use]
    pub fn n_functions(&self) -> usize {
        self.member.len()
    }

    /// Number of currently loaded instances.
    #[must_use]
    pub fn loaded_count(&self) -> usize {
        self.loaded.len()
    }

    /// Optional capacity limit.
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Whether the pool is at capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.capacity.is_some_and(|c| self.loaded.len() >= c)
    }

    /// Whether `f` is loaded.
    #[must_use]
    pub fn contains(&self, f: FunctionId) -> bool {
        self.member[f.index()]
    }

    /// Loads `f` at slot `now`. Returns `true` if it was newly loaded,
    /// `false` if it was already present (a no-op) or refused by the
    /// pressure-admission budget (the refusal is journalled, so under the
    /// engine it surfaces as a `SimEvent::LoadRejected`).
    ///
    /// # Panics
    /// Panics when loading a new instance into a full pool; callers must
    /// make room first (see [`crate::policy::Policy::pick_victim`]).
    pub fn load(&mut self, f: FunctionId, now: Slot) -> bool {
        if self.member[f.index()] {
            return false;
        }
        if self.admission.is_some_and(|b| self.loaded.len() >= b) {
            self.record(PoolOp::Reject(f));
            return false;
        }
        self.admit(f, now);
        true
    }

    /// Loads `f` bypassing the admission budget (engine-internal: demand
    /// loads serve a cold start and cannot be deferred). The hard
    /// `capacity` limit still applies.
    pub(crate) fn demand_load(&mut self, f: FunctionId, now: Slot) -> bool {
        if self.member[f.index()] {
            return false;
        }
        self.admit(f, now);
        true
    }

    fn admit(&mut self, f: FunctionId, now: Slot) {
        assert!(
            !self.is_full(),
            "loading {f} into a full pool (capacity {:?})",
            self.capacity
        );
        self.member[f.index()] = true;
        self.position[f.index()] = self.loaded.len() as u32;
        self.loaded.push(f);
        self.deadline.push(NEVER);
        self.loaded_at[f.index()] = now;
        self.record(PoolOp::Load(f));
    }

    /// Evicts `f`. Returns `true` if it was loaded.
    pub fn evict(&mut self, f: FunctionId) -> bool {
        if !self.member[f.index()] {
            return false;
        }
        let pos = self.position[f.index()] as usize;
        self.loaded.swap_remove(pos);
        self.deadline.swap_remove(pos);
        if let Some(&moved) = self.loaded.get(pos) {
            self.position[moved.index()] = pos as u32;
        }
        self.member[f.index()] = false;
        self.position[f.index()] = NO_POSITION;
        self.record(PoolOp::Evict(f));
        true
    }

    /// Sets the expiry deadline of loaded instance `f`: under the engine
    /// it is evicted at the end of the first slot `now >= slot` (and at
    /// or after its hold, see [`MemoryPool::hold_until`]). The deadline
    /// may be lowered as well as raised; a `slot` already in the past
    /// expires the instance this slot. When `f` is not loaded the call
    /// has no effect — the next load starts without a deadline.
    pub fn expire_at(&mut self, f: FunctionId, slot: Slot) {
        if let Some(deadline) = self.deadline.get_mut(self.position[f.index()] as usize) {
            *deadline = slot;
            self.armed = true;
        }
    }

    /// Raises `f`'s hold to `slot`: no deadline evicts it before then.
    /// The hold only ever rises, applies whether or not `f` is loaded,
    /// and survives evictions, so it also protects a later reload.
    pub fn hold_until(&mut self, f: FunctionId, slot: Slot) {
        let hold = &mut self.hold[f.index()];
        *hold = (*hold).max(slot);
    }

    /// The deadline of loaded `f`, not counting its hold (snapshot
    /// internal).
    pub(crate) fn deadline_of(&self, f: FunctionId) -> Option<Slot> {
        let deadline = *self.deadline.get(self.position[f.index()] as usize)?;
        (deadline != NEVER).then_some(deadline)
    }

    /// Evicts every loaded instance whose expiry is at or before `now`,
    /// in ascending pool position (engine-internal: called once per slot
    /// right after the policy's decision hook, so the evictions are
    /// journalled as policy evictions).
    pub(crate) fn expire_due(&mut self, now: Slot) {
        if !self.armed {
            return;
        }
        // One in-order pass over the deadline column: the due set comes
        // out in position order and is evicted after the pass.
        let mut due = std::mem::take(&mut self.due);
        for (&f, &deadline) in self.loaded.iter().zip(&self.deadline) {
            if deadline <= now && deadline != NEVER && self.hold[f.index()] <= now {
                due.push(f);
            }
        }
        for &f in &due {
            self.evict(f);
        }
        due.clear();
        self.due = due;
    }

    /// The longest-loaded instance (ties broken by the pool's internal
    /// order, matching the engine's historical fallback). This is the
    /// shared oldest-instance eviction fallback used wherever a victim is
    /// needed and no better choice exists.
    #[must_use]
    pub fn oldest_loaded(&self) -> Option<FunctionId> {
        self.loaded
            .iter()
            .copied()
            .min_by_key(|&f| self.loaded_since(f))
    }

    /// Slot at which `f` was most recently loaded (meaningful only while
    /// `f` is loaded).
    #[must_use]
    pub fn loaded_since(&self, f: FunctionId) -> Slot {
        self.loaded_at[f.index()]
    }

    /// The currently loaded functions, in unspecified order.
    #[must_use]
    pub fn loaded(&self) -> &[FunctionId] {
        &self.loaded
    }

    /// Evicts everything.
    pub fn clear(&mut self) {
        self.deadline.clear();
        for f in std::mem::take(&mut self.loaded) {
            self.member[f.index()] = false;
            self.position[f.index()] = NO_POSITION;
            self.record(PoolOp::Evict(f));
        }
    }

    /// Holds that still matter at slot `from` (those after it), as
    /// `(function, hold)` pairs in function order — the hold half of a
    /// snapshot (a hold at or before the next stepped slot can no longer
    /// delay an eviction).
    pub(crate) fn holds_after(&self, from: Slot) -> impl Iterator<Item = (FunctionId, Slot)> + '_ {
        self.hold
            .iter()
            .enumerate()
            .filter(move |&(_, &h)| h > from)
            .map(|(i, &h)| (FunctionId(i as u32), h))
    }

    /// Rebuilds the loaded set from snapshot `(function, loaded_at,
    /// deadline)` entries, in exactly the given order, plus the holds
    /// from [`MemoryPool::holds_after`] (snapshot-restore internal, on a
    /// fresh pool).
    ///
    /// Preserving insertion order matters: [`MemoryPool::oldest_loaded`]
    /// breaks load-slot ties by internal order, so a resumed run only
    /// stays bit-identical to the uninterrupted one if the order
    /// survives the round trip. Nothing is journalled — the instances
    /// were loaded before the snapshot, not now.
    ///
    /// # Errors
    /// Rejects out-of-range ids, duplicates, and entry counts beyond the
    /// pool's capacity.
    pub(crate) fn restore_loaded(
        &mut self,
        entries: &[(FunctionId, Slot, Option<Slot>)],
        holds: &[(FunctionId, Slot)],
    ) -> Result<(), String> {
        if self.capacity.is_some_and(|c| entries.len() > c) {
            return Err(format!(
                "snapshot holds {} loaded instances but the pool capacity is {:?}",
                entries.len(),
                self.capacity
            ));
        }
        let n = self.member.len();
        let out_of_range =
            |f: FunctionId| format!("snapshot names function {} but the pool tracks {n}", f.0);
        for &(f, h) in holds {
            if f.index() >= n {
                return Err(out_of_range(f));
            }
            self.hold[f.index()] = h;
        }
        for &(f, at, deadline) in entries {
            if f.index() >= n {
                return Err(out_of_range(f));
            }
            if self.member[f.index()] {
                return Err(format!("snapshot loads function {} twice", f.0));
            }
            self.member[f.index()] = true;
            self.position[f.index()] = self.loaded.len() as u32;
            self.loaded.push(f);
            self.deadline.push(deadline.unwrap_or(NEVER));
            self.loaded_at[f.index()] = at;
            self.armed |= deadline.is_some();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// After random loads, deadlines, holds and evictions, the
        /// evictions `expire_due` journals and the `loaded()` order it
        /// leaves equal those of a reference sweep over a copy of
        /// `loaded()`, which evicts what a test-local model says is due.
        #[test]
        fn expire_due_matches_a_sweep_over_loaded(
            ops in prop::collection::vec((0u32..16, 0u8..4, 0u32..40), 0..80),
            now in 0u32..40,
        ) {
            let mut pool = MemoryPool::unbounded(16);
            let (mut deadline, mut hold) = (vec![None; 16], vec![0; 16]);
            for (f, kind, slot) in ops {
                let (id, i) = (FunctionId(f), f as usize);
                match kind {
                    0 => {
                        if pool.load(id, slot) {
                            deadline[i] = None;
                        }
                    }
                    1 => {
                        if pool.contains(id) {
                            deadline[i] = Some(slot);
                        }
                        pool.expire_at(id, slot);
                    }
                    2 => {
                        hold[i] = hold[i].max(slot);
                        pool.hold_until(id, slot);
                    }
                    _ => {
                        pool.evict(id);
                    }
                }
            }
            pool.enable_journal();
            let mut reference = pool.clone();
            for f in reference.loaded().to_vec() {
                let i = f.index();
                if deadline[i].is_some_and(|d: Slot| d.max(hold[i]) <= now) {
                    reference.evict(f);
                }
            }
            pool.expire_due(now);
            let (mut ops, mut expected) = (Vec::new(), Vec::new());
            pool.drain_journal_into(&mut ops);
            reference.drain_journal_into(&mut expected);
            prop_assert_eq!(ops, expected);
            prop_assert_eq!(pool.loaded(), reference.loaded());
        }
    }

    #[test]
    fn expiry_is_the_later_of_deadline_and_hold() {
        let mut pool = MemoryPool::unbounded(3);
        let f = FunctionId(1);
        // Holds apply to unloaded functions and never fall.
        pool.hold_until(f, 6);
        pool.hold_until(f, 3);
        pool.load(f, 2);
        pool.expire_due(50); // no deadline: never expires
        assert!(pool.contains(f));
        pool.expire_at(f, 90);
        pool.expire_at(f, 1); // deadlines may fall again
        assert_eq!(pool.deadline_of(f), Some(1));
        pool.expire_due(5);
        assert!(pool.contains(f));
        pool.hold_until(f, 7);
        pool.expire_due(7);
        assert!(!pool.contains(f));
        // A deadline set while unloaded is ignored; a reload starts
        // without one.
        pool.expire_at(f, 0);
        pool.load(f, 8);
        assert_eq!(pool.deadline_of(f), None);
    }

    #[test]
    fn load_and_contains() {
        let mut pool = MemoryPool::unbounded(4);
        assert!(!pool.contains(FunctionId(1)));
        assert!(pool.load(FunctionId(1), 5));
        assert!(pool.contains(FunctionId(1)));
        assert_eq!(pool.loaded_count(), 1);
        assert_eq!(pool.loaded_since(FunctionId(1)), 5);
    }

    #[test]
    fn double_load_is_noop() {
        let mut pool = MemoryPool::unbounded(4);
        assert!(pool.load(FunctionId(0), 1));
        assert!(!pool.load(FunctionId(0), 9));
        assert_eq!(pool.loaded_count(), 1);
        // The original load slot is preserved on a no-op load.
        assert_eq!(pool.loaded_since(FunctionId(0)), 1);
    }

    #[test]
    fn evict_removes() {
        let mut pool = MemoryPool::unbounded(4);
        pool.load(FunctionId(0), 0);
        pool.load(FunctionId(1), 0);
        pool.load(FunctionId(2), 0);
        assert!(pool.evict(FunctionId(1)));
        assert!(!pool.contains(FunctionId(1)));
        assert_eq!(pool.loaded_count(), 2);
        assert!(pool.contains(FunctionId(0)));
        assert!(pool.contains(FunctionId(2)));
        // Evicting again is a no-op.
        assert!(!pool.evict(FunctionId(1)));
    }

    #[test]
    fn swap_remove_keeps_positions_consistent() {
        let mut pool = MemoryPool::unbounded(8);
        for i in 0..6 {
            pool.load(FunctionId(i), 0);
        }
        pool.evict(FunctionId(0)); // last element swaps into slot 0
        pool.evict(FunctionId(5)); // the swapped element must still evict cleanly
        assert_eq!(pool.loaded_count(), 4);
        for i in 1..5 {
            assert!(pool.contains(FunctionId(i)));
        }
    }

    #[test]
    fn capacity_enforced() {
        let mut pool = MemoryPool::with_capacity(8, Some(2));
        pool.load(FunctionId(0), 0);
        pool.load(FunctionId(1), 0);
        assert!(pool.is_full());
        // Re-loading an existing instance is fine at capacity.
        assert!(!pool.load(FunctionId(0), 0));
    }

    #[test]
    #[should_panic(expected = "full pool")]
    fn overfull_load_panics() {
        let mut pool = MemoryPool::with_capacity(8, Some(1));
        pool.load(FunctionId(0), 0);
        pool.load(FunctionId(1), 0);
    }

    #[test]
    fn unbounded_is_never_full() {
        let mut pool = MemoryPool::unbounded(100);
        for i in 0..100 {
            pool.load(FunctionId(i), 0);
        }
        assert!(!pool.is_full());
        assert_eq!(pool.loaded_count(), 100);
    }

    #[test]
    fn clear_empties() {
        let mut pool = MemoryPool::unbounded(4);
        pool.load(FunctionId(2), 0);
        pool.load(FunctionId(3), 0);
        pool.clear();
        assert_eq!(pool.loaded_count(), 0);
        assert!(!pool.contains(FunctionId(2)));
        // Pool remains usable.
        assert!(pool.load(FunctionId(2), 1));
    }

    #[test]
    fn oldest_loaded_is_the_earliest_load() {
        let mut pool = MemoryPool::unbounded(5);
        assert_eq!(pool.oldest_loaded(), None);
        pool.load(FunctionId(3), 7);
        pool.load(FunctionId(1), 2);
        pool.load(FunctionId(4), 9);
        assert_eq!(pool.oldest_loaded(), Some(FunctionId(1)));
        pool.evict(FunctionId(1));
        assert_eq!(pool.oldest_loaded(), Some(FunctionId(3)));
    }

    #[test]
    fn oldest_loaded_ties_break_by_pool_order() {
        let mut pool = MemoryPool::unbounded(5);
        pool.load(FunctionId(2), 4);
        pool.load(FunctionId(0), 4);
        // Same load slot: the first in the pool's internal order wins,
        // matching the engine's historical min_by_key fallback.
        assert_eq!(pool.oldest_loaded(), Some(FunctionId(2)));
    }

    #[test]
    fn journal_records_effective_transitions_only() {
        let mut pool = MemoryPool::unbounded(4);
        pool.enable_journal();
        pool.load(FunctionId(0), 0);
        pool.load(FunctionId(0), 1); // no-op: not journalled
        pool.evict(FunctionId(1)); // no-op: not journalled
        pool.evict(FunctionId(0));
        pool.load(FunctionId(2), 2);
        pool.clear();
        let mut ops = Vec::new();
        pool.drain_journal_into(&mut ops);
        assert_eq!(
            ops,
            vec![
                PoolOp::Load(FunctionId(0)),
                PoolOp::Evict(FunctionId(0)),
                PoolOp::Load(FunctionId(2)),
                PoolOp::Evict(FunctionId(2)),
            ]
        );
        // Draining empties the journal.
        let mut again = Vec::new();
        pool.drain_journal_into(&mut again);
        assert!(again.is_empty());
    }

    #[test]
    fn journal_off_by_default() {
        let mut pool = MemoryPool::unbounded(2);
        pool.load(FunctionId(0), 0);
        let mut ops = Vec::new();
        pool.drain_journal_into(&mut ops);
        assert!(ops.is_empty());
    }

    #[test]
    fn admission_budget_refuses_loads_at_pressure() {
        let mut pool = MemoryPool::unbounded(4);
        pool.enable_journal();
        pool.set_admission_budget(Some(2));
        assert!(pool.load(FunctionId(0), 0));
        assert!(pool.load(FunctionId(1), 0));
        // At budget: further loads are refused and journalled as rejects.
        assert!(!pool.load(FunctionId(2), 0));
        assert!(!pool.contains(FunctionId(2)));
        // Re-loading a resident instance stays a plain no-op, not a reject.
        assert!(!pool.load(FunctionId(0), 1));
        // Demand loads bypass the budget.
        assert!(pool.demand_load(FunctionId(3), 1));
        assert_eq!(pool.loaded_count(), 3);
        let mut ops = Vec::new();
        pool.drain_journal_into(&mut ops);
        assert_eq!(
            ops,
            vec![
                PoolOp::Load(FunctionId(0)),
                PoolOp::Load(FunctionId(1)),
                PoolOp::Reject(FunctionId(2)),
                PoolOp::Load(FunctionId(3)),
            ]
        );
    }

    #[test]
    fn admission_budget_reopens_after_evictions() {
        let mut pool = MemoryPool::unbounded(3);
        pool.set_admission_budget(Some(1));
        assert_eq!(pool.admission_budget(), Some(1));
        assert!(pool.load(FunctionId(0), 0));
        assert!(!pool.load(FunctionId(1), 0));
        pool.evict(FunctionId(0));
        assert!(pool.load(FunctionId(1), 1));
    }

    #[test]
    fn loaded_lists_members() {
        let mut pool = MemoryPool::unbounded(5);
        pool.load(FunctionId(4), 0);
        pool.load(FunctionId(2), 0);
        let mut ids: Vec<u32> = pool.loaded().iter().map(|f| f.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 4]);
    }
}
