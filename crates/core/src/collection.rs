//! The self-managed collection type (§2, §4).
//!
//! An [`Smc<T>`] owns its contained objects: objects are created by
//! [`Smc::add`] and their lifetime ends with [`Smc::remove`] — the
//! database-table-inspired containment semantics of §2. Every object lives
//! in the collection's private [`MemoryContext`]; `Add` and `Remove` map
//! directly onto the memory manager's `alloc` and `free` (§4).
//!
//! Enumeration follows the paper's compiled-query pattern: iterate the
//! blocks of the collection's memory context, skip dead slots via the slot
//! directory, and touch object data only for valid slots (§4's generated
//! code listing). Enumeration honors the §5.2 compaction-group protocol:
//! groups are read either entirely in their pre-relocation state (holding
//! the group's query counter) or entirely post-relocation (helping the move
//! first).
//!
//! # Isolation
//!
//! Objects concurrently removed during an enumeration may or may not be
//! included, and in-place updates may be observed partially — "smcs use a
//! lower isolation level than database systems, in line with other managed
//! collections" (§4). APIs that expose shared borrows document this.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use smc_memory::block::{type_id_of, BlockRef};
use smc_memory::context::{
    Allocation, CompactionGroup, CompactionReport, ContextConfig, MemoryContext,
};
use smc_memory::epoch::Guard;
use smc_memory::error::MemError;
use smc_memory::inspect::HeapSnapshot;
use smc_memory::runtime::Runtime;
use smc_memory::scan::scan_rows;
use smc_memory::slot::{SlotId, SlotState};
use smc_memory::stats::MemoryStats;
use smc_memory::tabular::Tabular;
use smc_memory::verify::VerifyReport;

use crate::refs::{DirectRef, Ref};

/// A self-managed collection of tabular objects.
///
/// Cloning the handle is cheap and shares the underlying collection.
pub struct Smc<T: Tabular> {
    ctx: Arc<MemoryContext>,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Tabular> Clone for Smc<T> {
    fn clone(&self) -> Self {
        Smc {
            ctx: self.ctx.clone(),
            _marker: PhantomData,
        }
    }
}

impl<T: Tabular> std::fmt::Debug for Smc<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Smc")
            .field("type", &std::any::type_name::<T>())
            .field("len", &self.len())
            .field("blocks", &self.ctx.block_count())
            .finish()
    }
}

impl<T: Tabular> Smc<T> {
    /// Creates a collection backed by `runtime` with default configuration.
    pub fn new(runtime: &Arc<Runtime>) -> Smc<T> {
        Self::with_config(runtime, ContextConfig::default())
    }

    /// Creates a collection with explicit tunables (reclamation threshold,
    /// compaction occupancy — the Fig 6 knobs).
    pub fn with_config(runtime: &Arc<Runtime>, config: ContextConfig) -> Smc<T> {
        let ctx = MemoryContext::new_rows(
            runtime.clone(),
            std::mem::size_of::<T>(),
            std::mem::align_of::<T>(),
            type_id_of::<T>(),
            config,
        )
        .expect("object type too large for a memory block");
        Smc {
            ctx: Arc::new(ctx),
            _marker: PhantomData,
        }
    }

    /// The runtime this collection allocates from.
    pub fn runtime(&self) -> &Arc<Runtime> {
        self.ctx.runtime()
    }

    /// The collection's private memory context (§3.3).
    pub fn context(&self) -> &Arc<MemoryContext> {
        &self.ctx
    }

    /// Inserts an object: allocates a slot in the collection's context,
    /// writes the value, and returns a checked reference — the paper's
    /// `persons.Add("Adam", 27)` (§2).
    pub fn add(&self, value: T) -> Ref<T> {
        self.try_add(value).expect("allocation failed")
    }

    /// Fallible [`add`](Self::add).
    pub fn try_add(&self, value: T) -> Result<Ref<T>, MemError> {
        let Allocation {
            entry, entry_inc, ..
        } = self.ctx.alloc_with(|block, slot| {
            // SAFETY: the context claimed this slot exclusively for us; the
            // write happens before the slot is published as Valid.
            unsafe { block.obj_ptr(slot).cast::<T>().write(value) };
        })?;
        Ok(Ref::from_parts(entry, entry_inc))
    }

    /// Removes the referenced object. All references to it become null
    /// (dereference to `None`) from this point on (§2). Returns false if it
    /// was already removed.
    pub fn remove(&self, r: Ref<T>) -> bool {
        self.try_remove(r).expect("thread registry full")
    }

    /// Fallible [`remove`](Self::remove): surfaces
    /// [`MemError::TooManyThreads`] instead of panicking when the calling
    /// thread cannot claim an epoch slot.
    pub fn try_remove(&self, r: Ref<T>) -> Result<bool, MemError> {
        match r.entry() {
            Some(entry) => self.ctx.try_free(entry, r.incarnation()),
            None => Ok(false),
        }
    }

    /// Number of live objects.
    pub fn len(&self) -> u64 {
        self.ctx.live_objects()
    }

    /// True if no live objects remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total off-heap bytes held by the collection's blocks.
    pub fn memory_bytes(&self) -> usize {
        self.ctx.bytes()
    }

    /// Attaches a page store and enables the larger-than-memory tier: under
    /// budget pressure the collection evicts cold blocks to the store, and
    /// touching an evicted object faults its page back in transparently.
    /// Returns false for layouts that cannot spill (columnar contexts).
    pub fn enable_spill(&self, store: Arc<dyn smc_memory::PageStore>) -> bool {
        self.ctx.enable_spill(store)
    }

    /// Blocks currently evicted to the page store.
    pub fn spilled_blocks(&self) -> u64 {
        self.ctx.spilled_blocks()
    }

    /// Live objects resident only in spilled pages (counted in
    /// [`len`](Self::len)).
    pub fn spilled_objects(&self) -> u64 {
        self.ctx.spilled_objects()
    }

    /// Reads a copy of the referenced object.
    pub fn read(&self, r: Ref<T>, guard: &Guard<'_>) -> Option<T> {
        r.read(guard)
    }

    /// Mutates the referenced object in place.
    ///
    /// This is the §7 "compiled unsafe C#" capability: operating on object
    /// fields through pointers, possible only because the collection — not a
    /// moving garbage collector — owns the memory. Concurrent readers may
    /// observe the update partially (the collection's documented isolation
    /// level, §4).
    pub fn update<R>(
        &self,
        r: Ref<T>,
        guard: &Guard<'_>,
        f: impl FnOnce(&mut T) -> R,
    ) -> Option<R> {
        let ptr = r.get_ptr(guard)?;
        // SAFETY: the object is alive for the guard's critical section; the
        // collection's isolation level permits racy field updates (§4).
        Some(f(unsafe { &mut *ptr }))
    }

    /// Applies `f` to every live object — the collection's compiled-query
    /// enumeration loop (§4): block by block, skipping dead slots through
    /// the slot directory, never materializing references. Each block runs
    /// the shared row-scan kernel ([`smc_memory::scan`]), which prefetches
    /// rows ahead of the cursor.
    ///
    /// When the collection has a spill store attached
    /// ([`enable_spill`](Self::enable_spill)), spilled pages are scanned
    /// *in place* — objects are read out of the page images without
    /// promoting them back into memory, so a scan does not thrash the
    /// working set it displaced. Panics if a spilled page cannot be read;
    /// use [`try_for_each`](Self::try_for_each) where that must be an error.
    ///
    /// Returns the number of objects visited.
    pub fn for_each(&self, guard: &Guard<'_>, f: impl FnMut(&T)) -> u64 {
        self.try_for_each(guard, f)
            .expect("spilled page unreadable")
    }

    /// Fallible [`for_each`](Self::for_each):
    /// `Err(MemError::SpillFault)` when a spilled page cannot be read back
    /// (the scan stops — fail closed, no partial page is surfaced).
    pub fn try_for_each(&self, guard: &Guard<'_>, mut f: impl FnMut(&T)) -> Result<u64, MemError> {
        let mut n = 0;
        // Spilled pages first: the membership snapshot is taken under the
        // same spill mutex, so a page faulted in mid-scan cannot be seen
        // twice (as page *and* block) or missed entirely.
        let m = self
            .ctx
            .scan_spilled_then_snapshot(&mut |_entry_addr, obj| {
                // SAFETY: the callback's pointer addresses `size_of::<T>()`
                // bytes of a decoded page record of this typed context.
                f(unsafe { &*obj.cast::<T>() });
                n += 1;
            })?;
        let stats = &self.ctx.runtime().stats;
        let mut scan = |block: BlockRef| {
            // SAFETY: valid slot of a snapshot block, read in the caller's
            // pinned critical section.
            n += scan_rows::<T>(block, stats, |_, obj| f(unsafe { &*obj }));
        };
        for block in m.blocks {
            scan(block);
        }
        for group in m.groups {
            visit_group(&group, guard, self.ctx.runtime(), &mut scan);
        }
        Ok(n)
    }

    /// Like [`for_each`](Self::for_each) but also hands out the checked
    /// reference of each object (built from the slot's back-pointer, exactly
    /// as the paper's generated code yields `ObjRef`s, §4). Spilled objects
    /// yield working references too — dereferencing one faults its page in.
    pub fn for_each_ref(&self, guard: &Guard<'_>, f: impl FnMut(Ref<T>, &T)) -> u64 {
        self.try_for_each_ref(guard, f)
            .expect("spilled page unreadable")
    }

    /// Fallible [`for_each_ref`](Self::for_each_ref); see
    /// [`try_for_each`](Self::try_for_each) for the error contract.
    pub fn try_for_each_ref(
        &self,
        guard: &Guard<'_>,
        mut f: impl FnMut(Ref<T>, &T),
    ) -> Result<u64, MemError> {
        let mut n = 0;
        let m = self
            .ctx
            .scan_spilled_then_snapshot(&mut |entry_addr, obj| {
                let entry = unsafe { smc_memory::indirection::EntryRef::from_addr(entry_addr) };
                let r = Ref::from_parts(entry, entry.get().inc().incarnation());
                // SAFETY: as in `try_for_each`.
                f(r, unsafe { &*obj.cast::<T>() });
                n += 1;
            })?;
        let stats = &self.ctx.runtime().stats;
        let mut scan = |block: BlockRef| {
            scan_rows::<T>(block, stats, |slot, obj| {
                let back = block.back_ptr(slot).load(Ordering::Acquire);
                if back == 0 {
                    return;
                }
                // SAFETY: a valid slot's non-zero back-pointer addresses its
                // live indirection entry; the row is read as in `try_for_each`.
                let entry = unsafe { smc_memory::indirection::EntryRef::from_addr(back) };
                let r = Ref::from_parts(entry, entry.get().inc().incarnation());
                f(r, unsafe { &*obj });
                n += 1;
            });
        };
        for block in m.blocks {
            scan(block);
        }
        for group in m.groups {
            visit_group(&group, guard, self.ctx.runtime(), &mut scan);
        }
        Ok(n)
    }

    /// Lazily iterates `(Ref<T>, &T)` pairs. Prefer [`for_each`](Smc::for_each) in
    /// performance-critical query code; the pull iterator exists for
    /// ergonomic composition.
    ///
    /// **Resident objects only**: spilled pages are not visited (a lazy
    /// pull iterator cannot hold the spill mutex across `next` calls). Use
    /// [`for_each`](Self::for_each) for scans that must see spilled data.
    pub fn iter<'g, 'e>(&self, guard: &'g Guard<'e>) -> Iter<'g, 'e, T> {
        let m = self.ctx.membership_snapshot();
        let mut work: VecDeque<WorkItem> = m.blocks.into_iter().map(WorkItem::Block).collect();
        work.extend(m.groups.into_iter().map(WorkItem::Group));
        Iter {
            guard,
            work,
            cursor: None,
            pinned: None,
            runtime: self.ctx.runtime().clone(),
            capacity: self.ctx.layout().capacity,
            _marker: PhantomData,
        }
    }

    /// Walks every block the enumeration must visit, implementing the §5.2
    /// compaction-group protocol (pin pre-state or help-and-read-post).
    fn visit_blocks(&self, guard: &Guard<'_>, mut f: impl FnMut(BlockRef)) {
        let m = self.ctx.membership_snapshot();
        for block in m.blocks {
            f(block);
        }
        for group in m.groups {
            visit_group(&group, guard, self.ctx.runtime(), &mut f);
        }
    }

    // ------------------------------------------------------------------
    // Compaction (§5) and direct-pointer fix-up (§6)
    // ------------------------------------------------------------------

    /// Runs one compaction pass over this collection's blocks (§5). After
    /// compacting, rewrite direct pointers held by referencing collections
    /// ([`fix_direct_refs`](Self::fix_direct_refs)) and then call
    /// [`release_retired`](Self::release_retired).
    pub fn compact(&self) -> CompactionReport {
        self.ctx.compact()
    }

    /// Returns retired (emptied) blocks to the OS once direct pointers have
    /// been fixed up. Tombstones inside them stay readable until then.
    pub fn release_retired(&self) {
        self.ctx.release_retired()
    }

    /// Hands this collection's maintenance to a background
    /// [`Coordinator`](smc_maint::Coordinator): the coordinator plans and
    /// runs compaction passes for it under `policy`, instead of the
    /// application calling [`compact`](Self::compact) by hand.
    pub fn register_maintenance(
        &self,
        coordinator: &smc_maint::Coordinator,
        policy: smc_maint::MaintPolicy,
    ) {
        coordinator.register(self.ctx.clone(), policy);
    }

    /// Validates the collection's structural invariants (block headers, slot
    /// directories, indirection back-pointers, incarnation flags) and
    /// cross-checks the recount against [`len`](Self::len). Requires
    /// quiescence: no concurrent mutators or in-flight compaction. See
    /// [`MemoryContext::verify`].
    pub fn verify(&self) -> Result<VerifyReport, Vec<String>> {
        let report = self.ctx.verify()?;
        let len = self.len();
        if report.valid_slots + report.spilled_slots != len {
            return Err(vec![format!(
                "recounted {} valid + {} spilled slots but collection len() is {len}",
                report.valid_slots, report.spilled_slots
            )]);
        }
        Ok(report)
    }

    /// Captures a lock-free observatory snapshot of this collection's heap
    /// (per-block occupancy, limbo dead space, holes, incarnation churn,
    /// indirection load, epoch lag). Unlike [`verify`](Self::verify) it does
    /// **not** require quiescence — it pins an epoch guard and tolerates
    /// concurrent mutation and relocation; see
    /// [`smc_memory::inspect`] for the consistency model.
    pub fn heap_snapshot(&self) -> HeapSnapshot {
        HeapSnapshot::capture(self.runtime(), &[&self.ctx])
    }

    /// The §6 fix-up scan, run on a *referencing* collection after a
    /// *referenced* collection was compacted: for every live object, probe
    /// whether the direct pointer selected by `field` points into a retired
    /// block (hash-set probe on the block base address — "instead of
    /// following a direct pointer to see if the forwarding flag is set, we
    /// first compute the address of the corresponding block \[and\] probe it
    /// in the hash table"), and if so chase the tombstone and rewrite it.
    pub fn fix_direct_refs<U: Tabular>(
        &self,
        report: &CompactionReport,
        guard: &Guard<'_>,
        field: impl Fn(&mut T) -> &mut DirectRef<U>,
    ) -> u64 {
        if report.retired_bases.is_empty() {
            return 0;
        }
        let retired: std::collections::HashSet<usize> =
            report.retired_bases.iter().copied().collect();
        let mut fixed = 0;
        let stats = &self.ctx.runtime().stats;
        self.visit_blocks(guard, |block| {
            scan_rows::<T>(block, stats, |_, obj| {
                // SAFETY: valid slot, pinned critical section; field updates
                // race benignly under the collection's isolation level.
                let dref = field(unsafe { &mut *obj });
                let base = dref.addr() & !(smc_memory::BLOCK_SIZE - 1);
                if retired.contains(&base) && dref.get_healing(guard).is_some() {
                    fixed += 1;
                }
            });
        });
        MemoryStats::add(&stats.direct_pointers_fixed, fixed);
        fixed
    }
}

/// §5.2 group visiting, shared by `for_each`, the pull iterator, and the
/// parallel scan workers of `smc-exec`: reads the group either entirely in
/// its pre-relocation state (sources only, holding the group's query counter
/// so the mover cannot start) or entirely post-relocation (helping the move
/// first, then dest plus bailed-out sources). Calls `f` once per block the
/// enumeration must visit; the union of visited valid slots is exact.
pub fn visit_group(
    group: &Arc<CompactionGroup>,
    guard: &Guard<'_>,
    runtime: &Arc<Runtime>,
    f: &mut impl FnMut(BlockRef),
) {
    if !group.settled.load(Ordering::Acquire) && guard.in_relocation_epoch() {
        if group.try_pin_pre_state(runtime) {
            // Pre-relocation state: sources only (dest is still empty), with
            // the query counter held so the mover cannot start under us.
            for &src in &group.sources {
                f(src);
            }
            group.unpin_pre_state();
            return;
        }
        // Relocation already started; help finish it if moves are currently
        // permitted, then read the post-state.
        if runtime.in_moving_phase() {
            group.help_relocate(&runtime.stats);
        }
    }
    // Post-state (or quiescent): moved objects are valid only in the dest,
    // bailed-out objects only in their source — the union is exact.
    f(group.dest);
    for &src in &group.sources {
        f(src);
    }
}

enum WorkItem {
    Block(BlockRef),
    Group(Arc<CompactionGroup>),
}

/// Pull iterator over `(Ref<T>, &T)`.
pub struct Iter<'g, 'e, T: Tabular> {
    guard: &'g Guard<'e>,
    work: VecDeque<WorkItem>,
    cursor: Option<(BlockRef, SlotId)>,
    /// A group whose pre-state we hold pinned while its sources drain.
    pinned: Option<(Arc<CompactionGroup>, usize)>,
    runtime: Arc<Runtime>,
    /// Slots per block (constant for the collection's layout).
    capacity: u32,
    _marker: PhantomData<fn() -> T>,
}

impl<'g, 'e, T: Tabular> Iterator for Iter<'g, 'e, T> {
    type Item = (Ref<T>, &'g T);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((block, slot)) = self.cursor {
                let cap = block.header().capacity;
                let mut s = slot;
                while s < cap {
                    // Interleaving point for the smc-check model checker: a
                    // pinned iteration can be preempted between slots, which
                    // is exactly where concurrent compaction races live.
                    smc_memory::sync::yield_point();
                    if block.slot_word(s).state() == SlotState::Valid {
                        let back = block.back_ptr(s).load(Ordering::Acquire);
                        if back != 0 {
                            let entry =
                                unsafe { smc_memory::indirection::EntryRef::from_addr(back) };
                            let r = Ref::from_parts(entry, entry.get().inc().incarnation());
                            let obj = unsafe { &*block.obj_ptr(s).cast::<T>() };
                            self.cursor = Some((block, s + 1));
                            return Some((r, obj));
                        }
                    }
                    s += 1;
                }
                self.cursor = None;
                self.advance_pinned();
                continue;
            }
            match self.work.pop_front() {
                None => return None,
                Some(WorkItem::Block(b)) => {
                    self.cursor = Some((b, 0));
                }
                Some(WorkItem::Group(g)) => self.begin_group(g),
            }
        }
    }

    /// Lower bound 0, upper bound the remaining slot *capacity*.
    ///
    /// The lower bound must stay 0 and the iterator cannot be
    /// `ExactSizeIterator`: other threads may remove objects (or the
    /// iterator may skip limbo slots) at any point, so any count derived
    /// from `len()` could overstate what `next` will actually yield. The
    /// capacity bound, by contrast, is exact arithmetic over the snapshot:
    /// a block never yields more items than it has slots.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let cap = self.capacity as usize;
        let cursor = self
            .cursor
            .map_or(0, |(b, s)| b.header().capacity.saturating_sub(s) as usize);
        // Remaining sources of a group whose pre-state we hold pinned (the
        // current source is already counted by the cursor).
        let pinned = self
            .pinned
            .as_ref()
            .map_or(0, |(g, idx)| g.sources.len().saturating_sub(idx + 1) * cap);
        let work: usize = self
            .work
            .iter()
            .map(|w| match w {
                WorkItem::Block(_) => cap,
                // Worst case the group is read post-state: dest + sources.
                WorkItem::Group(g) => (g.sources.len() + 1) * cap,
            })
            .sum();
        (0, Some(cursor + pinned + work))
    }
}

impl<'g, 'e, T: Tabular> Iter<'g, 'e, T> {
    fn begin_group(&mut self, group: Arc<CompactionGroup>) {
        let runtime = self.runtime.clone();
        if !group.settled.load(Ordering::Acquire) && self.guard.in_relocation_epoch() {
            if group.try_pin_pre_state(&runtime) {
                // Enumerate sources under the pin; unpinned once drained.
                if let Some(&first) = group.sources.first() {
                    self.cursor = Some((first, 0));
                    self.pinned = Some((group, 0));
                } else {
                    group.unpin_pre_state();
                }
                return;
            }
            if runtime.in_moving_phase() {
                group.help_relocate(&runtime.stats);
            }
        }
        // Post-state: dest then sources, as plain blocks.
        for &src in group.sources.iter().rev() {
            self.work.push_front(WorkItem::Block(src));
        }
        self.work.push_front(WorkItem::Block(group.dest));
    }

    /// Called when a block cursor drains: steps to the pinned group's next
    /// source, or releases the pin.
    fn advance_pinned(&mut self) {
        if let Some((group, idx)) = self.pinned.take() {
            let next = idx + 1;
            if next < group.sources.len() {
                self.cursor = Some((group.sources[next], 0));
                self.pinned = Some((group, next));
            } else {
                group.unpin_pre_state();
            }
        }
    }
}

impl<'g, 'e, T: Tabular> Drop for Iter<'g, 'e, T> {
    fn drop(&mut self) {
        if let Some((group, _)) = self.pinned.take() {
            group.unpin_pre_state();
        }
    }
}
