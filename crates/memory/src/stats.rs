//! Lightweight counters for observing the memory manager.
//!
//! The evaluation (Fig 6) reports allocation/removal performance, query
//! performance and *total memory size* as the reclamation threshold varies;
//! these counters make the memory-size series observable without walking
//! every block.

use std::sync::atomic::{AtomicU64, Ordering};

use smc_obs::Histogram;

/// Counters shared by one [`Runtime`](crate::runtime::Runtime).
///
/// All counters are monotonic except the `*_live` gauges. Relaxed ordering is
/// used throughout: the counters inform reporting, never correctness.
#[derive(Debug, Default)]
pub struct MemoryStats {
    /// Blocks currently allocated from the OS (gauge).
    pub blocks_live: AtomicU64,
    /// Blocks ever allocated from the OS.
    pub blocks_allocated: AtomicU64,
    /// Blocks returned to the OS.
    pub blocks_freed: AtomicU64,
    /// Objects ever allocated.
    pub objects_allocated: AtomicU64,
    /// Objects ever freed (entered limbo).
    pub objects_freed: AtomicU64,
    /// Limbo slots reclaimed for new allocations.
    pub slots_reclaimed: AtomicU64,
    /// Slot-directory entries scanned by the allocator (cost proxy, Fig 6).
    pub alloc_scan_steps: AtomicU64,
    /// Global epoch advances.
    pub epoch_advances: AtomicU64,
    /// Objects relocated by compaction.
    pub objects_relocated: AtomicU64,
    /// Relocations that readers bailed out of (§5.1 case b).
    pub relocations_bailed: AtomicU64,
    /// Relocations completed by helping readers (§5.1 case c).
    pub relocations_helped: AtomicU64,
    /// Compaction passes completed.
    pub compactions: AtomicU64,
    /// Direct pointers rewritten by post-compaction fix-up scans (§6).
    pub direct_pointers_fixed: AtomicU64,
    /// Budget-exhausted allocations that eventually succeeded after the
    /// recovery ladder (drain graveyard / emergency advance / retry).
    pub oom_recoveries: AtomicU64,
    /// Epoch advances forced by the allocation recovery ladder, as opposed
    /// to the regular lazy advances.
    pub emergency_epoch_advances: AtomicU64,
    /// Individual allocation retries taken under memory pressure.
    pub alloc_retries: AtomicU64,
    /// Fresh-block requests rejected by a per-context budget
    /// ([`ContextConfig::budget_bytes`](crate::context::ContextConfig::budget_bytes))
    /// — tenant-level pressure, distinct from the runtime-wide budget.
    pub context_budget_rejections: AtomicU64,
    /// Failures injected by the fault registry ([`crate::fault`]).
    pub faults_injected: AtomicU64,
    /// Compaction passes aborted mid-relocation (injected crash or reader
    /// timeout during the moving phase).
    pub compactions_interrupted: AtomicU64,
    /// Epoch guards taken by readers ([`Runtime::pin`](crate::runtime::Runtime::pin)
    /// and `try_pin`).
    pub pins_taken: AtomicU64,
    /// Blocks enumerated by any scan: one per block pass of the row-scan
    /// kernel ([`crate::scan`]) — sequential `for_each`/`for_each_ref`,
    /// direct-pointer fix-up, columnar `for_each` and parallel scan workers
    /// alike — plus one per block a parallel columnar scan hands its body.
    pub blocks_scanned: AtomicU64,
    /// Morsels (blocks or compaction groups) claimed from a parallel scan's
    /// work-stealing cursor.
    pub morsels_dispatched: AtomicU64,
    /// Blocks evicted to a page store under budget pressure (the spill rung
    /// of the OOM ladder; see [`crate::spill`]).
    pub blocks_spilled: AtomicU64,
    /// Spilled pages brought back to residency on dereference or free.
    pub blocks_faulted_in: AtomicU64,
    /// Fault-in attempts that failed closed (page-store read error or
    /// checksum mismatch; the page stayed spilled).
    pub spill_fault_failures: AtomicU64,
    /// Block handouts served from a shard's recycled free list instead of a
    /// fresh OS allocation ([`crate::alloc`]).
    pub blocks_recycled: AtomicU64,
    /// Blocks freed by a thread other than the owning shard's thread and
    /// pushed onto the owner's remote return queue.
    pub remote_frees: AtomicU64,
    /// Remote-freed blocks drained from a return queue into the owner's
    /// local free list (on the owner's next allocation or maintenance tick).
    pub remote_frees_drained: AtomicU64,
    /// Batched slow-path refills: fresh budget reservations that handed out
    /// one block and parked the rest of the batch in the shard cache.
    pub alloc_batch_refills: AtomicU64,
    /// Shard-cached blocks returned to the OS by the allocation ladder's
    /// trim rung (budget pressure reclaiming idle caches).
    pub blocks_trimmed: AtomicU64,
    /// Variable-size cells handed out by the size-class slab allocator.
    pub slab_cells_allocated: AtomicU64,
    /// Variable-size cells returned to the size-class slab allocator.
    pub slab_cells_freed: AtomicU64,
    /// Wall time of whole compaction passes, in nanoseconds (select through
    /// publish). Report via [`Histogram::summary`] (p50/p95/p99).
    pub compaction_pass_ns: Histogram,
    /// Wall time of compaction *moving phases* only, in nanoseconds — the
    /// window during which readers may hit relocated slots and must follow
    /// forwarding state (§5.1). This is the SMC analogue of a GC pause.
    pub compaction_pause_ns: Histogram,
    /// Wall time of successful spill fault-ins, in nanoseconds (page-store
    /// read through entry repoint) — the cold-access latency tax.
    pub spill_fault_ns: Histogram,
}

impl MemoryStats {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bump a counter by one.
    #[inline]
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Bump a counter by `n`.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Read a counter.
    #[inline]
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Current number of live objects (allocated minus freed).
    pub fn objects_live(&self) -> u64 {
        Self::get(&self.objects_allocated).saturating_sub(Self::get(&self.objects_freed))
    }

    /// Total off-heap bytes currently held, given the block size.
    pub fn bytes_live(&self, block_size: usize) -> u64 {
        Self::get(&self.blocks_live) * block_size as u64
    }

    /// A point-in-time copy of every counter, for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            blocks_live: Self::get(&self.blocks_live),
            blocks_allocated: Self::get(&self.blocks_allocated),
            blocks_freed: Self::get(&self.blocks_freed),
            objects_allocated: Self::get(&self.objects_allocated),
            objects_freed: Self::get(&self.objects_freed),
            slots_reclaimed: Self::get(&self.slots_reclaimed),
            alloc_scan_steps: Self::get(&self.alloc_scan_steps),
            epoch_advances: Self::get(&self.epoch_advances),
            objects_relocated: Self::get(&self.objects_relocated),
            relocations_bailed: Self::get(&self.relocations_bailed),
            relocations_helped: Self::get(&self.relocations_helped),
            compactions: Self::get(&self.compactions),
            direct_pointers_fixed: Self::get(&self.direct_pointers_fixed),
            oom_recoveries: Self::get(&self.oom_recoveries),
            emergency_epoch_advances: Self::get(&self.emergency_epoch_advances),
            alloc_retries: Self::get(&self.alloc_retries),
            context_budget_rejections: Self::get(&self.context_budget_rejections),
            faults_injected: Self::get(&self.faults_injected),
            compactions_interrupted: Self::get(&self.compactions_interrupted),
            pins_taken: Self::get(&self.pins_taken),
            blocks_scanned: Self::get(&self.blocks_scanned),
            morsels_dispatched: Self::get(&self.morsels_dispatched),
            blocks_spilled: Self::get(&self.blocks_spilled),
            blocks_faulted_in: Self::get(&self.blocks_faulted_in),
            spill_fault_failures: Self::get(&self.spill_fault_failures),
            blocks_recycled: Self::get(&self.blocks_recycled),
            remote_frees: Self::get(&self.remote_frees),
            remote_frees_drained: Self::get(&self.remote_frees_drained),
            alloc_batch_refills: Self::get(&self.alloc_batch_refills),
            blocks_trimmed: Self::get(&self.blocks_trimmed),
            slab_cells_allocated: Self::get(&self.slab_cells_allocated),
            slab_cells_freed: Self::get(&self.slab_cells_freed),
        }
    }
}

/// Plain-value copy of [`MemoryStats`] (scalar counters only; the pause
/// histograms are read directly off the live struct).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Blocks currently allocated from the OS (gauge).
    pub blocks_live: u64,
    /// Blocks ever allocated from the OS.
    pub blocks_allocated: u64,
    /// Blocks returned to the OS.
    pub blocks_freed: u64,
    /// Objects ever allocated.
    pub objects_allocated: u64,
    /// Objects ever freed (entered limbo).
    pub objects_freed: u64,
    /// Limbo slots reclaimed for new allocations.
    pub slots_reclaimed: u64,
    /// Slot-directory entries scanned by the allocator (cost proxy, Fig 6).
    pub alloc_scan_steps: u64,
    /// Global epoch advances.
    pub epoch_advances: u64,
    /// Objects relocated by compaction.
    pub objects_relocated: u64,
    /// Relocations that readers bailed out of (§5.1 case b).
    pub relocations_bailed: u64,
    /// Relocations completed by helping readers (§5.1 case c).
    pub relocations_helped: u64,
    /// Compaction passes completed.
    pub compactions: u64,
    /// Direct pointers rewritten by post-compaction fix-up scans (§6).
    pub direct_pointers_fixed: u64,
    /// Budget-exhausted allocations rescued by the recovery ladder.
    pub oom_recoveries: u64,
    /// Epoch advances forced by the allocation recovery ladder.
    pub emergency_epoch_advances: u64,
    /// Individual allocation retries taken under memory pressure.
    pub alloc_retries: u64,
    /// Fresh-block requests rejected by a per-context budget.
    pub context_budget_rejections: u64,
    /// Failures injected by the fault registry ([`crate::fault`]).
    pub faults_injected: u64,
    /// Compaction passes aborted mid-relocation.
    pub compactions_interrupted: u64,
    /// Epoch guards taken by readers.
    pub pins_taken: u64,
    /// Blocks enumerated by parallel scan workers.
    pub blocks_scanned: u64,
    /// Morsels claimed from a parallel scan's work-stealing cursor.
    pub morsels_dispatched: u64,
    /// Blocks evicted to a page store under budget pressure.
    pub blocks_spilled: u64,
    /// Spilled pages brought back to residency.
    pub blocks_faulted_in: u64,
    /// Fault-in attempts that failed closed.
    pub spill_fault_failures: u64,
    /// Block handouts served from a shard's recycled free list.
    pub blocks_recycled: u64,
    /// Blocks pushed onto another shard's remote return queue.
    pub remote_frees: u64,
    /// Remote-freed blocks drained into an owner's local free list.
    pub remote_frees_drained: u64,
    /// Batched slow-path refills of a shard cache.
    pub alloc_batch_refills: u64,
    /// Shard-cached blocks returned to the OS by the trim rung.
    pub blocks_trimmed: u64,
    /// Variable-size cells handed out by the slab allocator.
    pub slab_cells_allocated: u64,
    /// Variable-size cells returned to the slab allocator.
    pub slab_cells_freed: u64,
}

impl std::fmt::Display for StatsSnapshot {
    /// One `key=value` line per counter, for stress-harness dumps and logs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "blocks_live={}", self.blocks_live)?;
        writeln!(f, "blocks_allocated={}", self.blocks_allocated)?;
        writeln!(f, "blocks_freed={}", self.blocks_freed)?;
        writeln!(f, "objects_allocated={}", self.objects_allocated)?;
        writeln!(f, "objects_freed={}", self.objects_freed)?;
        writeln!(f, "slots_reclaimed={}", self.slots_reclaimed)?;
        writeln!(f, "alloc_scan_steps={}", self.alloc_scan_steps)?;
        writeln!(f, "epoch_advances={}", self.epoch_advances)?;
        writeln!(f, "objects_relocated={}", self.objects_relocated)?;
        writeln!(f, "relocations_bailed={}", self.relocations_bailed)?;
        writeln!(f, "relocations_helped={}", self.relocations_helped)?;
        writeln!(f, "compactions={}", self.compactions)?;
        writeln!(f, "direct_pointers_fixed={}", self.direct_pointers_fixed)?;
        writeln!(f, "oom_recoveries={}", self.oom_recoveries)?;
        writeln!(
            f,
            "emergency_epoch_advances={}",
            self.emergency_epoch_advances
        )?;
        writeln!(f, "alloc_retries={}", self.alloc_retries)?;
        writeln!(
            f,
            "context_budget_rejections={}",
            self.context_budget_rejections
        )?;
        writeln!(f, "faults_injected={}", self.faults_injected)?;
        writeln!(
            f,
            "compactions_interrupted={}",
            self.compactions_interrupted
        )?;
        writeln!(f, "pins_taken={}", self.pins_taken)?;
        writeln!(f, "blocks_scanned={}", self.blocks_scanned)?;
        writeln!(f, "morsels_dispatched={}", self.morsels_dispatched)?;
        writeln!(f, "blocks_spilled={}", self.blocks_spilled)?;
        writeln!(f, "blocks_faulted_in={}", self.blocks_faulted_in)?;
        writeln!(f, "spill_fault_failures={}", self.spill_fault_failures)?;
        writeln!(f, "blocks_recycled={}", self.blocks_recycled)?;
        writeln!(f, "remote_frees={}", self.remote_frees)?;
        writeln!(f, "remote_frees_drained={}", self.remote_frees_drained)?;
        writeln!(f, "alloc_batch_refills={}", self.alloc_batch_refills)?;
        writeln!(f, "blocks_trimmed={}", self.blocks_trimmed)?;
        writeln!(f, "slab_cells_allocated={}", self.slab_cells_allocated)?;
        write!(f, "slab_cells_freed={}", self.slab_cells_freed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = MemoryStats::new();
        MemoryStats::inc(&s.objects_allocated);
        MemoryStats::add(&s.objects_allocated, 4);
        MemoryStats::inc(&s.objects_freed);
        assert_eq!(MemoryStats::get(&s.objects_allocated), 5);
        assert_eq!(s.objects_live(), 4);
    }

    #[test]
    fn bytes_live_scales_with_block_size() {
        let s = MemoryStats::new();
        MemoryStats::add(&s.blocks_live, 3);
        assert_eq!(s.bytes_live(1 << 16), 3 << 16);
    }

    #[test]
    fn snapshot_copies_all_fields() {
        let s = MemoryStats::new();
        MemoryStats::add(&s.compactions, 2);
        MemoryStats::add(&s.direct_pointers_fixed, 7);
        MemoryStats::add(&s.oom_recoveries, 3);
        MemoryStats::add(&s.faults_injected, 4);
        let snap = s.snapshot();
        assert_eq!(snap.compactions, 2);
        assert_eq!(snap.direct_pointers_fixed, 7);
        assert_eq!(snap.oom_recoveries, 3);
        assert_eq!(snap.faults_injected, 4);
        assert_eq!(snap.objects_allocated, 0);
    }

    #[test]
    fn snapshot_display_dumps_every_counter() {
        let s = MemoryStats::new();
        MemoryStats::add(&s.alloc_retries, 5);
        MemoryStats::inc(&s.compactions_interrupted);
        MemoryStats::add(&s.pins_taken, 9);
        MemoryStats::add(&s.morsels_dispatched, 2);
        let dump = s.snapshot().to_string();
        assert!(dump.contains("alloc_retries=5"));
        assert!(dump.contains("compactions_interrupted=1"));
        assert!(dump.contains("emergency_epoch_advances=0"));
        assert!(dump.contains("pins_taken=9"));
        assert!(dump.contains("blocks_scanned=0"));
        assert!(dump.contains("morsels_dispatched=2"));
        assert!(dump.contains("context_budget_rejections=0"));
        assert!(dump.contains("blocks_spilled=0"));
        assert!(dump.contains("spill_fault_failures=0"));
        assert!(dump.contains("blocks_recycled=0"));
        assert!(dump.contains("remote_frees_drained=0"));
        assert!(dump.contains("slab_cells_allocated=0"));
        // One key=value pair per snapshot field.
        assert_eq!(dump.lines().count(), 32);
    }
}
