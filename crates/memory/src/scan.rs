//! The row-scan kernel: the one valid-slot loop behind every block
//! enumeration.
//!
//! §4's compiled query walks a block's slot directory and touches object
//! data only for valid slots. Every push-style enumeration in the workspace
//! — `Smc::for_each`, `for_each_ref`, the §6 direct-pointer fix-up, the
//! columnar gather loop and the parallel scan workers of `smc-exec` — runs
//! this loop, so its cost is paid (and tuned) in one place.
//!
//! # Prefetching
//!
//! A row block's object store is one array of fixed-stride slots, but the
//! scan reads it interleaved with the slot directory and the caller's own
//! work (reference joins, hash probes), and a TPC-H lineitem row spans four
//! or five cache lines. The kernel therefore issues software prefetches for
//! the row [`prefetch_distance`] slots ahead of the cursor, one per cache
//! line the row can touch. The distance is a constant derived from the row
//! size — about 4 KiB of row data ahead, clamped to
//! `[2, 16]` slots — not a tuning knob: it only needs to cover memory
//! latency, and the row size is known at compile time. Rows under 64 bytes
//! share lines with their neighbours, and the hardware's sequential
//! prefetcher already streams them, so the prefetch compiles away for them;
//! it is also compiled out under Miri and on targets other than `x86_64`.
//! Prefetches never fault and never read the slot directory, so they add no
//! atomic accesses — the model checker's interleavings are unchanged.
//!
//! Every call counts one block in
//! [`MemoryStats::blocks_scanned`](crate::stats::MemoryStats::blocks_scanned).

use crate::block::BlockRef;
use crate::slot::{SlotId, SlotState};
use crate::stats::MemoryStats;

/// Cache-line size the prefetch arithmetic assumes.
const LINE: usize = 64;

/// Row bytes the kernel aims to keep in flight ahead of the cursor: one
/// 4 KiB page. On the TPC-H scans (224-byte lineitems) 4 KiB beat 1 and
/// 2 KiB and tied 8 KiB; see DESIGN.md §18.
const AHEAD_BYTES: usize = 4096;

/// Whether this build issues prefetch instructions at all.
const PREFETCH: bool = cfg!(all(target_arch = "x86_64", not(miri)));

/// Slots ahead of the cursor whose rows the kernel prefetches, for rows of
/// `row_bytes` bytes; 0 means no prefetching (rows under one cache line, or
/// a build without prefetch instructions).
pub const fn prefetch_distance(row_bytes: usize) -> u32 {
    if !PREFETCH || row_bytes < LINE {
        return 0;
    }
    let d = AHEAD_BYTES / row_bytes;
    if d < 2 {
        2
    } else if d > 16 {
        16
    } else {
        d as u32
    }
}

/// Cache lines a `row_bytes`-byte span at an arbitrary address can touch.
const fn row_lines(row_bytes: usize) -> usize {
    (row_bytes + 2 * LINE - 2) / LINE
}

/// Per-row-type prefetch geometry, fixed at compile time.
struct Geometry<T>(std::marker::PhantomData<T>);

impl<T> Geometry<T> {
    const AHEAD: u32 = prefetch_distance(std::mem::size_of::<T>());
    const LINES: usize = row_lines(std::mem::size_of::<T>());
}

#[inline(always)]
fn prefetch_row(row: *const u8, lines: usize) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        // Start at the row's first line; `lines` covers a misaligned tail.
        let first = row.wrapping_sub(row as usize % LINE);
        for k in 0..lines {
            // SAFETY: `_mm_prefetch` is a hint (SSE, baseline on x86_64):
            // it never faults and never changes program state, whatever the
            // address.
            unsafe {
                std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                    first.wrapping_add(k * LINE).cast::<i8>(),
                );
            }
        }
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        let _ = (row, lines);
    }
}

/// The loop itself. `rows` is the object address of slot 0 and `stride`
/// the slot stride (both unused when `ahead` is 0 and `f` ignores the row).
#[inline(always)]
fn scan(
    block: BlockRef,
    stats: &MemoryStats,
    ahead: u32,
    lines: usize,
    mut f: impl FnMut(SlotId, *mut u8),
) -> u64 {
    MemoryStats::inc(&stats.blocks_scanned);
    let h = block.header();
    let cap = h.capacity;
    let stride = h.slot_stride as usize;
    let rows = if stride == 0 {
        std::ptr::null_mut()
    } else {
        block.obj_ptr(0)
    };
    let mut n = 0;
    for (slot, word) in (0..cap).zip(block.slot_dir()) {
        if ahead > 0 && slot + ahead < cap {
            prefetch_row(rows.wrapping_add((slot + ahead) as usize * stride), lines);
        }
        if word.state() == SlotState::Valid {
            f(slot, rows.wrapping_add(slot as usize * stride));
            n += 1;
        }
    }
    n
}

/// Visits every valid slot of a **row** block in slot order, calling
/// `f(slot, row)` with the address of the slot's `T`, and returns the number
/// of slots visited. Prefetches rows ahead of the cursor (module docs) and
/// counts the block in `stats.blocks_scanned`.
///
/// The row pointer is only meaningful if `block` hosts `T`s; dereferencing
/// it is the caller's `unsafe` step, sound while the caller holds an epoch
/// guard pinned before the block was taken from a membership snapshot (§3.4).
#[inline]
pub fn scan_rows<T>(
    block: BlockRef,
    stats: &MemoryStats,
    mut f: impl FnMut(SlotId, *mut T),
) -> u64 {
    debug_assert!(!block.is_columnar(), "row scan over a columnar block");
    scan(
        block,
        stats,
        Geometry::<T>::AHEAD,
        Geometry::<T>::LINES,
        |slot, row| f(slot, row.cast()),
    )
}

/// Visits every valid slot of any block (row or columnar) in slot order,
/// calling `f(slot)` without touching object data, and returns the number of
/// slots visited. Counts the block in `stats.blocks_scanned`. Columnar
/// collections use it to gather only the columns they need.
#[inline]
pub fn scan_slots(block: BlockRef, stats: &MemoryStats, mut f: impl FnMut(SlotId)) -> u64 {
    scan(block, stats, 0, 0, |slot, _| f(slot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockLayout, BlockRef};

    #[test]
    fn distance_is_derived_from_row_size() {
        assert_eq!(prefetch_distance(8), 0, "sub-line rows are not prefetched");
        assert_eq!(prefetch_distance(63), 0);
        if PREFETCH {
            assert_eq!(prefetch_distance(64), 16);
            assert_eq!(prefetch_distance(224), 16);
            assert_eq!(prefetch_distance(512), 8);
            assert_eq!(prefetch_distance(4096), 2);
        } else {
            assert_eq!(prefetch_distance(224), 0);
        }
        assert_eq!(row_lines(1), 1);
        assert_eq!(
            row_lines(64),
            2,
            "a misaligned line-sized row straddles two lines"
        );
        assert_eq!(row_lines(224), 5);
    }

    #[test]
    fn visits_exactly_the_valid_slots_and_counts_the_block() {
        type Row = [u64; 16]; // 128 B: prefetching on
        let layout = BlockLayout::rows_of::<Row>().unwrap();
        let b = BlockRef::allocate(&layout, 1, 1).unwrap();
        let cap = layout.capacity;
        let mut expect = Vec::new();
        for slot in (0..cap).filter(|s| s % 3 != 1) {
            unsafe { b.obj_ptr(slot).cast::<Row>().write([slot as u64; 16]) };
            b.slot_word(slot).set_valid();
            expect.push(slot);
        }
        b.slot_word(cap - 1).set_limbo(0);
        expect.retain(|&s| s != cap - 1);
        let stats = MemoryStats::new();
        let mut seen = Vec::new();
        let n = scan_rows::<Row>(b, &stats, |slot, row| {
            assert_eq!(unsafe { (*row)[0] }, slot as u64);
            seen.push(slot);
        });
        assert_eq!(seen, expect);
        assert_eq!(n, expect.len() as u64);
        let mut slots = Vec::new();
        assert_eq!(scan_slots(b, &stats, |s| slots.push(s)), n);
        assert_eq!(slots, expect);
        assert_eq!(MemoryStats::get(&stats.blocks_scanned), 2);
        unsafe { b.deallocate() };
    }
}
