//! Equivalence of every enumeration path over the shared row-scan kernel
//! (`smc_memory::scan`): `for_each`, `for_each_ref`, the pull `iter()` and
//! `ParScan::filter_fold` must visit exactly the same multiset of live
//! objects on a collection with removal holes — for rows under one cache
//! line (no prefetch), rows over one (prefetch on), and rows so wide that a
//! block holds fewer slots than the prefetch distance.

use smc::Smc;
use smc_exec::{ParScan, WorkerPool};
use smc_memory::scan::prefetch_distance;
use smc_memory::stats::MemoryStats;
use smc_memory::Runtime;

/// Row types are `[u64; N]` with the key in element 0 and a checksum of the
/// key in the last element, so a torn or misaddressed row is caught.
fn row<const N: usize>(key: u64) -> [u64; N] {
    let mut r = [0u64; N];
    r[0] = key;
    if N > 1 {
        r[N - 1] = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    r
}

fn key_of<const N: usize>(r: &[u64; N]) -> u64 {
    if N > 1 {
        assert_eq!(
            r[N - 1],
            r[0].wrapping_mul(0x9e37_79b9_7f4a_7c15),
            "torn row"
        );
    }
    r[0]
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Loads `n` rows, removes a pattern that leaves holes inside blocks and at
/// their edges, and checks that all four enumeration paths agree with the
/// model and with each other.
fn check<const N: usize>(n: u64) -> usize {
    let rt = Runtime::new();
    let c: Smc<[u64; N]> = Smc::new(&rt);
    let cap = c.context().layout().capacity as u64;
    let mut live = Vec::new();
    for key in 0..n {
        let r = c.add(row::<N>(key));
        // Every third key, plus (where blocks hold more than two slots) the
        // keys that land on a block's first and last slot when slots fill in
        // order.
        let edge = cap > 2 && (key % cap == 0 || key % cap == cap - 1);
        if key % 3 == 1 || edge {
            assert!(c.remove(r));
        } else {
            live.push(key);
        }
    }
    let blocks = c.context().block_count() as u64;
    assert!(!live.is_empty());

    let guard = rt.pin();
    let before = MemoryStats::get(&rt.stats.blocks_scanned);
    let mut each = Vec::new();
    let visited = c.for_each(&guard, |r| each.push(key_of(r)));
    assert_eq!(visited, each.len() as u64);
    assert_eq!(
        MemoryStats::get(&rt.stats.blocks_scanned) - before,
        blocks,
        "the kernel counts each block once"
    );

    let mut refs = Vec::new();
    c.for_each_ref(&guard, |r, obj| {
        let via_ref = r.get(&guard).expect("live ref");
        assert_eq!(key_of(via_ref), key_of(obj), "ref resolves to its row");
        refs.push(key_of(obj));
    });
    let pulled: Vec<u64> = c.iter(&guard).map(|(_, r)| key_of(r)).collect();
    drop(guard);

    assert_eq!(sorted(each.clone()), live, "for_each");
    assert_eq!(each, refs, "for_each_ref visits in the same order");
    assert_eq!(each, pulled, "iter visits in the same order");

    for threads in [1, 3] {
        let pool = WorkerPool::for_runtime(&rt, threads).unwrap();
        let par = ParScan::new(&c, &pool).filter_fold(
            Vec::new,
            |_| true,
            |acc, r| acc.push(key_of(r)),
            |into, from| into.extend(from),
        );
        assert_eq!(sorted(par), live, "ParScan::filter_fold, {threads} threads");
    }
    cap as usize
}

#[test]
fn sub_line_rows_visit_the_same_multiset() {
    assert_eq!(prefetch_distance(std::mem::size_of::<[u64; 1]>()), 0);
    check::<1>(20_000);
}

#[test]
fn multi_line_rows_visit_the_same_multiset() {
    // Lineitem-sized rows: prefetching is on wherever the target has it.
    let cap = check::<28>(3_000);
    assert!(cap as u32 > prefetch_distance(224));
}

#[test]
fn blocks_smaller_than_the_prefetch_distance_visit_the_same_multiset() {
    // 40 KB rows: one slot per block, below the minimum distance of 2
    // (where prefetching exists), so every prefetch target is out of range.
    let cap = check::<5_000>(40);
    assert_eq!(cap, 1);
    if cfg!(all(target_arch = "x86_64", not(miri))) {
        assert!((cap as u32) < prefetch_distance(40_000));
    }
}
