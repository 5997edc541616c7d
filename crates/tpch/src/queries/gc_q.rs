//! Q1–Q6 over the managed (GC) database — the paper's `List<T>` and
//! `ConcurrentDictionary` baselines, with the same compiled plans as the
//! SMC versions but enumerating handle lists and chasing arena pointers.

use smc_memory::Decimal;
use smc_util::hash::{IntMap, IntSet};

use super::*;
use crate::gcdb::GcDb;

/// Which collection the lineitem enumeration runs over (Fig 11 series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnumVia {
    /// `GcList` — C#'s `List<T>`.
    List,
    /// `GcConcurrentDictionary` — keyed, sharded enumeration.
    Dict,
}

fn for_each_lineitem(db: &GcDb, via: EnumVia, f: impl FnMut(&crate::gcdb::GcLineitem)) {
    let guard = db.heap.enter();
    match via {
        EnumVia::List => {
            db.lineitems.for_each(&guard, f);
        }
        EnumVia::Dict => {
            db.lineitem_dict.for_each(&guard, f);
        }
    }
}

/// Q1 over the managed database.
pub fn q1(db: &GcDb, p: &Params, via: EnumVia) -> Vec<Q1Row> {
    let _span = super::qspan("gc.q1");
    let cutoff = q1_cutoff(p);
    let mut table = [Q1Acc::default(); 6];
    for_each_lineitem(db, via, |l| {
        if l.shipdate <= cutoff {
            table[q1_slot(l.returnflag, l.linestatus)].fold(
                l.quantity,
                l.extendedprice,
                l.discount,
                l.tax,
            );
        }
    });
    q1_rows_from_table(&table)
}

/// Q2 over the managed database (handle joins).
pub fn q2(db: &GcDb, p: &Params) -> Vec<Q2Row> {
    let _span = super::qspan("gc.q2");
    let guard = db.heap.enter();
    let mut min_cost: IntMap<i64, Decimal> = IntMap::default();
    db.partsupps.for_each(&guard, |ps| {
        let Some(part) = db.part_arena.get(ps.part) else {
            return;
        };
        if part.size != p.q2_size || !part.typ.ends_with(p.q2_type.as_str()) {
            return;
        }
        let Some(supplier) = db.supplier_arena.get(ps.supplier) else {
            return;
        };
        let Some(nation) = db.nation_arena.get(supplier.nation) else {
            return;
        };
        let Some(region) = db.region_arena.get(nation.region) else {
            return;
        };
        if region.name != p.q2_region {
            return;
        }
        min_cost
            .entry(ps.partkey)
            .and_modify(|c| *c = (*c).min(ps.supplycost))
            .or_insert(ps.supplycost);
    });
    let mut rows = Vec::new();
    db.partsupps.for_each(&guard, |ps| {
        let Some(&min) = min_cost.get(&ps.partkey) else {
            return;
        };
        if ps.supplycost != min {
            return;
        }
        let Some(supplier) = db.supplier_arena.get(ps.supplier) else {
            return;
        };
        let Some(nation) = db.nation_arena.get(supplier.nation) else {
            return;
        };
        let Some(region) = db.region_arena.get(nation.region) else {
            return;
        };
        if region.name != p.q2_region {
            return;
        }
        rows.push(Q2Row {
            acctbal: supplier.acctbal,
            supplier: supplier.name.clone(),
            nation: nation.name.clone(),
            partkey: ps.partkey,
        });
    });
    q2_finalize(rows)
}

/// Q3 over the managed database.
pub fn q3(db: &GcDb, p: &Params, via: EnumVia) -> Vec<Q3Row> {
    let _span = super::qspan("gc.q3");
    let seg = crate::text::SEGMENTS
        .iter()
        .position(|s| *s == p.q3_segment)
        .unwrap() as u8;
    let mut groups: IntMap<i64, Q3Row> = IntMap::default();
    for_each_lineitem(db, via, |l| {
        if l.shipdate <= p.q3_date {
            return;
        }
        let Some(o) = db.order_arena.get(l.order) else {
            return;
        };
        if o.orderdate >= p.q3_date {
            return;
        }
        let Some(c) = db.customer_arena.get(o.customer) else {
            return;
        };
        if c.mktsegment != seg {
            return;
        }
        let revenue = l.extendedprice * (Decimal::ONE - l.discount);
        groups
            .entry(l.orderkey)
            .and_modify(|r| r.revenue += revenue)
            .or_insert(Q3Row {
                orderkey: l.orderkey,
                revenue,
                orderdate: o.orderdate,
                shippriority: o.shippriority,
            });
    });
    q3_finalize(groups.into_values())
}

/// Q4 over the managed database.
pub fn q4(db: &GcDb, p: &Params, via: EnumVia) -> Vec<Q4Row> {
    let _span = super::qspan("gc.q4");
    let end = plus_months(p.q4_date, 3);
    let mut late: IntSet<i64> = IntSet::default();
    let mut counts = [0u64; 5];
    for_each_lineitem(db, via, |l| {
        if l.commitdate >= l.receiptdate || late.contains(&l.orderkey) {
            return;
        }
        let Some(o) = db.order_arena.get(l.order) else {
            return;
        };
        if o.orderdate < p.q4_date || o.orderdate >= end {
            return;
        }
        late.insert(l.orderkey);
        counts[o.orderpriority as usize] += 1;
    });
    q4_finalize(counts)
}

/// Q5 over the managed database.
pub fn q5(db: &GcDb, p: &Params, via: EnumVia) -> Vec<Q5Row> {
    let _span = super::qspan("gc.q5");
    let end = plus_months(p.q5_date, 12);
    let mut groups: IntMap<i64, Q5Row> = IntMap::default();
    for_each_lineitem(db, via, |l| {
        let Some(o) = db.order_arena.get(l.order) else {
            return;
        };
        if o.orderdate < p.q5_date || o.orderdate >= end {
            return;
        }
        let Some(s) = db.supplier_arena.get(l.supplier) else {
            return;
        };
        let Some(n) = db.nation_arena.get(s.nation) else {
            return;
        };
        let Some(r) = db.region_arena.get(n.region) else {
            return;
        };
        if r.name != p.q5_region {
            return;
        }
        let Some(c) = db.customer_arena.get(o.customer) else {
            return;
        };
        if c.nationkey != s.nationkey {
            return;
        }
        let revenue = l.extendedprice * (Decimal::ONE - l.discount);
        groups
            .entry(s.nationkey)
            .or_insert_with(|| Q5Row {
                nation: n.name.clone(),
                revenue: Decimal::ZERO,
            })
            .revenue += revenue;
    });
    q5_finalize(groups.into_values())
}

/// Q6 over the managed database.
pub fn q6(db: &GcDb, p: &Params, via: EnumVia) -> Decimal {
    let _span = super::qspan("gc.q6");
    let end = plus_months(p.q6_date, 12);
    let lo = p.q6_discount - Decimal::parse("0.01").unwrap();
    let hi = p.q6_discount + Decimal::parse("0.01").unwrap();
    let mut revenue = Decimal::ZERO;
    for_each_lineitem(db, via, |l| {
        if l.shipdate >= p.q6_date
            && l.shipdate < end
            && l.discount >= lo
            && l.discount <= hi
            && l.quantity < p.q6_quantity
        {
            revenue += l.extendedprice * l.discount;
        }
    });
    revenue
}

// ---------------------------------------------------------------------
// Parallel variants (chunked handle-list morsels, smc-exec)
// ---------------------------------------------------------------------

/// Handles per morsel for the parallel list scans.
const GC_CHUNK: usize = 4096;

/// Q1 in parallel over the managed list: the handle vector is snapshotted
/// under the heap guard and chunked into morsels; workers chase arena
/// pointers exactly like the sequential enumeration. The caller's guard
/// pins the world for the whole scan, so no sweep can run under the
/// workers.
pub fn q1_par(db: &GcDb, p: &Params, pool: &smc_exec::WorkerPool) -> Vec<Q1Row> {
    let _span = super::qspan("gc.q1_par");
    let cutoff = q1_cutoff(p);
    let guard = db.heap.enter();
    let handles = db.lineitems.snapshot_handles(&guard);
    let arena = db.lineitems.arena();
    let table = smc_exec::par_fold_chunks(
        pool,
        &handles,
        GC_CHUNK,
        || [Q1Acc::default(); 6],
        |t, chunk| {
            for &h in chunk {
                let Some(l) = arena.get(h) else { continue };
                if l.shipdate <= cutoff {
                    t[q1_slot(l.returnflag, l.linestatus)].fold(
                        l.quantity,
                        l.extendedprice,
                        l.discount,
                        l.tax,
                    );
                }
            }
        },
        |into, from| q1_merge_tables(into, &from),
    );
    drop(guard);
    q1_rows_from_table(&table)
}

/// Q6 in parallel over the managed list.
pub fn q6_par(db: &GcDb, p: &Params, pool: &smc_exec::WorkerPool) -> Decimal {
    let _span = super::qspan("gc.q6_par");
    let end = plus_months(p.q6_date, 12);
    let lo = p.q6_discount - Decimal::parse("0.01").unwrap();
    let hi = p.q6_discount + Decimal::parse("0.01").unwrap();
    let guard = db.heap.enter();
    let handles = db.lineitems.snapshot_handles(&guard);
    let arena = db.lineitems.arena();
    smc_exec::par_fold_chunks(
        pool,
        &handles,
        GC_CHUNK,
        || Decimal::ZERO,
        |revenue, chunk| {
            for &h in chunk {
                let Some(l) = arena.get(h) else { continue };
                if l.shipdate >= p.q6_date
                    && l.shipdate < end
                    && l.discount >= lo
                    && l.discount <= hi
                    && l.quantity < p.q6_quantity
                {
                    *revenue += l.extendedprice * l.discount;
                }
            }
        },
        |into, from| *into += from,
    )
}
