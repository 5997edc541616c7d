//! Q1–Q6 over the SMC database — the compiled-query implementations.
//!
//! Four variants per the evaluation:
//!
//! * `qN` — compiled safe code: block enumeration plus checked reference
//!   joins ("SMC (C#)" in Fig 11).
//! * `qN_unsafe` — compiled unsafe code: raw field pointers and in-place
//!   decimal arithmetic ("SMC (unsafe C#)"); distinct only where decimal
//!   math dominates (Q1), as the paper observes.
//! * `qN_direct` — §6 direct-pointer joins ("SMC (direct)", Fig 12);
//!   distinct only for queries with reference joins (Q3–Q5).
//! * `qN_columnar` — §4.1 columnar storage ("SMC (columnar)", Fig 12) over
//!   the shredded lineitem twin.
//!
//! Plus `q1_linq`/`q6_linq`: the interpreted LINQ-to-objects engine, for
//! the §7 "40–400 % slower" comparison.

use smc_memory::scan::scan_rows;
use smc_memory::{Decimal, SlotState};
use smc_query::LinqExt;
use smc_util::hash::{IntMap, IntSet};

use super::*;
use crate::smcdb::{licol, SmcDb};

// ---------------------------------------------------------------------
// Q1 — pricing summary report
// ---------------------------------------------------------------------

/// Q1, compiled safe.
pub fn q1(db: &SmcDb, p: &Params) -> Vec<Q1Row> {
    let _span = super::qspan("smc.q1");
    let cutoff = q1_cutoff(p);
    let guard = db.runtime.pin();
    let mut table = [Q1Acc::default(); 6];
    db.lineitems.for_each(&guard, |l| {
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

/// Q1, compiled unsafe: reads fields through raw pointers and accumulates
/// decimals in place — the paper's biggest unsafe-C# win (§7: "calling the
/// functions that perform decimal math using pointers and allowing for
/// in-place modifications results in a huge performance gain").
pub fn q1_unsafe(db: &SmcDb, p: &Params) -> Vec<Q1Row> {
    let _span = super::qspan("smc.q1_unsafe");
    let cutoff = q1_cutoff(p);
    let _guard = db.runtime.pin();
    let mut table = [Q1Acc::default(); 6];
    let m = db.lineitems.context().membership_snapshot();
    for &block in &m.blocks {
        // The same row-scan kernel as the safe `q1`, so Fig 11 compares only
        // how fields reach the decimal arithmetic.
        scan_rows::<crate::smcdb::Lineitem>(block, &db.runtime.stats, |_, l| {
            // SAFETY: valid slot under an epoch guard; raw field pointers
            // into the block, as the generated unsafe code would emit.
            unsafe {
                if (*l).shipdate > cutoff {
                    return;
                }
                let acc = &mut table[q1_slot((*l).returnflag, (*l).linestatus)];
                let price = std::ptr::addr_of!((*l).extendedprice).read();
                let discount = std::ptr::addr_of!((*l).discount).read();
                let disc_price = price * (Decimal::ONE - discount);
                Decimal::add_in_place(&mut acc.sum_qty, std::ptr::addr_of!((*l).quantity).read());
                Decimal::add_in_place(&mut acc.sum_base, price);
                Decimal::add_in_place(&mut acc.sum_disc_price, disc_price);
                Decimal::add_in_place(
                    &mut acc.sum_charge,
                    disc_price * (Decimal::ONE + std::ptr::addr_of!((*l).tax).read()),
                );
                Decimal::add_in_place(&mut acc.sum_discount, discount);
                acc.count += 1;
            }
        });
    }
    q1_rows_from_table(&table)
}

/// Q1 over columnar storage: touches only the seven columns it needs.
pub fn q1_columnar(db: &SmcDb, p: &Params) -> Vec<Q1Row> {
    let _span = super::qspan("smc.q1_columnar");
    let col = db.lineitems_col.as_ref().expect("columnar twin not loaded");
    let cutoff = q1_cutoff(p);
    let guard = db.runtime.pin();
    let mut table = [Q1Acc::default(); 6];
    col.for_each_block(&guard, |cols, block| {
        let cap = block.header().capacity as usize;
        // SAFETY: column indices/types match LineitemCol's declaration.
        unsafe {
            let shipdates = cols.column_slice::<i32>(licol::SHIPDATE, cap);
            let flags = cols.column_slice::<u8>(licol::RETURNFLAG, cap);
            let statuses = cols.column_slice::<u8>(licol::LINESTATUS, cap);
            let qtys = cols.column_slice::<Decimal>(licol::QUANTITY, cap);
            let prices = cols.column_slice::<Decimal>(licol::EXTENDEDPRICE, cap);
            let discounts = cols.column_slice::<Decimal>(licol::DISCOUNT, cap);
            let taxes = cols.column_slice::<Decimal>(licol::TAX, cap);
            for slot in 0..cap {
                if block.slot_word(slot as u32).state() != SlotState::Valid {
                    continue;
                }
                if shipdates[slot] > cutoff {
                    continue;
                }
                table[q1_slot(flags[slot], statuses[slot])].fold(
                    qtys[slot],
                    prices[slot],
                    discounts[slot],
                    taxes[slot],
                );
            }
        }
    });
    q1_rows_from_table(&table)
}

/// Q1 through the interpreted LINQ engine (boxed operators, per-element
/// virtual dispatch, materialized groups).
pub fn q1_linq(db: &SmcDb, p: &Params) -> Vec<Q1Row> {
    let _span = super::qspan("smc.q1_linq");
    let cutoff = q1_cutoff(p);
    let guard = db.runtime.pin();
    let groups = db
        .lineitems
        .iter(&guard)
        .map(|(_, l)| *l)
        .linq()
        .where_(move |l| l.shipdate <= cutoff)
        .group_by(|l| (l.returnflag, l.linestatus));
    let mut table = [Q1Acc::default(); 6];
    for ((flag, status), items) in groups {
        let acc = &mut table[q1_slot(flag, status)];
        for l in items {
            acc.fold(l.quantity, l.extendedprice, l.discount, l.tax);
        }
    }
    q1_rows_from_table(&table)
}

// ---------------------------------------------------------------------
// Q2 — minimum cost supplier
// ---------------------------------------------------------------------

/// Q2, compiled safe (reference joins part → supplier → nation → region).
pub fn q2(db: &SmcDb, p: &Params) -> Vec<Q2Row> {
    let _span = super::qspan("smc.q2");
    let guard = db.runtime.pin();
    // Pass 1: minimum supply cost per qualifying part in the region.
    let mut min_cost: IntMap<i64, Decimal> = IntMap::default();
    db.partsupps.for_each(&guard, |ps| {
        let Some(part) = ps.part.get(&guard) else {
            return;
        };
        if part.size != p.q2_size || !part.typ.as_str().ends_with(p.q2_type.as_str()) {
            return;
        }
        let Some(supplier) = ps.supplier.get(&guard) else {
            return;
        };
        let Some(nation) = supplier.nation.get(&guard) else {
            return;
        };
        let Some(region) = nation.region.get(&guard) else {
            return;
        };
        if region.name.as_str() != p.q2_region {
            return;
        }
        min_cost
            .entry(ps.partkey)
            .and_modify(|c| *c = (*c).min(ps.supplycost))
            .or_insert(ps.supplycost);
    });
    // Pass 2: suppliers achieving the minimum.
    let mut rows = Vec::new();
    db.partsupps.for_each(&guard, |ps| {
        let Some(&min) = min_cost.get(&ps.partkey) else {
            return;
        };
        if ps.supplycost != min {
            return;
        }
        let Some(supplier) = ps.supplier.get(&guard) else {
            return;
        };
        let Some(nation) = supplier.nation.get(&guard) else {
            return;
        };
        let Some(region) = nation.region.get(&guard) else {
            return;
        };
        if region.name.as_str() != p.q2_region {
            return;
        }
        rows.push(Q2Row {
            acctbal: supplier.acctbal,
            supplier: supplier.name.as_str().to_string(),
            nation: nation.name.as_str().to_string(),
            partkey: ps.partkey,
        });
    });
    q2_finalize(rows)
}

// ---------------------------------------------------------------------
// Q3 — shipping priority
// ---------------------------------------------------------------------

/// Q3, compiled safe: lineitem scan with reference joins to order and
/// customer.
pub fn q3(db: &SmcDb, p: &Params) -> Vec<Q3Row> {
    let _span = super::qspan("smc.q3");
    let guard = db.runtime.pin();
    let seg = crate::text::SEGMENTS
        .iter()
        .position(|s| *s == p.q3_segment)
        .unwrap() as u8;
    let mut groups: IntMap<i64, Q3Row> = IntMap::default();
    db.lineitems.for_each(&guard, |l| {
        if l.shipdate <= p.q3_date {
            return;
        }
        let Some(o) = l.order.get(&guard) else { return };
        if o.orderdate >= p.q3_date {
            return;
        }
        let Some(c) = o.customer.get(&guard) else {
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

/// Q3 with §6 direct-pointer joins.
pub fn q3_direct(db: &SmcDb, p: &Params) -> Vec<Q3Row> {
    let _span = super::qspan("smc.q3_direct");
    let guard = db.runtime.pin();
    let seg = crate::text::SEGMENTS
        .iter()
        .position(|s| *s == p.q3_segment)
        .unwrap() as u8;
    let mut groups: IntMap<i64, Q3Row> = IntMap::default();
    db.lineitems.for_each(&guard, |l| {
        if l.shipdate <= p.q3_date {
            return;
        }
        let Some(o) = l.order_d.and_then(|d| d.get(&guard)) else {
            return;
        };
        if o.orderdate >= p.q3_date {
            return;
        }
        let Some(c) = o.customer_d.and_then(|d| d.get(&guard)) else {
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

/// Q3 over columnar lineitems (refs gathered from the reference column).
pub fn q3_columnar(db: &SmcDb, p: &Params) -> Vec<Q3Row> {
    let _span = super::qspan("smc.q3_columnar");
    let col = db.lineitems_col.as_ref().expect("columnar twin not loaded");
    let guard = db.runtime.pin();
    let seg = crate::text::SEGMENTS
        .iter()
        .position(|s| *s == p.q3_segment)
        .unwrap() as u8;
    let mut groups: IntMap<i64, Q3Row> = IntMap::default();
    col.for_each_block(&guard, |cols, block| {
        let cap = block.header().capacity as usize;
        // SAFETY: column indices/types match LineitemCol.
        unsafe {
            let shipdates = cols.column_slice::<i32>(licol::SHIPDATE, cap);
            let orderkeys = cols.column_slice::<i64>(licol::ORDERKEY, cap);
            let prices = cols.column_slice::<Decimal>(licol::EXTENDEDPRICE, cap);
            let discounts = cols.column_slice::<Decimal>(licol::DISCOUNT, cap);
            let orders = cols.column_slice::<smc::Ref<crate::smcdb::Order>>(licol::ORDER, cap);
            for slot in 0..cap {
                if block.slot_word(slot as u32).state() != SlotState::Valid {
                    continue;
                }
                if shipdates[slot] <= p.q3_date {
                    continue;
                }
                let Some(o) = orders[slot].get(&guard) else {
                    continue;
                };
                if o.orderdate >= p.q3_date {
                    continue;
                }
                let Some(c) = o.customer.get(&guard) else {
                    continue;
                };
                if c.mktsegment != seg {
                    continue;
                }
                let revenue = prices[slot] * (Decimal::ONE - discounts[slot]);
                groups
                    .entry(orderkeys[slot])
                    .and_modify(|r| r.revenue += revenue)
                    .or_insert(Q3Row {
                        orderkey: orderkeys[slot],
                        revenue,
                        orderdate: o.orderdate,
                        shippriority: o.shippriority,
                    });
            }
        }
    });
    q3_finalize(groups.into_values())
}

// ---------------------------------------------------------------------
// Q4 — order priority checking
// ---------------------------------------------------------------------

/// Q4, compiled safe: lineitem semi-join (exists commitdate < receiptdate)
/// against the quarter's orders.
pub fn q4(db: &SmcDb, p: &Params) -> Vec<Q4Row> {
    let _span = super::qspan("smc.q4");
    let guard = db.runtime.pin();
    let end = plus_months(p.q4_date, 3);
    // Distinct orders with at least one late lineitem, restricted to the
    // quarter through the order reference; each is counted once, under its
    // priority, when first seen.
    let mut late: IntSet<i64> = IntSet::default();
    let mut counts = [0u64; 5];
    db.lineitems.for_each(&guard, |l| {
        if l.commitdate >= l.receiptdate || late.contains(&l.orderkey) {
            return;
        }
        let Some(o) = l.order.get(&guard) else { return };
        if o.orderdate < p.q4_date || o.orderdate >= end {
            return;
        }
        late.insert(l.orderkey);
        counts[o.orderpriority as usize] += 1;
    });
    q4_finalize(counts)
}

/// Q4 with direct-pointer joins.
pub fn q4_direct(db: &SmcDb, p: &Params) -> Vec<Q4Row> {
    let _span = super::qspan("smc.q4_direct");
    let guard = db.runtime.pin();
    let end = plus_months(p.q4_date, 3);
    let mut late: IntSet<i64> = IntSet::default();
    let mut counts = [0u64; 5];
    db.lineitems.for_each(&guard, |l| {
        if l.commitdate >= l.receiptdate || late.contains(&l.orderkey) {
            return;
        }
        let Some(o) = l.order_d.and_then(|d| d.get(&guard)) else {
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

// ---------------------------------------------------------------------
// Q5 — local supplier volume
// ---------------------------------------------------------------------

/// The Q5 group of nation `key`, created (with its name) on first use, so
/// the name is copied once per nation rather than once per matching line.
fn q5_group<'a>(groups: &'a mut IntMap<i64, Q5Row>, key: i64, name: &str) -> &'a mut Q5Row {
    groups.entry(key).or_insert_with(|| Q5Row {
        nation: name.to_string(),
        revenue: Decimal::ZERO,
    })
}

/// Q5, compiled safe: reference joins lineitem → supplier → nation →
/// region and lineitem → order → customer, with the spec's
/// customer-nation = supplier-nation condition.
pub fn q5(db: &SmcDb, p: &Params) -> Vec<Q5Row> {
    let _span = super::qspan("smc.q5");
    let guard = db.runtime.pin();
    let end = plus_months(p.q5_date, 12);
    let mut groups: IntMap<i64, Q5Row> = IntMap::default();
    db.lineitems.for_each(&guard, |l| {
        let Some(o) = l.order.get(&guard) else { return };
        if o.orderdate < p.q5_date || o.orderdate >= end {
            return;
        }
        let Some(s) = l.supplier.get(&guard) else {
            return;
        };
        let Some(n) = s.nation.get(&guard) else {
            return;
        };
        let Some(r) = n.region.get(&guard) else {
            return;
        };
        if r.name.as_str() != p.q5_region {
            return;
        }
        let Some(c) = o.customer.get(&guard) else {
            return;
        };
        if c.nationkey != s.nationkey {
            return;
        }
        let revenue = l.extendedprice * (Decimal::ONE - l.discount);
        q5_group(&mut groups, s.nationkey, n.name.as_str()).revenue += revenue;
    });
    q5_finalize(groups.into_values())
}

/// Q5 with direct-pointer joins where available.
pub fn q5_direct(db: &SmcDb, p: &Params) -> Vec<Q5Row> {
    let _span = super::qspan("smc.q5_direct");
    let guard = db.runtime.pin();
    let end = plus_months(p.q5_date, 12);
    let mut groups: IntMap<i64, Q5Row> = IntMap::default();
    db.lineitems.for_each(&guard, |l| {
        let Some(o) = l.order_d.and_then(|d| d.get(&guard)) else {
            return;
        };
        if o.orderdate < p.q5_date || o.orderdate >= end {
            return;
        }
        let Some(s) = l.supplier_d.and_then(|d| d.get(&guard)) else {
            return;
        };
        let Some(n) = s.nation.get(&guard) else {
            return;
        };
        let Some(r) = n.region.get(&guard) else {
            return;
        };
        if r.name.as_str() != p.q5_region {
            return;
        }
        let Some(c) = o.customer_d.and_then(|d| d.get(&guard)) else {
            return;
        };
        if c.nationkey != s.nationkey {
            return;
        }
        let revenue = l.extendedprice * (Decimal::ONE - l.discount);
        q5_group(&mut groups, s.nationkey, n.name.as_str()).revenue += revenue;
    });
    q5_finalize(groups.into_values())
}

/// Q5 over columnar lineitems.
pub fn q5_columnar(db: &SmcDb, p: &Params) -> Vec<Q5Row> {
    let _span = super::qspan("smc.q5_columnar");
    let col = db.lineitems_col.as_ref().expect("columnar twin not loaded");
    let guard = db.runtime.pin();
    let end = plus_months(p.q5_date, 12);
    let mut groups: IntMap<i64, Q5Row> = IntMap::default();
    col.for_each_block(&guard, |cols, block| {
        let cap = block.header().capacity as usize;
        // SAFETY: column indices/types match LineitemCol.
        unsafe {
            let orders = cols.column_slice::<smc::Ref<crate::smcdb::Order>>(licol::ORDER, cap);
            let suppliers =
                cols.column_slice::<smc::Ref<crate::smcdb::Supplier>>(licol::SUPPLIER, cap);
            let prices = cols.column_slice::<Decimal>(licol::EXTENDEDPRICE, cap);
            let discounts = cols.column_slice::<Decimal>(licol::DISCOUNT, cap);
            for slot in 0..cap {
                if block.slot_word(slot as u32).state() != SlotState::Valid {
                    continue;
                }
                let Some(o) = orders[slot].get(&guard) else {
                    continue;
                };
                if o.orderdate < p.q5_date || o.orderdate >= end {
                    continue;
                }
                let Some(s) = suppliers[slot].get(&guard) else {
                    continue;
                };
                let Some(n) = s.nation.get(&guard) else {
                    continue;
                };
                let Some(r) = n.region.get(&guard) else {
                    continue;
                };
                if r.name.as_str() != p.q5_region {
                    continue;
                }
                let Some(c) = o.customer.get(&guard) else {
                    continue;
                };
                if c.nationkey != s.nationkey {
                    continue;
                }
                let revenue = prices[slot] * (Decimal::ONE - discounts[slot]);
                q5_group(&mut groups, s.nationkey, n.name.as_str()).revenue += revenue;
            }
        }
    });
    q5_finalize(groups.into_values())
}

// ---------------------------------------------------------------------
// Q6 — forecasting revenue change
// ---------------------------------------------------------------------

/// Q6, compiled safe: pure lineitem scan-aggregate.
pub fn q6(db: &SmcDb, p: &Params) -> Decimal {
    let _span = super::qspan("smc.q6");
    let guard = db.runtime.pin();
    let end = plus_months(p.q6_date, 12);
    let lo = p.q6_discount - Decimal::parse("0.01").unwrap();
    let hi = p.q6_discount + Decimal::parse("0.01").unwrap();
    let mut revenue = Decimal::ZERO;
    db.lineitems.for_each(&guard, |l| {
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

/// Q6 over columnar storage: four column arrays, no object access.
pub fn q6_columnar(db: &SmcDb, p: &Params) -> Decimal {
    let _span = super::qspan("smc.q6_columnar");
    let col = db.lineitems_col.as_ref().expect("columnar twin not loaded");
    let guard = db.runtime.pin();
    let end = plus_months(p.q6_date, 12);
    let lo = p.q6_discount - Decimal::parse("0.01").unwrap();
    let hi = p.q6_discount + Decimal::parse("0.01").unwrap();
    let mut revenue = Decimal::ZERO;
    col.for_each_block(&guard, |cols, block| {
        let cap = block.header().capacity as usize;
        // SAFETY: column indices/types match LineitemCol.
        unsafe {
            let shipdates = cols.column_slice::<i32>(licol::SHIPDATE, cap);
            let discounts = cols.column_slice::<Decimal>(licol::DISCOUNT, cap);
            let qtys = cols.column_slice::<Decimal>(licol::QUANTITY, cap);
            let prices = cols.column_slice::<Decimal>(licol::EXTENDEDPRICE, cap);
            for slot in 0..cap {
                if block.slot_word(slot as u32).state() != SlotState::Valid {
                    continue;
                }
                if shipdates[slot] >= p.q6_date
                    && shipdates[slot] < end
                    && discounts[slot] >= lo
                    && discounts[slot] <= hi
                    && qtys[slot] < p.q6_quantity
                {
                    revenue += prices[slot] * discounts[slot];
                }
            }
        }
    });
    revenue
}

/// Q6 through the interpreted LINQ engine.
pub fn q6_linq(db: &SmcDb, p: &Params) -> Decimal {
    let _span = super::qspan("smc.q6_linq");
    let guard = db.runtime.pin();
    let end = plus_months(p.q6_date, 12);
    let lo = p.q6_discount - Decimal::parse("0.01").unwrap();
    let hi = p.q6_discount + Decimal::parse("0.01").unwrap();
    let q6_date = p.q6_date;
    let q6_quantity = p.q6_quantity;
    db.lineitems
        .iter(&guard)
        .map(|(_, l)| *l)
        .linq()
        .where_(move |l| {
            l.shipdate >= q6_date
                && l.shipdate < end
                && l.discount >= lo
                && l.discount <= hi
                && l.quantity < q6_quantity
        })
        .sum_by(|l| l.extendedprice * l.discount)
}

// ---------------------------------------------------------------------
// Parallel variants (morsel-driven, smc-exec)
// ---------------------------------------------------------------------

/// Q1 in parallel: each worker folds its morsels into a private 6-slot
/// table; tables are merged slot-wise in the reduce step. Exact decimal
/// arithmetic makes the result bit-identical to [`q1`] regardless of how
/// morsels were distributed.
pub fn q1_par(db: &SmcDb, p: &Params, pool: &smc_exec::WorkerPool) -> Vec<Q1Row> {
    let _span = super::qspan("smc.q1_par");
    let cutoff = q1_cutoff(p);
    let scan = smc_exec::ParScan::new(&db.lineitems, pool);
    let table = scan.filter_fold(
        || [Q1Acc::default(); 6],
        |l| l.shipdate <= cutoff,
        |t, l| {
            t[q1_slot(l.returnflag, l.linestatus)].fold(
                l.quantity,
                l.extendedprice,
                l.discount,
                l.tax,
            );
        },
        |into, from| q1_merge_tables(into, &from),
    );
    q1_rows_from_table(&table)
}

/// Q6 in parallel: per-worker revenue partials, summed in the reduce step.
pub fn q6_par(db: &SmcDb, p: &Params, pool: &smc_exec::WorkerPool) -> Decimal {
    let _span = super::qspan("smc.q6_par");
    let end = plus_months(p.q6_date, 12);
    let lo = p.q6_discount - Decimal::parse("0.01").unwrap();
    let hi = p.q6_discount + Decimal::parse("0.01").unwrap();
    let scan = smc_exec::ParScan::new(&db.lineitems, pool);
    scan.filter_fold(
        || Decimal::ZERO,
        |l| {
            l.shipdate >= p.q6_date
                && l.shipdate < end
                && l.discount >= lo
                && l.discount <= hi
                && l.quantity < p.q6_quantity
        },
        |revenue, l| *revenue += l.extendedprice * l.discount,
        |into, from| *into += from,
    )
}

/// Q6 over columnar storage in parallel: blocks are the row-group morsels.
pub fn q6_columnar_par(db: &SmcDb, p: &Params, pool: &smc_exec::WorkerPool) -> Decimal {
    let _span = super::qspan("smc.q6_columnar_par");
    let col = db.lineitems_col.as_ref().expect("columnar twin not loaded");
    let end = plus_months(p.q6_date, 12);
    let lo = p.q6_discount - Decimal::parse("0.01").unwrap();
    let hi = p.q6_discount + Decimal::parse("0.01").unwrap();
    let scan = smc_exec::ParColumnarScan::new(col, pool);
    scan.fold_blocks(
        || Decimal::ZERO,
        |revenue, cols, block| {
            let cap = block.header().capacity as usize;
            // SAFETY: column indices/types match LineitemCol.
            unsafe {
                let shipdates = cols.column_slice::<i32>(licol::SHIPDATE, cap);
                let discounts = cols.column_slice::<Decimal>(licol::DISCOUNT, cap);
                let qtys = cols.column_slice::<Decimal>(licol::QUANTITY, cap);
                let prices = cols.column_slice::<Decimal>(licol::EXTENDEDPRICE, cap);
                for slot in 0..cap {
                    if block.slot_word(slot as u32).state() != SlotState::Valid {
                        continue;
                    }
                    if shipdates[slot] >= p.q6_date
                        && shipdates[slot] < end
                        && discounts[slot] >= lo
                        && discounts[slot] <= hi
                        && qtys[slot] < p.q6_quantity
                    {
                        *revenue += prices[slot] * discounts[slot];
                    }
                }
            }
        },
        |into, from| *into += from,
    )
}
