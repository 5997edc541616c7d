//! Q1–Q6 over the columnstore engine — the Fig 13 RDBMS plans.
//!
//! These are classic relational plans: columnar scans with segment
//! elimination on the clustered date columns, and *value-based* hash joins
//! (the paper's explanation for why SMC reference joins win the join-heavy
//! queries while the RDBMS wins the index-selective ones).

use smc_memory::Decimal;
use smc_util::hash::{IntMap, IntSet};

use super::*;
use crate::csdb::CsDb;

fn dec(m: i128) -> Decimal {
    Decimal::from_mantissa(m)
}

/// Q1: pruned scan on the clustered shipdate, group into the 6-slot table.
pub fn q1(db: &CsDb, p: &Params) -> Vec<Q1Row> {
    let _span = super::qspan("cs.q1");
    let cutoff = q1_cutoff(p) as i64;
    let li = &db.lineitem;
    let shipdate = li.i64_values("l_shipdate");
    let flags = li.str_column("l_returnflag");
    let statuses = li.str_column("l_linestatus");
    let qty = li.decimal_slice("l_quantity");
    let price = li.decimal_slice("l_extendedprice");
    let discount = li.decimal_slice("l_discount");
    let tax = li.decimal_slice("l_tax");
    let mut table = [Q1Acc::default(); 6];
    for (start, end) in li.prune("l_shipdate", i64::MIN, cutoff) {
        for row in start..end {
            if shipdate[row] > cutoff {
                continue;
            }
            let flag = flags.get(row).as_bytes()[0];
            let status = statuses.get(row).as_bytes()[0];
            table[q1_slot(flag, status)].fold(
                dec(qty[row]),
                dec(price[row]),
                dec(discount[row]),
                dec(tax[row]),
            );
        }
    }
    q1_rows_from_table(&table)
}

/// Q2: dimension maps then two partsupp passes with value joins.
pub fn q2(db: &CsDb, p: &Params) -> Vec<Q2Row> {
    let _span = super::qspan("cs.q2");
    // region -> qualifying nation keys
    let region_keys: IntSet<i64> = {
        let names = db.region.str_column("r_name");
        let keys = db.region.i64_slice("r_regionkey");
        (0..db.region.rows())
            .filter(|&r| names.get(r) == p.q2_region)
            .map(|r| keys[r])
            .collect()
    };
    let nation_in_region: IntMap<i64, String> = {
        let keys = db.nation.i64_slice("n_nationkey");
        let names = db.nation.str_column("n_name");
        let regions = db.nation.i64_slice("n_regionkey");
        (0..db.nation.rows())
            .filter(|&r| region_keys.contains(&regions[r]))
            .map(|r| (keys[r], names.get(r).to_string()))
            .collect()
    };
    // suppliers in the region: suppkey -> (name, acctbal, nation name)
    let suppliers: IntMap<i64, (String, Decimal, String)> = {
        let keys = db.supplier.i64_slice("s_suppkey");
        let names = db.supplier.str_column("s_name");
        let nations = db.supplier.i64_slice("s_nationkey");
        let bals = db.supplier.decimal_slice("s_acctbal");
        (0..db.supplier.rows())
            .filter_map(|r| {
                nation_in_region
                    .get(&nations[r])
                    .map(|n| (keys[r], (names.get(r).to_string(), dec(bals[r]), n.clone())))
            })
            .collect()
    };
    // qualifying parts
    let parts: IntSet<i64> = {
        let keys = db.part.i64_slice("p_partkey");
        let sizes = db.part.i64_slice("p_size");
        let types = db.part.str_column("p_type");
        (0..db.part.rows())
            .filter(|&r| sizes[r] == p.q2_size as i64 && types.get(r).ends_with(p.q2_type.as_str()))
            .map(|r| keys[r])
            .collect()
    };
    let ps_part = db.partsupp.i64_slice("ps_partkey");
    let ps_supp = db.partsupp.i64_slice("ps_suppkey");
    let ps_cost = db.partsupp.decimal_slice("ps_supplycost");
    let mut min_cost: IntMap<i64, Decimal> = IntMap::default();
    for row in 0..db.partsupp.rows() {
        if !parts.contains(&ps_part[row]) || !suppliers.contains_key(&ps_supp[row]) {
            continue;
        }
        let cost = dec(ps_cost[row]);
        min_cost
            .entry(ps_part[row])
            .and_modify(|c| *c = (*c).min(cost))
            .or_insert(cost);
    }
    let mut rows = Vec::new();
    for row in 0..db.partsupp.rows() {
        let Some(&min) = min_cost.get(&ps_part[row]) else {
            continue;
        };
        if dec(ps_cost[row]) != min {
            continue;
        }
        let Some((name, bal, nation)) = suppliers.get(&ps_supp[row]) else {
            continue;
        };
        rows.push(Q2Row {
            acctbal: *bal,
            supplier: name.clone(),
            nation: nation.clone(),
            partkey: ps_part[row],
        });
    }
    q2_finalize(rows)
}

/// Q3: segment filter → order hash table → pruned lineitem probe.
pub fn q3(db: &CsDb, p: &Params) -> Vec<Q3Row> {
    let _span = super::qspan("cs.q3");
    let custs: IntSet<i64> = {
        let segs = db.customer.str_column("c_mktsegment");
        let keys = db.customer.i64_slice("c_custkey");
        // Dictionary fast path: compare codes, not strings.
        let Some(code) = segs.code_of(&p.q3_segment) else {
            return Vec::new();
        };
        (0..db.customer.rows())
            .filter(|&r| segs.code(r) == code)
            .map(|r| keys[r])
            .collect()
    };
    // Orders before the date, belonging to those customers.
    let o_date = db.orders.i64_values("o_orderdate");
    let o_key = db.orders.i64_slice("o_orderkey");
    let o_cust = db.orders.i64_slice("o_custkey");
    let o_ship = db.orders.i64_slice("o_shippriority");
    let mut order_info: IntMap<i64, (i32, i32)> = IntMap::default();
    for (start, end) in db
        .orders
        .prune("o_orderdate", i64::MIN, p.q3_date as i64 - 1)
    {
        for row in start..end {
            if o_date[row] < p.q3_date as i64 && custs.contains(&o_cust[row]) {
                order_info.insert(o_key[row], (o_date[row] as i32, o_ship[row] as i32));
            }
        }
    }
    // Lineitems after the date, pruned on the clustered shipdate.
    let l_ship = db.lineitem.i64_values("l_shipdate");
    let l_key = db.lineitem.i64_slice("l_orderkey");
    let l_price = db.lineitem.decimal_slice("l_extendedprice");
    let l_disc = db.lineitem.decimal_slice("l_discount");
    let mut groups: IntMap<i64, Q3Row> = IntMap::default();
    for (start, end) in db
        .lineitem
        .prune("l_shipdate", p.q3_date as i64 + 1, i64::MAX)
    {
        for row in start..end {
            if l_ship[row] <= p.q3_date as i64 {
                continue;
            }
            let Some(&(orderdate, shippriority)) = order_info.get(&l_key[row]) else {
                continue;
            };
            let revenue = dec(l_price[row]) * (Decimal::ONE - dec(l_disc[row]));
            groups
                .entry(l_key[row])
                .and_modify(|r| r.revenue += revenue)
                .or_insert(Q3Row {
                    orderkey: l_key[row],
                    revenue,
                    orderdate,
                    shippriority,
                });
        }
    }
    q3_finalize(groups.into_values())
}

/// Q4: pruned quarter of orders, semi-joined against late lineitems.
pub fn q4(db: &CsDb, p: &Params) -> Vec<Q4Row> {
    let _span = super::qspan("cs.q4");
    let end = plus_months(p.q4_date, 3);
    // Late lineitems → orderkey set (no useful pruning column here).
    let l_commit = db.lineitem.i64_slice("l_commitdate");
    let l_receipt = db.lineitem.i64_slice("l_receiptdate");
    let l_key = db.lineitem.i64_slice("l_orderkey");
    let mut late: IntSet<i64> = IntSet::default();
    for row in 0..db.lineitem.rows() {
        if l_commit[row] < l_receipt[row] {
            late.insert(l_key[row]);
        }
    }
    // Pruned scan of the quarter's orders.
    let o_date = db.orders.i64_values("o_orderdate");
    let o_key = db.orders.i64_slice("o_orderkey");
    let o_pri = db.orders.str_column("o_orderpriority");
    let mut counts = [0u64; 5];
    for (start, end_row) in db
        .orders
        .prune("o_orderdate", p.q4_date as i64, end as i64 - 1)
    {
        for row in start..end_row {
            if o_date[row] < p.q4_date as i64 || o_date[row] >= end as i64 {
                continue;
            }
            if late.contains(&o_key[row]) {
                let pri = crate::text::PRIORITIES
                    .iter()
                    .position(|x| *x == o_pri.get(row))
                    .unwrap();
                counts[pri] += 1;
            }
        }
    }
    q4_finalize(counts)
}

/// Q5: dimension hash maps, pruned orders, lineitem probe with the
/// customer-nation = supplier-nation condition.
pub fn q5(db: &CsDb, p: &Params) -> Vec<Q5Row> {
    let _span = super::qspan("cs.q5");
    let end = plus_months(p.q5_date, 12);
    let region_keys: IntSet<i64> = {
        let names = db.region.str_column("r_name");
        let keys = db.region.i64_slice("r_regionkey");
        (0..db.region.rows())
            .filter(|&r| names.get(r) == p.q5_region)
            .map(|r| keys[r])
            .collect()
    };
    let nations: IntMap<i64, String> = {
        let keys = db.nation.i64_slice("n_nationkey");
        let names = db.nation.str_column("n_name");
        let regions = db.nation.i64_slice("n_regionkey");
        (0..db.nation.rows())
            .filter(|&r| region_keys.contains(&regions[r]))
            .map(|r| (keys[r], names.get(r).to_string()))
            .collect()
    };
    let supp_nation: IntMap<i64, i64> = {
        let keys = db.supplier.i64_slice("s_suppkey");
        let nkeys = db.supplier.i64_slice("s_nationkey");
        (0..db.supplier.rows())
            .filter(|&r| nations.contains_key(&nkeys[r]))
            .map(|r| (keys[r], nkeys[r]))
            .collect()
    };
    let cust_nation: IntMap<i64, i64> = {
        let keys = db.customer.i64_slice("c_custkey");
        let nkeys = db.customer.i64_slice("c_nationkey");
        (0..db.customer.rows())
            .map(|r| (keys[r], nkeys[r]))
            .collect()
    };
    // Orders within the year (pruned on the clustered orderdate).
    let o_date = db.orders.i64_values("o_orderdate");
    let o_key = db.orders.i64_slice("o_orderkey");
    let o_cust = db.orders.i64_slice("o_custkey");
    let mut order_cust_nation: IntMap<i64, i64> = IntMap::default();
    for (start, end_row) in db
        .orders
        .prune("o_orderdate", p.q5_date as i64, end as i64 - 1)
    {
        for row in start..end_row {
            if o_date[row] >= p.q5_date as i64 && o_date[row] < end as i64 {
                order_cust_nation.insert(o_key[row], cust_nation[&o_cust[row]]);
            }
        }
    }
    let l_key = db.lineitem.i64_slice("l_orderkey");
    let l_supp = db.lineitem.i64_slice("l_suppkey");
    let l_price = db.lineitem.decimal_slice("l_extendedprice");
    let l_disc = db.lineitem.decimal_slice("l_discount");
    let mut groups: IntMap<i64, Q5Row> = IntMap::default();
    for row in 0..db.lineitem.rows() {
        let Some(&cnation) = order_cust_nation.get(&l_key[row]) else {
            continue;
        };
        let Some(&snation) = supp_nation.get(&l_supp[row]) else {
            continue;
        };
        if cnation != snation {
            continue;
        }
        let revenue = dec(l_price[row]) * (Decimal::ONE - dec(l_disc[row]));
        groups
            .entry(snation)
            .or_insert_with(|| Q5Row {
                nation: nations[&snation].clone(),
                revenue: Decimal::ZERO,
            })
            .revenue += revenue;
    }
    q5_finalize(groups.into_values())
}

/// Q6: the RDBMS showcase — pruned scan on the clustered shipdate.
pub fn q6(db: &CsDb, p: &Params) -> Decimal {
    let _span = super::qspan("cs.q6");
    let end = plus_months(p.q6_date, 12);
    let lo = p.q6_discount - Decimal::parse("0.01").unwrap();
    let hi = p.q6_discount + Decimal::parse("0.01").unwrap();
    let shipdate = db.lineitem.i64_values("l_shipdate");
    let discount = db.lineitem.decimal_slice("l_discount");
    let qty = db.lineitem.decimal_slice("l_quantity");
    let price = db.lineitem.decimal_slice("l_extendedprice");
    let mut revenue = Decimal::ZERO;
    for (start, end_row) in db
        .lineitem
        .prune("l_shipdate", p.q6_date as i64, end as i64 - 1)
    {
        for row in start..end_row {
            if shipdate[row] >= p.q6_date as i64
                && shipdate[row] < end as i64
                && dec(discount[row]) >= lo
                && dec(discount[row]) <= hi
                && dec(qty[row]) < p.q6_quantity
            {
                revenue += dec(price[row]) * dec(discount[row]);
            }
        }
    }
    revenue
}

// ---------------------------------------------------------------------
// Parallel variants (row-range morsels over column slices, smc-exec)
// ---------------------------------------------------------------------

/// Rows per morsel for the parallel columnstore scans.
const CS_MORSEL_ROWS: usize = 16 * 1024;

/// Subdivides pruned `(start, end)` row ranges into fixed-size morsels.
fn split_ranges(ranges: Vec<(usize, usize)>, rows: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (start, end) in ranges {
        let mut s = start;
        while s < end {
            let e = (s + rows).min(end);
            out.push((s, e));
            s = e;
        }
    }
    out
}

/// Q1 in parallel: the pruned row ranges are split into fixed-size morsels
/// scanned over the shared column slices.
pub fn q1_par(db: &CsDb, p: &Params, pool: &smc_exec::WorkerPool) -> Vec<Q1Row> {
    let _span = super::qspan("cs.q1_par");
    let cutoff = q1_cutoff(p) as i64;
    let li = &db.lineitem;
    let shipdate = li.i64_values("l_shipdate");
    let flags = li.str_column("l_returnflag");
    let statuses = li.str_column("l_linestatus");
    let qty = li.decimal_slice("l_quantity");
    let price = li.decimal_slice("l_extendedprice");
    let discount = li.decimal_slice("l_discount");
    let tax = li.decimal_slice("l_tax");
    let morsels = split_ranges(li.prune("l_shipdate", i64::MIN, cutoff), CS_MORSEL_ROWS);
    let table = smc_exec::par_fold_chunks(
        pool,
        &morsels,
        1,
        || [Q1Acc::default(); 6],
        |t, ranges| {
            for &(start, end) in ranges {
                for row in start..end {
                    if shipdate[row] > cutoff {
                        continue;
                    }
                    let flag = flags.get(row).as_bytes()[0];
                    let status = statuses.get(row).as_bytes()[0];
                    t[q1_slot(flag, status)].fold(
                        dec(qty[row]),
                        dec(price[row]),
                        dec(discount[row]),
                        dec(tax[row]),
                    );
                }
            }
        },
        |into, from| q1_merge_tables(into, &from),
    );
    q1_rows_from_table(&table)
}

/// Q6 in parallel over the pruned row-range morsels.
pub fn q6_par(db: &CsDb, p: &Params, pool: &smc_exec::WorkerPool) -> Decimal {
    let _span = super::qspan("cs.q6_par");
    let end = plus_months(p.q6_date, 12);
    let lo = p.q6_discount - Decimal::parse("0.01").unwrap();
    let hi = p.q6_discount + Decimal::parse("0.01").unwrap();
    let shipdate = db.lineitem.i64_values("l_shipdate");
    let discount = db.lineitem.decimal_slice("l_discount");
    let qty = db.lineitem.decimal_slice("l_quantity");
    let price = db.lineitem.decimal_slice("l_extendedprice");
    let morsels = split_ranges(
        db.lineitem
            .prune("l_shipdate", p.q6_date as i64, end as i64 - 1),
        CS_MORSEL_ROWS,
    );
    smc_exec::par_fold_chunks(
        pool,
        &morsels,
        1,
        || Decimal::ZERO,
        |revenue, ranges| {
            for &(start, end_row) in ranges {
                for row in start..end_row {
                    if shipdate[row] >= p.q6_date as i64
                        && shipdate[row] < end as i64
                        && dec(discount[row]) >= lo
                        && dec(discount[row]) <= hi
                        && dec(qty[row]) < p.q6_quantity
                    {
                        *revenue += dec(price[row]) * dec(discount[row]);
                    }
                }
            }
        },
        |into, from| *into += from,
    )
}
