//! The TPC-H workloads: `tpch_query` (read-only Q1–Q6 passes) and
//! `tpch_refresh` (the same passes beside a closed loop of §7 refresh
//! pairs, with an `smc-maint` coordinator compacting underneath).

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use smc::{Decimal, Ref, Smc};
use smc_maint::{Coordinator, MaintConfig, MaintPolicy};
use smc_memory::stats::MemoryStats;
use tpch::csdb::CsDb;
use tpch::queries::{cs_q, smc_q, Q1Row, Q2Row, Q3Row, Q4Row, Q5Row};
use tpch::smcdb::{Lineitem, Order, SmcDb};
use tpch::{Generator, Params};

use crate::host;
use crate::metrics::{median, Metrics, Summary};
use crate::spans::{Open, Tracer};
use crate::Run;

/// Scale factor: ~600k lineitems, ~200 MB off-heap — far beyond any CPU
/// cache, so scans measure memory-resident block traversal.
const SCALE: f64 = 0.1;
/// Loads per run, before and after the window; `setup_s` is their median,
/// so one load that samples a slow moment of a drifting host does not set
/// it. Loads after the window only feed `setup_s`, so traced runs skip them.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;
/// Each refresh stream touches this share of the loaded lineitems (§7).
const STREAM_FRACTION: f64 = 0.001;
/// Live lineitems must stay within this share of their count at the start
/// of the window; removals balance inserts so scan cost cannot drift.
const LIVE_TOLERANCE: f64 = 0.01;
/// Warm-up and length of the short phases a traced run adds to measure
/// layers its own window does not cross.
const PROBE_WARMUP: Duration = Duration::from_millis(300);
const PROBE_SECS: f64 = 3.0;
/// Compaction policy for the refresh workload: low enough that scattered
/// 0.1 % removals trigger passes every few seconds.
fn maint_policy() -> MaintPolicy {
    MaintPolicy {
        frag_ratio_ceiling: 0.02,
        limbo_bytes_ceiling: 256 << 10,
        min_interval: Duration::from_millis(500),
        ..MaintPolicy::default()
    }
}

/// One pass's answers, compared across passes and against the columnstore.
#[derive(Debug, Clone, PartialEq)]
struct Answers {
    q1: Vec<Q1Row>,
    q2: Vec<Q2Row>,
    q3: Vec<Q3Row>,
    q4: Vec<Q4Row>,
    q5: Vec<Q5Row>,
    q6: Decimal,
}

/// Generates and loads the database; returns it with the load time.
fn load(seed: u64) -> (Generator, SmcDb, f64) {
    let t = Instant::now();
    let gen = Generator::with_seed(SCALE, seed);
    let db = SmcDb::load(&gen, false);
    (gen, db, t.elapsed().as_secs_f64())
}

/// Loads `reps` times and keeps the last database; load times are
/// appended to `times`.
fn setup(seed: u64, reps: usize, times: &mut Vec<f64>) -> Option<(Generator, SmcDb)> {
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let (gen, db, s) = load(seed);
        times.push(s);
        last = Some((gen, db));
    }
    last
}

/// Loads after the window, then reports `setup_s` as the median of all loads.
fn finish_setup(run: &mut Run, mut times: Vec<f64>) {
    if !run.trace {
        setup(run.seed, SETUPS_AFTER, &mut times);
    }
    println!("setup: {} loads at SF {SCALE}: {times:.3?} s", times.len());
    run.m
        .set("setup_s", median(&times).expect("at least one load"));
}

/// Runs Q1–Q6 once; per-query times land in `q_us`.
fn pass(db: &SmcDb, p: &Params, tr: &mut Tracer, op: u64, q_us: &mut [Vec<f64>; 6]) -> Answers {
    let root = tr.begin(op, "query.pass", Open::ROOT);
    macro_rules! q {
        ($i:expr, $name:expr, $call:expr) => {{
            let span = tr.begin(op, $name, root);
            let t = Instant::now();
            let r = $call;
            q_us[$i].push(t.elapsed().as_secs_f64() * 1e6);
            tr.end(span);
            r
        }};
    }
    let a = Answers {
        q1: q!(0, "query.q1", smc_q::q1(db, p)),
        q2: q!(1, "query.q2", smc_q::q2(db, p)),
        q3: q!(2, "query.q3", smc_q::q3(db, p)),
        q4: q!(3, "query.q4", smc_q::q4(db, p)),
        q5: q!(4, "query.q5", smc_q::q5(db, p)),
        q6: q!(5, "query.q6", smc_q::q6(db, p)),
    };
    tr.end(root);
    a
}

fn cs_answers(gen: &Generator, p: &Params) -> Answers {
    let cs = CsDb::load(gen);
    Answers {
        q1: cs_q::q1(&cs, p),
        q2: cs_q::q2(&cs, p),
        q3: cs_q::q3(&cs, p),
        q4: cs_q::q4(&cs, p),
        q5: cs_q::q5(&cs, p),
        q6: cs_q::q6(&cs, p),
    }
}

/// What a query loop measured inside its window.
#[derive(Debug, Default)]
struct QueryOut {
    pass_us: Vec<f64>,
    /// Pass times split by whether the pass recorded spans.
    traced_us: Vec<f64>,
    untraced_us: Vec<f64>,
    q_us: [Vec<f64>; 6],
    mismatches: u64,
    graveyard_max: usize,
    /// Process CPU seconds from the first timed pass to the end.
    cpu_s: f64,
}

/// Closed-loop Q1–Q6 passes until `end`; passes starting before
/// `warm_end` are not timed. With `reference`, every answer is compared.
fn query_loop(
    db: &SmcDb,
    warm_end: Instant,
    end: Instant,
    reference: Option<&Answers>,
    tr: &mut Tracer,
) -> QueryOut {
    let p = Params::default();
    let mut out = QueryOut::default();
    let mut scratch: [Vec<f64>; 6] = Default::default();
    let mut off = Tracer::new(false, 0, Instant::now());
    let mut cpu0 = None;
    for op in 0u64.. {
        let start = Instant::now();
        if start >= end {
            break;
        }
        let timed = start >= warm_end;
        if timed && cpu0.is_none() {
            cpu0 = Some(host::process_cpu_s());
        }
        // Odd passes record spans, even ones do not, so a traced run
        // measures its own tracing overhead under the same host drift.
        let traced = op % 2 == 1;
        let answers = match (timed, traced) {
            (true, true) => pass(db, &p, tr, op, &mut out.q_us),
            (true, false) => pass(db, &p, &mut off, op, &mut out.q_us),
            (false, _) => pass(db, &p, &mut off, op, &mut scratch),
        };
        let us = start.elapsed().as_secs_f64() * 1e6;
        if let Some(r) = reference {
            if answers != *r {
                out.mismatches += 1;
            }
        }
        out.graveyard_max = out.graveyard_max.max(db.runtime.graveyard_len());
        if timed {
            out.pass_us.push(us);
            if traced {
                &mut out.traced_us
            } else {
                &mut out.untraced_us
            }
            .push(us);
        }
    }
    out.cpu_s = cpu0.map_or(0.0, |c| host::process_cpu_s() - c);
    out
}

/// What the refresh loop measured inside its window.
#[derive(Debug, Default)]
struct RefreshOut {
    pair_us: Vec<f64>,
    add_ns: Vec<f64>,
    remove_ns: Vec<f64>,
    enumerate_us: Vec<f64>,
    row_ops: u64,
    inserted: u64,
    removed: u64,
    live_start: u64,
    live_drift_max: f64,
    graveyard_max: usize,
    cpu_s: f64,
}

/// Pairs between inserting a batch and thinning it.
const THIN_AFTER: u64 = 5;

/// Closed-loop refresh pairs until `end`. Pair `k` inserts a 0.1 % batch
/// of synthetic lineitems with fresh order keys, then removes, in one
/// enumeration, every line but the first of batch `k − THIN_AFTER` and the
/// surviving first lines of batch `k − 2·THIN_AFTER`. Each batch is removed
/// whole in two steps, so the live count stays within a few batches of the
/// loaded count; the loaded rows (and so the scans' answers) stay intact;
/// and the first step leaves ~1/7 of a batch's rows in its blocks, below
/// the compaction cutoff, for the coordinator to relocate.
fn refresh_loop(
    db: &SmcDb,
    seed: u64,
    warm_end: Instant,
    end: Instant,
    next_key: &AtomicU64,
    tr: &mut Tracer,
) -> RefreshOut {
    let loaded = db.lineitems.len();
    let n = ((loaded as f64 * STREAM_FRACTION) as usize).max(1);
    let mut rng = tpch::workloads::workload_rng(seed ^ 0x7e57_f00d);
    let mut out = RefreshOut::default();
    let mut batch_base: Vec<i64> = Vec::new();
    let mut window_cpu0 = None;
    for op in 0u64.. {
        let start = Instant::now();
        if start >= end {
            break;
        }
        let timed = start >= warm_end;
        if timed && window_cpu0.is_none() {
            out.live_start = db.lineitems.len();
            window_cpu0 = Some(host::process_cpu_s());
        }
        let root = tr.begin(op, "refresh.pair", Open::ROOT);

        let base = next_key.fetch_add(n as u64, Ordering::Relaxed) as i64;
        batch_base.push(base);
        let s = tr.begin(op, "core.add", root);
        let t = Instant::now();
        tpch::workloads::smc_insert_stream(db, &mut rng, base, n);
        let add_ns = t.elapsed().as_nanos() as f64 / n as f64;
        tr.end(s);

        let batch = |back: u64| {
            let b = op.checked_sub(back).map(|k| batch_base[k as usize]);
            move |key: i64| b.is_some_and(|b| key >= b && key < b + n as i64)
        };
        let (thin, finish) = (batch(THIN_AFTER), batch(2 * THIN_AFTER));
        let s = tr.begin(op, "core.enumerate", root);
        let t = Instant::now();
        let mut victims: Vec<Ref<Lineitem>> = Vec::with_capacity(n);
        let guard = db.runtime.pin();
        db.lineitems.for_each_ref(&guard, |r, l| {
            if (l.linenumber != 1 && thin(l.orderkey)) || (l.linenumber == 1 && finish(l.orderkey))
            {
                victims.push(r);
            }
        });
        drop(guard);
        let enumerate_us = t.elapsed().as_secs_f64() * 1e6;
        tr.end(s);

        let s = tr.begin(op, "core.remove", root);
        let t = Instant::now();
        let removed = victims.iter().filter(|&&r| db.lineitems.remove(r)).count();
        let remove_ns = t.elapsed().as_nanos() as f64 / removed.max(1) as f64;
        tr.end(s);
        tr.end(root);

        out.inserted += n as u64;
        out.removed += removed as u64;
        out.graveyard_max = out.graveyard_max.max(db.runtime.graveyard_len());
        if timed {
            out.pair_us.push(start.elapsed().as_secs_f64() * 1e6);
            out.add_ns.push(add_ns);
            out.remove_ns.push(remove_ns);
            out.enumerate_us.push(enumerate_us);
            out.row_ops += (n + removed) as u64;
            let live = db.lineitems.len() as f64;
            let drift = (live - out.live_start as f64).abs() / out.live_start as f64;
            out.live_drift_max = out.live_drift_max.max(drift);
        }
    }
    out.cpu_s = window_cpu0.map_or(0.0, |c| host::process_cpu_s() - c);
    out
}

/// Payload bytes of every live object.
fn live_payload_bytes(db: &SmcDb) -> f64 {
    fn b<T: smc::Tabular>(s: &Smc<T>) -> f64 {
        s.len() as f64 * std::mem::size_of::<T>() as f64
    }
    b(&db.regions)
        + b(&db.nations)
        + b(&db.suppliers)
        + b(&db.parts)
        + b(&db.partsupps)
        + b(&db.customers)
        + b(&db.orders)
        + b(&db.lineitems)
}

fn footprint_ratio(db: &SmcDb) -> f64 {
    db.memory_bytes() as f64 / live_payload_bytes(db)
}

/// Memory counters read around a window.
struct Counters {
    blocks_scanned: u64,
    pins: u64,
    refills: u64,
    remote_frees: u64,
    reclaimed: u64,
    relocated: u64,
    bailed: u64,
}

impl Counters {
    fn read(db: &SmcDb) -> Counters {
        let s = &db.runtime.stats;
        Counters {
            blocks_scanned: MemoryStats::get(&s.blocks_scanned),
            pins: MemoryStats::get(&s.pins_taken),
            refills: MemoryStats::get(&s.alloc_batch_refills),
            remote_frees: MemoryStats::get(&s.remote_frees),
            reclaimed: MemoryStats::get(&s.slots_reclaimed),
            relocated: MemoryStats::get(&s.objects_relocated),
            bailed: MemoryStats::get(&s.relocations_bailed),
        }
    }
}

/// A refresh phase: query passes beside refresh pairs under a maintenance
/// coordinator, then quiesce and verify. The `tpch_refresh` window, and
/// the short refresh probe of other workloads' traced runs.
struct Phase {
    queries: QueryOut,
    refresh: RefreshOut,
    window_s: f64,
    verify_errors: Vec<String>,
}

fn refresh_phase(
    db: &SmcDb,
    seed: u64,
    warm: Duration,
    secs: f64,
    trace: bool,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Phase {
    let coordinator = Coordinator::new(MaintConfig {
        seed,
        ..MaintConfig::default()
    });
    db.lineitems
        .register_maintenance(&coordinator, maint_policy());
    let before = Counters::read(db);
    // Synthetic order keys start past every generated one (keys are 1..=N).
    let next_key = AtomicU64::new(db.orders.len() + 1);
    let epoch = Instant::now();
    let warm_end = epoch + warm;
    let end = warm_end + Duration::from_secs_f64(secs);
    let mut qtr = Tracer::new(trace, 1, epoch);
    let mut rtr = Tracer::new(trace, 2, epoch);
    let (queries, refresh) = std::thread::scope(|s| {
        let q = s.spawn(|| query_loop(db, warm_end, end, None, &mut qtr));
        let r = refresh_loop(db, seed, warm_end, end, &next_key, &mut rtr);
        (q.join().expect("query thread"), r)
    });
    tr.absorb(qtr);
    tr.absorb(rtr);
    let window_s = (Instant::now() - warm_end).as_secs_f64();
    coordinator.quiesce();
    let snap = coordinator.snapshot();
    db.lineitems.release_retired();
    let mut verify_errors = Vec::new();
    if let Err(e) = db.lineitems.verify() {
        verify_errors.extend(e);
    }
    if let Err(e) = db.runtime.verify() {
        verify_errors.extend(e);
    }
    drop(coordinator);

    let after = Counters::read(db);
    let kop = refresh.row_ops.max(1) as f64 / 1e3;
    m.set(
        "memory.alloc_batch_refills_per_kop",
        (after.refills - before.refills) as f64 / kop,
    );
    m.set(
        "memory.remote_frees_per_kop",
        (after.remote_frees - before.remote_frees) as f64 / kop,
    );
    m.set(
        "memory.slots_reclaimed_per_kop",
        (after.reclaimed - before.reclaimed) as f64 / kop,
    );
    m.set(
        "memory.graveyard_len_max",
        refresh.graveyard_max.max(queries.graveyard_max) as f64,
    );
    m.set("core.add_ns", median(&refresh.add_ns).unwrap_or(f64::NAN));
    m.set(
        "core.remove_ns",
        median(&refresh.remove_ns).unwrap_or(f64::NAN),
    );
    m.set(
        "core.enumerate_us",
        median(&refresh.enumerate_us).unwrap_or(f64::NAN),
    );
    m.set("maint.passes_completed", snap.passes_completed as f64);
    m.set("maint.passes_deferred", snap.passes_deferred as f64);
    let passes = &db.runtime.stats.compaction_pass_ns;
    let pauses = &db.runtime.stats.compaction_pause_ns;
    // Log-bucket histograms kept by the runtime itself: per-layer only.
    m.set("maint.pass_us_p50", passes.summary().p50 as f64 / 1e3);
    m.set("maint.pause_us_max", pauses.summary().max as f64 / 1e3);
    let moved = (after.relocated - before.relocated) as f64;
    let bailed = (after.bailed - before.bailed) as f64;
    m.set(
        "maint.relocated_frac",
        if moved + bailed > 0.0 {
            moved / (moved + bailed)
        } else {
            0.0
        },
    );
    println!(
        "refresh: {} pairs in {window_s:.2} s, {} maintenance passes completed, {} relocated, {} bailed, live drift max {:.4} %",
        refresh.pair_us.len(),
        snap.passes_completed,
        moved,
        bailed,
        refresh.live_drift_max * 100.0
    );
    Phase {
        queries,
        refresh,
        window_s,
        verify_errors,
    }
}

fn record_query_layers(q: &QueryOut, before: &Counters, after: &Counters, m: &mut Metrics) {
    let names = [
        "query.q1_us",
        "query.q2_us",
        "query.q3_us",
        "query.q4_us",
        "query.q5_us",
        "query.q6_us",
    ];
    for (name, samples) in names.into_iter().zip(&q.q_us) {
        m.set(name, median(samples).unwrap_or(f64::NAN));
    }
    let calls = (q.pass_us.len() * 6).max(1) as f64;
    m.set(
        "memory.blocks_scanned_per_query",
        (after.blocks_scanned - before.blocks_scanned) as f64 / calls,
    );
    m.set(
        "memory.pins_per_query",
        (after.pins - before.pins) as f64 / calls,
    );
}

fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    match (median(traced), median(untraced)) {
        (Some(t), Some(u)) => (t / u - 1.0) * 100.0,
        _ => f64::NAN,
    }
}

fn record_query_e2e(pass_us: &[f64], label: &str, run: &mut Run) {
    match Summary::of(pass_us) {
        Some(s) => {
            println!("{label}: {}", s.describe("us"));
            run.m.set("query_p50_us", s.p50);
            run.m.set("query_tail_us", s.tail);
        }
        None => run.fail(format!(
            "{label}: only {} samples, a tail needs 11",
            pass_us.len()
        )),
    }
}

/// Isolated probes over a loaded database: `Ref` resolution, epoch pin,
/// generation alone.
fn isolated_probes(db: &SmcDb, seed: u64, load_s: f64, m: &mut Metrics) {
    // Sampled lineitem → order references, resolved under one pin.
    let mut refs: Vec<Ref<Order>> = Vec::new();
    {
        let g = db.runtime.pin();
        let mut i = 0u64;
        db.lineitems.for_each(&g, |l| {
            if i.is_multiple_of(6) && !l.order.is_null() {
                refs.push(l.order);
            }
            i += 1;
        });
    }
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let g = db.runtime.pin();
            let t = Instant::now();
            let mut sum = 0i64;
            for r in &refs {
                sum += db.orders.read(*r, &g).map_or(0, |o| o.key);
            }
            black_box(sum);
            t.elapsed().as_nanos() as f64 / refs.len().max(1) as f64
        })
        .collect();
    m.set("memory.ref_resolve_ns", median(&runs).expect("five runs"));

    const PINS: u32 = 200_000;
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..PINS {
                black_box(db.runtime.pin());
            }
            t.elapsed().as_nanos() as f64 / f64::from(PINS)
        })
        .collect();
    m.set("memory.pin_ns", median(&runs).expect("five runs"));

    let gen = Generator::with_seed(SCALE, seed);
    let t = Instant::now();
    let mut n = 0u64;
    gen.regions(|r| n += black_box(r.key) as u64);
    gen.nations(|r| n += black_box(r.key) as u64);
    gen.suppliers(|r| n += black_box(r.key) as u64);
    gen.parts(|r| n += black_box(r.key) as u64);
    gen.partsupps(|r| n += black_box(r.part) as u64);
    gen.customers(|r| n += black_box(r.key) as u64);
    gen.orders(|o, lines| n += black_box(o.key) as u64 + lines.len() as u64);
    black_box(n);
    let gen_s = t.elapsed().as_secs_f64();
    m.set("tpch.gen_s", gen_s);
    m.set("tpch.load_s", (load_s - gen_s).max(0.0));
}

/// `tpch_query`: one client thread, closed-loop Q1–Q6 passes, no writes.
pub fn run_query(run: &mut Run) {
    let mut times = Vec::new();
    let (gen, db) = setup(run.seed, SETUPS_BEFORE, &mut times).expect("SETUPS_BEFORE ≥ 1");
    let setup_s = median(&times).expect("loads ran");
    let p = Params::default();
    let epoch = Instant::now();
    let mut tr = Tracer::new(run.trace, 0, epoch);

    // Warm-up: caches, lazy set-up, and the reference answers.
    let mut scratch: [Vec<f64>; 6] = Default::default();
    let reference = pass(&db, &p, &mut Tracer::new(false, 0, epoch), 0, &mut scratch);
    let warm_end = Instant::now() + run.warmup;
    let end = warm_end + run.window;
    let before = Counters::read(&db);
    let q = query_loop(&db, warm_end, end, Some(&reference), &mut tr);
    let after = Counters::read(&db);

    run.attempted += q.pass_us.len() as u64 + 1;
    if q.mismatches > 0 {
        run.failed += q.mismatches;
        run.fail(format!(
            "{} passes answered differently from the first",
            q.mismatches
        ));
    }
    record_query_e2e(&q.pass_us, "query pass (Q1-Q6)", run);
    run.m.set(
        "cpu_us_per_op",
        q.cpu_s * 1e6 / q.pass_us.len().max(1) as f64,
    );
    run.m.set("bytes_per_live_byte", footprint_ratio(&db));
    println!(
        "passes: {} timed, {:.1} passes/s",
        q.pass_us.len(),
        q.pass_us.len() as f64 / run.window.as_secs_f64()
    );

    // Correctness, outside the timed window and outside setup_s.
    if cs_answers(&gen, &p) != reference {
        run.failed += 1;
        run.fail("SMC Q1-Q6 answers differ from the columnstore's".into());
    } else {
        println!("check: every Q1-Q6 answer equals the columnstore's");
    }

    if run.trace {
        record_query_layers(&q, &before, &after, &mut run.m);
        run.m.set(
            "obs.trace_overhead_pct",
            overhead_pct(&q.traced_us, &q.untraced_us),
        );
        isolated_probes(&db, run.seed, setup_s, &mut run.m);
        // The read-only window crosses no write layer: probe them briefly.
        let ph = refresh_phase(
            &db,
            run.seed,
            PROBE_WARMUP,
            PROBE_SECS,
            false,
            &mut tr,
            &mut run.m,
        );
        if !ph.verify_errors.is_empty() {
            run.fail(format!("refresh probe verify: {:?}", ph.verify_errors));
        }
    }
    run.tracer.absorb(tr);
    drop(db);
    finish_setup(run, times);
}

/// `tpch_refresh`: one query thread and one refresh thread, both closed
/// loops, with compaction passes running under the scans.
pub fn run_refresh(run: &mut Run) {
    let mut times = Vec::new();
    let (_gen, db) = setup(run.seed, SETUPS_BEFORE, &mut times).expect("SETUPS_BEFORE ≥ 1");
    let setup_s = median(&times).expect("loads ran");
    let loaded = db.lineitems.len();
    let mut tr = Tracer::new(run.trace, 0, Instant::now());
    let before = Counters::read(&db);
    let ph = refresh_phase(
        &db,
        run.seed,
        run.warmup,
        run.window.as_secs_f64(),
        run.trace,
        &mut tr,
        &mut run.m,
    );
    let after = Counters::read(&db);
    let r = &ph.refresh;

    run.attempted += (ph.queries.pass_us.len() + r.pair_us.len()) as u64;
    record_query_e2e(
        &ph.queries.pass_us,
        "query pass (Q1-Q6) beside refresh",
        run,
    );
    match Summary::of(&r.pair_us) {
        Some(s) => println!("ingest (refresh pair): {}", s.describe("us")),
        None => run.fail(format!(
            "only {} refresh pairs in the window",
            r.pair_us.len()
        )),
    }
    let pairs = r.pair_us.len().max(1) as f64;
    println!(
        "ingest_ops_s: {:.2} 1/s (refresh pairs per second)",
        r.pair_us.len() as f64 / ph.window_s
    );
    run.m.set("cpu_us_per_op", r.cpu_s * 1e6 / pairs);
    run.m.set("bytes_per_live_byte", footprint_ratio(&db));

    if !ph.verify_errors.is_empty() {
        run.failed += 1;
        run.fail(format!("verify after quiesce: {:?}", ph.verify_errors));
    } else {
        println!("check: Smc::verify and Runtime::verify pass after quiesce");
    }
    let expect = loaded + r.inserted - r.removed;
    if db.lineitems.len() != expect {
        run.failed += 1;
        run.fail(format!(
            "lineitems {} != loaded {loaded} + inserted {} - removed {}",
            db.lineitems.len(),
            r.inserted,
            r.removed
        ));
    } else {
        println!(
            "check: lineitems {expect} = loaded {loaded} + inserted {} - removed {}",
            r.inserted, r.removed
        );
    }
    if r.live_drift_max > LIVE_TOLERANCE {
        run.fail(format!(
            "live lineitems drifted {:.2} % from the window start (limit {} %)",
            r.live_drift_max * 100.0,
            LIVE_TOLERANCE * 100.0
        ));
    }

    if run.trace {
        record_query_layers(&ph.queries, &before, &after, &mut run.m);
        run.m.set(
            "obs.trace_overhead_pct",
            overhead_pct(&ph.queries.traced_us, &ph.queries.untraced_us),
        );
        isolated_probes(&db, run.seed, setup_s, &mut run.m);
    }
    run.tracer.absorb(tr);
    drop(db);
    finish_setup(run, times);
}

/// Per-layer TPC-H metrics for a workload whose own window crosses no
/// TPC-H layer: load a database, run a short read-only window and a short
/// refresh phase on it.
pub fn layer_probe(run: &mut Run) {
    let (_gen, db, load_s) = load(run.seed);
    let mut off = Tracer::new(false, 0, Instant::now());
    let warm_end = Instant::now() + PROBE_WARMUP;
    let before = Counters::read(&db);
    let q = query_loop(
        &db,
        warm_end,
        warm_end + Duration::from_secs_f64(PROBE_SECS),
        None,
        &mut off,
    );
    let after = Counters::read(&db);
    record_query_layers(&q, &before, &after, &mut run.m);
    isolated_probes(&db, run.seed, load_s, &mut run.m);
    let ph = refresh_phase(
        &db,
        run.seed,
        PROBE_WARMUP,
        PROBE_SECS,
        false,
        &mut off,
        &mut run.m,
    );
    if !ph.verify_errors.is_empty() {
        run.fail(format!("refresh probe verify: {:?}", ph.verify_errors));
    }
}
