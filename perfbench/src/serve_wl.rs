//! `serve_mixed`: an embedded `smc-serve` (2 shards, 1 scan worker each,
//! 2 tenants, a persistence directory) driven by two open-loop client
//! connections, one per tenant, at a fixed rate far below capacity.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use smc::Runtime;
use smc_exec::{ParScan, WorkerPool};
use smc_memory::stats::MemoryStats;
use smc_obs::JsonValue;
use smc_serve::wire::Request;
use smc_serve::{shard_of, Client, Row, Server, ServerConfig, TenantConfig};
use smc_util::rng::Pcg32;

use crate::metrics::{median, Metrics, Summary};
use crate::sched::open_loop;
use crate::spans::{Open, Tracer};
use crate::Run;

const SHARDS: usize = 2;
const WORKERS_PER_SHARD: usize = 1;
const TENANTS: u16 = 2;
/// Keys per tenant, all preloaded: 16-byte rows, ~1.6 MB per tenant, so
/// the dataset fits in cache and the serving path dominates.
const KEYS: u64 = 50_000;
/// Scheduled ops per second per connection. With the op mix below (an
/// ingest op is two requests) this offers 250 wire requests/s in total.
/// On a 2-core host shared with other machines' load, multi-millisecond
/// stalls are common: at 400 requests/s (one op per 6.25 ms per
/// connection) up to 5 % of ops were sent late in some runs, at 250/s
/// (one per 10 ms) at most 0.3 %.
const OPS_PER_S: f64 = 100.0;
/// Op mix in 1/4ths: point, point, ingest, query.
const INGEST_BATCH: usize = 64;
const PRELOAD_BATCH: u64 = 1000;
/// Values are below 2^32 so a full-range `[0, u64::MAX)` scan sees all of
/// them; a query scans a quarter of the value space.
const VALUE_SPACE: u64 = 1 << 32;
const QUERY_WIDTH: u64 = VALUE_SPACE / 4;
/// Server set-ups per run, before and after the window; `setup_s` is
/// their median. One set-up takes tens of milliseconds, so a single one
/// samples host noise; set-ups on both sides of the window sample two
/// moments of a drifting host.
const SETUPS_BEFORE: usize = 5;
const SETUPS_AFTER: usize = 4;
/// Live rows must stay within this share of their count at the window start.
const LIVE_TOLERANCE: f64 = 0.02;
/// At most this share of ops may be sent more than one interval late.
const LATE_LIMIT: f64 = 0.01;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Point,
    Ingest,
    Query,
}

/// One tenant's expected contents: value by key (every key is live
/// between ops).
struct Model {
    values: Vec<u64>,
}

impl Model {
    fn totals(&self) -> (u64, u64) {
        (
            self.values.len() as u64,
            self.values.iter().fold(0u64, |a, v| a.wrapping_add(*v)),
        )
    }
}

fn config(dir: &Path, traced: bool) -> ServerConfig {
    ServerConfig {
        shards: SHARDS,
        workers_per_shard: WORKERS_PER_SHARD,
        tenants: (0..TENANTS)
            .map(|t| TenantConfig {
                name: format!("tenant-{t}"),
                budget_bytes: None,
            })
            .collect(),
        persist_dir: Some(dir.to_path_buf()),
        // The traced run records every request's ring-wait/exec split.
        slow_request_threshold: if traced {
            Duration::ZERO
        } else {
            ServerConfig::default().slow_request_threshold
        },
        ..ServerConfig::default()
    }
}

/// Starts a server on an empty directory and preloads every tenant's
/// whole keyspace. Returns it with the tenants' models and the set-up time.
fn start_and_preload(
    seed: u64,
    dir: &Path,
    traced: bool,
) -> Result<(Server, Vec<Model>, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("persist dir: {e}"))?;
    let t = Instant::now();
    let server = Server::start(config(dir, traced)).map_err(|e| format!("server start: {e}"))?;
    let mut c = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let mut models = Vec::new();
    for tenant in 0..TENANTS {
        let mut rng = Pcg32::seed_from_u64(seed ^ (u64::from(tenant) << 32) ^ 0x10ad);
        let values: Vec<u64> = (0..KEYS).map(|_| rng.gen_range(0..VALUE_SPACE)).collect();
        for lo in (0..KEYS).step_by(PRELOAD_BATCH as usize) {
            let rows: Vec<(u64, u64)> = (lo..(lo + PRELOAD_BATCH).min(KEYS))
                .map(|k| (k, values[k as usize]))
                .collect();
            let n = rows.len() as u64;
            let applied = c
                .upsert(tenant, rows)
                .map_err(|e| format!("preload: {e}"))?;
            if applied != n {
                return Err(format!("preload applied {applied} of {n}"));
            }
        }
        models.push(Model { values });
    }
    Ok((server, models, t.elapsed().as_secs_f64()))
}

/// What one connection measured.
#[derive(Default)]
struct ConnOut {
    lat: [Vec<f64>; 3],
    traced_query_us: Vec<f64>,
    untraced_query_us: Vec<f64>,
    late: u64,
    scheduled: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// When a window's schedule starts, when timing starts, and when it ends.
#[derive(Clone, Copy)]
struct Window {
    start: Instant,
    warm_end: Instant,
    end: Instant,
}

/// One connection's open-loop schedule over `tenant`'s keys. Ops due
/// before `warm_end` run but are not recorded; odd ops record spans in `tr`.
fn connection(
    addr: std::net::SocketAddr,
    tenant: u16,
    model: &mut Model,
    seed: u64,
    w: Window,
    tr: &mut Tracer,
) -> ConnOut {
    let mut off = Tracer::new(false, 0, w.start);
    let mut out = ConnOut::default();
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(format!("connect: {e}"));
            out.failed += 1;
            out.attempted += 1;
            return out;
        }
    };
    let _ = c.set_timeout(Some(Duration::from_secs(10)));
    let mut rng = Pcg32::seed_from_u64(seed ^ (u64::from(tenant) << 40) ^ 0x0be7);
    let interval = Duration::from_secs_f64(1.0 / OPS_PER_S);
    let mut classes = Vec::new();
    let paced = open_loop(w.start, interval, w.end, |i| {
        let op = (u64::from(tenant) << 48) | i;
        let class = match rng.gen_range(0..4u32) {
            0 | 1 => Class::Point,
            2 => Class::Ingest,
            _ => Class::Query,
        };
        classes.push(class);
        // Alternate ops record spans, so tracing overhead is measured
        // within one run under the same host drift.
        let sink: &mut Tracer = if i % 2 == 1 { &mut *tr } else { &mut off };
        let result = match class {
            Class::Point => {
                let key = rng.gen_range(0..KEYS);
                let value = rng.gen_range(0..VALUE_SPACE);
                model.values[key as usize] = value;
                sink.wrap(op, "serve.point", Open::ROOT, || {
                    c.upsert(tenant, vec![(key, value)])
                })
                .map_err(|e| e.to_string())
                .and_then(|n| {
                    if n == 1 {
                        Ok(())
                    } else {
                        Err(format!("point upsert applied {n}"))
                    }
                })
            }
            Class::Ingest => {
                let mut keys: Vec<u64> = Vec::with_capacity(INGEST_BATCH);
                while keys.len() < INGEST_BATCH {
                    let k = rng.gen_range(0..KEYS);
                    if !keys.contains(&k) {
                        keys.push(k);
                    }
                }
                let rows: Vec<(u64, u64)> = keys
                    .iter()
                    .map(|&k| (k, rng.gen_range(0..VALUE_SPACE)))
                    .collect();
                for &(k, v) in &rows {
                    model.values[k as usize] = v;
                }
                let root = sink.begin(op, "serve.ingest", Open::ROOT);
                let del = sink.wrap(op, "serve.delete", root, || c.delete(tenant, keys));
                let ins = sink.wrap(op, "serve.upsert", root, || c.upsert(tenant, rows));
                sink.end(root);
                match (del, ins) {
                    (Ok(d), Ok(u)) if d == INGEST_BATCH as u64 && u == INGEST_BATCH as u64 => {
                        Ok(())
                    }
                    (Ok(d), Ok(u)) => Err(format!(
                        "ingest deleted {d}, re-inserted {u} of {INGEST_BATCH}"
                    )),
                    (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
                }
            }
            Class::Query => {
                let lo = rng.gen_range(0..VALUE_SPACE - QUERY_WIDTH);
                sink.wrap(op, "serve.query", Open::ROOT, || {
                    c.sum(tenant, lo, lo + QUERY_WIDTH)
                })
                .map_err(|e| e.to_string())
                .and_then(|(n, _)| {
                    if n <= KEYS {
                        Ok(())
                    } else {
                        Err(format!("query counted {n} of {KEYS} rows"))
                    }
                })
            }
        };
        out.attempted += 1;
        if let Err(e) = result {
            out.failed += 1;
            if out.errors.len() < 5 {
                out.errors.push(e);
            }
        }
    });
    for p in &paced {
        if p.due < w.warm_end {
            continue;
        }
        out.scheduled += 1;
        out.late += u64::from(p.late);
        let class = classes[p.index as usize];
        let us = p.latency.as_secs_f64() * 1e6;
        out.lat[class as usize].push(us);
        if class == Class::Query {
            if p.index % 2 == 1 {
                &mut out.traced_query_us
            } else {
                &mut out.untraced_query_us
            }
            .push(us);
        }
    }
    out
}

fn tenant_stats(c: &mut Client) -> Result<(u64, u64), String> {
    let s = c.stats().map_err(|e| format!("stats: {e}"))?;
    Ok(s.tenants
        .iter()
        .fold((0, 0), |(b, l), t| (b + t.used_bytes, l + t.live_objects)))
}

/// Full-range count/sum per tenant, compared with the models.
fn check_totals(c: &mut Client, models: &[Model]) -> Result<(), String> {
    for (tenant, model) in models.iter().enumerate() {
        let got = c
            .sum(tenant as u16, 0, u64::MAX)
            .map_err(|e| format!("sum: {e}"))?;
        if got != model.totals() {
            return Err(format!(
                "tenant {tenant}: server (count, sum) {got:?} != model {:?}",
                model.totals()
            ));
        }
    }
    Ok(())
}

fn snapshot_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.components().any(|c| c.as_os_str() == "snapshot") {
                total += e.metadata().map_or(0, |m| m.len());
            }
        }
    }
    total
}

fn attribution_p50_us(doc: &JsonValue, class: &str, part: &str) -> f64 {
    doc.get("attribution")
        .and_then(|a| a.get(class))
        .and_then(|c| c.get(part))
        .and_then(|h| h.get("p50_ns"))
        .and_then(JsonValue::as_f64)
        .map_or(f64::NAN, |ns| ns / 1e3)
}

/// Work directory for the persistence tier, inside the current directory.
fn work_dir(seed: u64, rep: usize) -> PathBuf {
    PathBuf::from(".bench_tmp").join(format!("serve-{}-{seed}-{rep}", std::process::id()))
}

/// Sets up `reps` times, shutting down all but the last server; set-up
/// times are appended to `times`. `None` after a failed set-up.
fn set_up(
    run: &mut Run,
    reps: usize,
    times: &mut Vec<f64>,
) -> Option<(Server, Vec<Model>, PathBuf)> {
    let mut kept: Option<(Server, Vec<Model>, PathBuf)> = None;
    for _ in 0..reps {
        if let Some((mut s, _, dir)) = kept.take() {
            s.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
        let dir = work_dir(run.seed, times.len());
        match start_and_preload(run.seed, &dir, run.trace) {
            Ok((s, models, t)) => {
                times.push(t);
                kept = Some((s, models, dir));
            }
            Err(e) => {
                run.failed += 1;
                run.attempted += 1;
                run.fail(format!("serve set-up: {e}"));
                let _ = std::fs::remove_dir_all(&dir);
                return None;
            }
        }
    }
    kept
}

/// Runs the serve phase: `reps_before` set-ups (keeping the last server),
/// the open-loop window, the drain and a restart on the same directory,
/// then `reps_after` more set-ups. `e2e` records the end-to-end metrics;
/// per-layer metrics are recorded when the run is traced.
fn serve_phase(
    run: &mut Run,
    reps_before: usize,
    reps_after: usize,
    warm: Duration,
    window: Duration,
    e2e: bool,
) {
    let mut setups = Vec::new();
    let Some((mut server, mut models, dir)) = set_up(run, reps_before, &mut setups) else {
        return;
    };
    let result = window_drain_restart(run, &mut server, &mut models, &dir, warm, window, e2e);
    if let Err(e) = result {
        run.failed += 1;
        run.fail(e);
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    if let Some((mut s, _, dir)) = set_up(run, reps_after, &mut setups) {
        s.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }
    println!("serve setup: {} starts + preloads of {TENANTS}×{KEYS} keys, {reps_before} before and {reps_after} after the window: {setups:.3?} s", setups.len());
    if e2e {
        run.m.set("setup_s", median(&setups).expect("reps ≥ 1"));
    }
}

fn window_drain_restart(
    run: &mut Run,
    server: &mut Server,
    models: &mut [Model],
    dir: &Path,
    warm: Duration,
    window: Duration,
    e2e: bool,
) -> Result<(), String> {
    let addr = server.local_addr();
    let mut admin = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // The preloaded contents must match the model before the window opens.
    check_totals(&mut admin, models)?;
    let (_, live_start) = tenant_stats(&mut admin)?;

    let epoch = Instant::now();
    let start = epoch + Duration::from_millis(20);
    let w = Window {
        start,
        warm_end: start + warm,
        end: start + warm + window,
    };
    let seed = run.seed;
    let on = run.trace;
    let mut cpu0 = 0.0;
    let outs: Vec<(ConnOut, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = models
            .iter_mut()
            .enumerate()
            .map(|(t, model)| {
                s.spawn(move || {
                    let mut tr = Tracer::new(on, 10 + t as u32, epoch);
                    let o = connection(addr, t as u16, model, seed, w, &mut tr);
                    (o, tr)
                })
            })
            .collect();
        std::thread::sleep(w.warm_end.saturating_duration_since(Instant::now()));
        cpu0 = crate::host::process_cpu_s();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let cpu = crate::host::process_cpu_s() - cpu0;

    let mut lat: [Vec<f64>; 3] = Default::default();
    let (mut traced_q, mut untraced_q) = (Vec::new(), Vec::new());
    let (mut late, mut scheduled) = (0u64, 0u64);
    for (o, tr) in outs {
        for (all, mine) in lat.iter_mut().zip(o.lat) {
            all.extend(mine);
        }
        traced_q.extend(o.traced_query_us);
        untraced_q.extend(o.untraced_query_us);
        late += o.late;
        scheduled += o.scheduled;
        run.attempted += o.attempted;
        run.failed += o.failed;
        for e in o.errors {
            run.fail(format!("request failed: {e}"));
        }
        run.tracer.absorb(tr);
    }
    let late_frac = late as f64 / scheduled.max(1) as f64;
    println!(
        "serve window: {scheduled} timed ops at {:.0} req/s offered, late {:.3} %",
        OPS_PER_S * f64::from(TENANTS) * 1.25,
        late_frac * 100.0
    );
    for (class, name) in [
        (Class::Point, "point"),
        (Class::Ingest, "ingest"),
        (Class::Query, "query"),
    ] {
        match Summary::of(&lat[class as usize]) {
            Some(s) => println!("{name}: {} (from due time)", s.describe("us")),
            None => return Err(format!("{name}: too few samples for a tail")),
        }
    }
    // The steady-state rule holds for the workload's own window; a short
    // probe inside another workload's traced run only reports lateness.
    if e2e && late_frac > LATE_LIMIT {
        return Err(format!(
            "load generator fell behind: {:.2} % of ops sent late (limit {} %)",
            late_frac * 100.0,
            LATE_LIMIT * 100.0
        ));
    }

    check_totals(&mut admin, models)?;
    let (used, live_end) = tenant_stats(&mut admin)?;
    let drift = (live_end as f64 - live_start as f64).abs() / live_start as f64;
    if drift > LIVE_TOLERANCE {
        return Err(format!(
            "live rows drifted {:.2} % (limit {} %)",
            drift * 100.0,
            LIVE_TOLERANCE * 100.0
        ));
    }
    println!("check: per-tenant full-range count/sum match the model; live rows {live_start} -> {live_end}");

    if e2e {
        let q = Summary::of(&lat[Class::Query as usize]).expect("checked above");
        run.m.set("query_p50_us", q.p50);
        run.m.set("query_tail_us", q.tail);
        let window_requests = lat[0].len() + 2 * lat[1].len() + lat[2].len();
        run.m
            .set("cpu_us_per_op", cpu * 1e6 / window_requests.max(1) as f64);
        run.m.set(
            "bytes_per_live_byte",
            used as f64 / (live_end as f64 * std::mem::size_of::<Row>() as f64),
        );
    }
    if run.trace {
        let doc = admin.scrape().map_err(|e| format!("scrape: {e}"))?;
        run.m.set(
            "serve.ring_wait_us.ingest",
            attribution_p50_us(&doc, "ingest", "ring_wait_ns"),
        );
        run.m.set(
            "serve.exec_us.ingest",
            attribution_p50_us(&doc, "ingest", "exec_ns"),
        );
        run.m.set(
            "serve.ring_wait_us.query",
            attribution_p50_us(&doc, "query", "ring_wait_ns"),
        );
        run.m.set(
            "serve.exec_us.query",
            attribution_p50_us(&doc, "query", "exec_ns"),
        );
        let pings: Vec<f64> = (0..200)
            .map(|_| {
                let t = Instant::now();
                admin.ping().map(|_| t.elapsed().as_secs_f64() * 1e6)
            })
            .collect::<Result<_, _>>()
            .map_err(|e| format!("ping: {e}"))?;
        run.m
            .set("serve.ping_us", median(&pings).expect("200 pings"));
        run.m.set("loadgen.late_frac", late_frac);
        if e2e {
            run.m.set(
                "obs.trace_overhead_pct",
                match (median(&traced_q), median(&untraced_q)) {
                    (Some(t), Some(u)) => (t / u - 1.0) * 100.0,
                    _ => f64::NAN,
                },
            );
        }
    }
    drop(admin);

    // Durability: drain, then restart on the same directory.
    let t = Instant::now();
    let report = server.shutdown();
    let drain_ms = t.elapsed().as_secs_f64() * 1e3;
    if !report.clean() {
        return Err(format!("drain verify failed: {:?}", report.verify_errors()));
    }
    let snap_bytes = snapshot_bytes(dir);
    let t = Instant::now();
    let mut restarted = Server::start(config(dir, false)).map_err(|e| format!("restart: {e}"))?;
    let mut c = Client::connect(restarted.local_addr())
        .map_err(|e| format!("connect after restart: {e}"))?;
    let recovered = check_totals(&mut c, models);
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(c);
    let report2 = restarted.shutdown();
    recovered.map_err(|e| format!("after restart: {e}"))?;
    if !report2.clean() {
        return Err(format!(
            "drain after restart failed: {:?}",
            report2.verify_errors()
        ));
    }
    println!("check: drain verified clean; restart on the same directory answers the same ({drain_ms:.1} ms drain, {recover_ms:.1} ms recover)");
    if run.trace {
        run.m.set("persist.drain_ms", drain_ms);
        run.m.set("persist.recover_ms", recover_ms);
        run.m.set(
            "persist.snapshot_bytes_per_live_byte",
            snap_bytes as f64 / (live_end as f64 * std::mem::size_of::<Row>() as f64),
        );
    }
    Ok(())
}

/// Isolated probes of the serving layers that need no server: wire
/// encode/decode of the workload's own requests, routing, and one
/// shard-sized morsel-parallel scan.
pub fn isolated_probes(seed: u64, m: &mut Metrics) {
    let mut rng = Pcg32::seed_from_u64(seed ^ 0x3173);
    let reqs: Vec<Request> = (0..1000)
        .map(|i| match i % 4 {
            0 | 1 => Request::Upsert {
                tenant: 0,
                rows: vec![(rng.gen_range(0..KEYS), rng.gen_range(0..VALUE_SPACE))],
            },
            2 => Request::Delete {
                tenant: 0,
                keys: (0..INGEST_BATCH).map(|_| rng.gen_range(0..KEYS)).collect(),
            },
            _ => Request::Sum {
                tenant: 0,
                lo: 0,
                hi: QUERY_WIDTH,
            },
        })
        .collect();
    let encoded: Vec<Vec<u8>> = reqs.iter().map(Request::encode).collect();
    let per_req = |f: &dyn Fn()| {
        let runs: Vec<f64> = (0..7)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos() as f64 / reqs.len() as f64
            })
            .collect();
        median(&runs).expect("seven runs")
    };
    m.set(
        "serve.wire_encode_ns",
        per_req(&|| {
            for r in &reqs {
                black_box(r.encode());
            }
        }),
    );
    m.set(
        "serve.wire_decode_ns",
        per_req(&|| {
            for b in &encoded {
                black_box(Request::decode(b).expect("own encoding decodes"));
            }
        }),
    );
    let batch: Vec<u64> = (0..INGEST_BATCH).map(|_| rng.gen_range(0..KEYS)).collect();
    const ROUNDS: u32 = 20_000;
    let runs: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..ROUNDS {
                let mut per_shard = [0usize; SHARDS];
                for &k in black_box(&batch) {
                    per_shard[shard_of(k, SHARDS)] += 1;
                }
                black_box(per_shard);
            }
            t.elapsed().as_nanos() as f64 / f64::from(ROUNDS)
        })
        .collect();
    m.set("serve.route_ns", median(&runs).expect("seven runs"));

    // One tenant's slice on one shard.
    let rt = Runtime::new();
    let smc: smc::Smc<Row> = smc::Smc::new(&rt);
    for key in 0..KEYS / SHARDS as u64 {
        smc.add(Row {
            key,
            value: rng.gen_range(0..VALUE_SPACE),
        });
    }
    let pool = WorkerPool::for_runtime(&rt, WORKERS_PER_SHARD).expect("register scan worker");
    let morsels0 = MemoryStats::get(&rt.stats.morsels_dispatched);
    const SCANS: usize = 300;
    let scans: Vec<f64> = (0..SCANS)
        .map(|i| {
            let lo = (i as u64 * 7919) % (VALUE_SPACE - QUERY_WIDTH);
            let t = Instant::now();
            let r = ParScan::new(&smc, &pool).filter_fold(
                || (0u64, 0u64),
                |row: &Row| row.value >= lo && row.value < lo + QUERY_WIDTH,
                |a, row| {
                    a.0 += 1;
                    a.1 = a.1.wrapping_add(row.value);
                },
                |a, p| {
                    a.0 += p.0;
                    a.1 = a.1.wrapping_add(p.1);
                },
            );
            black_box(r);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.set("exec.scan_us", median(&scans).expect("scans ran"));
    m.set(
        "exec.morsels_per_query",
        (MemoryStats::get(&rt.stats.morsels_dispatched) - morsels0) as f64 / SCANS as f64,
    );
}

/// The `serve_mixed` workload.
pub fn run_mixed(run: &mut Run) {
    let (warm, window) = (run.warmup, run.window);
    serve_phase(run, SETUPS_BEFORE, SETUPS_AFTER, warm, window, true);
}

/// Per-layer serving metrics for a workload whose own window crosses no
/// serving layer: one set-up and a short window.
pub fn layer_probe(run: &mut Run) {
    serve_phase(
        run,
        1,
        0,
        Duration::from_millis(300),
        Duration::from_secs(3),
        false,
    );
}
