//! Benchmark-side spans: each call the benchmark makes into a layer can be
//! wrapped in a span carrying the id of the op it serves. Spans stay in
//! memory (one `Tracer` per thread, no locking) and are written out once,
//! as a Chrome trace, when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::metrics::median;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Id of the op this span serves; spans of one op share it.
    pub op: u64,
    /// Layer call, e.g. `query.q3` or `serve.upsert`.
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Recording thread.
    pub tid: u32,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Duration; `u64::MAX` while open.
    pub dur_ns: u64,
}

/// Handle of an open span (or of nothing, when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Open {
    /// The parent of a top-level span.
    pub const ROOT: Open = Open(None);
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    tid: u32,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread `tid`; records nothing when `on` is false.
    pub fn new(on: bool, tid: u32, epoch: Instant) -> Tracer {
        Tracer {
            on,
            tid,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Opens a span under `parent`.
    pub fn begin(&mut self, op: u64, name: &'static str, parent: Open) -> Open {
        if !self.on {
            return Open(None);
        }
        self.spans.push(Span {
            op,
            name,
            parent: parent.0,
            tid: self.tid,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns: u64::MAX,
        });
        Open(Some(self.spans.len() - 1))
    }

    /// Closes `span`.
    pub fn end(&mut self, span: Open) {
        if let Some(i) = span.0 {
            let now = self.epoch.elapsed().as_nanos() as u64;
            let s = &mut self.spans[i];
            s.dur_ns = now - s.start_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn wrap<R>(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Open,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.begin(op, name, parent);
        let r = f();
        self.end(s);
        r
    }

    /// Closed spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median self time in µs per span name: a span's duration minus the
    /// part its direct children cover.
    pub fn self_time_p50_us(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let self_ns = s.dur_ns.saturating_sub(child);
            by_name
                .entry(s.name)
                .or_default()
                .push(self_ns as f64 / 1e3);
        }
        by_name
            .into_iter()
            .filter_map(|(k, v)| Some((k, median(&v)?)))
            .collect()
    }

    /// Appends `other`'s spans (another thread's), keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes every span as a Chrome trace (`X` events, `args.op`/`args.parent`).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"span\":{i},\"parent\":{parent}}}}}{sep}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.op,
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut t = Tracer::new(true, 0, Instant::now());
        let root = t.begin(7, "outer", Open(None));
        t.wrap(7, "inner", root, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.end(root);
        let st = t.self_time_p50_us();
        assert!(st["inner"] >= 20_000.0);
        assert!(
            st["outer"] < st["inner"],
            "outer's self time excludes inner"
        );
        assert!(t.spans().iter().all(|s| s.op == 7));

        let mut off = Tracer::new(false, 0, Instant::now());
        let s = off.begin(1, "x", Open(None));
        off.end(s);
        assert!(off.spans().is_empty());
    }
}
