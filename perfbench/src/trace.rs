//! In-memory spans for the traced run.
//!
//! The benchmark records spans from its own code, around each call it
//! makes into a layer: a span is a name, a start, a duration, the span
//! that caused it and the request (one batch or one cell) it belongs
//! to. Calls too fine-grained to keep one by one (a store word, a
//! simulator `next_op`) are folded into one *aggregate* span per parent
//! that carries the call count and their summed duration; such calls
//! run one after another on the parent's thread, so their sum is the
//! part of the parent they cover. Spans stay in memory and are written
//! out when the run ends.
//!
//! Some of the benchmark's spans are *containers*: they exist to hold a
//! client window, a sim pass or a cell, and their self time is whatever
//! no named span covers. The reconciliation leaves them out, so time
//! that no layer or named benchmark span accounts for shows as a gap.

use crate::{Args, Outcome};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// What timing a call that does nothing reads, in ns: the part of the
/// two clock reads that lands inside the measured interval. Wrappers
/// subtract it from every call they time. Measured once per process as
/// the median of 15 rounds of 1,000 empty timings.
pub fn clock_bias_ns() -> u64 {
    static BIAS: OnceLock<u64> = OnceLock::new();
    *BIAS.get_or_init(|| {
        let mut rounds: Vec<u64> = (0..15)
            .map(|_| {
                let mut ns = 0u64;
                for _ in 0..1000 {
                    let t0 = Instant::now();
                    ns += t0.elapsed().as_nanos() as u64;
                }
                ns / 1000
            })
            .collect();
        rounds.sort_unstable();
        rounds[rounds.len() / 2]
    })
}

/// One recorded span, or an aggregate of `calls` sequential calls.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique id; 0 is reserved for "no parent".
    pub id: u64,
    /// The span this one ran inside, or 0 for a root.
    pub parent: u64,
    /// The request (batch or cell) the span belongs to.
    pub request: u64,
    /// `layer.call` name.
    pub name: &'static str,
    /// Start, in ns since the run's epoch (first call for aggregates).
    pub start_ns: u64,
    /// Duration in ns (summed over calls for aggregates).
    pub dur_ns: u64,
    /// 1 for a single call.
    pub calls: u64,
}

/// Spans that only hold others; their self time is unattributed.
pub const CONTAINERS: &[&str] = &["bench.client", "bench.pass", "bench.cell"];

/// The run's span buffer.
pub struct Tracer {
    epoch: Instant,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty buffer whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            next: 1,
            spans: Vec::new(),
        }
    }

    /// Reserves an id for a span whose children finish before it does.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        self.next - 1
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records the finished call `[start, end)` under a reserved `id`.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            dur_ns: self.ns(end).saturating_sub(start_ns),
            calls: 1,
        });
    }

    /// Records `[start, end)` under a fresh id and returns it.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.record(id, name, parent, request, start, end);
        id
    }

    /// Records `calls` sequential calls inside `parent` (which started
    /// at `start`) that took `dur_ns` in total. Nothing is kept for zero
    /// calls.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        calls: u64,
        dur_ns: u64,
    ) {
        if calls == 0 {
            return;
        }
        let id = self.id();
        let start_ns = self.ns(start);
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            dur_ns,
            calls,
        });
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Calls, total and self time of every span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Row {
    /// Calls (aggregates count each folded call).
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time their child spans cover.
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the summed
/// durations of its children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Row> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(s.parent).or_default() += s.dur_ns;
    }
    let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
    for s in spans {
        let row = rows.entry(s.name).or_default();
        row.calls += s.calls;
        row.total_ns += s.dur_ns;
        row.self_ns += s
            .dur_ns
            .saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
    }
    rows
}

/// Prints the self-time table and the reconciliation against `e2e_ns`,
/// the traced window's wall time: the self times of every span but the
/// [`CONTAINERS`] must sum to it. Returns the gap between the two as a
/// percentage of `e2e_ns`.
fn print_table(rows: &BTreeMap<&'static str, Row>, e2e_ns: u64) -> f64 {
    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>8}",
        "span", "calls", "total ms", "self ms", "self %"
    );
    let (mut named, mut unattributed) = (0u64, 0u64);
    for (name, row) in rows {
        if CONTAINERS.contains(name) {
            unattributed += row.self_ns;
        } else {
            named += row.self_ns;
        }
        println!(
            "{:<24} {:>12} {:>12.1} {:>12.1} {:>8.2}",
            name,
            row.calls,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            100.0 * row.self_ns as f64 / e2e_ns.max(1) as f64,
        );
    }
    let gap = 100.0 * (named as f64 - e2e_ns as f64).abs() / e2e_ns.max(1) as f64;
    println!(
        "named spans' self times sum to {:.1} ms ({:.1} ms unattributed in {}); \
         traced end-to-end time (wall) is {:.1} ms: {gap:.3}% apart (tolerance \
         {RECONCILE_TOLERANCE_PCT}%)",
        named as f64 / 1e6,
        unattributed as f64 / 1e6,
        CONTAINERS.join(", "),
        e2e_ns as f64 / 1e6,
    );
    gap
}

/// How far the summed self times may sit from the traced end-to-end
/// time, in percent, before the run counts as failed.
const RECONCILE_TOLERANCE_PCT: f64 = 2.0;

/// Closes a traced run: prints the self-time table and checks it
/// against `e2e_ns`, writes the spans to the workload's file under
/// `args.out`, and records the tracing overhead of the traced
/// `work_per_s_p10` against the untraced one. Returns the self times.
pub fn finish(
    spans: &[Span],
    e2e_ns: u64,
    args: &Args,
    (untraced, traced): (f64, f64),
    out: &mut Outcome,
) -> BTreeMap<&'static str, Row> {
    let rows = self_times(spans);
    let gap = print_table(&rows, e2e_ns);
    if gap > RECONCILE_TOLERANCE_PCT {
        out.broken.push(format!(
            "self times miss the traced end-to-end time by {gap:.2}%"
        ));
    }
    let path = args.out.join(format!(
        "{}-seed{}-spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    match write_jsonl(&path, spans) {
        Ok(()) => println!("{} spans written to {}", spans.len(), path.display()),
        Err(e) => out
            .broken
            .push(format!("could not write {}: {e}", path.display())),
    }
    let overhead = 100.0 * (untraced - traced) / untraced;
    println!(
        "tracing overhead: work_per_s_p10 untraced {untraced:.0}, traced {traced:.0} ({overhead:+.2}%)"
    );
    out.set("trace.overhead_pct", overhead);
    out.set("trace.reconcile_gap_pct", gap);
    rows
}

/// Writes one JSON object per span, one per line.
fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"calls\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.dur_ns, s.calls
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut t = Tracer::new(epoch);
        let root = t.id();
        t.span("child", root, 7, at(10), at(40));
        t.aggregate("fine", root, 7, at(50), 3, 20_000);
        t.record(root, "root", 0, 7, at(0), at(100));
        let rows = self_times(&t.into_spans());
        assert_eq!(rows["root"].self_ns, 50_000);
        assert_eq!(rows["child"].self_ns, 30_000);
        assert_eq!(rows["fine"].calls, 3);
        let sum: u64 = rows.values().map(|r| r.self_ns).sum();
        assert_eq!(sum, 100_000, "self times partition the root");
    }

    #[test]
    fn container_self_time_is_a_reconcile_gap() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut t = Tracer::new(epoch);
        let root = t.id();
        t.span("mem.batch_read", root, 1, at(0), at(90));
        t.record(root, "bench.client", 0, 0, at(0), at(100));
        let rows = self_times(&t.into_spans());
        let gap = print_table(&rows, 100_000);
        assert!((gap - 10.0).abs() < 1e-9, "the 10 us no span names: {gap}");
    }
}
