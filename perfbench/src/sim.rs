//! The simulator workload: whole passes over the 12-cell tiny grid (4
//! engines x {bfs, canneal, streamcluster} on `table1`, with the
//! `goldens/tiny` windows), each cell built as a `Machine` the way
//! `RunMatrix::run` builds it. A set-up pass through
//! `RunMatrix::run_cell` gives every cell's reference snapshot; each
//! timed cell must reproduce its reference byte for byte, and at the
//! golden seed the references must match `goldens/tiny` exactly.

use crate::stats::{self, Latencies};
use crate::trace::{self, Tracer};
use crate::{Args, Outcome};
use clme_cache::hierarchy::MemorySystemCaches;
use clme_core::build_engine;
use clme_core::engine::{EncryptionEngine, EngineKind, ReadMissOutcome, WritebackOutcome};
use clme_core::stats::EngineStats;
use clme_dram::timing::Dram;
use clme_obs::{SeriesRecorder, TraceSink, DEFAULT_EPOCH_CYCLES};
use clme_sim::matrix::all_engines;
use clme_sim::{compare, Machine, MatrixCell, RunMatrix, SimParams, StatsSnapshot, Tolerance};
use clme_types::config::SystemConfig;
use clme_types::{BlockAddr, Time};
use clme_workloads::{suites, Op, Workload};
use std::cell::Cell;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// The seed `goldens/tiny` was recorded at.
pub const GOLDEN_SEED: u64 = 0x00C0_FFEE;

/// Timed passes per `--seconds` (one pass takes about 0.55 s on a
/// 2-CPU x86-64 host). A fixed count, not a deadline, so every run has
/// the same cell mix.
const PASSES_PER_SECOND: u64 = 2;

/// The 12-cell tiny grid at `seed`, with the windows its goldens use.
pub fn tiny_matrix(seed: u64) -> RunMatrix {
    RunMatrix::new(
        SimParams {
            functional_warmup_accesses: 20_000,
            warmup_per_core: 10_000,
            measure_per_core: 20_000,
        },
        seed,
    )
    .benches(["bfs", "canneal", "streamcluster"])
    .engines(all_engines())
    .configs([("table1".to_string(), SystemConfig::isca_table1())])
}

// ---------------------------------------------------------------------
// Forwarding wrappers
// ---------------------------------------------------------------------

/// Calls counted and timed by a wrapper, shared with the cell runner.
/// A wrapper times a pseudo-random `1 / every` of its calls; the time of
/// all calls is then the sampled mean times the exact call count.
#[derive(Clone, Copy, Debug)]
struct Tally {
    calls: u64,
    sampled: u64,
    sampled_ns: u64,
    every: u64,
    lcg: u64,
    bias_ns: u64,
}

impl Tally {
    fn new(every: u64) -> SharedTally {
        Rc::new(Cell::new(Tally {
            calls: 0,
            sampled: 0,
            sampled_ns: 0,
            every,
            lcg: 0x2545_F491_4F6C_DD1D,
            bias_ns: trace::clock_bias_ns(),
        }))
    }

    /// Estimated ns spent in all calls.
    fn ns(&self) -> u64 {
        (self.sampled_ns as f64 * stats::ratio(self.calls as f64, self.sampled as f64)) as u64
    }
}

/// Returns the tally and starts a new one with the same sampling.
fn take(tally: &SharedTally) -> Tally {
    let t = tally.get();
    tally.set(Tally {
        calls: 0,
        sampled: 0,
        sampled_ns: 0,
        ..t
    });
    t
}

type SharedTally = Rc<Cell<Tally>>;

fn timed<T>(tally: &SharedTally, f: impl FnOnce() -> T) -> T {
    let mut t = tally.get();
    t.calls += 1;
    t.lcg = t
        .lcg
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    let out = if (t.lcg >> 33).is_multiple_of(t.every) {
        let t0 = Instant::now();
        let out = f();
        t.sampled += 1;
        t.sampled_ns += (t0.elapsed().as_nanos() as u64).saturating_sub(t.bias_ns);
        out
    } else {
        f()
    };
    tally.set(t);
    out
}

/// `next_op` calls are a few tens of ns each; timing every one would
/// double their cost, so one in this many is timed.
const OP_SAMPLE_EVERY: u64 = 16;

/// An `EncryptionEngine` that forwards every call and times the memory
/// requests (including the DRAM model calls the engine makes).
struct TimedEngine {
    inner: Box<dyn EncryptionEngine>,
    tally: SharedTally,
}

impl EncryptionEngine for TimedEngine {
    fn kind(&self) -> EngineKind {
        self.inner.kind()
    }

    fn on_read_miss(&mut self, block: BlockAddr, issue: Time, dram: &mut Dram) -> ReadMissOutcome {
        timed(&self.tally, || self.inner.on_read_miss(block, issue, dram))
    }

    fn on_read_miss_obs(
        &mut self,
        block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> ReadMissOutcome {
        timed(&self.tally, || {
            self.inner.on_read_miss_obs(block, issue, dram, obs)
        })
    }

    fn on_prefetch_fill(&mut self, block: BlockAddr, issue: Time, dram: &mut Dram) -> Time {
        timed(&self.tally, || {
            self.inner.on_prefetch_fill(block, issue, dram)
        })
    }

    fn on_prefetch_fill_obs(
        &mut self,
        block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> Time {
        timed(&self.tally, || {
            self.inner.on_prefetch_fill_obs(block, issue, dram, obs)
        })
    }

    fn on_writeback(&mut self, block: BlockAddr, now: Time, dram: &mut Dram) -> WritebackOutcome {
        timed(&self.tally, || self.inner.on_writeback(block, now, dram))
    }

    fn on_writeback_obs(
        &mut self,
        block: BlockAddr,
        now: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> WritebackOutcome {
        timed(&self.tally, || {
            self.inner.on_writeback_obs(block, now, dram, obs)
        })
    }

    fn stats(&self) -> &EngineStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
}

/// A `Workload` that forwards every call and times `next_op`.
struct TimedWorkload {
    inner: Box<dyn Workload>,
    tally: SharedTally,
}

impl Workload for TimedWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_op(&mut self) -> Op {
        timed(&self.tally, || self.inner.next_op())
    }

    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint_bytes()
    }
}

// ---------------------------------------------------------------------
// Cells and passes
// ---------------------------------------------------------------------

/// The grid, its reference snapshots, and the machine parts reused
/// from cell to cell (all cells share one configuration).
struct Grid {
    matrix: RunMatrix,
    cells: Vec<MatrixCell>,
    reference: Vec<StatsSnapshot>,
    parts: Option<(MemorySystemCaches, Dram)>,
}

impl Grid {
    /// Builds the grid and runs the untimed reference pass.
    fn new(seed: u64) -> Grid {
        let matrix = tiny_matrix(seed);
        let cells = matrix.cells();
        let reference = cells.iter().map(|c| matrix.run_cell(c)).collect();
        Grid {
            matrix,
            cells,
            reference,
            parts: None,
        }
    }
}

/// What one cell took, whole and in its warm-up, and what it produced.
struct CellRun {
    snapshot: StatsSnapshot,
    warmup_ns: u64,
    /// Machine build to captured snapshot.
    cell_ns: u64,
}

/// The span context of a traced cell.
struct CellTrace<'a> {
    tracer: &'a mut Tracer,
    parent: u64,
    request: u64,
}

/// Runs cell `i` on a machine built like `RunMatrix::run` builds it;
/// with `trace`, through the forwarding wrappers and under spans.
fn run_cell(grid: &mut Grid, i: usize, trace: Option<CellTrace<'_>>) -> CellRun {
    let cell = &grid.cells[i];
    let params = grid.matrix.params();
    let seed = grid.matrix.cell_seed(cell);
    let engine_tally = Tally::new(1);
    let op_tally = Tally::new(OP_SAMPLE_EVERY);

    let t0 = Instant::now();
    let mut engine = build_engine(cell.engine, &cell.config, suites::address_space_blocks());
    let mut workloads: Vec<Box<dyn Workload>> = (0..cell.config.cores)
        .map(|c| suites::instantiate_seeded(&cell.bench, c, seed))
        .collect();
    if trace.is_some() {
        engine = Box::new(TimedEngine {
            inner: engine,
            tally: engine_tally.clone(),
        });
        workloads = workloads
            .into_iter()
            .map(|w| {
                Box::new(TimedWorkload {
                    inner: w,
                    tally: op_tally.clone(),
                }) as Box<dyn Workload>
            })
            .collect();
    }
    let mut machine = match grid.parts.take() {
        Some((caches, dram)) => {
            Machine::from_parts(cell.config.clone(), engine, workloads, caches, dram)
        }
        None => Machine::new(cell.config.clone(), engine, workloads),
    };
    machine.set_sink(Box::new(SeriesRecorder::new(
        DEFAULT_EPOCH_CYCLES,
        cell.config.core_period(),
    )));
    let t1 = Instant::now();
    machine.functional_warmup(params.functional_warmup_accesses);
    let t2 = Instant::now();
    let warm_ops = take(&op_tally);
    let result = machine.run(params.warmup_per_core, params.measure_per_core);
    let t3 = Instant::now();
    let recorder = machine
        .take_sink()
        .into_any()
        .downcast::<SeriesRecorder>()
        .expect("the sink installed above is a SeriesRecorder");
    grid.parts = Some(machine.into_parts());
    let blame = recorder.blame_tally().clone();
    let snapshot = StatsSnapshot::capture_with_series(
        &result,
        &cell.config_name,
        seed,
        &recorder.into_series(),
        &blame,
    );
    let t4 = Instant::now();

    if let Some(CellTrace {
        tracer,
        parent,
        request,
    }) = trace
    {
        tracer.span("sim.build", parent, request, t0, t1);
        let warm = tracer.span("sim.warmup", parent, request, t1, t2);
        tracer.aggregate(
            "workloads.next_op",
            warm,
            request,
            t1,
            warm_ops.calls,
            warm_ops.ns(),
        );
        let run = tracer.span("sim.run", parent, request, t2, t3);
        let run_ops = take(&op_tally);
        let engine_calls = take(&engine_tally);
        tracer.aggregate(
            "workloads.next_op",
            run,
            request,
            t2,
            run_ops.calls,
            run_ops.ns(),
        );
        tracer.aggregate(
            "engine.call",
            run,
            request,
            t2,
            engine_calls.calls,
            engine_calls.ns(),
        );
        tracer.span("sim.capture", parent, request, t3, t4);
    }
    CellRun {
        snapshot,
        warmup_ns: (t2 - t1).as_nanos() as u64,
        cell_ns: (t4 - t0).as_nanos() as u64,
    }
}

/// Per-pass results.
#[derive(Default)]
struct Passes {
    /// Simulated instructions per host second, one per pass.
    rates: Vec<f64>,
    /// Whole-cell latencies. A cell's `Machine::run` alone would not
    /// do: the slowest of the 12 cells is 1/12 of the samples, so the
    /// p95 fell in the middle of that one cell's times, where it
    /// followed the host's fast and slow periods.
    cells: Latencies,
    /// Per-cell `Machine::functional_warmup` latencies.
    warmups: Latencies,
    instructions: f64,
    dram_accesses: f64,
    wall_ns: u64,
}

/// Runs `passes` whole passes over the grid, checking every cell
/// against its reference snapshot.
fn run_passes(
    grid: &mut Grid,
    passes: u64,
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Passes {
    let mut p = Passes::default();
    let start = Instant::now();
    for pass in 0..passes {
        let p0 = Instant::now();
        let root = tracer.as_mut().map_or(0, |t| t.id());
        let mut instructions = 0.0;
        let mut dram = 0.0;
        for i in 0..grid.cells.len() {
            let request = pass * grid.cells.len() as u64 + i as u64 + 1;
            let c0 = Instant::now();
            let cell_id = tracer.as_mut().map_or(0, |t| t.id());
            let trace = tracer.as_mut().map(|t| CellTrace {
                tracer: t,
                parent: cell_id,
                request,
            });
            let run = run_cell(grid, i, trace);
            let k0 = Instant::now();
            out.attempted += 1;
            if run.snapshot.to_json() != grid.reference[i].to_json() {
                out.failed += 1;
            }
            let k1 = Instant::now();
            if let Some(t) = tracer.as_mut() {
                t.span("bench.check", cell_id, request, k0, k1);
                t.record(cell_id, "bench.cell", root, request, c0, k1);
            }
            p.cells.push_ns(run.cell_ns);
            p.warmups.push_ns(run.warmup_ns);
            let metric = |name: &str| run.snapshot.metric(name).unwrap_or(0.0);
            instructions += metric("instructions");
            dram += metric("dram.reads") + metric("dram.writes");
        }
        let p1 = Instant::now();
        if let Some(t) = tracer.as_mut() {
            t.record(root, "bench.pass", 0, pass, p0, p1);
        }
        p.rates.push(instructions / (p1 - p0).as_secs_f64());
        p.instructions = instructions;
        p.dram_accesses = dram;
    }
    p.wall_ns = start.elapsed().as_nanos() as u64;
    p
}

/// Compares the reference snapshots with the goldens in `dir` exactly;
/// each deviating or missing cell counts as a failed operation.
fn check_goldens(grid: &Grid, dir: &Path, out: &mut Outcome) {
    for snap in &grid.reference {
        out.attempted += 1;
        let path = dir.join(format!("{}.json", snap.file_stem()));
        let golden = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| StatsSnapshot::from_json(&text));
        let deviations = match golden {
            Ok(golden) => compare(&golden, snap, Tolerance::exact()),
            Err(e) => vec![format!("{}: {e}", path.display())],
        };
        if !deviations.is_empty() {
            out.failed += 1;
            println!(
                "golden mismatch {}: {}",
                snap.label(),
                deviations.join("; ")
            );
        }
    }
}

/// Runs sim-tiny: the end-to-end metrics, or with `--trace 1` untraced
/// and traced passes plus the per-layer metrics.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let build = || Ok::<_, String>(Grid::new(args.seed));
    let mut setups = crate::SetUps::default();
    let mut grid = setups.round(build)?;
    if args.seed == GOLDEN_SEED {
        check_goldens(&grid, Path::new("goldens/tiny"), &mut out);
    }
    let passes = PASSES_PER_SECOND * args.seconds;

    if !args.trace {
        let p = run_passes(&mut grid, passes, None, &mut out);
        let (r50, r95, r_beyond) = p.cells.summary();
        let (w50, w95, w_beyond) = p.warmups.summary();
        println!(
            "{passes} passes of {} cells in {:.2} s ({r_beyond} cells beyond each p95: {w_beyond})",
            grid.cells.len(),
            p.wall_ns as f64 / 1e9,
        );
        println!("read_* = whole-cell latency; write_* = per-cell functional_warmup latency");
        println!("medians (not gated): read {r50:.1} us, write {w50:.1} us");
        drop(grid);
        setups.round(build)?;
        out.set("work_per_s_p10", stats::sustained(&p.rates));
        out.set("read_p95_us", r95);
        out.set("write_p95_us", w95);
        out.set("setup_s", setups.median());
        return Ok(out);
    }

    let half = (passes / 2).max(1);
    let untraced = stats::sustained(&run_passes(&mut grid, half, None, &mut out).rates);
    let mut tracer = Tracer::new(Instant::now());
    let p = run_passes(&mut grid, half, Some(&mut tracer), &mut out);
    println!("traced passes ({half}):");
    let traced = stats::sustained(&p.rates);
    let rows = trace::finish(
        &tracer.into_spans(),
        p.wall_ns,
        args,
        (untraced, traced),
        &mut out,
    );

    let row = |name: &str| rows.get(name).copied().unwrap_or_default();
    let (build, warmup, run, capture) = (
        row("sim.build"),
        row("sim.warmup"),
        row("sim.run"),
        row("sim.capture"),
    );
    let (ops, engine) = (row("workloads.next_op"), row("engine.call"));
    let total = (build.total_ns + warmup.total_ns + run.total_ns + capture.total_ns) as f64;
    let share = |ns: u64| stats::ratio(ns as f64, total);
    let shares = [
        ("sim.warmup_share", share(warmup.self_ns)),
        ("sim.engine_share", share(engine.total_ns)),
        ("sim.trace_share", share(ops.total_ns)),
    ];
    for (name, value) in shares {
        out.set(name, value);
    }
    out.set(
        "sim.other_share",
        1.0 - shares.iter().map(|s| s.1).sum::<f64>(),
    );
    out.set(
        "sim.run_ns_per_instr",
        stats::ratio(run.total_ns as f64, p.instructions * half as f64),
    );
    out.set("sim.instructions", p.instructions);
    out.set("sim.dram_accesses", p.dram_accesses);
    out.set(
        "workloads.next_op_ns",
        stats::ratio(ops.total_ns as f64, ops.calls as f64),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapped_cells_match_run_cell_byte_for_byte() {
        let mut grid = Grid::new(7);
        let mut tracer = Tracer::new(Instant::now());
        for i in 0..grid.cells.len() {
            let trace = CellTrace {
                tracer: &mut tracer,
                parent: 0,
                request: i as u64,
            };
            let run = run_cell(&mut grid, i, Some(trace));
            assert_eq!(
                run.snapshot.to_json(),
                grid.reference[i].to_json(),
                "{}",
                grid.cells[i].label()
            );
        }
        let rows = trace::self_times(&tracer.into_spans());
        assert!(
            rows["engine.call"].calls > 0,
            "the engine wrapper saw the misses"
        );
        assert!(
            rows["workloads.next_op"].calls > 0,
            "the workload wrapper saw the ops"
        );
    }

    #[test]
    fn golden_seed_references_match_goldens() {
        let grid = Grid::new(GOLDEN_SEED);
        let mut out = Outcome::default();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../goldens/tiny");
        check_goldens(&grid, &dir, &mut out);
        assert_eq!((out.attempted, out.failed), (12, 0));
    }
}
