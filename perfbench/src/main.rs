//! The repository benchmark: drives the public APIs of `clme-mem` and
//! `clme-sim` on named workloads, checks every output, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`). The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mem-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run it from the repository root: the sim workload reads
//! `goldens/tiny`, and the traced run writes its spans under
//! `perfbench/out/`. See `perfbench/README.md` for what each workload
//! stresses and why the metrics are defined as they are.

mod ladder;
mod mem;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, printed by every untraced run, in order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("work_per_s_p10", "1/s"),
    ("read_p95_us", "us"),
    ("write_p95_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run, in order. A layer
/// the workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.compose_us_per_batch", "us"),
    ("workloads.next_op_ns", "ns"),
    ("mem.batch_calls", "count"),
    ("mem.read.self_us", "us"),
    ("mem.write.self_us", "us"),
    ("mem.cache.full_hit_ratio", "1"),
    ("mem.cache.partial_hit_ratio", "1"),
    ("mem.cache.miss_ratio", "1"),
    ("mem.cache.invalidations_per_write_batch", "count"),
    ("mem.page_rolls_per_kwrite", "count"),
    ("mem.lock.wait_mean_us", "us"),
    ("store.words_read_per_block", "count"),
    ("store.words_written_per_block", "count"),
    ("store.read_ns_per_word", "ns"),
    ("store.write_ns_per_word", "ns"),
    ("store.time_share", "1"),
    ("crypto.aes128_block_ns", "ns"),
    ("crypto.pad64_ns", "ns"),
    ("crypto.pad_batch64_ns_per_block", "ns"),
    ("crypto.cm_mac_tag_ns", "ns"),
    ("crypto.sha3_tag64_ns", "ns"),
    ("crypto.xts64_ns", "ns"),
    ("ecc.encode_ns", "ns"),
    ("counters.block_roundtrip_ns", "ns"),
    ("sim.warmup_share", "1"),
    ("sim.run_ns_per_instr", "ns"),
    ("sim.engine_share", "1"),
    ("sim.trace_share", "1"),
    ("sim.other_share", "1"),
    ("sim.instructions", "count"),
    ("sim.dram_accesses", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.reconcile_gap_pct", "%"),
];

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MemCold,
    MemTenants,
    SimTiny,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "mem-cold" => Some(Workload::MemCold),
            "mem-tenants" => Some(Workload::MemTenants),
            "sim-tiny" => Some(Workload::SimTiny),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::MemCold => "mem-cold",
            Workload::MemTenants => "mem-tenants",
            Workload::SimTiny => "sim-tiny",
        }
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub out: PathBuf,
}

const USAGE: &str = "usage: clme-perfbench --workload mem-cold|mem-tenants|sim-tiny \
--seed N --seconds S --trace 0|1 [--out DIR]";

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(parse_u64(value).ok_or(format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    parse_u64(value)
                        .filter(|s| (1..=600).contains(s))
                        .ok_or(format!("--seconds must be 1..=600, got {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: batch calls on mem workloads, cells on sim.
    pub attempted: u64,
    /// Attempted operations whose result was wrong or an error.
    pub failed: u64,
    /// Whole-run checks that failed (reconciliation, missing goldens).
    pub broken: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Whether something was attempted and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty() && self.attempted > 0
    }
}

/// The build times of a workload's state, which give `setup_s`. An
/// untraced run builds in two rounds, one before its measured window and
/// one after it: the host's speed drifts over seconds to minutes, and
/// two rounds a window apart sample two stretches of it.
#[derive(Default)]
pub struct SetUps {
    times: Vec<f64>,
}

impl SetUps {
    /// One round: builds at least [`MIN_SETUPS`] times and then until
    /// [`SETUP_BUDGET_S`] has passed (at most [`MAX_SETUPS`] times),
    /// dropping each build before the next. Returns the last build.
    pub fn round<T, E>(&mut self, mut build: impl FnMut() -> Result<T, E>) -> Result<T, E> {
        let (mut built, mut builds, mut spent) = (None, 0, 0.0);
        while builds < MIN_SETUPS || (spent < SETUP_BUDGET_S && builds < MAX_SETUPS) {
            drop(built.take());
            let t0 = std::time::Instant::now();
            built = Some(build()?);
            let t = t0.elapsed().as_secs_f64();
            self.times.push(t);
            builds += 1;
            spent += t;
        }
        Ok(built.expect("at least one set-up"))
    }

    /// The median build time of every round so far: `setup_s`.
    pub fn median(&self) -> f64 {
        let median = stats::median(&self.times);
        println!("{} set-ups, median {median:.4} s", self.times.len());
        median
    }
}

const MIN_SETUPS: usize = 2;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET_S: f64 = 2.5;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {:#x} seconds {} trace {} (available parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let ticks0 = stats::cpu_ticks();
    let result = match args.workload {
        Workload::MemCold => mem::run(&mem::MEM_COLD, &args).map_err(|e| e.to_string()),
        Workload::MemTenants => mem::run(&mem::MEM_TENANTS, &args).map_err(|e| e.to_string()),
        Workload::SimTiny => sim::run(&args),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark could not run: {e}");
            return ExitCode::from(1);
        }
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks0, stats::cpu_ticks()) {
        println!(
            "host steal during the run: {:.1}% of CPU time",
            100.0 * stats::ratio(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64)
        );
    }
    if args.trace {
        println!(
            "clock bias subtracted from each wrapped call: {} ns",
            trace::clock_bias_ns()
        );
        let ladder = ladder::measure();
        ladder::print(&ladder);
        for (name, ns) in ladder {
            outcome.set(name, ns);
        }
    } else {
        outcome.set("peak_rss_mib", stats::peak_rss_mib());
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    print_summary(&outcome, names);
    println!("{}", result_json(&outcome, names));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_summary(outcome: &Outcome, names: &[(&str, &str)]) {
    println!("{:<44} {:>16} unit", "metric", "value");
    for &(name, unit) in names {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name:<44} {value:>16.4} {unit}");
    }
    println!(
        "error_ratio {:.6} ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for problem in &outcome.broken {
        println!("CHECK FAILED: {problem}");
    }
}

/// The result line: every metric of `names`, in order, with its unit.
fn result_json(outcome: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload sim-tiny --seed 0xC0FFEE --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::SimTiny);
        assert_eq!(a.seed, 0xC0FFEE);
        assert!(a.trace);
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload mem-cold --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload mem-cold --seed 1 --seconds 1")).is_err());
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut o = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        o.set("work_per_s_p10", 1234.5);
        let line = result_json(&o, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0"));
        assert!(line.contains("\"work_per_s_p10\": {\"value\": 1234.5, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"peak_rss_mib\": {\"value\": 0.0, \"unit\": \"MiB\"}"));
    }
}
