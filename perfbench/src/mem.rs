//! The `clme-mem` workloads: one closed-loop client, on the calling
//! thread, driving `EncryptionLayer<VecBackend>` (library defaults: 16
//! shards, the 512-page verified-page cache, telemetry on) through
//! `MemoryAdt::batch_read` / `batch_write`, 64 blocks per call.
//!
//! Every write carries bytes derived from (address, per-block write
//! version), and every read is compared against that version model
//! after its latency has been taken.

use crate::stats::{self, Latencies};
use crate::trace::{self, Tracer};
use crate::{Args, Outcome};
use clme_mem::{
    Block, CacheCause, EncryptionLayer, MemError, MemMetricsSnapshot, MemoryAdt, StoreBackend,
    StoreMetrics, StoredWord, VecBackend, PAGE_BLOCKS,
};
use clme_types::rng::SplitMix64;
use clme_workloads::tenants::{TenantComposer, TenantTrafficConfig, DEFAULT_SKEW};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Blocks per `batch_read` / `batch_write` call.
pub const BATCH_BLOCKS: usize = 64;

/// Batches a client composes at a time, outside its timed calls. A
/// bounded chunk keeps the generator out of `peak_rss_mib`.
const CHUNK_BATCHES: usize = 64;

/// Tenant streams a mem-tenants client rotates through, one chunk each
/// in turn. One stream's tenant ranking decides most of its read/write
/// mix (the heaviest of 32 tenants issues about a third of the batches,
/// at a read share anywhere in 50-95%), which moved the work rate by
/// 35% between seeds; a run over 64 rankings averages that out.
const TENANT_STREAMS: u64 = 64;

/// Share of the measured window spent first, untimed, warming the
/// verified-page cache and the allocator.
const WARMUP_SHARE: f64 = 0.05;

/// Throughput slices per window; `work_per_s_p10` is their
/// [`stats::sustained`] rate.
const SLICES: usize = 100;

/// How a workload's traffic is made.
#[derive(Clone, Copy, Debug)]
pub enum Traffic {
    /// Uniformly random blocks, half the batches writes.
    Uniform,
    /// The `TenantComposer` stream.
    Tenants,
}

/// One mem workload.
#[derive(Clone, Copy, Debug)]
pub struct MemSpec {
    pub blocks: u64,
    pub traffic: Traffic,
}

/// 4,096 pages (8x the cache), uniform 64-block batches.
pub const MEM_COLD: MemSpec = MemSpec {
    blocks: 4096 * PAGE_BLOCKS,
    traffic: Traffic::Uniform,
};

/// 32 Zipf-skewed tenants of 8 pages each.
pub const MEM_TENANTS: MemSpec = MemSpec {
    blocks: TENANTS * TENANT_PAGES * PAGE_BLOCKS,
    traffic: Traffic::Tenants,
};

const TENANTS: u64 = 32;
const TENANT_PAGES: u64 = 8;

fn tenant_config(seed: u64) -> TenantTrafficConfig {
    TenantTrafficConfig {
        tenants: TENANTS,
        seed,
        skew: DEFAULT_SKEW,
        pages_per_tenant: TENANT_PAGES,
        page_blocks: PAGE_BLOCKS,
        batch_blocks: BATCH_BLOCKS,
    }
}

/// One composed batch.
struct Batch {
    write: bool,
    addrs: Vec<u64>,
}

/// The client's traffic generator.
enum Source {
    Uniform {
        rng: SplitMix64,
        blocks: u64,
    },
    Tenants {
        streams: Vec<TenantComposer>,
        next: usize,
    },
}

impl Source {
    fn new(spec: &MemSpec, seed: u64) -> Source {
        match spec.traffic {
            Traffic::Uniform => Source::Uniform {
                rng: SplitMix64::new(SplitMix64::new(seed).derive(b"uniform")),
                blocks: spec.blocks,
            },
            Traffic::Tenants => Source::Tenants {
                streams: (0..TENANT_STREAMS)
                    .map(|k| {
                        let stream = SplitMix64::new(seed).derive(format!("stream{k}").as_bytes());
                        TenantComposer::new(tenant_config(stream))
                    })
                    .collect(),
                next: 0,
            },
        }
    }

    /// The span name of a compose call: the tenant stream belongs to
    /// `clme-workloads`, the uniform one to the benchmark itself.
    fn span_name(&self) -> &'static str {
        match self {
            Source::Uniform { .. } => "bench.compose",
            Source::Tenants { .. } => "workloads.compose",
        }
    }

    /// Replaces `out` with the next chunk of [`CHUNK_BATCHES`] batches.
    fn fill(&mut self, out: &mut Vec<Batch>) {
        out.clear();
        match self {
            Source::Uniform { rng, blocks } => {
                for _ in 0..CHUNK_BATCHES {
                    let write = rng.next_u64() & 1 == 1;
                    let addrs = (0..BATCH_BLOCKS).map(|_| rng.below(*blocks)).collect();
                    out.push(Batch { write, addrs });
                }
            }
            Source::Tenants { streams, next } => {
                let k = *next;
                *next = (k + 1) % streams.len();
                let composer = &mut streams[k];
                for _ in 0..CHUNK_BATCHES {
                    let b = composer.next_batch();
                    out.push(Batch {
                        write: b.write,
                        addrs: b.addrs,
                    });
                }
            }
        }
    }
}

/// The bytes a block holds at a write version; version 0 is the zeroed
/// block the layer's initial sweep writes.
fn payload(addr: u64, version: u32) -> Block {
    let mut block = [0u8; 64];
    if version > 0 {
        let mut rng = SplitMix64::new(addr.rotate_left(32) ^ u64::from(version));
        for chunk in block.chunks_exact_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
    }
    block
}

/// Per-block write versions of the whole store.
struct Model {
    versions: Vec<u32>,
}

impl Model {
    fn new(blocks: u64) -> Model {
        Model {
            versions: vec![0; blocks as usize],
        }
    }

    /// The write batch for `addrs`, bumping each block's version.
    fn writes(&mut self, addrs: &[u64]) -> Vec<(u64, Block)> {
        addrs
            .iter()
            .map(|&addr| {
                let v = &mut self.versions[addr as usize];
                *v += 1;
                (addr, payload(addr, *v))
            })
            .collect()
    }

    fn expected(&self, addr: u64) -> Block {
        payload(addr, self.versions[addr as usize])
    }
}

// ---------------------------------------------------------------------
// The forwarding store
// ---------------------------------------------------------------------

/// Store calls made by the current thread since the last [`take_tally`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreTally {
    pub reads: u64,
    pub read_ns: u64,
    pub writes: u64,
    pub write_ns: u64,
}

thread_local! {
    static TALLY: Cell<StoreTally> = const {
        Cell::new(StoreTally { reads: 0, read_ns: 0, writes: 0, write_ns: 0 })
    };
}

/// Returns and clears the current thread's store tally.
pub fn take_tally() -> StoreTally {
    TALLY.with(|t| t.replace(StoreTally::default()))
}

/// A `StoreBackend` that forwards every call to `inner` and times the
/// word reads and writes into the calling thread's tally.
pub struct TimedStore<B> {
    inner: B,
    bias_ns: u64,
}

impl<B: StoreBackend> TimedStore<B> {
    pub fn new(inner: B) -> TimedStore<B> {
        TimedStore {
            inner,
            bias_ns: trace::clock_bias_ns(),
        }
    }
}

impl<B: StoreBackend> StoreBackend for TimedStore<B> {
    fn words(&self) -> u64 {
        self.inner.words()
    }

    fn read_word(&self, index: u64) -> Result<StoredWord, MemError> {
        let t0 = Instant::now();
        let word = self.inner.read_word(index);
        let ns = (t0.elapsed().as_nanos() as u64).saturating_sub(self.bias_ns);
        TALLY.with(|t| {
            let mut v = t.get();
            v.reads += 1;
            v.read_ns += ns;
            t.set(v);
        });
        word
    }

    fn write_word(&self, index: u64, word: &StoredWord) -> Result<(), MemError> {
        let t0 = Instant::now();
        let done = self.inner.write_word(index, word);
        let ns = (t0.elapsed().as_nanos() as u64).saturating_sub(self.bias_ns);
        TALLY.with(|t| {
            let mut v = t.get();
            v.writes += 1;
            v.write_ns += ns;
            t.set(v);
        });
        done
    }

    fn store_metrics(&self) -> Option<&StoreMetrics> {
        self.inner.store_metrics()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn write_generation(&self) -> Option<u64> {
        self.inner.write_generation()
    }
}

// ---------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------

/// When a client stops issuing batches.
#[derive(Clone, Copy)]
enum Stop {
    At(Instant),
    /// After this many batches (the observation test's fixed replay).
    #[cfg_attr(not(test), allow(dead_code))]
    After(u64),
}

/// Blocks per second in each of [`SLICES`] equal slices of a window,
/// gathered as calls complete. A slice's rate is measured between the
/// last completions at or before its two boundaries, so it is not
/// quantised by the 64-block batch size; completions after the window
/// are left out.
struct SliceRates {
    window_ns: u64,
    /// The slice being filled, from 1.
    slice: u64,
    /// Last completion at or before the previous boundary.
    from: u64,
    /// Last completion so far in this slice, and the blocks it closed.
    to: u64,
    blocks: u64,
    rates: Vec<f64>,
}

impl SliceRates {
    fn new(window_ns: u64) -> SliceRates {
        SliceRates {
            window_ns,
            slice: 1,
            from: 0,
            to: 0,
            blocks: 0,
            rates: Vec::with_capacity(SLICES),
        }
    }

    /// Records `blocks` completed `end_ns` after the window's start.
    fn record(&mut self, end_ns: u64, blocks: u64) {
        self.close_before(end_ns);
        if self.slice <= SLICES as u64 {
            self.to = end_ns;
            self.blocks += blocks;
        }
    }

    /// Closes every slice whose boundary lies before `ns`.
    fn close_before(&mut self, ns: u64) {
        while self.slice <= SLICES as u64 && ns > self.window_ns * self.slice / SLICES as u64 {
            if self.to > self.from {
                self.rates
                    .push(self.blocks as f64 * 1e9 / (self.to - self.from) as f64);
            }
            self.from = self.to;
            self.blocks = 0;
            self.slice += 1;
        }
    }

    /// Closes the window; returns the rate of every slice that saw a
    /// completion.
    fn finish(&mut self) -> Vec<f64> {
        self.close_before(u64::MAX);
        std::mem::take(&mut self.rates)
    }
}

/// What the client did in one window. Its memory does not grow with
/// the number of calls.
struct ClientLog {
    reads: Latencies,
    writes: Latencies,
    slices: SliceRates,
    attempted: u64,
    failed: u64,
    compose_ns: u64,
    composed: u64,
}

impl ClientLog {
    fn new(window_ns: u64) -> ClientLog {
        ClientLog {
            reads: Latencies::default(),
            writes: Latencies::default(),
            slices: SliceRates::new(window_ns),
            attempted: 0,
            failed: 0,
            compose_ns: 0,
            composed: 0,
        }
    }

    /// Records one timed call that completed at `t1`.
    fn call(&mut self, epoch: Instant, t0: Instant, t1: Instant, blocks: u64, write: bool) {
        let latencies = if write {
            &mut self.writes
        } else {
            &mut self.reads
        };
        latencies.push_ns((t1 - t0).as_nanos() as u64);
        self.slices.record((t1 - epoch).as_nanos() as u64, blocks);
    }
}

/// The client's state across its warm-up and measured windows.
struct Client {
    source: Source,
    model: Model,
    chunk: Vec<Batch>,
    cursor: usize,
    tracer: Option<Tracer>,
}

impl Client {
    fn new(spec: &MemSpec, seed: u64) -> Client {
        Client {
            source: Source::new(spec, seed),
            model: Model::new(spec.blocks),
            chunk: Vec::new(),
            cursor: 0,
            tracer: None,
        }
    }

    /// Issues batches until `stop`, each after the previous one
    /// returned (closed loop); throughput slices span `epoch` to
    /// `stop` when that is a deadline.
    fn run<M: MemoryAdt>(&mut self, mem: &M, stop: Stop, epoch: Instant) -> ClientLog {
        let window_ns = match stop {
            Stop::At(deadline) => (deadline - epoch).as_nanos() as u64,
            Stop::After(_) => 0,
        };
        let mut log = ClientLog::new(window_ns);
        let root = self.tracer.as_mut().map_or(0, Tracer::id);
        let root_start = Instant::now();
        loop {
            if self.cursor == self.chunk.len() {
                let c0 = Instant::now();
                self.source.fill(&mut self.chunk);
                let c1 = Instant::now();
                log.composed += self.chunk.len() as u64;
                self.cursor = 0;
                log.compose_ns += (c1 - c0).as_nanos() as u64;
                if let Some(t) = &mut self.tracer {
                    t.span(self.source.span_name(), root, 0, c0, c1);
                }
            }
            let go = match stop {
                Stop::At(deadline) => Instant::now() < deadline,
                Stop::After(n) => log.attempted < n,
            };
            if !go {
                break;
            }
            let batch = &self.chunk[self.cursor];
            self.cursor += 1;
            log.attempted += 1;
            let request = log.attempted;
            if batch.write {
                let m0 = Instant::now();
                let writes = self.model.writes(&batch.addrs);
                let m1 = Instant::now();
                let id = self.tracer.as_mut().map_or(0, Tracer::id);
                take_tally();
                let t0 = Instant::now();
                let result = mem.batch_write(&writes);
                let t1 = Instant::now();
                log.call(epoch, t0, t1, writes.len() as u64, true);
                if result.is_err() {
                    log.failed += 1;
                }
                if let Some(t) = &mut self.tracer {
                    t.span("bench.model", root, request, m0, m1);
                    record_call(t, id, "mem.batch_write", root, request, t0, t1);
                }
            } else {
                let id = self.tracer.as_mut().map_or(0, Tracer::id);
                take_tally();
                let t0 = Instant::now();
                let result = mem.batch_read(&batch.addrs);
                let t1 = Instant::now();
                log.call(epoch, t0, t1, batch.addrs.len() as u64, false);
                let k0 = Instant::now();
                let ok = match &result {
                    Ok(blocks) => {
                        blocks.len() == batch.addrs.len()
                            && blocks
                                .iter()
                                .zip(&batch.addrs)
                                .all(|(b, &a)| *b == self.model.expected(a))
                    }
                    Err(_) => false,
                };
                let k1 = Instant::now();
                if !ok {
                    log.failed += 1;
                }
                if let Some(t) = &mut self.tracer {
                    record_call(t, id, "mem.batch_read", root, request, t0, t1);
                    t.span("bench.model", root, request, k0, k1);
                }
            }
        }
        if let Some(t) = &mut self.tracer {
            t.record(root, "bench.client", 0, 0, root_start, Instant::now());
        }
        log
    }
}

/// Records a layer call and the store calls made inside it.
fn record_call(
    t: &mut Tracer,
    id: u64,
    name: &'static str,
    root: u64,
    request: u64,
    t0: Instant,
    t1: Instant,
) {
    let tally = take_tally();
    t.record(id, name, root, request, t0, t1);
    t.aggregate(
        "store.read_word",
        id,
        request,
        t0,
        tally.reads,
        tally.read_ns,
    );
    t.aggregate(
        "store.write_word",
        id,
        request,
        t0,
        tally.writes,
        tally.write_ns,
    );
}

/// The layer and the client that drives it.
struct Setup<B: StoreBackend> {
    layer: EncryptionLayer<B>,
    client: Client,
}

fn master_key(seed: u64) -> [u8; 32] {
    let mut rng = SplitMix64::new(SplitMix64::new(seed).derive(b"master-key"));
    let mut key = [0u8; 32];
    for chunk in key.chunks_exact_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    key
}

fn setup<B: StoreBackend>(spec: &MemSpec, seed: u64, backend: B) -> Result<Setup<B>, MemError> {
    let layer = EncryptionLayer::new(backend, spec.blocks, master_key(seed))?;
    Ok(Setup {
        layer,
        client: Client::new(spec, seed),
    })
}

/// One measured window's results.
struct Window {
    log: ClientLog,
    wall: Duration,
    work_per_s_p10: f64,
}

/// Runs the client untimed for a share of `seconds`, filling the
/// verified-page cache before anything is measured.
fn warm<B: StoreBackend>(s: &mut Setup<B>, seconds: f64, out: &mut Outcome) {
    let until = Instant::now() + Duration::from_secs_f64(seconds * WARMUP_SHARE);
    let log = s.client.run(&s.layer, Stop::At(until), Instant::now());
    out.attempted += log.attempted;
    out.failed += log.failed;
}

/// Measures `seconds` of closed-loop traffic.
fn measure<B: StoreBackend>(s: &mut Setup<B>, seconds: f64, out: &mut Outcome) -> Window {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut log = s.client.run(&s.layer, Stop::At(deadline), start);
    let wall = start.elapsed();
    let rates = log.slices.finish();
    out.attempted += log.attempted;
    out.failed += log.failed;
    Window {
        log,
        wall,
        work_per_s_p10: stats::sustained(&rates),
    }
}

/// Runs one mem workload: the end-to-end metrics, or with `--trace 1`
/// an untraced and a traced half-window plus the per-layer metrics.
pub fn run(spec: &MemSpec, args: &Args) -> Result<Outcome, MemError> {
    let mut out = Outcome::default();
    let seconds = args.seconds as f64;
    if !args.trace {
        let build = || setup(spec, args.seed, VecBackend::for_blocks(spec.blocks));
        let mut setups = crate::SetUps::default();
        let mut s = setups.round(build)?;
        warm(&mut s, seconds, &mut out);
        let w = measure(&mut s, seconds, &mut out);
        drop(s);
        setups.round(build)?;
        let (reads, writes) = (&w.log.reads, &w.log.writes);
        let (r50, r95, r_beyond) = reads.summary();
        let (w50, w95, w_beyond) = writes.summary();
        println!(
            "{:.2} s window: {} reads ({r_beyond} beyond p95), {} writes ({w_beyond} beyond p95)",
            w.wall.as_secs_f64(),
            reads.len(),
            writes.len(),
        );
        println!("medians (not gated): read {r50:.1} us, write {w50:.1} us");
        if r_beyond < 10 || w_beyond < 10 {
            println!("warning: fewer than ten samples beyond a p95; lengthen --seconds");
        }
        out.set("work_per_s_p10", w.work_per_s_p10);
        out.set("read_p95_us", r95);
        out.set("write_p95_us", w95);
        out.set("setup_s", setups.median());
        return Ok(out);
    }

    let half = seconds / 2.0;
    let untraced = {
        let mut s = setup(spec, args.seed, VecBackend::for_blocks(spec.blocks))?;
        warm(&mut s, half, &mut out);
        measure(&mut s, half, &mut out).work_per_s_p10
    };
    let mut s = setup(
        spec,
        args.seed,
        TimedStore::new(VecBackend::for_blocks(spec.blocks)),
    )?;
    warm(&mut s, half, &mut out);
    s.client.tracer = Some(Tracer::new(Instant::now()));
    let base = s.layer.metrics_snapshot();
    let w = measure(&mut s, half, &mut out);
    let delta = s.layer.metrics_snapshot().delta_since(&base);
    let spans = s
        .client
        .tracer
        .take()
        .map_or_else(Vec::new, Tracer::into_spans);
    println!("traced window:");
    let e2e_ns = w.wall.as_nanos() as u64;
    let rows = trace::finish(&spans, e2e_ns, args, (untraced, w.work_per_s_p10), &mut out);
    per_layer(&rows, &delta, &w, &mut out);
    Ok(out)
}

fn per_layer(
    rows: &std::collections::BTreeMap<&'static str, trace::Row>,
    d: &MemMetricsSnapshot,
    w: &Window,
    out: &mut Outcome,
) {
    let row = |name: &str| rows.get(name).copied().unwrap_or_default();
    let (read, write) = (row("mem.batch_read"), row("mem.batch_write"));
    let (sread, swrite) = (row("store.read_word"), row("store.write_word"));
    if rows.contains_key("workloads.compose") {
        out.set(
            "workloads.compose_us_per_batch",
            stats::ratio(w.log.compose_ns as f64 / 1e3, w.log.composed as f64),
        );
    }
    out.set("mem.batch_calls", (read.calls + write.calls) as f64);
    out.set(
        "mem.read.self_us",
        stats::ratio(read.self_ns as f64 / 1e3, read.calls as f64),
    );
    out.set(
        "mem.write.self_us",
        stats::ratio(write.self_ns as f64 / 1e3, write.calls as f64),
    );
    let c = &d.cache;
    let visits = (c.hits + c.partial_hits + c.misses) as f64;
    out.set(
        "mem.cache.full_hit_ratio",
        stats::ratio(c.hits as f64, visits),
    );
    out.set(
        "mem.cache.partial_hit_ratio",
        stats::ratio(c.partial_hits as f64, visits),
    );
    out.set(
        "mem.cache.miss_ratio",
        stats::ratio(c.misses as f64, visits),
    );
    out.set(
        "mem.cache.invalidations_per_write_batch",
        stats::ratio(
            c.invalidated(CacheCause::Write) as f64,
            d.batch_writes as f64,
        ),
    );
    out.set(
        "mem.page_rolls_per_kwrite",
        stats::ratio(d.page_rolls as f64 * 1000.0, d.blocks_written as f64),
    );
    let (wait_ps, waits) = d.lock_wait.iter().fold((0.0, 0u64), |(ps, n), h| {
        (ps + h.mean_ps() * h.count() as f64, n + h.count())
    });
    out.set(
        "mem.lock.wait_mean_us",
        stats::ratio(wait_ps / 1e6, waits as f64),
    );
    out.set(
        "store.words_read_per_block",
        stats::ratio(
            sread.calls as f64,
            (d.blocks_read + d.blocks_written) as f64,
        ),
    );
    out.set(
        "store.words_written_per_block",
        stats::ratio(swrite.calls as f64, d.blocks_written as f64),
    );
    out.set(
        "store.read_ns_per_word",
        stats::ratio(sread.total_ns as f64, sread.calls as f64),
    );
    out.set(
        "store.write_ns_per_word",
        stats::ratio(swrite.total_ns as f64, swrite.calls as f64),
    );
    out.set(
        "store.time_share",
        stats::ratio(
            (sread.total_ns + swrite.total_ns) as f64,
            (read.total_ns + write.total_ns) as f64,
        ),
    );
    println!(
        "cache visits: {} full hits, {} partial, {} misses; {} page rolls over {} written blocks",
        c.hits, c.partial_hits, c.misses, d.page_rolls, d.blocks_written
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `batches` of mem-cold traffic on a fresh layer over
    /// `backend`; returns the failures and the cache counters. A read
    /// fails unless its bytes equal the version model's, so two replays
    /// of the same traffic without failures read the same bytes.
    fn replay<B: StoreBackend>(backend: B, batches: u64) -> (u64, clme_mem::CacheStats) {
        let mut s = setup(&MEM_COLD, 5, backend).unwrap();
        let log = s.client.run(&s.layer, Stop::After(batches), Instant::now());
        assert_eq!(log.attempted, batches);
        (log.failed, s.layer.metrics_snapshot().cache)
    }

    #[test]
    fn timed_store_only_observes() {
        let plain = replay(VecBackend::for_blocks(MEM_COLD.blocks), 400);
        let timed = replay(
            TimedStore::new(VecBackend::for_blocks(MEM_COLD.blocks)),
            400,
        );
        assert_eq!(plain.0, 0, "every read matched the version model");
        assert_eq!(
            plain, timed,
            "same reads and same cache counts with the wrapper"
        );
        assert!(plain.1.misses > 0, "the cache was consulted");
        let tally = take_tally();
        assert!(
            tally.reads > 0 && tally.writes > 0,
            "the wrapper saw the store calls"
        );
    }

    #[test]
    fn slice_rates_span_the_window_only() {
        let mut slices = SliceRates::new(SLICES as u64 * 10);
        for end in (5..=SLICES as u64 * 10).step_by(5) {
            slices.record(end, 64);
        }
        slices.record(SLICES as u64 * 12, 64);
        let rates = slices.finish();
        assert_eq!(rates.len(), SLICES);
        assert!(rates.iter().all(|&r| r == 128.0 * 1e9 / 10.0), "{rates:?}");
    }

    #[test]
    fn payload_versions_differ() {
        assert_eq!(payload(9, 0), [0u8; 64]);
        assert_ne!(payload(9, 1), payload(9, 2));
        assert_ne!(payload(9, 1), payload(10, 1));
    }
}
