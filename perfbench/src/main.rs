//! The repository benchmark: serves one workload through the public
//! serving entry points, checks every answer, and prints the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of a separate traced
//! run (`--trace 1`). The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mixed_tenant --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `perfbench/CATALOGUE.md` lists every metric, workload and layer.

mod check;
mod layers;
mod spans;
mod stats;
mod workload;

use std::time::Instant;

use ernn_serve::ExecutorKind;

use crate::check::{lane_frames, Gate};
use crate::spans::Spans;
use crate::stats::{median, quartiles};
use crate::workload::{serve_on, Arrivals, Kind, Load, Served, Size, Workload};

// Counts heap allocations for `exec.allocs_per_batch`.
#[global_allocator]
static ALLOC: ernn_bench::alloc::CountingAllocator = ernn_bench::alloc::CountingAllocator;

/// Set-ups per run: at least [`MIN_SETUPS`], then more until
/// [`SETUP_BUDGET_S`] has passed (at most [`MAX_SETUPS`]); `setup_s` is
/// their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET_S: f64 = 1.0;
/// Timed rounds (every load served once) per run, at least, whatever
/// `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Untraced serving / batch replay / traced serving rounds in the
/// traced run (also the repetitions of each tier comparison there).
const PAIRS: usize = 5;

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err(format!("bad seconds {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            kind: kind.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// The run's result line.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // Non-finite values are not JSON; `correct` is false then.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <offline_bulk|mixed_tenant|\
                 cluster_stream> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    println!(
        "perfbench {} seed {} ({} s, trace {}), {} host threads",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!("{}", report.json());
    if !report.correct() {
        std::process::exit(1);
    }
}

/// Fails every response of `run` that differs from the warm-up run's:
/// a rerun must reproduce logits and virtual timing bit for bit.
fn same_as(warm: &Served, run: &Served, gate: &mut Gate, what: &str) {
    let differing = warm
        .responses
        .iter()
        .zip(&run.responses)
        .filter(|(a, b)| a != b)
        .count()
        + warm.responses.len().abs_diff(run.responses.len());
    if differing > 0 {
        gate.failed += differing;
        gate.notes.push(format!(
            "{what}: {differing} responses differ from the warm-up run"
        ));
    }
}

/// Process peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn print_gate(gate: &Gate) {
    for note in &gate.notes {
        println!("  FAILED: {note}");
    }
}

fn spread(name: &str, xs: &[f64]) {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    println!(
        "  {name}: median {m:.4}, quartiles {q1:.4} .. {q3:.4} (spread {:.2}% of median, {} runs)",
        100.0 * (q3 - q1) / m,
        xs.len()
    );
}

/// The end-to-end run: set-up several times, one untimed warm-up run of
/// each load through the correctness gate, then timed rounds for
/// `--seconds`, every run checked against its load's warm-up run.
/// Host metrics are medians over rounds; virtual-time metrics are
/// medians over loads.
fn untraced(args: &Args) -> Report {
    let mut setup_s = Vec::new();
    let mut built = None;
    let budget = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && budget.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(built.take());
        let start = Instant::now();
        built = Some(Workload::build(
            args.kind,
            args.seed,
            Size::Full,
            &mut Spans::new(false),
        ));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let w = built.expect("at least one set-up");

    // Warm-up: every load served once, untimed, through the gate.
    let mut gate = Gate::default();
    let mut virts = Vec::new();
    let mut warm = Vec::new();
    let mut frames = 0.0;
    for (k, load) in w.loads.iter().enumerate() {
        let run = w.serve(k);
        let batches = check::batches(load, &run);
        gate.absorb(check::gate(&w, load, &run, &batches));
        virts.push(check::virt(&run));
        frames += lane_frames(&batches) as f64;
        println!(
            "  load {k}: {} requests, {} lane-frames in {} batches (mean batch {:.2})",
            load.attempted(),
            lane_frames(&batches),
            batches.len(),
            run.metrics.mean_batch_size
        );
        warm.push(run);
    }
    let n: usize = w.loads.iter().map(Load::attempted).sum();

    // Timed rounds, each serving every load once.
    let mut us_per_req = Vec::new();
    let mut frames_per_s = Vec::new();
    let start = Instant::now();
    while us_per_req.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        let mut wall_ns = 0;
        for (k, warm) in warm.iter().enumerate() {
            let run = w.serve(k);
            same_as(warm, &run, &mut gate, "timed run");
            wall_ns += run.wall_ns;
        }
        let wall_s = wall_ns as f64 * 1e-9;
        us_per_req.push(wall_s * 1e6 / n as f64);
        frames_per_s.push(frames / wall_s);
    }
    let attempted = n * (1 + us_per_req.len());
    let rss_mb = peak_rss_mb();

    // The host's own speed right after the timed rounds, to tell a slow
    // machine from a slow program when host figures move between runs.
    let ceil = layers::ceilings();
    println!(
        "  host ceilings: {:.2} GFLOP/s multiply-add, {:.2} GB/s copy",
        ceil.flops_per_s * 1e-9,
        ceil.bytes_per_s * 1e-9
    );
    spread("setup_s", &setup_s);
    spread("host_us_per_req", &us_per_req);
    spread("host_frames_per_s", &frames_per_s);
    for (k, v) in virts.iter().enumerate() {
        println!(
            "  virt load {k}: p50 {:.3} us, tail {:.3} us at p{:.2} over {} samples ({} beyond), \
             slo met {:.4}, {:.1} rps",
            v.p50_us,
            v.tail_us,
            v.tail_pct,
            v.samples,
            check::TAIL_BEYOND,
            v.slo_met_frac,
            v.throughput_rps
        );
    }
    print_gate(&gate);
    let virt = |f: fn(&check::Virt) -> f64| median(&virts.iter().map(f).collect::<Vec<_>>());

    let failed = gate.failed;
    Report {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", median(&setup_s), "s"),
            ("host_us_per_req", median(&us_per_req), "us"),
            ("host_frames_per_s", median(&frames_per_s), "1/s"),
            ("host_peak_rss_mb", rss_mb, "MiB"),
            ("virt_p50_us", virt(|v| v.p50_us), "us"),
            ("virt_tail_us", virt(|v| v.tail_us), "us"),
            ("virt_slo_met_frac", virt(|v| v.slo_met_frac), "ratio"),
            ("virt_throughput_rps", virt(|v| v.throughput_rps), "1/s"),
            ("ok_frac", 1.0 - failed as f64 / attempted as f64, "ratio"),
        ],
    }
}

/// Host self time of the serving tiers over one load.
struct Tiers {
    /// Scheduler event loops: their wall time minus the replayed
    /// inference and simulation inside them.
    sched_ns: f64,
    /// The cluster router: a cluster run's wall time minus bare
    /// schedulers serving the same per-shard loads.
    cluster_ns: f64,
    forwards: u64,
    replications: u64,
    state_loads: u64,
}

/// Splits serving self time (`self_ns`: wall time not spent in the
/// replayed inference and simulation) between the scheduler and the
/// router.
///
/// `cluster_stream` replays each shard's own load through a bare
/// scheduler; the router is what the cluster run spent beyond them. The
/// scheduler workloads serve their load (a closed loop as the arrivals
/// it issued) through a bare scheduler and through a one-shard cluster
/// with a free network, alternating; the router is the difference.
fn tiers(
    w: &Workload,
    load: &Load,
    warm: &Served,
    self_ns: f64,
    wall_ns: f64,
    spans: &mut Spans,
) -> Tiers {
    if w.kind == Kind::ClusterStream {
        let shards: Vec<_> = warm
            .shards
            .iter()
            .map(|sh| {
                let requests = sh.responses.iter().map(|r| load.shard_request(r)).collect();
                (
                    w.bare_runtime(&sh.placed, w.platforms[sh.shard].clone()),
                    Load::new(Arrivals::Open(requests)),
                )
            })
            .collect();
        let bare: Vec<f64> = (0..PAIRS)
            .map(|_| {
                spans.time("serve.bare_shards", |_| {
                    shards
                        .iter()
                        .map(|(rt, load)| serve_on(rt, load).wall_ns as f64)
                        .sum()
                })
            })
            .collect();
        let bare = median(&bare);
        return Tiers {
            sched_ns: self_ns - (wall_ns - bare),
            cluster_ns: wall_ns - bare,
            forwards: warm.forwards,
            replications: warm.replications,
            state_loads: warm.state_loads,
        };
    }
    let open = load.open(warm);
    let bare = w.bare_runtime(&w.model_ids(), w.platforms[0].clone());
    let one = w.one_shard_cluster();
    let mut diffs = Vec::new();
    let mut last = None;
    for _ in 0..PAIRS {
        let b = spans.time("serve.bare", |_| serve_on(&bare, &open));
        let c = spans.time("serve.one_shard_cluster", |_| serve_on(&one, &open));
        diffs.push(c.wall_ns as f64 - b.wall_ns as f64);
        last = Some(c);
    }
    let c = last.expect("at least one pair");
    Tiers {
        sched_ns: self_ns,
        cluster_ns: median(&diffs),
        forwards: c.forwards,
        replications: c.replications,
        state_loads: c.state_loads,
    }
}

/// Largest relative spread of FFT work across one engine's executor
/// workers: (max − min) / mean; 0 for single-worker executors.
fn worker_skew(workers: &[Vec<u64>]) -> f64 {
    workers
        .iter()
        .filter(|t| t.len() > 1)
        .map(|t| {
            let max = *t.iter().max().expect("non-empty") as f64;
            let min = *t.iter().min().expect("non-empty") as f64;
            let mean = t.iter().sum::<u64>() as f64 / t.len() as f64;
            if mean > 0.0 {
                (max - min) / mean
            } else {
                0.0
            }
        })
        .fold(0.0, f64::max)
}

/// The traced run: spans around the benchmark's calls into every
/// layer, written out when the run ends.
fn traced(args: &Args) -> Report {
    let mut spans = Spans::new(true);
    let root = spans.open(format!("perfbench.{}", args.kind.name()));
    let w = spans.time("setup", |s| {
        Workload::build(args.kind, args.seed, Size::Full, s)
    });
    // Per-layer figures come from the run's first load.
    let load = &w.loads[0];
    let warm = spans.time("serve.warmup", |_| w.serve(0));
    let batches = check::batches(load, &warm);
    let mut gate = spans.time("gate", |_| check::gate(&w, load, &warm, &batches));
    let n = load.attempted() as f64;
    let frames = lane_frames(&batches) as f64;

    // Serving with the flight recorder, timeline and health monitor on
    // vs off, and the batch replay, alternating: virtual-time results
    // must not move, and each serving run is paired with the replay
    // nearest in time when its self time is taken.
    let counts = spans.time("exec.count", |_| layers::count_pass(&w, load, &batches));
    let sim_batch_ns = spans.time("sim.replay", |_| layers::sim_ns_per_batch(&w, &batches));
    let sim_ns = sim_batch_ns * batches.len() as f64;
    let workers = match w.executor {
        ExecutorKind::ThreadPool => w.platforms[0].len(),
        _ => 1,
    } as f64;
    // The busiest worker's share of the inference (by FFT work): the
    // part of the replay on the serving run's critical path.
    let busiest = warm
        .worker_transforms
        .iter()
        .map(|t| *t.iter().max().unwrap_or(&0) as f64 / t.iter().sum::<u64>().max(1) as f64);
    let critical_share = if workers > 1.0 {
        busiest.fold(0.0, f64::max)
    } else {
        1.0
    };
    let traced_rt = w.traced_runtime();
    let (mut plain, mut with, mut passes, mut self_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut trace_events = 0;
    for pair in 0..PAIRS {
        let run = spans.time("serve.untraced", |_| w.serve(0));
        same_as(&warm, &run, &mut gate, "untraced run");
        plain.push(run.wall_ns as f64);
        let exec = spans.time("exec.replay", |s| {
            layers::exec_pass(&w, load, &batches, (pair == 0).then_some(s))
        }) as f64;
        passes.push(exec);
        self_ns.push(run.wall_ns as f64 - exec * critical_share - sim_ns);
        let run = spans.time("serve.traced", |_| serve_on(&traced_rt, load));
        same_as(&warm, &run, &mut gate, "traced run");
        trace_events = run.trace_events;
        with.push(run.wall_ns as f64);
    }
    let wall_ns = median(&plain);
    let exec_ns = median(&passes);
    let replayed_ns = exec_ns * critical_share + sim_ns;
    let tiers = spans.time("tiers", |s| {
        tiers(&w, load, &warm, median(&self_ns), wall_ns, s)
    });

    let ceil = spans.time("roofline.ceilings", |_| layers::ceilings());
    let (fwd8, inv8) = spans.time("fft.n8", |_| layers::fft_ns(8));
    let (fwd16, inv16) = spans.time("fft.n16", |_| layers::fft_ns(16));
    let lin = spans.time("linalg", |s| layers::linalg(&w, &batches, s));
    spans.close(root);

    let oi = lin.ops / lin.bytes;
    let attained = lin.ops / (lin.ns_per_lane * 1e-9);
    let roof = ceil.flops_per_s.min(oi * ceil.bytes_per_s);
    let compile_ms: Vec<f64> = w
        .builds
        .iter()
        .map(|b| b.compile_ns as f64 * 1e-6)
        .collect();
    let exec_per_frame = exec_ns / frames;

    println!(
        "  load: {n} requests, {frames} lane-frames in {} batches; serving wall {:.3} ms \
         (replayed inference {:.3} ms over {workers} worker(s), simulation {:.3} ms)",
        batches.len(),
        wall_ns * 1e-6,
        exec_ns * 1e-6,
        sim_ns * 1e-6
    );
    println!(
        "  host accounted by replayed layers: {:.1}% of serving wall; the rest is \
         scheduler ({:.1}%) and router ({:.1}%) self time, and executor idle",
        100.0 * replayed_ns / wall_ns,
        100.0 * tiers.sched_ns / wall_ns,
        100.0 * tiers.cluster_ns / wall_ns
    );
    for (b, ms) in w.builds.iter().zip(&compile_ms) {
        println!("  pipeline compile {}: {ms:.3} ms", b.name);
    }
    println!(
        "  roofline (computed ops/bytes): {:.2} GFLOP/s peak, {:.2} GB/s copy; matvec OI \
         {oi:.3} flop/B attains {:.3} GFLOP/s of a {:.3} GFLOP/s roof",
        ceil.flops_per_s * 1e-9,
        ceil.bytes_per_s * 1e-9,
        attained * 1e-9,
        roof * 1e-9
    );
    print_gate(&gate);

    let dir = std::path::Path::new(".bench_build").join("perfbench-spans");
    let path = dir.join(format!("{}-seed{}.json", args.kind.name(), args.seed));
    match spans.write_json(&path) {
        Ok(()) => println!(
            "  spans: {} written to {}",
            spans.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }

    let m = &warm.metrics;
    Report {
        attempted: load.attempted() * (1 + 2 * PAIRS),
        failed: gate.failed,
        metrics: vec![
            ("fft.fwd_ns.n8", fwd8, "ns"),
            ("fft.inv_ns.n8", inv8, "ns"),
            ("fft.fwd_ns.n16", fwd16, "ns"),
            ("fft.inv_ns.n16", inv16, "ns"),
            (
                "fft.transforms_per_frame",
                counts.transforms as f64 / frames,
                "count",
            ),
            ("linalg.matvec_ns_per_lane", lin.ns_per_lane, "ns"),
            (
                "linalg.dense_speedup",
                lin.dense_ns_per_lane / lin.ns_per_lane,
                "ratio",
            ),
            ("linalg.oi", oi, "flop/B"),
            ("linalg.roofline_frac", attained / roof, "ratio"),
            (
                "linalg.spectrum_block_reads_per_frame",
                counts.block_reads as f64 / frames,
                "count",
            ),
            ("exec.ns_per_frame", exec_per_frame, "ns"),
            (
                "exec.matvec_share",
                lin.ns_per_lane / exec_per_frame,
                "ratio",
            ),
            (
                "exec.allocs_per_batch",
                counts.allocations as f64 / batches.len() as f64,
                "count",
            ),
            ("sim.ns_per_batch", sim_batch_ns, "ns"),
            (
                "executor.parallel_eff",
                exec_ns / (workers * wall_ns),
                "ratio",
            ),
            (
                "executor.worker_fft_skew",
                worker_skew(&warm.worker_transforms),
                "ratio",
            ),
            ("sched.self_us_per_req", tiers.sched_ns * 1e-3 / n, "us"),
            ("sched.mean_batch", m.mean_batch_size, "count"),
            ("sched.model_loads", warm.model_loads as f64, "count"),
            ("sched.shed", m.shed as f64, "count"),
            ("sched.queue_p99_us", m.queue.p99_us, "us"),
            ("cluster.self_us_per_req", tiers.cluster_ns * 1e-3 / n, "us"),
            ("cluster.forwards", tiers.forwards as f64, "count"),
            ("cluster.replications", tiers.replications as f64, "count"),
            ("cluster.state_loads", tiers.state_loads as f64, "count"),
            (
                "trace.overhead_frac",
                median(&with) / wall_ns - 1.0,
                "ratio",
            ),
            ("trace.events", trace_events as f64, "count"),
            (
                "pipeline.compile_ms",
                compile_ms.iter().sum::<f64>() / compile_ms.len() as f64,
                "ms",
            ),
            (
                "pipeline.spectrum_refreshes",
                layers::spectrum_refreshes(&w) as f64,
                "count",
            ),
            ("host.replayed_frac", replayed_ns / wall_ns, "ratio"),
            ("roofline.peak_gflops", ceil.flops_per_s * 1e-9, "GFLOP/s"),
            ("roofline.stream_gbs", ceil.bytes_per_s * 1e-9, "GB/s"),
        ],
    }
}

#[cfg(test)]
mod tests {
    //! The benchmark's self-test. Allocation counts are process-global,
    //! so run it alone: `cargo test --release -- --test-threads=1`.

    use super::*;

    fn tiny(kind: Kind, seed: u64) -> Workload {
        Workload::build(kind, seed, Size::Tiny, &mut Spans::new(false))
    }

    /// Two tiny runs of each workload pass the gate and agree exactly:
    /// responses (hence every `virt_*` metric) and every exact count.
    #[test]
    fn tiny_runs_repeat_exactly() {
        for kind in Kind::ALL {
            let (a, b) = (tiny(kind, 7), tiny(kind, 7));
            let (ra, rb) = (a.serve(0), b.serve(0));
            let (la, lb) = (&a.loads[0], &b.loads[0]);
            let (ba, bb) = (check::batches(la, &ra), check::batches(lb, &rb));
            let gate = check::gate(&a, la, &ra, &ba);
            assert_eq!(gate.failed, 0, "{}: {:?}", kind.name(), gate.notes);
            assert_eq!(ra.responses, rb.responses, "{}", kind.name());
            assert_eq!(check::virt(&ra), check::virt(&rb), "{}", kind.name());
            let counts = |r: &Served| {
                (
                    r.model_loads,
                    r.state_loads,
                    r.forwards,
                    r.replications,
                    r.worker_transforms.clone(),
                    r.metrics.shed,
                )
            };
            assert_eq!(counts(&ra), counts(&rb), "{}", kind.name());
            assert_eq!(ba, bb, "{}", kind.name());
            assert_eq!(
                layers::count_pass(&a, la, &ba),
                layers::count_pass(&b, lb, &bb),
                "{}",
                kind.name()
            );
            assert_eq!(
                layers::spectrum_refreshes(&a),
                layers::spectrum_refreshes(&b)
            );
        }
    }

    /// The seed is the only source of the inputs: another seed gives
    /// other utterances.
    #[test]
    fn the_seed_changes_the_inputs() {
        for kind in Kind::ALL {
            let frames = |w: &Workload| -> Vec<Vec<Vec<f32>>> {
                w.loads
                    .iter()
                    .flat_map(|l| {
                        l.submitted_ids()
                            .into_iter()
                            .map(|id| l.request(id).1.to_vec())
                    })
                    .collect()
            };
            assert_eq!(frames(&tiny(kind, 7)), frames(&tiny(kind, 7)));
            assert_ne!(
                frames(&tiny(kind, 7)),
                frames(&tiny(kind, 8)),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload cluster_stream --seed 3 --seconds 2 --trace 1").expect("valid");
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::ClusterStream, 3, 2.0, true)
        );
        for bad in [
            "--workload nope --seed 1",
            "--workload mixed_tenant",
            "--workload mixed_tenant --seed 1 --trace 2",
            "--workload mixed_tenant --seed 1 --seconds -1",
            "--workload mixed_tenant --seed",
            "--bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
