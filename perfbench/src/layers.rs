//! Per-layer measurements for the traced run: host roofline ceilings,
//! FFT and block-circulant matvec kernels on the workload's own shapes,
//! replays of the run's batches through the quantized datapath and the
//! pipeline simulator, and the exact work counts those replays perform.
//!
//! Operation and byte counts are *computed* from shapes (the way the
//! C-LSTM roofline scripts count them), not measured by hardware
//! counters.

use std::hint::black_box;
use std::time::Instant;

use ernn_fft::{Complex32, RealFft, RealFftScratch};
use ernn_fpga::sim::{simulate_batch_into, BatchTrace};
use ernn_linalg::{BlockCirculantMatrix, MatVecScratch, WeightMatrix};
use ernn_model::RnnLayer;
use ernn_serve::CompiledModel;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::check::{lane_frames, Batch, Replayer};
use crate::spans::Spans;
use crate::stats::median;
use crate::workload::{Load, Workload};

/// Repetitions per kernel timing; the median is reported.
const REPS: usize = 5;
/// Minimum wall time of one repetition.
const REP_NS: u64 = 4_000_000;

/// Times `f` in repetitions of at least [`REP_NS`] and returns the
/// median ns per call.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    f();
    let mut calls = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        if start.elapsed().as_nanos() as u64 >= REP_NS / 4 {
            break;
        }
        calls *= 2;
    }
    let calls = calls * 4;
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&reps)
}

/// Host ceilings measured in this process: peak f32 multiply-add rate
/// and streaming-copy bandwidth, each the best of several repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    pub flops_per_s: f64,
    pub bytes_per_s: f64,
}

pub fn ceilings() -> Ceilings {
    // 64 independent accumulators in 8-wide rows: enough parallel
    // chains to hide latency, in a shape the compiler vectorizes.
    const ITERS: usize = 400_000;
    let mul = black_box(0.999_999_9f32);
    let add = black_box(1e-7f32);
    let mut best_flops = 0.0f64;
    for _ in 0..REPS {
        let mut acc = black_box([[1.0f32; 8]; 8]);
        let start = Instant::now();
        for _ in 0..ITERS {
            for row in acc.iter_mut() {
                for v in row.iter_mut() {
                    *v = *v * mul + add;
                }
            }
        }
        black_box(&acc);
        let flops = (ITERS * 64 * 2) as f64 / start.elapsed().as_secs_f64();
        best_flops = best_flops.max(flops);
    }

    // A copy far larger than the last-level cache: bytes read + written.
    const LEN: usize = 8 << 20;
    let src = vec![1.0f32; LEN];
    let mut dst = vec![0.0f32; LEN];
    let mut best_bw = 0.0f64;
    for _ in 0..REPS {
        let start = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&dst);
        let bytes = (2 * LEN * 4) as f64;
        best_bw = best_bw.max(bytes / start.elapsed().as_secs_f64());
    }
    Ceilings {
        flops_per_s: best_flops,
        bytes_per_s: best_bw,
    }
}

/// Median ns of one real-FFT forward and one inverse transform of size `n`.
pub fn fft_ns(n: usize) -> (f64, f64) {
    let fft = RealFft::new(n);
    let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
    let input: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut spectrum = vec![Complex32::ZERO; fft.spectrum_len()];
    let mut output = vec![0.0f32; n];
    let mut scratch = RealFftScratch::new();
    let fwd = ns_per_call(|| fft.forward_into(black_box(&input), &mut spectrum, &mut scratch));
    let inv = ns_per_call(|| fft.inverse_into(black_box(&spectrum), &mut output, &mut scratch));
    (fwd, inv)
}

/// Every block-circulant weight matrix of a model, in layer order: the
/// matvecs one frame step performs per lane.
pub fn circulants(model: &CompiledModel) -> Vec<&BlockCirculantMatrix> {
    let mut out = Vec::new();
    for layer in model.quantized().network().layers() {
        let weights: Vec<&WeightMatrix> = match layer {
            RnnLayer::Lstm(l) => [Some(&l.wx), Some(&l.wr), l.wym.as_ref()]
                .into_iter()
                .flatten()
                .collect(),
            RnnLayer::Gru(g) => vec![&g.wzr_x, &g.wzr_c, &g.wcx, &g.wcc],
        };
        out.extend(weights.into_iter().filter_map(|w| match w {
            WeightMatrix::Circulant(c) => Some(c),
            _ => None,
        }));
    }
    out
}

/// Computed work of one block-circulant matvec per lane at batch `b`:
/// `q` forward and `p` inverse real FFTs (2.5·L·log2 L flops each) plus
/// `p·q` spectrum multiply-accumulates (8 flops per bin); bytes are the
/// weight spectra (8 bytes per bin, streamed once per batch and so
/// shared by its lanes) plus the lane's input and output vectors.
fn computed(m: &BlockCirculantMatrix, b: usize) -> (f64, f64) {
    let (p, q) = m.grid();
    let l = m.block_size() as f64;
    let bins = (m.block_size() / 2 + 1) as f64;
    let fft = 2.5 * l * l.log2();
    let ops = (p + q) as f64 * fft + (p * q) as f64 * bins * 8.0;
    let weights = (p * q) as f64 * bins * 8.0;
    let bytes = weights / b as f64 + ((m.rows() + m.cols()) * 4) as f64;
    (ops, bytes)
}

/// Median ns per lane of `matvec_batch_into` at batch `b`, and of the
/// dense reference (`Matrix::matvec_into`, one call per lane) of the
/// same shape.
fn matvec_ns(m: &BlockCirculantMatrix, b: usize) -> (f64, f64) {
    let mut rng = ChaCha8Rng::seed_from_u64((m.rows() * 31 + m.cols()) as u64);
    let xs: Vec<f32> = (0..b * m.cols())
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let mut ys = vec![0.0f32; b * m.rows()];
    let mut scratch = MatVecScratch::new();
    let circ = ns_per_call(|| m.matvec_batch_into(black_box(&xs), &mut ys, b, &mut scratch));
    let dense = m.to_dense();
    let dense_ns = ns_per_call(|| {
        for lane in 0..b {
            dense.matvec_into(
                black_box(&xs[lane * m.cols()..(lane + 1) * m.cols()]),
                &mut ys[lane * m.rows()..(lane + 1) * m.rows()],
            );
        }
    });
    (circ / b as f64, dense_ns / b as f64)
}

/// The `linalg` layer on a workload's own shapes: every model's
/// matvecs at its observed mean batch, weighted by the lane-frames the
/// run served on that model.
#[derive(Debug, Clone, Copy)]
pub struct Linalg {
    /// Block-circulant matvec ns per lane-frame (all of a frame step's
    /// matrices).
    pub ns_per_lane: f64,
    pub dense_ns_per_lane: f64,
    /// Computed ops and bytes per lane-frame.
    pub ops: f64,
    pub bytes: f64,
}

pub fn linalg(w: &Workload, batches: &[Batch], spans: &mut Spans) -> Linalg {
    let total = lane_frames(batches) as f64;
    let mut acc = Linalg {
        ns_per_lane: 0.0,
        dense_ns_per_lane: 0.0,
        ops: 0.0,
        bytes: 0.0,
    };
    for (m, model) in w.models.iter().enumerate() {
        let mine: Vec<&Batch> = batches.iter().filter(|b| b.model == m).collect();
        if mine.is_empty() {
            continue;
        }
        let frames: u64 = mine.iter().flat_map(|b| &b.frames).sum();
        let lanes: usize = mine.iter().map(|b| b.lanes.len()).sum();
        let mean_batch = ((lanes as f64 / mine.len() as f64).round() as usize).max(1);
        let share = frames as f64 / total;
        for c in circulants(model) {
            let name = format!(
                "linalg.matvec.{}x{}.b{}.batch{mean_batch}",
                c.rows(),
                c.cols(),
                c.block_size()
            );
            let (circ, dense) = spans.time(name, |_| matvec_ns(c, mean_batch));
            let (ops, bytes) = computed(c, mean_batch);
            acc.ns_per_lane += share * circ;
            acc.dense_ns_per_lane += share * dense;
            acc.ops += share * ops;
            acc.bytes += share * bytes;
        }
    }
    acc
}

/// One replay of every batch through the quantized datapath; returns
/// its wall ns. With `spans`, each batch gets its own span.
pub fn exec_pass(w: &Workload, load: &Load, batches: &[Batch], spans: Option<&mut Spans>) -> u64 {
    let mut replay = Replayer::new(w, load);
    let start = Instant::now();
    match spans {
        Some(spans) => {
            for b in batches {
                spans.time("exec.batch", |_| black_box(replay.run(b)).len());
            }
        }
        None => {
            for b in batches {
                black_box(replay.run(b));
            }
        }
    }
    start.elapsed().as_nanos() as u64
}

/// Exact work counts of one replay pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counts {
    pub transforms: u64,
    pub block_reads: u64,
    pub allocations: u64,
}

/// Replays once (after a warming pass, so scratch growth is excluded)
/// and counts this thread's FFTs and weight-spectrum block reads, and
/// the process's heap allocations.
pub fn count_pass(w: &Workload, load: &Load, batches: &[Batch]) -> Counts {
    exec_pass(w, load, batches, None);
    let fft = ernn_fft::stats::thread_snapshot();
    let allocs = ernn_bench::alloc::allocation_count();
    exec_pass(w, load, batches, None);
    let allocations = ernn_bench::alloc::allocation_count() - allocs;
    let d = ernn_fft::stats::thread_snapshot().since(&fft);
    Counts {
        transforms: d.transforms(),
        block_reads: d.spectrum_block_reads,
        allocations,
    }
}

/// Median ns per batch of `sim::simulate_batch_into` over the run's
/// batches (each with its model's stage cycles).
pub fn sim_ns_per_batch(w: &Workload, batches: &[Batch]) -> f64 {
    let mut trace = BatchTrace::default();
    let per_pass = ns_per_call(|| {
        for b in batches {
            simulate_batch_into(w.models[b.model].stage_cycles(), &b.frames, &mut trace);
            black_box(&trace);
        }
    });
    per_pass / batches.len() as f64
}

/// Lifetime spectrum refreshes across every model's weight matrices.
pub fn spectrum_refreshes(w: &Workload) -> u64 {
    w.models
        .iter()
        .flat_map(|m| m.weight_spectrum_refreshes())
        .sum()
}
