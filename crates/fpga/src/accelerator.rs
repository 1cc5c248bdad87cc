//! Compute-unit level performance model (paper Figs. 11/12, Table III).
//!
//! A CU executes one RNN layer per frame through three coarse-grained
//! pipeline stages (CGPipe) separated by double buffers:
//!
//! * **LSTM** — stage 1: the fused gate matvec `W_(ifgo)(xr)·[x, y₋₁]`;
//!   stage 2: peepholes, cell update, activations (point-wise); stage 3:
//!   the projection matvec `W_ym·m`.
//! * **GRU** — stage 1: the fused gate matvec `W_(zr)(xc)·[x, c₋₁]`;
//!   stage 2: the candidate matvecs `W_c̃x·x` and `W_c̃c·(r ⊙ c₋₁)`;
//!   stage 3: point-wise interpolation and activations.
//!
//! With double buffering, a new frame enters every `II = max(stage)`
//! cycles and the end-to-end latency is `3·II` — which is exactly the
//! relationship visible in the paper's Table III (FPS ≈ 3 / latency for
//! every pipelined design). All cycle counts are *counted work* divided by
//! the PE count from the resource rule; there are no calibration fudge
//! factors in the performance path.

use crate::device::Device;
use crate::pe::PeDesign;

/// Fraction of device resources available to the accelerator datapath
/// (the rest holds the controller, PCIe interface and I/O buffers).
pub const RESOURCE_BUDGET: f64 = 0.8;

/// Fraction of on-chip BRAM available for weight images. The rest holds
/// input/output and double buffers, matching the paper's "a block size 8
/// will be safer in order to allocate certain portion of BRAM for
/// inputs/outputs".
pub const WEIGHT_BRAM_BUDGET: f64 = 0.8;

/// The cell type of a hardware RNN layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwCell {
    /// LSTM with optional recurrent projection dimension.
    Lstm {
        /// Projection dimension `R` (None → `R = hidden`).
        projection: Option<usize>,
    },
    /// The paper's GRU variant.
    Gru,
}

/// Hardware-level description of the RNN workload (the paper's Table III
/// benchmarks the top layer of the ESE acoustic model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RnnSpec {
    /// Cell type.
    pub cell: HwCell,
    /// Input feature dimension per frame.
    pub input_dim: usize,
    /// Hidden ("layer size") dimension.
    pub hidden_dim: usize,
    /// Circulant block size for recurrent matrices.
    pub block_size: usize,
    /// Circulant block size for input/output matrices (Phase I step 3 may
    /// choose a larger one; equal to `block_size` by default).
    pub io_block_size: usize,
    /// Fixed-point word length.
    pub weight_bits: u8,
    /// Number of stacked layers stored on chip (performance is quoted per
    /// top layer like the paper; storage accounts for all of them).
    pub layers: usize,
}

impl RnnSpec {
    /// The paper's LSTM benchmark: LSTM-1024 with projection 512 and the
    /// ESE input dimension (153), two stacked layers.
    pub fn lstm_1024(block_size: usize, weight_bits: u8) -> Self {
        RnnSpec {
            cell: HwCell::Lstm {
                projection: Some(512),
            },
            input_dim: 153,
            hidden_dim: 1024,
            block_size,
            io_block_size: block_size,
            weight_bits,
            layers: 2,
        }
    }

    /// The paper's GRU benchmark: GRU-1024, two stacked layers.
    pub fn gru_1024(block_size: usize, weight_bits: u8) -> Self {
        RnnSpec {
            cell: HwCell::Gru,
            input_dim: 153,
            hidden_dim: 1024,
            block_size,
            io_block_size: block_size,
            weight_bits,
            layers: 2,
        }
    }

    /// The recurrent output dimension (projection or hidden).
    pub fn output_dim(&self) -> usize {
        match self.cell {
            HwCell::Lstm { projection } => projection.unwrap_or(self.hidden_dim),
            HwCell::Gru => self.hidden_dim,
        }
    }

    /// Dense (uncompressed) parameter count of one layer's weight
    /// matrices.
    pub fn dense_params(&self) -> u64 {
        let (i, h, r) = (
            self.input_dim as u64,
            self.hidden_dim as u64,
            self.output_dim() as u64,
        );
        match self.cell {
            HwCell::Lstm { projection } => {
                let gates = 4 * h * (i + r);
                let proj = if projection.is_some() { r * h } else { 0 };
                gates + proj
            }
            HwCell::Gru => 2 * h * (i + h) + h * i + h * h,
        }
    }

    /// Compressed parameter count of one layer (block-circulant storage
    /// with edge padding).
    pub fn compressed_params(&self) -> u64 {
        self.matvecs()
            .iter()
            .map(|m| {
                let p = m.rows.div_ceil(m.block) as u64;
                let q = m.cols.div_ceil(m.block) as u64;
                p * q * m.block as u64
            })
            .sum()
    }

    /// Weight-matrix compression ratio (the paper's "Matrix Compression
    /// Ratio" row).
    pub fn compression_ratio(&self) -> f64 {
        self.dense_params() as f64 / self.compressed_params() as f64
    }

    /// On-chip weight bytes for all layers: spectra of the defining
    /// vectors (`L_b/2 + 1` complex values per block) at `weight_bits`.
    pub fn weight_bytes(&self) -> u64 {
        let bits: u64 = self
            .matvecs()
            .iter()
            .map(|m| {
                let p = m.rows.div_ceil(m.block) as u64;
                let q = m.cols.div_ceil(m.block) as u64;
                let reals_per_block = (m.block as u64 / 2 + 1) * 2;
                p * q * reals_per_block * self.weight_bits as u64
            })
            .sum();
        bits * self.layers as u64 / 8
    }

    /// Phase-I step-1 sanity check: does the whole model (plus an I/O
    /// reserve) fit in on-chip BRAM? (Fig. 2, "Fit into FPGA?")
    pub fn fits_in_bram(&self, device: &Device) -> bool {
        self.weight_bytes() as f64 <= device.bram_bytes() as f64 * WEIGHT_BRAM_BUDGET
    }

    /// The weight matvecs of one layer with their pipeline stage
    /// assignment (1-based CGPipe stage).
    fn matvecs(&self) -> Vec<MatvecWork> {
        let (i, h, r) = (self.input_dim, self.hidden_dim, self.output_dim());
        match self.cell {
            HwCell::Lstm { projection } => {
                let mut v = vec![
                    MatvecWork {
                        rows: 4 * h,
                        cols: i,
                        block: self.io_block_size,
                        stage: 1,
                    },
                    MatvecWork {
                        rows: 4 * h,
                        cols: r,
                        block: self.block_size,
                        stage: 1,
                    },
                ];
                if projection.is_some() {
                    v.push(MatvecWork {
                        rows: r,
                        cols: h,
                        block: self.io_block_size,
                        stage: 3,
                    });
                }
                v
            }
            HwCell::Gru => vec![
                MatvecWork {
                    rows: 2 * h,
                    cols: i + h,
                    block: self.block_size,
                    stage: 1,
                },
                MatvecWork {
                    rows: h,
                    cols: i,
                    block: self.io_block_size,
                    stage: 2,
                },
                MatvecWork {
                    rows: h,
                    cols: h,
                    block: self.block_size,
                    stage: 2,
                },
            ],
        }
    }

    /// Point-wise multiply count and activation count, with their stage.
    fn pointwise(&self) -> (u64, u64, usize) {
        let h = self.hidden_dim as u64;
        match self.cell {
            // Peepholes (3H), cell update (2H), output gate product (1H);
            // activations: 3 sigmoids + cell tanh + output tanh.
            HwCell::Lstm { .. } => (6 * h, 5 * h, 2),
            // r⊙c, (1−z)⊙c, z⊙c̃; activations: z, r sigmoids + c̃ tanh.
            HwCell::Gru => (3 * h, 3 * h, 3),
        }
    }
}

/// One weight matvec's dimensions, block size and pipeline stage.
#[derive(Debug, Clone, Copy)]
struct MatvecWork {
    rows: usize,
    cols: usize,
    block: usize,
    stage: usize,
}

/// Cycle counts of the three CGPipe stages for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageCycles {
    /// Stage-1 cycles.
    pub stage1: u64,
    /// Stage-2 cycles.
    pub stage2: u64,
    /// Stage-3 cycles.
    pub stage3: u64,
}

impl StageCycles {
    /// Initiation interval: the longest stage (a new frame enters every
    /// `II` cycles thanks to the double buffers).
    pub fn ii(&self) -> u64 {
        self.stage1.max(self.stage2).max(self.stage3)
    }

    /// End-to-end frame latency in cycles (`pipeline depth × II`).
    pub fn latency_cycles(&self) -> u64 {
        3 * self.ii()
    }

    /// Cycles as an array.
    pub fn as_array(&self) -> [u64; 3] {
        [self.stage1, self.stage2, self.stage3]
    }

    /// Sum of the three stage durations: the pipeline fill, and the exact
    /// latency of the first frame through an idle CGPipe.
    pub fn fill_cycles(&self) -> u64 {
        self.stage1 + self.stage2 + self.stage3
    }

    /// Closed-form completion cycle of the `frame`-th frame (1-indexed)
    /// in a back-to-back stream through an initially idle pipeline:
    /// `fill + (frame − 1) · II`. This is *exact* against the
    /// event-driven [`crate::sim::simulate_batch`] (property-tested
    /// there), which is what lets the serving scheduler's cost model
    /// predict batch makespans without running the simulation.
    ///
    /// # Panics
    ///
    /// Panics if `frame == 0` (frames are 1-indexed).
    pub fn stream_completion_cycles(&self, frame: u64) -> u64 {
        assert!(frame > 0, "frames are 1-indexed");
        self.fill_cycles() + (frame - 1) * self.ii()
    }

    /// The same pipeline with every stage stretched by `factor` —
    /// the timing of a device in brownout (thermal or voltage
    /// degradation slows the whole fabric uniformly). Stage cycles are
    /// rounded up and never drop below one cycle, so `scaled(1.0)` is
    /// the identity and the result stays a valid pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite or is `< 1.0` — brownouts only
    /// ever slow a device down.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "stage scale factor must be finite and >= 1.0, got {factor}"
        );
        let stretch = |c: u64| ((c as f64 * factor).ceil() as u64).max(1);
        StageCycles {
            stage1: stretch(self.stage1),
            stage2: stretch(self.stage2),
            stage3: stretch(self.stage3),
        }
    }

    /// Per-frame CGPipe timing of the paper's FFT8 LSTM-1024 design on
    /// the Kintex UltraScale KU060 (Table III's "E-RNN FFT8" column) —
    /// a named preset for building heterogeneous device pools.
    pub fn xcku060() -> Self {
        Accelerator::new(RnnSpec::lstm_1024(8, 12), crate::device::XCKU060).stage_cycles()
    }

    /// Per-frame CGPipe timing of the same design on the Virtex-7 690t
    /// (ADM-PCIE-7V3). More DSPs than the KU060, hence the faster II —
    /// the per-platform `StageCycles` gap that makes placement in a mixed
    /// pool a cost-model decision rather than earliest-free.
    pub fn virtex7_690t() -> Self {
        Accelerator::new(RnnSpec::lstm_1024(8, 12), crate::device::ADM_PCIE_7V3).stage_cycles()
    }
}

/// A fully configured accelerator on a device.
#[derive(Debug, Clone)]
pub struct Accelerator {
    spec: RnnSpec,
    device: Device,
    pe: PeDesign,
    num_pes: u32,
}

/// Performance/resource summary of one accelerator configuration — one
/// column of the paper's Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelReport {
    /// Design label.
    pub name: String,
    /// Platform name.
    pub platform: &'static str,
    /// Compressed parameters of the top layer, in millions.
    pub params_millions: f64,
    /// Weight-matrix compression ratio.
    pub compression_ratio: f64,
    /// Fixed-point word length.
    pub quant_bits: u8,
    /// Number of processing elements instantiated.
    pub num_pes: u32,
    /// Per-stage cycles.
    pub stages: StageCycles,
    /// End-to-end frame latency (µs).
    pub latency_us: f64,
    /// Pipelined throughput in frames per second.
    pub fps: f64,
    /// DSP slices used / percentage.
    pub dsp_used: u32,
    /// DSP utilization (%).
    pub dsp_pct: f64,
    /// BRAM blocks used.
    pub bram_used: u32,
    /// BRAM utilization (%).
    pub bram_pct: f64,
    /// LUTs used.
    pub lut_used: u32,
    /// LUT utilization (%).
    pub lut_pct: f64,
    /// Flip-flops used.
    pub ff_used: u32,
    /// FF utilization (%).
    pub ff_pct: f64,
}

impl Accelerator {
    /// Configures an accelerator for the workload on the device, sizing
    /// the PE array with the paper's resource rule.
    pub fn new(spec: RnnSpec, device: Device) -> Self {
        let pe = PeDesign::new(spec.block_size, spec.weight_bits);
        let num_pes = pe.num_pes(&device, RESOURCE_BUDGET);
        Accelerator {
            spec,
            device,
            pe,
            num_pes,
        }
    }

    /// The workload spec.
    pub fn spec(&self) -> &RnnSpec {
        &self.spec
    }

    /// The number of PEs instantiated.
    pub fn num_pes(&self) -> u32 {
        self.num_pes
    }

    /// Counted cycles per CGPipe stage for one frame.
    pub fn stage_cycles(&self) -> StageCycles {
        let mut stage_pe_cycles = [0u64; 3];
        for m in self.spec.matvecs() {
            let p = m.rows.div_ceil(m.block) as u64;
            let q = m.cols.div_ceil(m.block) as u64;
            let op_cycles = (m.block as u64 / 2 + 1).max(1);
            // Decoupled transforms: q forward FFTs + p inverse FFTs, each
            // streaming one bin per cycle like the MAC datapath.
            let work = (p * q + p + q) * op_cycles;
            stage_pe_cycles[m.stage - 1] += work;
        }
        let pes = self.num_pes as u64;
        let mut cycles = [0u64; 3];
        for s in 0..3 {
            cycles[s] = stage_pe_cycles[s].div_ceil(pes);
        }

        // Point-wise stage: a bank of multipliers (one per two PEs, they
        // are idle-time shared per the paper's TDM note) and PWL
        // activation units.
        let (mults, acts, pw_stage) = self.spec.pointwise();
        let mult_bank = (self.num_pes as u64).max(32);
        let act_bank = (self.num_pes as u64 / 2).max(16);
        let pw_cycles = mults.div_ceil(mult_bank) + acts.div_ceil(act_bank) + 16;
        cycles[pw_stage - 1] += pw_cycles;

        StageCycles {
            stage1: cycles[0].max(1),
            stage2: cycles[1].max(1),
            stage3: cycles[2].max(1),
        }
    }

    /// BRAM blocks consumed: banked weights plus stream buffers.
    fn bram_blocks_used(&self) -> u32 {
        let block_bytes = 36 * 1024 / 8;
        // Weight banking for multi-PE read bandwidth.
        let banking = (self.num_pes / 96).clamp(1, 4) as u64;
        let weights = (self.spec.weight_bytes() * banking).div_ceil(block_bytes);
        // Double buffers between stages + input/output staging.
        let buffers = 6 * (self.spec.hidden_dim as u64 * 4).div_ceil(block_bytes) + 24;
        ((weights + buffers) as u32).min(self.device.bram_blocks)
    }

    /// Full report — one Table III column.
    pub fn report(&self, name: impl Into<String>) -> AccelReport {
        let stages = self.stage_cycles();
        let ii = stages.ii();
        let period_us = Device::clock_period_us();
        let latency_us = stages.latency_cycles() as f64 * period_us;
        let fps = Device::CLOCK_HZ / ii as f64;

        let h = self.spec.hidden_dim as u32;
        let dsp_used = (self.num_pes * self.pe.dsp_per_pe() + h / 8 + 32).min(self.device.dsp);
        let pwl_lut = 64 * 150; // activation bank
        let controller_lut = (self.device.lut as f64 * 0.06) as u32;
        let lut_used =
            (self.num_pes * self.pe.lut_per_pe() + pwl_lut + controller_lut).min(self.device.lut);
        let ff_used = (self.num_pes * self.pe.ff_per_pe() + (controller_lut as f64 * 0.7) as u32)
            .min(self.device.ff);
        let bram_used = self.bram_blocks_used();

        AccelReport {
            name: name.into(),
            platform: self.device.name,
            params_millions: self.spec.compressed_params() as f64 / 1e6,
            compression_ratio: self.spec.compression_ratio(),
            quant_bits: self.spec.weight_bits,
            num_pes: self.num_pes,
            stages,
            latency_us,
            fps,
            dsp_used,
            dsp_pct: dsp_used as f64 / self.device.dsp as f64 * 100.0,
            bram_used,
            bram_pct: bram_used as f64 / self.device.bram_blocks as f64 * 100.0,
            lut_used,
            lut_pct: lut_used as f64 / self.device.lut as f64 * 100.0,
            ff_used,
            ff_pct: ff_used as f64 / self.device.ff as f64 * 100.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{ADM_PCIE_7V3, XCKU060};

    #[test]
    fn lstm_param_counts_match_table_iii() {
        // Paper Table III: 0.41M at block 8, 0.20M at block 16,
        // compression 7.9:1 and 15.9:1.
        let s8 = RnnSpec::lstm_1024(8, 12);
        assert!((s8.compressed_params() as f64 / 1e6 - 0.41).abs() < 0.02);
        assert!((s8.compression_ratio() - 7.9).abs() < 0.2);
        let s16 = RnnSpec::lstm_1024(16, 12);
        assert!((s16.compressed_params() as f64 / 1e6 - 0.20).abs() < 0.02);
        assert!((s16.compression_ratio() - 15.9).abs() < 0.3);
    }

    #[test]
    fn gru_param_counts_match_table_iii() {
        // Paper: GRU 0.45M at block 8, 0.23M at block 16, ratios 8.0/15.9.
        let s8 = RnnSpec::gru_1024(8, 12);
        assert!(
            (s8.compressed_params() as f64 / 1e6 - 0.45).abs() < 0.02,
            "{}",
            s8.compressed_params()
        );
        let s16 = RnnSpec::gru_1024(16, 12);
        assert!((s16.compressed_params() as f64 / 1e6 - 0.23).abs() < 0.02);
    }

    #[test]
    fn latencies_reproduce_table_iii_shape() {
        // Paper: E-RNN FFT8 LSTM 13.7 µs (KU060) / 12.9 µs (7V3);
        // FFT16 7.4/8.3 µs; GRU FFT8 10.5 µs; GRU FFT16 6.7/6.5 µs.
        // The model must land within ±35% and preserve every ordering.
        let lat = |spec: RnnSpec, dev| Accelerator::new(spec, dev).report("x").latency_us;
        let l8_ku = lat(RnnSpec::lstm_1024(8, 12), XCKU060);
        let l8_7v = lat(RnnSpec::lstm_1024(8, 12), ADM_PCIE_7V3);
        let l16_ku = lat(RnnSpec::lstm_1024(16, 12), XCKU060);
        let l16_7v = lat(RnnSpec::lstm_1024(16, 12), ADM_PCIE_7V3);
        let g8_ku = lat(RnnSpec::gru_1024(8, 12), XCKU060);
        let g16_ku = lat(RnnSpec::gru_1024(16, 12), XCKU060);

        let close = |ours: f64, paper: f64| (ours - paper).abs() / paper < 0.35;
        assert!(close(l8_ku, 13.7), "FFT8 KU060: {l8_ku}");
        assert!(close(l8_7v, 12.9), "FFT8 7V3: {l8_7v}");
        assert!(close(l16_ku, 7.4), "FFT16 KU060: {l16_ku}");
        assert!(close(l16_7v, 8.3), "FFT16 7V3: {l16_7v}");
        assert!(close(g8_ku, 10.5), "GRU8 KU060: {g8_ku}");
        assert!(close(g16_ku, 6.7), "GRU16 KU060: {g16_ku}");

        // Orderings: FFT16 beats FFT8; GRU beats LSTM at equal block size.
        assert!(l16_ku < l8_ku);
        assert!(l16_7v < l8_7v);
        assert!(g8_ku < l8_ku);
        assert!(g16_ku < l16_ku);
    }

    #[test]
    fn fps_is_three_over_latency() {
        // The pipelined FPS/latency relationship visible throughout the
        // paper's Table III.
        let acc = Accelerator::new(RnnSpec::gru_1024(8, 12), XCKU060);
        let r = acc.report("gru8");
        let expected = 3.0 / (r.latency_us * 1e-6);
        assert!((r.fps - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn fps_lands_near_paper_values() {
        // Paper: E-RNN FFT8 LSTM 231,514 FPS (KU060); GRU FFT8 284,540.
        let lstm = Accelerator::new(RnnSpec::lstm_1024(8, 12), XCKU060)
            .report("l8")
            .fps;
        let gru = Accelerator::new(RnnSpec::gru_1024(8, 12), XCKU060)
            .report("g8")
            .fps;
        assert!((lstm - 231_514.0).abs() / 231_514.0 < 0.35, "{lstm}");
        assert!((gru - 284_540.0).abs() / 284_540.0 < 0.35, "{gru}");
    }

    #[test]
    fn block_8_model_fits_bram_on_both_devices() {
        // Phase I step 1 (Sec. VI-B): "a block size of 4 or 8 will fit the
        // whole RNN model into BRAM".
        for dev in [ADM_PCIE_7V3, XCKU060] {
            assert!(RnnSpec::lstm_1024(8, 12).fits_in_bram(&dev), "{}", dev.name);
            assert!(RnnSpec::gru_1024(8, 12).fits_in_bram(&dev), "{}", dev.name);
        }
        // The uncompressed model does not fit (which is the whole point).
        assert!(!RnnSpec::lstm_1024(1, 12).fits_in_bram(&XCKU060));
    }

    #[test]
    fn utilization_is_bounded_and_substantial() {
        for spec in [RnnSpec::lstm_1024(8, 12), RnnSpec::gru_1024(16, 12)] {
            for dev in [ADM_PCIE_7V3, XCKU060] {
                let r = Accelerator::new(spec, dev).report("d");
                for pct in [r.dsp_pct, r.bram_pct, r.lut_pct, r.ff_pct] {
                    assert!((0.0..=100.0).contains(&pct));
                }
                assert!(r.dsp_pct > 40.0, "{}: dsp {}", dev.name, r.dsp_pct);
            }
        }
    }

    #[test]
    fn platform_presets_reflect_table_iii_speed_gap() {
        // The 7V3 carries more DSPs than the KU060, so the same FFT8
        // LSTM-1024 design runs at a shorter II there — the heterogeneity
        // the serving scheduler's cost model exploits.
        let ku = StageCycles::xcku060();
        let v7 = StageCycles::virtex7_690t();
        assert!(ku.ii() > 0 && v7.ii() > 0);
        assert!(v7.ii() < ku.ii(), "7V3 {} vs KU060 {}", v7.ii(), ku.ii());
        assert_eq!(
            ku,
            Accelerator::new(RnnSpec::lstm_1024(8, 12), XCKU060).stage_cycles()
        );
        assert_eq!(
            v7,
            Accelerator::new(RnnSpec::lstm_1024(8, 12), ADM_PCIE_7V3).stage_cycles()
        );
    }

    #[test]
    fn stream_completion_closed_form_basics() {
        let s = StageCycles {
            stage1: 5,
            stage2: 3,
            stage3: 2,
        };
        assert_eq!(s.fill_cycles(), 10);
        // Frame 1 = pipeline fill; each further frame adds one II.
        assert_eq!(s.stream_completion_cycles(1), 10);
        assert_eq!(s.stream_completion_cycles(4), 10 + 3 * 5);
    }

    #[test]
    fn io_block_tuning_reduces_work() {
        let base = RnnSpec::lstm_1024(8, 12);
        let tuned = RnnSpec {
            io_block_size: 16,
            ..base
        };
        let b = Accelerator::new(base, XCKU060);
        let t = Accelerator::new(tuned, XCKU060);
        assert!(t.stage_cycles().ii() < b.stage_cycles().ii());
        assert!(tuned.compressed_params() < base.compressed_params());
    }
}
