//! The correctness gate every run passes through, the reconstruction of
//! a run's batches, and their replay through the quantized datapath.

use std::collections::{BTreeMap, HashMap};

use ernn_serve::{ExecScratch, NetworkState, Response, Workload as Shape};

use crate::stats;
use crate::workload::{Load, Served, Workload};

/// One lane of a reconstructed batch: the request and, for a streaming
/// chunk, its session and whether it is the session's last chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lane {
    pub id: u64,
    pub session: Option<(u64, bool)>,
}

/// A batch as the run dispatched it: one model on one device at one
/// virtual instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    pub model: usize,
    pub lanes: Vec<Lane>,
    /// Frames per lane, in lane order.
    pub frames: Vec<u64>,
}

/// Groups the served responses by (device, `dispatch_us`, model), in
/// dispatch order, lanes by request id.
pub fn batches(load: &Load, served: &Served) -> Vec<Batch> {
    let mut groups: BTreeMap<(u64, usize, usize), Vec<Lane>> = BTreeMap::new();
    for r in served.responses.iter().filter(|r| !r.shed) {
        let device = r.device.expect("served responses name their device");
        // Virtual times are non-negative, so their bit patterns order
        // like the values.
        let key = (r.dispatch_us.to_bits(), device, r.model);
        let session = match r.workload {
            Shape::Chunk { session, last, .. } => Some((session, last)),
            _ => None,
        };
        groups
            .entry(key)
            .or_default()
            .push(Lane { id: r.id, session });
    }
    groups
        .into_iter()
        .map(|((_, _, model), lanes)| Batch {
            model,
            frames: lanes
                .iter()
                .map(|l| load.request(l.id).1.len() as u64)
                .collect(),
            lanes,
        })
        .collect()
}

/// Lane-frames over a batch list.
pub fn lane_frames(batches: &[Batch]) -> u64 {
    batches.iter().flat_map(|b| &b.frames).sum()
}

/// Replays batches through `CompiledModel::infer_batch_with` (stateless
/// batches) or `infer_batch_states_into` (batches carrying session
/// chunks, whose recurrent state it threads between a session's chunks
/// as the executor does).
pub struct Replayer<'w> {
    w: &'w Workload,
    load: &'w Load,
    scratch: ExecScratch,
    sessions: HashMap<u64, NetworkState>,
    out: Vec<Vec<Vec<f32>>>,
}

impl<'w> Replayer<'w> {
    pub fn new(w: &'w Workload, load: &'w Load) -> Self {
        Replayer {
            w,
            load,
            scratch: ExecScratch::new(),
            sessions: HashMap::new(),
            out: Vec::new(),
        }
    }

    /// Runs one batch and returns its per-lane logits.
    pub fn run(&mut self, batch: &Batch) -> &[Vec<Vec<f32>>] {
        let (w, load) = (self.w, self.load);
        let model = &w.models[batch.model];
        let frames: Vec<&[Vec<f32>]> = batch.lanes.iter().map(|l| load.request(l.id).1).collect();
        if batch.lanes.iter().all(|l| l.session.is_none()) {
            self.out = model.infer_batch_with(&frames, &mut self.scratch);
            return &self.out;
        }
        let mut states: Vec<Option<NetworkState>> = batch
            .lanes
            .iter()
            .map(|l| {
                l.session.map(|(s, _)| {
                    self.sessions
                        .remove(&s)
                        .unwrap_or_else(|| model.fresh_state())
                })
            })
            .collect();
        model.infer_batch_states_into(&frames, &mut states, &mut self.out, &mut self.scratch);
        for (lane, state) in batch.lanes.iter().zip(states) {
            if let (Some((s, false)), Some(state)) = (lane.session, state) {
                self.sessions.insert(s, state);
            }
        }
        &self.out
    }
}

/// Failures the gate found, and why.
#[derive(Debug, Default)]
pub struct Gate {
    pub failed: usize,
    pub notes: Vec<String>,
}

impl Gate {
    /// Adds another gate's failures to this one.
    pub fn absorb(&mut self, other: Gate) {
        self.failed += other.failed;
        for note in other.notes {
            self.fail(0, note);
        }
    }

    fn fail(&mut self, n: usize, note: String) {
        self.failed += n;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

fn find(responses: &[Response], id: u64) -> Option<&Response> {
    responses
        .binary_search_by_key(&id, |r| r.id)
        .ok()
        .map(|i| &responses[i])
}

/// Checks one serving run:
///
/// * every submitted id is answered exactly once;
/// * every shed response carries a `ShedReason` (and counts as failed);
/// * served logits equal, bit for bit, a replay of the reconstructed
///   batches through the quantized datapath;
/// * each streaming session's chunk logits, stitched in order, equal
///   whole-utterance `CompiledModel::infer` on the session's frames.
pub fn gate(w: &Workload, load: &Load, served: &Served, batches: &[Batch]) -> Gate {
    let mut gate = Gate::default();
    let answered: Vec<u64> = served.responses.iter().map(|r| r.id).collect();
    let submitted = load.submitted_ids();
    if answered != submitted {
        let diff = answered.len().abs_diff(submitted.len()).max(1);
        gate.fail(
            diff,
            format!(
                "answered {} of {} submitted ids",
                answered.len(),
                submitted.len()
            ),
        );
    }
    for r in &served.responses {
        if r.shed {
            let why = r
                .shed_reason
                .map_or("no reason".to_string(), |s| format!("{s:?}"));
            gate.fail(1, format!("request {} shed ({why})", r.id));
        } else if r.shed_reason.is_some() {
            gate.fail(1, format!("request {} served with a shed reason", r.id));
        }
    }

    let mut replay = Replayer::new(w, load);
    for batch in batches {
        let logits = replay.run(batch);
        for (lane, got) in batch.lanes.iter().zip(logits) {
            if find(&served.responses, lane.id).map(|r| &r.logits) != Some(got) {
                gate.fail(
                    1,
                    format!("request {} logits differ from the batch replay", lane.id),
                );
            }
        }
    }

    let mut sessions: BTreeMap<u64, Vec<(u32, &Response)>> = BTreeMap::new();
    for r in served.responses.iter().filter(|r| !r.shed) {
        if let Shape::Chunk { session, index, .. } = r.workload {
            sessions.entry(session).or_default().push((index, r));
        }
    }
    for (session, mut chunks) in sessions {
        chunks.sort_by_key(|(i, _)| *i);
        let model = &w.models[chunks[0].1.model];
        let frames: Vec<Vec<f32>> = chunks
            .iter()
            .flat_map(|(_, r)| load.request(r.id).1.iter().cloned())
            .collect();
        let stitched: Vec<Vec<f32>> = chunks
            .iter()
            .flat_map(|(_, r)| r.logits.iter().cloned())
            .collect();
        if stitched != model.infer(&frames) {
            gate.fail(
                chunks.len(),
                format!("session {session}: stitched chunks differ from whole-utterance infer"),
            );
        }
    }
    gate
}

/// The modelled-accelerator (virtual-clock) end-to-end metrics of one
/// run. Deterministic: the same seed gives the same values bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Virt {
    pub p50_us: f64,
    pub tail_us: f64,
    /// The percentile `tail_us` sits at, and the samples it summarizes.
    pub tail_pct: f64,
    pub samples: usize,
    /// Deadline-carrying requests that met their deadline (a shed
    /// request counts as a miss); 1 when no request carries a deadline.
    pub slo_met_frac: f64,
    pub throughput_rps: f64,
}

/// Samples beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

pub fn virt(served: &Served) -> Virt {
    let mut latencies: Vec<f64> = served
        .responses
        .iter()
        .filter(|r| !r.shed)
        .map(Response::latency_us)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let (tail_us, tail_pct) = stats::tail(&latencies, TAIL_BEYOND);
    let tracked = served
        .responses
        .iter()
        .filter(|r| r.deadline_tracked)
        .count();
    let met = served
        .responses
        .iter()
        .filter(|r| r.deadline_tracked && r.deadline_met)
        .count();
    Virt {
        p50_us: stats::median(&latencies),
        tail_us,
        tail_pct,
        samples: latencies.len(),
        slo_met_frac: if tracked == 0 {
            1.0
        } else {
            met as f64 / tracked as f64
        },
        throughput_rps: served.metrics.throughput_rps,
    }
}
