//! The benchmark's three serving workloads: models built through the
//! lifecycle `Pipeline`, the runtime that serves them, and the request
//! load generated from the workload seed.
//!
//! * `offline_bulk` — a paper-sized two-layer LSTM (153 → 512, projection
//!   256) at block size 16 behind a closed loop of 16 clients on two
//!   devices with the thread-pool executor. Large matvecs dominate; the
//!   only workload where executor parallelism matters.
//! * `mixed_tenant` — an interactive GRU-64 tenant (tight SLO) beside a
//!   batch GRU-256 tenant (loose SLO), 3:1, open-loop Poisson, EDF with
//!   cost-model placement and predicted-late shedding, a weight budget of
//!   one image per device. Exercises admission, residency and batching.
//! * `cluster_stream` — sixteen one-device shards with load-feedback
//!   steering over three GRU tenants, streaming sessions (state written
//!   back between chunks) beside short utterances. Tiny batches, so
//!   per-call overhead and the router dominate rather than MAC throughput.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use ernn_core::pipeline::Pipeline;
use ernn_fpga::{Device, ADM_PCIE_7V3, XCKU060};
use ernn_model::{BlockPolicy, CellType, ModelSpec};
use ernn_serve::loadgen::{open_loop_poisson, synthetic_utterances};
use ernn_serve::sched::{
    AdmissionPolicy, CostModel, DeviceResidency, ModelRegistry, SchedPolicy, SchedReport,
    SchedRuntime,
};
use ernn_serve::{
    ClusterConfig, ClusterReport, ClusterRuntime, ClusterSpec, CompiledModel, ExecutorKind,
    HealthConfig, Request, Response, RuntimeConfig, ServeMetrics, ShardReport, Steering,
    TimelineConfig, TraceConfig, TransferModel,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::spans::Spans;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    OfflineBulk,
    MixedTenant,
    ClusterStream,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::OfflineBulk, Kind::MixedTenant, Kind::ClusterStream];

    pub fn name(self) -> &'static str {
        match self {
            Kind::OfflineBulk => "offline_bulk",
            Kind::MixedTenant => "mixed_tenant",
            Kind::ClusterStream => "cluster_stream",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// The benchmark's size, or a tiny one for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Offline LSTM: the paper's TIMIT acoustic-model shape.
const LSTM_INPUT: usize = 153;
const LSTM_HIDDEN: usize = 512;
const LSTM_PROJECTION: usize = 256;
/// The GRU tenants' feature dimension.
const GRU_INPUT: usize = 52;
const CLASSES: usize = 40;

/// `offline_bulk` closed-loop shape: 16 clients on 2 devices (one
/// thread-pool worker each).
const OFFLINE_CLIENTS: usize = 16;
const OFFLINE_FRAMES: (usize, usize) = (80, 160);
const OFFLINE_REQUESTS: usize = 96;
const OFFLINE_LOADS: usize = 2;

/// Loads per open-loop workload.
const LOADS: usize = 4;

/// `mixed_tenant` SLOs per tenant class and its offered rate (virtual
/// requests per second). The rate keeps batches full while the
/// predicted-late shedder never fires, so every request is answered.
const INTERACTIVE_SLO_US: f64 = 60.0;
const BATCH_SLO_US: f64 = 20_000.0;
const MIXED_RATE_RPS: f64 = 350_000.0;
const MIXED_REQUESTS: usize = 1000;

/// `cluster_stream` shape (the cluster sweep's calm `feedback` cluster).
const SHARDS: usize = 16;
const REPLICATION: usize = 8;
const CHUNK_FRAMES: usize = 6;
const SESSION_FRAMES: usize = 36;
const TARGET_PARALLELISM: f64 = 10.0;
const SLO_MULT: f64 = 3.0;
const CLUSTER_UTTERANCES: usize = 1000;
const CLUSTER_SESSIONS: usize = 4;

/// Flight-recorder, timeline and health settings of the traced run.
const TRACE_CAPACITY: usize = 1 << 16;
const TIMELINE_INTERVAL_US: f64 = 50.0;
const TIMELINE_CAPACITY: usize = 1 << 14;

/// How a load's requests reach the runtime.
#[derive(Debug, Clone)]
pub enum Arrivals {
    /// Pre-generated arrivals (`SchedRuntime::run` / `ClusterRuntime::run`).
    Open(Vec<Request>),
    /// `SchedRuntime::run_closed_loop`: request `i` carries payload
    /// `i % payloads.len()`.
    Closed {
        payloads: Vec<(usize, Vec<Vec<f32>>)>,
        concurrency: usize,
        total: usize,
    },
}

/// One generated load and an index of its requests.
#[derive(Debug, Clone)]
pub struct Load {
    pub arrivals: Arrivals,
    by_id: HashMap<u64, usize>,
}

impl Load {
    pub fn new(arrivals: Arrivals) -> Load {
        let by_id = match &arrivals {
            Arrivals::Open(requests) => requests
                .iter()
                .enumerate()
                .map(|(i, r)| (r.id, i))
                .collect(),
            Arrivals::Closed { .. } => HashMap::new(),
        };
        Load { arrivals, by_id }
    }

    /// Requests one serving run submits.
    pub fn attempted(&self) -> usize {
        match &self.arrivals {
            Arrivals::Open(requests) => requests.len(),
            Arrivals::Closed { total, .. } => *total,
        }
    }

    /// Submitted ids, ascending.
    pub fn submitted_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = match &self.arrivals {
            Arrivals::Open(requests) => requests.iter().map(|r| r.id).collect(),
            Arrivals::Closed { total, .. } => (0..*total as u64).collect(),
        };
        ids.sort_unstable();
        ids
    }

    /// The model and frames request `id` carried.
    pub fn request(&self, id: u64) -> (usize, &[Vec<f32>]) {
        match &self.arrivals {
            Arrivals::Open(requests) => {
                let r = &requests[self.by_id[&id]];
                (r.model, &r.frames)
            }
            Arrivals::Closed { payloads, .. } => {
                let (model, frames) = &payloads[id as usize % payloads.len()];
                (*model, frames)
            }
        }
    }

    /// The deadline request `id` carried (open loads only).
    pub fn deadline(&self, id: u64) -> Option<f64> {
        match &self.arrivals {
            Arrivals::Open(requests) => requests[self.by_id[&id]].deadline_us,
            Arrivals::Closed { .. } => None,
        }
    }

    /// A shard scheduler's request as the router handed it over
    /// (shard-local model, session and arrival) with its original
    /// deadline.
    pub fn shard_request(&self, r: &Response) -> Request {
        let frames = self.request(r.id).1.to_vec();
        let request = match r.workload {
            ernn_serve::Workload::Chunk {
                session,
                index,
                last,
            } => Request::chunk(r.id, session, index, last, frames, r.arrival_us),
            _ => Request::new(r.id, frames, r.arrival_us),
        }
        .with_model(r.model);
        match self.deadline(r.id) {
            Some(d) => request.with_deadline(d),
            None => request,
        }
    }

    /// The load as open-loop arrivals: the load itself, or for a closed
    /// loop the requests it issued at the times `served` issued them.
    pub fn open(&self, served: &Served) -> Load {
        match &self.arrivals {
            Arrivals::Open(_) => self.clone(),
            Arrivals::Closed { .. } => Load::new(Arrivals::Open(
                served
                    .responses
                    .iter()
                    .map(|r| {
                        let (model, frames) = self.request(r.id);
                        Request::new(r.id, frames.to_vec(), r.arrival_us).with_model(model)
                    })
                    .collect(),
            )),
        }
    }
}

/// Wall time of one model's pipeline `compile` stage.
#[derive(Debug, Clone)]
pub struct ModelBuild {
    pub name: String,
    pub compile_ns: u64,
}

/// The serving entry point a workload drives.
#[derive(Debug)]
pub enum Runtime {
    Sched(SchedRuntime),
    Cluster(ClusterRuntime),
}

/// One serving run's outcome, normalized across the two runtimes.
#[derive(Debug)]
pub struct Served {
    /// Every response, sorted by request id.
    pub responses: Vec<Response>,
    pub metrics: ServeMetrics,
    /// Host wall time of the serving call.
    pub wall_ns: u64,
    pub model_loads: u64,
    pub state_loads: u64,
    pub forwards: u64,
    pub replications: u64,
    /// Flight-recorder events retained or dropped (0 untraced).
    pub trace_events: u64,
    /// FFT transforms per executor worker, per scheduler engine.
    pub worker_transforms: Vec<Vec<u64>>,
    /// Cluster runs: what each live shard's scheduler served.
    pub shards: Vec<ShardRun>,
}

/// One shard's part of a cluster run.
#[derive(Debug)]
pub struct ShardRun {
    pub shard: usize,
    /// Global ids of the models placed on the shard; a model's
    /// shard-local id is its position here.
    pub placed: Vec<usize>,
    /// The shard scheduler's responses (shard-local model ids, sessions
    /// and arrival times).
    pub responses: Vec<Response>,
}

/// A workload, set up and ready to serve.
#[derive(Debug)]
pub struct Workload {
    pub kind: Kind,
    /// Models by global id.
    pub models: Vec<Arc<CompiledModel>>,
    pub names: Vec<String>,
    pub builds: Vec<ModelBuild>,
    /// Device pool (sched workloads) or per-shard pools (cluster).
    pub platforms: Vec<Vec<Device>>,
    pub policy: SchedPolicy,
    pub executor: ExecutorKind,
    /// Independently generated loads of the same shape; a run serves
    /// each and reports medians over them.
    pub loads: Vec<Load>,
    spec: Option<ClusterSpec>,
    runtime: Runtime,
}

fn compile(
    spans: &mut Spans,
    builds: &mut Vec<ModelBuild>,
    name: &str,
    spec: ModelSpec,
    block: usize,
    seed: u64,
) -> CompiledModel {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    spans.time(format!("pipeline.model.{name}"), |spans| {
        let stage = Pipeline::paper(spec)
            .expect("valid spec")
            .block_policy(BlockPolicy::uniform(block));
        let trained = spans.time("pipeline.init", |_| stage.init(&mut rng));
        let compressed = spans.time("pipeline.project", |_| {
            trained.project().expect("uniform block policy")
        });
        let quantized = spans.time("pipeline.quantize", |_| {
            compressed.quantize().expect("paper datapath")
        });
        let start = Instant::now();
        let model = spans.time("pipeline.compile", |_| {
            quantized.compile().expect("paper platform").into_model()
        });
        builds.push(ModelBuild {
            name: name.to_string(),
            compile_ns: start.elapsed().as_nanos() as u64,
        });
        model
    })
}

fn gru(hidden: usize) -> ModelSpec {
    ModelSpec::new(CellType::Gru, GRU_INPUT, CLASSES).layer_dims(&[hidden])
}

/// Alternating Table-IV boards: the heterogeneity cost-model placement
/// and load-feedback steering exploit.
fn alternating(n: usize) -> Vec<Device> {
    (0..n)
        .map(|d| if d % 2 == 0 { XCKU060 } else { ADM_PCIE_7V3 })
        .collect()
}

/// A sub-seed per generated input, so each draws an independent stream.
fn sub(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt
}

impl Workload {
    /// Builds the workload's models through the pipeline, registers
    /// them, constructs its runtime and generates its load from `seed`.
    /// This is what `setup_s` times.
    pub fn build(kind: Kind, seed: u64, size: Size, spans: &mut Spans) -> Workload {
        let mut builds = Vec::new();
        let tiny = size == Size::Tiny;
        match kind {
            Kind::OfflineBulk => {
                let (hidden, proj) = if tiny {
                    (64, 32)
                } else {
                    (LSTM_HIDDEN, LSTM_PROJECTION)
                };
                let spec = ModelSpec::new(CellType::Lstm, LSTM_INPUT, CLASSES)
                    .layer_dims(&[hidden, hidden])
                    .projection(proj);
                let model = compile(spans, &mut builds, "lstm", spec, 16, sub(seed, 1));
                let names = vec!["lstm-512-bulk".to_string()];
                let mut registry = ModelRegistry::new();
                spans.time("pipeline.register", |_| registry.register(&names[0], model));
                let total = if tiny { 12 } else { OFFLINE_REQUESTS };
                let frames = if tiny { (4, 8) } else { OFFLINE_FRAMES };
                let loads = (0..OFFLINE_LOADS as u64)
                    .map(|k| {
                        let payloads =
                            synthetic_utterances(total, frames, LSTM_INPUT, sub(seed, 100 + k))
                                .into_iter()
                                .map(|u| (0, u))
                                .collect();
                        Load::new(Arrivals::Closed {
                            payloads,
                            concurrency: OFFLINE_CLIENTS,
                            total,
                        })
                    })
                    .collect();
                let platforms = vec![alternating(2)];
                let policy = SchedPolicy::edf_cost_model(8, 3000.0);
                let executor = ExecutorKind::ThreadPool;
                let runtime = Runtime::Sched(SchedRuntime::with_config(
                    registry,
                    platforms[0].clone(),
                    policy,
                    RuntimeConfig::new().executor(executor),
                ));
                Workload::assemble(
                    kind, builds, names, platforms, policy, executor, loads, None, runtime,
                )
            }
            Kind::MixedTenant => {
                let interactive = compile(spans, &mut builds, "gru-64", gru(64), 8, sub(seed, 1));
                let batch = compile(spans, &mut builds, "gru-256", gru(256), 8, sub(seed, 2));
                let names = vec![
                    "gru-64-interactive".to_string(),
                    "gru-256-batch".to_string(),
                ];
                let mut registry = ModelRegistry::new();
                spans.time("pipeline.register", |_| {
                    registry.register(&names[0], interactive);
                    registry.register(&names[1], batch);
                });
                // One weight image per device: placement must respect
                // residency or pay the reload stall.
                let budget = registry.weight_bytes(1) + registry.weight_bytes(0) / 2;
                let policy = SchedPolicy::edf_cost_model(8, 200.0)
                    .with_admission(AdmissionPolicy::ShedPredictedLate)
                    .with_bram_budget_bytes(budget);
                let platforms = vec![alternating(2)];
                let executor = ExecutorKind::Inline;
                let runtime = Runtime::Sched(SchedRuntime::with_config(
                    registry,
                    platforms[0].clone(),
                    policy,
                    RuntimeConfig::new().executor(executor),
                ));
                let requests = if tiny { 40 } else { MIXED_REQUESTS };
                let loads = (0..LOADS as u64)
                    .map(|k| Load::new(Arrivals::Open(mixed_load(requests, sub(seed, 100 + k)))))
                    .collect();
                Workload::assemble(
                    kind, builds, names, platforms, policy, executor, loads, None, runtime,
                )
            }
            Kind::ClusterStream => {
                let mut spec = ClusterSpec::new();
                let tenants = [
                    ("gru-64-stream", 64),
                    ("gru-96-batch", 96),
                    ("gru-64-tail", 64),
                ];
                for (i, (name, hidden)) in tenants.into_iter().enumerate() {
                    let model = compile(
                        spans,
                        &mut builds,
                        name,
                        gru(hidden),
                        8,
                        sub(seed, i as u64 + 1),
                    );
                    spans.time("pipeline.register", |_| spec.register(name, model));
                }
                let names = tenants.iter().map(|(n, _)| n.to_string()).collect();
                let (utterances, sessions) = if tiny {
                    (40, 2)
                } else {
                    (CLUSTER_UTTERANCES, CLUSTER_SESSIONS)
                };
                let mut max_wait_us = 0.0;
                let loads = (0..LOADS as u64)
                    .map(|k| {
                        let (requests, wait) =
                            cluster_load(&spec, utterances, sessions, sub(seed, 100 + k));
                        // The batch window derives from the mean work per
                        // request; the first load's sets it for all.
                        if k == 0 {
                            max_wait_us = wait;
                        }
                        Load::new(Arrivals::Open(requests))
                    })
                    .collect();
                let policy = SchedPolicy::edf_cost_model(4, max_wait_us);
                let platforms: Vec<Vec<Device>> =
                    alternating(SHARDS).into_iter().map(|d| vec![d]).collect();
                let executor = ExecutorKind::Inline;
                let runtime = Runtime::Cluster(ClusterRuntime::new(
                    spec.clone(),
                    platforms.clone(),
                    policy,
                    RuntimeConfig::new().executor(executor),
                    cluster_config(false),
                ));
                Workload::assemble(
                    kind,
                    builds,
                    names,
                    platforms,
                    policy,
                    executor,
                    loads,
                    Some(spec),
                    runtime,
                )
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        kind: Kind,
        builds: Vec<ModelBuild>,
        names: Vec<String>,
        platforms: Vec<Vec<Device>>,
        policy: SchedPolicy,
        executor: ExecutorKind,
        loads: Vec<Load>,
        spec: Option<ClusterSpec>,
        runtime: Runtime,
    ) -> Workload {
        let models = match &runtime {
            Runtime::Sched(rt) => rt.registry().models(),
            Runtime::Cluster(rt) => (0..rt.spec().len())
                .map(|m| Arc::clone(rt.spec().model(m)))
                .collect(),
        };
        Workload {
            kind,
            models,
            names,
            builds,
            platforms,
            policy,
            executor,
            loads,
            spec,
            runtime,
        }
    }

    /// Serves load `k` once through the workload's runtime.
    pub fn serve(&self, k: usize) -> Served {
        serve_on(&self.runtime, &self.loads[k])
    }

    /// A twin of the workload's runtime over the same compiled models
    /// (no recompiles, no spectrum refreshes) with the flight recorder,
    /// metrics timeline and health monitor on.
    pub fn traced_runtime(&self) -> Runtime {
        let config = RuntimeConfig::new()
            .executor(self.executor)
            .tracing(TraceConfig::enabled(TRACE_CAPACITY))
            .timeline(TimelineConfig::enabled(
                TIMELINE_INTERVAL_US,
                TIMELINE_CAPACITY,
            ))
            .health(HealthConfig::enabled());
        match &self.spec {
            Some(spec) => Runtime::Cluster(ClusterRuntime::new(
                spec.clone(),
                self.platforms.clone(),
                self.policy,
                config,
                cluster_config(true),
            )),
            None => Runtime::Sched(SchedRuntime::with_config(
                self.registry(&self.model_ids()),
                self.platforms[0].clone(),
                self.policy,
                config,
            )),
        }
    }

    /// A registry sharing the listed global models, in that order.
    pub fn registry(&self, global: &[usize]) -> ModelRegistry {
        let mut reg = ModelRegistry::new();
        for &m in global {
            reg.register_shared(self.names[m].clone(), Arc::clone(&self.models[m]));
        }
        reg
    }

    pub fn model_ids(&self) -> Vec<usize> {
        (0..self.models.len()).collect()
    }

    /// A bare scheduler over `platforms` serving the listed global
    /// models, untraced, with this workload's policy and executor.
    pub fn bare_runtime(&self, global: &[usize], platforms: Vec<Device>) -> Runtime {
        Runtime::Sched(SchedRuntime::with_config(
            self.registry(global),
            platforms,
            self.policy,
            RuntimeConfig::new().executor(self.executor),
        ))
    }

    /// A one-shard cluster wrapping this workload's device pool with a
    /// free network: the router in front of the same scheduler.
    pub fn one_shard_cluster(&self) -> Runtime {
        let mut spec = ClusterSpec::new();
        for (name, model) in self.names.iter().zip(&self.models) {
            spec.register(name.clone(), CompiledModel::clone(model));
        }
        Runtime::Cluster(ClusterRuntime::new(
            spec,
            vec![self.platforms[0].clone()],
            self.policy,
            RuntimeConfig::new().executor(self.executor),
            ClusterConfig::new()
                .replication(1)
                .transfer(TransferModel::zero()),
        ))
    }
}

/// Serves `load` once through `runtime`, timing the serving call.
pub fn serve_on(runtime: &Runtime, load: &Load) -> Served {
    match (runtime, &load.arrivals) {
        (Runtime::Sched(rt), Arrivals::Open(requests)) => {
            let requests = requests.clone();
            let start = Instant::now();
            let report = rt.run(requests);
            from_sched(report, start.elapsed().as_nanos() as u64)
        }
        (
            Runtime::Sched(rt),
            Arrivals::Closed {
                payloads,
                concurrency,
                total,
            },
        ) => {
            let start = Instant::now();
            let report = rt.run_closed_loop(payloads, *concurrency, *total, None);
            from_sched(report, start.elapsed().as_nanos() as u64)
        }
        (Runtime::Cluster(rt), Arrivals::Open(requests)) => {
            let requests = requests.clone();
            let start = Instant::now();
            let report = rt.run(requests);
            from_cluster(report, start.elapsed().as_nanos() as u64)
        }
        (Runtime::Cluster(_), Arrivals::Closed { .. }) => {
            unreachable!("the cluster tier serves open loads only")
        }
    }
}

fn transforms(report: &SchedReport) -> Vec<u64> {
    report.worker_fft.iter().map(|s| s.transforms()).collect()
}

fn from_sched(report: SchedReport, wall_ns: u64) -> Served {
    let worker_transforms = vec![transforms(&report)];
    let mut responses = report.responses;
    responses.sort_by_key(|r| r.id);
    Served {
        worker_transforms,
        responses,
        metrics: report.metrics,
        wall_ns,
        model_loads: report.sched.model_loads,
        state_loads: report.sched.state_loads,
        forwards: 0,
        replications: 0,
        trace_events: report.trace.journal.events.len() as u64 + report.trace.journal.dropped,
        shards: Vec::new(),
    }
}

fn from_cluster(report: ClusterReport, wall_ns: u64) -> Served {
    let live: Vec<(&ShardReport, &SchedReport)> = report
        .shards
        .iter()
        .filter_map(|s| s.report.as_ref().map(|r| (s, r)))
        .collect();
    let journal = |r: &SchedReport| r.trace.journal.events.len() as u64 + r.trace.journal.dropped;
    Served {
        model_loads: live.iter().map(|(_, r)| r.sched.model_loads).sum(),
        state_loads: live.iter().map(|(_, r)| r.sched.state_loads).sum(),
        forwards: report.stats.routed,
        replications: report.stats.replications,
        trace_events: report.trace.journal.events.len() as u64
            + report.trace.journal.dropped
            + live.iter().map(|(_, r)| journal(r)).sum::<u64>(),
        worker_transforms: live.iter().map(|(_, r)| transforms(r)).collect(),
        shards: live
            .iter()
            .map(|(s, r)| ShardRun {
                shard: s.shard,
                placed: s.placed.clone(),
                responses: r.responses.clone(),
            })
            .collect(),
        responses: report.responses,
        metrics: report.metrics,
        wall_ns,
    }
}

fn cluster_config(traced: bool) -> ClusterConfig {
    let config = ClusterConfig::new()
        .replication(REPLICATION)
        .steering(Steering::LoadFeedback);
    if traced {
        config.tracing(TraceConfig::enabled(TRACE_CAPACITY))
    } else {
        config
    }
}

/// The two-tenant open-loop load: three interactive requests to every
/// batch request, each class with its own SLO (class-heterogeneous SLOs
/// are what make deadline-aware ordering matter). Every request carries
/// its own utterance, so the mean work per request barely moves between
/// seeds.
fn mixed_load(num_requests: usize, seed: u64) -> Vec<Request> {
    let interactive = synthetic_utterances(num_requests, (5, 15), GRU_INPUT, sub(seed, 21));
    let batch = synthetic_utterances(num_requests / 4 + 1, (30, 60), GRU_INPUT, sub(seed, 22));
    open_loop_poisson(&interactive, num_requests, MIXED_RATE_RPS, sub(seed, 23))
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let arrival = r.arrival_us;
            if i % 4 == 3 {
                Request::new(r.id, batch[i / 4].clone(), arrival)
                    .with_model(1)
                    .with_deadline(arrival + BATCH_SLO_US)
            } else {
                r.with_model(0).with_deadline(arrival + INTERACTIVE_SLO_US)
            }
        })
        .collect()
}

/// The cluster load: streaming sessions on model 0 (six-frame chunks
/// paced over a third of the run) plus utterances round-robined over
/// the tenants with uniform arrivals. The arrival span and every SLO
/// derive from the cost model, so offered load sits near
/// [`TARGET_PARALLELISM`] device-equivalents whatever the platforms.
/// Returns the requests and the scheduler's batch window.
fn cluster_load(
    spec: &ClusterSpec,
    utterances: usize,
    sessions: usize,
    seed: u64,
) -> (Vec<Request>, f64) {
    let mut reg = ModelRegistry::new();
    for m in 0..spec.len() {
        reg.register_shared(spec.name(m).to_string(), spec.model(m).clone());
    }
    let cost = CostModel::build(&alternating(2), &reg);
    let load_us = DeviceResidency::load_us(
        (0..spec.len())
            .map(|m| reg.weight_bytes(m))
            .fold(0, u64::max),
    );
    let est_worst = |model: usize, frames: u64| -> f64 {
        cost.estimate_frames_us(0, model, frames)
            .max(cost.estimate_frames_us(1, model, frames))
    };
    let transfer = TransferModel::intra_rack();
    let hop = |frames: usize| transfer.transfer_us((frames * GRU_INPUT * 4) as u64);

    let audio = synthetic_utterances(utterances, (8, 20), GRU_INPUT, sub(seed, 31));
    let total_work: f64 = audio
        .iter()
        .enumerate()
        .map(|(i, utt)| cost.estimate_frames_us(0, i % spec.len(), utt.len() as u64))
        .sum();
    let span_us = total_work / TARGET_PARALLELISM;
    let unit_us = total_work / utterances as f64;
    let max_wait_us = (2.0 * unit_us).max(1.0);
    let slack_us = max_wait_us + load_us + unit_us;

    let mut requests = Vec::new();
    let chunks = SESSION_FRAMES / CHUNK_FRAMES;
    let gap_us = span_us / (3.0 * chunks as f64);
    let chunk_slo_us =
        SLO_MULT * est_worst(0, CHUNK_FRAMES as u64) + 2.0 * hop(CHUNK_FRAMES) + slack_us;
    let session_audio = synthetic_utterances(
        sessions,
        (SESSION_FRAMES, SESSION_FRAMES),
        GRU_INPUT,
        sub(seed, 32),
    );
    for (s, utt) in session_audio.iter().enumerate() {
        let start = (s as f64 + 0.5) * span_us / (2.0 * sessions as f64);
        for i in 0..chunks {
            let arrival = start + i as f64 * gap_us;
            requests.push(
                Request::chunk(
                    (s * chunks + i) as u64,
                    s as u64,
                    i as u32,
                    i == chunks - 1,
                    utt[i * CHUNK_FRAMES..(i + 1) * CHUNK_FRAMES].to_vec(),
                    arrival,
                )
                .with_deadline(arrival + chunk_slo_us),
            );
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(sub(seed, 33));
    for (u, utt) in audio.iter().enumerate() {
        let model = u % spec.len();
        let arrival = rng.gen_range(0.02..0.98) * span_us;
        let slo = SLO_MULT * est_worst(model, utt.len() as u64) + 2.0 * hop(utt.len()) + slack_us;
        requests.push(
            Request::new(10_000_000 + u as u64, utt.clone(), arrival)
                .with_model(model)
                .with_deadline(arrival + slo),
        );
    }
    (requests, max_wait_us)
}
