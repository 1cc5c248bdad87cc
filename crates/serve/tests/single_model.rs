//! Single-model serving: a one-model [`ModelRegistry`] under
//! [`SchedPolicy::fifo_earliest_free`] — FIFO batches under a max-batch /
//! max-wait dial, placed on the earliest-free device.
//!
//! These pin the batching dial, closed-loop feedback, executor
//! bit-identity, streaming reassembly and the timeline/health capture
//! for the shape most callers serve: one model on N identical devices.

use ernn_fpga::exec::DatapathConfig;
use ernn_fpga::XCKU060;
use ernn_model::{compress_network, BlockPolicy, CellType, NetworkBuilder};
use ernn_serve::loadgen::{open_loop_poisson, synthetic_utterances, with_uniform_slo};
use ernn_serve::sched::{ModelRegistry, SchedPolicy, SchedReport, SchedRuntime};
use ernn_serve::{
    CompiledModel, ExecutorKind, HealthConfig, Request, Response, RuntimeConfig, ShedReason,
    TimelineConfig, TraceConfig, TraceEvent,
};
use rand::SeedableRng;
use std::sync::Arc;

const DIM: usize = 8;

fn model() -> Arc<CompiledModel> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
    let dense = NetworkBuilder::new(CellType::Gru, DIM, 5)
        .layer_dims(&[16])
        .build(&mut rng);
    let net = compress_network(&dense, BlockPolicy::uniform(4));
    Arc::new(CompiledModel::compile(
        &net,
        &DatapathConfig::paper_12bit(),
        XCKU060,
    ))
}

/// The model on `devices` identical devices under FIFO batching.
fn serve(
    devices: usize,
    max_batch: usize,
    max_wait_us: f64,
    config: RuntimeConfig,
) -> SchedRuntime {
    let mut registry = ModelRegistry::new();
    registry.register_shared("gru", model());
    SchedRuntime::with_config(
        registry,
        vec![XCKU060; devices],
        SchedPolicy::fifo_earliest_free(max_batch, max_wait_us),
        config,
    )
}

/// Utterances long enough that service time (≈ frames × II) dominates
/// the µs-scale arrival gaps used by the pressure tests.
fn load(n: usize, rate: f64) -> Vec<Request> {
    let utts = synthetic_utterances(6, (40, 80), DIM, 33);
    open_loop_poisson(&utts, n, rate, 44)
}

fn payloads(utts: &[Vec<Vec<f32>>]) -> Vec<(usize, Vec<Vec<f32>>)> {
    utts.iter().map(|u| (0, u.clone())).collect()
}

/// Equality of two reports, ignoring only the wall-clock and
/// per-worker diagnostics (which legitimately differ across
/// executors). `Response: PartialEq` covers every field.
fn assert_reports_identical(a: &SchedReport, b: &SchedReport) {
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.responses, b.responses);
    assert_eq!(a.sched, b.sched);
    assert_eq!(a.trace, b.trace);
}

#[test]
fn all_requests_complete_exactly_once() {
    let report = serve(2, 4, 100.0, RuntimeConfig::new()).run(load(64, 50_000.0));
    assert_eq!(report.responses.len(), 64);
    let mut ids: Vec<u64> = report.responses.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..64).collect::<Vec<_>>());
    for r in &report.responses {
        assert!(r.complete_us > r.arrival_us);
        assert!(r.dispatch_us >= r.arrival_us);
        assert!(!r.logits.is_empty());
    }
}

#[test]
fn run_is_deterministic() {
    let rt = serve(2, 4, 50.0, RuntimeConfig::new());
    let a = rt.run(load(40, 80_000.0));
    let b = rt.run(load(40, 80_000.0));
    assert_reports_identical(&a, &b);
}

#[test]
fn default_executor_is_inline() {
    let rt = serve(1, 1, 0.0, RuntimeConfig::new());
    assert_eq!(rt.config().executor, ExecutorKind::Inline);
    assert_eq!(ExecutorKind::default(), ExecutorKind::Inline);
}

#[test]
#[should_panic(expected = "frame dimension")]
fn rejects_mismatched_frame_dimension() {
    let _ =
        serve(1, 1, 0.0, RuntimeConfig::new()).run(vec![Request::new(0, vec![vec![0.0; 3]], 0.0)]);
}

#[test]
fn session_limit_sheds_overcommitted_loads() {
    // Two interleaved sessions under a one-session cap: session 0 is
    // served whole, session 1 is shed at its first chunk and its later
    // chunk is cancelled with it.
    let frames = || vec![vec![0.0f32; DIM]; 2];
    let report = serve(1, 1, 0.0, RuntimeConfig::new().max_live_sessions(1)).run(vec![
        Request::chunk(0, 0, 0, false, frames(), 0.0),
        Request::chunk(1, 1, 0, false, frames(), 1.0),
        Request::chunk(2, 0, 1, true, frames(), 2.0),
        Request::chunk(3, 1, 1, true, frames(), 3.0),
    ]);
    assert_eq!(report.responses.len(), 4);
    let reason = |id| {
        let r = report.responses.iter().find(|r| r.id == id).unwrap();
        (r.shed, r.shed_reason)
    };
    assert_eq!(reason(0), (false, None));
    assert_eq!(reason(2), (false, None));
    assert_eq!(reason(1), (true, Some(ShedReason::SessionLimit)));
    assert_eq!(reason(3), (true, Some(ShedReason::SessionCancelled)));
}

#[test]
fn forming_batch_dispatches_when_full_or_flushed() {
    // Max batch 2, 50 µs wait. A lone request forms a batch that the
    // second arrival fills, so both leave at the fill time; the next
    // lone request waits out its budget and leaves as a singleton.
    let frames = || vec![vec![0.0f32; DIM]; 2];
    let report = serve(1, 2, 50.0, RuntimeConfig::new()).run(vec![
        Request::new(0, frames(), 10.0),
        Request::new(1, frames(), 11.0),
        Request::new(2, frames(), 500.0),
    ]);
    let dispatch = |id| {
        let r = report.responses.iter().find(|r| r.id == id).unwrap();
        (r.dispatch_us, r.batch_size)
    };
    assert_eq!(dispatch(0), (11.0, 2));
    assert_eq!(dispatch(1), (11.0, 2));
    assert_eq!(dispatch(2), (550.0, 1));
}

#[test]
fn full_queue_is_ready_immediately() {
    // A full batch dispatches the moment it fills, long before its
    // 1 ms wait budget runs out.
    let frames = || vec![vec![0.0f32; DIM]; 2];
    let report = serve(1, 2, 1000.0, RuntimeConfig::new()).run(vec![
        Request::new(0, frames(), 0.0),
        Request::new(1, frames(), 1.0),
    ]);
    for r in &report.responses {
        assert_eq!((r.dispatch_us, r.batch_size), (1.0, 2));
    }
}

#[test]
fn wait_budget_flushes_partial_batch() {
    let report = serve(1, 8, 50.0, RuntimeConfig::new()).run(vec![Request::new(
        0,
        vec![vec![0.0f32; DIM]; 2],
        10.0,
    )]);
    let r = &report.responses[0];
    assert_eq!((r.dispatch_us, r.batch_size), (60.0, 1));
}

#[test]
fn immediate_policy_dispatches_singletons() {
    let report = serve(1, 1, 0.0, RuntimeConfig::new()).run(load(16, 500_000.0));
    assert!(report.responses.iter().all(|r| r.batch_size == 1));
    assert_eq!(report.metrics.batch_histogram.len(), 1);
}

#[test]
fn pool_places_on_earliest_free_device() {
    // Three singletons at t=0: the long one takes device 0, the short
    // one the idle device 1, and device 1 frees first for the third.
    let frames = |n| vec![vec![0.0f32; DIM]; n];
    let report = serve(2, 1, 0.0, RuntimeConfig::new()).run(vec![
        Request::new(0, frames(40), 0.0),
        Request::new(1, frames(1), 0.0),
        Request::new(2, frames(1), 0.0),
    ]);
    let device = |id| report.responses.iter().find(|r| r.id == id).unwrap().device;
    assert_eq!(
        [device(0), device(1), device(2)],
        [Some(0), Some(1), Some(1)]
    );
}

#[test]
fn batching_engages_under_pressure() {
    // Offered load far above single-device capacity forces full
    // batches once the queue builds.
    let report = serve(1, 8, 200.0, RuntimeConfig::new()).run(load(96, 500_000.0));
    assert!(
        report.metrics.mean_batch_size > 2.0,
        "mean batch {} under heavy load",
        report.metrics.mean_batch_size
    );
    assert!(report.metrics.batch_histogram.contains_key(&8));
}

#[test]
fn max_wait_bounds_queue_time_under_light_load() {
    // One request every millisecond (deterministic spacing far above
    // the wait budget): every batch is a flushed singleton and queueing
    // stays within the 50 µs budget.
    let utts = synthetic_utterances(4, (40, 80), DIM, 33);
    let reqs: Vec<Request> = (0..20)
        .map(|i| Request::new(i, utts[i as usize % utts.len()].clone(), i as f64 * 1000.0))
        .collect();
    let report = serve(1, 8, 50.0, RuntimeConfig::new()).run(reqs);
    for r in &report.responses {
        assert!(r.queue_us() <= 50.0 + 1e-9, "queue {}", r.queue_us());
        assert_eq!(r.batch_size, 1);
    }
}

#[test]
fn deadlines_are_scored() {
    // 1 µs SLO on 40+-frame utterances is unmeetable (device service
    // alone exceeds it) → every deadline-carrying request misses.
    let utts = synthetic_utterances(3, (40, 80), DIM, 5);
    let reqs = with_uniform_slo(open_loop_poisson(&utts, 30, 200_000.0, 6), 1.0);
    let report = serve(1, 4, 20.0, RuntimeConfig::new()).run(reqs);
    assert!((report.metrics.deadline_miss_rate - 1.0).abs() < 1e-9);
}

#[test]
fn closed_loop_completes_budget_and_respects_concurrency() {
    let utts = synthetic_utterances(4, (3, 6), DIM, 11);
    let report =
        serve(2, 4, 30.0, RuntimeConfig::new()).run_closed_loop(&payloads(&utts), 4, 40, None);
    assert_eq!(report.responses.len(), 40);
    // With 4 clients, at most 4 requests can overlap in flight.
    assert!(report.responses.iter().all(|r| r.batch_size <= 4));
    // Later requests arrive exactly at some earlier completion.
    let completions: Vec<f64> = report.responses.iter().map(|r| r.complete_us).collect();
    for r in report.responses.iter().filter(|r| r.id >= 4) {
        assert!(
            completions.iter().any(|&c| (c - r.arrival_us).abs() < 1e-9),
            "arrival {} matches no completion",
            r.arrival_us
        );
    }
}

#[test]
#[should_panic(expected = "has no frames")]
fn closed_loop_validates_all_payloads_up_front() {
    // The second utterance is only reachable via a mid-run replacement
    // request; admission must still reject it.
    let good = vec![vec![0.0f32; DIM]; 3];
    let _ = serve(1, 1, 0.0, RuntimeConfig::new()).run_closed_loop(
        &[(0, good), (0, Vec::new())],
        1,
        10,
        None,
    );
}

#[test]
fn more_devices_never_slow_the_drain() {
    let reqs = load(80, 400_000.0);
    let drain = |n| {
        serve(n, 4, 100.0, RuntimeConfig::new())
            .run(reqs.clone())
            .metrics
            .makespan_us
    };
    let (one, two, four) = (drain(1), drain(2), drain(4));
    assert!(two < one);
    assert!(four <= two);
}

#[test]
fn occupancy_horizon_starts_at_first_arrival() {
    // All arrivals late on the virtual clock: occupancy must be
    // measured from the first arrival, not from t = 0.
    let utts = synthetic_utterances(4, (40, 80), DIM, 33);
    let reqs: Vec<Request> = (0..32)
        .map(|i| Request::new(i, utts[i as usize % utts.len()].clone(), 1e6 + i as f64))
        .collect();
    let report = serve(1, 8, 50.0, RuntimeConfig::new()).run(reqs);
    assert!(
        report.metrics.device_occupancy[0] > 0.5,
        "late-start load must still show real occupancy: {:?}",
        report.metrics.device_occupancy
    );
}

#[test]
fn tracing_journal_is_bit_identical_across_executors() {
    let traced = |kind| {
        RuntimeConfig::new()
            .executor(kind)
            .tracing(TraceConfig::enabled(2048))
    };
    let inline = serve(2, 4, 100.0, traced(ExecutorKind::Inline)).run(load(32, 200_000.0));
    let pool = serve(2, 4, 100.0, traced(ExecutorKind::ThreadPool)).run(load(32, 200_000.0));
    assert_reports_identical(&inline, &pool);
    let events = &inline.trace.journal.events;
    assert_eq!(inline.trace.journal.dropped, 0);
    let n = |pred: fn(&TraceEvent) -> bool| events.iter().filter(|e| pred(e)).count();
    assert_eq!(n(|e| matches!(e, TraceEvent::Enqueue { .. })), 32);
    assert_eq!(n(|e| matches!(e, TraceEvent::Dequeue { .. })), 32);
    assert_eq!(n(|e| matches!(e, TraceEvent::Complete { .. })), 32);
    // Attribution covers every request.
    let requests: u64 = inline
        .trace
        .attribution
        .iter()
        .map(|(_, _, c)| c.requests)
        .sum();
    assert_eq!(requests, 32);
    // Disabled tracing yields identical virtual-time results.
    let off = serve(2, 4, 100.0, RuntimeConfig::new()).run(load(32, 200_000.0));
    assert_eq!(off.metrics, inline.metrics);
    assert_eq!(off.responses, inline.responses);
    assert!(off.trace.journal.events.is_empty());
}

#[test]
fn thread_pool_report_is_bit_identical_to_inline() {
    let run =
        |kind| serve(3, 4, 100.0, RuntimeConfig::new().executor(kind)).run(load(48, 200_000.0));
    let (inline, pool) = (run(ExecutorKind::Inline), run(ExecutorKind::ThreadPool));
    assert_reports_identical(&inline, &pool);
    // The pool reports one FFT ledger entry per device-slot worker, and
    // the totals agree with the inline run exactly.
    assert_eq!(pool.worker_fft.len(), 3);
    assert_eq!(inline.worker_fft.len(), 1);
    assert_eq!(pool.host_fft(), inline.host_fft());
    assert!(pool.host_us > 0.0 && inline.host_us > 0.0);
}

#[test]
fn thread_pool_closed_loop_matches_inline() {
    let utts = payloads(&synthetic_utterances(4, (3, 6), DIM, 11));
    let run = |kind| {
        serve(2, 4, 30.0, RuntimeConfig::new().executor(kind)).run_closed_loop(&utts, 4, 40, None)
    };
    assert_reports_identical(&run(ExecutorKind::Inline), &run(ExecutorKind::ThreadPool));
}

#[test]
fn streaming_sessions_reassemble_bit_identically_across_executors() {
    let utts = synthetic_utterances(3, (12, 20), DIM, 77);
    // The same audio as streaming sessions: 5-frame chunks, sessions
    // interleaved in arrival order so batches form across sessions.
    let mut reqs = Vec::new();
    let (mut id, mut t) = (0u64, 0.0f64);
    for (s, u) in utts.iter().enumerate() {
        let chunks: Vec<&[Vec<f32>]> = u.chunks(5).collect();
        for (ci, c) in chunks.iter().enumerate() {
            let last = ci == chunks.len() - 1;
            reqs.push(Request::chunk(id, s as u64, ci as u32, last, c.to_vec(), t));
            id += 1;
            t += 7.0;
        }
    }
    let run = |kind| {
        serve(
            2,
            4,
            50.0,
            RuntimeConfig::new().executor(kind).max_live_sessions(8),
        )
        .run(reqs.clone())
    };
    let inline = run(ExecutorKind::Inline);
    assert_reports_identical(&inline, &run(ExecutorKind::ThreadPool));
    // Each session's chunks ran on one device, and its stitched chunk
    // logits equal the whole utterance.
    for (s, u) in utts.iter().enumerate() {
        let mut rs: Vec<&Response> = inline
            .responses
            .iter()
            .filter(|r| r.workload.session() == Some(s as u64))
            .collect();
        rs.sort_by_key(|r| r.id);
        assert!(
            rs.iter()
                .all(|r| r.device.is_some() && r.device == rs[0].device),
            "session {s} state migrated across devices"
        );
        let stitched: Vec<Vec<f32>> = rs.iter().flat_map(|r| r.logits.iter().cloned()).collect();
        assert_eq!(stitched, model().infer(u), "session {s} logits diverged");
    }
}

#[test]
fn timeline_and_health_are_captured_and_executor_invariant() {
    let run = |kind| {
        let config = RuntimeConfig::new()
            .executor(kind)
            .timeline(TimelineConfig::enabled(200.0, 512))
            .health(HealthConfig::enabled());
        serve(2, 4, 100.0, config).run(load(48, 200_000.0))
    };
    let inline = run(ExecutorKind::Inline);
    let pool = run(ExecutorKind::ThreadPool);
    assert_eq!(inline.timeline, pool.timeline);
    assert_eq!(inline.health, pool.health);
    assert!(!inline.timeline.samples.is_empty());
    assert_eq!(inline.timeline.dropped, 0);
    // Cumulative counters are monotone and the final (drain-time)
    // sample accounts for every served request with an empty queue.
    for w in inline.timeline.samples.windows(2) {
        assert!(w[1].t_us > w[0].t_us);
        assert!(w[1].completed >= w[0].completed);
    }
    let last = inline.timeline.samples.last().unwrap();
    assert_eq!(last.completed, 48);
    assert_eq!(last.queue_depth, 0);
    assert!(inline.timeline.ewma_queue_us >= 0.0);
    // A deadline-free, fault-free run is healthy.
    assert!(inline.health.healthy());
    assert_eq!(
        inline.health.samples_evaluated,
        inline.timeline.samples.len() as u64
    );
    // Disabled capture leaves both report fields empty.
    let off = serve(2, 4, 100.0, RuntimeConfig::new()).run(load(48, 200_000.0));
    assert!(off.timeline.samples.is_empty());
    assert!(off.health.healthy());
    assert_eq!(off.health.samples_evaluated, 0);
}
