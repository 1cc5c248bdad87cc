//! Proves the FFT'd-weight cache: block-circulant weight spectra are
//! computed once per model load, never per request.
//!
//! Every count here comes from the per-thread ledger in
//! [`ernn_fft::stats`] — the load's delta on the compiling thread, the
//! serving deltas summed over the executor's workers — so the
//! exact-delta assertions hold while other tests run FFTs concurrently.

use ernn_fft::RealFft;
use ernn_fpga::exec::DatapathConfig;
use ernn_fpga::XCKU060;
use ernn_linalg::WeightMatrix;
use ernn_model::{compress_network, BlockPolicy, CellType, NetworkBuilder, RnnNetwork};
use ernn_serve::loadgen::synthetic_utterances;
use ernn_serve::sched::{ModelRegistry, SchedPolicy, SchedRuntime};
use ernn_serve::{CompiledModel, Request};
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn lstm() -> RnnNetwork<WeightMatrix> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
    let dense = NetworkBuilder::new(CellType::Lstm, 8, 5)
        .layer_dims(&[16])
        .build(&mut rng);
    compress_network(&dense, BlockPolicy::uniform(4))
}

#[test]
fn weight_spectra_are_computed_at_load_not_per_request() {
    let net = lstm();

    // ---- Load: the cache fill. Quantization clones the compressed
    // matrices (reusing their FFT plans) and rewrites the blocks, which
    // re-FFTs every weight block exactly once. ----
    let model = CompiledModel::compile(&net, &DatapathConfig::paper_12bit(), XCKU060);
    assert!(
        model.load_stats.fft.forward_transforms as usize >= model.load_stats.cached_spectra,
        "compilation FFTs every weight block once: {:?} vs {} spectra",
        model.load_stats.fft,
        model.load_stats.cached_spectra
    );
    let refreshes_after_load = model.weight_spectrum_refreshes();
    assert!(!refreshes_after_load.is_empty());

    // ---- Serve: only input-side transforms may run. ----
    let utterances = synthetic_utterances(4, (5, 9), 8, 3);
    // `register_shared` takes the compiled spectra as they are: no
    // refresh on registration either.
    let mut registry = ModelRegistry::new();
    registry.register_shared("lstm", std::sync::Arc::new(model));
    let runtime = SchedRuntime::new(
        registry,
        vec![XCKU060; 2],
        SchedPolicy::fifo_earliest_free(4, 50.0),
    );

    // Warm-up request to measure the per-request transform cost.
    let probe = utterances[0].clone();
    let per_request = runtime
        .run(vec![Request::new(0, probe.clone(), 0.0)])
        .host_fft();
    assert!(
        per_request.forward_transforms > 0,
        "serving performs input-side FFTs"
    );
    assert_eq!(
        per_request.plans_created, 0,
        "serving must not build new FFT plans"
    );

    // N identical requests must cost exactly N × the per-request
    // transforms — i.e. zero weight-spectrum recomputation amortized in.
    let n = 16u64;
    let reqs: Vec<Request> = (0..n)
        .map(|i| Request::new(i, probe.clone(), i as f64 * 10.0))
        .collect();
    let report = runtime.run(reqs);
    assert_eq!(report.responses.len(), n as usize);
    let delta = report.host_fft();
    assert_eq!(
        delta.forward_transforms,
        per_request.forward_transforms * n,
        "forward FFTs must scale with requests only (input side)"
    );
    assert_eq!(
        delta.inverse_transforms,
        per_request.inverse_transforms * n,
        "inverse FFTs must scale with requests only"
    );
    assert_eq!(delta.plans_created, 0);

    // The per-matrix refresh counters are the direct cache witness: no
    // weight spectrum was recomputed by any of the requests above.
    assert_eq!(
        runtime.registry().model(0).weight_spectrum_refreshes(),
        refreshes_after_load,
        "weight spectra must not be refreshed during serving"
    );
}

#[test]
fn load_stats_are_exact_while_another_thread_runs_ffts() {
    let net = lstm();
    let compile = || CompiledModel::compile(&net, &DatapathConfig::paper_12bit(), XCKU060);
    // Warm the shared plan cache so every measured compile sees it alike.
    let _ = compile();
    let quiet = compile().load_stats.fft;
    assert!(quiet.forward_transforms > 0, "{quiet:?}");

    let stop = Arc::new(AtomicBool::new(false));
    let noise_iters = Arc::new(AtomicU64::new(0));
    let noise = {
        let (stop, noise_iters) = (Arc::clone(&stop), Arc::clone(&noise_iters));
        std::thread::spawn(move || {
            let rfft = RealFft::new(16);
            while !stop.load(Ordering::SeqCst) {
                let spectrum = rfft.forward(&[0.5f32; 16]);
                let _ = rfft.inverse(&spectrum);
                noise_iters.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    // Compile until the other thread provably ran FFTs inside a compile
    // window (on one effective core that takes a preemption mid-compile).
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut overlapped = 0;
    while overlapped < 3 {
        assert!(
            Instant::now() < deadline,
            "the FFT thread never overlapped a compile"
        );
        let before = noise_iters.load(Ordering::SeqCst);
        let busy = compile().load_stats.fft;
        let during = noise_iters.load(Ordering::SeqCst) - before;
        assert_eq!(
            busy, quiet,
            "another thread's transforms ({during} iterations) leaked into the load count"
        );
        if during >= 3 {
            overlapped += 1;
        }
    }
    stop.store(true, Ordering::SeqCst);
    noise.join().expect("FFT noise thread");
}
