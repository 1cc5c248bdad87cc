//! The front-end router: one virtual clock driving every shard.
//!
//! [`ClusterRuntime::run`] merges the request stream with the
//! shard-kill schedule into a single time-ordered event list. At each
//! event it first advances every live shard engine to the event time —
//! so steering always reads the load a real router would observe — and
//! then decides: forward (charging the frames' wire time and waiting
//! out replica readiness), re-pin, or shed with
//! [`ShedReason::NoShardCapacity`]. Kills at time *t* are processed
//! before arrivals at *t*, so a request arriving the instant its shard
//! dies reroutes instead of vanishing.
//!
//! Determinism: events are totally ordered by `(time, kind, id)`,
//! steering is a pure function of placement, replica readiness and the
//! shards' virtual-time gauges, and the shards run the unmodified
//! scheduler loop — so the merged responses, metrics, stats and both
//! journals are bit-identical across host executors.

use std::collections::HashMap;
use std::time::Instant;

use super::placement::{splitmix64, PlacementMap};
use super::shard::{shard_runtime, ShardSim};
use super::{ClusterReport, ClusterRuntime, ClusterStats, ShardReport, Steering};
use crate::metrics::ServeMetrics;
use crate::request::{validate_sessions, validate_times, Request, Response, ShedReason, Workload};
use crate::sched::{SchedEngine, SchedRuntime};
use crate::trace::{Observer, ShardGauges};
use ernn_fpga::transfer::TransferModel;

/// What the router remembers about every request it accepted: the
/// cluster-global metadata that shard-local responses must get back
/// before they are returned to the caller.
struct RouteMeta {
    model: usize,
    workload: Workload,
    arrival_us: f64,
}

/// A streaming session's pin. Rerouting mints a fresh shard-local
/// session id (`local`) with chunk indices restarting at 0, so each
/// shard sees a self-consistent session regardless of cluster history.
struct SessionRoute {
    shard: usize,
    local: u64,
    next_index: u32,
    /// Monotonicity guard: per-chunk wire time varies with payload
    /// size, so a later chunk's `arrival + hop` could land before an
    /// earlier chunk's — the shard-local arrival is clamped to never
    /// run backwards within an incarnation.
    last_arrival_us: f64,
}

fn frame_bytes(frames: &[Vec<f32>]) -> u64 {
    frames.iter().map(|f| f.len() as u64).sum::<u64>() * 4
}

fn chunk_index(r: &Request) -> u32 {
    match r.workload {
        Workload::Chunk { index, .. } => index,
        Workload::Utterance => 0,
    }
}

/// The router's mutable world while a run is in flight.
struct Router<'rt, 'p> {
    placement: &'p PlacementMap,
    transfer: TransferModel,
    steering: Steering,
    seed: u64,
    failover: bool,
    sims: Vec<ShardSim<'rt>>,
    /// Per shard: `(effective arrival, estimated service µs)` of
    /// requests forwarded but still on the wire. A shard engine cannot
    /// see a request until its hop completes, so without this term
    /// every arrival inside one wire-time window would herd onto the
    /// same least-loaded shard. Pruned against the clock in
    /// [`Router::advance`].
    inflight: Vec<Vec<(f64, f64)>>,
    /// `(model, shard) →` virtual time the replica becomes servable.
    ready: HashMap<(usize, usize), f64>,
    sessions: HashMap<u64, SessionRoute>,
    meta: HashMap<u64, RouteMeta>,
    next_local_session: u64,
    obs: Observer,
    stats: ClusterStats,
    sheds: Vec<Response>,
}

impl Router<'_, '_> {
    /// Advances every live shard's virtual clock to `t` and drops
    /// in-flight records for forwards that have landed (the engines now
    /// count them in their own backlog).
    fn advance(&mut self, t: f64) {
        for sim in self.sims.iter_mut().filter(|s| s.alive) {
            if let Some(engine) = sim.engine.as_mut() {
                engine.run_until(t);
            }
        }
        for pending in &mut self.inflight {
            pending.retain(|&(effective, _)| effective > t);
        }
    }

    /// Picks a live replica shard for `model` at time `t`, or `None`
    /// when every holder is down (or excluded).
    fn steer(&self, model: usize, t: f64, salt: u64, exclude: Option<usize>) -> Option<usize> {
        let candidates: Vec<usize> = self
            .placement
            .replicas(model)
            .iter()
            .copied()
            .filter(|&s| self.sims[s].alive && Some(s) != exclude)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        match self.steering {
            Steering::Random => {
                let pick = splitmix64(self.seed ^ splitmix64(salt)) % candidates.len() as u64;
                Some(candidates[pick as usize])
            }
            // Least expected wait: replica-readiness stall plus the
            // shard's instantaneous device backlog — rate-aware (a slow
            // board's dispatched work pushes its `free_at` further out)
            // and current, unlike the EWMA. Queue depth spreads
            // same-instant bursts still sitting in the batch window;
            // the EWMA queue delay breaks remaining ties toward shards
            // that have recently been fast.
            Steering::LoadFeedback => candidates
                .into_iter()
                .map(|s| {
                    let engine = self.sims[s]
                        .engine
                        .as_ref()
                        .expect("replica holder has no engine");
                    let wait = (self.ready[&(model, s)] - t).max(0.0);
                    let wire: f64 = self.inflight[s].iter().map(|&(_, est)| est).sum();
                    (
                        wait + engine.backlog_us() + wire,
                        engine.queue_depth(),
                        engine.ewma_queue_us(),
                        s,
                    )
                })
                .min_by(|a, b| {
                    a.0.total_cmp(&b.0)
                        .then(a.1.cmp(&b.1))
                        .then(a.2.total_cmp(&b.2))
                        .then(a.3.cmp(&b.3))
                })
                .map(|(_, _, _, s)| s),
        }
    }

    /// Sheds `r` at the router: no live shard holds its model.
    fn shed(&mut self, t: f64, r: Request) {
        self.obs.shed(t, &r, f64::INFINITY);
        self.stats.shed_no_capacity += 1;
        self.sheds.push(Response::shed_with(
            r.id,
            r.model,
            r.workload,
            r.arrival_us,
            r.deadline_us,
            ShedReason::NoShardCapacity,
        ));
    }

    /// Re-pins a session to a surviving shard as a fresh shard-local
    /// incarnation (recurrent state restarts from zero — cross-shard
    /// state migration is an explicit follow-on).
    fn repin(&mut self, session: u64, from: usize, to: usize, t: f64) {
        let route = self.sessions.get_mut(&session).expect("unknown session");
        route.shard = to;
        route.local = self.next_local_session;
        self.next_local_session += 1;
        route.next_index = 0;
        route.last_arrival_us = 0.0;
        self.obs.session_reroute(t, session, from, to);
        self.stats.sessions_rerouted += 1;
    }

    /// Forwards `r` (global form) to shard `s` at decision time `t`:
    /// charges the hop, waits out replica readiness, renumbers chunks
    /// into the session's shard-local incarnation, and offers the
    /// shard-local request to the engine.
    fn forward(&mut self, s: usize, t: f64, r: Request, chunk: Option<(u64, bool)>) {
        let bytes = frame_bytes(&r.frames);
        let hop = self.transfer.transfer_us(bytes);
        self.obs.forwarded(t, r.id, r.model, s, hop);
        self.stats.forwarded_bytes += bytes;
        self.stats.forward_us_total += hop;
        let local_model = self.sims[s].local_model(r.model);
        let mut effective = (t + hop).max(self.ready[&(r.model, s)]);
        let local = match chunk {
            Some((session, last)) => {
                let route = self.sessions.get_mut(&session).expect("unknown session");
                effective = effective.max(route.last_arrival_us);
                route.last_arrival_us = effective;
                let index = route.next_index;
                route.next_index += 1;
                Request::chunk(r.id, route.local, index, last, r.frames, effective)
            }
            None => Request::new(r.id, r.frames, effective),
        };
        let mut local = local.with_model(local_model);
        if let Some(d) = r.deadline_us {
            local = local.with_deadline(d);
        }
        let engine = self.sims[s]
            .engine
            .as_mut()
            .expect("forwarded to a shard with no engine");
        let est = engine.estimate_frames_us(local_model, local.num_frames() as u64);
        self.inflight[s].push((effective, est));
        engine.offer(local);
    }

    /// Routes one fresh arrival.
    fn route_arrival(&mut self, r: Request) {
        let t = r.arrival_us;
        let prev = self.meta.insert(
            r.id,
            RouteMeta {
                model: r.model,
                workload: r.workload,
                arrival_us: t,
            },
        );
        assert!(prev.is_none(), "duplicate request id {}", r.id);
        match r.workload {
            Workload::Utterance => match self.steer(r.model, t, r.id, None) {
                Some(s) => {
                    self.stats.routed += 1;
                    self.forward(s, t, r, None);
                }
                None => self.shed(t, r),
            },
            Workload::Chunk { session, last, .. } => {
                let target = match self.sessions.get(&session) {
                    // Pinned and healthy: affinity wins over load.
                    Some(route) if self.sims[route.shard].alive => Some(route.shard),
                    // Pinned shard died since the last chunk.
                    Some(route) => {
                        let from = route.shard;
                        if !self.failover {
                            None
                        } else {
                            match self.steer(r.model, t, r.id, Some(from)) {
                                Some(to) => {
                                    self.repin(session, from, to, t);
                                    Some(to)
                                }
                                None => None,
                            }
                        }
                    }
                    // First chunk: steer, then pin.
                    None => match self.steer(r.model, t, r.id, None) {
                        Some(s) => {
                            self.sessions.insert(
                                session,
                                SessionRoute {
                                    shard: s,
                                    local: self.next_local_session,
                                    next_index: 0,
                                    last_arrival_us: 0.0,
                                },
                            );
                            self.next_local_session += 1;
                            Some(s)
                        }
                        None => None,
                    },
                };
                match target {
                    Some(s) => {
                        self.stats.routed += 1;
                        self.forward(s, t, r, Some((session, last)));
                    }
                    None => self.shed(t, r),
                }
            }
        }
    }

    /// Processes one shard kill: reclaims the shard's undelivered
    /// backlog and re-steers (or sheds) every reclaimed request.
    /// Batches already dispatched complete — their responses were
    /// committed at dispatch on the virtual clock — so a kill never
    /// loses a request.
    fn kill(&mut self, t: f64, s: usize) {
        self.advance(t);
        if !self.sims[s].alive {
            return;
        }
        let mut pending = match self.sims[s].engine.as_mut() {
            Some(engine) => engine.take_pending(),
            None => Vec::new(),
        };
        self.sims[s].alive = false;
        self.inflight[s].clear();
        self.stats.shard_kills += 1;
        self.stats.reclaimed += pending.len() as u64;
        self.obs.shard_down(t, s, pending.len());
        // Re-offer in (arrival, chunk index, id) order so a session's
        // chunks re-number in their original order.
        pending.sort_by(|a, b| {
            a.arrival_us
                .total_cmp(&b.arrival_us)
                .then_with(|| chunk_index(a).cmp(&chunk_index(b)))
                .then_with(|| a.id.cmp(&b.id))
        });
        for p in pending {
            let meta = self
                .meta
                .get(&p.id)
                .expect("reclaimed request was never routed");
            let (model, workload, arrival_us) = (meta.model, meta.workload, meta.arrival_us);
            // Rebuild the cluster-global form from the route record.
            let mut global = match workload {
                Workload::Chunk {
                    session,
                    index,
                    last,
                } => Request::chunk(p.id, session, index, last, p.frames, arrival_us),
                Workload::Utterance => Request::new(p.id, p.frames, arrival_us),
            };
            global = global.with_model(model);
            if let Some(d) = p.deadline_us {
                global = global.with_deadline(d);
            }
            if !self.failover {
                self.shed(t, global);
                continue;
            }
            match workload {
                Workload::Utterance => match self.steer(model, t, global.id, Some(s)) {
                    Some(to) => {
                        self.stats.rerouted += 1;
                        self.forward(to, t, global, None);
                    }
                    None => self.shed(t, global),
                },
                Workload::Chunk { session, last, .. } => {
                    let pinned = self.sessions[&session].shard;
                    let target = if self.sims[pinned].alive {
                        // An earlier reclaimed chunk already re-pinned
                        // the session; follow it.
                        Some(pinned)
                    } else {
                        match self.steer(model, t, global.id, Some(s)) {
                            Some(to) => {
                                self.repin(session, s, to, t);
                                Some(to)
                            }
                            None => None,
                        }
                    };
                    match target {
                        Some(to) => {
                            self.stats.rerouted += 1;
                            self.forward(to, t, global, Some((session, last)));
                        }
                        None => self.shed(t, global),
                    }
                }
            }
        }
    }
}

impl ClusterRuntime {
    /// Runs the cluster over `requests` on one virtual clock and
    /// returns the merged, cluster-global [`ClusterReport`].
    ///
    /// Every request is answered exactly once — served by some shard,
    /// or shed with an accurate [`ShedReason`] — including across shard
    /// kills with failover. All virtual-time outputs are bit-identical
    /// across [`ExecutorKind`](crate::ExecutorKind)s.
    ///
    /// # Panics
    ///
    /// Panics on invalid sessions, duplicate request ids, a request
    /// targeting an unregistered model, or a non-finite arrival time or
    /// deadline.
    pub fn run(&self, requests: Vec<Request>) -> ClusterReport {
        let host_start = Instant::now();
        validate_sessions(&requests);
        for r in &requests {
            validate_times(r);
            assert!(
                r.model < self.spec.len(),
                "request {} targets unregistered model {}",
                r.id,
                r.model
            );
        }
        let total = requests.len();

        // Shard schedulers (placement-empty shards hold none).
        let runtimes: Vec<Option<SchedRuntime>> = (0..self.shards())
            .map(|s| {
                shard_runtime(
                    &self.spec,
                    &self.placement.models_on(s),
                    &self.shard_platforms[s],
                    self.policy,
                    &self.shard_config,
                )
            })
            .collect();
        let mut sims = Vec::with_capacity(runtimes.len());
        let mut device_base = 0usize;
        for (s, rt) in runtimes.iter().enumerate() {
            let device_count = self.shard_platforms[s].len();
            sims.push(ShardSim {
                shard: s,
                engine: rt.as_ref().map(SchedEngine::new),
                placed: self.placement.models_on(s),
                alive: true,
                device_base,
                device_count,
            });
            device_base += device_count;
        }

        let mut obs = Observer::new(self.cluster.trace);
        let mut stats = ClusterStats::default();

        // Artifact replication: the primary is servable at t=0 (it was
        // provisioned with the cluster); replica k comes up one chained
        // artifact transfer after replica k−1.
        let mut ready: HashMap<(usize, usize), f64> = HashMap::new();
        let mut repl: Vec<(f64, usize, usize, usize, u64, f64)> = Vec::new();
        for m in 0..self.spec.len() {
            let bytes = self.spec.artifact_bytes(m);
            let hop = self.cluster.transfer.transfer_us(bytes);
            let replicas = self.placement.replicas(m);
            for (k, &s) in replicas.iter().enumerate() {
                let at = k as f64 * hop;
                ready.insert((m, s), at);
                if k > 0 {
                    repl.push((at, m, replicas[k - 1], s, bytes, hop));
                    stats.replications += 1;
                    stats.replication_us_total += hop;
                }
            }
        }
        repl.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.3.cmp(&b.3)));
        for (at, m, from, to, bytes, hop) in repl {
            obs.replicated(at, m, from, to, bytes, hop);
        }

        let shard_count = sims.len();
        let mut router = Router {
            placement: &self.placement,
            transfer: self.cluster.transfer,
            steering: self.cluster.steering,
            seed: self.cluster.seed,
            failover: self.cluster.failover,
            sims,
            inflight: vec![Vec::new(); shard_count],
            ready,
            sessions: HashMap::new(),
            meta: HashMap::new(),
            next_local_session: 0,
            obs,
            stats,
            sheds: Vec::new(),
        };

        // One time-ordered event stream: kills at time t fire before
        // arrivals at t, so a request never races its shard's death.
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by(|&a, &b| {
            requests[a]
                .arrival_us
                .total_cmp(&requests[b].arrival_us)
                .then_with(|| requests[a].id.cmp(&requests[b].id))
        });
        let mut kills: Vec<(f64, usize)> = self
            .cluster
            .shard_faults
            .events()
            .iter()
            .map(|e| (e.t_us, e.device))
            .collect();
        kills.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut slots: Vec<Option<Request>> = requests.into_iter().map(Some).collect();
        let mut ki = 0usize;
        for idx in order {
            let r = slots[idx].take().expect("arrival consumed twice");
            while ki < kills.len() && kills[ki].0 <= r.arrival_us {
                let (kt, ks) = kills[ki];
                ki += 1;
                router.kill(kt, ks);
            }
            router.advance(r.arrival_us);
            router.route_arrival(r);
        }
        while ki < kills.len() {
            let (kt, ks) = kills[ki];
            ki += 1;
            router.kill(kt, ks);
        }

        // Drain survivors to completion, snapshot gauges while the
        // engines still exist, then finish everything (dead shards too
        // — their dispatched batches' responses are already committed).
        router.advance(f64::INFINITY);
        let gauges: Vec<ShardGauges> = router.sims.iter().map(|s| s.gauges()).collect();
        let mut busy: Vec<f64> = Vec::new();
        for sim in &router.sims {
            busy.extend(sim.busy_us());
        }

        let Router {
            sims,
            meta,
            obs,
            stats,
            sheds: mut responses,
            ..
        } = router;
        let mut shards = Vec::with_capacity(sims.len());
        for sim in sims {
            let ShardSim {
                shard,
                engine,
                placed,
                alive,
                device_base,
                ..
            } = sim;
            let report = engine.map(SchedEngine::finish);
            if let Some(rep) = &report {
                for resp in &rep.responses {
                    let meta = meta.get(&resp.id).expect("response for unrouted request");
                    let mut r = resp.clone();
                    r.model = meta.model;
                    r.workload = meta.workload;
                    r.arrival_us = meta.arrival_us;
                    r.device = r.device.map(|d| d + device_base);
                    responses.push(r);
                }
            }
            shards.push(ShardReport {
                shard,
                placed,
                alive,
                gauges: gauges[shard],
                report,
            });
        }
        responses.sort_by_key(|r| r.id);
        assert_eq!(
            responses.len(),
            total,
            "cluster answered {} of {} requests",
            responses.len(),
            total
        );
        for pair in responses.windows(2) {
            assert!(
                pair[0].id < pair[1].id,
                "request {} answered more than once",
                pair[1].id
            );
        }

        let metrics = ServeMetrics::compute(&responses, busy);
        ClusterReport {
            responses,
            metrics,
            stats,
            shards,
            trace: obs.into_trace(),
            host_us: host_start.elapsed().as_secs_f64() * 1e6,
        }
    }
}
