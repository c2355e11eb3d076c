//! The fleet control plane: serving launch traffic over virtual time.
//!
//! [`FleetService`] wires the pieces together on top of
//! [`DesEngine::run_dynamic`]: arrivals are zero-segment marker jobs whose
//! completion hands control to the service at the arrival instant; the
//! service then routes each request — warm pool first (if serving that
//! tier), then admission control — and injects the chosen launch blueprint
//! as a follow-up job on the shared PSP/CPU resources. Everything is seeded
//! and runs on the virtual clock, so a `(catalog, config, fault plan)`
//! triple fully determines the outcome.
//!
//! The three serving tiers mirror the paper's options:
//!
//! * [`ServingTier::Cold`] — every request pays the full launch; throughput
//!   caps at `1 / psp_busy` because the PSP serializes (Fig. 12).
//! * [`ServingTier::Template`] — first request of a class fills the §6.2
//!   shared-key template (cold-priced), the rest are cheap hits.
//! * [`ServingTier::WarmPool`] — requests take §7.1 keep-alive guests from
//!   the pool (no launch at all); the pool refills in the background via
//!   template launches, and misses fall through to the template path.
//!
//! # Fault injection and recovery
//!
//! With a [`FaultPlan`] configured, the substrate misbehaves: PSP firmware
//! resets poison every in-flight PSP-using launch and destroy the template
//! cache (each class must re-measure — the §6.2 trust caveat exercised
//! under failure), launch commands fail transiently partway through their
//! work, warm guests crash out of the pool, and attestation round trips
//! hang or error. The [`RecoveryConfig`] decides what happens next: the
//! naive fleet ([`RecoveryConfig::none`]) turns every fault into a
//! permanently failed request, while the resilient fleet retries with
//! backoff, sheds on deadline, degrades tripped classes down the tier
//! ladder (warm → template → cold → shed), and quiesces PSP-needing
//! dispatches across reset outages. Fault verdicts are drawn statelessly
//! from the plan, so a fault-free run consumes exactly the same random
//! stream as a run of the pre-fault control plane.

use std::collections::BTreeSet;

use sevf_attplane::{AttPlane, AttPlaneConfig, AttPlaneMetrics, Verdict, STEP_RTT};
use sevf_net::VerifierLink;
use sevf_obs::{Launch, MarkerKind, Outcome as ReqOutcome, Recorder, TraceLog};
use sevf_policy::{
    IsolationTier, Offer, PolicyConfig, PolicyDecision, PolicyEngine, Scheduler, TenantMetrics,
    TenantRollup, WfqQueue,
};
use sevf_psp::TemplateKey;
use sevf_sim::fault::{AttestFault, FaultKind, FaultPlan};
use sevf_sim::rng::XorShift64;
use sevf_sim::{DesEngine, Job, JobOutcome, Nanos, PhaseKind, ResourceClass, ResourceId, RunTrace};
use sevf_vmm::machine::HOST_CORES;

use crate::admission::{AdmissionConfig, BoundedQueue, Pending};
use crate::blueprint::{launch_job, Blueprint, Catalog, LaunchCache};
use crate::metrics::FleetMetrics;
use crate::pool::WarmPool;
use crate::recovery::{CircuitBreaker, RecoveryConfig};
use crate::workload::{open_arrivals, Arrival, RequestMix};

/// Which reuse tier the fleet serves requests from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingTier {
    /// Full launch per request.
    Cold,
    /// Content-addressed shared-key template launches (§6.2).
    Template,
    /// Pre-warmed keep-alive guests, template-backed refills (§7.1).
    WarmPool,
}

impl ServingTier {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ServingTier::Cold => "cold",
            ServingTier::Template => "template",
            ServingTier::WarmPool => "warm-pool",
        }
    }

    /// Position on the degradation ladder (0 = most cached).
    fn ladder_pos(self) -> usize {
        match self {
            ServingTier::WarmPool => 0,
            ServingTier::Template => 1,
            ServingTier::Cold => 2,
        }
    }

    /// The tier `level` breaker trips below `self`, or `None` once the
    /// ladder (warm → template → cold) is exhausted and the class sheds.
    pub fn degraded(self, level: usize) -> Option<ServingTier> {
        match self.ladder_pos() + level {
            0 => Some(ServingTier::WarmPool),
            1 => Some(ServingTier::Template),
            2 => Some(ServingTier::Cold),
            _ => None,
        }
    }
}

/// Configuration of one serving run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Serving tier.
    pub tier: ServingTier,
    /// Arrival process.
    pub arrival: Arrival,
    /// Request mix over catalog classes; `None` = uniform over the catalog.
    pub mix: Option<RequestMix>,
    /// Total requests to serve.
    pub requests: usize,
    /// Seed for arrivals and class sampling.
    pub seed: u64,
    /// Admission-controller knobs.
    pub admission: AdmissionConfig,
    /// Warm-pool target size per class (warm-pool tier only).
    pub warm_target: usize,
    /// Injected faults; `None` = the fault-free control plane.
    pub fault: Option<FaultPlan>,
    /// How the fleet reacts to failures.
    pub recovery: RecoveryConfig,
    /// Attestation control plane; `None` = no verifier in the path (the
    /// pre-attestation control plane, byte-identical to older runs).
    pub attestation: Option<AttPlaneConfig>,
    /// Network link to the remote verifier; `None` = the verifier is
    /// local and always reachable (byte-identical to older runs).
    pub verifier_net: Option<VerifierLink>,
    /// Multi-tenant policy layer; `None` = the pre-policy control plane,
    /// byte-identical to older runs (no tenant sampling, no extra RNG
    /// draws, the plain FIFO bounded queue).
    pub policy: Option<PolicyConfig>,
}

impl FleetConfig {
    /// An open-loop run at `rate_per_sec` offered load.
    pub fn open_loop(tier: ServingTier, rate_per_sec: f64, requests: usize) -> Self {
        FleetConfig {
            tier,
            arrival: Arrival::Open { rate_per_sec },
            mix: None,
            requests,
            seed: 0x5EF0,
            admission: AdmissionConfig::default(),
            warm_target: 8,
            fault: None,
            recovery: RecoveryConfig::none(),
            attestation: None,
            verifier_net: None,
            policy: None,
        }
    }

    /// A closed-loop run with `users` clients and `think` think time.
    pub fn closed_loop(tier: ServingTier, users: usize, think: Nanos, requests: usize) -> Self {
        FleetConfig {
            tier,
            arrival: Arrival::Closed { users, think },
            mix: None,
            requests,
            seed: 0x5EF0,
            admission: AdmissionConfig::default(),
            warm_target: 8,
            fault: None,
            recovery: RecoveryConfig::none(),
            attestation: None,
            verifier_net: None,
            policy: None,
        }
    }

    /// The isolation tier the substrate provides: SEV-SNP once an
    /// attestation plane (SNP reports, VCEK chains) is in the path, plain
    /// SEV otherwise. Policy isolation demands are checked against this.
    pub fn substrate_isolation(&self) -> IsolationTier {
        if self.attestation.is_some() {
            IsolationTier::SevSnp
        } else {
            IsolationTier::Sev
        }
    }

    /// Checks the attestation-plane config, if any, passing the config
    /// through so sweeps can chain construction.
    pub fn validated(self) -> Result<Self, crate::FleetError> {
        if let Some(att) = &self.attestation {
            att.validate().map_err(crate::FleetError::AttPlane)?;
        }
        if let Some(link) = &self.verifier_net {
            link.validate().map_err(crate::FleetError::Net)?;
        }
        if let Some(policy) = &self.policy {
            // The catalog is not known here; class-mix bounds are checked
            // again (strictly) in `FleetService::new`.
            policy
                .validate(usize::MAX)
                .map_err(crate::FleetError::Policy)?;
        }
        Ok(self)
    }
}

/// Outcome of one serving run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Tier that served.
    pub tier: ServingTier,
    /// Offered load (open loops only).
    pub offered_rps: Option<f64>,
    /// Collected metrics.
    pub metrics: FleetMetrics,
    /// Memory rent the warm pool held at the end of the run (§7.1).
    pub pool_resident_bytes: u64,
    /// Attestation-plane counters, when a verifier was configured.
    pub attestation: Option<AttPlaneMetrics>,
    /// Per-tenant terminal accounting, when a policy layer was configured.
    /// The extended conservation invariant holds per row:
    /// `completed+shed+breaker_sheds+timeouts+failed+rejected == issued`.
    pub tenants: Option<Vec<TenantRollup>>,
    /// Resource-occupancy trace of the run (for invariant checks).
    pub trace: RunTrace,
}

/// Verdict decided for a launch when it was dispatched. A PSP reset can
/// still override it at completion (poisoning strikes work already in
/// flight).
#[derive(Debug, Clone, Copy)]
enum LaunchFate {
    Ok,
    Fault(FaultKind),
}

/// What an engine job index means to the control plane.
#[derive(Debug, Clone, Copy)]
enum JobKind {
    /// Arrival marker for a request (zero segments).
    Arrival { request: usize },
    /// The launch (or warm invocation) serving a request. `fill` carries
    /// the template key this launch is filling (invalidated if it fails);
    /// `psp` marks launches holding PSP work (poisoned by resets).
    Launch {
        request: usize,
        class: usize,
        fate: LaunchFate,
        fill: Option<TemplateKey>,
        psp: bool,
    },
    /// Backoff marker: when it completes, the request re-enters routing.
    Retry { request: usize },
    /// Background warm-pool refill for a class.
    Replenish { class: usize, psp: bool },
    /// A PSP firmware reset begins (in-flight state dies here).
    ResetStart,
    /// A PSP firmware reset outage ends (quiesced work may drain).
    ResetEnd,
    /// A warm guest crashes; `idx` indexes the plan's crash schedule.
    WarmCrash { idx: usize },
}

/// The control plane: routes a request stream onto the host's resources.
#[derive(Debug)]
pub struct FleetService {
    catalog: Catalog,
    config: FleetConfig,
}

/// Mutable serving state threaded through the DES completion hook.
struct State<'a> {
    catalog: &'a Catalog,
    config: &'a FleetConfig,
    psp: ResourceId,
    cpu: ResourceId,
    mix: RequestMix,
    rng: XorShift64,
    meta: Vec<JobKind>,
    req_class: Vec<usize>,
    arrived: Vec<Nanos>,
    attempts: Vec<u32>,
    queue: BoundedQueue,
    pool: WarmPool,
    cache: LaunchCache,
    breakers: Option<Vec<CircuitBreaker>>,
    /// Job indices of in-flight work holding PSP segments; a firmware reset
    /// moves them all into `poisoned`.
    psp_inflight: BTreeSet<usize>,
    /// Job indices whose completion is a [`FaultKind::PspReset`] failure.
    poisoned: BTreeSet<usize>,
    /// Deterministic token stream for stateless fault draws: one token per
    /// fault-eligible launch, in dispatch order.
    launch_seq: u64,
    inflight: usize,
    issued: usize,
    metrics: FleetMetrics,
    /// Attestation control plane, when configured: every fault-free
    /// dispatch is verified and carries the verifier's latency.
    plane: Option<AttPlane>,
    /// Multi-tenant policy layer, when configured.
    policy: Option<PolicyState>,
    /// Observability handle. Disabled by default; never touches the RNG,
    /// the metrics, or job injection, so enabling it cannot change a run.
    rec: Recorder,
}

/// Live policy-layer state: the engine (specs + quota buckets), the WFQ
/// queue when the scheduler is [`Scheduler::Wfq`], tenant tags, and
/// per-tenant terminal accounting.
///
/// Tenant tagging draws from its own RNG stream (`seed ^ TENANT_SALT`), so
/// the arrival and class streams the no-policy path consumes are
/// untouched — FIFO and WFQ arms of a sweep serve the *same* request
/// stream, and disabling policy replays older runs byte-identically.
struct PolicyState {
    engine: PolicyEngine,
    wfq: Option<WfqQueue<Pending>>,
    tenant_rng: XorShift64,
    /// Per-tenant class mixes (`None` = the catalog-wide mix).
    mixes: Vec<Option<RequestMix>>,
    /// Tenant tag per request id.
    req_tenant: Vec<usize>,
    /// Per-tenant terminal accounting.
    tenants: Vec<TenantMetrics>,
}

/// Salt for the dedicated tenant-tagging RNG stream.
const TENANT_SALT: u64 = 0x7E4A_917E_5EF0_11AD;

impl FleetService {
    /// Builds a service over a measured catalog.
    ///
    /// # Panics
    ///
    /// Panics if the config's mix references a class outside the catalog,
    /// a closed loop has zero users, or the recovery config is invalid
    /// ([`RecoveryConfig::validate`]).
    pub fn new(catalog: Catalog, config: FleetConfig) -> Self {
        if let Some(mix) = &config.mix {
            assert!(
                mix.max_class() < catalog.len(),
                "mix references class {} but catalog has {}",
                mix.max_class(),
                catalog.len()
            );
        }
        if let Arrival::Closed { users, .. } = config.arrival {
            assert!(users > 0, "closed loop needs at least one user");
        }
        if let Err(e) = config.recovery.validate() {
            panic!("invalid recovery config: {e}");
        }
        if let Some(att) = &config.attestation {
            if let Err(e) = att.validate() {
                panic!("invalid attestation config: {e}");
            }
        }
        if let Some(link) = &config.verifier_net {
            if let Err(e) = link.validate() {
                panic!("invalid verifier link: {e}");
            }
        }
        if let Some(policy) = &config.policy {
            if let Err(e) = policy.validate(catalog.len()) {
                panic!("invalid policy config: {e}");
            }
        }
        FleetService { catalog, config }
    }

    /// Serves the configured request stream to completion.
    pub fn run(self) -> FleetReport {
        self.run_with(Recorder::disabled()).0
    }

    /// Serves the stream with span recording on, returning the report and
    /// the assembled [`TraceLog`]. The report is identical to [`run`]'s
    /// (the recorder only observes).
    ///
    /// [`run`]: FleetService::run
    pub fn run_traced(self) -> (FleetReport, TraceLog) {
        self.run_with(Recorder::enabled())
    }

    fn run_with(self, rec: Recorder) -> (FleetReport, TraceLog) {
        let mut engine = DesEngine::new();
        let psp = engine.add_resource("psp", 1);
        let cpu = engine.add_resource("host-cpus", HOST_CORES);

        let mix = self
            .config
            .mix
            .clone()
            .unwrap_or_else(|| RequestMix::uniform(self.catalog.len()));
        let mut state = State {
            catalog: &self.catalog,
            config: &self.config,
            psp,
            cpu,
            mix,
            rng: XorShift64::new(self.config.seed ^ 0x5EF0_F1EE7),
            meta: Vec::new(),
            req_class: Vec::new(),
            arrived: Vec::new(),
            attempts: Vec::new(),
            queue: BoundedQueue::new(self.config.admission.queue_bound),
            pool: WarmPool::prewarmed(
                self.catalog.len(),
                if self.config.tier == ServingTier::WarmPool {
                    self.config.warm_target
                } else {
                    0
                },
                self.catalog
                    .classes()
                    .iter()
                    .map(|c| c.resident_bytes)
                    .collect(),
            ),
            cache: LaunchCache::new(),
            breakers: self
                .config
                .recovery
                .breaker
                .map(|b| vec![CircuitBreaker::new(b); self.catalog.len()]),
            psp_inflight: BTreeSet::new(),
            poisoned: BTreeSet::new(),
            launch_seq: 0,
            inflight: 0,
            issued: 0,
            metrics: FleetMetrics::default(),
            plane: self
                .config
                .attestation
                .map(|cfg| AttPlane::new(cfg, 1).expect("attestation config validated in new()")),
            policy: self.config.policy.as_ref().map(|pcfg| {
                let engine =
                    PolicyEngine::new(pcfg, self.config.substrate_isolation(), self.catalog.len())
                        .expect("policy config validated in new()");
                let wfq = match pcfg.scheduler {
                    Scheduler::Wfq => Some(
                        WfqQueue::new(
                            self.config.admission.queue_bound,
                            &engine.lane_specs(),
                            self.config.seed,
                        )
                        .expect("policy config validated in new()"),
                    ),
                    Scheduler::Fifo => None,
                };
                PolicyState {
                    wfq,
                    tenant_rng: XorShift64::new(self.config.seed ^ TENANT_SALT),
                    mixes: pcfg
                        .tenants
                        .iter()
                        .map(|t| {
                            if t.class_mix.is_empty() {
                                None
                            } else {
                                Some(RequestMix::weighted(t.class_mix.clone()))
                            }
                        })
                        .collect(),
                    req_tenant: Vec::new(),
                    tenants: vec![TenantMetrics::default(); pcfg.tenants.len()],
                    engine,
                }
            }),
            rec,
        };

        // Warm-pool serving starts with every template live: the pool's
        // resident guests were launched from them.
        if self.config.tier == ServingTier::WarmPool {
            for (idx, class) in self.catalog.classes().iter().enumerate() {
                state.cache.prefill(class.key, idx);
            }
        }

        // Seed the arrival stream: open loops pre-draw every arrival, closed
        // loops start one marker per user and chain the rest on completions.
        let mut seed_jobs = Vec::new();
        match self.config.arrival {
            Arrival::Open { rate_per_sec } => {
                let times = open_arrivals(rate_per_sec, self.config.requests, &mut state.rng);
                for at in times {
                    let request = state.new_request(at);
                    seed_jobs.push(Job::released_at(at, vec![]));
                    state.meta.push(JobKind::Arrival { request });
                }
            }
            Arrival::Closed { users, .. } => {
                for i in 0..users.min(self.config.requests) {
                    // Tiny stagger keeps user start order deterministic and
                    // distinct.
                    let at = Nanos::from_micros(i as u64);
                    let request = state.new_request(at);
                    seed_jobs.push(Job::released_at(at, vec![]));
                    state.meta.push(JobKind::Arrival { request });
                }
            }
        }

        // Seed the fault schedule as marker jobs. Without a plan this adds
        // nothing, so the fault-free path is byte-identical to the pre-fault
        // control plane.
        if let Some(plan) = &self.config.fault {
            for window in plan.resets() {
                seed_jobs.push(Job::released_at(window.start, vec![]));
                state.meta.push(JobKind::ResetStart);
                seed_jobs.push(Job::released_at(window.end, vec![]));
                state.meta.push(JobKind::ResetEnd);
            }
            for idx in 0..plan.warm_crashes().len() {
                seed_jobs.push(Job::released_at(plan.warm_crashes()[idx], vec![]));
                state.meta.push(JobKind::WarmCrash { idx });
            }
        }

        let (_, trace) = engine.run_dynamic(seed_jobs, |outcome, inject| {
            state.on_event(outcome, inject);
        });

        // Feed the engine's resource occupancy back so PSP/CPU steps land
        // at their true contended intervals rather than planned durations.
        if state.rec.on() {
            state.rec.resource_names(engine.resource_names());
            for entry in trace.entries() {
                state
                    .rec
                    .occupy(entry.resource, entry.job, entry.start, entry.end);
            }
        }
        let log = state.rec.build();

        let mut metrics = state.metrics;
        metrics.shed = state.queue.shed();
        metrics.max_queue_depth = state.queue.max_depth();
        if let Some(wfq) = state.policy.as_ref().and_then(|p| p.wfq.as_ref()) {
            metrics.shed += wfq.shed();
            metrics.max_queue_depth = metrics.max_queue_depth.max(wfq.max_depth());
        }
        metrics.cache_hits = state.cache.hits();
        metrics.cache_misses = state.cache.misses();
        metrics.warm_hits = state.pool.hits();
        metrics.warm_misses = state.pool.misses();
        metrics.evicted = state.pool.evicted();
        metrics.psp_utilization = trace.utilization(psp, 1);
        metrics.cpu_utilization = trace.utilization(cpu, HOST_CORES);
        metrics.makespan = trace.makespan();
        if let Some(breakers) = &state.breakers {
            metrics.breaker_trips = breakers.iter().map(|b| b.trips()).sum();
        }
        if let Some(plan) = &self.config.fault {
            metrics.time_degraded = plan
                .resets()
                .iter()
                .map(|w| w.end.min(metrics.makespan).saturating_sub(w.start))
                .sum();
        }

        (
            FleetReport {
                tier: self.config.tier,
                offered_rps: self.config.arrival.offered_rps(),
                metrics,
                pool_resident_bytes: state.pool.resident_bytes(),
                attestation: state.plane.as_ref().map(|p| *p.metrics()),
                tenants: state.policy.map(|ps| {
                    let pcfg = self.config.policy.as_ref().expect("state implies config");
                    pcfg.tenants
                        .iter()
                        .zip(ps.tenants)
                        .map(|(t, metrics)| TenantRollup {
                            name: t.name,
                            metrics,
                        })
                        .collect()
                }),
                trace,
            },
            log,
        )
    }
}

impl<'a> State<'a> {
    /// Allocates a request id, sampling its class (and, with a policy
    /// layer, its tenant — from a dedicated RNG stream so tagging never
    /// perturbs the arrival/class streams).
    fn new_request(&mut self, arrival_hint: Nanos) -> usize {
        let request = self.req_class.len();
        let class = if let Some(ps) = self.policy.as_mut() {
            let pcfg = self.config.policy.as_ref().expect("state implies config");
            let tenant = pcfg.sample_tenant(&mut ps.tenant_rng);
            ps.req_tenant.push(tenant);
            ps.tenants[tenant].issued += 1;
            match &ps.mixes[tenant] {
                Some(mix) => mix.sample(&mut self.rng),
                None => self.mix.sample(&mut self.rng),
            }
        } else {
            self.mix.sample(&mut self.rng)
        };
        self.req_class.push(class);
        self.arrived.push(arrival_hint);
        self.attempts.push(0);
        self.issued += 1;
        request
    }

    /// Attributes a terminal to `request`'s tenant (no-op without policy).
    /// Mirrors the global counters so the extended conservation invariant
    /// (`…+rejected == issued`) holds per tenant.
    fn tenant_terminal(&mut self, request: usize, outcome: ReqOutcome, now: Nanos) {
        if let Some(ps) = self.policy.as_mut() {
            let m = &mut ps.tenants[ps.req_tenant[request]];
            match outcome {
                ReqOutcome::Completed => m.complete(now - self.arrived[request]),
                ReqOutcome::Shed => m.shed += 1,
                ReqOutcome::BreakerShed => m.breaker_sheds += 1,
                ReqOutcome::Timeout => m.timeouts += 1,
                ReqOutcome::Failed => m.failed += 1,
                ReqOutcome::Rejected => m.rejected += 1,
            }
        }
    }

    /// The fault plan, if any (`&'a` so probing never borrows `self`).
    fn plan(&self) -> Option<&'a FaultPlan> {
        self.config.fault.as_ref()
    }

    /// Whether the PSP is inside a firmware-reset outage at `now`.
    fn in_outage(&self, now: Nanos) -> bool {
        self.plan().and_then(|p| p.in_outage(now)).is_some()
    }

    /// Whether PSP-needing dispatches are being held (resilient fleets
    /// quiesce across the outage; naive fleets keep dispatching).
    fn quiesce_hold(&self, now: Nanos) -> bool {
        self.config.recovery.quiesce && self.in_outage(now)
    }

    /// Whether `request` has outlived its deadline at `now`.
    fn past_deadline(&self, request: usize, now: Nanos) -> bool {
        match self.config.recovery.deadline {
            Some(d) => now > self.arrived[request] + d,
            None => false,
        }
    }

    /// Current degradation level of `class` at `now` (0 without a breaker).
    /// Applies the breaker's time-based healing first, so a class tripped
    /// off the ladder comes back once the cooldown elapses.
    fn degrade_level(&mut self, class: usize, now: Nanos) -> usize {
        match &mut self.breakers {
            Some(breakers) => {
                breakers[class].heal(now);
                breakers[class].level()
            }
            None => 0,
        }
    }

    fn on_event(&mut self, outcome: &JobOutcome, inject: &mut Vec<Job>) {
        match self.meta[outcome.job] {
            JobKind::Arrival { request } => {
                self.arrived[request] = outcome.finish;
                if self.rec.on() {
                    let class = self.req_class[request];
                    self.rec
                        .arrival(request, &self.catalog.class(class).name, outcome.finish);
                }
                self.route(request, outcome.finish, inject);
            }
            JobKind::Launch {
                request,
                class,
                fate,
                fill,
                psp,
            } => {
                if psp {
                    self.psp_inflight.remove(&outcome.job);
                }
                // A reset that struck while this launch was in flight
                // overrides whatever verdict dispatch drew.
                let fate = if self.poisoned.remove(&outcome.job) {
                    LaunchFate::Fault(FaultKind::PspReset)
                } else {
                    fate
                };
                self.inflight = self.inflight.saturating_sub(1);
                self.rec.attempt_end(outcome.job, outcome.finish);
                match fate {
                    LaunchFate::Ok => {
                        self.metrics
                            .record_latency(outcome.finish - self.arrived[request]);
                        self.rec
                            .terminal(request, ReqOutcome::Completed, outcome.finish);
                        self.tenant_terminal(request, ReqOutcome::Completed, outcome.finish);
                        if let Some(breakers) = &mut self.breakers {
                            breakers[class].on_success(outcome.finish);
                        }
                        self.drain_queue(outcome.finish, inject);
                        self.issue_next_closed(outcome.finish, inject);
                    }
                    LaunchFate::Fault(kind) => {
                        self.metrics.faults.record(kind);
                        self.rec.fault(kind, Some(request), None, outcome.finish);
                        if let Some(key) = fill {
                            // The fill died before finalizing its template:
                            // the key must not look live.
                            self.cache.invalidate(&key);
                        }
                        if let Some(breakers) = &mut self.breakers {
                            if breakers[class].on_failure(outcome.finish) {
                                self.metrics.breaker_trips += 1;
                                self.rec.marker(
                                    MarkerKind::BreakerTrip,
                                    Some(request),
                                    None,
                                    outcome.finish,
                                );
                            }
                        }
                        self.handle_failure(request, outcome.finish, inject);
                        self.drain_queue(outcome.finish, inject);
                    }
                }
            }
            JobKind::Retry { request } => {
                self.route(request, outcome.finish, inject);
            }
            JobKind::Replenish { class, psp } => {
                if psp {
                    self.psp_inflight.remove(&outcome.job);
                }
                self.rec.background_end(outcome.job, outcome.finish);
                if self.poisoned.remove(&outcome.job) {
                    self.metrics.faults.record(FaultKind::PspReset);
                    self.rec
                        .fault(FaultKind::PspReset, None, None, outcome.finish);
                    self.pool.refill_failed(class);
                } else {
                    self.pool.refill_done(class);
                }
            }
            JobKind::ResetStart => {
                self.rec
                    .marker(MarkerKind::OutageStart, None, None, outcome.finish);
                self.on_reset_start();
            }
            JobKind::ResetEnd => {
                self.rec
                    .marker(MarkerKind::OutageEnd, None, None, outcome.finish);
                // The PSP is back (re-initialized): release quiesced work.
                self.drain_queue(outcome.finish, inject);
            }
            JobKind::WarmCrash { idx } => self.on_warm_crash(idx, outcome.finish, inject),
        }
    }

    /// A PSP firmware reset begins: every in-flight PSP-using job is
    /// poisoned (its completion becomes a failure), and the template cache
    /// dies with the firmware — each class re-measures on next use (§6.2).
    fn on_reset_start(&mut self) {
        let doomed: Vec<usize> = self.psp_inflight.iter().copied().collect();
        for job in doomed {
            self.poisoned.insert(job);
        }
        self.psp_inflight.clear();
        self.cache.invalidate_all();
    }

    /// A scheduled warm-guest crash: pick a class deterministically from the
    /// crash index and kill one ready slot if that class has any.
    fn on_warm_crash(&mut self, idx: usize, now: Nanos, inject: &mut Vec<Job>) {
        let classes = self.catalog.len();
        let class = ((idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % classes;
        if self.pool.crash(class) {
            self.metrics.faults.record(FaultKind::WarmCrash);
            self.rec.fault(FaultKind::WarmCrash, None, None, now);
            self.start_refill(class, now, inject);
        }
    }

    /// Starts a background refill for `class` if it is below target and the
    /// refill's PSP work is currently serviceable (no refills are launched
    /// into a reset outage — the PSP physically accepts nothing).
    fn start_refill(&mut self, class: usize, now: Nanos, inject: &mut Vec<Job>) {
        if self.config.tier != ServingTier::WarmPool || !self.pool.wants_refill(class) {
            return;
        }
        let refill: &'a Blueprint = &self.catalog.class(class).template_hit;
        let psp = refill.psp_work() > Nanos::ZERO;
        if psp && self.in_outage(now) {
            return;
        }
        self.pool.refill_started(class);
        let launch = refill.launch();
        inject.push(launch_job(&launch, now, self.cpu, self.psp));
        let job = self.meta.len();
        self.meta.push(JobKind::Replenish { class, psp });
        if self.rec.on() {
            self.rec.background(job, None, launch, now);
        }
        if psp {
            self.psp_inflight.insert(job);
        }
    }

    /// Routes a request (fresh arrival or retry): deadline first, then the
    /// degradation ladder, then warm pool (warm tier), then admission.
    fn route(&mut self, request: usize, now: Nanos, inject: &mut Vec<Job>) {
        let class = self.req_class[request];
        if self.past_deadline(request, now) {
            self.metrics.timeouts += 1;
            self.rec.terminal(request, ReqOutcome::Timeout, now);
            self.tenant_terminal(request, ReqOutcome::Timeout, now);
            self.issue_next_closed(now, inject);
            return;
        }
        // The policy choke point: one decision record per routing pass
        // (fresh arrival or retry), ahead of warm-pool and admission so
        // *every* dispatch flows through it. Quota is charged per attempt.
        if let Some(PolicyDecision::Reject { .. }) = self.policy_evaluate(request, now) {
            self.metrics.rejected += 1;
            self.rec.terminal(request, ReqOutcome::Rejected, now);
            self.tenant_terminal(request, ReqOutcome::Rejected, now);
            self.issue_next_closed(now, inject);
            return;
        }
        let level = self.degrade_level(class, now);
        let Some(tier) = self.config.tier.degraded(level) else {
            self.metrics.breaker_sheds += 1;
            self.rec.terminal(request, ReqOutcome::BreakerShed, now);
            self.tenant_terminal(request, ReqOutcome::BreakerShed, now);
            self.issue_next_closed(now, inject);
            return;
        };
        if tier == ServingTier::WarmPool && self.pool.try_take(class) {
            // Warm hit: no launch, no admission — one vCPU kick. The freed
            // slot is refilled in the background by a template launch.
            let blueprint = &self.catalog.class(class).warm_invoke;
            self.inject_launch(request, class, blueprint, None, now, inject);
            self.start_refill(class, now, inject);
            return;
        }
        self.admit(request, class, now, inject);
    }

    /// Runs the policy engine for `request`, recording the decision as an
    /// obs marker and counting degrades. `None` without a policy layer.
    fn policy_evaluate(&mut self, request: usize, now: Nanos) -> Option<PolicyDecision> {
        let ps = self.policy.as_mut()?;
        let tenant = ps.req_tenant[request];
        let decision = ps.engine.evaluate(tenant, now);
        let marker = match decision {
            PolicyDecision::Admit { .. } => MarkerKind::PolicyAdmit,
            PolicyDecision::Degrade { .. } => {
                ps.tenants[tenant].degraded += 1;
                MarkerKind::PolicyDegrade
            }
            PolicyDecision::Reject { .. } => MarkerKind::PolicyReject,
        };
        self.rec.marker(marker, Some(request), None, now);
        Some(decision)
    }

    /// Expected serialized PSP work of the launch `class` would replay at
    /// `tier` right now (peeks at the cache without counting).
    fn expected_psp(&self, class: usize, tier: ServingTier) -> Nanos {
        let cb = self.catalog.class(class);
        match tier {
            ServingTier::Cold => cb.cold.psp_work(),
            ServingTier::Template | ServingTier::WarmPool => {
                if self.cache.contains(&cb.key) {
                    cb.template_hit.psp_work()
                } else {
                    cb.template_fill.psp_work()
                }
            }
        }
    }

    /// Admission control: dispatch if a slot is free (and the PSP is not
    /// quiesced), queue if there is room, shed otherwise.
    fn admit(&mut self, request: usize, class: usize, now: Nanos, inject: &mut Vec<Job>) {
        let level = self.degrade_level(class, now);
        let tier = self.config.tier.degraded(level).unwrap_or(self.config.tier);
        let expected_psp = self.expected_psp(class, tier);
        let quiesced = expected_psp > Nanos::ZERO && self.quiesce_hold(now);
        if !quiesced && self.inflight < self.config.admission.max_inflight {
            self.dispatch(request, class, tier, now, inject);
            return;
        }
        let key = self.catalog.class(class).key;
        let pending = Pending {
            request,
            class,
            expected_psp,
            key,
        };
        if self.policy.as_ref().is_some_and(|p| p.wfq.is_some()) {
            // WFQ: enqueue on the tenant's lane; overflow sheds by policy
            // (batch before latency-sensitive, quota-violators first).
            let offer = {
                let ps = self.policy.as_mut().expect("checked above");
                let tenant = ps.req_tenant[request];
                let over = ps.engine.over_quota(tenant, now);
                let wfq = ps.wfq.as_mut().expect("checked above");
                wfq.set_over_quota(tenant, over);
                wfq.offer(tenant, pending, expected_psp)
            };
            self.metrics.sample_queue_depth(now, self.queue_depth());
            match offer {
                Offer::Queued => self.rec.queued(request),
                Offer::Displaced { item, .. } => {
                    self.rec.queued(request);
                    self.rec.terminal(item.request, ReqOutcome::Shed, now);
                    self.tenant_terminal(item.request, ReqOutcome::Shed, now);
                    self.issue_next_closed(now, inject);
                }
                Offer::Refused(item) => {
                    self.rec.terminal(item.request, ReqOutcome::Shed, now);
                    self.tenant_terminal(item.request, ReqOutcome::Shed, now);
                    self.issue_next_closed(now, inject);
                }
            }
            return;
        }
        let admitted = self.queue.offer(pending);
        self.metrics.sample_queue_depth(now, self.queue.len());
        if admitted {
            self.rec.queued(request);
        } else {
            // Shed: fail fast. A closed-loop client still comes back.
            self.rec.terminal(request, ReqOutcome::Shed, now);
            self.tenant_terminal(request, ReqOutcome::Shed, now);
            self.issue_next_closed(now, inject);
        }
    }

    /// Current admission backlog (whichever queue is active).
    fn queue_depth(&self) -> usize {
        match self.policy.as_ref().and_then(|p| p.wfq.as_ref()) {
            Some(wfq) => wfq.len(),
            None => self.queue.len(),
        }
    }

    /// Picks the launch blueprint for a dispatch at `tier` and injects it.
    fn dispatch(
        &mut self,
        request: usize,
        class: usize,
        tier: ServingTier,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        if tier != self.config.tier {
            self.metrics.degraded_dispatches += 1;
        }
        let cb = self.catalog.class(class);
        let (blueprint, fill) = match tier {
            ServingTier::Cold => (&cb.cold, None),
            ServingTier::Template | ServingTier::WarmPool => {
                if self.cache.lookup_or_fill(cb.key, class) {
                    (&cb.template_hit, None)
                } else {
                    (&cb.template_fill, Some(cb.key))
                }
            }
        };
        self.inject_launch(request, class, blueprint, fill, now, inject);
    }

    /// Applies the fault plan to a launch and injects it. Verdicts are
    /// drawn statelessly per launch token, so the fault-free path consumes
    /// no randomness at all.
    fn inject_launch(
        &mut self,
        request: usize,
        class: usize,
        blueprint: &'a Blueprint,
        fill: Option<TemplateKey>,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        let (mut launch, kind) = match self.plan() {
            Some(plan) => {
                let token = self.launch_seq;
                self.launch_seq += 1;
                apply_launch_faults(blueprint, plan, token, now)
            }
            None => (blueprint.launch(), None),
        };
        let mut fate = kind.map_or(LaunchFate::Ok, LaunchFate::Fault);
        // Every fault-free dispatch carries an attestation verdict: the
        // verifier's latency (queue wait → cert fetch/hit → batch window →
        // signature check) rides the launch as pure network delay, and a
        // revoked chip turns the dispatch into an attestation failure.
        if matches!(fate, LaunchFate::Ok) {
            if let Some(plane) = self.plane.as_mut() {
                let link = self.config.verifier_net.as_ref();
                if let Some(link) = link {
                    plane.set_reachable(link.up(now));
                }
                let v = plane
                    .verify_launch(0, now)
                    .expect("fleet plane always holds host 0");
                // The round trip is paid only when the verifier was
                // actually consulted; blackout verdicts are local.
                if let Some(link) = link {
                    if plane.is_reachable() && link.rtt > Nanos::ZERO {
                        launch.push(sevf_obs::WorkStep::new(
                            ResourceClass::Network,
                            PhaseKind::Attestation,
                            STEP_RTT,
                            link.rtt,
                        ));
                    }
                }
                launch.extend(v.steps);
                match v.verdict {
                    Verdict::Ok => {}
                    Verdict::Revoked => fate = LaunchFate::Fault(FaultKind::AttestError),
                    Verdict::Unavailable => fate = LaunchFate::Fault(FaultKind::AttestTimeout),
                }
            }
        }
        self.inflight += 1;
        let psp = launch.psp_work() > Nanos::ZERO;
        inject.push(launch_job(&launch, now, self.cpu, self.psp));
        let job = self.meta.len();
        if self.rec.on() {
            self.rec.attempt_start(request, job, None, launch, now);
        }
        self.meta.push(JobKind::Launch {
            request,
            class,
            fate,
            fill,
            psp,
        });
        if psp {
            self.psp_inflight.insert(job);
        }
    }

    /// A launch failed: retry with backoff if the budget and deadline
    /// allow, else count the request permanently failed (or timed out).
    fn handle_failure(&mut self, request: usize, now: Nanos, inject: &mut Vec<Job>) {
        self.attempts[request] += 1;
        let failures = self.attempts[request];
        match self.config.recovery.retry.backoff(failures, request as u64) {
            None => {
                self.metrics.failed += 1;
                self.rec.terminal(request, ReqOutcome::Failed, now);
                self.tenant_terminal(request, ReqOutcome::Failed, now);
                self.issue_next_closed(now, inject);
            }
            Some(delay) => {
                let mut at = now + delay;
                // No point retrying into a known outage: the resilient
                // fleet re-releases at the instant the PSP is back.
                if self.config.recovery.quiesce {
                    if let Some(end) = self.plan().and_then(|p| p.in_outage(at)) {
                        at = end;
                    }
                }
                if self.past_deadline(request, at) {
                    self.metrics.timeouts += 1;
                    self.rec.terminal(request, ReqOutcome::Timeout, now);
                    self.tenant_terminal(request, ReqOutcome::Timeout, now);
                    self.issue_next_closed(now, inject);
                    return;
                }
                self.metrics.record_retry(failures);
                self.rec.retry_wait(request, failures, now, at);
                inject.push(Job::released_at(at, vec![]));
                self.meta.push(JobKind::Retry { request });
            }
        }
    }

    /// Fills freed dispatch slots from the queue per the scheduling policy.
    /// Held entirely while the resilient fleet quiesces an outage.
    fn drain_queue(&mut self, now: Nanos, inject: &mut Vec<Job>) {
        if self.quiesce_hold(now) {
            return;
        }
        while self.inflight < self.config.admission.max_inflight {
            // WFQ pops the globally smallest virtual finish time; the
            // plain bounded queue picks per the admission policy.
            let next = match self.policy.as_mut().and_then(|p| p.wfq.as_mut()) {
                Some(wfq) => wfq.pop().map(|(_, pending)| pending),
                None => {
                    let cache = &self.cache;
                    self.queue
                        .pick(self.config.admission.policy, |key| cache.contains(key))
                }
            };
            let Some(next) = next else {
                break;
            };
            self.metrics.sample_queue_depth(now, self.queue_depth());
            if self.past_deadline(next.request, now) {
                // Expired while waiting: a timeout shed, not a dispatch.
                self.metrics.timeouts += 1;
                self.rec.terminal(next.request, ReqOutcome::Timeout, now);
                self.tenant_terminal(next.request, ReqOutcome::Timeout, now);
                self.issue_next_closed(now, inject);
                continue;
            }
            let level = self.degrade_level(next.class, now);
            let Some(tier) = self.config.tier.degraded(level) else {
                self.metrics.breaker_sheds += 1;
                self.rec
                    .terminal(next.request, ReqOutcome::BreakerShed, now);
                self.tenant_terminal(next.request, ReqOutcome::BreakerShed, now);
                self.issue_next_closed(now, inject);
                continue;
            };
            self.dispatch(next.request, next.class, tier, now, inject);
        }
    }

    /// Closed loops: a completion (or shed) sends the client into think
    /// time, after which it issues the next request — until the budget runs
    /// out.
    fn issue_next_closed(&mut self, now: Nanos, inject: &mut Vec<Job>) {
        let Arrival::Closed { think, .. } = self.config.arrival else {
            return;
        };
        if self.issued >= self.config.requests {
            return;
        }
        let at = now + think;
        let request = self.new_request(at);
        inject.push(Job::released_at(at, vec![]));
        self.meta.push(JobKind::Arrival { request });
    }
}

/// Applies `plan`'s per-launch fault model to a dispatch of `blueprint` at
/// `now`, returning the launch to inject and the fault that struck, if any.
///
/// This is the single fault-application path shared by [`FleetService`] and
/// the multi-host cluster layered on it (`sevf-cluster`), so both inject
/// byte-identical faulted work for the same `(plan, token, now)`:
///
/// * PSP-needing work dispatched inside a firmware-reset outage hangs on the
///   network until the outage ends, then errors ([`FaultKind::PspReset`]) —
///   no PSP occupancy, the firmware is rebooting.
/// * Otherwise a stateless per-`token` draw may fail the launch transiently
///   partway through its work ([`FaultKind::PspTransient`]).
/// * Launches with an attestation round trip may hang until the client-side
///   timeout or error immediately ([`FaultKind::AttestTimeout`] /
///   [`FaultKind::AttestError`]).
///
/// Verdicts are stateless per token, so a fault-free plan consumes no
/// randomness and leaves the launch untouched. Each fault is an overlay on
/// the blueprint's shared steps, never a copy of them.
pub fn apply_launch_faults(
    blueprint: &Blueprint,
    plan: &FaultPlan,
    token: u64,
    now: Nanos,
) -> (Launch, Option<FaultKind>) {
    if blueprint.psp_work() > Nanos::ZERO {
        if let Some(end) = plan.in_outage(now) {
            let dead = blueprint.dead_psp(end.saturating_sub(now));
            return (dead, Some(FaultKind::PspReset));
        }
        if plan.psp_transient(token) {
            let aborted = blueprint.aborted(plan.transient_progress(token));
            return (aborted, Some(FaultKind::PspTransient));
        }
    }
    let mut launch = blueprint.launch();
    if blueprint.has_network() {
        match plan.attest_fault(token) {
            Some(AttestFault::Timeout) => {
                launch.push(sevf_obs::WorkStep::new(
                    ResourceClass::Network,
                    PhaseKind::Attestation,
                    "attestation round trip times out",
                    plan.config().attest_timeout,
                ));
                return (launch, Some(FaultKind::AttestTimeout));
            }
            Some(AttestFault::Error) => return (launch, Some(FaultKind::AttestError)),
            None => {}
        }
    }
    (launch, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::SchedPolicy;
    use crate::blueprint::ClassSpec;
    use sevf_sim::fault::FaultConfig;

    fn quick_catalog() -> Catalog {
        Catalog::build(17, &ClassSpec::quick_test_classes()).unwrap()
    }

    fn run(config: FleetConfig) -> FleetReport {
        FleetService::new(quick_catalog(), config).run()
    }

    /// issued == completed + shed + breaker sheds + timeouts + failed.
    fn assert_conserved(report: &FleetReport, issued: usize) {
        let m = &report.metrics;
        assert_eq!(
            m.completed + m.lost() as usize,
            issued,
            "completed {} shed {} breaker {} timeouts {} failed {}",
            m.completed,
            m.shed,
            m.breaker_sheds,
            m.timeouts,
            m.failed
        );
    }

    fn storm_plan(seed: u64) -> FaultPlan {
        FaultPlan::generate(seed, FaultConfig::storm(), Nanos::from_secs(10)).unwrap()
    }

    #[test]
    fn verifier_blackout_degrades_by_the_configured_policy() {
        use sevf_sim::fault::ResetWindow;
        // The whole run fits in ~2s at 40 rps; black the verifier out for
        // a stretch in the middle.
        let blackout = ResetWindow {
            start: Nanos::from_millis(400),
            end: Nanos::from_millis(1200),
        };
        let arm = |att: AttPlaneConfig| {
            let mut config = FleetConfig::open_loop(ServingTier::Cold, 40.0, 80);
            config.attestation = Some(att);
            config.verifier_net = Some(VerifierLink {
                rtt: Nanos::from_micros(400),
                blackouts: vec![blackout],
            });
            run(config)
        };
        // Fail-closed: every launch dispatched inside the window dies as
        // an attestation timeout.
        let closed = arm(AttPlaneConfig::cached());
        assert!(closed.metrics.faults.attest_timeout > 0, "blackout missed");
        assert_eq!(
            closed.metrics.faults.attest_timeout,
            closed.attestation.unwrap().unavailable_refusals
        );
        // Fail-open: the chip was verified before the blackout, so stale
        // serves carry the window and strictly more launches survive.
        let mut open = AttPlaneConfig::cached();
        open.degrade = sevf_attplane::FailMode::Open {
            staleness_budget: Nanos::from_secs(120),
        };
        let open = arm(open);
        assert_eq!(open.metrics.faults.attest_timeout, 0);
        let att = open.attestation.unwrap();
        assert!(att.stale_serves > 0);
        assert!(att.reverifies > 0, "heal must trigger re-verification");
        assert!(open.metrics.completed > closed.metrics.completed);
    }

    #[test]
    fn inert_verifier_link_replays_byte_identically() {
        // `Some(VerifierLink::none())` must not perturb a run relative to
        // `None`: no RTT steps, no reachability flips, same byte stream.
        let arm = |link: Option<VerifierLink>| {
            let mut config = FleetConfig::open_loop(ServingTier::Template, 60.0, 80);
            config.attestation = Some(AttPlaneConfig::cached_batched());
            config.verifier_net = link;
            run(config)
        };
        let bare = arm(None);
        let inert = arm(Some(VerifierLink::none()));
        assert!(VerifierLink::none().is_none());
        assert_eq!(
            format!("{:?}", bare.metrics),
            format!("{:?}", inert.metrics)
        );
    }

    #[test]
    fn tagged_policy_replays_byte_identically() {
        use sevf_policy::{PolicySpec, Tenant};
        // A tag-only policy (FIFO scheduler, no quotas, no posture) must not
        // perturb a run relative to `None`: tenant sampling draws from its
        // own salted rng and the bounded queue is untouched.
        let arm = |policy: Option<PolicyConfig>| {
            let mut config = FleetConfig::open_loop(ServingTier::Template, 60.0, 80);
            config.policy = policy;
            run(config)
        };
        let bare = arm(None);
        let tagged = arm(Some(PolicyConfig::tagged(vec![Tenant::new(
            "solo",
            1,
            PolicySpec::permissive(),
        )])));
        assert_eq!(
            format!("{:?}", bare.metrics),
            format!("{:?}", tagged.metrics)
        );
        assert!(bare.tenants.is_none());
        let rollup = tagged.tenants.unwrap();
        assert_eq!(rollup.len(), 1);
        assert_eq!(rollup[0].metrics.issued, 80);
        assert!(rollup[0].metrics.conserved());
    }

    #[test]
    fn wfq_policy_conserves_per_tenant_and_rejects_over_quota() {
        use sevf_policy::{PolicySpec, QuotaSpec, SloClass, Tenant};
        let mut premium_spec = PolicySpec::permissive();
        premium_spec.weight = 8;
        let mut batch_spec = PolicySpec::permissive();
        batch_spec.slo = SloClass::Batch;
        batch_spec.weight = 1;
        batch_spec.quota = Some(QuotaSpec {
            rate_per_sec: 10.0,
            burst: 4.0,
        });
        let mut config = FleetConfig::open_loop(ServingTier::Cold, 120.0, 120);
        config.policy = Some(PolicyConfig::enforced(vec![
            Tenant::new("premium", 1, premium_spec),
            Tenant::new("batch", 3, batch_spec),
        ]));
        let report = run(config);
        let m = &report.metrics;
        assert_eq!(m.completed + m.lost() as usize, 120);
        assert!(m.rejected > 0, "quota flood must produce rejects");
        let rollup = report.tenants.unwrap();
        let issued: usize = rollup.iter().map(|t| t.metrics.issued).sum();
        assert_eq!(issued, 120);
        for t in &rollup {
            assert!(
                t.metrics.conserved(),
                "{} not conserved: {:?}",
                t.name,
                t.metrics
            );
        }
        let batch = rollup.iter().find(|t| t.name == "batch").unwrap();
        assert!(batch.metrics.rejected > 0);
    }

    #[test]
    fn open_loop_conserves_requests() {
        let report = run(FleetConfig::open_loop(ServingTier::Cold, 30.0, 60));
        let m = &report.metrics;
        assert_eq!(m.completed + m.shed as usize, 60);
        assert_eq!(m.latencies.len(), m.completed);
    }

    #[test]
    fn closed_loop_conserves_requests() {
        let config = FleetConfig::closed_loop(ServingTier::Template, 4, Nanos::from_millis(5), 40);
        let report = run(config);
        let m = &report.metrics;
        assert_eq!(m.completed + m.shed as usize, 40);
        assert_eq!(report.offered_rps, None);
    }

    #[test]
    fn runs_are_deterministic_under_a_seed() {
        let a = run(FleetConfig::open_loop(ServingTier::Template, 80.0, 80));
        let b = run(FleetConfig::open_loop(ServingTier::Template, 80.0, 80));
        assert_eq!(a.metrics.latencies, b.metrics.latencies);
        assert_eq!(a.metrics.shed, b.metrics.shed);
        assert_eq!(a.metrics.makespan, b.metrics.makespan);
    }

    #[test]
    fn attested_runs_conserve_and_are_deterministic() {
        use sevf_attplane::AttPlaneConfig;
        let attested = |cfg: AttPlaneConfig| {
            let mut config = FleetConfig::open_loop(ServingTier::Template, 40.0, 60);
            config.attestation = Some(cfg);
            run(config)
        };
        let a = attested(AttPlaneConfig::cached());
        let b = attested(AttPlaneConfig::cached());
        assert_conserved(&a, 60);
        assert_eq!(a.metrics.latencies, b.metrics.latencies);
        assert_eq!(a.attestation, b.attestation);
        let att = a.attestation.expect("plane configured");
        assert!(att.verifications > 0);
        assert!(att.cert_hits > 0, "one chip should mostly hit");

        // The verifier's latency rides the launch: the naive arm pays the
        // full KDS fetch per dispatch and must be slower end-to-end.
        let naive = attested(AttPlaneConfig::naive());
        assert_conserved(&naive, 60);
        let base = run(FleetConfig::open_loop(ServingTier::Template, 40.0, 60));
        assert!(naive.metrics.mean_ms() > base.metrics.mean_ms());
        assert!(naive.attestation.unwrap().cert_fetches >= att.cert_fetches);
    }

    #[test]
    fn invalid_attestation_config_is_a_chained_error() {
        use sevf_attplane::AttPlaneConfig;
        use std::error::Error;
        let mut att = AttPlaneConfig::cached();
        att.cache_ttl = Nanos::ZERO;
        let mut config = FleetConfig::open_loop(ServingTier::Cold, 10.0, 10);
        config.attestation = Some(att);
        let err = config.validated().expect_err("zero TTL must be rejected");
        assert!(matches!(err, crate::FleetError::AttPlane(_)));
        assert!(err.source().unwrap().to_string().contains("cache_ttl"));
    }

    #[test]
    fn template_tier_fills_once_per_class_then_hits() {
        let report = run(FleetConfig::open_loop(ServingTier::Template, 40.0, 50));
        let m = &report.metrics;
        // Two classes → at most two fills; everything else hits.
        assert!(m.cache_misses <= 2, "misses {}", m.cache_misses);
        assert!(m.cache_hits >= 48 - m.shed, "hits {}", m.cache_hits);
    }

    #[test]
    fn warm_tier_serves_hits_and_refills() {
        let mut config = FleetConfig::open_loop(ServingTier::WarmPool, 40.0, 50);
        config.warm_target = 4;
        let report = run(config);
        let m = &report.metrics;
        assert!(m.warm_hits > 0);
        assert_eq!(m.completed + m.shed as usize, 50);
        assert!(report.pool_resident_bytes > 0);
    }

    #[test]
    fn overload_sheds_once_queue_bound_hits() {
        let mut config = FleetConfig::open_loop(ServingTier::Cold, 2000.0, 120);
        config.admission.queue_bound = 8;
        config.admission.max_inflight = 4;
        let report = run(config);
        let m = &report.metrics;
        assert!(m.shed > 0, "expected shedding under overload");
        assert_eq!(m.completed + m.shed as usize, 120);
        assert_eq!(m.max_queue_depth, 8);
    }

    #[test]
    fn scheduling_policies_all_serve_everything() {
        for policy in [
            SchedPolicy::Fifo,
            SchedPolicy::ShortestPspFirst,
            SchedPolicy::TemplateAffinity,
        ] {
            let mut config = FleetConfig::open_loop(ServingTier::Template, 150.0, 60);
            config.admission.max_inflight = 2;
            config.admission.policy = policy;
            let report = run(config);
            let m = &report.metrics;
            assert_eq!(
                m.completed + m.shed as usize,
                60,
                "policy {}",
                policy.name()
            );
        }
    }

    #[test]
    fn warm_pool_bypasses_the_psp_for_hits() {
        // Pool big enough that every request is a warm hit: PSP only sees
        // the background refills (template hits), so utilization stays low
        // and every latency is the invoke cost.
        let mut config = FleetConfig::open_loop(ServingTier::WarmPool, 10.0, 30);
        config.warm_target = 32;
        let report = run(config);
        let m = &report.metrics;
        assert_eq!(m.warm_misses, 0);
        let invoke_ms = 1.0; // warm invokes are sub-millisecond
        assert!(m.p99_ms() < invoke_ms, "p99 {}", m.p99_ms());
    }

    // ---- fault injection and recovery ----------------------------------

    #[test]
    fn empty_fault_plan_is_byte_identical_to_no_plan() {
        // The fault machinery must not perturb the fault-free stream: an
        // empty plan (markers absent, rates zero) reproduces PR-1 exactly.
        let base = run(FleetConfig::open_loop(ServingTier::Template, 60.0, 60));
        let mut config = FleetConfig::open_loop(ServingTier::Template, 60.0, 60);
        config.fault =
            Some(FaultPlan::generate(9, FaultConfig::none(), Nanos::from_secs(30)).unwrap());
        config.recovery = RecoveryConfig::resilient(9);
        let with_plan = run(config);
        assert_eq!(base.metrics.latencies, with_plan.metrics.latencies);
        assert_eq!(base.metrics.makespan, with_plan.metrics.makespan);
        assert_eq!(base.metrics.shed, with_plan.metrics.shed);
        assert_eq!(with_plan.metrics.faults.total(), 0);
    }

    #[test]
    fn chaos_runs_conserve_and_are_deterministic() {
        for recovery in [RecoveryConfig::none(), RecoveryConfig::resilient(5)] {
            let mut config = FleetConfig::open_loop(ServingTier::Template, 60.0, 120);
            config.fault = Some(storm_plan(5));
            config.recovery = recovery;
            let a = run(config.clone());
            let b = run(config);
            assert_conserved(&a, 120);
            assert_eq!(a.metrics.latencies, b.metrics.latencies);
            assert_eq!(a.metrics.failed, b.metrics.failed);
            assert_eq!(a.metrics.timeouts, b.metrics.timeouts);
            assert_eq!(a.metrics.faults, b.metrics.faults);
            assert_eq!(a.metrics.retries_by_attempt, b.metrics.retries_by_attempt);
        }
    }

    #[test]
    fn resilient_fleet_completes_more_than_naive_under_storm() {
        let mut naive = FleetConfig::open_loop(ServingTier::Template, 60.0, 120);
        naive.fault = Some(storm_plan(5));
        naive.recovery = RecoveryConfig::none();
        let naive_report = run(naive);

        let mut resilient = FleetConfig::open_loop(ServingTier::Template, 60.0, 120);
        resilient.fault = Some(storm_plan(5));
        resilient.recovery = RecoveryConfig::resilient(5);
        let resilient_report = run(resilient);

        assert!(
            naive_report.metrics.failed > 0,
            "the storm must actually hurt the naive fleet"
        );
        assert!(
            resilient_report.metrics.completed > naive_report.metrics.completed,
            "resilient {} vs naive {}",
            resilient_report.metrics.completed,
            naive_report.metrics.completed
        );
        assert!(resilient_report.metrics.retries > 0);
    }

    #[test]
    fn reset_forces_template_refills() {
        // Resets only — each one kills the template cache, so the fill
        // count exceeds the class count (re-measurement under failure).
        let mut cfg = FaultConfig::none();
        cfg.psp_reset_period = Some(Nanos::from_millis(300));
        cfg.psp_reset_outage = Nanos::from_millis(50);
        let plan = FaultPlan::generate(11, cfg, Nanos::from_secs(3)).unwrap();
        let resets = plan.resets().len();
        assert!(resets >= 2, "plan too tame: {resets} resets");

        let mut config = FleetConfig::open_loop(ServingTier::Template, 100.0, 200);
        config.fault = Some(plan);
        config.recovery = RecoveryConfig::resilient(11);
        let report = run(config);
        assert!(
            report.metrics.cache_misses > 2,
            "expected re-fills after resets, saw {} misses",
            report.metrics.cache_misses
        );
        assert!(report.metrics.faults.psp_reset > 0);
        assert!(report.metrics.time_degraded > Nanos::ZERO);
        assert_conserved(&report, 200);
    }

    #[test]
    fn deadlines_turn_unserved_requests_into_timeouts() {
        let mut config = FleetConfig::open_loop(ServingTier::Template, 60.0, 80);
        config.fault = Some(storm_plan(7));
        let mut recovery = RecoveryConfig::resilient(7);
        recovery.deadline = Some(Nanos::from_millis(400));
        config.recovery = recovery;
        let report = run(config);
        assert!(report.metrics.timeouts > 0, "tight deadline must fire");
        assert_conserved(&report, 80);
    }

    #[test]
    fn breaker_degrades_warm_tier_under_persistent_faults() {
        let mut cfg = FaultConfig::none();
        cfg.psp_transient_rate = 0.9; // template refills keep dying
        let plan = FaultPlan::generate(13, cfg, Nanos::from_secs(30)).unwrap();
        let mut config = FleetConfig::open_loop(ServingTier::WarmPool, 80.0, 150);
        config.warm_target = 1; // drain the pool fast → launches → failures
        config.fault = Some(plan);
        config.recovery = RecoveryConfig::resilient(13);
        let report = run(config);
        assert!(
            report.metrics.breaker_trips > 0,
            "persistent transients must trip the breaker"
        );
        assert!(
            report.metrics.degraded_dispatches > 0,
            "tripped classes must serve degraded"
        );
        assert_conserved(&report, 150);
    }

    #[test]
    fn warm_crashes_deplete_the_pool_and_count() {
        let mut cfg = FaultConfig::none();
        cfg.warm_crash_period = Some(Nanos::from_millis(20));
        let plan = FaultPlan::generate(19, cfg, Nanos::from_secs(3)).unwrap();
        assert!(!plan.warm_crashes().is_empty());
        let mut config = FleetConfig::open_loop(ServingTier::WarmPool, 40.0, 60);
        config.warm_target = 8;
        config.fault = Some(plan);
        config.recovery = RecoveryConfig::resilient(19);
        let report = run(config);
        assert!(report.metrics.faults.warm_crash > 0);
        assert_conserved(&report, 60);
    }

    #[test]
    fn degradation_ladder_bottoms_out_at_shed() {
        assert_eq!(
            ServingTier::WarmPool.degraded(0),
            Some(ServingTier::WarmPool)
        );
        assert_eq!(
            ServingTier::WarmPool.degraded(1),
            Some(ServingTier::Template)
        );
        assert_eq!(ServingTier::WarmPool.degraded(2), Some(ServingTier::Cold));
        assert_eq!(ServingTier::WarmPool.degraded(3), None);
        assert_eq!(ServingTier::Cold.degraded(0), Some(ServingTier::Cold));
        assert_eq!(ServingTier::Cold.degraded(1), None);
    }
}
