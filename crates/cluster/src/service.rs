//! The cluster control plane: N hosts, one router, one virtual clock.
//!
//! [`ClusterService`] generalizes the single-host fleet to a sharded
//! deployment: every host owns an independent PSP (capacity 1 — the Fig. 12
//! bottleneck does not pool across machines), CPU pool, bounded admission
//! queue, §6.2 template cache, §7.1 warm pool, and a [`FaultPlan`] fault
//! domain derived from the cluster seed via
//! [`FaultPlan::generate_for_domain`]. In front of them a [`Router`] places
//! each arrival by [`PlacementPolicy`]; per-host serving then reuses the
//! fleet machinery — the same admission control, degradation ladder, warm
//! pools, and the shared [`sevf_fleet::apply_launch_faults`] hook, so one
//! host of a cluster misbehaves exactly like the single-host fleet does.
//!
//! What is genuinely cluster-shaped:
//!
//! * **Whole-host outages** — scheduled ([`ClusterConfig::outages`]) or
//!   drawn from each host's fault domain
//!   ([`sevf_sim::fault::FaultConfig::host_outage_period`]). The host's
//!   in-flight launches are poisoned ([`FaultKind::HostOutage`]), its warm
//!   pool crashes, its template cache dies, and its queued requests **fail
//!   over**: they re-enter the router and land on surviving hosts. Under
//!   template-affinity placement the dead host's classes get a new ring
//!   owner, which must re-measure them — the §6.2 trust argument exercised
//!   *across machines*.
//! * **Membership** — hosts can gracefully leave and rejoin
//!   ([`ClusterConfig::events`]); departures drain their queue through the
//!   router without poisoning in-flight work.
//! * **Warm rebalancing** — on any membership change (outage, recovery,
//!   leave, join) the cluster-wide warm budget is re-spread over the live
//!   hosts ([`ClusterConfig::rebalance`]). SEV guests are keyed to their
//!   host's PSP and cannot migrate, so rebalancing re-provisions slots via
//!   template launches on the new hosts rather than moving guests.
//!
//! Everything is a pure function of `(catalog, config)`: same seed, same
//! byte-identical report.

use std::collections::BTreeSet;

use sevf_attplane::{AttPlane, AttPlaneConfig, AttPlaneMetrics, Verdict};
use sevf_fleet::admission::{Pending, SchedPolicy};
use sevf_fleet::blueprint::{launch_job, Blueprint, Catalog, LaunchCache};
use sevf_fleet::metrics::FleetMetrics;
use sevf_fleet::pool::WarmPool;
use sevf_fleet::recovery::{CircuitBreaker, RecoveryConfig};
use sevf_fleet::service::{apply_launch_faults, ServingTier};
use sevf_fleet::workload::{open_arrivals, Arrival, RequestMix};
use sevf_fleet::{AdmissionConfig, BoundedQueue};
use sevf_net::{LeaseLedger, LinkId, LinkPlan, NetConfig, PhiDetector};
use sevf_obs::{MarkerKind, Outcome as ReqOutcome, Recorder, TraceLog};
use sevf_policy::{
    HostPosture, IsolationTier, Offer, PolicyConfig, PolicyDecision, PolicyEngine, Scheduler,
    TenantMetrics, TenantRollup, WfqQueue,
};
use sevf_psp::TemplateKey;
use sevf_scale::{
    curve_arrivals, Autoscaler, AutoscalerConfig, Observation, ScaleAction, Workload,
};
use sevf_sim::fault::{FaultConfig, FaultKind, FaultPlan};
use sevf_sim::rng::XorShift64;
use sevf_sim::{DesEngine, Job, JobOutcome, Nanos, RunTrace};
use sevf_vmm::machine::HOST_CORES;

use crate::host::Host;
use crate::metrics::ClusterMetrics;
use crate::placement::{PlacementPolicy, Router};
use crate::ClusterError;

/// A scheduled whole-host outage (deterministic drills; random per-domain
/// outages come from the fault config instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostOutage {
    /// Host that dies.
    pub host: usize,
    /// Instant the host drops off the cluster.
    pub start: Nanos,
    /// Instant the host is back (empty cache, empty pool).
    pub end: Nanos,
}

/// What a scheduled membership event does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostEventKind {
    /// Graceful departure: queue drains through the router, in-flight work
    /// finishes, no poisoning.
    Leave,
    /// (Re)join: the host becomes routable again.
    Join,
}

/// One scheduled membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostEvent {
    /// When it happens on the virtual clock.
    pub at: Nanos,
    /// Which host.
    pub host: usize,
    /// Leave or join.
    pub kind: HostEventKind,
}

/// Configuration of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of hosts (fault domains / PSPs).
    pub hosts: usize,
    /// Serving tier every host runs at.
    pub tier: ServingTier,
    /// Arrival process offered to the whole cluster.
    pub arrival: Arrival,
    /// Request mix over catalog classes; `None` = uniform.
    pub mix: Option<RequestMix>,
    /// Total requests to serve.
    pub requests: usize,
    /// Seed for arrivals, class sampling, placement sampling, and the
    /// per-host fault domains.
    pub seed: u64,
    /// Per-host admission-controller knobs.
    pub admission: AdmissionConfig,
    /// Warm-pool target per class *per host*; the cluster-wide warm budget
    /// is `warm_target * hosts` and is what rebalancing re-spreads.
    pub warm_target: usize,
    /// Placement policy of the router.
    pub placement: PlacementPolicy,
    /// Virtual nodes per host on the consistent-hash ring.
    pub vnodes: usize,
    /// Per-host fault model; each host replays its own domain-derived plan.
    pub fault: Option<FaultConfig>,
    /// Horizon the per-host fault schedules cover.
    pub fault_horizon: Nanos,
    /// Scheduled whole-host outages (on top of any fault-domain outages).
    pub outages: Vec<HostOutage>,
    /// Scheduled graceful membership changes.
    pub events: Vec<HostEvent>,
    /// Re-spread the warm budget over live hosts on membership changes.
    pub rebalance: bool,
    /// How requests recover from failures (shared by all hosts).
    pub recovery: RecoveryConfig,
    /// Attestation control plane; `None` = no verifier in the dispatch
    /// path (byte-identical to pre-attestation runs).
    pub attestation: Option<AttPlaneConfig>,
    /// Staggered TCB/firmware rollout (re-attestation storm). Requires
    /// `attestation`.
    pub tcb_rollout: Option<TcbRollout>,
    /// Key-compromise revocation drill. Requires `attestation`.
    pub revocation: Option<RevocationDrill>,
    /// Network between the router, the hosts, and the verifier. `None`
    /// (or a [`NetConfig::none`] config) bypasses message indirection
    /// entirely, replaying pre-net output byte for byte.
    pub net: Option<NetConfig>,
    /// Multi-tenant policy: tenant registry, QoS scheduler, quotas, and
    /// attestation-posture placement. `None` consumes zero randomness and
    /// replays pre-policy output byte for byte.
    pub policy: Option<PolicyConfig>,
    /// Trace-driven workload curve shaping open-loop arrivals (diurnal,
    /// flash crowd, regional failover). `None` uses the fixed-rate
    /// generator, replaying pre-curve output byte for byte.
    pub workload: Option<Workload>,
    /// The autoscaler: drives membership and warm-pool targets from load
    /// between `[min_hosts, max_hosts]`, with `hosts` as the starting
    /// point. `None` keeps membership static and consumes zero randomness,
    /// replaying pre-autoscaler output byte for byte.
    pub autoscaler: Option<AutoscalerConfig>,
}

/// A staggered TCB/firmware rollout: host `h` re-measures at
/// `start + h * stagger`. Each re-measurement bumps the host's TCB
/// version — every cert/report cached under the old version silently
/// stops matching — and invalidates the host's template cache (new
/// firmware, new measurements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcbRollout {
    /// When the first host re-measures.
    pub start: Nanos,
    /// Gap between consecutive hosts.
    pub stagger: Nanos,
}

/// A key-compromise drill: `host`'s chip key is distrusted at `at`. Its
/// templates die with the key (§6.2), its in-flight guests fail over and
/// re-attest on surviving hosts, and the host leaves service for the
/// rest of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RevocationDrill {
    /// The host whose chip is distrusted.
    pub host: usize,
    /// When the revocation lands.
    pub at: Nanos,
}

impl ClusterConfig {
    /// An open-loop cluster at `rate_per_sec` aggregate offered load.
    pub fn open_loop(hosts: usize, tier: ServingTier, rate_per_sec: f64, requests: usize) -> Self {
        ClusterConfig {
            hosts,
            tier,
            arrival: Arrival::Open { rate_per_sec },
            mix: None,
            requests,
            seed: 0xC1_05_7E,
            admission: AdmissionConfig::default(),
            warm_target: 8,
            placement: PlacementPolicy::JsqPsp,
            vnodes: 64,
            fault: None,
            fault_horizon: Nanos::ZERO,
            outages: Vec::new(),
            events: Vec::new(),
            rebalance: true,
            recovery: RecoveryConfig::none(),
            attestation: None,
            tcb_rollout: None,
            revocation: None,
            net: None,
            policy: None,
            workload: None,
            autoscaler: None,
        }
    }

    /// The isolation tier the cluster substrate actually provides: SEV-SNP
    /// when an attestation plane vouches for the hosts (SNP reports, VCEK
    /// chains), plain SEV otherwise.
    pub fn substrate_isolation(&self) -> IsolationTier {
        if self.attestation.is_some() {
            IsolationTier::SevSnp
        } else {
            IsolationTier::Sev
        }
    }

    /// Checks host indices, arrival shape, vnodes, fault, and recovery
    /// knobs.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self, catalog_classes: usize) -> Result<(), ClusterError> {
        if self.hosts == 0 {
            return Err(ClusterError::Config("cluster needs at least one host"));
        }
        if self.vnodes == 0 {
            return Err(ClusterError::Config("ring needs at least one virtual node"));
        }
        if let Some(mix) = &self.mix {
            if mix.max_class() >= catalog_classes {
                return Err(ClusterError::Config(
                    "mix references a class outside the catalog",
                ));
            }
        }
        if let Arrival::Closed { users, .. } = self.arrival {
            if users == 0 {
                return Err(ClusterError::Config("closed loop needs at least one user"));
            }
        }
        for outage in &self.outages {
            if outage.host >= self.hosts {
                return Err(ClusterError::Config(
                    "scheduled outage names an unknown host",
                ));
            }
            if outage.start >= outage.end {
                return Err(ClusterError::Config(
                    "scheduled outage must end after it starts",
                ));
            }
        }
        for event in &self.events {
            if event.host >= self.hosts {
                return Err(ClusterError::Config(
                    "membership event names an unknown host",
                ));
            }
        }
        if let Some(fault) = &self.fault {
            fault.validate().map_err(ClusterError::FaultPlan)?;
            if self.fault_horizon == Nanos::ZERO && !fault.is_none() {
                return Err(ClusterError::Config(
                    "fault config needs a positive fault_horizon",
                ));
            }
        }
        self.recovery.validate().map_err(ClusterError::Recovery)?;
        if let Some(att) = &self.attestation {
            att.validate().map_err(ClusterError::AttPlane)?;
        }
        if self.tcb_rollout.is_some() && self.attestation.is_none() {
            return Err(ClusterError::Config(
                "tcb_rollout needs an attestation plane",
            ));
        }
        if let Some(drill) = &self.revocation {
            if self.attestation.is_none() {
                return Err(ClusterError::Config(
                    "revocation drill needs an attestation plane",
                ));
            }
            if drill.host >= self.hosts {
                return Err(ClusterError::Config(
                    "revocation drill names an unknown host",
                ));
            }
        }
        if let Some(net) = &self.net {
            net.validate(self.hosts).map_err(ClusterError::Net)?;
        }
        if let Some(policy) = &self.policy {
            policy
                .validate(catalog_classes)
                .map_err(ClusterError::Policy)?;
            if policy.posture && self.attestation.is_none() {
                return Err(ClusterError::Config(
                    "posture enforcement needs an attestation plane",
                ));
            }
        }
        if let Some(curve) = &self.workload {
            curve.validate()?;
            if !matches!(self.arrival, Arrival::Open { .. }) {
                return Err(ClusterError::Config(
                    "workload curves shape open-loop arrivals only",
                ));
            }
        }
        if let Some(auto) = &self.autoscaler {
            auto.validate()?;
            if !matches!(self.arrival, Arrival::Open { .. }) {
                return Err(ClusterError::Config(
                    "the autoscaler drives open-loop clusters only",
                ));
            }
            if self.hosts < auto.min_hosts || self.hosts > auto.max_hosts {
                return Err(ClusterError::Config(
                    "starting host count must sit within [min_hosts, max_hosts]",
                ));
            }
            // The network and attestation layers size their link plans and
            // per-host ledgers to a fixed fleet; elastic membership would
            // silently leave spare hosts outside those structures.
            if self.net.is_some() || self.attestation.is_some() {
                return Err(ClusterError::Config(
                    "the autoscaler cannot combine with net or attestation layers",
                ));
            }
        }
        Ok(())
    }
}

/// Outcome of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Tier that served.
    pub tier: ServingTier,
    /// Placement policy that routed.
    pub placement: PlacementPolicy,
    /// Host count.
    pub hosts: usize,
    /// Aggregate offered load (open loops only).
    pub offered_rps: Option<f64>,
    /// The cluster-wide rollup.
    pub metrics: ClusterMetrics,
    /// Attestation-plane counters, when a verifier was configured.
    pub attestation: Option<AttPlaneMetrics>,
    /// Per-tenant terminal accounting, when a policy was configured.
    pub tenants: Option<Vec<TenantRollup>>,
    /// Autoscaler decision counters and audit log, when one was configured.
    pub autoscale: Option<AutoscaleRollup>,
    /// Resource-occupancy trace (per-host PSP/CPU ids interleaved).
    pub trace: RunTrace,
}

/// What the autoscaler did over one run: monotone decision counters (the
/// obs markers must match them exactly) plus the full audit log of applied
/// membership and warm-pool changes, which the invariant battery replays.
#[derive(Debug, Clone)]
pub struct AutoscaleRollup {
    /// The policy that ran ("reactive" or "predictive").
    pub policy: &'static str,
    /// Control ticks processed.
    pub ticks: u64,
    /// Scale-out decisions emitted.
    pub scale_outs: u64,
    /// Scale-in decisions emitted.
    pub scale_ins: u64,
    /// Pre-warm prescriptions emitted.
    pub prewarms: u64,
    /// Smallest live-host count observed at a control tick.
    pub min_live: usize,
    /// Largest live-host count observed at a control tick.
    pub max_live: usize,
    /// Applied changes, in virtual-time order.
    pub events: Vec<ScaleEvent>,
}

/// One applied autoscaling change, as the cluster recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleEvent {
    /// Spare hosts joined via the graceful-join path.
    Out {
        /// When the decision was applied.
        at: Nanos,
        /// Hosts actually joined (bounded by the spare supply).
        added: usize,
        /// Live hosts after the join.
        live: usize,
        /// Sum of per-host warm targets after the join.
        warm_sum: usize,
    },
    /// Hosts drained via the graceful-leave path.
    In {
        /// When the decision was applied.
        at: Nanos,
        /// Hosts actually drained (only idle, empty-queue victims qualify).
        removed: usize,
        /// Live hosts after the drain.
        live: usize,
        /// In-flight launches across the chosen victims (must be 0).
        victims_inflight: usize,
        /// Queued requests across the chosen victims (must be 0).
        victims_queued: usize,
        /// Sum of per-host warm targets after the drain.
        warm_sum: usize,
    },
    /// Per-host warm-pool targets re-prescribed ahead of a ramp.
    PreWarm {
        /// When the prescription was applied.
        at: Nanos,
        /// The per-host target applied to every live host.
        per_host: usize,
        /// The cluster-wide warm budget being spread.
        budget: usize,
        /// Live hosts the prescription covered.
        live: usize,
        /// Sum of per-host warm targets after the prescription.
        warm_sum: usize,
    },
}

/// Verdict decided for a launch at dispatch; poisoning (PSP reset or host
/// outage) can still override it at completion.
#[derive(Debug, Clone, Copy)]
enum LaunchFate {
    Ok,
    Fault(FaultKind),
}

/// What an engine job index means to the cluster control plane.
#[derive(Debug, Clone, Copy)]
enum JobKind {
    /// Arrival marker for a request.
    Arrival { request: usize },
    /// A launch (or warm invocation) serving `request` on `host`. `psp_ns`
    /// is the serialized PSP work this job holds on the host's backlog;
    /// `epoch` is the request's dispatch epoch at injection (net mode).
    Launch {
        request: usize,
        class: usize,
        host: usize,
        epoch: u32,
        fate: LaunchFate,
        fill: Option<TemplateKey>,
        psp: bool,
        psp_ns: Nanos,
    },
    /// Backoff marker: completion re-enters routing (fresh placement — this
    /// is how failed-over requests land on a surviving host).
    Retry { request: usize },
    /// Background warm-pool refill on `host`.
    Replenish {
        class: usize,
        host: usize,
        psp: bool,
        psp_ns: Nanos,
    },
    /// `host`'s PSP firmware reset begins.
    PspResetStart { host: usize },
    /// `host`'s PSP firmware reset outage ends.
    PspResetEnd { host: usize },
    /// A warm guest on `host` crashes (`idx` indexes the host's schedule).
    WarmCrash { host: usize, idx: usize },
    /// `host` drops off the cluster (outage) or departs (graceful).
    HostDown { host: usize, departure: bool },
    /// `host` comes back from an outage or rejoins after departing.
    HostUp { host: usize, departure: bool },
    /// A TCB/firmware rollout re-measures `host` (re-attestation storm).
    TcbRollout { host: usize },
    /// `host`'s chip key is distrusted (key-compromise drill).
    Revoke { host: usize },
    /// A dispatch message in flight from the router to `host`.
    NetDispatch {
        request: usize,
        epoch: u32,
        host: usize,
    },
    /// The router's dispatch timeout firing for a message the link lost.
    NetDispatchLost {
        request: usize,
        epoch: u32,
        host: usize,
    },
    /// An attempt outcome in flight from `host` back to the router.
    /// Host→router messages ride a reliable transport: a partition
    /// buffers them until the heal instead of dropping them.
    NetCompletion {
        request: usize,
        epoch: u32,
        host: usize,
        ok: bool,
    },
    /// A refusal heading back to the router: the host was parked, fenced,
    /// or dead when the dispatch arrived (transport-level errors are
    /// router-visible). Carries the epoch it refuses — a buffered old
    /// refusal must not cancel a fresh dispatch after the host rejoins.
    NetNack {
        request: usize,
        epoch: u32,
        host: usize,
    },
    /// A heartbeat from `host` that survived the lossy links.
    Heartbeat { host: usize },
    /// The router probes the failure detector's deadline for `host`.
    SuspectCheck { host: usize },
    /// The router's lease-renewal tick for `host`.
    LeaseRenew { host: usize },
    /// A lease grant delivered to `host`.
    LeaseGrant { host: usize },
    /// `host`'s lease lapses: it parks unless a grant extended it.
    LeaseExpire { host: usize },
    /// The router fails a suspected host's outstanding work over, once
    /// every lease it ever granted that host has provably lapsed.
    FailoverSweep { host: usize },
    /// The router↔verifier link partitions (attestation blackout).
    VerifierDown,
    /// The router↔verifier link heals.
    VerifierUp,
    /// The autoscaler's control-loop tick.
    AutoscaleTick,
}

impl JobKind {
    /// The net layer's own timers: heartbeats, suspicion checks, lease
    /// grants, renewals and expiries, verifier windows. They run on to the
    /// net horizon whether or not any request is still being served.
    fn is_net_timer(self) -> bool {
        matches!(
            self,
            JobKind::Heartbeat { .. }
                | JobKind::SuspectCheck { .. }
                | JobKind::LeaseRenew { .. }
                | JobKind::LeaseGrant { .. }
                | JobKind::LeaseExpire { .. }
                | JobKind::VerifierDown
                | JobKind::VerifierUp
        )
    }
}

/// The cluster control plane.
#[derive(Debug)]
pub struct ClusterService {
    catalog: Catalog,
    config: ClusterConfig,
}

/// Runtime state of the network layer. Present only when a real
/// [`NetConfig`] is active; absent, the control plane calls hosts
/// directly and replays pre-net output byte for byte.
struct NetRuntime {
    plan: LinkPlan,
    detector: Option<PhiDetector>,
    ledger: Option<LeaseLedger>,
    /// Requests the router believes each host is currently serving.
    outstanding: Vec<BTreeSet<usize>>,
    /// The router's current suspicion verdict per host.
    suspected: Vec<bool>,
    /// Per-message token stream for stateless link draws.
    seq: u64,
    suspicions: u64,
    suspicions_cleared: u64,
    false_suspicions: u64,
    lease_expiries: u64,
    net_lost: u64,
    net_timeouts: u64,
    net_nacks: u64,
    stale_completions: u64,
    double_completion_attempts: u64,
}

/// Token offset for heartbeat draws on the host→router links, so the
/// pre-scheduled heartbeat stream never correlates with the `seq`-tokened
/// message draws sharing the link.
const HB_TOKEN_BASE: u64 = 0x4845_0000_0000;

/// Salt for the dedicated tenant-tagging RNG stream (same constant the
/// fleet uses, so a 1-host cluster and the fleet tag identically).
const TENANT_SALT: u64 = 0x7E4A_917E_5EF0_11AD;

/// Live autoscaler state: the pure decision engine plus the cluster-side
/// bookkeeping its Observations and the audit log are built from.
struct ScalerState {
    auto: Autoscaler,
    /// Requests that arrived since the previous control tick.
    arrivals_since: usize,
    /// Applied changes, in virtual-time order.
    events: Vec<ScaleEvent>,
    /// Live-host extrema observed at control ticks.
    min_live: usize,
    max_live: usize,
}

/// Live policy-layer state: the engine (specs + quota buckets), tenant
/// tags, per-tenant terminal accounting, and the posture counters.
///
/// Tenant tagging draws from its own RNG stream (`seed ^ TENANT_SALT`), so
/// the arrival, class, and placement streams the no-policy path consumes
/// are untouched — FIFO and WFQ arms of a sweep serve the *same* request
/// stream, and disabling policy replays older runs byte-identically.
struct PolicyState {
    engine: PolicyEngine,
    tenant_rng: XorShift64,
    /// Per-tenant class mixes (`None` = the cluster-wide mix).
    mixes: Vec<Option<RequestMix>>,
    /// Tenant tag per request id.
    req_tenant: Vec<usize>,
    /// Per-tenant terminal accounting.
    tenants: Vec<TenantMetrics>,
    posture_checks: u64,
    posture_redirects: u64,
    posture_violations: u64,
}

/// Mutable serving state threaded through the DES completion hook.
struct State<'a> {
    catalog: &'a Catalog,
    config: &'a ClusterConfig,
    hosts: Vec<Host>,
    router: Router,
    mix: RequestMix,
    rng: XorShift64,
    meta: Vec<JobKind>,
    req_class: Vec<usize>,
    arrived: Vec<Nanos>,
    attempts: Vec<u32>,
    /// Jobs whose host died under them; completion is a
    /// [`FaultKind::HostOutage`] failure.
    poisoned_host: BTreeSet<usize>,
    /// Jobs whose host's PSP reset under them; completion is a
    /// [`FaultKind::PspReset`] failure.
    poisoned_reset: BTreeSet<usize>,
    /// Jobs whose host parked on an expired lease under them; completion
    /// is a [`FaultKind::NetPartition`] failure refused back to the router.
    poisoned_lease: BTreeSet<usize>,
    /// Whether each request has reached a terminal state. Maintained in
    /// every mode (it never touches the RNG); consulted by the net layer
    /// to fence stale messages, and asserted at every terminal site.
    done: Vec<bool>,
    /// Finish of the last job that is not a net timer.
    serving_end: Nanos,
    /// Dispatch epoch per request: bumped on every routed send so stale
    /// messages from earlier attempts are discarded, not double-counted.
    epoch: Vec<u32>,
    /// The network layer, when a real config is active.
    net: Option<NetRuntime>,
    issued: usize,
    // Cluster-level terminal counters (per-host metrics keep what is
    // naturally host-scoped: completions, latencies, caches, faults).
    timeouts: u64,
    failed: u64,
    breaker_sheds: u64,
    retries: u64,
    unroutable: u64,
    failovers: u64,
    rebalances: u64,
    rejected: u64,
    /// Attestation control plane, when configured: every fault-free
    /// dispatch is verified and carries the verifier's latency.
    plane: Option<AttPlane>,
    /// Policy layer, when configured: the admission choke point every
    /// routed dispatch flows through.
    policy: Option<PolicyState>,
    /// Autoscaler runtime, when configured. Its decision engine is pure
    /// and RNG-free; `None` consumes zero randomness.
    scaler: Option<ScalerState>,
    /// Virtual instant each host last became available; `None` while the
    /// host is out, departed, or a cold spare. Pure accounting (no RNG).
    live_since: Vec<Option<Nanos>>,
    /// Host-seconds of availability accrued per host.
    host_secs: Vec<f64>,
    /// Autoscale-joined spares warming their pools before taking traffic:
    /// up (and billing host-seconds) but not yet routable. The scaler's
    /// warm-before-serve join — cold SEV dogpiles are the alternative.
    warming: Vec<bool>,
    /// Observability recorder. Never touches the RNG, the metrics, or the
    /// fault plans, so enabling it cannot change a run's results.
    rec: Recorder,
}

impl ClusterService {
    /// Builds a cluster over a measured catalog (shared by all hosts: the
    /// same class measures to the same template key everywhere, which is
    /// what lets affinity placement pick an owner).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Config`], [`ClusterError::FaultPlan`], or
    /// [`ClusterError::Recovery`] for invalid knobs.
    pub fn new(catalog: Catalog, config: ClusterConfig) -> Result<Self, ClusterError> {
        config.validate(catalog.len())?;
        Ok(ClusterService { catalog, config })
    }

    /// Serves the configured request stream to completion.
    pub fn run(self) -> ClusterReport {
        self.run_with(Recorder::disabled()).0
    }

    /// Serves the stream with span recording on: same report (the recorder
    /// never touches the RNG, metrics, or fault plans), plus the assembled
    /// [`TraceLog`] of causal spans, markers, and resource occupancy.
    pub fn run_traced(self) -> (ClusterReport, TraceLog) {
        self.run_with(Recorder::enabled())
    }

    fn run_with(self, rec: Recorder) -> (ClusterReport, TraceLog) {
        let mut engine = DesEngine::new();
        let net_cfg = self.config.net.clone().filter(|n| !n.is_none());
        // The policy engine (and its per-host WFQ lane specs) build before
        // the hosts so each host can own its fair queue.
        let policy_engine = self.config.policy.as_ref().map(|pcfg| {
            PolicyEngine::new(pcfg, self.config.substrate_isolation(), self.catalog.len())
                .expect("policy config validated in new()")
        });
        let lane_specs = match (&self.config.policy, &policy_engine) {
            (Some(pcfg), Some(eng)) if pcfg.scheduler == Scheduler::Wfq => Some(eng.lane_specs()),
            _ => None,
        };
        // Hosts start the run holding a lease granted at time zero.
        let initial_lease = net_cfg
            .as_ref()
            .and_then(|n| n.lease)
            .map(|l| l.duration)
            .unwrap_or(Nanos::from_nanos(u64::MAX));
        // With an autoscaler the fleet is built out to max_hosts; hosts
        // beyond the configured starting count begin as cold departed
        // spares (no warm slots, no measured templates) that only the
        // scaler's graceful-join path can bring into service. Without one,
        // fleet == config.hosts and nothing below changes.
        let fleet = self
            .config
            .autoscaler
            .as_ref()
            .map_or(self.config.hosts, |a| a.max_hosts);
        let mut hosts = Vec::with_capacity(fleet);
        for id in 0..fleet {
            let spare = id >= self.config.hosts;
            let psp = engine.add_resource(format!("psp{id}"), 1);
            let cpu = engine.add_resource(format!("cpus{id}"), HOST_CORES);
            let plan = self.config.fault.as_ref().map(|f| {
                FaultPlan::generate_for_domain(
                    self.config.seed,
                    id as u64,
                    f.clone(),
                    self.config.fault_horizon,
                )
                .expect("fault config validated in new()")
            });
            let warm = if self.config.tier == ServingTier::WarmPool && !spare {
                self.config.warm_target
            } else {
                0
            };
            let mut cache = LaunchCache::new();
            if self.config.tier == ServingTier::WarmPool && !spare {
                // The pool's resident guests were launched from the
                // templates, so each host starts with them live.
                for (idx, class) in self.catalog.classes().iter().enumerate() {
                    cache.prefill(class.key, idx);
                }
            }
            hosts.push(Host {
                id,
                psp,
                cpu,
                out: false,
                departed: spare,
                queue: BoundedQueue::new(self.config.admission.queue_bound),
                wfq: lane_specs.as_ref().map(|specs| {
                    WfqQueue::new(
                        self.config.admission.queue_bound,
                        specs,
                        self.config.seed.wrapping_add(id as u64),
                    )
                    .expect("policy config validated in new()")
                }),
                pool: WarmPool::prewarmed(
                    self.catalog.len(),
                    warm,
                    self.catalog
                        .classes()
                        .iter()
                        .map(|c| c.resident_bytes)
                        .collect(),
                ),
                cache,
                breakers: self
                    .config
                    .recovery
                    .breaker
                    .map(|b| vec![CircuitBreaker::new(b); self.catalog.len()]),
                plan,
                psp_inflight: BTreeSet::new(),
                host_inflight: BTreeSet::new(),
                launch_seq: 0,
                inflight: 0,
                lease_until: initial_lease,
                parked: false,
                committed_psp: Nanos::ZERO,
                metrics: FleetMetrics::default(),
            });
        }

        let initial_hosts = self.config.hosts;
        let mut state = State {
            catalog: &self.catalog,
            config: &self.config,
            live_since: (0..fleet)
                .map(|id| (id < initial_hosts).then_some(Nanos::ZERO))
                .collect(),
            host_secs: vec![0.0; fleet],
            warming: vec![false; fleet],
            scaler: self.config.autoscaler.as_ref().map(|cfg| ScalerState {
                auto: Autoscaler::new(*cfg).expect("autoscaler config validated in new()"),
                arrivals_since: 0,
                events: Vec::new(),
                min_live: initial_hosts,
                max_live: initial_hosts,
            }),
            hosts,
            router: Router::new(
                self.config.placement,
                self.config.seed,
                self.config.hosts,
                self.config.vnodes,
            ),
            mix: self
                .config
                .mix
                .clone()
                .unwrap_or_else(|| RequestMix::uniform(self.catalog.len())),
            rng: XorShift64::new(self.config.seed ^ 0x5EF0_F1EE7),
            meta: Vec::new(),
            req_class: Vec::new(),
            arrived: Vec::new(),
            attempts: Vec::new(),
            poisoned_host: BTreeSet::new(),
            poisoned_reset: BTreeSet::new(),
            poisoned_lease: BTreeSet::new(),
            done: Vec::new(),
            serving_end: Nanos::ZERO,
            epoch: Vec::new(),
            net: net_cfg.map(|cfg| {
                let plan = LinkPlan::generate(self.config.seed, cfg.clone(), self.config.hosts)
                    .expect("net config validated in new()");
                let margin = plan.max_delay();
                NetRuntime {
                    detector: cfg
                        .detector
                        .map(|d| PhiDetector::new(self.config.hosts, d, cfg.heartbeat_every)),
                    ledger: cfg
                        .lease
                        .map(|l| LeaseLedger::new(self.config.hosts, l, margin)),
                    plan,
                    outstanding: vec![BTreeSet::new(); self.config.hosts],
                    suspected: vec![false; self.config.hosts],
                    seq: 0,
                    suspicions: 0,
                    suspicions_cleared: 0,
                    false_suspicions: 0,
                    lease_expiries: 0,
                    net_lost: 0,
                    net_timeouts: 0,
                    net_nacks: 0,
                    stale_completions: 0,
                    double_completion_attempts: 0,
                }
            }),
            issued: 0,
            timeouts: 0,
            failed: 0,
            breaker_sheds: 0,
            retries: 0,
            unroutable: 0,
            failovers: 0,
            rebalances: 0,
            rejected: 0,
            plane: self.config.attestation.map(|cfg| {
                AttPlane::new(cfg, self.config.hosts)
                    .expect("attestation config validated in new()")
            }),
            policy: policy_engine.map(|engine| {
                let pcfg = self.config.policy.as_ref().expect("engine implies config");
                PolicyState {
                    engine,
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
                    posture_checks: 0,
                    posture_redirects: 0,
                    posture_violations: 0,
                }
            }),
            rec,
        };

        // Arrivals: open loops pre-draw every instant, closed loops start
        // one marker per user and chain the rest on completions.
        let mut seed_jobs = Vec::new();
        match self.config.arrival {
            Arrival::Open { rate_per_sec } => {
                // A workload curve shapes the arrival instants; `None`
                // takes the fixed-rate generator's exact path (same draws,
                // same rounding) and replays pre-curve output byte for
                // byte.
                let times = match &self.config.workload {
                    Some(curve) => curve_arrivals(curve, self.config.requests, &mut state.rng),
                    None => open_arrivals(rate_per_sec, self.config.requests, &mut state.rng),
                };
                let last_arrival = times.last().copied().unwrap_or(Nanos::ZERO);
                for at in times {
                    let request = state.new_request(at);
                    seed_jobs.push(Job::released_at(at, vec![]));
                    state.meta.push(JobKind::Arrival { request });
                }
                // The autoscaler's control loop: one tick per period up to
                // the last arrival (serving continues past it; extending
                // ticks further would stretch every arm's makespan).
                if let Some(auto) = &self.config.autoscaler {
                    let mut at = auto.tick;
                    while at <= last_arrival {
                        seed_jobs.push(Job::released_at(at, vec![]));
                        state.meta.push(JobKind::AutoscaleTick);
                        at += auto.tick;
                    }
                }
            }
            Arrival::Closed { users, .. } => {
                for i in 0..users.min(self.config.requests) {
                    let at = Nanos::from_micros(i as u64);
                    let request = state.new_request(at);
                    seed_jobs.push(Job::released_at(at, vec![]));
                    state.meta.push(JobKind::Arrival { request });
                }
            }
        }

        // Per-host fault schedules: each host's domain plan contributes its
        // own resets, warm crashes, and whole-host outage windows.
        for host in 0..state.hosts.len() {
            let Some(plan) = state.hosts[host].plan.clone() else {
                continue;
            };
            for window in plan.resets() {
                seed_jobs.push(Job::released_at(window.start, vec![]));
                state.meta.push(JobKind::PspResetStart { host });
                seed_jobs.push(Job::released_at(window.end, vec![]));
                state.meta.push(JobKind::PspResetEnd { host });
            }
            for idx in 0..plan.warm_crashes().len() {
                seed_jobs.push(Job::released_at(plan.warm_crashes()[idx], vec![]));
                state.meta.push(JobKind::WarmCrash { host, idx });
            }
            for window in plan.host_outages() {
                seed_jobs.push(Job::released_at(window.start, vec![]));
                state.meta.push(JobKind::HostDown {
                    host,
                    departure: false,
                });
                seed_jobs.push(Job::released_at(window.end, vec![]));
                state.meta.push(JobKind::HostUp {
                    host,
                    departure: false,
                });
            }
        }

        // Scheduled outages and membership events.
        for outage in &self.config.outages {
            seed_jobs.push(Job::released_at(outage.start, vec![]));
            state.meta.push(JobKind::HostDown {
                host: outage.host,
                departure: false,
            });
            seed_jobs.push(Job::released_at(outage.end, vec![]));
            state.meta.push(JobKind::HostUp {
                host: outage.host,
                departure: false,
            });
        }
        for event in &self.config.events {
            seed_jobs.push(Job::released_at(event.at, vec![]));
            state.meta.push(match event.kind {
                HostEventKind::Leave => JobKind::HostDown {
                    host: event.host,
                    departure: true,
                },
                HostEventKind::Join => JobKind::HostUp {
                    host: event.host,
                    departure: true,
                },
            });
        }

        // The re-attestation storm: the rollout walks the hosts on a
        // stagger, and the key-compromise drill lands as one marker.
        if let Some(rollout) = &self.config.tcb_rollout {
            for host in 0..self.config.hosts {
                let at = rollout.start + rollout.stagger.scale(host as u64);
                seed_jobs.push(Job::released_at(at, vec![]));
                state.meta.push(JobKind::TcbRollout { host });
            }
        }
        if let Some(drill) = &self.config.revocation {
            seed_jobs.push(Job::released_at(drill.at, vec![]));
            state.meta.push(JobKind::Revoke { host: drill.host });
        }

        // Network schedules: heartbeats, detector probes, lease ticks, and
        // verifier blackout edges — all precomputed from the link plan so
        // the message layer stays a pure function of the seed.
        let mut net_jobs: Vec<(Nanos, JobKind)> = Vec::new();
        if let Some(net) = &state.net {
            let cfg = net.plan.config();
            if let Some(det) = &net.detector {
                let beats = cfg.horizon.as_nanos() / cfg.heartbeat_every.as_nanos();
                for host in 0..self.config.hosts {
                    for k in 1..=beats {
                        let send = cfg.heartbeat_every.scale(k);
                        let link = LinkId::HostToRouter(host);
                        if net.plan.host_cut(host, send).is_some()
                            || net.plan.lost(link, HB_TOKEN_BASE + k)
                        {
                            continue;
                        }
                        let at = send + net.plan.delay(link, HB_TOKEN_BASE + k);
                        net_jobs.push((at, JobKind::Heartbeat { host }));
                    }
                    net_jobs.push((det.deadline(host), JobKind::SuspectCheck { host }));
                }
            }
            if let Some(lease) = cfg.lease {
                let renews = cfg.horizon.as_nanos() / lease.renew_every.as_nanos();
                for host in 0..self.config.hosts {
                    net_jobs.push((lease.duration, JobKind::LeaseExpire { host }));
                    for k in 1..=renews {
                        net_jobs.push((lease.renew_every.scale(k), JobKind::LeaseRenew { host }));
                    }
                }
            }
            for window in net.plan.verifier_windows() {
                net_jobs.push((window.start, JobKind::VerifierDown));
                net_jobs.push((window.end, JobKind::VerifierUp));
            }
        }
        for (at, kind) in net_jobs {
            seed_jobs.push(Job::released_at(at, vec![]));
            state.meta.push(kind);
        }

        let (_, trace) = engine.run_dynamic(seed_jobs, |outcome, inject| {
            state.on_event(outcome, inject);
        });

        // Feed the recorder the true contended intervals so Step spans land
        // where the resources actually ran them.
        if state.rec.on() {
            state.rec.resource_names(engine.resource_names());
            for entry in trace.entries() {
                state
                    .rec
                    .occupy(entry.resource, entry.job, entry.start, entry.end);
            }
        }
        let log = state.rec.build();

        // Close every still-open availability interval against the end of
        // the run, then sum: the provisioning-cost axis of the frontier.
        let makespan = trace.makespan();
        for host in 0..state.hosts.len() {
            if let Some(since) = state.live_since[host].take() {
                state.host_secs[host] += makespan.saturating_sub(since).as_secs_f64();
            }
        }
        let mut metrics = ClusterMetrics {
            issued: state.issued,
            makespan,
            serving_end: state.serving_end,
            host_seconds: state.host_secs.iter().sum(),
            ..ClusterMetrics::default()
        };
        for host in &mut state.hosts {
            match &host.wfq {
                Some(wfq) => {
                    host.metrics.shed = wfq.shed();
                    host.metrics.max_queue_depth = wfq.max_depth();
                }
                None => {
                    host.metrics.shed = host.queue.shed();
                    host.metrics.max_queue_depth = host.queue.max_depth();
                }
            }
            host.metrics.cache_hits = host.cache.hits();
            host.metrics.cache_misses = host.cache.misses();
            host.metrics.warm_hits = host.pool.hits();
            host.metrics.warm_misses = host.pool.misses();
            host.metrics.evicted = host.pool.evicted();
            host.metrics.psp_utilization = trace.utilization(host.psp, 1);
            host.metrics.cpu_utilization = trace.utilization(host.cpu, HOST_CORES);
            host.metrics.makespan = trace.makespan();
            if let Some(breakers) = &host.breakers {
                host.metrics.breaker_trips = breakers.iter().map(|b| b.trips()).sum();
            }
            let util = host.metrics.psp_utilization;
            metrics.absorb_host(host.id, &host.metrics, util);
        }
        metrics.shed += state.unroutable;
        metrics.unroutable = state.unroutable;
        metrics.timeouts += state.timeouts;
        metrics.failed += state.failed;
        metrics.rejected = state.rejected;
        metrics.breaker_sheds += state.breaker_sheds;
        metrics.retries += state.retries;
        metrics.failovers = state.failovers;
        metrics.rebalances = state.rebalances;
        if let Some(ps) = &state.policy {
            metrics.posture_checks = ps.posture_checks;
            metrics.posture_redirects = ps.posture_redirects;
            metrics.posture_violations = ps.posture_violations;
        }
        if let Some(net) = &state.net {
            metrics.suspicions = net.suspicions;
            metrics.suspicions_cleared = net.suspicions_cleared;
            metrics.false_suspicions = net.false_suspicions;
            metrics.lease_expiries = net.lease_expiries;
            metrics.net_lost = net.net_lost;
            metrics.net_timeouts = net.net_timeouts;
            metrics.net_nacks = net.net_nacks;
            metrics.stale_completions = net.stale_completions;
            metrics.double_completion_attempts = net.double_completion_attempts;
        }

        (
            ClusterReport {
                tier: self.config.tier,
                placement: self.config.placement,
                hosts: self.config.hosts,
                offered_rps: self.config.arrival.offered_rps(),
                metrics,
                attestation: state.plane.as_ref().map(|p| *p.metrics()),
                tenants: state.policy.as_ref().map(|ps| {
                    let pcfg = self.config.policy.as_ref().expect("state implies config");
                    pcfg.tenants
                        .iter()
                        .zip(&ps.tenants)
                        .map(|(t, m)| TenantRollup {
                            name: t.name,
                            metrics: m.clone(),
                        })
                        .collect()
                }),
                autoscale: state.scaler.as_ref().map(|sc| {
                    let counters = sc.auto.counters();
                    AutoscaleRollup {
                        policy: sc.auto.config().policy.name(),
                        ticks: counters.ticks,
                        scale_outs: counters.scale_outs,
                        scale_ins: counters.scale_ins,
                        prewarms: counters.prewarms,
                        min_live: sc.min_live,
                        max_live: sc.max_live,
                        events: sc.events.clone(),
                    }
                }),
                trace,
            },
            log,
        )
    }
}

impl<'a> State<'a> {
    /// Allocates a request id, sampling its tenant (policy runs only; from
    /// the dedicated tenant stream) and class (always exactly one draw from
    /// the main stream, so tagging never perturbs the shared streams).
    fn new_request(&mut self, arrival_hint: Nanos) -> usize {
        let request = self.req_class.len();
        let class = match self.policy.as_mut() {
            Some(ps) => {
                let pcfg = self.config.policy.as_ref().expect("state implies config");
                let tenant = pcfg.sample_tenant(&mut ps.tenant_rng);
                ps.req_tenant.push(tenant);
                ps.tenants[tenant].issued += 1;
                match &ps.mixes[tenant] {
                    Some(mix) => mix.sample(&mut self.rng),
                    None => self.mix.sample(&mut self.rng),
                }
            }
            None => self.mix.sample(&mut self.rng),
        };
        self.req_class.push(class);
        self.arrived.push(arrival_hint);
        self.attempts.push(0);
        self.done.push(false);
        self.epoch.push(0);
        self.issued += 1;
        request
    }

    /// Whether `request` has outlived its deadline at `now`.
    fn past_deadline(&self, request: usize, now: Nanos) -> bool {
        match self.config.recovery.deadline {
            Some(d) => now > self.arrived[request] + d,
            None => false,
        }
    }

    /// Whether `host` is holding PSP-needing dispatches across a firmware
    /// reset (resilient recovery quiesces; naive keeps dispatching).
    fn quiesce_hold(&self, host: usize, now: Nanos) -> bool {
        self.config.recovery.quiesce && self.hosts[host].in_psp_outage(now)
    }

    fn on_event(&mut self, outcome: &JobOutcome, inject: &mut Vec<Job>) {
        if !self.meta[outcome.job].is_net_timer() {
            self.serving_end = self.serving_end.max(outcome.finish);
        }
        match self.meta[outcome.job] {
            JobKind::Arrival { request } => {
                self.arrived[request] = outcome.finish;
                if let Some(sc) = self.scaler.as_mut() {
                    sc.arrivals_since += 1;
                }
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
                host,
                epoch,
                fate,
                fill,
                psp,
                psp_ns,
            } => self.on_launch_done(
                outcome, request, class, host, epoch, fate, fill, psp, psp_ns, inject,
            ),
            JobKind::Retry { request } => {
                self.route(request, outcome.finish, inject);
            }
            JobKind::Replenish {
                class,
                host,
                psp,
                psp_ns,
            } => {
                self.rec.background_end(outcome.job, outcome.finish);
                let poisoned_host = self.poisoned_host.remove(&outcome.job);
                let poisoned_reset = self.poisoned_reset.remove(&outcome.job);
                let poisoned_lease = self.poisoned_lease.remove(&outcome.job);
                let h = &mut self.hosts[host];
                if psp {
                    h.psp_inflight.remove(&outcome.job);
                }
                h.host_inflight.remove(&outcome.job);
                h.committed_psp = h.committed_psp.saturating_sub(psp_ns);
                if poisoned_host {
                    h.metrics.faults.record(FaultKind::HostOutage);
                    h.pool.refill_failed(class);
                    self.rec
                        .fault(FaultKind::HostOutage, None, Some(host), outcome.finish);
                } else if poisoned_reset {
                    h.metrics.faults.record(FaultKind::PspReset);
                    h.pool.refill_failed(class);
                    self.rec
                        .fault(FaultKind::PspReset, None, Some(host), outcome.finish);
                } else if poisoned_lease {
                    h.metrics.faults.record(FaultKind::NetPartition);
                    h.pool.refill_failed(class);
                    self.rec
                        .fault(FaultKind::NetPartition, None, Some(host), outcome.finish);
                } else {
                    h.pool.refill_done(class);
                }
                if self.warming[host] {
                    // Chain the next refill (kicks start one per class, so
                    // a warming spare converges one completion at a time;
                    // this also retries refills a fault poisoned), then
                    // promote once every class is at target.
                    self.start_refill(host, class, outcome.finish, inject);
                    self.maybe_promote(host, outcome.finish, inject);
                }
            }
            JobKind::PspResetStart { host } => {
                // The host's firmware reset: poison its in-flight PSP work
                // and kill its template cache (§6.2 under failure).
                self.rec
                    .marker(MarkerKind::OutageStart, None, Some(host), outcome.finish);
                let doomed: Vec<usize> = self.hosts[host].psp_inflight.iter().copied().collect();
                for job in doomed {
                    self.poisoned_reset.insert(job);
                }
                self.hosts[host].psp_inflight.clear();
                self.hosts[host].cache.invalidate_all();
            }
            JobKind::PspResetEnd { host } => {
                self.rec
                    .marker(MarkerKind::OutageEnd, None, Some(host), outcome.finish);
                self.drain_queue(host, outcome.finish, inject);
            }
            JobKind::WarmCrash { host, idx } => {
                let classes = self.catalog.len();
                let class =
                    ((idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % classes;
                if self.hosts[host].pool.crash(class) {
                    self.hosts[host].metrics.faults.record(FaultKind::WarmCrash);
                    self.rec
                        .fault(FaultKind::WarmCrash, None, Some(host), outcome.finish);
                    self.start_refill(host, class, outcome.finish, inject);
                }
            }
            JobKind::HostDown { host, departure } => {
                self.on_host_down(host, departure, outcome.finish, inject);
            }
            JobKind::HostUp { host, departure } => {
                self.on_host_up(host, departure, outcome.finish, inject);
            }
            JobKind::TcbRollout { host } => {
                // New firmware: the host's TCB version bumps (every cached
                // cert/report under the old version stops matching) and its
                // templates re-measure on next use.
                self.rec
                    .marker(MarkerKind::TcbRollout, None, Some(host), outcome.finish);
                if let Some(plane) = self.plane.as_mut() {
                    plane.bump_tcb(host).expect("plane sized to cluster hosts");
                }
                self.hosts[host].cache.invalidate_all();
            }
            JobKind::Revoke { host } => {
                // Key compromise: distrust the chip at the root, then treat
                // the host like a permanent outage — its templates die with
                // the key (§6.2), its in-flight and queued work fails over,
                // and every re-launched guest re-attests on a survivor.
                self.rec
                    .marker(MarkerKind::Revocation, None, Some(host), outcome.finish);
                if let Some(plane) = self.plane.as_mut() {
                    plane
                        .revoke_host(host)
                        .expect("plane sized to cluster hosts");
                }
                self.on_host_down(host, false, outcome.finish, inject);
            }
            JobKind::NetDispatch {
                request,
                epoch,
                host,
            } => self.on_net_dispatch(request, epoch, host, outcome.finish, inject),
            JobKind::NetDispatchLost {
                request,
                epoch,
                host,
            } => self.on_net_dispatch_lost(request, epoch, host, outcome.finish, inject),
            JobKind::NetCompletion {
                request,
                epoch,
                host,
                ok,
            } => self.on_net_completion(request, epoch, host, ok, outcome.finish, inject),
            JobKind::NetNack {
                request,
                epoch,
                host,
            } => self.on_net_nack(request, epoch, host, outcome.finish, inject),
            JobKind::Heartbeat { host } => self.on_heartbeat(host, outcome.finish, inject),
            JobKind::SuspectCheck { host } => self.on_suspect_check(host, outcome.finish, inject),
            JobKind::LeaseRenew { host } => self.on_lease_renew(host, outcome.finish, inject),
            JobKind::LeaseGrant { host } => self.on_lease_grant(host, outcome.finish, inject),
            JobKind::LeaseExpire { host } => self.on_lease_expire(host, outcome.finish, inject),
            JobKind::FailoverSweep { host } => self.on_failover_sweep(host, outcome.finish, inject),
            JobKind::VerifierDown => {
                // Attestation blackout: the plane degrades by its
                // configured fail mode until the link heals.
                self.rec
                    .marker(MarkerKind::OutageStart, None, None, outcome.finish);
                if let Some(plane) = self.plane.as_mut() {
                    plane.set_reachable(false);
                }
            }
            JobKind::VerifierUp => {
                self.rec
                    .marker(MarkerKind::OutageEnd, None, None, outcome.finish);
                if let Some(plane) = self.plane.as_mut() {
                    plane.set_reachable(true);
                }
            }
            JobKind::AutoscaleTick => self.on_autoscale_tick(outcome.finish, inject),
        }
    }

    /// A launch finished: settle poisoning, then success or failure. With
    /// the network active, the host settles its local state here and the
    /// router-side settle (latency, terminal, recovery) waits for the
    /// outcome message to cross the host→router link.
    #[allow(clippy::too_many_arguments)]
    fn on_launch_done(
        &mut self,
        outcome: &JobOutcome,
        request: usize,
        class: usize,
        host: usize,
        epoch: u32,
        fate: LaunchFate,
        fill: Option<TemplateKey>,
        psp: bool,
        psp_ns: Nanos,
        inject: &mut Vec<Job>,
    ) {
        self.rec.attempt_end(outcome.job, outcome.finish);
        let poisoned_host = self.poisoned_host.remove(&outcome.job);
        let poisoned_reset = self.poisoned_reset.remove(&outcome.job);
        let poisoned_lease = self.poisoned_lease.remove(&outcome.job);
        {
            let h = &mut self.hosts[host];
            if psp {
                h.psp_inflight.remove(&outcome.job);
            }
            h.host_inflight.remove(&outcome.job);
            h.committed_psp = h.committed_psp.saturating_sub(psp_ns);
            h.inflight = h.inflight.saturating_sub(1);
        }
        let fate = if poisoned_host {
            // The host died under this launch; the request fails over to a
            // surviving host through the retry path.
            self.failovers += 1;
            self.rec.marker(
                MarkerKind::Failover,
                Some(request),
                Some(host),
                outcome.finish,
            );
            LaunchFate::Fault(FaultKind::HostOutage)
        } else if poisoned_reset {
            LaunchFate::Fault(FaultKind::PspReset)
        } else if poisoned_lease {
            LaunchFate::Fault(FaultKind::NetPartition)
        } else {
            fate
        };
        let net_active = self.net.is_some();
        match fate {
            LaunchFate::Ok => {
                if !net_active {
                    self.mark_done(request, ReqOutcome::Completed, outcome.finish);
                    self.hosts[host]
                        .metrics
                        .record_latency(outcome.finish - self.arrived[request]);
                    self.rec
                        .terminal(request, ReqOutcome::Completed, outcome.finish);
                    if let Some(breakers) = &mut self.hosts[host].breakers {
                        breakers[class].on_success(outcome.finish);
                    }
                    self.drain_queue(host, outcome.finish, inject);
                    self.issue_next_closed(outcome.finish, inject);
                } else {
                    if let Some(breakers) = &mut self.hosts[host].breakers {
                        breakers[class].on_success(outcome.finish);
                    }
                    self.drain_queue(host, outcome.finish, inject);
                    self.send_host_msg(
                        host,
                        outcome.finish,
                        JobKind::NetCompletion {
                            request,
                            epoch,
                            host,
                            ok: true,
                        },
                        inject,
                    );
                }
            }
            LaunchFate::Fault(kind) => {
                self.hosts[host].metrics.faults.record(kind);
                self.rec
                    .fault(kind, Some(request), Some(host), outcome.finish);
                if let Some(key) = fill {
                    // The fill died before finalizing its template.
                    self.hosts[host].cache.invalidate(&key);
                }
                if let Some(breakers) = &mut self.hosts[host].breakers {
                    if breakers[class].on_failure(outcome.finish) {
                        self.hosts[host].metrics.breaker_trips += 1;
                        self.rec.marker(
                            MarkerKind::BreakerTrip,
                            Some(request),
                            Some(host),
                            outcome.finish,
                        );
                    }
                }
                if !net_active || poisoned_host {
                    // The router already knows: the network is inert, or
                    // the host machine itself died (host_left is global).
                    self.handle_failure(request, outcome.finish, inject);
                    self.drain_queue(host, outcome.finish, inject);
                } else {
                    self.drain_queue(host, outcome.finish, inject);
                    // A lease-fenced settle is a refusal — the parked host
                    // may no longer complete this epoch's work — while an
                    // ordinary fault reports back as a failed completion.
                    let kind = if poisoned_lease {
                        JobKind::NetNack {
                            request,
                            epoch,
                            host,
                        }
                    } else {
                        JobKind::NetCompletion {
                            request,
                            epoch,
                            host,
                            ok: false,
                        }
                    };
                    self.send_host_msg(host, outcome.finish, kind, inject);
                }
            }
        }
    }

    /// A host drops out. An outage poisons its in-flight work and destroys
    /// its warm pool and template cache; a graceful departure lets in-flight
    /// work finish. Either way its queued requests fail over through the
    /// router, and the warm budget re-spreads over the survivors.
    /// One autoscaler control tick: build the Observation, run the pure
    /// decision engine, apply the result through the existing graceful
    /// membership paths. One obs marker per emitted decision — never per
    /// host — so marker counts equal the engine's counters exactly.
    fn on_autoscale_tick(&mut self, now: Nanos, inject: &mut Vec<Job>) {
        let live: Vec<usize> = self
            .hosts
            .iter()
            .filter(|h| h.available())
            .map(|h| h.id)
            .collect();
        // Launch dispatches only: background warm-pool refills also sit in
        // host_inflight, and counting them would read a freshly re-warmed
        // cluster as overloaded.
        let backlog: usize = live.iter().map(|&h| self.hosts[h].inflight).sum();
        let queued: usize = live.iter().map(|&h| self.queue_len(h)).sum();
        let Some(sc) = self.scaler.as_mut() else {
            return;
        };
        // Provisioned = routable + warming: spares mid-warm-up are capacity
        // already paid for, so the scaler must not order them again.
        let warming_count = self.warming.iter().filter(|w| **w).count();
        let obs = Observation {
            now,
            live_hosts: live.len() + warming_count,
            arrivals: std::mem::take(&mut sc.arrivals_since),
            backlog,
            queued,
        };
        let decision = sc.auto.tick(&obs);
        let min_hosts = sc.auto.config().min_hosts;
        let warm_budget = sc.auto.config().warm_budget;

        // Pre-warm first: targets move before membership does, so a ramp's
        // refills are already in flight when the new hosts take traffic.
        if let Some(per_host) = decision.prewarm {
            self.rec.marker(MarkerKind::PreWarm, None, None, now);
            if self.config.tier == ServingTier::WarmPool {
                // Raise-only: a prescription sized for the post-change
                // fleet must not evict a serving host's slots while the
                // ramp is still on it — shrinking waits for the rebalance
                // that runs when membership actually changes.
                for &h in &live {
                    let target = self.hosts[h].pool.target_per_class().max(per_host);
                    self.hosts[h].pool.set_target(target);
                }
                for &h in &live {
                    self.kick_refills(h, now, inject);
                }
            }
            let event = ScaleEvent::PreWarm {
                at: now,
                per_host,
                budget: warm_budget,
                live: live.len(),
                warm_sum: self.warm_target_sum(),
            };
            self.scaler
                .as_mut()
                .expect("checked above")
                .events
                .push(event);
        }

        match decision.action {
            ScaleAction::ScaleOut { add } => {
                self.rec.marker(MarkerKind::ScaleOut, None, None, now);
                // Lowest-id cold spares join first: deterministic order,
                // and a spare felled by a scheduled outage stays out.
                let spares: Vec<usize> = self
                    .hosts
                    .iter()
                    .filter(|h| h.departed && !h.out)
                    .map(|h| h.id)
                    .filter(|&h| !self.warming[h])
                    .take(add)
                    .collect();
                // Warm-before-serve: on the warm-pool tier a spare bills
                // host-seconds and fills its pool first, joining the
                // routable set only once warm (promotion happens in the
                // Replenish handler). JSQ would otherwise dogpile its
                // empty PSP with cold SEV launches — the exact tail the
                // scale-out is trying to avoid. Other tiers have nothing
                // to pre-warm and join directly.
                let target = decision
                    .prewarm
                    .unwrap_or_else(|| warm_budget.div_ceil((live.len() + spares.len()).max(1)));
                for &h in &spares {
                    if self.config.tier == ServingTier::WarmPool {
                        self.begin_warming(h, target, now, inject);
                    } else {
                        self.on_host_up(h, true, now, inject);
                    }
                }
                let event = ScaleEvent::Out {
                    at: now,
                    added: spares.len(),
                    live: self.live_count(),
                    warm_sum: self.warm_target_sum(),
                };
                self.record_scale(event, now);
            }
            ScaleAction::ScaleIn { remove } => {
                self.rec.marker(MarkerKind::ScaleIn, None, None, now);
                // Highest-id idle victims drain first; a host with
                // in-flight launches or an undrained queue never drains
                // (the invariant battery replays this from the audit log).
                let allowed = (live.len() + warming_count).saturating_sub(min_hosts);
                // In-flight *launches* block a drain; background refills do
                // not (a graceful leave lets them finish harmlessly).
                let victims: Vec<usize> = self
                    .hosts
                    .iter()
                    .rev()
                    .filter(|h| h.available() && h.inflight == 0)
                    .map(|h| h.id)
                    .filter(|&h| self.queue_len(h) == 0)
                    .take(remove.min(allowed))
                    .collect();
                let victims_inflight: usize = victims.iter().map(|&h| self.hosts[h].inflight).sum();
                let victims_queued: usize = victims.iter().map(|&h| self.queue_len(h)).sum();
                for &h in &victims {
                    self.on_host_down(h, true, now, inject);
                }
                let event = ScaleEvent::In {
                    at: now,
                    removed: victims.len(),
                    live: self.live_count(),
                    victims_inflight,
                    victims_queued,
                    warm_sum: self.warm_target_sum(),
                };
                self.record_scale(event, now);
            }
            ScaleAction::Hold => {
                let live_now = self.live_count();
                let sc = self.scaler.as_mut().expect("checked above");
                sc.min_live = sc.min_live.min(live_now);
                sc.max_live = sc.max_live.max(live_now);
            }
        }
    }

    /// Appends an audit-log event and folds the post-change live count
    /// into the observed extrema.
    fn record_scale(&mut self, event: ScaleEvent, _now: Nanos) {
        let live_now = self.live_count();
        let sc = self.scaler.as_mut().expect("scale events imply a scaler");
        sc.events.push(event);
        sc.min_live = sc.min_live.min(live_now);
        sc.max_live = sc.max_live.max(live_now);
    }

    /// Provisioned hosts: routable plus warming spares. This is the count
    /// the autoscaler's bounds, audit events, and host-seconds bill all
    /// speak in — a warming spare is capacity being paid for.
    fn live_count(&self) -> usize {
        self.hosts.iter().filter(|h| h.available()).count()
            + self.warming.iter().filter(|w| **w).count()
    }

    /// Starts warming a cold spare the scaler ordered up: its host-seconds
    /// clock starts and its pool fills toward `target`, but it stays out of
    /// the routable set until [`State::maybe_promote`] sees it warm.
    fn begin_warming(&mut self, host: usize, target: usize, now: Nanos, inject: &mut Vec<Job>) {
        self.warming[host] = true;
        if self.live_since[host].is_none() {
            self.live_since[host] = Some(now);
        }
        self.hosts[host].pool.set_target(target);
        self.kick_refills(host, now, inject);
    }

    /// Promotes a warming spare into the routable set once every class has
    /// a couple of ready slots — enough to serve its first burst warm while
    /// the remaining refills converge in the background. Waiting for the
    /// full target would idle a nearly-warm host through the very ramp it
    /// was ordered up for.
    fn maybe_promote(&mut self, host: usize, now: Nanos, inject: &mut Vec<Job>) {
        let pool = &self.hosts[host].pool;
        let floor = pool.target_per_class().min(2);
        let warm = (0..self.catalog.len()).all(|c| pool.ready(c) >= floor);
        if !warm {
            return;
        }
        self.warming[host] = false;
        self.on_host_up(host, true, now, inject);
    }

    /// Requests waiting in `host`'s dispatch queue (whichever queue runs).
    fn queue_len(&self, host: usize) -> usize {
        match &self.hosts[host].wfq {
            Some(wfq) => wfq.len(),
            None => self.hosts[host].queue.len(),
        }
    }

    /// Sum of per-host warm targets across available hosts — the quantity
    /// the warm-budget conservation invariant bounds.
    fn warm_target_sum(&self) -> usize {
        self.hosts
            .iter()
            .filter(|h| h.available() || self.warming[h.id])
            .map(|h| h.pool.target_per_class())
            .sum()
    }

    /// Settles availability accounting after `host`'s flags changed:
    /// opens or closes its host-seconds interval. Pure bookkeeping — no
    /// RNG, no metrics the serving path reads.
    fn note_liveness(&mut self, host: usize, was_available: bool, now: Nanos) {
        let is = self.hosts[host].available();
        if was_available == is {
            return;
        }
        if is {
            // A warming spare already opened its interval (it bills from
            // warm-up start, not from promotion) — keep the earlier start.
            if self.live_since[host].is_none() {
                self.live_since[host] = Some(now);
            }
        } else if let Some(since) = self.live_since[host].take() {
            self.host_secs[host] += now.saturating_sub(since).as_secs_f64();
        }
    }

    fn on_host_down(&mut self, host: usize, departure: bool, now: Nanos, inject: &mut Vec<Job>) {
        let was_available = self.hosts[host].available();
        if departure {
            self.hosts[host].departed = true;
        } else {
            self.hosts[host].out = true;
            self.rec
                .marker(MarkerKind::OutageStart, None, Some(host), now);
        }
        self.note_liveness(host, was_available, now);
        self.router.host_left(host);
        if !departure {
            let doomed: Vec<usize> = self.hosts[host].host_inflight.iter().copied().collect();
            for job in doomed {
                self.poisoned_host.insert(job);
            }
            self.hosts[host].host_inflight.clear();
            self.hosts[host].psp_inflight.clear();
            for class in 0..self.catalog.len() {
                while self.hosts[host].pool.crash(class) {}
            }
            self.hosts[host].cache.invalidate_all();
        }
        // Fail over the queue: every waiter re-enters the router and lands
        // on a surviving host (or sheds there).
        for next in self.purge_backlog(host) {
            self.hosts[host].committed_psp = self.hosts[host]
                .committed_psp
                .saturating_sub(next.expected_psp);
            self.failovers += 1;
            self.rec
                .marker(MarkerKind::Failover, Some(next.request), Some(host), now);
            self.route(next.request, now, inject);
        }
        if self.config.rebalance {
            self.rebalance_pools(true, now, inject);
        }
    }

    /// A host comes back (outage over) or rejoins (after a departure). An
    /// outage survivor returns with a cold cache and an empty pool — its
    /// classes re-measure on next use.
    fn on_host_up(&mut self, host: usize, departure: bool, now: Nanos, inject: &mut Vec<Job>) {
        let was_available = self.hosts[host].available();
        if departure {
            self.hosts[host].departed = false;
        } else {
            self.hosts[host].out = false;
            self.rec
                .marker(MarkerKind::OutageEnd, None, Some(host), now);
        }
        self.note_liveness(host, was_available, now);
        if !self.hosts[host].available() {
            // A warming spare recovering from an outage resumes its
            // refills; it still only joins through promotion.
            if self.warming[host] {
                self.kick_refills(host, now, inject);
            }
            return;
        }
        self.router.host_joined(host);
        if self.config.rebalance {
            self.rebalance_pools(false, now, inject);
        } else {
            self.kick_refills(host, now, inject);
        }
        self.drain_queue(host, now, inject);
    }

    /// Re-spreads the cluster-wide warm budget (`warm_target * hosts` per
    /// class) over the live hosts. SEV guests cannot migrate off their PSP,
    /// so shrunk targets evict and grown targets re-provision via template
    /// launches on the new owners.
    ///
    /// Under an autoscaler a join-triggered re-spread (`shrink == false`)
    /// is raise-only: evicting a serving host's deep pool the moment a
    /// spare promotes would throw away exactly the warm capacity the ramp
    /// is about to need. The transient overshoot (bounded by one extra
    /// budget) is recovered at the next shrinking change — scale-in, leave,
    /// or failure — which re-spreads exactly.
    fn rebalance_pools(&mut self, shrink: bool, now: Nanos, inject: &mut Vec<Job>) {
        if self.config.tier != ServingTier::WarmPool {
            return;
        }
        // With an autoscaler the budget is its own knob (the fleet can
        // grow past `hosts`, so `warm_target * hosts` no longer covers it).
        let budget = match &self.scaler {
            Some(sc) => sc.auto.config().warm_budget,
            None => self.config.warm_target * self.config.hosts,
        };
        // Warming spares hold a budget slice too — zeroing their targets
        // mid-warm-up would strand them un-promotable.
        let keeps = |s: &Self, host: usize| s.hosts[host].available() || s.warming[host];
        let live = (0..self.hosts.len()).filter(|&h| keeps(self, h)).count();
        let per_host = if live == 0 { 0 } else { budget.div_ceil(live) };
        let raise_only = !shrink && self.scaler.is_some();
        for host in 0..self.hosts.len() {
            let target = if !keeps(self, host) {
                0
            } else if raise_only {
                self.hosts[host].pool.target_per_class().max(per_host)
            } else {
                per_host
            };
            self.hosts[host].pool.set_target(target);
        }
        self.rebalances += 1;
        self.rec.marker(MarkerKind::Rebalance, None, None, now);
        for host in 0..self.hosts.len() {
            if keeps(self, host) {
                self.kick_refills(host, now, inject);
            }
        }
        // A shrunk target can leave a warming spare already at target with
        // no refill left to complete — promote it here, not never.
        for host in 0..self.hosts.len() {
            if self.warming[host] {
                self.maybe_promote(host, now, inject);
            }
        }
    }

    /// Starts refills for every class below target on `host`.
    fn kick_refills(&mut self, host: usize, now: Nanos, inject: &mut Vec<Job>) {
        for class in 0..self.catalog.len() {
            self.start_refill(host, class, now, inject);
        }
    }

    /// Routes a request (fresh arrival, retry, or failover): deadline
    /// first, then placement over the live hosts, then the host's ladder,
    /// warm pool, and admission control.
    fn route(&mut self, request: usize, now: Nanos, inject: &mut Vec<Job>) {
        let class = self.req_class[request];
        if self.past_deadline(request, now) {
            self.mark_done(request, ReqOutcome::Timeout, now);
            self.timeouts += 1;
            self.rec.terminal(request, ReqOutcome::Timeout, now);
            self.issue_next_closed(now, inject);
            return;
        }
        // The policy choke point: every routed dispatch (arrival, retry,
        // failover) is one admission decision. Rejects never reach a host.
        if let Some(PolicyDecision::Reject { .. }) = self.policy_evaluate(request, now) {
            self.mark_done(request, ReqOutcome::Rejected, now);
            self.rejected += 1;
            self.rec.terminal(request, ReqOutcome::Rejected, now);
            self.issue_next_closed(now, inject);
            return;
        }
        let suspected = self.net.as_ref().map(|n| n.suspected.as_slice());
        let live: Vec<usize> = self
            .hosts
            .iter()
            .filter(|h| h.available())
            .map(|h| h.id)
            .filter(|&h| suspected.is_none_or(|s| !s[h]))
            .collect();
        // Posture filter: shrink the candidate set to hosts the tenant's
        // min-TCB / revocation requirements accept, *before* the router
        // runs. An empty result with live hosts present is a policy
        // reject, not an unroutable shed.
        let had_live = !live.is_empty();
        let live: Vec<usize> = live
            .into_iter()
            .filter(|&h| self.posture_ok(request, h))
            .collect();
        if live.is_empty() && had_live && self.posture_enforced() {
            self.rec
                .marker(MarkerKind::PolicyReject, Some(request), None, now);
            self.mark_done(request, ReqOutcome::Rejected, now);
            self.rejected += 1;
            self.rec.terminal(request, ReqOutcome::Rejected, now);
            self.issue_next_closed(now, inject);
            return;
        }
        let key = self.catalog.class(class).key;
        let hosts = &self.hosts;
        let placed = self.router.place(
            &key,
            &live,
            |h| hosts[h].committed_psp,
            |h| hosts[h].pool.ready(class) > 0,
        );
        let Some(host) = placed else {
            // Nowhere to run: shed fast (clients of a fully-dark cluster
            // get an immediate error, not an unbounded queue).
            self.mark_done(request, ReqOutcome::Shed, now);
            self.unroutable += 1;
            self.rec.terminal(request, ReqOutcome::Shed, now);
            self.issue_next_closed(now, inject);
            return;
        };
        self.rec.marker(
            MarkerKind::Placement { host },
            Some(request),
            Some(host),
            now,
        );
        if self.net.is_some() {
            self.send_dispatch(request, host, now, inject);
            return;
        }
        self.assign(request, class, host, now, inject);
    }

    /// Net mode: a routed request leaves the router as a message. Any
    /// earlier attempt's outstanding entry is cleared (queue failovers
    /// re-route without an outcome message), the request's epoch is
    /// bumped so stale messages fence, and the link draws decide whether
    /// and when the dispatch lands.
    fn send_dispatch(&mut self, request: usize, host: usize, now: Nanos, inject: &mut Vec<Job>) {
        self.epoch[request] += 1;
        let epoch = self.epoch[request];
        let net = self.net.as_mut().expect("net mode");
        for set in &mut net.outstanding {
            set.remove(&request);
        }
        net.outstanding[host].insert(request);
        let token = net.seq;
        net.seq += 1;
        let link = LinkId::RouterToHost(host);
        let lost = net.plan.host_cut(host, now).is_some() || net.plan.lost(link, token);
        let kind;
        let at;
        if lost {
            net.net_lost += 1;
            at = now + net.plan.config().dispatch_timeout;
            kind = JobKind::NetDispatchLost {
                request,
                epoch,
                host,
            };
        } else {
            at = now + net.plan.delay(link, token);
            kind = JobKind::NetDispatch {
                request,
                epoch,
                host,
            };
        }
        inject.push(Job::released_at(at, vec![]));
        self.meta.push(kind);
    }

    /// Host→router messages (outcomes, refusals) ride a reliable
    /// transport: a partition buffers them until the heal instead of
    /// dropping them.
    fn send_host_msg(&mut self, host: usize, now: Nanos, kind: JobKind, inject: &mut Vec<Job>) {
        let net = self.net.as_mut().expect("net mode");
        let token = net.seq;
        net.seq += 1;
        let depart = net.plan.host_cut(host, now).unwrap_or(now);
        let at = depart + net.plan.delay(LinkId::HostToRouter(host), token);
        inject.push(Job::released_at(at, vec![]));
        self.meta.push(kind);
    }

    /// Empties `host`'s backlog (WFQ lanes in pop order, or the FIFO
    /// queue) for failover or lease purge.
    fn purge_backlog(&mut self, host: usize) -> Vec<Pending> {
        match &mut self.hosts[host].wfq {
            Some(wfq) => wfq.drain().into_iter().map(|(_, p)| p).collect(),
            None => {
                let mut out = Vec::new();
                while let Some(next) = self.hosts[host].queue.pick(SchedPolicy::Fifo, |_| false) {
                    out.push(next);
                }
                out
            }
        }
    }

    /// Whether `host` is lease-fenced at `now`: leases are on and the
    /// host is parked or past its expiry.
    fn lease_blocked(&self, host: usize, now: Nanos) -> bool {
        self.net.as_ref().is_some_and(|n| n.ledger.is_some())
            && (self.hosts[host].parked || now >= self.hosts[host].lease_until)
    }

    /// Marks `request` terminal with its outcome. Every terminal site calls
    /// this exactly once — the conservation invariant in executable form —
    /// and the outcome is attributed to the request's tenant when a policy
    /// is active, so conservation also holds per tenant.
    fn mark_done(&mut self, request: usize, outcome: ReqOutcome, now: Nanos) {
        debug_assert!(
            !self.done[request],
            "request {request} reached two terminal states"
        );
        self.done[request] = true;
        let latency = now - self.arrived[request];
        let Some(ps) = self.policy.as_mut() else {
            return;
        };
        let m = &mut ps.tenants[ps.req_tenant[request]];
        match outcome {
            ReqOutcome::Completed => m.complete(latency),
            ReqOutcome::Shed => m.shed += 1,
            ReqOutcome::BreakerShed => m.breaker_sheds += 1,
            ReqOutcome::Timeout => m.timeouts += 1,
            ReqOutcome::Failed => m.failed += 1,
            ReqOutcome::Rejected => m.rejected += 1,
        }
    }

    /// Evaluates the policy engine for `request` at the router — the
    /// single choke point — recording the decision as a trace marker.
    /// `None` when no policy is configured.
    fn policy_evaluate(&mut self, request: usize, now: Nanos) -> Option<PolicyDecision> {
        let ps = self.policy.as_mut()?;
        let tenant = ps.req_tenant[request];
        let decision = ps.engine.evaluate(tenant, now);
        let kind = match decision {
            PolicyDecision::Admit { .. } => MarkerKind::PolicyAdmit,
            PolicyDecision::Degrade { .. } => {
                ps.tenants[tenant].degraded += 1;
                MarkerKind::PolicyDegrade
            }
            PolicyDecision::Reject { .. } => MarkerKind::PolicyReject,
        };
        self.rec.marker(kind, Some(request), None, now);
        Some(decision)
    }

    /// Whether posture placement filtering is on (policy with `posture`
    /// enforcement; validation guarantees an attestation plane exists).
    fn posture_enforced(&self) -> bool {
        self.config.policy.as_ref().is_some_and(|p| p.posture)
    }

    /// What the attestation plane currently knows about `host`.
    fn host_posture(&self, host: usize) -> HostPosture {
        match self.plane.as_ref() {
            Some(plane) => HostPosture {
                tcb_version: plane
                    .tcb_version(host)
                    .expect("plane sized to cluster hosts"),
                revoked: plane
                    .is_revoked(host)
                    .expect("plane sized to cluster hosts"),
            },
            None => HostPosture {
                tcb_version: u32::MAX,
                revoked: false,
            },
        }
    }

    /// Posture check for one (request, host) pair: placement filter and
    /// dispatch-time re-check both land here.
    fn posture_ok(&mut self, request: usize, host: usize) -> bool {
        if !self.posture_enforced() {
            return true;
        }
        let posture = self.host_posture(host);
        let Some(ps) = self.policy.as_mut() else {
            return true;
        };
        ps.posture_checks += 1;
        ps.engine.host_eligible(ps.req_tenant[request], posture)
    }

    /// A dispatch message lands on `host`.
    fn on_net_dispatch(
        &mut self,
        request: usize,
        epoch: u32,
        host: usize,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        if self.done[request] || self.epoch[request] != epoch {
            return;
        }
        if !self.hosts[host].available() || self.lease_blocked(host, now) {
            let kind = JobKind::NetNack {
                request,
                epoch,
                host,
            };
            self.send_host_msg(host, now, kind, inject);
            return;
        }
        let class = self.req_class[request];
        self.assign(request, class, host, now, inject);
    }

    /// The router's dispatch timeout fires for a lost message.
    fn on_net_dispatch_lost(
        &mut self,
        request: usize,
        epoch: u32,
        host: usize,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        if self.done[request] || self.epoch[request] != epoch {
            return;
        }
        if let Some(net) = self.net.as_mut() {
            net.outstanding[host].remove(&request);
            net.net_timeouts += 1;
        }
        self.handle_failure(request, now, inject);
    }

    /// A refusal arrives back at the router.
    fn on_net_nack(
        &mut self,
        request: usize,
        epoch: u32,
        host: usize,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        if self.done[request] || self.epoch[request] != epoch {
            return;
        }
        let removed = self
            .net
            .as_mut()
            .is_some_and(|n| n.outstanding[host].remove(&request));
        if removed {
            if let Some(net) = self.net.as_mut() {
                net.net_nacks += 1;
            }
            self.handle_failure(request, now, inject);
        }
    }

    /// An attempt outcome arrives back at the router. Epoch fencing is
    /// what keeps conservation exact through split-brain: an outcome for
    /// a request the router already failed over (or finished) is counted
    /// as a suppressed duplicate, never as a second terminal state.
    fn on_net_completion(
        &mut self,
        request: usize,
        epoch: u32,
        host: usize,
        ok: bool,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        if let Some(net) = self.net.as_mut() {
            net.outstanding[host].remove(&request);
        }
        if self.epoch[request] != epoch {
            if let Some(net) = self.net.as_mut() {
                net.stale_completions += 1;
            }
            return;
        }
        if self.done[request] {
            if ok {
                if let Some(net) = self.net.as_mut() {
                    net.double_completion_attempts += 1;
                }
            }
            return;
        }
        if ok {
            self.mark_done(request, ReqOutcome::Completed, now);
            self.hosts[host]
                .metrics
                .record_latency(now - self.arrived[request]);
            self.rec.terminal(request, ReqOutcome::Completed, now);
            self.issue_next_closed(now, inject);
        } else {
            self.handle_failure(request, now, inject);
        }
    }

    /// A heartbeat survived the links: feed the detector, clear any
    /// suspicion, and probe again at the new silence deadline.
    fn on_heartbeat(&mut self, host: usize, now: Nanos, inject: &mut Vec<Job>) {
        if !self.hosts[host].available() {
            return;
        }
        let (deadline, cleared) = {
            let Some(net) = self.net.as_mut() else {
                return;
            };
            let Some(det) = net.detector.as_mut() else {
                return;
            };
            det.heartbeat(host, now);
            let deadline = det.deadline(host);
            let cleared = net.suspected[host];
            if cleared {
                net.suspected[host] = false;
                net.suspicions_cleared += 1;
            }
            (deadline, cleared)
        };
        if cleared {
            self.rec
                .marker(MarkerKind::SuspicionCleared, None, Some(host), now);
        }
        inject.push(Job::released_at(deadline, vec![]));
        self.meta.push(JobKind::SuspectCheck { host });
    }

    /// The silence deadline passed without a fresh heartbeat: suspect the
    /// host and schedule the failover sweep for the instant every lease it
    /// could hold has provably lapsed.
    fn on_suspect_check(&mut self, host: usize, now: Nanos, inject: &mut Vec<Job>) {
        if !self.hosts[host].available() {
            return;
        }
        let sweep_at = {
            let Some(net) = self.net.as_mut() else {
                return;
            };
            if now >= net.plan.config().horizon {
                // The heartbeat schedule ends at the horizon; silence past
                // it is the schedule running out, not a failure.
                return;
            }
            if net.suspected[host] {
                return;
            }
            let Some(det) = net.detector.as_ref() else {
                return;
            };
            if !det.suspected(host, now) {
                return;
            }
            net.suspected[host] = true;
            net.suspicions += 1;
            let safe = net.ledger.as_ref().map_or(now, |l| l.safe_at(host));
            safe.max(now) + Nanos::from_nanos(1)
        };
        self.rec
            .marker(MarkerKind::Suspected, None, Some(host), now);
        inject.push(Job::released_at(sweep_at, vec![]));
        self.meta.push(JobKind::FailoverSweep { host });
    }

    /// The sweep fires: if the suspicion still stands (and the lease
    /// bound has truly passed), every outstanding request on the host
    /// fails over through fresh placement.
    fn on_failover_sweep(&mut self, host: usize, now: Nanos, inject: &mut Vec<Job>) {
        let doomed: Vec<usize> = {
            let Some(net) = self.net.as_mut() else {
                return;
            };
            if !net.suspected[host] {
                // The host heartbeated before the sweep: a false
                // suspicion that moved no work.
                net.false_suspicions += 1;
                return;
            }
            if net.ledger.as_ref().is_some_and(|l| l.safe_at(host) >= now) {
                // A renewal between suspicion episodes pushed the lease
                // bound past this sweep; the re-suspicion scheduled its
                // own sweep at the new bound.
                return;
            }
            std::mem::take(&mut net.outstanding[host])
                .into_iter()
                .collect()
        };
        for request in doomed {
            if self.done[request] {
                continue;
            }
            self.failovers += 1;
            self.rec
                .marker(MarkerKind::Failover, Some(request), Some(host), now);
            self.route(request, now, inject);
        }
    }

    /// The router's renewal tick: ledger the grant (safety bounds cover
    /// delivery), then race it across the link.
    fn on_lease_renew(&mut self, host: usize, now: Nanos, inject: &mut Vec<Job>) {
        if !self.hosts[host].available() {
            return;
        }
        let delivery = {
            let Some(net) = self.net.as_mut() else {
                return;
            };
            if net.suspected[host] {
                return;
            }
            let Some(ledger) = net.ledger.as_mut() else {
                return;
            };
            ledger.on_grant(host, now);
            let token = net.seq;
            net.seq += 1;
            let link = LinkId::RouterToHost(host);
            if net.plan.host_cut(host, now).is_some() || net.plan.lost(link, token) {
                None
            } else {
                Some(now + net.plan.delay(link, token))
            }
        };
        if let Some(at) = delivery {
            inject.push(Job::released_at(at, vec![]));
            self.meta.push(JobKind::LeaseGrant { host });
        }
    }

    /// A grant lands on the host: the lease is monotone under reordered
    /// grants, and a parked host resumes serving.
    fn on_lease_grant(&mut self, host: usize, now: Nanos, inject: &mut Vec<Job>) {
        let Some(duration) = self
            .net
            .as_ref()
            .and_then(|n| n.plan.config().lease)
            .map(|l| l.duration)
        else {
            return;
        };
        let until = now + duration;
        if until > self.hosts[host].lease_until {
            self.hosts[host].lease_until = until;
            inject.push(Job::released_at(until, vec![]));
            self.meta.push(JobKind::LeaseExpire { host });
        }
        if self.hosts[host].parked {
            self.hosts[host].parked = false;
            self.drain_queue(host, now, inject);
        }
    }

    /// The lease lapses with no grant extending it: the host parks. It
    /// purges its queue back to the router as refusals (buffered through
    /// any partition — a fenced host may refuse, never complete) and
    /// poisons its in-flight work the same way.
    fn on_lease_expire(&mut self, host: usize, now: Nanos, inject: &mut Vec<Job>) {
        if self.net.as_ref().is_none_or(|n| n.ledger.is_none()) {
            return;
        }
        // Renewal ticks end at the horizon; a lapse past it is the
        // schedule running out, not a lost grant.
        if self
            .net
            .as_ref()
            .is_some_and(|n| now >= n.plan.config().horizon)
        {
            return;
        }
        {
            let h = &self.hosts[host];
            if h.parked || now < h.lease_until || !h.available() {
                return;
            }
        }
        self.hosts[host].parked = true;
        if let Some(net) = self.net.as_mut() {
            net.lease_expiries += 1;
        }
        self.rec
            .marker(MarkerKind::LeaseExpired, None, Some(host), now);
        for next in self.purge_backlog(host) {
            self.hosts[host].committed_psp = self.hosts[host]
                .committed_psp
                .saturating_sub(next.expected_psp);
            let kind = JobKind::NetNack {
                request: next.request,
                epoch: self.epoch[next.request],
                host,
            };
            self.send_host_msg(host, now, kind, inject);
        }
        let doomed: Vec<usize> = self.hosts[host].host_inflight.iter().copied().collect();
        for job in doomed {
            self.poisoned_lease.insert(job);
        }
    }

    /// Serves `request` on `host`: degradation ladder, warm pool, admission.
    fn assign(
        &mut self,
        request: usize,
        class: usize,
        host: usize,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        let level = self.hosts[host].degrade_level(class, now);
        let Some(tier) = self.config.tier.degraded(level) else {
            self.mark_done(request, ReqOutcome::BreakerShed, now);
            self.breaker_sheds += 1;
            self.rec.terminal(request, ReqOutcome::BreakerShed, now);
            self.issue_next_closed(now, inject);
            return;
        };
        if tier == ServingTier::WarmPool && self.hosts[host].pool.try_take(class) {
            let blueprint = &self.catalog.class(class).warm_invoke;
            self.inject_launch(request, class, host, blueprint, None, now, inject);
            self.start_refill(host, class, now, inject);
            return;
        }
        self.admit(request, class, host, now, inject);
    }

    /// Expected serialized PSP work of `class` on `host` at `tier` (peeks
    /// at the host's cache without counting).
    fn expected_psp(&self, host: usize, class: usize, tier: ServingTier) -> Nanos {
        let cb = self.catalog.class(class);
        match tier {
            ServingTier::Cold => cb.cold.psp_work(),
            ServingTier::Template | ServingTier::WarmPool => {
                if self.hosts[host].cache.contains(&cb.key) {
                    cb.template_hit.psp_work()
                } else {
                    cb.template_fill.psp_work()
                }
            }
        }
    }

    /// Per-host admission control: dispatch if a slot is free (and the
    /// host's PSP is not quiesced), queue if there is room, shed otherwise.
    fn admit(
        &mut self,
        request: usize,
        class: usize,
        host: usize,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        let level = self.hosts[host].degrade_level(class, now);
        let tier = self.config.tier.degraded(level).unwrap_or(self.config.tier);
        let expected_psp = self.expected_psp(host, class, tier);
        let quiesced = expected_psp > Nanos::ZERO && self.quiesce_hold(host, now);
        if !quiesced && self.hosts[host].inflight < self.config.admission.max_inflight {
            self.dispatch(request, class, host, tier, now, inject);
            return;
        }
        let key = self.catalog.class(class).key;
        let pending = Pending {
            request,
            class,
            expected_psp,
            key,
        };
        if self.hosts[host].wfq.is_some() {
            // WFQ admission: enqueue on the tenant's lane; overflow runs
            // policy-aware shed (batch before latency-sensitive,
            // quota-violators first) instead of refusing the newcomer.
            let (tenant, over) = match self.policy.as_ref() {
                Some(ps) => {
                    let t = ps.req_tenant[request];
                    (t, ps.engine.over_quota(t, now))
                }
                None => (0, false),
            };
            let offer = {
                let wfq = self.hosts[host].wfq.as_mut().expect("checked above");
                wfq.set_over_quota(tenant, over);
                wfq.offer(tenant, pending, expected_psp)
            };
            let depth = self.hosts[host].wfq.as_ref().expect("checked above").len();
            self.hosts[host].metrics.sample_queue_depth(now, depth);
            match offer {
                Offer::Queued => {
                    self.hosts[host].committed_psp += expected_psp;
                    self.rec.queued(request);
                }
                Offer::Displaced { item, .. } => {
                    self.hosts[host].committed_psp += expected_psp;
                    self.hosts[host].committed_psp = self.hosts[host]
                        .committed_psp
                        .saturating_sub(item.expected_psp);
                    self.rec.queued(request);
                    self.mark_done(item.request, ReqOutcome::Shed, now);
                    self.rec.terminal(item.request, ReqOutcome::Shed, now);
                    self.issue_next_closed(now, inject);
                }
                Offer::Refused(item) => {
                    self.mark_done(item.request, ReqOutcome::Shed, now);
                    self.rec.terminal(item.request, ReqOutcome::Shed, now);
                    self.issue_next_closed(now, inject);
                }
            }
            return;
        }
        let admitted = self.hosts[host].queue.offer(pending);
        let depth = self.hosts[host].queue.len();
        self.hosts[host].metrics.sample_queue_depth(now, depth);
        if admitted {
            self.hosts[host].committed_psp += expected_psp;
            self.rec.queued(request);
        } else {
            self.mark_done(request, ReqOutcome::Shed, now);
            self.rec.terminal(request, ReqOutcome::Shed, now);
            self.issue_next_closed(now, inject);
        }
    }

    /// Picks the launch blueprint for a dispatch at `tier` on `host`.
    fn dispatch(
        &mut self,
        request: usize,
        class: usize,
        host: usize,
        tier: ServingTier,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        if tier != self.config.tier {
            self.hosts[host].metrics.degraded_dispatches += 1;
        }
        let cb = self.catalog.class(class);
        let (blueprint, fill) = match tier {
            ServingTier::Cold => (&cb.cold, None),
            ServingTier::Template | ServingTier::WarmPool => {
                if self.hosts[host].cache.lookup_or_fill(cb.key, class) {
                    (&cb.template_hit, None)
                } else {
                    (&cb.template_fill, Some(cb.key))
                }
            }
        };
        self.inject_launch(request, class, host, blueprint, fill, now, inject);
    }

    /// Applies the host's fault domain to the launch (via the shared
    /// [`apply_launch_faults`] hook) and injects it on the host's resources.
    #[allow(clippy::too_many_arguments)]
    fn inject_launch(
        &mut self,
        request: usize,
        class: usize,
        host: usize,
        blueprint: &'a Blueprint,
        fill: Option<TemplateKey>,
        now: Nanos,
        inject: &mut Vec<Job>,
    ) {
        // The acceptance invariant in executable form: a posture-strict
        // tenant's launch must never reach an ineligible host. The
        // placement filter and the dispatch-time re-check keep this zero.
        if !self.posture_ok(request, host) {
            if let Some(ps) = self.policy.as_mut() {
                ps.posture_violations += 1;
            }
        }
        let (mut launch, kind) = match &self.hosts[host].plan {
            Some(plan) => {
                let token = self.hosts[host].launch_seq;
                let faulted = apply_launch_faults(blueprint, plan, token, now);
                self.hosts[host].launch_seq += 1;
                faulted
            }
            None => (blueprint.launch(), None),
        };
        let mut fate = kind.map_or(LaunchFate::Ok, LaunchFate::Fault);
        // Every fault-free dispatch carries an attestation verdict: the
        // verifier's steps ride the launch as network delay (they never
        // touch the host's PSP backlog), and a revoked chip turns the
        // dispatch into an attestation failure that retries elsewhere.
        if matches!(fate, LaunchFate::Ok) {
            if let Some(plane) = self.plane.as_mut() {
                let v = plane
                    .verify_launch(host, now)
                    .expect("plane sized to cluster hosts");
                launch.extend(v.steps);
                match v.verdict {
                    Verdict::Ok => {}
                    Verdict::Revoked => fate = LaunchFate::Fault(FaultKind::AttestError),
                    // The verifier was unreachable and the plane ran
                    // fail-closed: the launch is refused and retries.
                    Verdict::Unavailable => fate = LaunchFate::Fault(FaultKind::AttestTimeout),
                }
            }
        }
        let psp_ns = launch.psp_work();
        let psp = psp_ns > Nanos::ZERO;
        let h = &mut self.hosts[host];
        h.inflight += 1;
        h.committed_psp += psp_ns;
        inject.push(launch_job(&launch, now, h.cpu, h.psp));
        let job = self.meta.len();
        if self.rec.on() {
            self.rec
                .attempt_start(request, job, Some(host), launch, now);
        }
        self.meta.push(JobKind::Launch {
            request,
            class,
            host,
            epoch: self.epoch[request],
            fate,
            fill,
            psp,
            psp_ns,
        });
        if psp {
            self.hosts[host].psp_inflight.insert(job);
        }
        self.hosts[host].host_inflight.insert(job);
    }

    /// A launch failed: retry with backoff (fresh placement on completion)
    /// if the budget and deadline allow, else count the request failed.
    fn handle_failure(&mut self, request: usize, now: Nanos, inject: &mut Vec<Job>) {
        self.attempts[request] += 1;
        let failures = self.attempts[request];
        match self.config.recovery.retry.backoff(failures, request as u64) {
            None => {
                self.mark_done(request, ReqOutcome::Failed, now);
                self.failed += 1;
                self.rec.terminal(request, ReqOutcome::Failed, now);
                self.issue_next_closed(now, inject);
            }
            Some(delay) => {
                let at = now + delay;
                if self.past_deadline(request, at) {
                    self.mark_done(request, ReqOutcome::Timeout, now);
                    self.timeouts += 1;
                    self.rec.terminal(request, ReqOutcome::Timeout, now);
                    self.issue_next_closed(now, inject);
                    return;
                }
                self.retries += 1;
                self.rec.retry_wait(request, failures, now, at);
                inject.push(Job::released_at(at, vec![]));
                self.meta.push(JobKind::Retry { request });
            }
        }
    }

    /// Fills freed dispatch slots on `host` from its queue.
    fn drain_queue(&mut self, host: usize, now: Nanos, inject: &mut Vec<Job>) {
        if !self.hosts[host].available()
            || self.quiesce_hold(host, now)
            || self.lease_blocked(host, now)
        {
            return;
        }
        while self.hosts[host].inflight < self.config.admission.max_inflight {
            let policy = self.config.admission.policy;
            let h = &mut self.hosts[host];
            let (next, depth) = match &mut h.wfq {
                Some(wfq) => (wfq.pop().map(|(_, p)| p), wfq.len()),
                None => {
                    let Host { queue, cache, .. } = &mut *h;
                    let next = queue.pick(policy, |key| cache.contains(key));
                    (next, queue.len())
                }
            };
            let Some(next) = next else {
                break;
            };
            h.committed_psp = h.committed_psp.saturating_sub(next.expected_psp);
            h.metrics.sample_queue_depth(now, depth);
            if self.past_deadline(next.request, now) {
                self.mark_done(next.request, ReqOutcome::Timeout, now);
                self.timeouts += 1;
                self.rec.terminal(next.request, ReqOutcome::Timeout, now);
                self.issue_next_closed(now, inject);
                continue;
            }
            // Posture re-check at dispatch: a TCB rollout or revocation can
            // change the host between enqueue and pop, so a queued request
            // whose host fell below its floor re-routes through the filter
            // instead of launching here.
            if !self.posture_ok(next.request, host) {
                if let Some(ps) = self.policy.as_mut() {
                    ps.posture_redirects += 1;
                }
                self.route(next.request, now, inject);
                continue;
            }
            let level = self.hosts[host].degrade_level(next.class, now);
            let Some(tier) = self.config.tier.degraded(level) else {
                self.mark_done(next.request, ReqOutcome::BreakerShed, now);
                self.breaker_sheds += 1;
                self.rec
                    .terminal(next.request, ReqOutcome::BreakerShed, now);
                self.issue_next_closed(now, inject);
                continue;
            };
            self.dispatch(next.request, next.class, host, tier, now, inject);
        }
    }

    /// Starts a background refill for `class` on `host` if it is below
    /// target and the host can currently launch (live, PSP accepting).
    fn start_refill(&mut self, host: usize, class: usize, now: Nanos, inject: &mut Vec<Job>) {
        if self.config.tier != ServingTier::WarmPool
            || !(self.hosts[host].available() || self.warming[host])
            || self.lease_blocked(host, now)
            || !self.hosts[host].pool.wants_refill(class)
        {
            return;
        }
        let refill = &self.catalog.class(class).template_hit;
        let psp_ns = refill.psp_work();
        let psp = psp_ns > Nanos::ZERO;
        if psp && self.hosts[host].in_psp_outage(now) {
            return;
        }
        let h = &mut self.hosts[host];
        h.pool.refill_started(class);
        h.committed_psp += psp_ns;
        let launch = refill.launch();
        inject.push(launch_job(&launch, now, h.cpu, h.psp));
        let job = self.meta.len();
        if self.rec.on() {
            self.rec.background(job, Some(host), launch, now);
        }
        self.meta.push(JobKind::Replenish {
            class,
            host,
            psp,
            psp_ns,
        });
        if psp {
            self.hosts[host].psp_inflight.insert(job);
        }
        self.hosts[host].host_inflight.insert(job);
    }

    /// Closed loops: a completion (or shed) sends the client into think
    /// time, after which it issues the next request.
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
