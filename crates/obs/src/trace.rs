//! Span recording over the shared virtual clock, and causal trace assembly.
//!
//! The serving layers (`sevf-fleet`, `sevf-cluster`) narrate a run into a
//! [`Recorder`] as it executes: request arrivals, queueing, launch-attempt
//! dispatches with their planned [`Launch`]es, retry backoffs, terminal
//! outcomes, and point markers (faults, failovers, placement decisions).
//! After the DES run finishes, the caller feeds the engine's resource
//! occupancy back in ([`Recorder::resource_names`], [`Recorder::occupy`])
//! and calls [`Recorder::build`], which assembles one causal span tree per
//! request:
//!
//! ```text
//! request ── queue wait ── attempt ──┬── wait psp
//!                                    ├── SNP_LAUNCH_START   (psp)
//!                                    ├── LAUNCH_UPDATE_DATA (psp)
//!                                    └── attestation rtt    (network)
//!         ── backoff #1 ── attempt ── ...
//! ```
//!
//! The children of every composite span tile its interval exactly — waits
//! are materialized, nothing overlaps — so per-request span durations sum
//! to precisely the latency the metrics layer reports. The structural
//! invariants this buys are checked by [`crate::invariants`].
//!
//! Recording is compact. A launch is a catalog blueprint's shared steps
//! (an `Arc<[WorkStep]>`) plus a small overlay, so recording one costs a
//! refcount. Occupancy is fed as `(ResourceId, job, start, end)` against
//! one resource-name table per run. Every span name is a [`Label`], cloned
//! from the catalog, the resource table, or a static string; assembly
//! allocates no string per span.
//!
//! A disabled recorder ([`Recorder::disabled`]) is a `None`: every method
//! returns immediately, no allocation, no clock reads — the fault-free
//! serving path replays byte-identically with recording off.

use std::ops::Range;
use std::sync::Arc;

use sevf_sim::fault::FaultKind;
use sevf_sim::{Nanos, PhaseKind, ResourceClass, ResourceId};

use crate::label::Label;

/// One planned unit of work inside a launch attempt: which resource class
/// it occupies, which boot phase it belongs to, and for how long.
///
/// `sevf-fleet` blueprints are sequences of these; the recorder matches
/// resource-bound steps against the engine's occupancy entries to place
/// them on the clock (network steps are pure delays and self-place).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkStep {
    /// Host resource class the step occupies.
    pub class: ResourceClass,
    /// Boot phase the step belongs to (drives per-phase breakdowns).
    pub phase: PhaseKind,
    /// Human-readable description (PSP command, boot stage, ...).
    pub label: Label,
    /// Planned duration of the step.
    pub duration: Nanos,
}

impl WorkStep {
    /// Builds a step.
    pub fn new(
        class: ResourceClass,
        phase: PhaseKind,
        label: impl Into<Label>,
        duration: Nanos,
    ) -> Self {
        WorkStep {
            class,
            phase,
            label: label.into(),
            duration,
        }
    }
}

/// One dispatched launch: a blueprint's shared steps plus a small overlay.
///
/// The steps a launch runs are the first `take` shared steps, the last of
/// them cut short when a fault killed the launch partway, followed by the
/// overlay's own steps: a hang on a rebooting PSP, an attestation timeout,
/// the attestation plane's verdict steps. Cloning or recording a launch
/// bumps refcounts; it never copies the shared steps.
#[derive(Debug, Clone)]
pub struct Launch {
    label: Label,
    shared: Arc<[WorkStep]>,
    /// `(take, last)`: only the first `take` shared steps run, the last of
    /// them for `last`. `None` runs every shared step in full.
    cut: Option<(usize, Nanos)>,
    extra: Vec<WorkStep>,
}

impl Launch {
    /// A launch running every step of `shared`, named `label`.
    pub fn new(label: Label, shared: Arc<[WorkStep]>) -> Self {
        Launch {
            label,
            shared,
            cut: None,
            extra: Vec::new(),
        }
    }

    /// The attempt's display name.
    pub fn label(&self) -> &Label {
        &self.label
    }

    /// Renames the attempt ("... (aborted)", "... (dead psp)").
    pub fn relabel(&mut self, label: Label) {
        self.label = label;
    }

    /// Keeps only the prefix of the shared steps that consumes `budget` of
    /// their time: whole steps while the budget lasts, the last one cut
    /// partially. A zero budget keeps no shared step at all.
    pub fn truncate(&mut self, budget: Nanos) {
        let mut left = budget;
        let mut take = 0;
        let mut last = Nanos::ZERO;
        for step in self.shared.iter() {
            if left == Nanos::ZERO {
                break;
            }
            last = step.duration.min(left);
            left = left.saturating_sub(last);
            take += 1;
        }
        self.cut = Some((take, last));
    }

    /// Appends an overlay step after the shared prefix.
    pub fn push(&mut self, step: WorkStep) {
        self.extra.push(step);
    }

    /// Appends overlay steps after the shared prefix.
    pub fn extend(&mut self, steps: impl IntoIterator<Item = WorkStep>) {
        self.extra.extend(steps);
    }

    /// The steps this launch runs, in order, each with its effective
    /// duration (a cut step runs for less than it planned).
    pub fn steps(&self) -> impl Iterator<Item = (&WorkStep, Nanos)> + '_ {
        let (take, last) = self.cut.unwrap_or((self.shared.len(), Nanos::ZERO));
        let cut = self.cut.is_some();
        self.shared[..take]
            .iter()
            .enumerate()
            .map(move |(i, step)| {
                let duration = if cut && i + 1 == take {
                    last
                } else {
                    step.duration
                };
                (step, duration)
            })
            .chain(self.extra.iter().map(|step| (step, step.duration)))
    }

    /// Serialized PSP work this launch costs.
    pub fn psp_work(&self) -> Nanos {
        self.steps()
            .filter(|(step, _)| step.class == ResourceClass::Psp)
            .map(|(_, duration)| duration)
            .sum()
    }
}

/// Terminal state of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served to completion.
    Completed,
    /// Shed by admission (queue full or unroutable).
    Shed,
    /// Shed past the bottom of the degradation ladder.
    BreakerShed,
    /// Shed on deadline.
    Timeout,
    /// Permanently failed after exhausting retries.
    Failed,
    /// Turned away by the policy engine (quota / isolation / posture)
    /// before consuming any PSP work.
    Rejected,
}

impl Outcome {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Completed => "completed",
            Outcome::Shed => "shed",
            Outcome::BreakerShed => "breaker-shed",
            Outcome::Timeout => "timeout",
            Outcome::Failed => "failed",
            Outcome::Rejected => "rejected",
        }
    }
}

/// A point event on the clock, outside the span hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerKind {
    /// An injected fault struck.
    Fault(FaultKind),
    /// A request was displaced off a dead or departing host and re-routed.
    Failover,
    /// The cluster router placed a request on a host.
    Placement {
        /// The chosen host.
        host: usize,
    },
    /// A circuit breaker tripped a class down the degradation ladder.
    BreakerTrip,
    /// A warm-pool rebalance pass ran after a membership change.
    Rebalance,
    /// A PSP firmware-reset outage window opened.
    OutageStart,
    /// A PSP firmware-reset outage window closed.
    OutageEnd,
    /// A TCB/firmware rollout re-measured a host (re-attestation storm).
    TcbRollout,
    /// A chip key was distrusted mid-stream (key-compromise drill).
    Revocation,
    /// The router's failure detector started suspecting a host.
    Suspected,
    /// A heartbeat got through and cleared a standing suspicion.
    SuspicionCleared,
    /// A host's dispatch lease lapsed and it parked itself.
    LeaseExpired,
    /// The policy engine admitted a request at its asked-for tier.
    PolicyAdmit,
    /// The policy engine admitted a request at a degraded isolation tier.
    PolicyDegrade,
    /// The policy engine turned a request away.
    PolicyReject,
    /// The autoscaler joined spare hosts via the graceful-join path.
    ScaleOut,
    /// The autoscaler drained hosts via the graceful-leave path.
    ScaleIn,
    /// The autoscaler re-prescribed per-host warm-pool targets.
    PreWarm,
}

impl MarkerKind {
    /// Stable label used in exporter output.
    pub fn name(&self) -> String {
        match self {
            MarkerKind::Fault(kind) => format!("fault: {}", kind.name()),
            MarkerKind::Failover => "failover".to_string(),
            MarkerKind::Placement { host } => format!("placement: host {host}"),
            MarkerKind::BreakerTrip => "breaker-trip".to_string(),
            MarkerKind::Rebalance => "rebalance".to_string(),
            MarkerKind::OutageStart => "outage-start".to_string(),
            MarkerKind::OutageEnd => "outage-end".to_string(),
            MarkerKind::TcbRollout => "tcb-rollout".to_string(),
            MarkerKind::Revocation => "revocation".to_string(),
            MarkerKind::Suspected => "suspected".to_string(),
            MarkerKind::SuspicionCleared => "suspicion-cleared".to_string(),
            MarkerKind::LeaseExpired => "lease-expired".to_string(),
            MarkerKind::PolicyAdmit => "policy-admit".to_string(),
            MarkerKind::PolicyDegrade => "policy-degrade".to_string(),
            MarkerKind::PolicyReject => "policy-reject".to_string(),
            MarkerKind::ScaleOut => "scale-out".to_string(),
            MarkerKind::ScaleIn => "scale-in".to_string(),
            MarkerKind::PreWarm => "pre-warm".to_string(),
        }
    }
}

/// One recorded marker.
#[derive(Debug, Clone)]
pub struct MarkerRec {
    /// What happened.
    pub kind: MarkerKind,
    /// The request it concerns, if any.
    pub request: Option<usize>,
    /// The host it concerns, if any (cluster runs).
    pub host: Option<usize>,
    /// When it happened on the virtual clock.
    pub at: Nanos,
}

/// What a span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Root of one request's tree: admission to terminal state.
    Request,
    /// Root of a background job's tree (warm-pool refill).
    Background,
    /// One launch attempt (dispatch to job completion).
    Attempt,
    /// One executed work step (resource occupancy or network delay).
    Step,
    /// Time spent waiting: in the admission queue, or for a resource slot.
    Wait,
    /// Retry backoff between attempts.
    Backoff,
}

impl SpanKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Background => "background",
            SpanKind::Attempt => "attempt",
            SpanKind::Step => "step",
            SpanKind::Wait => "wait",
            SpanKind::Backoff => "backoff",
        }
    }
}

/// One assembled span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Index into [`TraceLog::spans`].
    pub id: usize,
    /// Causal parent (`None` for roots).
    pub parent: Option<usize>,
    /// The request this span serves (`None` for background trees).
    pub request: Option<usize>,
    /// The host it ran on, if the caller is a cluster (`None` on one host).
    pub host: Option<usize>,
    /// What the span represents.
    pub kind: SpanKind,
    /// Display name (class, blueprint label, step label, ...).
    pub name: Label,
    /// Boot phase, for [`SpanKind::Step`] spans.
    pub phase: Option<PhaseKind>,
    /// Concrete resource occupied, for steps and resource waits.
    pub resource: Option<Label>,
    /// Start instant on the shared virtual clock.
    pub start: Nanos,
    /// End instant.
    pub end: Nanos,
}

impl SpanRec {
    /// Span duration.
    pub fn duration(&self) -> Nanos {
        self.end - self.start
    }
}

/// Request-scoped events the recorder buffers during a run (assembled by
/// [`Recorder::build`]).
#[derive(Debug)]
enum Ev {
    Arrival {
        request: usize,
        class: Label,
        at: Nanos,
    },
    Queued {
        request: usize,
    },
    AttemptStart {
        request: usize,
        job: usize,
        host: Option<usize>,
        launch: Launch,
        at: Nanos,
    },
    RetryWait {
        request: usize,
        attempt: u32,
        from: Nanos,
        until: Nanos,
    },
    Terminal {
        request: usize,
        at: Nanos,
    },
}

impl Ev {
    fn request(&self) -> usize {
        match self {
            Ev::Arrival { request, .. }
            | Ev::Queued { request }
            | Ev::AttemptStart { request, .. }
            | Ev::RetryWait { request, .. }
            | Ev::Terminal { request, .. } => *request,
        }
    }
}

/// A background job (warm-pool refill) as dispatched.
#[derive(Debug)]
struct BackgroundEv {
    job: usize,
    host: Option<usize>,
    launch: Launch,
    at: Nanos,
}

/// One engine occupancy entry, keyed by resource index.
#[derive(Debug, Clone, Copy)]
struct Occ {
    resource: usize,
    job: usize,
    start: Nanos,
    end: Nanos,
}

#[derive(Debug, Default)]
struct Inner {
    events: Vec<Ev>,
    backgrounds: Vec<BackgroundEv>,
    /// Completion instant per engine job (attempts and backgrounds).
    ends: Vec<Option<Nanos>>,
    outcomes: Vec<(usize, Outcome, Nanos)>,
    markers: Vec<MarkerRec>,
    /// Resource names, by [`ResourceId::index`].
    resources: Vec<Label>,
    occupancy: Vec<Occ>,
}

impl Inner {
    fn end(&mut self, job: usize, at: Nanos) {
        if self.ends.len() <= job {
            self.ends.resize(job + 1, None);
        }
        self.ends[job] = Some(at);
    }
}

/// The recording handle the serving layers thread through a run.
///
/// Disabled, it is a `None` behind one pointer-sized check: every method
/// no-ops, and [`Recorder::build`] returns an empty [`TraceLog`]. The
/// recorder never touches the caller's RNG, metrics, or job injection, so
/// enabling it cannot change a run's results — only observe them.
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Option<Box<Inner>>,
}

impl Recorder {
    /// A recorder that records nothing (the default serving path).
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A live recorder.
    pub fn enabled() -> Self {
        Recorder {
            inner: Some(Box::default()),
        }
    }

    /// Whether recording is on. Callers use this to skip building event
    /// arguments on the disabled path.
    pub fn on(&self) -> bool {
        self.inner.is_some()
    }

    /// A request arrived (roots its span tree, named after its class).
    pub fn arrival(&mut self, request: usize, class: &Label, at: Nanos) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(Ev::Arrival {
                request,
                class: class.clone(),
                at,
            });
        }
    }

    /// A request entered the admission queue (names its next wait span).
    pub fn queued(&mut self, request: usize) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(Ev::Queued { request });
        }
    }

    /// A launch attempt for `request` was injected as engine job `job`.
    pub fn attempt_start(
        &mut self,
        request: usize,
        job: usize,
        host: Option<usize>,
        launch: Launch,
        at: Nanos,
    ) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(Ev::AttemptStart {
                request,
                job,
                host,
                launch,
                at,
            });
        }
    }

    /// Engine job `job` (a launch attempt) completed.
    pub fn attempt_end(&mut self, job: usize, at: Nanos) {
        if let Some(inner) = &mut self.inner {
            inner.end(job, at);
        }
    }

    /// A retry for `request` (failure number `attempt`) was scheduled:
    /// backoff occupies `[from, until]`.
    pub fn retry_wait(&mut self, request: usize, attempt: u32, from: Nanos, until: Nanos) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(Ev::RetryWait {
                request,
                attempt,
                from,
                until,
            });
        }
    }

    /// A request reached a terminal state.
    pub fn terminal(&mut self, request: usize, outcome: Outcome, at: Nanos) {
        if let Some(inner) = &mut self.inner {
            inner.outcomes.push((request, outcome, at));
            inner.events.push(Ev::Terminal { request, at });
        }
    }

    /// A background job (warm-pool refill) was injected as engine job `job`.
    pub fn background(&mut self, job: usize, host: Option<usize>, launch: Launch, at: Nanos) {
        if let Some(inner) = &mut self.inner {
            inner.backgrounds.push(BackgroundEv {
                job,
                host,
                launch,
                at,
            });
        }
    }

    /// Engine job `job` (a background job) completed.
    pub fn background_end(&mut self, job: usize, at: Nanos) {
        if let Some(inner) = &mut self.inner {
            inner.end(job, at);
        }
    }

    /// Records a point marker.
    pub fn marker(
        &mut self,
        kind: MarkerKind,
        request: Option<usize>,
        host: Option<usize>,
        at: Nanos,
    ) {
        if let Some(inner) = &mut self.inner {
            inner.markers.push(MarkerRec {
                kind,
                request,
                host,
                at,
            });
        }
    }

    /// An injected fault struck (`request` if it hit an attempt).
    pub fn fault(
        &mut self,
        kind: FaultKind,
        request: Option<usize>,
        host: Option<usize>,
        at: Nanos,
    ) {
        self.marker(MarkerKind::Fault(kind), request, host, at);
    }

    /// Sets the run's resource-name table, in [`ResourceId::index`] order
    /// ("psp", "psp3", "host-cpus", ...). Call it once per run;
    /// [`Recorder::build`] names every [`Recorder::occupy`] entry from it.
    pub fn resource_names<'n>(&mut self, names: impl IntoIterator<Item = &'n str>) {
        if let Some(inner) = &mut self.inner {
            inner.resources = names
                .into_iter()
                .map(|name| Label::from(name.to_string()))
                .collect();
        }
    }

    /// Feeds one engine occupancy entry back in after the run.
    pub fn occupy(&mut self, resource: ResourceId, job: usize, start: Nanos, end: Nanos) {
        if let Some(inner) = &mut self.inner {
            inner.occupancy.push(Occ {
                resource: resource.index(),
                job,
                start,
                end,
            });
        }
    }

    /// Assembles the recorded events into span trees. Returns an empty log
    /// for a disabled recorder.
    pub fn build(self) -> TraceLog {
        let inner = match self.inner {
            Some(inner) => *inner,
            None => return TraceLog::default(),
        };
        Assembler::assemble(inner)
    }
}

/// The assembled trace of one run: span trees, markers, and per-request
/// terminal outcomes.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// All spans; a span's `id` is its index here, parents precede children.
    /// Each request's spans are contiguous, root first; background trees
    /// follow the requests'.
    pub spans: Vec<SpanRec>,
    /// Point markers in recording order.
    pub markers: Vec<MarkerRec>,
    /// `(request, outcome, at)` terminal states in recording order.
    pub outcomes: Vec<(usize, Outcome, Nanos)>,
    /// `by_request[r]`: the range of `spans` holding request `r`'s tree
    /// (empty if it never arrived), built once at assembly.
    by_request: Vec<Range<usize>>,
}

impl TraceLog {
    /// Root spans (requests and background jobs).
    pub fn roots(&self) -> impl Iterator<Item = &SpanRec> {
        self.spans.iter().filter(|s| s.parent.is_none())
    }

    /// The span range assembly indexed for `request` (empty if it never
    /// arrived). [`crate::invariants::requests_contiguous`] checks that it
    /// holds exactly the spans tagged with the request.
    pub fn request_range(&self, request: usize) -> Range<usize> {
        self.by_request.get(request).cloned().unwrap_or(0..0)
    }

    /// `request`'s spans: its tree, root first.
    pub fn request_spans(&self, request: usize) -> &[SpanRec] {
        &self.spans[self.request_range(request)]
    }

    /// The root span of `request`'s tree, if it arrived.
    pub fn request_root(&self, request: usize) -> Option<&SpanRec> {
        self.request_spans(request)
            .iter()
            .find(|s| s.parent.is_none())
    }

    /// Direct children of span `id`, in start order.
    pub fn children(&self, id: usize) -> Vec<&SpanRec> {
        // A request span's children live in its request's range.
        let scope = match self.spans[id].request {
            Some(request) => self.request_spans(request),
            None => &self.spans,
        };
        scope.iter().filter(|s| s.parent == Some(id)).collect()
    }

    /// `children[i]` = direct child ids of span `i` (single pass).
    pub fn child_index(&self) -> Vec<Vec<usize>> {
        let mut index = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                index[parent].push(span.id);
            }
        }
        index
    }

    /// Leaf spans of `request`'s tree in start order — its critical path
    /// (children tile their parents, so the leaves partition the root).
    pub fn leaves(&self, request: usize) -> Vec<&SpanRec> {
        let range = self.request_range(request);
        let mut has_child = vec![false; range.len()];
        for span in &self.spans[range.clone()] {
            if let Some(parent) = span.parent.filter(|p| range.contains(p)) {
                has_child[parent - range.start] = true;
            }
        }
        let mut leaves: Vec<&SpanRec> = self.spans[range.clone()]
            .iter()
            .zip(&has_child)
            .filter(|(s, &inner)| s.request == Some(request) && !inner)
            .map(|(s, _)| s)
            .collect();
        leaves.sort_by_key(|s| (s.start, s.id));
        leaves
    }

    /// Requests whose terminal outcome is `outcome`.
    pub fn requests_with_outcome(&self, outcome: Outcome) -> Vec<usize> {
        self.outcomes
            .iter()
            .filter(|(_, o, _)| *o == outcome)
            .map(|(r, _, _)| *r)
            .collect()
    }

    /// How many requests terminated with `outcome`.
    pub fn count_outcome(&self, outcome: Outcome) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o, _)| *o == outcome)
            .count()
    }

    /// How many fault markers of `kind` were recorded.
    pub fn count_fault(&self, kind: FaultKind) -> usize {
        self.markers
            .iter()
            .filter(|m| m.kind == MarkerKind::Fault(kind))
            .count()
    }

    /// Total fault markers of any kind.
    pub fn total_faults(&self) -> usize {
        self.markers
            .iter()
            .filter(|m| matches!(m.kind, MarkerKind::Fault(_)))
            .count()
    }

    /// How many markers match `kind` exactly.
    pub fn count_marker(&self, kind: MarkerKind) -> usize {
        self.markers.iter().filter(|m| m.kind == kind).count()
    }

    /// Failover-hop markers recorded.
    pub fn failovers(&self) -> usize {
        self.count_marker(MarkerKind::Failover)
    }

    /// Retry backoff spans recorded (= retry launches dispatched later).
    pub fn retry_waits(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| s.kind == SpanKind::Backoff)
            .count()
    }

    /// Step spans with an exact name, e.g. the attestation-plane steps
    /// (`att-verify`, `att-cert-fetch`, …). Lets consistency tests pin
    /// span counts against plane metrics counters.
    pub fn count_step_label(&self, label: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.kind == SpanKind::Step && s.name == label)
            .count()
    }
}

/// Stable counting sort: item indices grouped by key (each `< buckets`),
/// in input order within a key. Returns `(starts, order)`; key `k`'s items
/// are `order[starts[k]..starts[k + 1]]`.
fn group_by_key(
    buckets: usize,
    keys: impl Iterator<Item = usize> + Clone,
) -> (Vec<usize>, Vec<usize>) {
    let mut starts = vec![0usize; buckets + 1];
    for key in keys.clone() {
        starts[key + 1] += 1;
    }
    for key in 0..buckets {
        starts[key + 1] += starts[key];
    }
    let mut fill = starts.clone();
    let mut order = vec![0; starts[buckets]];
    for (i, key) in keys.enumerate() {
        order[fill[key]] = i;
        fill[key] += 1;
    }
    (starts, order)
}

/// Turns the recorded events into span trees.
struct Assembler {
    occupancy: Vec<Occ>,
    /// Occupancy entries grouped by job (see [`group_by_key`]).
    occ_starts: Vec<usize>,
    occ_order: Vec<usize>,
    /// Per job: the next entry of `occ_order` a step has not yet claimed.
    occ_next: Vec<usize>,
    ends: Vec<Option<Nanos>>,
    resources: Vec<Label>,
    /// "wait psp3"-style names, one per resource.
    waits: Vec<Label>,
    /// "backoff #n" names, by failure number.
    backoffs: Vec<Label>,
    spans: Vec<SpanRec>,
}

impl Assembler {
    fn assemble(inner: Inner) -> TraceLog {
        let Inner {
            events,
            backgrounds,
            ends,
            outcomes,
            markers,
            resources,
            occupancy,
        } = inner;
        let requests = events.iter().map(|e| e.request() + 1).max().unwrap_or(0);
        let (ev_starts, ev_order) = group_by_key(requests, events.iter().map(Ev::request));
        let jobs = occupancy.iter().map(|o| o.job + 1).max().unwrap_or(0);
        let (occ_starts, occ_order) = group_by_key(jobs, occupancy.iter().map(|o| o.job));
        let waits = resources
            .iter()
            .map(|name| Label::from(format!("wait {name}")))
            .collect();
        let mut asm = Assembler {
            occupancy,
            occ_next: occ_starts[..jobs].to_vec(),
            occ_starts,
            occ_order,
            ends,
            resources,
            waits,
            backoffs: Vec::new(),
            spans: Vec::new(),
        };
        let mut by_request = vec![0..0; requests];
        for (request, range) in by_request.iter_mut().enumerate() {
            let idxs = &ev_order[ev_starts[request]..ev_starts[request + 1]];
            let first = asm.spans.len();
            asm.request_tree(request, idxs, &events);
            if asm.spans.len() > first {
                *range = first..asm.spans.len();
            }
        }
        for bg in &backgrounds {
            asm.background_tree(bg);
        }
        TraceLog {
            spans: asm.spans,
            markers,
            outcomes,
            by_request,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_span(
        &mut self,
        parent: Option<usize>,
        request: Option<usize>,
        host: Option<usize>,
        kind: SpanKind,
        name: Label,
        phase: Option<PhaseKind>,
        resource: Option<Label>,
        start: Nanos,
        end: Nanos,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(SpanRec {
            id,
            parent,
            request,
            host,
            kind,
            name,
            phase,
            resource,
            start,
            end,
        });
        id
    }

    /// The next occupancy entry of `job` no step has claimed yet.
    fn next_occ(&mut self, job: usize) -> Option<Occ> {
        let at = *self.occ_next.get(job)?;
        if at == self.occ_starts[job + 1] {
            return None;
        }
        self.occ_next[job] = at + 1;
        Some(self.occupancy[self.occ_order[at]])
    }

    fn backoff_name(&mut self, attempt: u32) -> Label {
        let attempt = attempt as usize;
        while self.backoffs.len() <= attempt {
            let n = self.backoffs.len();
            self.backoffs.push(Label::from(format!("backoff #{n}")));
        }
        self.backoffs[attempt].clone()
    }

    /// Builds one request's tree from its event indices (recording order =
    /// clock order within a request).
    fn request_tree(&mut self, request: usize, idxs: &[usize], events: &[Ev]) {
        let Some((arrived, class)) = idxs.iter().find_map(|&i| match &events[i] {
            Ev::Arrival { at, class, .. } => Some((*at, class.clone())),
            _ => None,
        }) else {
            return;
        };
        let root = self.push_span(
            None,
            Some(request),
            None,
            SpanKind::Request,
            class,
            None,
            None,
            arrived,
            arrived,
        );
        let mut cursor = arrived;
        let mut queued = false;
        for &idx in idxs {
            match &events[idx] {
                Ev::Arrival { .. } => {}
                Ev::Queued { .. } => queued = true,
                Ev::RetryWait {
                    attempt,
                    from,
                    until,
                    ..
                } => {
                    self.gap(root, request, cursor, *from, queued);
                    let name = self.backoff_name(*attempt);
                    self.push_span(
                        Some(root),
                        Some(request),
                        None,
                        SpanKind::Backoff,
                        name,
                        None,
                        None,
                        *from,
                        *until,
                    );
                    cursor = *until;
                    queued = false;
                }
                Ev::AttemptStart {
                    job,
                    host,
                    launch,
                    at,
                    ..
                } => {
                    self.gap(root, request, cursor, *at, queued);
                    cursor = self.attempt(root, request, *host, *job, launch, *at);
                    queued = false;
                }
                Ev::Terminal { at, .. } => {
                    self.gap(root, request, cursor, *at, queued);
                    cursor = *at;
                }
            }
        }
        self.spans[root].end = cursor;
    }

    /// Materializes the wait between `cursor` and `until` (if any) as a
    /// child span, so siblings tile their parent exactly.
    fn gap(&mut self, parent: usize, request: usize, cursor: Nanos, until: Nanos, queued: bool) {
        if until > cursor {
            let name = if queued { "queue wait" } else { "wait" };
            self.push_span(
                Some(parent),
                Some(request),
                None,
                SpanKind::Wait,
                Label::new_static(name),
                None,
                None,
                cursor,
                until,
            );
        }
    }

    /// Builds one attempt span with its step/wait children; returns its end.
    fn attempt(
        &mut self,
        parent: usize,
        request: usize,
        host: Option<usize>,
        job: usize,
        launch: &Launch,
        at: Nanos,
    ) -> Nanos {
        let attempt = self.push_span(
            Some(parent),
            Some(request),
            host,
            SpanKind::Attempt,
            launch.label().clone(),
            None,
            None,
            at,
            at,
        );
        let cur = self.steps(attempt, Some(request), host, job, launch, at);
        let end = self.ends.get(job).copied().flatten().unwrap_or(cur);
        self.spans[attempt].end = end;
        end
    }

    /// Lays the launch's steps under `parent`, matching resource-bound
    /// steps against the job's occupancy entries in order; gaps before an
    /// occupancy start become resource-wait children. Returns the clock
    /// after the last step.
    fn steps(
        &mut self,
        parent: usize,
        request: Option<usize>,
        host: Option<usize>,
        job: usize,
        launch: &Launch,
        at: Nanos,
    ) -> Nanos {
        let mut cur = at;
        for (step, duration) in launch.steps() {
            if step.class == ResourceClass::Network {
                self.push_span(
                    Some(parent),
                    request,
                    host,
                    SpanKind::Step,
                    step.label.clone(),
                    Some(step.phase),
                    Some(Label::new_static("network")),
                    cur,
                    cur + duration,
                );
                cur += duration;
                continue;
            }
            match self.next_occ(job) {
                Some(occ) => {
                    let resource = self.resources[occ.resource].clone();
                    if occ.start > cur {
                        let name = self.waits[occ.resource].clone();
                        self.push_span(
                            Some(parent),
                            request,
                            host,
                            SpanKind::Wait,
                            name,
                            None,
                            Some(resource.clone()),
                            cur,
                            occ.start,
                        );
                    }
                    self.push_span(
                        Some(parent),
                        request,
                        host,
                        SpanKind::Step,
                        step.label.clone(),
                        Some(step.phase),
                        Some(resource),
                        occ.start,
                        occ.end,
                    );
                    cur = occ.end;
                }
                None => {
                    // No occupancy fed back (caller skipped `occupy`): fall
                    // back to the planned duration so the tree still tiles.
                    self.push_span(
                        Some(parent),
                        request,
                        host,
                        SpanKind::Step,
                        step.label.clone(),
                        Some(step.phase),
                        None,
                        cur,
                        cur + duration,
                    );
                    cur += duration;
                }
            }
        }
        cur
    }

    /// Builds one background job's tree (no request identity).
    fn background_tree(&mut self, bg: &BackgroundEv) {
        let root = self.push_span(
            None,
            None,
            bg.host,
            SpanKind::Background,
            bg.launch.label().clone(),
            None,
            None,
            bg.at,
            bg.at,
        );
        let cur = self.steps(root, None, bg.host, bg.job, &bg.launch, bg.at);
        let end = self.ends.get(bg.job).copied().flatten().unwrap_or(cur);
        self.spans[root].end = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn psp_step(label: &'static str, dur: Nanos) -> WorkStep {
        WorkStep::new(ResourceClass::Psp, PhaseKind::PreEncryption, label, dur)
    }

    fn launch(label: &'static str, steps: Vec<WorkStep>) -> Launch {
        Launch::new(label.into(), steps.into())
    }

    /// Registers `names` on an engine, as a run does, and hands the
    /// recorder the name table; returns the ids.
    fn resources(rec: &mut Recorder, names: &[&str]) -> Vec<ResourceId> {
        let mut engine = sevf_sim::DesEngine::new();
        let ids = names.iter().map(|n| engine.add_resource(*n, 1)).collect();
        rec.resource_names(engine.resource_names());
        ids
    }

    #[test]
    fn disabled_recorder_builds_an_empty_log() {
        let mut rec = Recorder::disabled();
        assert!(!rec.on());
        rec.arrival(0, &"c".into(), ms(0));
        rec.terminal(0, Outcome::Completed, ms(5));
        let log = rec.build();
        assert!(log.spans.is_empty());
        assert!(log.outcomes.is_empty());
    }

    #[test]
    fn one_request_tree_tiles_queue_wait_and_steps() {
        let mut rec = Recorder::enabled();
        let psp = resources(&mut rec, &["psp"])[0];
        rec.arrival(0, &"tiny".into(), ms(0));
        rec.queued(0);
        let steps = vec![psp_step("LAUNCH", ms(4))];
        rec.attempt_start(0, 7, None, launch("tiny cold", steps), ms(2));
        rec.attempt_end(7, ms(8));
        rec.terminal(0, Outcome::Completed, ms(8));
        // The psp slot only freed at t=3: one extra wait inside the attempt.
        rec.occupy(psp, 7, ms(3), ms(7));
        // Padding the job with trailing cpu-free time up to t=8 is the
        // attempt-end's business; the step ends at 7, attempt end is 8.
        let log = rec.build();

        let root = log.request_root(0).expect("root");
        assert_eq!(root.kind, SpanKind::Request);
        assert_eq!(root.start, ms(0));
        assert_eq!(root.end, ms(8));
        let children = log.children(root.id);
        assert_eq!(children.len(), 2, "queue wait + attempt");
        assert_eq!(children[0].kind, SpanKind::Wait);
        assert_eq!(children[0].name, "queue wait");
        assert_eq!((children[0].start, children[0].end), (ms(0), ms(2)));
        let attempt = children[1];
        assert_eq!(attempt.kind, SpanKind::Attempt);
        assert_eq!((attempt.start, attempt.end), (ms(2), ms(8)));
        let inner = log.children(attempt.id);
        assert_eq!(inner.len(), 2, "resource wait + step");
        assert_eq!(inner[0].name, "wait psp");
        assert_eq!(inner[1].resource.as_deref(), Some("psp"));
        assert_eq!((inner[1].start, inner[1].end), (ms(3), ms(7)));
    }

    #[test]
    fn retry_backoff_appears_between_attempts() {
        let mut rec = Recorder::enabled();
        let psp = resources(&mut rec, &["psp"])[0];
        rec.arrival(3, &"tiny".into(), ms(0));
        let try1 = launch("try 1", vec![psp_step("L", ms(2))]);
        rec.attempt_start(3, 0, None, try1, ms(0));
        rec.attempt_end(0, ms(2));
        rec.retry_wait(3, 1, ms(2), ms(5));
        let try2 = launch("try 2", vec![psp_step("L", ms(2))]);
        rec.attempt_start(3, 1, None, try2, ms(5));
        rec.attempt_end(1, ms(7));
        rec.terminal(3, Outcome::Completed, ms(7));
        rec.occupy(psp, 0, ms(0), ms(2));
        rec.occupy(psp, 1, ms(5), ms(7));
        let log = rec.build();
        let root = log.request_root(3).unwrap();
        let kinds: Vec<SpanKind> = log.children(root.id).iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![SpanKind::Attempt, SpanKind::Backoff, SpanKind::Attempt]
        );
        assert_eq!(log.retry_waits(), 1);
        assert_eq!(log.children(root.id)[1].name, "backoff #1");
        let total: Nanos = log.leaves(3).iter().map(|s| s.duration()).sum();
        assert_eq!(total, root.duration(), "leaves partition the root");
    }

    #[test]
    fn shed_request_is_a_zero_length_tree() {
        let mut rec = Recorder::enabled();
        rec.arrival(1, &"tiny".into(), ms(4));
        rec.terminal(1, Outcome::Shed, ms(4));
        let log = rec.build();
        let root = log.request_root(1).unwrap();
        assert_eq!(root.duration(), Nanos::ZERO);
        assert_eq!(log.count_outcome(Outcome::Shed), 1);
        assert!(log.children(root.id).is_empty());
    }

    #[test]
    fn background_trees_carry_no_request() {
        let mut rec = Recorder::enabled();
        let psp = resources(&mut rec, &["psp"])[0];
        let refill = launch("refill tiny", vec![psp_step("L", ms(3))]);
        rec.background(9, None, refill, ms(1));
        rec.background_end(9, ms(4));
        rec.occupy(psp, 9, ms(1), ms(4));
        let log = rec.build();
        let root = log.roots().next().unwrap();
        assert_eq!(root.kind, SpanKind::Background);
        assert_eq!(root.request, None);
        assert_eq!(root.duration(), ms(3));
    }

    #[test]
    fn markers_count_by_kind() {
        let mut rec = Recorder::enabled();
        rec.fault(FaultKind::PspReset, Some(0), None, ms(1));
        rec.fault(FaultKind::PspReset, None, Some(2), ms(2));
        rec.marker(MarkerKind::Failover, Some(0), Some(1), ms(2));
        rec.marker(MarkerKind::Placement { host: 1 }, Some(0), Some(1), ms(0));
        let log = rec.build();
        assert_eq!(log.count_fault(FaultKind::PspReset), 2);
        assert_eq!(log.total_faults(), 2);
        assert_eq!(log.failovers(), 1);
        assert_eq!(log.count_marker(MarkerKind::Placement { host: 1 }), 1);
    }

    #[test]
    fn launch_overlay_cuts_the_shared_prefix_and_appends() {
        let shared: Arc<[WorkStep]> = vec![
            psp_step("A", ms(4)),
            psp_step("B", Nanos::ZERO),
            psp_step("C", ms(6)),
        ]
        .into();
        let full = Launch::new("x".into(), shared.clone());
        let plan = |l: &Launch| -> Vec<(String, Nanos)> {
            l.steps().map(|(s, d)| (s.label.to_string(), d)).collect()
        };
        assert_eq!(plan(&full).len(), 3);
        assert_eq!(full.psp_work(), ms(10));

        // A cut takes whole steps while the budget lasts (zero-length ones
        // included) and cuts the last one short.
        let mut cut = full.clone();
        cut.truncate(ms(7));
        assert_eq!(
            plan(&cut),
            vec![
                ("A".into(), ms(4)),
                ("B".into(), Nanos::ZERO),
                ("C".into(), ms(3))
            ]
        );
        let mut exact = full.clone();
        exact.truncate(ms(4));
        assert_eq!(plan(&exact), vec![("A".into(), ms(4))]);
        let mut none = full.clone();
        none.truncate(Nanos::ZERO);
        assert!(plan(&none).is_empty());

        // Overlay steps follow the (possibly cut) prefix; the shared steps
        // are never copied.
        none.push(WorkStep::new(
            ResourceClass::Network,
            PhaseKind::Attestation,
            "hang",
            ms(2),
        ));
        assert_eq!(plan(&none), vec![("hang".into(), ms(2))]);
        assert_eq!(none.psp_work(), Nanos::ZERO);
        assert_eq!(Arc::strong_count(&shared), 5);
    }

    #[test]
    fn request_spans_are_indexed_contiguously() {
        let mut rec = Recorder::enabled();
        for r in [2, 0] {
            rec.arrival(r, &"tiny".into(), ms(r as u64));
            rec.queued(r);
        }
        rec.terminal(0, Outcome::Shed, ms(3));
        rec.terminal(2, Outcome::Shed, ms(4));
        let log = rec.build();
        assert_eq!(log.request_range(0), 0..2, "root + queue wait");
        assert_eq!(log.request_range(1), 0..0, "never arrived");
        assert_eq!(log.request_range(2), 2..4);
        assert_eq!(log.request_range(99), 0..0);
        assert!(log.request_root(1).is_none());
        assert_eq!(log.request_root(2).unwrap().id, 2);
        assert_eq!(log.leaves(2).len(), 1);
    }
}
