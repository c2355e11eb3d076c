//! Benchmark probe for the SEVeriFast reproduction.
//!
//! `benchmark/run.py` drives this binary. Each invocation does one job for
//! one workload and prints one JSON object on stdout:
//!
//! * `setup`: the workload's set-up only.
//! * `pass`: set-up, then one pass of the workload's fixed work.
//!   `--traced` turns the cluster's own trace recorder on for the pass.
//! * `layers`: the per-layer run. The benchmark records its own spans
//!   around calls into each layer's public functions, keeps them in
//!   memory, and writes them to `--spans` at the end.
//!
//! Every invocation is a fresh process on purpose. The kernel/initrd image
//! caches and the hash-file cache are process-global, so a second set-up
//! in one process would time cache hits. Peak RSS (`VmHWM`) is also per
//! process, so the untraced and traced passes run in separate processes.
//!
//! Usage:
//!
//! ```text
//! sevf-benchmark <setup|pass|layers> --workload <paper-boot|serve-attested|serve-elastic>
//!                --seed <n> [--traced] [--figures <path>] [--spans <path>]
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use severifast::experiments::{self as exp, ExperimentScale};
use sevf_attplane::AttPlaneConfig;
use sevf_bench::Json;
use sevf_cluster::{
    ClusterConfig, ClusterMetrics, ClusterReport, ClusterService, PolicySweepConfig, TcbRollout,
};
use sevf_codec::Codec;
use sevf_crypto::sha2::Sha256;
use sevf_crypto::xex::XexCipher;
use sevf_fleet::{Catalog, ClassSpec, RecoveryConfig, RequestMix, ServingTier};
use sevf_image::kernel::KernelConfig;
use sevf_net::{DetectorConfig, LeaseConfig, LinkSpec, NetConfig};
use sevf_policy::{PolicyConfig, Scheduler};
use sevf_scale::{AutoscalerConfig, Diurnal, Workload as Curve};
use sevf_sim::fault::FaultConfig;
use sevf_sim::stats::{cdf, percentile};
use sevf_sim::Nanos;
use sevf_vmm::config::LaunchMode;
use sevf_vmm::{BootOutcome, BootPolicy, Machine, MicroVm, VmConfig, VmmError};

const MB: u64 = 1024 * 1024;

/// Offered load of both serving workloads (req/s; the diurnal curve's mean).
const RATE: f64 = 240.0;

/// Requests per serving pass. A fixed count, not a duration: per-request
/// host cost grows with run length, and the traced pass keeps about
/// 11 KB/request resident, so the count is sized for the traced pass.
const SERVE_REQUESTS: usize = 100_000;

/// Hosts of the fixed serving fleet (and the elastic fleet's start).
const HOSTS: usize = 4;

/// Jittered samples per Fig. 9 series (the paper's 100 runs).
const CDF_RUNS: usize = 100;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperBoot,
    ServeAttested,
    ServeElastic,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::PaperBoot => "paper-boot",
            Workload::ServeAttested => "serve-attested",
            Workload::ServeElastic => "serve-elastic",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        [
            Workload::PaperBoot,
            Workload::ServeAttested,
            Workload::ServeElastic,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }
}

/// The fields of one job's JSON result.
#[derive(Default)]
struct Fields(BTreeMap<String, Json>);

impl Fields {
    fn put(&mut self, key: impl Into<String>, value: impl Into<Json>) -> &mut Self {
        self.0.insert(key.into(), value.into());
        self
    }

    fn checks(&mut self, failed: &[String]) -> &mut Self {
        let list = failed.iter().map(|s| Json::from(s.as_str())).collect();
        self.put("checks_failed", Json::Arr(list))
    }
}

/// FNV-1a over a byte stream: the digest of a pass's simulated outputs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

// ---------------------------------------------------------------------------
// The benchmark's own spans (per-layer run only)
// ---------------------------------------------------------------------------

struct SpanRec {
    parent: Option<usize>,
    name: String,
    start_us: f64,
    end_us: f64,
}

/// In-memory span recorder. Every span of one layers run shares the
/// run's trace id; `parent` links a span to the one that caused it. A
/// span's id is its index.
struct Spans {
    t0: Instant,
    recs: Vec<SpanRec>,
    stack: Vec<usize>,
    /// Wall time spent inside the recorder itself.
    self_secs: f64,
}

impl Spans {
    fn new() -> Self {
        Spans {
            t0: Instant::now(),
            recs: Vec::new(),
            stack: Vec::new(),
            self_secs: 0.0,
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    fn enter(&mut self, name: &str) {
        let t = Instant::now();
        let start_us = self.now_us();
        self.stack.push(self.recs.len());
        self.recs.push(SpanRec {
            parent: self.stack.iter().rev().nth(1).copied(),
            name: name.into(),
            start_us,
            end_us: start_us,
        });
        self.self_secs += t.elapsed().as_secs_f64();
    }

    /// Closes the innermost span and returns its duration in seconds.
    fn exit(&mut self) -> f64 {
        let end_us = self.now_us();
        let t = Instant::now();
        let rec = &mut self.recs[self.stack.pop().expect("exit matches an enter")];
        rec.end_us = end_us;
        let secs = (rec.end_us - rec.start_us) / 1e6;
        self.self_secs += t.elapsed().as_secs_f64();
        secs
    }

    /// Runs `f` inside a span; returns its result and duration in seconds.
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name);
        let out = f();
        (out, self.exit())
    }

    fn write(&self, path: &str, trace_id: &str) -> std::io::Result<()> {
        let spans = self.recs.iter().enumerate().map(|(id, r)| {
            Json::obj([
                ("trace", Json::from(trace_id)),
                ("id", Json::from(id)),
                ("parent", r.parent.map_or(Json::Null, Json::from)),
                ("name", Json::from(r.name.as_str())),
                ("start_us", Json::from(r.start_us)),
                ("end_us", Json::from(r.end_us)),
            ])
        });
        std::fs::write(path, Json::Arr(spans.collect()).to_pretty() + "\n")
    }
}

// ---------------------------------------------------------------------------
// paper-boot
// ---------------------------------------------------------------------------

/// Builds every image the paper drivers boot: the three paper kernels with
/// their LZ4 bzImages, and the attestation initrd.
fn paper_setup() {
    for kernel in ExperimentScale::full().kernels() {
        kernel.build().bzimage(Codec::Lz4);
    }
    sevf_image::initrd::build_initrd(sevf_image::initrd::FULL_SIZE);
}

/// One figure's series, in the shape `figures` dumps into `data/*.json`.
type Series = Result<Json, VmmError>;

fn fig9(scale: &ExperimentScale) -> Series {
    let series = exp::fig9_boot_cdfs(scale)?.into_iter().map(|s| {
        let points = cdf(&s.samples_ms)
            .into_iter()
            .map(|(x, p)| Json::Arr(vec![Json::from(x), Json::from(p)]));
        Json::obj([
            ("policy", Json::from(s.policy.name())),
            ("kernel", Json::from(s.kernel)),
            ("cdf", Json::Arr(points.collect())),
        ])
    });
    Ok(Json::Arr(series.collect()))
}

fn fig10(scale: &ExperimentScale) -> Series {
    let rows = exp::fig10_breakdown(scale)?.into_iter().map(|r| {
        Json::obj([
            ("policy", Json::from(r.policy.name())),
            ("kernel", Json::from(r.kernel)),
            ("pre_encryption_ms", Json::from(r.pre_encryption_ms)),
            ("firmware_ms", Json::from(r.firmware_ms)),
        ])
    });
    Ok(Json::Arr(rows.collect()))
}

fn fig11(scale: &ExperimentScale) -> Series {
    let rows = exp::fig11_breakdown(scale)?.into_iter().map(|r| {
        Json::obj([
            ("policy", Json::from(r.policy.name())),
            ("kernel", Json::from(r.kernel)),
            ("vmm_ms", Json::from(r.vmm_ms)),
            ("verification_ms", Json::from(r.verification_ms)),
            ("loader_ms", Json::from(r.loader_ms)),
            ("linux_ms", Json::from(r.linux_ms)),
        ])
    });
    Ok(Json::Arr(rows.collect()))
}

fn fig12(scale: &ExperimentScale) -> Series {
    let rows = exp::fig12_concurrency(scale)?.into_iter().map(|r| {
        Json::obj([
            ("policy", Json::from(r.policy.name())),
            ("n", Json::from(r.concurrency)),
            ("mean_ms", Json::from(r.mean_ms)),
            ("max_ms", Json::from(r.max_ms)),
        ])
    });
    Ok(Json::Arr(rows.collect()))
}

fn headline(reductions: &[(String, f64)]) -> Json {
    let rows = reductions.iter().map(|(kernel, reduction)| {
        Json::obj([
            ("kernel", Json::from(kernel.as_str())),
            ("reduction", Json::from(*reduction)),
        ])
    });
    Json::Arr(rows.collect())
}

/// The regenerated figures of one pass.
struct Figures {
    /// `{"fig9": [...], ..., "headline": [...]}`.
    json: String,
    digest: String,
    mean_reduction: f64,
}

/// One pass of the paper drivers at paper scale. `time` wraps each driver
/// call: a span in the layers run, a plain call in the timed pass.
fn paper_pass(
    mut time: impl FnMut(&str, &mut dyn FnMut() -> Series) -> Series,
) -> Result<Figures, String> {
    let scale = ExperimentScale::full();
    let mut reductions = Vec::new();
    let mut figures = BTreeMap::new();
    for (id, key) in [
        ("9", "fig9"),
        ("10", "fig10"),
        ("11", "fig11"),
        ("12", "fig12"),
        ("headline", "headline"),
    ] {
        let series = time(id, &mut || match id {
            "9" => fig9(&scale),
            "10" => fig10(&scale),
            "11" => fig11(&scale),
            "12" => fig12(&scale),
            _ => {
                reductions = exp::headline_reductions(&scale)?;
                Ok(headline(&reductions))
            }
        })
        .map_err(|e| format!("fig {id}: {e}"))?;
        figures.insert(key.to_string(), series);
    }
    let json = Json::Obj(figures).to_pretty();
    let mut digest = Fnv::new();
    digest.bytes(json.as_bytes());
    Ok(Figures {
        json,
        digest: digest.hex(),
        mean_reduction: reductions.iter().map(|(_, r)| r).sum::<f64>() / reductions.len() as f64,
    })
}

/// The Fig. 9 methodology at the workload's seed: the SEVeriFast SNP boot
/// of the AWS kernel, resampled with the seed's jitter stream.
fn paper_sim(seed: u64) -> Result<(f64, f64, bool), String> {
    let scale = ExperimentScale {
        seed,
        ..ExperimentScale::full()
    };
    let mut machine = Machine::new(seed);
    let report = scale
        .boot(&mut machine, BootPolicy::Severifast, KernelConfig::aws())
        .map_err(|e| e.to_string())?;
    let samples = exp::resample_totals(&report, seed ^ BootPolicy::Severifast as u64, CDF_RUNS);
    Ok((
        percentile(&samples, 50.0),
        percentile(&samples, 99.0),
        report.outcome == BootOutcome::Running,
    ))
}

// ---------------------------------------------------------------------------
// Serving workloads
// ---------------------------------------------------------------------------

/// The optional serving layers one run turns on.
#[derive(Clone, Copy, Default)]
struct Layers {
    attplane: bool,
    policy: bool,
    net: bool,
    recovery: bool,
    scale: bool,
}

/// The ladder: rung 0 has no optional layer; each later rung adds one.
/// The last rung is the workload itself.
fn ladder(w: Workload) -> Vec<(&'static str, Layers)> {
    let mut rungs = vec![("cluster", Layers::default())];
    let mut l = Layers::default();
    if w == Workload::ServeAttested {
        l.attplane = true;
        rungs.push(("attplane", l));
        l.policy = true;
        rungs.push(("policy", l));
        l.net = true;
        rungs.push(("net", l));
    } else {
        l.recovery = true;
        rungs.push(("fleet.recovery", l));
        l.scale = true;
        rungs.push(("scale", l));
    }
    rungs
}

fn full_layers(w: Workload) -> Layers {
    ladder(w).last().expect("ladder has rungs").1
}

/// The paper request classes at 1/16 image scale.
fn serve_classes() -> Vec<ClassSpec> {
    ClassSpec::paper_classes(16, 256 * MB)
}

fn serve_config(w: Workload, seed: u64, layers: Layers) -> ClusterConfig {
    let tier = if w == Workload::ServeAttested {
        ServingTier::Template
    } else {
        ServingTier::WarmPool
    };
    // Every arrival lands well inside the horizon the net and fault
    // schedules cover.
    let horizon = Nanos::from_secs((SERVE_REQUESTS as f64 / RATE) as u64 * 2 + 60);
    let mut c = ClusterConfig {
        mix: Some(RequestMix::weighted(vec![
            (0, 5),
            (1, 3),
            (2, 1),
            (3, 1),
            (4, 2),
        ])),
        seed,
        recovery: RecoveryConfig::resilient(seed),
        ..ClusterConfig::open_loop(HOSTS, tier, RATE, SERVE_REQUESTS)
    };
    if w == Workload::ServeElastic {
        c.placement = sevf_cluster::PlacementPolicy::WarmReady;
        c.workload = Some(Curve::Diurnal(Diurnal {
            base: RATE,
            amplitude: 0.8 * RATE,
            period: Nanos::from_secs(120),
        }));
        // Here recovery is a rung of its own, switched on with the faults
        // it recovers from.
        if !layers.recovery {
            c.recovery = RecoveryConfig::none();
        }
    }
    if layers.attplane {
        c.attestation = Some(AttPlaneConfig::cached_batched());
        c.tcb_rollout = Some(TcbRollout {
            start: Nanos::from_millis(1500),
            stagger: Nanos::from_millis(200),
        });
    }
    if layers.policy {
        c.policy = Some(PolicyConfig {
            tenants: PolicySweepConfig::paper_policy().tenants(),
            scheduler: Scheduler::Wfq,
            quotas: false,
            posture: true,
        });
    }
    if layers.net {
        c.net = Some(NetConfig {
            link: LinkSpec::datacenter(),
            partitions: Vec::new(),
            horizon,
            dispatch_timeout: Nanos::from_millis(50),
            heartbeat_every: Nanos::from_millis(50),
            detector: Some(DetectorConfig::default()),
            lease: Some(LeaseConfig {
                duration: Nanos::from_millis(300),
                renew_every: Nanos::from_millis(100),
            }),
        });
    }
    if layers.recovery {
        c.fault = Some(FaultConfig::storm());
        c.fault_horizon = horizon;
    }
    if layers.scale {
        c.autoscaler = Some(AutoscalerConfig::predictive(2, 8));
    }
    c
}

/// Digest of everything a serving pass simulated.
fn report_digest(r: &ClusterReport) -> String {
    let m = &r.metrics;
    let mut d = Fnv::new();
    for v in [
        m.issued as u64,
        m.completed as u64,
        m.shed,
        m.breaker_sheds,
        m.timeouts,
        m.failed,
        m.rejected,
        m.retries,
        m.failovers,
        m.makespan.as_nanos(),
        m.host_seconds.to_bits(),
        r.trace.entries().len() as u64,
    ] {
        d.u64(v);
    }
    for l in &m.latencies_ms {
        d.u64(l.to_bits());
    }
    d.hex()
}

/// The serving correctness checks: conservation, no posture violation, and
/// every request issued.
fn serve_checks(r: &ClusterReport) -> Vec<String> {
    let m = &r.metrics;
    let mut failed = Vec::new();
    if !m.conserved() {
        failed.push(format!(
            "conservation: completed {} + lost {} != issued {}",
            m.completed,
            m.lost(),
            m.issued
        ));
    }
    if m.posture_violations != 0 {
        failed.push(format!("posture violations: {}", m.posture_violations));
    }
    if m.issued != SERVE_REQUESTS {
        failed.push(format!("issued {} of {SERVE_REQUESTS}", m.issued));
    }
    failed
}

fn serve_setup(w: Workload, seed: u64) -> Result<ClusterService, String> {
    let catalog = Catalog::build(seed, &serve_classes()).map_err(|e| e.to_string())?;
    ClusterService::new(catalog, serve_config(w, seed, full_layers(w))).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

fn job_setup(w: Workload, seed: u64) -> Result<Fields, String> {
    let t = Instant::now();
    if w == Workload::PaperBoot {
        paper_setup();
    } else {
        std::hint::black_box(serve_setup(w, seed)?);
    }
    let mut o = Fields::default();
    o.put("setup_s", t.elapsed().as_secs_f64());
    Ok(o)
}

fn job_pass(w: Workload, seed: u64, traced: bool, figures: Option<&str>) -> Result<Fields, String> {
    let mut o = Fields::default();
    if w == Workload::PaperBoot {
        let t = Instant::now();
        paper_setup();
        o.put("setup_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let figs = paper_pass(|_, f| f())?;
        o.put("pass_s", t.elapsed().as_secs_f64())
            .put("peak_rss_mb", peak_rss_mb()?);
        let (p50, p99, running) = paper_sim(seed)?;
        let failed: Vec<String> = (!running)
            .then(|| "seeded Fig. 9 boot did not reach Running".to_string())
            .into_iter()
            .collect();
        o.put("sim_p50_ms", p50)
            .put("sim_p99_ms", p99)
            .put("sim_completed_frac", if running { 1.0 } else { 0.0 })
            .put("digest", figs.digest)
            .checks(&failed);
        if let Some(path) = figures {
            std::fs::write(path, figs.json + "\n").map_err(|e| format!("{path}: {e}"))?;
        }
        return Ok(o);
    }
    let t = Instant::now();
    let service = serve_setup(w, seed)?;
    o.put("setup_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let report = if traced {
        let (report, log) = service.run_traced();
        o.put("pass_s", t.elapsed().as_secs_f64());
        std::hint::black_box(&log);
        report
    } else {
        let report = service.run();
        o.put("pass_s", t.elapsed().as_secs_f64());
        report
    };
    let m = &report.metrics;
    o.put("peak_rss_mb", peak_rss_mb()?)
        .put("sim_p50_ms", m.p50_ms())
        .put("sim_p99_ms", m.p99_ms())
        .put(
            "sim_completed_frac",
            m.completed as f64 / m.issued.max(1) as f64,
        )
        .put("digest", report_digest(&report))
        .checks(&serve_checks(&report));
    Ok(o)
}

/// A workload's own boot-path inputs: the kernels and initrd it builds,
/// its SEVeriFast SNP guest, and its stock guest.
struct BootInputs {
    kernels: Vec<KernelConfig>,
    initrd_size: u64,
    snp: VmConfig,
    stock: VmConfig,
}

impl BootInputs {
    fn of(w: Workload) -> Self {
        if w == Workload::PaperBoot {
            return BootInputs {
                kernels: ExperimentScale::full().kernels(),
                initrd_size: sevf_image::initrd::FULL_SIZE,
                snp: VmConfig::paper_default(BootPolicy::Severifast, KernelConfig::aws()),
                stock: VmConfig::paper_default(BootPolicy::StockFirecracker, KernelConfig::aws()),
            };
        }
        let classes = serve_classes();
        let mut kernels: Vec<KernelConfig> = Vec::new();
        for class in &classes {
            if !kernels.iter().any(|k| k.name == class.config.kernel.name) {
                kernels.push(class.config.kernel.clone());
            }
        }
        let stock = classes
            .iter()
            .find(|c| !c.config.policy.is_sev())
            .expect("the paper mix has a stock class");
        BootInputs {
            kernels,
            initrd_size: classes[0].config.initrd_size,
            snp: classes[0].config.clone(),
            stock: stock.config.clone(),
        }
    }
}

/// Per-layer timings of the real-work boot path, on the workload's own
/// images and VM configs.
fn boot_layers(
    spans: &mut Spans,
    o: &mut Fields,
    checks: &mut Vec<String>,
    seed: u64,
    inputs: &BootInputs,
) -> Result<(), String> {
    let BootInputs {
        kernels,
        initrd_size,
        snp,
        stock,
    } = inputs;

    // image: synthesis of every kernel and the initrd (first build in
    // this process, so no cache hit).
    let (images, k_secs) = spans.time("image.kernel_build", || {
        kernels.iter().map(KernelConfig::build).collect::<Vec<_>>()
    });
    let (initrd, i_secs) = spans.time("image.initrd_build", || {
        sevf_image::initrd::build_initrd(*initrd_size)
    });
    o.put("image.synth_ms", (k_secs + i_secs) * 1e3);

    // codec: the bzImage payload codec over each vmlinux.
    let (payloads, c_secs) = spans.time("codec.compress", || {
        images
            .iter()
            .map(|img| snp.kernel_codec.compress(img.vmlinux()))
            .collect::<Vec<_>>()
    });
    let (decoded, d_secs) = spans.time("codec.decompress", || {
        payloads
            .iter()
            .map(|p| snp.kernel_codec.decompress(p))
            .collect::<Vec<_>>()
    });
    for (img, dec) in images.iter().zip(&decoded) {
        if dec.as_deref().ok() != Some(img.vmlinux()) {
            checks.push(format!("codec round trip of {}", img.config().name));
        }
    }
    let raw: usize = images.iter().map(|i| i.vmlinux().len()).sum();
    let packed: usize = payloads.iter().map(Vec::len).sum();
    o.put("codec.compress_ms", c_secs * 1e3)
        .put("codec.decompress_ms", d_secs * 1e3)
        .put("codec.ratio", raw as f64 / packed.max(1) as f64);

    // The bzImages the boots load (cached from here on, as in set-up).
    let (bzimages, _) = spans.time("image.bzimage", || {
        images
            .iter()
            .map(|img| img.bzimage(snp.kernel_codec))
            .collect::<Vec<_>>()
    });

    // crypto: SHA-256 over the bytes the verifier hashes; XEX over the
    // pre-encryption plan.
    let hashed: usize = bzimages.iter().map(|b| b.len()).sum::<usize>() + initrd.len();
    let (_, sha_secs) = spans.time("crypto.sha256", || {
        for bytes in bzimages.iter().chain([&initrd]) {
            let mut h = Sha256::new();
            h.update(bytes);
            std::hint::black_box(h.finalize());
        }
    });
    o.put("crypto.sha256_mb_s", hashed as f64 / 1e6 / sha_secs);

    let vm = MicroVm::new(snp.clone()).map_err(|e| e.to_string())?;
    let (plan, _) = spans.time("vmm.pre_encryption_plan", || vm.pre_encryption_plan());
    let plan = plan.map_err(|e| e.to_string())?;
    let plan_bytes: usize = plan.iter().map(|i| i.data.len()).sum();
    let cipher = XexCipher::new(&[0x5e; 16]);
    let (_, xex_secs) = spans.time("crypto.xex", || {
        for item in &plan {
            std::hint::black_box(cipher.encrypt(item.gpa, &item.data));
        }
    });
    o.put("crypto.xex_mb_s", plan_bytes as f64 / 1e6 / xex_secs);

    // psp: the launch digest over the plan's pages.
    let (digest, m_secs) = spans.time("psp.expected_measurement", || vm.expected_measurement());
    digest.map_err(|e| e.to_string())?;
    let pages: usize = plan.iter().map(|i| i.data.len().div_ceil(4096)).sum();
    o.put("psp.measure_ms", m_secs * 1e3)
        .put("psp.pages_measured", pages);

    // vmm: one boot per policy or launch mode.
    let mut machine = Machine::new(seed);
    let mut template = snp.clone();
    template.launch_mode = LaunchMode::SharedKeyTemplate;
    let ovmf = VmConfig {
        policy: BootPolicy::QemuOvmf,
        ..snp.clone()
    };
    for (mode, config) in [
        ("cold", snp.clone()),
        ("template_fill", template.clone()),
        ("template_hit", template),
        ("ovmf", ovmf),
        ("stock", stock.clone()),
    ] {
        let vm = MicroVm::new(config).map_err(|e| e.to_string())?;
        if vm.config().policy.is_sev() {
            vm.register_expected(&mut machine)
                .map_err(|e| e.to_string())?;
        }
        let (report, secs) = spans.time(&format!("vmm.boot.{mode}"), || vm.boot(&mut machine));
        let report = report.map_err(|e| format!("{mode} boot: {e}"))?;
        // SEV guests must finish attestation; the stock guest has none.
        if vm.config().policy.is_sev() && report.outcome != BootOutcome::Running {
            checks.push(format!("{mode} boot ended {:?}", report.outcome));
        }
        o.put(format!("vmm.boot_ms.{mode}"), secs * 1e3);
    }
    Ok(())
}

/// The serving layers the ladder can add. Each has a `<name>.delta_us`
/// metric; a workload that bypasses the layer reports 0 for it.
const LADDER_DELTAS: [&str; 5] = ["attplane", "policy", "net", "fleet.recovery", "scale"];

/// The ladder of serving runs, then the traced run; returns the top
/// rung's report.
fn serve_layers(
    spans: &mut Spans,
    o: &mut Fields,
    checks: &mut Vec<String>,
    w: Workload,
    seed: u64,
) -> Result<ClusterReport, String> {
    let (catalog, _) = spans.time("fleet.catalog_build", || {
        Catalog::build(seed, &serve_classes())
    });
    let catalog = catalog.map_err(|e| e.to_string())?;
    let rungs = ladder(w);
    let mut us = Vec::new();
    let mut top = None;
    for (name, layers) in &rungs {
        // Min of two runs per rung.
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let service = ClusterService::new(catalog.clone(), serve_config(w, seed, *layers))
                .map_err(|e| e.to_string())?;
            let (report, secs) = spans.time(&format!("cluster.run.{name}"), || service.run());
            checks.extend(
                serve_checks(&report)
                    .into_iter()
                    .map(|c| format!("rung {name}: {c}")),
            );
            best = best.min(secs);
            top = Some(report);
        }
        us.push(best * 1e6 / SERVE_REQUESTS as f64);
    }
    o.put("cluster.us_per_req", us[0]);
    for name in LADDER_DELTAS {
        let delta = rungs
            .iter()
            .position(|(n, _)| *n == name)
            .map_or(0.0, |i| us[i] - us[i - 1]);
        o.put(format!("{name}.delta_us"), delta);
    }
    let top = top.expect("the ladder ran");
    let service = ClusterService::new(catalog, serve_config(w, seed, full_layers(w)))
        .map_err(|e| e.to_string())?;
    let ((traced, log), secs) = spans.time("obs.run_traced", || service.run_traced());
    std::hint::black_box(&log);
    if report_digest(&traced) != report_digest(&top) {
        checks.push("the trace recorder changed the report".into());
    }
    o.put(
        "obs.recorder_us",
        secs * 1e6 / SERVE_REQUESTS as f64 - us[us.len() - 1],
    );
    Ok(top)
}

fn job_layers(
    w: Workload,
    seed: u64,
    figures: Option<&str>,
    spans_path: &str,
) -> Result<Fields, String> {
    let mut spans = Spans::new();
    let mut o = Fields::default();
    let mut checks = Vec::new();
    let trace_id = format!("{}-{seed}", w.name());
    spans.enter(&trace_id);
    boot_layers(&mut spans, &mut o, &mut checks, seed, &BootInputs::of(w))?;
    if w == Workload::PaperBoot {
        let mut fig_secs = Vec::new();
        let figs = paper_pass(|id, f| {
            let (out, secs) = spans.time(&format!("core.fig.{id}"), f);
            fig_secs.push((id.to_string(), secs));
            out
        })?;
        for (id, secs) in fig_secs {
            o.put(format!("core.fig_s.{id}"), secs);
        }
        o.put("core.boot_reduction", figs.mean_reduction);
        if let Some(path) = figures {
            std::fs::write(path, figs.json + "\n").map_err(|e| format!("{path}: {e}"))?;
        }
        o.put("cluster.us_per_req", 0.0).put("obs.recorder_us", 0.0);
        for name in LADDER_DELTAS {
            o.put(format!("{name}.delta_us"), 0.0);
        }
        serve_counters(&mut o, None);
    } else {
        for id in ["9", "10", "11", "12", "headline"] {
            o.put(format!("core.fig_s.{id}"), 0.0);
        }
        o.put("core.boot_reduction", 0.0);
        let top = serve_layers(&mut spans, &mut o, &mut checks, w, seed)?;
        serve_counters(&mut o, Some(&top));
    }
    let total = spans.exit();
    o.put("bench.span_overhead_frac", spans.self_secs / total)
        .checks(&checks);
    spans
        .write(spans_path, &trace_id)
        .map_err(|e| format!("{spans_path}: {e}"))?;
    Ok(o)
}

/// The exactly-repeating counters of a serving report (zeros when the
/// workload does not serve).
fn serve_counters(o: &mut Fields, r: Option<&ClusterReport>) {
    let default = ClusterMetrics::default();
    let m = r.map_or(&default, |r| &r.metrics);
    let hosts = m.hosts.len().max(1) as f64;
    let att = r.and_then(|r| r.attestation.as_ref());
    let auto = r.and_then(|r| r.autoscale.as_ref());
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    o.put("fleet.template_hit_ratio", m.cache_hit_rate())
        .put(
            "fleet.warm_hits",
            m.hosts.iter().map(|h| h.warm_hits).sum::<u64>(),
        )
        .put("fleet.retries", m.retries)
        .put(
            "fleet.psp_util",
            m.hosts.iter().fold(0.0, |sum, h| sum + h.psp_utilization) / hosts,
        )
        .put("cluster.failovers", m.failovers)
        .put("cluster.psp_skew", m.psp_skew())
        .put("attplane.cert_hit_ratio", att.map_or(0.0, |a| a.hit_rate()))
        .put(
            "attplane.batch_join_ratio",
            att.map_or(0.0, |a| ratio(a.batch_joins, a.batch_setups)),
        )
        .put(
            "attplane.queue_wait_ms",
            att.map_or(0.0, |a| a.mean_queue_wait_ms()),
        )
        .put("net.lost", m.net_lost)
        .put("net.timeouts", m.net_timeouts)
        .put("net.false_suspicions", m.false_suspicions)
        .put("net.lease_expiries", m.lease_expiries)
        .put("net.stale_completions", m.stale_completions)
        .put("policy.rejected", m.rejected)
        .put("policy.posture_redirects", m.posture_redirects)
        .put("policy.posture_violations", m.posture_violations)
        .put("scale.outs", auto.map_or(0, |a| a.scale_outs))
        .put("scale.ins", auto.map_or(0, |a| a.scale_ins))
        .put("scale.prewarms", auto.map_or(0, |a| a.prewarms))
        .put("scale.max_live", auto.map_or(0, |a| a.max_live))
        .put("scale.sim_host_seconds", m.host_seconds)
        .put(
            "sim.trace_entries_per_req",
            r.map_or(0.0, |r| {
                r.trace.entries().len() as f64 / m.issued.max(1) as f64
            }),
        );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: sevf-benchmark <setup|pass|layers> --workload <paper-boot|serve-attested|serve-elastic> --seed <n> [--traced] [--figures <path>] [--spans <path>]";
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let (Some(job), Some(w), Some(seed)) = (
        args.first(),
        flag("--workload").and_then(Workload::parse),
        flag("--seed").and_then(|s| s.parse::<u64>().ok()),
    ) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let traced = args.iter().any(|a| a == "--traced");
    let result = match job.as_str() {
        "setup" => job_setup(w, seed),
        "pass" => job_pass(w, seed, traced, flag("--figures")),
        "layers" => match flag("--spans") {
            Some(path) => job_layers(w, seed, flag("--figures"), path),
            None => Err("layers needs --spans <path>".into()),
        },
        _ => Err(usage.into()),
    };
    match result {
        Ok(o) => println!("{}", Json::Obj(o.0).to_pretty()),
        Err(e) => {
            eprintln!("sevf-benchmark: {e}");
            std::process::exit(1);
        }
    }
}
