//! Regenerates every table and figure of the SEVeriFast paper.
//!
//! ```text
//! cargo run --release -p sevf-bench --bin figures -- --list
//! cargo run --release -p sevf-bench --bin figures -- --all
//! cargo run --release -p sevf-bench --bin figures -- --fig 9 --scale quick
//! cargo run --release -p sevf-bench --bin figures -- --table cluster
//! cargo run --release -p sevf-bench --bin figures -- --all --out data/
//! ```

use severifast::experiments::{self as exp, ExperimentScale};
use severifast::BootPolicy;
use sevf_bench::{fmt_ms, mib, render_table, write_dumps, FigureDump, Json};
use sevf_cluster::attsweep as att_exp;
use sevf_cluster::experiment as cluster_exp;
use sevf_cluster::netsweep as net_exp;
use sevf_cluster::policysweep as policy_exp;
use sevf_cluster::scalesweep as scale_exp;
use sevf_fleet::chaos as fleet_chaos;
use sevf_fleet::experiment as fleet_exp;
use sevf_sim::stats::cdf;

/// Every figure/table id with a one-line description. This registry is the
/// single source of truth: it drives `--list`, the `--all` ordering, and
/// dispatch, so ids can never drift out of the usage text again.
const FIGURES: &[(&str, &str)] = &[
    ("3", "OVMF SEV-SNP boot phase breakdown"),
    ("4", "pre-encryption time vs component size"),
    ("5", "measured direct boot step costs per codec"),
    ("7", "pre-encrypt or generate boot structures"),
    ("8", "guest kernel configurations"),
    ("9", "end-to-end boot CDFs including attestation"),
    (
        "10",
        "pre-encryption and firmware/boot verification breakdown",
    ),
    ("11", "stock Firecracker vs SEVeriFast boot breakdown"),
    ("12", "concurrent launches against the PSP bottleneck"),
    ("mem", "memory footprint of SEV support (§6.3)"),
    (
        "warm",
        "warm start: keep-alive rent and the dedup wall (§7.1)",
    ),
    (
        "fw12",
        "Fig. 12 with shared-key template launches (§6.2 future work)",
    ),
    (
        "fleet",
        "single-host serving: cold vs template vs warm pool",
    ),
    ("chaos", "fleet availability under a seeded fault storm"),
    (
        "cluster",
        "multi-host scale-out, placement policies, and an outage drill",
    ),
    (
        "trace",
        "per-request critical paths: cold, template hit, failover recovery",
    ),
    (
        "attplane",
        "attestation plane: naive vs cached vs batched verification, a TCB storm, a revocation drill",
    ),
    (
        "net",
        "partition tolerance: link faults, failure detection, leases, and a verifier blackout",
    ),
    (
        "policy",
        "multi-tenant QoS: FIFO vs weighted-fair PSP scheduling, quotas, posture placement",
    ),
    (
        "autoscale",
        "trace-driven autoscaling: static vs reactive vs predictive over a flash crowd",
    ),
    (
        "perf",
        "harness raw speed: calendar vs heap DES, full vs incremental hashing",
    ),
    (
        "headline",
        "cold-start reduction over the QEMU/OVMF baseline",
    ),
];

struct Args {
    figures: Vec<String>,
    scale: ExperimentScale,
    out: Option<std::path::PathBuf>,
}

fn usage() -> String {
    let ids: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
    format!(
        "usage: figures [--all] [--list] [--fig <id>]... [--table <id>]...\n       \
         [--scale quick|full] [--out <dir>]\nids: {}",
        ids.join(", ")
    )
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n{}", usage());
    std::process::exit(2);
}

fn print_list() {
    let width = FIGURES.iter().map(|(id, _)| id.len()).max().unwrap_or(0);
    for (id, description) in FIGURES {
        println!("{id:width$}  {description}");
    }
}

fn parse_args() -> Args {
    let mut figures = Vec::new();
    let mut scale = ExperimentScale::full();
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                print_list();
                std::process::exit(0);
            }
            "--all" => {
                figures = FIGURES.iter().map(|(id, _)| id.to_string()).collect();
            }
            "--fig" | "--table" => match args.next() {
                Some(fig) => figures.push(fig),
                None => usage_error("--fig takes a value"),
            },
            "--scale" => {
                scale = match args.next().as_deref() {
                    Some("quick") => ExperimentScale::quick(),
                    Some("full") => ExperimentScale::full(),
                    Some(other) => usage_error(&format!("unknown scale '{other}'")),
                    None => usage_error("--scale takes a value"),
                };
            }
            "--out" => match args.next() {
                Some(dir) => out = Some(std::path::PathBuf::from(dir)),
                None => usage_error("--out takes a directory"),
            },
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }
    if figures.is_empty() {
        figures.push("headline".into());
    }
    Args {
        figures,
        scale,
        out,
    }
}

fn main() {
    let args = parse_args();
    let mut dumps: Vec<FigureDump> = Vec::new();
    for fig in &args.figures {
        let dump = match fig.as_str() {
            "3" => fig3(&args.scale),
            "4" => fig4(),
            "5" => fig5(&args.scale),
            "7" => fig7(),
            "8" => fig8(&args.scale),
            "9" => fig9(&args.scale),
            "10" => fig10(&args.scale),
            "11" => fig11(&args.scale),
            "12" => fig12(&args.scale),
            "mem" => mem_table(),
            "warm" => warm_table(&args.scale),
            "fw12" => fw12(&args.scale),
            "fleet" => fleet_table(),
            "chaos" => chaos_table(&args.scale),
            "cluster" => cluster_table(&args.scale),
            "attplane" => attplane_table(&args.scale),
            "net" => net_table(&args.scale),
            "policy" => policy_table(&args.scale),
            "autoscale" => autoscale_table(&args.scale),
            "trace" => trace_table(&args.scale),
            "perf" => perf_table(&args.scale),
            "headline" => headline(&args.scale),
            other => usage_error(&format!("unknown figure '{other}' (see --list)")),
        };
        dumps.push(dump);
    }
    if let Some(dir) = &args.out {
        write_dumps(dir, &dumps).expect("write JSON dumps");
        eprintln!("wrote {} JSON dump(s) to {}", dumps.len(), dir.display());
    }
}

fn fig3(scale: &ExperimentScale) -> FigureDump {
    let slices = exp::fig3_ovmf_phases(scale).expect("fig3 boot");
    let total: f64 = slices.iter().map(|s| s.ms).sum();
    println!("\n=== Figure 3: OVMF SEV-SNP boot phase breakdown ===");
    println!("(paper: >3 s total; the Boot Verifier is a small sliver)\n");
    let rows: Vec<Vec<String>> = slices
        .iter()
        .map(|s| {
            vec![
                s.label.clone(),
                fmt_ms(s.ms),
                format!("{:.1}%", 100.0 * s.ms / total),
            ]
        })
        .collect();
    println!("{}", render_table(&["phase", "ms", "share"], &rows));
    println!("total: {} ms", fmt_ms(total));
    FigureDump {
        id: "fig3".into(),
        caption: "OVMF boot process with SEV-SNP".into(),
        data: Json::Arr(
            slices
                .iter()
                .map(|s| {
                    Json::obj([
                        ("phase", Json::from(s.label.clone())),
                        ("ms", Json::from(s.ms)),
                    ])
                })
                .collect(),
        ),
    }
}

fn fig4() -> FigureDump {
    let points = exp::fig4_preencryption();
    println!("\n=== Figure 4: pre-encryption time vs component size ===");
    println!("(paper: linear; 23 MB vmlinux ≈ 5.65 s, 3.3 MB bzImage ≈ 840 ms)\n");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                if p.label.is_empty() {
                    "·".into()
                } else {
                    p.label.clone()
                },
                mib(p.bytes),
                fmt_ms(p.ms),
            ]
        })
        .collect();
    println!("{}", render_table(&["component", "MiB", "ms"], &rows));
    FigureDump {
        id: "fig4".into(),
        caption: "Pre-encryption cost scales linearly with size".into(),
        data: Json::Arr(
            points
                .iter()
                .map(|p| {
                    Json::obj([
                        ("label", Json::from(p.label.clone())),
                        ("bytes", Json::from(p.bytes)),
                        ("ms", Json::from(p.ms)),
                    ])
                })
                .collect(),
        ),
    }
}

fn fig5(scale: &ExperimentScale) -> FigureDump {
    let rows = exp::fig5_measured_direct_boot(scale);
    println!("\n=== Figure 5: measured direct boot step costs per codec ===");
    println!("(paper: LZ4 bzImage wins for kernels; uncompressed initrd wins)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.component.clone(),
                r.codec.name().into(),
                mib(r.transferred_bytes),
                fmt_ms(r.copy_ms),
                fmt_ms(r.hash_ms),
                fmt_ms(r.decompress_ms),
                fmt_ms(r.total_ms()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "component",
                "codec",
                "MiB",
                "copy",
                "hash",
                "decompress",
                "total(ms)"
            ],
            &table
        )
    );
    FigureDump {
        id: "fig5".into(),
        caption: "Measured direct boot favors LZ4 kernels, raw initrds".into(),
        data: Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("component", Json::from(r.component.clone())),
                        ("codec", Json::from(r.codec.name())),
                        ("bytes", Json::from(r.transferred_bytes)),
                        ("copy_ms", Json::from(r.copy_ms)),
                        ("hash_ms", Json::from(r.hash_ms)),
                        ("decompress_ms", Json::from(r.decompress_ms)),
                    ])
                })
                .collect(),
        ),
    }
}

fn fig7() -> FigureDump {
    let rows = exp::fig7_structures();
    println!("\n=== Figure 7: pre-encrypt or generate boot structures ===\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.into(),
                r.purpose.into(),
                format!("{} B", r.struct_bytes),
                if r.code_bytes == 0 {
                    "N/A".into()
                } else {
                    format!("{:.1} KB", r.code_bytes as f64 / 1024.0)
                },
                r.decision.into(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "structure",
                "purpose",
                "struct size",
                "code size",
                "decision"
            ],
            &table
        )
    );
    FigureDump {
        id: "fig7".into(),
        caption: "Pre-encrypt a structure iff generating code is larger".into(),
        data: Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("name", Json::from(r.name)),
                        ("struct_bytes", Json::from(r.struct_bytes)),
                        ("code_bytes", Json::from(r.code_bytes)),
                        ("decision", Json::from(r.decision)),
                    ])
                })
                .collect(),
        ),
    }
}

fn fig8(scale: &ExperimentScale) -> FigureDump {
    let rows = exp::fig8_kernels(scale);
    println!("\n=== Figure 8: guest kernels ===");
    println!("(paper: 23/3.3, 43/7.1, 61/15 MB)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.config.clone(), mib(r.vmlinux_bytes), mib(r.bzimage_bytes)])
        .collect();
    println!(
        "{}",
        render_table(&["config", "vmlinux MiB", "bzImage MiB"], &table)
    );
    FigureDump {
        id: "fig8".into(),
        caption: "Kernel configurations".into(),
        data: Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("config", Json::from(r.config.clone())),
                        ("vmlinux", Json::from(r.vmlinux_bytes)),
                        ("bzimage", Json::from(r.bzimage_bytes)),
                    ])
                })
                .collect(),
        ),
    }
}

fn cdf_json(samples: &[f64]) -> Json {
    Json::Arr(
        cdf(samples)
            .into_iter()
            .map(|(x, p)| Json::Arr(vec![Json::from(x), Json::from(p)]))
            .collect(),
    )
}

fn fig9(scale: &ExperimentScale) -> FigureDump {
    let series = exp::fig9_boot_cdfs(scale).expect("fig9 boots");
    println!("\n=== Figure 9: end-to-end boot CDFs (incl. attestation) ===");
    println!("(paper: SEVeriFast reduces means by 93.8/88.5/86.1 %)\n");
    let table: Vec<Vec<String>> = series
        .iter()
        .map(|s| {
            let summary = sevf_sim::Summary::from_values(&s.samples_ms);
            vec![
                s.policy.name().into(),
                s.kernel.clone(),
                fmt_ms(summary.mean),
                fmt_ms(summary.p50),
                fmt_ms(summary.p99),
                fmt_ms(summary.stddev),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["policy", "kernel", "mean", "p50", "p99", "σ"], &table)
    );
    FigureDump {
        id: "fig9".into(),
        caption: "CDF of boot times, SEVeriFast vs QEMU/OVMF".into(),
        data: Json::Arr(
            series
                .iter()
                .map(|s| {
                    Json::obj([
                        ("policy", Json::from(s.policy.name())),
                        ("kernel", Json::from(s.kernel.clone())),
                        ("cdf", cdf_json(&s.samples_ms)),
                    ])
                })
                .collect(),
        ),
    }
}

fn fig10(scale: &ExperimentScale) -> FigureDump {
    let rows = exp::fig10_breakdown(scale).expect("fig10 boots");
    println!("\n=== Figure 10: pre-encryption & firmware/boot verification ===");
    println!("(paper: QEMU ≈ 287.8 ms / 3.2 s; SEVeriFast ≈ 8.2 ms / 20–33 ms)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.name().into(),
                r.kernel.clone(),
                fmt_ms(r.pre_encryption_ms),
                fmt_ms(r.firmware_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "policy",
                "kernel",
                "pre-encryption ms",
                "firmware/verification ms"
            ],
            &table
        )
    );
    FigureDump {
        id: "fig10".into(),
        caption: "Boot time breakdown of SEVeriFast vs QEMU".into(),
        data: Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("policy", Json::from(r.policy.name())),
                        ("kernel", Json::from(r.kernel.clone())),
                        ("pre_encryption_ms", Json::from(r.pre_encryption_ms)),
                        ("firmware_ms", Json::from(r.firmware_ms)),
                    ])
                })
                .collect(),
        ),
    }
}

fn fig11(scale: &ExperimentScale) -> FigureDump {
    let rows = exp::fig11_breakdown(scale).expect("fig11 boots");
    println!("\n=== Figure 11: stock FC vs SEVeriFast (bzImage/vmlinux) ===");
    println!("(paper: SEVeriFast AWS ≈ 4× stock; Linux boot ≈ 2.3× under SNP)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.name().into(),
                r.kernel.clone(),
                fmt_ms(r.vmm_ms),
                fmt_ms(r.verification_ms),
                fmt_ms(r.loader_ms),
                fmt_ms(r.linux_ms),
                fmt_ms(r.total_ms()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "policy",
                "kernel",
                "VMM",
                "verification",
                "loader",
                "linux",
                "total(ms)"
            ],
            &table
        )
    );
    FigureDump {
        id: "fig11".into(),
        caption: "Boot breakdown: stock vs SEVeriFast".into(),
        data: Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("policy", Json::from(r.policy.name())),
                        ("kernel", Json::from(r.kernel.clone())),
                        ("vmm_ms", Json::from(r.vmm_ms)),
                        ("verification_ms", Json::from(r.verification_ms)),
                        ("loader_ms", Json::from(r.loader_ms)),
                        ("linux_ms", Json::from(r.linux_ms)),
                    ])
                })
                .collect(),
        ),
    }
}

fn fig12(scale: &ExperimentScale) -> FigureDump {
    let rows = exp::fig12_concurrency(scale).expect("fig12 boots");
    println!("\n=== Figure 12: concurrent launches ===");
    println!("(paper: SEV linear, ≈1.8 s avg at 50; non-SEV nearly flat)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.name().into(),
                r.concurrency.to_string(),
                fmt_ms(r.mean_ms),
                fmt_ms(r.max_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["policy", "concurrent", "mean ms", "max ms"], &table)
    );
    FigureDump {
        id: "fig12".into(),
        caption: "Average boot time of concurrent guests".into(),
        data: Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("policy", Json::from(r.policy.name())),
                        ("n", Json::from(r.concurrency)),
                        ("mean_ms", Json::from(r.mean_ms)),
                        ("max_ms", Json::from(r.max_ms)),
                    ])
                })
                .collect(),
        ),
    }
}

fn mem_table() -> FigureDump {
    let rows = exp::footprint_table();
    println!("\n=== §6.3: memory footprint ===");
    println!("(paper: +50 KB binary for SEV support; +16 KB per SEV guest)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.name().into(),
                format!("{:.2} MiB", r.binary_bytes as f64 / (1024.0 * 1024.0)),
                format!("{} KiB", r.overhead_bytes / 1024),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["policy", "binary", "runtime overhead"], &table)
    );
    FigureDump {
        id: "mem".into(),
        caption: "Memory footprint".into(),
        data: Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("policy", Json::from(r.policy.name())),
                        ("binary", Json::from(r.binary_bytes)),
                        ("overhead", Json::from(r.overhead_bytes)),
                    ])
                })
                .collect(),
        ),
    }
}

fn warm_table(scale: &ExperimentScale) -> FigureDump {
    let rows = exp::warm_start_analysis(scale).expect("warm boots");
    println!("\n=== §7.1: warm start — keep-alive rent and the dedup wall ===");
    println!("(paper: keep-alive is functionally correct but pages cannot be deduplicated)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.name().into(),
                fmt_ms(r.cold_boot_ms),
                fmt_ms(r.warm_invoke_ms),
                mib(r.resident_bytes),
                format!("{:.1}%", r.dedupable_fraction * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "policy",
                "cold boot ms",
                "warm invoke ms",
                "resident MiB",
                "dedupable"
            ],
            &table
        )
    );
    FigureDump {
        id: "warm".into(),
        caption: "Warm start: latency vs memory rent vs dedup (§7.1)".into(),
        data: Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("policy", Json::from(r.policy.name())),
                        ("cold_ms", Json::from(r.cold_boot_ms)),
                        ("warm_ms", Json::from(r.warm_invoke_ms)),
                        ("resident", Json::from(r.resident_bytes)),
                        ("dedupable", Json::from(r.dedupable_fraction)),
                    ])
                })
                .collect(),
        ),
    }
}

fn fw12(scale: &ExperimentScale) -> FigureDump {
    let rows = exp::futurework_shared_key_concurrency(scale).expect("fw12 boots");
    println!("\n=== Future work (§6.2): Fig. 12 with shared-key template launches ===");
    println!("(the sketched PSP mitigation: per-launch PSP work collapses to ~1 ms)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.concurrency.to_string(),
                fmt_ms(r.mean_ms),
                fmt_ms(r.max_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["concurrent", "mean ms", "max ms"], &table)
    );
    FigureDump {
        id: "fw12".into(),
        caption: "Concurrent shared-key launches (future work)".into(),
        data: Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("n", Json::from(r.concurrency)),
                        ("mean_ms", Json::from(r.mean_ms)),
                        ("max_ms", Json::from(r.max_ms)),
                    ])
                })
                .collect(),
        ),
    }
}

fn fleet_table() -> FigureDump {
    let report =
        fleet_exp::serving_sweep(&fleet_exp::SweepConfig::paper_serving()).expect("fleet sweep");
    println!("\n=== Fleet: serving launch traffic against the PSP bottleneck ===");
    println!(
        "(cold SEV launches serialize {:.1} ms/VM on the PSP → {:.0} req/s ceiling;",
        report.cold_psp_ms, report.cold_capacity_rps
    );
    println!(" template launches and warm pools move the knee out)\n");
    let table: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.tier.name().into(),
                format!("{:.0}", r.offered_rps),
                r.completed.to_string(),
                r.shed.to_string(),
                fmt_ms(r.p50_ms),
                fmt_ms(r.p99_ms),
                format!("{:.0}%", r.psp_utilization * 100.0),
                format!("{:.0}%", r.cpu_utilization * 100.0),
                r.max_queue_depth.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["tier", "req/s", "done", "shed", "p50 ms", "p99 ms", "psp", "cpu", "maxq"],
            &table
        )
    );
    FigureDump {
        id: "fleet".into(),
        caption: "Serving latency vs offered load: cold vs template vs warm pool".into(),
        data: Json::obj([
            ("cold_psp_ms", Json::from(report.cold_psp_ms)),
            ("cold_capacity_rps", Json::from(report.cold_capacity_rps)),
            (
                "rows",
                Json::Arr(
                    report
                        .rows
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("tier", Json::from(r.tier.name())),
                                ("offered_rps", Json::from(r.offered_rps)),
                                ("completed", Json::from(r.completed)),
                                ("shed", Json::from(r.shed)),
                                ("p50_ms", Json::from(r.p50_ms)),
                                ("p99_ms", Json::from(r.p99_ms)),
                                ("psp_utilization", Json::from(r.psp_utilization)),
                                ("cpu_utilization", Json::from(r.cpu_utilization)),
                                ("max_queue_depth", Json::from(r.max_queue_depth)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

fn chaos_table(scale: &ExperimentScale) -> FigureDump {
    // quick() halves the classes and loads; keyed off the same kernel_div
    // knob the other quick-scale figures use.
    let cfg = if scale.kernel_div > 1 {
        fleet_chaos::ChaosConfig::quick()
    } else {
        fleet_chaos::ChaosConfig::paper_chaos()
    };
    let report = fleet_chaos::chaos_sweep(&cfg).expect("chaos sweep");
    println!("\n=== Chaos: fleet availability under a seeded fault storm ===");
    println!(
        "({} PSP firmware resets + {} warm-guest crashes planned over the longest",
        report.planned_resets, report.planned_crashes
    );
    println!(" run; naive and resilient arms replay the identical fault plan)\n");
    let table: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.arm.name().into(),
                format!("{:.0}", r.offered_rps),
                r.completed.to_string(),
                r.failed.to_string(),
                r.timeouts.to_string(),
                (r.shed + r.breaker_sheds).to_string(),
                r.retries.to_string(),
                format!("{:.1}", r.goodput_rps),
                fmt_ms(r.p50_ms),
                fmt_ms(r.p99_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "arm", "req/s", "done", "fail", "t/o", "shed", "retry", "goodput", "p50 ms",
                "p99 ms"
            ],
            &table
        )
    );
    FigureDump {
        id: "chaos".into(),
        caption: "Goodput under a PSP fault storm: no recovery vs retry + degradation".into(),
        data: Json::obj([
            ("planned_resets", Json::from(report.planned_resets)),
            ("planned_crashes", Json::from(report.planned_crashes)),
            (
                "rows",
                Json::Arr(
                    report
                        .rows
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("arm", Json::from(r.arm.name())),
                                ("offered_rps", Json::from(r.offered_rps)),
                                ("completed", Json::from(r.completed)),
                                ("goodput_rps", Json::from(r.goodput_rps)),
                                ("shed", Json::from(r.shed)),
                                ("breaker_sheds", Json::from(r.breaker_sheds)),
                                ("timeouts", Json::from(r.timeouts)),
                                ("failed", Json::from(r.failed)),
                                ("retries", Json::from(r.retries)),
                                ("faults", Json::from(r.faults)),
                                ("degraded_dispatches", Json::from(r.degraded_dispatches)),
                                ("p50_ms", Json::from(r.p50_ms)),
                                ("p99_ms", Json::from(r.p99_ms)),
                                ("time_degraded_ms", Json::from(r.time_degraded_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

fn cluster_table(scale: &ExperimentScale) -> FigureDump {
    let cfg = if scale.kernel_div > 1 {
        cluster_exp::ClusterSweepConfig::quick()
    } else {
        cluster_exp::ClusterSweepConfig::paper_cluster()
    };
    let report = cluster_exp::cluster_sweep(&cfg).expect("cluster sweep");
    for row in &report.rows {
        assert!(
            row.conserved,
            "cluster conservation broke in {}/{}",
            row.arm, row.label
        );
    }
    println!("\n=== Cluster: sharded serving with PSP-aware placement ===");
    println!(
        "(each host's PSP caps cold SEV at ≈{:.0} req/s — the ceiling shards, it",
        report.cold_ceiling_rps
    );
    println!(" never pools; template/warm tiers scale out, affinity placement");
    println!(" measures each template once cluster-wide, goodput holds through a");
    println!(" mid-stream host outage)\n");
    let table: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.arm.into(),
                r.label.clone(),
                r.hosts.to_string(),
                format!("{:.0}", r.offered_rps),
                r.completed.to_string(),
                format!("{:.1}", r.goodput_rps),
                format!("{:.1}", r.per_host_goodput),
                format!("{:.0}%", r.cache_hit_rate * 100.0),
                r.failovers.to_string(),
                format!("{:.2}", r.psp_skew),
                fmt_ms(r.p50_ms),
                fmt_ms(r.p99_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "arm", "cell", "hosts", "req/s", "done", "goodput", "per-host", "hit", "failover",
                "skew", "p50 ms", "p99 ms"
            ],
            &table
        )
    );
    FigureDump {
        id: "cluster".into(),
        caption: "Scale-out, placement policies, and outage failover across hosts".into(),
        data: Json::obj([
            ("cold_ceiling_rps", Json::from(report.cold_ceiling_rps)),
            (
                "rows",
                Json::Arr(
                    report
                        .rows
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("arm", Json::from(r.arm)),
                                ("label", Json::from(r.label.clone())),
                                ("hosts", Json::from(r.hosts)),
                                ("offered_rps", Json::from(r.offered_rps)),
                                ("completed", Json::from(r.completed)),
                                ("goodput_rps", Json::from(r.goodput_rps)),
                                ("per_host_goodput", Json::from(r.per_host_goodput)),
                                ("shed", Json::from(r.shed)),
                                ("unroutable", Json::from(r.unroutable)),
                                ("timeouts", Json::from(r.timeouts)),
                                ("failed", Json::from(r.failed)),
                                ("retries", Json::from(r.retries)),
                                ("failovers", Json::from(r.failovers)),
                                ("rebalances", Json::from(r.rebalances)),
                                ("faults", Json::from(r.faults)),
                                ("cache_hit_rate", Json::from(r.cache_hit_rate)),
                                ("cache_misses", Json::from(r.cache_misses)),
                                ("psp_skew", Json::from(r.psp_skew)),
                                ("p50_ms", Json::from(r.p50_ms)),
                                ("p99_ms", Json::from(r.p99_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

fn attplane_table(scale: &ExperimentScale) -> FigureDump {
    let cfg = if scale.kernel_div > 1 {
        att_exp::AttSweepConfig::quick()
    } else {
        att_exp::AttSweepConfig::paper_attestation()
    };
    let report = att_exp::att_sweep(&cfg).expect("attestation sweep");
    for row in &report.rows {
        assert!(
            row.conserved,
            "attestation conservation broke in {}/{}",
            row.arm, row.mode
        );
    }
    println!("\n=== Attestation plane: verification modes, storm, revocation drill ===");
    println!("(one shared verifier on the cluster clock: naive per-launch checks");
    println!(" re-pay the KDS fetch every time and queue past their ceiling; the");
    println!(" VCEK cache and batch window amortize that cost. A staggered TCB");
    println!(" rollout re-keys every cache; a revoked chip kills its templates");
    println!(" (§6.2) and its guests re-attest on the surviving hosts)\n");
    let table: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.arm.into(),
                r.mode.into(),
                format!("{:.0}", r.offered_rps),
                r.completed.to_string(),
                (r.shed + r.timeouts).to_string(),
                r.failovers.to_string(),
                r.verifications.to_string(),
                format!("{:.0}%", r.hit_rate * 100.0),
                r.batch_joins.to_string(),
                fmt_ms(r.queue_wait_ms),
                fmt_ms(r.p50_ms),
                fmt_ms(r.p99_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "arm", "mode", "req/s", "done", "lost", "failover", "verified", "hit", "joins",
                "q-wait", "p50 ms", "p99 ms"
            ],
            &table
        )
    );
    FigureDump {
        id: "attplane".into(),
        caption: "Attestation verification: naive vs cached vs cached+batched".into(),
        data: Json::Arr(
            report
                .rows
                .iter()
                .map(|r| {
                    Json::obj([
                        ("arm", Json::from(r.arm)),
                        ("mode", Json::from(r.mode)),
                        ("offered_rps", Json::from(r.offered_rps)),
                        ("completed", Json::from(r.completed)),
                        ("shed", Json::from(r.shed)),
                        ("timeouts", Json::from(r.timeouts)),
                        ("failed", Json::from(r.failed)),
                        ("failovers", Json::from(r.failovers)),
                        ("retries", Json::from(r.retries)),
                        ("verifications", Json::from(r.verifications)),
                        ("cert_fetches", Json::from(r.cert_fetches)),
                        ("cert_hits", Json::from(r.cert_hits)),
                        ("hit_rate", Json::from(r.hit_rate)),
                        ("batch_joins", Json::from(r.batch_joins)),
                        ("revoked", Json::from(r.revoked)),
                        ("queue_wait_ms", Json::from(r.queue_wait_ms)),
                        ("p50_ms", Json::from(r.p50_ms)),
                        ("p99_ms", Json::from(r.p99_ms)),
                    ])
                })
                .collect(),
        ),
    }
}

fn net_table(scale: &ExperimentScale) -> FigureDump {
    let cfg = if scale.kernel_div > 1 {
        net_exp::NetSweepConfig::quick()
    } else {
        net_exp::NetSweepConfig::paper_partition()
    };
    let report = net_exp::net_sweep(&cfg).expect("partition sweep");
    for row in &report.rows {
        assert!(
            row.conserved,
            "net conservation broke in {}/{}",
            row.arm, row.policy
        );
    }
    println!("\n=== Network: partition tolerance with and without the control plane ===");
    println!("(each arm replays the identical seeded link schedule twice: the naive");
    println!(" policy keeps dispatching into the cut while the resilient one suspects");
    println!(" via phi-accrual heartbeats, fences the island behind expired leases,");
    println!(" fails its work over, and epoch-fences late completions; the blackout");
    println!(" arm fails open within a bounded staleness budget instead of refusing)\n");
    let table: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.arm.into(),
                r.policy.into(),
                r.completed.to_string(),
                (r.shed + r.timeouts + r.failed).to_string(),
                r.failovers.to_string(),
                r.net_lost.to_string(),
                r.net_nacks.to_string(),
                r.suspicions.to_string(),
                r.lease_expiries.to_string(),
                r.stale_completions.to_string(),
                r.stale_serves.to_string(),
                fmt_ms(r.p50_ms),
                fmt_ms(r.p99_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "arm", "policy", "done", "lost", "failover", "msg-lost", "nacks", "suspect",
                "parked", "fenced", "stale-ok", "p50 ms", "p99 ms"
            ],
            &table
        )
    );
    FigureDump {
        id: "net".into(),
        caption: "Partition tolerance: naive vs resilient over identical link faults".into(),
        data: Json::Arr(
            report
                .rows
                .iter()
                .map(|r| {
                    Json::obj([
                        ("arm", Json::from(r.arm)),
                        ("policy", Json::from(r.policy)),
                        ("completed", Json::from(r.completed)),
                        ("shed", Json::from(r.shed)),
                        ("timeouts", Json::from(r.timeouts)),
                        ("failed", Json::from(r.failed)),
                        ("failovers", Json::from(r.failovers)),
                        ("retries", Json::from(r.retries)),
                        ("suspicions", Json::from(r.suspicions)),
                        ("suspicions_cleared", Json::from(r.suspicions_cleared)),
                        ("false_suspicions", Json::from(r.false_suspicions)),
                        ("lease_expiries", Json::from(r.lease_expiries)),
                        ("net_lost", Json::from(r.net_lost)),
                        ("net_timeouts", Json::from(r.net_timeouts)),
                        ("net_nacks", Json::from(r.net_nacks)),
                        ("stale_completions", Json::from(r.stale_completions)),
                        (
                            "double_completion_attempts",
                            Json::from(r.double_completion_attempts),
                        ),
                        ("stale_serves", Json::from(r.stale_serves)),
                        ("unavailable_refusals", Json::from(r.unavailable_refusals)),
                        ("reverifies", Json::from(r.reverifies)),
                        ("p50_ms", Json::from(r.p50_ms)),
                        ("p99_ms", Json::from(r.p99_ms)),
                    ])
                })
                .collect(),
        ),
    }
}

fn policy_table(scale: &ExperimentScale) -> FigureDump {
    let cfg = if scale.kernel_div > 1 {
        policy_exp::PolicySweepConfig::quick()
    } else {
        policy_exp::PolicySweepConfig::paper_policy()
    };
    let report = policy_exp::policy_sweep(&cfg).expect("policy sweep");
    for arm in &report.arms {
        assert!(
            arm.conserved,
            "policy conservation broke in arm {}",
            arm.arm
        );
        if arm.posture {
            assert_eq!(
                arm.posture_violations, 0,
                "a strict launch landed below its TCB floor"
            );
        }
    }
    for t in &report.tenants {
        assert!(
            t.conserved,
            "per-tenant conservation broke for {}/{}",
            t.arm, t.tenant
        );
    }
    println!("\n=== Policy: multi-tenant QoS over the shared PSPs ===");
    println!("(three tenants, one cluster: a premium latency-sensitive trickle, a");
    println!(" quota-capped batch flood of heavyweight SNP classes, and a posture-");
    println!(" strict tenant that refuses hosts below the patched TCB floor while a");
    println!(" staggered firmware rollout sweeps the fleet. FIFO lets the flood");
    println!(" queue ahead of the trickle; WFQ holds premium's tail without");
    println!(" starving batch; posture placement keeps strict off old firmware)\n");
    let table: Vec<Vec<String>> = report
        .tenants
        .iter()
        .map(|t| {
            vec![
                t.arm.into(),
                t.tenant.into(),
                t.issued.to_string(),
                t.completed.to_string(),
                (t.shed + t.failed).to_string(),
                t.rejected.to_string(),
                t.timeouts.to_string(),
                fmt_ms(t.p50_ms),
                fmt_ms(t.p99_ms),
                fmt_ms(t.deadline_ms),
                if t.slo_met { "ok" } else { "MISS" }.into(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "arm", "tenant", "issued", "done", "shed", "rej", "t/o", "p50 ms", "p99 ms",
                "target", "slo"
            ],
            &table
        )
    );
    let arm_rows: Vec<Vec<String>> = report
        .arms
        .iter()
        .map(|a| {
            vec![
                a.arm.into(),
                a.scheduler.into(),
                a.quotas.to_string(),
                a.posture.to_string(),
                a.completed.to_string(),
                a.rejected.to_string(),
                a.posture_checks.to_string(),
                a.posture_violations.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "arm",
                "sched",
                "quotas",
                "posture",
                "done",
                "rej",
                "checks",
                "violations"
            ],
            &arm_rows
        )
    );
    FigureDump {
        id: "policy".into(),
        caption: "Multi-tenant QoS: FIFO vs WFQ scheduling with quotas and posture".into(),
        data: Json::obj([
            (
                "arms",
                Json::Arr(
                    report
                        .arms
                        .iter()
                        .map(|a| {
                            Json::obj([
                                ("arm", Json::from(a.arm)),
                                ("scheduler", Json::from(a.scheduler)),
                                ("quotas", Json::Bool(a.quotas)),
                                ("posture", Json::Bool(a.posture)),
                                ("completed", Json::from(a.completed)),
                                ("lost", Json::from(a.lost)),
                                ("rejected", Json::from(a.rejected)),
                                ("p50_ms", Json::from(a.p50_ms)),
                                ("p99_ms", Json::from(a.p99_ms)),
                                ("posture_checks", Json::from(a.posture_checks)),
                                ("posture_redirects", Json::from(a.posture_redirects)),
                                ("posture_violations", Json::from(a.posture_violations)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "tenants",
                Json::Arr(
                    report
                        .tenants
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("arm", Json::from(t.arm)),
                                ("tenant", Json::from(t.tenant)),
                                ("issued", Json::from(t.issued)),
                                ("completed", Json::from(t.completed)),
                                ("shed", Json::from(t.shed)),
                                ("timeouts", Json::from(t.timeouts)),
                                ("failed", Json::from(t.failed)),
                                ("rejected", Json::from(t.rejected)),
                                ("degraded", Json::from(t.degraded)),
                                ("p50_ms", Json::from(t.p50_ms)),
                                ("p99_ms", Json::from(t.p99_ms)),
                                ("deadline_ms", Json::from(t.deadline_ms)),
                                ("slo_met", Json::Bool(t.slo_met)),
                                ("goodput_rps", Json::from(t.goodput_rps)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

fn autoscale_table(scale: &ExperimentScale) -> FigureDump {
    let cfg = if scale.kernel_div > 1 {
        scale_exp::ScaleSweepConfig::quick()
    } else {
        scale_exp::ScaleSweepConfig::paper_scale()
    };
    let report = scale_exp::scale_sweep(&cfg).expect("scale sweep");
    for row in &report.rows {
        assert!(row.conserved, "conservation broke in arm {}", row.arm);
    }
    println!("\n=== Autoscale: the cost-vs-p99-vs-shed frontier ===");
    println!("(one flash crowd, three provisioning arms: static pays max_hosts for");
    println!(" the whole run; reactive starts small and chases the backlog, eating");
    println!(" the scale-out latency as tail; predictive forecasts the ramp and");
    println!(" warms spares before they take traffic — warm boots are ~free while");
    println!(" cold SEV launches pin at the per-host PSP ceiling)\n");
    let table: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.arm.into(),
                format!("{}..{}", r.min_live, r.max_live),
                r.issued.to_string(),
                r.completed.to_string(),
                r.lost.to_string(),
                fmt_ms(r.p50_ms),
                fmt_ms(r.p99_ms),
                format!("{:.1}", r.goodput_rps),
                format!("{:.1}", r.host_seconds),
                format!("{}/{}", r.scale_outs, r.scale_ins),
                r.prewarms.to_string(),
                if r.slo_met { "ok" } else { "MISS" }.into(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "arm", "hosts", "issued", "done", "lost", "p50 ms", "p99 ms", "rps", "host-s",
                "out/in", "warm", "slo",
            ],
            &table
        )
    );
    FigureDump {
        id: "autoscale".into(),
        caption: "Trace-driven autoscaling: static vs reactive vs predictive".into(),
        data: Json::obj([(
            "arms",
            Json::Arr(
                report
                    .rows
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("arm", Json::from(r.arm)),
                            ("hosts_start", Json::from(r.hosts_start)),
                            ("issued", Json::from(r.issued)),
                            ("completed", Json::from(r.completed)),
                            ("lost", Json::from(r.lost)),
                            ("p50_ms", Json::from(r.p50_ms)),
                            ("p99_ms", Json::from(r.p99_ms)),
                            ("goodput_rps", Json::from(r.goodput_rps)),
                            ("host_seconds", Json::from(r.host_seconds)),
                            ("ticks", Json::from(r.ticks)),
                            ("scale_outs", Json::from(r.scale_outs)),
                            ("scale_ins", Json::from(r.scale_ins)),
                            ("prewarms", Json::from(r.prewarms)),
                            ("min_live", Json::from(r.min_live)),
                            ("max_live", Json::from(r.max_live)),
                            ("slo_ms", Json::from(r.slo_ms)),
                            ("slo_met", Json::Bool(r.slo_met)),
                        ])
                    })
                    .collect(),
            ),
        )]),
    }
}

fn trace_table(scale: &ExperimentScale) -> FigureDump {
    // Same quick/full switch as the other serving tables.
    let s = sevf_cluster::tracedemo::scenarios(scale.kernel_div > 1).expect("trace scenarios");
    println!("\n=== Trace: per-request critical paths on the shared clock ===");
    println!("(one exemplar per scenario; children tile their parents, so the");
    println!(" per-phase durations sum exactly to the request's metric latency)\n");
    let runs = [&s.cold, &s.template, &s.failover];
    for run in runs {
        let e = &run.exemplar;
        println!(
            "{}: request {} — {} ms over {} attempt(s), {} failover hop(s)",
            run.scenario,
            e.request,
            fmt_ms(e.latency.as_millis_f64()),
            e.attempts,
            e.failover_hops
        );
        let total = e.latency.as_millis_f64();
        let rows: Vec<Vec<String>> = e
            .phases
            .iter()
            .map(|(phase, d)| {
                let ms = d.as_millis_f64();
                vec![
                    phase.to_string(),
                    fmt_ms(ms),
                    format!("{:.1}%", 100.0 * ms / total),
                ]
            })
            .collect();
        println!("{}", render_table(&["phase", "ms", "share"], &rows));
    }
    FigureDump {
        id: "trace".into(),
        caption: "Per-phase critical paths of exemplar requests".into(),
        data: Json::Arr(
            runs.iter()
                .map(|run| {
                    let e = &run.exemplar;
                    Json::obj([
                        ("scenario", Json::from(run.scenario)),
                        ("request", Json::from(e.request)),
                        ("latency_ms", Json::from(e.latency.as_millis_f64())),
                        ("attempts", Json::from(e.attempts)),
                        ("failover_hops", Json::from(e.failover_hops)),
                        (
                            "phases",
                            Json::Arr(
                                e.phases
                                    .iter()
                                    .map(|(phase, d)| {
                                        Json::obj([
                                            ("phase", Json::from(phase.as_str())),
                                            ("ms", Json::from(d.as_millis_f64())),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        ),
    }
}

fn perf_table(scale: &ExperimentScale) -> FigureDump {
    let cfg = if scale.kernel_div > 1 {
        sevf_bench::perf::PerfConfig::quick()
    } else {
        sevf_bench::perf::PerfConfig::full()
    };
    let sweep = sevf_bench::perf::run_sweep(cfg);
    assert!(
        sweep.des.engines_agree,
        "calendar and heap engines diverged"
    );
    assert!(
        sweep.hash.incremental_matches_full,
        "incremental measurement diverged from full re-hash"
    );
    println!("\n=== Perf: harness raw speed (calendar DES, batched SHA-384) ===");
    println!("(same workload through both engines; same image through all three");
    println!(" measurement paths — identical results, different wall-clock)\n");
    let d = &sweep.des;
    let des_rows = vec![
        vec![
            "heap (reference)".into(),
            format!("{:.3}", d.us_per_request_heap()),
            format!("{:.0}", d.events as f64 / d.heap_secs),
            "1.00x".into(),
        ],
        vec![
            "calendar".into(),
            format!("{:.3}", d.us_per_request()),
            format!("{:.0}", d.events_per_sec()),
            format!("{:.2}x", d.speedup()),
        ],
    ];
    println!(
        "{}",
        render_table(&["engine", "us/request", "events/s", "speedup"], &des_rows)
    );
    let h = &sweep.hash;
    let hash_rows = vec![
        vec!["full chain".into(), format!("{:.1}", h.full_mb_per_sec())],
        vec![
            format!("incremental ({} dirty)", h.dirty),
            format!("{:.1}", h.incremental_mb_per_sec()),
        ],
        vec![
            "paged, warm cache".into(),
            format!("{:.1}", h.paged_warm_mb_per_sec()),
        ],
    ];
    println!(
        "{}",
        render_table(&["measurement path", "effective MB/s"], &hash_rows)
    );
    println!("{}", sweep.snapshot().render());
    FigureDump {
        id: "perf".into(),
        caption: "Harness raw speed: DES engines and measurement paths".into(),
        data: sweep.snapshot().to_json(),
    }
}

fn headline(scale: &ExperimentScale) -> FigureDump {
    let reductions = exp::headline_reductions(scale).expect("headline boots");
    println!("\n=== Headline: SEVeriFast vs QEMU/OVMF end-to-end reduction ===");
    println!("(paper abstract: 86–93 %)\n");
    let table: Vec<Vec<String>> = reductions
        .iter()
        .map(|(k, r)| vec![k.clone(), format!("{:.1}%", r * 100.0)])
        .collect();
    println!("{}", render_table(&["kernel", "reduction"], &table));
    let _ = BootPolicy::Severifast;
    FigureDump {
        id: "headline".into(),
        caption: "Cold-start reduction over the QEMU/OVMF baseline".into(),
        data: Json::Arr(
            reductions
                .iter()
                .map(|(k, r)| {
                    Json::obj([
                        ("kernel", Json::from(k.clone())),
                        ("reduction", Json::from(*r)),
                    ])
                })
                .collect(),
        ),
    }
}
