//! Workspace integration tests: full boots across policies, kernels, and
//! SEV generations, exercising every crate together.

use severifast::crypto::hex::to_hex;
use severifast::experiments::ExperimentScale;
use severifast::prelude::*;
use severifast::vmm::config::LaunchMode;

fn machine() -> Machine {
    Machine::new(0xE2E)
}

#[test]
fn all_policies_boot_all_kernels() {
    let mut m = machine();
    for policy in [
        BootPolicy::StockFirecracker,
        BootPolicy::Severifast,
        BootPolicy::SeverifastVmlinux,
        BootPolicy::QemuOvmf,
    ] {
        let mut config = VmConfig::test_tiny(policy);
        if policy == BootPolicy::SeverifastVmlinux {
            config.kernel_codec = Codec::None;
        }
        let vm = MicroVm::new(config).unwrap();
        if policy.is_sev() {
            vm.register_expected(&mut m).unwrap();
        }
        let report = vm.boot(&mut m).unwrap();
        assert!(
            matches!(
                report.outcome,
                BootOutcome::Running | BootOutcome::RunningUnattested
            ),
            "{policy}"
        );
    }
}

#[test]
fn every_bzimage_codec_boots() {
    let mut m = machine();
    for codec in [Codec::Lz4, Codec::Deflate, Codec::Zstd] {
        let mut config = VmConfig::test_tiny(BootPolicy::Severifast);
        config.kernel_codec = codec;
        let vm = MicroVm::new(config).unwrap();
        vm.register_expected(&mut m).unwrap();
        let report = vm.boot(&mut m).unwrap();
        assert_eq!(report.outcome, BootOutcome::Running, "codec {codec}");
    }
}

#[test]
fn compressed_initrd_boots_but_costs_more() {
    let mut m = machine();
    let mut raw = VmConfig::test_tiny(BootPolicy::Severifast);
    raw.initrd_size = 512 * 1024;
    let mut lz4 = raw.clone();
    lz4.initrd_codec = Codec::Lz4;

    let vm_raw = MicroVm::new(raw).unwrap();
    vm_raw.register_expected(&mut m).unwrap();
    let report_raw = vm_raw.boot(&mut m).unwrap();

    let vm_lz4 = MicroVm::new(lz4).unwrap();
    vm_lz4.register_expected(&mut m).unwrap();
    let report_lz4 = vm_lz4.boot(&mut m).unwrap();

    assert_eq!(report_lz4.outcome, BootOutcome::Running);
    // §3.3: our initrd content barely compresses, so the compressed boot
    // pays decompression without saving much copy+hash — it must not win.
    let raw_ms = report_raw.boot_time().as_millis_f64();
    let lz4_ms = report_lz4.boot_time().as_millis_f64();
    assert!(
        lz4_ms > raw_ms * 0.98,
        "compressed initrd should not win: raw {raw_ms:.2} vs lz4 {lz4_ms:.2}"
    );
}

#[test]
fn measurement_is_deterministic_across_machines() {
    // The expected digest depends only on the VM configuration, never on
    // the machine (chip keys must not leak into the measurement).
    let vm = MicroVm::new(VmConfig::test_tiny(BootPolicy::Severifast)).unwrap();
    let digest_a = vm.expected_measurement().unwrap();

    let mut m1 = Machine::new(1);
    let mut m2 = Machine::new(2);
    vm.register_expected(&mut m1).unwrap();
    vm.register_expected(&mut m2).unwrap();
    let r1 = vm.boot(&mut m1).unwrap();
    let r2 = vm.boot(&mut m2).unwrap();
    assert_eq!(r1.measurement.unwrap(), digest_a);
    assert_eq!(r2.measurement.unwrap(), digest_a);
}

#[test]
fn any_config_change_changes_the_measurement() {
    let base = VmConfig::test_tiny(BootPolicy::Severifast);
    let digest = |config: VmConfig| {
        MicroVm::new(config)
            .unwrap()
            .expected_measurement()
            .unwrap()
    };
    let base_digest = digest(base.clone());

    // Different kernel content.
    let mut other_kernel = base.clone();
    other_kernel.kernel = KernelConfig {
        name: "different".into(),
        ..KernelConfig::test_tiny()
    };
    assert_ne!(digest(other_kernel), base_digest);

    // Different codec (different bzImage bytes → different hash page).
    let mut other_codec = base.clone();
    other_codec.kernel_codec = Codec::Deflate;
    assert_ne!(digest(other_codec), base_digest);

    // Different vCPU count (different mptable and VMSA count).
    let mut more_cpus = base.clone();
    more_cpus.vcpus = 2;
    assert_ne!(digest(more_cpus), base_digest);

    // Different initrd (different hash page).
    let mut bigger_initrd = base.clone();
    bigger_initrd.initrd_size = 128 * 1024;
    assert_ne!(digest(bigger_initrd), base_digest);
}

#[test]
fn sev_generations_boot_with_matching_owner_policy() {
    for generation in [
        SevGeneration::Sev,
        SevGeneration::SevEs,
        SevGeneration::SevSnp,
    ] {
        let mut m = machine();
        m.owner.set_required_generation(generation);
        let mut config = VmConfig::test_tiny(BootPolicy::Severifast);
        config.generation = generation;
        let vm = MicroVm::new(config).unwrap();
        vm.register_expected(&mut m).unwrap();
        let report = vm.boot(&mut m).unwrap();
        assert_eq!(
            report.outcome,
            BootOutcome::Running,
            "{}",
            generation.name()
        );
    }
}

#[test]
fn snp_boot_is_slowest_generation() {
    let mut times = Vec::new();
    for generation in [
        SevGeneration::Sev,
        SevGeneration::SevEs,
        SevGeneration::SevSnp,
    ] {
        let mut m = machine();
        m.owner.set_required_generation(generation);
        let mut config = VmConfig::test_tiny(BootPolicy::Severifast);
        config.generation = generation;
        let vm = MicroVm::new(config).unwrap();
        vm.register_expected(&mut m).unwrap();
        times.push(vm.boot(&mut m).unwrap().boot_time());
    }
    assert!(times[0] < times[2], "SEV should boot faster than SNP");
    assert!(times[1] < times[2], "SEV-ES should boot faster than SNP");
}

#[test]
fn psp_accumulates_across_boots_on_one_machine() {
    let mut m = machine();
    let vm = MicroVm::new(VmConfig::test_tiny(BootPolicy::Severifast)).unwrap();
    vm.register_expected(&mut m).unwrap();
    vm.boot(&mut m).unwrap();
    let after_one = m.psp.total_busy;
    vm.boot(&mut m).unwrap();
    assert!(m.psp.total_busy > after_one.scale(2).saturating_sub(Nanos::from_millis(1)));
}

#[test]
fn stock_boot_has_no_sev_artifacts() {
    let mut m = machine();
    let vm = MicroVm::new(VmConfig::test_tiny(BootPolicy::StockFirecracker)).unwrap();
    let report = vm.boot(&mut m).unwrap();
    assert_eq!(report.measurement, None);
    assert_eq!(report.psp_busy, Nanos::ZERO);
    assert_eq!(report.pre_encryption(), Nanos::ZERO);
    assert!(vm.expected_measurement().is_err());
}

#[test]
fn multi_vcpu_guests_boot() {
    let mut m = machine();
    for vcpus in [2u64, 4, 8] {
        let mut config = VmConfig::test_tiny(BootPolicy::Severifast);
        config.vcpus = vcpus;
        let vm = MicroVm::new(config).unwrap();
        vm.register_expected(&mut m).unwrap();
        let report = vm.boot(&mut m).unwrap();
        assert_eq!(report.outcome, BootOutcome::Running, "{vcpus} vcpus");
    }
}

/// The paper-boot VM shape at `ExperimentScale::quick()` (the same config
/// `ExperimentScale::boot` builds).
fn quick_config(policy: BootPolicy, kernel: KernelConfig) -> VmConfig {
    let scale = ExperimentScale::quick();
    let mut config = VmConfig::paper_default(policy, kernel);
    config.initrd_size = severifast::image::initrd::FULL_SIZE / scale.kernel_div;
    config.mem_size = (256 * 1024 * 1024 / scale.kernel_div).max(64 * 1024 * 1024);
    if policy == BootPolicy::SeverifastVmlinux {
        config.kernel_codec = Codec::None;
    }
    config
}

/// Launch digests (hex SHA-384) of every SEV policy × paper kernel at quick
/// scale, plus a shared-key template's cold and hit boots. Taken before
/// component digests were memoized; any change to how the host hashes,
/// stages or pre-encrypts the root of trust must leave them unchanged.
const PINNED_LAUNCH_DIGESTS: &[(&str, &str)] = &[
    (
        "SEVeriFast/lupine-div16",
        "9b028f15d23a2ca388a7bdb00112b9349c0ecefefae3a56c\
         d2de1928c02b336849c3360acd2b87a54029e3cd4c5e74bd",
    ),
    (
        "SEVeriFast/aws-div16",
        "e3968480d85ab96c608f7901ac477c6a4beda985f404ad78\
         f199b92a869ac31160ded4f2b224bb8d60c315e5a78777cc",
    ),
    (
        "SEVeriFast/ubuntu-div16",
        "06256f7ce41d48c4e2611bfc605304e046174b633bece0a6\
         caffb423c1e51533ad5463da2996201eebf53b530003be32",
    ),
    (
        "SEVeriFast vmlinux/lupine-div16",
        "587a2733f24297360d305e5ec4e32697bcb48bdc93d8b313\
         be7857e89b675144ff066f78b2ac8c1d2ec64a76dafaec3a",
    ),
    (
        "SEVeriFast vmlinux/aws-div16",
        "39a4de6009840364b3d1a324ae46ccf740cf80ac18120f1f\
         4b1b9901b5aeae971441535f7857600705c10a34065b2309",
    ),
    (
        "SEVeriFast vmlinux/ubuntu-div16",
        "6f1e5395b07949fadf4ad2a24c2ca2ae04a193639b0abbbd\
         add574076d4436a0f702d5d8b4e08c0839c95944dbca250b",
    ),
    (
        "QEMU/OVMF/lupine-div16",
        "8163e5991d1cdff2f10d5fa4e30e4bb6cba56ef41f228458\
         80924182d13bb5990f81a1f63c55b55eb18f322e90585f59",
    ),
    (
        "QEMU/OVMF/aws-div16",
        "7f2a222505aea4bff60110c1a7c8369a61738edbf8023d27\
         d7572fb4a2ba4c91743141be0e61e95a3dc9bc9d5fb1049e",
    ),
    (
        "QEMU/OVMF/ubuntu-div16",
        "7bbb67ce0fe81b4847dbdff4738a0df0b3f2cadd5bd82782\
         a2051810fb4b7183c8d8953b69d4f601899f83eff487f9b3",
    ),
    (
        "template/cold",
        "e3968480d85ab96c608f7901ac477c6a4beda985f404ad78\
         f199b92a869ac31160ded4f2b224bb8d60c315e5a78777cc",
    ),
    (
        "template/hit",
        "e3968480d85ab96c608f7901ac477c6a4beda985f404ad78\
         f199b92a869ac31160ded4f2b224bb8d60c315e5a78777cc",
    ),
];

#[test]
fn launch_digests_match_the_pinned_values() {
    let mut got = Vec::new();
    for policy in [
        BootPolicy::Severifast,
        BootPolicy::SeverifastVmlinux,
        BootPolicy::QemuOvmf,
    ] {
        for kernel in ExperimentScale::quick().kernels() {
            let label = format!("{policy}/{}", kernel.name);
            let vm = MicroVm::new(quick_config(policy, kernel)).unwrap();
            let expected = vm.expected_measurement().unwrap();
            let mut m = machine();
            vm.register_expected(&mut m).unwrap();
            let report = vm.boot(&mut m).unwrap();
            assert_eq!(report.measurement, Some(expected), "{label}");
            got.push((label, to_hex(&expected)));
        }
    }
    let aws = ExperimentScale::quick().kernels().remove(1);
    let mut config = quick_config(BootPolicy::Severifast, aws);
    config.launch_mode = LaunchMode::SharedKeyTemplate;
    let vm = MicroVm::new(config).unwrap();
    let expected = vm.expected_measurement().unwrap();
    let mut m = machine();
    vm.register_expected(&mut m).unwrap();
    for label in ["template/cold", "template/hit"] {
        let report = vm.boot(&mut m).unwrap();
        assert_eq!(report.outcome, BootOutcome::Running, "{label}");
        got.push((label.to_string(), to_hex(&report.measurement.unwrap())));
    }
    assert_eq!(
        m.templates.len(),
        1,
        "the second boot must hit the template"
    );
    assert_eq!(got[got.len() - 1].1, to_hex(&expected));

    let pinned: Vec<(String, String)> = PINNED_LAUNCH_DIGESTS
        .iter()
        .map(|&(l, d)| (l.to_string(), d.to_string()))
        .collect();
    assert_eq!(got, pinned);
}

/// What a boot report says about the boot itself: every span's label and
/// duration, the outcome, the launch measurement and the PSP time.
type BootFacts = (Vec<(String, Nanos)>, BootOutcome, Option<[u8; 48]>, Nanos);

fn boot_facts(report: &BootReport) -> BootFacts {
    let spans = report
        .timeline
        .spans()
        .iter()
        .map(|s| (s.label.clone(), s.duration))
        .collect();
    (
        spans,
        report.outcome.clone(),
        report.measurement,
        report.psp_busy,
    )
}

#[test]
fn boot_reports_do_not_depend_on_machine_history() {
    // The paper drivers boot these twelve shapes (every policy × every
    // paper kernel), each on a `Machine` that may already have booted
    // others. A report must depend on the shape alone: the same on a fresh
    // machine as on one that has booted every other shape first.
    let scale = ExperimentScale::quick();
    let shapes: Vec<(BootPolicy, KernelConfig)> = [
        BootPolicy::StockFirecracker,
        BootPolicy::Severifast,
        BootPolicy::SeverifastVmlinux,
        BootPolicy::QemuOvmf,
    ]
    .into_iter()
    .flat_map(|policy| scale.kernels().into_iter().map(move |k| (policy, k)))
    .collect();
    assert_eq!(shapes.len(), 12);

    let fresh: Vec<BootFacts> = shapes
        .iter()
        .map(|(policy, kernel)| {
            let mut m = Machine::new(scale.seed);
            boot_facts(&scale.boot(&mut m, *policy, kernel.clone()).unwrap())
        })
        .collect();
    // Two rounds on one machine; in the second (reverse order) every boot
    // follows all eleven other shapes.
    let mut shared = Machine::new(scale.seed);
    let order: Vec<usize> = (0..shapes.len()).chain((0..shapes.len()).rev()).collect();
    for i in order {
        let (policy, kernel) = &shapes[i];
        let report = scale.boot(&mut shared, *policy, kernel.clone()).unwrap();
        assert_eq!(boot_facts(&report), fresh[i], "{policy}/{}", kernel.name);
    }
}
