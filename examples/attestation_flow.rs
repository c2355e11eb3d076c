//! Attestation flow: the three host attacks of §2.6, demonstrated live.
//!
//! ```text
//! cargo run --release --example attestation_flow
//! ```
//!
//! 1. An honest boot attests and receives the tenant's secret.
//! 2. The host swaps the staged kernel → the boot verifier refuses to boot.
//! 3. The host pre-encrypts hashes of a *different* initrd → boot succeeds,
//!    but the guest owner rejects the launch digest.
//! 4. The host substitutes a check-skipping "verifier" → the digest covers
//!    the verifier binary too, so the owner rejects that as well.

use severifast::prelude::*;
use severifast::vmm::VmmError as E;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut machine = Machine::new(99);
    // A small kernel keeps this demo snappy.
    let config = VmConfig::test_tiny(BootPolicy::Severifast);

    // ---------------------------------------------------------------- 1
    println!("1) honest boot");
    let vm = MicroVm::new(config.clone())?;
    vm.register_expected(&mut machine)?;
    let report = vm.boot(&mut machine)?;
    println!(
        "   attested and provisioned {:?} in {}\n",
        String::from_utf8_lossy(report.provisioned_secret.as_deref().unwrap_or(b"?")),
        report.total_time()
    );

    // ---------------------------------------------------------------- 2
    println!("2) host swaps the kernel after hashes are registered");
    // The hashes of the honest kernel are pre-encrypted; the host then
    // stages a different image. The boot verifier re-hashes what was
    // actually staged and refuses.
    demonstrate_kernel_swap(&mut machine)?;
    println!();

    // ---------------------------------------------------------------- 3
    println!("3) host pre-encrypts hashes of malicious components");
    // The host boots its own (malicious) configuration; hashes match, the
    // guest comes up — but the launch digest differs from the one the
    // tenant computed, so attestation fails.
    let evil_config = VmConfig {
        kernel: KernelConfig {
            name: "evil-but-selfconsistent".into(),
            ..KernelConfig::test_tiny()
        },
        ..config.clone()
    };
    let evil_vm = MicroVm::new(evil_config)?;
    // NOT registered with the owner: the tenant never blessed this digest.
    match evil_vm.boot(&mut machine) {
        Err(E::Attest(e)) => println!("   guest owner rejected the report: {e}"),
        other => println!("   UNEXPECTED: {other:?}"),
    }
    println!();

    // ---------------------------------------------------------------- 4
    println!("4) host loads a verifier that skips hash checks");
    // A different verifier binary (here: the vmlinux-loader build standing
    // in for any modified verifier) produces a different launch digest.
    let mut tampered = config.clone();
    tampered.policy = BootPolicy::SeverifastVmlinux;
    tampered.kernel_codec = Codec::None;
    let tampered_vm = MicroVm::new(tampered)?;
    let honest_digest = vm.expected_measurement()?;
    let tampered_digest = tampered_vm.expected_measurement()?;
    assert_ne!(honest_digest, tampered_digest);
    println!(
        "   launch digest changes when the verifier changes:\n     honest   {}…\n     tampered {}…",
        severifast::crypto::hex::to_hex(&honest_digest[..8]),
        severifast::crypto::hex::to_hex(&tampered_digest[..8]),
    );
    match tampered_vm.boot(&mut machine) {
        Err(E::Attest(e)) => println!("   guest owner rejected the report: {e}"),
        other => println!("   UNEXPECTED: {other:?}"),
    }

    Ok(())
}

/// Boots a guest whose staged kernel was swapped after the hash page was
/// registered, by driving the lower-level pieces directly.
fn demonstrate_kernel_swap(machine: &mut Machine) -> Result<(), Box<dyn std::error::Error>> {
    use severifast::image::{initrd, kernel::KernelConfig};
    use severifast::mem::GuestMemory;
    use severifast::verifier::binary::{VerifierBinary, VerifierFeatures};
    use severifast::verifier::hashes::{HashPage, KernelHashes};
    use severifast::verifier::layout::{GuestLayout, HASH_PAGE_ADDR, VERIFIER_ADDR};
    use severifast::verifier::verify::{self, VerifierConfig};

    let good = KernelConfig::test_tiny().build();
    let good_bz = good.bzimage(Codec::Lz4);
    let rd = initrd::build_initrd(64 * 1024);
    let start = machine.psp.launch_start(SevGeneration::SevSnp)?;
    let mut mem = GuestMemory::new_sev(64 << 20, start.memory_key, SevGeneration::SevSnp);
    let layout = GuestLayout::plan(64 << 20, good_bz.len() as u64, rd.len() as u64)
        .map_err(|e| format!("layout: {e}"))?;

    // Hashes of the GOOD kernel are pre-encrypted...
    let hash_page = HashPage {
        kernel: KernelHashes::WholeImage(severifast::crypto::sha256(&good_bz)),
        initrd: severifast::crypto::sha256(&rd),
    };
    mem.host_write(HASH_PAGE_ADDR, &hash_page.to_page())?;
    let verifier = VerifierBinary::build(VerifierFeatures::severifast());
    mem.host_write(VERIFIER_ADDR, verifier.bytes())?;
    machine
        .psp
        .launch_update_data(start.guest, &mut mem, HASH_PAGE_ADDR, 4096)?;
    machine
        .psp
        .launch_update_data(start.guest, &mut mem, VERIFIER_ADDR, verifier.size())?;
    machine.psp.launch_finish(start.guest)?;

    // ...but the host stages an EVIL kernel of the same size.
    let evil = KernelConfig {
        name: "evil".into(),
        ..KernelConfig::test_tiny()
    }
    .build();
    let mut evil_bz = evil.bzimage(Codec::Lz4).to_vec();
    evil_bz.resize(good_bz.len(), 0);
    mem.host_write(layout.kernel_staging, &evil_bz)?;
    mem.host_write(layout.initrd_staging, &rd)?;
    for (base, len) in layout.private_ranges() {
        mem.rmp_assign(base, len)?;
    }

    let cost = machine.cost.clone();
    match verify::run(&mut mem, &layout, &cost, VerifierConfig::severifast()) {
        Err(e) => println!("   boot verifier refused: {e}"),
        Ok(_) => println!("   UNEXPECTED: verifier accepted a swapped kernel"),
    }
    Ok(())
}
