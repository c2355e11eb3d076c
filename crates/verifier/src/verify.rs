//! The boot verifier's main sequence: pvalidate, page tables, measured
//! direct boot.
//!
//! This is the code that runs at the guest's (pre-encrypted, measured)
//! entry point. It refuses to boot if any component's hash disagrees with
//! the pre-encrypted hash page — that is the entire defense against attack
//! 1 of §2.6 (host swapping components after their hashes were registered).

use sevf_mem::{GuestMemory, PAGE_SIZE};
use sevf_sim::cost::{CostModel, PAGE_2M, PAGE_4K};
use sevf_sim::Nanos;

use crate::hashes::{HashPage, KernelHashes};
use crate::layout::{GuestLayout, HASH_PAGE_ADDR, PAGE_TABLE_ADDR};
use crate::loader::{self, Step};
use crate::pagetable;
use crate::VerifierError;

/// Which kernel artifact the verifier is configured to load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// A bzImage (the SEVeriFast default).
    Bzimage,
    /// An uncompressed vmlinux via the fw_cfg protocol.
    Vmlinux,
}

/// Verifier runtime configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifierConfig {
    /// Kernel artifact kind.
    pub kind: KernelKind,
    /// Whether the host backs the guest with 2 MiB pages (§6.1: enabling
    /// huge pages takes the pvalidate sweep from >60 ms to <1 ms).
    pub huge_pages: bool,
    /// C-bit position (from the two `cpuid` calls of §5).
    pub c_bit: u32,
    /// Base address of the pre-encrypted firmware blob (the SEVeriFast
    /// verifier, or OVMF for the baseline path).
    pub firmware_base: u64,
    /// Size of that blob: its pages (and the other launch pages) were
    /// validated by firmware and must be *skipped* by the sweep —
    /// re-validating a page the hypervisor remapped would silently accept
    /// the tampered mapping.
    pub firmware_size: u64,
}

impl VerifierConfig {
    /// The paper's configuration: bzImage, huge pages on, C-bit 51.
    pub fn severifast() -> Self {
        VerifierConfig {
            kind: KernelKind::Bzimage,
            huge_pages: true,
            c_bit: sevf_mem::C_BIT_POSITION,
            firmware_base: crate::layout::VERIFIER_ADDR,
            firmware_size: crate::binary::VerifierFeatures::severifast().binary_size(),
        }
    }
}

/// The outcome of a successful verifier run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedBoot {
    /// Where to enter the kernel.
    pub kernel_entry: u64,
    /// Guest-physical address of the (now encrypted) initrd.
    pub initrd_addr: u64,
    /// Initrd length in bytes.
    pub initrd_len: u64,
    /// Costed steps, in execution order, for the caller's timeline.
    pub steps: Vec<Step>,
    /// Number of pages the pvalidate sweep touched.
    pub pvalidated_pages: u64,
}

impl VerifiedBoot {
    /// Total virtual time the verifier spent.
    pub fn total_time(&self) -> Nanos {
        self.steps.iter().map(|s| s.duration).sum()
    }
}

/// Runs the boot verifier against guest memory prepared by the VMM.
///
/// Preconditions (the VMM's half of the contract):
/// * the private range (`layout.private_ranges()`) is RMP-assigned;
/// * the hash page, boot structures, and this verifier are pre-encrypted;
/// * the kernel image and initrd are staged in the shared window.
///
/// # Errors
///
/// * [`VerifierError::HashMismatch`] — tampered component; boot refused.
/// * [`VerifierError::Memory`] — RMP/#VC faults (e.g. the host remapped a
///   page mid-boot).
/// * [`VerifierError::BadHashPage`] / [`VerifierError::Image`] — corrupt
///   root-of-trust contents.
pub fn run(
    mem: &mut GuestMemory,
    layout: &GuestLayout,
    cost: &CostModel,
    config: VerifierConfig,
) -> Result<VerifiedBoot, VerifierError> {
    let mut steps = Vec::new();

    // 1. Discover the C-bit position: two cpuid leaves, each a #VC under
    //    SNP (§5).
    steps.push(Step::new("cpuid C-bit discovery", cost.vc_exit.scale(2)));

    // 2. pvalidate every assigned page the launch firmware did *not*
    //    already validate. The pre-encrypted ranges are skipped by address,
    //    not by RMP state: if the hypervisor remapped one of them, its valid
    //    bit is clear and blindly re-validating would accept the tampered
    //    mapping instead of faulting on it.
    let skip = layout.pre_encrypted_ranges(config.firmware_base, config.firmware_size);
    let skipped = |addr: u64| skip.iter().any(|(b, l)| addr >= *b && addr < b + l);
    let mut pvalidated = 0u64;
    if mem.generation().has_rmp() {
        // `pvalidate` only exists under SEV-SNP (§2.2); SEV/SEV-ES guests
        // have no RMP to populate.
        for (base, len) in layout.private_ranges() {
            let mut page = base;
            while page < base + len {
                if mem.is_assigned(page) && !mem.is_validated(page) && !skipped(page) {
                    mem.pvalidate(page, PAGE_SIZE)?;
                    pvalidated += 1;
                }
                page += PAGE_SIZE;
            }
        }
    }
    let sweep_page_size = if config.huge_pages { PAGE_2M } else { PAGE_4K };
    steps.push(Step::new(
        format!(
            "pvalidate sweep ({} pages at {} granularity)",
            pvalidated,
            if config.huge_pages { "2MiB" } else { "4KiB" }
        ),
        cost.pvalidate_sweep(pvalidated * PAGE_SIZE, sweep_page_size),
    ));

    // 3. Build identity-mapped page tables with the C-bit set (§4.2:
    //    generated in C-bit memory, implicitly encrypting them).
    pagetable::build_identity_map(mem, PAGE_TABLE_ADDR, 1 << 30, config.c_bit, true)?;
    steps.push(Step::new(
        "build identity-mapped page tables (C-bit set)",
        cost.page_table_setup,
    ));

    // 4. Read the pre-encrypted hash page.
    let hash_page_bytes = mem.guest_read(HASH_PAGE_ADDR, PAGE_SIZE, true)?;
    let hash_page = HashPage::from_page(&hash_page_bytes)?;

    // 5. Measured direct boot: kernel.
    let loaded = match config.kind {
        KernelKind::Bzimage => loader::load_bzimage(mem, layout, cost)?,
        KernelKind::Vmlinux => loader::load_vmlinux_fw_cfg(mem, layout, cost)?,
    };
    let expected: Vec<[u8; 32]> = match (&hash_page.kernel, config.kind) {
        (KernelHashes::WholeImage(h), KernelKind::Bzimage) => vec![*h],
        (
            KernelHashes::FwCfg {
                ehdr,
                phdrs,
                segments,
            },
            KernelKind::Vmlinux,
        ) => vec![*ehdr, *phdrs, *segments],
        _ => {
            return Err(VerifierError::BadHashPage(
                "hash mode does not match loader",
            ))
        }
    };
    steps.extend(loaded.steps.iter().cloned());
    if loaded.computed_hashes != expected {
        return Err(VerifierError::HashMismatch {
            component: "kernel",
        });
    }
    steps.push(Step::new("compare kernel hash", Nanos::from_micros(1)));

    // 6. Measured direct boot: initrd (uncompressed per §3.3).
    let staged_initrd = mem.guest_read(layout.initrd_staging, layout.initrd_size, false)?;
    mem.guest_write(layout.initrd_dest, &staged_initrd, true)?;
    let private_initrd = mem.guest_read(layout.initrd_dest, layout.initrd_size, true)?;
    let initrd_digest = sevf_crypto::sha256(&private_initrd);
    steps.push(Step::new(
        format!("copy initrd ({} B) to encrypted memory", layout.initrd_size),
        cost.cpu_copy_to_encrypted(layout.initrd_size),
    ));
    steps.push(Step::new(
        "SHA-256 initrd",
        cost.cpu_sha256(layout.initrd_size),
    ));
    if initrd_digest != hash_page.initrd {
        return Err(VerifierError::HashMismatch {
            component: "initrd",
        });
    }
    steps.push(Step::new("compare initrd hash", Nanos::from_micros(1)));

    Ok(VerifiedBoot {
        kernel_entry: loaded.entry,
        initrd_addr: layout.initrd_dest,
        initrd_len: layout.initrd_size,
        steps,
        pvalidated_pages: pvalidated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::{VerifierBinary, VerifierFeatures};
    use crate::layout::VERIFIER_ADDR;
    use sevf_codec::Codec;
    use sevf_image::kernel::KernelConfig;
    use sevf_sim::cost::SevGeneration;

    const MB: u64 = 1024 * 1024;

    /// Sets up a guest the way the VMM would: staged components, assigned
    /// private range, pre-encrypted hash page + verifier.
    fn prepare(
        kernel_bytes: &[u8],
        initrd: &[u8],
        kernel_hashes: KernelHashes,
    ) -> (GuestMemory, GuestLayout) {
        let mut mem = GuestMemory::new_sev(64 * MB, [5u8; 16], SevGeneration::SevSnp);
        let layout =
            GuestLayout::plan(64 * MB, kernel_bytes.len() as u64, initrd.len() as u64).unwrap();
        mem.host_write(layout.kernel_staging, kernel_bytes).unwrap();
        mem.host_write(layout.initrd_staging, initrd).unwrap();
        let hash_page = HashPage {
            kernel: kernel_hashes,
            initrd: sevf_crypto::sha256(initrd),
        };
        mem.host_write(HASH_PAGE_ADDR, &hash_page.to_page())
            .unwrap();
        let verifier = VerifierBinary::build(VerifierFeatures::severifast());
        mem.host_write(VERIFIER_ADDR, verifier.bytes()).unwrap();
        // Pre-encrypt the root of trust, then assign the private range.
        mem.pre_encrypt(HASH_PAGE_ADDR, PAGE_SIZE).unwrap();
        mem.pre_encrypt(VERIFIER_ADDR, verifier.size()).unwrap();
        for (base, len) in layout.private_ranges() {
            mem.rmp_assign(base, len).unwrap();
        }
        (mem, layout)
    }

    fn bz_setup() -> (GuestMemory, GuestLayout) {
        let image = KernelConfig::test_tiny().build();
        let bz = image.bzimage(Codec::Lz4);
        let initrd = sevf_image::initrd::build_initrd(64 * 1024);
        prepare(
            &bz,
            &initrd,
            KernelHashes::WholeImage(sevf_crypto::sha256(&bz)),
        )
    }

    #[test]
    fn honest_boot_succeeds() {
        let (mut mem, layout) = bz_setup();
        let boot = run(
            &mut mem,
            &layout,
            &CostModel::calibrated(),
            VerifierConfig::severifast(),
        )
        .unwrap();
        assert_eq!(boot.kernel_entry, layout.kernel_dest);
        assert!(boot.pvalidated_pages > 0);
        assert!(boot.total_time() > Nanos::ZERO);
        // Initrd really is in encrypted memory now.
        let initrd = sevf_image::initrd::build_initrd(64 * 1024);
        assert_eq!(
            mem.guest_read(boot.initrd_addr, boot.initrd_len, true)
                .unwrap(),
            &initrd[..]
        );
    }

    #[test]
    fn swapped_kernel_detected() {
        // Attack 1 of §2.6: after hashes are registered, the host stages a
        // different kernel.
        let (mut mem, layout) = bz_setup();
        let evil = sevf_image::bzimage::build(&vec![0x66u8; 100_000], Codec::Lz4);
        let evil_sized = if evil.len() as u64 >= layout.kernel_size {
            evil[..layout.kernel_size as usize].to_vec()
        } else {
            let mut padded = evil;
            padded.resize(layout.kernel_size as usize, 0);
            padded
        };
        mem.host_write(layout.kernel_staging, &evil_sized).unwrap();
        let err = run(
            &mut mem,
            &layout,
            &CostModel::calibrated(),
            VerifierConfig::severifast(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            VerifierError::HashMismatch {
                component: "kernel"
            } | VerifierError::Image(_)
        ));
    }

    #[test]
    fn swapped_initrd_detected() {
        let (mut mem, layout) = bz_setup();
        let evil = vec![0xeeu8; layout.initrd_size as usize];
        mem.host_write(layout.initrd_staging, &evil).unwrap();
        let err = run(
            &mut mem,
            &layout,
            &CostModel::calibrated(),
            VerifierConfig::severifast(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            VerifierError::HashMismatch {
                component: "initrd"
            }
        );
    }

    #[test]
    fn single_bit_flip_in_kernel_detected() {
        let (mut mem, layout) = bz_setup();
        let mut staged = mem
            .host_read(layout.kernel_staging, layout.kernel_size)
            .unwrap();
        let mid = staged.len() / 2;
        staged[mid] ^= 0x01;
        mem.host_write(layout.kernel_staging, &staged).unwrap();
        let err = run(
            &mut mem,
            &layout,
            &CostModel::calibrated(),
            VerifierConfig::severifast(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            VerifierError::HashMismatch { .. } | VerifierError::Image(_)
        ));
    }

    #[test]
    fn vmlinux_fw_cfg_boot_succeeds() {
        let image = KernelConfig::test_tiny().build();
        let (ehdr, phdrs, segs) = image.elf().fw_cfg_pieces();
        let mut staged = ehdr.clone();
        staged.extend_from_slice(&phdrs);
        staged.extend_from_slice(&segs);
        let initrd = sevf_image::initrd::build_initrd(64 * 1024);
        let (mut mem, layout) = prepare(
            &staged,
            &initrd,
            KernelHashes::FwCfg {
                ehdr: sevf_crypto::sha256(&ehdr),
                phdrs: sevf_crypto::sha256(&phdrs),
                segments: sevf_crypto::sha256(&segs),
            },
        );
        let config = VerifierConfig {
            kind: KernelKind::Vmlinux,
            ..VerifierConfig::severifast()
        };
        let boot = run(&mut mem, &layout, &CostModel::calibrated(), config).unwrap();
        assert_eq!(boot.kernel_entry, image.elf().entry);
    }

    #[test]
    fn tampered_staged_memsz_is_an_error_not_an_abort() {
        // The host rewrites the first LOAD header's p_memsz after the
        // hashes were registered. The bss it declares is far larger than
        // guest memory; the loader must refuse it before allocating.
        let image = KernelConfig::test_tiny().build();
        let (ehdr, phdrs, segs) = image.elf().fw_cfg_pieces();
        let mut staged = ehdr.clone();
        staged.extend_from_slice(&phdrs);
        staged.extend_from_slice(&segs);
        let initrd = sevf_image::initrd::build_initrd(64 * 1024);
        let (mut mem, layout) = prepare(
            &staged,
            &initrd,
            KernelHashes::FwCfg {
                ehdr: sevf_crypto::sha256(&ehdr),
                phdrs: sevf_crypto::sha256(&phdrs),
                segments: sevf_crypto::sha256(&segs),
            },
        );
        let memsz_at = layout.kernel_staging + sevf_image::elf::EHDR_SIZE as u64 + 40;
        mem.host_write(memsz_at, &(1u64 << 62).to_le_bytes())
            .unwrap();
        let config = VerifierConfig {
            kind: KernelKind::Vmlinux,
            ..VerifierConfig::severifast()
        };
        let err = run(&mut mem, &layout, &CostModel::calibrated(), config).unwrap_err();
        assert!(matches!(
            err,
            VerifierError::Memory(sevf_mem::MemError::OutOfRange { .. })
        ));
    }

    #[test]
    fn hash_mode_mismatch_rejected() {
        let (mut mem, layout) = bz_setup();
        let config = VerifierConfig {
            kind: KernelKind::Vmlinux,
            ..VerifierConfig::severifast()
        };
        // Whole-image hash page but vmlinux loader: refuse.
        assert!(run(&mut mem, &layout, &CostModel::calibrated(), config).is_err());
    }

    #[test]
    fn huge_pages_shrink_sweep_cost() {
        let cost = CostModel::calibrated();
        let (mut mem_a, layout_a) = bz_setup();
        let boot_huge = run(&mut mem_a, &layout_a, &cost, VerifierConfig::severifast()).unwrap();
        let (mut mem_b, layout_b) = bz_setup();
        let config_4k = VerifierConfig {
            huge_pages: false,
            ..VerifierConfig::severifast()
        };
        let boot_4k = run(&mut mem_b, &layout_b, &cost, config_4k).unwrap();
        let sweep = |b: &VerifiedBoot| {
            b.steps
                .iter()
                .find(|s| s.label.contains("pvalidate"))
                .expect("sweep step")
                .duration
        };
        assert!(sweep(&boot_4k) > sweep(&boot_huge).scale(100));
    }

    #[test]
    fn remapped_page_faults_the_verifier() {
        // The host remaps a private page after assignment; the verifier's
        // accesses must take #VC instead of reading stale data.
        let (mut mem, layout) = bz_setup();
        // Let the verifier pvalidate first — run once, then remap and rerun
        // the kernel copy by hand: simplest is to remap the hash page, which
        // the verifier reads early.
        mem.remap_by_host(HASH_PAGE_ADDR).unwrap();
        let err = run(
            &mut mem,
            &layout,
            &CostModel::calibrated(),
            VerifierConfig::severifast(),
        )
        .unwrap_err();
        assert!(matches!(err, VerifierError::Memory(_)));
        let _ = layout;
    }
}
