//! Kernel loaders used by the boot verifier.
//!
//! Two protocols (§4.4 / §5 of the paper):
//!
//! * **bzImage**: the verifier copies the whole image to its private
//!   destination and checks the setup header; the bzImage's own bootstrap
//!   loader later decompresses the vmlinux (the "Bootstrap Loader" phase of
//!   Fig. 11).
//! * **fw_cfg vmlinux**: the ELF header, program headers, and loadable
//!   segments are staged as three pieces; each is copied into encrypted
//!   memory and hashed separately, with segments going *directly* to their
//!   load addresses — avoiding the extra whole-file copy the naive approach
//!   would pay (§5).

use sevf_crypto::sha256;
use sevf_image::elf::{EHDR_SIZE, PHDR_SIZE};
use sevf_mem::GuestMemory;
use sevf_sim::{CostModel, Nanos};

use crate::layout::GuestLayout;
use crate::VerifierError;

/// A costed step of loader work, for the caller's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// What the step did.
    pub label: String,
    /// Virtual time it took.
    pub duration: Nanos,
}

impl Step {
    /// Creates a costed step.
    pub fn new(label: impl Into<String>, duration: Nanos) -> Self {
        Step {
            label: label.into(),
            duration,
        }
    }
}

/// Outcome of loading a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedKernel {
    /// Guest-physical entry point.
    pub entry: u64,
    /// Hash(es) the loader computed, in hash-page order.
    pub computed_hashes: Vec<[u8; 32]>,
    /// Costed steps performed.
    pub steps: Vec<Step>,
}

/// Copies the staged bzImage into encrypted memory, hashing it on the way,
/// and sanity-checks the setup header at the destination.
///
/// # Errors
///
/// Memory faults and malformed images surface as [`VerifierError`]s.
pub fn load_bzimage(
    mem: &mut GuestMemory,
    layout: &GuestLayout,
    cost: &CostModel,
) -> Result<LoadedKernel, VerifierError> {
    let mut steps = Vec::new();
    let size = layout.kernel_size;
    // Copy from the shared staging window to the private destination.
    let staged = mem.guest_read(layout.kernel_staging, size, false)?;
    mem.guest_write(layout.kernel_dest, &staged, true)?;
    steps.push(Step::new(
        format!("copy bzImage ({size} B) to encrypted memory"),
        cost.cpu_copy_to_encrypted(size),
    ));
    // Re-hash the *private* copy (§2.5 step 5: hashing the shared copy
    // would let the host race the check).
    let private = mem.guest_read(layout.kernel_dest, size, true)?;
    let digest = sha256(&private);
    steps.push(Step::new("SHA-256 bzImage", cost.cpu_sha256(size)));
    // Validate the container before handing off.
    sevf_image::bzimage::parse(&private)?;
    steps.push(Step::new("parse setup header", Nanos::from_micros(3)));
    Ok(LoadedKernel {
        entry: layout.kernel_dest,
        computed_hashes: vec![digest],
        steps,
    })
}

/// The fw_cfg staged piece offsets: `[ehdr][phdrs][segments]` back to back
/// at `kernel_staging`.
fn fw_cfg_offsets(staged_ehdr: &[u8]) -> Result<(usize, usize), VerifierError> {
    if staged_ehdr.len() < EHDR_SIZE {
        return Err(VerifierError::Image(sevf_image::ImageError::BadElf(
            "staged header too short",
        )));
    }
    let phnum = u16::from_le_bytes(staged_ehdr[56..58].try_into().expect("2")) as usize;
    Ok((EHDR_SIZE, phnum))
}

/// Loads an uncompressed vmlinux via the three-piece fw_cfg protocol.
///
/// # Errors
///
/// Memory faults and malformed ELFs surface as [`VerifierError`]s.
pub fn load_vmlinux_fw_cfg(
    mem: &mut GuestMemory,
    layout: &GuestLayout,
    cost: &CostModel,
) -> Result<LoadedKernel, VerifierError> {
    let mut steps = Vec::new();

    // Piece 1: ELF header → encrypted scratch (reuse the destination base).
    let ehdr = mem.guest_read(layout.kernel_staging, EHDR_SIZE as u64, false)?;
    mem.guest_write(layout.kernel_dest, &ehdr, true)?;
    let ehdr_hash = sha256(&mem.guest_read(layout.kernel_dest, EHDR_SIZE as u64, true)?);
    steps.push(Step::new(
        "copy + hash ELF header",
        cost.cpu_copy_to_encrypted(EHDR_SIZE as u64)
            + cost.cpu_sha256(EHDR_SIZE as u64)
            + cost.elf_segment_overhead,
    ));
    let (_, phnum) = fw_cfg_offsets(&ehdr)?;
    if phnum == 0 || phnum > 64 {
        return Err(VerifierError::Image(sevf_image::ImageError::BadElf(
            "implausible program header count",
        )));
    }
    let entry = u64::from_le_bytes(ehdr[24..32].try_into().expect("8"));

    // Piece 2: program headers.
    let phdrs_len = (phnum * PHDR_SIZE) as u64;
    let phdrs = mem.guest_read(layout.kernel_staging + EHDR_SIZE as u64, phdrs_len, false)?;
    mem.guest_write(layout.kernel_dest + EHDR_SIZE as u64, &phdrs, true)?;
    let phdrs_hash =
        sha256(&mem.guest_read(layout.kernel_dest + EHDR_SIZE as u64, phdrs_len, true)?);
    steps.push(Step::new(
        "copy + hash program headers",
        cost.cpu_copy_to_encrypted(phdrs_len) + cost.cpu_sha256(phdrs_len),
    ));

    // Piece 3: loadable segments, staged back to back, copied straight to
    // their run addresses (no intermediate whole-file copy — §5).
    let mut seg_hasher = sevf_crypto::Sha256::new();
    let mut staged_cursor = layout.kernel_staging + EHDR_SIZE as u64 + phdrs_len;
    let mut copied_total = 0u64;
    for i in 0..phnum {
        let ph = &phdrs[i * PHDR_SIZE..(i + 1) * PHDR_SIZE];
        let p_type = u32::from_le_bytes(ph[0..4].try_into().expect("4"));
        if p_type != 1 {
            continue;
        }
        let vaddr = u64::from_le_bytes(ph[16..24].try_into().expect("8"));
        let filesz = u64::from_le_bytes(ph[32..40].try_into().expect("8"));
        let memsz = u64::from_le_bytes(ph[40..48].try_into().expect("8"));
        let data = mem.guest_read(staged_cursor, filesz, false)?;
        mem.guest_write(vaddr, &data, true)?;
        let private = mem.guest_read(vaddr, filesz, true)?;
        seg_hasher.update(&private);
        // Zero the bss tail the segment declares. The program headers are
        // host-staged and not yet checked against the hash page, so the
        // span is range-checked before anything is written.
        if memsz > filesz {
            mem.guest_zero(vaddr + filesz, memsz - filesz, true)?;
        }
        staged_cursor += filesz;
        copied_total += memsz;
    }
    steps.push(Step::new(
        format!("copy + hash {phnum} loadable segments"),
        cost.cpu_copy_to_encrypted(copied_total)
            + cost.cpu_sha256(copied_total)
            + cost.elf_segment_overhead.scale(phnum as u64),
    ));

    Ok(LoadedKernel {
        entry,
        computed_hashes: vec![ehdr_hash, phdrs_hash, seg_hasher.finalize()],
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sevf_codec::Codec;
    use sevf_image::kernel::KernelConfig;
    use sevf_sim::cost::SevGeneration;

    const MB: u64 = 1024 * 1024;

    fn staged_guest(image_bytes: &[u8], initrd: &[u8]) -> (GuestMemory, GuestLayout) {
        let mut mem = GuestMemory::new_sev(64 * MB, [5u8; 16], SevGeneration::SevSnp);
        let layout =
            GuestLayout::plan(64 * MB, image_bytes.len() as u64, initrd.len() as u64).unwrap();
        // The hypervisor assigns the private range and (for this test) the
        // verifier has already validated it.
        mem.rmp_assign(0, layout.staging_base).unwrap();
        mem.pvalidate(0, layout.staging_base).unwrap();
        mem.host_write(layout.kernel_staging, image_bytes).unwrap();
        mem.host_write(layout.initrd_staging, initrd).unwrap();
        (mem, layout)
    }

    #[test]
    fn bzimage_load_places_and_hashes() {
        let image = KernelConfig::test_tiny().build();
        let bz = image.bzimage(Codec::Lz4);
        let (mut mem, layout) = staged_guest(&bz, b"initrd");
        let loaded = load_bzimage(&mut mem, &layout, &CostModel::calibrated()).unwrap();
        assert_eq!(loaded.entry, layout.kernel_dest);
        assert_eq!(loaded.computed_hashes, vec![sevf_crypto::sha256(&bz)]);
        // The private copy equals the staged image.
        let private = mem
            .guest_read(layout.kernel_dest, bz.len() as u64, true)
            .unwrap();
        assert_eq!(private, &bz[..]);
    }

    #[test]
    fn bzimage_rejects_garbage() {
        let junk = vec![0u8; 100_000];
        let (mut mem, layout) = staged_guest(&junk, b"initrd");
        assert!(matches!(
            load_bzimage(&mut mem, &layout, &CostModel::calibrated()),
            Err(VerifierError::Image(_))
        ));
    }

    #[test]
    fn fw_cfg_load_reassembles_segments() {
        let image = KernelConfig::test_tiny().build();
        let (ehdr, phdrs, segs) = image.elf().fw_cfg_pieces();
        let mut staged = ehdr.clone();
        staged.extend_from_slice(&phdrs);
        staged.extend_from_slice(&segs);
        let (mut mem, layout) = staged_guest(&staged, b"initrd");
        let loaded = load_vmlinux_fw_cfg(&mut mem, &layout, &CostModel::calibrated()).unwrap();
        assert_eq!(loaded.entry, image.elf().entry);
        assert_eq!(
            loaded.computed_hashes,
            vec![
                sevf_crypto::sha256(&ehdr),
                sevf_crypto::sha256(&phdrs),
                sevf_crypto::sha256(&segs)
            ]
        );
        // First segment is loaded at its vaddr with the descriptor intact.
        let seg0 = &image.elf().segments[0];
        let loaded_bytes = mem
            .guest_read(seg0.vaddr, seg0.data.len() as u64, true)
            .unwrap();
        assert_eq!(loaded_bytes, seg0.data);
    }

    #[test]
    fn fw_cfg_rejects_bad_header() {
        let staged = vec![0u8; 1000];
        let (mut mem, layout) = staged_guest(&staged, b"initrd");
        assert!(load_vmlinux_fw_cfg(&mut mem, &layout, &CostModel::calibrated()).is_err());
    }

    #[test]
    fn loading_into_unvalidated_memory_faults() {
        let image = KernelConfig::test_tiny().build();
        let bz = image.bzimage(Codec::Lz4);
        let mut mem = GuestMemory::new_sev(64 * MB, [5u8; 16], SevGeneration::SevSnp);
        let layout = GuestLayout::plan(64 * MB, bz.len() as u64, 6).unwrap();
        mem.host_write(layout.kernel_staging, &bz).unwrap();
        // No assign/pvalidate of the destination: #VC.
        assert!(matches!(
            load_bzimage(&mut mem, &layout, &CostModel::calibrated()),
            Err(VerifierError::Memory(_))
        ));
    }
}
