//! Out-of-band component hashing (§4.3).
//!
//! Hashing the kernel and initrd in the VMM "could add up to 23 ms of boot
//! time", so SEVeriFast moves it off the critical path: a tool hashes the
//! components ahead of time and the VMM is handed the hash file. The hashes
//! end up pre-encrypted (and thus in the launch measurement), so this does
//! not weaken the trust story.
//!
//! Each component is hashed once per process, on first use: a bzImage or
//! initrd [`Blob`] keeps its SHA-256 with its bytes, and a
//! [`KernelImage`] keeps the digests of its three fw_cfg pieces. Every VM
//! that boots the component reads the stored digest, modelling the paper's
//! assumption that thousands of VMs share one kernel. The guest-side
//! verifier still hashes its private copy of every component on every
//! boot; that check is what makes a stale or forged hash page fail.

use std::sync::Arc;

use sevf_image::blob::Blob;
use sevf_image::kernel::KernelImage;
use sevf_mem::{GuestMemory, MemError};
use sevf_verifier::hashes::{HashPage, KernelHashes};

/// A kernel as the VMM stages it in the shared window for the verifier.
#[derive(Debug, Clone)]
pub enum StagedKernel {
    /// A bzImage, staged and hashed as one file.
    BzImage(Arc<Blob>),
    /// A vmlinux as the fw_cfg loader transfers it (§5): ELF header,
    /// program headers and loadable segment data back to back, each piece
    /// hashed on its own.
    FwCfg(Arc<KernelImage>),
}

impl StagedKernel {
    /// The staged pieces, in staging order.
    fn pieces(&self) -> Vec<&[u8]> {
        match self {
            StagedKernel::BzImage(bz) => vec![&bz[..]],
            StagedKernel::FwCfg(image) => image.fw_cfg_pieces().to_vec(),
        }
    }

    /// Staged size in bytes.
    pub(crate) fn len(&self) -> u64 {
        self.pieces().iter().map(|p| p.len() as u64).sum()
    }

    /// Writes the staged kernel into the shared window at `gpa`.
    pub(crate) fn stage(&self, mem: &mut GuestMemory, gpa: u64) -> Result<(), MemError> {
        let mut at = gpa;
        for piece in self.pieces() {
            mem.host_write(at, piece)?;
            at += piece.len() as u64;
        }
        Ok(())
    }

    /// The kernel's hash-page entry, from the stored digests.
    fn hashes(&self) -> KernelHashes {
        match self {
            StagedKernel::BzImage(bz) => KernelHashes::WholeImage(bz.sha256()),
            StagedKernel::FwCfg(image) => {
                let [ehdr, phdrs, segments] = image.fw_cfg_digests();
                KernelHashes::FwCfg {
                    ehdr,
                    phdrs,
                    segments,
                }
            }
        }
    }
}

/// The hash page for a staged kernel and initrd.
///
/// A bzImage's hash covers the whole file; a fw_cfg vmlinux's is the three
/// piece hashes (§5). Both come from the components' stored digests, so
/// no byte is hashed here after the first boot of a component.
pub fn precomputed_hash_page(kernel: &StagedKernel, initrd: &Blob) -> HashPage {
    HashPage {
        kernel: kernel.hashes(),
        initrd: initrd.sha256(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sevf_codec::Codec;
    use sevf_crypto::sha256;
    use sevf_image::kernel::KernelConfig;

    #[test]
    fn bzimage_mode_hashes_whole_file() {
        let image = KernelConfig::test_tiny().build();
        let bz = image.bzimage(Codec::Lz4);
        let initrd = Blob::new(b"initrd".to_vec());
        let page = precomputed_hash_page(&StagedKernel::BzImage(Arc::clone(&bz)), &initrd);
        assert_eq!(page.kernel, KernelHashes::WholeImage(sha256(&bz)));
        assert_eq!(page.initrd, sha256(b"initrd"));
    }

    #[test]
    fn vmlinux_mode_hashes_three_pieces() {
        let image = KernelConfig::test_tiny().build();
        let (ehdr, phdrs, segs) = image.elf().fw_cfg_pieces();
        let initrd = Blob::new(b"initrd".to_vec());
        let page = precomputed_hash_page(&StagedKernel::FwCfg(image), &initrd);
        assert_eq!(
            page.kernel,
            KernelHashes::FwCfg {
                ehdr: sha256(&ehdr),
                phdrs: sha256(&phdrs),
                segments: sha256(&segs),
            }
        );
    }

    #[test]
    fn fw_cfg_staging_is_the_three_pieces_back_to_back() {
        let image = KernelConfig::test_tiny().build();
        let (ehdr, phdrs, segs) = image.elf().fw_cfg_pieces();
        let staged = StagedKernel::FwCfg(image);
        let total = (ehdr.len() + phdrs.len() + segs.len()) as u64;
        assert_eq!(staged.len(), total);
        let mut mem = GuestMemory::new_plain(2 * total + 0x1000);
        staged.stage(&mut mem, 0x1000).unwrap();
        let expected = [ehdr, phdrs, segs].concat();
        assert_eq!(mem.host_read(0x1000, total).unwrap(), expected);
    }
}
