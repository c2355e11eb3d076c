//! The guest physical memory model.

use std::collections::BTreeMap;

use sevf_crypto::XexCipher;
use sevf_sim::cost::SevGeneration;

use crate::error::{MemError, VcReason};
use crate::rmp::Rmp;

/// Page size used by the RMP, `pvalidate`, and `LAUNCH_UPDATE_DATA`.
pub const PAGE_SIZE: u64 = 4096;

/// A captured image of a guest's resident pages plus RMP state, used by
/// warm-start snapshots (§7.1). The content is the internal plaintext
/// representation; an image is only meaningful back inside the launch
/// context (key) it came from.
#[derive(Debug, Clone)]
pub struct MemoryImage {
    pages: BTreeMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
    rmp: Rmp,
}

impl MemoryImage {
    /// Bytes of captured page content.
    pub fn byte_len(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SIZE
    }
}

/// Simulated guest physical memory with SEV semantics.
///
/// Pages are materialized lazily: untouched memory reads as zeros, so VMs
/// with hundreds of megabytes of (mostly untouched) RAM stay cheap.
///
/// See the crate-level docs for the enforcement rules and the plaintext
/// representation note.
pub struct GuestMemory {
    size: u64,
    pages: BTreeMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
    rmp: Rmp,
    engine: Option<XexCipher>,
    generation: SevGeneration,
}

impl std::fmt::Debug for GuestMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuestMemory")
            .field("size", &self.size)
            .field("generation", &self.generation.name())
            .field("resident_pages", &self.pages.len())
            .field("assigned_pages", &self.rmp.assigned_count())
            .finish()
    }
}

/// Who is performing an access (used internally to pick enforcement rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Actor {
    Host,
    Guest,
}

impl GuestMemory {
    /// Creates unencrypted guest memory (a stock microVM).
    pub fn new_plain(size: u64) -> Self {
        GuestMemory {
            size,
            pages: BTreeMap::new(),
            rmp: Rmp::new(),
            engine: None,
            generation: SevGeneration::None,
        }
    }

    /// Creates SEV guest memory with the given memory-encryption key.
    ///
    /// # Panics
    ///
    /// Panics if `generation` is [`SevGeneration::None`] (use
    /// [`GuestMemory::new_plain`]).
    pub fn new_sev(size: u64, key: [u8; 16], generation: SevGeneration) -> Self {
        assert!(generation.is_sev(), "use new_plain for non-SEV guests");
        GuestMemory {
            size,
            pages: BTreeMap::new(),
            rmp: Rmp::new(),
            engine: Some(XexCipher::new(&key)),
            generation,
        }
    }

    /// Guest memory size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The SEV generation this memory was created with.
    pub fn generation(&self) -> SevGeneration {
        self.generation
    }

    /// Read-only view of the RMP (reports, assertions in tests).
    pub fn rmp(&self) -> &Rmp {
        &self.rmp
    }

    /// Number of pages that have been materialized (touched).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Guest-physical addresses of the materialized pages, in order
    /// (untouched pages have no backing and read as zeros).
    pub fn resident_page_addrs(&self) -> Vec<u64> {
        self.pages.keys().map(|p| p * PAGE_SIZE).collect()
    }

    fn check_range(&self, addr: u64, len: u64) -> Result<(), MemError> {
        if addr.checked_add(len).is_none_or(|end| end > self.size) {
            return Err(MemError::OutOfRange {
                addr,
                len,
                size: self.size,
            });
        }
        Ok(())
    }

    fn page_of(addr: u64) -> u64 {
        addr / PAGE_SIZE
    }

    fn page_plain(&self, page: u64) -> [u8; PAGE_SIZE as usize] {
        self.pages
            .get(&page)
            .map(|p| **p)
            .unwrap_or([0u8; PAGE_SIZE as usize])
    }

    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE_SIZE as usize] {
        self.pages
            .entry(page)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]))
    }

    /// True if the page is private (guest-owned / encrypted).
    fn is_private(&self, page: u64) -> bool {
        self.rmp.state(page).assigned
    }

    /// True if the page containing `addr` is already validated (used by the
    /// boot verifier's sweep to skip pages the launch firmware validated).
    pub fn is_validated(&self, addr: u64) -> bool {
        self.rmp.state(Self::page_of(addr)).validated
    }

    /// True if the page containing `addr` is assigned to the guest.
    pub fn is_assigned(&self, addr: u64) -> bool {
        self.rmp.state(Self::page_of(addr)).assigned
    }

    // ---- Host-side operations ------------------------------------------------

    /// Host (VMM) write to guest memory.
    ///
    /// # Errors
    ///
    /// * [`MemError::OutOfRange`] outside guest memory.
    /// * [`MemError::HostWriteDenied`] when a touched page is guest-owned
    ///   under SEV-SNP (the RMP check).
    ///
    /// Under SEV/SEV-ES the write *succeeds* on private pages and corrupts
    /// the guest's plaintext (the written bytes land as ciphertext).
    pub fn host_write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        self.check_range(addr, data.len() as u64)?;
        // SNP: deny if any touched page is guest-owned.
        if self.generation.has_rmp() {
            let first = Self::page_of(addr);
            let last = Self::page_of(addr + data.len().max(1) as u64 - 1);
            for page in first..=last {
                if self.is_private(page) {
                    return Err(MemError::HostWriteDenied {
                        page_addr: page * PAGE_SIZE,
                    });
                }
            }
        }
        let mut offset = 0usize;
        while offset < data.len() {
            let cur = addr + offset as u64;
            let page = Self::page_of(cur);
            let in_page = (cur % PAGE_SIZE) as usize;
            let take = ((PAGE_SIZE as usize) - in_page).min(data.len() - offset);
            if self.is_private(page) && self.engine.is_some() {
                // SEV without RMP: the host's bytes become ciphertext; the
                // guest will observe their decryption. Compute the new
                // plaintext so every later observer sees consistent bytes.
                let engine = self.engine.as_ref().expect("checked").clone();
                let page_addr = page * PAGE_SIZE;
                let plain = self.page_plain(page);
                let mut cipher_view = engine.encrypt(page_addr, &plain);
                cipher_view[in_page..in_page + take].copy_from_slice(&data[offset..offset + take]);
                let new_plain = engine.decrypt(page_addr, &cipher_view);
                self.page_mut(page).copy_from_slice(&new_plain);
            } else {
                self.page_mut(page)[in_page..in_page + take]
                    .copy_from_slice(&data[offset..offset + take]);
            }
            offset += take;
        }
        Ok(())
    }

    /// Host (VMM) read of guest memory: private pages come back as
    /// ciphertext, shared pages as stored.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] outside guest memory.
    pub fn host_read(&self, addr: u64, len: u64) -> Result<Vec<u8>, MemError> {
        self.check_range(addr, len)?;
        let mut out = Vec::with_capacity(len as usize);
        let mut cur = addr;
        let end = addr + len;
        while cur < end {
            let page = Self::page_of(cur);
            let in_page = (cur % PAGE_SIZE) as usize;
            let take = ((PAGE_SIZE - cur % PAGE_SIZE) as usize).min((end - cur) as usize);
            let plain = self.page_plain(page);
            if self.is_private(page) {
                let engine = self.engine.as_ref().expect("private page implies SEV");
                let cipher = engine.encrypt(page * PAGE_SIZE, &plain);
                out.extend_from_slice(&cipher[in_page..in_page + take]);
            } else {
                out.extend_from_slice(&plain[in_page..in_page + take]);
            }
            cur += take as u64;
        }
        Ok(out)
    }

    // ---- Hypervisor RMP operations --------------------------------------------

    /// Hypervisor `RMPUPDATE`: assigns `[addr, addr+len)` (page aligned) to
    /// the guest as private memory.
    ///
    /// # Errors
    ///
    /// [`MemError::Unaligned`] / [`MemError::OutOfRange`] on bad ranges.
    pub fn rmp_assign(&mut self, addr: u64, len: u64) -> Result<(), MemError> {
        if !addr.is_multiple_of(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) {
            return Err(MemError::Unaligned { addr });
        }
        self.check_range(addr, len)?;
        for page in Self::page_of(addr)..Self::page_of(addr + len) {
            self.rmp.assign(page);
        }
        Ok(())
    }

    /// Hypervisor changes the mapping of a validated private page (the
    /// attack/remap scenario): hardware clears the valid bit.
    ///
    /// # Errors
    ///
    /// [`MemError::Unaligned`] / [`MemError::OutOfRange`] on bad addresses.
    pub fn remap_by_host(&mut self, addr: u64) -> Result<(), MemError> {
        if !addr.is_multiple_of(PAGE_SIZE) {
            return Err(MemError::Unaligned { addr });
        }
        self.check_range(addr, PAGE_SIZE)?;
        self.rmp.remap_by_host(Self::page_of(addr));
        Ok(())
    }

    // ---- Guest-side operations --------------------------------------------------

    /// Guest `pvalidate` over `[addr, addr+len)` (page aligned). Returns the
    /// number of pages validated.
    ///
    /// # Errors
    ///
    /// * [`MemError::PvalidateUnsupported`] unless the guest is SEV-SNP.
    /// * [`MemError::NotAssigned`] if the hypervisor has not assigned a page.
    /// * [`MemError::AlreadyValidated`] on double validation.
    pub fn pvalidate(&mut self, addr: u64, len: u64) -> Result<u64, MemError> {
        if !self.generation.has_rmp() {
            return Err(MemError::PvalidateUnsupported);
        }
        if !addr.is_multiple_of(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) {
            return Err(MemError::Unaligned { addr });
        }
        self.check_range(addr, len)?;
        let mut count = 0;
        for page in Self::page_of(addr)..Self::page_of(addr + len) {
            if !self.rmp.state(page).assigned {
                return Err(MemError::NotAssigned {
                    page_addr: page * PAGE_SIZE,
                });
            }
            if self.rmp.validate(page) {
                return Err(MemError::AlreadyValidated {
                    page_addr: page * PAGE_SIZE,
                });
            }
            count += 1;
        }
        Ok(count)
    }

    fn guest_check(&self, addr: u64, len: u64, encrypted: bool) -> Result<(), MemError> {
        self.check_range(addr, len)?;
        if !encrypted {
            return Ok(());
        }
        if self.engine.is_none() {
            return Err(MemError::EncryptionUnavailable);
        }
        if self.generation.has_rmp() {
            let first = Self::page_of(addr);
            let last = Self::page_of(addr + len.max(1) - 1);
            for page in first..=last {
                let state = self.rmp.state(page);
                if !state.validated {
                    return Err(MemError::VcException {
                        page_addr: page * PAGE_SIZE,
                        reason: if state.remapped {
                            VcReason::RemappedByHost
                        } else {
                            VcReason::NotValidated
                        },
                    });
                }
            }
        }
        Ok(())
    }

    /// Guest write; `encrypted` selects a C-bit (private) mapping.
    ///
    /// # Errors
    ///
    /// * [`MemError::OutOfRange`] outside guest memory.
    /// * [`MemError::EncryptionUnavailable`] for an encrypted access on a
    ///   non-SEV guest.
    /// * [`MemError::VcException`] for a private access to an unvalidated or
    ///   remapped page under SNP.
    pub fn guest_write(&mut self, addr: u64, data: &[u8], encrypted: bool) -> Result<(), MemError> {
        self.guest_check(addr, data.len() as u64, encrypted)?;
        self.raw_write(
            addr,
            data,
            if encrypted { Actor::Guest } else { Actor::Host },
        );
        Ok(())
    }

    /// Guest write of `len` zero bytes at `addr` (a loader clearing a
    /// segment's bss). Checks the whole range as
    /// [`GuestMemory::guest_write`] does before touching anything, and
    /// never allocates a `len`-byte buffer, so an absurd `len` is an error,
    /// not an allocation failure.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GuestMemory::guest_write`].
    pub fn guest_zero(&mut self, addr: u64, len: u64, encrypted: bool) -> Result<(), MemError> {
        const ZEROS: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];
        self.guest_check(addr, len, encrypted)?;
        let actor = if encrypted { Actor::Guest } else { Actor::Host };
        let end = addr + len;
        let mut cur = addr;
        while cur < end {
            let take = (PAGE_SIZE - cur % PAGE_SIZE).min(end - cur);
            self.raw_write(cur, &ZEROS[..take as usize], actor);
            cur += take;
        }
        Ok(())
    }

    /// Guest read; `encrypted` selects a C-bit (private) mapping.
    ///
    /// Reading a *private* page through a *shared* mapping (`encrypted =
    /// false`) yields ciphertext, exactly as on hardware.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GuestMemory::guest_write`].
    pub fn guest_read(&self, addr: u64, len: u64, encrypted: bool) -> Result<Vec<u8>, MemError> {
        self.guest_check(addr, len, encrypted)?;
        if encrypted {
            // Private mapping: plaintext view.
            let mut out = Vec::with_capacity(len as usize);
            let mut cur = addr;
            let end = addr + len;
            while cur < end {
                let page = Self::page_of(cur);
                let in_page = (cur % PAGE_SIZE) as usize;
                let take = ((PAGE_SIZE - cur % PAGE_SIZE) as usize).min((end - cur) as usize);
                let plain = self.page_plain(page);
                out.extend_from_slice(&plain[in_page..in_page + take]);
                cur += take as u64;
            }
            Ok(out)
        } else {
            // Shared mapping behaves like the host view (ciphertext for
            // private pages).
            self.host_read(addr, len)
        }
    }

    /// Raw write used by guest paths; `actor` Guest = plaintext into the
    /// private view, Host = raw bytes into the shared view.
    fn raw_write(&mut self, addr: u64, data: &[u8], actor: Actor) {
        let _ = actor; // both store into the plaintext representation
        let mut offset = 0usize;
        while offset < data.len() {
            let cur = addr + offset as u64;
            let page = Self::page_of(cur);
            let in_page = (cur % PAGE_SIZE) as usize;
            let take = ((PAGE_SIZE as usize) - in_page).min(data.len() - offset);
            self.page_mut(page)[in_page..in_page + take]
                .copy_from_slice(&data[offset..offset + take]);
            offset += take;
        }
    }

    // ---- Snapshot support (warm-start exploration, paper §7.1) -------------------

    /// Captures the resident pages and RMP state as a [`MemoryImage`].
    pub fn clone_pages(&self) -> MemoryImage {
        MemoryImage {
            pages: self.pages.clone(),
            rmp: self.rmp.clone(),
        }
    }

    /// Replaces this guest's pages and RMP state with a captured image
    /// (valid only under the same memory-encryption key — i.e. within the
    /// same PSP launch context). Returns the number of bytes installed.
    pub fn restore_pages(&mut self, image: &MemoryImage) -> u64 {
        self.pages = image.pages.clone();
        self.rmp = image.rmp.clone();
        image.byte_len()
    }

    // ---- PSP-side operation -----------------------------------------------------

    /// The memory half of `LAUNCH_UPDATE_DATA`: returns the plaintext of the
    /// (page-aligned) region for the PSP to measure, marks the pages
    /// private, and (as SNP firmware does for launch pages) pre-validates
    /// them.
    ///
    /// # Errors
    ///
    /// [`MemError::Unaligned`] / [`MemError::OutOfRange`] on bad ranges, and
    /// [`MemError::EncryptionUnavailable`] for non-SEV guests.
    pub fn pre_encrypt(&mut self, addr: u64, len: u64) -> Result<Vec<u8>, MemError> {
        if self.engine.is_none() {
            return Err(MemError::EncryptionUnavailable);
        }
        if !addr.is_multiple_of(PAGE_SIZE) {
            return Err(MemError::Unaligned { addr });
        }
        let padded = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        self.check_range(addr, padded)?;
        let plaintext = {
            let mut out = Vec::with_capacity(padded as usize);
            for page in Self::page_of(addr)..Self::page_of(addr + padded) {
                out.extend_from_slice(&self.page_plain(page));
            }
            out
        };
        for page in Self::page_of(addr)..Self::page_of(addr + padded) {
            self.rmp.assign(page);
            self.rmp.validate(page);
        }
        Ok(plaintext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    fn snp_mem() -> GuestMemory {
        GuestMemory::new_sev(4 * MB, [9u8; 16], SevGeneration::SevSnp)
    }

    #[test]
    fn plain_memory_roundtrips() {
        let mut mem = GuestMemory::new_plain(MB);
        mem.host_write(100, b"hello").unwrap();
        assert_eq!(mem.host_read(100, 5).unwrap(), b"hello");
        assert_eq!(mem.guest_read(100, 5, false).unwrap(), b"hello");
    }

    #[test]
    fn untouched_memory_reads_zero() {
        let mem = GuestMemory::new_plain(MB);
        assert_eq!(mem.host_read(4000, 200).unwrap(), vec![0u8; 200]);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn out_of_range_rejected() {
        let mem = GuestMemory::new_plain(MB);
        assert!(matches!(
            mem.host_read(MB - 1, 2),
            Err(MemError::OutOfRange { .. })
        ));
    }

    #[test]
    fn snp_blocks_host_writes_to_private_pages() {
        let mut mem = snp_mem();
        mem.rmp_assign(0, PAGE_SIZE).unwrap();
        assert!(matches!(
            mem.host_write(10, b"evil"),
            Err(MemError::HostWriteDenied { .. })
        ));
        // Shared pages still writable.
        mem.host_write(PAGE_SIZE, b"fine").unwrap();
    }

    #[test]
    fn guest_private_access_requires_pvalidate() {
        let mut mem = snp_mem();
        mem.rmp_assign(0, PAGE_SIZE).unwrap();
        assert!(matches!(
            mem.guest_write(0, b"x", true),
            Err(MemError::VcException { .. })
        ));
        mem.pvalidate(0, PAGE_SIZE).unwrap();
        mem.guest_write(0, b"x", true).unwrap();
        assert_eq!(mem.guest_read(0, 1, true).unwrap(), b"x");
    }

    #[test]
    fn host_sees_ciphertext_of_private_pages() {
        let mut mem = snp_mem();
        mem.rmp_assign(0, PAGE_SIZE).unwrap();
        mem.pvalidate(0, PAGE_SIZE).unwrap();
        mem.guest_write(0, b"confidential kernel", true).unwrap();
        let host_view = mem.host_read(0, 19).unwrap();
        assert_ne!(host_view, b"confidential kernel");
        // Shared-mapping guest read sees the same ciphertext.
        assert_eq!(mem.guest_read(0, 19, false).unwrap(), host_view);
    }

    #[test]
    fn identical_plaintext_differs_across_pages() {
        let mut mem = snp_mem();
        mem.rmp_assign(0, 2 * PAGE_SIZE).unwrap();
        mem.pvalidate(0, 2 * PAGE_SIZE).unwrap();
        mem.guest_write(0, &[0x41; 64], true).unwrap();
        mem.guest_write(PAGE_SIZE, &[0x41; 64], true).unwrap();
        let a = mem.host_read(0, 64).unwrap();
        let b = mem.host_read(PAGE_SIZE, 64).unwrap();
        assert_ne!(a, b, "XEX address tweak must separate pages");
    }

    #[test]
    fn remap_raises_vc_on_next_access() {
        let mut mem = snp_mem();
        mem.rmp_assign(0, PAGE_SIZE).unwrap();
        mem.pvalidate(0, PAGE_SIZE).unwrap();
        mem.guest_write(0, b"data", true).unwrap();
        mem.remap_by_host(0).unwrap();
        match mem.guest_read(0, 4, true) {
            Err(MemError::VcException { reason, .. }) => {
                assert_eq!(reason, VcReason::RemappedByHost);
            }
            other => panic!("expected #VC, got {other:?}"),
        }
    }

    #[test]
    fn double_pvalidate_detected() {
        let mut mem = snp_mem();
        mem.rmp_assign(0, PAGE_SIZE).unwrap();
        mem.pvalidate(0, PAGE_SIZE).unwrap();
        assert!(matches!(
            mem.pvalidate(0, PAGE_SIZE),
            Err(MemError::AlreadyValidated { .. })
        ));
    }

    #[test]
    fn pvalidate_requires_assignment_and_snp() {
        let mut mem = snp_mem();
        assert!(matches!(
            mem.pvalidate(0, PAGE_SIZE),
            Err(MemError::NotAssigned { .. })
        ));
        let mut sev = GuestMemory::new_sev(MB, [1u8; 16], SevGeneration::Sev);
        assert_eq!(
            sev.pvalidate(0, PAGE_SIZE),
            Err(MemError::PvalidateUnsupported)
        );
    }

    #[test]
    fn plain_sev_lets_host_corrupt_private_memory() {
        // The integrity gap SNP closes: under base SEV the host CAN write.
        let mut mem = GuestMemory::new_sev(MB, [1u8; 16], SevGeneration::Sev);
        mem.pre_encrypt(0, PAGE_SIZE).unwrap();
        mem.guest_write(0, b"guest data", true).unwrap();
        mem.host_write(0, b"overwrite!").unwrap();
        let seen = mem.guest_read(0, 10, true).unwrap();
        assert_ne!(seen, b"guest data", "write must land");
        assert_ne!(seen, b"overwrite!", "but be scrambled by decryption");
    }

    #[test]
    fn pre_encrypt_returns_plaintext_and_privatizes() {
        let mut mem = snp_mem();
        mem.host_write(0, b"initial boot code").unwrap();
        let measured = mem.pre_encrypt(0, PAGE_SIZE).unwrap();
        assert_eq!(&measured[..17], b"initial boot code");
        assert_eq!(measured.len(), PAGE_SIZE as usize);
        // Now private: host read is ciphertext, guest private read works.
        assert_ne!(&mem.host_read(0, 17).unwrap(), b"initial boot code");
        assert_eq!(mem.guest_read(0, 17, true).unwrap(), b"initial boot code");
    }

    #[test]
    fn encrypted_access_without_sev_fails() {
        let mut mem = GuestMemory::new_plain(MB);
        assert_eq!(
            mem.guest_write(0, b"x", true),
            Err(MemError::EncryptionUnavailable)
        );
    }

    #[test]
    fn cross_page_writes_and_reads() {
        let mut mem = snp_mem();
        mem.rmp_assign(0, 3 * PAGE_SIZE).unwrap();
        mem.pvalidate(0, 3 * PAGE_SIZE).unwrap();
        let data: Vec<u8> = (0..(2 * PAGE_SIZE + 100) as usize)
            .map(|i| (i % 251) as u8)
            .collect();
        mem.guest_write(PAGE_SIZE / 2, &data, true).unwrap();
        assert_eq!(
            mem.guest_read(PAGE_SIZE / 2, data.len() as u64, true)
                .unwrap(),
            data
        );
    }

    #[test]
    fn unaligned_rmp_ops_rejected() {
        let mut mem = snp_mem();
        assert!(matches!(
            mem.rmp_assign(10, PAGE_SIZE),
            Err(MemError::Unaligned { .. })
        ));
        assert!(matches!(
            mem.remap_by_host(10),
            Err(MemError::Unaligned { .. })
        ));
        assert!(matches!(
            mem.pvalidate(10, PAGE_SIZE),
            Err(MemError::PvalidateUnsupported | MemError::Unaligned { .. })
        ));
    }
}
