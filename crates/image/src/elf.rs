//! Minimal ELF64 executable reader/writer.
//!
//! Enough of the format for the boot paths in the paper: the VMM's direct
//! vmlinux loader, the boot verifier's measured ELF loader, and the fw_cfg
//! protocol of §5 (which serves the ELF header, program headers, and
//! loadable segments as three separately hashed pieces).

use crate::ImageError;

/// ELF header size for 64-bit objects.
pub const EHDR_SIZE: usize = 64;
/// Program header entry size for 64-bit objects.
pub const PHDR_SIZE: usize = 56;

/// Segment permission flags (bitwise-OR of R=4, W=2, X=1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentFlags(pub u32);

impl SegmentFlags {
    /// Read + execute (text).
    pub const RX: SegmentFlags = SegmentFlags(0b101);
    /// Read only (rodata).
    pub const R: SegmentFlags = SegmentFlags(0b100);
    /// Read + write (data/bss).
    pub const RW: SegmentFlags = SegmentFlags(0b110);
}

/// One loadable segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Virtual/physical load address.
    pub vaddr: u64,
    /// File contents of the segment.
    pub data: Vec<u8>,
    /// Extra zero-initialized bytes beyond the file contents (bss).
    pub bss: u64,
    /// Permissions.
    pub flags: SegmentFlags,
}

impl Segment {
    /// Total in-memory size (file bytes + bss).
    pub fn mem_size(&self) -> u64 {
        self.data.len() as u64 + self.bss
    }
}

/// One loadable segment, borrowed from the ELF bytes it was parsed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentView<'a> {
    /// Virtual/physical load address.
    pub vaddr: u64,
    /// File contents of the segment.
    pub data: &'a [u8],
    /// Extra zero-initialized bytes beyond the file contents (bss).
    pub bss: u64,
    /// Permissions.
    pub flags: SegmentFlags,
}

impl SegmentView<'_> {
    /// Total in-memory size (file bytes + bss).
    pub fn mem_size(&self) -> u64 {
        self.data.len() as u64 + self.bss
    }
}

/// A parsed ELF64 executable whose segments borrow the parsed bytes: a
/// loader can place them without an intermediate copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElfView<'a> {
    /// Entry-point virtual address.
    pub entry: u64,
    /// Loadable segments, in program-header order.
    pub segments: Vec<SegmentView<'a>>,
}

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// The `len` bytes of `bytes` at `start`, if they lie inside.
fn span(bytes: &[u8], start: u64, len: u64) -> Option<&[u8]> {
    let end = usize::try_from(start.checked_add(len)?).ok()?;
    bytes.get(usize::try_from(start).ok()?..end)
}

impl<'a> ElfView<'a> {
    /// Parses ELF64 bytes produced by [`ElfImage::to_bytes`] (or any simple
    /// static executable with LOAD segments). This is the crate's only ELF
    /// parser; every header offset and size is bounds-checked without
    /// overflow, so crafted headers are rejected rather than panicking.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::BadElf`] on malformed input.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, ImageError> {
        if bytes.len() < EHDR_SIZE {
            return Err(ImageError::BadElf("shorter than the ELF header"));
        }
        if &bytes[..4] != b"\x7fELF" {
            return Err(ImageError::BadElf("bad magic"));
        }
        if bytes[4] != 2 {
            return Err(ImageError::BadElf("not 64-bit"));
        }
        let entry = le_u64(bytes, 24);
        let phoff = le_u64(bytes, 32);
        let phentsize = u16::from_le_bytes(bytes[54..56].try_into().expect("2")) as usize;
        let phnum = u16::from_le_bytes(bytes[56..58].try_into().expect("2")) as u64;
        if phentsize != PHDR_SIZE {
            return Err(ImageError::BadElf("unexpected program header size"));
        }
        let phdrs = span(bytes, phoff, phnum * PHDR_SIZE as u64)
            .ok_or(ImageError::BadElf("program headers out of bounds"))?;
        let mut segments = Vec::with_capacity(phnum as usize);
        for ph in phdrs.chunks_exact(PHDR_SIZE) {
            let p_type = u32::from_le_bytes(ph[0..4].try_into().expect("4"));
            if p_type != 1 {
                continue; // skip non-LOAD
            }
            let flags = u32::from_le_bytes(ph[4..8].try_into().expect("4"));
            let p_offset = le_u64(ph, 8);
            let vaddr = le_u64(ph, 16);
            let filesz = le_u64(ph, 32);
            let memsz = le_u64(ph, 40);
            let data = span(bytes, p_offset, filesz)
                .ok_or(ImageError::BadElf("segment data out of bounds"))?;
            if memsz < filesz {
                return Err(ImageError::BadElf("memsz smaller than filesz"));
            }
            segments.push(SegmentView {
                vaddr,
                data,
                bss: memsz - filesz,
                flags: SegmentFlags(flags),
            });
        }
        if segments.is_empty() {
            return Err(ImageError::BadElf("no loadable segments"));
        }
        Ok(ElfView { entry, segments })
    }

    /// Copies the segment bytes out into an owned [`ElfImage`].
    pub fn to_owned(&self) -> ElfImage {
        ElfImage {
            entry: self.entry,
            segments: self
                .segments
                .iter()
                .map(|seg| Segment {
                    vaddr: seg.vaddr,
                    data: seg.data.to_vec(),
                    bss: seg.bss,
                    flags: seg.flags,
                })
                .collect(),
        }
    }
}

/// A parsed or constructed ELF64 executable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElfImage {
    /// Entry-point virtual address.
    pub entry: u64,
    /// Loadable segments, in program-header order.
    pub segments: Vec<Segment>,
}

impl ElfImage {
    /// Serializes to ELF64 bytes (header, program headers, then segment
    /// contents packed back to back).
    pub fn to_bytes(&self) -> Vec<u8> {
        let phnum = self.segments.len();
        let mut offset = (EHDR_SIZE + phnum * PHDR_SIZE) as u64;
        // Align first segment to a page, as linkers do.
        offset = (offset + 0xfff) & !0xfff;

        let mut ehdr = Vec::with_capacity(EHDR_SIZE);
        ehdr.extend_from_slice(&[0x7f, b'E', b'L', b'F', 2, 1, 1, 0]); // ident
        ehdr.extend_from_slice(&[0u8; 8]); // ident padding
        ehdr.extend_from_slice(&2u16.to_le_bytes()); // e_type = EXEC
        ehdr.extend_from_slice(&62u16.to_le_bytes()); // e_machine = x86-64
        ehdr.extend_from_slice(&1u32.to_le_bytes()); // e_version
        ehdr.extend_from_slice(&self.entry.to_le_bytes()); // e_entry
        ehdr.extend_from_slice(&(EHDR_SIZE as u64).to_le_bytes()); // e_phoff
        ehdr.extend_from_slice(&0u64.to_le_bytes()); // e_shoff
        ehdr.extend_from_slice(&0u32.to_le_bytes()); // e_flags
        ehdr.extend_from_slice(&(EHDR_SIZE as u16).to_le_bytes()); // e_ehsize
        ehdr.extend_from_slice(&(PHDR_SIZE as u16).to_le_bytes()); // e_phentsize
        ehdr.extend_from_slice(&(phnum as u16).to_le_bytes()); // e_phnum
        ehdr.extend_from_slice(&0u16.to_le_bytes()); // e_shentsize
        ehdr.extend_from_slice(&0u16.to_le_bytes()); // e_shnum
        ehdr.extend_from_slice(&0u16.to_le_bytes()); // e_shstrndx
        debug_assert_eq!(ehdr.len(), EHDR_SIZE);

        let mut phdrs = Vec::with_capacity(phnum * PHDR_SIZE);
        let mut seg_offset = offset;
        for seg in &self.segments {
            phdrs.extend_from_slice(&1u32.to_le_bytes()); // p_type = LOAD
            phdrs.extend_from_slice(&seg.flags.0.to_le_bytes()); // p_flags
            phdrs.extend_from_slice(&seg_offset.to_le_bytes()); // p_offset
            phdrs.extend_from_slice(&seg.vaddr.to_le_bytes()); // p_vaddr
            phdrs.extend_from_slice(&seg.vaddr.to_le_bytes()); // p_paddr
            phdrs.extend_from_slice(&(seg.data.len() as u64).to_le_bytes()); // p_filesz
            phdrs.extend_from_slice(&seg.mem_size().to_le_bytes()); // p_memsz
            phdrs.extend_from_slice(&0x1000u64.to_le_bytes()); // p_align
            seg_offset += seg.data.len() as u64;
        }

        let total = seg_offset as usize;
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&ehdr);
        out.extend_from_slice(&phdrs);
        out.resize(offset as usize, 0);
        for seg in &self.segments {
            out.extend_from_slice(&seg.data);
        }
        out
    }

    /// Parses ELF64 bytes produced by [`ElfImage::to_bytes`] (or any simple
    /// static executable with LOAD segments) into an owned image: an
    /// [`ElfView`] with its segment bytes copied out.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::BadElf`] on malformed input.
    pub fn parse(bytes: &[u8]) -> Result<Self, ImageError> {
        ElfView::parse(bytes).map(|view| view.to_owned())
    }

    /// Splits the serialized form into the three pieces the fw_cfg loader
    /// of §5 transfers and hashes separately: (ELF header, program headers,
    /// concatenated loadable segment data).
    pub fn fw_cfg_pieces(&self) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let bytes = self.to_bytes();
        let phnum = self.segments.len();
        let ehdr = bytes[..EHDR_SIZE].to_vec();
        let phdrs = bytes[EHDR_SIZE..EHDR_SIZE + phnum * PHDR_SIZE].to_vec();
        let segs: Vec<u8> = self
            .segments
            .iter()
            .flat_map(|s| s.data.iter().copied())
            .collect();
        (ehdr, phdrs, segs)
    }

    /// Sum of loadable file bytes (what a loader must copy).
    pub fn loadable_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.data.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ElfImage {
        ElfImage {
            entry: 0x1_0000_0000,
            segments: vec![
                Segment {
                    vaddr: 0x1_0000_0000,
                    data: vec![0x90; 5000],
                    bss: 0,
                    flags: SegmentFlags::RX,
                },
                Segment {
                    vaddr: 0x1_0001_0000,
                    data: vec![0x41; 3000],
                    bss: 0x2000,
                    flags: SegmentFlags::RW,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let elf = sample();
        let parsed = ElfImage::parse(&elf.to_bytes()).unwrap();
        assert_eq!(parsed, elf);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = 0;
        assert!(matches!(
            ElfImage::parse(&bytes),
            Err(ImageError::BadElf(_))
        ));
    }

    #[test]
    fn truncated_segment_rejected() {
        let bytes = sample().to_bytes();
        assert!(ElfImage::parse(&bytes[..bytes.len() - 100]).is_err());
    }

    #[test]
    fn not_64bit_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[4] = 1;
        assert!(ElfImage::parse(&bytes).is_err());
    }

    #[test]
    fn fw_cfg_pieces_cover_loadable_data() {
        let elf = sample();
        let (ehdr, phdrs, segs) = elf.fw_cfg_pieces();
        assert_eq!(ehdr.len(), EHDR_SIZE);
        assert_eq!(phdrs.len(), 2 * PHDR_SIZE);
        assert_eq!(segs.len() as u64, elf.loadable_bytes());
        // The pieces are enough to reconstruct a parseable image.
        let parsed = ElfImage::parse(&elf.to_bytes()).unwrap();
        assert_eq!(parsed.entry, elf.entry);
    }

    /// `sample()` bytes with one little-endian u64 overwritten.
    fn patched(at: usize, value: u64) -> Vec<u8> {
        let mut bytes = sample().to_bytes();
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        bytes
    }

    #[test]
    fn huge_phoff_rejected_without_overflow() {
        let bytes = patched(32, u64::MAX);
        assert_eq!(
            ElfImage::parse(&bytes),
            Err(ImageError::BadElf("program headers out of bounds"))
        );
    }

    #[test]
    fn huge_segment_offset_rejected_without_overflow() {
        // p_offset of the first program header.
        let bytes = patched(EHDR_SIZE + 8, u64::MAX - 2);
        assert_eq!(
            ElfImage::parse(&bytes),
            Err(ImageError::BadElf("segment data out of bounds"))
        );
        // p_filesz likewise.
        let bytes = patched(EHDR_SIZE + 32, u64::MAX);
        assert_eq!(
            ElfImage::parse(&bytes),
            Err(ImageError::BadElf("segment data out of bounds"))
        );
    }

    #[test]
    fn view_borrows_what_the_owned_image_copies() {
        let bytes = sample().to_bytes();
        let view = ElfView::parse(&bytes).unwrap();
        assert_eq!(view.to_owned(), sample());
        let range = bytes.as_ptr_range();
        for seg in &view.segments {
            assert!(
                range.contains(&seg.data.as_ptr()),
                "segment data is a borrow"
            );
        }
    }

    #[test]
    fn entry_and_bss_preserved() {
        let parsed = ElfImage::parse(&sample().to_bytes()).unwrap();
        assert_eq!(parsed.entry, 0x1_0000_0000);
        assert_eq!(parsed.segments[1].bss, 0x2000);
        assert_eq!(parsed.segments[1].mem_size(), 3000 + 0x2000);
    }
}
