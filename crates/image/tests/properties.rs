//! Property-based tests for the image formats.
//!
//! Seeded XorShift64 case generation keeps the sweep deterministic without
//! an external property-testing dependency.

use sevf_codec::Codec;
use sevf_image::bzimage;
use sevf_image::cpio::{self, CpioEntry};
use sevf_image::elf::{ElfImage, Segment, SegmentFlags};
use sevf_image::kernel::{BootPhases, KernelDescriptor};
use sevf_sim::rng::XorShift64;

const CASES: u64 = 64;

fn bytes(rng: &mut XorShift64, min_len: usize, max_len: usize) -> Vec<u8> {
    let len = min_len as u64 + rng.next_below((max_len - min_len) as u64 + 1);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn random_segment(rng: &mut XorShift64) -> Segment {
    let flags = match rng.next_below(3) {
        0 => SegmentFlags::RX,
        1 => SegmentFlags::R,
        _ => SegmentFlags::RW,
    };
    Segment {
        vaddr: rng.next_below(1 << 40),
        data: bytes(rng, 1, 1999),
        bss: rng.next_below(10_000),
        flags,
    }
}

fn random_segments(rng: &mut XorShift64) -> Vec<Segment> {
    let n = 1 + rng.next_below(5) as usize;
    (0..n).map(|_| random_segment(rng)).collect()
}

/// A path like the proptest regex `[a-z][a-z0-9/_.-]{0,30}` would draw.
fn random_name(rng: &mut XorShift64) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789/_.-";
    let mut name = String::new();
    name.push(FIRST[rng.next_below(FIRST.len() as u64) as usize] as char);
    for _ in 0..rng.next_below(31) {
        name.push(REST[rng.next_below(REST.len() as u64) as usize] as char);
    }
    name
}

fn random_cpio_entry(rng: &mut XorShift64) -> CpioEntry {
    let mode = match rng.next_below(3) {
        0 => 0o100644u32,
        1 => 0o100755u32,
        _ => 0o040755u32,
    };
    CpioEntry {
        name: random_name(rng),
        mode,
        data: bytes(rng, 0, 499),
    }
}

#[test]
fn elf_roundtrip() {
    let mut rng = XorShift64::new(0x1A6_0001);
    for _ in 0..CASES {
        let elf = ElfImage {
            entry: rng.next_below(1 << 40),
            segments: random_segments(&mut rng),
        };
        let parsed = ElfImage::parse(&elf.to_bytes()).unwrap();
        assert_eq!(parsed, elf);
    }
}

#[test]
fn elf_fw_cfg_pieces_cover_data() {
    let mut rng = XorShift64::new(0x1A6_0002);
    for _ in 0..CASES {
        let elf = ElfImage {
            entry: 0x1000,
            segments: random_segments(&mut rng),
        };
        let (ehdr, phdrs, segs) = elf.fw_cfg_pieces();
        assert_eq!(ehdr.len(), 64);
        assert_eq!(phdrs.len(), elf.segments.len() * 56);
        assert_eq!(segs.len() as u64, elf.loadable_bytes());
    }
}

#[test]
fn elf_garbage_never_panics() {
    let mut rng = XorShift64::new(0x1A6_0003);
    for _ in 0..CASES {
        let _ = ElfImage::parse(&bytes(&mut rng, 0, 499));
    }
    // Garbage that passes the ident checks, with huge offsets and sizes
    // planted where the parser adds them: e_phoff, and each program
    // header's p_offset and p_filesz.
    let huge = |rng: &mut XorShift64| match rng.next_below(4) {
        0 => u64::MAX,
        1 => u64::MAX - rng.next_below(64),
        2 => 1 << (32 + rng.next_below(32)),
        _ => rng.next_u64(),
    };
    for _ in 0..CASES {
        let mut data = bytes(&mut rng, 64 + 56, 499);
        data[..5].copy_from_slice(b"\x7fELF\x02");
        data[54..56].copy_from_slice(&56u16.to_le_bytes());
        let phnum = data.len().saturating_sub(64) / 56;
        data[56..58].copy_from_slice(&(phnum as u16).to_le_bytes());
        data[32..40].copy_from_slice(&64u64.to_le_bytes());
        for ph in data[64..].chunks_exact_mut(56) {
            ph[0..4].copy_from_slice(&1u32.to_le_bytes());
        }
        let at = match rng.next_below(3) {
            0 => 32,
            field => {
                let ph = 64 + 56 * rng.next_below(phnum as u64) as usize;
                ph + if field == 1 { 8 } else { 32 }
            }
        };
        data[at..at + 8].copy_from_slice(&huge(&mut rng).to_le_bytes());
        assert!(matches!(
            ElfImage::parse(&data),
            Err(sevf_image::ImageError::BadElf(_))
        ));
    }
}

#[test]
fn cpio_roundtrip() {
    let mut rng = XorShift64::new(0x1A6_0004);
    for _ in 0..CASES {
        let raw: Vec<CpioEntry> = (0..rng.next_below(10))
            .map(|_| random_cpio_entry(&mut rng))
            .collect();
        // Deduplicate names (archives with duplicate paths are legal but
        // make the equality check ambiguous).
        let mut seen = std::collections::HashSet::new();
        let entries: Vec<CpioEntry> = raw
            .into_iter()
            .filter(|e| seen.insert(e.name.clone()))
            .collect();
        let archive = cpio::build(&entries);
        assert_eq!(cpio::parse(&archive).unwrap(), entries);
    }
}

#[test]
fn cpio_garbage_never_panics() {
    let mut rng = XorShift64::new(0x1A6_0005);
    for _ in 0..CASES {
        let _ = cpio::parse(&bytes(&mut rng, 0, 399));
    }
}

#[test]
fn bzimage_roundtrip_any_payload() {
    let mut rng = XorShift64::new(0x1A6_0006);
    for _ in 0..CASES {
        let payload = bytes(&mut rng, 0, 19_999);
        let codec = match rng.next_below(3) {
            0 => Codec::None,
            1 => Codec::Lz4,
            _ => Codec::Deflate,
        };
        let bz = bzimage::build(&payload, codec);
        let (compressed, parsed_codec) = bzimage::parse(&bz).unwrap();
        assert_eq!(parsed_codec, codec);
        assert_eq!(codec.decompress(compressed).unwrap(), payload);
        assert_eq!(bzimage::unpack_vmlinux(&bz).unwrap(), payload);
    }
}

#[test]
fn bzimage_garbage_never_panics() {
    let mut rng = XorShift64::new(0x1A6_0007);
    for _ in 0..CASES {
        let data = bytes(&mut rng, 0, 1999);
        let _ = bzimage::parse(&data);
        let _ = bzimage::unpack_vmlinux(&data);
    }
}

#[test]
fn descriptor_roundtrip() {
    let mut rng = XorShift64::new(0x1A6_0008);
    for _ in 0..CASES {
        let mut name = String::new();
        name.push((b'a' + rng.next_below(26) as u8) as char);
        for _ in 0..rng.next_below(21) {
            const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
            name.push(CHARS[rng.next_below(CHARS.len() as u64) as usize] as char);
        }
        let d = KernelDescriptor {
            name,
            phases: BootPhases {
                early_us: rng.next_below(1_000_000) as u32,
                drivers_us: rng.next_below(1_000_000) as u32,
                late_us: rng.next_below(1_000_000) as u32,
            },
            has_network: rng.next_u64() & 1 == 1,
            vmlinux_size: rng.next_u64(),
        };
        assert_eq!(KernelDescriptor::from_bytes(&d.to_bytes()).unwrap(), d);
    }
}

#[test]
fn descriptor_garbage_never_panics() {
    let mut rng = XorShift64::new(0x1A6_0009);
    for _ in 0..CASES {
        let _ = KernelDescriptor::from_bytes(&bytes(&mut rng, 0, 99));
    }
}
