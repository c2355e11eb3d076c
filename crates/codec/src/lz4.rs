//! The LZ4 block format.
//!
//! This is the codec the paper recommends for bzImage payloads: its
//! byte-oriented sequences decompress far faster than entropy-coded formats,
//! which is what makes `copy + hash + decompress(LZ4)` beat
//! `copy + hash` of the uncompressed kernel in Fig. 5.
//!
//! The block format is implemented as specified upstream:
//! each *sequence* is
//!
//! ```text
//! token(1B: literal_len<<4 | (match_len-4)) | [literal_len ext 255…] |
//! literals | offset(2B LE) | [match_len ext 255…]
//! ```
//!
//! with the spec's end conditions (final sequence is literal-only; matches
//! stop ≥ 12 bytes before the end; the last 5 bytes are literals). A small
//! container header (`"SVL4"` + original length) makes the stream
//! self-describing.

use crate::CodecError;

const MAGIC: &[u8; 4] = b"SVL4";
const MIN_MATCH: usize = 4;
/// Spec: matches must not start within the last 12 bytes of input.
const MF_LIMIT: usize = 12;
/// Spec: the last 5 bytes must be literals.
const LAST_LITERALS: usize = 5;
const MAX_DISTANCE: usize = 65_535;

fn hash4(data: &[u8], pos: usize) -> usize {
    let v = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
    (v.wrapping_mul(2654435761) >> 17) as usize & 0x7fff
}

/// Compresses `data` into an LZ4 block with the "SVL4" container header.
///
/// # Example
///
/// ```
/// let data = vec![7u8; 1000];
/// let packed = sevf_codec::lz4::compress(&data);
/// assert!(packed.len() < 64);
/// assert_eq!(sevf_codec::lz4::decompress(&packed)?, data);
/// # Ok::<(), sevf_codec::CodecError>(())
/// ```
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    compress_block(data, &mut out);
    out
}

fn write_varlen(out: &mut Vec<u8>, mut value: usize) {
    while value >= 255 {
        out.push(255);
        value -= 255;
    }
    out.push(value as u8);
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], match_len: usize, offset: usize) {
    let lit_nibble = literals.len().min(15) as u8;
    let match_nibble = if match_len > 0 {
        (match_len - MIN_MATCH).min(15) as u8
    } else {
        0
    };
    out.push((lit_nibble << 4) | match_nibble);
    if literals.len() >= 15 {
        write_varlen(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if match_len > 0 {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if match_len - MIN_MATCH >= 15 {
            write_varlen(out, match_len - MIN_MATCH - 15);
        }
    }
}

fn compress_block(data: &[u8], out: &mut Vec<u8>) {
    if data.len() < MF_LIMIT + 1 {
        emit_sequence(out, data, 0, 0);
        return;
    }
    let mut table = vec![usize::MAX; 1 << 15];
    let match_limit = data.len() - MF_LIMIT;
    let literal_limit = data.len() - LAST_LITERALS;
    let mut anchor = 0usize;
    let mut pos = 0usize;
    while pos < match_limit {
        let h = hash4(data, pos);
        let candidate = table[h];
        table[h] = pos;
        let found = candidate != usize::MAX
            && pos - candidate <= MAX_DISTANCE
            && data[candidate..candidate + 4] == data[pos..pos + 4];
        if !found {
            pos += 1;
            continue;
        }
        // Extend the match forward, but never into the last-literals zone.
        let mut len = 4usize;
        let max_len = literal_limit - pos;
        while len < max_len && data[candidate + len] == data[pos + len] {
            len += 1;
        }
        emit_sequence(out, &data[anchor..pos], len, pos - candidate);
        // Index a couple of positions inside the match to help later finds.
        let step = (len / 4).max(1);
        let mut p = pos + 1;
        while p + 4 <= data.len() && p < pos + len {
            table[hash4(data, p)] = p;
            p += step;
        }
        pos += len;
        anchor = pos;
    }
    // Final literal-only sequence.
    emit_sequence(out, &data[anchor..], 0, 0);
}

/// Decompresses an "SVL4" container produced by [`compress`].
///
/// The output is allocated once, at the declared length; literals go in as
/// slice copies and matches as `extend_from_within` runs (one run when the
/// match does not overlap its source, doubling runs when it does).
///
/// # Errors
///
/// Returns a [`CodecError`] for bad magic, truncated streams, invalid
/// offsets, or output that does not match the declared length.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    if data.len() < 12 || &data[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let orig_len = u64::from_le_bytes(data[4..12].try_into().unwrap()) as usize;
    let mut input = &data[12..];
    // No stream produces more than 255 output bytes per input byte (one
    // match-length extension byte adds 255), so a lying header cannot force
    // an allocation beyond that.
    let mut out = Vec::with_capacity(orig_len.min(input.len().saturating_mul(255)));
    // Bytes the stream has produced so far. While `len <= orig_len` this is
    // `out.len()`; past it the stream is already doomed, and the decoder
    // only keeps counting so the error it reports matches the byte-wise
    // definition of the format.
    let mut len = 0usize;

    loop {
        let (&token, rest) = input.split_first().ok_or(CodecError::Truncated)?;
        input = rest;
        let lit_len = read_varlen(&mut input, (token >> 4) as usize)?;
        if input.len() < lit_len {
            return Err(CodecError::Truncated);
        }
        let (literals, rest) = input.split_at(lit_len);
        input = rest;
        len += lit_len;
        if len <= orig_len {
            out.extend_from_slice(literals);
        }
        if input.is_empty() {
            // Literal-only final sequence.
            break;
        }
        if input.len() < 2 {
            return Err(CodecError::Truncated);
        }
        let offset = u16::from_le_bytes([input[0], input[1]]) as usize;
        input = &input[2..];
        let match_len = read_varlen(&mut input, (token & 0x0f) as usize)? + MIN_MATCH;
        if offset == 0 || offset > len {
            return Err(CodecError::InvalidBackReference { at: len });
        }
        len += match_len;
        if len > orig_len {
            return Err(CodecError::LengthMismatch {
                expected: orig_len as u64,
                actual: len as u64,
            });
        }
        copy_match(&mut out, offset, match_len);
    }
    if len != orig_len {
        return Err(CodecError::LengthMismatch {
            expected: orig_len as u64,
            actual: len as u64,
        });
    }
    Ok(out)
}

/// Reads an LZ4 length: the token nibble `base`, plus extension bytes when
/// the nibble is saturated.
fn read_varlen(input: &mut &[u8], base: usize) -> Result<usize, CodecError> {
    let mut value = base;
    if base == 15 {
        loop {
            let (&b, rest) = input.split_first().ok_or(CodecError::Truncated)?;
            *input = rest;
            value += b as usize;
            if b != 255 {
                break;
            }
        }
    }
    Ok(value)
}

/// Appends `len` bytes copied from `offset` bytes back (`1 <= offset <=
/// out.len()`). An overlapping match repeats its `offset`-byte source, so
/// each run can copy everything appended so far: the runs double.
fn copy_match(out: &mut Vec<u8>, offset: usize, len: usize) {
    let start = out.len() - offset;
    let mut left = len;
    while left > 0 {
        let run = left.min(out.len() - start);
        out.extend_from_within(start..start + run);
        left -= run;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-wise decoder [`decompress`] replaced: it grows the output
    /// from 1 MiB and pushes match bytes one at a time. Kept as the
    /// reference the bulk decoder must agree with, byte for byte and error
    /// for error.
    fn decompress_reference(data: &[u8]) -> Result<Vec<u8>, CodecError> {
        if data.len() < 12 || &data[..4] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let orig_len = u64::from_le_bytes(data[4..12].try_into().unwrap()) as usize;
        let mut out = Vec::with_capacity(orig_len.min(1 << 20));
        let mut input = &data[12..];
        loop {
            let (&token, rest) = input.split_first().ok_or(CodecError::Truncated)?;
            input = rest;
            let lit_len = read_varlen(&mut input, (token >> 4) as usize)?;
            if input.len() < lit_len {
                return Err(CodecError::Truncated);
            }
            out.extend_from_slice(&input[..lit_len]);
            input = &input[lit_len..];
            if input.is_empty() {
                break;
            }
            if input.len() < 2 {
                return Err(CodecError::Truncated);
            }
            let offset = u16::from_le_bytes([input[0], input[1]]) as usize;
            input = &input[2..];
            let match_len = read_varlen(&mut input, (token & 0x0f) as usize)? + MIN_MATCH;
            if offset == 0 || offset > out.len() {
                return Err(CodecError::InvalidBackReference { at: out.len() });
            }
            let start = out.len() - offset;
            for i in 0..match_len {
                let b = out[start + i];
                out.push(b);
            }
            if out.len() > orig_len {
                return Err(CodecError::LengthMismatch {
                    expected: orig_len as u64,
                    actual: out.len() as u64,
                });
            }
        }
        if out.len() != orig_len {
            return Err(CodecError::LengthMismatch {
                expected: orig_len as u64,
                actual: out.len() as u64,
            });
        }
        Ok(out)
    }

    /// Minimal xorshift64* generator (sevf-sim's RNG lives downstream of
    /// this crate).
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Self {
            Rng(seed | 1)
        }

        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound.max(1)
        }
    }

    /// Seeded test input: runs, short repeats and noise, so the stream
    /// mixes long literals, overlapping matches and far matches.
    fn mixed_input(rng: &mut Rng, len: usize) -> Vec<u8> {
        let mut data = Vec::with_capacity(len);
        while data.len() < len {
            let piece = 1 + rng.below(300) as usize;
            match rng.below(4) {
                0 => data.extend(std::iter::repeat_n(rng.next_u64() as u8, piece)),
                1 => {
                    let period = 1 + rng.below(7) as usize;
                    let pattern: Vec<u8> = (0..period).map(|_| rng.next_u64() as u8).collect();
                    data.extend(pattern.iter().cycle().take(piece));
                }
                2 if data.len() > 1 => {
                    let from = rng.below(data.len() as u64) as usize;
                    let end = (from + piece).min(data.len());
                    data.extend_from_within(from..end);
                }
                _ => data.extend((0..piece).map(|_| rng.next_u64() as u8)),
            }
        }
        data.truncate(len);
        data
    }

    #[test]
    fn bulk_decoder_agrees_with_bytewise_reference() {
        let mut rng = Rng::new(0x1A_0004);
        for case in 0..200 {
            let len = match case % 4 {
                0 => rng.below(40) as usize,
                1 => rng.below(5_000) as usize,
                2 => 20_000 + rng.below(100_000) as usize,
                _ => 70_000 + rng.below(10) as usize,
            };
            let data = mixed_input(&mut rng, len);
            let packed = compress(&data);
            assert_eq!(decompress(&packed), Ok(data.clone()), "case {case}");
            assert_eq!(decompress_reference(&packed), Ok(data), "case {case}");

            let mut variants: Vec<Vec<u8>> = Vec::new();
            // Truncation anywhere, including inside the header.
            let cut = rng.below(packed.len() as u64) as usize;
            variants.push(packed[..cut].to_vec());
            // Header lengths that are too small, too large, or absurd.
            for declared in [
                len.saturating_sub(1 + rng.below(64) as usize),
                len + 1 + rng.below(64) as usize,
                usize::MAX,
            ] {
                let mut v = packed.clone();
                v[4..12].copy_from_slice(&(declared as u64).to_le_bytes());
                variants.push(v);
            }
            // Flipped payload bytes: these hit tokens, lengths and offsets
            // (zero, too far, or merely wrong).
            for _ in 0..4 {
                if packed.len() > 12 {
                    let mut v = packed.clone();
                    let at = 12 + rng.below((packed.len() - 12) as u64) as usize;
                    v[at] ^= 1 << rng.below(8);
                    variants.push(v);
                }
            }
            for (i, v) in variants.iter().enumerate() {
                assert_eq!(
                    decompress(v),
                    decompress_reference(v),
                    "case {case} variant {i}"
                );
            }
        }
    }

    #[test]
    fn crafted_offsets_and_lengths_agree_with_reference() {
        // One literal then a match: (literal count, offset, extension
        // bytes of the match length, declared length).
        let shapes: [(u8, u16, &[u8], u64); 8] = [
            (4, 0, &[], 20),             // zero offset
            (4, 5, &[], 20),             // offset reaches before the start
            (4, 4, &[], 8),              // exact fit
            (4, 1, &[255, 255, 3], 600), // long overlapping run
            (4, 2, &[255, 7], 10),       // match overruns the declared length
            (4, 3, &[], 1),              // literals alone overrun it
            (4, 0, &[], 2),              // ... and then a zero offset
            (4, 4, &[], u64::MAX),       // absurd declared length
        ];
        for (lits, offset, ext, declared) in shapes {
            let mut stream = MAGIC.to_vec();
            stream.extend_from_slice(&declared.to_le_bytes());
            let nibble = if ext.is_empty() { 0 } else { 15 };
            stream.push(lits << 4 | nibble);
            stream.extend((0..lits).map(|i| b'a' + i));
            stream.extend_from_slice(&offset.to_le_bytes());
            stream.extend_from_slice(ext);
            // Literal-only terminator.
            stream.push(0x10);
            stream.push(b'z');
            assert_eq!(
                decompress(&stream),
                decompress_reference(&stream),
                "offset {offset} ext {ext:?} declared {declared}"
            );
        }
    }

    #[test]
    fn roundtrip_runs() {
        let data = vec![0xaau8; 100_000];
        let packed = compress(&data);
        assert!(packed.len() < 1000, "run should collapse: {}", packed.len());
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn roundtrip_text() {
        let data = b"firecracker boots microvms very fast indeed ".repeat(500);
        let packed = compress(&data);
        assert!(packed.len() < data.len() / 3);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn roundtrip_small_inputs() {
        for len in 0..20usize {
            let data: Vec<u8> = (0..len as u8).collect();
            assert_eq!(decompress(&compress(&data)).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn roundtrip_incompressible() {
        let mut state = 0xdeadbeefu64;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
        // Expansion must be bounded (< 1% for random data).
        assert!(packed.len() < data.len() + data.len() / 64 + 64);
    }

    #[test]
    fn long_matches_use_extended_lengths() {
        let mut data = b"0123456789abcdefghij".to_vec();
        data.extend(std::iter::repeat_n(b'z', 1000));
        data.extend_from_slice(b"0123456789abcdefghij");
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decompress(b"NOPE00000000"), Err(CodecError::BadMagic));
    }

    #[test]
    fn truncated_stream_rejected() {
        let data = b"hello world hello world hello world".repeat(10);
        let packed = compress(&data);
        for cut in [12, packed.len() / 2, packed.len() - 1] {
            assert!(decompress(&packed[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn zero_offset_rejected() {
        // token: 0 literals, match; offset 0x0000.
        let mut stream = MAGIC.to_vec();
        stream.extend_from_slice(&10u64.to_le_bytes());
        stream.push(0x00);
        stream.extend_from_slice(&[0x00, 0x00]);
        assert!(matches!(
            decompress(&stream),
            Err(CodecError::InvalidBackReference { .. })
        ));
    }

    #[test]
    fn overlapping_copy_semantics() {
        // abab... via offset 2.
        let data: Vec<u8> = std::iter::repeat_n([b'a', b'b'], 500).flatten().collect();
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }
}
