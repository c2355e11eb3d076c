//! SHA-256 block compression on the x86 SHA extensions.
//!
//! This is the path the paper's verifier gets from the `sha2` crate:
//! `sha256rnds2` runs two rounds per instruction and `sha256msg1`/`msg2`
//! expand the message schedule four words at a time. Register layout and
//! round structure follow Intel's reference ("New Instructions Supporting
//! the Secure Hash Algorithm on Intel Architecture Processors", 2013).
//!
//! The crate's only `unsafe` is the one call in [`ShaNi::compress`]: a
//! `#[target_feature]` function may only be called once the CPU is known to
//! have those features, and a [`ShaNi`] value is the proof that it does.
//! Everything inside [`compress_ni`] is safe code — the intrinsics take and
//! return vector values, and words move in and out through
//! `_mm_set_epi32`/`_mm_extract_epi32` rather than pointer loads.

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi32, _mm_set_epi32,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
};
use std::sync::OnceLock;

/// Proof that the running CPU supports every feature [`compress_ni`]
/// enables. Only [`ShaNi::get`] constructs one.
#[derive(Clone, Copy, Debug)]
pub(super) struct ShaNi(());

impl ShaNi {
    /// The hardware path, if this CPU has it. Detection runs once per
    /// process; later calls read the cached answer.
    pub(super) fn get() -> Option<ShaNi> {
        static DETECTED: OnceLock<Option<ShaNi>> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            let supported = is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse2")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1");
            supported.then_some(ShaNi(()))
        })
    }

    /// Compresses `blocks` (a whole number of 64-byte blocks) into `state`.
    pub(super) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: `compress_ni` requires the sha, sse2, ssse3 and sse4.1
        // target features. `self` exists only because `ShaNi::get` saw the
        // CPU report all four.
        unsafe { compress_ni(state, blocks, super::sha256_k()) }
    }
}

/// Big-endian message words `4g..4g+4` of `block` as one vector, word
/// `4g` in the lowest lane.
#[target_feature(enable = "sse2")]
fn load_words(block: &[u8; 64], g: usize) -> __m128i {
    let mut w = [0i32; 4];
    for (i, word) in w.iter_mut().enumerate() {
        let at = 16 * g + 4 * i;
        *word = i32::from_be_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]]);
    }
    _mm_set_epi32(w[3], w[2], w[1], w[0])
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_ni(state: &mut [u32; 8], blocks: &[u8], k: &[u32; 64]) {
    let (blocks, rest) = blocks.as_chunks::<64>();
    debug_assert!(rest.is_empty(), "whole blocks only");
    let kv: [__m128i; 16] = std::array::from_fn(|g| {
        _mm_set_epi32(
            k[4 * g + 3] as i32,
            k[4 * g + 2] as i32,
            k[4 * g + 1] as i32,
            k[4 * g] as i32,
        )
    });
    let s = state.map(|x| x as i32);
    // `sha256rnds2` wants the state split as (a, b, e, f) and (c, d, g, h),
    // highest lane first.
    let mut abef = _mm_set_epi32(s[0], s[1], s[4], s[5]);
    let mut cdgh = _mm_set_epi32(s[2], s[3], s[6], s[7]);

    for block in blocks {
        let abef_in = abef;
        let cdgh_in = cdgh;
        let mut w0 = load_words(block, 0);
        let mut w1 = load_words(block, 1);
        let mut w2 = load_words(block, 2);
        let mut w3 = load_words(block, 3);
        // Four rounds on schedule group `$g` (held in `$w`).
        macro_rules! rounds4 {
            ($w:expr, $g:expr) => {{
                let wk = _mm_add_epi32($w, kv[$g]);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }};
        }
        // Replace the oldest group `$w0` with the next one, from the
        // three after it, then run its rounds.
        macro_rules! schedule_rounds4 {
            ($w0:ident, $w1:ident, $w2:ident, $w3:ident, $g:expr) => {{
                let t = _mm_sha256msg1_epu32($w0, $w1);
                let t = _mm_add_epi32(t, _mm_alignr_epi8($w3, $w2, 4));
                $w0 = _mm_sha256msg2_epu32(t, $w3);
                rounds4!($w0, $g);
            }};
        }
        rounds4!(w0, 0);
        rounds4!(w1, 1);
        rounds4!(w2, 2);
        rounds4!(w3, 3);
        schedule_rounds4!(w0, w1, w2, w3, 4);
        schedule_rounds4!(w1, w2, w3, w0, 5);
        schedule_rounds4!(w2, w3, w0, w1, 6);
        schedule_rounds4!(w3, w0, w1, w2, 7);
        schedule_rounds4!(w0, w1, w2, w3, 8);
        schedule_rounds4!(w1, w2, w3, w0, 9);
        schedule_rounds4!(w2, w3, w0, w1, 10);
        schedule_rounds4!(w3, w0, w1, w2, 11);
        schedule_rounds4!(w0, w1, w2, w3, 12);
        schedule_rounds4!(w1, w2, w3, w0, 13);
        schedule_rounds4!(w2, w3, w0, w1, 14);
        schedule_rounds4!(w3, w0, w1, w2, 15);
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    // Undo the (a, b, e, f) / (c, d, g, h) split.
    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgef = _mm_alignr_epi8(dchg, feba, 8);
    *state = [
        _mm_extract_epi32(dcba, 0) as u32,
        _mm_extract_epi32(dcba, 1) as u32,
        _mm_extract_epi32(dcba, 2) as u32,
        _mm_extract_epi32(dcba, 3) as u32,
        _mm_extract_epi32(hgef, 0) as u32,
        _mm_extract_epi32(hgef, 1) as u32,
        _mm_extract_epi32(hgef, 2) as u32,
        _mm_extract_epi32(hgef, 3) as u32,
    ];
}
