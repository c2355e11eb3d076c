//! Microbenchmarks of the from-scratch crypto primitives.
//!
//! These measure the *real* throughput of this repo's implementations on
//! the host machine — useful when judging how far the calibrated
//! virtual-time constants (SHA-NI-class 2 GB/s, PSP 4 MB/s) sit from
//! these implementations: SHA-256 runs on the x86 SHA extensions when the
//! CPU has them, everything else is portable software.

use sevf_bench::time_it;
use sevf_crypto::{hmac_sha384, sha256, sha384, Aes128, DhKeyPair, XexCipher};

fn main() {
    let data_64k = vec![0xa5u8; 64 * 1024];

    time_it("hash/sha256_64k", 20, || sha256(&data_64k));
    time_it("hash/sha384_64k", 20, || sha384(&data_64k));
    time_it("hash/hmac_sha384_64k", 20, || {
        hmac_sha384(b"key", &data_64k)
    });

    let cipher = Aes128::new(&[7u8; 16]);
    let block = [0x11u8; 16];
    time_it("aes/encrypt_block", 100, || cipher.encrypt_block(&block));
    let xex = XexCipher::new(&[7u8; 16]);
    let page = vec![0x22u8; 4096];
    time_it("aes/xex_page", 50, || xex.encrypt(0x1000, &page));

    time_it("dh/from_seed", 10, || DhKeyPair::from_seed(b"alice"));
    let a = DhKeyPair::from_seed(b"a");
    let bkey = DhKeyPair::from_seed(b"b").public_key();
    time_it("dh/shared_secret", 10, || a.shared_secret(&bkey));
}
