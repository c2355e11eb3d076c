//! Immutable boot-component bytes that carry their own SHA-256.
//!
//! §4.3 of the paper takes kernel and initrd hashing off the boot path: a
//! tool hashes each component once, ahead of time, and every VM that boots
//! it shares the result. A [`Blob`] is that arrangement inside one process:
//! the digest is computed on first use and kept with the bytes, so no boot
//! ever hashes the same component twice. The bytes cannot change after
//! construction, so the stored digest cannot go stale.

use std::fmt;
use std::ops::Deref;
use std::sync::OnceLock;

use sevf_crypto::sha256;

/// The bytes of one immutable boot component (a bzImage, an initrd) and
/// their SHA-256, computed on first use.
///
/// Derefs to `[u8]`, so it reads like the byte slice it wraps.
///
/// # Example
///
/// ```
/// use sevf_image::blob::Blob;
///
/// let blob = Blob::new(b"abc".to_vec());
/// assert_eq!(blob.len(), 3);
/// assert_eq!(blob.sha256(), sevf_crypto::sha256(b"abc"));
/// ```
pub struct Blob {
    bytes: Vec<u8>,
    sha256: OnceLock<[u8; 32]>,
}

impl Blob {
    /// Wraps `bytes`; the digest is not computed until asked for.
    pub fn new(bytes: Vec<u8>) -> Self {
        Blob {
            bytes,
            sha256: OnceLock::new(),
        }
    }

    /// The SHA-256 of the bytes (computed on the first call, then reused).
    pub fn sha256(&self) -> [u8; 32] {
        *self.sha256.get_or_init(|| sha256(&self.bytes))
    }
}

impl Deref for Blob {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl fmt::Debug for Blob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Blob")
            .field("len", &self.bytes.len())
            .field("hashed", &self.sha256.get().is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_lazy_and_matches_a_fresh_hash() {
        let blob = Blob::new(vec![7u8; 5000]);
        assert!(blob.sha256.get().is_none(), "hashed at construction");
        assert_eq!(blob.sha256(), sha256(&[7u8; 5000]));
        assert_eq!(blob.sha256(), blob.sha256());
        assert_eq!(&blob[..], &[7u8; 5000][..]);
    }
}
