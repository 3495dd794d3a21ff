//! Synthetic bitstream repository.
//!
//! Real systems keep partial bitstreams in external memory and DMA them
//! through the configuration port. The experiments only need the *cost*
//! of that movement (latency, energy, bytes — see [`crate::energy`]),
//! but a faithful substrate should also exercise the data path, so this
//! module provides a repository of deterministic pseudo-random
//! bitstreams keyed by [`ConfigId`]. Blobs are shared `Arc<[u8]>`s, so
//! handing a bitstream to a simulated DMA engine is a cheap reference
//! count, like pointing real DMA at a buffer.

use rtr_taskgraph::ConfigId;
use std::collections::HashMap;
use std::sync::Arc;

/// A repository of synthetic partial bitstreams.
#[derive(Debug, Clone)]
pub struct BitstreamRepository {
    size_bytes: usize,
    blobs: HashMap<ConfigId, Arc<[u8]>>,
    sums: HashMap<ConfigId, u64>,
}

impl BitstreamRepository {
    /// Creates a repository producing `size_bytes`-sized bitstreams.
    pub fn new(size_bytes: usize) -> Self {
        BitstreamRepository {
            size_bytes,
            blobs: HashMap::new(),
            sums: HashMap::new(),
        }
    }

    /// Fetches (generating on first access) the bitstream for `config`.
    pub fn fetch(&mut self, config: ConfigId) -> Arc<[u8]> {
        self.blobs
            .entry(config)
            .or_insert_with(|| synthesize(config, self.size_bytes))
            .clone()
    }

    /// Number of distinct bitstreams generated so far.
    pub fn generated(&self) -> usize {
        self.blobs.len()
    }

    /// The golden checksum of `config`'s bitstream (generating the blob
    /// on first access, memoising the sum) — what an integrity check
    /// compares a transferred copy against.
    pub fn expected_checksum(&mut self, config: ConfigId) -> u64 {
        if let Some(&sum) = self.sums.get(&config) {
            return sum;
        }
        let sum = checksum(&self.fetch(config));
        self.sums.insert(config, sum);
        sum
    }

    /// Bitstream size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }
}

/// Generates a deterministic pseudo-random blob for `config` using a
/// SplitMix64 stream seeded by the config id — stable across runs and
/// platforms.
fn synthesize(config: ConfigId, size: usize) -> Arc<[u8]> {
    let mut out = Vec::with_capacity(size);
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (u64::from(config.0) << 17);
    while out.len() < size {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let chunk = z.to_le_bytes();
        let take = chunk.len().min(size - out.len());
        out.extend_from_slice(&chunk[..take]);
    }
    out.into()
}

/// A Fletcher-style checksum used to emulate integrity checking of a
/// transferred bitstream (the fault model's "CRC").
pub fn checksum(data: &[u8]) -> u64 {
    let mut a: u64 = 1;
    let mut b: u64 = 0;
    for &byte in data {
        a = (a + u64::from(byte)) % 65_521;
        b = (b + a) % 65_521;
    }
    (b << 32) | a
}

/// A transfer-corrupted copy of `data`: one byte (picked by `salt`) is
/// flipped by a non-zero XOR derived from `salt`. A single-byte delta
/// is never ≡ 0 mod 65 521, so [`verify`] always detects it.
pub fn corrupt(data: &[u8], salt: u64) -> Vec<u8> {
    assert!(!data.is_empty(), "cannot corrupt an empty bitstream");
    let mut out = data.to_vec();
    let idx = (salt % data.len() as u64) as usize;
    let flip = (salt >> 32) as u8 | 1; // never zero: the byte must change
    out[idx] ^= flip;
    out
}

/// Integrity check of a transferred bitstream against its golden
/// checksum.
pub fn verify(data: &[u8], expected: u64) -> bool {
    checksum(data) == expected
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitstreams_have_requested_size() {
        let mut repo = BitstreamRepository::new(1_000);
        assert_eq!(repo.fetch(ConfigId(1)).len(), 1_000);
    }

    #[test]
    fn deterministic_per_config() {
        let mut r1 = BitstreamRepository::new(256);
        let mut r2 = BitstreamRepository::new(256);
        assert_eq!(r1.fetch(ConfigId(7)), r2.fetch(ConfigId(7)));
        assert_ne!(r1.fetch(ConfigId(7)), r1.fetch(ConfigId(8)));
    }

    #[test]
    fn fetch_is_cached_and_cheap() {
        let mut repo = BitstreamRepository::new(64);
        let a = repo.fetch(ConfigId(3));
        let b = repo.fetch(ConfigId(3));
        assert_eq!(repo.generated(), 1);
        // Clones of the shared blob point at the same backing storage.
        assert_eq!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn checksum_detects_difference() {
        let mut repo = BitstreamRepository::new(512);
        let a = checksum(&repo.fetch(ConfigId(1)));
        let b = checksum(&repo.fetch(ConfigId(2)));
        assert_ne!(a, b);
    }

    #[test]
    fn corruption_is_always_detected() {
        let mut repo = BitstreamRepository::new(512);
        let golden = repo.expected_checksum(ConfigId(5));
        let clean = repo.fetch(ConfigId(5));
        assert!(verify(&clean, golden));
        // Any salt yields a one-byte flip the checksum catches.
        for salt in [0u64, 1, 511, 512, 0xDEAD_BEEF_0000_0000, u64::MAX] {
            let bad = corrupt(&clean, salt);
            assert_eq!(bad.len(), clean.len());
            assert_ne!(&bad[..], &clean[..]);
            assert!(!verify(&bad, golden), "salt {salt} went undetected");
        }
        // The memoised golden sum matches a fresh computation.
        assert_eq!(golden, checksum(&clean));
    }
}
