//! 64-bit FNV-1a, the one digest every layer's content identities use:
//! the installed-package database digest, the repository, config and
//! request fingerprints the solve cache keys on, the scheduler's
//! workload and sweep digests, fault-plan draws, synthetic MACs and
//! catalog package sizes.

/// 64-bit FNV-1a — tiny, dependency-free, and stable across platforms.
/// Not cryptographic; collisions merely cause a (correct-by-replay)
/// cache miss ambiguity that the deterministic solver tolerates.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorb a string, terminated so `("ab","c")` ≠ `("a","bc")`.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write(s.as_bytes()).write(&[0xff])
    }

    /// Absorb a little-endian u64.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Absorb an f64 by its bit pattern.
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_order_and_boundary_sensitive() {
        let a = Fnv64::new().write_str("ab").write_str("c").finish();
        let b = Fnv64::new().write_str("a").write_str("bc").finish();
        assert_ne!(a, b);
        let c = Fnv64::new().write_u64(1).write_u64(2).finish();
        let d = Fnv64::new().write_u64(2).write_u64(1).finish();
        assert_ne!(c, d);
    }
}
