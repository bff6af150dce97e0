//! Shared FNV-1a fingerprint primitives.
//!
//! Two widths, two jobs:
//!
//! - **64-bit** ([`Fnv64`]) is a cheap stable fingerprint for callers outside
//!   the control plane: qbench seeds its generated inputs from it and folds
//!   every run's results into the `digest` it prints (the estimate cache's
//!   pinned-values test uses it too).
//! - **128-bit** ([`Fnv128`]) backs the control plane's *incremental* state
//!   digest: a rolling hash absorbed event-by-event as entries are journaled,
//!   anchored to a full-encode checkpoint at each snapshot. Two planes that
//!   journal the same bytes from the same checkpoint roll to the same value,
//!   so digest equality is a cheap O(1) stand-in for the byte-exact
//!   `encode_state` oracle (which the test suites keep for real comparisons).
//!
//! FNV-1a is used deliberately: it is a fixed public algorithm with no
//! per-process seed, so digests are stable across runs, replicas, and
//! failovers — a requirement for cross-plane equality checks. It is not
//! collision-resistant against adversaries; nothing here is security-bearing.

/// FNV-1a 64-bit offset basis.
const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV64_PRIME: u64 = 0x100_0000_01b3;
/// FNV-1a 128-bit offset basis.
pub(crate) const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Streaming FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A hasher at the offset basis (nothing absorbed yet).
    pub fn new() -> Self {
        Fnv64(FNV64_OFFSET)
    }

    /// Fold `bytes` into the running hash.
    pub fn absorb(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV64_PRIME);
        }
    }

    /// The current hash value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Streaming FNV-1a 128-bit hasher. [`Fnv128::from_state`] resumes from a
/// previously extracted [`Fnv128::value`], which is what makes the rolling
/// control-plane digest possible: absorb each journaled event as it commits,
/// stash the state, resume on the next event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fnv128(u128);

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128::new()
    }
}

impl Fnv128 {
    /// A hasher at the offset basis (nothing absorbed yet).
    pub fn new() -> Self {
        Fnv128(FNV128_OFFSET)
    }

    /// Resume a hasher from a previously extracted [`Fnv128::value`].
    pub(crate) fn from_state(state: u128) -> Self {
        Fnv128(state)
    }

    /// Fold `bytes` into the running hash.
    pub fn absorb(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    /// The current hash value.
    pub fn value(self) -> u128 {
        self.0
    }
}

/// One-shot FNV-1a 128-bit hash of `bytes`.
pub(crate) fn fnv128(bytes: &[u8]) -> u128 {
    let mut h = Fnv128::new();
    h.absorb(bytes);
    h.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_fnv1a_vectors_hold_for_both_widths() {
        // Reference vectors from the FNV specification (draft-eastlake-fnv):
        // the empty string hashes to the offset basis, and "a"/"foobar" to
        // the published 64-bit values.
        assert_eq!(fnv128(b""), FNV128_OFFSET);
        let mut h64 = Fnv64::new();
        assert_eq!(h64.value(), FNV64_OFFSET);
        h64.absorb(b"a");
        assert_eq!(h64.value(), 0xaf63_dc4c_8601_ec8c);
        let mut foobar = Fnv64::new();
        foobar.absorb(b"foobar");
        assert_eq!(foobar.value(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn resuming_from_state_matches_one_shot_absorption() {
        let mut whole = Fnv128::new();
        whole.absorb(b"subm 1 2\ndisp 3\n");

        let mut first = Fnv128::new();
        first.absorb(b"subm 1 2\n");
        let mut resumed = Fnv128::from_state(first.value());
        resumed.absorb(b"disp 3\n");

        assert_eq!(whole.value(), resumed.value());
    }
}
