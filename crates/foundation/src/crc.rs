//! CRC-32 (IEEE 802.3) checksumming for on-disk formats.
//!
//! The checkpoint format (`stencil_core::checkpoint`) seals every
//! snapshot with a CRC so torn writes and bit rot are *detected* at
//! recovery time instead of silently resumed from; future wire formats
//! (the service protocol) share the same helper. The reflected
//! polynomial `0xEDB88320` with `0xFFFFFFFF` init/xor-out is the
//! ubiquitous variant (zlib, PNG, Ethernet), so the known-answer vectors
//! below pin interoperability, not just self-consistency.
//!
//! A CRC-32 detects **every** single-bit flip and every error burst up
//! to 32 bits long; longer corruption escapes with probability 2⁻³².
//! That is integrity checking, not authentication — it guards against
//! crashes and disk errors, not adversaries.

/// The reflected IEEE 802.3 polynomial.
pub const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, computed at compile time. `TABLES[0]` is
/// the classic byte-indexed table; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so one 8-byte chunk folds in with eight
/// independent lookups instead of eight dependent ones.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Streaming CRC-32 state, for checksumming data produced in pieces.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh checksum (equivalent to having processed zero bytes).
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the running checksum: whole 8-byte chunks
    /// through the sliced tables, the tail of fewer than 8 bytes one
    /// byte at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][(lo >> 8 & 0xFF) as usize]
                ^ t[5][(lo >> 16 & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][(hi >> 8 & 0xFF) as usize]
                ^ t[1][(hi >> 16 & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything updated so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop;

    #[test]
    fn known_answer_vectors() {
        // the standard check value every CRC-32 implementation quotes
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn streaming_matches_one_shot_at_any_split() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let want = crc32(&data);
        for split in [0, 1, 7, 500, 999, 1000] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), want, "split at {split}");
        }
    }

    /// The one-byte-at-a-time table CRC the sliced `update` must match.
    fn bytewise(state: u32, bytes: &[u8]) -> u32 {
        bytes
            .iter()
            .fold(state, |crc, &b| (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize])
    }

    #[test]
    fn sliced_update_matches_bytewise_at_every_length_and_offset() {
        // every chunk/tail split of 0..=64 bytes, starting at every
        // alignment of the backing buffer
        let data: Vec<u8> = (0..72u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &data[start..start + len];
                let mut c = Crc32::new();
                c.update(bytes);
                assert_eq!(c.state, bytewise(0xFFFF_FFFF, bytes), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn sliced_streaming_matches_bytewise_at_random_splits() {
        let gen = prop::flat_map(prop::vec_of(prop::u64_range(0, 256), 0, 200), |v| {
            prop::vec_of(prop::usize_range(0, v.len() + 1), 0, 6)
        });
        prop::check("crc32_sliced_streaming_matches_bytewise", &gen, |(data, mut cuts)| {
            let bytes: Vec<u8> = data.iter().map(|&b| b as u8).collect();
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut at = 0;
            for cut in cuts.iter().copied().chain([bytes.len()]) {
                c.update(&bytes[at..cut]);
                at = cut;
            }
            let want = bytewise(0xFFFF_FFFF, &bytes) ^ 0xFFFF_FFFF;
            if c.finish() != want {
                return Err(format!("cuts {cuts:?}: {:#010x} != {want:#010x}", c.finish()));
            }
            Ok(())
        });
    }

    #[test]
    fn detects_any_single_bit_flip() {
        // guaranteed property of any CRC: a single flipped bit always
        // changes the checksum. Exercise it over generated buffers with
        // a generated flip position.
        let gen = prop::flat_map(prop::vec_of(prop::u64_range(0, u64::MAX), 1, 64), |v| {
            prop::usize_range(0, v.len() * 64 - 1)
        });
        prop::check("crc32_detects_single_bit_flip", &gen, |(words, bit)| {
            let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let clean = crc32(&bytes);
            bytes[bit / 8] ^= 1 << (bit % 8);
            if crc32(&bytes) == clean {
                return Err(format!("bit flip at {bit} went undetected"));
            }
            Ok(())
        });
    }

    #[test]
    fn detects_truncation_and_extension() {
        // not a mathematical guarantee (CRCs do not encode length), but
        // deterministic under the pinned property seed — a regression
        // here means the implementation changed, not bad luck.
        let gen = prop::vec_of(prop::u64_range(0, u64::MAX), 2, 32);
        prop::check("crc32_detects_truncation", &gen, |words| {
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let clean = crc32(&bytes);
            if crc32(&bytes[..bytes.len() - 1]) == clean {
                return Err("1-byte truncation went undetected".into());
            }
            let mut longer = bytes.clone();
            longer.push(0);
            if crc32(&longer) == clean {
                return Err("1-byte zero extension went undetected".into());
            }
            Ok(())
        });
    }
}
