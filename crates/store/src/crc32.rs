//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) computed
//! in-repo so the workspace stays dependency-free.
//!
//! CRC32 detects every single-bit error and every burst up to 32 bits —
//! exactly the corruption classes the fault-injection suite sweeps.
//!
//! A checkpoint write passes over the whole image at least three times
//! (`to_bytes`, `verify_sections`, and `section()` on access), so the
//! checksum runs slice-by-8: eight tables, where `TABLES[k][b]` is the
//! CRC of byte `b` followed by `k` zero bytes. Because CRC is linear over
//! GF(2), the register after eight input bytes is the XOR of eight
//! independent lookups (the first four bytes folded into the register
//! first), instead of eight dependent steps. The tail shorter than eight
//! bytes takes the classic one-table step, `TABLES[0]`. The output is
//! identical to the byte-at-a-time loop.

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` advances
/// `TABLES[k - 1][b]` by one zero byte. Built at compile time.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
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
}

/// CRC32 of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, one byte and one bit at a time, with no tables.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for the ASCII digits.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sliced_loop_matches_the_bytewise_definition() {
        // Random lengths 0..=4096 at every start offset mod 8, so every
        // split between the 8-byte body and the tail is covered.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let data: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        for len in (0..=64).chain((0..200).map(|_| (next() % 4097) as usize)) {
            for offset in 0..8 {
                let slice = &data[offset..offset + len];
                assert_eq!(crc32(slice), bytewise(slice), "len {len} offset {offset}");
            }
        }
    }

    #[test]
    fn detects_every_single_bit_flip() {
        let base = b"mcond checkpoint payload".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut mutated = base.clone();
                mutated[byte] ^= 1 << bit;
                assert_ne!(crc32(&mutated), reference, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
