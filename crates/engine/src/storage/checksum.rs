//! CRC-32 (IEEE 802.3) — the checksum guarding every durable artifact.
//!
//! WAL records, chunk files and the manifest all carry a CRC over their
//! payload so recovery can tell three states apart: intact, *torn* (an
//! append the crash cut short) and *corrupt* (complete bytes that fail
//! their checksum). Hand-rolled because the workspace vendors no CRC
//! crate.
//!
//! Every chunk load verifies its CRC, so the loop runs at memory speed:
//! it is *slicing-by-16*. `TABLES[0]` is the classic byte table (the CRC
//! of one byte); `TABLES[k][b]` is the CRC contribution of byte `b`
//! followed by `k` zero bytes, i.e. `TABLES[k-1][b]` advanced by one more
//! zero byte. Each step folds the running CRC into the first four bytes
//! of a 16-byte block and then combines all sixteen bytes with sixteen
//! independent table lookups XORed together, instead of sixteen
//! dependent byte steps; the tail shorter than a block runs bytewise on
//! `TABLES[0]`. The result is bit-identical to the bytewise algorithm
//! for every input. The tables (16 KiB) are built at compile time by a
//! `const fn`.

/// The standard reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per slicing step.
const SLICES: usize = 16;

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
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

static TABLES: [[u32; 256]; SLICES] = build_tables();

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let (blocks, tail) = data.as_chunks::<SLICES>();
    let mut crc = !0u32;
    for block in blocks {
        // The running CRC folds into the block's first four bytes; byte
        // `i` of the block then sits `SLICES - 1 - i` bytes from its end.
        let head =
            (crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]])).to_le_bytes();
        crc = 0;
        for (i, &byte) in block.iter().enumerate() {
            let b = if i < 4 { head[i] } else { byte };
            crc ^= TABLES[SLICES - 1 - i][b as usize];
        }
    }
    for &b in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise reference algorithm the slicing loop must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let base = crc32(data);
        let mut copy = data.to_vec();
        for i in 0..copy.len() {
            for bit in 0..8 {
                copy[i] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "flip at byte {i} bit {bit}");
                copy[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn slicing_equals_bytewise_at_every_length_and_offset() {
        let buf: Vec<u8> = (0..265u32).map(|i| (i * 131 + 7) as u8).collect();
        for start in 0..8 {
            for len in 0..=257 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn slicing_equals_bytewise_on_seeded_random_buffers() {
        // xorshift64*: deterministic, no dependency.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for _ in 0..200 {
            let len = (next() % 4096) as usize;
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&buf), crc32_bytewise(&buf), "len {len}");
        }
    }
}
