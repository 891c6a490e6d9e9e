//! CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
//!
//! Small, table-driven, and dependency-free — the WAL frames every record
//! with this checksum so recovery can tell an intact record from a torn
//! or bit-flipped one. Not cryptographic; it guards against accidental
//! corruption, which is the failure mode disks actually have.

const POLY: u32 = 0xEDB8_8320;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// CRC32 checksum of `data`.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        let idx = ((crc ^ byte as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLE[idx];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vector() {
        // The canonical CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"the accumulated user-feedback log".to_vec();
        let clean = crc32(&data);
        data[7] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }
}
