//! CRC-32 (IEEE 802.3, reflected) — the checksum guarding every WAL
//! record and snapshot body.
//!
//! Hand-rolled because the build environment vendors no checksum crate;
//! the tables are computed at compile time and the algorithm matches
//! `crc32fast`/zlib (`crc32(b"123456789") == 0xCBF4_3926`), so log
//! files stay verifiable by standard tools.
//!
//! The loop is slice-by-8: eight table lookups retire eight input bytes
//! per step, with no dependency between the lookups, instead of one
//! byte per dependent lookup. [`crc32_combine`] joins the checksums of
//! two adjacent pieces without re-reading either, which is how a
//! streamed snapshot patches its pair count after the pairs are
//! written.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Advances the raw (pre-inversion) CRC register over `bytes`.
fn update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc
}

/// An incremental CRC-32: feed the bytes in any number of pieces, then
/// [`finish`](Crc32::finish). `crc32(a ++ b)` equals a `Crc32` fed `a`
/// then `b`.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A checksum over no bytes yet.
    pub const fn new() -> Crc32 {
        Crc32(!0)
    }

    /// Feeds `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        self.0 = update(self.0, bytes);
    }

    /// The CRC-32 of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// CRC-32 of `bytes` (matches zlib's `crc32(0, ...)`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// `v` times the GF(2) 32×32 matrix `mat` (one column per bit of `v`).
fn gf2_times(mat: &[u32; 32], mut v: u32) -> u32 {
    let mut sum = 0;
    let mut col = 0;
    while v != 0 {
        if v & 1 != 0 {
            sum ^= mat[col];
        }
        v >>= 1;
        col += 1;
    }
    sum
}

fn gf2_square(mat: &[u32; 32]) -> [u32; 32] {
    std::array::from_fn(|n| gf2_times(mat, mat[n]))
}

/// The CRC-32 of `a ++ b` from `crc32(a)`, `crc32(b)` and `b.len()`,
/// in O(log len) (zlib's `crc32_combine`): `crc_a` is advanced over
/// `len_b` zero bytes by repeated squaring of the one-zero-bit
/// operator, then xored with `crc_b`.
pub fn crc32_combine(crc_a: u32, crc_b: u32, mut len_b: u64) -> u32 {
    if len_b == 0 {
        return crc_a;
    }
    // The operator for one zero bit: shift right, fold in the
    // polynomial when the low bit falls off.
    let mut odd = [0u32; 32];
    odd[0] = POLY;
    for (n, col) in odd.iter_mut().enumerate().skip(1) {
        *col = 1 << (n - 1);
    }
    // Two zero bits, then four; the loop starts at one zero byte.
    let mut even = gf2_square(&odd);
    odd = gf2_square(&even);
    let mut crc = crc_a;
    loop {
        even = gf2_square(&odd);
        if len_b & 1 != 0 {
            crc = gf2_times(&even, crc);
        }
        len_b >>= 1;
        if len_b == 0 {
            break;
        }
        odd = gf2_square(&even);
        if len_b & 1 != 0 {
            crc = gf2_times(&odd, crc);
        }
        len_b >>= 1;
        if len_b == 0 {
            break;
        }
    }
    crc ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time reference the sliced loop must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The standard check value, plus zlib-verified cases.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"p|bob|0000000100=Hi there".to_vec();
        let clean = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at byte {i} bit {bit}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        #[test]
        fn sliced_matches_bytewise(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }

        #[test]
        fn pieces_and_combine_match_the_whole(
            bytes in proptest::collection::vec(any::<u8>(), 0..300),
            cut in 0usize..1000,
        ) {
            let (a, b) = bytes.split_at(cut % (bytes.len() + 1));
            let mut inc = Crc32::new();
            inc.update(a);
            inc.update(b);
            prop_assert_eq!(inc.finish(), crc32(&bytes));
            prop_assert_eq!(crc32_combine(crc32(a), crc32(b), b.len() as u64), crc32(&bytes));
        }
    }
}
