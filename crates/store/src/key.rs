//! Byte-string keys and ordering utilities.
//!
//! Pequod keys are opaque byte strings ordered lexicographically. By
//! convention applications structure keys as `|`-separated components
//! (`t|ann|100|bob`), and the store's table layer splits on the first
//! component. Keys are cheaply cloneable ([`bytes::Bytes`]: stored in
//! place up to 30 bytes — every Twip key — and refcounted beyond that),
//! and every constructor here sizes its output up front, so building a
//! short key never touches the allocator.
//!
//! Two ordering helpers recur throughout Pequod:
//!
//! * [`Key::successor`] — the smallest key strictly greater than `k`
//!   (append `0x00`), used to build a half-open range containing exactly
//!   one key.
//! * [`Key::prefix_end`] — the exclusive upper bound of all keys starting
//!   with `k`. The paper writes this bound as `t|ann|+`, implemented by the
//!   "unsightly string `t|ann}`" (increment the final byte). We implement
//!   the general form: strip trailing `0xff` bytes, then increment the last
//!   remaining byte; an all-`0xff` key has no bounded prefix end.

use bytes::Bytes;
use std::borrow::Borrow;
use std::fmt;

/// The component separator used by convention in Pequod keys.
pub const SEP: u8 = b'|';

/// An ordered byte-string key in a 32-byte handle.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key(Bytes);

impl Key {
    /// The empty key, which sorts before every other key.
    pub const fn empty() -> Key {
        Key(Bytes::new())
    }

    /// Creates a key from a static string without copying.
    pub const fn from_static(s: &'static str) -> Key {
        Key(Bytes::from_static(s.as_bytes()))
    }

    /// Returns the raw bytes of the key.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Returns the underlying refcounted buffer.
    #[inline]
    pub fn bytes(&self) -> &Bytes {
        &self.0
    }

    /// Length of the key in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the key is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// True if this key begins with `prefix`.
    #[inline]
    pub fn starts_with(&self, prefix: &[u8]) -> bool {
        self.0.starts_with(prefix)
    }

    /// Concatenates `parts` into a key, written straight into the handle
    /// when it fits in place ([`Bytes::from_parts`]): short keys never
    /// touch the allocator, long ones allocate once at their final size.
    #[inline]
    pub fn concat<'a>(parts: impl Iterator<Item = &'a [u8]> + Clone) -> Key {
        Key(Bytes::from_parts(parts))
    }

    /// The smallest key strictly greater than `self`: `self` + `0x00`.
    pub fn successor(&self) -> Key {
        Key::join(&[&self.0, &[0]])
    }

    /// The exclusive upper bound of all keys that start with `self`, or
    /// `None` if no such bound exists (the key is empty or all `0xff`).
    ///
    /// For the common case of a key ending in `|` this is the paper's
    /// `t|ann|` → `t|ann}` trick, generalized to arbitrary bytes.
    pub fn prefix_end(&self) -> Option<Key> {
        let b = &self.0;
        let mut end = b.len();
        while end > 0 && b[end - 1] == 0xff {
            end -= 1;
        }
        if end == 0 {
            return None;
        }
        Some(Key::join(&[&b[..end - 1], &[b[end - 1] + 1]]))
    }

    /// True if this key is `prefix`'s [`Key::prefix_end`], decided by
    /// comparing bytes (no bound key is built).
    pub fn is_prefix_end_of(&self, prefix: &[u8]) -> bool {
        let stem = match prefix.iter().rposition(|&b| b != 0xff) {
            Some(last) => &prefix[..=last],
            None => return false,
        };
        let (last, head) = (stem.len() - 1, &self.0[..]);
        head.len() == stem.len() && head[..last] == stem[..last] && head[last] == stem[last] + 1
    }

    /// Splits the key at its first `|` separator, returning the table name
    /// (everything up to and including the separator). Keys without a
    /// separator form their own table.
    pub fn table_prefix(&self) -> Key {
        Key::from(self.table_prefix_bytes())
    }

    /// [`Key::table_prefix`] as a borrowed slice of this key: what the
    /// store and the updater index route by (`Key: Borrow<[u8]>`), so a
    /// point operation builds no prefix key.
    #[inline]
    pub fn table_prefix_bytes(&self) -> &[u8] {
        self.component_prefix_bytes(1)
    }

    /// Returns the prefix of the key spanning the first `n` `|`-separated
    /// components, including the trailing separator when one follows.
    /// Returns the whole key if it has `n` or fewer components.
    pub fn component_prefix(&self, n: usize) -> Key {
        Key::from(self.component_prefix_bytes(n))
    }

    /// [`Key::component_prefix`] as a borrowed slice of this key.
    pub fn component_prefix_bytes(&self, n: usize) -> &[u8] {
        let mut seen = 0usize;
        for (i, &b) in self.0.iter().enumerate() {
            if b == SEP {
                seen += 1;
                if seen == n {
                    return &self.0[..=i];
                }
            }
        }
        &self.0
    }

    /// Number of `|`-separated components in the key.
    pub fn component_count(&self) -> usize {
        if self.0.is_empty() {
            0
        } else {
            1 + self.0.iter().filter(|&&b| b == SEP).count()
        }
    }

    /// Iterates over the `|`-separated components of the key.
    pub fn components(&self) -> impl Iterator<Item = &[u8]> {
        self.0.split(|&b| b == SEP)
    }

    /// Concatenates two byte strings into a key.
    pub fn join(parts: &[&[u8]]) -> Key {
        Key::concat(parts.iter().copied())
    }

    /// Longest common prefix length with another key.
    pub fn common_prefix_len(&self, other: &Key) -> usize {
        self.0
            .iter()
            .zip(other.0.iter())
            .take_while(|(a, b)| a == b)
            .count()
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k\"")?;
        for &b in self.0.iter() {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", String::from_utf8_lossy(&self.0))
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Key {
        Key(Bytes::copy_from_slice(s.as_bytes()))
    }
}

impl From<String> for Key {
    fn from(s: String) -> Key {
        Key(Bytes::from(s.into_bytes()))
    }
}

impl From<Vec<u8>> for Key {
    fn from(v: Vec<u8>) -> Key {
        Key(Bytes::from(v))
    }
}

impl From<&[u8]> for Key {
    #[inline]
    fn from(v: &[u8]) -> Key {
        Key(Bytes::copy_from_slice(v))
    }
}

impl From<Bytes> for Key {
    fn from(b: Bytes) -> Key {
        Key(b)
    }
}

impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Key {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_lexicographic() {
        let a = Key::from("p|ali|001");
        let b = Key::from("p|ali|009");
        let c = Key::from("p|bob");
        assert!(a < b && b < c);
        assert!(Key::empty() < a);
    }

    #[test]
    fn handle_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 32);
        assert_eq!(std::mem::size_of::<Bytes>(), 32);
    }

    #[test]
    fn concat_sizes_short_and_long_keys_alike() {
        for len in [0usize, 1, 30, 31, 64, 65, 200] {
            let want: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let (a, b) = want.split_at(len / 3);
            assert_eq!(Key::join(&[a, b, &[]]).as_bytes(), &want[..]);
        }
        let long = Key::from(vec![b'x'; 70]);
        assert_eq!(long.successor().len(), 71);
        assert_eq!(long.prefix_end().unwrap().as_bytes()[69], b'y');
    }

    #[test]
    fn successor_is_tight() {
        let k = Key::from("t|ann");
        let s = k.successor();
        assert!(s > k);
        // No representable key fits strictly between k and its successor.
        assert_eq!(s.as_bytes(), b"t|ann\x00");
    }

    #[test]
    fn prefix_end_matches_paper_trick() {
        // t|ann| -> t|ann}  ('|' + 1 == '}')
        let k = Key::from("t|ann|");
        assert_eq!(k.prefix_end().unwrap().as_bytes(), b"t|ann}");
    }

    #[test]
    fn prefix_end_bounds_exactly_the_prefix() {
        let k = Key::from("t|ann|");
        let end = k.prefix_end().unwrap();
        assert!(Key::from("t|ann|100") < end);
        assert!(Key::from(vec![b't', b'|', b'a', b'n', b'n', b'|', 0xfe, 0xfe]) < end);
        assert!(Key::from("t|ann}") >= end);
        assert!(Key::from("t|anna") < k); // 'a' < '|'
    }

    #[test]
    fn prefix_end_strips_trailing_ff() {
        let k = Key::from(vec![b'a', 0xff, 0xff]);
        assert_eq!(k.prefix_end().unwrap().as_bytes(), b"b");
        let all_ff = Key::from(vec![0xff, 0xff]);
        assert!(all_ff.prefix_end().is_none());
        assert!(Key::empty().prefix_end().is_none());
    }

    #[test]
    fn is_prefix_end_of_agrees_with_prefix_end() {
        let prefixes: [&[u8]; 6] = [b"t|ann|", b"a\xff\xff", b"\xff\xff", b"", b"t|", b"a\xfe"];
        let probes: [&[u8]; 7] = [b"t|ann}", b"b", b"t}", b"a\xff", b"", b"t|ann|", b"t|ann}x"];
        for p in prefixes {
            let end = Key::from(p).prefix_end();
            for probe in probes {
                let probe = Key::from(probe);
                assert_eq!(
                    probe.is_prefix_end_of(p),
                    end.as_ref() == Some(&probe),
                    "{probe:?} vs prefix {:?}",
                    Key::from(p)
                );
            }
        }
    }

    #[test]
    fn table_prefix_splits_on_first_separator() {
        assert_eq!(Key::from("t|ann|100").table_prefix(), Key::from("t|"));
        assert_eq!(Key::from("solo").table_prefix(), Key::from("solo"));
        assert_eq!(Key::from("").table_prefix(), Key::empty());
        assert_eq!(Key::from("t|ann|100").table_prefix_bytes(), b"t|");
        assert_eq!(Key::from("solo").table_prefix_bytes(), b"solo");
    }

    #[test]
    fn component_prefix_counts_separators() {
        let k = Key::from("t|ann|100|bob");
        assert_eq!(k.component_prefix(1), Key::from("t|"));
        assert_eq!(k.component_prefix(2), Key::from("t|ann|"));
        assert_eq!(k.component_prefix(3), Key::from("t|ann|100|"));
        assert_eq!(k.component_prefix(9), k);
        assert_eq!(k.component_prefix_bytes(2), b"t|ann|");
        assert_eq!(k.component_count(), 4);
    }

    #[test]
    fn components_iterate() {
        let k = Key::from("s|ann|bob");
        let parts: Vec<&[u8]> = k.components().collect();
        assert_eq!(parts, vec![&b"s"[..], &b"ann"[..], &b"bob"[..]]);
    }

    #[test]
    fn join_concatenates() {
        let k = Key::join(&[b"t|", b"ann", b"|", b"100"]);
        assert_eq!(k, Key::from("t|ann|100"));
    }

    #[test]
    fn common_prefix() {
        let a = Key::from("t|ann|100");
        let b = Key::from("t|ann|200");
        assert_eq!(a.common_prefix_len(&b), 6);
        assert_eq!(a.common_prefix_len(&a), 9);
        assert_eq!(a.common_prefix_len(&Key::from("x")), 0);
    }
}
