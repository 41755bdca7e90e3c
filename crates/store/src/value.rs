//! Stored values: a 16-byte handle, half a key's.
//!
//! A [`Key`](crate::Key) is a 32-byte handle so that a 30-byte key is
//! held in place and compares without a pointer to follow. A value needs
//! neither: it is never searched, only stored, copied and sent, and the
//! values a workload stores are short markers (a Twip subscription's
//! `"1"`) or long payloads (a tweet) that the `copy` operator shares
//! across every timeline that shows it (§4.3). So a [`Value`] has two
//! forms in 16 bytes:
//!
//! * **in place** — at most [`IN_PLACE`] (14) bytes after a tag and a
//!   length byte, no allocation;
//! * **shared** — a thin `Arc` to one buffer, with its length cached in
//!   the handle so that [`Value::len`] reads no pointer. A clone bumps
//!   the count: every timeline entry showing one tweet points at one
//!   buffer.
//!
//! A thin pointer to bytes of any length is, in safe Rust, a pointer to
//! a pointer (`Arc<Box<[u8]>>`): two allocations per value, and two
//! dependent loads for every read of its bytes. Encoding a reply reads
//! every value it sends, so a value of up to 64 bytes — a Twip tweet is
//! 49 — is instead held in an `Arc` of a 64-byte array, whose counts and
//! bytes are one allocation; only a longer value pays the second. The
//! rounding up costs less than the second allocation would for a tweet:
//! it takes one 96-byte heap chunk, and 64 + 48 as a box behind an `Arc`.
//!
//! Every constructor picks the in-place form whenever the bytes fit, the
//! array when they fit it, and the box otherwise, so the form is a
//! function of the length alone. `Eq`, `Ord`, `Hash` and `Debug` are
//! those of the bytes, the same as `Bytes` gives the same bytes.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Longest value held inside the handle: 16 bytes less the tag and the
/// length, a constant of the layout, not a setting.
const IN_PLACE: usize = 14;

/// An immutable, cheaply cloneable byte string: in place up to 14 bytes,
/// one shared buffer beyond.
#[derive(Clone)]
pub struct Value(Repr);

/// Longest value held in a shared array rather than a box.
const ARRAY: usize = 64;

/// The shared forms hold `len` bytes, more than [`IN_PLACE`]: `Array` at
/// the front of its buffer, `Boxed` more than [`ARRAY`].
#[derive(Clone)]
enum Repr {
    /// At most [`IN_PLACE`] bytes.
    InPlace { len: u8, buf: [u8; IN_PLACE] },
    /// At most [`ARRAY`] bytes, zero-padded.
    Array { len: u32, data: Arc<[u8; ARRAY]> },
    /// Longer than [`ARRAY`] bytes: the buffer behind a second pointer.
    Boxed { len: u32, data: Arc<Box<[u8]>> },
}

// The two sizes the store's blocks are laid out for.
const _: () = assert!(std::mem::size_of::<Value>() == 16);
const _: () = assert!(std::mem::size_of::<Option<Value>>() == 16);

impl Value {
    /// The empty value.
    pub const fn new() -> Value {
        Value(Repr::InPlace {
            len: 0,
            buf: [0; IN_PLACE],
        })
    }

    /// A value of `bytes`, copied (in place when they fit).
    pub fn from_static(bytes: &'static [u8]) -> Value {
        Value::copy_from_slice(bytes)
    }

    /// A value of `bytes`, copied once: into the handle when they fit,
    /// otherwise into a shared array, or a buffer of their exact size
    /// past [`ARRAY`] bytes.
    #[inline]
    pub fn copy_from_slice(bytes: &[u8]) -> Value {
        match Value::unboxed(bytes) {
            Some(value) => value,
            None => Value::boxed(Box::from(bytes)),
        }
    }

    /// `bytes` in place or in a shared array, if they fit one.
    fn unboxed(bytes: &[u8]) -> Option<Value> {
        let n = bytes.len();
        Some(Value(if n <= IN_PLACE {
            let mut buf = [0; IN_PLACE];
            buf[..n].copy_from_slice(bytes);
            Repr::InPlace { len: n as u8, buf }
        } else if n <= ARRAY {
            let mut buf = [0; ARRAY];
            buf[..n].copy_from_slice(bytes);
            Repr::Array {
                len: n as u32,
                data: Arc::new(buf),
            }
        } else {
            return None;
        }))
    }

    fn boxed(data: Box<[u8]>) -> Value {
        assert!(
            data.len() <= u32::MAX as usize,
            "a Value cannot exceed u32::MAX bytes"
        );
        Value(Repr::Boxed {
            len: data.len() as u32,
            data: Arc::new(data),
        })
    }

    /// Number of bytes, read off the handle.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::InPlace { len, .. } => usize::from(*len),
            Repr::Array { len, .. } | Repr::Boxed { len, .. } => *len as usize,
        }
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::InPlace { len, buf } => &buf[..usize::from(*len)],
            Repr::Array { len, data } => &data[..*len as usize],
            Repr::Boxed { data, .. } => data,
        }
    }
}

impl Default for Value {
    fn default() -> Value {
        Value::new()
    }
}

impl Deref for Value {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Value {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Value {
    /// Takes the vector's buffer over past [`ARRAY`] bytes (giving up
    /// its spare capacity), so a long value is not copied.
    fn from(bytes: Vec<u8>) -> Value {
        match Value::unboxed(&bytes) {
            Some(value) => value,
            None => Value::boxed(bytes.into_boxed_slice()),
        }
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::from(s.into_bytes())
    }
}

impl From<&'static str> for Value {
    fn from(s: &'static str) -> Value {
        Value::from_static(s.as_bytes())
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Value) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Value {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    fn hash_of(x: &(impl Hash + ?Sized)) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    /// `raw` through every constructor.
    fn forms(raw: &[u8]) -> Vec<Value> {
        let leaked: &'static [u8] = Box::leak(raw.to_vec().into_boxed_slice());
        vec![
            Value::copy_from_slice(raw),
            Value::from(raw.to_vec()),
            Value::from_static(leaked),
        ]
    }

    /// Two byte strings, often of one length or one prefix, across the
    /// in-place limit (14 → 15 → 16 included) and the array's (64 bytes).
    fn pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
        let bytes = || {
            // Mostly short, sometimes around the array's limit.
            let len = prop_oneof![0..48usize, 0..48usize, 60..70usize];
            let byte = prop_oneof![Just(0u8), Just(b'a'), Just(0xff)];
            (proptest::collection::vec(byte, 70), len).prop_map(|(mut v, len)| {
                v.truncate(len);
                v
            })
        };
        (bytes(), bytes(), 0usize..48).prop_map(|(a, b, cut)| {
            // Half the time `b` extends a prefix of `a`.
            match cut % 2 {
                0 => (a, b),
                _ => {
                    let mut c = a[..cut.min(a.len())].to_vec();
                    c.extend_from_slice(&b[..b.len() % 3]);
                    (a, c)
                }
            }
        })
    }

    proptest! {
        // The leaked buffers `from_static` is given are reported by Miri.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn agrees_with_vec_and_bytes(ab in pair()) {
            let (a, b) = ab;
            let (ab, bb) = (Bytes::from(a.clone()), Bytes::from(b.clone()));
            for x in forms(&a) {
                prop_assert_eq!(x.len(), a.len());
                prop_assert_eq!(&x[..], &a[..]);
                prop_assert_eq!(x.as_ref(), &a[..]);
                prop_assert_eq!(x.is_empty(), a.is_empty());
                prop_assert_eq!(hash_of(&x), hash_of(&ab));
                prop_assert_eq!(hash_of(&x), hash_of(&a[..]));
                prop_assert_eq!(format!("{x:?}"), format!("{ab:?}"));
                prop_assert_eq!(x.clone(), x.clone());
                for y in forms(&b) {
                    prop_assert_eq!(x.cmp(&y), a.cmp(&b));
                    prop_assert_eq!(x.cmp(&y), ab.cmp(&bb));
                    prop_assert_eq!(x.partial_cmp(&y), Some(a.cmp(&b)));
                    prop_assert_eq!(x == y, a == b);
                }
            }
        }
    }

    /// The form's name and, for a shared one, how many handles hold its
    /// buffer.
    fn form(value: &Value) -> (&'static str, usize) {
        match &value.0 {
            Repr::InPlace { .. } => ("in place", 0),
            Repr::Array { data, .. } => ("array", Arc::strong_count(data)),
            Repr::Boxed { data, .. } => ("boxed", Arc::strong_count(data)),
        }
    }

    #[test]
    fn the_form_follows_the_length() {
        let forms = [
            (0, "in place"),
            (1, "in place"),
            (14, "in place"),
            (15, "array"),
            (64, "array"),
            (65, "boxed"),
            (300, "boxed"),
        ];
        for (len, want) in forms {
            let raw: Vec<u8> = (0..len).map(|i| i as u8).collect();
            for value in [Value::copy_from_slice(&raw), Value::from(raw.clone())] {
                assert_eq!(form(&value).0, want, "{len} bytes");
                assert_eq!((value.len(), &value[..]), (len, &raw[..]));
            }
        }
        assert_eq!(Value::default(), Value::from_static(b""));
        assert_eq!(Value::from("1"), Value::from(String::from("1")));
    }

    #[test]
    fn a_clone_shares_the_buffer() {
        for len in [15, 49, 300] {
            let tweet = Value::from(vec![b'x'; len]);
            let copy = tweet.clone();
            assert_eq!(form(&tweet).1, 2, "{len} bytes");
            assert_eq!(tweet[..].as_ptr(), copy[..].as_ptr());
            drop(copy);
            assert_eq!(form(&tweet).1, 1);
        }
    }
}
