//! Stored values: a 16-byte handle, half a key's, and the borrowed view
//! a store hands its visitors.
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
//! * **shared** — a thin `Arc` to one buffer ([`Shared`]), with its
//!   length cached in the handle so that [`Value::len`] reads no
//!   pointer. A clone bumps the count: every timeline entry showing one
//!   tweet points at one buffer.
//!
//! The shared buffer is one type, so that a store block can keep its
//! shared values as one column of 8-byte pointers: either a 64-byte
//! array, for a value of up to 64 bytes (a Twip tweet is 49), or a box
//! past that. A thin pointer to bytes of any length is, in safe Rust, a
//! pointer to a pointer: two allocations per value, and two dependent
//! loads for every read of its bytes. The array keeps a tweet's counts,
//! tag and bytes in one 88-byte allocation — one 96-byte heap chunk, the
//! same as a bare `Arc` of the array took — and one load away; only a
//! longer value pays the second.
//!
//! Every constructor picks the in-place form whenever the bytes fit, the
//! array when they fit it, and the box otherwise, so the form is a
//! function of the length alone. That is what lets a block keep a value
//! as one *code* byte ([`Value::code`]) — its length, or [`BOXED`] —
//! beside its key, plus the in-place bytes or one pointer: the code says
//! which. `Eq`, `Ord`, `Hash` and `Debug` are those of the bytes, the
//! same as `Bytes` gives the same bytes.
//!
//! A block holds no `Value`s, so a read hands its visitor a [`ValueRef`]:
//! the in-place bytes, or a borrowed pointer and its code. Visiting a
//! shared value touches neither its buffer nor its count; a visitor that
//! keeps the value takes [`ValueRef::to_value`], one count increment.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Longest value held inside the handle: 16 bytes less the tag and the
/// length, a constant of the layout, not a setting. A store block holds
/// values this long in its slots.
pub(crate) const IN_PLACE: usize = 14;

/// Longest value held in a shared array rather than a box.
const ARRAY: usize = 64;

/// The code of a boxed value, whose length is behind its pointer.
pub(crate) const BOXED: u8 = 0xff;

/// An immutable, cheaply cloneable byte string: in place up to 14 bytes,
/// one shared buffer beyond.
#[derive(Clone)]
pub struct Value(Repr);

/// A shared value is `len` bytes, more than [`IN_PLACE`], at the front of
/// its buffer.
#[derive(Clone)]
enum Repr {
    /// At most [`IN_PLACE`] bytes.
    InPlace { len: u8, buf: [u8; IN_PLACE] },
    /// More than [`IN_PLACE`] bytes behind one thin pointer.
    Shared { len: u32, data: Shared },
}

/// One shared value's buffer, behind a thin pointer: what a store block's
/// pointer column holds.
pub(crate) type Shared = Arc<Buf>;

/// The bytes of a value longer than [`IN_PLACE`].
pub(crate) enum Buf {
    /// At most [`ARRAY`] bytes, zero-padded.
    Array([u8; ARRAY]),
    /// Longer than [`ARRAY`] bytes: the buffer behind a second pointer.
    Boxed(Box<[u8]>),
}

// The sizes the store's blocks are laid out for: a 16-byte handle, an
// 8-byte column entry, and a tweet's buffer in one 88-byte allocation
// (16 bytes of counts, then these 72).
const _: () = assert!(std::mem::size_of::<Value>() == 16);
const _: () = assert!(std::mem::size_of::<Option<Value>>() == 16);
const _: () = assert!(std::mem::size_of::<Shared>() == 8);
const _: () = assert!(std::mem::size_of::<Buf>() == 72);

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
    /// past 64 bytes.
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
            Repr::Shared {
                len: n as u32,
                data: Arc::new(Buf::Array(buf)),
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
        Value(Repr::Shared {
            len: data.len() as u32,
            data: Arc::new(Buf::Boxed(data)),
        })
    }

    /// Number of bytes, read off the handle.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::InPlace { len, .. } => usize::from(*len),
            Repr::Shared { len, .. } => *len as usize,
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
            Repr::Shared { len, data } => data.bytes(*len as usize),
        }
    }

    /// A borrowed view of this value, as a store's visitor sees one.
    #[inline]
    pub fn view(&self) -> ValueRef<'_> {
        ValueRef(match &self.0 {
            Repr::InPlace { len, buf } => View::InPlace(&buf[..usize::from(*len)]),
            Repr::Shared { len, data } => View::Shared(code_of(*len as usize), data),
        })
    }

    /// The byte a block keeps for this value: its length when it is at
    /// most [`ARRAY`] bytes (held in place up to [`IN_PLACE`]), [`BOXED`]
    /// past that.
    #[inline]
    pub(crate) fn code(&self) -> u8 {
        code_of(self.len())
    }

    /// The shared buffer, given up by the handle; `None` for a value held
    /// in place, whose bytes are all there is.
    #[inline]
    pub(crate) fn into_shared(self) -> Option<Shared> {
        match self.0 {
            Repr::InPlace { .. } => None,
            Repr::Shared { data, .. } => Some(data),
        }
    }

    /// The value a block kept as `code` and the pointer `data`.
    #[inline]
    pub(crate) fn from_shared(code: u8, data: Shared) -> Value {
        let len = match code {
            BOXED => data.bytes(usize::MAX).len() as u32,
            n => u32::from(n),
        };
        Value(Repr::Shared { len, data })
    }
}

/// The block code of a value `len` bytes long.
#[inline]
fn code_of(len: usize) -> u8 {
    match len <= ARRAY {
        true => len as u8,
        false => BOXED,
    }
}

impl Buf {
    /// The first `len` bytes of an array, all of a box's.
    #[inline]
    fn bytes(&self, len: usize) -> &[u8] {
        match self {
            Buf::Array(array) => &array[..len.min(ARRAY)],
            Buf::Boxed(data) => data,
        }
    }

    /// True if this is the buffer a value of code `code` is held in: an
    /// array for a code above [`IN_PLACE`] and at most [`ARRAY`], a box
    /// of more than [`ARRAY`] bytes for [`BOXED`].
    pub(crate) fn holds(&self, code: u8) -> bool {
        match self {
            Buf::Array(_) => (IN_PLACE + 1..=ARRAY).contains(&usize::from(code)),
            Buf::Boxed(data) => code == BOXED && data.len() > ARRAY,
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
    /// Takes the vector's buffer over past 64 bytes (giving up
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

/// Writes `bytes` as `Bytes` does: `b"…"` with ASCII escapes.
fn debug_bytes(bytes: &[u8], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "b\"")?;
    for &b in bytes {
        for c in std::ascii::escape_default(b) {
            write!(f, "{}", c as char)?;
        }
    }
    write!(f, "\"")
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_bytes(self.as_slice(), f)
    }
}

/// A value as a visitor sees it inside a store: its bytes, borrowed.
/// Taking the view costs nothing; [`ValueRef::to_value`] makes the
/// [`Value`] it stands for — a copy of the bytes in place, one count
/// increment for a shared buffer, which it then shares.
#[derive(Clone, Copy)]
pub struct ValueRef<'a>(View<'a>);

#[derive(Clone, Copy)]
enum View<'a> {
    /// At most [`IN_PLACE`] bytes.
    InPlace(&'a [u8]),
    /// A shared buffer and its value's code.
    Shared(u8, &'a Shared),
}

impl<'a> ValueRef<'a> {
    /// The view of a value a block holds in place.
    #[inline]
    pub(crate) fn in_place(bytes: &'a [u8]) -> ValueRef<'a> {
        ValueRef(View::InPlace(bytes))
    }

    /// The view of a value a block holds as `code` and `data`.
    #[inline]
    pub(crate) fn shared(code: u8, data: &'a Shared) -> ValueRef<'a> {
        ValueRef(View::Shared(code, data))
    }

    /// The bytes, for as long as the store lends them.
    #[inline]
    pub fn as_bytes(&self) -> &'a [u8] {
        match self.0 {
            View::InPlace(bytes) => bytes,
            View::Shared(code, data) => data.bytes(usize::from(code)),
        }
    }

    /// Number of bytes: read off the code up to 64 bytes, without
    /// following the pointer.
    #[inline]
    pub fn len(&self) -> usize {
        match self.0 {
            View::InPlace(bytes) => bytes.len(),
            View::Shared(BOXED, data) => data.bytes(usize::MAX).len(),
            View::Shared(code, _) => usize::from(code),
        }
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value itself, sharing the store's buffer.
    #[inline]
    pub fn to_value(&self) -> Value {
        match self.0 {
            View::InPlace(bytes) => Value::copy_from_slice(bytes),
            View::Shared(code, data) => Value::from_shared(code, Arc::clone(data)),
        }
    }
}

impl Deref for ValueRef<'_> {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl PartialEq for ValueRef<'_> {
    fn eq(&self, other: &ValueRef<'_>) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for ValueRef<'_> {}

impl PartialEq<Value> for ValueRef<'_> {
    fn eq(&self, other: &Value) -> bool {
        self.as_bytes() == other.as_slice()
    }
}

impl PartialEq<ValueRef<'_>> for Value {
    fn eq(&self, other: &ValueRef<'_>) -> bool {
        self.as_slice() == other.as_bytes()
    }
}

impl fmt::Debug for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_bytes(self.as_bytes(), f)
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
                let view = x.view();
                prop_assert_eq!((view.len(), view.as_bytes()), (a.len(), &a[..]));
                prop_assert_eq!(format!("{view:?}"), format!("{ab:?}"));
                prop_assert_eq!(view.to_value(), x.clone());
                prop_assert!(view == x, "a view equals its value");
                prop_assert!(x == view, "a value equals its view");
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
            Repr::Shared { data, .. } => match **data {
                Buf::Array(_) => ("array", Arc::strong_count(data)),
                Buf::Boxed(_) => ("boxed", Arc::strong_count(data)),
            },
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

    /// A value taken apart as a block keeps it — a code, then the
    /// in-place bytes or the pointer — and put back together is the same
    /// value, sharing the same buffer; its view reads the length off the
    /// code without the buffer.
    #[test]
    fn a_value_survives_its_code_and_pointer() {
        for len in [0, 1, 14, 15, 49, 64, 65, 300] {
            let raw: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let value = Value::from(raw.clone());
            let code = value.code();
            assert_eq!(code == BOXED, len > 64, "{len} bytes");
            assert_eq!(usize::from(code) <= IN_PLACE, len <= IN_PLACE);
            let back = match value.clone().into_shared() {
                None => ValueRef::in_place(&raw).to_value(),
                Some(data) => {
                    assert!(data.holds(code), "{len} bytes");
                    let view = ValueRef::shared(code, &data);
                    assert_eq!((view.len(), view.as_bytes()), (len, &raw[..]));
                    assert_eq!(view.to_value()[..].as_ptr(), value[..].as_ptr());
                    Value::from_shared(code, data)
                }
            };
            assert_eq!((back.len(), &back[..]), (len, &raw[..]));
            assert_eq!(form(&back), form(&value));
        }
    }
}
