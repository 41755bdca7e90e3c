//! Slot tables and slot sets.
//!
//! A cache join's patterns share named *slots* (`user`, `time`, `poster`
//! in the timeline join). Slot names are interned per join into a
//! [`SlotTable`]; a [`SlotSet`] is a partial assignment of byte-string
//! values to those slots, built up as query execution matches source keys
//! (§3.1: "a slot set is a set of slot assignments derived from a cache
//! join and a key or key range").

use bytes::Bytes;
use std::fmt;
use std::ops::Range;

/// Index of a slot within one join's slot table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SlotId(pub u16);

/// The interned slot names of one join.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SlotTable {
    names: Vec<String>,
}

impl SlotTable {
    /// Creates an empty table.
    pub fn new() -> SlotTable {
        SlotTable::default()
    }

    /// Returns the id for `name`, interning it if new.
    pub fn intern(&mut self, name: &str) -> SlotId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            SlotId(i as u16)
        } else {
            self.names.push(name.to_string());
            SlotId((self.names.len() - 1) as u16)
        }
    }

    /// Looks up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<SlotId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| SlotId(i as u16))
    }

    /// The name of a slot id.
    pub fn name(&self, id: SlotId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of interned slots.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no slots are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Creates a slot set sized for this table.
    pub fn empty_set(&self) -> SlotSet {
        SlotSet {
            values: vec![None; self.names.len()],
        }
    }
}

/// A partial assignment of values to a join's slots.
#[derive(Clone, PartialEq, Eq)]
pub struct SlotSet {
    values: Vec<Option<Bytes>>,
}

impl SlotSet {
    /// The value bound to `id`, if any.
    #[inline]
    pub fn get(&self, id: SlotId) -> Option<&Bytes> {
        self.values.get(id.0 as usize).and_then(|v| v.as_ref())
    }

    /// True if `id` has a value.
    #[inline]
    pub fn is_bound(&self, id: SlotId) -> bool {
        self.get(id).is_some()
    }

    /// Binds `id` to `value`, replacing any previous binding.
    pub fn bind(&mut self, id: SlotId, value: Bytes) {
        let idx = id.0 as usize;
        if idx >= self.values.len() {
            self.values.resize(idx + 1, None);
        }
        self.values[idx] = Some(value);
    }

    /// Attempts to bind `id` to the bytes `buf[at]`; if already bound,
    /// succeeds only when the existing value matches (the join's
    /// consistency rule: "slots common to multiple source keys have
    /// consistent values"). A new binding is `buf.slice(at)` — held in
    /// place when short, a window sharing `buf`'s allocation otherwise;
    /// `buf` is the matched key's own buffer, so binding a slot never
    /// allocates.
    pub fn unify(&mut self, id: SlotId, buf: &Bytes, at: Range<usize>) -> bool {
        match self.get(id) {
            Some(existing) => existing[..] == buf[at],
            None => {
                self.bind(id, buf.slice(at));
                true
            }
        }
    }

    /// Removes a binding.
    pub fn unbind(&mut self, id: SlotId) {
        if let Some(v) = self.values.get_mut(id.0 as usize) {
            *v = None;
        }
    }

    /// Number of bound slots.
    pub fn bound_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_some()).count()
    }

    /// True if no slot is bound to different values in the two sets: the
    /// join's consistency rule, checked by reference (what
    /// [`SlotSet::merge`] on a copy would answer).
    pub fn consistent_with(&self, other: &SlotSet) -> bool {
        self.values
            .iter()
            .zip(&other.values)
            .all(|pair| !matches!(pair, (Some(a), Some(b)) if a != b))
    }

    /// Merges another slot set into this one; returns false on conflict.
    pub fn merge(&mut self, other: &SlotSet) -> bool {
        for (i, v) in other.values.iter().enumerate() {
            if let Some(v) = v {
                if !self.unify(SlotId(i as u16), v, 0..v.len()) {
                    return false;
                }
            }
        }
        true
    }

    /// Renders the slot set with names from `table` for debugging.
    pub fn display<'a>(&'a self, table: &'a SlotTable) -> impl fmt::Display + 'a {
        struct D<'a>(&'a SlotSet, &'a SlotTable);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{{")?;
                let mut first = true;
                for (i, v) in self.0.values.iter().enumerate() {
                    if let Some(v) = v {
                        if !first {
                            write!(f, ", ")?;
                        }
                        first = false;
                        write!(
                            f,
                            "{} -> {}",
                            self.1.name(SlotId(i as u16)),
                            String::from_utf8_lossy(v)
                        )?;
                    }
                }
                write!(f, "}}")
            }
        }
        D(self, table)
    }
}

impl fmt::Debug for SlotSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bound = (self.values.iter().enumerate())
            .filter_map(|(i, v)| Some((SlotId(i as u16), &v.as_ref()?[..])));
        fmt_bindings(f, bound)
    }
}

fn fmt_bindings<'a>(
    f: &mut fmt::Formatter<'_>,
    bound: impl Iterator<Item = (SlotId, &'a [u8])>,
) -> fmt::Result {
    write!(f, "slots{{")?;
    for (n, (id, v)) in bound.enumerate() {
        let sep = if n == 0 { "" } else { ", " };
        write!(f, "{sep}#{} -> {:?}", id.0, String::from_utf8_lossy(v))?;
    }
    write!(f, "}}")
}

/// A slot set frozen into one byte string: what an installed updater
/// remembers of the bindings it was planned under (§3.2's "context").
///
/// The bound slots are packed in ascending id order, each as
/// `id · length · bytes` with both numbers in LEB128, so the encoding is
/// canonical: two sets bind the same slots to the same values exactly
/// when their packed bytes are equal, however long the `Vec` behind
/// either [`SlotSet`] had grown. The string is held in one [`Bytes`]
/// handle, which keeps up to 30 bytes in place — the timeline join's
/// `user` and `poster` pack to about 20 — so a stored updater owns no
/// allocation, and packing one makes none.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Bindings(Bytes);

/// Bytes `n` takes in LEB128.
fn varint_len(n: usize) -> usize {
    (usize::BITS - (n | 1).leading_zeros()).div_ceil(7) as usize
}

/// Writes `n` in LEB128 at the front of `out`; returns the rest.
fn put_varint(out: &mut [u8], mut n: usize) -> &mut [u8] {
    let mut at = 0;
    while n >= 0x80 {
        out[at] = n as u8 | 0x80;
        n >>= 7;
        at += 1;
    }
    out[at] = n as u8;
    &mut out[at + 1..]
}

/// Reads one LEB128 number off the front of `packed`. The bytes are
/// always [`Bindings::pack`]'s own, so running out mid-number cannot
/// happen; it reads as the end of the string.
fn take_varint(packed: &mut &[u8]) -> Option<usize> {
    let (mut n, mut shift) = (0usize, 0);
    loop {
        let (&byte, rest) = packed.split_first()?;
        *packed = rest;
        n |= usize::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return Some(n);
        }
        shift += 7;
    }
}

impl Bindings {
    /// Packs the bound slots of `slots`.
    pub fn pack(slots: &SlotSet) -> Bindings {
        let bound =
            || (slots.values.iter().enumerate()).filter_map(|(i, v)| Some((i, v.as_ref()?)));
        let len = bound()
            .map(|(i, v)| varint_len(i) + varint_len(v.len()) + v.len())
            .sum();
        // Built on the stack: a short string goes from here into the
        // handle itself, and only a long one is ever on the heap.
        let mut short = [0u8; 64];
        let mut long = Vec::new();
        let packed = match short.get_mut(..len) {
            Some(fits) => fits,
            None => {
                long.resize(len, 0);
                &mut long[..]
            }
        };
        let mut rest = &mut *packed;
        for (i, v) in bound() {
            rest = put_varint(put_varint(rest, i), v.len());
            let (value, after) = rest.split_at_mut(v.len());
            value.copy_from_slice(v);
            rest = after;
        }
        Bindings(Bytes::copy_from_slice(packed))
    }

    /// The bound slots and their values, in ascending slot order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &[u8])> {
        let mut rest = &self.0[..];
        std::iter::from_fn(move || {
            let id = take_varint(&mut rest)?;
            let len = take_varint(&mut rest)?;
            let (value, after) = rest.split_at_checked(len)?;
            rest = after;
            Some((SlotId(id as u16), value))
        })
    }

    /// The value bound to `id`, if any.
    pub fn get(&self, id: SlotId) -> Option<&[u8]> {
        let at_or_past = self.iter().find(|(bound, _)| *bound >= id)?;
        (at_or_past.0 == id).then_some(at_or_past.1)
    }

    /// True if no slot is bound to different values here and in `other`
    /// ([`SlotSet::consistent_with`], read off the packed form).
    pub fn consistent_with(&self, other: &SlotSet) -> bool {
        self.iter()
            .all(|(id, v)| other.get(id).is_none_or(|theirs| theirs[..] == *v))
    }
}

impl fmt::Debug for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_bindings(f, self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedupes() {
        let mut t = SlotTable::new();
        let a = t.intern("user");
        let b = t.intern("time");
        let a2 = t.intern("user");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(a), "user");
        assert_eq!(t.lookup("time"), Some(b));
        assert_eq!(t.lookup("poster"), None);
    }

    #[test]
    fn unify_checks_consistency() {
        let mut t = SlotTable::new();
        let user = t.intern("user");
        let mut s = t.empty_set();
        let key = Bytes::from_static(b"s|ann|bob");
        assert!(s.unify(user, &key, 2..5));
        assert!(s.unify(user, &Bytes::from_static(b"ann"), 0..3)); // same value fine
        assert!(!s.unify(user, &key, 6..9)); // conflict
        assert_eq!(s.get(user).map(|b| b.as_ref()), Some(&b"ann"[..]));
    }

    #[test]
    fn merge_detects_conflicts() {
        let mut t = SlotTable::new();
        let user = t.intern("user");
        let time = t.intern("time");
        let mut a = t.empty_set();
        a.bind(user, Bytes::from_static(b"ann"));
        let mut b = t.empty_set();
        b.bind(time, Bytes::from_static(b"100"));
        assert!(a.merge(&b));
        assert_eq!(a.bound_count(), 2);
        let mut c = t.empty_set();
        c.bind(user, Bytes::from_static(b"bob"));
        assert!(!a.consistent_with(&c) && !c.consistent_with(&a));
        assert!(a.consistent_with(&b) && a.consistent_with(&t.empty_set()));
        assert!(!a.merge(&c));
    }

    #[test]
    fn bindings_pack_the_bound_slots_in_order() {
        let mut t = SlotTable::new();
        let [user, time, poster] = ["user", "time", "poster"].map(|n| t.intern(n));
        let mut s = t.empty_set();
        s.bind(poster, Bytes::from_static(b"u0000002"));
        s.bind(user, Bytes::from_static(b"u0000001"));
        let packed = Bindings::pack(&s);
        assert_eq!(&packed.0[..], b"\x00\x08u0000001\x02\x08u0000002");
        assert_eq!(packed.get(user), Some(&b"u0000001"[..]));
        assert_eq!((packed.get(time), packed.get(SlotId(9))), (None, None));
        assert_eq!(format!("{packed:?}"), format!("{s:?}"));
        // Consistency reads the other side's slots only where both bind.
        let mut other = t.empty_set();
        assert!(packed.consistent_with(&other));
        other.bind(time, Bytes::from_static(b"0000000100"));
        other.bind(poster, Bytes::from_static(b"u0000002"));
        assert!(packed.consistent_with(&other));
        other.bind(user, Bytes::from_static(b"u0000003"));
        assert!(!packed.consistent_with(&other));
        assert_eq!(Bindings::pack(&t.empty_set()), Bindings::default());
    }

    #[test]
    fn unbind_clears() {
        let mut t = SlotTable::new();
        let user = t.intern("user");
        let mut s = t.empty_set();
        s.bind(user, Bytes::from_static(b"ann"));
        s.unbind(user);
        assert!(!s.is_bound(user));
        assert_eq!(s.bound_count(), 0);
    }
}
