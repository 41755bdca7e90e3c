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
        write!(f, "slots{{")?;
        let mut first = true;
        for (i, v) in self.values.iter().enumerate() {
            if let Some(v) = v {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "#{i} -> {:?}", String::from_utf8_lossy(v))?;
            }
        }
        write!(f, "}}")
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
