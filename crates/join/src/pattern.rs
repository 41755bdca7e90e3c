//! Key patterns: the building blocks of cache joins.
//!
//! A pattern like `t|<user>|<time:10>|<poster>` describes a family of
//! keys: literal bytes interleaved with named slots. Slots are either
//! *fixed-width* (`<time:10>` consumes exactly ten bytes) or
//! *variable-width* (`<user>` consumes bytes up to the next literal).
//! This is the paper's "slot definition" machinery (§3): "slot
//! definitions tell Pequod how to unpack a key into its component
//! slots—for example, by looking for vertical bars, or by taking fixed
//! numbers of bytes."
//!
//! Fixed-width slots matter for performance: they let the containing-
//! range computation (see [`crate::containing`]) translate scan bounds
//! through a join precisely, reproducing the paper's
//! `[p|bob|100, p|bob|+)` example. Variable-width slots are matched
//! non-greedily up to the next literal and produce conservative
//! (correct but wider) containing ranges.

use crate::slots::{SlotId, SlotSet, SlotTable};
use bytes::Bytes;
use pequod_store::{Key, KeyRange, UpperBound};
use std::fmt;
use std::ops::Range;

/// One element of a pattern.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Token {
    /// Literal bytes that must appear verbatim.
    Lit(Bytes),
    /// A named slot. `width` is `Some(n)` for fixed-width slots.
    Slot {
        /// Which slot this token binds.
        id: SlotId,
        /// Fixed byte width, or `None` for delimiter-terminated slots.
        width: Option<usize>,
    },
}

/// Errors produced while parsing a pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PatternError {
    /// `<` without a matching `>`.
    UnterminatedSlot,
    /// Slot name was empty or contained invalid characters.
    BadSlotName(String),
    /// Slot width annotation did not parse as a positive integer.
    BadWidth(String),
    /// Two variable-width slots appeared with no literal between them.
    AdjacentVariableSlots,
    /// The pattern was empty.
    Empty,
    /// The same slot appeared twice in one pattern.
    DuplicateSlot(String),
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::UnterminatedSlot => write!(f, "unterminated '<' slot"),
            PatternError::BadSlotName(n) => write!(f, "bad slot name {n:?}"),
            PatternError::BadWidth(w) => write!(f, "bad slot width {w:?}"),
            PatternError::AdjacentVariableSlots => {
                write!(f, "two variable-width slots need a literal between them")
            }
            PatternError::Empty => write!(f, "empty pattern"),
            PatternError::DuplicateSlot(n) => write!(f, "slot {n:?} appears twice"),
        }
    }
}

impl std::error::Error for PatternError {}

/// A compiled key pattern.
#[derive(Clone, PartialEq, Debug)]
pub struct Pattern {
    tokens: Vec<Token>,
    text: String,
}

impl Pattern {
    /// Parses a pattern such as `t|<user>|<time:10>|<poster>`, interning
    /// slot names into `table`.
    pub fn parse(text: &str, table: &mut SlotTable) -> Result<Pattern, PatternError> {
        let mut tokens: Vec<Token> = Vec::new();
        let mut lit = Vec::new();
        let bytes = text.as_bytes();
        let mut i = 0;
        let mut seen: Vec<SlotId> = Vec::new();
        while i < bytes.len() {
            if bytes[i] == b'<' {
                let close = bytes[i + 1..]
                    .iter()
                    .position(|&b| b == b'>')
                    .ok_or(PatternError::UnterminatedSlot)?
                    + i
                    + 1;
                let inner = &text[i + 1..close];
                let (name, width) = match inner.split_once(':') {
                    Some((n, w)) => {
                        let width: usize = w
                            .parse()
                            .map_err(|_| PatternError::BadWidth(w.to_string()))?;
                        if width == 0 {
                            return Err(PatternError::BadWidth(w.to_string()));
                        }
                        (n, Some(width))
                    }
                    None => (inner, None),
                };
                if name.is_empty() || !name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
                {
                    return Err(PatternError::BadSlotName(name.to_string()));
                }
                if !lit.is_empty() {
                    tokens.push(Token::Lit(Bytes::from(std::mem::take(&mut lit))));
                }
                let id = table.intern(name);
                if seen.contains(&id) {
                    return Err(PatternError::DuplicateSlot(name.to_string()));
                }
                seen.push(id);
                if width.is_none() {
                    if let Some(Token::Slot { width: None, .. }) = tokens.last() {
                        return Err(PatternError::AdjacentVariableSlots);
                    }
                }
                tokens.push(Token::Slot { id, width });
                i = close + 1;
            } else {
                lit.push(bytes[i]);
                i += 1;
            }
        }
        if !lit.is_empty() {
            tokens.push(Token::Lit(Bytes::from(lit)));
        }
        if tokens.is_empty() {
            return Err(PatternError::Empty);
        }
        Ok(Pattern {
            tokens,
            text: text.to_string(),
        })
    }

    /// The pattern's tokens.
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    /// The original pattern text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The slots referenced by this pattern, in order of appearance.
    pub fn slots(&self) -> impl Iterator<Item = SlotId> + '_ {
        self.tokens.iter().filter_map(|t| match t {
            Token::Slot { id, .. } => Some(*id),
            Token::Lit(_) => None,
        })
    }

    /// The leading literal of the pattern (the table name prefix), empty
    /// if the pattern starts with a slot.
    pub fn leading_lit(&self) -> &[u8] {
        match self.tokens.first() {
            Some(Token::Lit(l)) => l,
            _ => b"",
        }
    }

    /// The range of all keys this pattern could produce, given no slot
    /// bindings: `[leading literal, its prefix end)`.
    pub fn key_space(&self) -> KeyRange {
        let lead = self.leading_lit();
        if lead.is_empty() {
            KeyRange::all()
        } else {
            KeyRange::prefix(lead)
        }
    }

    /// Walks `bytes` token by token, handing each slot's extent to
    /// `bind`. True if every literal matched, every `bind` succeeded and
    /// the whole key was consumed.
    fn match_with(&self, bytes: &[u8], mut bind: impl FnMut(SlotId, Range<usize>) -> bool) -> bool {
        let mut pos = 0;
        for (ti, tok) in self.tokens.iter().enumerate() {
            match tok {
                Token::Lit(l) => {
                    if !bytes[pos..].starts_with(l) {
                        return false;
                    }
                    pos += l.len();
                }
                Token::Slot { id, width } => {
                    let extent = match width {
                        Some(w) => {
                            if bytes.len() - pos < *w {
                                return false;
                            }
                            *w
                        }
                        None => match self.next_lit(ti) {
                            Some(delim) => match find(&bytes[pos..], delim) {
                                Some(off) => off,
                                None => return false,
                            },
                            // Slot is the last token: it takes the rest.
                            None => bytes.len() - pos,
                        },
                    };
                    if !bind(*id, pos..pos + extent) {
                        return false;
                    }
                    pos += extent;
                }
            }
        }
        pos == bytes.len()
    }

    /// Matches `key` against the pattern, unifying slot values into
    /// `slots` as slices of the key's buffer (no allocation: short values
    /// are held in place, long ones share the buffer). On success every
    /// slot of the pattern is bound and the whole key was consumed. On
    /// failure `slots` may be partially modified; callers should clone
    /// first if that matters.
    pub fn match_key(&self, key: &Key, slots: &mut SlotSet) -> bool {
        let buf = key.bytes();
        self.match_with(buf, |id, at| slots.unify(id, buf, at))
    }

    /// True if `key` has this pattern's shape and agrees with every
    /// binding in `slots`. Binds nothing: a slot appears once in a
    /// pattern, so an unbound one constrains only the key's shape.
    pub fn matches(&self, key: &Key, slots: &SlotSet) -> bool {
        let buf = key.as_bytes();
        self.match_with(buf, |id, at| {
            slots.get(id).is_none_or(|bound| bound[..] == buf[at])
        })
    }

    /// The first literal token after token index `ti`, skipping nothing
    /// (variable slots must be followed directly by a literal or the
    /// pattern end, enforced at parse time).
    fn next_lit(&self, ti: usize) -> Option<&Bytes> {
        match self.tokens.get(ti + 1) {
            Some(Token::Lit(l)) => Some(l),
            _ => None,
        }
    }

    /// Like [`Pattern::match_key`], but records every newly-bound slot in
    /// `undo` so the caller can unbind them and reuse the slot set for
    /// the next candidate key (the nested-loop hot path). On failure the
    /// new bindings are rolled back before returning.
    pub fn match_key_undo(&self, key: &Key, slots: &mut SlotSet, undo: &mut Vec<SlotId>) -> bool {
        let checkpoint = undo.len();
        let buf = key.bytes();
        let ok = self.match_with(buf, |id, at| {
            let was_bound = slots.is_bound(id);
            let ok = slots.unify(id, buf, at);
            if ok && !was_bound {
                undo.push(id);
            }
            ok
        });
        if !ok {
            for id in undo.drain(checkpoint..) {
                slots.unbind(id);
            }
        }
        ok
    }

    /// Expands the pattern into a key using `slots`; `None` if any slot
    /// is unbound or a fixed-width slot's value has the wrong length.
    pub fn expand(&self, slots: &SlotSet) -> Option<Key> {
        self.expand_with(|id| slots.get(id).map(|v| &v[..]))
    }

    /// [`Pattern::expand`] over any source of slot values, borrowed: the
    /// write path expands from an updater entry's slots united with the
    /// written key's without building the union. The slots are checked
    /// first; the key is then sized and written by [`Key::concat`], so a
    /// short one never allocates.
    pub fn expand_with<'v>(&'v self, value_of: impl Fn(SlotId) -> Option<&'v [u8]>) -> Option<Key> {
        let fits = |tok: &Token| match tok {
            Token::Lit(_) => true,
            Token::Slot { id, width } => {
                value_of(*id).is_some_and(|v| width.is_none_or(|w| v.len() == w))
            }
        };
        if !self.tokens.iter().all(fits) {
            return None;
        }
        Some(Key::concat(self.tokens.iter().map(|tok| match tok {
            Token::Lit(l) => &l[..],
            Token::Slot { id, .. } => value_of(*id).unwrap_or_default(),
        })))
    }

    /// The longest key prefix determined by `slots`: literals and bound
    /// slots up to (not including) the first unbound slot, built by
    /// [`Key::concat`] (in place, no allocation, when short). Returns the
    /// prefix and the token index of the first unbound slot (or
    /// `tokens.len()` if fully determined).
    pub fn determined_prefix(&self, slots: &SlotSet) -> (Key, usize) {
        let determined = self.tokens.iter().map_while(|t| part(t, slots));
        (Key::concat(determined.clone()), determined.count())
    }

    /// The minimal range containing every key the pattern can produce
    /// under `slots` (ignoring any output-range constraint): a single-key
    /// range when fully bound, otherwise the prefix range of the
    /// determined prefix.
    pub fn containing_range_basic(&self, slots: &SlotSet) -> KeyRange {
        let (prefix, ti) = self.determined_prefix(slots);
        if ti == self.tokens.len() {
            KeyRange::single(prefix)
        } else {
            KeyRange::prefix(prefix)
        }
    }

    /// Derives the slot bindings implied by an output key *range*
    /// (Figure 3's `slotset(t, first, last)`).
    ///
    /// Every key in `[first, end)` shares the longest prefix `p` of
    /// `first` such that the whole range fits inside `[p, prefix_end(p))`.
    /// Slots whose full extent lies within that shared prefix are bound.
    pub fn derive_slots(&self, range: &KeyRange, slots: &mut SlotSet) {
        let shared = shared_prefix(range);
        let mut pos = 0;
        for (ti, tok) in self.tokens.iter().enumerate() {
            match tok {
                Token::Lit(l) => {
                    if shared.len() - pos < l.len() || shared[pos..pos + l.len()] != l[..] {
                        return;
                    }
                    pos += l.len();
                }
                Token::Slot { id, width } => {
                    let extent = match width {
                        Some(w) => {
                            if shared.len() - pos < *w {
                                return;
                            }
                            *w
                        }
                        None => match self.next_lit(ti) {
                            Some(delim) => match find(&shared[pos..], delim) {
                                Some(off) => off,
                                None => return,
                            },
                            // Trailing slot: the shared prefix cannot prove
                            // the key ends here, so do not bind.
                            None => return,
                        },
                    };
                    if !slots.unify(*id, range.first.bytes(), pos..pos + extent) {
                        return;
                    }
                    pos += extent;
                }
            }
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.text)
    }
}

/// The bytes `tok` stands for under `slots`: a literal's own, a bound
/// slot's value; `None` for an unbound slot.
pub(crate) fn part<'a>(tok: &'a Token, slots: &'a SlotSet) -> Option<&'a [u8]> {
    match tok {
        Token::Lit(l) => Some(l),
        Token::Slot { id, .. } => slots.get(*id).map(|v| &v[..]),
    }
}

/// The longest prefix `p` of `range.first` with `range ⊆ [p, prefix_end(p))`.
pub(crate) fn shared_prefix(range: &KeyRange) -> &[u8] {
    let first = range.first.as_bytes();
    match &range.end {
        UpperBound::Unbounded => &[],
        UpperBound::Excluded(end) => {
            // prefix_end(p) shrinks as p grows, so scan from the longest
            // prefix down to the empty one.
            for len in (1..=first.len()).rev() {
                match Key::from(&first[..len]).prefix_end() {
                    Some(pe) if *end <= pe => return &first[..len],
                    Some(_) => {}
                    None => return &first[..len], // all-0xff prefix: unbounded span
                }
            }
            &[]
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() {
        return Some(0);
    }
    if needle.len() > haystack.len() {
        return None;
    }
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline() -> (Pattern, SlotTable) {
        let mut t = SlotTable::new();
        let p = Pattern::parse("t|<user>|<time>|<poster>", &mut t).unwrap();
        (p, t)
    }

    /// `matches` is `match_key` without the bindings: same verdict for
    /// keys of the right and the wrong shape, under no, some and
    /// conflicting bindings, and the slot set comes back untouched.
    #[test]
    fn matches_agrees_with_match_key_and_binds_nothing() {
        let mut t = SlotTable::new();
        let p = Pattern::parse("t|<user>|<time:10>|<poster>", &mut t).unwrap();
        let user = t.lookup("user").unwrap();
        let keys = [
            "t|ann|0000000100|bob",
            "t|liz|0000000100|bob",
            "t|ann|100|bob",
            "t|ann|0000000100",
            "t|ann|0000000100|bob|x",
            "p|ann|0000000100|bob",
            "t|",
        ];
        for bound in [None, Some("ann"), Some("an")] {
            let mut slots = t.empty_set();
            if let Some(u) = bound {
                slots.bind(user, Bytes::copy_from_slice(u.as_bytes()));
            }
            for key in keys.map(Key::from) {
                let verdict = p.match_key(&key, &mut slots.clone());
                assert_eq!(p.matches(&key, &slots), verdict, "{key:?} under {bound:?}");
            }
            assert_eq!(slots.bound_count(), usize::from(bound.is_some()));
        }
    }

    #[test]
    fn parse_tokens() {
        let (p, t) = timeline();
        assert_eq!(p.tokens().len(), 6); // t| user | time | poster
        assert_eq!(t.len(), 3);
        assert_eq!(p.leading_lit(), b"t|");
        let fixed = Pattern::parse("p|<poster>|<time:10>", &mut SlotTable::new()).unwrap();
        assert!(matches!(
            fixed.tokens().last(),
            Some(Token::Slot {
                width: Some(10),
                ..
            })
        ));
    }

    #[test]
    fn parse_errors() {
        let mut t = SlotTable::new();
        assert_eq!(
            Pattern::parse("a|<user", &mut t),
            Err(PatternError::UnterminatedSlot)
        );
        assert_eq!(Pattern::parse("", &mut t), Err(PatternError::Empty));
        assert!(matches!(
            Pattern::parse("a|<>", &mut t),
            Err(PatternError::BadSlotName(_))
        ));
        assert!(matches!(
            Pattern::parse("a|<x:zero>", &mut t),
            Err(PatternError::BadWidth(_))
        ));
        assert!(matches!(
            Pattern::parse("a|<x:0>", &mut t),
            Err(PatternError::BadWidth(_))
        ));
        assert_eq!(
            Pattern::parse("a|<x><y>", &mut t),
            Err(PatternError::AdjacentVariableSlots)
        );
        assert!(matches!(
            Pattern::parse("a|<x>|<x>", &mut t),
            Err(PatternError::DuplicateSlot(_))
        ));
        // fixed-width followed by variable is fine
        assert!(Pattern::parse("a|<x:4><y>", &mut t).is_ok());
    }

    #[test]
    fn match_binds_slots() {
        let (p, t) = timeline();
        let mut s = t.empty_set();
        assert!(p.match_key(&Key::from("t|ann|100|bob"), &mut s));
        assert_eq!(s.get(t.lookup("user").unwrap()).unwrap().as_ref(), b"ann");
        assert_eq!(s.get(t.lookup("time").unwrap()).unwrap().as_ref(), b"100");
        assert_eq!(s.get(t.lookup("poster").unwrap()).unwrap().as_ref(), b"bob");
    }

    #[test]
    fn match_rejects_wrong_shape() {
        let (p, t) = timeline();
        assert!(!p.match_key(&Key::from("p|ann|100|bob"), &mut t.empty_set()));
        assert!(!p.match_key(&Key::from("t|ann|100"), &mut t.empty_set()));
        // extra component is absorbed by the trailing variable slot
        let mut s = t.empty_set();
        assert!(p.match_key(&Key::from("t|ann|100|bob|x"), &mut s));
        assert_eq!(
            s.get(t.lookup("poster").unwrap()).unwrap().as_ref(),
            b"bob|x"
        );
    }

    #[test]
    fn match_respects_existing_bindings() {
        let (p, t) = timeline();
        let mut s = t.empty_set();
        s.bind(t.lookup("user").unwrap(), Bytes::from_static(b"ann"));
        assert!(p.match_key(&Key::from("t|ann|100|bob"), &mut s));
        let mut s2 = t.empty_set();
        s2.bind(t.lookup("user").unwrap(), Bytes::from_static(b"liz"));
        assert!(!p.match_key(&Key::from("t|ann|100|bob"), &mut s2));
    }

    #[test]
    fn fixed_width_matching() {
        let mut t = SlotTable::new();
        let p = Pattern::parse("x|<a:3><b:2>", &mut t).unwrap();
        let mut s = t.empty_set();
        assert!(p.match_key(&Key::from("x|abcde"), &mut s));
        assert_eq!(s.get(t.lookup("a").unwrap()).unwrap().as_ref(), b"abc");
        assert_eq!(s.get(t.lookup("b").unwrap()).unwrap().as_ref(), b"de");
        assert!(!p.match_key(&Key::from("x|abcd"), &mut t.empty_set())); // too short
        assert!(!p.match_key(&Key::from("x|abcdef"), &mut t.empty_set())); // too long
    }

    /// Slots bound as slices of the matched key's buffer must be
    /// indistinguishable from copied ones — same equality, same expansion
    /// — including fixed-width slots and a key that is itself a slice of
    /// a larger network frame. That binding a slot performs no allocation
    /// is asserted where an allocator can be counted:
    /// `crates/core/tests/alloc_budget.rs`.
    #[test]
    fn sliced_bindings_equal_copied_ones() {
        let mut t = SlotTable::new();
        let p = Pattern::parse("t|<user>|<time:10>|<poster>", &mut t).unwrap();
        let frame =
            Bytes::from_static(b"\x02\x2a\0\0\0\0\0\0\0t|ann|0000000100|bob\x05\0\0\0hello");
        let key = Key::from(frame.slice(9..29));
        assert_eq!(key, Key::from("t|ann|0000000100|bob"));

        let mut copied = t.empty_set();
        for (name, value) in [("user", "ann"), ("time", "0000000100"), ("poster", "bob")] {
            copied.bind(
                t.lookup(name).unwrap(),
                Bytes::copy_from_slice(value.as_bytes()),
            );
        }
        let mut sliced = t.empty_set();
        assert!(p.match_key(&key, &mut sliced));
        let mut undone = t.empty_set();
        let mut undo = Vec::new();
        assert!(p.match_key_undo(&key, &mut undone, &mut undo));
        assert_eq!(undo.len(), 3);

        assert_eq!(sliced, copied);
        assert_eq!(undone, copied);
        assert_eq!(p.expand(&sliced), p.expand(&copied));
        assert_eq!(p.expand(&sliced).unwrap(), key);
        // A pre-bound copied value unifies with the sliced bytes and
        // stays as it was; a conflicting one still rejects the key.
        let mut pre = t.empty_set();
        pre.bind(t.lookup("time").unwrap(), Bytes::from_static(b"0000000100"));
        assert!(p.match_key(&key, &mut pre));
        assert_eq!(pre, copied);
        let mut wrong = t.empty_set();
        wrong.bind(t.lookup("time").unwrap(), Bytes::from_static(b"0000000101"));
        assert!(!p.match_key(&key, &mut wrong));
        // The same holds for a key too long to be held in place, whose
        // long slot value stays a window into the key's buffer.
        let wide = "w".repeat(40);
        let long_key = Key::from(format!("t|{wide}|0000000100|bob"));
        let mut long = t.empty_set();
        assert!(p.match_key(&long_key, &mut long));
        assert_eq!(
            long.get(t.lookup("user").unwrap()).unwrap(),
            wide.as_bytes()
        );
        assert_eq!(p.expand(&long).unwrap(), long_key);
        let span = long_key.as_bytes().as_ptr_range();
        assert!(span.contains(&long.get(t.lookup("user").unwrap()).unwrap().as_ptr()));
        // Range-derived bindings slice the range's first key the same way.
        let mut derived = t.empty_set();
        p.derive_slots(
            &KeyRange::prefix(Key::from(frame.slice(9..15))),
            &mut derived,
        );
        assert_eq!(
            derived.get(t.lookup("user").unwrap()),
            copied.get(t.lookup("user").unwrap())
        );
        assert_eq!(derived.bound_count(), 1);
    }

    #[test]
    fn expand_roundtrips_match() {
        let (p, t) = timeline();
        let mut s = t.empty_set();
        let key = Key::from("t|ann|100|bob");
        assert!(p.match_key(&key, &mut s));
        assert_eq!(p.expand(&s).unwrap(), key);
    }

    #[test]
    fn expand_requires_all_slots() {
        let (p, t) = timeline();
        let mut s = t.empty_set();
        s.bind(t.lookup("user").unwrap(), Bytes::from_static(b"ann"));
        assert!(p.expand(&s).is_none());
    }

    #[test]
    fn expand_checks_fixed_width() {
        let mut t = SlotTable::new();
        let p = Pattern::parse("x|<a:3>", &mut t).unwrap();
        let mut s = t.empty_set();
        s.bind(t.lookup("a").unwrap(), Bytes::from_static(b"ab"));
        assert!(p.expand(&s).is_none());
        s.bind(t.lookup("a").unwrap(), Bytes::from_static(b"abc"));
        assert_eq!(p.expand(&s).unwrap(), Key::from("x|abc"));
    }

    #[test]
    fn determined_prefix_stops_at_unbound() {
        let (p, t) = timeline();
        let mut s = t.empty_set();
        s.bind(t.lookup("user").unwrap(), Bytes::from_static(b"ann"));
        let (prefix, ti) = p.determined_prefix(&s);
        assert_eq!(prefix, Key::from("t|ann|"));
        assert_eq!(ti, 3); // stopped at <time>
        let basic = p.containing_range_basic(&s);
        assert_eq!(basic, KeyRange::prefix("t|ann|"));
    }

    #[test]
    fn shared_prefix_recovers_component_prefix() {
        // [t|ann|100, t|ann|+): everything shares "t|ann|", even though the
        // raw lcp of the endpoint strings is only "t|ann".
        let range = KeyRange::new("t|ann|100", "t|ann}");
        assert_eq!(shared_prefix(&range), b"t|ann|".to_vec());
        // A scan with a narrower end key shares the longer prefix.
        let range = KeyRange::new("t|ann|100", "t|ann|200");
        assert_eq!(shared_prefix(&range), b"t|ann|".to_vec());
        let range = KeyRange::with_bound("t|ann|100", UpperBound::Unbounded);
        assert_eq!(shared_prefix(&range), Vec::<u8>::new());
    }

    #[test]
    fn derive_slots_paper_example() {
        // scan(t|ann|100, t|ann|+) derives {user -> ann} (§3.1)
        let (p, t) = timeline();
        let mut s = t.empty_set();
        p.derive_slots(&KeyRange::new("t|ann|100", "t|ann}"), &mut s);
        assert_eq!(s.get(t.lookup("user").unwrap()).unwrap().as_ref(), b"ann");
        assert!(!s.is_bound(t.lookup("time").unwrap()));
    }

    #[test]
    fn derive_slots_cross_timeline_scan_binds_nothing() {
        let (p, t) = timeline();
        let mut s = t.empty_set();
        p.derive_slots(&KeyRange::new("t|ann|100", "t|bob|200"), &mut s);
        assert_eq!(s.bound_count(), 0);
    }

    #[test]
    fn derive_slots_binds_fixed_width_without_delimiter() {
        let mut t = SlotTable::new();
        let p = Pattern::parse("t|<user>|<time:3>|<poster>", &mut t).unwrap();
        let mut s = t.empty_set();
        // shared prefix is t|ann|123| -> binds user and time
        p.derive_slots(&KeyRange::new("t|ann|123|a", "t|ann|123|q"), &mut s);
        assert_eq!(s.get(t.lookup("user").unwrap()).unwrap().as_ref(), b"ann");
        assert_eq!(s.get(t.lookup("time").unwrap()).unwrap().as_ref(), b"123");
        assert!(!s.is_bound(t.lookup("poster").unwrap()));
    }

    #[test]
    fn derive_slots_never_binds_trailing_variable_slot() {
        let mut t = SlotTable::new();
        let p = Pattern::parse("k|<a>", &mut t).unwrap();
        let mut s = t.empty_set();
        p.derive_slots(&KeyRange::new("k|abc", "k|abd"), &mut s);
        assert_eq!(s.bound_count(), 0);
    }
}
