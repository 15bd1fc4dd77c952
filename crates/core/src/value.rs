//! The constant domain shared by queries, access constraints and data.
//!
//! The paper assumes a countably infinite domain `D` of data values. We model it with
//! integers, strings and booleans, plus *labelled nulls* ([`Value::Labelled`]) which the
//! reasoning procedures use as "fresh, pairwise distinct" constants when enumerating
//! canonical instances (Section 3 of the paper works with representative instances in the
//! style of indefinite databases).

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A single data value: 16 bytes, asserted at compile time.
///
/// Cloning a `Value` is **O(1)**: the scalar variants and strings of at most
/// [`Str::INLINE`] bytes are plain copies, and a longer string's payload is shared, so a
/// clone of one is a refcount bump, never a deep copy of the character data. The
/// executor relies on this — join keys, lookup memos, dedup sets and columnar
/// batch gathers all clone values freely; the bytes themselves are written once when the
/// value is created (typically at data-load or parse time).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Value {
    /// A 64-bit signed integer.
    Int(i64),
    /// A UTF-8 string, short ones inline (see [`Str`]).
    Str(Str),
    /// A boolean.
    Bool(bool),
    /// A labelled null: a fresh constant distinct from every other value except itself.
    ///
    /// Labelled nulls never appear in user data; they are introduced by the reasoning
    /// procedures ([`crate::reason`]) and by generic query specialization
    /// ([`crate::specialize`]) to stand for "an arbitrary value".
    Labelled(u32),
}

const _: () = assert!(std::mem::size_of::<Value>() == 16);

/// The payload of [`Value::Str`]: an immutable UTF-8 string in 16 bytes.
///
/// A string of at most [`Str::INLINE`] bytes is kept in place, with no heap object; a
/// longer one lives behind a thin shared pointer, so clones alias one allocation. Which
/// form a string takes depends only on its length, and equality, order and hashing are
/// those of its bytes, exactly as `str` defines them — the form is never observable.
#[derive(Clone)]
pub struct Str(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; Str::INLINE] },
    Heap(Arc<Box<str>>),
}

impl Str {
    /// The longest string, in bytes, kept inline.
    pub const INLINE: usize = 14;

    /// The string's UTF-8 bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(text) => text.as_bytes(),
        }
    }

    /// The string itself.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => std::str::from_utf8(self.as_bytes())
                .expect("an inline string holds the bytes of the `str` it was built from"),
            Repr::Heap(text) => text,
        }
    }

    /// The string's length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// True for the empty string.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The inline form of `text`, if it is short enough to have one.
    fn inline(text: &str) -> Option<Self> {
        let len = text.len();
        (len <= Self::INLINE).then(|| {
            let mut bytes = [0; Self::INLINE];
            bytes[..len].copy_from_slice(text.as_bytes());
            Str(Repr::Inline {
                len: len as u8,
                bytes,
            })
        })
    }
}

impl Deref for Str {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Str {
    fn from(text: &str) -> Self {
        Str::inline(text).unwrap_or_else(|| Str(Repr::Heap(Arc::new(text.into()))))
    }
}

impl From<String> for Str {
    fn from(text: String) -> Self {
        Str::inline(&text).unwrap_or_else(|| Str(Repr::Heap(Arc::new(text.into_boxed_str()))))
    }
}

impl From<Box<str>> for Str {
    fn from(text: Box<str>) -> Self {
        Str::inline(&text).unwrap_or_else(|| Str(Repr::Heap(Arc::new(text))))
    }
}

impl From<Arc<str>> for Str {
    fn from(text: Arc<str>) -> Self {
        Str::from(&*text)
    }
}

impl From<Cow<'_, str>> for Str {
    fn from(text: Cow<'_, str>) -> Self {
        match text {
            Cow::Borrowed(text) => text.into(),
            Cow::Owned(text) => text.into(),
        }
    }
}

impl PartialEq for Str {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Str {}

impl PartialOrd for Str {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Str {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Str {
    /// What `str` feeds a hasher: the bytes, then `0xff`.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Value {
    /// Build a string value: inline up to [`Str::INLINE`] bytes, else allocated once and
    /// shared by every clone.
    pub fn str(s: impl Into<Str>) -> Self {
        Value::Str(s.into())
    }

    /// Build an integer value.
    pub const fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// The placeholder for the `class`-th constant a query template leaves open: labelled
    /// nulls counted down from the top, out of the way of the small indices the
    /// reasoning procedures mint fresh nulls from. Pairwise distinct, and distinct from
    /// every user value — the least-merging valuation (Section 5).
    pub const fn placeholder(class: u32) -> Self {
        Value::Labelled(u32::MAX - class)
    }

    /// The class a labelled null stands for when read as a [`Value::placeholder`];
    /// `None` for every user value.
    pub const fn placeholder_class(&self) -> Option<u32> {
        match self {
            Value::Labelled(label) => Some(u32::MAX - *label),
            _ => None,
        }
    }

    /// This value as a run given `constants` reads it: `constants[class]` for a
    /// [`Value::placeholder`] of a class the run supplies, the value itself otherwise.
    /// How a plan lowered once from a template takes each request's constants.
    pub fn bound<'a>(&'a self, constants: &'a [Value]) -> &'a Value {
        self.placeholder_class()
            .and_then(|class| constants.get(class as usize))
            .unwrap_or(self)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Labelled(n) => write!(f, "⊥{n}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order across heterogeneous values: ints < strings < bools < labelled nulls,
    /// with the natural order inside each group. The order is only used to make results
    /// and canonical instances deterministic; it carries no query semantics.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Labelled(a), Labelled(b)) => a.cmp(b),
            (Int(_), _) => Ordering::Less,
            (_, Int(_)) => Ordering::Greater,
            (Str(_), _) => Ordering::Less,
            (_, Str(_)) => Ordering::Greater,
            (Bool(_), _) => Ordering::Less,
            (_, Bool(_)) => Ordering::Greater,
        }
    }
}

/// A tuple of values, i.e. one row of a relation or of a query answer.
pub type Row = Vec<Value>;

/// One step of [`hash_row`]: fold the 128-bit product of the mixed-in word.
#[inline]
fn mix(hash: u64, word: u64) -> u64 {
    let product = u128::from(hash ^ word) * 0x9E37_79B9_7F4A_7C15_u128;
    (product as u64) ^ ((product >> 64) as u64)
}

/// The one hash of a row of values — a key, a projection, a whole tuple — shared by the
/// store's posting indexes and every membership table and memo of the
/// executor, so a row is hashed the same way wherever it is looked up.
///
/// A fixed folded-multiply mixer over the values a word at a time, not SipHash: the
/// rows come from data the operator loaded and from constants of the query being run,
/// every table it feeds is open-addressing over rows *compared by value* on each hit,
/// and so a bad distribution can only lengthen a slot walk — never change a result.
/// Each variant perturbs the state differently, so `Int(1)`, `Bool(true)`,
/// `Labelled(1)` and `Str("1")` start different walks (equality, not the hash, is what
/// keeps them apart).
#[inline]
pub fn hash_row<'v>(row: impl IntoIterator<Item = &'v Value>) -> u64 {
    row.into_iter()
        .fold(0x2545_F491_4F6C_DD1D, |hash, value| match value {
            Value::Int(i) => mix(hash, *i as u64),
            Value::Bool(b) => mix(!hash, u64::from(*b)),
            Value::Labelled(l) => mix(hash.rotate_left(32), u64::from(*l)),
            Value::Str(s) => {
                let mut words = s.as_bytes().chunks_exact(8);
                let mut hash = mix(hash.rotate_left(16), s.len() as u64);
                for word in &mut words {
                    let word = word.try_into().expect("chunks_exact(8) yields 8 bytes");
                    hash = mix(hash, u64::from_le_bytes(word));
                }
                let mut tail = [0u8; 8];
                tail[..words.remainder().len()].copy_from_slice(words.remainder());
                mix(hash, u64::from_le_bytes(tail))
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_formats() {
        assert_eq!(Value::int(42).to_string(), "42");
        assert_eq!(Value::str("ab").to_string(), "\"ab\"");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::Labelled(3).to_string(), "⊥3");
        // `{:?}` of the `str`, escapes included, in either form.
        assert_eq!(Value::str("a\"b\\c\nd").to_string(), r#""a\"b\\c\nd""#);
        assert_eq!(
            Value::str("say \"hi\"\\\nto all").to_string(),
            r#""say \"hi\"\\\nto all""#
        );
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(String::from("y")), Value::Str("y".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        // Every string source, on both sides of `Str::INLINE`.
        for text in [
            "day-0001",
            "driver-10000000",
            "a string well over fourteen bytes",
        ] {
            let want = Value::str(text);
            for value in [
                Value::from(text),
                Value::from(text.to_owned()),
                Value::str(Arc::<str>::from(text)),
                Value::str(Box::<str>::from(text)),
                Value::str(Cow::Borrowed(text)),
                Value::str(Cow::<str>::Owned(text.to_owned())),
            ] {
                assert_eq!(value, want);
                assert_eq!(hash_row([&value]), hash_row([&want]));
            }
        }
    }

    #[test]
    fn a_value_is_16_bytes_with_a_niche_to_spare() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
        assert_eq!(std::mem::size_of::<Option<Value>>(), 16);
    }

    /// `text` with its payload forced onto the heap, whatever its length.
    fn on_heap(text: &str) -> Value {
        Value::Str(Str(Repr::Heap(Arc::new(text.into()))))
    }

    /// What `value` feeds a `Hasher`, byte for byte.
    fn hash_feed(value: &impl Hash) -> Vec<u8> {
        struct Feed(Vec<u8>);
        impl Hasher for Feed {
            fn write(&mut self, bytes: &[u8]) {
                self.0.extend_from_slice(bytes);
            }
            fn finish(&self) -> u64 {
                0
            }
        }
        let mut feed = Feed(Vec::new());
        value.hash(&mut feed);
        feed.0
    }

    #[test]
    fn strings_behave_as_their_bytes_on_both_sides_of_the_inline_line() {
        let texts = [
            String::new(),
            "x".repeat(Str::INLINE),
            "x".repeat(Str::INLINE + 1),
            format!("{}é", "x".repeat(12)),
            format!("{}é", "x".repeat(13)),
            "y".repeat(40),
        ];
        assert_eq!(
            texts.iter().map(String::len).collect::<Vec<_>>(),
            [0, 14, 15, 14, 15, 40]
        );
        for a in &texts {
            let Value::Str(a_str) = Value::str(a.as_str()) else {
                unreachable!()
            };
            assert_eq!(a_str.as_str(), a);
            assert_eq!(a_str.len(), a.len());
            assert_eq!(hash_feed(&a_str), hash_feed(&a.as_str()));
            // Either form of one string is the same value to every observer.
            let (a_value, a_heap) = (Value::Str(a_str), on_heap(a));
            assert_eq!(a_value, a_heap);
            assert_eq!(a_value.cmp(&a_heap), Ordering::Equal);
            assert_eq!(hash_row([&a_value]), hash_row([&a_heap]));
            assert_eq!(hash_feed(&a_value), hash_feed(&a_heap));
            assert_eq!(a_value.to_string(), format!("{a:?}"));
            for b in &texts {
                let b_value = Value::str(b.as_str());
                assert_eq!(a_value.cmp(&b_value), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(a_value == b_value, a == b);
                assert_eq!(a_value.cmp(&on_heap(b)), a.cmp(b));
            }
        }
    }

    #[test]
    fn ordering_is_total_and_groups_types() {
        let mut vals = vec![
            Value::Labelled(0),
            Value::Bool(false),
            Value::str("a"),
            Value::int(-1),
            Value::int(5),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::int(-1),
                Value::int(5),
                Value::str("a"),
                Value::Bool(false),
                Value::Labelled(0),
            ]
        );
    }

    #[test]
    fn hashable_and_distinct() {
        let set: HashSet<Value> = [
            Value::int(1),
            Value::str("1"),
            Value::Bool(true),
            Value::Labelled(1),
        ]
        .into_iter()
        .collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn labelled_nulls_equal_only_themselves() {
        assert_eq!(Value::Labelled(2), Value::Labelled(2));
        assert_ne!(Value::Labelled(2), Value::Labelled(3));
        assert_ne!(Value::Labelled(2), Value::int(2));
    }

    #[test]
    fn hash_row_is_pinned() {
        // `core`, `storage` and `engine` all call this one function; the constants pin
        // it, so an index, a dedup table and a lookup memo cannot drift apart.
        let empty: [Value; 0] = [];
        assert_eq!(hash_row(&empty), 0x2545_F491_4F6C_DD1D);
        assert_eq!(hash_row(&[Value::int(1)]), 0x4BC4_2E7B_41F3_8A49);
        assert_eq!(
            hash_row(&[
                Value::str("day-0001"),
                Value::Bool(true),
                Value::Labelled(3)
            ]),
            0x08F0_7E76_5B5A_3F30
        );
        // Over `Str::INLINE` bytes: the heap form hashes what the inline one would.
        assert_eq!(
            hash_row(&[Value::str("driver-10000000")]),
            0xF918_A7A8_78CD_B9BB
        );
        // Look-alikes start different walks, and order matters.
        let alikes = [
            Value::int(1),
            Value::Bool(true),
            Value::str("1"),
            Value::Labelled(1),
        ];
        let hashes: HashSet<u64> = alikes.iter().map(|v| hash_row([v])).collect();
        assert_eq!(hashes.len(), 4);
        assert_ne!(
            hash_row(&[Value::int(1), Value::int(2)]),
            hash_row(&[Value::int(2), Value::int(1)])
        );
    }
}
