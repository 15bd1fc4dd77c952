//! The constant domain shared by queries, access constraints and data.
//!
//! The paper assumes a countably infinite domain `D` of data values. We model it with
//! integers, strings and booleans, plus *labelled nulls* ([`Value::Labelled`]) which the
//! reasoning procedures use as "fresh, pairwise distinct" constants when enumerating
//! canonical instances (Section 3 of the paper works with representative instances in the
//! style of indefinite databases).

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A single data value.
///
/// Cloning a `Value` is **O(1)**: the scalar variants are plain copies and the string
/// payload is a shared [`Arc<str>`], so a clone is a refcount bump, never a deep copy of
/// the character data. The executor relies on this — join keys, per-key fetch caches,
/// dedup sets and columnar batch gathers all clone values freely; the bytes themselves
/// are written once when the value is created (typically at data-load or parse time)
/// and shared from then on.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Value {
    /// A 64-bit signed integer.
    Int(i64),
    /// A UTF-8 string. The payload is shared: clones alias the same allocation.
    Str(Arc<str>),
    /// A boolean.
    Bool(bool),
    /// A labelled null: a fresh constant distinct from every other value except itself.
    ///
    /// Labelled nulls never appear in user data; they are introduced by the reasoning
    /// procedures ([`crate::reason`]) and by generic query specialization
    /// ([`crate::specialize`]) to stand for "an arbitrary value".
    Labelled(u32),
}

impl Value {
    /// Build a string value (the payload is allocated once and shared by every clone).
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// Build an integer value.
    pub const fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// True when the value is a labelled null (a generic placeholder constant).
    pub const fn is_labelled(&self) -> bool {
        matches!(self, Value::Labelled(_))
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

    /// A short tag describing the value's type, used in error messages.
    pub const fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Str(_) => "string",
            Value::Bool(_) => "bool",
            Value::Labelled(_) => "labelled-null",
        }
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
/// store's posting indexes and every membership table, memo and cache stripe of the
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
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(String::from("y")), Value::Str("y".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
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
        assert!(Value::Labelled(0).is_labelled());
        assert!(!Value::int(0).is_labelled());
    }

    #[test]
    fn hash_row_is_pinned() {
        // `core`, `storage` and `engine` all call this one function; the constants pin
        // it, so an index, a dedup table and a cache stripe cannot drift apart.
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

    #[test]
    fn type_names() {
        assert_eq!(Value::int(0).type_name(), "int");
        assert_eq!(Value::str("").type_name(), "string");
        assert_eq!(Value::Bool(false).type_name(), "bool");
        assert_eq!(Value::Labelled(0).type_name(), "labelled-null");
    }
}
