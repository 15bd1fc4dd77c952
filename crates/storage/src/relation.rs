//! A single relation instance: a schema and its tuples, stored flat.
//!
//! # Layout and cost model
//!
//! A relation of arity `k` holding `n` tuples is ONE row-major `Vec<Value>` of `n · k`
//! values: tuple `i` is the slice `values[i·k .. (i+1)·k]`. A tuple therefore costs
//! exactly `k · size_of::<Value>()` bytes (16 B per value: 48 B for a ternary tuple)
//! with no per-tuple header, allocation or allocator slack; a string of at most
//! [`bea_core::value::Str::INLINE`] bytes lives inside its value, and only a longer one
//! adds a shared payload, once per distinct allocation. Readers get `&[Value]`
//! slices ([`Relation::rows`], [`Relation::row`]) — there is no owned `Row` per tuple to
//! hand out. A tuple's offset `i` is what the access-constraint indexes store
//! ([`crate::index`]), so a fetch is one multiplication away from its values.

use bea_core::error::{Error, Result};
use bea_core::schema::RelationSchema;
use bea_core::value::{Row, Value};

/// A relation instance. Tuples are stored in insertion order; the query semantics used
/// throughout the workspace is set-based, so callers that may insert duplicates should
/// deduplicate results (the executors do).
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    schema: RelationSchema,
    /// Row-major tuple values: always exactly `len * schema.arity()` of them.
    values: Vec<Value>,
    /// Number of tuples (kept apart from `values.len()` so arity 0 stays representable).
    len: usize,
}

impl Relation {
    /// Create an empty relation instance for a schema.
    pub fn new(schema: RelationSchema) -> Self {
        Self {
            schema,
            values: Vec::new(),
            len: 0,
        }
    }

    /// The relation schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tuples, in insertion order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> + Clone {
        (0..self.len).map(|index| self.tuple(index))
    }

    /// The tuple at an offset.
    pub fn row(&self, index: usize) -> Option<&[Value]> {
        (index < self.len).then(|| self.tuple(index))
    }

    /// Every tuple's values, row-major: tuple `i`'s value at attribute `a` is at `i ·
    /// arity + a`. What an executor column over tuple offsets reads, so it can point
    /// into the store instead of copying a value out.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The tuple at an offset an index handed out; panics when out of range.
    pub(crate) fn tuple(&self, index: usize) -> &[Value] {
        let arity = self.schema.arity();
        &self.values[index * arity..(index + 1) * arity]
    }

    /// Bytes the tuples occupy: values × `size_of::<Value>()`. String payloads are
    /// shared heap allocations and are not counted.
    pub fn tuple_bytes(&self) -> u64 {
        (self.values.len() * std::mem::size_of::<Value>()) as u64
    }

    /// Insert a tuple — a `Vec`, an array, any exact-sized sequence of values; its
    /// arity must match the schema. The values go straight into the flat store.
    pub fn insert<T>(&mut self, row: T) -> Result<()>
    where
        T: IntoIterator<Item = Value>,
        T::IntoIter: ExactSizeIterator,
    {
        let (row, arity, before) = (row.into_iter(), self.schema.arity(), self.values.len());
        let found = row.len();
        if found == arity {
            self.values.extend(row);
        }
        // Length re-checked after the copy: an iterator that misreports its length
        // must not shift every later tuple off its stride.
        if found != arity || self.values.len() != before + arity {
            self.values.truncate(before);
            return Err(Error::ArityMismatch {
                relation: self.schema.name().to_owned(),
                expected: arity,
                found,
            });
        }
        self.len += 1;
        Ok(())
    }

    /// Insert many tuples.
    pub fn extend<T>(&mut self, rows: impl IntoIterator<Item = T>) -> Result<()>
    where
        T: IntoIterator<Item = Value>,
        T::IntoIter: ExactSizeIterator,
    {
        for row in rows {
            self.insert(row)?;
        }
        Ok(())
    }

    /// Reserve capacity for additional tuples (useful for bulk loads).
    pub fn reserve(&mut self, additional: usize) {
        self.values.reserve(additional * self.schema.arity());
    }

    /// Project a tuple onto a list of attribute positions.
    pub fn project(row: &[Value], positions: &[usize]) -> Row {
        positions.iter().map(|&p| row[p].clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> RelationSchema {
        RelationSchema::new("R", ["a", "b"]).unwrap()
    }

    #[test]
    fn insert_and_read() {
        let mut r = Relation::new(schema());
        assert!(r.is_empty());
        r.insert(vec![Value::int(1), Value::str("x")]).unwrap();
        r.extend([
            vec![Value::int(2), Value::str("y")],
            vec![Value::int(3), Value::str("z")],
        ])
        .unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.name(), "R");
        assert_eq!(r.row(0).unwrap()[0], Value::int(1));
        assert!(r.row(5).is_none());
        assert_eq!(r.rows().len(), 3);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut r = Relation::new(schema());
        let err = r.insert(vec![Value::int(1)]);
        assert!(matches!(err, Err(Error::ArityMismatch { .. })));
    }

    #[test]
    fn tuples_are_slices_of_one_flat_vector() {
        let mut r = Relation::new(schema());
        r.insert([Value::int(1), Value::str("x")]).unwrap();
        r.insert(vec![Value::int(2), Value::str("y")]).unwrap();
        let rows: Vec<&[Value]> = r.rows().collect();
        assert_eq!(rows, [r.row(0).unwrap(), r.row(1).unwrap()]);
        assert_eq!(rows[1], [Value::int(2), Value::str("y")]);
        assert_eq!(r.tuple_bytes(), 4 * std::mem::size_of::<Value>() as u64);
        assert!(r.rows().eq(r.clone().rows()));
        // A rejected tuple leaves nothing behind.
        assert!(r.insert([Value::int(3)]).is_err());
        assert_eq!((r.len(), r.rows().count()), (2, 2));

        // Arity 0 has no values to count tuples by; the count is kept explicitly.
        let mut unit = Relation::new(RelationSchema::new("U", [] as [&str; 0]).unwrap());
        unit.insert([]).unwrap();
        unit.insert(Vec::new()).unwrap();
        assert!(unit.insert([Value::int(1)]).is_err());
        assert_eq!(unit.len(), 2);
        assert_eq!(unit.rows().collect::<Vec<_>>(), [&[] as &[Value]; 2]);
        assert!(unit.row(2).is_none());
    }

    #[test]
    fn a_misreported_length_cannot_shift_the_stride() {
        /// Claims two values, yields `self.0`.
        struct Liar(usize);
        impl Iterator for Liar {
            type Item = Value;
            fn next(&mut self) -> Option<Value> {
                self.0 = self.0.checked_sub(1)?;
                Some(Value::int(0))
            }
            fn size_hint(&self) -> (usize, Option<usize>) {
                (2, Some(2))
            }
        }
        impl ExactSizeIterator for Liar {}
        let mut r = Relation::new(schema());
        assert!(r.insert(Liar(1)).is_err());
        assert!(r.insert(Liar(3)).is_err());
        r.insert(Liar(2)).unwrap();
        r.insert([Value::int(1), Value::int(2)]).unwrap();
        assert_eq!(r.row(1).unwrap(), [Value::int(1), Value::int(2)]);
    }

    #[test]
    fn projection_and_distinct() {
        let mut r = Relation::new(schema());
        r.extend([
            vec![Value::int(1), Value::str("x")],
            vec![Value::int(1), Value::str("y")],
            vec![Value::int(2), Value::str("y")],
        ])
        .unwrap();
        assert_eq!(
            Relation::project(r.row(0).unwrap(), &[1, 0]),
            vec![Value::str("x"), Value::int(1)]
        );
        let distinct: std::collections::BTreeSet<Row> =
            r.rows().map(|row| Relation::project(row, &[1])).collect();
        assert_eq!(distinct.len(), 2);
        r.reserve(100);
        assert_eq!(r.len(), 3);
    }
}
