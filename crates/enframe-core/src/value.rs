//! Scalars and feature vectors extended with the undefined element `u`.
//!
//! Paper §3.2: the reals (and their operations `+`, `·`, `()⁻¹`) are extended
//! by a special element `u` (*undefined*) such that `0⁻¹ = u`; `+` and `·`
//! propagate `u` as `u + x = x` and `u · x = u`. The feature space is
//! extended by `ū` with `u · x̄ = ū`, `ū + x̄ = x̄`, `a · ū = ū`.
//!
//! The single [`Value`] type represents both extended domains; `Undef`
//! plays the role of `u`/`ū` (the two are never confused because the
//! expressions that produce them are well-typed).
//!
//! Comparison atoms follow §3.2 exactly: a comparison evaluates to **false**
//! iff *both* sides are defined and the comparison does not hold; in every
//! other case — at least one side undefined, or the comparison holds — it
//! evaluates to **true**.

use crate::error::CoreError;
use std::fmt;
use std::sync::Arc;

/// A value of the extended domain: undefined, a scalar, or a feature vector.
///
/// Vectors use `Arc<[f64]>` so that cloning values during evaluation is a
/// reference-count bump rather than an allocation (feature vectors are
/// shared pervasively across event networks).
#[derive(Debug, Clone)]
pub enum Value {
    /// The undefined element `u` (scalar) / `ū` (vector).
    Undef,
    /// A real scalar. Integers and Booleans of the user language are
    /// represented as reals at the event level (counts are small enough to
    /// be exact in an `f64`).
    Num(f64),
    /// A point in the feature space.
    Point(Arc<[f64]>),
}

impl Value {
    /// Builds a point value from a slice of coordinates.
    pub fn point(coords: &[f64]) -> Self {
        Value::Point(coords.into())
    }

    /// True iff this value is the undefined element.
    pub fn is_undef(&self) -> bool {
        matches!(self, Value::Undef)
    }

    /// Extended addition: `u + x = x`, `x + u = x`; component-wise for
    /// points of equal dimension.
    pub fn add(&self, rhs: &Value) -> Result<Value, CoreError> {
        match (self, rhs) {
            (Value::Undef, v) => Ok(v.clone()),
            (v, Value::Undef) => Ok(v.clone()),
            (Value::Num(a), Value::Num(b)) => Ok(Value::Num(a + b)),
            (Value::Point(a), Value::Point(b)) => {
                if a.len() != b.len() {
                    return Err(CoreError::ValueType(format!(
                        "adding points of dimension {} and {}",
                        a.len(),
                        b.len()
                    )));
                }
                Ok(Value::Point(
                    a.iter().zip(b.iter()).map(|(x, y)| x + y).collect(),
                ))
            }
            (a, b) => Err(CoreError::ValueType(format!(
                "cannot add {} and {}",
                a.kind(),
                b.kind()
            ))),
        }
    }

    /// Extended multiplication: `u · x = u`, `a · ū = ū`; scalar·scalar,
    /// scalar·point (component-wise scaling, the user language's
    /// `scalar_mult`), and point·scalar.
    pub fn mul(&self, rhs: &Value) -> Result<Value, CoreError> {
        match (self, rhs) {
            (Value::Undef, _) | (_, Value::Undef) => Ok(Value::Undef),
            (Value::Num(a), Value::Num(b)) => Ok(Value::Num(a * b)),
            (Value::Num(a), Value::Point(p)) | (Value::Point(p), Value::Num(a)) => {
                Ok(Value::Point(p.iter().map(|x| a * x).collect()))
            }
            (a, b) => Err(CoreError::ValueType(format!(
                "cannot multiply {} and {}",
                a.kind(),
                b.kind()
            ))),
        }
    }

    /// Extended multiplicative inverse: `0⁻¹ = u`, `u⁻¹ = u`.
    pub fn inv(&self) -> Result<Value, CoreError> {
        match self {
            Value::Undef => Ok(Value::Undef),
            Value::Num(x) if *x == 0.0 => Ok(Value::Undef),
            Value::Num(x) => Ok(Value::Num(1.0 / x)),
            Value::Point(_) => Err(CoreError::ValueType(
                "cannot invert a feature vector".into(),
            )),
        }
    }

    /// Integer exponentiation of a scalar; `uʳ = u`. Negative exponents of
    /// zero yield `u` (they factor through the inverse).
    pub fn pow(&self, r: i32) -> Result<Value, CoreError> {
        match self {
            Value::Undef => Ok(Value::Undef),
            Value::Num(x) => {
                if *x == 0.0 && r < 0 {
                    Ok(Value::Undef)
                } else {
                    Ok(Value::Num(x.powi(r)))
                }
            }
            Value::Point(_) => Err(CoreError::ValueType(
                "cannot exponentiate a feature vector".into(),
            )),
        }
    }

    /// Euclidean distance on the feature space; absolute difference on
    /// scalars. Undefined if either argument is undefined (§3.2).
    pub fn dist(&self, rhs: &Value) -> Result<Value, CoreError> {
        match (self, rhs) {
            (Value::Undef, _) | (_, Value::Undef) => Ok(Value::Undef),
            (Value::Num(a), Value::Num(b)) => Ok(Value::Num((a - b).abs())),
            (Value::Point(a), Value::Point(b)) => {
                if a.len() != b.len() {
                    return Err(CoreError::ValueType(format!(
                        "distance between points of dimension {} and {}",
                        a.len(),
                        b.len()
                    )));
                }
                let sq: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum();
                Ok(Value::Num(sq.sqrt()))
            }
            (a, b) => Err(CoreError::ValueType(format!(
                "cannot take distance between {} and {}",
                a.kind(),
                b.kind()
            ))),
        }
    }

    /// Compares two extended values with operator `op`.
    ///
    /// Per §3.2 the result is **false** iff both values are defined and the
    /// comparison fails; otherwise true (undefined operands make an atom
    /// vacuously true).
    pub fn compare(&self, op: crate::event::CmpOp, rhs: &Value) -> Result<bool, CoreError> {
        use crate::event::CmpOp::*;
        match (self, rhs) {
            (Value::Undef, _) | (_, Value::Undef) => Ok(true),
            (Value::Num(a), Value::Num(b)) => Ok(match op {
                Le => a <= b,
                Lt => a < b,
                Ge => a >= b,
                Gt => a > b,
                Eq => a == b,
            }),
            (a, b) => Err(CoreError::ValueType(format!(
                "cannot compare {} and {}",
                a.kind(),
                b.kind()
            ))),
        }
    }

    /// A human-readable name for the value's kind (for error messages).
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Undef => "undefined",
            Value::Num(_) => "scalar",
            Value::Point(_) => "point",
        }
    }

    /// A total-order key usable in `BTreeMap`s when collecting output
    /// distributions. Orders `Undef < Num < Point`; NaNs order by bit
    /// pattern so the ordering is total.
    pub fn order_key(&self) -> ValueKey {
        ValueKey(self.clone())
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Undef, Value::Undef) => true,
            (Value::Num(a), Value::Num(b)) => a.to_bits() == b.to_bits(),
            (Value::Point(a), Value::Point(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Undef => write!(f, "u"),
            Value::Num(x) => write!(f, "{x}"),
            Value::Point(p) => {
                write!(f, "(")?;
                for (i, x) in p.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Total-order wrapper over [`Value`] (bit-level order on floats), for use
/// as a `BTreeMap` key when tabulating distributions of c-value targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueKey(pub Value);

impl Ord for ValueKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Undef => 0,
                Value::Num(_) => 1,
                Value::Point(_) => 2,
            }
        }
        match (&self.0, &other.0) {
            (Value::Undef, Value::Undef) => Ordering::Equal,
            (Value::Num(a), Value::Num(b)) => total_f64(*a).cmp(&total_f64(*b)),
            (Value::Point(a), Value::Point(b)) => {
                let ka: Vec<i64> = a.iter().map(|x| total_f64(*x)).collect();
                let kb: Vec<i64> = b.iter().map(|x| total_f64(*x)).collect();
                ka.cmp(&kb)
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl PartialOrd for ValueKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// IEEE-754 total-order transform: monotone map from f64 to i64.
fn total_f64(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CmpOp;

    #[test]
    fn undef_is_additive_identity() {
        let u = Value::Undef;
        let x = Value::Num(5.0);
        assert_eq!(u.add(&x).unwrap(), x);
        assert_eq!(x.add(&u).unwrap(), x);
        assert_eq!(u.add(&u).unwrap(), Value::Undef);
        let p = Value::point(&[1.0, 2.0]);
        assert_eq!(u.add(&p).unwrap(), p);
    }

    #[test]
    fn undef_absorbs_multiplication() {
        let u = Value::Undef;
        let x = Value::Num(5.0);
        assert!(u.mul(&x).unwrap().is_undef());
        assert!(x.mul(&u).unwrap().is_undef());
        let p = Value::point(&[1.0, 2.0]);
        assert!(p.mul(&u).unwrap().is_undef());
    }

    #[test]
    fn zero_inverse_is_undef() {
        // Paper example: 5 · (3 − 3)⁻¹ = 5 · u = u.
        let three = Value::Num(3.0);
        let diff = three.add(&Value::Num(-3.0)).unwrap();
        let inv = diff.inv().unwrap();
        assert!(inv.is_undef());
        assert!(Value::Num(5.0).mul(&inv).unwrap().is_undef());
    }

    #[test]
    fn pow_of_zero_with_negative_exponent_is_undef() {
        assert!(Value::Num(0.0).pow(-1).unwrap().is_undef());
        assert_eq!(Value::Num(2.0).pow(3).unwrap(), Value::Num(8.0));
        assert_eq!(Value::Num(0.0).pow(0).unwrap(), Value::Num(1.0));
        assert!(Value::Undef.pow(7).unwrap().is_undef());
    }

    #[test]
    fn scalar_mult_scales_points() {
        let p = Value::point(&[1.0, -2.0]);
        let got = Value::Num(2.5).mul(&p).unwrap();
        assert_eq!(got, Value::point(&[2.5, -5.0]));
    }

    #[test]
    fn distance_euclidean_and_undef() {
        let a = Value::point(&[0.0, 0.0]);
        let b = Value::point(&[3.0, 4.0]);
        assert_eq!(a.dist(&b).unwrap(), Value::Num(5.0));
        assert!(a.dist(&Value::Undef).unwrap().is_undef());
        assert_eq!(
            Value::Num(1.0).dist(&Value::Num(4.0)).unwrap(),
            Value::Num(3.0)
        );
    }

    #[test]
    fn comparisons_with_undef_are_true() {
        for op in [CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt, CmpOp::Eq] {
            assert!(Value::Undef.compare(op, &Value::Num(1.0)).unwrap());
            assert!(Value::Num(1.0).compare(op, &Value::Undef).unwrap());
            assert!(Value::Undef.compare(op, &Value::Undef).unwrap());
        }
        assert!(Value::Num(1.0)
            .compare(CmpOp::Le, &Value::Num(2.0))
            .unwrap());
        assert!(!Value::Num(3.0)
            .compare(CmpOp::Le, &Value::Num(2.0))
            .unwrap());
        assert!(Value::Num(2.0)
            .compare(CmpOp::Eq, &Value::Num(2.0))
            .unwrap());
        assert!(!Value::Num(2.0)
            .compare(CmpOp::Lt, &Value::Num(2.0))
            .unwrap());
    }

    #[test]
    fn type_errors_are_reported() {
        let p = Value::point(&[1.0]);
        assert!(Value::Num(1.0).add(&p).is_err());
        assert!(p.inv().is_err());
        assert!(p.pow(2).is_err());
        assert!(p.compare(CmpOp::Le, &Value::Num(0.0)).is_err());
        let q = Value::point(&[1.0, 2.0]);
        assert!(p.add(&q).is_err());
        assert!(p.dist(&q).is_err());
    }

    #[test]
    fn value_key_total_order() {
        let mut keys = [
            Value::Num(2.0).order_key(),
            Value::Undef.order_key(),
            Value::Num(-1.0).order_key(),
            Value::point(&[0.0]).order_key(),
        ];
        keys.sort();
        assert_eq!(keys[0], Value::Undef.order_key());
        assert_eq!(keys[1], Value::Num(-1.0).order_key());
        assert_eq!(keys[2], Value::Num(2.0).order_key());
        assert_eq!(keys[3], Value::point(&[0.0]).order_key());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Undef.to_string(), "u");
        assert_eq!(Value::Num(1.5).to_string(), "1.5");
        assert_eq!(Value::point(&[1.0, 2.0]).to_string(), "(1, 2)");
    }
}
