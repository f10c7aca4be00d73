//! A small, deterministic expression language over tuple attributes.
//!
//! DPC restricts query diagrams to *deterministic* operators (§2.1): results
//! may depend on input data and order, but never on arrival times, timeouts,
//! or randomness. Encoding predicates and projections as [`Expr`] trees —
//! rather than arbitrary closures — makes operator specifications cloneable
//! across replicas, comparable in tests, and deterministic by construction.

use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Binary operators usable in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// An expression evaluated against a single tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// The `i`-th attribute of the tuple.
    Field(usize),
    /// The tuple's `stime`, in microseconds, as an integer.
    STime,
    /// A literal.
    Const(Value),
    /// A binary operation.
    Bin(BinOp, Arc<Expr>, Arc<Expr>),
    /// Logical negation.
    Not(Arc<Expr>),
}

/// Errors produced by expression evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Referenced a field index past the end of the tuple.
    MissingField(usize),
    /// Operator applied to values of an unsupported type combination.
    TypeMismatch(&'static str),
    /// Integer division or modulo by zero.
    DivideByZero,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::MissingField(i) => write!(f, "tuple has no field {i}"),
            EvalError::TypeMismatch(op) => write!(f, "type mismatch in {op}"),
            EvalError::DivideByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for EvalError {}

impl Expr {
    /// Convenience constructor: `Field(i)`.
    pub fn field(i: usize) -> Expr {
        Expr::Field(i)
    }

    /// Convenience constructor: integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Const(Value::Int(v))
    }

    /// Convenience constructor: float literal.
    pub fn float(v: f64) -> Expr {
        Expr::Const(Value::Float(v))
    }

    /// Convenience constructor for a binary node.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(op, Arc::new(lhs), Arc::new(rhs))
    }

    /// `lhs op rhs` comparison and arithmetic helpers.
    #[allow(missing_docs)]
    pub fn eq(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Eq, lhs, rhs)
    }
    #[allow(missing_docs)]
    pub fn lt(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Lt, lhs, rhs)
    }
    #[allow(missing_docs)]
    pub fn gt(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Gt, lhs, rhs)
    }
    #[allow(missing_docs)]
    pub fn ge(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Ge, lhs, rhs)
    }
    #[allow(missing_docs)]
    pub fn and(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::And, lhs, rhs)
    }
    #[allow(missing_docs)]
    pub fn or(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Or, lhs, rhs)
    }
    #[allow(missing_docs, clippy::should_implement_trait)]
    pub fn add(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, lhs, rhs)
    }
    #[allow(missing_docs, clippy::should_implement_trait)]
    pub fn sub(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, lhs, rhs)
    }
    #[allow(missing_docs, clippy::should_implement_trait)]
    pub fn mul(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, lhs, rhs)
    }
    #[allow(missing_docs)]
    pub fn modulo(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mod, lhs, rhs)
    }

    /// Evaluates the expression against `tuple`.
    pub fn eval(&self, tuple: &Tuple) -> Result<Value, EvalError> {
        match self {
            Expr::Field(i) => tuple
                .values
                .get(*i)
                .cloned()
                .ok_or(EvalError::MissingField(*i)),
            Expr::STime => Ok(Value::Int(tuple.stime.as_micros() as i64)),
            Expr::Const(v) => Ok(v.clone()),
            Expr::Not(e) => match e.eval(tuple)? {
                Value::Bool(b) => Ok(Value::Bool(!b)),
                _ => Err(EvalError::TypeMismatch("not")),
            },
            Expr::Bin(op, lhs, rhs) => {
                let l = lhs.eval(tuple)?;
                let r = rhs.eval(tuple)?;
                eval_bin(*op, l, r)
            }
        }
    }

    /// Evaluates the expression and coerces the result to a boolean;
    /// non-boolean results are an error.
    pub fn eval_bool(&self, tuple: &Tuple) -> Result<bool, EvalError> {
        match self.eval(tuple)? {
            Value::Bool(b) => Ok(b),
            _ => Err(EvalError::TypeMismatch("predicate")),
        }
    }
}

fn eval_bin(op: BinOp, l: Value, r: Value) -> Result<Value, EvalError> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div | Mod => arith(op, l, r),
        Eq => Ok(Value::Bool(l == r)),
        Ne => Ok(Value::Bool(l != r)),
        Lt => Ok(Value::Bool(l < r)),
        Le => Ok(Value::Bool(l <= r)),
        Gt => Ok(Value::Bool(l > r)),
        Ge => Ok(Value::Bool(l >= r)),
        And | Or => match (l, r) {
            (Value::Bool(a), Value::Bool(b)) => {
                Ok(Value::Bool(if op == And { a && b } else { a || b }))
            }
            _ => Err(EvalError::TypeMismatch("logical operator")),
        },
    }
}

fn arith(op: BinOp, l: Value, r: Value) -> Result<Value, EvalError> {
    use BinOp::*;
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => match op {
            Add => Ok(Value::Int(a.wrapping_add(b))),
            Sub => Ok(Value::Int(a.wrapping_sub(b))),
            Mul => Ok(Value::Int(a.wrapping_mul(b))),
            Div => {
                if b == 0 {
                    Err(EvalError::DivideByZero)
                } else {
                    Ok(Value::Int(a.wrapping_div(b)))
                }
            }
            Mod => {
                if b == 0 {
                    Err(EvalError::DivideByZero)
                } else {
                    Ok(Value::Int(a.wrapping_rem(b)))
                }
            }
            _ => unreachable!("non-arithmetic op routed to arith"),
        },
        (a, b) => {
            let (x, y) = (
                a.as_f64().ok_or(EvalError::TypeMismatch("arith"))?,
                b.as_f64().ok_or(EvalError::TypeMismatch("arith"))?,
            );
            let v = match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => x / y,
                Mod => x % y,
                _ => unreachable!("non-arithmetic op routed to arith"),
            };
            Ok(Value::Float(v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;
    use crate::tuple::TupleId;

    fn tup(values: Vec<Value>) -> Tuple {
        Tuple::insertion(TupleId(1), Time::from_millis(42), values)
    }

    #[test]
    fn field_access_and_missing_field() {
        let t = tup(vec![Value::Int(10), Value::str("x")]);
        assert_eq!(Expr::field(0).eval(&t), Ok(Value::Int(10)));
        assert_eq!(Expr::field(1).eval(&t), Ok(Value::str("x")));
        assert_eq!(Expr::field(2).eval(&t), Err(EvalError::MissingField(2)));
    }

    #[test]
    fn integer_arithmetic() {
        let t = tup(vec![Value::Int(7)]);
        let e = Expr::add(Expr::field(0), Expr::int(5));
        assert_eq!(e.eval(&t), Ok(Value::Int(12)));
        let e = Expr::modulo(Expr::field(0), Expr::int(4));
        assert_eq!(e.eval(&t), Ok(Value::Int(3)));
        let e = Expr::bin(BinOp::Div, Expr::field(0), Expr::int(0));
        assert_eq!(e.eval(&t), Err(EvalError::DivideByZero));
    }

    #[test]
    fn mixed_arithmetic_widens_to_float() {
        let t = tup(vec![Value::Int(3), Value::Float(0.5)]);
        let e = Expr::mul(Expr::field(0), Expr::field(1));
        assert_eq!(e.eval(&t), Ok(Value::Float(1.5)));
    }

    #[test]
    fn comparisons_and_logic() {
        let t = tup(vec![Value::Int(3)]);
        let gt = Expr::gt(Expr::field(0), Expr::int(2));
        assert_eq!(gt.eval_bool(&t), Ok(true));
        let conj = Expr::and(gt.clone(), Expr::lt(Expr::field(0), Expr::int(3)));
        assert_eq!(conj.eval_bool(&t), Ok(false));
        let neg = Expr::Not(Arc::new(conj));
        assert_eq!(neg.eval_bool(&t), Ok(true));
    }

    #[test]
    fn stime_is_exposed_in_micros() {
        let t = tup(vec![]);
        assert_eq!(Expr::STime.eval(&t), Ok(Value::Int(42_000)));
    }

    #[test]
    fn non_bool_predicate_is_an_error() {
        let t = tup(vec![Value::Int(1)]);
        assert_eq!(
            Expr::field(0).eval_bool(&t),
            Err(EvalError::TypeMismatch("predicate"))
        );
    }
}
