//! σ — tuple filter.

use super::Operator;
use crate::error::Result;
use crate::expr::Expr;
use crate::tuple::Tuple;

/// Emits exactly the input tuples whose predicate holds (NULL = drop).
pub struct Select {
    pred: Expr,
}

impl Select {
    /// Filter by `pred`, evaluated with the tuple as relation 0.
    pub fn new(pred: Expr) -> Select {
        Select { pred }
    }
}

impl Operator for Select {
    fn on_tuple(&mut self, _port: usize, t: &Tuple, out: &mut Vec<Tuple>) -> Result<()> {
        if self.pred.eval_bool(&[t])? {
            out.push(t.clone());
        }
        Ok(())
    }

    fn process_batch(&mut self, _port: usize, batch: &[Tuple], out: &mut Vec<Tuple>) -> Result<()> {
        for t in batch {
            if self.pred.eval_bool(&[t])? {
                out.push(t.clone());
            }
        }
        Ok(())
    }

    // Filtering is stateless; a punctuation changes nothing.
    fn punctuation_sensitive(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "select"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::time::Timestamp;
    use crate::value::Value;

    #[test]
    fn filters() {
        let mut s = Select::new(Expr::bin(BinOp::Ge, Expr::col(0), Expr::lit(10i64)));
        let mut out = Vec::new();
        for v in [5i64, 10, 15] {
            let t = Tuple::new(vec![Value::Int(v)], Timestamp::ZERO, 0);
            s.on_tuple(0, &t, &mut out).unwrap();
        }
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn null_predicate_drops() {
        let mut s = Select::new(Expr::eq(Expr::col(0), Expr::lit(1i64)));
        let mut out = Vec::new();
        let t = Tuple::new(vec![Value::Null], Timestamp::ZERO, 0);
        s.on_tuple(0, &t, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn type_errors_propagate() {
        let row = |v: Value| Tuple::new(vec![v], Timestamp::ZERO, 0);
        for (pred, t) in [
            // Non-boolean predicate column.
            (Expr::col(0), row(Value::Int(3))),
            // Int compared with a Bool.
            (Expr::eq(Expr::col(0), Expr::lit(true)), row(Value::Int(1))),
            // NaN has no order.
            (
                Expr::bin(BinOp::Lt, Expr::col(0), Expr::Lit(Value::Float(f64::NAN))),
                row(Value::Float(1.0)),
            ),
            // Column out of range.
            (Expr::eq(Expr::col(7), Expr::lit(1i64)), row(Value::Int(1))),
        ] {
            let mut s = Select::new(pred);
            assert!(s.on_tuple(0, &t, &mut Vec::new()).is_err());
        }
    }

    #[test]
    fn int_float_compare_widens() {
        let mut s = Select::new(Expr::bin(
            BinOp::Ge,
            Expr::col(0),
            Expr::Lit(Value::Float(2.0)),
        ));
        let batch: Vec<Tuple> = [Value::Int(1), Value::Float(2.5), Value::Int(3)]
            .into_iter()
            .map(|v| Tuple::new(vec![v], Timestamp::ZERO, 0))
            .collect();
        let mut out = Vec::new();
        s.process_batch(0, &batch, &mut out).unwrap();
        assert_eq!(out, batch[1..]);
    }
}
