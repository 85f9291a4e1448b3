//! π — column projection / computation.

use super::Operator;
use crate::error::Result;
use crate::expr::Expr;
use crate::intern::InternerRef;
use crate::key::KeyCodec;
use crate::tuple::Tuple;
use crate::value::Value;

/// Computes one output column per expression; the output tuple inherits
/// the input's event time and sequence number (a projection does not move
/// a reading in time).
///
/// With an interned engine, derived string outputs stay canonical:
/// string literals canonicalize once when the codec is bound, and
/// computed expressions (UDF calls, concatenations) canonicalize their
/// string results as they are produced — downstream stateful operators
/// then resolve them by pointer instead of hashing bytes per probe.
/// Plain column references are pass-through (already canonical on an
/// interned engine) and pay nothing.
pub struct Project {
    exprs: Vec<Expr>,
    /// Per-expression: can it build a string the input didn't carry?
    /// (Column references and literals cannot after bind-time
    /// canonicalization.)
    computes_fresh: Vec<bool>,
    interner: Option<InternerRef>,
}

impl Project {
    /// Project onto `exprs`, each evaluated with the tuple as relation 0.
    pub fn new(exprs: Vec<Expr>) -> Project {
        let computes_fresh = exprs
            .iter()
            .map(|e| !matches!(e, Expr::Col { .. } | Expr::Lit(_) | Expr::Dur(_)))
            .collect();
        Project {
            exprs,
            computes_fresh,
            interner: None,
        }
    }

    #[inline]
    fn canonicalize_outputs(&self, vals: &mut [Value]) {
        if let Some(int) = &self.interner {
            for (v, fresh) in vals.iter_mut().zip(&self.computes_fresh) {
                if *fresh {
                    int.canonicalize(v);
                }
            }
        }
    }
}

impl Operator for Project {
    fn on_tuple(&mut self, _port: usize, t: &Tuple, out: &mut Vec<Tuple>) -> Result<()> {
        let mut vals = Vec::with_capacity(self.exprs.len());
        for e in &self.exprs {
            vals.push(e.eval(&[t])?);
        }
        self.canonicalize_outputs(&mut vals);
        out.push(Tuple::new(vals, t.ts(), t.seq()));
        Ok(())
    }

    fn process_batch(&mut self, _port: usize, batch: &[Tuple], out: &mut Vec<Tuple>) -> Result<()> {
        out.reserve(batch.len());
        for t in batch {
            let mut vals = Vec::with_capacity(self.exprs.len());
            for e in &self.exprs {
                vals.push(e.eval(&[t])?);
            }
            self.canonicalize_outputs(&mut vals);
            out.push(Tuple::new(vals, t.ts(), t.seq()));
        }
        Ok(())
    }

    // Projection is stateless; a punctuation changes nothing.
    fn punctuation_sensitive(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "project"
    }

    fn bind_interner(&mut self, codec: &KeyCodec) {
        self.interner = codec.interner().cloned();
        if let Some(int) = &self.interner {
            for e in &mut self.exprs {
                e.canonicalize_lits(int);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::intern::StrInterner;
    use crate::time::Timestamp;
    use crate::value::Value;
    use std::sync::Arc;

    #[test]
    fn computes_columns_and_keeps_time() {
        let mut p = Project::new(vec![
            Expr::col(1),
            Expr::bin(BinOp::Add, Expr::col(0), Expr::lit(1i64)),
        ]);
        let t = Tuple::new(
            vec![Value::Int(41), Value::str("tag")],
            Timestamp::from_secs(9),
            77,
        );
        let mut out = Vec::new();
        p.on_tuple(0, &t, &mut out).unwrap();
        assert_eq!(out[0].value(0), &Value::str("tag"));
        assert_eq!(out[0].value(1), &Value::Int(42));
        assert_eq!(out[0].ts(), Timestamp::from_secs(9));
        assert_eq!(out[0].seq(), 77);
    }

    #[test]
    fn computed_string_outputs_are_canonical() {
        let interner: InternerRef = Arc::new(StrInterner::new());
        let concat: crate::expr::ScalarFn = Arc::new(|args: &[Value]| {
            let mut s = String::new();
            for a in args {
                if let Value::Str(x) = a {
                    s.push_str(x);
                }
            }
            Ok(Value::str(s))
        });
        let mut p = Project::new(vec![Expr::Call {
            name: "concat".to_string(),
            func: concat,
            args: vec![Expr::col(0), Expr::lit("-suffix")],
        }]);
        p.bind_interner(&KeyCodec::interned(interner.clone()));
        let t = Tuple::new(vec![Value::str("tag")], Timestamp::ZERO, 0);
        let mut out = Vec::new();
        p.on_tuple(0, &t, &mut out).unwrap();
        p.on_tuple(0, &t, &mut out).unwrap();
        // Same content twice: one dictionary entry, shared canonical Arc.
        match (out[0].value(0), out[1].value(0)) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            other => panic!("expected strings, got {other:?}"),
        }
        assert!(interner.lookup_sym("tag-suffix").is_some());
        // Literals canonicalize once, when the codec is bound.
        assert!(interner.lookup_sym("-suffix").is_some());
    }
}
