//! Compact state keys: a flat byte encoding of a key column list.
//!
//! Stateful operators (dedup, grouped aggregation, table indexes, SEQ
//! partition state) used to key their maps with `Vec<Value>` — one heap
//! allocation per probe plus a `Value` clone per column. A [`StateKey`]
//! is a single flat buffer: one tag byte per column followed by a
//! fixed-width payload (4-byte symbol ids for interned strings, raw bits
//! for ints/floats/timestamps). Probes encode into a reusable scratch
//! buffer and look up by `&[u8]` — zero allocations on the hit path; the
//! buffer is boxed only when a new key is inserted.
//!
//! The encoding mirrors `Value`'s grouping equality exactly: variants
//! are discriminated by tag (so `Int(1)` ≠ `Float(1.0)`), floats encode
//! their bit pattern (NaN-safe), `NULL` equals `NULL`, and equal strings
//! map to equal symbols because the engine's interner canonicalizes
//! them. The seed (un-interned) representation uses the same codec with
//! raw string bytes, so both representations run identical operator
//! code.

use crate::error::{DsmsError, Result};
use crate::intern::{InternerRef, Sym};
use crate::time::Timestamp;
use crate::value::Value;
use std::borrow::Borrow;
use std::sync::Arc;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR_SYM: u8 = 3;
const TAG_STR_RAW: u8 = 4;
const TAG_BOOL: u8 = 5;
const TAG_TS: u8 = 6;

/// An encoded key column list, used as the map key in operator state.
///
/// Hashing and equality delegate to the byte slice, and `Borrow<[u8]>`
/// lets maps be probed with a borrowed scratch buffer — the alloc-free
/// hot path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateKey(Box<[u8]>);

impl StateKey {
    /// Box a finished scratch buffer (insert path).
    pub fn from_slice(bytes: &[u8]) -> StateKey {
        StateKey(bytes.into())
    }

    /// The encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Encoded length in bytes (the state-size metric).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the key has no columns (unpartitioned state).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Borrow<[u8]> for StateKey {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

/// Encoder/decoder for [`StateKey`]s: interned (symbols) or raw (seed)
/// string encoding, shared by every operator an engine registers.
#[derive(Clone, Debug, Default)]
pub struct KeyCodec {
    interner: Option<InternerRef>,
}

impl KeyCodec {
    /// Seed codec: strings encode as raw length-prefixed bytes.
    pub fn raw() -> KeyCodec {
        KeyCodec::default()
    }

    /// Interned codec: strings encode as 4-byte symbol ids.
    pub fn interned(interner: InternerRef) -> KeyCodec {
        KeyCodec {
            interner: Some(interner),
        }
    }

    /// The interner behind this codec, when interned.
    pub fn interner(&self) -> Option<&InternerRef> {
        self.interner.as_ref()
    }

    /// Append one value's encoding to `buf`.
    pub fn encode_value_into(&self, buf: &mut Vec<u8>, v: &Value) {
        match v {
            Value::Null => buf.push(TAG_NULL),
            Value::Int(i) => {
                buf.push(TAG_INT);
                buf.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                buf.push(TAG_FLOAT);
                buf.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => match &self.interner {
                Some(i) => {
                    buf.push(TAG_STR_SYM);
                    buf.extend_from_slice(&i.sym_of(s).0.to_le_bytes());
                }
                None => {
                    buf.push(TAG_STR_RAW);
                    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    buf.extend_from_slice(s.as_bytes());
                }
            },
            Value::Bool(b) => {
                buf.push(TAG_BOOL);
                buf.push(u8::from(*b));
            }
            Value::Ts(t) => {
                buf.push(TAG_TS);
                buf.extend_from_slice(&t.as_micros().to_le_bytes());
            }
        }
    }

    /// Encode a full key column list into a reusable scratch buffer
    /// (cleared first). Probe maps with `scratch.as_slice()` afterwards.
    pub fn encode_into(&self, buf: &mut Vec<u8>, vals: &[Value]) {
        buf.clear();
        for v in vals {
            self.encode_value_into(buf, v);
        }
    }

    /// Encode a key column list into an owned [`StateKey`].
    pub fn encode(&self, vals: &[Value]) -> StateKey {
        let mut buf = Vec::with_capacity(vals.len() * 9);
        for v in vals {
            self.encode_value_into(&mut buf, v);
        }
        StateKey(buf.into())
    }

    /// Encode one value as it would appear if already interned — never
    /// grows the dictionary. `None` means the string is not interned,
    /// so no stored key can equal it (probe-side miss).
    pub fn try_encode_value(&self, v: &Value) -> Option<Vec<u8>> {
        let mut buf = Vec::with_capacity(9);
        if let (Value::Str(s), Some(i)) = (v, &self.interner) {
            let sym = i.lookup_sym(s)?;
            buf.push(TAG_STR_SYM);
            buf.extend_from_slice(&sym.0.to_le_bytes());
        } else {
            self.encode_value_into(&mut buf, v);
        }
        Some(buf)
    }

    /// Decode an encoded key back to its column values.
    pub fn decode(&self, bytes: &[u8]) -> Result<Vec<Value>> {
        let mut vals = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let tag = bytes[pos];
            pos += 1;
            vals.push(match tag {
                TAG_NULL => Value::Null,
                TAG_INT => Value::Int(i64::from_le_bytes(take8(bytes, &mut pos)?)),
                TAG_FLOAT => {
                    Value::Float(f64::from_bits(u64::from_le_bytes(take8(bytes, &mut pos)?)))
                }
                TAG_STR_SYM => {
                    let sym = Sym(u32::from_le_bytes(take4(bytes, &mut pos)?));
                    let i = self.interner.as_ref().ok_or_else(|| {
                        DsmsError::ckpt("symbol-encoded key in a raw-representation engine")
                    })?;
                    Value::Str(i.resolve(sym)?)
                }
                TAG_STR_RAW => {
                    let len = u32::from_le_bytes(take4(bytes, &mut pos)?) as usize;
                    let end = pos
                        .checked_add(len)
                        .filter(|&e| e <= bytes.len())
                        .ok_or_else(|| DsmsError::ckpt("truncated state key"))?;
                    let s = std::str::from_utf8(&bytes[pos..end])
                        .map_err(|_| DsmsError::ckpt("invalid UTF-8 in state key"))?;
                    pos = end;
                    Value::Str(Arc::from(s))
                }
                TAG_BOOL => {
                    let b = *bytes
                        .get(pos)
                        .ok_or_else(|| DsmsError::ckpt("truncated state key"))?;
                    pos += 1;
                    Value::Bool(b != 0)
                }
                TAG_TS => Value::Ts(Timestamp::from_micros(u64::from_le_bytes(take8(
                    bytes, &mut pos,
                )?))),
                t => return Err(DsmsError::ckpt(format!("unknown state-key tag {t}"))),
            });
        }
        Ok(vals)
    }
}

fn take4(bytes: &[u8], pos: &mut usize) -> Result<[u8; 4]> {
    let end = pos
        .checked_add(4)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| DsmsError::ckpt("truncated state key"))?;
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&bytes[*pos..end]);
    *pos = end;
    Ok(raw)
}

fn take8(bytes: &[u8], pos: &mut usize) -> Result<[u8; 8]> {
    let end = pos
        .checked_add(8)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| DsmsError::ckpt("truncated state key"))?;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[*pos..end]);
    *pos = end;
    Ok(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FnvBuildHasher;
    use crate::intern::StrInterner;
    use std::collections::HashMap;

    fn sample_vals() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Int(-7),
            Value::Float(2.5),
            Value::str("tag17"),
            Value::Bool(true),
            Value::Ts(Timestamp::from_millis(1500)),
        ]
    }

    #[test]
    fn raw_round_trip() {
        let c = KeyCodec::raw();
        let key = c.encode(&sample_vals());
        assert_eq!(c.decode(key.as_bytes()).unwrap(), sample_vals());
    }

    #[test]
    fn interned_round_trip_is_fixed_width() {
        let c = KeyCodec::interned(Arc::new(StrInterner::new()));
        let key = c.encode(&sample_vals());
        assert_eq!(c.decode(key.as_bytes()).unwrap(), sample_vals());
        // 1 tag + {0, 8, 8, 4, 1, 8} payload bytes.
        assert_eq!(key.len(), 6 + 0 + 8 + 8 + 4 + 1 + 8);
    }

    #[test]
    fn encoding_discriminates_like_grouping_equality() {
        let c = KeyCodec::raw();
        assert_ne!(c.encode(&[Value::Int(1)]), c.encode(&[Value::Float(1.0)]));
        assert_ne!(c.encode(&[Value::Null]), c.encode(&[Value::Int(0)]));
        assert_eq!(c.encode(&[Value::Null]), c.encode(&[Value::Null]));
        assert_eq!(
            c.encode(&[Value::Float(f64::NAN)]),
            c.encode(&[Value::Float(f64::NAN)])
        );
        // Adjacent strings cannot be confused: lengths are explicit.
        assert_ne!(
            c.encode(&[Value::str("ab"), Value::str("c")]),
            c.encode(&[Value::str("a"), Value::str("bc")])
        );
    }

    #[test]
    fn equal_strings_share_symbols() {
        let c = KeyCodec::interned(Arc::new(StrInterner::new()));
        let a = c.encode(&[Value::str("epc-1")]);
        let b = c.encode(&[Value::str("epc-1")]);
        assert_eq!(a, b);
        assert_ne!(a, c.encode(&[Value::str("epc-2")]));
    }

    #[test]
    fn scratch_probe_matches_boxed_key() {
        let c = KeyCodec::interned(Arc::new(StrInterner::new()));
        let mut map: HashMap<StateKey, u64, FnvBuildHasher> = HashMap::default();
        let vals = vec![Value::str("r1"), Value::str("t9")];
        map.insert(c.encode(&vals), 42);
        let mut scratch = Vec::new();
        c.encode_into(&mut scratch, &vals);
        assert_eq!(map.get(scratch.as_slice()), Some(&42));
        c.encode_into(&mut scratch, &[Value::str("r1"), Value::str("t8")]);
        assert_eq!(map.get(scratch.as_slice()), None);
    }

    #[test]
    fn try_encode_never_inserts() {
        let interner = Arc::new(StrInterner::new());
        let c = KeyCodec::interned(interner.clone());
        assert!(c.try_encode_value(&Value::str("ghost")).is_none());
        assert_eq!(interner.entries(), 0);
        let stored = c.encode(&[Value::str("real")]);
        let probe = c.try_encode_value(&Value::str("real")).unwrap();
        assert_eq!(stored.as_bytes(), probe.as_slice());
        // Non-string values always encode.
        assert!(c.try_encode_value(&Value::Int(3)).is_some());
    }

    #[test]
    fn truncated_keys_are_typed_errors() {
        let c = KeyCodec::raw();
        let key = c.encode(&[Value::Int(5)]);
        assert!(c.decode(&key.as_bytes()[..4]).is_err());
        assert!(c.decode(&[9u8]).is_err());
        // Symbol key in a raw codec is a shape error.
        let ic = KeyCodec::interned(Arc::new(StrInterner::new()));
        let sym_key = ic.encode(&[Value::str("x")]);
        assert!(c.decode(sym_key.as_bytes()).is_err());
    }
}
