//! Little-endian encode/decode primitives.
//!
//! [`Writer`] is an append-only byte buffer; [`Reader`] is a cursor over a
//! frame body whose every read is bounds-checked and returns a typed
//! [`WireError`] instead of panicking. Collection reads never trust a
//! claimed count: the count is validated against the bytes actually
//! remaining (at the element's minimum serialized size) *before* any
//! allocation, so hostile lengths cannot balloon memory.
//!
//! Two encodings carry more elements than bytes: a sparse `f64` vector
//! ([`Writer::sparse_f64`]) and a `u64` sequence as runs of consecutive
//! values ([`Writer::runs_u64`]). Their decoders debit every element they
//! materialize from the reader's expansion budget, [`EXPANSION_BUDGET`]
//! per frame, before allocating it, and accept only the one encoding the
//! writer produces, so a decodable body re-encodes to the same bytes.

use crate::{WireError, MAX_FRAME_LEN};

/// Elements one frame may materialize from sparse vectors and runs:
/// exactly what a frame at [`MAX_FRAME_LEN`] holds at 8 bytes per dense
/// element.
pub(crate) const EXPANSION_BUDGET: usize = MAX_FRAME_LEN / 8;

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer starting with the frame tag byte.
    pub fn with_tag(tag: u8) -> Self {
        let mut w = Self::new();
        w.u8(tag);
        w
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round trip,
    /// NaN payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a UTF-8 string: `u32` byte length then the bytes.
    /// Lengths beyond `u32::MAX` are truncated at a char boundary far
    /// below it (never happens for this protocol's short diagnostics).
    pub fn str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        let take = if bytes.len() > u32::MAX as usize {
            let mut end = u32::MAX as usize;
            while end > 0 && !s.is_char_boundary(end) {
                end -= 1;
            }
            end
        } else {
            bytes.len()
        };
        self.u32(take as u32);
        self.buf.extend_from_slice(&bytes[..take]);
    }

    /// Appends a `u64` slice: `u32` count then the elements.
    pub fn vec_u64(&mut self, v: &[u64]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u64(x);
        }
    }

    /// Appends an `f64` slice in sparse form: `u32` length, `u32` count,
    /// then `(u32 slot, u64 bits)` in slot order for every entry whose bit
    /// pattern is not `+0.0` (so `−0.0`, NaNs and subnormals travel too).
    /// One pass; the count is patched in behind it.
    pub fn sparse_f64(&mut self, v: &[f64]) {
        self.u32(v.len() as u32);
        let at = self.buf.len();
        self.u32(0);
        let mut count = 0u32;
        for (slot, &x) in v.iter().enumerate() {
            let bits = x.to_bits();
            if bits != 0 {
                self.u32(slot as u32);
                self.u64(bits);
                count += 1;
            }
        }
        self.buf[at..at + 4].copy_from_slice(&count.to_le_bytes());
    }

    /// Appends a `u64` sequence as maximal runs of consecutive values:
    /// `u32` run count, then `(u64 start, u32 len)` per run. Any sequence
    /// encodes; a sorted set of ids with no holes is a single run. One
    /// pass; the run count is patched in behind it.
    pub fn runs_u64(&mut self, v: &[u64]) {
        let at = self.buf.len();
        self.u32(0);
        let mut runs = 0u32;
        let mut rest = v;
        while let Some((&start, tail)) = rest.split_first() {
            let mut len = 1u32;
            for &x in tail {
                if len == u32::MAX || start.checked_add(u64::from(len)) != Some(x) {
                    break;
                }
                len += 1;
            }
            self.u64(start);
            self.u32(len);
            runs += 1;
            rest = &rest[len as usize..];
        }
        self.buf[at..at + 4].copy_from_slice(&runs.to_le_bytes());
    }
}

/// Bounds-checked little-endian decoder over one frame body.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Elements sparse vectors and runs may still materialize.
    budget: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf` starting at offset 0, with a full expansion
    /// budget.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            budget: EXPANSION_BUDGET,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                what,
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u64` and converts it to `usize` (rejecting values this
    /// platform cannot index).
    pub fn usize(&mut self, what: &'static str) -> Result<usize, WireError> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| WireError::LengthOverflow {
            what,
            len: v,
            cap: usize::MAX as u64,
        })
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a strict bool (0 or 1; anything else is rejected).
    pub fn bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::InvalidValue { what }),
        }
    }

    /// Reads a length-prefixed UTF-8 string. The claimed byte length must
    /// fit the bytes remaining; invalid UTF-8 is rejected.
    pub fn str(&mut self, what: &'static str) -> Result<String, WireError> {
        let len = self.u32(what)? as usize;
        if len > self.remaining() {
            return Err(WireError::LengthOverflow {
                what,
                len: len as u64,
                cap: self.remaining() as u64,
            });
        }
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidValue { what })
    }

    /// Validates a claimed element count against the bytes remaining at
    /// `min_elem_bytes` per element, *before* any allocation.
    pub fn count(&mut self, what: &'static str, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32(what)? as usize;
        let cap = self.remaining() / min_elem_bytes.max(1);
        if n > cap {
            return Err(WireError::LengthOverflow {
                what,
                len: n as u64,
                cap: cap as u64,
            });
        }
        Ok(n)
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn vec_u64(&mut self, what: &'static str) -> Result<Vec<u64>, WireError> {
        let n = self.count(what, 8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64(what)?);
        }
        Ok(out)
    }

    /// Debits `n` materialized elements from the expansion budget.
    fn expand(&mut self, what: &'static str, n: usize) -> Result<(), WireError> {
        if n > self.budget {
            return Err(WireError::LengthOverflow {
                what,
                len: n as u64,
                cap: self.budget as u64,
            });
        }
        self.budget -= n;
        Ok(())
    }

    /// Reads an `f64` vector in the sparse form of [`Writer::sparse_f64`].
    /// The dense length is debited from the expansion budget before the
    /// vector is allocated; slots must be strictly increasing and below
    /// the length, and a stored `+0.0` is rejected (the writer omits it).
    pub fn sparse_f64(&mut self, what: &'static str) -> Result<Vec<f64>, WireError> {
        let len = self.u32(what)? as usize;
        self.expand(what, len)?;
        let count = self.count(what, 12)?;
        let mut out = vec![0.0; len];
        let mut next = 0usize;
        for _ in 0..count {
            let slot = self.u32(what)? as usize;
            let bits = self.u64(what)?;
            if slot < next || slot >= len || bits == 0 {
                return Err(WireError::InvalidValue { what });
            }
            out[slot] = f64::from_bits(bits);
            next = slot + 1;
        }
        Ok(out)
    }

    /// Reads a `u64` sequence in the run form of [`Writer::runs_u64`]. Each
    /// run is debited from the expansion budget before it is expanded; a
    /// zero-length run, a run whose last value overflows `u64`, and a run
    /// that continues the previous one (the writer would have merged them)
    /// are rejected.
    pub fn runs_u64(&mut self, what: &'static str) -> Result<Vec<u64>, WireError> {
        let runs = self.count(what, 12)?;
        let mut out = Vec::with_capacity(runs);
        // The value right after the previous run's last one, if any.
        let mut follow: Option<u64> = None;
        for _ in 0..runs {
            let start = self.u64(what)?;
            let len = self.u32(what)?;
            let Some(last) = len
                .checked_sub(1)
                .and_then(|extra| start.checked_add(u64::from(extra)))
            else {
                return Err(WireError::InvalidValue { what });
            };
            if follow == Some(start) {
                return Err(WireError::InvalidValue { what });
            }
            self.expand(what, len as usize)?;
            out.extend(start..=last);
            follow = last.checked_add(1);
        }
        Ok(out)
    }

    /// Succeeds only if every byte was consumed — frame bodies must be
    /// exact, trailing garbage is rejected.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bool(true);
        w.str("héllo");
        w.vec_u64(&[1, 2, 3]);
        w.sparse_f64(&[0.5, 0.0, -0.0, f64::INFINITY, 0.0]);
        w.runs_u64(&[4, 5, 6, 9, u64::MAX - 1, u64::MAX, 0]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").ok(), Some(7));
        assert_eq!(r.u16("b").ok(), Some(0xbeef));
        assert_eq!(r.u32("c").ok(), Some(0xdead_beef));
        assert_eq!(r.u64("d").ok(), Some(u64::MAX - 1));
        assert_eq!(r.f64("e").map(f64::to_bits).ok(), Some((-0.0f64).to_bits()));
        assert!(r.f64("f").is_ok_and(f64::is_nan));
        assert_eq!(r.bool("g").ok(), Some(true));
        assert_eq!(r.str("h").ok().as_deref(), Some("héllo"));
        assert_eq!(r.vec_u64("i").ok(), Some(vec![1, 2, 3]));
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            r.sparse_f64("j").ok().map(bits),
            Some(bits(vec![0.5, 0.0, -0.0, f64::INFINITY, 0.0]))
        );
        assert_eq!(
            r.runs_u64("k").ok(),
            Some(vec![4, 5, 6, 9, u64::MAX - 1, u64::MAX, 0])
        );
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn truncation_and_hostile_lengths_are_rejected() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(r.u32("x"), Err(WireError::Truncated { .. })));
        // A vector claiming 1 billion elements with 4 bytes behind it.
        let mut w = Writer::new();
        w.u32(1_000_000_000);
        w.u32(0);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.vec_u64("v"),
            Err(WireError::LengthOverflow { .. })
        ));
        // Non-boolean byte.
        let mut r = Reader::new(&[2]);
        assert!(matches!(r.bool("b"), Err(WireError::InvalidValue { .. })));
        // Invalid UTF-8.
        let mut w = Writer::new();
        w.u32(2);
        w.u8(0xff);
        w.u8(0xfe);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.str("s"), Err(WireError::InvalidValue { .. })));
    }
}
