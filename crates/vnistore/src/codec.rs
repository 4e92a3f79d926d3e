//! Length-prefixed binary primitives shared by the WAL's operation
//! encoding and the typed row codecs layered on top of the store (the
//! VNI Database's `vnis`/`audit_log` tables encode through these).
//!
//! Layout: scalars are little-endian fixed width; byte strings are a
//! `u32` length followed by the bytes. Decoders return `None` on a
//! truncated buffer instead of panicking, so a corrupt row surfaces as
//! a decode failure the caller can attribute.
//!
//! # Example
//!
//! ```
//! use shs_vnistore::codec::{push_bytes, push_u64, read_slice, read_u64};
//!
//! let mut buf = Vec::new();
//! push_u64(&mut buf, 42);
//! push_bytes(&mut buf, b"tenant/train");
//! let mut off = 0;
//! assert_eq!(read_u64(&buf, &mut off), Some(42));
//! assert_eq!(read_slice(&buf, &mut off), Some(&b"tenant/train"[..]));
//! assert_eq!(off, buf.len());
//! ```

/// Append a `u32`-length-prefixed byte string.
pub fn push_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// Read a length-prefixed byte string written by [`push_bytes`],
/// borrowed from `buf`.
pub fn read_slice<'a>(buf: &'a [u8], off: &mut usize) -> Option<&'a [u8]> {
    if buf.len().saturating_sub(*off) < 4 {
        return None;
    }
    let len = u32::from_le_bytes(buf[*off..*off + 4].try_into().ok()?) as usize;
    *off += 4;
    if buf.len().saturating_sub(*off) < len {
        *off -= 4;
        return None;
    }
    let s = &buf[*off..*off + len];
    *off += len;
    Some(s)
}

/// Append a little-endian `u64`.
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read a little-endian `u64`.
pub fn read_u64(buf: &[u8], off: &mut usize) -> Option<u64> {
    if buf.len().saturating_sub(*off) < 8 {
        return None;
    }
    let v = u64::from_le_bytes(buf[*off..*off + 8].try_into().ok()?);
    *off += 8;
    Some(v)
}

/// Append a little-endian `u32`.
pub fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read a little-endian `u32`.
pub fn read_u32(buf: &[u8], off: &mut usize) -> Option<u32> {
    if buf.len().saturating_sub(*off) < 4 {
        return None;
    }
    let v = u32::from_le_bytes(buf[*off..*off + 4].try_into().ok()?);
    *off += 4;
    Some(v)
}

/// Read a single byte.
pub fn read_u8(buf: &[u8], off: &mut usize) -> Option<u8> {
    let b = *buf.get(*off)?;
    *off += 1;
    Some(b)
}

/// Append a little-endian `u16`.
pub fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read a little-endian `u16`.
pub fn read_u16(buf: &[u8], off: &mut usize) -> Option<u16> {
    if buf.len().saturating_sub(*off) < 2 {
        return None;
    }
    let v = u16::from_le_bytes(buf[*off..*off + 2].try_into().ok()?);
    *off += 2;
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut buf = Vec::new();
        buf.push(0x7F);
        push_u16(&mut buf, 0xBEEF);
        push_u32(&mut buf, 0xDEAD_BEEF);
        push_u64(&mut buf, u64::MAX);
        let mut off = 0;
        assert_eq!(read_u8(&buf, &mut off), Some(0x7F));
        assert_eq!(read_u16(&buf, &mut off), Some(0xBEEF));
        assert_eq!(read_u32(&buf, &mut off), Some(0xDEAD_BEEF));
        assert_eq!(read_u64(&buf, &mut off), Some(u64::MAX));
        assert_eq!(off, buf.len());
        assert_eq!(read_u8(&buf, &mut off), None, "exhausted buffer");
    }

    #[test]
    fn truncated_reads_return_none_without_advancing() {
        let mut buf = Vec::new();
        push_bytes(&mut buf, b"abcdef");
        // Cut into the payload: the length header parses but the body is
        // short, and `off` must be left where the read started.
        let cut = &buf[..buf.len() - 1];
        let mut off = 0;
        assert_eq!(read_slice(cut, &mut off), None);
        assert_eq!(off, 0, "failed read must not consume the length header");
        assert_eq!(read_u64(&buf[..7], &mut off), None, "u64 needs 8 bytes");
        assert_eq!(read_u16(&buf[..1], &mut off), None);
        assert_eq!(read_u32(&buf[..3], &mut off), None);
    }

    #[test]
    fn empty_strings_are_valid() {
        let mut buf = Vec::new();
        push_bytes(&mut buf, b"");
        push_bytes(&mut buf, b"x");
        let mut off = 0;
        assert_eq!(read_slice(&buf, &mut off), Some(&b""[..]));
        assert_eq!(read_slice(&buf, &mut off), Some(&b"x"[..]));
    }
}
