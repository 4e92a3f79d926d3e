//! Write-ahead-log wire format: CRC-guarded frames carrying
//! operations.
//!
//! Frame layout on the device:
//!
//! ```text
//! | magic u16 | kind u8 | lsn u64 | payload_len u32 | crc32 u32 | payload |
//! ```
//!
//! Recovery scans frames from the start ([`frames`]) and stops at the
//! first one whose header is truncated, whose magic is wrong, or whose
//! CRC does not match — exactly the torn-tail discipline SQLite's
//! journal uses. The scan borrows: a [`Frame`]'s payload is a slice of
//! the device image, never a copy.
//!
//! A [`RecordKind::Commit`] or [`RecordKind::Snapshot`] payload is a run
//! of operations ([`push_op`] / [`ops`]), a [`RecordKind::Batch`] payload
//! a run of length-prefixed commit payloads ([`push_batch_txn`] /
//! [`decode_batch`]). One operation is
//!
//! ```text
//! | tag u8 | table_len u32 | table | key_len u32 | key | value_len u32 | value |
//! ```
//!
//! with tag 1 = put and 2 = delete (no value field) on a *map* table,
//! and 3 = append to a *log* table. The tag makes the image
//! self-describing: recovery learns what kind of table a row belongs
//! to from the row itself.
//!
//! # Example
//!
//! A torn tail (e.g. a crash mid-append) is detected and cleanly cut:
//!
//! ```
//! use shs_vnistore::wal::{encode_into, frames, ops, push_op, OpKind, RecordKind};
//!
//! let mut payload = Vec::new();
//! push_op(&mut payload, OpKind::Put, "vnis", b"k", b"row");
//! let mut log = Vec::new();
//! encode_into(RecordKind::Commit, 1, &payload, &mut log);
//! let first = log.len();
//! encode_into(RecordKind::Commit, 2, &payload, &mut log);
//!
//! // Tear the last frame mid-way.
//! log.truncate(first + 5);
//! let mut scan = frames(&log);
//! let frame = scan.next().expect("the intact frame survives");
//! assert_eq!((frame.kind, frame.lsn), (RecordKind::Commit, 1));
//! let op = ops(frame.payload).next().unwrap();
//! assert_eq!((op.kind, op.table, op.key, op.value), (OpKind::Put, "vnis", &b"k"[..], &b"row"[..]));
//! assert!(scan.next().is_none());
//! assert_eq!(scan.consumed(), first, "the torn tail is not consumed");
//! ```

use crate::codec::{push_bytes, read_slice, read_u8};

/// Frame magic.
pub const MAGIC: u16 = 0x5A1C; // "SLIC"-ish

/// Record kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A committed transaction's operations.
    Commit = 1,
    /// A full-state snapshot (checkpoint); earlier records are obsolete.
    Snapshot = 2,
    /// A group commit: several transactions' op payloads framed as ONE
    /// record (see [`push_batch_txn`]/[`decode_batch`]). `lsn` is the
    /// first transaction's; recovery advances by the txn count. The
    /// whole-frame CRC makes the batch all-or-nothing: a crash mid-write
    /// tears the frame and every transaction in it is rolled back
    /// together.
    Batch = 3,
}

/// One intact frame of a device image, borrowed from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Kind tag.
    pub kind: RecordKind,
    /// Log sequence number.
    pub lsn: u64,
    /// CRC-verified payload (operations, or a batch of them).
    pub payload: &'a [u8],
}

const HEADER_LEN: usize = 2 + 1 + 8 + 4 + 4;

/// Byte-at-a-time CRC-32 lookup table, built at compile time from the
/// same bitwise recurrence the original implementation ran per bit.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slicing-by-8 tables: `CRC_SLICES[k][b]` is the CRC state after byte
/// `b` followed by `k` zero bytes, so eight input bytes fold into the
/// state with eight independent lookups instead of a serial chain.
const CRC_SLICES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    t[0] = CRC_TABLE;
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ CRC_TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE), slicing-by-8: snapshots and recovery CRC the whole
/// audit log, so this runs at eight bytes per step (the
/// `crc32_known_vector` test pins it to the standard polynomial, a
/// proptest to the byte-at-a-time recurrence).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_SLICES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Open a frame at the end of `out`: the header with its length and CRC
/// fields blank. Whatever the caller appends next is the payload;
/// [`end_frame`] with the returned offset seals it. Building a frame in
/// place spares the store a payload buffer and a copy per snapshot and
/// per group batch.
pub fn begin_frame(kind: RecordKind, lsn: u64, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(kind as u8);
    out.extend_from_slice(&lsn.to_le_bytes());
    out.extend_from_slice(&[0u8; 8]);
    start
}

/// Seal the frame opened at `start`: everything after its header is the
/// payload, whose length and CRC go into the header.
pub fn end_frame(out: &mut [u8], start: usize) {
    let (header, payload) = out[start..].split_at_mut(HEADER_LEN);
    let len = u32::try_from(payload.len()).expect("a frame payload stays under 4 GiB");
    header[11..15].copy_from_slice(&len.to_le_bytes());
    header[15..19].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Append one whole frame around `payload` to `out`.
pub fn encode_into(kind: RecordKind, lsn: u64, payload: &[u8], out: &mut Vec<u8>) {
    out.reserve(HEADER_LEN + payload.len());
    let start = begin_frame(kind, lsn, out);
    out.extend_from_slice(payload);
    end_frame(out, start);
}

/// Scan a device image's intact frames in order (see [`Frames`]).
pub fn frames(image: &[u8]) -> Frames<'_> {
    Frames { image, off: 0 }
}

/// Iterator over the intact frames of a device image. Stops for good at
/// the first torn or corrupt frame; [`Frames::consumed`] is then the
/// length of the valid prefix.
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    image: &'a [u8],
    off: usize,
}

impl Frames<'_> {
    /// Bytes covered by the frames yielded so far.
    pub fn consumed(&self) -> usize {
        self.off
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Frame<'a>;

    fn next(&mut self) -> Option<Frame<'a>> {
        let header = self.image.get(self.off..self.off + HEADER_LEN)?;
        if header[..2] != MAGIC.to_le_bytes() {
            return None;
        }
        let kind = match header[2] {
            1 => RecordKind::Commit,
            2 => RecordKind::Snapshot,
            3 => RecordKind::Batch,
            _ => return None,
        };
        let lsn = u64::from_le_bytes(header[3..11].try_into().expect("8 bytes"));
        let plen = u32::from_le_bytes(header[11..15].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[15..19].try_into().expect("4 bytes"));
        let body = self.off + HEADER_LEN;
        // `get` refuses a torn payload; the CRC refuses a corrupt one.
        let payload = self.image.get(body..body.checked_add(plen)?)?;
        if crc32(payload) != crc {
            return None;
        }
        self.off = body + plen;
        Some(Frame { kind, lsn, payload })
    }
}

/// Operation tags (the first byte of an encoded operation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Insert or overwrite a row of a map table.
    Put = 1,
    /// Remove a row of a map table (no value field).
    Delete = 2,
    /// Append a row to a log table; its key is above every earlier one.
    Append = 3,
}

/// One decoded operation, borrowed from the payload it was parsed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op<'a> {
    /// What to do.
    pub kind: OpKind,
    /// Target table.
    pub table: &'a str,
    /// Row key.
    pub key: &'a [u8],
    /// Row value (empty for a delete).
    pub value: &'a [u8],
    /// The operation's whole encoding — what a log table stores.
    pub raw: &'a [u8],
}

/// Append one encoded operation to `out` (`value` is ignored for a
/// delete).
pub fn push_op(out: &mut Vec<u8>, kind: OpKind, table: &str, key: &[u8], value: &[u8]) {
    out.push(kind as u8);
    push_bytes(out, table.as_bytes());
    push_bytes(out, key);
    if kind != OpKind::Delete {
        push_bytes(out, value);
    }
}

/// Parse a commit or snapshot payload back into its operations. The
/// frame CRC already vouches for the bytes, so a malformed operation can
/// only mean an encoder bug — the scan ends there rather than panicking.
pub fn ops(payload: &[u8]) -> impl Iterator<Item = Op<'_>> {
    let mut off = 0usize;
    std::iter::from_fn(move || {
        let op = parse_op(payload, &mut off);
        if op.is_none() {
            off = payload.len();
        }
        op
    })
}

fn parse_op<'a>(payload: &'a [u8], off: &mut usize) -> Option<Op<'a>> {
    let start = *off;
    let kind = match read_u8(payload, off)? {
        1 => OpKind::Put,
        2 => OpKind::Delete,
        3 => OpKind::Append,
        _ => return None,
    };
    let table = std::str::from_utf8(read_slice(payload, off)?).ok()?;
    let key = read_slice(payload, off)?;
    let value = if kind == OpKind::Delete { &[][..] } else { read_slice(payload, off)? };
    Some(Op { kind, table, key, value, raw: &payload[start..*off] })
}

/// Append one transaction's encoded ops to an accumulating
/// [`RecordKind::Batch`] payload: `u32 len | ops bytes` per transaction
/// (a zero-op commit contributes a zero-length entry and still counts
/// toward the batch's LSN span).
pub fn push_batch_txn(group: &mut Vec<u8>, ops_payload: &[u8]) {
    push_bytes(group, ops_payload);
}

/// Split a [`RecordKind::Batch`] payload back into per-transaction op
/// payloads. As with [`ops`], a malformed inner length ends the scan
/// defensively.
pub fn decode_batch(payload: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut off = 0usize;
    std::iter::from_fn(move || {
        let txn = read_slice(payload, &mut off);
        if txn.is_none() {
            off = payload.len();
        }
        txn
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn frame(lsn: u64, kind: RecordKind, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_into(kind, lsn, payload, &mut out);
        out
    }

    /// The recurrence `crc32` replaced: one table lookup per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(0xFFFF_FFFF, |crc: u32, &b| {
            (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize]
        })
    }

    #[test]
    fn crc32_known_vector() {
        // Standard IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        /// Slicing-by-8 equals the byte-at-a-time reference for every
        /// length 0..=64 at every offset of a larger buffer (so every
        /// alignment and every remainder length is covered).
        #[test]
        fn crc32_matches_the_bytewise_reference(
            buf in prop::collection::vec(any::<u8>(), 80..=96),
        ) {
            for start in 0..16 {
                for len in 0..=64 {
                    let window = &buf[start..start + len];
                    prop_assert_eq!(crc32(window), crc32_bytewise(window), "start {} len {}", start, len);
                }
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let records: [(u64, RecordKind, &[u8]); 3] = [
            (1, RecordKind::Commit, b"alpha"),
            (2, RecordKind::Snapshot, b""),
            (3, RecordKind::Commit, &[0u8; 1000]),
        ];
        let mut image = Vec::new();
        for (lsn, kind, payload) in records {
            image.extend_from_slice(&frame(lsn, kind, payload));
        }
        let mut scan = frames(&image);
        let decoded: Vec<Frame<'_>> = scan.by_ref().collect();
        let want: Vec<Frame<'_>> =
            records.iter().map(|&(lsn, kind, payload)| Frame { kind, lsn, payload }).collect();
        assert_eq!(decoded, want);
        assert_eq!(scan.consumed(), image.len());
    }

    #[test]
    fn frames_built_in_place_equal_encode_into() {
        let mut out = b"earlier frames".to_vec();
        let start = begin_frame(RecordKind::Batch, 9, &mut out);
        out.extend_from_slice(b"payload bytes");
        end_frame(&mut out, start);
        assert_eq!(out[start..], frame(9, RecordKind::Batch, b"payload bytes")[..]);
    }

    #[test]
    fn torn_header_stops_scan() {
        let mut image = frame(1, RecordKind::Commit, b"ok");
        let first = image.len();
        let whole = frame(2, RecordKind::Commit, b"lost");
        image.extend_from_slice(&whole[..HEADER_LEN - 2]); // torn header
        let mut scan = frames(&image);
        assert_eq!(scan.next().map(|f| f.payload), Some(&b"ok"[..]));
        assert_eq!(scan.next(), None);
        assert_eq!(scan.consumed(), first);
    }

    #[test]
    fn torn_payload_stops_scan() {
        let mut image = frame(1, RecordKind::Commit, b"ok");
        let whole = frame(2, RecordKind::Commit, b"0123456789");
        image.extend_from_slice(&whole[..whole.len() - 3]); // torn payload
        assert_eq!(frames(&image).count(), 1);
    }

    #[test]
    fn corrupt_payload_detected_by_crc() {
        let mut image = frame(1, RecordKind::Commit, b"payload");
        let last = image.len() - 1;
        image[last] ^= 0xFF; // flip a payload bit
        assert_eq!(frames(&image).next(), None);
    }

    #[test]
    fn garbage_magic_is_rejected() {
        let mut scan = frames(b"not a wal at all, definitely");
        assert_eq!(scan.next(), None);
        assert_eq!(scan.consumed(), 0);
    }

    #[test]
    fn ops_roundtrip_with_their_raw_encoding() {
        let mut payload = Vec::new();
        push_op(&mut payload, OpKind::Put, "vnis", b"k1", b"row");
        let put_len = payload.len();
        push_op(&mut payload, OpKind::Delete, "vnis", b"k2", b"ignored");
        let del_len = payload.len();
        push_op(&mut payload, OpKind::Append, "audit_log", b"", b"");
        let got: Vec<Op<'_>> = ops(&payload).collect();
        let want = [
            (OpKind::Put, "vnis", &b"k1"[..], &b"row"[..], &payload[..put_len]),
            (OpKind::Delete, "vnis", &b"k2"[..], &b""[..], &payload[put_len..del_len]),
            (OpKind::Append, "audit_log", &b""[..], &b""[..], &payload[del_len..]),
        ];
        assert_eq!(got.len(), want.len());
        for (op, (kind, table, key, value, raw)) in got.iter().zip(want) {
            assert_eq!((op.kind, op.table, op.key, op.value, op.raw), (kind, table, key, value, raw));
        }
        // A put and an append of the same row differ in the tag only.
        let (mut put, mut app) = (Vec::new(), Vec::new());
        push_op(&mut put, OpKind::Put, "t", b"k", b"v");
        push_op(&mut app, OpKind::Append, "t", b"k", b"v");
        assert_eq!(put[1..], app[1..]);
    }

    #[test]
    fn malformed_op_ends_the_scan_for_good() {
        let mut payload = Vec::new();
        push_op(&mut payload, OpKind::Put, "t", b"k", b"v");
        let whole = payload.len();
        push_op(&mut payload, OpKind::Put, "t", b"k2", b"value");
        for cut in whole + 1..payload.len() {
            let mut scan = ops(&payload[..cut]);
            assert!(scan.next().is_some());
            assert!(scan.next().is_none(), "cut {cut}");
            assert!(scan.next().is_none(), "cut {cut}: the scan stays ended");
        }
        payload[whole] = 9; // unknown tag
        assert_eq!(ops(&payload).count(), 1);
    }

    #[test]
    fn batch_payload_roundtrips_per_txn() {
        let mut group = Vec::new();
        push_batch_txn(&mut group, b"txn-a");
        push_batch_txn(&mut group, b"");
        push_batch_txn(&mut group, b"txn-c-longer");
        let txns: Vec<&[u8]> = decode_batch(&group).collect();
        assert_eq!(txns, vec![&b"txn-a"[..], &b""[..], &b"txn-c-longer"[..]]);
    }

    #[test]
    fn batch_record_roundtrips_through_the_frame() {
        let mut group = Vec::new();
        push_batch_txn(&mut group, b"alpha");
        push_batch_txn(&mut group, b"beta");
        let image = frame(5, RecordKind::Batch, &group);
        let mut scan = frames(&image);
        let decoded = scan.next().expect("one frame");
        assert_eq!(scan.next(), None);
        assert_eq!(scan.consumed(), image.len());
        assert_eq!((decoded.kind, decoded.lsn), (RecordKind::Batch, 5));
        assert_eq!(decode_batch(decoded.payload).count(), 2);
    }

    #[test]
    fn truncated_batch_inner_length_stops_defensively() {
        let mut group = Vec::new();
        push_batch_txn(&mut group, b"ok");
        group.extend_from_slice(&(100u32).to_le_bytes()); // lies past the end
        group.extend_from_slice(b"short");
        let txns: Vec<&[u8]> = decode_batch(&group).collect();
        assert_eq!(txns, vec![&b"ok"[..]]);
    }

    #[test]
    fn empty_payload_records_are_valid() {
        let image = frame(7, RecordKind::Snapshot, b"");
        let mut scan = frames(&image);
        assert_eq!(scan.next().map(|f| f.lsn), Some(7));
        assert_eq!(scan.consumed(), image.len());
    }
}
