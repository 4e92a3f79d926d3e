//! Write-ahead-log wire format: CRC-guarded frames carrying map-table
//! operations, each one naming how much of the device's log segment it
//! covers.
//!
//! Frame layout on the device's WAL file:
//!
//! ```text
//! | magic u16 | kind u8 | lsn u64 | len u32 | crc32 u32 | seg_end u64 | seg_crc u32 | payload |
//! ```
//!
//! `len` and `crc32` cover everything behind them: the segment mark and
//! the payload. The mark ([`SegmentMark`]) says the frame's state
//! includes the log segment's first `seg_end` bytes, and `seg_crc` is
//! the CRC-32 of exactly those bytes, so a frame proves its log rows
//! intact however the two files were cut.
//!
//! Recovery scans frames from the start ([`frames`]) and stops at the
//! first one whose header is truncated, whose magic is wrong, or whose
//! CRC does not match — exactly the torn-tail discipline SQLite's
//! journal uses. The scan borrows: a [`Frame`]'s payload is a slice of
//! the device image, never a copy.
//!
//! A [`RecordKind::Commit`] or [`RecordKind::Snapshot`] payload is a run
//! of operations ([`push_op`] / [`ops`]), a [`RecordKind::Batch`] payload
//! a run of length-prefixed commit payloads (`push_batch_txn` /
//! `decode_batch`). One operation is
//!
//! ```text
//! | tag u8 | table_len u32 | table | key_len u32 | key | value_len u32 | value |
//! ```
//!
//! with tag 1 = put and 2 = delete (no value field) on a *map* table,
//! and 3 = append to a *log* table. WAL payloads carry puts and
//! deletes; appends are the rows of the log segment, back to back in
//! the same encoding. The tag makes both files self-describing:
//! recovery learns what kind of table a row belongs to from the row
//! itself.
//!
//! # Example
//!
//! A torn tail (e.g. a crash mid-append) is detected and cleanly cut:
//!
//! ```
//! use shs_vnistore::wal::{encode_into, frames, ops, push_op, OpKind, RecordKind, SegmentMark};
//!
//! let mut payload = Vec::new();
//! push_op(&mut payload, OpKind::Put, "vnis", b"k", b"row");
//! let mark = SegmentMark::default(); // no log rows yet
//! let mut log = Vec::new();
//! encode_into(RecordKind::Commit, 1, mark, &payload, &mut log);
//! let first = log.len();
//! encode_into(RecordKind::Commit, 2, mark, &payload, &mut log);
//!
//! // Tear the last frame mid-way.
//! log.truncate(first + 5);
//! let mut scan = frames(&log);
//! let frame = scan.next().expect("the intact frame survives");
//! assert_eq!((frame.kind, frame.lsn, frame.segment), (RecordKind::Commit, 1, mark));
//! let op = ops(frame.payload).next().unwrap();
//! assert_eq!((op.kind, op.table, op.key, op.value), (OpKind::Put, "vnis", &b"k"[..], &b"row"[..]));
//! assert!(scan.next().is_none());
//! assert_eq!(scan.consumed(), first, "the torn tail is not consumed");
//! ```

use crate::codec::{push_bytes, read_slice, read_u8};

/// Frame magic.
pub(crate) const MAGIC: u16 = 0x5A1C; // "SLIC"-ish

/// Record kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A committed transaction's operations.
    Commit = 1,
    /// A full-state snapshot (checkpoint); earlier records are obsolete.
    Snapshot = 2,
    /// A group commit: several transactions' op payloads framed as ONE
    /// record (see `push_batch_txn`/`decode_batch`). `lsn` is the
    /// first transaction's; recovery advances by the txn count. The
    /// whole-frame CRC makes the batch all-or-nothing: a crash mid-write
    /// tears the frame and every transaction in it is rolled back
    /// together.
    Batch = 3,
}

/// How much of the log segment a frame's state includes: its first
/// `end` bytes, whose CRC-32 is `crc`. A frame stands only if the
/// segment still holds those bytes intact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentMark {
    /// Segment length the frame covers.
    pub end: u64,
    /// [`crc32`] of the segment's first `end` bytes.
    pub crc: u32,
}

/// One intact frame of a device image, borrowed from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Kind tag.
    pub kind: RecordKind,
    /// Log sequence number.
    pub lsn: u64,
    /// The log segment prefix the frame's state includes.
    pub segment: SegmentMark,
    /// CRC-verified payload (operations, or a batch of them).
    pub payload: &'a [u8],
}

/// `magic | kind | lsn | len | crc32`: the part of a frame its CRC does
/// not cover.
const HEADER_LEN: usize = 2 + 1 + 8 + 4 + 4;

/// `seg_end | seg_crc`: the segment mark opening the CRC-covered part.
const MARK_LEN: usize = 8 + 4;

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

/// CRC-32 (IEEE, reflected polynomial `0xEDB88320`) — the one checksum
/// every frame carries, for its own bytes and for the log segment it
/// covers. Recovery CRCs the whole log segment, so the long inputs take
/// the fastest path the CPU offers:
///
/// * on `x86_64`, when the CPU reports `pclmulqdq` and `sse4.1` and the
///   input is at least 128 bytes, a carry-less-multiply fold over four
///   16-byte lanes and a Barrett reduction, at 64 bytes per step;
/// * everywhere else — other architectures, CPUs without those
///   features, short single-commit frames — slicing-by-8, at eight bytes
///   per step.
///
/// Both compute the same function. The `crc32_known_vector` test pins it
/// to the standard polynomial; a proptest holds it, across the fold's
/// length cut and on multi-KiB buffers, to the byte-at-a-time
/// recurrence, which slicing-by-8 also matches.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// The CRC-32 of `a` followed by `bytes`, given `crc == crc32(a)`: a
/// running checksum grows by the bytes appended since, so a segment
/// prefix's CRC costs each byte once however many frames cover it.
pub fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    // The un-inverted register state that `crc` finalizes.
    let state = !crc;
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = clmul::crc32(state, bytes) {
        return crc;
    }
    crc32_sliced(state, bytes)
}

/// Slicing-by-8 from register state `crc`: the portable [`crc32_extend`].
fn crc32_sliced(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_SLICES;
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
    !bytewise(crc, chunks.remainder())
}

/// Feed `bytes` into a running (un-inverted) CRC state one table lookup
/// at a time.
fn bytewise(crc: u32, bytes: &[u8]) -> u32 {
    bytes.iter().fold(crc, |crc, &b| (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize])
}

/// The folded CRC-32 kernel: the workspace's only `unsafe`, confined to
/// this module.
///
/// The input is 128-bit polynomials folded four lanes at a time with
/// `PCLMULQDQ`, then into one lane, then reduced 128 → 64 → 32 bits
/// (the last step a Barrett reduction), following Intel's "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction" in
/// its bit-reflected form. Constants are `x^k mod P(x)` for the IEEE
/// polynomial, bit-reflected and shifted left by one, as that paper
/// derives them; `P_X` is `P(x)` itself and `U_PRIME` is
/// `floor(x^64 / P(x))`, both reflected.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Fold distance 4 × 128 bits: `x^(4·128+32)` and `x^(4·128-32)`.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold distance 128 bits: `x^(128+32)` and `x^(128-32)`.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// The 64 → 32-bit step: `x^64`.
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    /// Shortest input the fold takes: two rounds of four lanes. Shorter
    /// ones — a single small commit's frame — stay on slicing-by-8.
    const MIN_LEN: usize = 128;

    /// The CRC of `bytes` through the fold, from register state `state`,
    /// or `None` when the input is short or this CPU lacks the
    /// instructions — the caller then runs the portable code.
    pub(super) fn crc32(state: u32, bytes: &[u8]) -> Option<u32> {
        if bytes.len() < MIN_LEN
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        // SAFETY: `fold` is compiled for `pclmulqdq` and `sse4.1`, and
        // `is_x86_feature_detected!` has just reported both on this CPU.
        Some(unsafe { fold(state, bytes) })
    }

    /// CRC-32 of `bytes` from register state `state`; `bytes` must be at
    /// least one 64-byte round long.
    // SAFETY: only callable where `pclmulqdq` and `sse4.1` are present;
    // `crc32` above checks both with `is_x86_feature_detected!` before
    // its one call.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(state: u32, bytes: &[u8]) -> u32 {
        // One 16-byte lane, little-endian. (Closures share the function's
        // target features; a helper `fn` would need them, and `unsafe`
        // to call, of its own.)
        let lane = |bytes: &[u8]| {
            let lo = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
            let hi = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
            _mm_set_epi64x(hi as i64, lo as i64)
        };
        // `a` carried forward by the distance the key pair encodes, and
        // folded into `b`.
        let fold_into = |a: __m128i, b: __m128i, keys: __m128i| {
            let lo = _mm_clmulepi64_si128::<0x00>(a, keys);
            let hi = _mm_clmulepi64_si128::<0x11>(a, keys);
            _mm_xor_si128(_mm_xor_si128(b, lo), hi)
        };
        let mut blocks = bytes.chunks_exact(64);
        let first = blocks.next().expect("at least 64 bytes");
        // The register state (all ones for a fresh CRC) enters as an XOR
        // into the first 32 bits of input.
        let init = _mm_cvtsi32_si128(state as i32);
        let mut x = [
            _mm_xor_si128(lane(&first[..16]), init),
            lane(&first[16..32]),
            lane(&first[32..48]),
            lane(&first[48..]),
        ];
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in &mut blocks {
            for (i, acc) in x.iter_mut().enumerate() {
                *acc = fold_into(*acc, lane(&block[16 * i..16 * i + 16]), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold_into(fold_into(fold_into(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        let mut lanes = blocks.remainder().chunks_exact(16);
        for l in &mut lanes {
            acc = fold_into(acc, lane(l), k3k4);
        }
        // 128 → 64 bits, then 64 → 32 (the low half times x^64).
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(acc, k3k4), _mm_srli_si128::<8>(acc));
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(acc),
        );
        // Barrett reduction, reflected: T1 = (R mod x^32)·µ,
        // T2 = (T1 mod x^32)·P, and the state is the high half of R ^ T2.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let state = _mm_extract_epi32::<1>(_mm_xor_si128(acc, t2)) as u32;
        !super::bytewise(state, lanes.remainder())
    }
}

/// Open a frame at the end of `out`: the header and segment mark with
/// their fields blank. Whatever the caller appends next is the payload;
/// [`end_frame`] with the returned offset seals it. Building a frame in
/// place spares the store a payload buffer and a copy per snapshot and
/// per group batch.
pub(crate) fn begin_frame(kind: RecordKind, lsn: u64, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(kind as u8);
    out.extend_from_slice(&lsn.to_le_bytes());
    out.extend_from_slice(&[0u8; 8 + MARK_LEN]);
    start
}

/// Seal the frame opened at `start`: write the segment mark, then the
/// length and CRC of everything behind the header.
pub(crate) fn end_frame(out: &mut [u8], start: usize, segment: SegmentMark) {
    let (header, sealed) = out[start..].split_at_mut(HEADER_LEN);
    sealed[..8].copy_from_slice(&segment.end.to_le_bytes());
    sealed[8..MARK_LEN].copy_from_slice(&segment.crc.to_le_bytes());
    let len = u32::try_from(sealed.len()).expect("a frame payload stays under 4 GiB");
    header[11..15].copy_from_slice(&len.to_le_bytes());
    header[15..19].copy_from_slice(&crc32(sealed).to_le_bytes());
}

/// Append one whole frame around `payload` to `out`.
pub fn encode_into(
    kind: RecordKind,
    lsn: u64,
    segment: SegmentMark,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    out.reserve(HEADER_LEN + MARK_LEN + payload.len());
    let start = begin_frame(kind, lsn, out);
    out.extend_from_slice(payload);
    end_frame(out, start, segment);
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
        let len = u32::from_le_bytes(header[11..15].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[15..19].try_into().expect("4 bytes"));
        let body = self.off + HEADER_LEN;
        // `get` refuses a torn frame; the CRC refuses a corrupt one.
        let sealed = self.image.get(body..body.checked_add(len)?)?;
        if sealed.len() < MARK_LEN || crc32(sealed) != crc {
            return None;
        }
        let segment = SegmentMark {
            end: u64::from_le_bytes(sealed[..8].try_into().expect("8 bytes")),
            crc: u32::from_le_bytes(sealed[8..MARK_LEN].try_into().expect("4 bytes")),
        };
        self.off = body + len;
        Some(Frame { kind, lsn, segment, payload: &sealed[MARK_LEN..] })
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
pub(crate) fn push_batch_txn(group: &mut Vec<u8>, ops_payload: &[u8]) {
    push_bytes(group, ops_payload);
}

/// Split a [`RecordKind::Batch`] payload back into per-transaction op
/// payloads. As with [`ops`], a malformed inner length ends the scan
/// defensively.
pub(crate) fn decode_batch(payload: &[u8]) -> impl Iterator<Item = &[u8]> {
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

    /// A segment mark told apart by the frame's LSN.
    fn mark(lsn: u64) -> SegmentMark {
        SegmentMark { end: lsn * 100, crc: 0xC0DE_0000 | lsn as u32 }
    }

    fn frame(lsn: u64, kind: RecordKind, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_into(kind, lsn, mark(lsn), payload, &mut out);
        out
    }

    /// The recurrence `crc32` replaced: one table lookup per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytewise(0xFFFF_FFFF, bytes)
    }

    #[test]
    fn crc32_known_vector() {
        // Standard IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        /// `crc32` — the fold where the CPU has it, slicing-by-8 below its
        /// 128-byte cut — and slicing-by-8 on its own both equal the
        /// byte-at-a-time reference for every length 0..=300 at each of
        /// 16 offsets of a larger buffer (every alignment, every lane and
        /// tail remainder on both sides of the cut), and on a few long
        /// buffers of 4–64 KiB. Extending a running CRC at any split
        /// equals the CRC of the whole, on both paths.
        #[test]
        fn crc32_matches_the_bytewise_reference(
            buf in prop::collection::vec(any::<u8>(), 316..=340),
            long in prop::collection::vec((4096usize..=65536, any::<u64>()), 1..=3),
        ) {
            for start in 0..16 {
                for len in 0..=300 {
                    let window = &buf[start..start + len];
                    let want = crc32_bytewise(window);
                    prop_assert_eq!(crc32(window), want, "start {} len {}", start, len);
                    prop_assert_eq!(crc32_sliced(!0, window), want, "start {} len {}", start, len);
                    let (a, b) = window.split_at(len / 3);
                    prop_assert_eq!(crc32_extend(crc32(a), b), want, "start {} len {}", start, len);
                }
            }
            for (len, seed) in long {
                let mut rng = shs_des::DetRng::new(seed);
                let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                let want = crc32_bytewise(&bytes);
                prop_assert_eq!(crc32(&bytes), want, "len {} seed {}", len, seed);
                let (a, b) = bytes.split_at(seed as usize % len);
                prop_assert_eq!(crc32_extend(crc32(a), b), want, "len {} seed {}", len, seed);
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
            records
                .iter()
                .map(|&(lsn, kind, payload)| Frame { kind, lsn, segment: mark(lsn), payload })
                .collect();
        assert_eq!(decoded, want);
        assert_eq!(scan.consumed(), image.len());
    }

    #[test]
    fn frames_built_in_place_equal_encode_into() {
        let mut out = b"earlier frames".to_vec();
        let start = begin_frame(RecordKind::Batch, 9, &mut out);
        out.extend_from_slice(b"payload bytes");
        end_frame(&mut out, start, mark(9));
        assert_eq!(out[start..], frame(9, RecordKind::Batch, b"payload bytes")[..]);
    }

    #[test]
    fn a_sealed_part_too_short_for_the_mark_is_refused() {
        // A well-formed header and a matching CRC over 4 bytes: the
        // segment mark cannot fit, so the frame is corrupt.
        let mut image = MAGIC.to_le_bytes().to_vec();
        image.push(RecordKind::Commit as u8);
        image.extend_from_slice(&1u64.to_le_bytes());
        image.extend_from_slice(&4u32.to_le_bytes());
        image.extend_from_slice(&crc32(b"tiny").to_le_bytes());
        image.extend_from_slice(b"tiny");
        let mut scan = frames(&image);
        assert_eq!(scan.next(), None);
        assert_eq!(scan.consumed(), 0);
    }

    #[test]
    fn the_crc_covers_the_segment_mark() {
        let mut image = frame(3, RecordKind::Commit, b"ok");
        image[HEADER_LEN] ^= 1; // seg_end moves by one byte
        assert_eq!(frames(&image).next(), None);
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
