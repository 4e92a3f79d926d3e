//! A simulated durable device of two append-only files with explicit
//! `fsync` and crash semantics.
//!
//! The store keeps its write-ahead log in one file and the rows of its
//! log tables in the other, the **log segment** (see the `store` module
//! docs). Each file buffers appends in volatile memory until `fsync`;
//! one barrier syncs both. A crash keeps everything synced plus an
//! arbitrary *prefix* of each file's unsynced tail, drawn independently
//! per file (modelling torn writes that reach the two files in either
//! order). This is the failure model the store must survive, and the one
//! the ACID property tests inject.

use shs_des::DetRng;

/// One file: its bytes and how many of them are durable.
#[derive(Debug, Clone, Default)]
struct File {
    buf: Vec<u8>,
    synced_len: usize,
}

impl File {
    fn synced(bytes: &[u8]) -> File {
        File { buf: bytes.to_vec(), synced_len: bytes.len() }
    }

    fn sync(&mut self) {
        self.synced_len = self.buf.len();
    }

    fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
        self.synced_len = self.synced_len.min(self.buf.len());
    }

    /// The synced prefix plus a random prefix of the unsynced tail.
    fn crash(mut self, rng: &mut DetRng) -> File {
        let unsynced = self.buf.len() - self.synced_len;
        let surviving_tail = rng.below(unsynced as u64 + 1) as usize;
        self.buf.truncate(self.synced_len + surviving_tail);
        self.synced_len = self.buf.len();
        self
    }
}

/// The simulated device: a WAL file and a log-segment file.
#[derive(Debug, Clone, Default)]
pub struct SimDisk {
    wal: File,
    segment: File,
    /// Number of fsync barriers issued (cost accounting).
    pub fsyncs: u64,
}

impl SimDisk {
    /// Fresh, empty device.
    pub fn new() -> Self {
        SimDisk::default()
    }

    /// A device whose two files hold exactly these bytes, all durable —
    /// an image cut or patched by hand, for recovery to read.
    pub fn from_images(wal: &[u8], segment: &[u8]) -> Self {
        SimDisk { wal: File::synced(wal), segment: File::synced(segment), fsyncs: 0 }
    }

    /// The WAL file's content, unsynced tail included (what a reader sees
    /// while the system is up).
    pub fn wal(&self) -> &[u8] {
        &self.wal.buf
    }

    /// The log segment's content, unsynced tail included.
    pub fn segment(&self) -> &[u8] {
        &self.segment.buf
    }

    /// Bytes on both files, unsynced tails included.
    pub fn len(&self) -> usize {
        self.wal.buf.len() + self.segment.buf.len()
    }

    /// Whether both files are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append to the WAL (volatile until [`SimDisk::fsync`]).
    pub(crate) fn append_wal(&mut self, bytes: &[u8]) {
        self.wal.buf.extend_from_slice(bytes);
    }

    /// Append to the log segment (volatile until [`SimDisk::fsync`]).
    pub(crate) fn append_segment(&mut self, bytes: &[u8]) {
        self.segment.buf.extend_from_slice(bytes);
    }

    /// Durability barrier: everything appended to either file so far
    /// survives crashes.
    pub(crate) fn fsync(&mut self) {
        self.wal.sync();
        self.segment.sync();
        self.fsyncs += 1;
    }

    /// Atomically replace the WAL with a new image, durable immediately:
    /// the WAL is cleared, `encode` writes the new one in place, and
    /// both files are synced with one barrier. Models the
    /// checkpoint-to-a-new-file + fsync + rename sequence a truncating
    /// snapshot performs, collapsed into the one crash-atomic step the
    /// rename provides: a crash either sees the old WAL or the complete
    /// new one, never a mix. The log segment is left as it is. Encoding
    /// in place spares the caller a scratch buffer the size of the image
    /// and a copy out of it.
    pub(crate) fn rewrite_wal(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        self.wal.buf.clear();
        encode(&mut self.wal.buf);
        self.fsync();
    }

    /// Cut the WAL back to its first `wal` bytes and the log segment to
    /// its first `segment`: recovery drops torn or unproven tails this
    /// way, so the next appends land directly behind what it accepted
    /// instead of behind garbage. Never extends a file.
    pub(crate) fn truncate(&mut self, wal: usize, segment: usize) {
        self.wal.truncate(wal);
        self.segment.truncate(segment);
    }

    /// Simulate a crash: each file's synced prefix survives intact; of
    /// its unsynced tail, a random prefix (possibly zero bytes, possibly
    /// all) survives — a torn final write. The two cuts are drawn
    /// independently, WAL first.
    pub fn crash(self, rng: &mut DetRng) -> SimDisk {
        let wal = self.wal.crash(rng);
        SimDisk { wal, segment: self.segment.crash(rng), fsyncs: self.fsyncs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synced_data_survives_crash() {
        let mut d = SimDisk::new();
        d.append_wal(b"hello");
        d.append_segment(b"rows");
        d.fsync();
        d.append_wal(b"world");
        d.append_segment(b"more");
        let mut rng = DetRng::new(1);
        let d2 = d.crash(&mut rng);
        assert!(d2.wal().starts_with(b"hello") && d2.segment().starts_with(b"rows"));
        assert!((5..=10).contains(&d2.wal().len()) && (4..=8).contains(&d2.segment().len()));
    }

    #[test]
    fn crash_without_fsync_may_lose_everything() {
        // With many seeds, at least one crash drops a whole unsynced tail
        // and at least one keeps some of it.
        let mut kept_none = false;
        let mut kept_some = false;
        for seed in 0..32 {
            let mut d = SimDisk::new();
            d.append_wal(b"volatile");
            let d2 = d.crash(&mut DetRng::new(seed));
            if d2.is_empty() {
                kept_none = true;
            } else {
                kept_some = true;
            }
        }
        assert!(kept_none && kept_some, "crash prefix should vary by seed");
    }

    #[test]
    fn the_two_files_tear_independently() {
        // Over many seeds every combination shows up: a file keeps none,
        // some or all of its unsynced tail regardless of the other.
        let mut seen = [[false; 3]; 3];
        let class = |len: usize| match len {
            0 => 0,
            8 => 2,
            _ => 1,
        };
        for seed in 0..256 {
            let mut d = SimDisk::new();
            d.append_wal(b"volatile");
            d.append_segment(b"unsynced");
            let d2 = d.crash(&mut DetRng::new(seed));
            seen[class(d2.wal().len())][class(d2.segment().len())] = true;
        }
        assert_eq!(seen, [[true; 3]; 3], "every cut combination occurs");
    }

    #[test]
    fn fsync_counter_tracks_barriers() {
        let mut d = SimDisk::new();
        d.append_wal(b"a");
        d.append_segment(b"bc");
        d.fsync();
        d.append_wal(b"d");
        d.fsync();
        assert_eq!(d.fsyncs, 2);
        assert_eq!((d.wal.synced_len, d.segment.synced_len), (2, 2));
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn rewrite_replaces_the_image_whole_and_durably() {
        let mut d = SimDisk::new();
        d.append_wal(b"old history");
        d.append_segment(b"rows");
        d.fsync();
        d.append_wal(b"torn tail");
        d.append_segment(b"+unsynced");
        d.rewrite_wal(|buf| {
            assert!(buf.is_empty(), "the encoder starts from an empty image");
            buf.extend_from_slice(b"snap");
            buf.extend_from_slice(b"shot");
        });
        assert_eq!(d.wal(), b"snapshot", "old bytes and unsynced tail are gone");
        assert_eq!(d.segment(), b"rows+unsynced", "the segment is untouched");
        assert_eq!(d.fsyncs, 2, "the rename costs one barrier");
        // Any crash after the rewrite keeps the new WAL and every row.
        for seed in 0..16 {
            let d2 = d.clone().crash(&mut DetRng::new(seed));
            assert_eq!((d2.wal(), d2.segment()), (&b"snapshot"[..], &b"rows+unsynced"[..]));
        }
        // A later append is an ordinary volatile tail behind it.
        d.append_wal(b"+tail");
        let d2 = d.crash(&mut DetRng::new(9));
        assert!(d2.wal().starts_with(b"snapshot"));
    }

    #[test]
    fn truncate_cuts_the_tail() {
        let mut d = SimDisk::from_images(b"intact|torn", b"rows|garbage");
        d.truncate(7, 5);
        assert_eq!((d.wal(), d.segment()), (&b"intact|"[..], &b"rows|"[..]));
        assert_eq!((d.wal.synced_len, d.segment.synced_len), (7, 5));
        d.truncate(100, 100); // never extends
        assert_eq!(d.len(), 12);
    }

    #[test]
    fn crash_is_idempotent_on_synced_state() {
        let d = SimDisk::from_images(b"abc", b"de");
        let mut rng = DetRng::new(3);
        let d2 = d.clone().crash(&mut rng);
        assert_eq!((d2.wal(), d2.segment()), (&b"abc"[..], &b"de"[..]));
        let d3 = d2.crash(&mut rng);
        assert_eq!((d3.wal(), d3.segment()), (&b"abc"[..], &b"de"[..]));
    }
}
