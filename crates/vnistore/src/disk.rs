//! A simulated append-only durable device with explicit `fsync` and
//! crash semantics.
//!
//! The write path buffers appends in volatile memory until `fsync`; a
//! crash keeps everything synced plus an arbitrary *prefix* of the
//! unsynced tail (modelling torn writes). This is the failure model the
//! WAL layer must survive, and the one the ACID property tests inject.

use shs_des::DetRng;

/// The simulated device.
#[derive(Debug, Clone, Default)]
pub struct SimDisk {
    buf: Vec<u8>,
    synced_len: usize,
    /// Number of fsync barriers issued (cost accounting).
    pub fsyncs: u64,
}

impl SimDisk {
    /// Fresh, empty device.
    pub fn new() -> Self {
        SimDisk::default()
    }

    /// Append bytes (volatile until [`SimDisk::fsync`]).
    pub fn append(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Durability barrier: everything appended so far survives crashes.
    pub fn fsync(&mut self) {
        self.synced_len = self.buf.len();
        self.fsyncs += 1;
    }

    /// Full logical content (what a reader sees while the system is up).
    pub fn contents(&self) -> &[u8] {
        &self.buf
    }

    /// Length of the durable prefix.
    pub fn synced_len(&self) -> usize {
        self.synced_len
    }

    /// Total length including unsynced tail.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the device holds no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Atomically replace the device contents with a new image, durable
    /// immediately. Models the checkpoint-to-a-new-file + fsync + rename
    /// sequence a truncating snapshot performs, collapsed into the one
    /// crash-atomic step the rename provides: a crash either sees the
    /// old image or the complete new one, never a mix.
    pub fn replace(&mut self, bytes: &[u8]) {
        self.buf.clear();
        self.buf.extend_from_slice(bytes);
        self.synced_len = self.buf.len();
        self.fsyncs += 1;
    }

    /// Cut the device back to its first `len` bytes: recovery drops a
    /// torn tail this way, so the next append lands directly behind the
    /// last intact frame instead of behind garbage.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
        self.synced_len = self.synced_len.min(self.buf.len());
    }

    /// Simulate a crash: the synced prefix survives intact; of the
    /// unsynced tail, a random prefix (possibly zero bytes, possibly all)
    /// survives — a torn final write.
    pub fn crash(mut self, rng: &mut DetRng) -> SimDisk {
        let unsynced = self.buf.len() - self.synced_len;
        let surviving_tail = rng.below(unsynced as u64 + 1) as usize;
        self.buf.truncate(self.synced_len + surviving_tail);
        self.synced_len = self.buf.len();
        SimDisk { buf: self.buf, synced_len: self.synced_len, fsyncs: self.fsyncs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synced_data_survives_crash() {
        let mut d = SimDisk::new();
        d.append(b"hello");
        d.fsync();
        d.append(b"world");
        let mut rng = DetRng::new(1);
        let d2 = d.crash(&mut rng);
        assert!(d2.contents().starts_with(b"hello"));
        assert!(d2.len() >= 5 && d2.len() <= 10);
    }

    #[test]
    fn crash_without_fsync_may_lose_everything() {
        // With many seeds, at least one crash drops the whole tail and at
        // least one keeps some of it.
        let mut kept_none = false;
        let mut kept_some = false;
        for seed in 0..32 {
            let mut d = SimDisk::new();
            d.append(b"volatile");
            let mut rng = DetRng::new(seed);
            let d2 = d.crash(&mut rng);
            if d2.is_empty() {
                kept_none = true;
            } else {
                kept_some = true;
            }
        }
        assert!(kept_none && kept_some, "crash prefix should vary by seed");
    }

    #[test]
    fn fsync_counter_tracks_barriers() {
        let mut d = SimDisk::new();
        d.append(b"a");
        d.fsync();
        d.append(b"b");
        d.fsync();
        assert_eq!(d.fsyncs, 2);
        assert_eq!(d.synced_len(), 2);
    }

    #[test]
    fn replace_swaps_contents_atomically_and_durably() {
        let mut d = SimDisk::new();
        d.append(b"old history");
        d.fsync();
        d.append(b"torn tail");
        d.replace(b"snapshot");
        assert_eq!(d.contents(), b"snapshot");
        assert_eq!(d.synced_len(), 8, "replacement is immediately durable");
        assert_eq!(d.fsyncs, 2, "the rename costs one barrier");
        // Any crash after the replace keeps the full new image.
        let mut rng = DetRng::new(9);
        let d2 = d.crash(&mut rng);
        assert_eq!(d2.contents(), b"snapshot");
    }

    #[test]
    fn truncate_cuts_the_tail() {
        let mut d = SimDisk::new();
        d.append(b"intact|torn");
        d.fsync();
        d.truncate(7);
        assert_eq!(d.contents(), b"intact|");
        assert_eq!(d.synced_len(), 7);
        d.truncate(100); // never extends
        assert_eq!(d.len(), 7);
    }

    #[test]
    fn crash_is_idempotent_on_synced_state() {
        let mut d = SimDisk::new();
        d.append(b"abc");
        d.fsync();
        let mut rng = DetRng::new(3);
        let d2 = d.clone().crash(&mut rng);
        assert_eq!(d2.contents(), b"abc");
        let d3 = d2.crash(&mut rng);
        assert_eq!(d3.contents(), b"abc");
    }
}
