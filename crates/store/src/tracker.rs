//! Access accounting: the bridge between executed work and simulated time.
//!
//! Every [`Region`](crate::region::Region) operation tallies into an
//! [`AccessTracker`]. Higher layers snapshot the tracker and feed the byte
//! counts into the [`pmem-sim`](pmem_sim) bandwidth model to obtain the
//! simulated device time a real Optane system would have spent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Thread-safe access counters shared by all regions of a namespace.
#[derive(Debug, Default)]
pub struct AccessTracker {
    seq_read_bytes: AtomicU64,
    rand_read_bytes: AtomicU64,
    seq_write_bytes: AtomicU64,
    rand_write_bytes: AtomicU64,
    read_ops: AtomicU64,
    write_ops: AtomicU64,
    sfences: AtomicU64,
    page_faults: AtomicU64,
    crashes: AtomicU64,
    crash_lost_lines: AtomicU64,
}

impl AccessTracker {
    /// New zeroed tracker behind an `Arc` (the shape regions consume).
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    pub(crate) fn record_read(&self, bytes: u64, sequential: bool) {
        self.read_ops.fetch_add(1, Ordering::Relaxed);
        if sequential {
            self.seq_read_bytes.fetch_add(bytes, Ordering::Relaxed);
        } else {
            self.rand_read_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_write(&self, bytes: u64, sequential: bool) {
        self.write_ops.fetch_add(1, Ordering::Relaxed);
        if sequential {
            self.seq_write_bytes.fetch_add(bytes, Ordering::Relaxed);
        } else {
            self.rand_write_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_sfence(&self) {
        self.sfences.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_page_faults(&self, pages: u64) {
        self.page_faults.fetch_add(pages, Ordering::Relaxed);
    }

    pub(crate) fn record_crash(&self, lost_lines: u64) {
        self.crashes.fetch_add(1, Ordering::Relaxed);
        self.crash_lost_lines
            .fetch_add(lost_lines, Ordering::Relaxed);
    }

    /// Consistent-enough snapshot of the counters (individual counters are
    /// read with relaxed ordering; exactness across counters is not needed
    /// for timing estimates).
    pub fn snapshot(&self) -> TrackerSnapshot {
        TrackerSnapshot {
            seq_read_bytes: self.seq_read_bytes.load(Ordering::Relaxed),
            rand_read_bytes: self.rand_read_bytes.load(Ordering::Relaxed),
            seq_write_bytes: self.seq_write_bytes.load(Ordering::Relaxed),
            rand_write_bytes: self.rand_write_bytes.load(Ordering::Relaxed),
            read_ops: self.read_ops.load(Ordering::Relaxed),
            write_ops: self.write_ops.load(Ordering::Relaxed),
            sfences: self.sfences.load(Ordering::Relaxed),
            page_faults: self.page_faults.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
            crash_lost_lines: self.crash_lost_lines.load(Ordering::Relaxed),
        }
    }

    /// Reset all counters to zero (e.g. after the load phase, before the
    /// measured query phase).
    pub fn reset(&self) {
        self.seq_read_bytes.store(0, Ordering::Relaxed);
        self.rand_read_bytes.store(0, Ordering::Relaxed);
        self.seq_write_bytes.store(0, Ordering::Relaxed);
        self.rand_write_bytes.store(0, Ordering::Relaxed);
        self.read_ops.store(0, Ordering::Relaxed);
        self.write_ops.store(0, Ordering::Relaxed);
        self.sfences.store(0, Ordering::Relaxed);
        self.page_faults.store(0, Ordering::Relaxed);
        self.crashes.store(0, Ordering::Relaxed);
        self.crash_lost_lines.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time view of an [`AccessTracker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrackerSnapshot {
    /// Bytes read sequentially.
    pub seq_read_bytes: u64,
    /// Bytes read at random offsets.
    pub rand_read_bytes: u64,
    /// Bytes written sequentially.
    pub seq_write_bytes: u64,
    /// Bytes written at random offsets.
    pub rand_write_bytes: u64,
    /// Read operations.
    pub read_ops: u64,
    /// Write operations.
    pub write_ops: u64,
    /// `sfence` calls.
    pub sfences: u64,
    /// fsdax first-touch page faults.
    pub page_faults: u64,
    /// Simulated power-loss events ([`crate::region::Region::crash`]).
    pub crashes: u64,
    /// Cache lines reverted to their persisted image across those crashes.
    pub crash_lost_lines: u64,
}

impl TrackerSnapshot {
    /// All bytes read.
    pub fn read_bytes(&self) -> u64 {
        self.seq_read_bytes + self.rand_read_bytes
    }

    /// All bytes written.
    pub fn write_bytes(&self) -> u64 {
        self.seq_write_bytes + self.rand_write_bytes
    }

    /// Mean random-read granule, useful to pick the access size for the
    /// bandwidth model (0 when no random reads happened).
    pub fn mean_random_read_size(&self) -> u64 {
        if self.rand_read_bytes == 0 {
            return 0;
        }
        // Approximation: attribute all read ops proportionally.
        let total = self.read_bytes();
        let rand_ops = (self.read_ops as f64 * self.rand_read_bytes as f64 / total as f64).max(1.0);
        (self.rand_read_bytes as f64 / rand_ops) as u64
    }

    /// Element-wise sum (e.g. combining per-socket shards).
    pub fn plus(&self, other: &TrackerSnapshot) -> TrackerSnapshot {
        TrackerSnapshot {
            seq_read_bytes: self.seq_read_bytes + other.seq_read_bytes,
            rand_read_bytes: self.rand_read_bytes + other.rand_read_bytes,
            seq_write_bytes: self.seq_write_bytes + other.seq_write_bytes,
            rand_write_bytes: self.rand_write_bytes + other.rand_write_bytes,
            read_ops: self.read_ops + other.read_ops,
            write_ops: self.write_ops + other.write_ops,
            sfences: self.sfences + other.sfences,
            page_faults: self.page_faults + other.page_faults,
            crashes: self.crashes + other.crashes,
            crash_lost_lines: self.crash_lost_lines + other.crash_lost_lines,
        }
    }

    /// Difference against an earlier snapshot (for measuring one phase).
    pub fn since(&self, earlier: &TrackerSnapshot) -> TrackerSnapshot {
        TrackerSnapshot {
            seq_read_bytes: self.seq_read_bytes - earlier.seq_read_bytes,
            rand_read_bytes: self.rand_read_bytes - earlier.rand_read_bytes,
            seq_write_bytes: self.seq_write_bytes - earlier.seq_write_bytes,
            rand_write_bytes: self.rand_write_bytes - earlier.rand_write_bytes,
            read_ops: self.read_ops - earlier.read_ops,
            write_ops: self.write_ops - earlier.write_ops,
            sfences: self.sfences - earlier.sfences,
            page_faults: self.page_faults - earlier.page_faults,
            crashes: self.crashes - earlier.crashes,
            crash_lost_lines: self.crash_lost_lines - earlier.crash_lost_lines,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_kind() {
        let t = AccessTracker::default();
        t.record_read(100, true);
        t.record_read(50, false);
        t.record_write(30, true);
        t.record_write(20, false);
        t.record_sfence();
        t.record_page_faults(1);
        let s = t.snapshot();
        assert_eq!(s.seq_read_bytes, 100);
        assert_eq!(s.rand_read_bytes, 50);
        assert_eq!(s.seq_write_bytes, 30);
        assert_eq!(s.rand_write_bytes, 20);
        assert_eq!(s.read_bytes(), 150);
        assert_eq!(s.write_bytes(), 50);
        assert_eq!(s.read_ops, 2);
        assert_eq!(s.write_ops, 2);
        assert_eq!(s.sfences, 1);
        assert_eq!(s.page_faults, 1);
    }

    #[test]
    fn reset_zeroes_everything() {
        let t = AccessTracker::default();
        t.record_read(1, true);
        t.record_crash(3);
        t.reset();
        assert_eq!(t.snapshot(), TrackerSnapshot::default());
    }

    #[test]
    fn crash_events_accumulate() {
        let t = AccessTracker::default();
        t.record_crash(5);
        t.record_crash(0);
        let s = t.snapshot();
        assert_eq!(s.crashes, 2);
        assert_eq!(s.crash_lost_lines, 5);
    }

    #[test]
    fn since_computes_phase_delta() {
        let t = AccessTracker::default();
        t.record_read(100, true);
        let before = t.snapshot();
        t.record_read(40, false);
        let delta = t.snapshot().since(&before);
        assert_eq!(delta.rand_read_bytes, 40);
        assert_eq!(delta.seq_read_bytes, 0);
    }

    #[test]
    fn mean_random_read_size_is_sane() {
        let t = AccessTracker::default();
        for _ in 0..10 {
            t.record_read(256, false);
        }
        let s = t.snapshot();
        assert_eq!(s.mean_random_read_size(), 256);
        assert_eq!(TrackerSnapshot::default().mean_random_read_size(), 0);
    }

    #[test]
    fn tracker_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AccessTracker>();
    }
}
