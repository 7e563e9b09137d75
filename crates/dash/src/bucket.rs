//! Bucket layout and operations.
//!
//! A bucket is exactly 256 bytes — one Optane XPLine — so probing a bucket
//! costs a single media access:
//!
//! ```text
//! offset  0..14   fingerprints, one byte per slot (0 = empty)
//! offset 14..16   reserved
//! offset 16..240  14 records × 16 B (key u64 LE, value u64 LE)
//! offset 240..256 padding
//! ```
//!
//! Crash consistency: on insert the record bytes are written and persisted
//! *first*; only then is the fingerprint (the visibility bit) written and
//! persisted. A crash between the two leaves the slot empty — never a
//! half-visible record.

use pmem_store::{AccessHint, Region};

/// Bytes per bucket (= Optane XPLine).
pub const BUCKET_BYTES: u64 = 256;
/// Record slots per bucket.
pub const SLOTS: usize = 14;
/// Byte offset of the record area.
const REC_OFF: u64 = 16;
/// Bytes per record.
const REC_SIZE: u64 = 16;

/// Outcome of trying to place a record in one bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketInsert {
    /// Inserted into a free slot.
    Inserted,
    /// Key existed; value updated in place.
    Updated,
    /// No free slot.
    Full,
}

/// One bucket as returned by a single 256 B read. Slots are decoded on
/// demand: a probe compares fingerprints and decodes only the records whose
/// fingerprint matches.
#[derive(Debug, Clone, Copy)]
pub struct BucketSnapshot<'a> {
    bytes: &'a [u8],
}

impl<'a> BucketSnapshot<'a> {
    /// Fingerprint of `slot` (0 = empty).
    #[inline]
    pub fn fp(&self, slot: usize) -> u8 {
        self.bytes[slot]
    }

    /// `(key, value)` of `slot` (meaningful only where `fp(slot) != 0`).
    #[inline]
    pub fn record(&self, slot: usize) -> (u64, u64) {
        (self.word(slot, 0), self.word(slot, 8))
    }

    #[inline]
    fn word(&self, slot: usize, at: usize) -> u64 {
        let base = (REC_OFF + slot as u64 * REC_SIZE) as usize + at;
        u64::from_le_bytes(self.bytes[base..base + 8].try_into().expect("8 bytes"))
    }

    /// Number of occupied slots.
    pub fn occupancy(&self) -> usize {
        self.bytes[..SLOTS].iter().filter(|fp| **fp != 0).count()
    }

    /// Slot holding `key` if the fingerprint matches and the key compares
    /// equal. Only fingerprint-matching slots have their key decoded.
    #[inline]
    pub fn find(&self, fp: u8, key: u64) -> Option<usize> {
        (0..SLOTS).find(|&i| self.bytes[i] == fp && self.word(i, 0) == key)
    }

    /// Value stored under `key`, if present.
    #[inline]
    pub fn lookup(&self, fp: u8, key: u64) -> Option<u64> {
        self.find(fp, key).map(|slot| self.word(slot, 8))
    }

    /// First empty slot.
    pub fn free_slot(&self) -> Option<usize> {
        (0..SLOTS).find(|&i| self.bytes[i] == 0)
    }

    /// Iterate live `(slot, key, value)` triples.
    pub fn live(self) -> impl Iterator<Item = (usize, u64, u64)> + 'a {
        (0..SLOTS).filter(move |&i| self.fp(i) != 0).map(move |i| {
            let (k, v) = self.record(i);
            (i, k, v)
        })
    }
}

/// Read a whole bucket with one 256 B access (the PMEM-friendly probe).
#[inline]
pub fn load(region: &Region, bucket_off: u64) -> BucketSnapshot<'_> {
    BucketSnapshot {
        bytes: region.read(bucket_off, BUCKET_BYTES, AccessHint::Random),
    }
}

/// Write + persist the record of `slot`, then its fingerprint — the
/// crash-consistent publication order.
pub fn publish(region: &mut Region, bucket_off: u64, slot: usize, fp: u8, key: u64, value: u64) {
    debug_assert!(slot < SLOTS);
    debug_assert_ne!(fp, 0);
    let rec_off = bucket_off + REC_OFF + slot as u64 * REC_SIZE;
    let mut rec = [0u8; 16];
    rec[..8].copy_from_slice(&key.to_le_bytes());
    rec[8..].copy_from_slice(&value.to_le_bytes());
    region
        .try_ntstore(rec_off, &rec, AccessHint::Random)
        .expect("record in bounds");
    region.sfence();
    region
        .try_ntstore(bucket_off + slot as u64, &[fp], AccessHint::Random)
        .expect("fingerprint in bounds");
    region.sfence();
}

/// Update the value of an existing slot in place (record overwrite is a
/// single ≤8-byte atomic-enough ntstore; the fingerprint stays valid).
pub fn update_value(region: &mut Region, bucket_off: u64, slot: usize, value: u64) {
    let val_off = bucket_off + REC_OFF + slot as u64 * REC_SIZE + 8;
    region
        .try_ntstore(val_off, &value.to_le_bytes(), AccessHint::Random)
        .expect("value in bounds");
    region.sfence();
}

/// Clear a slot (persisted fingerprint zero = tombstone-free removal).
pub fn clear_slot(region: &mut Region, bucket_off: u64, slot: usize) {
    region
        .try_ntstore(bucket_off + slot as u64, &[0u8], AccessHint::Random)
        .expect("fingerprint in bounds");
    region.sfence();
}

/// Insert or update `key` within this bucket only.
pub fn insert(region: &mut Region, bucket_off: u64, fp: u8, key: u64, value: u64) -> BucketInsert {
    let snap = load(region, bucket_off);
    if let Some(slot) = snap.find(fp, key) {
        update_value(region, bucket_off, slot, value);
        return BucketInsert::Updated;
    }
    match snap.free_slot() {
        Some(slot) => {
            publish(region, bucket_off, slot, fp, key, value);
            BucketInsert::Inserted
        }
        None => BucketInsert::Full,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use pmem_sim::topology::SocketId;
    use pmem_store::Namespace;

    fn region() -> Region {
        Namespace::devdax(SocketId(0), 1 << 20)
            .alloc_region(BUCKET_BYTES * 4)
            .unwrap()
    }

    #[test]
    fn publish_then_load_round_trips() {
        let mut r = region();
        publish(&mut r, 0, 3, 0xAB, 111, 222);
        let snap = load(&r, 0);
        assert_eq!(snap.fp(3), 0xAB);
        assert_eq!(snap.record(3), (111, 222));
        assert_eq!(snap.occupancy(), 1);
        assert_eq!(snap.find(0xAB, 111), Some(3));
        assert_eq!(snap.find(0xAB, 999), None);
        assert_eq!(snap.find(0xAC, 111), None);
    }

    #[test]
    fn insert_fills_update_and_reports_full() {
        let mut r = region();
        for k in 0..SLOTS as u64 {
            assert_eq!(insert(&mut r, 256, 7, k, k * 10), BucketInsert::Inserted);
        }
        assert_eq!(insert(&mut r, 256, 7, 3, 999), BucketInsert::Updated);
        assert_eq!(load(&r, 256).record(3).1, 999);
        assert_eq!(insert(&mut r, 256, 7, 10_000, 0), BucketInsert::Full);
        assert_eq!(load(&r, 256).occupancy(), SLOTS);
    }

    #[test]
    fn clear_slot_frees_space() {
        let mut r = region();
        publish(&mut r, 0, 0, 5, 1, 2);
        clear_slot(&mut r, 0, 0);
        let snap = load(&r, 0);
        assert_eq!(snap.occupancy(), 0);
        assert_eq!(snap.free_slot(), Some(0));
    }

    #[test]
    fn crash_between_record_and_fingerprint_hides_the_record() {
        // Simulate the torn insert by doing the steps manually.
        let mut r = region();
        let rec_off = 16;
        r.ntstore(rec_off, &42u64.to_le_bytes());
        r.sfence(); // record persisted …
        r.ntstore(0, &[0x99u8]); // … fingerprint written but NOT fenced
        r.crash();
        let snap = load(&r, 0);
        assert_eq!(snap.occupancy(), 0, "unfenced fingerprint must not survive");
    }

    #[test]
    fn published_records_survive_crashes() {
        let mut r = region();
        publish(&mut r, 0, 1, 9, 77, 88);
        r.crash();
        let snap = load(&r, 0);
        assert_eq!(snap.find(9, 77), Some(1));
        assert_eq!(snap.record(1).1, 88);
    }

    #[test]
    fn live_iterates_only_occupied_slots() {
        let mut r = region();
        publish(&mut r, 0, 0, 1, 10, 100);
        publish(&mut r, 0, 5, 2, 20, 200);
        let snap = load(&r, 0);
        let live: Vec<_> = snap.live().collect();
        assert_eq!(live, vec![(0, 10, 100), (5, 20, 200)]);
    }

    #[test]
    fn bucket_probe_costs_one_random_256b_read() {
        let r = region();
        let before = r.tracker().snapshot();
        let _ = load(&r, 0);
        let delta = r.tracker().snapshot().since(&before);
        assert_eq!(delta.read_ops, 1);
        assert_eq!(delta.rand_read_bytes, 256);
    }
}
