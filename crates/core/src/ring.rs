//! Persistent shared-memory syscall rings: the synchronous convention's only
//! transport.
//!
//! An io_uring style pair of fixed-slot queues lives *inside* the process's
//! shared heap:
//!
//! * the **submission queue** (SQ): the process encodes each call directly
//!   into the next free slot and publishes it by advancing the tail index;
//! * the **completion queue** (CQ): the kernel encodes each result into the
//!   next free slot, advances the tail and notifies the waiting process;
//! * the **registered-buffer table**: a small pool of fixed-size, adjacent
//!   buffers holding frames too large for a slot.
//!
//! Each queue is single-producer/single-consumer: the process owns the SQ
//! tail and CQ head, the kernel owns the SQ head and CQ tail.  Indices are
//! free-running `u32`s (slot = index % slots), mirroring io_uring, so empty
//! is `head == tail` and full is `tail - head == slots`.  The guest can write
//! every index word, so an occupancy above `slots` marks the queue corrupt:
//! it then has no space and yields no entries.
//!
//! The doorbell protocol avoids a kernel wake-up per submission: the kernel
//! sets the `NEED_WAKEUP` flag in the SQ header only once it has drained the
//! queue dry, and the process rings the doorbell (a kernel event, modelling
//! `Atomics.notify` on the kernel's wait address) only when it observes the
//! flag set — i.e. only on empty→non-empty transitions.
//!
//! Slot payloads reuse the exact wire encoding of [`crate::Syscall`] and
//! [`crate::syscall::SysResult`]; the frame codec stays the oracle for what
//! travels through a slot.  Both directions share one spill form: a frame
//! larger than a slot is written into a run of adjacent registered buffers
//! claimed by the producer, and the slot carries only a
//! [`SysResult::DataFixed`] reference to it (flagged in the entry's length
//! word).  The consumer copies the frame out and releases the run.  A frame
//! larger than the whole table cannot travel and is refused on push.
//!
//! # Example
//!
//! A call crosses a ring slot in its ordinary wire encoding and comes back
//! out identical:
//!
//! ```
//! use browsix_core::ring::{Ring, RingGeometry, RING_REGION_BYTES};
//! use browsix_core::{wire::Reader, Syscall};
//!
//! let sab = browsix_browser::SharedArrayBuffer::new(RING_REGION_BYTES as usize);
//! let ring = Ring::new(sab, RingGeometry::standard(0));
//!
//! let call = Syscall::Read { fd: 3, len: 512 };
//! let mut payload = Vec::new();
//! call.encode_into(&mut payload);
//! assert!(ring.push_sqe(1, &payload).is_ok());
//!
//! let (user_data, frame) = ring.pop_sqe().unwrap();
//! assert_eq!(user_data, 1);
//! assert_eq!(Syscall::decode_from(&mut Reader::new(&frame.unwrap())), Some(call));
//! ```

use browsix_browser::SharedArrayBuffer;
use browsix_fs::Errno;

use crate::syscall::SysResult;
use crate::wire::Reader;

/// Number of slots in each queue (power of two).
pub const RING_SLOTS: u32 = 64;
/// Byte size of one slot: an 8-byte entry header (`user_data`, payload
/// length) plus payload capacity.
pub const RING_SLOT_BYTES: u32 = 256;
/// Byte size of a queue header: head, tail, flags, one reserved word.
pub const RING_HEADER_BYTES: u32 = 16;
/// Byte size of one full queue (header + slots).
pub const RING_BYTES: u32 = RING_HEADER_BYTES + RING_SLOTS * RING_SLOT_BYTES;
/// Number of registered buffers.
pub const REG_BUF_COUNT: u32 = 7;
/// Byte size of one registered buffer.
pub const REG_BUF_BYTES: u32 = 64 * 1024;
/// Byte size of the registered-buffer table header (allocation bitmap word
/// plus reserved words).
pub const REG_BUF_TABLE_HEADER_BYTES: u32 = 16;
/// Byte size of the whole registered-buffer table.
pub const REG_BUF_TABLE_BYTES: u32 = REG_BUF_TABLE_HEADER_BYTES + REG_BUF_COUNT * REG_BUF_BYTES;
/// Byte size of the whole ring region (SQ + CQ + registered buffers).
pub const RING_REGION_BYTES: u32 = 2 * RING_BYTES + REG_BUF_TABLE_BYTES;

/// SQ header flag: the kernel has drained the queue dry and parked; the next
/// submission must ring the doorbell.
pub const NEED_WAKEUP: i32 = 1;

/// Maximum payload bytes one slot can carry.
pub const SLOT_PAYLOAD_BYTES: u32 = RING_SLOT_BYTES - 8;

/// Flag in an entry's length word: the payload is a [`SysResult::DataFixed`]
/// reference to a frame spilled into the registered buffers.
const SPILLED: u32 = 1 << 31;

/// The allocation bitmap is one 32-bit word.
const MAX_BUF_COUNT: u32 = 32;

/// Where the two queues and the buffer table sit inside the shared heap.
///
/// Carried by [`crate::Syscall::RingSetup`]; the kernel validates a geometry
/// against the registered heap before accepting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingGeometry {
    /// Byte offset of the SQ header.
    pub sq_offset: u32,
    /// Byte offset of the CQ header.
    pub cq_offset: u32,
    /// Slots per queue (power of two).
    pub slots: u32,
    /// Byte size of one slot.
    pub slot_bytes: u32,
    /// Byte offset of the registered-buffer table.
    pub buf_offset: u32,
    /// Number of registered buffers (at most 32).
    pub buf_count: u32,
    /// Byte size of one registered buffer.
    pub buf_bytes: u32,
}

impl RingGeometry {
    /// The standard layout: SQ, CQ and buffer table packed back to back
    /// starting at `region_offset` within the shared heap.
    pub fn standard(region_offset: u32) -> RingGeometry {
        RingGeometry {
            sq_offset: region_offset,
            cq_offset: region_offset + RING_BYTES,
            slots: RING_SLOTS,
            slot_bytes: RING_SLOT_BYTES,
            buf_offset: region_offset + 2 * RING_BYTES,
            buf_count: REG_BUF_COUNT,
            buf_bytes: REG_BUF_BYTES,
        }
    }

    /// Whether this geometry is sane and fits a heap of `heap_len` bytes.
    pub fn validate(&self, heap_len: usize) -> bool {
        let queue_bytes = match self
            .slot_bytes
            .checked_mul(self.slots)
            .and_then(|b| b.checked_add(RING_HEADER_BYTES))
        {
            Some(b) => b as usize,
            None => return false,
        };
        let buf_bytes = match self
            .buf_bytes
            .checked_mul(self.buf_count)
            .and_then(|b| b.checked_add(REG_BUF_TABLE_HEADER_BYTES))
        {
            Some(b) => b as usize,
            None => return false,
        };
        let in_bounds = |off: u32, len: usize| (off as usize).checked_add(len).map(|end| end <= heap_len) == Some(true);
        self.slots.is_power_of_two()
            && self.slot_bytes > 8
            && self.buf_count <= MAX_BUF_COUNT
            && in_bounds(self.sq_offset, queue_bytes)
            && in_bounds(self.cq_offset, queue_bytes)
            && in_bounds(self.buf_offset, buf_bytes)
    }

    /// Byte offset of the CQ tail word — the address the process blocks on
    /// with `Atomics.wait` while expecting completions.
    pub fn cq_tail_off(&self) -> usize {
        self.cq_offset as usize + 4
    }
    fn slot_off(&self, queue: u32, index: u32) -> usize {
        queue as usize + RING_HEADER_BYTES as usize + (index % self.slots * self.slot_bytes) as usize
    }
    fn buf_off(&self, index: u32) -> usize {
        self.buf_offset as usize + REG_BUF_TABLE_HEADER_BYTES as usize + (index * self.buf_bytes) as usize
    }

    /// Maximum payload bytes one slot of this geometry can carry.
    pub fn slot_payload_bytes(&self) -> usize {
        self.slot_bytes as usize - 8
    }

    /// The largest frame that can travel: one spilled across every
    /// registered buffer.
    pub fn max_frame_bytes(&self) -> usize {
        self.buf_count as usize * self.buf_bytes as usize
    }

    /// The largest `read` result one completion carries (a `Data` frame
    /// filling the whole buffer table).
    pub fn max_read_bytes(&self) -> u32 {
        let mut empty = Vec::new();
        SysResult::Data(Vec::new()).encode_into(&mut empty);
        self.max_frame_bytes().saturating_sub(empty.len()) as u32
    }

    /// Registered buffers a spilled frame of `len` bytes occupies, if it
    /// fits the table at all.
    fn bufs_for(&self, len: usize) -> Option<u32> {
        let n = len.div_ceil(self.buf_bytes.max(1) as usize);
        (n > 0 && n <= self.buf_count as usize).then_some(n as u32)
    }
}

/// Why an entry could not be published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// No free slot, or no free run of registered buffers for a spilled
    /// frame; retry once the consumer catches up.
    Full,
    /// The frame is larger than the whole registered-buffer table.
    TooBig,
    /// The queue's index words are corrupt (occupancy above `slots`).
    Corrupt,
}

/// One popped entry: the producer's `user_data` and its frame, or `EINVAL`
/// when the entry's spill reference is bogus.
pub type Entry = (u32, Result<Vec<u8>, Errno>);

/// One side's handle to a ring pair mapped into a shared heap.
///
/// Both the kernel and the `SyscallClient` hold one of these over the *same*
/// `SharedArrayBuffer`; the SPSC ownership discipline (documented on the
/// module) is what keeps the two sides coherent.
#[derive(Debug, Clone)]
pub struct Ring {
    sab: SharedArrayBuffer,
    geo: RingGeometry,
}

impl Ring {
    /// Wraps a shared heap and a validated geometry.
    pub fn new(sab: SharedArrayBuffer, geo: RingGeometry) -> Ring {
        Ring { sab, geo }
    }

    /// The geometry this ring was mapped with.
    pub fn geometry(&self) -> &RingGeometry {
        &self.geo
    }

    /// The shared heap backing this ring.
    pub fn sab(&self) -> &SharedArrayBuffer {
        &self.sab
    }

    fn load(&self, off: usize) -> u32 {
        self.sab.load_u32(off).unwrap_or(0)
    }

    fn store(&self, off: usize, value: u32) {
        let _ = self.sab.store_i32(off, value as i32);
    }

    // --- both queues --------------------------------------------------------

    /// Published, unconsumed entries in the queue at `queue`, or `None` when
    /// the index words claim more than the queue holds.
    fn occupancy(&self, queue: u32) -> Option<u32> {
        let used = self.load(queue as usize + 4).wrapping_sub(self.load(queue as usize));
        (used <= self.geo.slots).then_some(used)
    }

    fn space(&self, queue: u32) -> u32 {
        self.occupancy(queue).map_or(0, |used| self.geo.slots - used)
    }

    /// Whether either queue's index words are corrupt.  A corrupt ring
    /// carries nothing further: the kernel stops draining it and the
    /// client fails the calls it is waiting on.
    pub fn is_corrupt(&self) -> bool {
        self.occupancy(self.geo.sq_offset).is_none() || self.occupancy(self.geo.cq_offset).is_none()
    }

    /// Producer: writes one entry into the next free slot (spilling a frame
    /// too large for it into registered buffers) and publishes it.  The CQ
    /// tail is published with a notify, waking a process blocked on it.
    fn push(&self, queue: u32, user_data: u32, frame: &[u8]) -> Result<(), PushError> {
        if self.occupancy(queue).ok_or(PushError::Corrupt)? == self.geo.slots {
            return Err(PushError::Full);
        }
        let mut entry = Vec::with_capacity(8 + frame.len().min(self.geo.slot_payload_bytes()));
        entry.extend_from_slice(&user_data.to_le_bytes());
        let mut spilled = None;
        if frame.len() <= self.geo.slot_payload_bytes() {
            entry.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            entry.extend_from_slice(frame);
        } else {
            let count = self.geo.bufs_for(frame.len()).ok_or(PushError::TooBig)?;
            let first = self.alloc_bufs(count).ok_or(PushError::Full)?;
            if self.sab.write_bytes(self.geo.buf_off(first), frame).is_err() {
                self.free_bufs(first, count);
                return Err(PushError::Corrupt);
            }
            let mut reference = Vec::with_capacity(9);
            SysResult::DataFixed {
                buf: first,
                len: frame.len() as u32,
            }
            .encode_into(&mut reference);
            entry.extend_from_slice(&(reference.len() as u32 | SPILLED).to_le_bytes());
            entry.extend_from_slice(&reference);
            spilled = Some((first, count));
        }
        let tail_off = queue as usize + 4;
        let tail = self.load(tail_off);
        if self.sab.write_bytes(self.geo.slot_off(queue, tail), &entry).is_err() {
            if let Some((first, count)) = spilled {
                self.free_bufs(first, count);
            }
            return Err(PushError::Corrupt);
        }
        if queue == self.geo.cq_offset {
            let _ = self.sab.store_and_notify(tail_off, tail.wrapping_add(1) as i32);
        } else {
            self.store(tail_off, tail.wrapping_add(1));
        }
        Ok(())
    }

    /// Consumer: pops the oldest entry, if any (none from a corrupt queue),
    /// copying a spilled frame out and releasing its buffers.
    fn pop(&self, queue: u32) -> Option<Entry> {
        if self.occupancy(queue)? == 0 {
            return None;
        }
        let head = self.load(queue as usize);
        let slot = self.geo.slot_off(queue, head);
        let header = self.sab.read_bytes(slot, 8).ok()?;
        let user_data = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let len_word = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let len = ((len_word & !SPILLED) as usize).min(self.geo.slot_payload_bytes());
        let payload = self.sab.read_bytes(slot + 8, len).ok()?;
        self.store(queue as usize, head.wrapping_add(1));
        let frame = if len_word & SPILLED == 0 {
            Ok(payload)
        } else {
            self.unspill(&payload).ok_or(Errno::EINVAL)
        };
        Some((user_data, frame))
    }

    /// Resolves an untrusted spill reference: the run must lie inside the
    /// table, cover exactly `len` bytes and be allocated.
    fn unspill(&self, reference: &[u8]) -> Option<Vec<u8>> {
        let Some(SysResult::DataFixed { buf, len }) = SysResult::decode_from(&mut Reader::new(reference)) else {
            return None;
        };
        let count = self.geo.bufs_for(len as usize)?;
        if buf.checked_add(count)? > self.geo.buf_count {
            return None;
        }
        let run = run_mask(buf, count);
        let bitmap = self.sab.load_i32(self.geo.buf_offset as usize).ok()? as u32;
        if bitmap & run != run {
            return None;
        }
        let frame = self.sab.read_bytes(self.geo.buf_off(buf), len as usize).ok();
        self.free_bufs(buf, count);
        frame
    }

    // --- submission queue -------------------------------------------------

    /// Free SQ slots from the producer's point of view (0 when corrupt).
    pub fn sq_space(&self) -> u32 {
        self.space(self.geo.sq_offset)
    }

    /// Whether the SQ currently holds no published entries (or is corrupt,
    /// and so yields none).
    pub fn sq_is_empty(&self) -> bool {
        self.occupancy(self.geo.sq_offset).unwrap_or(0) == 0
    }

    /// Process: publishes one submission frame.
    ///
    /// # Errors
    ///
    /// Nothing is published on error; see [`PushError`].
    pub fn push_sqe(&self, user_data: u32, frame: &[u8]) -> Result<(), PushError> {
        self.push(self.geo.sq_offset, user_data, frame)
    }

    /// Kernel: pops the oldest submission, if any.
    pub fn pop_sqe(&self) -> Option<Entry> {
        self.pop(self.geo.sq_offset)
    }

    fn sq_flags_off(&self) -> usize {
        self.geo.sq_offset as usize + 8
    }

    /// Current SQ flags word.
    pub fn sq_flags(&self) -> i32 {
        self.sab.load_i32(self.sq_flags_off()).unwrap_or(0)
    }

    /// Kernel: parks the queue — sets `NEED_WAKEUP` so the next submission
    /// rings the doorbell.
    pub fn set_need_wakeup(&self) {
        let _ = self.sab.fetch_or_i32(self.sq_flags_off(), NEED_WAKEUP);
    }

    /// Kernel: clears `NEED_WAKEUP` before re-draining.
    pub fn clear_need_wakeup(&self) {
        let _ = self.sab.fetch_and_i32(self.sq_flags_off(), !NEED_WAKEUP);
    }

    /// Process: atomically consumes the `NEED_WAKEUP` flag.  Returns whether
    /// it was set, i.e. whether the doorbell must ring for this submission.
    pub fn take_doorbell(&self) -> bool {
        matches!(
            self.sab.fetch_and_i32(self.sq_flags_off(), !NEED_WAKEUP),
            Ok(old) if old & NEED_WAKEUP != 0
        )
    }

    // --- completion queue -------------------------------------------------

    /// Free CQ slots from the producer's (kernel's) point of view (0 when
    /// corrupt).
    pub fn cq_space(&self) -> u32 {
        self.space(self.geo.cq_offset)
    }

    /// The CQ tail index, which the process also uses as the `Atomics.wait`
    /// expected value while blocking for completions.
    pub fn cq_tail(&self) -> u32 {
        self.load(self.geo.cq_tail_off())
    }

    /// Kernel: publishes one completion frame and notifies the process
    /// blocked on the CQ tail word.
    ///
    /// # Errors
    ///
    /// Nothing is published on error; on [`PushError::Full`] the caller holds
    /// the completion in an overflow queue and retries later.
    pub fn push_cqe(&self, user_data: u32, frame: &[u8]) -> Result<(), PushError> {
        self.push(self.geo.cq_offset, user_data, frame)
    }

    /// Process: pops the oldest completion, if any.
    pub fn pop_cqe(&self) -> Option<Entry> {
        self.pop(self.geo.cq_offset)
    }

    // --- registered buffers -----------------------------------------------

    /// Claims a run of `count` adjacent free buffers in the shared
    /// allocation bitmap and returns the first index.
    fn alloc_bufs(&self, count: u32) -> Option<u32> {
        let bitmap_off = self.geo.buf_offset as usize;
        (0..=self.geo.buf_count.checked_sub(count)?).find(|&first| {
            let run = run_mask(first, count);
            // Skip runs visibly taken; the atomic claim decides the rest.
            self.sab.load_i32(bitmap_off).is_ok_and(|bits| bits as u32 & run == 0) && self.claim(run)
        })
    }

    /// Sets the bitmap bits of `run` with one atomic `or`.  Kernel and
    /// process both claim, so only the old value the `or` returns proves no
    /// bit was already held; a partly held run is rolled back (just the bits
    /// this call set) and reported as not claimed.
    fn claim(&self, run: u32) -> bool {
        let bitmap_off = self.geo.buf_offset as usize;
        let Ok(old) = self.sab.fetch_or_i32(bitmap_off, run as i32) else {
            return false;
        };
        let old = old as u32;
        if old & run == 0 {
            return true;
        }
        let _ = self.sab.fetch_and_i32(bitmap_off, !(run & !old) as i32);
        false
    }

    /// Releases a run of buffers claimed by [`Ring::alloc_bufs`].
    fn free_bufs(&self, first: u32, count: u32) {
        let _ = self
            .sab
            .fetch_and_i32(self.geo.buf_offset as usize, !run_mask(first, count) as i32);
    }
}

/// Bitmap bits of the run `first..first + count`.
fn run_mask(first: u32, count: u32) -> u32 {
    let bits = if count >= 32 { u32::MAX } else { (1u32 << count) - 1 };
    bits.checked_shl(first).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> Ring {
        let geo = RingGeometry::standard(0);
        let sab = SharedArrayBuffer::new(RING_REGION_BYTES as usize);
        Ring::new(sab, geo)
    }

    fn pop_ok(entry: Option<Entry>) -> Option<(u32, Vec<u8>)> {
        entry.map(|(user_data, frame)| (user_data, frame.expect("valid frame")))
    }

    fn bitmap(ring: &Ring) -> u32 {
        ring.sab.load_i32(ring.geo.buf_offset as usize).unwrap() as u32
    }

    #[test]
    fn standard_geometry_is_valid_and_packed() {
        let geo = RingGeometry::standard(512 * 1024);
        assert!(geo.validate(1024 * 1024));
        assert_eq!(geo.cq_offset - geo.sq_offset, RING_BYTES);
        assert_eq!(geo.buf_offset - geo.cq_offset, RING_BYTES);
        assert!(geo.buf_offset + REG_BUF_TABLE_BYTES <= 1024 * 1024);
        // Too small a heap is rejected.
        assert!(!geo.validate(512 * 1024));
        // Non-power-of-two slot counts are rejected.
        let mut bad = geo;
        bad.slots = 48;
        assert!(!bad.validate(1024 * 1024));
        // More buffers than the one-word bitmap can track are rejected.
        let mut bad = geo;
        bad.buf_count = 33;
        bad.buf_bytes = 8;
        assert!(!bad.validate(1024 * 1024));
    }

    #[test]
    fn sq_round_trips_in_fifo_order() {
        let ring = ring();
        assert!(ring.sq_is_empty());
        assert!(ring.push_sqe(7, b"first").is_ok());
        assert!(ring.push_sqe(8, b"second").is_ok());
        assert!(!ring.sq_is_empty());
        assert_eq!(pop_ok(ring.pop_sqe()), Some((7, b"first".to_vec())));
        assert_eq!(pop_ok(ring.pop_sqe()), Some((8, b"second".to_vec())));
        assert_eq!(ring.pop_sqe(), None);
    }

    #[test]
    fn sq_rejects_overfill_and_oversize() {
        let ring = ring();
        for i in 0..RING_SLOTS {
            assert!(ring.push_sqe(i, b"x").is_ok());
        }
        assert_eq!(ring.sq_space(), 0);
        assert_eq!(ring.push_sqe(99, b"full"), Err(PushError::Full));
        assert!(ring.pop_sqe().is_some());
        assert!(ring.push_sqe(99, b"now fits").is_ok());
        // Larger than the whole buffer table: refused outright.
        let oversized = vec![0u8; ring.geo.max_frame_bytes() + 1];
        assert!(ring.pop_sqe().is_some());
        assert_eq!(ring.push_sqe(100, &oversized), Err(PushError::TooBig));
        let exactly = vec![0u8; SLOT_PAYLOAD_BYTES as usize];
        assert!(ring.push_sqe(100, &exactly).is_ok());
        assert_eq!(bitmap(&ring), 0, "a frame that fits its slot spills nothing");
    }

    #[test]
    fn indices_wrap_around() {
        let ring = ring();
        // Push/pop enough entries to wrap the u8-sized slot window many times.
        for i in 0..(RING_SLOTS * 3 + 5) {
            assert!(ring.push_sqe(i, &i.to_le_bytes()).is_ok());
            let (user_data, payload) = pop_ok(ring.pop_sqe()).unwrap();
            assert_eq!(user_data, i);
            assert_eq!(payload, i.to_le_bytes());
        }
    }

    #[test]
    fn cq_round_trips_and_notifies() {
        let ring = ring();
        let before = ring.cq_tail();
        assert!(ring.push_cqe(3, b"done").is_ok());
        assert_eq!(ring.cq_tail(), before.wrapping_add(1));
        assert_eq!(pop_ok(ring.pop_cqe()), Some((3, b"done".to_vec())));
        assert_eq!(ring.pop_cqe(), None);
    }

    #[test]
    fn doorbell_flag_protocol() {
        let ring = ring();
        // No flag: no doorbell needed.
        assert!(!ring.take_doorbell());
        ring.set_need_wakeup();
        assert_eq!(ring.sq_flags() & NEED_WAKEUP, NEED_WAKEUP);
        // First submitter consumes the flag; the second does not ring again.
        assert!(ring.take_doorbell());
        assert!(!ring.take_doorbell());
        ring.set_need_wakeup();
        ring.clear_need_wakeup();
        assert!(!ring.take_doorbell());
    }

    #[test]
    fn registered_buffers_allocate_fill_and_free() {
        let ring = ring();
        // A frame just over one buffer takes a run of two; one filling the
        // table takes all of them, and both come back intact in order.
        let two: Vec<u8> = (0..REG_BUF_BYTES as usize + 1).map(|i| i as u8).collect();
        assert!(ring.push_cqe(1, &two).is_ok());
        assert_eq!(bitmap(&ring), 0b11);
        let rest = vec![7u8; (REG_BUF_COUNT as usize - 2) * REG_BUF_BYTES as usize];
        assert!(ring.push_cqe(2, &rest).is_ok());
        assert_eq!(bitmap(&ring), (1 << REG_BUF_COUNT) - 1);
        assert_eq!(ring.push_cqe(3, &two), Err(PushError::Full), "table exhausted");
        assert_eq!(pop_ok(ring.pop_cqe()), Some((1, two.clone())));
        assert_eq!(
            bitmap(&ring),
            (1 << REG_BUF_COUNT) - 1 - 0b11,
            "consumer releases the run"
        );
        assert!(ring.push_cqe(3, &two).is_ok(), "freed run is reused");
        assert_eq!(pop_ok(ring.pop_cqe()), Some((2, rest)));
        assert_eq!(pop_ok(ring.pop_cqe()), Some((3, two)));
        assert_eq!(bitmap(&ring), 0);
        // The largest frame fills every buffer.
        let max = vec![1u8; ring.geo.max_frame_bytes()];
        assert!(ring.push_sqe(4, &max).is_ok());
        assert_eq!(pop_ok(ring.pop_sqe()), Some((4, max)));
    }

    #[test]
    fn guest_written_indices_never_underflow() {
        // head = tail + slots + 5: an occupancy no queue can hold.
        let ring = ring();
        for queue in [ring.geo.sq_offset, ring.geo.cq_offset] {
            let tail = ring.load(queue as usize + 4);
            ring.store(queue as usize, tail.wrapping_add(RING_SLOTS + 5));
        }
        assert!(ring.is_corrupt());
        assert_eq!((ring.sq_space(), ring.cq_space()), (0, 0));
        assert_eq!(ring.push_sqe(1, b"x"), Err(PushError::Corrupt));
        assert_eq!(ring.push_cqe(1, b"x"), Err(PushError::Corrupt));
        assert!(ring.pop_sqe().is_none() && ring.pop_cqe().is_none());
        assert!(ring.sq_is_empty());
    }

    #[test]
    fn bogus_spill_references_are_einval() {
        let ring = ring();
        let publish = |buf: u32, len: u32| {
            let mut reference = Vec::new();
            SysResult::DataFixed { buf, len }.encode_into(&mut reference);
            let tail = ring.load(ring.geo.sq_offset as usize + 4);
            let mut entry = 9u32.to_le_bytes().to_vec();
            entry.extend_from_slice(&(reference.len() as u32 | SPILLED).to_le_bytes());
            entry.extend_from_slice(&reference);
            ring.sab
                .write_bytes(ring.geo.slot_off(ring.geo.sq_offset, tail), &entry)
                .unwrap();
            ring.store(ring.geo.sq_offset as usize + 4, tail + 1);
            ring.pop_sqe().unwrap()
        };
        // Unallocated, out of range, longer than the table, empty.
        assert_eq!(publish(0, 300), (9, Err(Errno::EINVAL)));
        assert_eq!(publish(REG_BUF_COUNT, 300), (9, Err(Errno::EINVAL)));
        assert_eq!(publish(u32::MAX, 300), (9, Err(Errno::EINVAL)));
        assert_eq!(
            publish(0, ring.geo.max_frame_bytes() as u32 + 1),
            (9, Err(Errno::EINVAL))
        );
        assert_eq!(publish(0, 0), (9, Err(Errno::EINVAL)));
        // A run whose tail is not allocated is refused and left untouched.
        let _ = ring.sab.fetch_or_i32(ring.geo.buf_offset as usize, 0b1);
        assert_eq!(publish(0, REG_BUF_BYTES + 1), (9, Err(Errno::EINVAL)));
        assert_eq!(bitmap(&ring), 0b1);
    }

    #[test]
    fn a_claim_over_a_held_buffer_rolls_back() {
        let ring = ring();
        let _ = ring.sab.fetch_or_i32(ring.geo.buf_offset as usize, 0b010);
        assert!(!ring.claim(0b111));
        assert_eq!(bitmap(&ring), 0b010, "only the bits this claim set are rolled back");
        assert!(ring.claim(0b101));
        assert_eq!(bitmap(&ring), 0b111);
    }

    #[test]
    fn concurrent_claims_never_share_a_buffer() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let ring = ring();
        let held = Arc::new(AtomicU32::new(0));
        let threads: Vec<_> = (0..2u32)
            .map(|t| {
                let (ring, held) = (ring.clone(), held.clone());
                std::thread::spawn(move || {
                    for i in 0..20_000u32 {
                        let count = 1 + (i + t) % 3;
                        let Some(first) = ring.alloc_bufs(count) else {
                            continue;
                        };
                        let run = run_mask(first, count);
                        let before = held.fetch_or(run, Ordering::SeqCst);
                        assert_eq!(before & run, 0, "buffer handed out twice");
                        held.fetch_and(!run, Ordering::SeqCst);
                        ring.free_bufs(first, count);
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        assert_eq!(bitmap(&ring), 0);
    }
}
