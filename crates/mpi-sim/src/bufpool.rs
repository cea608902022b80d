//! Reusable payload buffers.
//!
//! A point-to-point payload is owned by exactly one party at a time: the
//! sender takes a buffer from the pool and encodes into it — a slice in
//! one copy, or piece by piece where the data lies strided
//! ([`Comm::isend_with`](crate::Comm::isend_with)) — the
//! [`Envelope`](crate::mailbox::Envelope) carries it — by value, never
//! shared — through the destination mailbox, and the receiver hands it
//! back with [`BufPool::recycle`] once read. The receiver reads it where
//! it wants the bytes to land: a nonblocking receive's wait hands its
//! reader the buffer's bytes
//! ([`Request::wait_with`](crate::Request::wait_with)), which decodes
//! them straight into the caller's array — a halo into the field's ghost
//! cells — and the buffer goes back here as soon as the reader returns.
//! Nothing on that path is reference counted, and no receiver keeps a
//! buffer of its own, so a warm exchange makes no allocator request at
//! all: the buffer that carried the last message carries the next one.
//!
//! A collective's bulk contribution takes the same road: a member fills a
//! pooled buffer and *moves* it into the rendezvous; whoever holds it last
//! — a gather's root for as long as its view lives, the last reader of a
//! result everyone shares (`bcast`), or the rendezvous itself when nobody
//! came for it — hands it back on drop, so
//! round k+1 of a checkpoint schedule gathers through round k's buffers.
//! A scatter root's parts travel as one vector of such buffers; the
//! emptied vector comes back here too, so a warm scatter allocates
//! nothing at either end.

use bytes::BytesMut;
use parking_lot::Mutex;

/// A bounded stack of retired payload buffers.
///
/// Shared by all ranks of a communicator (senders take, receivers
/// recycle — they are different processes, so the pool must span both).
/// Bounded so a burst of large messages cannot pin memory forever.
#[derive(Debug)]
pub struct BufPool {
    bufs: Mutex<Vec<BytesMut>>,
    max: usize,
    /// The emptied parts vector of the last scatter.
    parts: Mutex<Vec<BytesMut>>,
}

impl Default for BufPool {
    fn default() -> Self {
        Self::new(Self::DEFAULT_MAX)
    }
}

impl BufPool {
    /// The bound of a [`Default`] pool.
    pub(crate) const DEFAULT_MAX: usize = 32;

    /// An empty pool retaining at most `max` buffers.
    pub fn new(max: usize) -> Self {
        BufPool { bufs: Mutex::new(Vec::new()), max, parts: Mutex::new(Vec::new()) }
    }

    /// An empty buffer with at least `cap` capacity: the pooled buffer
    /// that fits `cap` most tightly, or a fresh one when none is large
    /// enough. A too-small pooled buffer is never grown — that would be
    /// an allocator request although a large-enough buffer may sit one
    /// slot further down — and a small message does not walk off with a
    /// large buffer while a closer fit is pooled, so a mix of message
    /// sizes settles into one buffer per size in flight.
    ///
    /// The scan runs newest-first and stops at an exact fit, which is the
    /// top of the stack whenever messages of one size ping-pong.
    pub fn take(&self, cap: usize) -> BytesMut {
        let mut bufs = self.bufs.lock();
        let mut best: Option<(usize, usize)> = None;
        for (i, b) in bufs.iter().enumerate().rev() {
            let have = b.capacity();
            if have == cap {
                best = Some((i, have));
                break;
            }
            if have > cap && best.is_none_or(|(_, tightest)| have < tightest) {
                best = Some((i, have));
            }
        }
        match best {
            Some((i, _)) => bufs.swap_remove(i),
            None => {
                drop(bufs);
                BytesMut::with_capacity(cap)
            }
        }
    }

    /// Return a consumed payload's buffer to the pool (cleared, storage
    /// kept). Beyond `max` pooled buffers it is simply dropped.
    pub fn recycle(&self, mut buf: BytesMut) {
        buf.clear();
        let mut bufs = self.bufs.lock();
        if bufs.len() < self.max {
            bufs.push(buf);
        }
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.bufs.lock().len()
    }

    /// An empty vector with room for `n` buffers, for a scatter root's
    /// parts: the one [`recycle_parts`](Self::recycle_parts) kept (grown
    /// if it is too small), or a fresh one.
    pub fn take_parts(&self, n: usize) -> Vec<BytesMut> {
        let mut parts = std::mem::take(&mut *self.parts.lock());
        parts.reserve_exact(n);
        parts
    }

    /// Keep a scatter's parts vector, emptied, for the next
    /// [`take_parts`](Self::take_parts).
    pub fn recycle_parts(&self, mut parts: Vec<BytesMut>) {
        parts.clear();
        *self.parts.lock() = parts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_roundtrip_reuses_allocation() {
        let pool = BufPool::new(4);
        let mut b = pool.take(64);
        b.extend_from_slice(&[1, 2, 3]);
        let ptr = b.as_ptr();
        pool.recycle(b);
        assert_eq!(pool.pooled(), 1);
        let b2 = pool.take(8);
        assert!(b2.is_empty(), "recycled buffers come back cleared");
        assert!(b2.capacity() >= 64);
        // Same allocation came back (clear() keeps the storage).
        assert_eq!(b2.as_ptr(), ptr);
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn take_prefers_the_tightest_fit_and_never_grows_a_small_buffer() {
        let pool = BufPool::new(8);
        let caps = [2048usize, 131_072, 2064, 16];
        let mut held: Vec<BytesMut> = caps.iter().map(|&c| pool.take(c)).collect();
        let by_cap: Vec<(usize, *const u8)> =
            held.iter().map(|b| (b.capacity(), b.as_ptr())).collect();
        for b in held.drain(..) {
            pool.recycle(b);
        }
        // Exact fits come back whatever the stack order.
        for &(cap, ptr) in &by_cap {
            let b = pool.take(cap);
            assert_eq!((b.capacity(), b.as_ptr()), (cap, ptr));
            pool.recycle(b);
        }
        // 2050 bytes: the 2064 buffer is the tightest fit, not 131_072,
        // and certainly not the 2048 one grown.
        let b = pool.take(2050);
        assert_eq!(b.capacity(), 2064);
        // With that one out, the next-tightest is the large buffer.
        let c = pool.take(2050);
        assert_eq!(c.capacity(), 131_072);
        // Nothing pooled is large enough now: a fresh buffer, and the
        // small ones stay where they are.
        let pooled = pool.pooled();
        let d = pool.take(4096);
        assert_eq!(d.capacity(), 4096);
        assert_eq!(pool.pooled(), pooled);
    }

    #[test]
    fn a_parts_vector_comes_back_empty_with_its_room() {
        let pool = BufPool::new(4);
        let mut parts = pool.take_parts(3);
        let (ptr, cap) = (parts.as_ptr(), parts.capacity());
        assert!(parts.is_empty() && cap >= 3);
        parts.push(pool.take(8));
        pool.recycle_parts(parts);
        let again = pool.take_parts(2);
        assert_eq!((again.len(), again.as_ptr(), again.capacity()), (0, ptr, cap));
        // Taken and not given back: the next scatter gets a fresh one.
        assert_eq!(pool.take_parts(1).capacity(), 1);
    }

    #[test]
    fn pool_is_bounded() {
        let pool = BufPool::new(1);
        let a = pool.take(8);
        let b = pool.take(8);
        pool.recycle(a);
        pool.recycle(b); // beyond max: dropped
        assert_eq!(pool.pooled(), 1);
    }
}
