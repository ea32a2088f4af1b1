//! Per-worker scratch buffers recycled across keep-alive requests.
//!
//! Each worker thread owns one [`Scratch`] arena and threads it `&mut`
//! through the request loop: request-line/header lines, request bodies,
//! response heads, response bodies, and stream-copy buffers all draw from
//! the same small pool instead of allocating fresh per request. In steady
//! state (the paper's Figure-4 closed loop) the data path performs zero
//! buffer allocations per request.
//!
//! Two caps keep the arena honest:
//!
//! * a **shrink cap** ([`MAX_RECYCLED_CAPACITY`]) drops any returned buffer
//!   whose capacity grew past 1 MiB, so a single 16 MiB `file.read` does
//!   not pin that much memory on the worker forever;
//! * a **pool cap** ([`MAX_POOL_BUFFERS`]) bounds how many idle buffers a
//!   worker retains.
//!
//! Buffers handed out by [`Scratch::take`] are always empty (`len == 0`)
//! but may carry capacity from earlier requests — callers must never read
//! stale bytes, only append. The keep-alive isolation tests in
//! `tests/buffer_reuse.rs` assert no request ever observes a previous
//! request's bytes.

/// Returned buffers with more capacity than this are dropped rather than
/// pooled (shrink cap).
pub const MAX_RECYCLED_CAPACITY: usize = 1024 * 1024;

/// Maximum number of idle buffers retained per worker.
pub const MAX_POOL_BUFFERS: usize = 8;

/// A per-worker buffer pool. Not thread-safe by design: ownership follows
/// the worker thread, so take/recycle are plain `&mut` calls with no
/// atomics or locks on the hot path.
#[derive(Debug, Default)]
pub struct Scratch {
    pool: Vec<Vec<u8>>,
    /// The socket read buffer, zeroed once when first asked for.
    read: Vec<u8>,
    takes: u64,
    reuses: u64,
}

impl Scratch {
    /// New, empty arena.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Get an empty buffer, reusing pooled capacity when available.
    pub fn take(&mut self) -> Vec<u8> {
        self.takes = self.takes.wrapping_add(1);
        match self.pool.pop() {
            Some(buf) => {
                debug_assert!(buf.is_empty());
                self.reuses = self.reuses.wrapping_add(1);
                buf
            }
            None => Vec::new(),
        }
    }

    /// Return a buffer to the pool. Cleared immediately; dropped instead of
    /// pooled when it outgrew the shrink cap or the pool is full.
    pub fn recycle(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        if buf.capacity() == 0
            || buf.capacity() > MAX_RECYCLED_CAPACITY
            || self.pool.len() >= MAX_POOL_BUFFERS
        {
            return;
        }
        self.pool.push(buf);
    }

    /// A `len`-byte buffer for socket reads, the same one every time: it
    /// is zeroed when it is first made (or grown), never again — a read
    /// overwrites what it returns, and nothing reads past that.
    pub(crate) fn read_buffer(&mut self, len: usize) -> &mut [u8] {
        if self.read.len() < len {
            self.read.resize(len, 0);
        }
        &mut self.read[..len]
    }

    /// Total `take` calls (allocation or reuse).
    pub fn takes(&self) -> u64 {
        self.takes
    }

    /// `take` calls served from the pool without allocating.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Idle buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_reuses_capacity() {
        let mut s = Scratch::new();
        let mut a = s.take();
        assert_eq!(s.reuses(), 0);
        a.extend_from_slice(b"hello world");
        let cap = a.capacity();
        s.recycle(a);
        let b = s.take();
        assert!(b.is_empty(), "recycled buffer must be cleared");
        assert_eq!(b.capacity(), cap, "capacity is retained");
        assert_eq!(s.reuses(), 1);
        assert_eq!(s.takes(), 2);
    }

    #[test]
    fn oversized_buffers_dropped() {
        let mut s = Scratch::new();
        let big = Vec::with_capacity(MAX_RECYCLED_CAPACITY + 1);
        s.recycle(big);
        assert_eq!(s.pooled(), 0, "shrink cap must drop oversized buffers");
        let at_cap = Vec::with_capacity(MAX_RECYCLED_CAPACITY);
        s.recycle(at_cap);
        assert_eq!(s.pooled(), 1);
    }

    #[test]
    fn zero_capacity_buffers_not_pooled() {
        let mut s = Scratch::new();
        s.recycle(Vec::new());
        assert_eq!(s.pooled(), 0);
    }

    #[test]
    fn pool_size_bounded() {
        let mut s = Scratch::new();
        for _ in 0..MAX_POOL_BUFFERS + 4 {
            s.recycle(Vec::with_capacity(16));
        }
        assert_eq!(s.pooled(), MAX_POOL_BUFFERS);
    }
}
