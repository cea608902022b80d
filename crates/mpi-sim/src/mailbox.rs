//! Per-process message queues with MPI-style matching.
//!
//! Sends are *eager*: the sender deposits an [`Envelope`] into the
//! destination mailbox and continues (buffered send semantics — the only
//! mode the paper's application uses). Receives match on
//! `(communicator id, source rank, tag)` with `ANY` wildcards, in FIFO
//! order per matching stream, exactly like MPI's non-overtaking rule.
//!
//! Ownership: between post and match the payload buffer belongs to the
//! [`Envelope`] — and so to the destination mailbox — alone. The sender
//! gave it up when it pushed; the receiver owns it from
//! [`Mailbox::try_take`] until it has decoded and recycled it into the
//! communicator's [`BufPool`](crate::BufPool). An envelope is therefore
//! not `Clone`, and a message still queued when its receiver dies is
//! freed with the mailbox.

use std::collections::VecDeque;

use bytes::BytesMut;
use parking_lot::Mutex;

/// Message tag. Negative tags are reserved for the runtime's own protocols.
pub type Tag = i32;

/// One in-flight message.
#[derive(Debug)]
pub struct Envelope {
    /// Communicator (or intercommunicator) id the message was sent on.
    pub cid: u64,
    /// Sender's rank within that communicator.
    pub src_rank: usize,
    /// Application tag.
    pub tag: Tag,
    /// Encoded payload, in a uniquely owned (pooled) buffer.
    pub payload: BytesMut,
    /// Virtual time at which the message arrives at the receiver.
    pub arrive: f64,
}

/// Receive matching pattern.
#[derive(Debug, Clone, Copy)]
pub struct Pattern {
    /// Communicator id (always exact).
    pub cid: u64,
    /// Source rank, or `None` for `MPI_ANY_SOURCE`.
    pub src: Option<usize>,
    /// Tag, or `None` for `MPI_ANY_TAG`.
    pub tag: Option<Tag>,
}

impl Pattern {
    fn matches(&self, e: &Envelope) -> bool {
        e.cid == self.cid
            && self.src.is_none_or(|s| s == e.src_rank)
            && self.tag.is_none_or(|t| t == e.tag)
    }
}

/// Remove and return the first message matching `pat`.
///
/// The head of the queue is checked before scanning: in the dominant
/// receive pattern — an exact `(cid, src, tag)` triple whose message has
/// already arrived, as in every halo exchange — the match is
/// the front element and the `O(queue)` scan never runs. Either path
/// takes the *first* match, preserving MPI's non-overtaking order.
fn take_matching(q: &mut VecDeque<Envelope>, pat: &Pattern) -> Option<Envelope> {
    if q.front().is_some_and(|e| pat.matches(e)) {
        return q.pop_front();
    }
    let idx = q.iter().position(|e| pat.matches(e))?;
    q.remove(idx)
}

/// A process's incoming queue.
///
/// The mailbox itself is a pure data structure: blocking and wakeup live
/// in the owner's [`crate::sched::Parker`]. A sender deposits with
/// [`Mailbox::push`] and then wakes the destination's parker; a blocked
/// receiver loops `try_take` → park.
pub struct Mailbox {
    q: Mutex<VecDeque<Envelope>>,
}

impl Default for Mailbox {
    fn default() -> Self {
        Self::new()
    }
}

impl Mailbox {
    /// Empty mailbox.
    pub fn new() -> Self {
        Mailbox { q: Mutex::new(VecDeque::new()) }
    }

    /// Deposit a message. The caller is responsible for waking the
    /// destination process afterwards.
    pub fn push(&self, e: Envelope) {
        self.q.lock().push_back(e);
    }

    /// Is a message matching `pat` queued? (`MPI_Iprobe`-style peek; the
    /// message stays in the queue.)
    pub fn peek(&self, pat: &Pattern) -> bool {
        self.q.lock().iter().any(|e| pat.matches(e))
    }

    /// Take the first message matching `pat`, if any.
    pub fn try_take(&self, pat: &Pattern) -> Option<Envelope> {
        let mut q = self.q.lock();
        take_matching(&mut q, pat)
    }

    /// Number of queued messages (diagnostics).
    pub fn len(&self) -> usize {
        self.q.lock().len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.q.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(bytes: &[u8]) -> BytesMut {
        let mut b = BytesMut::with_capacity(bytes.len());
        b.extend_from_slice(bytes);
        b
    }

    fn env(cid: u64, src: usize, tag: Tag) -> Envelope {
        Envelope { cid, src_rank: src, tag, payload: payload(b"x"), arrive: 0.0 }
    }

    #[test]
    fn exact_match_fifo_order() {
        let mb = Mailbox::new();
        mb.push(env(1, 0, 5));
        mb.push(env(1, 0, 5));
        let p = Pattern { cid: 1, src: Some(0), tag: Some(5) };
        assert!(mb.try_take(&p).is_some());
        assert!(mb.try_take(&p).is_some());
        assert!(mb.try_take(&p).is_none());
    }

    #[test]
    fn wildcard_source_and_tag() {
        let mb = Mailbox::new();
        mb.push(env(1, 3, 9));
        let any_src = Pattern { cid: 1, src: None, tag: Some(9) };
        let e = mb.try_take(&any_src).unwrap();
        assert_eq!(e.src_rank, 3);

        mb.push(env(1, 3, 9));
        let any_tag = Pattern { cid: 1, src: Some(3), tag: None };
        assert!(mb.try_take(&any_tag).is_some());
    }

    #[test]
    fn cid_isolation() {
        let mb = Mailbox::new();
        mb.push(env(1, 0, 0));
        let wrong = Pattern { cid: 2, src: Some(0), tag: Some(0) };
        assert!(mb.try_take(&wrong).is_none());
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn non_matching_messages_left_in_place() {
        let mb = Mailbox::new();
        mb.push(env(1, 0, 1));
        mb.push(env(1, 0, 2));
        let p2 = Pattern { cid: 1, src: Some(0), tag: Some(2) };
        let e = mb.try_take(&p2).unwrap();
        assert_eq!(e.tag, 2);
        assert_eq!(mb.len(), 1); // tag-1 message untouched
    }

    #[test]
    fn fifo_non_overtaking_within_a_matching_stream() {
        // MPI's non-overtaking rule: messages on the same (cid, src, tag)
        // stream are received in send order — through both the head
        // fast path and the scan path.
        let seq = |cid: u64, src: usize, tag: Tag, n: u8| Envelope {
            cid,
            src_rank: src,
            tag,
            payload: payload(&[n]),
            arrive: 0.0,
        };
        let mb = Mailbox::new();
        // An unrelated message sits at the head so the stream of interest
        // must be found by scanning.
        mb.push(seq(1, 9, 77, 0));
        for n in 1..=3 {
            mb.push(seq(1, 0, 5, n));
        }
        let p = Pattern { cid: 1, src: Some(0), tag: Some(5) };
        for expect in 1..=3u8 {
            let e = mb.try_take(&p).unwrap();
            assert_eq!(e.payload[0], expect, "stream overtaken");
        }
        assert!(mb.try_take(&p).is_none());
        // The unrelated head message is still there and now matches fast.
        let other = Pattern { cid: 1, src: Some(9), tag: Some(77) };
        assert_eq!(mb.try_take(&other).unwrap().payload[0], 0);
        assert!(mb.is_empty());
    }

    #[test]
    fn head_fast_path_preserves_wildcard_semantics() {
        let mb = Mailbox::new();
        mb.push(env(1, 2, 4));
        mb.push(env(1, 3, 4));
        // Wildcard source: head matches, must take the *first* (src 2).
        let p = Pattern { cid: 1, src: None, tag: Some(4) };
        assert_eq!(mb.try_take(&p).unwrap().src_rank, 2);
        assert_eq!(mb.try_take(&p).unwrap().src_rank, 3);
    }

    #[test]
    fn cross_thread_wakeup_via_parker() {
        // The runtime's receive loop: try_take, park, re-check. The
        // parker token protocol must make the pushed message visible.
        use crate::proc::{ProcId, ProcState};
        use std::sync::Arc;
        let me = Arc::new(ProcState::new(ProcId(42), 0));
        let me2 = Arc::clone(&me);
        let h = std::thread::spawn(move || {
            let p = Pattern { cid: 7, src: Some(1), tag: Some(1) };
            loop {
                if let Some(e) = me2.mailbox.try_take(&p) {
                    return e.src_rank;
                }
                crate::sched::block_wait(&me2);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        me.mailbox.push(env(7, 1, 1));
        me.wake();
        assert_eq!(h.join().unwrap(), 1);
    }
}
