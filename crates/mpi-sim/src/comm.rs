//! Intra- and inter-communicators: point-to-point, collectives, and the
//! ULFM fault-tolerance operations.
//!
//! A [`Comm`] is a per-rank *handle* onto a shared communicator object —
//! like an `MPI_Comm`, it is not `Clone`: every rank owns exactly one
//! handle per communicator, and the handle carries that rank's collective
//! sequence counter and its acknowledged-failures list.
//!
//! Failure semantics follow ULFM:
//!
//! * operations touching a failed peer return [`Error::ProcFailed`];
//! * [`Comm::revoke`] poisons the communicator for everything **except**
//!   [`Comm::shrink`] and [`Comm::agree`], which are the designated
//!   recovery tools;
//! * [`Comm::failure_ack`] / [`Comm::failure_get_acked`] implement the
//!   acknowledgement protocol the paper's error handler (its Fig. 4) uses.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::mem;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::BytesMut;

use crate::bufpool::BufPool;
use crate::datatype::{decode, decode_into, decode_one, encode_into, MpiData, WireSlice};
use crate::error::{Error, Result};
use crate::faultplan::OpClass;
use crate::group::Group;
use crate::mailbox::{Envelope, Pattern, Tag};
use crate::proc::{failure_epoch, ProcState};
use crate::rendezvous::{arrived, Deposit, OpCtx, OpKey, OpKind, OpTable, Share, Slot};
use crate::runtime::Ctx;

/// `MPI_ANY_SOURCE` for [`Comm::recv_from`].
pub const ANY_SOURCE: Option<usize> = None;
/// `MPI_ANY_TAG` for [`Comm::recv_from`].
pub const ANY_TAG: Option<Tag> = None;

/// Global communicator-id allocator (monotonic across the process).
static NEXT_CID: AtomicU64 = AtomicU64::new(1);

pub(crate) fn alloc_cid() -> u64 {
    NEXT_CID.fetch_add(1, Ordering::Relaxed)
}

/// Shared state of an intracommunicator.
pub(crate) struct CommShared {
    pub cid: u64,
    /// Rank → process.
    pub members: Vec<Arc<ProcState>>,
    pub revoked: AtomicBool,
    pub ops: OpTable,
    /// Retired payload buffers, shared by all ranks of the communicator.
    pub pool: BufPool,
    /// The member failure scan, re-run only when the global failure epoch
    /// moves. Keeps `failed_ranks` O(1) amortized instead of O(members)
    /// per call.
    failed_cache: parking_lot::Mutex<FailedCache>,
    /// The member list as a [`Group`], built once on first use. Shared
    /// storage: every rank's `comm.group()` is an O(1) clone of the
    /// same group (and shares its lazy membership index), so the
    /// world-wide `failedProcsList` stays linear per rank.
    group_cache: OnceLock<Group>,
}

impl CommShared {
    pub fn new(members: Vec<Arc<ProcState>>) -> Arc<Self> {
        Arc::new(Self::over(members))
    }

    /// The state itself, not yet shared (an intercommunicator embeds one
    /// over both its groups).
    fn over(members: Vec<Arc<ProcState>>) -> Self {
        // One collective has a buffer per member in flight at once.
        let pool = BufPool::new(members.len().max(BufPool::DEFAULT_MAX));
        CommShared {
            cid: alloc_cid(),
            members,
            revoked: AtomicBool::new(false),
            ops: OpTable::default(),
            pool,
            failed_cache: parking_lot::Mutex::new(FailedCache::default()),
            group_cache: OnceLock::new(),
        }
    }

    /// Read the ranks currently known failed, ascending.
    fn with_failed<R>(&self, read: impl FnOnce(&[usize]) -> R) -> R {
        let epoch = failure_epoch();
        if epoch == 0 {
            return read(&[]);
        }
        let mut c = self.failed_cache.lock();
        if c.epoch != epoch {
            c.ranks.clear();
            let failed = self.members.iter().enumerate().filter(|(_, p)| p.is_failed());
            c.ranks.extend(failed.map(|(r, _)| r));
            c.epoch = epoch;
            c.group = None;
        }
        read(&c.ranks)
    }

    /// One collective of member `my_index`, from deposit to share: the
    /// rendezvous ([`OpTable::run_op`] explains `finish`), the clock
    /// synchronization, the trace event named `label`. The result is the
    /// operation's own — attached error handlers are the caller's call.
    /// How an operation takes a failure is decided here, by its kind:
    /// `shrink` and `agree` complete over the survivors and ignore a
    /// revoke, everything else fails uniformly — at the price of a
    /// barrier, the detection cost (a failed spawn is charged nothing).
    pub(crate) fn collective(
        &self,
        ctx: &Ctx,
        my_index: usize,
        (label, key): (&'static str, OpKey),
        deposit: Deposit,
        finish: impl FnOnce(&mut [Slot]) -> (Result<()>, f64),
    ) -> Result<Share> {
        let recovery = matches!(key.kind, OpKind::Shrink | OpKind::Agree);
        let fail_cost = match key.kind {
            OpKind::Shrink | OpKind::Agree | OpKind::Spawn => 0.0,
            _ => ctx.net().barrier(self.members.len()),
        };
        let opctx = OpCtx {
            my_index,
            participants: &self.members,
            revoked: &self.revoked,
            recovery,
            fail_cost,
            stall_timeout: ctx.stall_timeout(),
        };
        let t0 = ctx.now();
        let out = self.ops.run_op(key, opctx, t0, deposit, finish);
        ctx.sync_to(&out);
        ctx.trace_event(label, self.cid, t0, ctx.now());
        out.result
    }

    /// The agreement proper, on either kind of communicator: `flag`
    /// becomes the AND of the survivors' flags.
    fn agree(
        &self,
        ctx: &Ctx,
        my_index: usize,
        id: (&'static str, OpKey),
        flag: &mut bool,
    ) -> Result<()> {
        let cost = ctx.model().agree(self.members.len(), self.with_failed(<[usize]>::len));
        let res = self.collective(ctx, my_index, id, Deposit::Flag(*flag), |slots| {
            let agreed = arrived(slots).all(|(_, s)| !matches!(s.deposit, Deposit::Flag(false)));
            slots.iter_mut().for_each(|s| s.share = Share::Flag(agreed));
            (Ok(()), cost)
        });
        match res? {
            Share::Flag(agreed) => *flag = agreed,
            _ => return Err(wrong_kind("agree")),
        }
        Ok(())
    }
}

/// A communicator's failed members as of one global failure epoch.
#[derive(Default)]
struct FailedCache {
    epoch: u64,
    /// Failed ranks, ascending.
    ranks: Vec<usize>,
    /// `ranks` as a group, built by the first [`Comm::failure_get_acked`]
    /// that asks for exactly these ranks and shared by every later one,
    /// the way [`Comm::group`] is.
    group: Option<Group>,
}

/// Reduction operators for [`Comm::reduce`] / [`Comm::allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
}

/// Elements that know how to combine under a [`ReduceOp`].
pub trait Reducible: MpiData + PartialOrd {
    /// Combine two elements under `op`.
    fn combine(op: ReduceOp, a: Self, b: Self) -> Self;
    /// The element's little-endian wire bytes, zero-padded to eight: the
    /// inline form a scalar reduction travels in ([`MpiData::get`] reads
    /// it back).
    fn to_word(self) -> [u8; 8];
}

macro_rules! impl_reducible {
    ($($t:ty),*) => {$(
        impl Reducible for $t {
            #[inline]
            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a + b,
                    ReduceOp::Min => if b < a { b } else { a },
                    ReduceOp::Max => if b > a { b } else { a },
                }
            }
            #[inline]
            fn to_word(self) -> [u8; 8] {
                let (mut word, wire) = ([0u8; 8], self.to_le_bytes());
                word[..wire.len()].copy_from_slice(&wire);
                word
            }
        }
    )*};
}
impl_reducible!(f64, f32, i64, u64, i32, u32, u8, usize);

/// An error handler attached to a communicator handle
/// (`MPI_Comm_set_errhandler`): invoked with the failing operation's error
/// before that error is returned to the caller. The paper's Fig. 4
/// handler acknowledges failures here so the subsequent `agree` returns
/// uniformly.
pub type ErrHandler = Box<dyn Fn(&Ctx, &Comm, &Error) + Send>;

/// A rank's handle onto an intracommunicator.
pub struct Comm {
    pub(crate) shared: Arc<CommShared>,
    pub(crate) rank: usize,
    op_seq: Cell<u64>,
    /// Separate sequence domain for the ULFM recovery operations
    /// (`shrink`/`agree`): real ULFM runs them on out-of-band channels, so
    /// they must rendezvous even when the ranks' *regular* collective
    /// counters have diverged (ranks abort a failing protocol at different
    /// points). `OpKind::Shrink`/`OpKind::Agree` keys are only ever minted
    /// from this counter, so the two domains cannot collide.
    recovery_seq: Cell<u64>,
    acked: RefCell<Vec<usize>>,
    errhandler: RefCell<Option<ErrHandler>>,
    /// Virtual seconds spent inside the error handler since it was
    /// attached.
    errhandler_time: Cell<f64>,
}

impl Comm {
    pub(crate) fn from_shared(shared: Arc<CommShared>, rank: usize) -> Self {
        Comm {
            shared,
            rank,
            op_seq: Cell::new(0),
            recovery_seq: Cell::new(0),
            acked: RefCell::new(Vec::new()),
            errhandler: RefCell::new(None),
            errhandler_time: Cell::new(0.0),
        }
    }

    /// `MPI_Comm_set_errhandler`: attach a handler invoked (on this rank)
    /// whenever an operation on this handle fails. Like MPI error
    /// handlers, it runs *before* the error is returned; unlike
    /// `MPI_ERRORS_ARE_FATAL`, the error is still returned afterwards
    /// (the `MPI_ERRORS_RETURN` + handler discipline ULFM requires).
    /// Attaching restarts [`errhandler_time`](Self::errhandler_time) at
    /// zero. A handler that captures nothing is a zero-sized closure, and
    /// boxing it does not allocate.
    pub fn set_errhandler(&self, h: impl Fn(&Ctx, &Comm, &Error) + Send + 'static) {
        *self.errhandler.borrow_mut() = Some(Box::new(h));
        self.errhandler_time.set(0.0);
    }

    /// Virtual seconds this handle's error handler has run since it was
    /// attached (each call metered as the clock after it minus the clock
    /// before it), so the caller can report the operations the handler
    /// ran inside net of it.
    pub fn errhandler_time(&self) -> f64 {
        self.errhandler_time.get()
    }

    /// Run the attached error handler (if any) and pass the error through.
    fn handle_err<T>(&self, ctx: &Ctx, r: Result<T>) -> Result<T> {
        if let Err(e) = &r {
            if matches!(e, Error::ProcFailed { .. } | Error::Revoked) {
                ctx.metrics.note_failure_observed();
            }
            if let Some(h) = &*self.errhandler.borrow() {
                let t0 = ctx.now();
                h(ctx, self, e);
                self.errhandler_time.set(self.errhandler_time.get() + (ctx.now() - t0));
            }
        }
        r
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Communicator size — unchanged by failures (ULFM never shrinks a
    /// communicator behind your back; that is the application's decision).
    pub fn size(&self) -> usize {
        self.shared.members.len()
    }

    /// Communicator id (diagnostics).
    pub fn cid(&self) -> u64 {
        self.shared.cid
    }

    /// The communicator's process group. Built once per communicator
    /// and shared: repeated calls (one per rank during recovery) are
    /// O(1) clones.
    pub fn group(&self) -> Group {
        self.shared
            .group_cache
            .get_or_init(|| Group::new(self.shared.members.iter().map(|p| p.id).collect()))
            .clone()
    }

    /// Has some rank revoked this communicator?
    pub fn is_revoked(&self) -> bool {
        self.shared.revoked.load(Ordering::Acquire)
    }

    /// Ranks currently known (locally) to have failed. Served from the
    /// communicator's epoch cache; only the first call after a new
    /// failure pays the member scan.
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.shared.with_failed(<[usize]>::to_vec)
    }

    /// Hostfile index of the node a rank runs on (ground truth; the paper
    /// instead derives it as `rank / SLOTS` from the hostfile).
    pub fn host_index_of(&self, rank: usize) -> Option<usize> {
        self.shared.members.get(rank).map(|p| p.host)
    }

    /// Failure-generator hook: fail-stop kill a peer rank, like the paper's
    /// `kill(getpid(), SIGKILL)` generator aborting random processes.
    pub fn inject_kill(&self, rank: usize) {
        if let Some(p) = self.shared.members.get(rank) {
            p.kill();
        }
    }

    // ----------------------------------------------------------------- p2p

    fn check_usable(&self, ctx: &Ctx) -> Result<()> {
        ctx.check_killed();
        if self.is_revoked() {
            return Err(Error::Revoked);
        }
        Ok(())
    }

    /// Buffered (eager) send of a typed slice.
    pub fn send<T: MpiData>(&self, ctx: &Ctx, dest: usize, tag: Tag, data: &[T]) -> Result<()> {
        self.check_usable(ctx)?;
        let d =
            self.shared.members.get(dest).ok_or_else(|| {
                Error::InvalidArg(format!("send to rank {dest} of {}", self.size()))
            })?;
        if d.is_failed() {
            return self.handle_err(ctx, Err(Error::proc_failed(dest)));
        }
        self.deposit(ctx, d, tag, data, "send");
        Ok(())
    }

    /// The eager deposit behind [`send`](Comm::send) and
    /// [`isend`](Comm::isend): one copy, slice → pooled wire buffer, and
    /// the buffer itself moves into the destination mailbox. From the
    /// push on it belongs to the envelope; the receiver recycles it.
    fn deposit<T: MpiData>(
        &self,
        ctx: &Ctx,
        d: &ProcState,
        tag: Tag,
        data: &[T],
        label: &'static str,
    ) {
        let t0 = ctx.now();
        let payload = self.wire(data);
        let nbytes = payload.len();
        let arrive = ctx.now() + ctx.net().p2p(nbytes);
        d.mailbox.push(Envelope {
            cid: self.shared.cid,
            src_rank: self.rank,
            tag,
            payload,
            arrive,
        });
        d.wake(); // after the push: the message is visible before the wake
        ctx.advance(ctx.net().latency); // sender-side occupancy only
        ctx.metrics.note_sent(nbytes);
        ctx.trace_p2p(label, self.shared.cid, t0, nbytes);
    }

    /// Send a single element.
    pub fn send_one<T: MpiData>(&self, ctx: &Ctx, dest: usize, tag: Tag, v: T) -> Result<()> {
        self.send(ctx, dest, tag, &[v])
    }

    /// Blocking receive from a specific source rank and tag.
    pub fn recv<T: MpiData>(&self, ctx: &Ctx, src: usize, tag: Tag) -> Result<Vec<T>> {
        self.recv_from(ctx, Some(src), Some(tag)).map(|(_, _, v)| v)
    }

    /// Blocking receive from a specific source rank and tag into a
    /// reused buffer (cleared first); returns the element count. The
    /// consumed payload's buffer goes back to the communicator's pool,
    /// where the next send of that size finds it: a warm exchange makes
    /// no allocator request on either side.
    pub fn recv_into<T: MpiData>(
        &self,
        ctx: &Ctx,
        src: usize,
        tag: Tag,
        out: &mut Vec<T>,
    ) -> Result<usize> {
        let (_, _, raw) = self.recv_raw(ctx, Some(src), Some(tag))?;
        let decoded = decode_into(&raw, out);
        self.shared.pool.recycle(raw);
        decoded?;
        Ok(out.len())
    }

    /// Blocking receive straight onto a caller-sized slice — MPI's own
    /// idiom of receiving into the array one computes on. The payload
    /// must hold exactly `out.len()` elements; any other length is an
    /// [`Error::InvalidArg`] and leaves `out` untouched.
    pub fn recv_onto<T: MpiData>(
        &self,
        ctx: &Ctx,
        src: usize,
        tag: Tag,
        out: &mut [T],
    ) -> Result<()> {
        let (_, _, raw) = self.recv_raw(ctx, Some(src), Some(tag))?;
        let got = raw.len();
        let fits = got == out.len() * T::WIDTH;
        if fits {
            T::copy_from_raw(&raw, out);
        }
        self.shared.pool.recycle(raw);
        if !fits {
            return Err(Error::InvalidArg(format!(
                "recv_onto: payload of {got} bytes for {} elements of width {}",
                out.len(),
                T::WIDTH
            )));
        }
        Ok(())
    }

    /// Receive exactly one element.
    pub fn recv_one<T: MpiData>(&self, ctx: &Ctx, src: usize, tag: Tag) -> Result<T> {
        let (_, _, raw) = self.recv_raw(ctx, Some(src), Some(tag))?;
        let v = decode_one(&raw);
        self.shared.pool.recycle(raw);
        v
    }

    /// Blocking receive with `MPI_ANY_SOURCE` / `MPI_ANY_TAG` wildcards.
    /// Returns `(source, tag, data)`.
    pub fn recv_from<T: MpiData>(
        &self,
        ctx: &Ctx,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<(usize, Tag, Vec<T>)> {
        let (s, t, raw) = self.recv_raw(ctx, src, tag)?;
        let v = decode(&raw);
        self.shared.pool.recycle(raw);
        Ok((s, t, v?))
    }

    fn recv_raw(
        &self,
        ctx: &Ctx,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<(usize, Tag, BytesMut)> {
        self.recv_raw_full(ctx, src, tag).map(|(s, t, _, b)| (s, t, b))
    }

    /// The matching loop behind every receive: also returns the message's
    /// virtual arrival time so nonblocking completion can split the flight
    /// time into hidden and exposed shares. The stall the *caller* pays
    /// (clock advance up to arrival) is accounted as exposed
    /// communication here, uniformly for blocking and nonblocking paths.
    /// The returned buffer is the caller's: decode it, then hand it back
    /// to the communicator's pool.
    fn recv_raw_full(
        &self,
        ctx: &Ctx,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<(usize, Tag, f64, BytesMut)> {
        if let Some(s) = src {
            if s >= self.size() {
                return Err(Error::InvalidArg(format!("recv from rank {s} of {}", self.size())));
            }
        }
        let pat = Pattern { cid: self.shared.cid, src, tag };
        let started = std::time::Instant::now();
        let t0 = ctx.now();
        let complete = |e: Envelope| {
            ctx.note_exposed(e.arrive - ctx.now());
            ctx.advance_to(e.arrive);
            ctx.metrics.note_recvd(e.payload.len());
            ctx.trace_p2p("recv", self.shared.cid, t0, e.payload.len());
            (e.src_rank, e.tag, e.arrive, e.payload)
        };
        loop {
            self.check_usable(ctx)?;
            if let Some(e) = ctx.me().mailbox.try_take(&pat) {
                return Ok(complete(e));
            }
            // A named source that failed without having queued a matching
            // message will never deliver one.
            if let Some(s) = src {
                if self.shared.members[s].is_failed() {
                    // One more scan to close the push-then-die race.
                    if let Some(e) = ctx.me().mailbox.try_take(&pat) {
                        return Ok(complete(e));
                    }
                    return self.handle_err(ctx, Err(Error::proc_failed(s)));
                }
            }
            if started.elapsed() > ctx.stall_timeout() {
                return Err(Error::CollectiveMismatch {
                    detail: format!(
                        "recv(src={src:?}, tag={tag:?}) on cid {} starved for {:?}",
                        self.shared.cid,
                        ctx.stall_timeout()
                    ),
                });
            }
            // Park until a sender (or a kill/revoke/sweep) wakes us; the
            // loop re-checks everything on wake. Thread mode polls at the
            // historical 500 µs tick and counts each empty poll as a
            // retry; fiber parks are event-driven, so no retry is
            // charged (the metric would otherwise measure scheduler
            // timing, not simulation behaviour).
            if crate::sched::block_wait(ctx.me()) {
                ctx.metrics.note_recv_retry();
            }
        }
    }

    /// `MPI_Iprobe`: is a matching message already available? Never
    /// blocks; does not consume the message.
    pub fn iprobe(&self, ctx: &Ctx, src: Option<usize>, tag: Option<Tag>) -> Result<bool> {
        self.check_usable(ctx)?;
        let pat = Pattern { cid: self.shared.cid, src, tag };
        let found = ctx.me().mailbox.peek(&pat);
        if !found {
            // Cooperative point: a poll loop around a false probe must
            // let the polled-for peer run, or a single worker would spin
            // on it forever.
            crate::fiber::yield_now();
        }
        Ok(found)
    }

    /// `MPI_Isend`: post a nonblocking send and return a [`Request`] to
    /// complete with [`Request::wait`] / [`waitall`].
    ///
    /// Sends in this runtime are eager — the payload is copied into the
    /// destination mailbox at post time, so `data` is reusable immediately
    /// (like a buffered MPI send). The request still carries the ULFM
    /// completion semantics: waiting on it surfaces
    /// [`Error::ProcFailed`] if the destination has died, so a
    /// post-compute-wait loop can never silently talk to a corpse.
    pub fn isend<T: MpiData>(
        &self,
        ctx: &Ctx,
        dest: usize,
        tag: Tag,
        data: &[T],
    ) -> Result<Request<'_, T>> {
        ctx.fault_op(OpClass::Isend);
        self.check_usable(ctx)?;
        let d =
            self.shared.members.get(dest).ok_or_else(|| {
                Error::InvalidArg(format!("isend to rank {dest} of {}", self.size()))
            })?;
        if d.is_failed() {
            return self.handle_err(ctx, Err(Error::proc_failed(dest)));
        }
        self.deposit(ctx, d, tag, data, "isend");
        Ok(Request { comm: self, state: ReqState::Send { dest } })
    }

    /// `MPI_Irecv`: post a nonblocking receive into a reused buffer. The
    /// message is matched and decoded into `out` (cleared first) when the
    /// request completes via [`Request::test`], [`Request::wait`] or
    /// [`waitall`]; the consumed payload is recycled into the
    /// communicator's buffer pool.
    ///
    /// Virtual time models overlap: the clock only advances at *wait* time,
    /// and only up to the message's arrival — compute charged between post
    /// and wait hides the flight time, so a step costs
    /// `max(compute, exposed_comm)` rather than their sum. The overlapped
    /// share is accounted to [`Ctx::comm_hidden`], the stalled remainder to
    /// [`Ctx::comm_exposed`].
    pub fn irecv_into<'r, T: MpiData>(
        &'r self,
        ctx: &Ctx,
        src: usize,
        tag: Tag,
        out: &'r mut Vec<T>,
    ) -> Result<Request<'r, T>> {
        ctx.fault_op(OpClass::Irecv);
        self.check_usable(ctx)?;
        if src >= self.size() {
            return Err(Error::InvalidArg(format!("irecv from rank {src} of {}", self.size())));
        }
        Ok(Request { comm: self, state: ReqState::Recv { src, tag, out, posted: ctx.now() } })
    }

    /// Combined send + receive (deadlock-free because sends are eager);
    /// the workhorse of halo exchange.
    pub fn sendrecv<T: MpiData>(
        &self,
        ctx: &Ctx,
        dest: usize,
        send_tag: Tag,
        data: &[T],
        src: usize,
        recv_tag: Tag,
    ) -> Result<Vec<T>> {
        self.send(ctx, dest, send_tag, data)?;
        self.recv(ctx, src, recv_tag)
    }

    /// [`sendrecv`](Comm::sendrecv) into a reused receive buffer:
    /// allocation-free in steady state. Returns the received element
    /// count.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv_into<T: MpiData>(
        &self,
        ctx: &Ctx,
        dest: usize,
        send_tag: Tag,
        data: &[T],
        src: usize,
        recv_tag: Tag,
        out: &mut Vec<T>,
    ) -> Result<usize> {
        self.send(ctx, dest, send_tag, data)?;
        self.recv_into(ctx, src, recv_tag, out)
    }

    // ---------------------------------------------------------- collectives

    /// The next matching key of `kind`. The recovery tools count in a
    /// domain of their own (see `recovery_seq`).
    pub(crate) fn next_key(&self, kind: OpKind) -> OpKey {
        let recovery = matches!(kind, OpKind::Shrink | OpKind::Agree);
        let counter = if recovery { &self.recovery_seq } else { &self.op_seq };
        let seq = counter.get();
        counter.set(seq + 1);
        OpKey { seq, kind }
    }

    /// One collective over this communicator: see
    /// [`CommShared::collective`].
    pub(crate) fn collective(
        &self,
        ctx: &Ctx,
        label: &'static str,
        kind: OpKind,
        deposit: Deposit,
        finish: impl FnOnce(&mut [Slot]) -> (Result<()>, f64),
    ) -> Result<Share> {
        self.shared.collective(ctx, self.rank, (label, self.next_key(kind)), deposit, finish)
    }

    /// `data` in wire form, in a buffer from the communicator's pool.
    fn wire<T: MpiData>(&self, data: &[T]) -> BytesMut {
        let mut buf = self.shared.pool.take(data.len() * T::WIDTH);
        encode_into(data, &mut buf);
        buf
    }

    /// Decode a payload that was this rank's alone and retire its buffer.
    fn unwire<T: MpiData>(&self, buf: BytesMut) -> Result<Vec<T>> {
        let v = decode(&buf);
        self.shared.pool.recycle(buf);
        v
    }

    fn pooled(&self, bufs: Vec<BytesMut>) -> Pooled {
        Pooled { bufs, home: Arc::clone(&self.shared) }
    }

    /// `MPI_Barrier`. The paper uses a barrier's error return as its
    /// failure detector (its Fig. 3, line 13).
    pub fn barrier(&self, ctx: &Ctx) -> Result<()> {
        ctx.fault_op(OpClass::Barrier);
        let cost = ctx.net().barrier(self.size());
        let res =
            self.collective(ctx, "barrier", OpKind::Barrier, Deposit::None, |_| (Ok(()), cost));
        self.handle_err(ctx, res.map(|_| ()))
    }

    /// `MPI_Bcast`: `root` supplies `Some(data)`, everyone gets the data.
    pub fn bcast<T: MpiData>(&self, ctx: &Ctx, root: usize, data: Option<&[T]>) -> Result<Vec<T>> {
        ctx.fault_op(OpClass::Bcast);
        if (self.rank == root) != data.is_some() {
            return Err(Error::InvalidArg("bcast: exactly the root must supply data".into()));
        }
        let p = self.size();
        let net = *ctx.net();
        let deposit = data.map_or(Deposit::None, |d| Deposit::Bytes(self.wire(d)));
        let res = self.collective(ctx, "bcast", OpKind::Bcast, deposit, |slots| {
            let Some(buf) = slots.get_mut(root).and_then(Slot::take_bytes) else {
                return (Err(wrong_kind("bcast: the root's contribution")), 0.0);
            };
            let cost = net.tree(p, buf.len());
            share_all(slots, self.pooled(vec![buf]));
            (Ok(()), cost)
        });
        match self.handle_err(ctx, res)? {
            Share::Shared(data) => decode(&data.bufs[0]),
            _ => Err(wrong_kind("bcast")),
        }
    }

    /// `MPI_Gatherv`: every rank contributes a slice (lengths may differ);
    /// the root receives all contributions in rank order.
    ///
    /// This form decodes every contribution into a vector of its own —
    /// right for the small metadata gathers; a root that assembles bulk
    /// data in place uses [`gather_view`](Comm::gather_view), on which
    /// this one is built.
    pub fn gather<T: MpiData>(
        &self,
        ctx: &Ctx,
        root: usize,
        mine: &[T],
    ) -> Result<Option<Vec<Vec<T>>>> {
        Ok(self.gather_view(ctx, root, mine)?.map(|parts| parts.to_vecs()))
    }

    /// `MPI_Gatherv` whose root *visits* the contributions instead of
    /// receiving copies of them: the root gets a [`Gathered`] handle onto
    /// every rank's wire bytes, in rank order, and decodes the ranges it
    /// wants straight into the array it assembles (`None` elsewhere).
    /// Same collective as [`gather`](Comm::gather) in every other
    /// respect — one fault site, one cost-model charge, the same failure
    /// semantics.
    pub fn gather_view<T: MpiData>(
        &self,
        ctx: &Ctx,
        root: usize,
        mine: &[T],
    ) -> Result<Option<Gathered<T>>> {
        self.gather_view_with(ctx, root, mine.len(), |put| put(mine))
    }

    /// [`gather_view`](Comm::gather_view) of a contribution that lies in
    /// pieces — the rows of a strided block: `fill` pushes the pieces, in
    /// order and `len` elements in all, straight into the wire buffer, so
    /// the contribution is never staged in a contiguous copy first.
    pub fn gather_view_with<T: MpiData>(
        &self,
        ctx: &Ctx,
        root: usize,
        len: usize,
        fill: impl FnOnce(&mut dyn FnMut(&[T])),
    ) -> Result<Option<Gathered<T>>> {
        match self.gather_wire(ctx, OpKind::Gather, Some(root), len, fill)? {
            Share::Parts(parts) => Gathered::new(parts).map(Some),
            Share::Unit => Ok(None),
            _ => Err(wrong_kind("gather")),
        }
    }

    /// `MPI_Allgatherv`: like gather, but everyone gets all contributions.
    pub fn allgather<T: MpiData>(&self, ctx: &Ctx, mine: &[T]) -> Result<Vec<Vec<T>>> {
        match self.gather_wire(ctx, OpKind::Allgather, None, mine.len(), |put| put(mine))? {
            Share::Shared(parts) => parts.bufs.iter().map(|b| decode(b)).collect(),
            _ => Err(wrong_kind("allgather")),
        }
    }

    /// The gather proper: every rank's wire buffer moves through the
    /// rendezvous to `root` alone, or (without one) is shared by all.
    fn gather_wire<T: MpiData>(
        &self,
        ctx: &Ctx,
        kind: OpKind,
        root: Option<usize>,
        len: usize,
        fill: impl FnOnce(&mut dyn FnMut(&[T])),
    ) -> Result<Share> {
        ctx.fault_op(OpClass::Gather);
        let p = self.size();
        let net = *ctx.net();
        let mut mine = self.shared.pool.take(len * T::WIDTH);
        fill(&mut |piece| T::put_slice(piece, &mut mine));
        let res = self.collective(ctx, "gather", kind, Deposit::Bytes(mine), |slots| {
            // The one allocator request of a warm gather: the root's parts.
            let mut parts = self.pooled(Vec::with_capacity(p));
            parts.bufs.extend(arrived(slots).filter_map(|(_, s)| s.take_bytes()));
            let cost = net.gather(p, parts.bufs.iter().map(|b| b.len()).sum());
            match root.map(|r| slots.get_mut(r)) {
                None => share_all(slots, parts),
                Some(Some(slot)) => slot.share = Share::Parts(parts),
                Some(None) => {} // no such rank: nobody is the root
            }
            (Ok(()), cost)
        });
        self.handle_err(ctx, res)
    }

    /// `MPI_Scatterv`: the root supplies one slice per rank; each rank
    /// receives its slice.
    ///
    /// This form decodes the received part into a vector of its own; a
    /// member that loads bulk data in place uses
    /// [`scatter_view_with`](Comm::scatter_view_with), on which this one
    /// is built.
    pub fn scatter<T: MpiData>(
        &self,
        ctx: &Ctx,
        root: usize,
        parts: Option<&[Vec<T>]>,
    ) -> Result<Vec<T>> {
        self.scatter_view_with(ctx, root, parts, |mine| Ok(mine.to_vec()))
    }

    /// [`scatter`](Comm::scatter) with both ends in place — the mirror of
    /// [`gather_view_with`](Comm::gather_view_with). The root pushes each
    /// rank's part, piece by piece, straight into a pooled wire buffer
    /// (see [`ScatterParts`]); every rank, the root included, hands its
    /// part still in wire form to `read`, which decodes the ranges it
    /// wants straight into place, and the buffer goes back to the pool.
    /// Same collective as `scatter` in every other respect — one fault
    /// site, one cost-model charge, the same checks and failure semantics.
    pub fn scatter_view_with<T: MpiData, R>(
        &self,
        ctx: &Ctx,
        root: usize,
        parts: Option<&(impl ScatterParts<T> + ?Sized)>,
        read: impl FnOnce(WireSlice<'_, T>) -> Result<R>,
    ) -> Result<R> {
        ctx.fault_op(OpClass::Scatter);
        let p = self.size();
        if let Some(parts) = parts {
            if self.rank != root {
                return Err(Error::InvalidArg("scatter: only the root supplies parts".into()));
            }
            if parts.parts() != p {
                return Err(Error::InvalidArg(format!(
                    "scatter: {} parts for {} ranks",
                    parts.parts(),
                    p
                )));
            }
        } else if self.rank == root {
            return Err(Error::InvalidArg("scatter: root must supply parts".into()));
        }
        let net = *ctx.net();
        let deposit = parts.map_or(Deposit::None, |ps| {
            let mut wire = self.shared.pool.take_parts(p);
            for rank in 0..p {
                let mut buf = self.shared.pool.take(ps.part_len(rank) * T::WIDTH);
                ps.put_part(rank, &mut |piece| T::put_slice(piece, &mut buf));
                wire.push(buf);
            }
            Deposit::Parts(wire)
        });
        let res = self.collective(ctx, "scatter", OpKind::Scatter, deposit, |slots| {
            let Some(Deposit::Parts(mut parts)) =
                slots.get_mut(root).map(|s| mem::take(&mut s.deposit))
            else {
                return (Err(wrong_kind("scatter: the root's contribution")), 0.0);
            };
            let cost = net.gather(p, parts.iter().map(|b| b.len()).sum());
            for (slot, part) in slots.iter_mut().zip(parts.drain(..)) {
                slot.share = Share::Bytes(part);
            }
            self.shared.pool.recycle_parts(parts);
            (Ok(()), cost)
        });
        match self.handle_err(ctx, res)? {
            Share::Bytes(mine) => {
                let read = WireSlice::new(&mine).and_then(read);
                self.shared.pool.recycle(mine);
                read
            }
            _ => Err(wrong_kind("scatter")),
        }
    }

    /// `MPI_Alltoallv`: rank *i*'s `parts[j]` ends up as element *i* of
    /// rank *j*'s result.
    pub fn alltoall<T: MpiData>(&self, ctx: &Ctx, parts: &[Vec<T>]) -> Result<Vec<Vec<T>>> {
        ctx.fault_op(OpClass::Alltoall);
        let p = self.size();
        if parts.len() != p {
            return Err(Error::InvalidArg(format!(
                "alltoall: {} parts for {} ranks",
                parts.len(),
                p
            )));
        }
        let net = *ctx.net();
        let deposit = Deposit::Parts(parts.iter().map(|v| self.wire(v)).collect());
        let res = self.collective(ctx, "alltoall", OpKind::Alltoall, deposit, |slots| {
            // Column per destination, in source order.
            let mut columns: Vec<Vec<BytesMut>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
            let mut total = 0usize;
            for (_, s) in arrived(slots) {
                if let Deposit::Parts(row) = mem::take(&mut s.deposit) {
                    for (column, b) in columns.iter_mut().zip(row) {
                        total += b.len();
                        column.push(b);
                    }
                }
            }
            for (slot, column) in slots.iter_mut().zip(columns) {
                slot.share = Share::Parts(self.pooled(column));
            }
            (Ok(()), p as f64 * net.latency + net.byte_time * total as f64)
        });
        match self.handle_err(ctx, res)? {
            Share::Parts(column) => column.bufs.iter().map(|b| decode(b)).collect(),
            _ => Err(wrong_kind("alltoall")),
        }
    }

    /// `MPI_Reduce` (element-wise): the root gets the combined vector.
    pub fn reduce<T: Reducible>(
        &self,
        ctx: &Ctx,
        root: usize,
        op: ReduceOp,
        mine: &[T],
    ) -> Result<Option<Vec<T>>> {
        match self.reduce_wire(ctx, OpKind::Reduce, op, mine, Some(root))? {
            Share::Bytes(v) => self.unwire(v).map(Some),
            Share::Unit => Ok(None),
            _ => Err(wrong_kind("reduce")),
        }
    }

    /// `MPI_Allreduce` (element-wise).
    pub fn allreduce<T: Reducible>(&self, ctx: &Ctx, op: ReduceOp, mine: &[T]) -> Result<Vec<T>> {
        match self.reduce_wire(ctx, OpKind::Allreduce, op, mine, None)? {
            Share::Shared(v) => decode(&v.bufs[0]),
            _ => Err(wrong_kind("allreduce")),
        }
    }

    /// Scalar sum allreduce.
    pub fn allreduce_sum<T: Reducible>(&self, ctx: &Ctx, v: T) -> Result<T> {
        self.allreduce_word(ctx, ReduceOp::Sum, v)
    }

    /// Scalar max allreduce.
    pub fn allreduce_max<T: Reducible>(&self, ctx: &Ctx, v: T) -> Result<T> {
        self.allreduce_word(ctx, ReduceOp::Max, v)
    }

    /// Scalar min allreduce.
    pub fn allreduce_min<T: Reducible>(&self, ctx: &Ctx, v: T) -> Result<T> {
        self.allreduce_word(ctx, ReduceOp::Min, v)
    }

    /// What the reductions share: the fault site and the charge of
    /// `trees` reduction trees over `nbytes` per rank. `fold` combines the
    /// deposits in rank order and hands out the shares.
    fn reduction(
        &self,
        ctx: &Ctx,
        kind: OpKind,
        (trees, nbytes): (f64, usize),
        deposit: Deposit,
        fold: impl FnOnce(&mut [Slot]) -> Result<()>,
    ) -> Result<Share> {
        ctx.fault_op(OpClass::Allreduce);
        let cost = trees * ctx.net().tree(self.size(), nbytes);
        let res = self.collective(ctx, "reduce", kind, deposit, |slots| (fold(slots), cost));
        self.handle_err(ctx, res)
    }

    /// A one-element allreduce: the scalars travel inline in the slots
    /// and the result comes back by value.
    fn allreduce_word<T: Reducible>(&self, ctx: &Ctx, op: ReduceOp, v: T) -> Result<T> {
        let deposit = Deposit::Word(v.to_word());
        let share = self.reduction(ctx, OpKind::Allreduce, (2.0, T::WIDTH), deposit, |slots| {
            let words = arrived(slots).filter_map(|(_, s)| match s.deposit {
                Deposit::Word(w) => Some(T::get(&w)),
                _ => None,
            });
            let word = words.reduce(|x, y| T::combine(op, x, y)).map(T::to_word);
            slots.iter_mut().for_each(|s| s.share = Share::Word(word.unwrap_or_default()));
            Ok(())
        })?;
        match share {
            Share::Word(w) => Ok(T::get(&w)),
            _ => Err(wrong_kind("allreduce")),
        }
    }

    /// An element-wise reduction of wire buffers, folded in rank order
    /// and encoded back into the lowest rank's buffer; the result goes to
    /// `root` alone or (with `None`) is shared by all.
    fn reduce_wire<T: Reducible>(
        &self,
        ctx: &Ctx,
        kind: OpKind,
        op: ReduceOp,
        mine: &[T],
        root: Option<usize>,
    ) -> Result<Share> {
        let trees = if root.is_some() { 1.0 } else { 2.0 };
        let deposit = Deposit::Bytes(self.wire(mine));
        self.reduction(ctx, kind, (trees, mine.len() * T::WIDTH), deposit, |slots| {
            let mut acc: Vec<T> = Vec::new();
            let mut out: Option<BytesMut> = None;
            for b in arrived(slots).filter_map(|(_, s)| s.take_bytes()) {
                if out.is_none() {
                    decode_into(&b, &mut acc)?;
                    out = Some(b);
                    continue;
                }
                if b.len() != acc.len() * T::WIDTH {
                    return Err(Error::InvalidArg(format!(
                        "reduce: contributions of {} and {} bytes",
                        acc.len() * T::WIDTH,
                        b.len()
                    )));
                }
                for (i, x) in acc.iter_mut().enumerate() {
                    *x = T::combine(op, *x, T::get(&b[i * T::WIDTH..]));
                }
                self.shared.pool.recycle(b);
            }
            let mut out = out.unwrap_or_default();
            encode_into(&acc, &mut out);
            match root.map(|r| slots.get_mut(r)) {
                None => share_all(slots, self.pooled(vec![out])),
                Some(Some(slot)) => slot.share = Share::Bytes(out),
                Some(None) => {} // no such rank: nobody is the root
            }
            Ok(())
        })
    }

    /// `MPI_Comm_split`. `color = None` is `MPI_UNDEFINED` (no resulting
    /// communicator for this rank); within a colour, new ranks are ordered
    /// by `(key, old rank)` — the mechanism the paper uses to restore the
    /// original rank order after recovery (its Fig. 7).
    pub fn split(&self, ctx: &Ctx, color: Option<i64>, key: i64) -> Result<Option<Comm>> {
        ctx.fault_op(OpClass::Split);
        let cost = ctx.net().tree(self.size(), 16);
        let deposit = Deposit::SplitKey { color, key };
        let res = self.collective(ctx, "split", OpKind::Split, deposit, |slots| {
            // (colour, key, old rank), sorted: one run per colour, in new
            // rank order; communicators are made in colour order.
            let mut keyed: Vec<(i64, i64, usize)> = arrived(slots)
                .filter_map(|(old_rank, s)| match s.deposit {
                    Deposit::SplitKey { color: Some(col), key } => Some((col, key, old_rank)),
                    _ => None,
                })
                .collect();
            keyed.sort_unstable();
            for run in keyed.chunk_by(|a, b| a.0 == b.0) {
                let procs = run.iter().map(|&(_, _, r)| self.shared.members[r].clone()).collect();
                let shared = CommShared::new(procs);
                for (new_rank, &(_, _, old_rank)) in run.iter().enumerate() {
                    slots[old_rank].share = Share::Comm(Arc::clone(&shared), new_rank);
                }
            }
            (Ok(()), cost)
        });
        match self.handle_err(ctx, res)? {
            Share::Comm(shared, new_rank) => Ok(Some(Comm::from_shared(shared, new_rank))),
            Share::Unit => Ok(None),
            _ => Err(wrong_kind("split")),
        }
    }

    /// `MPI_Comm_dup`.
    pub fn dup(&self, ctx: &Ctx) -> Result<Comm> {
        ctx.fault_op(OpClass::Dup);
        let cost = ctx.net().tree(self.size(), 16);
        let res = self.collective(ctx, "dup", OpKind::Dup, Deposit::None, |slots| {
            let shared = CommShared::new(self.shared.members.clone());
            for (rank, s) in slots.iter_mut().enumerate() {
                s.share = Share::Comm(Arc::clone(&shared), rank);
            }
            (Ok(()), cost)
        });
        Comm::from_share(self.handle_err(ctx, res), "dup")
    }

    // ----------------------------------------------------------------- ULFM

    /// `OMPI_Comm_revoke`: poison the communicator for every rank. Only
    /// [`Comm::shrink`] and [`Comm::agree`] remain usable afterwards.
    pub fn revoke(&self, ctx: &Ctx) {
        ctx.check_killed();
        self.shared.revoked.store(true, Ordering::Release);
        // Wake every member: blocked receives and collectives re-check
        // the revoked flag on wake.
        for m in &self.shared.members {
            m.wake();
        }
        ctx.advance(ctx.model().revoke(self.size()));
    }

    /// `OMPI_Comm_shrink`: build a new communicator over the survivors,
    /// preserving relative rank order. Works on revoked communicators.
    pub fn shrink(&self, ctx: &Ctx) -> Result<Comm> {
        ctx.fault_op(OpClass::Shrink);
        let p = self.size();
        let model = ctx.model_handle();
        let res = self.collective(ctx, "shrink", OpKind::Shrink, Deposit::None, |slots| {
            let procs: Vec<Arc<ProcState>> =
                arrived(slots).map(|(r, _)| self.shared.members[r].clone()).collect();
            let nfailed = p - procs.len();
            let shared = CommShared::new(procs);
            for (new_rank, (_, s)) in arrived(slots).enumerate() {
                s.share = Share::Comm(Arc::clone(&shared), new_rank);
            }
            (Ok(()), model.shrink(p, nfailed))
        });
        Comm::from_share(self.handle_err(ctx, res), "shrink")
    }

    /// `OMPI_Comm_agree`: fault-tolerant agreement on the logical AND of
    /// `flag` across the survivors. Always deposits the agreed value into
    /// `flag`; returns [`Error::ProcFailed`] if this rank has observed
    /// failures it has not yet acknowledged with [`Comm::failure_ack`]
    /// (ULFM's uniform-return rule). Works on revoked communicators.
    pub fn agree(&self, ctx: &Ctx, flag: &mut bool) -> Result<()> {
        ctx.fault_op(OpClass::Agree);
        self.shared.agree(ctx, self.rank, ("agree", self.next_key(OpKind::Agree)), flag)?;
        let unacked: Vec<usize> = {
            let acked = self.acked.borrow();
            self.shared.with_failed(|failed| {
                failed.iter().copied().filter(|r| !acked.contains(r)).collect()
            })
        };
        if unacked.is_empty() {
            Ok(())
        } else {
            self.handle_err(ctx, Err(Error::ProcFailed { ranks: unacked }))
        }
    }

    /// `OMPI_Comm_failure_ack`: acknowledge every failure observed so far.
    /// The handle's acknowledged list is refilled in place.
    pub fn failure_ack(&self, ctx: &Ctx) {
        ctx.check_killed();
        self.shared.with_failed(|failed| {
            let mut acked = self.acked.borrow_mut();
            acked.clear();
            acked.extend_from_slice(failed);
        });
        ctx.advance(ctx.model().failure_ack(self.size()));
    }

    /// `OMPI_Comm_failure_get_acked`: the group of acknowledged failures.
    /// When they are the communicator's failed members as last scanned —
    /// what [`failure_ack`](Self::failure_ack) leaves until the next
    /// failure — the group is built once and shared by every rank, the way
    /// [`Comm::group`] is.
    pub fn failure_get_acked(&self) -> Group {
        let acked = self.acked.borrow();
        let build = || Group::new(acked.iter().map(|&r| self.shared.members[r].id).collect());
        let mut cache = self.shared.failed_cache.lock();
        if cache.ranks == *acked {
            cache.group.get_or_insert_with(build).clone()
        } else {
            build()
        }
    }

    /// The handle a communicator-making collective hands this rank.
    fn from_share(res: Result<Share>, op: &'static str) -> Result<Comm> {
        match res? {
            Share::Comm(shared, rank) => Ok(Comm::from_shared(shared, rank)),
            _ => Err(wrong_kind(op)),
        }
    }
}

/// A share of a kind the calling collective never hands out: a bug in
/// the runtime, reported to the caller like any protocol violation.
fn wrong_kind(what: &str) -> Error {
    Error::Protocol(format!("{what} is of the wrong kind"))
}

/// Give every participant the same payloads to read.
fn share_all(slots: &mut [Slot], payloads: Pooled) {
    let payloads = Arc::new(payloads);
    for s in slots {
        s.share = Share::Shared(Arc::clone(&payloads));
    }
}

/// Wire buffers on loan from a communicator's pool: whoever holds them
/// last — a gather's root, the last reader of a broadcast, the rendezvous
/// itself when nobody came for them — returns them on drop.
pub(crate) struct Pooled {
    pub bufs: Vec<BytesMut>,
    home: Arc<CommShared>,
}

impl Drop for Pooled {
    fn drop(&mut self) {
        for buf in self.bufs.drain(..) {
            self.home.pool.recycle(buf);
        }
    }
}

/// What the root of a [`Comm::gather_view`] holds: every rank's
/// contribution, still in wire form, in rank order. The buffers are the
/// very ones the members filled — moved through the collective, never
/// copied — owned by this handle for as long as it lives and returned to
/// the communicator's pool, for the next round's members, when it drops.
pub struct Gathered<T: MpiData> {
    parts: Pooled,
    _elem: PhantomData<T>,
}

impl<T: MpiData> Gathered<T> {
    /// Checks every contribution's width once (the error [`decode`]
    /// would give), so the views below are infallible.
    fn new(parts: Pooled) -> Result<Self> {
        for b in &parts.bufs {
            WireSlice::<T>::new(b)?;
        }
        Ok(Gathered { parts, _elem: PhantomData })
    }

    /// Number of contributions (the communicator size).
    pub fn len(&self) -> usize {
        self.parts.bufs.len()
    }

    /// True for a gather over no rank (never, on a live communicator).
    pub fn is_empty(&self) -> bool {
        self.parts.bufs.is_empty()
    }

    /// Rank `rank`'s contribution.
    pub fn part(&self, rank: usize) -> WireSlice<'_, T> {
        // Invariant: `new` checked every buffer's width.
        WireSlice::new(&self.parts.bufs[rank]).expect("widths were checked at construction")
    }

    /// Every contribution decoded into a vector of its own, in rank order.
    pub fn to_vecs(&self) -> Vec<Vec<T>> {
        (0..self.len()).map(|r| self.part(r).to_vec()).collect()
    }
}

/// What the root of a [`Comm::scatter_view_with`] sends: one part per
/// rank, produced piece by piece straight into the part's wire buffer, so
/// no part is staged in a vector of its own first — the root of a grid
/// scatter pushes the rows of each member's block where they lie in the
/// grid.
pub trait ScatterParts<T> {
    /// Number of parts (the communicator size).
    fn parts(&self) -> usize;
    /// Elements in rank `rank`'s part.
    fn part_len(&self, rank: usize) -> usize;
    /// Push rank `rank`'s part to `put`: in order, `part_len(rank)`
    /// elements in all.
    fn put_part(&self, rank: usize, put: &mut dyn FnMut(&[T]));
}

/// A part per rank, each a vector of its own.
impl<T> ScatterParts<T> for [Vec<T>] {
    fn parts(&self) -> usize {
        self.len()
    }
    fn part_len(&self, rank: usize) -> usize {
        self[rank].len()
    }
    fn put_part(&self, rank: usize, put: &mut dyn FnMut(&[T])) {
        put(&self[rank]);
    }
}

/// A posted nonblocking operation (see [`Comm::isend`] /
/// [`Comm::irecv_into`]). Must be completed with [`Request::wait`],
/// [`Request::test`] or [`waitall`]; an error consumes the request (like
/// MPI, a failed request is not retryable — re-post instead).
pub struct Request<'a, T: MpiData> {
    comm: &'a Comm,
    state: ReqState<'a, T>,
}

enum ReqState<'a, T: MpiData> {
    /// An eager send: delivered at post time, but completion still checks
    /// the destination is alive.
    Send { dest: usize },
    /// A posted receive waiting for its match.
    Recv { src: usize, tag: Tag, out: &'a mut Vec<T>, posted: f64 },
    /// Already completed (or failed).
    Done,
}

impl<T: MpiData> Request<'_, T> {
    /// `MPI_Wait`: complete the operation. For a receive this blocks until
    /// the message arrives (or the source fails / the communicator is
    /// revoked — [`Error::ProcFailed`] surfaces here, never a wedge); for
    /// a send it verifies the destination is still alive. Waiting on an
    /// already-completed request is a no-op, like MPI's null request.
    pub fn wait(&mut self, ctx: &Ctx) -> Result<()> {
        ctx.fault_op(OpClass::Wait);
        match std::mem::replace(&mut self.state, ReqState::Done) {
            ReqState::Done => Ok(()),
            ReqState::Send { dest } => {
                if self.comm.shared.members[dest].is_failed() {
                    self.comm.handle_err(ctx, Err(Error::proc_failed(dest)))
                } else {
                    Ok(())
                }
            }
            ReqState::Recv { src, tag, out, posted } => {
                let t_block = ctx.now();
                let (_, _, arrive, raw) = self.comm.recv_raw_full(ctx, Some(src), Some(tag))?;
                let decoded = decode_into(&raw, out);
                self.comm.shared.pool.recycle(raw);
                decoded?;
                // Flight time between posting and blocking was hidden
                // behind whatever the rank computed in the meantime; the
                // remainder (up to arrival) was exposed stall, which
                // recv_raw_full already accounted.
                ctx.note_hidden(t_block.min(arrive) - posted);
                Ok(())
            }
        }
    }

    /// `MPI_Test`: complete the operation if it can finish without
    /// blocking. Returns `Ok(true)` once complete (for a receive, the data
    /// is then in its output buffer); `Ok(false)` means "not yet". A dead
    /// peer surfaces [`Error::ProcFailed`] immediately.
    pub fn test(&mut self, ctx: &Ctx) -> Result<bool> {
        match &self.state {
            ReqState::Done | ReqState::Send { .. } => self.wait(ctx).map(|()| true),
            ReqState::Recv { src, tag, .. } => {
                let (src, tag) = (*src, *tag);
                if self.comm.iprobe(ctx, Some(src), Some(tag))? {
                    self.wait(ctx).map(|()| true)
                } else if self.comm.shared.members[src].is_failed() {
                    // A dead source with nothing queued will never deliver
                    // (one more probe closes the push-then-die race).
                    if self.comm.iprobe(ctx, Some(src), Some(tag))? {
                        return self.wait(ctx).map(|()| true);
                    }
                    self.state = ReqState::Done;
                    self.comm.handle_err(ctx, Err(Error::proc_failed(src)))
                } else {
                    Ok(false)
                }
            }
        }
    }

    /// True once the request has been completed (successfully or not).
    pub fn is_done(&self) -> bool {
        matches!(self.state, ReqState::Done)
    }
}

/// `MPI_Waitall`: complete every request. All requests are driven to
/// completion even when some fail (so no posted receive is left dangling);
/// the first error encountered, in request order, is returned — the
/// uniform-failure discipline a halo exchange needs before entering
/// recovery.
pub fn waitall<T: MpiData>(ctx: &Ctx, reqs: &mut [Request<'_, T>]) -> Result<()> {
    let mut first_err = None;
    for r in reqs.iter_mut() {
        if let Err(e) = r.wait(ctx) {
            if first_err.is_none() {
                first_err = Some(e);
            }
        }
    }
    match first_err {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("cid", &self.shared.cid)
            .field("rank", &self.rank)
            .field("size", &self.size())
            .field("revoked", &self.is_revoked())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Intercommunicators
// ---------------------------------------------------------------------------

/// Shared state of an intercommunicator (two disjoint groups).
pub(crate) struct InterShared {
    /// `groups[0]` = the group that initiated the spawn (parents);
    /// `groups[1]` = the spawned group (children).
    pub groups: [Vec<Arc<ProcState>>; 2],
    /// Both groups concatenated (side 0 then side 1): the participant
    /// space of every inter-collective, with the intercommunicator's id,
    /// revoke flag and operation table.
    pub all: CommShared,
}

impl InterShared {
    pub fn new(groups: [Vec<Arc<ProcState>>; 2]) -> Arc<Self> {
        let all = CommShared::over(groups.concat());
        Arc::new(InterShared { groups, all })
    }
}

/// A rank's handle onto an intercommunicator, as produced by
/// [`crate::spawn::comm_spawn_multiple`] (parent side) or
/// [`Ctx::parent`](crate::runtime::Ctx::parent) (child side).
pub struct InterComm {
    pub(crate) shared: Arc<InterShared>,
    /// 0 = parent side, 1 = child side.
    pub(crate) side: usize,
    pub(crate) rank: usize,
    op_seq: Cell<u64>,
}

impl InterComm {
    pub(crate) fn new(shared: Arc<InterShared>, side: usize, rank: usize) -> Self {
        InterComm { shared, side, rank, op_seq: Cell::new(0) }
    }

    /// Rank within the local group.
    pub fn local_rank(&self) -> usize {
        self.rank
    }

    /// Size of the local group.
    pub fn local_size(&self) -> usize {
        self.shared.groups[self.side].len()
    }

    /// Size of the remote group.
    pub fn remote_size(&self) -> usize {
        self.shared.groups[1 - self.side].len()
    }

    /// True on the child (spawned) side — the side for which
    /// `MPI_Comm_get_parent` would return this intercommunicator.
    pub fn is_child_side(&self) -> bool {
        self.side == 1
    }

    fn my_index(&self) -> usize {
        if self.side == 0 {
            self.rank
        } else {
            self.shared.groups[0].len() + self.rank
        }
    }

    fn next_key(&self, kind: OpKind) -> OpKey {
        OpKey { seq: self.op_seq.replace(self.op_seq.get() + 1), kind }
    }

    /// `MPI_Intercomm_merge`: fuse both groups into one intracommunicator.
    /// The group(s) passing `high = true` are ranked after the other group
    /// (the paper has children pass `true` so they land on the top ranks,
    /// its Fig. 2).
    pub fn merge(&self, ctx: &Ctx, high: bool) -> Result<Comm> {
        ctx.fault_op(OpClass::Merge);
        let all = &self.shared.all;
        let p = all.members.len();
        let n0 = self.shared.groups[0].len();
        let cost = ctx.model().intercomm_merge(p);
        let id = ("intercomm_merge", self.next_key(OpKind::Merge));
        let deposit = Deposit::MergeSide { high };
        let res = all.collective(ctx, self.my_index(), id, deposit, |slots| {
            // Which side asked to be high? (Indices < n0 are side 0.)
            let asked = |side: &mut [Slot]| {
                arrived(side).any(|(_, s)| matches!(s.deposit, Deposit::MergeSide { high: true }))
            };
            let (side0, side1) = slots.split_at_mut(n0);
            let (side0_high, side1_high) = (asked(side0), asked(side1));
            // Low side first. Ties keep side 0 first (MPI leaves the
            // order implementation-defined in that case).
            let first = if !side0_high || side1_high == side0_high { 0..n0 } else { n0..p };
            let order = first.clone().chain((0..p).filter(|i| !first.contains(i)));
            let shared = CommShared::new(order.clone().map(|i| all.members[i].clone()).collect());
            for (new_rank, i) in order.enumerate() {
                slots[i].share = Share::Comm(Arc::clone(&shared), new_rank);
            }
            (Ok(()), cost)
        });
        Comm::from_share(res, "merge")
    }

    /// `OMPI_Comm_agree` over both groups of the intercommunicator (the
    /// paper calls this on the parent intercommunicator to synchronize
    /// parents and children during recovery).
    pub fn agree(&self, ctx: &Ctx, flag: &mut bool) -> Result<()> {
        ctx.fault_op(OpClass::Agree);
        let id = ("intercomm_agree", self.next_key(OpKind::Agree));
        self.shared.all.agree(ctx, self.my_index(), id, flag)
    }

    /// Revoke the intercommunicator.
    pub fn revoke(&self, ctx: &Ctx) {
        ctx.check_killed();
        self.shared.all.revoked.store(true, Ordering::Release);
        for m in &self.shared.all.members {
            m.wake();
        }
        let p = self.shared.all.members.len();
        ctx.advance(ctx.model().revoke(p));
    }
}

impl std::fmt::Debug for InterComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InterComm")
            .field("cid", &self.shared.all.cid)
            .field("side", &self.side)
            .field("rank", &self.rank)
            .field("local", &self.local_size())
            .field("remote", &self.remote_size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run, RunConfig};

    /// Spin (cooperatively) until `ready`.
    fn wait_until(ready: impl Fn() -> bool) {
        while !ready() {
            crate::fiber::yield_now();
        }
    }

    fn unwound(comm: &Comm, rank: usize) -> bool {
        comm.shared.members[rank].dead.load(Ordering::Acquire)
    }

    #[test]
    fn a_member_killed_after_depositing_contributes_and_its_buffer_is_recycled_once() {
        const P: usize = 5;
        const VICTIM: usize = 3;
        let report = run(RunConfig::local(P), |ctx| {
            let w = ctx.initial_world().unwrap();
            let mine = vec![w.rank() as u64; w.rank() + 1];
            if w.rank() != 0 {
                // The victim never returns: it dies blocked in the gather,
                // after its deposit.
                assert!(matches!(w.gather_view(ctx, 0, &mine), Ok(None)));
                return;
            }
            // The root holds back until all the others are in, then kills
            // one of them and only joins once that one has unwound.
            let gather = OpKey { seq: 0, kind: OpKind::Gather };
            wait_until(|| w.shared.ops.arrived_in(gather) == P - 1);
            w.inject_kill(VICTIM);
            wait_until(|| unwound(&w, VICTIM));
            assert_eq!(w.shared.pool.pooled(), 0, "every buffer is in the rendezvous");
            let parts = w.gather_view(ctx, 0, &mine).unwrap().expect("the root's view");
            for r in 0..P {
                assert_eq!(parts.part(r).to_vec(), vec![r as u64; r + 1], "rank {r}'s bytes");
            }
            assert_eq!(w.shared.pool.pooled(), 0, "the view owns them while it lives");
            drop(parts);
            assert_eq!(w.shared.pool.pooled(), P, "each once — the dead member's too");
            // All P allocations are distinct: nothing went back twice.
            let mut bufs: Vec<BytesMut> = (0..P).map(|_| w.shared.pool.take(0)).collect();
            bufs.sort_by_key(|b| b.as_ptr() as usize);
            bufs.dedup_by_key(|b| b.as_ptr() as usize);
            assert_eq!((bufs.len(), w.shared.pool.pooled()), (P, 0));
            ctx.report_f64("checked", 1.0);
        });
        report.assert_no_app_errors();
        assert_eq!((report.procs_failed, report.get_f64("checked")), (1, Some(1.0)));
    }

    #[test]
    fn a_root_killed_while_holding_its_view_leaks_nothing() {
        const P: usize = 4;
        const ROOT: usize = 1;
        let report = run(RunConfig::local(P), |ctx| {
            let w = ctx.initial_world().unwrap();
            let view = w.gather_view(ctx, ROOT, &[w.rank() as f64; 64]).unwrap();
            assert_eq!(view.is_some(), w.rank() == ROOT);
            if let Some(view) = view {
                assert_eq!((view.len(), w.shared.pool.pooled()), (P, 0));
                ctx.die(); // the unwind drops `view`
            }
            if w.rank() == 0 {
                wait_until(|| unwound(&w, ROOT));
                assert_eq!(w.shared.pool.pooled(), P, "the view went back as the root unwound");
                ctx.report_f64("checked", 1.0);
            }
        });
        report.assert_no_app_errors();
        assert_eq!((report.procs_failed, report.get_f64("checked")), (1, Some(1.0)));
    }

    #[test]
    fn gather_rounds_cycle_the_pool_within_its_bound() {
        // More ranks than the default bound, so the bound follows the
        // communicator; rounds apart (a barrier) reuse round one's buffers.
        const P: usize = 40;
        let report = run(RunConfig::local(P), |ctx| {
            let w = ctx.initial_world().unwrap();
            let mut first: Vec<usize> = Vec::new();
            for round in 0..6 {
                let mine = [w.rank() as u32; 100];
                if let Some(view) = w.gather_view(ctx, 0, &mine).unwrap() {
                    let mut ptrs: Vec<usize> =
                        (0..P).map(|r| view.parts.bufs[r].as_ptr() as usize).collect();
                    ptrs.sort_unstable();
                    ptrs.dedup();
                    assert_eq!(ptrs.len(), P, "round {round}: one buffer per rank");
                    if round == 0 {
                        first = ptrs;
                    } else {
                        assert_eq!(ptrs, first, "round {round} reuses round 0's buffers");
                    }
                }
                assert!(w.shared.pool.pooled() <= P);
                w.barrier(ctx).unwrap();
            }
            if w.rank() == 0 {
                assert_eq!(w.shared.pool.pooled(), P);
            }
        });
        report.assert_no_app_errors();
    }

    #[test]
    fn scalar_allreduce_folds_in_rank_order() {
        // A sum whose value depends on the association: only the
        // left-to-right fold over ascending ranks gives this result.
        let terms: [f64; 6] = [1e16, 1.0, -1e16, 1.0, 3.0, 1e-3];
        let want = terms.iter().copied().reduce(|a, b| a + b).unwrap();
        assert_ne!(want, terms.iter().rev().copied().reduce(|a, b| a + b).unwrap());
        let report = run(RunConfig::local(terms.len()), move |ctx| {
            let w = ctx.initial_world().unwrap();
            let sum = w.allreduce_sum(ctx, terms[w.rank()]).unwrap();
            assert_eq!(sum.to_bits(), want.to_bits());
            let sums = w.allreduce(ctx, ReduceOp::Sum, &[terms[w.rank()], 1.0]).unwrap();
            assert_eq!((sums[0].to_bits(), sums[1]), (want.to_bits(), terms.len() as f64));
            assert_eq!(w.allreduce_max(ctx, w.rank()).unwrap(), terms.len() - 1);
            assert_eq!(w.allreduce_min(ctx, -(w.rank() as i32)).unwrap(), 1 - terms.len() as i32);
        });
        report.assert_no_app_errors();
    }
}
