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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::{Bytes, BytesMut};

use crate::bufpool::BufPool;
use crate::datatype::{decode, decode_into, decode_one, encode, encode_into, MpiData, WireSlice};
use crate::error::{Error, Result};
use crate::faultplan::OpClass;
use crate::group::Group;
use crate::mailbox::{Envelope, Pattern, Tag};
use crate::proc::{failure_epoch, ProcState};
use crate::rendezvous::{Contribution, OpCtx, OpData, OpKey, OpKind, OpSemantics, OpTable};
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
    /// `(epoch, failed ranks)` — the member failure scan, re-run only
    /// when the global failure epoch moves. Keeps `failed_ranks` O(1)
    /// amortized instead of O(members) per call.
    failed_cache: parking_lot::Mutex<(u64, Vec<usize>)>,
    /// The member list as a [`Group`], built once on first use. Shared
    /// storage: every rank's `comm.group()` is an O(1) clone of the
    /// same group (and shares its lazy membership index), so the
    /// world-wide `failedProcsList` stays linear per rank.
    group_cache: OnceLock<Group>,
}

impl CommShared {
    pub fn new(members: Vec<Arc<ProcState>>) -> Arc<Self> {
        Arc::new(CommShared {
            cid: alloc_cid(),
            members,
            revoked: AtomicBool::new(false),
            ops: OpTable::new(),
            pool: BufPool::default(),
            failed_cache: parking_lot::Mutex::new((0, Vec::new())),
            group_cache: OnceLock::new(),
        })
    }

    fn failed_ranks_cached(&self) -> Vec<usize> {
        let epoch = failure_epoch();
        if epoch == 0 {
            return Vec::new();
        }
        let mut c = self.failed_cache.lock();
        if c.0 != epoch {
            c.1 = self
                .members
                .iter()
                .enumerate()
                .filter(|(_, p)| p.is_failed())
                .map(|(r, _)| r)
                .collect();
            c.0 = epoch;
        }
        c.1.clone()
    }
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
        }
    }

    /// `MPI_Comm_set_errhandler`: attach a handler invoked (on this rank)
    /// whenever an operation on this handle fails. Like MPI error
    /// handlers, it runs *before* the error is returned; unlike
    /// `MPI_ERRORS_ARE_FATAL`, the error is still returned afterwards
    /// (the `MPI_ERRORS_RETURN` + handler discipline ULFM requires).
    pub fn set_errhandler(&self, h: impl Fn(&Ctx, &Comm, &Error) + Send + 'static) {
        *self.errhandler.borrow_mut() = Some(Box::new(h));
    }

    /// Run the attached error handler (if any) and pass the error through.
    fn handle_err<T>(&self, ctx: &Ctx, r: Result<T>) -> Result<T> {
        if let Err(e) = &r {
            if matches!(e, Error::ProcFailed { .. } | Error::Revoked) {
                ctx.metrics.note_failure_observed();
            }
            if let Some(h) = &*self.errhandler.borrow() {
                h(ctx, self, e);
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
        self.shared.failed_ranks_cached()
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
        let mut payload = self.shared.pool.take(data.len() * T::WIDTH);
        encode_into(data, &mut payload);
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
            crate::sched::block_wait(ctx.me());
            if !crate::fiber::in_fiber() {
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

    pub(crate) fn next_key(&self, kind: OpKind) -> OpKey {
        let seq = self.op_seq.get();
        self.op_seq.set(seq + 1);
        OpKey { seq, kind }
    }

    fn next_recovery_key(&self, kind: OpKind) -> OpKey {
        let seq = self.recovery_seq.get();
        self.recovery_seq.set(seq + 1);
        OpKey { seq, kind }
    }

    fn op_ctx<'a>(&'a self, ctx: &'a Ctx, semantics: OpSemantics, fail_cost: f64) -> OpCtx<'a> {
        OpCtx {
            my_index: self.rank,
            participants: &self.shared.members,
            me: ctx.me(),
            revoked: &self.shared.revoked,
            semantics,
            fail_cost,
            stall_timeout: ctx.stall_timeout(),
        }
    }

    fn strict() -> OpSemantics {
        OpSemantics { tolerant: false, revocable: true }
    }

    /// `MPI_Barrier`. The paper uses a barrier's error return as its
    /// failure detector (its Fig. 3, line 13).
    pub fn barrier(&self, ctx: &Ctx) -> Result<()> {
        ctx.fault_op(OpClass::Barrier);
        let t0 = ctx.now();
        let p = self.size();
        let cost = ctx.net().barrier(p);
        let key = self.next_key(OpKind::Barrier);
        let out = self.shared.ops.run_op(
            key,
            self.op_ctx(ctx, Self::strict(), cost),
            Contribution { clock: ctx.now(), data: OpData::None },
            move |_| (Arc::new(()) as _, cost),
        );
        ctx.sync_to(&out);
        ctx.trace_event("barrier", self.shared.cid, t0, ctx.now());
        self.handle_err(ctx, out.result.as_ref().map(|_| ()).map_err(Clone::clone))
    }

    /// `MPI_Bcast`: `root` supplies `Some(data)`, everyone gets the data.
    pub fn bcast<T: MpiData>(&self, ctx: &Ctx, root: usize, data: Option<&[T]>) -> Result<Vec<T>> {
        ctx.fault_op(OpClass::Bcast);
        let t0 = ctx.now();
        if (self.rank == root) != data.is_some() {
            return Err(Error::InvalidArg("bcast: exactly the root must supply data".into()));
        }
        let p = self.size();
        let net = *ctx.net();
        let contrib = match data {
            Some(d) => OpData::Bytes(encode(d)),
            None => OpData::None,
        };
        let key = self.next_key(OpKind::Bcast);
        let fail_cost = net.barrier(p);
        let out = self.shared.ops.run_op(
            key,
            self.op_ctx(ctx, Self::strict(), fail_cost),
            Contribution { clock: ctx.now(), data: contrib },
            move |c| {
                let bytes = match &c[&root].data {
                    OpData::Bytes(b) => b.clone(),
                    _ => unreachable!("bcast root contributed no data"),
                };
                let cost = net.tree(p, bytes.len());
                (Arc::new(bytes) as _, cost)
            },
        );
        ctx.sync_to(&out);
        ctx.trace_event("bcast", self.shared.cid, t0, ctx.now());
        let bytes = self.handle_err(ctx, out.result.as_ref().map_err(Clone::clone))?;
        decode(bytes.downcast_ref::<Bytes>().expect("bcast payload"))
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
        let parts = self.gather_bytes(ctx, OpKind::Gather, mine)?;
        if self.rank != root {
            return Ok(None);
        }
        Gathered::new(parts).map(Some)
    }

    /// `MPI_Allgatherv`: like gather, but everyone gets all contributions.
    pub fn allgather<T: MpiData>(&self, ctx: &Ctx, mine: &[T]) -> Result<Vec<Vec<T>>> {
        let parts = self.gather_bytes(ctx, OpKind::Allgather, mine)?;
        let mut out = Vec::with_capacity(parts.len());
        for b in parts.iter() {
            out.push(decode(b)?);
        }
        Ok(out)
    }

    fn gather_bytes<T: MpiData>(
        &self,
        ctx: &Ctx,
        kind: OpKind,
        mine: &[T],
    ) -> Result<Arc<Vec<Bytes>>> {
        ctx.fault_op(OpClass::Gather);
        let t0 = ctx.now();
        let p = self.size();
        let net = *ctx.net();
        let key = self.next_key(kind);
        let fail_cost = net.barrier(p);
        let out = self.shared.ops.run_op(
            key,
            self.op_ctx(ctx, Self::strict(), fail_cost),
            Contribution { clock: ctx.now(), data: OpData::Bytes(encode(mine)) },
            move |c| {
                let mut parts = Vec::with_capacity(c.len());
                let mut total = 0usize;
                for (_, v) in c.iter() {
                    match &v.data {
                        OpData::Bytes(b) => {
                            total += b.len();
                            parts.push(b.clone());
                        }
                        _ => unreachable!("gather contribution"),
                    }
                }
                let cost = net.gather(p, total);
                (Arc::new(parts) as _, cost)
            },
        );
        ctx.sync_to(&out);
        ctx.trace_event("gather", self.shared.cid, t0, ctx.now());
        let res = self.handle_err(ctx, out.result.as_ref().map_err(Clone::clone))?;
        Ok(Arc::clone(res).downcast::<Vec<Bytes>>().expect("gather payload"))
    }

    /// `MPI_Scatterv`: the root supplies one slice per rank; each rank
    /// receives its slice.
    pub fn scatter<T: MpiData>(
        &self,
        ctx: &Ctx,
        root: usize,
        parts: Option<&[Vec<T>]>,
    ) -> Result<Vec<T>> {
        ctx.fault_op(OpClass::Scatter);
        let t0 = ctx.now();
        let p = self.size();
        if let Some(parts) = parts {
            if self.rank != root {
                return Err(Error::InvalidArg("scatter: only the root supplies parts".into()));
            }
            if parts.len() != p {
                return Err(Error::InvalidArg(format!(
                    "scatter: {} parts for {} ranks",
                    parts.len(),
                    p
                )));
            }
        } else if self.rank == root {
            return Err(Error::InvalidArg("scatter: root must supply parts".into()));
        }
        let net = *ctx.net();
        let contrib = match parts {
            Some(ps) => OpData::Parts(ps.iter().map(|v| encode(v)).collect()),
            None => OpData::None,
        };
        let key = self.next_key(OpKind::Scatter);
        let fail_cost = net.barrier(p);
        let out = self.shared.ops.run_op(
            key,
            self.op_ctx(ctx, Self::strict(), fail_cost),
            Contribution { clock: ctx.now(), data: contrib },
            move |c| {
                let parts = match &c[&root].data {
                    OpData::Parts(ps) => ps.clone(),
                    _ => unreachable!("scatter root contributed no parts"),
                };
                let total: usize = parts.iter().map(|b| b.len()).sum();
                let cost = net.gather(p, total);
                (Arc::new(parts) as _, cost)
            },
        );
        ctx.sync_to(&out);
        ctx.trace_event("scatter", self.shared.cid, t0, ctx.now());
        let res = self.handle_err(ctx, out.result.as_ref().map_err(Clone::clone))?;
        let parts = res.downcast_ref::<Vec<Bytes>>().expect("scatter payload");
        decode(&parts[self.rank])
    }

    /// `MPI_Alltoallv`: rank *i*'s `parts[j]` ends up as element *i* of
    /// rank *j*'s result.
    pub fn alltoall<T: MpiData>(&self, ctx: &Ctx, parts: &[Vec<T>]) -> Result<Vec<Vec<T>>> {
        ctx.fault_op(OpClass::Alltoall);
        let t0 = ctx.now();
        let p = self.size();
        if parts.len() != p {
            return Err(Error::InvalidArg(format!(
                "alltoall: {} parts for {} ranks",
                parts.len(),
                p
            )));
        }
        let net = *ctx.net();
        let key = self.next_key(OpKind::Alltoall);
        let fail_cost = net.barrier(p);
        let out = self.shared.ops.run_op(
            key,
            self.op_ctx(ctx, Self::strict(), fail_cost),
            Contribution {
                clock: ctx.now(),
                data: OpData::Parts(parts.iter().map(|v| encode(v)).collect()),
            },
            move |c| {
                let mut matrix: Vec<Vec<Bytes>> = vec![Vec::new(); p];
                let mut total = 0usize;
                for (src, v) in c.iter() {
                    match &v.data {
                        OpData::Parts(ps) => {
                            for (dst, b) in ps.iter().enumerate() {
                                total += b.len();
                                // Column per destination, in source order.
                                let _ = src;
                                matrix[dst].push(b.clone());
                            }
                        }
                        _ => unreachable!("alltoall contribution"),
                    }
                }
                let cost = p as f64 * net.latency + net.byte_time * total as f64;
                (Arc::new(matrix) as _, cost)
            },
        );
        ctx.sync_to(&out);
        ctx.trace_event("alltoall", self.shared.cid, t0, ctx.now());
        let res = self.handle_err(ctx, out.result.as_ref().map_err(Clone::clone))?;
        let matrix = res.downcast_ref::<Vec<Vec<Bytes>>>().expect("alltoall payload");
        matrix[self.rank].iter().map(|b| decode(b)).collect()
    }

    /// `MPI_Reduce` (element-wise): the root gets the combined vector.
    pub fn reduce<T: Reducible>(
        &self,
        ctx: &Ctx,
        root: usize,
        op: ReduceOp,
        mine: &[T],
    ) -> Result<Option<Vec<T>>> {
        let v = self.reduce_impl(ctx, OpKind::Reduce, op, mine, 1.0)?;
        Ok(if self.rank == root { Some(v) } else { None })
    }

    /// `MPI_Allreduce` (element-wise).
    pub fn allreduce<T: Reducible>(&self, ctx: &Ctx, op: ReduceOp, mine: &[T]) -> Result<Vec<T>> {
        self.reduce_impl(ctx, OpKind::Allreduce, op, mine, 2.0)
    }

    /// Scalar sum allreduce.
    pub fn allreduce_sum<T: Reducible>(&self, ctx: &Ctx, v: T) -> Result<T> {
        Ok(self.allreduce(ctx, ReduceOp::Sum, &[v])?[0])
    }

    /// Scalar max allreduce.
    pub fn allreduce_max<T: Reducible>(&self, ctx: &Ctx, v: T) -> Result<T> {
        Ok(self.allreduce(ctx, ReduceOp::Max, &[v])?[0])
    }

    /// Scalar min allreduce.
    pub fn allreduce_min<T: Reducible>(&self, ctx: &Ctx, v: T) -> Result<T> {
        Ok(self.allreduce(ctx, ReduceOp::Min, &[v])?[0])
    }

    fn reduce_impl<T: Reducible>(
        &self,
        ctx: &Ctx,
        kind: OpKind,
        op: ReduceOp,
        mine: &[T],
        tree_factor: f64,
    ) -> Result<Vec<T>> {
        ctx.fault_op(OpClass::Allreduce);
        let t0 = ctx.now();
        let p = self.size();
        let net = *ctx.net();
        let key = self.next_key(kind);
        let fail_cost = net.barrier(p);
        let nbytes = mine.len() * T::WIDTH;
        let out = self.shared.ops.run_op(
            key,
            self.op_ctx(ctx, Self::strict(), fail_cost),
            Contribution { clock: ctx.now(), data: OpData::Bytes(encode(mine)) },
            move |c| {
                let mut acc: Option<Vec<T>> = None;
                for (_, v) in c.iter() {
                    let vals: Vec<T> = match &v.data {
                        OpData::Bytes(b) => decode(b).expect("reduce payload"),
                        _ => unreachable!("reduce contribution"),
                    };
                    acc = Some(match acc {
                        None => vals,
                        Some(mut a) => {
                            assert_eq!(a.len(), vals.len(), "reduce length mismatch");
                            for (x, y) in a.iter_mut().zip(vals) {
                                *x = T::combine(op, *x, y);
                            }
                            a
                        }
                    });
                }
                let cost = tree_factor * net.tree(p, nbytes);
                (Arc::new(encode(&acc.unwrap_or_default())) as _, cost)
            },
        );
        ctx.sync_to(&out);
        ctx.trace_event("reduce", self.shared.cid, t0, ctx.now());
        let res = self.handle_err(ctx, out.result.as_ref().map_err(Clone::clone))?;
        decode(res.downcast_ref::<Bytes>().expect("reduce result"))
    }

    /// `MPI_Comm_split`. `color = None` is `MPI_UNDEFINED` (no resulting
    /// communicator for this rank); within a colour, new ranks are ordered
    /// by `(key, old rank)` — the mechanism the paper uses to restore the
    /// original rank order after recovery (its Fig. 7).
    pub fn split(&self, ctx: &Ctx, color: Option<i64>, key: i64) -> Result<Option<Comm>> {
        ctx.fault_op(OpClass::Split);
        let t0 = ctx.now();
        let p = self.size();
        let net = *ctx.net();
        // Capture the shared handle, not a members clone: every rank
        // cloning the member vec made split O(p²) across the communicator.
        let owner = Arc::clone(&self.shared);
        let opkey = self.next_key(OpKind::Split);
        let fail_cost = net.barrier(p);
        let out = self.shared.ops.run_op(
            opkey,
            self.op_ctx(ctx, Self::strict(), fail_cost),
            Contribution { clock: ctx.now(), data: OpData::SplitKey { color, key } },
            move |c| {
                // Group (old-rank, key) pairs by colour.
                let mut by_color: std::collections::BTreeMap<i64, Vec<(i64, usize)>> =
                    std::collections::BTreeMap::new();
                for (old_rank, v) in c.iter() {
                    if let OpData::SplitKey { color: Some(col), key } = v.data {
                        by_color.entry(col).or_default().push((key, *old_rank));
                    }
                }
                let mut result: std::collections::HashMap<usize, (Arc<CommShared>, usize)> =
                    std::collections::HashMap::new();
                for (_, mut list) in by_color {
                    list.sort_unstable();
                    let procs: Vec<Arc<ProcState>> =
                        list.iter().map(|&(_, r)| owner.members[r].clone()).collect();
                    let shared = CommShared::new(procs);
                    for (new_rank, &(_, old_rank)) in list.iter().enumerate() {
                        result.insert(old_rank, (Arc::clone(&shared), new_rank));
                    }
                }
                let cost = net.tree(p, 16);
                (Arc::new(result) as _, cost)
            },
        );
        ctx.sync_to(&out);
        ctx.trace_event("split", self.shared.cid, t0, ctx.now());
        let res = self.handle_err(ctx, out.result.as_ref().map_err(Clone::clone))?;
        let map = res
            .downcast_ref::<std::collections::HashMap<usize, (Arc<CommShared>, usize)>>()
            .expect("split result");
        Ok(map
            .get(&self.rank)
            .map(|(shared, new_rank)| Comm::from_shared(Arc::clone(shared), *new_rank)))
    }

    /// `MPI_Comm_dup`.
    pub fn dup(&self, ctx: &Ctx) -> Result<Comm> {
        ctx.fault_op(OpClass::Dup);
        let t0 = ctx.now();
        let p = self.size();
        let net = *ctx.net();
        let owner = Arc::clone(&self.shared);
        let key = self.next_key(OpKind::Dup);
        let fail_cost = net.barrier(p);
        let out = self.shared.ops.run_op(
            key,
            self.op_ctx(ctx, Self::strict(), fail_cost),
            Contribution { clock: ctx.now(), data: OpData::None },
            move |_| {
                let shared = CommShared::new(owner.members.clone());
                (Arc::new(shared) as _, net.tree(p, 16))
            },
        );
        ctx.sync_to(&out);
        ctx.trace_event("dup", self.shared.cid, t0, ctx.now());
        let res = self.handle_err(ctx, out.result.as_ref().map_err(Clone::clone))?;
        let shared = res.downcast_ref::<Arc<CommShared>>().expect("dup result");
        Ok(Comm::from_shared(Arc::clone(shared), self.rank))
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
        let t0 = ctx.now();
        let p = self.size();
        let owner = Arc::clone(&self.shared);
        let model = ctx.model_handle();
        let key = self.next_recovery_key(OpKind::Shrink);
        let out = self.shared.ops.run_op(
            key,
            self.op_ctx(ctx, OpSemantics { tolerant: true, revocable: false }, 0.0),
            Contribution { clock: ctx.now(), data: OpData::None },
            move |c| {
                let survivors: Vec<usize> = c.keys().copied().collect();
                let nfailed = p - survivors.len();
                let procs: Vec<Arc<ProcState>> =
                    survivors.iter().map(|&r| owner.members[r].clone()).collect();
                let shared = CommShared::new(procs);
                let mut rank_map = std::collections::HashMap::new();
                for (new_rank, &old_rank) in survivors.iter().enumerate() {
                    rank_map.insert(old_rank, new_rank);
                }
                let cost = model.shrink(p, nfailed);
                (Arc::new((shared, rank_map)) as _, cost)
            },
        );
        ctx.sync_to(&out);
        ctx.trace_event("shrink", self.shared.cid, t0, ctx.now());
        let res = self.handle_err(ctx, out.result.as_ref().map_err(Clone::clone))?;
        let (shared, rank_map) = res
            .downcast_ref::<(Arc<CommShared>, std::collections::HashMap<usize, usize>)>()
            .expect("shrink result");
        let new_rank = *rank_map.get(&self.rank).expect("shrink: calling rank must be a survivor");
        Ok(Comm::from_shared(Arc::clone(shared), new_rank))
    }

    /// `OMPI_Comm_agree`: fault-tolerant agreement on the logical AND of
    /// `flag` across the survivors. Always deposits the agreed value into
    /// `flag`; returns [`Error::ProcFailed`] if this rank has observed
    /// failures it has not yet acknowledged with [`Comm::failure_ack`]
    /// (ULFM's uniform-return rule). Works on revoked communicators.
    pub fn agree(&self, ctx: &Ctx, flag: &mut bool) -> Result<()> {
        ctx.fault_op(OpClass::Agree);
        let t0 = ctx.now();
        let p = self.size();
        let model = ctx.model_handle();
        let nfailed_now = self.failed_ranks().len();
        let key = self.next_recovery_key(OpKind::Agree);
        let out = self.shared.ops.run_op(
            key,
            self.op_ctx(ctx, OpSemantics { tolerant: true, revocable: false }, 0.0),
            Contribution { clock: ctx.now(), data: OpData::Flag(*flag) },
            move |c| {
                let mut acc = true;
                for (_, v) in c.iter() {
                    if let OpData::Flag(f) = v.data {
                        acc &= f;
                    }
                }
                let cost = model.agree(p, nfailed_now);
                (Arc::new(acc) as _, cost)
            },
        );
        ctx.sync_to(&out);
        ctx.trace_event("agree", self.shared.cid, t0, ctx.now());
        let res = out.result.as_ref().map_err(Clone::clone)?;
        *flag = *res.downcast_ref::<bool>().expect("agree result");
        let unacked: Vec<usize> = {
            let acked = self.acked.borrow();
            self.failed_ranks().into_iter().filter(|r| !acked.contains(r)).collect()
        };
        if unacked.is_empty() {
            Ok(())
        } else {
            self.handle_err(ctx, Err(Error::ProcFailed { ranks: unacked }))
        }
    }

    /// `OMPI_Comm_failure_ack`: acknowledge every failure observed so far.
    pub fn failure_ack(&self, ctx: &Ctx) {
        ctx.check_killed();
        let failed = self.failed_ranks();
        *self.acked.borrow_mut() = failed;
        ctx.advance(ctx.model().failure_ack(self.size()));
    }

    /// `OMPI_Comm_failure_get_acked`: the group of acknowledged failures.
    pub fn failure_get_acked(&self) -> Group {
        let acked = self.acked.borrow();
        Group::new(acked.iter().map(|&r| self.shared.members[r].id).collect())
    }

    pub(crate) fn members(&self) -> &[Arc<ProcState>] {
        &self.shared.members
    }
}

/// What the root of a [`Comm::gather_view`] holds: every rank's
/// contribution, still in wire form, in rank order. The bytes are the
/// ones each member encoded — shared with the collective's bookkeeping,
/// never copied for the root — and stay alive as long as this handle.
pub struct Gathered<T: MpiData> {
    parts: Arc<Vec<Bytes>>,
    _elem: PhantomData<T>,
}

impl<T: MpiData> Gathered<T> {
    /// Checks every contribution's width once (the error [`decode`]
    /// would give), so the views below are infallible.
    fn new(parts: Arc<Vec<Bytes>>) -> Result<Self> {
        for b in parts.iter() {
            WireSlice::<T>::new(b)?;
        }
        Ok(Gathered { parts, _elem: PhantomData })
    }

    /// Number of contributions (the communicator size).
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True for a gather over no rank (never, on a live communicator).
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Rank `rank`'s contribution.
    pub fn part(&self, rank: usize) -> WireSlice<'_, T> {
        WireSlice::new(&self.parts[rank]).expect("widths were checked at construction")
    }

    /// Every contribution decoded into a vector of its own, in rank order.
    pub fn to_vecs(&self) -> Vec<Vec<T>> {
        (0..self.len()).map(|r| self.part(r).to_vec()).collect()
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
    pub cid: u64,
    /// `groups[0]` = the group that initiated the spawn (parents);
    /// `groups[1]` = the spawned group (children).
    pub groups: [Vec<Arc<ProcState>>; 2],
    /// Both groups concatenated (side 0 then side 1): the participant
    /// space of every inter-collective, built once at construction
    /// instead of per call per rank.
    pub all: Vec<Arc<ProcState>>,
    pub revoked: AtomicBool,
    pub ops: OpTable,
    /// `(epoch, failed count)` over `all`; see `CommShared::failed_cache`.
    failed_count: parking_lot::Mutex<(u64, usize)>,
}

impl InterShared {
    pub fn new(groups: [Vec<Arc<ProcState>>; 2]) -> Arc<Self> {
        let mut all = groups[0].clone();
        all.extend(groups[1].iter().cloned());
        Arc::new(InterShared {
            cid: alloc_cid(),
            groups,
            all,
            revoked: AtomicBool::new(false),
            ops: OpTable::new(),
            failed_count: parking_lot::Mutex::new((0, 0)),
        })
    }

    fn failed_count_cached(&self) -> usize {
        let epoch = failure_epoch();
        if epoch == 0 {
            return 0;
        }
        let mut c = self.failed_count.lock();
        if c.0 != epoch {
            c.1 = self.all.iter().filter(|m| m.is_failed()).count();
            c.0 = epoch;
        }
        c.1
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
        let seq = self.op_seq.get();
        self.op_seq.set(seq + 1);
        OpKey { seq, kind }
    }

    /// `MPI_Intercomm_merge`: fuse both groups into one intracommunicator.
    /// The group(s) passing `high = true` are ranked after the other group
    /// (the paper has children pass `true` so they land on the top ranks,
    /// its Fig. 2).
    pub fn merge(&self, ctx: &Ctx, high: bool) -> Result<Comm> {
        ctx.fault_op(OpClass::Merge);
        let t0 = ctx.now();
        let p = self.shared.all.len();
        let n0 = self.shared.groups[0].len();
        let model = ctx.model_handle();
        let net = *ctx.net();
        let key = self.next_key(OpKind::Merge);
        let opctx = OpCtx {
            my_index: self.my_index(),
            participants: &self.shared.all,
            me: ctx.me(),
            revoked: &self.shared.revoked,
            semantics: OpSemantics { tolerant: false, revocable: true },
            fail_cost: net.barrier(p),
            stall_timeout: ctx.stall_timeout(),
        };
        let owner = Arc::clone(&self.shared);
        let out = self.shared.ops.run_op(
            key,
            opctx,
            Contribution { clock: ctx.now(), data: OpData::MergeSide { high } },
            move |c| {
                // Which side asked to be high? (Indices < n0 are side 0.)
                let mut side0_high = false;
                let mut side1_high = false;
                for (&idx, v) in c.iter() {
                    if let OpData::MergeSide { high } = v.data {
                        if idx < n0 {
                            side0_high |= high;
                        } else {
                            side1_high |= high;
                        }
                    }
                }
                // Low side first. Ties keep side 0 first (MPI leaves the
                // order implementation-defined in that case).
                let side0_first = !side0_high || side1_high == side0_high;
                let (first, second) = if side0_first {
                    (&owner.all[..n0], &owner.all[n0..])
                } else {
                    (&owner.all[n0..], &owner.all[..n0])
                };
                let mut procs = first.to_vec();
                procs.extend_from_slice(second);
                let shared = CommShared::new(procs);
                (Arc::new((shared, side0_first)) as _, model.intercomm_merge(p))
            },
        );
        ctx.sync_to(&out);
        ctx.trace_event("intercomm_merge", self.shared.cid, t0, ctx.now());
        let res = out.result.as_ref().map_err(Clone::clone)?;
        let (shared, side0_first) =
            res.downcast_ref::<(Arc<CommShared>, bool)>().expect("merge result");
        let new_rank = match (self.side, *side0_first) {
            (0, true) => self.rank,
            (1, true) => n0 + self.rank,
            (1, false) => self.rank,
            (0, false) => self.shared.groups[1].len() + self.rank,
            _ => unreachable!("side is always 0 or 1"),
        };
        Ok(Comm::from_shared(Arc::clone(shared), new_rank))
    }

    /// `OMPI_Comm_agree` over both groups of the intercommunicator (the
    /// paper calls this on the parent intercommunicator to synchronize
    /// parents and children during recovery).
    pub fn agree(&self, ctx: &Ctx, flag: &mut bool) -> Result<()> {
        ctx.fault_op(OpClass::Agree);
        let t0 = ctx.now();
        let p = self.shared.all.len();
        let model = ctx.model_handle();
        let nfailed = self.shared.failed_count_cached();
        let key = self.next_key(OpKind::Agree);
        let opctx = OpCtx {
            my_index: self.my_index(),
            participants: &self.shared.all,
            me: ctx.me(),
            revoked: &self.shared.revoked,
            semantics: OpSemantics { tolerant: true, revocable: false },
            fail_cost: 0.0,
            stall_timeout: ctx.stall_timeout(),
        };
        let out = self.shared.ops.run_op(
            key,
            opctx,
            Contribution { clock: ctx.now(), data: OpData::Flag(*flag) },
            move |c| {
                let mut acc = true;
                for (_, v) in c.iter() {
                    if let OpData::Flag(f) = v.data {
                        acc &= f;
                    }
                }
                (Arc::new(acc) as _, model.agree(p, nfailed))
            },
        );
        ctx.sync_to(&out);
        ctx.trace_event("intercomm_agree", self.shared.cid, t0, ctx.now());
        let res = out.result.as_ref().map_err(Clone::clone)?;
        *flag = *res.downcast_ref::<bool>().expect("agree result");
        Ok(())
    }

    /// Revoke the intercommunicator.
    pub fn revoke(&self, ctx: &Ctx) {
        ctx.check_killed();
        self.shared.revoked.store(true, Ordering::Release);
        for m in &self.shared.all {
            m.wake();
        }
        let p = self.shared.all.len();
        ctx.advance(ctx.model().revoke(p));
    }
}

impl std::fmt::Debug for InterComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InterComm")
            .field("cid", &self.shared.cid)
            .field("side", &self.side)
            .field("rank", &self.rank)
            .field("local", &self.local_size())
            .field("remote", &self.remote_size())
            .finish()
    }
}
