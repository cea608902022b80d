//! Stackful fibers: the execution substrate of the pooled scheduler.
//!
//! Each simulated rank runs on its own heap-allocated stack as a *fiber*
//! — a continuation a worker thread can suspend at any blocking runtime
//! op and resume later, so a handful of OS threads time-slice 100k ranks.
//! The context switch saves exactly what the SysV x86-64 ABI requires
//! across a call (rsp plus the six callee-saved GPRs); everything else is
//! caller-saved and already spilled by the compiler at the call site.
//!
//! Stacks come from a process-global pool that carves them out of large
//! heap chunks: one allocation maps a single VMA covering many stacks,
//! and untouched pages cost no RSS, so 100k × 1 MiB of *address space*
//! stays well under both the kernel `max_map_count` limit and real
//! memory. Stacks are recycled, never freed.
//!
//! A canary word sits just *below* each stack's usable range and is
//! checked on every suspension; overflow aborts loudly rather than
//! corrupting a neighbouring stack. The word is not on a page of its own:
//! every stack keeps its top 16 bytes unused, and the canary of the stack
//! carved directly above lives there (a chunk's first stack has its canary
//! at the end of the chunk's leading pad page). That page holds the lower
//! stack's seeded frame anyway, so a rank's resident stack is the pages
//! its frames reach — two, at the deepest, for any rank of a 1k-rank
//! repair (the `ranks1k_stack_pages` gate of `expt regress`).
//!
//! On targets without the assembly shim the module still compiles;
//! [`SUPPORTED`] is `false` and the runtime falls back to
//! thread-per-rank.

#![allow(dead_code)]

use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Is the fiber backend available on this target?
pub(crate) const SUPPORTED: bool = cfg!(all(target_arch = "x86_64", target_os = "linux"));

/// Why a resumed fiber handed control back to its worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SwitchReason {
    /// The rank's entry function returned (or unwound); the fiber is done.
    Finished,
    /// Parked in a blocking op; resume only after a wake.
    Parked,
    /// Voluntary yield (polling loops); requeue immediately.
    Yielded,
}

/// Saved machine context: just the stack pointer. The callee-saved
/// registers live *on* the saved stack, pushed by the switch shim.
#[repr(C)]
struct SwitchCtx {
    rsp: *mut u8,
}

impl SwitchCtx {
    fn null() -> Self {
        SwitchCtx { rsp: std::ptr::null_mut() }
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod imp {
    // The switch shim. `ulfm_fiber_switch(save, restore)` pushes the
    // callee-saved registers, stores rsp through `save`, loads rsp from
    // `restore`, pops and returns — resuming whatever the other context
    // pushed. A brand-new fiber's stack is pre-seeded (see `seed_stack`)
    // so the first "resume" pops zeros, then `ret`s into the entry
    // trampoline with the fiber pointer staged in r12.
    core::arch::global_asm!(
        ".text",
        ".balign 16",
        ".globl ulfm_fiber_switch",
        ".type ulfm_fiber_switch,@function",
        "ulfm_fiber_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, [rsi]",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".size ulfm_fiber_switch, . - ulfm_fiber_switch",
        // Entry trampoline: first resume `ret`s here with r12 = *mut
        // Fiber. Zero rbp to end unwinder backtraces, realign the stack
        // to the SysV call-boundary contract, and enter Rust. The entry
        // function never returns; ud2 traps if it somehow does.
        ".balign 16",
        ".globl ulfm_fiber_entry",
        ".type ulfm_fiber_entry,@function",
        "ulfm_fiber_entry:",
        "mov rdi, r12",
        "xor ebp, ebp",
        "and rsp, -16",
        "call ulfm_fiber_main",
        "ud2",
        ".size ulfm_fiber_entry, . - ulfm_fiber_entry",
    );

    extern "C" {
        pub(super) fn ulfm_fiber_switch(
            save: *mut super::SwitchCtx,
            restore: *const super::SwitchCtx,
        );
        pub(super) fn ulfm_fiber_entry();
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod imp {
    // Fallback so the crate still builds; the runtime never constructs
    // fibers when `SUPPORTED` is false.

    /// # Safety
    ///
    /// None required: `unsafe` only to match the shim's signature, and it
    /// never runs.
    pub(super) unsafe fn ulfm_fiber_switch(
        _save: *mut super::SwitchCtx,
        _restore: *const super::SwitchCtx,
    ) {
        unreachable!("fiber backend not available on this target")
    }
    /// # Safety
    ///
    /// As above: a signature twin that never runs.
    pub(super) unsafe fn ulfm_fiber_entry() {
        unreachable!("fiber backend not available on this target")
    }
}

// Per-worker-thread switch state. A fiber always runs on some worker's
// OS thread, so thread-locals are shared between the worker loop and the
// fiber code it is currently running.
thread_local! {
    /// Where `suspend` returns to: the worker context of the active resume.
    static WORKER_CTX: Cell<*mut SwitchCtx> = const { Cell::new(std::ptr::null_mut()) };
    /// The fiber currently running on this thread (null = none).
    static ACTIVE: Cell<*mut Fiber> = const { Cell::new(std::ptr::null_mut()) };
    /// Reason reported by the last suspension.
    static REASON: Cell<SwitchReason> = const { Cell::new(SwitchReason::Finished) };
}

/// Is the calling code running inside a fiber (as opposed to a plain OS
/// thread)? Decides park strategy at every blocking site.
///
/// Never inlined: a suspended fiber may resume on another worker thread,
/// and the compiler treats a thread-local's address as fixed for the
/// whole of a function. Inlined into a loop around a park, the address
/// of the first worker's `ACTIVE` would be hoisted out of the loop and
/// read after a migration, when that worker may be idle (`ACTIVE` null).
#[inline(never)]
pub(crate) fn in_fiber() -> bool {
    ACTIVE.with(|a| !a.get().is_null())
}

const CANARY: u64 = 0x5eed_cafe_dead_beef;

/// One rank's continuation: a recycled stack plus the saved context.
pub(crate) struct Fiber {
    ctx: SwitchCtx,
    stack: Stack,
    /// Entry closure; taken by the trampoline on first resume.
    func: Option<Box<dyn FnOnce() + Send + 'static>>,
    finished: bool,
}

// SAFETY: the raw pointers are either owned (the stack) or only touched
// while the fiber is mounted on exactly one worker thread.
unsafe impl Send for Fiber {}

impl Fiber {
    /// Build a fiber that will run `func` on a `stack_size`-byte stack.
    /// The box's address is burned into the seeded stack frame, so the
    /// fiber must stay in this box for its whole life.
    pub(crate) fn new(stack_size: usize, func: Box<dyn FnOnce() + Send + 'static>) -> Box<Fiber> {
        if !SUPPORTED {
            unreachable!("fiber backend not available on this target");
        }
        let stack = StackPool::take(stack_size);
        let mut f =
            Box::new(Fiber { ctx: SwitchCtx::null(), stack, func: Some(func), finished: false });
        let fiber_ptr: *mut Fiber = &mut *f;
        // SAFETY: the stack is this fiber's alone, and the seeded frame
        // fits below its `top()`; the canary word is inside the stack's
        // chunk (never freed), 8-aligned, and no frame of any fiber uses
        // it (see `Stack`).
        unsafe {
            f.ctx.rsp = seed_stack(f.stack.top(), fiber_ptr);
            // Just below the usable range; verified at every switch-out.
            f.stack.canary().write(CANARY);
        }
        f
    }

    /// Does the word just below the stack's usable range still hold
    /// [`CANARY`]? Any other value means a frame ran off the stack.
    fn canary_intact(&self) -> bool {
        // SAFETY: as in `new`, the canary word is live, aligned chunk
        // memory that nothing but `new` and this check accesses, and
        // handing the fiber to this thread ordered `new`'s write before.
        unsafe { self.stack.canary().read() == CANARY }
    }

    fn check_canary(&self) {
        if !self.canary_intact() {
            // The neighbouring stack may already be corrupt; this is not
            // recoverable, and unwinding could make it worse.
            eprintln!("fatal: fiber stack overflow detected (canary clobbered)");
            std::process::abort();
        }
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        // Stacks of *finished* fibers are recycled. A fiber dropped
        // mid-suspension (scheduler teardown with parked ranks) still has
        // live frames on its stack; those objects are leaked by design —
        // it only happens when the whole run is being abandoned.
        self.stack.recycle();
    }
}

/// Lay out the initial frame: six zeroed callee-saved slots (r12 carries
/// the fiber pointer) under the trampoline return address. Returns the
/// seeded rsp.
///
/// # Safety
///
/// `top` must be 16-aligned, with at least 56 writable bytes below it that
/// no live frame uses.
unsafe fn seed_stack(top: *mut u8, fiber: *mut Fiber) -> *mut u8 {
    let mut sp = top as *mut u64;
    sp = sp.sub(1);
    sp.write(imp::ulfm_fiber_entry as *const () as usize as u64); // ret target
    sp = sp.sub(1);
    sp.write(0); // rbp
    sp = sp.sub(1);
    sp.write(0); // rbx
    sp = sp.sub(1);
    sp.write(fiber as u64); // r12 → trampoline's rdi
    sp = sp.sub(1);
    sp.write(0); // r13
    sp = sp.sub(1);
    sp.write(0); // r14
    sp = sp.sub(1);
    sp.write(0); // r15
    sp as *mut u8
}

/// Rust-side fiber entry, called by the asm trampoline. Runs the closure
/// under a panic net (the closure has its own catch; this one guarantees
/// no unwind ever crosses the assembly boundary), then switches back to
/// the worker for the last time.
#[no_mangle]
extern "C" fn ulfm_fiber_main(fiber: *mut Fiber) -> ! {
    // SAFETY: `fiber` is the boxed fiber `seed_stack` staged in r12; the
    // box outlives its stack, and only this fiber's thread touches it now.
    let func = unsafe { (*fiber).func.take().expect("fiber entry closure") };
    let _ = catch_unwind(AssertUnwindSafe(func));
    // SAFETY: as above.
    unsafe { (*fiber).finished = true };
    suspend(SwitchReason::Finished);
    // A finished fiber must never be resumed.
    eprintln!("fatal: finished fiber resumed");
    std::process::abort();
}

/// Run `fiber` on the calling (worker) thread until it suspends; report
/// why. The caller owns scheduling policy: park, requeue, or drop.
pub(crate) fn resume(fiber: &mut Fiber) -> SwitchReason {
    debug_assert!(!in_fiber(), "fibers do not nest");
    debug_assert!(!fiber.finished, "resumed a finished fiber");
    let mut worker = SwitchCtx::null();
    WORKER_CTX.with(|w| w.set(&mut worker));
    ACTIVE.with(|a| a.set(fiber as *mut Fiber));
    // SAFETY: `fiber.ctx` is a seeded or suspended context of a fiber
    // that is not running anywhere (`&mut`), and `worker` outlives the
    // switch: the fiber's next suspension switches straight back here.
    unsafe { imp::ulfm_fiber_switch(&mut worker, &fiber.ctx) };
    ACTIVE.with(|a| a.set(std::ptr::null_mut()));
    WORKER_CTX.with(|w| w.set(std::ptr::null_mut()));
    fiber.check_canary();
    if fiber.finished {
        SwitchReason::Finished
    } else {
        REASON.with(|r| r.get())
    }
}

/// Suspend the calling fiber, handing control back to its worker with
/// `reason`. Returns when the scheduler next resumes the fiber.
///
/// Never inlined, for the reason [`in_fiber`] is not: inlined into a loop
/// around a yield (`Ctx::sleep_real`'s), the addresses of the first
/// worker's `ACTIVE` and `WORKER_CTX` would be hoisted out of the loop
/// and read after the fiber resumed on another worker.
#[inline(never)]
pub(crate) fn suspend(reason: SwitchReason) {
    let fiber = ACTIVE.with(|a| a.get());
    assert!(!fiber.is_null(), "suspend outside a fiber");
    let worker = WORKER_CTX.with(|w| w.get());
    REASON.with(|r| r.set(reason));
    // SAFETY: `fiber` is the running fiber (`ACTIVE`), and `worker` is the
    // context `resume` saved on this thread's stack, live until it returns.
    unsafe { imp::ulfm_fiber_switch(&mut (*fiber).ctx, worker) };
}

/// Cooperative yield for polling loops (`iprobe`, `Request::test`): lets
/// the peers this rank is polling for make progress even on one worker.
/// No-op on a plain OS thread.
pub(crate) fn yield_now() {
    if in_fiber() {
        suspend(SwitchReason::Yielded);
    } else {
        std::thread::yield_now();
    }
}

// ---------------------------------------------------------------------
// Stack pool
// ---------------------------------------------------------------------

/// Bytes every stack keeps unused at its top. The last word of them is the
/// canary of the stack carved directly above; the reservation keeps
/// `top()` 16-byte aligned for the seeded frame.
const TOP_RESERVE: usize = 16;

/// Leading pad of every chunk: its last word is the canary of the chunk's
/// first stack, so every stack's canary sits at `base − 8`.
const CHUNK_PAD: usize = 4096;

/// A carved-out stack: `size` bytes at `base`, both page-aligned. Frames
/// use `[base, top())`. The word just below `base` is this stack's canary,
/// in the reserved top of the stack beneath (or the chunk's pad).
struct Stack {
    base: *mut u8,
    size: usize,
}

// SAFETY: a `Stack` is an exclusively owned range of a chunk that is never
// freed; moving it between threads moves that ownership.
unsafe impl Send for Stack {}

impl Stack {
    /// One past the highest byte a frame may use.
    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(self.size - TOP_RESERVE)
    }

    /// The overflow canary: the word just below the usable range.
    fn canary(&self) -> *mut u64 {
        self.base.wrapping_sub(8).cast()
    }

    fn recycle(&mut self) {
        if !self.base.is_null() {
            StackPool::give(Stack { base: self.base, size: self.size });
            self.base = std::ptr::null_mut();
        }
    }
}

/// Process-global pool of fiber stacks, keyed by size.
///
/// Fresh stacks are carved from chunk allocations sized to hold many
/// stacks each (one VMA per ~`CHUNK_BYTES` of address space), so rank
/// counts far beyond `vm.max_map_count` are fine. Chunks are never
/// returned to the allocator: a retired stack goes back on the free list
/// for the next run.
struct StackPool {
    free: HashMap<usize, Vec<Stack>>,
}

/// Address-space granularity of one chunk allocation. 64 MiB ⇒ a pad page
/// and 63 stacks per VMA at the default 1 MiB stack size.
const CHUNK_BYTES: usize = 64 << 20;

static POOL: Mutex<Option<StackPool>> = Mutex::new(None);

/// Stacks per chunk of `size`-byte stacks.
fn per_chunk(size: usize) -> usize {
    ((CHUNK_BYTES - CHUNK_PAD) / size).max(1)
}

/// Slot `i` of a chunk at `chunk`: the `i`-th run of `size` bytes after
/// the pad.
fn slot(chunk: *mut u8, size: usize, i: usize) -> Stack {
    Stack { base: chunk.wrapping_add(CHUNK_PAD + i * size), size }
}

impl StackPool {
    fn take(stack_size: usize) -> Stack {
        let stack_size = stack_size.max(16 << 10) & !4095;
        let mut pool = POOL.lock().unwrap_or_else(|p| p.into_inner());
        let pool = pool.get_or_insert_with(|| StackPool { free: HashMap::new() });
        let list = pool.free.entry(stack_size).or_default();
        if let Some(s) = list.pop() {
            return s;
        }
        // Carve a fresh chunk. Pages are untouched until a fiber actually
        // runs deep enough, so address space is the only upfront cost.
        let layout = std::alloc::Layout::from_size_align(
            CHUNK_PAD + per_chunk(stack_size) * stack_size,
            4096,
        )
        .expect("stack chunk layout");
        // SAFETY: the layout's size is non-zero.
        let chunk = unsafe { std::alloc::alloc(layout) };
        assert!(!chunk.is_null(), "fiber stack chunk allocation failed");
        // Hand the slots out lowest first: each new stack's canary lands in
        // the top page of the one below, which its seeded frame already
        // made resident.
        list.extend((1..per_chunk(stack_size)).rev().map(|i| slot(chunk, stack_size, i)));
        slot(chunk, stack_size, 0)
    }

    fn give(stack: Stack) {
        let mut pool = POOL.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(pool) = pool.as_mut() {
            pool.free.entry(stack.size).or_default().push(stack);
        }
    }
}

#[cfg(all(test, target_arch = "x86_64", target_os = "linux"))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn runs_to_completion() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let mut f = Fiber::new(
            64 << 10,
            Box::new(move || {
                h.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert_eq!(resume(&mut f), SwitchReason::Finished);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn suspend_and_resume_preserve_state() {
        let trace = Arc::new(Mutex::new(Vec::new()));
        let t = Arc::clone(&trace);
        let mut f = Fiber::new(
            64 << 10,
            Box::new(move || {
                let mut local = 10;
                t.lock().unwrap().push(local);
                suspend(SwitchReason::Parked);
                local += 1;
                t.lock().unwrap().push(local);
                suspend(SwitchReason::Yielded);
                local += 1;
                t.lock().unwrap().push(local);
            }),
        );
        assert_eq!(resume(&mut f), SwitchReason::Parked);
        assert_eq!(resume(&mut f), SwitchReason::Yielded);
        assert_eq!(resume(&mut f), SwitchReason::Finished);
        assert_eq!(*trace.lock().unwrap(), vec![10, 11, 12]);
    }

    #[test]
    fn in_fiber_is_scoped() {
        assert!(!in_fiber());
        let mut f = Fiber::new(
            64 << 10,
            Box::new(|| {
                assert!(in_fiber());
                suspend(SwitchReason::Parked);
                assert!(in_fiber());
            }),
        );
        assert_eq!(resume(&mut f), SwitchReason::Parked);
        assert!(!in_fiber());
        assert_eq!(resume(&mut f), SwitchReason::Finished);
    }

    #[test]
    fn panics_stay_inside_the_fiber() {
        let mut f = Fiber::new(
            64 << 10,
            Box::new(|| {
                // The runtime's proc body has its own catch_unwind; this
                // exercises the outer net.
                panic!("boom");
            }),
        );
        assert_eq!(resume(&mut f), SwitchReason::Finished);
    }

    #[test]
    fn stacks_are_recycled() {
        for _ in 0..64 {
            let mut f = Fiber::new(64 << 10, Box::new(|| {}));
            assert_eq!(resume(&mut f), SwitchReason::Finished);
        }
        // 64 sequential fibers must not need 64 fresh stacks.
        let pool = POOL.lock().unwrap();
        assert!(pool.as_ref().is_some_and(|p| !p.free.is_empty()));
    }

    #[test]
    fn every_canary_lies_outside_its_own_and_its_lower_neighbours_range() {
        // Carving only computes addresses; this chunk is never touched.
        let chunk = std::ptr::null_mut::<u8>().wrapping_add(1 << 40);
        for size in [16 << 10, 64 << 10, 1 << 20, 3 << 20, CHUNK_BYTES] {
            let slots: Vec<Stack> = (0..per_chunk(size)).map(|i| slot(chunk, size, i)).collect();
            assert_eq!(slots.len(), per_chunk(size));
            let end = chunk as usize + CHUNK_PAD + slots.len() * size;
            assert!(end - chunk as usize <= CHUNK_BYTES.max(CHUNK_PAD + size));
            for (i, s) in slots.iter().enumerate() {
                let (base, top, canary) = (s.base as usize, s.top() as usize, s.canary() as usize);
                assert_eq!((base % 4096, top % 16, canary % 8), (0, 0, 0));
                assert!(canary + 8 <= base, "slot {i}: canary inside its own range");
                assert!(canary >= chunk as usize, "slot {i}: canary before the chunk");
                if let Some(lower) = i.checked_sub(1).map(|j| &slots[j]) {
                    assert!(canary >= lower.top() as usize, "slot {i}: canary in slot {}", i - 1);
                    assert!(canary + 8 <= lower.base as usize + lower.size);
                }
                assert!(base + s.size <= end);
            }
        }
    }

    #[test]
    fn any_other_value_in_the_canary_word_is_caught() {
        let mut f = Fiber::new(64 << 10, Box::new(|| {}));
        assert!(f.canary_intact());
        for bad in [0, u64::MAX, CANARY ^ 1, CANARY ^ (1 << 63), CANARY.rotate_left(8)] {
            // SAFETY: the canary word is live chunk memory that only this
            // test and the fiber's own check touch.
            unsafe { f.stack.canary().write(bad) };
            assert!(!f.canary_intact(), "{bad:#x} passed for the canary");
        }
        // SAFETY: as above.
        unsafe { f.stack.canary().write(CANARY) };
        assert!(f.canary_intact());
        assert_eq!(resume(&mut f), SwitchReason::Finished);
    }

    #[test]
    fn a_fiber_stays_six_words() {
        // Every rank's fiber is a heap box: a `Stack` that grows a word
        // costs 8 bytes per rank on every run (`heap_alloc_mb`).
        assert_eq!(std::mem::size_of::<Stack>(), 2 * std::mem::size_of::<usize>());
        assert_eq!(std::mem::size_of::<Fiber>(), 48);
    }

    #[test]
    fn deep_frames_survive_switches() {
        fn rec(depth: usize) -> usize {
            if depth == 0 {
                suspend(SwitchReason::Yielded);
                0
            } else {
                // Force real stack usage across the switch.
                let buf = [depth as u8; 64];
                rec(depth - 1) + buf[0] as usize
            }
        }
        let out = Arc::new(AtomicUsize::new(0));
        let o = Arc::clone(&out);
        let mut f = Fiber::new(
            256 << 10,
            Box::new(move || {
                o.store(rec(100), Ordering::SeqCst);
            }),
        );
        assert_eq!(resume(&mut f), SwitchReason::Yielded);
        assert_eq!(resume(&mut f), SwitchReason::Finished);
        assert_eq!(out.load(Ordering::SeqCst), 5050); // 1 + 2 + … + 100
    }
}
