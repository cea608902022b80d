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
//! memory. Stacks are recycled, never freed. A canary word at the low end
//! of each stack is checked on every suspension; overflow aborts loudly
//! rather than corrupting a neighbouring stack.
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
    pub(super) unsafe fn ulfm_fiber_switch(
        _save: *mut super::SwitchCtx,
        _restore: *const super::SwitchCtx,
    ) {
        unreachable!("fiber backend not available on this target")
    }
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

// The raw pointers are either owned (stack) or only touched while the
// fiber is mounted on exactly one worker thread.
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
        unsafe {
            f.ctx.rsp = seed_stack(f.stack.top(), fiber_ptr);
            // Canary at the low end; verified at every switch-out.
            (f.stack.base as *mut u64).write(CANARY);
        }
        f
    }

    fn check_canary(&self) {
        let ok = unsafe { (self.stack.base as *const u64).read() } == CANARY;
        if !ok {
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
    let func = unsafe { (*fiber).func.take().expect("fiber entry closure") };
    let _ = catch_unwind(AssertUnwindSafe(func));
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
pub(crate) fn suspend(reason: SwitchReason) {
    let fiber = ACTIVE.with(|a| a.get());
    assert!(!fiber.is_null(), "suspend outside a fiber");
    let worker = WORKER_CTX.with(|w| w.get());
    REASON.with(|r| r.set(reason));
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

/// A carved-out stack: `size` bytes at `base`, 16-byte aligned.
struct Stack {
    base: *mut u8,
    size: usize,
}

unsafe impl Send for Stack {}

impl Stack {
    fn top(&self) -> *mut u8 {
        // Aligned down to 16 for the seeded frame.
        let t = unsafe { self.base.add(self.size) };
        ((t as usize) & !15) as *mut u8
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

/// Address-space granularity of one chunk allocation. 64 MiB ⇒ 64 stacks
/// per VMA at the default 1 MiB stack size.
const CHUNK_BYTES: usize = 64 << 20;

static POOL: Mutex<Option<StackPool>> = Mutex::new(None);

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
        let per_chunk = (CHUNK_BYTES / stack_size).max(1);
        let layout = std::alloc::Layout::from_size_align(per_chunk * stack_size, 4096)
            .expect("stack chunk layout");
        let chunk = unsafe { std::alloc::alloc(layout) };
        assert!(!chunk.is_null(), "fiber stack chunk allocation failed");
        for i in 1..per_chunk {
            list.push(Stack { base: unsafe { chunk.add(i * stack_size) }, size: stack_size });
        }
        Stack { base: chunk, size: stack_size }
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
