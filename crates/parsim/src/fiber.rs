//! Stackful run-to-completion fibers — the execution engine.
//!
//! Every simulated process runs on its own heap-allocated stack *on the
//! scheduler's own OS thread*. Blocking (`recv`, `delay`) saves the
//! callee-saved registers, swaps the stack pointer back to the scheduler,
//! and hands over a [`Syscall`] by value; resuming swaps back and hands
//! over a [`Resume`]. One event dispatch is therefore two register-window
//! swaps — tens of nanoseconds — while process bodies stay ordinary
//! imperative code (`loop { recv; work; send }`).
//!
//! The context switch is written for x86-64 and aarch64; other targets do
//! not build.
//!
//! Safety model: the fiber and the scheduler never run concurrently (a
//! switch is a synchronous transfer on one thread), and every crossing of
//! the boundary moves data through the per-fiber [`TransferCell`], reached
//! only via raw pointers so no Rust reference is ever live on both sides
//! of a switch.

use crate::process::{Post, Resume, Syscall};
use std::alloc::{alloc, dealloc, Layout};

/// Default fiber stack size (virtual; pages are committed only as
/// touched). Simulated process bodies keep bulk data (`Bytes`, `Vec`) on
/// the heap, so the working set per fiber is a few KiB; 1 MiB leaves two
/// orders of magnitude of headroom for deep call chains.
pub(crate) const DEFAULT_STACK_BYTES: usize = 1 << 20;

/// Canary words written at the low end of every fiber stack and checked
/// on each return to the scheduler. A clobbered canary means a process
/// overflowed its stack (there is no guard page on a heap stack).
const CANARY: u64 = 0xD15C_0B71_DCE5_FEED;
const CANARY_WORDS: usize = 8;

/// The rendezvous cell a fiber shares with the scheduler. Exactly one
/// side runs at a time; the suspended side's stack pointer is parked
/// here, and `resume`/`syscall` carry the payload across each switch.
pub(crate) struct TransferCell {
    /// Scheduler → fiber payload, set just before switching in.
    pub(crate) resume: Option<Resume>,
    /// Fiber → scheduler payload, set just before switching out.
    pub(crate) syscall: Option<Syscall>,
    /// Messages the fiber has posted since it was last switched in, in
    /// post order. The scheduler takes them on every switch out, before
    /// it looks at `syscall`.
    posts: Vec<Post>,
    /// Saved scheduler stack pointer while the fiber runs.
    sched_sp: usize,
    /// Saved fiber stack pointer while the fiber is suspended (the
    /// crafted entry frame before the first switch-in).
    fiber_sp: usize,
}

/// The body a fiber executes: runs the process to completion (catching
/// unwinds) and returns the final `Exit` syscall to hand the scheduler.
pub(crate) type FiberBody = Box<dyn FnOnce(*mut TransferCell) -> Syscall>;

struct FiberPayload {
    cell: *mut TransferCell,
    body: FiberBody,
}

/// A suspended simulated process: its stack and transfer cell.
///
/// Owned by the scheduler's process table. Dropping a `Fiber` frees the
/// stack and cell; the scheduler only drops it once the fiber has made
/// its final switch out (or was never entered, which cannot happen here
/// because fibers are built at their start event and entered
/// immediately).
pub(crate) struct Fiber {
    stack_base: *mut u8,
    layout: Layout,
    cell: *mut TransferCell,
}

impl std::fmt::Debug for Fiber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fiber")
            .field("stack_bytes", &self.layout.size())
            .finish()
    }
}

impl Fiber {
    /// Allocates a stack, crafts the entry frame, and returns the fiber
    /// ready for its first [`Fiber::resume`].
    ///
    /// # Panics
    ///
    /// Panics if the stack allocation fails.
    pub(crate) fn new(stack_bytes: usize, body: FiberBody) -> Fiber {
        let stack_bytes = stack_bytes.max(16 * 1024);
        let layout = Layout::from_size_align(stack_bytes, 16).expect("stack layout");
        // SAFETY: layout is non-zero; canary writes stay inside the
        // allocation; the entry frame is crafted below the aligned top.
        unsafe {
            let stack_base = alloc(layout);
            assert!(!stack_base.is_null(), "fiber stack allocation failed");
            let canary = stack_base.cast::<u64>();
            for i in 0..CANARY_WORDS {
                canary.add(i).write(CANARY);
            }
            let cell = Box::into_raw(Box::new(TransferCell {
                resume: None,
                syscall: None,
                posts: Vec::new(),
                sched_sp: 0,
                fiber_sp: 0,
            }));
            let payload = Box::into_raw(Box::new(FiberPayload { cell, body }));
            let top = (stack_base as usize + stack_bytes) & !15usize;
            let sp = arch::init_stack(top, payload as usize);
            (*cell).fiber_sp = sp;
            Fiber {
                stack_base,
                layout,
                cell,
            }
        }
    }

    /// Switches into the fiber carrying `resume`; returns the syscall it
    /// switched back out with, plus `true` if that was its final switch
    /// (the fiber is finished and must not be resumed again).
    pub(crate) fn resume(&mut self, resume: Resume) -> (Syscall, bool) {
        // SAFETY: the cell is alive (freed only in Drop); the fiber is
        // suspended, so fiber_sp holds a valid resume point and nothing
        // else touches the cell until the fiber switches back.
        let (syscall, finished) = unsafe {
            (*self.cell).resume = Some(resume);
            let to = (*self.cell).fiber_sp;
            let fin = parsim_fiber_switch(&raw mut (*self.cell).sched_sp, to, 0);
            (
                (*self.cell)
                    .syscall
                    .take()
                    .expect("fiber switched out without a syscall"),
                fin == 1,
            )
        };
        self.check_canary();
        (syscall, finished)
    }

    /// Moves the posts the fiber buffered during its last run into `out`
    /// (which must be empty; its allocation goes back to the cell for the
    /// next run).
    pub(crate) fn take_posts(&mut self, out: &mut Vec<Post>) {
        debug_assert!(out.is_empty());
        // SAFETY: the cell is alive, and the fiber is suspended (or
        // finished), so nothing else touches the cell.
        unsafe { std::mem::swap(&mut (*self.cell).posts, out) }
    }

    /// Panics if the process overran its fiber stack.
    fn check_canary(&self) {
        // SAFETY: the canary words are inside our allocation.
        unsafe {
            let canary = self.stack_base.cast::<u64>();
            for i in 0..CANARY_WORDS {
                assert!(
                    canary.add(i).read() == CANARY,
                    "fiber stack overflow: a simulated process overran its \
                     {}-byte stack (raise parsim's DEFAULT_STACK_BYTES)",
                    self.layout.size()
                );
            }
        }
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        // SAFETY: the scheduler only drops finished fibers (final switch
        // done, body and Ctx already dropped on the fiber's own stack
        // before that switch), so nothing on the stack is live.
        unsafe {
            drop(Box::from_raw(self.cell));
            dealloc(self.stack_base, self.layout);
        }
    }
}

/// Fiber side of a blocking syscall: parks the fiber, hands `sc` to the
/// scheduler, and returns the `Resume` the scheduler next switches in
/// with.
///
/// # Safety
///
/// Must be called from code running *on* the fiber that owns `cell`.
pub(crate) unsafe fn yield_syscall(cell: *mut TransferCell, sc: Syscall) -> Resume {
    // SAFETY: per the contract, we are the running fiber; the scheduler
    // is parked at sched_sp and resumes us with `resume` set.
    unsafe {
        (*cell).syscall = Some(sc);
        let to = (*cell).sched_sp;
        parsim_fiber_switch(&raw mut (*cell).fiber_sp, to, 0);
        (*cell)
            .resume
            .take()
            .expect("scheduler switched in without a resume")
    }
}

/// Fiber side of a post: queues it for the scheduler without switching.
///
/// # Safety
///
/// Must be called from code running *on* the fiber that owns `cell`.
pub(crate) unsafe fn buffer_post(cell: *mut TransferCell, post: Post) {
    // SAFETY: per the contract, we are the running fiber, so the
    // scheduler is parked and nothing else touches the cell.
    unsafe { (*cell).posts.push(post) }
}

/// Takes the initial `Resume` (placed by the scheduler before the first
/// switch-in) without switching.
///
/// # Safety
///
/// Must be called from code running on the fiber that owns `cell`.
pub(crate) unsafe fn take_initial_resume(cell: *mut TransferCell) -> Resume {
    // SAFETY: per the contract; the scheduler set `resume` before
    // entering the fiber for the first time.
    unsafe {
        (*cell)
            .resume
            .take()
            .expect("fiber entered without an initial resume")
    }
}

/// The fiber trampoline target: unboxes the payload, runs the body to
/// completion, parks the final `Exit` syscall in the cell, and makes the
/// final switch back to the scheduler (passing 1 to mark completion).
/// Never returns; the fiber's stack is freed by [`Fiber::drop`].
#[no_mangle]
extern "C" fn parsim_fiber_main(payload: *mut FiberPayload, _arg: usize) -> ! {
    let cell;
    let final_syscall;
    {
        // SAFETY: the payload pointer was leaked by Fiber::new for
        // exactly this call; we re-own and consume it here.
        let payload = unsafe { Box::from_raw(payload) };
        cell = payload.cell;
        // The body catches all unwinds internally and drops the process
        // Ctx before returning, so nothing lives on this stack frame but
        // the returned syscall — which moves into the cell below.
        final_syscall = (payload.body)(cell);
    }
    // SAFETY: the scheduler is parked at sched_sp awaiting our final
    // switch; after it, this stack is never executed again.
    unsafe {
        (*cell).syscall = Some(final_syscall);
        let to = (*cell).sched_sp;
        parsim_fiber_switch(&raw mut (*cell).fiber_sp, to, 1);
    }
    unreachable!("finished fiber resumed");
}

extern "C" {
    /// Saves the callee-saved register window on the current stack,
    /// parks the stack pointer in `*save_sp`, switches to `to_sp`, and
    /// restores that side's window. `arg` is returned to the *resumed*
    /// side (1 marks a fiber's final switch).
    fn parsim_fiber_switch(save_sp: *mut usize, to_sp: usize, arg: usize) -> usize;
}

#[cfg(target_arch = "x86_64")]
mod arch {
    //! x86-64 System V: save rbp, rbx, r12–r15 plus the mxcsr/x87
    //! control words (the only callee-saved FP state); xmm registers are
    //! caller-saved. Frame layout (from the parked rsp upward):
    //! `[mxcsr:4|fcw:2|pad:2] r15 r14 r13 r12 rbx rbp retaddr`.

    std::arch::global_asm!(
        ".text",
        ".p2align 4",
        ".globl parsim_fiber_switch",
        ".hidden parsim_fiber_switch",
        ".type parsim_fiber_switch,@function",
        "parsim_fiber_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr dword ptr [rsp]",
        "fnstcw word ptr [rsp + 4]",
        "mov qword ptr [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr dword ptr [rsp]",
        "fldcw word ptr [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "mov rax, rdx",
        "ret",
        ".size parsim_fiber_switch, . - parsim_fiber_switch",
        ".p2align 4",
        ".globl parsim_fiber_entry",
        ".hidden parsim_fiber_entry",
        ".type parsim_fiber_entry,@function",
        // First switch-in pops the crafted frame and `ret`s here with the
        // payload pointer in r12 and the passthrough arg in rax; rsp is
        // 16-byte aligned, so the call below gives parsim_fiber_main a
        // standard SysV frame.
        "parsim_fiber_entry:",
        "mov rdi, r12",
        "mov rsi, rax",
        "call parsim_fiber_main",
        "ud2",
        ".size parsim_fiber_entry, . - parsim_fiber_entry",
    );

    extern "C" {
        fn parsim_fiber_entry();
    }

    /// Crafts the entry frame below `top` (16-aligned) so the first
    /// switch-in lands in `parsim_fiber_entry` with `payload` in r12.
    /// Returns the initial parked stack pointer.
    pub(super) unsafe fn init_stack(top: usize, payload: usize) -> usize {
        debug_assert_eq!(top & 15, 0);
        // Default mxcsr (0x1F80: all exceptions masked) in the low dword,
        // default x87 control word (0x037F) in the next word.
        const FPU: u64 = 0x1F80 | ((0x037F_u64) << 32);
        let sp = top - 64;
        // SAFETY (caller): [top-64, top) lies inside the fiber stack.
        unsafe {
            let f = sp as *mut u64;
            f.write(FPU); // mxcsr / fcw
            f.add(1).write(0); // r15
            f.add(2).write(0); // r14
            f.add(3).write(0); // r13
            f.add(4).write(payload as u64); // r12
            f.add(5).write(0); // rbx
            f.add(6).write(0); // rbp
            f.add(7)
                .write(parsim_fiber_entry as *const () as usize as u64); // ret addr
        }
        sp
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    //! AAPCS64: save x19–x28, fp (x29), lr (x30), and d8–d15 (the
    //! callee-saved low halves of v8–v15). `ret` transfers through the
    //! restored x30. Frame layout (from the parked sp upward):
    //! `x19 x20 … x28 fp lr d8 … d15` (160 bytes).

    std::arch::global_asm!(
        ".text",
        ".p2align 4",
        ".globl parsim_fiber_switch",
        ".hidden parsim_fiber_switch",
        ".type parsim_fiber_switch,@function",
        "parsim_fiber_switch:",
        "sub sp, sp, #160",
        "stp x19, x20, [sp, #0]",
        "stp x21, x22, [sp, #16]",
        "stp x23, x24, [sp, #32]",
        "stp x25, x26, [sp, #48]",
        "stp x27, x28, [sp, #64]",
        "stp x29, x30, [sp, #80]",
        "stp d8, d9, [sp, #96]",
        "stp d10, d11, [sp, #112]",
        "stp d12, d13, [sp, #128]",
        "stp d14, d15, [sp, #144]",
        "mov x9, sp",
        "str x9, [x0]",
        "mov sp, x1",
        "ldp x19, x20, [sp, #0]",
        "ldp x21, x22, [sp, #16]",
        "ldp x23, x24, [sp, #32]",
        "ldp x25, x26, [sp, #48]",
        "ldp x27, x28, [sp, #64]",
        "ldp x29, x30, [sp, #80]",
        "ldp d8, d9, [sp, #96]",
        "ldp d10, d11, [sp, #112]",
        "ldp d12, d13, [sp, #128]",
        "ldp d14, d15, [sp, #144]",
        "add sp, sp, #160",
        "mov x0, x2",
        "ret",
        ".size parsim_fiber_switch, . - parsim_fiber_switch",
        ".p2align 4",
        ".globl parsim_fiber_entry",
        ".hidden parsim_fiber_entry",
        ".type parsim_fiber_entry,@function",
        // First switch-in restores the crafted frame and `ret`s here with
        // the payload pointer in x19 and the passthrough arg in x0.
        "parsim_fiber_entry:",
        "mov x1, x0",
        "mov x0, x19",
        "bl parsim_fiber_main",
        "brk #0",
        ".size parsim_fiber_entry, . - parsim_fiber_entry",
    );

    extern "C" {
        fn parsim_fiber_entry();
    }

    /// Crafts the entry frame below `top` (16-aligned) so the first
    /// switch-in lands in `parsim_fiber_entry` with `payload` in x19.
    /// Returns the initial parked stack pointer.
    pub(super) unsafe fn init_stack(top: usize, payload: usize) -> usize {
        debug_assert_eq!(top & 15, 0);
        let sp = top - 160;
        // SAFETY (caller): [top-160, top) lies inside the fiber stack.
        unsafe {
            let f = sp as *mut u64;
            for i in 0..20 {
                f.add(i).write(0);
            }
            f.write(payload as u64); // x19
            f.add(11)
                .write(parsim_fiber_entry as *const () as usize as u64); // x30 (lr)
        }
        sp
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!(
    "parsim's fibers need a context switch for this target (x86-64 and aarch64 have one)"
);
