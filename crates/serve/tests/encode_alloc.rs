//! A paper-scale reply is written straight into its output buffer: the
//! JSON writer builds no intermediate tree, so the allocations `to_line`
//! makes are that buffer's growth (14 for this 38 KB reply). A
//! tree-building encoder makes one per key, string and container: about
//! 3,600 here.
//!
//! The test binary's global allocator counts allocations (reallocations
//! included) on the current thread while a measurement is armed, as
//! `ltf-core`'s unit-test allocator does.

use ltf_core::{AlgoConfig, Solver};
use ltf_experiments::{gen_instance_on, PaperWorkload};
use ltf_serve::proto::{to_line, SolutionWire};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

#[inline]
fn note() {
    if ARMED.with(Cell::get) {
        COUNT.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: delegates verbatim to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` with counting armed on this thread; the allocations it made,
/// and its result.
fn measure<R>(f: impl FnOnce() -> R) -> (usize, R) {
    COUNT.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (COUNT.with(Cell::get), r)
}

#[test]
fn paper_scale_reply_encodes_into_its_buffer_alone() {
    // One serve-cold-sized request: 100 tasks on m = 20, R-LTF at ε = 3.
    let wl = PaperWorkload {
        tasks: (100, 100),
        epsilon: 3,
        ..Default::default()
    };
    let inst = gen_instance_on(&wl, 11, None);
    let solver = Solver::builtin(&inst.graph, &inst.platform);
    let sol = solver
        .solve("rltf", &AlgoConfig::new(3, inst.period))
        .expect("the calibrated period is feasible");
    let wire = SolutionWire::from_solution(&sol);

    let (allocs, line) = measure(|| to_line(&wire));
    assert!(
        line.len() > 30_000,
        "a paper-scale reply: {} bytes",
        line.len()
    );
    assert!(
        allocs <= 32,
        "{allocs} allocations for {} bytes",
        line.len()
    );
}
