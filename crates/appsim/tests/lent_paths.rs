//! Sampling an application allocates nothing: [`Application::call_path`] lends a
//! path from the table the application holds, and [`for_each_sampled_path`] hands
//! that slice straight to its visitor.
//!
//! The allocation count is process-wide, so this binary holds a single test: no
//! other test can allocate while it counts.

// A counting `#[global_allocator]` must implement the unsafe `GlobalAlloc`; the
// workspace denies unsafe code, and this test binary alone is exempt.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use appsim::workloads::threaded;
use appsim::{for_each_sampled_path, Application, FrameVocabulary, RingHangApp};

/// The system allocator, counting every allocation (`realloc` and
/// `alloc_zeroed` go through `alloc` by default).
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator, which upholds
// `GlobalAlloc`'s contract; counting is one atomic add, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: forwarded unchanged from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Every trace of every rank over ten samples: the allocations the walk made and
/// the frames it was lent.
fn sample_everything(app: &dyn Application) -> (usize, usize) {
    let mut frames = 0;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for_each_sampled_path(app, 0..app.num_tasks(), 0..10, |_, _, _, path| {
        frames += path.len();
    });
    (ALLOCATIONS.load(Ordering::SeqCst) - before, frames)
}

#[test]
fn sampling_lends_every_path_without_allocating() {
    let ring = RingHangApp::new(1_024, FrameVocabulary::BlueGeneL);
    let workers = threaded(64, 3, FrameVocabulary::Linux);
    for app in [&ring as &dyn Application, &workers] {
        let (allocations, frames) = sample_everything(app);
        assert_eq!(allocations, 0, "{} allocated while sampled", app.name());
        assert!(frames > 0, "{} lent no frame", app.name());
    }

    // The same arguments lend the same slice, main thread and worker alike.
    for (rank, thread, sample) in [(0, 0, 0), (5, 1, 2), (63, 3, 9)] {
        let first = workers.call_path(rank, thread, sample);
        assert!(!first.is_empty());
        assert!(std::ptr::eq(first, workers.call_path(rank, thread, sample)));
    }
}
