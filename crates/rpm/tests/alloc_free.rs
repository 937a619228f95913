//! Dependency matching allocates nothing, and an install's allocations
//! do not grow with the package's file count. A counting global
//! allocator (its own test binary, so no other test shares it) pins
//! both: they are what keeps a Rocks node transaction cheap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;
use xcbc_rpm::{Dependency, PackageBuilder, RpmDb};

/// Forwards to [`System`], counting allocations made on this thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching
// it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its result with the allocations it made.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = black_box(f());
    (result, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn matching_and_installs_do_not_allocate_per_item() {
    let openmpi = PackageBuilder::new("openmpi", "1.6.5", "1")
        .epoch(1)
        .provides_versioned("mpi")
        .file("/usr/bin/mpirun")
        .obsoletes(Dependency::parse("lam < 7.2"))
        .build();
    let cases = [
        ("openmpi >= 1:1.6", true),
        ("mpi", true),
        ("/usr/bin/mpirun", true),
        ("openmpi < 1:1.6", false),
        ("openmpi >= 1.7", true),
        ("mpi >= 1:2", false),
        ("/usr/bin/mpicc", false),
        ("lam", false),
    ];
    for (spec, expected) in cases {
        let req = Dependency::parse(spec);
        let (hit, n) = allocations(|| black_box(&openmpi).satisfies(black_box(&req)));
        assert_eq!(hit, expected, "satisfies({spec})");
        assert_eq!(n, 0, "satisfies({spec}) allocated {n} time(s)");
    }
    for (version, expected) in [("7.1", true), ("7.3", false)] {
        let lam = PackageBuilder::new("lam", version, "1").build();
        let (hit, n) = allocations(|| black_box(&openmpi).obsoletes_package(black_box(&lam)));
        assert_eq!(hit, expected, "obsoletes lam-{version}");
        assert_eq!(
            n, 0,
            "obsoletes_package(lam-{version}) allocated {n} time(s)"
        );
    }

    // The same install into the same database, once with one file and
    // once with 256: the file index is derived later, not per install.
    let install_allocations = |files: usize| {
        let mut db = RpmDb::new();
        for name in ["bash", "glibc", "zsh"] {
            db.install(
                PackageBuilder::new(name, "1", "1")
                    .file(format!("/bin/{name}"))
                    .build(),
            );
        }
        assert!(db.provides(&Dependency::parse("/bin/bash")));
        let pkg = Arc::new(
            PackageBuilder::new("gromacs", "4.6.5", "2")
                .files((0..files).map(|i| format!("/usr/share/gromacs/top/{i}.itp")))
                .build(),
        );
        let (_, n) = allocations(|| db.install(Arc::clone(&pkg)));
        n
    };
    assert_eq!(install_allocations(1), install_allocations(256));
}
