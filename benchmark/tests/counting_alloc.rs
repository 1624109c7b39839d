//! The counting allocator, installed as the global allocator of this test
//! binary exactly as `vlbench-traced` installs it.

use vlbench::alloc_count::{counts, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// One test only: the counters are process-wide, and a second test running
// on another thread would add to them.
#[test]
fn allocations_and_bytes_are_counted() {
    let (a0, b0) = counts();
    let v: Vec<u8> = Vec::with_capacity(10_000);
    let (a1, b1) = counts();
    assert!(a1 > a0, "an allocation is counted");
    assert!(b1 - b0 >= 10_000, "with its size");

    let mut v = std::hint::black_box(v);
    v.resize(10_000, 1);
    v.reserve_exact(90_000);
    let (a2, b2) = counts();
    assert!(
        a2 > a1 && b2 - b1 >= 100_000,
        "a realloc counts its new size"
    );

    let z = std::hint::black_box(vec![0u64; 4_096]);
    let (a3, b3) = counts();
    assert!(a3 > a2 && b3 - b2 >= 8 * 4_096, "alloc_zeroed is counted");

    drop((v, z));
    let (a4, _) = counts();
    assert!(a4 >= a3, "frees never decrement");
}
