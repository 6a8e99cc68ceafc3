//! Allocation budget of result-frame encoding: encoding a `Cypher` or a
//! `Sparql` response costs a fixed number of heap allocations whatever
//! its row count, and putting the line on the wire costs none.
//!
//! A frame is written into one `String` sized from its rows, newline
//! included, so a 600-row answer allocates as often as a 60-row one. A
//! per-cell allocation (a cloned cell, a `Json` node) costs thousands at
//! the larger size.

use s3pg_server::protocol::write_frame;
use s3pg_server::Response;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the calling thread's allocations; frees are not counted.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most allocations encoding one result frame may cost.
const BUDGET: u64 = 2;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Two columns of what a Fig. 6 category query returns: an IRI and a
/// label, with every seventh label NULL.
fn rows(n: usize) -> Vec<Vec<Option<String>>> {
    (0..n)
        .map(|i| {
            vec![
                Some(format!("http://dbpedia.org/resource/Entity_{i}")),
                (i % 7 != 0).then(|| format!("Entity number {i}")),
            ]
        })
        .collect()
}

fn frames(n: usize) -> [(&'static str, Response); 2] {
    [
        (
            "cypher",
            Response::Cypher {
                columns: vec!["e.iri".to_string(), "e.label".to_string()],
                rows: rows(n),
            },
        ),
        (
            "sparql",
            Response::Sparql {
                vars: vec!["e".to_string(), "label".to_string()],
                rows: rows(n),
            },
        ),
    ]
}

#[test]
fn encoding_a_result_frame_allocates_a_fixed_amount() {
    for n in [60, 600] {
        for (name, response) in frames(n) {
            let mut line = String::new();
            let encode = allocations(|| line = response.encode());
            println!("{name}, {n} rows: {encode} allocations to encode");
            assert!(
                encode <= BUDGET,
                "{name}, {n} rows: {encode} allocations to encode, budget {BUDGET}"
            );
            let len = line.len();
            let write = allocations(|| write_frame(&mut std::io::sink(), line).unwrap());
            assert_eq!(
                write, 0,
                "{name}, {n} rows: write_frame reallocated the {len}-byte line"
            );
        }
    }
}
