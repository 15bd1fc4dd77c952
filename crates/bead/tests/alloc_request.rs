//! Heap allocations of one request served from the plan table, counted by the
//! allocator: what [`BeadServer::dispatch`] performs for a point lookup and for the
//! paper's Q0 once their templates are prepared. It installs a counting
//! `#[global_allocator]` — which is why it is a test binary of its own — and counts per
//! thread: the query runs on the thread that dispatches it, and nothing else is
//! counted.

use bead::server::accidents_store;
use bead::{BeadServer, ReplyStatus, Request, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting `alloc` and `realloc` calls (a growing
/// `Vec` is a `realloc`) on the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One counter of `server`'s `STATS` reply.
fn stat(server: &BeadServer, name: &str) -> u64 {
    let head = server.dispatch(Request::Stats).head;
    let field = format!(" {name}=");
    let value = head.split_once(&field).expect(name).1;
    value.split(' ').next().unwrap().parse().expect(name)
}

/// Heap allocations of one `dispatch` of `text` on this thread, from a warm template
/// table.
fn served_allocations(server: &BeadServer, text: &str) -> u64 {
    // Once to prepare the template, then as hits until the thread's pooled buffers
    // have grown to what the query draws, so lazily grown state is not billed.
    for _ in 0..4 {
        let reply = server.dispatch(Request::Query(text.to_owned()));
        assert_eq!(reply.status(), ReplyStatus::Ok, "{text}: {}", reply.head);
    }
    let hits = stat(server, "plan_hits");
    let request = Request::Query(text.to_owned());
    let before = ALLOCATIONS.with(Cell::get);
    let reply = server.dispatch(request);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(reply.status(), ReplyStatus::Ok, "{text}: {}", reply.head);
    assert_eq!(stat(server, "plan_hits"), hits + 1, "{text} is a table hit");
    allocations
}

#[test]
fn a_served_request_stays_inside_its_allocation_budget() {
    let socket = std::env::temp_dir().join(format!("bead-alloc-{}.sock", std::process::id()));
    let config = ServerConfig {
        socket: socket.clone(),
        ..ServerConfig::default()
    };
    let server = BeadServer::bind(accidents_store(20_000, 0xBEAD).unwrap(), &config).unwrap();

    let point = served_allocations(&server, "Q(d, t) :- Accident(x, d, t), x = 17.");
    let q0 = served_allocations(
        &server,
        r#"Q0(age) :- Accident(aid, "Queen's Park", "day-0001"), Casualty(cid, aid, class, vid), Vehicle(vid, driver, age)."#,
    );
    drop(server);
    let _ = std::fs::remove_file(&socket);
    // Measured 21 and 92 (24 and 110 while each keyed lookup started its staging
    // vectors empty on every query, and Q0's ψ3 step resolved the accidents ψ1 had just
    // fetched; 25 and 114 just after late materialization; Q0 134 while each lookup's
    // emission cloned its rows into
    // value columns and its arena held values instead of tuple offsets; 26 and 138
    // while a query's pool cap followed its plan's
    // allocation surface, clamped to 8–256; Q0 137 before each lookup staged a batch
    // in one pass, with a position per row; 149 while each lookup's arena copied the
    // key columns of its tuples; 34 and 157 while a product with a constant buffered the
    // constant and emitted through a cursor, and a point request's `{()} × {id}` ran
    // as a unit source and such a product; 36 and 159 while a query kept a
    // materialization slot per step and a shared handle on its output; 39 and 162
    // while a query went through a job pool that shared its slots and ledger between
    // threads; Q0 was 164 while its two string literals were each copied to the heap
    // as the request was read, 169 while a 2-thread session cut it into 6 pipelines;
    // 99 and 360 while every request copied its template's plan, re-derived its
    // pipeline DAG, rebuilt its operators' step fields, threw its job buffers away and
    // kept its stats in per-job maps); each bound leaves 15–16 % (15 % when set).
    assert!(
        point <= 24,
        "a served point request performed {point} heap allocations"
    );
    assert!(q0 <= 106, "a served Q0 performed {q0} heap allocations");
}
