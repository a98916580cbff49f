//! Live-heap budget of the largest profile.
//!
//! This test binary installs the counting allocator, so every lane-0
//! span of a scan carries `live_bytes` (live when it closed) and
//! `peak_bytes` (the highest live count while it was open). At one
//! thread allocation sizes repeat run to run, so Hikvision's figures are
//! pinned as budgets at most 5 % above their measured values: a change
//! that keeps summaries alive longer, or copies them, fails here. So
//! does a JSON rendering of the report that builds it whole before
//! writing it.
//!
//! The allocator is wrapped once more to count allocation calls per
//! thread, which pins what lifting one function costs the allocator.

use dtaint_cfg::build_function_cfg;
use dtaint_core::{Dtaint, DtaintConfig};
use dtaint_dataflow::sse::GlobalMap;
use dtaint_dataflow::{alias_pass_or_restore, AliasConfig};
use dtaint_fwgen::{build_firmware, table2_profiles};
use dtaint_symex::{analyze_function, ExprPool, SymexConfig};
use dtaint_telemetry::{heap, Collector, CountingAlloc, SpanEvent};
use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;
use std::sync::Mutex;

/// [`CountingAlloc`], also counting this thread's allocation calls
/// (`alloc`, `alloc_zeroed` and `realloc`) in [`CALLS`].
struct CountingCalls;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to
// `CountingAlloc`, which upholds the `GlobalAlloc` contract; counting
// touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingCalls {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        CountingAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        CountingAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        CountingAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CountingAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingCalls = CountingCalls;

/// The live-heap figures are process-wide: the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn hikvision_live_heap_stays_within_budget() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let profile = table2_profiles().into_iter().find(|p| p.manufacturer == "Hikvision").unwrap();
    let bin = build_firmware(&profile).binary;
    let mut tel = Collector::disabled();
    let config = DtaintConfig { threads: 1, ..Default::default() };
    let report = Dtaint::with_config(config).analyze_traced(&bin, "heap", &mut tel).unwrap();
    assert!(!report.findings.is_empty());

    let span = |cat: &str, name: &str| -> &SpanEvent {
        tel.events().iter().find(|e| e.cat == cat && e.name == name).expect("span recorded")
    };
    let mib = |ev: &SpanEvent, key: &str| ev.args[key] as f64 / f64::from(1 << 20);
    // Windows nest: the scan's peak covers every stage's, and the `ddg`
    // stage's covers its propagation sub-stage's.
    let root = span("scan", "heap");
    for ev in tel.events().iter().filter(|e| e.cat == "stage") {
        assert!(ev.args["peak_bytes"] <= root.args["peak_bytes"], "{} inside the scan", ev.name);
    }
    let (ddg, propagate) = (span("stage", "ddg"), span("stage", "ddg_propagate"));
    assert!(ddg.args["peak_bytes"] >= propagate.args["peak_bytes"]);

    // Live heap of the whole test process (the image included), in MiB:
    // the scan's peak, then live bytes as each stage span closes.
    let mut measured = vec![("peak", mib(root, "peak_bytes"))];
    for stage in ["ssa", "lift_cfg", "ddg_alias", "ddg_indirect", "ddg_propagate", "ddg", "detect"]
    {
        measured.push((stage, mib(span("stage", stage), "live_bytes")));
    }
    let budgets = [
        ("peak", 29.75),
        ("ssa", 24.25),
        ("lift_cfg", 26.0),
        ("ddg_alias", 26.5),
        ("ddg_indirect", 26.5),
        ("ddg_propagate", 19.25),
        ("ddg", 18.0),
        ("detect", 17.25),
    ];
    for ((name, got), (_, budget)) in measured.iter().zip(budgets) {
        assert!(*got <= budget, "Hikvision {name}: {got:.2} MiB over {budget} MiB ({measured:?})");
    }

    // The JSON report is streamed as it is printed: rendering all of
    // it holds neither a value tree nor the text.
    let before = heap::live();
    heap::reset_peak();
    serde_json::to_writer_pretty(std::io::sink(), &report).unwrap();
    let rise = (heap::peak() - before) as f64 / f64::from(1 << 20);
    assert!(rise < 0.25, "rendering the Hikvision report raised the live heap {rise:.2} MiB");
}

/// Lifting a function into its CFG costs a constant handful of
/// allocation calls, whatever its size: its IR lives in one flat buffer,
/// not a heap node per expression. Pinned per function at the measured
/// count (7.0: the name, the statements, the nodes, the per-word
/// records, the blocks and the two edge arrays) plus 10 % headroom, on
/// Hikvision (MIPS) and on setup.cgi (ARM, whose register lists need the
/// most nodes per instruction); a heap node per expression cost ~143 and
/// ~172.
#[test]
fn lifting_costs_a_handful_of_allocations_per_function() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (i, profile) in
        table2_profiles().into_iter().enumerate().filter(|(i, _)| [2, 5].contains(i))
    {
        let bin = build_firmware(&profile).binary;
        let functions = bin.functions();
        let before = CALLS.with(Cell::get);
        for s in &functions {
            drop(build_function_cfg(&bin, s).expect("every generated function lifts"));
        }
        let calls = CALLS.with(Cell::get) - before;
        let per_function = calls as f64 / functions.len() as f64;
        assert!(
            per_function <= 7.7,
            "profile {}: {per_function:.2} allocation calls per function",
            i + 1
        );
    }
}

/// The allocation calls per function of `f`, run over every function of
/// profile `index` (0-based) as built CFGs, with one expression pool
/// per 64 functions (the fused pass's chunk), and of the alias stage
/// over the merged summaries: `(symex, alias)`.
fn symex_and_alias_calls(index: usize) -> (f64, f64) {
    let profile = table2_profiles().remove(index);
    let bin = build_firmware(&profile).binary;
    let functions = bin.functions();
    let config = SymexConfig::default();
    let mut global = ExprPool::new();
    let mut summaries = Vec::new();
    let mut symex_calls = 0;
    for chunk in functions.chunks(64) {
        let mut pool = ExprPool::new();
        for s in chunk {
            let cfg = build_function_cfg(&bin, s).expect("every generated function lifts");
            let before = CALLS.with(Cell::get);
            let summary = analyze_function(&bin, &cfg, &mut pool, &config);
            symex_calls += CALLS.with(Cell::get) - before;
            summaries.push(summary.translate_into(&pool, &mut global));
        }
    }
    let alias = AliasConfig::default();
    let globals = GlobalMap::build(&bin);
    let base_of = |c| globals.base_of(c);
    let before = CALLS.with(Cell::get);
    for s in summaries.iter_mut().filter(|s| !s.degraded) {
        assert!(alias_pass_or_restore(s, &mut global, &alias, &base_of));
    }
    let alias_calls = CALLS.with(Cell::get) - before;
    let n = functions.len() as f64;
    (symex_calls as f64 / n, alias_calls as f64 / n)
}

/// Symbolic execution and the SSE alias stage keep their per-function
/// allocation calls near the measured counts: a path records what it
/// finds straight into the summary and a fork copies only its machine
/// state, every dedup sorts once per function instead of hashing (then
/// leaves the lists at their exact length), and the alias stage neither
/// copies a summary to roll it back nor builds an index a pass that
/// finds no alias never reads. Pinned at the measured value (38.0 and
/// 38.4; 4.7 and 4.8) plus 10 % headroom on setup.cgi and Hikvision;
/// per-path lists, hashed dedup and whole-summary rollback copies cost
/// 60.6 and 24.3 on Hikvision.
#[test]
fn symex_and_alias_cost_few_allocations_per_function() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (index, symex_pin, alias_pin) in [(2, 41.8, 5.2), (5, 42.2, 5.2)] {
        let (symex, alias) = symex_and_alias_calls(index);
        assert!(symex <= symex_pin, "profile {}: symex {symex:.2} calls per function", index + 1);
        assert!(alias <= alias_pin, "profile {}: alias {alias:.2} calls per function", index + 1);
    }
}
