//! The indexed symbol lookups and the lazy indirect-call resolution must
//! give exactly what the whole-table scans gave, on every Table II
//! profile — pristine and damaged.

use dtaint_cfg::{build_all_cfgs, CallGraph};
use dtaint_dataflow::{build_dataflow, DataflowConfig};
use dtaint_fwbin::{Binary, Import, Symbol, SymbolKind};
use dtaint_fwgen::{build_firmware, corrupt_binary, table2_profiles, BinFault};
use dtaint_symex::{analyze_function, ExprPool, SymexConfig};
use std::collections::{BTreeMap, BTreeSet};

/// Every address the lookups must agree on: each symbol's start,
/// `start − 1`, `end − 1` and `end`, and each import stub ± 4.
fn probes(bin: &Binary) -> BTreeSet<u32> {
    let mut out = BTreeSet::new();
    for s in &bin.symbols {
        let end = s.addr.wrapping_add(s.size);
        out.extend([s.addr, s.addr.wrapping_sub(1), end.wrapping_sub(1), end]);
    }
    for i in &bin.imports {
        out.extend([i.stub_addr.wrapping_sub(4), i.stub_addr, i.stub_addr.wrapping_add(4)]);
    }
    out
}

/// The table scan's answer at every probe: the first function symbol in
/// table order whose non-wrapping range covers it. Computed by walking
/// the table once and letting the first cover win, which keeps the
/// reference linear in the table rather than in table × probes.
fn first_covering(bin: &Binary, probes: &BTreeSet<u32>) -> BTreeMap<u32, usize> {
    let mut found = BTreeMap::new();
    for (i, s) in bin.symbols.iter().enumerate() {
        if s.kind != SymbolKind::Function {
            continue;
        }
        let Some(end) = s.addr.checked_add(s.size) else { continue };
        for &p in probes.range(s.addr..end) {
            found.entry(p).or_insert(i);
        }
    }
    found
}

fn assert_lookups_match_scan(bin: &Binary, label: &str) {
    let probes = probes(bin);
    let covering = first_covering(bin, &probes);
    for &addr in &probes {
        let got = bin.function_at(addr).map(|s| s as *const Symbol);
        let want = covering.get(&addr).map(|&i| &bin.symbols[i] as *const Symbol);
        assert_eq!(got, want, "{label}: function_at({addr:#x})");
        let got = bin.import_at(addr).map(|i| i as *const Import);
        let want = bin.imports.iter().find(|i| i.stub_addr == addr).map(|i| i as *const Import);
        assert_eq!(got, want, "{label}: import_at({addr:#x})");
    }
}

#[test]
fn indexed_lookups_equal_table_scans_on_every_profile_and_mutant() {
    for profile in table2_profiles() {
        let bin = build_firmware(&profile).binary;
        let name = profile.binary_name;
        assert_lookups_match_scan(&bin, name);
        let n_symbols = bin.symbols.len();
        let n_funcs = bin.functions().len();
        let mut faults = vec![
            BinFault::LyingSectionSize { index: 0 },
            BinFault::OverlappingSymbols,
            BinFault::DanglingSymbol,
        ];
        for index in [0, n_symbols / 2, n_symbols - 1] {
            faults.push(BinFault::WrappingSymbol { index });
        }
        for index in [0, n_funcs / 2] {
            faults.push(BinFault::GarbageOpcodes { index, seed: 7 });
        }
        // `bin` has built its index above, so each mutant also checks
        // that a clone does not inherit it.
        for fault in &faults {
            let mutant = corrupt_binary(&bin, fault);
            assert_lookups_match_scan(&mutant, &format!("{name} {fault:?}"));
        }
    }
}

/// Resolved `(ins_addr, callee)` pairs of one profile, through the
/// same layers a scan runs.
fn resolved_pairs(bin: &Binary) -> Vec<(u32, u32)> {
    let cfgs = build_all_cfgs(bin).unwrap();
    let mut cg = CallGraph::build(bin, &cfgs);
    let mut pool = ExprPool::new();
    let config = SymexConfig::default();
    let summaries = cfgs.iter().map(|c| analyze_function(bin, c, &mut pool, &config)).collect();
    let df = build_dataflow(bin, &mut cg, summaries, pool, &DataflowConfig::default());
    let stats = df.indirect_stats;
    assert!(stats.layouts_inferred <= stats.installers + stats.sites, "{stats:?}");
    df.resolved_indirect.iter().map(|r| (r.ins_addr, r.callee)).collect()
}

#[test]
fn resolved_indirect_calls_are_pinned_on_every_profile() {
    for (i, profile) in table2_profiles().into_iter().enumerate() {
        let bin = build_firmware(&profile).binary;
        let pairs = resolved_pairs(&bin);
        if i < 5 {
            assert!(pairs.is_empty(), "{}: {pairs:x?}", profile.binary_name);
        } else {
            assert_eq!(pairs, HIKVISION_RESOLVED, "{}", profile.binary_name);
        }
    }
}

/// Hikvision `centaurus`: the four dispatcher calls through installed
/// handler fields (e.g. `dispatch_isapi_url1` → `handle_isapi_url1` at
/// 0x10290) and the handlers they reach.
const HIKVISION_RESOLVED: &[(u32, u32)] =
    &[(0x10290, 0x10184), (0x10404, 0x102f8), (0x10578, 0x1046c), (0x10c3c, 0x10b10)];
