//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! bottom-up vs top-down traversal, alias recognition on/off,
//! indirect-call resolution on/off, and the path-cap trade-off.
//!
//! Timing lives here; the recall side of each ablation is printed by the
//! `ablation_recall` harness binary.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use dtaint_baseline::{analyze_topdown, BaselineConfig};
use dtaint_cfg::{build_all_cfgs, CallGraph};
use dtaint_dataflow::{build_dataflow, AliasConfig, AliasMode, DataflowConfig};
use dtaint_fwbin::Binary;
use dtaint_fwgen::{build_firmware, table2_profiles};
use dtaint_symex::{analyze_function, ExprPool, SymexConfig};

fn subject(functions: usize) -> Binary {
    let mut p = table2_profiles().remove(2);
    p.total_functions = functions;
    build_firmware(&p).binary
}

/// Bottom-up (DTaint) vs top-down (baseline) DDG generation time.
fn ablation_traversal(c: &mut Criterion) {
    let mut g = c.benchmark_group("traversal");
    g.sample_size(10);
    for functions in [100usize, 200, 400] {
        let bin = subject(functions);
        let cfgs = build_all_cfgs(&bin).unwrap();
        g.bench_with_input(BenchmarkId::new("bottom_up", functions), &functions, |b, _| {
            b.iter_batched(
                || {
                    let mut pool = ExprPool::new();
                    let sums: Vec<_> = cfgs
                        .iter()
                        .map(|cf| analyze_function(&bin, cf, &mut pool, &SymexConfig::default()))
                        .collect();
                    (sums, pool, CallGraph::build(&bin, &cfgs))
                },
                |(sums, pool, mut cg)| {
                    build_dataflow(&bin, &mut cg, sums, pool, &DataflowConfig::default())
                        .finals
                        .len()
                },
                BatchSize::LargeInput,
            )
        });
        g.bench_with_input(BenchmarkId::new("top_down", functions), &functions, |b, _| {
            let cg = CallGraph::build(&bin, &cfgs);
            b.iter(|| {
                analyze_topdown(&bin, &cfgs, &cg, &BaselineConfig::default()).contexts_analyzed
            })
        });
    }
    g.finish();
}

/// Data-flow build time with stages toggled.
fn ablation_stages(c: &mut Criterion) {
    let bin = subject(200);
    let cfgs = build_all_cfgs(&bin).unwrap();
    let mut g = c.benchmark_group("stages");
    g.sample_size(20);
    for (label, mode, indirect) in [
        ("full", AliasMode::Sse, true),
        ("no_alias", AliasMode::Off, true),
        ("no_indirect", AliasMode::Sse, false),
        ("neither", AliasMode::Off, false),
    ] {
        g.bench_function(label, |b| {
            b.iter_batched(
                || {
                    let mut pool = ExprPool::new();
                    let sums: Vec<_> = cfgs
                        .iter()
                        .map(|cf| analyze_function(&bin, cf, &mut pool, &SymexConfig::default()))
                        .collect();
                    (sums, pool, CallGraph::build(&bin, &cfgs))
                },
                |(sums, pool, mut cg)| {
                    let config = DataflowConfig {
                        alias: AliasConfig { mode, ..Default::default() },
                        enable_indirect: indirect,
                        ..Default::default()
                    };
                    build_dataflow(&bin, &mut cg, sums, pool, &config).finals.len()
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

/// Symbolic-execution cost as the path cap grows.
fn ablation_path_cap(c: &mut Criterion) {
    let bin = subject(150);
    let cfgs = build_all_cfgs(&bin).unwrap();
    let mut g = c.benchmark_group("path_cap");
    g.sample_size(10);
    for cap in [8u32, 32, 64, 256] {
        g.bench_with_input(BenchmarkId::from_parameter(cap), &cap, |b, &cap| {
            let config = SymexConfig { max_paths: cap, ..Default::default() };
            b.iter(|| {
                let mut pool = ExprPool::new();
                cfgs.iter().map(|cf| analyze_function(&bin, cf, &mut pool, &config)).count()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, ablation_traversal, ablation_stages, ablation_path_cap);
criterion_main!(benches);
