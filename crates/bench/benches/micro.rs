//! Micro-benchmarks of the pipeline stages: instruction lifting, CFG
//! construction, per-function symbolic execution, alias recognition,
//! layout similarity, and the bottom-up propagation, each measured in
//! isolation on a mid-size generated binary.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dtaint_cfg::{build_all_cfgs, CallGraph};
use dtaint_dataflow::{alias_replace, build_dataflow, infer_layouts, DataflowConfig};
use dtaint_fwbin::Binary;
use dtaint_fwgen::{build_firmware, table2_profiles};
use dtaint_ir::lift::lift_block;
use dtaint_symex::{analyze_function, ExprPool, FuncSummary, SymexConfig};

fn subject() -> Binary {
    let mut p = table2_profiles().remove(2); // setup.cgi
    p.total_functions = 200;
    build_firmware(&p).binary
}

fn summaries_of(bin: &Binary) -> (Vec<FuncSummary>, ExprPool, Vec<dtaint_cfg::FunctionCfg>) {
    let cfgs = build_all_cfgs(bin).unwrap();
    let mut pool = ExprPool::new();
    let sums =
        cfgs.iter().map(|c| analyze_function(bin, c, &mut pool, &SymexConfig::default())).collect();
    (sums, pool, cfgs)
}

fn bench_lift(c: &mut Criterion) {
    let bin = subject();
    let text = bin.section(dtaint_fwbin::SectionKind::Text).unwrap();
    let mut g = c.benchmark_group("lift");
    g.throughput(Throughput::Bytes(text.size as u64));
    g.bench_function("lift_all_text", |b| {
        b.iter(|| {
            let mut total = 0usize;
            let mut pc = text.addr;
            let end = text.addr + text.size;
            while pc < end {
                let (block, ir) = lift_block(&bin, pc, end).unwrap();
                total += ir.stmts.len();
                pc = block.end();
            }
            total
        })
    });
    g.finish();
}

fn bench_cfg(c: &mut Criterion) {
    let bin = subject();
    c.bench_function("cfg/build_all", |b| b.iter(|| build_all_cfgs(&bin).unwrap().len()));
}

fn bench_symex(c: &mut Criterion) {
    let bin = subject();
    let cfgs = build_all_cfgs(&bin).unwrap();
    let mut g = c.benchmark_group("symex");
    g.throughput(Throughput::Elements(cfgs.len() as u64));
    g.bench_function("analyze_all_functions", |b| {
        b.iter(|| {
            let mut pool = ExprPool::new();
            cfgs.iter()
                .map(|cf| analyze_function(&bin, cf, &mut pool, &SymexConfig::default()))
                .count()
        })
    });
    g.finish();
}

fn bench_alias(c: &mut Criterion) {
    let bin = subject();
    let (sums, pool, _) = summaries_of(&bin);
    c.bench_function("alias/replace_all", |b| {
        b.iter_batched(
            || (sums.clone(), pool.clone()),
            |(mut sums, mut pool)| {
                for s in &mut sums {
                    alias_replace(s, &mut pool);
                }
                sums.len()
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_layout(c: &mut Criterion) {
    let bin = subject();
    let (sums, pool, _) = summaries_of(&bin);
    c.bench_function("layout/infer_all", |b| {
        b.iter(|| sums.iter().map(|s| infer_layouts(s, &pool).len()).sum::<usize>())
    });
}

fn bench_interproc(c: &mut Criterion) {
    let bin = subject();
    c.bench_function("interproc/build_dataflow", |b| {
        b.iter_batched(
            || {
                let (sums, pool, cfgs) = summaries_of(&bin);
                let cg = CallGraph::build(&bin, &cfgs);
                (sums, pool, cg)
            },
            |(sums, pool, mut cg)| {
                build_dataflow(&bin, &mut cg, sums, pool, &DataflowConfig::default()).finals.len()
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_pool(c: &mut Criterion) {
    c.bench_function("pool/intern_deref_chain", |b| {
        b.iter(|| {
            let mut p = ExprPool::new();
            let mut e = p.arg(0);
            for k in 0..64 {
                let a = p.add_const(e, 8 * k);
                e = p.deref(a, 4);
            }
            p.len()
        })
    });
}

criterion_group!(
    benches,
    bench_lift,
    bench_cfg,
    bench_symex,
    bench_alias,
    bench_layout,
    bench_interproc,
    bench_pool
);
criterion_main!(benches);
