//! Criterion wrappers around reduced versions of each paper exhibit, so
//! `cargo bench` exercises every figure's harness end to end and tracks
//! regressions in simulation throughput. The full-scale tables are printed
//! by the `fig*`/`table*` binaries (`cargo run --release -p vlfs-bench
//! --bin all_figures`).

use criterion::{criterion_group, criterion_main, Criterion};
use fscore::HostModel;
use modelcheck::stack::{DevKind, DiskKind, FsKind, StackSpec};
use vlfs_bench::*;

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    let ufs_on_vld = StackSpec::paper(
        FsKind::Ufs,
        DevKind::Vld,
        DiskKind::Seagate,
        HostModel::instant(),
    );
    g.bench_function("table1", |b| b.iter(table1::run));
    g.bench_function("fig1_small", |b| {
        b.iter(|| fig1::series(disksim::DiskSpec::st19101_sim(), 40, 1))
    });
    g.bench_function("fig2_small", |b| {
        b.iter(|| fig2::series(disksim::DiskSpec::st19101_sim(), 10))
    });
    g.bench_function("fig6_small", |b| {
        b.iter(|| fig6::measure(ufs_on_vld, 60).expect("fig6"))
    });
    g.bench_function("fig7_small", |b| {
        b.iter(|| fig7::measure(ufs_on_vld, 2).expect("fig7"))
    });
    g.bench_function("fig8_point", |b| {
        b.iter(|| {
            fig8::measure_point(
                fig8::System::UfsVld,
                DiskKind::Seagate,
                0.5,
                100,
                HostModel::instant(),
            )
            .expect("fig8")
        })
    });
    g.bench_function("fig9_point", |b| {
        b.iter(|| {
            fig9::measure(
                DevKind::Vld,
                DiskKind::Seagate,
                HostModel::sparcstation_10(),
                60,
            )
            .expect("fig9")
        })
    });
    g.bench_function("fig10_point", |b| {
        b.iter(|| fig10::series(504, &[0.5], 600, HostModel::instant()))
    });
    g.bench_function("fig11_point", |b| {
        b.iter(|| fig11::series(512, &[0.2], 400, HostModel::instant()))
    });
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
