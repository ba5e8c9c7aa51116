//! §4.5.2 — server service time and the saturation extrapolations.
//!
//! Prints the measured per-request service time (paper: 80–100 µs) and the
//! derived saturation points (~12 500 nodes at 1 Hz; ~11.8 Hz at 1056
//! nodes), then times the server-queue hot path.

use criterion::{criterion_group, criterion_main, Criterion};
use penelope_experiments::service;
use penelope_slurm::{ServerQueue, ServiceModel};
use penelope_testkit::TestRng;
use penelope_units::SimTime;

fn bench(c: &mut Criterion) {
    if penelope_bench::should_print() {
        println!("\n{}", service::run().render());
    }
    let mut g = c.benchmark_group("svc_service_time");
    g.bench_function("queue_offer_10k_requests", |b| {
        b.iter(|| {
            let mut q = ServerQueue::new(ServiceModel::default(), 1200);
            let mut rng = TestRng::seed_from_u64(1);
            let mut served = 0u64;
            for i in 0..10_000u64 {
                if q.offer(SimTime::from_micros(i * 95), &mut rng).is_some() {
                    served += 1;
                }
            }
            std::hint::black_box(served)
        })
    });
    g.bench_function("measurement_and_extrapolation", |b| {
        b.iter(|| std::hint::black_box(service::run().saturation_hz_at_1056))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
