//! Microbenchmarks of the hot paths under the experiments: the power pool,
//! the decider iteration, the server queue, workload integration, and a
//! whole small-cluster simulated second.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use penelope_core::{DeciderConfig, LocalDecider, PeerTable, PoolConfig, PowerPool};
use penelope_power::{ConstantDevice, PowerInterface, RaplConfig, SimulatedRapl};
use penelope_sim::{ClusterConfig, ClusterSim, SystemKind};
use penelope_trace::{SharedObserver, Stamper};
use penelope_units::{NodeId, Power, PowerRange, SimTime};
use penelope_power::CappedDevice;
use penelope_workload::{npb, WorkloadState};

fn w(x: u64) -> Power {
    Power::from_watts_u64(x)
}

fn bench_pool(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/pool");
    g.throughput(Throughput::Elements(1));
    g.bench_function("handle_request", |b| {
        let mut pool = PowerPool::new(PoolConfig::default());
        pool.deposit(w(1_000_000));
        b.iter(|| {
            pool.deposit(Power::from_milliwatts(3_000));
            std::hint::black_box(pool.handle_request(false, Power::ZERO))
        })
    });
    g.bench_function("urgent_request", |b| {
        let mut pool = PowerPool::new(PoolConfig::default());
        pool.deposit(w(1_000_000));
        b.iter(|| {
            pool.deposit(w(10));
            std::hint::black_box(pool.handle_request(true, w(10)))
        })
    });
    g.finish();
}

fn bench_decider(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/decider");
    g.throughput(Throughput::Elements(1));
    g.bench_function("tick_excess_then_hungry", |b| {
        let safe = PowerRange::from_watts(80, 300);
        let cfg = DeciderConfig::default();
        let mut decider = LocalDecider::new(cfg, w(160), safe);
        let mut peers = PeerTable::new(NodeId::new(0), 2, &cfg);
        let trace = Stamper::new(SharedObserver::noop(), cfg.period);
        let mut pool = PowerPool::new(PoolConfig::default());
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            let reading = if t.is_multiple_of(2) { w(100) } else { w(200) };
            std::hint::black_box(decider.tick(
                &trace,
                SimTime::from_secs(t),
                reading,
                &mut pool,
                Some(NodeId::new(1)),
                &mut peers,
            ))
        })
    });
    g.finish();
}

fn bench_rapl(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/rapl");
    g.throughput(Throughput::Elements(1));
    g.bench_function("read_power_constant_device", |b| {
        let mut rapl = SimulatedRapl::new(ConstantDevice::new(w(180)), w(160), RaplConfig::default());
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            std::hint::black_box(rapl.read_power(SimTime::from_secs(t)))
        })
    });
    g.bench_function("workload_advance_one_period", |b| {
        let mut state = WorkloadState::new(npb::bt());
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            std::hint::black_box(state.advance(
                SimTime::from_secs(t - 1),
                SimTime::from_secs(t),
                w(170),
            ))
        })
    });
    g.finish();
}

fn bench_cluster_second(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/cluster");
    g.sample_size(10);
    for system in [SystemKind::Fair, SystemKind::Penelope, SystemKind::Slurm] {
        g.bench_function(format!("44_nodes_60s_{}", system.label()), |b| {
            b.iter(|| {
                let cfg = ClusterConfig::paper_defaults(system, w(44 * 160));
                let workloads = (0..44)
                    .map(|i| {
                        let apps = npb::all_profiles();
                        apps[i % apps.len()].scaled(0.5)
                    })
                    .collect();
                let report = ClusterSim::new(cfg, workloads).run(SimTime::from_secs(60));
                std::hint::black_box(report.net.offered())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_pool,
    bench_decider,
    bench_rapl,
    bench_cluster_second
);
criterion_main!(benches);
