//! Micro-benchmarks of the simulation substrate itself: event throughput,
//! processor-sharing bookkeeping, wire codec, and the ablation targets
//! DESIGN.md calls out (GPS vs FIFO sharing, migration DMA channels).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::sync::Arc;

use dgsf::cuda::CostTable;
use dgsf::prelude::*;
use dgsf::remoting::wire::{Request, WireBuf};
use dgsf::sim::{FifoResource, GpsResource, Sim};
use dgsf::workloads;

fn bench_event_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim");
    g.sample_size(10);
    g.bench_function("20k_sleep_events", |b| {
        b.iter(|| {
            let mut sim = Sim::new(1);
            sim.spawn("sleeper", |ctx| {
                for _ in 0..20_000 {
                    ctx.sleep(Dur::from_micros(1));
                }
            });
            sim.run()
        })
    });
    g.finish();
}

fn bench_gps_vs_fifo(c: &mut Criterion) {
    // Ablation: processor-sharing vs serialized kernel execution with 8
    // concurrent jobs. GPS pays re-apportioning on every arrival/departure.
    let mut g = c.benchmark_group("sharing");
    g.sample_size(10);
    g.bench_function("gps_8_jobs_1k_rounds", |b| {
        b.iter(|| {
            let mut sim = Sim::new(1);
            let r = Arc::new(GpsResource::new(&sim, 1.0));
            for i in 0..8 {
                let r = r.clone();
                sim.spawn(&format!("j{i}"), move |ctx| {
                    for _ in 0..1000 {
                        r.acquire(ctx, 1e-6);
                    }
                });
            }
            sim.run()
        })
    });
    g.bench_function("fifo_8_jobs_1k_rounds", |b| {
        b.iter(|| {
            let mut sim = Sim::new(1);
            let r = Arc::new(FifoResource::new(&sim));
            for i in 0..8 {
                let r = r.clone();
                sim.spawn(&format!("j{i}"), move |ctx| {
                    for _ in 0..1000 {
                        r.acquire_for(ctx, Dur::from_micros(1));
                    }
                });
            }
            sim.run()
        })
    });
    g.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    let launch = Request::LaunchConfigured {
        fptr: 0xdead_beef,
        stream: 0,
        cfg: dgsf::remoting::wire::WireCfg {
            grid: (128, 1, 1),
            block: (256, 1, 1),
        },
        args: dgsf::remoting::wire::WireArgs {
            ptrs: vec![1, 2, 3],
            scalars: vec![42, 7],
            bytes: 1 << 20,
            work_hint: Some(0.001),
        },
    };
    c.bench_function("wire/encode_launch_100k", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for _ in 0..100_000 {
                n += launch.encode().len() as u64;
            }
            n
        })
    });
    c.bench_function("wire/wire_size_launch_100k", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for _ in 0..100_000 {
                n += launch.wire_size();
            }
            n
        })
    });
    let frame = launch.encode();
    c.bench_function("wire/decode_launch_100k", |b| {
        b.iter_batched(
            || frame.clone(),
            |f| {
                let mut n = 0u64;
                for _ in 0..100_000 {
                    let mut f = f.clone();
                    let req = Request::decode(&mut f).unwrap();
                    n += matches!(req, Request::LaunchConfigured { .. }) as u64;
                }
                n
            },
            BatchSize::SmallInput,
        )
    });
    let h2d = Request::MemcpyH2D {
        dst: 0x7000_0000_0000,
        data: WireBuf::Bytes(vec![7u8; 64 * 1024].into()),
    };
    c.bench_function("wire/encode_h2d_64k_1k", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for _ in 0..1_000 {
                n += h2d.encode().len() as u64;
            }
            n
        })
    });
    let h2d_frame = h2d.encode();
    c.bench_function("wire/decode_h2d_64k_1k", |b| {
        b.iter_batched(
            || h2d_frame.clone(),
            |f| {
                let mut n = 0u64;
                for _ in 0..1_000 {
                    let mut f = f.clone();
                    let req = Request::decode(&mut f).unwrap();
                    n += matches!(req, Request::MemcpyH2D { .. }) as u64;
                }
                n
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_rpc_round_trips(c: &mut Criterion) {
    // The steady-state remoting hot path: a client/server pair ping-ponging
    // framed requests over a NetLink. One round trip = encode + wire_size +
    // uplink transfer + decode + respond (encode + wire_size + downlink) +
    // reply decode, all through the DES kernel — the `sim events/sec`
    // number the scale work optimizes.
    use dgsf::remoting::wire::Response;
    use dgsf::remoting::{NetLink, NetProfile, RpcClient, RpcInbox};
    use dgsf::sim::Dur as SimDur;

    let mut g = c.benchmark_group("rpc");
    g.sample_size(10);
    g.bench_function("20k_round_trips", |b| {
        b.iter(|| {
            let mut sim = Sim::new(1);
            let h = sim.handle();
            let link = NetLink::new(
                &h,
                NetProfile {
                    rpc_latency: SimDur::from_micros(60),
                    rpc_jitter: SimDur::ZERO,
                    nic_bw: 1.25e9,
                    s3_bw: 0.15e9,
                },
            );
            let (client, inbox) = RpcClient::connect(&h, link.clone());
            let srv_link = link.clone();
            sim.spawn("server", move |p| {
                while let Some(env) = inbox.next(p) {
                    let _req = RpcInbox::decode(&env).unwrap();
                    inbox.respond(p, &srv_link, &env, &Response::Ok);
                }
            });
            sim.spawn("client", move |p| {
                for _ in 0..20_000 {
                    client.call(p, &Request::Sync).unwrap();
                }
            });
            sim.run()
        })
    });
    g.finish();
}

fn bench_migration_dma_channels(c: &mut Criterion) {
    // Ablation: 1 vs 2 DMA channels for the migration copy. Uses the
    // functional K-means session so real pages move.
    let mut g = c.benchmark_group("migration");
    g.sample_size(10);
    for channels in [1u32, 2u32] {
        g.bench_function(format!("kmeans_migrate_{channels}ch"), |b| {
            b.iter(|| {
                let costs = CostTable {
                    d2d_channels: channels,
                    ..Default::default()
                };
                let mut cfg = PlatformConfig::paper_default()
                    .with_seed(1)
                    .with_server(GpuServerConfig::paper_default().gpus(2));
                cfg.server.costs = costs;
                let w: Arc<dyn Workload> = Arc::new(workloads::kmeans());
                Testbed::run_dgsf_once(&cfg, w)
            })
        });
    }
    g.finish();
}

fn bench_functional_kmeans(c: &mut Criterion) {
    // Real math through the whole remoting stack.
    let mut g = c.benchmark_group("functional");
    g.sample_size(10);
    g.bench_function("kmeans_cpu_6_threads", |b| {
        let prob = workloads::KMeansProblem::synthetic(20_000, 8, 8, 5, 3);
        b.iter(|| prob.run_cpu(6))
    });
    g.finish();
}

criterion_group!(
    simulator,
    bench_event_throughput,
    bench_gps_vs_fifo,
    bench_wire_codec,
    bench_rpc_round_trips,
    bench_migration_dma_channels,
    bench_functional_kmeans,
);
criterion_main!(simulator);
