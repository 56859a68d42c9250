//! Network model between function hosts and GPU servers.
//!
//! The paper's testbed gives each p3.8xlarge "a network interface of up to
//! 10 Gbps"; AWS Lambda adds "lower bandwidth and larger variance". A
//! [`NetLink`] models one GPU server NIC: a pair of processor-sharing
//! directional links (all connected functions contend) plus a per-message
//! propagation latency with optional jitter.

use std::rc::Rc;
use std::sync::Arc;

use dgsf_sim::{lit, rng, Dur, GpsResource, ProcCtx, SimHandle};

use crate::faults::{LinkFaults, MsgFate};

/// Calibrated network parameters of a deployment.
#[derive(Debug, Clone)]
pub struct NetProfile {
    /// One-way RPC propagation latency.
    pub rpc_latency: Dur,
    /// Additional uniform jitter in `[0, rpc_jitter)` per message.
    pub rpc_jitter: Dur,
    /// GPU-server NIC bandwidth, bytes/s per direction.
    pub nic_bw: f64,
    /// Object-store (S3) download bandwidth per stream, bytes/s.
    pub s3_bw: f64,
}

impl NetProfile {
    /// The paper's OpenFaaS-on-EC2 deployment: 10 Gb/s NIC, low latency,
    /// ~1.2 Gb/s effective S3 throughput.
    pub fn datacenter() -> NetProfile {
        NetProfile {
            rpc_latency: Dur::from_micros(60),
            rpc_jitter: Dur::ZERO,
            nic_bw: 1.25e9,
            s3_bw: 0.15e9,
        }
    }

    /// The AWS Lambda deployment: higher, jittery latency and much lower
    /// effective bandwidth *between the function and the GPU server* — the
    /// cause of the NLP / image-classification spikes in Table II, whose
    /// extra cost tracks the model+input bytes that must cross the remoting
    /// link. S3 stays fast (downloads run inside AWS either way).
    pub fn lambda() -> NetProfile {
        NetProfile {
            rpc_latency: Dur::from_micros(250),
            rpc_jitter: Dur::from_micros(300),
            nic_bw: 0.05e9,
            s3_bw: 0.15e9,
        }
    }
}

/// Direction of a transfer on a [`NetLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Function host → GPU server.
    ToServer,
    /// GPU server → function host.
    ToClient,
}

/// Outcome of a transfer on a fault-injected link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The message(s) reached the other side.
    Delivered,
    /// Lost in the network (fault injection). The sender still paid the
    /// propagation latency and NIC bandwidth — the bytes left, then died.
    Dropped,
}

/// One GPU server's NIC: shared by every function currently remoting to it.
pub struct NetLink {
    profile: NetProfile,
    up: GpsResource,
    down: GpsResource,
    faults: Option<Rc<LinkFaults>>,
}

impl NetLink {
    /// Create a NIC with the given profile.
    pub fn new(h: &SimHandle, profile: NetProfile) -> Arc<NetLink> {
        NetLink::with_faults(h, profile, None)
    }

    /// Create a NIC with an optional fault-injection layer attached.
    #[expect(
        clippy::arc_with_non_send_sync,
        reason = "`NetLink::new` and `RpcClient::connect` are entry points the benchmark \
                  pins with an `Arc<NetLink>`; it becomes an `Rc` when ROADMAP item 1 \
                  re-pins the benchmark"
    )]
    pub fn with_faults(
        h: &SimHandle,
        profile: NetProfile,
        faults: Option<Rc<LinkFaults>>,
    ) -> Arc<NetLink> {
        Arc::new(NetLink {
            up: h.gps(profile.nic_bw),
            down: h.gps(profile.nic_bw),
            profile,
            faults,
        })
    }

    /// The link's profile.
    pub fn profile(&self) -> &NetProfile {
        &self.profile
    }

    /// The attached fault layer, if any.
    pub fn faults(&self) -> Option<&Rc<LinkFaults>> {
        self.faults.as_ref()
    }

    /// Move `bytes` across the link `repeat` times back-to-back (used to
    /// model `repeat` sequential round trips of an un-batched call pattern
    /// without creating `repeat` simulation events). Charges propagation
    /// latency per message — each message drawing its own jitter, so the
    /// variance of an aggregate scales like `repeat` independent round trips
    /// rather than `repeat` perfectly correlated ones — plus
    /// shared-bandwidth time for the payloads. With a fault layer attached
    /// the transfer may be [`Delivery::Dropped`]: the cost is still charged
    /// (the bytes were sent), but the receiver never sees them.
    pub fn transfer(&self, p: &ProcCtx, dir: Direction, bytes: u64, repeat: u32) -> Delivery {
        if repeat == 0 {
            return Delivery::Delivered;
        }
        let fate = match &self.faults {
            Some(f) => f.fate(p.now(), repeat),
            None => MsgFate::Deliver {
                extra_delay: Dur::ZERO,
            },
        };
        let tel = p.telemetry();
        if tel.is_enabled() {
            tel.counter_add(lit!("net.messages"), repeat as u64);
            let key = match dir {
                Direction::ToServer => lit!("net.bytes.up"),
                Direction::ToClient => lit!("net.bytes.down"),
            };
            tel.histogram_record(key, bytes.saturating_mul(repeat as u64));
            match fate {
                MsgFate::Drop => tel.counter_add(lit!("net.dropped"), 1),
                MsgFate::Deliver { extra_delay } if extra_delay > Dur::ZERO => {
                    tel.counter_add(lit!("net.delayed"), 1)
                }
                MsgFate::Deliver { .. } => {}
            }
        }
        let mut lat = Dur(self
            .profile
            .rpc_latency
            .as_nanos()
            .saturating_mul(repeat as u64));
        if self.profile.rpc_jitter > Dur::ZERO {
            let j = p.with_rng(|r| {
                (0..repeat).fold(Dur::ZERO, |acc, _| {
                    acc.saturating_add(rng::uniform_gap(r, Dur::ZERO, self.profile.rpc_jitter))
                })
            });
            lat = lat.saturating_add(j);
        }
        if let MsgFate::Deliver { extra_delay } = fate {
            lat = lat.saturating_add(extra_delay);
        }
        p.sleep(lat);
        let link = match dir {
            Direction::ToServer => &self.up,
            Direction::ToClient => &self.down,
        };
        link.acquire(p, bytes as f64 * repeat as f64);
        match fate {
            MsgFate::Deliver { .. } => Delivery::Delivered,
            MsgFate::Drop => Delivery::Dropped,
        }
    }

    /// Move one migration state-transfer of `bytes` (context + handle-pool
    /// descriptors) across the server NIC. Unlike [`NetLink::transfer`] this
    /// asks the fault layer for a *migration* fate — a dedicated RNG stream
    /// and counter — and never draws simulation-RNG jitter, so adding
    /// migrations to a run perturbs neither ordinary message fates nor
    /// arrival processes. The sender pays latency and bandwidth even when
    /// the transfer is dropped mid-flight.
    pub fn transfer_state(&self, p: &ProcCtx, bytes: u64) -> Delivery {
        let fate = match &self.faults {
            Some(f) => f.migration_fate(p.now()),
            None => MsgFate::Deliver {
                extra_delay: Dur::ZERO,
            },
        };
        let tel = p.telemetry();
        if tel.is_enabled() {
            tel.counter_add(lit!("net.migration_messages"), 1);
            tel.histogram_record(lit!("net.bytes.migration"), bytes);
            match fate {
                MsgFate::Drop => tel.counter_add(lit!("net.migration_dropped"), 1),
                MsgFate::Deliver { extra_delay } if extra_delay > Dur::ZERO => {
                    tel.counter_add(lit!("net.migration_delayed"), 1)
                }
                MsgFate::Deliver { .. } => {}
            }
        }
        let mut lat = self.profile.rpc_latency;
        if let MsgFate::Deliver { extra_delay } = fate {
            lat = lat.saturating_add(extra_delay);
        }
        p.sleep(lat);
        self.up.acquire(p, bytes as f64);
        match fate {
            MsgFate::Deliver { .. } => Delivery::Delivered,
            MsgFate::Drop => Delivery::Dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsf_sim::{Sim, SimCell};

    #[test]
    fn latency_plus_bandwidth() {
        let mut sim = Sim::new(1);
        let link = NetLink::new(
            &sim.handle(),
            NetProfile {
                rpc_latency: Dur::from_millis(1),
                rpc_jitter: Dur::ZERO,
                nic_bw: 1e6, // 1 MB/s
                s3_bw: 1e6,
            },
        );
        let t = Rc::new(SimCell::new(&sim.handle(), 0.0));
        let t2 = t.clone();
        sim.spawn("xfer", move |p| {
            link.transfer(p, Direction::ToServer, 1_000_000, 1);
            *t2.lock() = p.now().as_secs_f64();
        });
        sim.run();
        let elapsed = *t.lock();
        assert!(
            (elapsed - 1.001).abs() < 1e-6,
            "1 ms latency + 1 s transfer: {elapsed}"
        );
    }

    #[test]
    fn repeat_charges_n_round_latencies() {
        let mut sim = Sim::new(1);
        let link = NetLink::new(
            &sim.handle(),
            NetProfile {
                rpc_latency: Dur::from_micros(100),
                rpc_jitter: Dur::ZERO,
                nic_bw: 1e12,
                s3_bw: 1e12,
            },
        );
        let t = Rc::new(SimCell::new(&sim.handle(), 0.0));
        let t2 = t.clone();
        sim.spawn("xfer", move |p| {
            link.transfer(p, Direction::ToServer, 64, 1000);
            *t2.lock() = p.now().as_secs_f64();
        });
        sim.run();
        let elapsed = *t.lock();
        assert!((elapsed - 0.1).abs() < 1e-3, "1000 × 100 µs: {elapsed}");
    }

    #[test]
    fn concurrent_transfers_share_bandwidth() {
        let mut sim = Sim::new(1);
        let link = NetLink::new(
            &sim.handle(),
            NetProfile {
                rpc_latency: Dur::ZERO,
                rpc_jitter: Dur::ZERO,
                nic_bw: 1e6,
                s3_bw: 1e6,
            },
        );
        let done = Rc::new(SimCell::new(&sim.handle(), Vec::new()));
        for i in 0..2 {
            let link = link.clone();
            let done = done.clone();
            sim.spawn(&format!("x{i}"), move |p| {
                link.transfer(p, Direction::ToServer, 500_000, 1);
                done.lock().push(p.now().as_secs_f64());
            });
        }
        sim.run();
        for t in done.lock().iter() {
            assert!((t - 1.0).abs() < 1e-6, "two halves share the MB/s: {t}");
        }
    }

    #[test]
    fn aggregate_jitter_is_a_sum_of_independent_draws() {
        // Sum of `n` independent U[0, J) draws concentrates around n·J/2
        // (σ = J·√(n/12) ≈ 0.9 % of the mean at n = 1000). The old
        // correlated-jitter bug scaled a single draw by n, which lands in
        // any given 10 %-wide band around the midpoint only 10 % of the
        // time — across several seeds it would certainly escape.
        let jitter = Dur::from_micros(300);
        let n = 1000u32;
        for seed in 1..=5 {
            let mut sim = Sim::new(seed);
            let link = NetLink::new(
                &sim.handle(),
                NetProfile {
                    rpc_latency: Dur::ZERO,
                    rpc_jitter: jitter,
                    nic_bw: 1e18,
                    s3_bw: 1e18,
                },
            );
            let t = Rc::new(SimCell::new(&sim.handle(), 0.0));
            let t2 = t.clone();
            sim.spawn("xfer", move |p| {
                link.transfer(p, Direction::ToServer, 64, n);
                *t2.lock() = p.now().as_secs_f64();
            });
            sim.run();
            let elapsed = *t.lock();
            let mid = n as f64 * jitter.as_secs_f64() / 2.0;
            assert!(
                (elapsed - mid).abs() < 0.05 * 2.0 * mid,
                "seed {seed}: aggregate jitter {elapsed:.6} s not near {mid:.6} s"
            );
        }
    }

    #[test]
    fn faulted_link_drops_but_still_charges_the_send() {
        use crate::faults::{FaultPlan, LinkFaults};
        let mut sim = Sim::new(1);
        let faults = LinkFaults::new(&sim.handle(), &FaultPlan::new(0).drop_message(0));
        let link = NetLink::with_faults(
            &sim.handle(),
            NetProfile {
                rpc_latency: Dur::from_millis(1),
                rpc_jitter: Dur::ZERO,
                nic_bw: 1e6,
                s3_bw: 1e6,
            },
            Some(faults.clone()),
        );
        let out = Rc::new(SimCell::new(&sim.handle(), None));
        let o = out.clone();
        sim.spawn("xfer", move |p| {
            let first = link.transfer(p, Direction::ToServer, 1_000_000, 1);
            let t1 = p.now().as_secs_f64();
            let second = link.transfer(p, Direction::ToServer, 1_000_000, 1);
            *o.lock() = Some((first, t1, second, p.now().as_secs_f64()));
        });
        sim.run();
        let (first, t1, second, t2) = out.lock().take().unwrap();
        assert_eq!(first, Delivery::Dropped);
        assert_eq!(second, Delivery::Delivered);
        assert!((t1 - 1.001).abs() < 1e-6, "dropped send still pays: {t1}");
        assert!((t2 - 2.002).abs() < 1e-6, "second send: {t2}");
        assert_eq!(faults.stats().dropped, 1);
    }

    #[test]
    fn lambda_profile_is_slower_and_jittery() {
        let dc = NetProfile::datacenter();
        let lam = NetProfile::lambda();
        assert!(lam.rpc_latency > dc.rpc_latency);
        assert!(lam.rpc_jitter > Dur::ZERO);
        assert!(lam.nic_bw < dc.nic_bw);
    }
}
