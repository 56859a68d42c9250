//! GPU server configuration.

use dgsf_cuda::CostTable;
use dgsf_remoting::{FaultPlan, NetProfile};
use dgsf_sim::Dur;

use crate::autoscale::AutoscaleConfig;
use crate::policy::{PlacementPolicy, QueuePolicy};

/// Configuration of one disaggregated GPU server.
#[derive(Debug, Clone)]
pub struct GpuServerConfig {
    /// Number of physical GPUs (the paper's testbed has 4 per machine).
    pub num_gpus: u32,
    /// API servers per GPU: 1 = no sharing, 2 = the paper's "Sharing (Two)".
    pub api_servers_per_gpu: u32,
    /// Placement policy for incoming functions.
    pub policy: PlacementPolicy,
    /// Queue discipline for functions that cannot be placed immediately.
    pub queue: QueuePolicy,
    /// Whether the monitor may live-migrate API servers to fix imbalance.
    pub migration: bool,
    /// Network profile of the server's NIC.
    pub net: NetProfile,
    /// Calibrated CUDA cost table.
    pub costs: CostTable,
    /// Cooldown between monitor-initiated migration requests, in monitor
    /// ticks: damping so a borderline imbalance cannot thrash servers back
    /// and forth between GPUs.
    pub migration_cooldown_ticks: u32,
    /// Guest-side RPC timeout. `None` (the default) blocks forever, which
    /// is safe on a fault-free link; provisioning with faults fills in a
    /// default so chaos runs always terminate.
    pub rpc_timeout: Option<Dur>,
    /// How long a function may wait in the monitor's queue before its
    /// request is abandoned and reported failed. `None` waits forever.
    pub queue_timeout: Option<Dur>,
    /// How long an API server waits for the *next* RPC of an assigned
    /// function before declaring the guest gone and failing the
    /// invocation. `None` waits forever.
    pub idle_timeout: Option<Dur>,
    /// Optional seeded chaos schedule (server kills, RPC drops/delays,
    /// blackholes). `None` injects nothing and leaves behaviour
    /// bit-identical to a fault-free build.
    pub faults: Option<FaultPlan>,
    /// Optional warm-pool autoscaling policy. `None` keeps the paper's
    /// fixed fleet of `api_servers_per_gpu` servers per GPU.
    pub autoscale: Option<AutoscaleConfig>,
}

impl GpuServerConfig {
    /// The paper's default evaluation box: 4 GPUs, no sharing, FCFS.
    pub fn paper_default() -> GpuServerConfig {
        GpuServerConfig {
            num_gpus: 4,
            api_servers_per_gpu: 1,
            policy: PlacementPolicy::BestFit,
            queue: QueuePolicy::Fcfs,
            migration: false,
            net: NetProfile::datacenter(),
            costs: CostTable::default(),
            migration_cooldown_ticks: 15,
            rpc_timeout: None,
            queue_timeout: None,
            idle_timeout: None,
            faults: None,
            autoscale: None,
        }
    }

    /// Builder-style: set GPU count.
    pub fn gpus(mut self, n: u32) -> Self {
        self.num_gpus = n;
        self
    }

    /// Builder-style: set API servers per GPU.
    pub fn sharing(mut self, per_gpu: u32) -> Self {
        self.api_servers_per_gpu = per_gpu;
        self
    }

    /// Builder-style: set placement policy.
    pub fn with_policy(mut self, p: PlacementPolicy) -> Self {
        self.policy = p;
        self
    }

    /// Builder-style: set the queue discipline.
    pub fn with_queue_policy(mut self, q: QueuePolicy) -> Self {
        self.queue = q;
        self
    }

    /// Builder-style: enable migration.
    pub fn with_migration(mut self, on: bool) -> Self {
        self.migration = on;
        self
    }

    /// Builder-style: set the migration cooldown in monitor ticks.
    pub fn with_migration_cooldown_ticks(mut self, ticks: u32) -> Self {
        self.migration_cooldown_ticks = ticks;
        self
    }

    /// Builder-style: set the network profile.
    pub fn with_net(mut self, net: NetProfile) -> Self {
        self.net = net;
        self
    }

    /// Builder-style: set the guest-side RPC timeout.
    pub fn with_rpc_timeout(mut self, t: Dur) -> Self {
        self.rpc_timeout = Some(t);
        self
    }

    /// Builder-style: set the monitor queue timeout.
    pub fn with_queue_timeout(mut self, t: Dur) -> Self {
        self.queue_timeout = Some(t);
        self
    }

    /// Builder-style: set the API-server idle timeout.
    pub fn with_idle_timeout(mut self, t: Dur) -> Self {
        self.idle_timeout = Some(t);
        self
    }

    /// Builder-style: install a chaos schedule.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Builder-style: turn on warm-pool autoscaling. `api_servers_per_gpu`
    /// remains the provisioned baseline; the policy's `min_per_gpu` should
    /// normally match it.
    pub fn with_autoscale(mut self, policy: AutoscaleConfig) -> Self {
        self.autoscale = Some(policy);
        self
    }

    /// Total API servers this configuration provisions.
    pub fn total_api_servers(&self) -> u32 {
        self.num_gpus * self.api_servers_per_gpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let c = GpuServerConfig::paper_default()
            .gpus(3)
            .sharing(2)
            .with_policy(PlacementPolicy::WorstFit)
            .with_migration(true);
        assert_eq!(c.num_gpus, 3);
        assert_eq!(c.total_api_servers(), 6);
        assert_eq!(c.policy, PlacementPolicy::WorstFit);
        assert!(c.migration);
    }
}
