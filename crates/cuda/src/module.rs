//! Kernel modules: named kernels with cost models and optional functional
//! bodies.
//!
//! A workload registers its kernels once (the fatbin the guest library sends
//! to the API server in step ② of Figure 2). Each kernel carries a *cost
//! model* (how many GPU-seconds a launch consumes) and, optionally, a
//! *functional body* that really reads/writes device memory — used by the
//! real K-means and by migration correctness tests.

use std::collections::HashMap;
use std::sync::Arc;

use crate::types::{KernelArgs, LaunchConfig};
use crate::view::DeviceView;

/// Cost model of one kernel launch, in GPU-seconds of exclusive use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelCost {
    /// Fixed cost per launch.
    Fixed(f64),
    /// `base + per_byte × args.bytes`.
    PerByte {
        /// Fixed component, seconds.
        base: f64,
        /// Seconds per byte touched.
        per_byte: f64,
    },
    /// Taken from `KernelArgs::work_hint` (trace-modeled workloads).
    FromArgs,
}

impl KernelCost {
    /// Evaluate the model for a concrete launch.
    pub fn eval(&self, args: &KernelArgs) -> f64 {
        match *self {
            KernelCost::Fixed(s) => s,
            KernelCost::PerByte { base, per_byte } => base + per_byte * args.bytes as f64,
            KernelCost::FromArgs => args.work_hint.unwrap_or(0.0),
        }
    }
}

/// A functional kernel body. Runs on the API server's stream executor with a
/// view of the application's device memory.
pub type KernelFn = Arc<dyn Fn(&mut DeviceView<'_>, &LaunchConfig, &KernelArgs) + Send + Sync>;

/// Definition of one kernel.
#[derive(Clone)]
pub struct KernelDef {
    /// Kernel symbol name.
    pub name: String,
    /// Cost model.
    pub cost: KernelCost,
    /// Optional functional body.
    pub func: Option<KernelFn>,
}

impl KernelDef {
    /// A timed-only kernel whose cost comes from the launch args.
    pub fn timed(name: &str) -> KernelDef {
        KernelDef {
            name: name.to_string(),
            cost: KernelCost::FromArgs,
            func: None,
        }
    }

    /// A functional kernel with an explicit cost model.
    pub fn functional(
        name: &str,
        cost: KernelCost,
        f: impl Fn(&mut DeviceView<'_>, &LaunchConfig, &KernelArgs) + Send + Sync + 'static,
    ) -> KernelDef {
        KernelDef {
            name: name.to_string(),
            cost,
            func: Some(Arc::new(f)),
        }
    }
}

impl std::fmt::Debug for KernelDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelDef")
            .field("name", &self.name)
            .field("cost", &self.cost)
            .field("functional", &self.func.is_some())
            .finish()
    }
}

/// The set of kernels an application ships (its "module" / fatbin).
#[derive(Default, Clone, Debug)]
pub struct ModuleRegistry {
    /// Keyed by shared names, so a launch can carry its kernel's name
    /// without copying it (see [`ModuleRegistry::key`]).
    kernels: HashMap<Arc<str>, KernelDef>,
}

impl ModuleRegistry {
    /// Empty registry.
    pub fn new() -> ModuleRegistry {
        ModuleRegistry::default()
    }

    /// Register a kernel; replaces any existing kernel of the same name.
    pub fn register(&mut self, def: KernelDef) {
        self.kernels.insert(Arc::from(def.name.as_str()), def);
    }

    /// Builder-style registration.
    pub fn with(mut self, def: KernelDef) -> ModuleRegistry {
        self.register(def);
        self
    }

    /// Look up a kernel by name.
    pub fn get(&self, name: &str) -> Option<&KernelDef> {
        self.kernels.get(name)
    }

    /// The registry's shared copy of `name`, if that kernel is registered.
    pub fn key(&self, name: &str) -> Option<Arc<str>> {
        self.kernels.get_key_value(name).map(|(k, _)| Arc::clone(k))
    }

    /// Kernel names, unordered.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.kernels.keys().map(|s| &**s)
    }

    /// Number of registered kernels.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// True if no kernels are registered.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_models_evaluate() {
        let args = KernelArgs {
            bytes: 1000,
            work_hint: Some(0.25),
            ..Default::default()
        };
        assert_eq!(KernelCost::Fixed(1.5).eval(&args), 1.5);
        assert!(
            (KernelCost::PerByte {
                base: 0.1,
                per_byte: 1e-3
            }
            .eval(&args)
                - 1.1)
                .abs()
                < 1e-12
        );
        assert_eq!(KernelCost::FromArgs.eval(&args), 0.25);
        assert_eq!(KernelCost::FromArgs.eval(&KernelArgs::default()), 0.0);
    }

    #[test]
    fn registry_roundtrip() {
        let mut r = ModuleRegistry::new();
        r.register(KernelDef::timed("saxpy"));
        assert_eq!(r.len(), 1);
        assert!(r.get("saxpy").is_some());
        assert!(r.get("gemm").is_none());
        // replacement
        r.register(KernelDef {
            name: "saxpy".into(),
            cost: KernelCost::Fixed(1.0),
            func: None,
        });
        assert_eq!(r.len(), 1);
        assert_eq!(r.get("saxpy").unwrap().cost, KernelCost::Fixed(1.0));
    }
}
