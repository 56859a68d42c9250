//! Kernel modules: named kernels with cost models and optional functional
//! bodies.
//!
//! A workload registers its kernels once (the fatbin the guest library sends
//! to the API server in step ② of Figure 2). Each kernel carries a *cost
//! model* (how many GPU-seconds a launch consumes) and, optionally, a
//! *functional body* that really reads/writes device memory — used by the
//! real K-means and by migration correctness tests.
//!
//! A registry keeps its kernels sorted by name, so a name resolves by
//! binary search and a kernel is then named by its position, a
//! [`KernelId`]. Launch paths resolve a kernel once (the API server at
//! module registration, the native runtime per call) and hand the id to the
//! session, which indexes the registry once per launch: it evaluates the
//! cost there and queues only that (and a functional kernel's body) on the
//! stream. No launch hashes or compares a kernel name after resolution.

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

/// A functional kernel body, run with a view of the application's device
/// memory once the launch's GPU work has retired. It runs inside the
/// simulation's scheduler, which retires the stream's kernels itself, so it
/// must never park; it takes no `ProcCtx`, so it cannot.
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

/// A kernel's position in its [`ModuleRegistry`]; valid for that registry
/// only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct KernelId(u32);

/// The set of kernels an application ships (its "module" / fatbin).
#[derive(Default, Clone, Debug)]
pub struct ModuleRegistry {
    /// Sorted by name, names unique.
    kernels: Vec<KernelDef>,
}

impl ModuleRegistry {
    /// Empty registry.
    pub fn new() -> ModuleRegistry {
        ModuleRegistry::default()
    }

    fn search(&self, name: &str) -> Result<usize, usize> {
        self.kernels.binary_search_by(|k| k.name.as_str().cmp(name))
    }

    /// Register a kernel; replaces any existing kernel of the same name.
    /// Registration moves the ids of kernels that sort after `def`, so
    /// resolve ids only once the module is complete.
    pub fn register(&mut self, def: KernelDef) {
        match self.search(&def.name) {
            Ok(i) => self.kernels[i] = def,
            Err(i) => self.kernels.insert(i, def),
        }
    }

    /// Builder-style registration.
    pub fn with(mut self, def: KernelDef) -> ModuleRegistry {
        self.register(def);
        self
    }

    /// Look up a kernel by name.
    pub fn get(&self, name: &str) -> Option<&KernelDef> {
        self.id(name).and_then(|id| self.def(id))
    }

    /// Resolve a kernel name to its id.
    pub fn id(&self, name: &str) -> Option<KernelId> {
        self.search(name).ok().map(|i| KernelId(i as u32))
    }

    /// The kernel `id` names; `None` if `id` is out of range.
    pub(crate) fn def(&self, id: KernelId) -> Option<&KernelDef> {
        self.kernels.get(id.0 as usize)
    }

    /// Kernel names, in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.kernels.iter().map(|k| k.name.as_str())
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

    #[test]
    fn ids_follow_name_order() {
        let r = ModuleRegistry::new()
            .with(KernelDef::timed("gemm"))
            .with(KernelDef::timed("axpy"))
            .with(KernelDef::timed("relu"));
        assert_eq!(r.names().collect::<Vec<_>>(), ["axpy", "gemm", "relu"]);
        let gemm = r.id("gemm").unwrap();
        assert_eq!(r.def(gemm).unwrap().name, "gemm");
        assert!(r.id("axpy").unwrap() < gemm);
        assert_eq!(r.id("conv"), None);
        assert!(r.def(KernelId(3)).is_none());
    }
}
