//! Property-based tests of the session layer: arbitrary allocation /
//! write / migrate / free sequences must preserve data, virtual addresses,
//! and memory accounting across GPUs.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use dgsf_cuda::{CostTable, CudaContext, DevPtr, GpuSession, HostBuf};
use dgsf_gpu::{Gpu, GpuId, MB};
use dgsf_sim::{Sim, SimCell};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum SessOp {
    Malloc {
        mb: u64,
    },
    Write {
        alloc_idx: usize,
        off: u64,
        data: Vec<u8>,
    },
    Free {
        alloc_idx: usize,
    },
    Migrate {
        to: u8,
    },
}

fn sess_op() -> impl Strategy<Value = SessOp> {
    prop_oneof![
        3 => (1u64..16).prop_map(|mb| SessOp::Malloc { mb }),
        4 => (any::<usize>(), 0u64..(1 << 20), proptest::collection::vec(any::<u8>(), 1..128))
            .prop_map(|(alloc_idx, off, data)| SessOp::Write { alloc_idx, off, data }),
        1 => any::<usize>().prop_map(|alloc_idx| SessOp::Free { alloc_idx }),
        2 => (0u8..3).prop_map(|to| SessOp::Migrate { to }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fuzz the session with malloc/write/free/migrate across three GPUs;
    /// a host-side shadow model must agree with device contents at every
    /// point, and pointers must never change.
    #[test]
    fn session_survives_random_op_sequences(ops in proptest::collection::vec(sess_op(), 1..25)) {
        let mut sim = Sim::new(7);
        let h = sim.handle();
        let failed = Rc::new(SimCell::new(&h, None::<String>));
        let f2 = failed.clone();
        sim.spawn("fuzz", move |p| {
            let costs = Arc::new(CostTable::default());
            let gpus: Vec<Rc<Gpu>> = (0..3).map(|i| Gpu::v100(&h, GpuId(i))).collect();
            let ctxs: Vec<Rc<CudaContext>> = gpus
                .iter()
                .map(|g| CudaContext::create(p, &h, g.clone(), costs.clone(), false).unwrap())
                .collect();
            let mut sess = GpuSession::new(&h, ctxs[0].clone(), None);
            // shadow model: ptr -> (size, bytes we wrote at offsets)
            let mut live: Vec<DevPtr> = Vec::new();
            let mut shadow: HashMap<u64, HashMap<u64, Vec<u8>>> = HashMap::new();
            let mut sizes: HashMap<u64, u64> = HashMap::new();
            for op in ops {
                match op {
                    SessOp::Malloc { mb } => {
                        let ptr = sess.malloc(p, mb * MB).expect("fits");
                        if live.contains(&ptr) {
                            *f2.lock() = Some("pointer reuse while live".into());
                            return;
                        }
                        live.push(ptr);
                        sizes.insert(ptr.0, mb * MB);
                        shadow.insert(ptr.0, HashMap::new());
                    }
                    SessOp::Write { alloc_idx, off, data } => {
                        if live.is_empty() { continue; }
                        let ptr = live[alloc_idx % live.len()];
                        let size = sizes[&ptr.0];
                        let off = off % size;
                        let n = data.len().min((size - off) as usize);
                        let data = data[..n].to_vec();
                        if data.is_empty() { continue; }
                        sess.memcpy_h2d(p, ptr.offset(off), &HostBuf::Bytes(data.clone().into()))
                            .expect("write in bounds");
                        shadow.get_mut(&ptr.0).unwrap().insert(off, data);
                    }
                    SessOp::Free { alloc_idx } => {
                        if live.is_empty() { continue; }
                        let ptr = live.remove(alloc_idx % live.len());
                        sess.free(p, ptr).expect("free live pointer");
                        shadow.remove(&ptr.0);
                        sizes.remove(&ptr.0);
                    }
                    SessOp::Migrate { to } => {
                        let target = &ctxs[to as usize % 3];
                        sess.migrate(p, target).expect("capacity is plentiful");
                    }
                }
                // verify the shadow after every op
                for ptr in &live {
                    for (off, data) in &shadow[&ptr.0] {
                        let got = sess.debug_read(ptr.offset(*off), data.len());
                        if &got != data {
                            *f2.lock() = Some(format!(
                                "mismatch at {ptr:?}+{off}: wrote {data:?}, read {got:?}"
                            ));
                            return;
                        }
                    }
                }
            }
            // cleanup: everything frees, all GPUs return to ctx-only usage
            sess.release(p);
            for (i, g) in gpus.iter().enumerate() {
                let expected = costs.cuda_ctx_mem; // each holds one context
                if g.used_mem() != expected {
                    *f2.lock() = Some(format!(
                        "gpu {i} leaked: used {} expected {expected}",
                        g.used_mem()
                    ));
                }
            }
        });
        sim.run();
        let failure = failed.lock().clone();
        if let Some(msg) = failure {
            prop_assert!(false, "{}", msg);
        }
    }

    /// Migration accounting: bytes_moved equals the mapped bytes of live
    /// allocations and the source GPU is fully drained of them.
    #[test]
    fn migration_moves_exactly_the_live_bytes(mbs in proptest::collection::vec(1u64..64, 1..6)) {
        let mut sim = Sim::new(9);
        let h = sim.handle();
        let ok = Rc::new(SimCell::new(&h, false));
        let ok2 = ok.clone();
        sim.spawn("m", move |p| {
            let costs = Arc::new(CostTable::default());
            let g0 = Gpu::v100(&h, GpuId(0));
            let g1 = Gpu::v100(&h, GpuId(1));
            let c0 = CudaContext::create(p, &h, g0.clone(), costs.clone(), false).unwrap();
            let c1 = CudaContext::create(p, &h, g1.clone(), costs.clone(), false).unwrap();
            let mut sess = GpuSession::new(&h, c0, None);
            let mut total = 0u64;
            for mb in &mbs {
                sess.malloc(p, mb * MB).unwrap();
                // sessions map at the 2 MiB VMM granularity
                total += (mb * MB).div_ceil(dgsf_gpu::VA_GRANULARITY) * dgsf_gpu::VA_GRANULARITY;
            }
            let before_dst = g1.used_mem();
            let report = sess.migrate(p, &c1).unwrap();
            assert_eq!(report.bytes_moved, total);
            assert_eq!(report.allocs_moved, mbs.len());
            assert_eq!(g0.alloc_count(), 0);
            assert_eq!(g1.used_mem() - before_dst, total);
            *ok2.lock() = true;
        });
        sim.run();
        prop_assert!(*ok.lock());
    }
}
