//! S3-like object store.
//!
//! "All of the data required by each function, such as models and inputs
//! are downloaded from AWS S3" (§VI). The store scales out — concurrent
//! downloads do not contend with each other — but each stream is capped at
//! the deployment's effective S3 bandwidth, which is the knob that
//! distinguishes the OpenFaaS deployment from AWS Lambda in Table II.

use dgsf_sim::{Dur, ProcCtx};

/// Per-stream S3 model: bandwidth cap plus a first-byte latency.
#[derive(Debug, Clone)]
pub struct ObjectStore {
    /// Bytes per second one download stream achieves.
    pub stream_bw: f64,
    /// Request latency before the first byte.
    pub first_byte: Dur,
}

impl ObjectStore {
    /// A store with the given per-stream bandwidth and a 50 ms first-byte
    /// latency.
    pub fn new(stream_bw: f64) -> ObjectStore {
        ObjectStore {
            stream_bw,
            first_byte: Dur::from_millis(50),
        }
    }

    /// Download `bytes`, blocking the caller in virtual time.
    pub fn download(&self, p: &ProcCtx, bytes: u64) {
        if bytes == 0 {
            return;
        }
        p.sleep(self.first_byte);
        p.sleep(Dur::from_secs_f64(bytes as f64 / self.stream_bw));
    }

    /// Time a download of `bytes` would take (for calibration tables).
    pub fn download_time(&self, bytes: u64) -> Dur {
        if bytes == 0 {
            return Dur::ZERO;
        }
        self.first_byte + Dur::from_secs_f64(bytes as f64 / self.stream_bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsf_sim::{Sim, SimCell};
    use std::rc::Rc;
    use std::sync::Arc;

    #[test]
    fn download_time_is_latency_plus_bandwidth() {
        let mut sim = Sim::new(1);
        let store = ObjectStore::new(1e6); // 1 MB/s
        let t = Rc::new(SimCell::new(&sim.handle(), 0.0));
        let t2 = t.clone();
        sim.spawn("dl", move |p| {
            store.download(p, 2_000_000);
            *t2.lock() = p.now().as_secs_f64();
        });
        sim.run();
        let got = *t.lock();
        assert!((got - 2.05).abs() < 1e-6, "50 ms + 2 s: {got}");
    }

    #[test]
    fn zero_bytes_is_free() {
        let mut sim = Sim::new(1);
        let store = ObjectStore::new(1e6);
        sim.spawn("dl", move |p| {
            store.download(p, 0);
            assert_eq!(p.now().as_nanos(), 0);
        });
        sim.run();
        assert_eq!(ObjectStore::new(1e6).download_time(0), Dur::ZERO);
    }

    #[test]
    fn concurrent_downloads_do_not_contend() {
        let mut sim = Sim::new(1);
        let store = Arc::new(ObjectStore::new(1e6));
        let done = Rc::new(SimCell::new(&sim.handle(), Vec::new()));
        for i in 0..4 {
            let store = store.clone();
            let done = done.clone();
            sim.spawn(&format!("dl{i}"), move |p| {
                store.download(p, 1_000_000);
                done.lock().push(p.now().as_secs_f64());
            });
        }
        sim.run();
        for t in done.lock().iter() {
            assert!((t - 1.05).abs() < 1e-6, "S3 scales out: {t}");
        }
    }
}
