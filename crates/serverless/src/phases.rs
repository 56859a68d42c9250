//! Phase accounting for function executions.
//!
//! Figures 3 and 4 of the paper break a function's run into phases (CUDA
//! initialization, download, model loading, processing/inference). Workloads
//! and invokers record phases into a [`PhaseRecorder`]; the experiment
//! harness reads them back by name.

use std::borrow::Cow;

use dgsf_sim::{Dur, ProcCtx, SimTime, TraceCtx};

/// A canonical execution phase. [`PhaseRecorder::enter`] takes this enum —
/// not a bare string — so a typo'd phase name is a compile error instead of
/// a silently split bucket. [`Phase::as_str`] returns the exact historical
/// wire/telemetry strings, so goldens and span names are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Downloading model + inputs from the object store.
    Download,
    /// CUDA runtime (and module) initialization.
    Init,
    /// Queueing at the GPU server waiting for an API server.
    Queue,
    /// Loading the model onto the GPU (weights + descriptors + handles).
    ModelLoad,
    /// Inference / main computation.
    Processing,
    /// Host↔GPU data movement over the remoting link (the pipelined data
    /// plane's bucket: uploads, downloads and inter-stage host bounces).
    Transfer,
}

impl Phase {
    /// Every canonical phase.
    const ALL: [Phase; 6] = [
        Phase::Download,
        Phase::Init,
        Phase::Queue,
        Phase::ModelLoad,
        Phase::Processing,
        Phase::Transfer,
    ];

    /// The phase's canonical name — byte-identical to the historical `&str`
    /// constants, so existing goldens and telemetry spans are unmoved.
    pub const fn as_str(self) -> &'static str {
        match self {
            Phase::Download => "download",
            Phase::Init => "init",
            Phase::Queue => "queue",
            Phase::ModelLoad => "model_load",
            Phase::Processing => "processing",
            Phase::Transfer => "transfer",
        }
    }
}

impl AsRef<str> for Phase {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Canonical phase constants. These used to be bare `&str`s; they are now
/// [`Phase`] values, so `rec.enter(p, phase::PROCESSING)` keeps compiling
/// while gaining the enum's typo protection.
pub mod phase {
    use super::Phase;

    /// Downloading model + inputs from the object store.
    pub const DOWNLOAD: Phase = Phase::Download;
    /// CUDA runtime (and module) initialization.
    pub const INIT: Phase = Phase::Init;
    /// Queueing at the GPU server waiting for an API server.
    pub const QUEUE: Phase = Phase::Queue;
    /// Loading the model onto the GPU (weights + descriptors + handles).
    pub const MODEL_LOAD: Phase = Phase::ModelLoad;
    /// Inference / main computation.
    pub const PROCESSING: Phase = Phase::Processing;
    /// Host↔GPU data movement over the remoting link.
    pub const TRANSFER: Phase = Phase::Transfer;
}

/// Accumulates named phase durations for one function execution.
#[derive(Debug, Default, Clone)]
pub struct PhaseRecorder {
    /// Canonical phase names are borrowed; only ad-hoc names are owned.
    phases: Vec<(Cow<'static, str>, Dur)>,
    open: Option<(Phase, SimTime)>,
    trace: Option<TraceCtx>,
}

impl PhaseRecorder {
    /// Fresh recorder.
    pub fn new() -> PhaseRecorder {
        PhaseRecorder::default()
    }

    /// Attach a causal trace context: phase spans closed from now on carry
    /// the invocation id and attempt, so trace assembly can tie them to
    /// their parent invocation.
    pub fn set_trace(&mut self, trace: Option<TraceCtx>) {
        self.trace = trace;
    }

    /// Begin a phase (closing any open one).
    pub fn enter(&mut self, p: &ProcCtx, phase: Phase) {
        self.close(p);
        self.open = Some((phase, p.now()));
    }

    /// Close the currently open phase, if any. With telemetry enabled the
    /// closed interval is also recorded as a span on the calling process's
    /// track, so traces show the same phase breakdown the harness reads
    /// back — on every invocation path (DGSF, native, CPU) uniformly.
    pub fn close(&mut self, p: &ProcCtx) {
        if let Some((phase, start)) = self.open.take() {
            let d = p.now().since(start);
            let name = phase.as_str();
            let tel = p.telemetry();
            if tel.is_enabled() {
                match &self.trace {
                    Some(t) => {
                        tel.span_args(p.name(), name, "phase", start, p.now(), &t.span_args())
                    }
                    None => tel.span(p.name(), name, "phase", start, p.now()),
                }
            }
            self.add(name, d);
        }
    }

    /// Add a duration to a named phase directly. Accepts a [`Phase`] or any
    /// ad-hoc string name (harness-internal buckets).
    pub fn add(&mut self, name: impl AsRef<str>, d: Dur) {
        let name = name.as_ref();
        if let Some(e) = self.phases.iter_mut().find(|(n, _)| n == name) {
            e.1 += d;
        } else {
            let name = Phase::ALL
                .iter()
                .map(|p| p.as_str())
                .find(|&s| s == name)
                .map_or_else(|| Cow::Owned(name.to_string()), Cow::Borrowed);
            self.phases.push((name, d));
        }
    }

    /// Duration of a named phase (zero if absent).
    pub fn get(&self, name: impl AsRef<str>) -> Dur {
        let name = name.as_ref();
        self.phases
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| *d)
            .unwrap_or(Dur::ZERO)
    }

    /// All phases in recording order.
    pub fn all(&self) -> &[(Cow<'static, str>, Dur)] {
        &self.phases
    }

    /// Sum of all recorded phases.
    pub fn total(&self) -> Dur {
        self.phases.iter().fold(Dur::ZERO, |acc, (_, d)| acc + *d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsf_sim::{Sim, SimCell};
    use std::rc::Rc;

    #[test]
    fn phases_accumulate_by_name() {
        let mut sim = Sim::new(1);
        let out = Rc::new(SimCell::new(&sim.handle(), PhaseRecorder::new()));
        let o = out.clone();
        sim.spawn("f", move |p| {
            let mut rec = PhaseRecorder::new();
            rec.enter(p, phase::DOWNLOAD);
            p.sleep(Dur::from_secs(2));
            rec.enter(p, phase::PROCESSING);
            p.sleep(Dur::from_secs(3));
            rec.close(p);
            rec.add(phase::PROCESSING, Dur::from_secs(1));
            *o.lock() = rec;
        });
        sim.run();
        let rec = out.lock().clone();
        assert_eq!(rec.get(phase::DOWNLOAD), Dur::from_secs(2));
        assert_eq!(rec.get(phase::PROCESSING), Dur::from_secs(4));
        assert_eq!(rec.get("nonexistent"), Dur::ZERO);
        assert_eq!(rec.total(), Dur::from_secs(6));
    }

    #[test]
    fn canonical_phase_names_are_borrowed_and_ad_hoc_names_owned() {
        let mut rec = PhaseRecorder::new();
        rec.add(phase::INIT, Dur(1));
        rec.add("model_load", Dur(2));
        rec.add("harness", Dur(3));
        let names: Vec<_> = rec.all().iter().map(|(n, _)| n).collect();
        assert!(matches!(names[0], Cow::Borrowed("init")));
        assert!(matches!(names[1], Cow::Borrowed("model_load")));
        assert!(matches!(names[2], Cow::Owned(n) if n == "harness"));
        assert_eq!(rec.get(phase::MODEL_LOAD), Dur(2));
    }

    #[test]
    fn phase_names_are_the_historical_strings() {
        // Goldens and telemetry spans key off these exact bytes.
        assert_eq!(Phase::Download.as_str(), "download");
        assert_eq!(Phase::Init.as_str(), "init");
        assert_eq!(Phase::Queue.as_str(), "queue");
        assert_eq!(Phase::ModelLoad.as_str(), "model_load");
        assert_eq!(Phase::Processing.as_str(), "processing");
        assert_eq!(Phase::Transfer.as_str(), "transfer");
    }
}
