//! Phase accounting for function executions.
//!
//! Figures 3 and 4 of the paper break a function's run into phases (CUDA
//! initialization, download, model loading, processing/inference). Workloads
//! and invokers record phases into a [`PhaseRecorder`], a fixed table with
//! one duration per [`Phase`]; the experiment harness reads them back by
//! phase.

use dgsf_sim::{lit, Dur, Lit, ProcCtx, SimTime, TraceCtx};

/// A canonical execution phase, in pipeline order: the order in which the
/// DGSF, native and CPU paths enter them. [`PhaseRecorder::enter`] takes
/// this enum, so a typo'd phase is a compile error instead of a silently
/// split bucket. [`Phase::as_str`] returns the exact historical
/// wire/telemetry strings, so goldens and span names are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Downloading model + inputs from the object store.
    Download,
    /// Queueing at the GPU server waiting for an API server.
    Queue,
    /// CUDA runtime (and module) initialization.
    Init,
    /// Loading the model onto the GPU (weights + descriptors + handles).
    ModelLoad,
    /// Inference / main computation.
    Processing,
    /// Host↔GPU data movement over the remoting link: uploads, downloads
    /// and inter-stage host bounces.
    Transfer,
}

/// Number of [`Phase`]s: the length of a [`PhaseRecorder`]'s table.
const PHASES: usize = 6;

impl Phase {
    /// The phase's canonical name — byte-identical to the historical `&str`
    /// constants, so existing goldens and telemetry spans are unmoved.
    pub const fn as_str(self) -> &'static str {
        match self {
            Phase::Download => "download",
            Phase::Queue => "queue",
            Phase::Init => "init",
            Phase::ModelLoad => "model_load",
            Phase::Processing => "processing",
            Phase::Transfer => "transfer",
        }
    }

    /// The phase's span name as a telemetry literal.
    fn lit(self) -> &'static Lit {
        static LITS: [Lit; PHASES] = [
            Lit::new(Phase::Download.as_str()),
            Lit::new(Phase::Queue.as_str()),
            Lit::new(Phase::Init.as_str()),
            Lit::new(Phase::ModelLoad.as_str()),
            Lit::new(Phase::Processing.as_str()),
            Lit::new(Phase::Transfer.as_str()),
        ];
        &LITS[self as usize]
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.as_str())
    }
}

/// Canonical phase constants. These used to be bare `&str`s; they are now
/// [`Phase`] values, so `rec.enter(p, phase::PROCESSING)` keeps compiling
/// while gaining the enum's typo protection.
pub mod phase {
    use super::Phase;

    /// Downloading model + inputs from the object store.
    pub const DOWNLOAD: Phase = Phase::Download;
    /// Queueing at the GPU server waiting for an API server.
    pub const QUEUE: Phase = Phase::Queue;
    /// CUDA runtime (and module) initialization.
    pub const INIT: Phase = Phase::Init;
    /// Loading the model onto the GPU (weights + descriptors + handles).
    pub const MODEL_LOAD: Phase = Phase::ModelLoad;
    /// Inference / main computation.
    pub const PROCESSING: Phase = Phase::Processing;
    /// Host↔GPU data movement over the remoting link.
    pub const TRANSFER: Phase = Phase::Transfer;
}

/// Accumulates phase durations for one function execution: one [`Dur`]
/// per [`Phase`], plus which phases were entered at all.
#[derive(Debug, Default, Clone)]
pub struct PhaseRecorder {
    /// Time spent in each phase, indexed by `Phase as usize`.
    spent: [Dur; PHASES],
    /// Bit `i` is set once the phase at index `i` has been closed, even
    /// for zero time.
    recorded: u8,
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

    /// Close the currently open phase, if any, adding its time to the
    /// phase's total. With telemetry enabled the closed interval is also
    /// recorded as a span on the calling process's track, so traces show
    /// the same phase breakdown the harness reads back — on every
    /// invocation path (DGSF, native, CPU) uniformly.
    pub fn close(&mut self, p: &ProcCtx) {
        if let Some((phase, start)) = self.open.take() {
            let tel = p.telemetry();
            if tel.is_enabled() {
                let (track, name, cat) = (p.track(), phase.lit(), lit!("phase"));
                tel.span_args(track, name, cat, start, p.now(), self.trace.as_ref());
            }
            self.spent[phase as usize] += p.now().since(start);
            self.recorded |= 1 << phase as usize;
        }
    }

    /// Time spent in `phase` (zero if it was never entered).
    pub fn get(&self, phase: Phase) -> Dur {
        self.spent[phase as usize]
    }

    /// Every recorded phase and its time, zero-length ones included, in
    /// pipeline order.
    pub fn all(&self) -> impl Iterator<Item = (Phase, Dur)> + '_ {
        use Phase::*;
        [Download, Queue, Init, ModelLoad, Processing, Transfer]
            .into_iter()
            .filter(|&phase| self.recorded & (1 << phase as usize) != 0)
            .map(|phase| (phase, self.get(phase)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsf_sim::{Sim, SimCell};
    use std::rc::Rc;

    /// Run `body` as a simulated process and return its recorder.
    fn record(body: impl FnOnce(&ProcCtx, &mut PhaseRecorder) + 'static) -> PhaseRecorder {
        let mut sim = Sim::new(1);
        let out = Rc::new(SimCell::new(&sim.handle(), PhaseRecorder::new()));
        let o = out.clone();
        sim.spawn("f", move |p| {
            let mut rec = PhaseRecorder::new();
            body(p, &mut rec);
            *o.lock() = rec;
        });
        sim.run();
        let rec = out.lock().clone();
        rec
    }

    #[test]
    fn a_zero_length_phase_is_listed() {
        let rec = record(|p, rec| {
            rec.enter(p, phase::QUEUE);
            rec.enter(p, phase::INIT);
            p.sleep(Dur::from_secs(1));
            rec.close(p);
        });
        let all: Vec<_> = rec.all().collect();
        assert_eq!(
            all,
            [(Phase::Queue, Dur::ZERO), (Phase::Init, Dur::from_secs(1))]
        );
        assert_eq!(rec.get(phase::DOWNLOAD), Dur::ZERO, "never entered");
    }

    #[test]
    fn all_lists_phases_in_pipeline_order() {
        // Entered out of order, as a DAG stage enters transfer before
        // processing: `all()` still lists them in pipeline order.
        let rec = record(|p, rec| {
            rec.enter(p, phase::TRANSFER);
            p.sleep(Dur(1));
            rec.enter(p, phase::PROCESSING);
            p.sleep(Dur(2));
            rec.enter(p, phase::MODEL_LOAD);
            p.sleep(Dur(3));
            rec.enter(p, phase::DOWNLOAD);
            p.sleep(Dur(4));
            rec.close(p);
        });
        let names: Vec<String> = rec.all().map(|(ph, _)| ph.to_string()).collect();
        assert_eq!(names, ["download", "model_load", "processing", "transfer"]);
    }

    #[test]
    fn reentering_a_phase_accumulates() {
        let rec = record(|p, rec| {
            rec.enter(p, phase::TRANSFER);
            p.sleep(Dur::from_secs(2));
            rec.enter(p, phase::PROCESSING);
            p.sleep(Dur::from_secs(3));
            rec.enter(p, phase::TRANSFER);
            p.sleep(Dur::from_secs(1));
            rec.close(p);
            rec.close(p); // nothing open: no-op
        });
        assert_eq!(rec.get(phase::TRANSFER), Dur::from_secs(3));
        assert_eq!(rec.get(phase::PROCESSING), Dur::from_secs(3));
        assert_eq!(rec.all().count(), 2);
    }

    #[test]
    fn phase_names_are_the_historical_strings_and_pad() {
        // Goldens and telemetry spans key off these exact bytes.
        assert_eq!(Phase::Download.as_str(), "download");
        assert_eq!(Phase::Queue.as_str(), "queue");
        assert_eq!(Phase::Init.as_str(), "init");
        assert_eq!(Phase::ModelLoad.as_str(), "model_load");
        assert_eq!(Phase::Processing.as_str(), "processing");
        assert_eq!(Phase::Transfer.as_str(), "transfer");
        assert_eq!(format!("[{:<6}]", Phase::Init), "[init  ]");
    }
}
