//! RPC transport between a guest library and an API server.
//!
//! The client serializes a [`Request`], charges uplink network time, and
//! hands the frame to the server's inbox channel; the server decodes,
//! executes, charges downlink time for the (serialized) response, and
//! replies. `repeat` models a run of identical sequential round trips (the
//! un-batched call pattern) in O(1) simulation events: the client pays
//! `repeat` round-trip latencies and `repeat × size` bandwidth while the
//! server executes the aggregate once.
//!
//! Frames are reused rather than thrown away. Each side keeps the last
//! frame it sent as a spare and encodes the next one into the spare's
//! storage, which it may only do once every other view of that frame is
//! gone (`Bytes::try_into_mut`). The receiver decodes payloads as
//! zero-copy views of the frame (an h2d payload, d2h data handed to the
//! application), so while any such view is alive the spare cannot be
//! reclaimed and the next call encodes into a fresh frame instead. In the
//! steady state, where the receiver has dropped its views by the time the
//! reply arrives, a round trip allocates nothing. Only a frame of at most
//! [`MAX_SPARE_FRAME`] bytes is kept as the spare; a spare grows, by
//! doubling, only to fit such a frame, so it never holds twice that much
//! storage. A larger frame (a real-data h2d or d2h) is freed once its
//! receiver drops it, so one big transfer does not pin its storage for the
//! rest of the connection.
//!
//! Failures are first-class: calls return [`TransportError`] when the
//! connection closes, a frame cannot be decoded, or — with a timeout
//! configured via [`RpcClient::set_timeout`] — the reply does not arrive in
//! time (a dead API server, or a request/response dropped by an injected
//! link fault).

use bytes::Bytes;
use dgsf_sim::{
    lit, ArgValue, Dur, Lit, ProcCtx, RecvError, SimHandle, SimReceiver, SimSender, TraceCtx,
};
use std::cell::Cell;
use std::sync::Arc;

use crate::net::{Delivery, Direction, NetLink};
use crate::wire::{Request, Response, WireError};

/// Largest frame, in bytes, that a connection side keeps as its spare.
/// Well above the steady-state frames (a flushed batch of 100 launches is
/// about 9 KiB), so only frames carrying bulk data are not kept.
pub const MAX_SPARE_FRAME: usize = 64 << 10;

/// The spare to keep after sending `frame`: a second view of it, unless it
/// is too large to be worth holding on to.
fn spare_of(frame: &Bytes) -> Option<Bytes> {
    (frame.len() <= MAX_SPARE_FRAME).then(|| frame.clone())
}

/// Why an RPC round trip failed below the CUDA-semantics layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// No reply within the client's configured timeout (server dead, or the
    /// request/response was lost on the link).
    Timeout {
        /// How long the client waited.
        waited: Dur,
    },
    /// The connection (or the whole simulation) shut down mid-call.
    Closed,
    /// The reply frame could not be decoded.
    Decode(WireError),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Timeout { waited } => {
                write!(f, "rpc timed out after {:.3} s", waited.as_secs_f64())
            }
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::Decode(e) => write!(f, "undecodable reply: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A framed request in flight, with its reply path.
pub struct RpcEnvelope {
    /// Encoded request.
    pub frame: Bytes,
    /// How many identical sequential round trips this stands for.
    pub repeat: u32,
    /// Call sequence number on the issuing client. The reply channel is
    /// shared across a client's calls (created once at connect, not per
    /// call); the sequence number lets the client discard a late reply to a
    /// call it already timed out.
    pub seq: u64,
    /// Reply channel (sequence number + encoded response).
    pub reply: SimSender<(u64, Bytes)>,
}

/// Server side of a connection: the inbox an API server drains.
pub struct RpcInbox {
    rx: SimReceiver<RpcEnvelope>,
    /// The last response frame sent, reused by the next `respond` once the
    /// client holds no view of it.
    spare: Cell<Option<Bytes>>,
}

impl RpcInbox {
    /// Wait for the next request; `None` at simulation shutdown.
    pub fn next(&self, p: &ProcCtx) -> Option<RpcEnvelope> {
        self.rx.recv(p)
    }

    /// Wait for the next request, giving up after `timeout` of virtual
    /// time — how an API server notices its client went silent (crashed
    /// function host, abandoned invocation).
    pub fn next_timeout(&self, p: &ProcCtx, timeout: Dur) -> Result<RpcEnvelope, RecvError> {
        self.rx.recv_timeout(p, timeout)
    }

    /// Decode an envelope's frame.
    pub fn decode(env: &RpcEnvelope) -> Result<Request, WireError> {
        Request::decode_view(&env.frame)
    }

    /// Encode and send a response, charging downlink time for its wire size
    /// (times the envelope's repeat factor). Returns whether the response
    /// survived the link — a fault-injected drop means the client waits for
    /// a reply that never comes.
    pub fn respond(
        &self,
        p: &ProcCtx,
        link: &NetLink,
        env: &RpcEnvelope,
        resp: &Response,
    ) -> Delivery {
        let (frame, wire_size) = resp.encode_sized(self.spare.take());
        self.spare.set(spare_of(&frame));
        let delivery = link.transfer(p, Direction::ToClient, wire_size, env.repeat);
        if delivery == Delivery::Delivered {
            env.reply.send(p, (env.seq, frame));
        }
        delivery
    }
}

/// Client side of a connection: what the guest library holds after the
/// monitor hands it an API server address.
pub struct RpcClient {
    link: Arc<NetLink>,
    tx: SimSender<RpcEnvelope>,
    /// Persistent reply path, created once at connect: a fresh channel per
    /// call costs an allocation on every RPC. Replies are matched to calls
    /// by sequence number; stale ones (a reply landing after its call timed
    /// out) are discarded in the receive loop.
    reply_tx: SimSender<(u64, Bytes)>,
    reply_rx: SimReceiver<(u64, Bytes)>,
    /// The last request frame sent, reused by the next call once the server
    /// holds no view of it.
    spare: Cell<Option<Bytes>>,
    next_seq: Cell<u64>,
    timeout: Option<Dur>,
    trace: Option<TraceCtx>,
}

impl RpcClient {
    /// Create a connected client/inbox pair over `link`. No reply timeout:
    /// calls block until the reply arrives or the transport closes.
    pub fn connect(h: &SimHandle, link: Arc<NetLink>) -> (RpcClient, RpcInbox) {
        let (tx, rx) = h.channel::<RpcEnvelope>();
        let (reply_tx, reply_rx) = h.channel::<(u64, Bytes)>();
        (
            RpcClient {
                link,
                tx,
                reply_tx,
                reply_rx,
                spare: Cell::new(None),
                next_seq: Cell::new(0),
                timeout: None,
                trace: None,
            },
            RpcInbox {
                rx,
                spare: Cell::new(None),
            },
        )
    }

    /// Set the per-round-trip reply deadline (`None` = wait forever). The
    /// deadline covers the whole aggregate of a repeated call.
    pub fn set_timeout(&mut self, timeout: Option<Dur>) {
        self.timeout = timeout;
    }

    /// The configured reply deadline.
    pub fn timeout(&self) -> Option<Dur> {
        self.timeout
    }

    /// Attach a causal trace context: every subsequent call stamps its
    /// recorded rpc spans with it. The context never travels to the server,
    /// which takes its own from the assignment it serves.
    pub fn set_trace(&mut self, trace: Option<TraceCtx>) {
        self.trace = trace;
    }

    /// The attached trace context, if any.
    pub fn trace(&self) -> Option<&TraceCtx> {
        self.trace.as_ref()
    }

    /// One round trip.
    pub fn call(&self, p: &ProcCtx, req: &Request) -> Result<Response, TransportError> {
        self.call_repeated(p, req, 1)
    }

    /// `repeat` sequential identical round trips, executed as one aggregate
    /// on the server.
    pub fn call_repeated(
        &self,
        p: &ProcCtx,
        req: &Request,
        repeat: u32,
    ) -> Result<Response, TransportError> {
        assert!(repeat >= 1, "call_repeated needs at least one round trip");
        let tel = p.telemetry();
        let t0 = p.now();
        // Single-pass: encode once, derive the network charge from the
        // frame's length (wire v2 — the old path encoded a throwaway copy
        // just to measure it).
        let (frame, req_bytes) = req.encode_sized(self.spare.take());
        self.spare.set(spare_of(&frame));
        let delivery = self
            .link
            .transfer(p, Direction::ToServer, req_bytes, repeat);
        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        if delivery == Delivery::Delivered {
            self.tx.send(
                p,
                RpcEnvelope {
                    frame,
                    repeat,
                    seq,
                    reply: self.reply_tx.clone(),
                },
            );
        }
        // On failure the client still records a span for the time it spent
        // waiting: the trace decomposition needs timed-out round trips on
        // the critical path just like successful ones.
        let fail = |kind: &'static Lit, outcome: &'static Lit| {
            if tel.is_enabled() {
                tel.counter_add(kind, 1);
                tel.counter_add(lit!("rpc.transport_errors"), 1);
                if let Some(t) = &self.trace {
                    let [inv, attempt] = t.span_args();
                    let args = [inv, attempt, (lit!("outcome"), ArgValue::Lit(outcome))];
                    let class = &req.class_keys().class;
                    tel.span_args(p.track(), class, lit!("rpc"), t0, p.now(), &args);
                }
            }
        };
        // A dropped request is indistinguishable from a dead server to the
        // client: it waits for the reply and (with a timeout set) gives up.
        // Replies tagged with an older sequence number are strays from calls
        // that already timed out — skip them without resetting the deadline.
        let wait_start = p.now();
        let reply = loop {
            let got = match self.timeout {
                Some(t) => {
                    let remaining = Dur(t
                        .as_nanos()
                        .saturating_sub(p.now().since(wait_start).as_nanos()));
                    match self.reply_rx.recv_timeout(p, remaining) {
                        Ok(r) => r,
                        Err(RecvError::Timeout) => {
                            fail(lit!("rpc.timeouts"), lit!("timeout"));
                            return Err(TransportError::Timeout { waited: t });
                        }
                        Err(RecvError::Shutdown) => {
                            fail(lit!("rpc.closed"), lit!("closed"));
                            return Err(TransportError::Closed);
                        }
                    }
                }
                None => match self.reply_rx.recv(p) {
                    Some(r) => r,
                    None => {
                        fail(lit!("rpc.closed"), lit!("closed"));
                        return Err(TransportError::Closed);
                    }
                },
            };
            if got.0 == seq {
                break got.1;
            }
        };
        match Response::decode_view(&reply) {
            Ok(resp) => {
                if tel.is_enabled() {
                    let keys = req.class_keys();
                    let end = p.now();
                    let (track, rpc) = (p.track(), lit!("rpc"));
                    tel.span_args(track, &keys.class, rpc, t0, end, self.trace.as_ref());
                    tel.histogram_record(&keys.latency_ns, end.since(t0).as_nanos());
                    // Both directions at their wire size: a logical reply
                    // payload counts at the size the link charged for it.
                    tel.histogram_record(
                        &keys.bytes,
                        (req_bytes + resp.wire_size()).saturating_mul(repeat as u64),
                    );
                    tel.counter_add(&keys.calls, repeat as u64);
                }
                Ok(resp)
            }
            Err(e) => {
                fail(lit!("rpc.decode_errors"), lit!("decode"));
                Err(TransportError::Decode(e))
            }
        }
    }

    /// The link this client rides on.
    pub fn link(&self) -> &Arc<NetLink> {
        &self.link
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::faults::LinkFaults;
    use crate::net::NetProfile;
    use dgsf_cuda::HostBuf;
    use dgsf_sim::{Dur, Sim, SimCell};
    use std::rc::Rc;

    fn fast_profile() -> NetProfile {
        NetProfile {
            rpc_latency: Dur::from_millis(1),
            rpc_jitter: Dur::ZERO,
            nic_bw: 1e12,
            s3_bw: 1e12,
        }
    }

    #[test]
    fn echo_round_trip_charges_both_directions() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let link = NetLink::new(&h, fast_profile());
        let (client, inbox) = RpcClient::connect(&h, link.clone());
        let srv_link = link.clone();
        sim.spawn("server", move |p| {
            while let Some(env) = inbox.next(p) {
                let req = RpcInbox::decode(&env).unwrap();
                assert_eq!(req, Request::GetDeviceCount);
                inbox.respond(p, &srv_link, &env, &Response::Count(1));
            }
        });
        let out = Rc::new(SimCell::new(&h, None));
        let o = out.clone();
        sim.spawn("client", move |p| {
            let resp = client.call(p, &Request::GetDeviceCount).unwrap();
            *o.lock() = Some((resp, p.now().as_secs_f64()));
        });
        sim.run();
        let (resp, t) = out.lock().take().unwrap();
        assert_eq!(resp, Response::Count(1));
        // one uplink + one downlink latency
        assert!((t - 0.002).abs() < 1e-6, "round trip is 2 ms: {t}");
    }

    #[test]
    fn only_small_frames_are_kept_as_spares() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let link = NetLink::new(&h, fast_profile());
        let (client, inbox) = RpcClient::connect(&h, link.clone());
        let big = MAX_SPARE_FRAME + 1;
        let srv_link = link.clone();
        sim.spawn("server", move |p| {
            while let Some(env) = inbox.next(p) {
                let resp = match RpcInbox::decode(&env).unwrap() {
                    Request::MemcpyD2H { bytes, .. } => {
                        Response::Data(HostBuf::Bytes(Bytes::from(vec![0; bytes as usize])))
                    }
                    _ => Response::Ok,
                };
                inbox.respond(p, &srv_link, &env, &resp);
                let spare = inbox.spare.take();
                assert_eq!(
                    spare.is_some(),
                    resp.encoded_len() as usize <= MAX_SPARE_FRAME
                );
                inbox.spare.set(spare);
            }
        });
        sim.spawn("client", move |p| {
            let kept = |c: &RpcClient| {
                let spare = c.spare.take();
                let kept = spare.is_some();
                c.spare.set(spare);
                kept
            };
            let h2d = Request::MemcpyH2D {
                dst: 0,
                data: HostBuf::Bytes(Bytes::from(vec![1; big])),
            };
            client.call(p, &h2d).unwrap();
            assert!(!kept(&client), "a large request frame is not retained");
            client.call(p, &Request::Sync).unwrap();
            assert!(kept(&client), "a small one is");
            let d2h = Request::MemcpyD2H {
                src: 0,
                bytes: big as u64,
                want_data: true,
            };
            client.call(p, &d2h).unwrap();
            client.call(p, &Request::Sync).unwrap();
        });
        sim.run();
    }

    #[test]
    fn rpc_bytes_count_a_logical_reply_at_its_wire_size() {
        let mut sim = Sim::new(1);
        sim.telemetry().enable();
        let h = sim.handle();
        let link = NetLink::new(&h, fast_profile());
        let (client, inbox) = RpcClient::connect(&h, link.clone());
        let srv_link = link.clone();
        sim.spawn("server", move |p| {
            while let Some(env) = inbox.next(p) {
                let resp = match RpcInbox::decode(&env).unwrap() {
                    Request::MemcpyD2H { bytes, .. } => Response::Data(HostBuf::Logical(bytes)),
                    _ => Response::Ok,
                };
                inbox.respond(p, &srv_link, &env, &resp);
            }
        });
        let d2h = Request::MemcpyD2H {
            src: 0,
            bytes: 1 << 20,
            want_data: false,
        };
        let expected = d2h.wire_size() + Response::Data(HostBuf::Logical(1 << 20)).wire_size();
        sim.spawn("client", move |p| {
            client.call_repeated(p, &d2h, 2).unwrap();
        });
        sim.run();
        let hist = sim.telemetry().histogram("rpc.bytes.memcpy_d2h").unwrap();
        assert_eq!(hist.count, 1);
        assert!(expected > 1 << 20);
        assert_eq!(hist.sum, 2 * expected, "both directions at their wire size");
    }

    #[test]
    fn repeated_calls_cost_n_round_trips_but_one_execution() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let link = NetLink::new(
            &h,
            NetProfile {
                rpc_latency: Dur::from_micros(100),
                rpc_jitter: Dur::ZERO,
                nic_bw: 1e12,
                s3_bw: 1e12,
            },
        );
        let (client, inbox) = RpcClient::connect(&h, link.clone());
        let executions = Rc::new(SimCell::new(&h, 0u32));
        let e2 = executions.clone();
        let srv_link = link.clone();
        sim.spawn("server", move |p| {
            while let Some(env) = inbox.next(p) {
                *e2.lock() += 1;
                inbox.respond(p, &srv_link, &env, &Response::Ok);
            }
        });
        let t_out = Rc::new(SimCell::new(&h, 0.0));
        let t2 = t_out.clone();
        sim.spawn("client", move |p| {
            let r = client.call_repeated(p, &Request::Sync, 500).unwrap();
            assert_eq!(r, Response::Ok);
            *t2.lock() = p.now().as_secs_f64();
        });
        sim.run();
        assert_eq!(*executions.lock(), 1, "aggregate executes once");
        let t = *t_out.lock();
        // 500 × (100 µs up + 100 µs down) = 0.1 s
        assert!((t - 0.1).abs() < 1e-3, "500 round trips: {t}");
    }

    #[test]
    fn unanswered_call_times_out() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let link = NetLink::new(&h, fast_profile());
        let (mut client, inbox) = RpcClient::connect(&h, link);
        client.set_timeout(Some(Dur::from_millis(500)));
        let out = Rc::new(SimCell::new(&h, None));
        let o = out.clone();
        sim.spawn("client", move |p| {
            let _keep_inbox_alive = &inbox; // server never answers
            let r = client.call(p, &Request::Sync);
            *o.lock() = Some((r, p.now().as_secs_f64()));
        });
        sim.run();
        let (r, t) = out.lock().take().unwrap();
        assert_eq!(
            r,
            Err(TransportError::Timeout {
                waited: Dur::from_millis(500)
            })
        );
        // 1 ms uplink + 500 ms deadline
        assert!((t - 0.501).abs() < 1e-6, "timeout fires on schedule: {t}");
    }

    #[test]
    fn dropped_request_never_reaches_the_server_and_times_out() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let faults = LinkFaults::new(&h, &FaultPlan::new(0).drop_message(0));
        let link = NetLink::with_faults(&h, fast_profile(), Some(faults));
        let (mut client, inbox) = RpcClient::connect(&h, link.clone());
        client.set_timeout(Some(Dur::from_millis(100)));
        let served = Rc::new(SimCell::new(&h, 0u32));
        let s2 = served.clone();
        let srv_link = link.clone();
        sim.spawn("server", move |p| {
            while let Some(env) = inbox.next(p) {
                *s2.lock() += 1;
                inbox.respond(p, &srv_link, &env, &Response::Ok);
            }
        });
        let out = Rc::new(SimCell::new(&h, Vec::new()));
        let o = out.clone();
        sim.spawn("client", move |p| {
            // message 0 is dropped → timeout; message 1+2 (request+reply) pass
            o.lock().push(client.call(p, &Request::Sync).is_err());
            o.lock().push(client.call(p, &Request::Sync).is_err());
        });
        sim.run();
        assert_eq!(*out.lock(), vec![true, false]);
        assert_eq!(*served.lock(), 1, "dropped request never executed");
    }
}
