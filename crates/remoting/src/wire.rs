//! The DGSF wire protocol.
//!
//! Every interposed API call that must be remoted is serialized into a
//! length-framed binary message and shipped to the API server; responses
//! come back the same way. The codec is hand-rolled — no format crate — so
//! framing is explicit, deterministic, and cheap. It reads and writes plain
//! slices: an encoder sizes a frame to its exact length once and fills it
//! through a `&mut [u8]` cursor, and a decoder reads through a `&[u8]`
//! cursor, one `split_first_chunk` per scalar. [`bytes`] only holds the
//! frames: a real payload decodes as a refcounted view of its frame.
//!
//! Trace-modeled workloads move *logical* payloads (size-only); the codec
//! encodes them as a 9-byte marker but [`Request::wire_size`] reports the
//! size the real bytes would have had, which is what the network model
//! charges. Functional workloads move real bytes end to end.
//!
//! Every layout is written once. A private `Wire` trait gives each field
//! type (integers, `bool`, `f64`, strings, vectors, options, tuples,
//! [`WireArgs`], and the CUDA types themselves: [`HostBuf`],
//! [`LaunchConfig`], [`DeviceProps`]) its size, encoder and decoder
//! together; a frame is a tag byte followed by its fields in order. The
//! `wire_enum!` tables at the end of the codec list each variant as one
//! row, `tag => Variant { field: Type, .. }`, and generate `encoded_len`,
//! `encode`, `encode_sized`, `wire_size` and `decode` for both enums from
//! it. Adding a variant is adding a row (and a `class_keys` arm); a field
//! type that is not yet on the wire needs one `Wire` impl.
//!
//! A failed call travels as [`Response::Err`]: an [`err_class`] and the
//! error's message. [`error_to_wire`] (on the API server) and
//! [`error_from_wire`] (in the guest) are that mapping and its inverse.

use bytes::{Bytes, BytesMut};
use dgsf_cuda::{CudaError, DescriptorKind, HostBuf, KernelArgs, LaunchConfig};
use dgsf_gpu::DeviceProps;

/// Decode failure (malformed or truncated frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}
impl std::error::Error for WireError {}

type WireResult<T> = Result<T, WireError>;

/// A remotable API request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Connect / initialize. `pooled_context` tells the server whether a
    /// pre-initialized context may be used (the startup optimization).
    Init {
        /// Use a pre-initialized pooled CUDA context.
        pooled_context: bool,
    },
    /// Ship the application's kernel metadata (Figure 2 step ②); the
    /// response carries the context-specific function pointers.
    RegisterModule {
        /// Kernel symbol names.
        kernels: Vec<String>,
    },
    /// `cudaGetDeviceCount`.
    GetDeviceCount,
    /// `cudaGetDeviceProperties`.
    GetDeviceProps {
        /// Device ordinal.
        dev: u32,
    },
    /// `cudaSetDevice`.
    SetDevice {
        /// Device ordinal.
        dev: u32,
    },
    /// `cudaMalloc`.
    Malloc {
        /// Size in bytes.
        bytes: u64,
    },
    /// `cudaFree`.
    Free {
        /// Device pointer.
        ptr: u64,
    },
    /// `cudaMemset`.
    Memset {
        /// Device pointer.
        ptr: u64,
        /// Fill byte.
        value: u8,
        /// Length.
        bytes: u64,
    },
    /// `cudaMemcpy` host→device.
    MemcpyH2D {
        /// Destination pointer.
        dst: u64,
        /// Payload.
        data: HostBuf,
    },
    /// `cudaMemcpy` device→host.
    MemcpyD2H {
        /// Source pointer.
        src: u64,
        /// Length.
        bytes: u64,
        /// Whether real bytes must come back.
        want_data: bool,
    },
    /// Unoptimized launch prelude (`__cudaPushCallConfiguration`).
    PushCallConfiguration {
        /// Launch geometry.
        cfg: LaunchConfig,
    },
    /// Unoptimized launch (consumes the pushed configuration).
    Launch {
        /// Context-specific function pointer (client view).
        fptr: u64,
        /// Arguments.
        args: WireArgs,
    },
    /// Optimized launch with the configuration piggybacked (§V-C).
    LaunchConfigured {
        /// Context-specific function pointer (client view).
        fptr: u64,
        /// Client stream handle (0 = default stream).
        stream: u64,
        /// Launch geometry.
        cfg: LaunchConfig,
        /// Arguments.
        args: WireArgs,
    },
    /// `cudaDeviceSynchronize`.
    Sync,
    /// `cudaStreamCreate`.
    StreamCreate,
    /// `cudaStreamDestroy`.
    StreamDestroy {
        /// Client stream handle.
        h: u64,
    },
    /// `cudaStreamSynchronize`.
    StreamSync {
        /// Client stream handle.
        h: u64,
    },
    /// `cudaEventCreate`.
    EventCreate,
    /// `cudaEventRecord`.
    EventRecord {
        /// Client event handle.
        h: u64,
    },
    /// `cudaEventSynchronize`.
    EventSync {
        /// Client event handle.
        h: u64,
    },
    /// `cudaPointerGetAttributes` (only remoted when localization is off).
    PointerGetAttributes {
        /// Pointer to query.
        ptr: u64,
    },
    /// `cudaMallocHost` (only remoted when localization is off).
    MallocHost {
        /// Size in bytes.
        bytes: u64,
    },
    /// `cudnnCreate`. `pooled` selects a pre-created handle.
    CudnnCreate {
        /// Serve from the pre-created pool.
        pooled: bool,
    },
    /// `cudnnDestroy`.
    CudnnDestroy {
        /// Client handle.
        h: u64,
    },
    /// `cudnnCreate*Descriptor` × n (only remoted when guest pools are off).
    CudnnCreateDescriptors {
        /// Descriptor kind.
        kind: u8,
        /// Count.
        n: u64,
    },
    /// `cudnnSet*Descriptor` × n.
    CudnnSetDescriptors {
        /// Count.
        n: u64,
    },
    /// `cudnnDestroy*Descriptor` × n.
    CudnnDestroyDescriptors {
        /// Count.
        n: u64,
    },
    /// Aggregate cuDNN operation.
    CudnnOp {
        /// Client handle.
        h: u64,
        /// GPU-seconds.
        work: f64,
        /// Device bytes touched.
        bytes: u64,
        /// API calls this stands for.
        api_calls: u64,
    },
    /// `cublasCreate`.
    CublasCreate {
        /// Serve from the pre-created pool.
        pooled: bool,
    },
    /// `cublasDestroy`.
    CublasDestroy {
        /// Client handle.
        h: u64,
    },
    /// Aggregate cuBLAS operation.
    CublasOp {
        /// Client handle.
        h: u64,
        /// GPU-seconds.
        work: f64,
        /// Device bytes touched.
        bytes: u64,
        /// API calls this stands for.
        api_calls: u64,
    },
    /// A batch of deferred asynchronous calls flushed in one round trip.
    Batch(Vec<Request>),
    /// Function finished; release all of its state.
    EndFunction,
    /// DGSF handoff extension: park allocation `ptr` in the serving
    /// context's resident store under `key`, surviving `EndFunction`.
    PublishBuffer {
        /// Handoff key (single-use).
        key: u64,
        /// Device pointer of the allocation to park.
        ptr: u64,
    },
    /// DGSF handoff extension: adopt the buffer parked under `key` into
    /// this function's session; answers with the fresh device pointer.
    AdoptBuffer {
        /// Handoff key a predecessor published under.
        key: u64,
    },
}

/// Kernel arguments on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireArgs {
    /// Device-pointer arguments.
    pub ptrs: Vec<u64>,
    /// Scalar arguments.
    pub scalars: Vec<u64>,
    /// Bytes the kernel touches.
    pub bytes: u64,
    /// GPU-seconds hint for trace-modeled kernels.
    pub work_hint: Option<f64>,
}

impl From<KernelArgs> for WireArgs {
    fn from(a: KernelArgs) -> Self {
        WireArgs {
            ptrs: a.ptrs.into_iter().map(|p| p.0).collect(),
            scalars: a.scalars,
            bytes: a.bytes,
            work_hint: a.work_hint,
        }
    }
}
impl From<WireArgs> for KernelArgs {
    fn from(a: WireArgs) -> Self {
        KernelArgs {
            ptrs: a.ptrs.into_iter().map(dgsf_cuda::DevPtr).collect(),
            scalars: a.scalars,
            bytes: a.bytes,
            work_hint: a.work_hint,
        }
    }
}

/// A response from the API server.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success, no payload.
    Ok,
    /// Failure with a coarse error class and message.
    Err {
        /// Error class (see [`err_class`]).
        class: u8,
        /// Human-readable detail.
        msg: String,
    },
    /// A pointer (`cudaMalloc`).
    Ptr(u64),
    /// A count (`cudaGetDeviceCount`).
    Count(u32),
    /// Device properties.
    Props(DeviceProps),
    /// A handle (stream/event/cudnn/cublas).
    Handle(u64),
    /// Data coming back from the device.
    Data(HostBuf),
    /// A batch of fresh handles (descriptors).
    Handles(Vec<u64>),
    /// Kernel name → function pointer assignments.
    Fptrs(Vec<(String, u64)>),
    /// Pointer attributes.
    Attrs {
        /// Pointer refers to device memory.
        is_device: bool,
        /// Owning allocation size, if known.
        alloc_size: Option<u64>,
        /// Device ordinal as seen by the app.
        device: u32,
    },
}

/// Error classes carried on the wire.
pub mod err_class {
    /// Out of device memory.
    pub const OOM: u8 = 1;
    /// Invalid value / pointer.
    pub const INVALID_VALUE: u8 = 2;
    /// Invalid device ordinal.
    pub const INVALID_DEVICE: u8 = 3;
    /// Bad handle.
    pub const INVALID_HANDLE: u8 = 4;
    /// Unsupported by the prototype.
    pub const UNSUPPORTED: u8 = 5;
    /// Function memory limit exceeded.
    pub const MEM_LIMIT: u8 = 6;
    /// Transport-level failure (connection closed, undecodable frame,
    /// timed-out round trip) — distinct from CUDA semantics.
    pub const TRANSPORT: u8 = 7;
    /// Other.
    pub const OTHER: u8 = 0;
}

/// Map a [`CudaError`] onto the wire: its [`err_class`] and its message.
/// The match has no catch-all, so a new error variant must pick its class.
pub fn error_to_wire(e: &CudaError) -> Response {
    let class = match e {
        CudaError::MemoryAllocation { .. } => err_class::OOM,
        CudaError::InvalidValue(_) => err_class::INVALID_VALUE,
        CudaError::InvalidDevice { .. } => err_class::INVALID_DEVICE,
        CudaError::InvalidResourceHandle(_) => err_class::INVALID_HANDLE,
        CudaError::Unsupported(_) => err_class::UNSUPPORTED,
        CudaError::MemoryLimitExceeded { .. } => err_class::MEM_LIMIT,
        CudaError::Transport(_) => err_class::TRANSPORT,
        CudaError::NotInitialized | CudaError::RemotingFailure(_) => err_class::OTHER,
    };
    Response::Err {
        class,
        msg: e.to_string(),
    }
}

/// Inverse of [`error_to_wire`] on the class: the [`CudaError`] the guest
/// raises for a [`Response::Err`]. Only the message crosses the wire, so
/// the sizes and the ordinal of a rebuilt error are placeholders.
pub fn error_from_wire(class: u8, msg: String) -> CudaError {
    match class {
        err_class::OOM => CudaError::MemoryAllocation {
            requested: 0,
            free: 0,
        },
        err_class::INVALID_VALUE => CudaError::InvalidValue(msg),
        err_class::INVALID_DEVICE => CudaError::InvalidDevice {
            requested: u32::MAX,
        },
        err_class::INVALID_HANDLE => CudaError::InvalidResourceHandle(msg),
        err_class::UNSUPPORTED => CudaError::Unsupported(msg),
        err_class::MEM_LIMIT => CudaError::MemoryLimitExceeded {
            would_use: 0,
            limit: 0,
        },
        err_class::TRANSPORT => CudaError::Transport(msg),
        _ => CudaError::RemotingFailure(msg),
    }
}

// ---------------- codec helpers ----------------

/// Nested [`Request::Batch`] frames deeper than this are rejected by the
/// decoder: a crafted frame of repeated tag-32 prefixes must produce a
/// [`WireError`], not a stack overflow. The guest only ever produces depth 1.
pub const MAX_BATCH_DEPTH: u32 = 4;

/// A buffer of exactly `len` bytes to encode into: the storage of `spare`
/// once no other view of it is alive (grown if it is too small), else a
/// fresh one. A frame whose payload the receiver still borrows is never
/// written over.
fn frame_buf(spare: Option<Bytes>, len: usize) -> BytesMut {
    let mut b = match spare.map(Bytes::try_into_mut) {
        Some(Ok(mut b)) => {
            b.clear();
            b
        }
        _ => BytesMut::with_capacity(len),
    };
    b.resize(len, 0);
    b
}

/// A decoder's position in one frame: the bytes not yet read, and the frame
/// itself, of which a real payload takes a refcounted view.
struct Reader<'a> {
    frame: &'a Bytes,
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Read the next `N` bytes, or fail without consuming any.
    #[inline(always)]
    fn take<const N: usize>(&mut self, what: &str) -> WireResult<[u8; N]> {
        let Some((head, rest)) = self.rest.split_first_chunk() else {
            return Err(truncated(what));
        };
        self.rest = rest;
        Ok(*head)
    }

    /// The next `n` bytes, or `None` (consuming nothing) if fewer are left.
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(n)?;
        self.rest = rest;
        Some(head)
    }

    /// The next `n` bytes as a view of the frame; `n` is within bounds.
    fn view(&mut self, n: usize) -> Bytes {
        let at = self.consumed();
        self.rest = &self.rest[n..];
        self.frame.slice(at..at + n)
    }

    fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn consumed(&self) -> usize {
        self.frame.len() - self.rest.len()
    }
}

/// Decode one message from the front of `frame`, with the number of bytes
/// read: on an error, how far the decoder got.
fn decode_front<T: Wire>(frame: &Bytes) -> (WireResult<T>, usize) {
    let mut r = Reader { frame, rest: frame };
    let out = T::get(&mut r, 0);
    (out, r.consumed())
}

/// An encoder's position in a frame sized to the message's exact length.
/// Writing past the end panics: the size and the encoder disagree.
struct Writer<'a>(&'a mut [u8]);

impl Writer<'_> {
    #[inline(always)]
    fn put<const N: usize>(&mut self, v: [u8; N]) {
        let (head, rest) = std::mem::take(&mut self.0)
            .split_first_chunk_mut()
            .expect("encoded_len drift");
        *head = v;
        self.0 = rest;
    }

    fn put_slice(&mut self, v: &[u8]) {
        let (head, rest) = std::mem::take(&mut self.0)
            .split_at_mut_checked(v.len())
            .expect("encoded_len drift");
        head.copy_from_slice(v);
        self.0 = rest;
    }
}

/// The wire layout of one field type, written once: its exact encoded
/// size, its encoder, its decoder, and the bytes a logical payload adds to
/// the network charge. Every frame is a tag byte followed by its fields'
/// layouts in order, so these impls plus the `wire_enum!` tables below
/// are the whole protocol. Encoders write through a [`Writer`] over a frame
/// already sized by [`Wire::size`]; decoders read through a [`Reader`] over
/// the frame's bytes, one `split_first_chunk` per scalar.
///
/// The decoders of scalars, tuples, options and the field structs are
/// `#[inline(always)]`: as calls, each returns its `Result` through memory,
/// which made decoding a launch about a fifth slower. The scalar encoders
/// and the cursors' fixed-width reads and writes are inlined the same way.
trait Wire: Sized {
    /// The encoded size when every value has the same one (the fixed-width
    /// scalars): a vector of them is sized by multiplication and its length
    /// claim bounds-checked once, up front.
    const WIDTH: Option<u64> = None;
    /// Exact number of bytes [`Wire::put`] writes.
    fn size(&self) -> u64;
    fn put(&self, w: &mut Writer<'_>);
    /// Decode one value; `depth` counts the [`Request::Batch`]es around it.
    fn get(r: &mut Reader<'_>, depth: u32) -> WireResult<Self>;
    /// Bytes charged beyond the encoding: a [`HostBuf::Logical`] payload
    /// ships as a marker but costs its full size on the network.
    fn logical(&self) -> u64 {
        0
    }
    /// The depth at which a vector of `Self` decodes its elements, checked
    /// before its length is read.
    fn nest(depth: u32) -> WireResult<u32> {
        Ok(depth)
    }
}

/// The error of a scalar read past the end of the frame, kept out of line.
#[cold]
fn truncated(what: &str) -> WireError {
    WireError(format!("truncated {what}"))
}

/// Little-endian fixed-width scalars.
macro_rules! wire_scalar {
    ($($t:ty: $w:literal),*) => {$(
        impl Wire for $t {
            const WIDTH: Option<u64> = Some($w);
            fn size(&self) -> u64 {
                $w
            }
            #[inline(always)]
            fn put(&self, w: &mut Writer<'_>) {
                w.put(self.to_le_bytes());
            }
            #[inline(always)]
            fn get(r: &mut Reader<'_>, _: u32) -> WireResult<Self> {
                Ok(<$t>::from_le_bytes(r.take(stringify!($t))?))
            }
        }
    )*};
}

wire_scalar!(u8: 1, u32: 4, u64: 8, f64: 8);

impl Wire for bool {
    const WIDTH: Option<u64> = Some(1);
    fn size(&self) -> u64 {
        1
    }
    fn put(&self, w: &mut Writer<'_>) {
        (*self as u8).put(w);
    }
    #[inline(always)]
    fn get(r: &mut Reader<'_>, depth: u32) -> WireResult<Self> {
        Ok(u8::get(r, depth)? != 0)
    }
}

impl Wire for String {
    fn size(&self) -> u64 {
        4 + self.len() as u64
    }
    fn put(&self, w: &mut Writer<'_>) {
        // The length prefix is u32: an oversize string would silently
        // truncate on `as u32` and produce a frame the decoder misparses. No
        // caller can legitimately ship a 4 GiB kernel name or error message.
        assert!(
            self.len() <= u32::MAX as usize,
            "string too long for wire frame: {} bytes",
            self.len()
        );
        (self.len() as u32).put(w);
        w.put_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>, depth: u32) -> WireResult<Self> {
        let n = u32::get(r, depth)? as usize;
        let raw = r
            .bytes(n)
            .ok_or_else(|| WireError("truncated string".into()))?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| WireError("invalid utf8".into()))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn size(&self) -> u64 {
        4 + match T::WIDTH {
            Some(w) => w * self.len() as u64,
            None => self.iter().map(Wire::size).sum::<u64>(),
        }
    }
    fn put(&self, w: &mut Writer<'_>) {
        (self.len() as u32).put(w);
        for x in self {
            x.put(w);
        }
    }
    fn get(r: &mut Reader<'_>, depth: u32) -> WireResult<Self> {
        let depth = T::nest(depth)?;
        let n = u32::get(r, depth)?;
        let cap = match T::WIDTH {
            // The byte count is computed in u64: `n as usize * w` would
            // overflow on 32-bit targets and let a truncated frame pass.
            Some(w) if (r.remaining() as u64) < u64::from(n) * w => {
                return Err(WireError("truncated vec".into()))
            }
            Some(_) => n as usize,
            // n is untrusted: cap the pre-allocation, let decode errors
            // bound growth.
            None => (n as usize).min(1024),
        };
        let mut v = Vec::with_capacity(cap);
        for _ in 0..n {
            v.push(T::get(r, depth)?);
        }
        Ok(v)
    }
    fn logical(&self) -> u64 {
        self.iter().map(Wire::logical).sum()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn size(&self) -> u64 {
        1 + self.as_ref().map_or(0, Wire::size)
    }
    fn put(&self, w: &mut Writer<'_>) {
        (self.is_some() as u8).put(w);
        if let Some(x) = self {
            x.put(w);
        }
    }
    #[inline(always)]
    fn get(r: &mut Reader<'_>, depth: u32) -> WireResult<Self> {
        match u8::get(r, depth)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r, depth)?)),
            t => Err(WireError(format!("bad option tag {t}"))),
        }
    }
    fn logical(&self) -> u64 {
        self.as_ref().map_or(0, Wire::logical)
    }
}

macro_rules! wire_tuple {
    ($($T:ident $i:tt),*) => {
        impl<$($T: Wire),*> Wire for ($($T,)*) {
            fn size(&self) -> u64 {
                0 $(+ self.$i.size())*
            }
            fn put(&self, w: &mut Writer<'_>) {
                $(self.$i.put(w);)*
            }
            #[inline(always)]
            fn get(r: &mut Reader<'_>, depth: u32) -> WireResult<Self> {
                Ok(($($T::get(r, depth)?,)*))
            }
            fn logical(&self) -> u64 {
                0 $(+ self.$i.logical())*
            }
        }
    };
}

wire_tuple!(A 0, B 1);
wire_tuple!(A 0, B 1, C 2);

/// A struct on the wire is its fields in the order listed.
macro_rules! wire_struct {
    ($($S:ident { $($f:ident),* })*) => {$(
        impl Wire for $S {
            fn size(&self) -> u64 {
                0 $(+ self.$f.size())*
            }
            fn put(&self, w: &mut Writer<'_>) {
                $(self.$f.put(w);)*
            }
            #[inline(always)]
            fn get(r: &mut Reader<'_>, depth: u32) -> WireResult<Self> {
                Ok($S { $($f: Wire::get(r, depth)?),* })
            }
            fn logical(&self) -> u64 {
                0 $(+ self.$f.logical())*
            }
        }
    )*};
}

wire_struct! {
    LaunchConfig { grid, block }
    WireArgs { ptrs, scalars, bytes, work_hint }
    DeviceProps { name, total_mem, sm_count, compute_capability }
}

/// A payload is a tag byte (0 = real bytes, 1 = logical) and a u64 length,
/// followed by the bytes themselves only when they are real.
impl Wire for HostBuf {
    fn size(&self) -> u64 {
        1 + 8
            + match self {
                HostBuf::Bytes(raw) => raw.len() as u64,
                HostBuf::Logical(_) => 0,
            }
    }
    fn put(&self, w: &mut Writer<'_>) {
        match self {
            HostBuf::Bytes(raw) => {
                0u8.put(w);
                (raw.len() as u64).put(w);
                w.put_slice(raw);
            }
            HostBuf::Logical(n) => {
                1u8.put(w);
                n.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>, depth: u32) -> WireResult<Self> {
        match u8::get(r, depth)? {
            0 => {
                let n = u64::get(r, depth)?;
                // Compare in u64 before narrowing: on 32-bit targets a huge
                // length must fail the check, not wrap in the `as usize` cast.
                if (r.remaining() as u64) < n {
                    return Err(WireError("truncated payload".into()));
                }
                // Zero-copy: the payload is a refcounted view of the frame.
                Ok(HostBuf::Bytes(r.view(n as usize)))
            }
            1 => Ok(HostBuf::Logical(u64::get(r, depth)?)),
            // The message keeps the payload type's former name.
            t => Err(WireError(format!("bad WireBuf tag {t}"))),
        }
    }
    fn logical(&self) -> u64 {
        match self {
            HostBuf::Bytes(_) => 0,
            HostBuf::Logical(n) => *n,
        }
    }
}

/// Map a [`DescriptorKind`] to its wire byte.
pub fn descriptor_kind_to_u8(k: DescriptorKind) -> u8 {
    match k {
        DescriptorKind::Tensor => 0,
        DescriptorKind::Filter => 1,
        DescriptorKind::Convolution => 2,
        DescriptorKind::Pooling => 3,
        DescriptorKind::Activation => 4,
    }
}

/// Inverse of [`descriptor_kind_to_u8`].
pub fn descriptor_kind_from_u8(v: u8) -> WireResult<DescriptorKind> {
    Ok(match v {
        0 => DescriptorKind::Tensor,
        1 => DescriptorKind::Filter,
        2 => DescriptorKind::Convolution,
        3 => DescriptorKind::Pooling,
        4 => DescriptorKind::Activation,
        t => return Err(WireError(format!("bad descriptor kind {t}"))),
    })
}

/// Pre-joined telemetry key strings for one API class. The RPC and dispatch
/// hot paths record several metrics per call; building these names with
/// `format!` allocated three strings per request, so they are interned here
/// once per class at compile time. The strings are byte-identical to what
/// the old `format!` calls produced (golden traces depend on them).
pub struct ClassKeys {
    /// The bare class label (what [`Request::class`] returns).
    pub class: &'static str,
    /// `rpc.latency_ns.<class>` — client round-trip latency histogram.
    pub latency_ns: &'static str,
    /// `rpc.bytes.<class>` — client per-call wire bytes histogram.
    pub bytes: &'static str,
    /// `rpc.calls.<class>` — client round-trip counter.
    pub calls: &'static str,
    /// `server.requests.<class>` — dispatcher served-request counter.
    pub server_requests: &'static str,
}

macro_rules! class_keys {
    ($class:literal) => {
        &ClassKeys {
            class: $class,
            latency_ns: concat!("rpc.latency_ns.", $class),
            bytes: concat!("rpc.bytes.", $class),
            calls: concat!("rpc.calls.", $class),
            server_requests: concat!("server.requests.", $class),
        }
    };
}

impl Request {
    /// Telemetry API class of this request: a small, stable label grouping
    /// the CUDA/cuDNN/cuBLAS surface the way the remoting-characterization
    /// literature buckets it (memory ops, copies, launches, sync, library
    /// handles). Used to key per-class latency/bytes histograms.
    pub fn class(&self) -> &'static str {
        self.class_keys().class
    }

    /// The interned per-class telemetry key set (see [`ClassKeys`]).
    pub fn class_keys(&self) -> &'static ClassKeys {
        use Request::*;
        match self {
            Init { .. } => class_keys!("init"),
            RegisterModule { .. } => class_keys!("register_module"),
            GetDeviceCount
            | GetDeviceProps { .. }
            | SetDevice { .. }
            | PointerGetAttributes { .. } => class_keys!("device_query"),
            Malloc { .. } | Free { .. } | Memset { .. } | MallocHost { .. } => class_keys!("mem"),
            MemcpyH2D { .. } => class_keys!("memcpy_h2d"),
            MemcpyD2H { .. } => class_keys!("memcpy_d2h"),
            PushCallConfiguration { .. } | Launch { .. } | LaunchConfigured { .. } => {
                class_keys!("launch")
            }
            Sync => class_keys!("sync"),
            StreamCreate | StreamDestroy { .. } | StreamSync { .. } => class_keys!("stream"),
            EventCreate | EventRecord { .. } | EventSync { .. } => class_keys!("event"),
            CudnnCreate { .. }
            | CudnnDestroy { .. }
            | CudnnCreateDescriptors { .. }
            | CudnnSetDescriptors { .. }
            | CudnnDestroyDescriptors { .. }
            | CudnnOp { .. } => class_keys!("cudnn"),
            CublasCreate { .. } | CublasDestroy { .. } | CublasOp { .. } => class_keys!("cublas"),
            Batch(_) => class_keys!("batch"),
            EndFunction => class_keys!("end_function"),
            PublishBuffer { .. } | AdoptBuffer { .. } => class_keys!("resident"),
        }
    }
}

/// The wire table of one message enum: each row is `tag => Variant` and
/// its fields in encoding order, as `{ name: Type, .. }`, as
/// `(binding: Type)` for a one-field tuple variant, or nothing for a unit
/// variant. The rows generate the enum's [`Wire`] impl (extra trait items
/// follow the table) and its public codec methods, so a variant's size,
/// encoder and decoder cannot disagree.
macro_rules! wire_enum {
    (
        $E:ident, $what:literal {
            $($tag:literal => $V:ident
                $({ $($f:ident: $T:ty),* })?
                $(($x:ident: $U:ty))?,)*
        }
        $($extra:item)*
    ) => {
        impl Wire for $E {
            fn size(&self) -> u64 {
                match self {
                    $($E::$V $({ $($f),* })? $(($x))? => {
                        1 $($(+ $f.size())*)? $(+ $x.size())?
                    })*
                }
            }
            fn put(&self, w: &mut Writer<'_>) {
                match self {
                    $($E::$V $({ $($f),* })? $(($x))? => {
                        w.put([$tag]);
                        $($($f.put(w);)*)?
                        $($x.put(w);)?
                    })*
                }
            }
            fn get(r: &mut Reader<'_>, depth: u32) -> WireResult<Self> {
                Ok(match u8::get(r, depth)? {
                    $($tag => $E::$V
                        $({ $($f: <$T>::get(r, depth)?),* })?
                        $((<$U>::get(r, depth)?))?,)*
                    t => return Err(WireError(format!(concat!("bad ", $what, " tag {}"), t))),
                })
            }
            fn logical(&self) -> u64 {
                match self {
                    $($E::$V $({ $($f),* })? $(($x))? => {
                        0 $($(+ $f.logical())*)? $(+ $x.logical())?
                    })*
                }
            }
            $($extra)*
        }

        impl $E {
            /// Exact number of bytes [`Self::encode`] produces, computed
            /// arithmetically from the wire table: no buffer is filled.
            pub fn encoded_len(&self) -> u64 {
                self.size()
            }

            /// Serialize into a fresh frame (allocated at exactly
            /// [`Self::encoded_len`] bytes).
            pub fn encode(&self) -> Bytes {
                self.encode_sized(None).0
            }

            /// Deserialize from the front of a frame and advance the frame
            /// past the bytes read, on an error up to where decoding
            /// stopped. Payloads ([`HostBuf::Bytes`]) are zero-copy
            /// refcounted views of `frame`; nested [`Request::Batch`]
            /// frames deeper than [`MAX_BATCH_DEPTH`] are rejected with a
            /// [`WireError`].
            pub fn decode(frame: &mut Bytes) -> WireResult<$E> {
                let (out, used) = decode_front(frame);
                frame.advance(used);
                out
            }

            /// [`Self::decode`] without advancing `frame`: for a receiver
            /// that reads a frame once and keeps it whole.
            pub(crate) fn decode_view(frame: &Bytes) -> WireResult<$E> {
                decode_front(frame).0
            }

            /// Bytes on the wire, counting logical payloads at their full
            /// size (what the network model must charge). Pure arithmetic:
            /// nothing is allocated or encoded.
            pub fn wire_size(&self) -> u64 {
                self.size() + self.logical()
            }

            /// Encode and compute [`Self::wire_size`] in one pass. The frame
            /// reuses `spare`'s storage when no other view of it is alive
            /// (see [`Bytes::try_into_mut`]).
            pub fn encode_sized(&self, spare: Option<Bytes>) -> (Bytes, u64) {
                let len = self.size();
                let mut b = frame_buf(spare, len as usize);
                let mut w = Writer(&mut b);
                self.put(&mut w);
                assert!(w.0.is_empty(), "encoded_len drift");
                (b.freeze(), len + self.logical())
            }
        }
    };
}

wire_enum! {
    Request, "request" {
        1 => Init { pooled_context: bool },
        2 => RegisterModule { kernels: Vec<String> },
        3 => GetDeviceCount,
        4 => GetDeviceProps { dev: u32 },
        5 => SetDevice { dev: u32 },
        6 => Malloc { bytes: u64 },
        7 => Free { ptr: u64 },
        8 => Memset { ptr: u64, value: u8, bytes: u64 },
        9 => MemcpyH2D { dst: u64, data: HostBuf },
        10 => MemcpyD2H { src: u64, bytes: u64, want_data: bool },
        11 => PushCallConfiguration { cfg: LaunchConfig },
        12 => Launch { fptr: u64, args: WireArgs },
        13 => LaunchConfigured { fptr: u64, stream: u64, cfg: LaunchConfig, args: WireArgs },
        14 => Sync,
        15 => StreamCreate,
        16 => StreamDestroy { h: u64 },
        17 => StreamSync { h: u64 },
        18 => EventCreate,
        19 => EventRecord { h: u64 },
        20 => EventSync { h: u64 },
        21 => PointerGetAttributes { ptr: u64 },
        22 => MallocHost { bytes: u64 },
        23 => CudnnCreate { pooled: bool },
        24 => CudnnDestroy { h: u64 },
        25 => CudnnCreateDescriptors { kind: u8, n: u64 },
        26 => CudnnSetDescriptors { n: u64 },
        27 => CudnnDestroyDescriptors { n: u64 },
        28 => CudnnOp { h: u64, work: f64, bytes: u64, api_calls: u64 },
        29 => CublasCreate { pooled: bool },
        30 => CublasDestroy { h: u64 },
        31 => CublasOp { h: u64, work: f64, bytes: u64, api_calls: u64 },
        32 => Batch(reqs: Vec<Request>),
        33 => EndFunction,
        34 => PublishBuffer { key: u64, ptr: u64 },
        35 => AdoptBuffer { key: u64 },
    }

    /// A batch's elements sit one level deeper. A batch at the cap is
    /// rejected at its own tag, before its length is read, even when empty.
    fn nest(depth: u32) -> WireResult<u32> {
        if depth >= MAX_BATCH_DEPTH {
            return Err(WireError(format!(
                "batch nesting exceeds depth {MAX_BATCH_DEPTH}"
            )));
        }
        Ok(depth + 1)
    }
}

wire_enum! {
    Response, "response" {
        0 => Ok,
        1 => Err { class: u8, msg: String },
        2 => Ptr(p: u64),
        3 => Count(c: u32),
        4 => Props(p: DeviceProps),
        5 => Handle(h: u64),
        6 => Data(d: HostBuf),
        7 => Handles(hs: Vec<u64>),
        8 => Fptrs(fs: Vec<(String, u64)>),
        9 => Attrs { is_device: bool, alloc_size: Option<u64>, device: u32 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_req(r: &Request) {
        let mut frame = r.encode();
        let back = Request::decode(&mut frame).expect("decode");
        assert_eq!(&back, r);
        assert!(frame.is_empty(), "frame fully consumed");
    }

    fn roundtrip_resp(r: &Response) {
        let mut frame = r.encode();
        let back = Response::decode(&mut frame).expect("decode");
        assert_eq!(&back, r);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(&Request::Init {
            pooled_context: true,
        });
        roundtrip_req(&Request::RegisterModule {
            kernels: vec!["kmeans_assign".into(), "kmeans_update".into()],
        });
        roundtrip_req(&Request::MemcpyH2D {
            dst: 0x7000_0000_0000,
            data: HostBuf::Bytes(vec![1, 2, 3].into()),
        });
        roundtrip_req(&Request::LaunchConfigured {
            fptr: 42,
            stream: 7,
            cfg: LaunchConfig {
                grid: (1, 2, 3),
                block: (4, 5, 6),
            },
            args: WireArgs {
                ptrs: vec![1, 2],
                scalars: vec![99],
                bytes: 1000,
                work_hint: Some(0.5),
            },
        });
        roundtrip_req(&Request::Batch(vec![
            Request::Memset {
                ptr: 1,
                value: 0,
                bytes: 100,
            },
            Request::Sync,
        ]));
        roundtrip_req(&Request::PublishBuffer {
            key: 0xFEED_BEEF,
            ptr: 0x7000_0000_0000,
        });
        roundtrip_req(&Request::AdoptBuffer { key: 0xFEED_BEEF });
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(&Response::Ok);
        roundtrip_resp(&Response::Err {
            class: err_class::OOM,
            msg: "requested 1 GB".into(),
        });
        roundtrip_resp(&Response::Props(DeviceProps {
            name: "V100".into(),
            total_mem: 16 << 30,
            sm_count: 80,
            compute_capability: (7, 0),
        }));
        roundtrip_resp(&Response::Fptrs(vec![("k".into(), 7)]));
        roundtrip_resp(&Response::Attrs {
            is_device: true,
            alloc_size: Some(100),
            device: 0,
        });
        roundtrip_resp(&Response::Data(HostBuf::Logical(1 << 30)));
    }

    #[test]
    fn logical_payloads_counted_at_full_size_but_encoded_small() {
        let r = Request::MemcpyH2D {
            dst: 0,
            data: HostBuf::Logical(1 << 30),
        };
        assert!(r.encode().len() < 64, "marker only");
        assert!(r.wire_size() >= 1 << 30, "network charge is the real size");
        // nested in a batch too
        let b = Request::Batch(vec![r]);
        assert!(b.wire_size() >= 1 << 30);
    }

    #[test]
    fn truncated_frames_error_not_panic() {
        let full = Request::Malloc { bytes: 123 }.encode();
        for cut in 0..full.len() {
            let mut frame = full.slice(..cut);
            let _ = Request::decode(&mut frame); // must not panic
        }
        let mut empty = Bytes::new();
        assert!(Request::decode(&mut empty).is_err());
    }

    #[test]
    fn descriptor_kind_wire_mapping_is_bijective() {
        for k in DescriptorKind::ALL {
            assert_eq!(
                descriptor_kind_from_u8(descriptor_kind_to_u8(k)).unwrap(),
                k
            );
        }
        assert!(descriptor_kind_from_u8(200).is_err());
    }

    #[test]
    fn error_classes_round_trip() {
        use err_class::*;
        let classes = [
            OTHER,
            OOM,
            INVALID_VALUE,
            INVALID_DEVICE,
            INVALID_HANDLE,
            UNSUPPORTED,
            MEM_LIMIT,
            TRANSPORT,
        ];
        for class in classes {
            match error_to_wire(&error_from_wire(class, "detail".into())) {
                Response::Err { class: back, .. } => assert_eq!(back, class),
                other => panic!("class {class}: {other:?}"),
            }
        }
        // Each error's class, as the API server has always sent it.
        let pinned = [
            (
                CudaError::MemoryAllocation {
                    requested: 1,
                    free: 0,
                },
                OOM,
            ),
            (CudaError::InvalidValue("v".into()), INVALID_VALUE),
            (CudaError::InvalidDevice { requested: 1 }, INVALID_DEVICE),
            (CudaError::InvalidResourceHandle("h".into()), INVALID_HANDLE),
            (CudaError::NotInitialized, OTHER),
            (CudaError::Unsupported("u".into()), UNSUPPORTED),
            (CudaError::RemotingFailure("r".into()), OTHER),
            (CudaError::Transport("t".into()), TRANSPORT),
            (
                CudaError::MemoryLimitExceeded {
                    would_use: 2,
                    limit: 1,
                },
                MEM_LIMIT,
            ),
        ];
        for (e, class) in pinned {
            let msg = e.to_string();
            assert_eq!(error_to_wire(&e), Response::Err { class, msg });
        }
    }

    proptest! {
        #[test]
        fn prop_launch_args_roundtrip(
            ptrs in proptest::collection::vec(any::<u64>(), 0..8),
            scalars in proptest::collection::vec(any::<u64>(), 0..8),
            bytes in any::<u64>(),
            work in proptest::option::of(0.0f64..1e6),
            fptr in any::<u64>(),
        ) {
            let r = Request::Launch {
                fptr,
                args: WireArgs { ptrs, scalars, bytes, work_hint: work },
            };
            let mut frame = r.encode();
            let back = Request::decode(&mut frame).unwrap();
            prop_assert_eq!(back, r);
        }

        #[test]
        fn prop_h2d_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..2048), dst in any::<u64>()) {
            let r = Request::MemcpyH2D { dst, data: HostBuf::Bytes(data.into()) };
            let mut frame = r.encode();
            prop_assert_eq!(Request::decode(&mut frame).unwrap(), r);
        }

        #[test]
        fn prop_random_bytes_never_panic_decoder(
            raw in proptest::collection::vec(any::<u8>(), 0..4096),
            // Seed the frame with a run of valid tags so the fuzzer reaches
            // deep into variant bodies (and the Batch recursion) instead of
            // bailing on the first byte.
            prefix in proptest::collection::vec(1u8..36, 0..8),
        ) {
            let mut seeded = prefix;
            seeded.extend_from_slice(&raw);
            let mut frame = Bytes::from(seeded);
            let _ = Request::decode(&mut frame);
            let mut frame2 = frame.clone();
            let _ = Response::decode(&mut frame2);
        }

        #[test]
        fn prop_encoded_len_matches_encode(r in arb_request()) {
            prop_assert_eq!(r.encoded_len(), r.encode().len() as u64);
            // and wire_size = encoded_len + logical payload charge, always
            prop_assert!(r.wire_size() >= r.encoded_len());
        }

        #[test]
        fn prop_response_encoded_len_matches_encode(r in arb_response()) {
            prop_assert_eq!(r.encoded_len(), r.encode().len() as u64);
            prop_assert!(r.wire_size() >= r.encoded_len());
        }
    }

    use proptest::test_runner::TestRng;

    /// Strategy over every `Request` variant — including nested batches and
    /// logical payloads — for the encoded_len ≡ encode().len() equivalence.
    /// (The vendored proptest is a plain sampler, so this is a direct
    /// recursive generator rather than a combinator tree.)
    struct ArbRequest;
    impl Strategy for ArbRequest {
        type Value = Request;
        fn sample(&self, rng: &mut TestRng) -> Request {
            gen_request(rng, 0)
        }
    }
    fn arb_request() -> ArbRequest {
        ArbRequest
    }

    /// Strategy over every `Response` variant.
    struct ArbResponse;
    impl Strategy for ArbResponse {
        type Value = Response;
        fn sample(&self, rng: &mut TestRng) -> Response {
            gen_response(rng)
        }
    }
    fn arb_response() -> ArbResponse {
        ArbResponse
    }

    fn gen_string(rng: &mut TestRng) -> String {
        let len = rng.range(0usize..16);
        (0..len)
            .map(|_| char::from(b'a' + (rng.next_u64() % 26) as u8))
            .collect()
    }

    fn gen_buf(rng: &mut TestRng) -> HostBuf {
        if rng.next_u64().is_multiple_of(2) {
            let len = rng.range(0usize..64);
            HostBuf::Bytes(
                (0..len)
                    .map(|_| rng.next_u64() as u8)
                    .collect::<Vec<u8>>()
                    .into(),
            )
        } else {
            HostBuf::Logical(rng.next_u64())
        }
    }

    fn gen_args(rng: &mut TestRng) -> WireArgs {
        WireArgs {
            ptrs: (0..rng.range(0usize..4)).map(|_| rng.next_u64()).collect(),
            scalars: (0..rng.range(0usize..4)).map(|_| rng.next_u64()).collect(),
            bytes: rng.next_u64(),
            work_hint: (rng.next_u64().is_multiple_of(2)).then(|| rng.unit_f64()),
        }
    }

    fn gen_cfg(rng: &mut TestRng) -> LaunchConfig {
        LaunchConfig {
            grid: (
                rng.next_u64() as u32,
                rng.next_u64() as u32,
                rng.next_u64() as u32,
            ),
            block: (
                rng.next_u64() as u32,
                rng.next_u64() as u32,
                rng.next_u64() as u32,
            ),
        }
    }

    fn gen_request(rng: &mut TestRng, depth: u32) -> Request {
        use Request::*;
        // Batch only below the decoder's depth cap, weighted in often enough
        // that nesting is exercised every run.
        let max_tag = if depth < MAX_BATCH_DEPTH { 35 } else { 33 };
        match rng.range(1u32..max_tag + 1) {
            1 => Init {
                pooled_context: rng.next_u64().is_multiple_of(2),
            },
            2 => RegisterModule {
                kernels: (0..rng.range(0usize..4)).map(|_| gen_string(rng)).collect(),
            },
            3 => GetDeviceCount,
            4 => GetDeviceProps {
                dev: rng.next_u64() as u32,
            },
            5 => SetDevice {
                dev: rng.next_u64() as u32,
            },
            6 => Malloc {
                bytes: rng.next_u64(),
            },
            7 => Free {
                ptr: rng.next_u64(),
            },
            8 => Memset {
                ptr: rng.next_u64(),
                value: rng.next_u64() as u8,
                bytes: rng.next_u64(),
            },
            9 => MemcpyH2D {
                dst: rng.next_u64(),
                data: gen_buf(rng),
            },
            10 => MemcpyD2H {
                src: rng.next_u64(),
                bytes: rng.next_u64(),
                want_data: rng.next_u64().is_multiple_of(2),
            },
            11 => PushCallConfiguration { cfg: gen_cfg(rng) },
            12 => Launch {
                fptr: rng.next_u64(),
                args: gen_args(rng),
            },
            13 => LaunchConfigured {
                fptr: rng.next_u64(),
                stream: rng.next_u64(),
                cfg: gen_cfg(rng),
                args: gen_args(rng),
            },
            14 => Sync,
            15 => StreamCreate,
            16 => StreamDestroy { h: rng.next_u64() },
            17 => StreamSync { h: rng.next_u64() },
            18 => EventCreate,
            19 => EventRecord { h: rng.next_u64() },
            20 => EventSync { h: rng.next_u64() },
            21 => PointerGetAttributes {
                ptr: rng.next_u64(),
            },
            22 => MallocHost {
                bytes: rng.next_u64(),
            },
            23 => CudnnCreate {
                pooled: rng.next_u64().is_multiple_of(2),
            },
            24 => CudnnDestroy { h: rng.next_u64() },
            25 => CudnnCreateDescriptors {
                kind: rng.next_u64() as u8,
                n: rng.next_u64(),
            },
            26 => CudnnSetDescriptors { n: rng.next_u64() },
            27 => CudnnDestroyDescriptors { n: rng.next_u64() },
            28 => CudnnOp {
                h: rng.next_u64(),
                work: rng.unit_f64(),
                bytes: rng.next_u64(),
                api_calls: rng.next_u64(),
            },
            29 => CublasCreate {
                pooled: rng.next_u64().is_multiple_of(2),
            },
            30 => CublasDestroy { h: rng.next_u64() },
            31 => CublasOp {
                h: rng.next_u64(),
                work: rng.unit_f64(),
                bytes: rng.next_u64(),
                api_calls: rng.next_u64(),
            },
            32 => EndFunction,
            33 => PublishBuffer {
                key: rng.next_u64(),
                ptr: rng.next_u64(),
            },
            34 => AdoptBuffer {
                key: rng.next_u64(),
            },
            _ => Batch(
                (0..rng.range(0usize..4))
                    .map(|_| gen_request(rng, depth + 1))
                    .collect(),
            ),
        }
    }

    fn gen_response(rng: &mut TestRng) -> Response {
        use Response::*;
        match rng.range(0u32..10) {
            0 => Ok,
            1 => Err {
                class: rng.next_u64() as u8,
                msg: gen_string(rng),
            },
            2 => Ptr(rng.next_u64()),
            3 => Count(rng.next_u64() as u32),
            4 => Props(DeviceProps {
                name: gen_string(rng),
                total_mem: rng.next_u64(),
                sm_count: rng.next_u64() as u32,
                compute_capability: (rng.next_u64() as u32, rng.next_u64() as u32),
            }),
            5 => Handle(rng.next_u64()),
            6 => Data(gen_buf(rng)),
            7 => Handles((0..rng.range(0usize..8)).map(|_| rng.next_u64()).collect()),
            8 => Fptrs(
                (0..rng.range(0usize..4))
                    .map(|_| (gen_string(rng), rng.next_u64()))
                    .collect(),
            ),
            _ => Attrs {
                is_device: rng.next_u64().is_multiple_of(2),
                alloc_size: (rng.next_u64().is_multiple_of(2)).then(|| rng.next_u64()),
                device: rng.next_u64() as u32,
            },
        }
    }

    /// FNV-1a, folded over everything a pinned test wants to freeze.
    struct Fnv(u64);

    impl Fnv {
        fn new() -> Fnv {
            Fnv(0xcbf2_9ce4_8422_2325)
        }
        fn eat(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn eat_u64(&mut self, v: u64) {
            self.eat(&v.to_le_bytes());
        }
        fn eat_frame(&mut self, (frame, size): (Bytes, u64)) {
            self.eat_u64(frame.len() as u64);
            self.eat(&frame);
            self.eat_u64(size);
        }
    }

    /// The byte layout of every variant, pinned. A round trip cannot see a
    /// layout change (swap two fields and encoder and decoder still agree),
    /// so this folds the frames and wire sizes of seeded requests and
    /// responses (every variant, nested batches, logical payloads) into one
    /// digest per enum. A new digest means the wire format changed.
    #[test]
    fn wire_layout_is_pinned() {
        let mut rng = TestRng::deterministic("wire_layout_is_pinned");
        let (mut req, mut resp) = (Fnv::new(), Fnv::new());
        for _ in 0..10_000 {
            req.eat_frame(gen_request(&mut rng, 0).encode_sized(None));
            resp.eat_frame(gen_response(&mut rng).encode_sized(None));
        }
        assert_eq!(req.0, 2458444153371592754, "request layout changed");
        assert_eq!(resp.0, 13617861717604498052, "response layout changed");
    }

    /// What the decoders accept and reject, pinned: seeded random frames
    /// behind a run of valid tags, fed to both decoders. Each outcome folds
    /// in accept/reject, the bytes left in the frame and, when accepted, the
    /// re-encoded frame and its wire size.
    #[test]
    fn decoder_verdicts_are_pinned() {
        let mut rng = TestRng::deterministic("decoder_verdicts_are_pinned");
        let (mut req, mut resp) = (Fnv::new(), Fnv::new());
        let mut accepted = [0u32; 36];
        for _ in 0..20_000 {
            let mut raw = Vec::new();
            for _ in 0..rng.range(1usize..8) {
                // Batch tags often, each with a small element count, so the
                // frames reach nested bodies and the depth cap.
                let tag = if rng.range(0u32..3) == 0 {
                    32
                } else {
                    rng.range(0u8..36)
                };
                raw.push(tag);
                if tag == 32 {
                    raw.extend_from_slice(&rng.range(0u32..3).to_le_bytes());
                }
            }
            for _ in 0..rng.range(0usize..96) {
                // Mostly zeros and ones, so counts, option and payload tags
                // are often valid and decoding reaches every variant's end.
                let x = rng.next_u64();
                raw.push(match x % 8 {
                    0 | 1 => (x >> 8) as u8,
                    2 => 1,
                    _ => 0,
                });
            }
            let frame = Bytes::from(raw);
            let mut f = frame.clone();
            match Request::decode(&mut f) {
                Ok(r) => {
                    accepted[usize::from(frame[0])] += 1;
                    req.eat(&[1]);
                    req.eat_frame(r.encode_sized(None));
                }
                Err(_) => req.eat(&[0]),
            }
            req.eat_u64(f.len() as u64);
            let mut f = frame.clone();
            match Response::decode(&mut f) {
                Ok(r) => {
                    resp.eat(&[1]);
                    resp.eat_frame(r.encode_sized(None));
                }
                Err(_) => resp.eat(&[0]),
            }
            resp.eat_u64(f.len() as u64);
        }
        assert!(
            accepted[1..].iter().all(|&n| n > 0),
            "every request tag decodes at least once: {accepted:?}"
        );
        assert_eq!(
            req.0, 10650954044471811764,
            "request decoder verdicts changed"
        );
        assert_eq!(
            resp.0, 604649541272666716,
            "response decoder verdicts changed"
        );
    }

    #[test]
    fn deeply_nested_batch_errors_instead_of_overflowing() {
        // A frame of repeated tag-32 prefixes claims batches nested far past
        // any legitimate producer. Pre-fix this recursed once per level and
        // aborted on stack overflow; now it must come back as a WireError.
        let mut raw = Vec::new();
        for _ in 0..100_000 {
            raw.push(32u8); // Batch tag
            raw.extend_from_slice(&1u32.to_le_bytes()); // "one element follows"
        }
        raw.push(14); // innermost: Sync
        let mut frame = Bytes::from(raw);
        let err = Request::decode(&mut frame).expect_err("must reject, not abort");
        assert!(err.0.contains("depth"), "unexpected error: {err}");
    }

    #[test]
    fn batch_nesting_at_the_cap_still_decodes() {
        // Depth MAX_BATCH_DEPTH itself is legal; one past is not.
        let mut r = Request::Sync;
        for _ in 0..MAX_BATCH_DEPTH {
            r = Request::Batch(vec![r]);
        }
        roundtrip_req(&r);
        let too_deep = Request::Batch(vec![r]);
        let mut frame = too_deep.encode();
        assert!(Request::decode(&mut frame).is_err());
        // The cap is checked at the batch's own tag, not when its first
        // element is read: an empty batch one past the cap is rejected too.
        let mut empty = Request::Batch(vec![]);
        for _ in 0..MAX_BATCH_DEPTH - 1 {
            empty = Request::Batch(vec![empty]);
        }
        roundtrip_req(&empty);
        let too_deep = Request::Batch(vec![empty]);
        assert!(Request::decode(&mut too_deep.encode()).is_err());
    }

    #[test]
    fn decoded_payload_borrows_from_the_frame() {
        // Zero-copy contract: the decoded HostBuf is a subslice of the
        // arriving frame, not a fresh allocation.
        let r = Request::MemcpyH2D {
            dst: 7,
            data: HostBuf::Bytes(vec![9u8; 4096].into()),
        };
        let frame = r.encode();
        let mut f = frame.clone();
        let back = Request::decode(&mut f).unwrap();
        match back {
            Request::MemcpyH2D {
                data: HostBuf::Bytes(b),
                ..
            } => {
                assert_eq!(b.len(), 4096);
                // same backing storage ⇒ the payload's first byte lives
                // inside the frame's allocation
                let frame_range = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
                assert!(frame_range.contains(&(b.as_ptr() as usize)));
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "encoded_len drift")]
    fn encoding_past_the_sized_frame_panics() {
        let mut short = [0u8; 8];
        Request::Malloc { bytes: 1 }.put(&mut Writer(&mut short));
    }

    #[test]
    fn oversize_u64_vec_length_is_rejected() {
        // A claimed length of u32::MAX must fail the bounds check (and on
        // 32-bit targets must not wrap `n * 8` into a tiny number).
        let mut raw = vec![12u8]; // Launch tag
        raw.extend_from_slice(&8u64.to_le_bytes()); // fptr
        raw.extend_from_slice(&u32::MAX.to_le_bytes()); // ptrs len
        let mut frame = Bytes::from(raw);
        assert!(Request::decode(&mut frame).is_err());
    }
}
