//! The DGSF wire protocol.
//!
//! Every interposed API call that must be remoted is serialized into a
//! length-framed binary message and shipped to the API server; responses
//! come back the same way. The codec is hand-rolled over [`bytes`] — no
//! format crate — so framing is explicit, deterministic, and cheap.
//!
//! Trace-modeled workloads move *logical* payloads (size-only); the codec
//! encodes them as an 9-byte marker but [`Request::wire_size`] reports the
//! size the real bytes would have had, which is what the network model
//! charges. Functional workloads move real bytes end to end.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dgsf_cuda::{DescriptorKind, HostBuf, KernelArgs, LaunchConfig};

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
        data: WireBuf,
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
        cfg: WireCfg,
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
        cfg: WireCfg,
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

/// Payload crossing the wire.
///
/// Real payloads are refcounted [`Bytes`] views: decoding subslices the
/// received frame instead of copying, so a payload travels guest → frame →
/// dispatch → device without duplication.
#[derive(Debug, Clone, PartialEq)]
pub enum WireBuf {
    /// Real bytes (zero-copy view into the carrying frame after decode).
    Bytes(Bytes),
    /// Size-only payload (trace-modeled data); charged at full size by the
    /// network model without materializing.
    Logical(u64),
}

impl WireBuf {
    /// Logical length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            WireBuf::Bytes(b) => b.len() as u64,
            WireBuf::Logical(n) => *n,
        }
    }
    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<Vec<u8>> for WireBuf {
    fn from(v: Vec<u8>) -> Self {
        WireBuf::Bytes(v.into())
    }
}

impl From<HostBuf> for WireBuf {
    fn from(h: HostBuf) -> Self {
        match h {
            HostBuf::Bytes(b) => WireBuf::Bytes(b),
            HostBuf::Logical(n) => WireBuf::Logical(n),
        }
    }
}

impl From<WireBuf> for HostBuf {
    fn from(w: WireBuf) -> Self {
        match w {
            WireBuf::Bytes(b) => HostBuf::Bytes(b),
            WireBuf::Logical(n) => HostBuf::Logical(n),
        }
    }
}

/// Launch geometry on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireCfg {
    /// Grid dims.
    pub grid: (u32, u32, u32),
    /// Block dims.
    pub block: (u32, u32, u32),
}

impl From<LaunchConfig> for WireCfg {
    fn from(c: LaunchConfig) -> Self {
        WireCfg {
            grid: c.grid,
            block: c.block,
        }
    }
}
impl From<WireCfg> for LaunchConfig {
    fn from(c: WireCfg) -> Self {
        LaunchConfig {
            grid: c.grid,
            block: c.block,
        }
    }
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

/// Device properties on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireProps {
    /// Device name.
    pub name: String,
    /// Total device memory.
    pub total_mem: u64,
    /// SM count.
    pub sm_count: u32,
    /// Compute capability.
    pub cc: (u32, u32),
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
    Props(WireProps),
    /// A handle (stream/event/cudnn/cublas).
    Handle(u64),
    /// Data coming back from the device.
    Data(WireBuf),
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

// ---------------- codec helpers ----------------

/// Nested [`Request::Batch`] frames deeper than this are rejected by the
/// decoder: a crafted frame of repeated tag-32 prefixes must produce a
/// [`WireError`], not a stack overflow. The guest only ever produces depth 1.
pub const MAX_BATCH_DEPTH: u32 = 4;

/// A buffer to encode `len` bytes into: the storage of `spare` once no
/// other view of it is alive (grown if it is too small), else a fresh
/// exact-capacity buffer. A frame whose payload the receiver still borrows
/// is never written over.
fn frame_buf(spare: Option<Bytes>, len: usize) -> BytesMut {
    match spare.map(Bytes::try_into_mut) {
        Some(Ok(mut b)) => {
            b.clear();
            b.reserve(len);
            b
        }
        _ => BytesMut::with_capacity(len),
    }
}

fn put_str(b: &mut BytesMut, s: &str) {
    // The length prefix is u32: an oversize string would silently truncate
    // on `as u32` and produce a frame the decoder misparses. No caller can
    // legitimately ship a 4 GiB kernel name or error message.
    assert!(
        s.len() <= u32::MAX as usize,
        "string too long for wire frame: {} bytes",
        s.len()
    );
    b.put_u32_le(s.len() as u32);
    b.put_slice(s.as_bytes());
}

/// Encoded size of [`put_str`]'s output.
fn str_len(s: &str) -> u64 {
    4 + s.len() as u64
}

fn get_str(b: &mut Bytes) -> WireResult<String> {
    let n = get_u32(b)? as usize;
    if b.remaining() < n {
        return Err(WireError("truncated string".into()));
    }
    let raw = b.split_to(n);
    String::from_utf8(raw.to_vec()).map_err(|_| WireError("invalid utf8".into()))
}

fn get_u8(b: &mut Bytes) -> WireResult<u8> {
    if b.remaining() < 1 {
        return Err(WireError("truncated u8".into()));
    }
    Ok(b.get_u8())
}

fn get_u32(b: &mut Bytes) -> WireResult<u32> {
    if b.remaining() < 4 {
        return Err(WireError("truncated u32".into()));
    }
    Ok(b.get_u32_le())
}

fn get_u64(b: &mut Bytes) -> WireResult<u64> {
    if b.remaining() < 8 {
        return Err(WireError("truncated u64".into()));
    }
    Ok(b.get_u64_le())
}

fn get_f64(b: &mut Bytes) -> WireResult<f64> {
    if b.remaining() < 8 {
        return Err(WireError("truncated f64".into()));
    }
    Ok(b.get_f64_le())
}

fn put_vec_u64(b: &mut BytesMut, v: &[u64]) {
    b.put_u32_le(v.len() as u32);
    for x in v {
        b.put_u64_le(*x);
    }
}

/// Encoded size of [`put_vec_u64`]'s output.
fn vec_u64_len(v: &[u64]) -> u64 {
    4 + 8 * v.len() as u64
}

fn get_vec_u64(b: &mut Bytes) -> WireResult<Vec<u64>> {
    let n = get_u32(b)?;
    // The byte count is computed in u64: `n as usize * 8` would overflow on
    // 32-bit targets and let a truncated frame pass the bounds check.
    if (b.remaining() as u64) < u64::from(n) * 8 {
        return Err(WireError("truncated u64 vec".into()));
    }
    Ok((0..n).map(|_| b.get_u64_le()).collect())
}

fn put_buf(b: &mut BytesMut, buf: &WireBuf) {
    match buf {
        WireBuf::Bytes(raw) => {
            b.put_u8(0);
            b.put_u64_le(raw.len() as u64);
            b.put_slice(raw);
        }
        WireBuf::Logical(n) => {
            b.put_u8(1);
            b.put_u64_le(*n);
        }
    }
}

fn get_buf(b: &mut Bytes) -> WireResult<WireBuf> {
    match get_u8(b)? {
        0 => {
            let n = get_u64(b)?;
            // Compare in u64 before narrowing: on 32-bit targets a huge
            // length must fail the check, not wrap in the `as usize` cast.
            if (b.remaining() as u64) < n {
                return Err(WireError("truncated payload".into()));
            }
            // Zero-copy: the payload is a refcounted subslice of the frame.
            Ok(WireBuf::Bytes(b.split_to(n as usize)))
        }
        1 => Ok(WireBuf::Logical(get_u64(b)?)),
        t => Err(WireError(format!("bad WireBuf tag {t}"))),
    }
}

/// Encoded size of [`put_buf`]'s output.
fn buf_len(buf: &WireBuf) -> u64 {
    match buf {
        WireBuf::Bytes(raw) => 1 + 8 + raw.len() as u64,
        WireBuf::Logical(_) => 1 + 8,
    }
}

fn put_cfg(b: &mut BytesMut, c: &WireCfg) {
    for v in [
        c.grid.0, c.grid.1, c.grid.2, c.block.0, c.block.1, c.block.2,
    ] {
        b.put_u32_le(v);
    }
}

fn get_cfg(b: &mut Bytes) -> WireResult<WireCfg> {
    let mut v = [0u32; 6];
    for x in &mut v {
        *x = get_u32(b)?;
    }
    Ok(WireCfg {
        grid: (v[0], v[1], v[2]),
        block: (v[3], v[4], v[5]),
    })
}

fn put_args(b: &mut BytesMut, a: &WireArgs) {
    put_vec_u64(b, &a.ptrs);
    put_vec_u64(b, &a.scalars);
    b.put_u64_le(a.bytes);
    match a.work_hint {
        Some(w) => {
            b.put_u8(1);
            b.put_f64_le(w);
        }
        None => b.put_u8(0),
    }
}

/// Encoded size of [`put_cfg`]'s output (six u32 dims).
const CFG_LEN: u64 = 24;

/// Encoded size of [`put_args`]'s output.
fn args_len(a: &WireArgs) -> u64 {
    vec_u64_len(&a.ptrs)
        + vec_u64_len(&a.scalars)
        + 8
        + 1
        + if a.work_hint.is_some() { 8 } else { 0 }
}

fn get_args(b: &mut Bytes) -> WireResult<WireArgs> {
    let ptrs = get_vec_u64(b)?;
    let scalars = get_vec_u64(b)?;
    let bytes = get_u64(b)?;
    let work_hint = match get_u8(b)? {
        0 => None,
        1 => Some(get_f64(b)?),
        t => return Err(WireError(format!("bad option tag {t}"))),
    };
    Ok(WireArgs {
        ptrs,
        scalars,
        bytes,
        work_hint,
    })
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

    /// Exact number of bytes [`Request::encode`] will produce, computed
    /// arithmetically — no buffer is filled. `encode` allocates exactly this
    /// much and [`Request::wire_size`] builds on it, so the hot path pays
    /// one traversal instead of a throwaway encode.
    pub fn encoded_len(&self) -> u64 {
        use Request::*;
        1 + match self {
            Init { .. } | CudnnCreate { .. } | CublasCreate { .. } => 1,
            RegisterModule { kernels } => 4 + kernels.iter().map(|k| str_len(k)).sum::<u64>(),
            GetDeviceCount | Sync | StreamCreate | EventCreate | EndFunction => 0,
            GetDeviceProps { .. } | SetDevice { .. } => 4,
            Malloc { .. }
            | Free { .. }
            | MallocHost { .. }
            | StreamDestroy { .. }
            | StreamSync { .. }
            | EventRecord { .. }
            | EventSync { .. }
            | PointerGetAttributes { .. }
            | CudnnDestroy { .. }
            | CudnnSetDescriptors { .. }
            | CudnnDestroyDescriptors { .. }
            | CublasDestroy { .. } => 8,
            Memset { .. } => 8 + 1 + 8,
            MemcpyH2D { data, .. } => 8 + buf_len(data),
            MemcpyD2H { .. } => 8 + 8 + 1,
            PushCallConfiguration { .. } => CFG_LEN,
            Launch { args, .. } => 8 + args_len(args),
            LaunchConfigured { args, .. } => 8 + 8 + CFG_LEN + args_len(args),
            CudnnCreateDescriptors { .. } => 1 + 8,
            CudnnOp { .. } | CublasOp { .. } => 8 + 8 + 8 + 8,
            Batch(reqs) => 4 + reqs.iter().map(|r| r.encoded_len()).sum::<u64>(),
            PublishBuffer { .. } => 8 + 8,
            AdoptBuffer { .. } => 8,
        }
    }

    /// Serialize into a fresh frame (allocated at exactly
    /// [`Request::encoded_len`] bytes).
    pub fn encode(&self) -> Bytes {
        self.encode_sized(None).0
    }

    fn encode_into(&self, b: &mut BytesMut) {
        use Request::*;
        match self {
            Init { pooled_context } => {
                b.put_u8(1);
                b.put_u8(*pooled_context as u8);
            }
            RegisterModule { kernels } => {
                b.put_u8(2);
                b.put_u32_le(kernels.len() as u32);
                for k in kernels {
                    put_str(b, k);
                }
            }
            GetDeviceCount => b.put_u8(3),
            GetDeviceProps { dev } => {
                b.put_u8(4);
                b.put_u32_le(*dev);
            }
            SetDevice { dev } => {
                b.put_u8(5);
                b.put_u32_le(*dev);
            }
            Malloc { bytes } => {
                b.put_u8(6);
                b.put_u64_le(*bytes);
            }
            Free { ptr } => {
                b.put_u8(7);
                b.put_u64_le(*ptr);
            }
            Memset { ptr, value, bytes } => {
                b.put_u8(8);
                b.put_u64_le(*ptr);
                b.put_u8(*value);
                b.put_u64_le(*bytes);
            }
            MemcpyH2D { dst, data } => {
                b.put_u8(9);
                b.put_u64_le(*dst);
                put_buf(b, data);
            }
            MemcpyD2H {
                src,
                bytes,
                want_data,
            } => {
                b.put_u8(10);
                b.put_u64_le(*src);
                b.put_u64_le(*bytes);
                b.put_u8(*want_data as u8);
            }
            PushCallConfiguration { cfg } => {
                b.put_u8(11);
                put_cfg(b, cfg);
            }
            Launch { fptr, args } => {
                b.put_u8(12);
                b.put_u64_le(*fptr);
                put_args(b, args);
            }
            LaunchConfigured {
                fptr,
                stream,
                cfg,
                args,
            } => {
                b.put_u8(13);
                b.put_u64_le(*fptr);
                b.put_u64_le(*stream);
                put_cfg(b, cfg);
                put_args(b, args);
            }
            Sync => b.put_u8(14),
            StreamCreate => b.put_u8(15),
            StreamDestroy { h } => {
                b.put_u8(16);
                b.put_u64_le(*h);
            }
            StreamSync { h } => {
                b.put_u8(17);
                b.put_u64_le(*h);
            }
            EventCreate => b.put_u8(18),
            EventRecord { h } => {
                b.put_u8(19);
                b.put_u64_le(*h);
            }
            EventSync { h } => {
                b.put_u8(20);
                b.put_u64_le(*h);
            }
            PointerGetAttributes { ptr } => {
                b.put_u8(21);
                b.put_u64_le(*ptr);
            }
            MallocHost { bytes } => {
                b.put_u8(22);
                b.put_u64_le(*bytes);
            }
            CudnnCreate { pooled } => {
                b.put_u8(23);
                b.put_u8(*pooled as u8);
            }
            CudnnDestroy { h } => {
                b.put_u8(24);
                b.put_u64_le(*h);
            }
            CudnnCreateDescriptors { kind, n } => {
                b.put_u8(25);
                b.put_u8(*kind);
                b.put_u64_le(*n);
            }
            CudnnSetDescriptors { n } => {
                b.put_u8(26);
                b.put_u64_le(*n);
            }
            CudnnDestroyDescriptors { n } => {
                b.put_u8(27);
                b.put_u64_le(*n);
            }
            CudnnOp {
                h,
                work,
                bytes,
                api_calls,
            } => {
                b.put_u8(28);
                b.put_u64_le(*h);
                b.put_f64_le(*work);
                b.put_u64_le(*bytes);
                b.put_u64_le(*api_calls);
            }
            CublasCreate { pooled } => {
                b.put_u8(29);
                b.put_u8(*pooled as u8);
            }
            CublasDestroy { h } => {
                b.put_u8(30);
                b.put_u64_le(*h);
            }
            CublasOp {
                h,
                work,
                bytes,
                api_calls,
            } => {
                b.put_u8(31);
                b.put_u64_le(*h);
                b.put_f64_le(*work);
                b.put_u64_le(*bytes);
                b.put_u64_le(*api_calls);
            }
            Batch(reqs) => {
                b.put_u8(32);
                b.put_u32_le(reqs.len() as u32);
                for r in reqs {
                    r.encode_into(b);
                }
            }
            EndFunction => b.put_u8(33),
            PublishBuffer { key, ptr } => {
                b.put_u8(34);
                b.put_u64_le(*key);
                b.put_u64_le(*ptr);
            }
            AdoptBuffer { key } => {
                b.put_u8(35);
                b.put_u64_le(*key);
            }
        }
    }

    /// Deserialize from a frame. Payloads ([`WireBuf::Bytes`]) are zero-copy
    /// refcounted subslices of `frame`; nested [`Request::Batch`] frames
    /// deeper than [`MAX_BATCH_DEPTH`] are rejected with a [`WireError`].
    pub fn decode(frame: &mut Bytes) -> WireResult<Request> {
        Request::decode_at(frame, 0)
    }

    fn decode_at(frame: &mut Bytes, depth: u32) -> WireResult<Request> {
        use Request::*;
        let tag = get_u8(frame)?;
        Ok(match tag {
            1 => Init {
                pooled_context: get_u8(frame)? != 0,
            },
            2 => {
                let n = get_u32(frame)? as usize;
                // n is untrusted: cap the pre-allocation, let decode errors bound growth
                let mut kernels = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    kernels.push(get_str(frame)?);
                }
                RegisterModule { kernels }
            }
            3 => GetDeviceCount,
            4 => GetDeviceProps {
                dev: get_u32(frame)?,
            },
            5 => SetDevice {
                dev: get_u32(frame)?,
            },
            6 => Malloc {
                bytes: get_u64(frame)?,
            },
            7 => Free {
                ptr: get_u64(frame)?,
            },
            8 => Memset {
                ptr: get_u64(frame)?,
                value: get_u8(frame)?,
                bytes: get_u64(frame)?,
            },
            9 => MemcpyH2D {
                dst: get_u64(frame)?,
                data: get_buf(frame)?,
            },
            10 => MemcpyD2H {
                src: get_u64(frame)?,
                bytes: get_u64(frame)?,
                want_data: get_u8(frame)? != 0,
            },
            11 => PushCallConfiguration {
                cfg: get_cfg(frame)?,
            },
            12 => Launch {
                fptr: get_u64(frame)?,
                args: get_args(frame)?,
            },
            13 => LaunchConfigured {
                fptr: get_u64(frame)?,
                stream: get_u64(frame)?,
                cfg: get_cfg(frame)?,
                args: get_args(frame)?,
            },
            14 => Sync,
            15 => StreamCreate,
            16 => StreamDestroy { h: get_u64(frame)? },
            17 => StreamSync { h: get_u64(frame)? },
            18 => EventCreate,
            19 => EventRecord { h: get_u64(frame)? },
            20 => EventSync { h: get_u64(frame)? },
            21 => PointerGetAttributes {
                ptr: get_u64(frame)?,
            },
            22 => MallocHost {
                bytes: get_u64(frame)?,
            },
            23 => CudnnCreate {
                pooled: get_u8(frame)? != 0,
            },
            24 => CudnnDestroy { h: get_u64(frame)? },
            25 => CudnnCreateDescriptors {
                kind: get_u8(frame)?,
                n: get_u64(frame)?,
            },
            26 => CudnnSetDescriptors { n: get_u64(frame)? },
            27 => CudnnDestroyDescriptors { n: get_u64(frame)? },
            28 => CudnnOp {
                h: get_u64(frame)?,
                work: get_f64(frame)?,
                bytes: get_u64(frame)?,
                api_calls: get_u64(frame)?,
            },
            29 => CublasCreate {
                pooled: get_u8(frame)? != 0,
            },
            30 => CublasDestroy { h: get_u64(frame)? },
            31 => CublasOp {
                h: get_u64(frame)?,
                work: get_f64(frame)?,
                bytes: get_u64(frame)?,
                api_calls: get_u64(frame)?,
            },
            32 => {
                if depth >= MAX_BATCH_DEPTH {
                    return Err(WireError(format!(
                        "batch nesting exceeds depth {MAX_BATCH_DEPTH}"
                    )));
                }
                let n = get_u32(frame)? as usize;
                let mut reqs = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    reqs.push(Request::decode_at(frame, depth + 1)?);
                }
                Batch(reqs)
            }
            33 => EndFunction,
            34 => PublishBuffer {
                key: get_u64(frame)?,
                ptr: get_u64(frame)?,
            },
            35 => AdoptBuffer {
                key: get_u64(frame)?,
            },
            t => return Err(WireError(format!("bad request tag {t}"))),
        })
    }

    /// Bytes this request occupies on the wire, counting logical payloads at
    /// their full size (what the network model must charge). Pure arithmetic
    /// over [`Request::encoded_len`] — nothing is allocated or encoded.
    pub fn wire_size(&self) -> u64 {
        self.encoded_len() + self.logical_extra()
    }

    /// Encode and compute [`Request::wire_size`] in one pass: the wire size
    /// is derived from the already-encoded frame's length instead of a
    /// second traversal. The frame reuses `spare`'s storage when no other
    /// view of it is alive (see [`Bytes::try_into_mut`]).
    pub fn encode_sized(&self, spare: Option<Bytes>) -> (Bytes, u64) {
        let mut b = frame_buf(spare, self.encoded_len() as usize);
        self.encode_into(&mut b);
        debug_assert_eq!(b.len() as u64, self.encoded_len(), "encoded_len drift");
        let size = b.len() as u64 + self.logical_extra();
        (b.freeze(), size)
    }

    fn logical_extra(&self) -> u64 {
        match self {
            Request::MemcpyH2D {
                data: WireBuf::Logical(n),
                ..
            } => *n,
            Request::Batch(reqs) => reqs.iter().map(|r| r.logical_extra()).sum(),
            _ => 0,
        }
    }
}

impl Response {
    /// Exact number of bytes [`Response::encode`] will produce, computed
    /// arithmetically (see [`Request::encoded_len`]).
    pub fn encoded_len(&self) -> u64 {
        use Response::*;
        1 + match self {
            Ok => 0,
            Err { msg, .. } => 1 + str_len(msg),
            Ptr(_) | Handle(_) => 8,
            Count(_) => 4,
            Props(p) => str_len(&p.name) + 8 + 4 + 4 + 4,
            Data(d) => buf_len(d),
            Handles(hs) => vec_u64_len(hs),
            Fptrs(fs) => 4 + fs.iter().map(|(name, _)| str_len(name) + 8).sum::<u64>(),
            Attrs { alloc_size, .. } => 1 + 1 + if alloc_size.is_some() { 8 } else { 0 } + 4,
        }
    }

    /// Serialize into a fresh frame (allocated at exactly
    /// [`Response::encoded_len`] bytes).
    pub fn encode(&self) -> Bytes {
        self.encode_sized(None).0
    }

    fn encode_into(&self, b: &mut BytesMut) {
        use Response::*;
        match self {
            Ok => b.put_u8(0),
            Err { class, msg } => {
                b.put_u8(1);
                b.put_u8(*class);
                put_str(b, msg);
            }
            Ptr(p) => {
                b.put_u8(2);
                b.put_u64_le(*p);
            }
            Count(c) => {
                b.put_u8(3);
                b.put_u32_le(*c);
            }
            Props(p) => {
                b.put_u8(4);
                put_str(b, &p.name);
                b.put_u64_le(p.total_mem);
                b.put_u32_le(p.sm_count);
                b.put_u32_le(p.cc.0);
                b.put_u32_le(p.cc.1);
            }
            Handle(h) => {
                b.put_u8(5);
                b.put_u64_le(*h);
            }
            Data(d) => {
                b.put_u8(6);
                put_buf(b, d);
            }
            Handles(hs) => {
                b.put_u8(7);
                put_vec_u64(b, hs);
            }
            Fptrs(fs) => {
                b.put_u8(8);
                b.put_u32_le(fs.len() as u32);
                for (name, fptr) in fs {
                    put_str(b, name);
                    b.put_u64_le(*fptr);
                }
            }
            Attrs {
                is_device,
                alloc_size,
                device,
            } => {
                b.put_u8(9);
                b.put_u8(*is_device as u8);
                match alloc_size {
                    Some(s) => {
                        b.put_u8(1);
                        b.put_u64_le(*s);
                    }
                    None => b.put_u8(0),
                }
                b.put_u32_le(*device);
            }
        }
    }

    /// Deserialize from a frame.
    pub fn decode(frame: &mut Bytes) -> WireResult<Response> {
        use Response::*;
        let tag = get_u8(frame)?;
        std::result::Result::Ok(match tag {
            0 => Ok,
            1 => Err {
                class: get_u8(frame)?,
                msg: get_str(frame)?,
            },
            2 => Ptr(get_u64(frame)?),
            3 => Count(get_u32(frame)?),
            4 => Props(WireProps {
                name: get_str(frame)?,
                total_mem: get_u64(frame)?,
                sm_count: get_u32(frame)?,
                cc: (get_u32(frame)?, get_u32(frame)?),
            }),
            5 => Handle(get_u64(frame)?),
            6 => Data(get_buf(frame)?),
            7 => Handles(get_vec_u64(frame)?),
            8 => {
                let n = get_u32(frame)? as usize;
                let mut fs = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let name = get_str(frame)?;
                    let fptr = get_u64(frame)?;
                    fs.push((name, fptr));
                }
                Fptrs(fs)
            }
            9 => Attrs {
                is_device: get_u8(frame)? != 0,
                alloc_size: match get_u8(frame)? {
                    0 => None,
                    1 => Some(get_u64(frame)?),
                    t => return std::result::Result::Err(WireError(format!("bad opt tag {t}"))),
                },
                device: get_u32(frame)?,
            },
            t => return std::result::Result::Err(WireError(format!("bad response tag {t}"))),
        })
    }

    /// Bytes on the wire, counting logical payloads at full size. Pure
    /// arithmetic — nothing is allocated or encoded.
    pub fn wire_size(&self) -> u64 {
        self.encoded_len() + self.logical_extra()
    }

    /// Encode and compute [`Response::wire_size`] in one pass, reusing
    /// `spare`'s storage as [`Request::encode_sized`] does.
    pub fn encode_sized(&self, spare: Option<Bytes>) -> (Bytes, u64) {
        let mut b = frame_buf(spare, self.encoded_len() as usize);
        self.encode_into(&mut b);
        debug_assert_eq!(b.len() as u64, self.encoded_len(), "encoded_len drift");
        let size = b.len() as u64 + self.logical_extra();
        (b.freeze(), size)
    }

    fn logical_extra(&self) -> u64 {
        match self {
            Response::Data(WireBuf::Logical(n)) => *n,
            _ => 0,
        }
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
        assert_eq!(frame.remaining(), 0, "frame fully consumed");
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
            data: vec![1, 2, 3].into(),
        });
        roundtrip_req(&Request::LaunchConfigured {
            fptr: 42,
            stream: 7,
            cfg: WireCfg {
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
        roundtrip_resp(&Response::Props(WireProps {
            name: "V100".into(),
            total_mem: 16 << 30,
            sm_count: 80,
            cc: (7, 0),
        }));
        roundtrip_resp(&Response::Fptrs(vec![("k".into(), 7)]));
        roundtrip_resp(&Response::Attrs {
            is_device: true,
            alloc_size: Some(100),
            device: 0,
        });
        roundtrip_resp(&Response::Data(WireBuf::Logical(1 << 30)));
    }

    #[test]
    fn logical_payloads_counted_at_full_size_but_encoded_small() {
        let r = Request::MemcpyH2D {
            dst: 0,
            data: WireBuf::Logical(1 << 30),
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
            let r = Request::MemcpyH2D { dst, data: data.into() };
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

    fn gen_buf(rng: &mut TestRng) -> WireBuf {
        if rng.next_u64().is_multiple_of(2) {
            let len = rng.range(0usize..64);
            WireBuf::from((0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>())
        } else {
            WireBuf::Logical(rng.next_u64())
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

    fn gen_cfg(rng: &mut TestRng) -> WireCfg {
        WireCfg {
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
            4 => Props(WireProps {
                name: gen_string(rng),
                total_mem: rng.next_u64(),
                sm_count: rng.next_u64() as u32,
                cc: (rng.next_u64() as u32, rng.next_u64() as u32),
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
    }

    #[test]
    fn decoded_payload_borrows_from_the_frame() {
        // Zero-copy contract: the decoded WireBuf is a subslice of the
        // arriving frame, not a fresh allocation.
        let r = Request::MemcpyH2D {
            dst: 7,
            data: vec![9u8; 4096].into(),
        };
        let frame = r.encode();
        let mut f = frame.clone();
        let back = Request::decode(&mut f).unwrap();
        match back {
            Request::MemcpyH2D {
                data: WireBuf::Bytes(b),
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
