//! The `jem-serve` wire protocol: length-prefixed, checksummed binary
//! frames carrying typed request/response messages.
//!
//! Frame layout (all integers little-endian; see DESIGN.md §10):
//!
//! ```text
//! magic  b"JEMSRV1\0" | b"JEMSRV2\0" | b"JEMSRV3!"     8 bytes
//! body_len (bytes)        u64   (capped at MAX_BODY)
//! fnv1a64(body)           u64
//! body:
//!   tag                   u64
//!   payload               tag-specific
//! ```
//!
//! Two protocol revisions share this frame shape:
//!
//! * **`JEMSRV1`** — the original request/response set (`Ping`, `Info`,
//!   `Map`, `Shutdown`). Still decoded unchanged, so pre-deadline clients
//!   keep working against an upgraded server.
//! * **`JEMSRV2`** — adds an optional per-request deadline to `Map`
//!   (encoded as a millisecond budget word; `u64::MAX` means "none"), the
//!   [`Request::Reload`] admin message, the [`Response::Expired`] /
//!   [`Response::Reloaded`] replies, and the scatter-gather router
//!   messages: [`Request::MapPartial`] / [`Response::Partials`] (shard
//!   halves of a gather) and [`Request::MapDegraded`] /
//!   [`Response::Degraded`] (router front-end, partial answers allowed).
//!   A client only emits a `JEMSRV2` frame when it actually uses a v2
//!   feature ([`Request::wire_version`]), so a deadline-free exchange is
//!   byte-identical to v1.
//! * **`JEMSRV3`** — adds the [`Request::Tagged`] envelope (an optional
//!   client identity wrapped around any v1/v2 request, feeding per-client
//!   admission quotas and fair queueing) and the [`Response::Throttled`]
//!   rejection carrying a `retry_after` hint. The v3 magic pads with `'!'`
//!   rather than `'\0'` deliberately: `'1' ^ 0x02 == '3'` and
//!   `'2' ^ 0x01 == '3'`, so a `\0`-padded v3 magic would be one bit flip
//!   away from each frozen revision and a single-bit transit error could
//!   alias revisions undetected (the checksum covers only the body). With
//!   the `'!'` pad every pair of magics differs in at least two bits. A v3
//!   frame also signals that the connection may be reused for further
//!   requests (keep-alive); v1/v2 connections stay one-shot, exactly as
//!   before.
//!
//! The frame checksum follows the persist-v3 convention of
//! `jem_core::persist`: FNV-1a over the whole body, so any byte-level
//! damage in transit is a decode error, never a panic or a garbled
//! mapping. Both sides of the connection speak the same frame; only the
//! tag namespaces differ (requests vs responses).

use crate::ServeError;
use jem_core::{MapperConfig, Mapping, QuerySegment, ReadEnd};
/// FNV-1a over raw bytes — the same checksum the index persist frame uses.
pub use jem_index::fnv1a64;
use jem_index::SubjectId;
use jem_sketch::SketchScheme;
use std::io::{Read, Write};

/// Frame magic of protocol revision 1 (kept as `MAGIC` for compatibility).
pub const MAGIC: &[u8; 8] = b"JEMSRV1\0";

/// Frame magic of protocol revision 2 (deadlines, reload).
pub const MAGIC_V2: &[u8; 8] = b"JEMSRV2\0";

/// Frame magic of protocol revision 3 (client identity, throttling,
/// connection reuse). Padded with `'!'` so that no single-bit flip can
/// turn one revision's magic into another's (see the module docs).
pub const MAGIC_V3: &[u8; 8] = b"JEMSRV3!";

/// Longest client id a [`Request::Tagged`] envelope may carry. Ids feed a
/// bounded per-client bucket map, so the bound is hygiene, not capacity.
pub const MAX_CLIENT_ID: usize = 128;

/// Deadline word meaning "no deadline" in a v2 `Map` body.
const NO_DEADLINE: u64 = u64::MAX;

/// Upper bound on a frame body. Frames are decoded into memory, so the
/// bound is what stops a hostile or corrupt length word from driving an
/// unbounded allocation (1 GiB comfortably holds any real segment batch).
pub const MAX_BODY: u64 = 1 << 30;

/// Which revision of the frame protocol a peer spoke, taken from the
/// frame magic. The body layout of `Map` depends on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolVersion {
    /// `JEMSRV1`: no deadlines, no reload.
    V1,
    /// `JEMSRV2`: optional `Map` deadline, `Reload`, `Expired`, `Reloaded`.
    V2,
    /// `JEMSRV3`: client identity (`Tagged`), `Throttled`, keep-alive.
    V3,
}

impl ProtocolVersion {
    /// The frame magic of this revision.
    pub fn magic(self) -> &'static [u8; 8] {
        match self {
            ProtocolVersion::V1 => MAGIC,
            ProtocolVersion::V2 => MAGIC_V2,
            ProtocolVersion::V3 => MAGIC_V3,
        }
    }
}

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; the server answers [`Response::Pong`] inline.
    Ping,
    /// Ask for the served index's parameters and subject names.
    Info,
    /// Map a batch of query end segments.
    Map {
        /// The segments to map (client-side `read_idx`/`end` are echoed
        /// back in the mappings).
        segments: Vec<QuerySegment>,
        /// Optional time budget in milliseconds, measured by the server
        /// from admission: a request still queued when its budget has
        /// elapsed is shed with [`Response::Expired`] instead of burning a
        /// worker on an answer nobody is waiting for. `None` (and every v1
        /// frame) never expires.
        deadline_ms: Option<u64>,
    },
    /// Begin a graceful shutdown: the server stops accepting, drains
    /// queued work, flushes metrics, and exits.
    Shutdown,
    /// Ask the server to load, validate, and atomically swap in the index
    /// persisted at `path` (a server-local path). In-flight batches finish
    /// on the old index; a failed load leaves the old index serving.
    Reload {
        /// Server-local filesystem path of the persisted index.
        path: String,
    },
    /// Map a batch of segments but return the per-trial collision *sets*
    /// instead of the argmax — the shard half of a router scatter-gather
    /// (v2 only). Per-trial sets from disjoint slot ranges union
    /// associatively, which is what makes the router's merge byte-exact.
    MapPartial {
        /// The segments to sketch and probe.
        segments: Vec<QuerySegment>,
        /// Same semantics as [`Request::Map::deadline_ms`]; the router
        /// forwards its remaining budget here.
        deadline_ms: Option<u64>,
    },
    /// Map a batch through a router front-end, accepting a
    /// [`Response::Degraded`] answer when shards are unavailable (v2
    /// only). A plain [`Request::Map`] to a router is strict: any missing
    /// shard fails the whole query with a typed error naming the gaps.
    MapDegraded {
        /// The segments to map.
        segments: Vec<QuerySegment>,
        /// Same semantics as [`Request::Map::deadline_ms`].
        deadline_ms: Option<u64>,
    },
    /// A client-identity envelope around any v1/v2 request (v3 only).
    /// The id keys per-client admission quotas and fair-queue lanes;
    /// untagged requests share an anonymous lane. Wrapping an envelope in
    /// another envelope is a protocol error, as is an empty or oversized
    /// id. Because the identity rides in a *wrapper* rather than in new
    /// fields on existing variants, every v1/v2 body layout — and every
    /// pre-v3 decoder — is untouched.
    Tagged {
        /// Caller-chosen identity, at most [`MAX_CLIENT_ID`] bytes.
        client_id: String,
        /// The request being made on that client's behalf.
        inner: Box<Request>,
    },
}

impl Request {
    /// Split off the optional [`Request::Tagged`] envelope: the client id
    /// (if any) and the request proper.
    pub fn untag(self) -> (Option<String>, Request) {
        match self {
            Request::Tagged { client_id, inner } => (Some(client_id), *inner),
            other => (None, other),
        }
    }
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Info`].
    Info(ServerInfo),
    /// Answer to [`Request::Map`]: the batch's mappings, in the total
    /// order documented on [`Mapping`].
    Mappings(Vec<Mapping>),
    /// The bounded request queue is full — try again later (backpressure;
    /// the server never buffers unboundedly).
    Busy,
    /// The request was malformed or failed; human-readable reason.
    Error(String),
    /// Acknowledges [`Request::Shutdown`].
    ShuttingDown,
    /// The request's deadline elapsed while it was queued; it was shed
    /// without mapping (v2 only — v1 clients cannot set deadlines).
    Expired,
    /// Acknowledges a successful [`Request::Reload`]; carries a
    /// human-readable summary of the new index (v2 only).
    Reloaded(String),
    /// Answer to [`Request::MapPartial`]: one [`SegmentPartials`] per
    /// requested segment, in request order, echoing each segment's
    /// identity (v2 only).
    Partials(Vec<SegmentPartials>),
    /// Answer to [`Request::MapDegraded`] when some shards were
    /// unavailable: the best mappings derivable from the shards that did
    /// answer, plus the exact ids of the shards that are missing from the
    /// merge (v2 only). A fully healthy gather answers
    /// [`Response::Mappings`] instead.
    Degraded {
        /// Mappings merged from the surviving shards, in the total order
        /// documented on [`Mapping`].
        mappings: Vec<Mapping>,
        /// Registry ids of the shards missing from the merge (sorted,
        /// deduplicated, never empty).
        missing: Vec<u32>,
    },
    /// The client's admission quota is exhausted (v3 only — only a
    /// [`Request::Tagged`] peer can receive it; pre-v3 and anonymous peers
    /// get [`Response::Busy`] instead). Distinct from `Busy`: the server
    /// has capacity, but *this client* is over its rate, and the hint says
    /// when its bucket will afford the retry.
    Throttled {
        /// Milliseconds until the client's token bucket can afford the
        /// rejected request.
        retry_after_ms: u64,
    },
}

/// One segment's share of a shard's sketch-table probe: for every trial,
/// the *deduplicated* set of subject ids whose sketch collided with the
/// segment in that shard's slot range.
///
/// This is the largest unit that still merges exactly: per-trial sets from
/// disjoint slot ranges union associatively and commutatively, and the
/// lazy-counter argmax (max trial count, ties to the smaller subject id)
/// is a pure function of the union — so a router can gather these from
/// independent shard processes in any order and reproduce the
/// single-process answer byte for byte. Summed per-shard *counts* would
/// not merge (one subject can collide with different codes of the same
/// trial on different shards).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentPartials {
    /// Echo of the requested segment's read index.
    pub read_idx: u32,
    /// Echo of the requested segment's end.
    pub end: ReadEnd,
    /// Per-trial deduplicated (sorted) subject-id collision sets.
    pub trials: Vec<Vec<SubjectId>>,
}

/// What a server tells clients about the index it serves.
///
/// Carries everything `jem query` needs to segment reads identically to
/// the offline driver (`ell`) and to render the same TSV (names, trials).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerInfo {
    /// The mapper configuration of the loaded index.
    pub config: MapperConfig,
    /// The sketch-position scheme of the loaded index.
    pub scheme: SketchScheme,
    /// Subject (contig) names, indexed by subject id.
    pub subject_names: Vec<String>,
    /// Number of shards the sketch table is partitioned into.
    pub shards: usize,
    /// Max segments a worker folds into one index pass.
    pub batch: usize,
}

// --- tag values ---------------------------------------------------------

const REQ_PING: u64 = 0;
const REQ_INFO: u64 = 1;
const REQ_MAP: u64 = 2;
const REQ_SHUTDOWN: u64 = 3;
const REQ_RELOAD: u64 = 4;
const REQ_MAP_PARTIAL: u64 = 5;
const REQ_MAP_DEGRADED: u64 = 6;
const REQ_TAGGED: u64 = 7;

const RESP_PONG: u64 = 0;
const RESP_INFO: u64 = 1;
const RESP_MAPPINGS: u64 = 2;
const RESP_BUSY: u64 = 3;
const RESP_ERROR: u64 = 4;
const RESP_SHUTTING_DOWN: u64 = 5;
const RESP_EXPIRED: u64 = 6;
const RESP_RELOADED: u64 = 7;
const RESP_PARTIALS: u64 = 8;
const RESP_DEGRADED: u64 = 9;
const RESP_THROTTLED: u64 = 10;

// --- body primitives ----------------------------------------------------

fn put_u64(body: &mut Vec<u8>, v: u64) {
    body.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(body: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(body, bytes.len() as u64);
    body.extend_from_slice(bytes);
}

/// Cursor over a received body; every read is bounds-checked so a
/// malformed body is an error, never a panic.
struct Cursor<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(body: &'a [u8]) -> Self {
        Cursor { body, at: 0 }
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        let end = self.at + 8;
        let bytes = self
            .body
            .get(self.at..end)
            .ok_or_else(|| ServeError::protocol("body truncated reading u64"))?;
        self.at = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    fn usize(&mut self) -> Result<usize, ServeError> {
        usize::try_from(self.u64()?).map_err(|_| ServeError::protocol("length overflows usize"))
    }

    fn bytes(&mut self) -> Result<&'a [u8], ServeError> {
        let len = self.usize()?;
        let end = self
            .at
            .checked_add(len)
            .ok_or_else(|| ServeError::protocol("length overflows body"))?;
        let bytes = self
            .body
            .get(self.at..end)
            .ok_or_else(|| ServeError::protocol("body truncated reading bytes"))?;
        self.at = end;
        Ok(bytes)
    }

    fn string(&mut self) -> Result<String, ServeError> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| ServeError::protocol("string is not UTF-8"))
    }

    fn finish(self) -> Result<(), ServeError> {
        if self.at == self.body.len() {
            Ok(())
        } else {
            Err(ServeError::protocol("trailing garbage after message body"))
        }
    }
}

/// Encode a mapping batch: count, then four words per mapping.
fn put_mappings(body: &mut Vec<u8>, mappings: &[Mapping]) {
    put_u64(body, mappings.len() as u64);
    for m in mappings {
        put_u64(body, u64::from(m.read_idx));
        put_u64(body, end_code(m.end));
        put_u64(body, u64::from(m.subject));
        put_u64(body, u64::from(m.hits));
    }
}

/// Decode a mapping batch written by [`put_mappings`].
fn read_mappings(c: &mut Cursor<'_>, body_len: usize) -> Result<Vec<Mapping>, ServeError> {
    let n = c.usize()?;
    let mut mappings = Vec::with_capacity(n.min(body_len / 32 + 1));
    for _ in 0..n {
        let read_idx =
            u32::try_from(c.u64()?).map_err(|_| ServeError::protocol("read_idx overflows u32"))?;
        let end = decode_end(c.u64()?)?;
        let subject =
            u32::try_from(c.u64()?).map_err(|_| ServeError::protocol("subject overflows u32"))?;
        let hits =
            u32::try_from(c.u64()?).map_err(|_| ServeError::protocol("hits overflows u32"))?;
        mappings.push(Mapping {
            read_idx,
            end,
            subject,
            hits,
        });
    }
    Ok(mappings)
}

/// Encode a segment batch: count, then `(read_idx, end, seq)` triples.
fn put_segments(body: &mut Vec<u8>, segments: &[QuerySegment]) {
    put_u64(body, segments.len() as u64);
    for seg in segments {
        put_u64(body, u64::from(seg.read_idx));
        put_u64(body, end_code(seg.end));
        put_bytes(body, &seg.seq);
    }
}

/// Decode a segment batch written by [`put_segments`]. `body_len` bounds
/// the defensive pre-allocation (a lying count word must not drive it).
fn read_segments(c: &mut Cursor<'_>, body_len: usize) -> Result<Vec<QuerySegment>, ServeError> {
    let n = c.usize()?;
    // Sized by what the body can actually hold, not the header.
    let mut segments = Vec::with_capacity(n.min(body_len / 24 + 1));
    for _ in 0..n {
        let read_idx =
            u32::try_from(c.u64()?).map_err(|_| ServeError::protocol("read_idx overflows u32"))?;
        let end = decode_end(c.u64()?)?;
        let seq = c.bytes()?.to_vec();
        segments.push(QuerySegment { read_idx, end, seq });
    }
    Ok(segments)
}

fn end_code(end: ReadEnd) -> u64 {
    match end {
        ReadEnd::Prefix => 0,
        ReadEnd::Suffix => 1,
    }
}

fn decode_end(code: u64) -> Result<ReadEnd, ServeError> {
    match code {
        0 => Ok(ReadEnd::Prefix),
        1 => Ok(ReadEnd::Suffix),
        other => Err(ServeError::protocol(format!("unknown read end {other}"))),
    }
}

// --- message encoding ---------------------------------------------------

impl Request {
    /// The lowest protocol revision that can carry this request: v1 for
    /// everything a v1 peer could say, v2 as soon as a v2-only feature
    /// (deadline, reload) is used. [`Request::encode`] emits this
    /// revision's body layout, so encoders and the wire magic agree.
    pub fn wire_version(&self) -> ProtocolVersion {
        match self {
            Request::Tagged { .. } => ProtocolVersion::V3,
            Request::Reload { .. } => ProtocolVersion::V2,
            Request::MapPartial { .. } | Request::MapDegraded { .. } => ProtocolVersion::V2,
            Request::Map {
                deadline_ms: Some(_),
                ..
            } => ProtocolVersion::V2,
            _ => ProtocolVersion::V1,
        }
    }

    /// Serialize to a frame body in the layout of [`Request::wire_version`].
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        match self {
            Request::Ping => put_u64(&mut body, REQ_PING),
            Request::Info => put_u64(&mut body, REQ_INFO),
            Request::Shutdown => put_u64(&mut body, REQ_SHUTDOWN),
            Request::Reload { path } => {
                put_u64(&mut body, REQ_RELOAD);
                put_bytes(&mut body, path.as_bytes());
            }
            Request::Map {
                segments,
                deadline_ms,
            } => {
                put_u64(&mut body, REQ_MAP);
                // The deadline word exists only in the v2 body layout; a
                // deadline-free Map encodes as v1 for compatibility.
                if let Some(ms) = deadline_ms {
                    put_u64(&mut body, (*ms).min(NO_DEADLINE - 1));
                }
                put_segments(&mut body, segments);
            }
            Request::MapPartial {
                segments,
                deadline_ms,
            }
            | Request::MapDegraded {
                segments,
                deadline_ms,
            } => {
                let tag = if matches!(self, Request::MapPartial { .. }) {
                    REQ_MAP_PARTIAL
                } else {
                    REQ_MAP_DEGRADED
                };
                put_u64(&mut body, tag);
                // v2-only messages always carry the deadline word; the
                // sentinel encodes "none" (no v1 layout to stay aligned
                // with).
                put_u64(
                    &mut body,
                    deadline_ms.map_or(NO_DEADLINE, |ms| ms.min(NO_DEADLINE - 1)),
                );
                put_segments(&mut body, segments);
            }
            Request::Tagged { client_id, inner } => {
                // The inner request is nested as an opaque sub-body in its
                // *own* revision's layout (named by the version word), so
                // the envelope reuses the frozen v1/v2 encoders verbatim.
                put_u64(&mut body, REQ_TAGGED);
                let inner_version = match inner.wire_version() {
                    ProtocolVersion::V1 => 1,
                    ProtocolVersion::V2 => 2,
                    // Nested envelopes never encode; decode rejects them
                    // too, so the wire format stays one level deep.
                    ProtocolVersion::V3 => 3,
                };
                put_u64(&mut body, inner_version);
                put_bytes(&mut body, client_id.as_bytes());
                put_bytes(&mut body, &inner.encode());
            }
        }
        body
    }

    /// Deserialize a v1 frame body (compatibility alias for
    /// [`Request::decode_versioned`] with [`ProtocolVersion::V1`]).
    pub fn decode(body: &[u8]) -> Result<Request, ServeError> {
        Request::decode_versioned(body, ProtocolVersion::V1)
    }

    /// Deserialize a frame body whose frame carried `version`'s magic.
    /// v1 bodies decode exactly as they always have.
    pub fn decode_versioned(body: &[u8], version: ProtocolVersion) -> Result<Request, ServeError> {
        let mut c = Cursor::new(body);
        let req = match c.u64()? {
            REQ_PING => Request::Ping,
            REQ_INFO => Request::Info,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_RELOAD => {
                if version == ProtocolVersion::V1 {
                    return Err(ServeError::protocol("unknown request tag 4"));
                }
                Request::Reload { path: c.string()? }
            }
            REQ_MAP => {
                let deadline_ms = match version {
                    ProtocolVersion::V1 => None,
                    ProtocolVersion::V2 | ProtocolVersion::V3 => match c.u64()? {
                        NO_DEADLINE => None,
                        ms => Some(ms),
                    },
                };
                let segments = read_segments(&mut c, body.len())?;
                Request::Map {
                    segments,
                    deadline_ms,
                }
            }
            tag @ (REQ_MAP_PARTIAL | REQ_MAP_DEGRADED) => {
                if version == ProtocolVersion::V1 {
                    return Err(ServeError::protocol(format!("unknown request tag {tag}")));
                }
                let deadline_ms = match c.u64()? {
                    NO_DEADLINE => None,
                    ms => Some(ms),
                };
                let segments = read_segments(&mut c, body.len())?;
                if tag == REQ_MAP_PARTIAL {
                    Request::MapPartial {
                        segments,
                        deadline_ms,
                    }
                } else {
                    Request::MapDegraded {
                        segments,
                        deadline_ms,
                    }
                }
            }
            REQ_TAGGED => {
                if version != ProtocolVersion::V3 {
                    return Err(ServeError::protocol("unknown request tag 7"));
                }
                let inner_version = match c.u64()? {
                    1 => ProtocolVersion::V1,
                    2 => ProtocolVersion::V2,
                    other => {
                        return Err(ServeError::protocol(format!(
                            "tagged envelope names unsupported inner revision {other}"
                        )))
                    }
                };
                let client_id = c.string()?;
                if client_id.is_empty() {
                    return Err(ServeError::protocol("empty client id in tagged envelope"));
                }
                if client_id.len() > MAX_CLIENT_ID {
                    return Err(ServeError::protocol(format!(
                        "client id of {} bytes exceeds the {MAX_CLIENT_ID}-byte bound",
                        client_id.len()
                    )));
                }
                // Inner revision is pinned to 1|2 above, so a nested
                // envelope (tag 7 under v1/v2) fails right here — the
                // format is one level deep by construction.
                let inner = Request::decode_versioned(c.bytes()?, inner_version)?;
                Request::Tagged {
                    client_id,
                    inner: Box::new(inner),
                }
            }
            other => return Err(ServeError::protocol(format!("unknown request tag {other}"))),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// The lowest protocol revision that can carry this response. Replies
    /// that only v2 requests can provoke (`Expired`, `Reloaded`) are v2;
    /// everything else stays v1 so old clients decode it unchanged.
    pub fn wire_version(&self) -> ProtocolVersion {
        match self {
            Response::Throttled { .. } => ProtocolVersion::V3,
            Response::Expired
            | Response::Reloaded(_)
            | Response::Partials(_)
            | Response::Degraded { .. } => ProtocolVersion::V2,
            _ => ProtocolVersion::V1,
        }
    }

    /// Serialize to a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        match self {
            Response::Pong => put_u64(&mut body, RESP_PONG),
            Response::Busy => put_u64(&mut body, RESP_BUSY),
            Response::ShuttingDown => put_u64(&mut body, RESP_SHUTTING_DOWN),
            Response::Expired => put_u64(&mut body, RESP_EXPIRED),
            Response::Error(msg) => {
                put_u64(&mut body, RESP_ERROR);
                put_bytes(&mut body, msg.as_bytes());
            }
            Response::Reloaded(msg) => {
                put_u64(&mut body, RESP_RELOADED);
                put_bytes(&mut body, msg.as_bytes());
            }
            Response::Throttled { retry_after_ms } => {
                put_u64(&mut body, RESP_THROTTLED);
                put_u64(&mut body, *retry_after_ms);
            }
            Response::Mappings(mappings) => {
                put_u64(&mut body, RESP_MAPPINGS);
                put_mappings(&mut body, mappings);
            }
            Response::Partials(partials) => {
                put_u64(&mut body, RESP_PARTIALS);
                put_u64(&mut body, partials.len() as u64);
                for p in partials {
                    put_u64(&mut body, u64::from(p.read_idx));
                    put_u64(&mut body, end_code(p.end));
                    put_u64(&mut body, p.trials.len() as u64);
                    for set in &p.trials {
                        put_u64(&mut body, set.len() as u64);
                        for &s in set {
                            put_u64(&mut body, u64::from(s));
                        }
                    }
                }
            }
            Response::Degraded { mappings, missing } => {
                put_u64(&mut body, RESP_DEGRADED);
                put_mappings(&mut body, mappings);
                put_u64(&mut body, missing.len() as u64);
                for &id in missing {
                    put_u64(&mut body, u64::from(id));
                }
            }
            Response::Info(info) => {
                put_u64(&mut body, RESP_INFO);
                let c = &info.config;
                for v in [
                    c.k as u64,
                    c.w as u64,
                    c.trials as u64,
                    c.ell as u64,
                    c.seed,
                ] {
                    put_u64(&mut body, v);
                }
                let (tag, param): (u64, u64) = match info.scheme {
                    SketchScheme::Minimizer { w } => (0, w as u64),
                    SketchScheme::ClosedSyncmer { s } => (1, s as u64),
                };
                put_u64(&mut body, tag);
                put_u64(&mut body, param);
                put_u64(&mut body, info.shards as u64);
                put_u64(&mut body, info.batch as u64);
                put_u64(&mut body, info.subject_names.len() as u64);
                for name in &info.subject_names {
                    put_bytes(&mut body, name.as_bytes());
                }
            }
        }
        body
    }

    /// Deserialize a frame body. Response bodies are laid out identically
    /// in both revisions (only the tag set grew), so no version parameter
    /// is needed; v2-only tags simply never reach a v1-only peer.
    pub fn decode(body: &[u8]) -> Result<Response, ServeError> {
        let mut c = Cursor::new(body);
        let resp = match c.u64()? {
            RESP_PONG => Response::Pong,
            RESP_BUSY => Response::Busy,
            RESP_SHUTTING_DOWN => Response::ShuttingDown,
            RESP_EXPIRED => Response::Expired,
            RESP_ERROR => Response::Error(c.string()?),
            RESP_RELOADED => Response::Reloaded(c.string()?),
            RESP_THROTTLED => Response::Throttled {
                retry_after_ms: c.u64()?,
            },
            RESP_MAPPINGS => Response::Mappings(read_mappings(&mut c, body.len())?),
            RESP_PARTIALS => {
                let n = c.usize()?;
                // Every partial costs at least three body words.
                let mut partials = Vec::with_capacity(n.min(body.len() / 24 + 1));
                for _ in 0..n {
                    let read_idx = u32::try_from(c.u64()?)
                        .map_err(|_| ServeError::protocol("read_idx overflows u32"))?;
                    let end = decode_end(c.u64()?)?;
                    let n_trials = c.usize()?;
                    let mut trials = Vec::with_capacity(n_trials.min(body.len() / 8 + 1));
                    for _ in 0..n_trials {
                        let n_subjects = c.usize()?;
                        let mut set = Vec::with_capacity(n_subjects.min(body.len() / 8 + 1));
                        for _ in 0..n_subjects {
                            set.push(
                                u32::try_from(c.u64()?)
                                    .map_err(|_| ServeError::protocol("subject overflows u32"))?,
                            );
                        }
                        trials.push(set);
                    }
                    partials.push(SegmentPartials {
                        read_idx,
                        end,
                        trials,
                    });
                }
                Response::Partials(partials)
            }
            RESP_DEGRADED => {
                let mappings = read_mappings(&mut c, body.len())?;
                let n = c.usize()?;
                let mut missing = Vec::with_capacity(n.min(body.len() / 8 + 1));
                for _ in 0..n {
                    missing.push(
                        u32::try_from(c.u64()?)
                            .map_err(|_| ServeError::protocol("shard id overflows u32"))?,
                    );
                }
                Response::Degraded { mappings, missing }
            }
            RESP_INFO => {
                let config = MapperConfig {
                    k: c.usize()?,
                    w: c.usize()?,
                    trials: c.usize()?,
                    ell: c.usize()?,
                    seed: c.u64()?,
                };
                let (tag, param) = (c.u64()?, c.usize()?);
                let scheme = match tag {
                    0 => SketchScheme::Minimizer { w: param },
                    1 => SketchScheme::ClosedSyncmer { s: param },
                    other => {
                        return Err(ServeError::protocol(format!("unknown scheme tag {other}")))
                    }
                };
                let shards = c.usize()?;
                let batch = c.usize()?;
                let n = c.usize()?;
                let mut subject_names = Vec::with_capacity(n.min(body.len() / 8 + 1));
                for _ in 0..n {
                    subject_names.push(c.string()?);
                }
                Response::Info(ServerInfo {
                    config,
                    scheme,
                    subject_names,
                    shards,
                    batch,
                })
            }
            other => {
                return Err(ServeError::protocol(format!(
                    "unknown response tag {other}"
                )))
            }
        };
        c.finish()?;
        Ok(resp)
    }
}

// --- frame transport ----------------------------------------------------

/// Write one v1 frame (`MAGIC`, length, checksum, body) to `out`.
pub fn write_frame<W: Write>(out: &mut W, body: &[u8]) -> std::io::Result<()> {
    write_frame_versioned(out, body, ProtocolVersion::V1)
}

/// Write one frame carrying `version`'s magic to `out`.
pub fn write_frame_versioned<W: Write>(
    out: &mut W,
    body: &[u8],
    version: ProtocolVersion,
) -> std::io::Result<()> {
    out.write_all(version.magic())?;
    out.write_all(&(body.len() as u64).to_le_bytes())?;
    out.write_all(&fnv1a64(body).to_le_bytes())?;
    out.write_all(body)?;
    out.flush()
}

/// Read one frame from `input`, accepting either revision's magic and
/// discarding which one it was. See [`read_frame_versioned`].
pub fn read_frame<R: Read>(input: &mut R) -> Result<Vec<u8>, ServeError> {
    read_frame_versioned(input).map(|(_, body)| body)
}

/// Read one frame from `input`, verifying magic, length bound and
/// checksum, and reporting which protocol revision the magic named (the
/// body layout of `Map` depends on it). Never panics on malformed input;
/// never allocates more than the peer actually sent (the declared length
/// only bounds the read).
pub fn read_frame_versioned<R: Read>(
    input: &mut R,
) -> Result<(ProtocolVersion, Vec<u8>), ServeError> {
    let mut header = [0u8; 24];
    input.read_exact(&mut header)?;
    let version = if &header[..8] == MAGIC {
        ProtocolVersion::V1
    } else if &header[..8] == MAGIC_V2 {
        ProtocolVersion::V2
    } else if &header[..8] == MAGIC_V3 {
        ProtocolVersion::V3
    } else {
        return Err(ServeError::protocol("bad frame magic"));
    };
    let body_len = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let declared = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    if body_len > MAX_BODY {
        return Err(ServeError::protocol(format!(
            "frame body of {body_len} bytes exceeds the {MAX_BODY}-byte bound"
        )));
    }
    let mut body = Vec::new();
    input.take(body_len).read_to_end(&mut body)?;
    if body.len() as u64 != body_len {
        return Err(ServeError::protocol(format!(
            "frame truncated: header declares {body_len} body bytes, got {}",
            body.len()
        )));
    }
    let computed = fnv1a64(&body);
    if computed != declared {
        return Err(ServeError::protocol(format!(
            "frame checksum mismatch: declared {declared:#018x}, computed {computed:#018x}"
        )));
    }
    Ok((version, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut wire = Vec::new();
        write_frame_versioned(&mut wire, &req.encode(), req.wire_version()).unwrap();
        let (version, body) = read_frame_versioned(&mut wire.as_slice()).unwrap();
        assert_eq!(version, req.wire_version());
        assert_eq!(Request::decode_versioned(&body, version).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let mut wire = Vec::new();
        write_frame_versioned(&mut wire, &resp.encode(), resp.wire_version()).unwrap();
        let body = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(Response::decode(&body).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Info);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Reload {
            path: "/tmp/new-index.jem".into(),
        });
        for deadline_ms in [None, Some(0), Some(1500)] {
            roundtrip_request(Request::Map {
                segments: vec![
                    QuerySegment {
                        read_idx: 0,
                        end: ReadEnd::Prefix,
                        seq: b"ACGTACGT".to_vec(),
                    },
                    QuerySegment {
                        read_idx: 7,
                        end: ReadEnd::Suffix,
                        seq: Vec::new(),
                    },
                ],
                deadline_ms,
            });
            roundtrip_request(Request::MapPartial {
                segments: vec![QuerySegment {
                    read_idx: 3,
                    end: ReadEnd::Suffix,
                    seq: b"ACGT".to_vec(),
                }],
                deadline_ms,
            });
            roundtrip_request(Request::MapDegraded {
                segments: Vec::new(),
                deadline_ms,
            });
        }
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Busy);
        roundtrip_response(Response::ShuttingDown);
        roundtrip_response(Response::Expired);
        roundtrip_response(Response::Error("queue exploded".into()));
        roundtrip_response(Response::Reloaded("7 subjects, 812 entries".into()));
        roundtrip_response(Response::Mappings(vec![Mapping {
            read_idx: 3,
            end: ReadEnd::Suffix,
            subject: 12,
            hits: 9,
        }]));
        roundtrip_response(Response::Info(ServerInfo {
            config: MapperConfig::default(),
            scheme: SketchScheme::ClosedSyncmer { s: 11 },
            subject_names: vec!["contig_0".into(), "contig_1".into()],
            shards: 8,
            batch: 16,
        }));
        roundtrip_response(Response::Partials(vec![
            SegmentPartials {
                read_idx: 2,
                end: ReadEnd::Prefix,
                trials: vec![vec![0, 3, 9], Vec::new(), vec![7]],
            },
            SegmentPartials {
                read_idx: 2,
                end: ReadEnd::Suffix,
                trials: Vec::new(),
            },
        ]));
        roundtrip_response(Response::Degraded {
            mappings: vec![Mapping {
                read_idx: 1,
                end: ReadEnd::Prefix,
                subject: 4,
                hits: 6,
            }],
            missing: vec![1, 3],
        });
        roundtrip_response(Response::Degraded {
            mappings: Vec::new(),
            missing: vec![0],
        });
    }

    #[test]
    fn deadline_free_map_is_wire_identical_to_v1() {
        // The compatibility contract: a Map without a deadline encodes the
        // same bytes the v1 protocol always used, under the v1 magic.
        let req = Request::Map {
            segments: vec![QuerySegment {
                read_idx: 1,
                end: ReadEnd::Prefix,
                seq: b"ACGT".to_vec(),
            }],
            deadline_ms: None,
        };
        assert_eq!(req.wire_version(), ProtocolVersion::V1);
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn v2_only_messages_refuse_v1_decode() {
        let reload = Request::Reload { path: "x".into() };
        assert_eq!(reload.wire_version(), ProtocolVersion::V2);
        assert!(Request::decode(&reload.encode()).is_err());
        for req in [
            Request::MapPartial {
                segments: Vec::new(),
                deadline_ms: None,
            },
            Request::MapDegraded {
                segments: Vec::new(),
                deadline_ms: Some(5),
            },
        ] {
            assert_eq!(req.wire_version(), ProtocolVersion::V2);
            assert!(
                Request::decode(&req.encode()).is_err(),
                "router tags must be rejected by a v1 decode: {req:?}"
            );
            assert_eq!(
                Request::decode_versioned(&req.encode(), ProtocolVersion::V2).unwrap(),
                req
            );
        }
    }

    #[test]
    fn every_frame_byte_flip_detected() {
        for deadline_ms in [None, Some(25u64)] {
            let req = Request::Map {
                segments: vec![QuerySegment {
                    read_idx: 1,
                    end: ReadEnd::Prefix,
                    seq: b"ACGT".to_vec(),
                }],
                deadline_ms,
            };
            let mut wire = Vec::new();
            write_frame_versioned(&mut wire, &req.encode(), req.wire_version()).unwrap();
            for i in 0..wire.len() {
                let mut bad = wire.clone();
                bad[i] ^= 0x01;
                // Either the frame read fails (magic/length/checksum) or —
                // when a length-word flip pushes the declared length past
                // the bytes present — it is a truncation error. Decode is
                // never reached with a corrupt body. The single exception
                // would be a magic flip turning "JEMSRV1" into "JEMSRV2"
                // (or back), but '1' ^ 0x01 is '0', not '2', so a one-bit
                // flip cannot alias the two revisions.
                assert!(
                    read_frame_versioned(&mut bad.as_slice()).is_err(),
                    "flip of byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn garbage_bytes_rejected() {
        assert!(read_frame(&mut &b"GET / HTTP/1.1\r\n\r\n this is not jem"[..]).is_err());
        assert!(read_frame(&mut &b""[..]).is_err());
        assert!(read_frame(&mut &b"JEMSRV1\0"[..]).is_err());
        assert!(read_frame(&mut &b"JEMSRV2\0"[..]).is_err());
        assert!(read_frame(&mut &b"JEMSRV3\0aaaaaaaaaaaaaaaa"[..]).is_err());
    }

    #[test]
    fn oversized_length_word_rejected_without_allocating() {
        for magic in [MAGIC, MAGIC_V2] {
            let mut wire = magic.to_vec();
            wire.extend_from_slice(&u64::MAX.to_le_bytes());
            wire.extend_from_slice(&0u64.to_le_bytes());
            let err = read_frame(&mut wire.as_slice()).unwrap_err();
            assert!(err.to_string().contains("bound"), "got: {err}");
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        let mut body = Vec::new();
        put_u64(&mut body, 999);
        assert!(Request::decode(&body).is_err());
        assert!(Request::decode_versioned(&body, ProtocolVersion::V2).is_err());
        assert!(Response::decode(&body).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut body = Request::Ping.encode();
        body.push(0);
        assert!(Request::decode(&body).is_err());
    }

    // --- v3: tagged envelopes, throttling -------------------------------

    fn tagged(client_id: &str, inner: Request) -> Request {
        Request::Tagged {
            client_id: client_id.into(),
            inner: Box::new(inner),
        }
    }

    #[test]
    fn v3_tagged_requests_roundtrip() {
        for inner in [
            Request::Ping,
            Request::Map {
                segments: vec![QuerySegment {
                    read_idx: 4,
                    end: ReadEnd::Suffix,
                    seq: b"ACGTACGT".to_vec(),
                }],
                deadline_ms: None,
            },
            Request::Map {
                segments: Vec::new(),
                deadline_ms: Some(250),
            },
            Request::MapPartial {
                segments: vec![QuerySegment {
                    read_idx: 0,
                    end: ReadEnd::Prefix,
                    seq: b"ACGT".to_vec(),
                }],
                deadline_ms: Some(99),
            },
        ] {
            roundtrip_request(tagged("alice", inner));
        }
        roundtrip_response(Response::Throttled { retry_after_ms: 0 });
        roundtrip_response(Response::Throttled {
            retry_after_ms: 1234,
        });
    }

    #[test]
    fn v3_tags_refuse_pre_v3_decode() {
        let req = tagged("alice", Request::Ping);
        assert_eq!(req.wire_version(), ProtocolVersion::V3);
        assert!(Request::decode(&req.encode()).is_err());
        assert!(Request::decode_versioned(&req.encode(), ProtocolVersion::V2).is_err());
    }

    #[test]
    fn nested_and_malformed_envelopes_rejected() {
        // A nested envelope names inner revision 3, which decode refuses.
        let nested = tagged("outer", tagged("inner", Request::Ping));
        assert!(Request::decode_versioned(&nested.encode(), ProtocolVersion::V3).is_err());
        // Empty and oversized ids are protocol errors, not lane keys.
        let empty = tagged("", Request::Ping);
        assert!(Request::decode_versioned(&empty.encode(), ProtocolVersion::V3).is_err());
        let huge = tagged(&"x".repeat(MAX_CLIENT_ID + 1), Request::Ping);
        assert!(Request::decode_versioned(&huge.encode(), ProtocolVersion::V3).is_err());
        let max = tagged(&"x".repeat(MAX_CLIENT_ID), Request::Ping);
        assert!(Request::decode_versioned(&max.encode(), ProtocolVersion::V3).is_ok());
    }

    #[test]
    fn v3_frame_every_byte_flip_detected() {
        let req = tagged(
            "greedy-7",
            Request::Map {
                segments: vec![QuerySegment {
                    read_idx: 1,
                    end: ReadEnd::Prefix,
                    seq: b"ACGT".to_vec(),
                }],
                deadline_ms: Some(25),
            },
        );
        let mut wire = Vec::new();
        write_frame_versioned(&mut wire, &req.encode(), req.wire_version()).unwrap();
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x01;
            assert!(
                read_frame_versioned(&mut bad.as_slice()).is_err(),
                "flip of byte {i} went undetected"
            );
        }
    }

    #[test]
    fn no_single_bit_flip_aliases_any_two_magics() {
        // The property the '!' pad buys: every pair of revision magics
        // differs in at least two bits, so a one-bit transit error on the
        // (unchecksummed) magic can never silently switch revisions.
        let magics = [MAGIC, MAGIC_V2, MAGIC_V3];
        for (i, a) in magics.iter().enumerate() {
            for b in &magics[i + 1..] {
                let bits: u32 = a
                    .iter()
                    .zip(b.iter())
                    .map(|(x, y)| (x ^ y).count_ones())
                    .sum();
                assert!(bits >= 2, "{a:?} vs {b:?}: {bits} differing bits");
            }
        }
    }

    #[test]
    fn zero_padded_v3_magic_still_rejected() {
        // Pinned by garbage_bytes_rejected since before v3 existed: the
        // naive b"JEMSRV3\0" spelling stays invalid forever.
        assert!(read_frame(&mut &b"JEMSRV3\0aaaaaaaaaaaaaaaa"[..]).is_err());
    }

    #[test]
    fn untag_splits_envelope() {
        let (id, inner) = tagged("alice", Request::Ping).untag();
        assert_eq!(id.as_deref(), Some("alice"));
        assert_eq!(inner, Request::Ping);
        let (id, inner) = Request::Shutdown.untag();
        assert!(id.is_none());
        assert_eq!(inner, Request::Shutdown);
    }
}
