//! The persistent, content-addressed schedule store.
//!
//! RANA's Stage-2 search is a compile-time activity, but the in-process
//! [`ScheduleCache`] dies with the process, so every serve/fleet cold
//! start re-runs the search and pays for it in tail latency. This module
//! makes finished searches a *reusable artifact*: a [`ScheduleStore`]
//! serializes `(layer-shape fingerprint, scheduling-context hash,
//! thermal rung, strategy) → compiled schedule` entries to a
//! deterministic JSONL file, and a later process warm-starts its cache
//! from it ([`ScheduleStore::warm_start`]), so the p99-visible Stage-2
//! stalls disappear.
//!
//! # Content addressing
//!
//! Entries are keyed by [`Scheduler::layer_key`]: the FNV-1a composition
//! of the scheduler's context fingerprint (accelerator config, refresh
//! model, energy costs, pattern space, tiling policy, and a constant tag
//! left from a removed bandwidth constraint, kept so that stores stay
//! valid) with the layer's shape fingerprint. Any context difference that could
//! change a search result changes the key, so a store can hold entries
//! for many design points, bank partitions, and interval rungs at once.
//! The layer fingerprint excludes the layer *name* — repeated shapes
//! (ResNet's residual blocks) share one entry.
//!
//! Refresh *strategies* (`rana-policy`) deliberately do **not** enter
//! the key: a strategy prices refresh downstream of the search and never
//! changes the chosen `(pattern, tiling)`. Each entry still records the
//! [`Strategy::memo_key`] it was precompiled under as provenance
//! metadata, and the precompile grid collapses across strategies.
//!
//! # Versioning
//!
//! A store file embeds [`model_version_hash`] — an FNV digest over the
//! store format version, the crate version, and the paper's energy-cost
//! table — computed at build time. A store written by a build with a
//! different energy model (or format) fails to load with
//! [`StoreError::VersionMismatch`]; stale schedules are never served.
//! A trailing FNV checksum line detects truncation and bit corruption
//! ([`StoreError::Corrupt`]).
//!
//! # Example
//!
//! ```
//! use rana_core::designs::Design;
//! use rana_core::evaluate::Evaluator;
//! use rana_core::store::{precompile, PrecompileSpec, ScheduleStore};
//! use rana_core::ScheduleCache;
//!
//! // Precompile AlexNet's schedules for the paper design point.
//! let eval = Evaluator::paper_platform();
//! let mut store = ScheduleStore::new();
//! let spec = PrecompileSpec { designs: vec![Design::RanaStarE5], ..PrecompileSpec::default() };
//! let stats = precompile(&eval, &[rana_zoo::alexnet()], &spec, &mut store);
//! assert!(stats.entries_added > 0);
//!
//! // Round-trip through the serialized form, then warm-start a cache.
//! let restored = ScheduleStore::from_bytes(&store.to_bytes()).unwrap();
//! let cache = ScheduleCache::new();
//! assert_eq!(restored.warm_start(&cache), store.len());
//! assert_eq!(cache.warm_len(), store.len());
//! ```
//!
//! [`ScheduleCache`]: crate::par::ScheduleCache
//! [`Scheduler::layer_key`]: crate::scheduler::Scheduler::layer_key
//! [`Strategy::memo_key`]: rana_policy::Strategy::memo_key

use crate::designs::Design;
use crate::energy::EnergyBreakdown;
use crate::evaluate::Evaluator;
use crate::operating::{
    check_ladder_steps, check_refresh_weight, hedged, quantize, rung_us, NetworkPlan,
    LADDER_STEPS_PER_OCTAVE, RESCHEDULE_REFRESH_WEIGHT,
};
use crate::par::ScheduleCache;
use crate::scheduler::{LayerSchedule, Scheduler};
use rana_accel::fingerprint::{Fingerprint, Fnv1a};
use rana_accel::{LayerSim, Lifetimes, Pattern, SchedLayer, Storage, Tiling, Traffic};
use rana_edram::EnergyCosts;
use rana_policy::Strategy;
use rana_trace::json_string;
use rana_zoo::Network;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;

/// Version of the on-disk format. Bumped whenever the serialized shape
/// of an entry changes; folded into [`model_version_hash`] so old files
/// are rejected rather than misparsed.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// The build's store-compatibility hash: FNV-1a over the format version,
/// the crate version, and the given energy-cost table.
///
/// [`model_version_hash`] instantiates this at the paper's 65 nm costs —
/// the table every [`Evaluator`] platform prices with. Exposed separately
/// so tests and tools can demonstrate that a different cost table yields
/// a different hash (and therefore rejects stale stores).
pub fn model_version_hash_for(costs: &EnergyCosts) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(u64::from(STORE_FORMAT_VERSION));
    for b in env!("CARGO_PKG_VERSION").bytes() {
        h.write_u8(b);
    }
    costs.fingerprint_into(&mut h);
    h.finish()
}

/// The hash baked into every store this build writes, and demanded of
/// every store it loads.
pub fn model_version_hash() -> u64 {
    model_version_hash_for(&EnergyCosts::paper_65nm())
}

/// One persisted schedule: the content-address key, its provenance, and
/// the compiled result with its priced energy and refresh traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreEntry {
    /// Content address: [`Scheduler::layer_key`](crate::scheduler::Scheduler::layer_key)
    /// of the layer under the scheduler that compiled it.
    pub key: u64,
    /// The layer's standalone shape fingerprint (provenance).
    pub layer_fp: u64,
    /// The scheduler's context fingerprint (provenance; `key` already
    /// composes both).
    pub ctx_fp: u64,
    /// Operating refresh interval the entry was compiled at, µs — the
    /// thermal-ladder rung for hedged entries, the design's nominal
    /// interval for base entries.
    pub interval_us: f64,
    /// [`Strategy::memo_key`](rana_policy::Strategy::memo_key) of the
    /// precompile pass that produced the entry. Advisory: strategies do
    /// not change Stage-2 results, so this is provenance, not address.
    pub strategy: (u8, u64),
    /// The compiled schedule: winning `(pattern, tiling)` analysis,
    /// refresh words, and Eq. 14 energy.
    pub schedule: LayerSchedule,
}

/// Why a store failed to load.
#[derive(Debug)]
pub enum StoreError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The bytes are not a well-formed store: parse failure, checksum
    /// mismatch, or entry-count mismatch. The message says which.
    Corrupt(String),
    /// The store was written by an incompatible build: its header hash
    /// (or format version) does not match this build's
    /// [`model_version_hash`].
    VersionMismatch {
        /// The hash (or version) recorded in the file.
        found: u64,
        /// The hash (or version) this build requires.
        expected: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            StoreError::VersionMismatch { found, expected } => {
                write!(f, "store version mismatch: found {found:#x}, expected {expected:#x}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

/// An in-memory collection of [`StoreEntry`]s, kept sorted by key, with
/// a deterministic JSONL serialization.
///
/// Equal contents always serialize to equal bytes: entries are sorted,
/// floats are written by exact bit pattern, and the writer emits no
/// timestamps or environment-dependent fields.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScheduleStore {
    entries: Vec<StoreEntry>,
}

impl ScheduleStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, sorted by key.
    pub fn entries(&self) -> &[StoreEntry] {
        &self.entries
    }

    /// Inserts an entry, keeping the collection sorted by key. Returns
    /// `true` if the key was new; an existing key is replaced (searches
    /// are deterministic, so the value is identical).
    pub fn insert(&mut self, entry: StoreEntry) -> bool {
        match self.entries.binary_search_by_key(&entry.key, |e| e.key) {
            Ok(i) => {
                self.entries[i] = entry;
                false
            }
            Err(i) => {
                self.entries.insert(i, entry);
                true
            }
        }
    }

    /// Preloads every entry into `cache` as *warm* (see
    /// [`ScheduleCache::preload`]), returning how many were offered.
    pub fn warm_start(&self, cache: &ScheduleCache) -> usize {
        for e in &self.entries {
            cache.preload(e.key, e.schedule.clone());
        }
        self.entries.len()
    }

    /// Serializes to the JSONL format under this build's
    /// [`model_version_hash`].
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_with_hash(model_version_hash())
    }

    /// [`Self::to_bytes`] under an explicit header hash — the hook tests
    /// and tools use to emit stores "from another build".
    pub fn to_bytes_with_hash(&self, model_hash: u64) -> Vec<u8> {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"format\":\"rana-schedule-store\",\"version\":{STORE_FORMAT_VERSION},\
             \"model_hash\":{model_hash},\"entries\":{}}}\n",
            self.entries.len()
        ));
        for e in &self.entries {
            write_entry(&mut out, e);
        }
        let mut h = Fnv1a::new();
        for b in out.bytes() {
            h.write_u8(b);
        }
        out.push_str(&format!("{{\"checksum\":{}}}\n", h.finish()));
        out.into_bytes()
    }

    /// Deserializes bytes produced by [`Self::to_bytes`], rejecting
    /// version mismatches and corruption.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        Self::from_bytes_with_hash(bytes, model_version_hash())
    }

    /// [`Self::from_bytes`] against an explicit expected hash — the hook
    /// tests use to simulate a bumped energy-model version.
    pub fn from_bytes_with_hash(bytes: &[u8], expected: u64) -> Result<Self, StoreError> {
        let text = std::str::from_utf8(bytes).map_err(|e| corrupt(format!("not UTF-8: {e}")))?;
        // Split off the trailing checksum line and verify it first:
        // corruption anywhere (including the header) must read as
        // Corrupt, not as a confusing parse error.
        let body_end = text
            .trim_end_matches('\n')
            .rfind('\n')
            .map(|i| i + 1)
            .ok_or_else(|| corrupt("missing checksum line"))?;
        let (body, tail) = text.split_at(body_end);
        let mut c = Cursor::new(tail.trim_end_matches('\n'));
        c.lit("{\"checksum\":")?;
        let stored_sum = c.u64()?;
        c.lit("}")?;
        c.end()?;
        let mut h = Fnv1a::new();
        for b in body.bytes() {
            h.write_u8(b);
        }
        if h.finish() != stored_sum {
            return Err(corrupt("checksum mismatch"));
        }

        let mut lines = body.lines();
        let header = lines.next().ok_or_else(|| corrupt("missing header line"))?;
        let mut c = Cursor::new(header);
        c.lit("{\"format\":\"rana-schedule-store\",\"version\":")?;
        let version = c.u64()?;
        if version != u64::from(STORE_FORMAT_VERSION) {
            return Err(StoreError::VersionMismatch {
                found: version,
                expected: u64::from(STORE_FORMAT_VERSION),
            });
        }
        c.lit(",\"model_hash\":")?;
        let hash = c.u64()?;
        if hash != expected {
            return Err(StoreError::VersionMismatch { found: hash, expected });
        }
        c.lit(",\"entries\":")?;
        let n = c.u64()? as usize;
        c.lit("}")?;
        c.end()?;

        let mut store = ScheduleStore::new();
        let mut parsed = 0usize;
        for line in lines {
            let entry = parse_entry(line)?;
            store.insert(entry);
            parsed += 1;
        }
        if parsed != n || store.len() != n {
            return Err(corrupt(format!(
                "entry count mismatch: header says {n}, found {parsed} ({} unique)",
                store.len()
            )));
        }
        Ok(store)
    }

    /// Writes the store to `path` ([`Self::to_bytes`] semantics).
    pub fn save(&self, path: &Path) -> Result<(), StoreError> {
        Ok(std::fs::write(path, self.to_bytes())?)
    }

    /// Loads a store from `path` ([`Self::from_bytes`] semantics).
    pub fn load(path: &Path) -> Result<Self, StoreError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

/// Serializes one entry as a single JSONL line. All floats are written
/// by [`f64::to_bits`] so deserialization is bit-exact; the layer name
/// is the only string field.
fn write_entry(out: &mut String, e: &StoreEntry) {
    let s = &e.schedule.sim;
    let en = &e.schedule.energy;
    let lt = &s.lifetimes;
    let tr = &s.traffic;
    out.push_str(&format!(
        concat!(
            "{{\"key\":{},\"layer_fp\":{},\"ctx_fp\":{},\"interval_bits\":{},",
            "\"strategy\":[{},{}],\"refresh_words\":{},\"energy_bits\":[{},{},{},{}],",
            "\"layer\":{},\"pattern\":{},\"tiling\":[{},{},{},{}],\"cycles\":{},",
            "\"time_bits\":{},\"macs\":{},\"util_bits\":{},\"storage\":[{},{},{}],",
            "\"fits\":{},\"lifetime_bits\":[{},{},{},{},{}],",
            "\"traffic\":[{},{},{},{},{},{},{},{},{}]}}\n"
        ),
        e.key,
        e.layer_fp,
        e.ctx_fp,
        e.interval_us.to_bits(),
        e.strategy.0,
        e.strategy.1,
        e.schedule.refresh_words,
        en.computing_j.to_bits(),
        en.buffer_j.to_bits(),
        en.refresh_j.to_bits(),
        en.offchip_j.to_bits(),
        json_string(&s.layer),
        match s.pattern {
            Pattern::Id => 0,
            Pattern::Od => 1,
            Pattern::Wd => 2,
        },
        s.tiling.tm,
        s.tiling.tn,
        s.tiling.tr,
        s.tiling.tc,
        s.cycles,
        s.time_us.to_bits(),
        s.macs,
        s.utilization.to_bits(),
        s.storage.input_words,
        s.storage.output_words,
        s.storage.weight_words,
        s.fits_buffer,
        lt.input_us.to_bits(),
        lt.output_us.to_bits(),
        lt.weight_us.to_bits(),
        lt.output_rewrite_us.to_bits(),
        lt.layer_us.to_bits(),
        tr.dram_input_loads,
        tr.dram_weight_loads,
        tr.dram_output_stores,
        tr.dram_partial_stores,
        tr.dram_partial_loads,
        tr.buf_input_reads,
        tr.buf_weight_reads,
        tr.buf_output_writes,
        tr.buf_output_reads,
    ));
}

/// Parses one line written by [`write_entry`].
fn parse_entry(line: &str) -> Result<StoreEntry, StoreError> {
    let mut c = Cursor::new(line);
    c.lit("{\"key\":")?;
    let key = c.u64()?;
    c.lit(",\"layer_fp\":")?;
    let layer_fp = c.u64()?;
    c.lit(",\"ctx_fp\":")?;
    let ctx_fp = c.u64()?;
    c.lit(",\"interval_bits\":")?;
    let interval_us = f64::from_bits(c.u64()?);
    c.lit(",\"strategy\":[")?;
    let sk = c.u64()?;
    let sk = u8::try_from(sk).map_err(|_| corrupt(format!("strategy kind {sk} out of range")))?;
    c.lit(",")?;
    let sp = c.u64()?;
    c.lit("],\"refresh_words\":")?;
    let refresh_words = c.u64()?;
    c.lit(",\"energy_bits\":[")?;
    let mut eb = [0.0f64; 4];
    for (i, slot) in eb.iter_mut().enumerate() {
        if i > 0 {
            c.lit(",")?;
        }
        *slot = f64::from_bits(c.u64()?);
    }
    c.lit("],\"layer\":")?;
    let layer = c.string()?;
    c.lit(",\"pattern\":")?;
    let pattern = match c.u64()? {
        0 => Pattern::Id,
        1 => Pattern::Od,
        2 => Pattern::Wd,
        p => return Err(corrupt(format!("unknown pattern code {p}"))),
    };
    c.lit(",\"tiling\":[")?;
    let mut t = [0usize; 4];
    for (i, slot) in t.iter_mut().enumerate() {
        if i > 0 {
            c.lit(",")?;
        }
        *slot = c.u64()? as usize;
    }
    c.lit("],\"cycles\":")?;
    let cycles = c.u64()?;
    c.lit(",\"time_bits\":")?;
    let time_us = f64::from_bits(c.u64()?);
    c.lit(",\"macs\":")?;
    let macs = c.u64()?;
    c.lit(",\"util_bits\":")?;
    let utilization = f64::from_bits(c.u64()?);
    c.lit(",\"storage\":[")?;
    let mut st = [0u64; 3];
    for (i, slot) in st.iter_mut().enumerate() {
        if i > 0 {
            c.lit(",")?;
        }
        *slot = c.u64()?;
    }
    c.lit("],\"fits\":")?;
    let fits_buffer = c.bool()?;
    c.lit(",\"lifetime_bits\":[")?;
    let mut lb = [0.0f64; 5];
    for (i, slot) in lb.iter_mut().enumerate() {
        if i > 0 {
            c.lit(",")?;
        }
        *slot = f64::from_bits(c.u64()?);
    }
    c.lit("],\"traffic\":[")?;
    let mut tf = [0u64; 9];
    for (i, slot) in tf.iter_mut().enumerate() {
        if i > 0 {
            c.lit(",")?;
        }
        *slot = c.u64()?;
    }
    c.lit("]}")?;
    c.end()?;

    Ok(StoreEntry {
        key,
        layer_fp,
        ctx_fp,
        interval_us,
        strategy: (sk, sp),
        schedule: LayerSchedule {
            sim: LayerSim {
                layer,
                pattern,
                tiling: Tiling::new(t[0], t[1], t[2], t[3]),
                cycles,
                time_us,
                macs,
                utilization,
                storage: Storage { input_words: st[0], output_words: st[1], weight_words: st[2] },
                fits_buffer,
                lifetimes: Lifetimes {
                    input_us: lb[0],
                    output_us: lb[1],
                    weight_us: lb[2],
                    output_rewrite_us: lb[3],
                    layer_us: lb[4],
                },
                traffic: Traffic {
                    dram_input_loads: tf[0],
                    dram_weight_loads: tf[1],
                    dram_output_stores: tf[2],
                    dram_partial_stores: tf[3],
                    dram_partial_loads: tf[4],
                    buf_input_reads: tf[5],
                    buf_weight_reads: tf[6],
                    buf_output_writes: tf[7],
                    buf_output_reads: tf[8],
                },
            },
            refresh_words,
            energy: EnergyBreakdown {
                computing_j: eb[0],
                buffer_j: eb[1],
                refresh_j: eb[2],
                offchip_j: eb[3],
            },
        },
    })
}

/// A strict prefix-scanning parser over one line of store text. The
/// writer is canonical (no optional whitespace, fixed field order), so
/// the reader demands the exact bytes and reports the first divergence.
struct Cursor<'a> {
    s: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str) -> Self {
        Self { s }
    }

    fn lit(&mut self, lit: &str) -> Result<(), StoreError> {
        match self.s.strip_prefix(lit) {
            Some(rest) => {
                self.s = rest;
                Ok(())
            }
            None => {
                let got: String = self.s.chars().take(24).collect();
                Err(corrupt(format!("expected `{lit}`, found `{got}`")))
            }
        }
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        let end = self.s.find(|c: char| !c.is_ascii_digit()).unwrap_or(self.s.len());
        if end == 0 {
            let got: String = self.s.chars().take(8).collect();
            return Err(corrupt(format!("expected number, found `{got}`")));
        }
        let v = self.s[..end].parse().map_err(|e| corrupt(format!("bad number: {e}")))?;
        self.s = &self.s[end..];
        Ok(v)
    }

    fn bool(&mut self) -> Result<bool, StoreError> {
        if self.lit("true").is_ok() {
            Ok(true)
        } else if self.lit("false").is_ok() {
            Ok(false)
        } else {
            Err(corrupt("expected boolean"))
        }
    }

    /// A quoted string in [`json_string`] form (the five escapes plus
    /// `\u00XX` control codes).
    fn string(&mut self) -> Result<String, StoreError> {
        self.lit("\"")?;
        let mut out = String::new();
        let mut chars = self.s.char_indices();
        loop {
            let (i, ch) = chars.next().ok_or_else(|| corrupt("unterminated string"))?;
            match ch {
                '"' => {
                    self.s = &self.s[i + ch.len_utf8()..];
                    return Ok(out);
                }
                '\\' => {
                    let (_, esc) = chars.next().ok_or_else(|| corrupt("truncated escape"))?;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let (_, h) =
                                    chars.next().ok_or_else(|| corrupt("truncated \\u escape"))?;
                                let d = h
                                    .to_digit(16)
                                    .ok_or_else(|| corrupt(format!("bad hex digit `{h}`")))?;
                                code = code * 16 + d;
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| corrupt(format!("bad codepoint {code}")))?,
                            );
                        }
                        e => return Err(corrupt(format!("unknown escape `\\{e}`"))),
                    }
                }
                ch => out.push(ch),
            }
        }
    }

    fn end(&self) -> Result<(), StoreError> {
        if self.s.is_empty() {
            Ok(())
        } else {
            let got: String = self.s.chars().take(24).collect();
            Err(corrupt(format!("trailing bytes `{got}`")))
        }
    }
}

// ---------------------------------------------------------------------------
// Precompilation: populate a store with the schedules serving will need.

/// What to precompile: the cross product of design points, bank
/// partitions, and thermal-ladder rungs the serving and fleet loops will
/// look up at run time.
#[derive(Debug, Clone)]
pub struct PrecompileSpec {
    /// Design points to compile for.
    pub designs: Vec<Design>,
    /// Buffer bank partitions to compile at; empty means the design's
    /// full buffer only. Serving partitions the buffer per tenant, so a
    /// serve warm start needs each tenant's bank count (and the full
    /// buffer, which `Server::new`'s isolated-latency probes use).
    pub bank_counts: Vec<usize>,
    /// Octaves of thermal derating to cover below the nominal interval.
    pub ladder_octaves: u32,
    /// Rungs per octave — must match the serving configuration's
    /// `ladder_steps_per_octave` for the rung bit patterns to coincide.
    pub ladder_steps_per_octave: u32,
    /// Refresh-cost hedge applied to online reschedules (the serving
    /// loops' `reschedule_refresh_weight`; PR 3 semantics).
    pub reschedule_refresh_weight: f64,
    /// Strategies to tag entries with. Stage-2 results are
    /// strategy-invariant, so the grid collapses: each entry is stored
    /// once, tagged with the first strategy listed (or the design's
    /// default when empty).
    pub strategies: Vec<Strategy>,
}

impl Default for PrecompileSpec {
    /// The paper serving operating point: full buffer, four octaves of
    /// derating at four rungs per octave, 4× reschedule hedge.
    fn default() -> Self {
        Self {
            designs: vec![Design::RanaStarE5],
            bank_counts: Vec::new(),
            ladder_octaves: 4,
            ladder_steps_per_octave: LADDER_STEPS_PER_OCTAVE,
            reschedule_refresh_weight: RESCHEDULE_REFRESH_WEIGHT,
            strategies: Vec::new(),
        }
    }
}

/// What [`precompile`] did.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrecompileStats {
    /// Unique Stage-2 searches actually run.
    pub searches: u64,
    /// Entries newly added to the store.
    pub entries_added: usize,
    /// Ladder rungs covered per (design, banks) point, nominal included.
    pub rungs: usize,
}

impl PrecompileSpec {
    /// Ladder rungs per (design, banks) point, nominal included:
    /// `ladder_octaves × ladder_steps_per_octave + 1`, or `None` when that
    /// overflows `u32`.
    pub fn rung_count(&self) -> Option<u32> {
        self.ladder_octaves.checked_mul(self.ladder_steps_per_octave)?.checked_add(1)
    }
}

/// Runs the Stage-2 searches for `networks` across `spec`'s grid and
/// inserts every finished schedule into `store`.
///
/// For each (design, bank count, network) it builds the same network walk
/// `rana-serve` and `rana-fleet` run online, then walks every ladder rung
/// ([`rung_us`], divider-quantized) through it. Serving only ever operates
/// at those rungs, so the keys of a warm-started run agree with the
/// store's by construction. The rungs of one walk form one search group:
/// each layer is searched once for every rung that reschedules it.
///
/// # Panics
///
/// Panics if the ladder has no step per octave, its rung count overflows
/// `u32`, or the refresh weight is below 1.
pub fn precompile(
    eval: &Evaluator,
    networks: &[Network],
    spec: &PrecompileSpec,
    store: &mut ScheduleStore,
) -> PrecompileStats {
    check_ladder_steps(spec.ladder_steps_per_octave);
    check_refresh_weight(spec.reschedule_refresh_weight);
    let rungs = spec.rung_count().expect("ladder rung count overflows u32");
    let cache = ScheduleCache::new();
    // key → ((layer_fp, ctx_fp, interval), strategy) provenance, recorded
    // alongside every search so the harvest below can annotate entries.
    let mut meta = HashMap::new();

    for &design in &spec.designs {
        let template = eval.scheduler_for(design);
        let strategy = spec
            .strategies
            .first()
            .copied()
            .unwrap_or(Strategy::for_kind(template.refresh.kind))
            .memo_key();
        let full = template.cfg.buffer.num_banks;
        let banks_list: Vec<usize> =
            if spec.bank_counts.is_empty() { vec![full] } else { spec.bank_counts.clone() };
        // The divider-quantized rung intervals, nominal first. Adjacent
        // rungs that quantize to one divider are one scheduling context,
        // so each is walked once.
        let mut intervals: Vec<f64> = Vec::new();
        for k in 0..rungs {
            let rung = rung_us(template.refresh.interval_us, spec.ladder_steps_per_octave, k);
            let interval_us = quantize(template.cfg.frequency_hz, rung).1;
            if intervals.last() != Some(&interval_us) {
                intervals.push(interval_us);
            }
        }

        for &banks in &banks_list {
            for net in networks {
                let plan = NetworkPlan::new(&template, banks, net, &cache);
                let mut record = |s: &Scheduler, l: &SchedLayer| {
                    let provenance = (l.fingerprint(), s.fingerprint(), s.refresh.interval_us);
                    meta.entry(s.layer_key(l)).or_insert((provenance, strategy));
                };
                for l in &plan.layers {
                    record(&plan.nominal, l);
                }
                let ladder: Vec<Scheduler> = intervals
                    .iter()
                    .map(|&iv| hedged(&plan.nominal, iv, spec.reschedule_refresh_weight))
                    .collect();
                for (hedged, chosen) in ladder.iter().zip(plan.choose(&ladder, &cache)) {
                    for (l, chosen) in plan.layers.iter().zip(chosen) {
                        if let Cow::Owned(_) = chosen {
                            record(hedged, l);
                        }
                    }
                }
            }
        }
    }

    let rungs = rungs as usize;
    let mut stats = PrecompileStats { searches: cache.misses(), entries_added: 0, rungs };
    for (key, sched) in cache.entries() {
        let &((layer_fp, ctx_fp, interval_us), strategy) =
            meta.get(&key).expect("every cached search was recorded");
        let added = store.insert(StoreEntry {
            key,
            layer_fp,
            ctx_fp,
            interval_us,
            strategy,
            schedule: sched,
        });
        if added {
            stats.entries_added += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_store() -> ScheduleStore {
        let eval = Evaluator::paper_platform();
        let mut store = ScheduleStore::new();
        let spec = PrecompileSpec {
            ladder_octaves: 1,
            ladder_steps_per_octave: 2,
            ..PrecompileSpec::default()
        };
        precompile(&eval, &[rana_zoo::alexnet()], &spec, &mut store);
        store
    }

    #[test]
    fn precompile_populates_and_roundtrips() {
        let store = small_store();
        assert!(store.len() >= 5, "alexnet has 5 distinct conv shapes, got {}", store.len());
        let bytes = store.to_bytes();
        assert_eq!(bytes, store.to_bytes(), "serialization is deterministic");
        let back = ScheduleStore::from_bytes(&bytes).expect("round-trip");
        assert_eq!(back, store);
    }

    #[test]
    fn warm_start_fills_a_cache_with_warm_entries() {
        let store = small_store();
        let cache = ScheduleCache::new();
        assert_eq!(store.warm_start(&cache), store.len());
        assert_eq!(cache.warm_len(), store.len());
        let key = store.entries()[0].key;
        assert!(cache.get(key).is_some());
        assert_eq!(cache.warm_hits(), 1);
    }

    #[test]
    fn version_mismatch_rejects_stale_stores() {
        let store = small_store();
        let stale = store.to_bytes_with_hash(model_version_hash() ^ 1);
        match ScheduleStore::from_bytes(&stale) {
            Err(StoreError::VersionMismatch { found, expected }) => {
                assert_eq!(found, model_version_hash() ^ 1);
                assert_eq!(expected, model_version_hash());
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn different_energy_costs_change_the_version_hash() {
        let costs = EnergyCosts::paper_65nm();
        let mut cheaper = costs;
        cheaper.edram_refresh_pj /= 2.0;
        assert_ne!(model_version_hash_for(&costs), model_version_hash_for(&cheaper));
        assert_eq!(model_version_hash(), model_version_hash_for(&costs));
    }

    #[test]
    fn corruption_is_detected() {
        let store = small_store();
        let bytes = store.to_bytes();
        // Flip one digit somewhere in the middle of an entry line.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        let pos = (mid..flipped.len())
            .find(|&i| flipped[i].is_ascii_digit())
            .expect("store text contains digits");
        flipped[pos] = if flipped[pos] == b'9' { b'0' } else { flipped[pos] + 1 };
        assert!(
            matches!(ScheduleStore::from_bytes(&flipped), Err(StoreError::Corrupt(_))),
            "bit flip must fail the checksum"
        );
        // Truncation loses the checksum line (or breaks it).
        let truncated = &bytes[..bytes.len() * 2 / 3];
        assert!(matches!(ScheduleStore::from_bytes(truncated), Err(StoreError::Corrupt(_))));
    }
}
