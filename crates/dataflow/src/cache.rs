//! The incremental summary cache (content-addressed, two-level).
//!
//! Algorithm 2 makes a function's final summary a pure function of
//! (a) its own post-alias local summary, (b) the final summaries of its
//! out-of-component callees, (c) the indirect-call resolution at its
//! call sites, and (d) the analysis configuration. That purity is what
//! makes summary reuse across scans sound: key each serialized summary
//! by an FNV content hash of what determines those inputs (for (a), the
//! function's raw bytes), composed bottom-up
//! over the SCC condensation, and a re-scan of a modified image misses
//! only on the changed functions and their transitive callers.
//!
//! Two levels share one store:
//!
//! * **symex** — the per-function local summary, keyed by the function's
//!   raw bytes under a config salt. A hit skips symbolic execution.
//! * **ddg** — the final (post-propagation) summary plus its sink
//!   observations, keyed by the function's raw bytes (its local summary
//!   is a function of them, the config and the environment digest)
//!   composed with every callee's final key (whole-SCC granularity for
//!   recursive components: members treat each other as opaque, so the
//!   sorted member hashes stand in for the cycle). A hit skips the
//!   Algorithm 2 inner loop for that function.
//!
//! Keys bake in an **environment digest** (sections, symbols, imports)
//! and a **config salt** — including the fault-drill `panic_on` knobs,
//! so a drilled scan never hits entries produced by a healthy one — but
//! never thread counts or trace settings, which are observationally
//! irrelevant. Blobs are pool-free ([`dtaint_symex::encode`]); unknowns
//! rehydrate through per-scan ownership tables, renumbered onto the
//! destination pool in the order a cold run would create them.
//!
//! Functions whose symex stage reported any non-`Analyzed` outcome are
//! the scan's quarantine (the `quarantine` argument of
//! [`crate::build_dataflow_judged`]) and are never stored (their keys
//! still exist, so callers above them can hit).

use dtaint_fwbin::{Binary, Symbol};
use dtaint_symex::{fnv64, Fnv64, SymexConfig, STACK_ARGS};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::alias::AliasMode;
use crate::interproc::{BoundsMode, DataflowConfig, MAX_SINKS_PER_FN, SINK_NAMES};

/// Which cache level an entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Local (pre-interprocedural) function summaries.
    Symex,
    /// Final summaries with sink observations.
    Ddg,
}

/// Per-scan hit/miss accounting, queryable by scan label.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanStats {
    /// Symex-level hits.
    pub sym_hits: u64,
    /// Symex-level misses.
    pub sym_misses: u64,
    /// DDG-level hits.
    pub ddg_hits: u64,
    /// DDG-level misses.
    pub ddg_misses: u64,
    /// Misses where the same scan label previously recorded a
    /// *different* key for the same function — i.e. the function (or
    /// something below it) changed between scans.
    pub invalidations: u64,
    /// Blobs written by this scan.
    pub stores: u64,
    /// Names of the functions that missed at the symex level.
    pub sym_miss_fns: BTreeSet<String>,
    /// Names of the functions that missed at the DDG level.
    pub ddg_miss_fns: BTreeSet<String>,
}

/// Whole-cache totals across every scan since load.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheTotals {
    /// Hits across both levels.
    pub hits: u64,
    /// Misses across both levels.
    pub misses: u64,
    /// Key-changed misses.
    pub invalidations: u64,
    /// Blobs written.
    pub stores: u64,
    /// Entries currently held (both levels).
    pub entries: usize,
}

/// One entry held as its complete `DTC2` record — marker, level tag,
/// key, blob length, blob, checksum — so the checksum is computed once
/// (when the entry is stored, or verified on load). Records are shared,
/// so a snapshot or a lookup holds a handle on one instead of copying
/// its bytes. A record dereferences to its blob.
#[derive(Debug, Clone)]
pub struct Record(Arc<[u8]>);

impl Record {
    /// Bytes before the blob: marker, tag, key, length.
    const HEAD: usize = 15;
    /// Bytes after the blob: the checksum.
    const TAIL: usize = 8;

    fn frame(tag: u8, key: u64, blob: &[u8]) -> Record {
        let mut rec = Vec::with_capacity(Self::HEAD + blob.len() + Self::TAIL);
        rec.extend_from_slice(&RECORD_MARKER);
        rec.push(tag);
        rec.extend_from_slice(&key.to_le_bytes());
        rec.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        rec.extend_from_slice(blob);
        let check = fnv64(&rec[2..]);
        rec.extend_from_slice(&check.to_le_bytes());
        Record(rec.into())
    }
}

impl std::ops::Deref for Record {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0[Self::HEAD..self.0.len() - Self::TAIL]
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// Key-ordered, so a snapshot writes records in `DTC2` order as-is.
    sym: BTreeMap<u64, Record>,
    ddg: BTreeMap<u64, Record>,
    /// `(scan label, level, function addr) → last key`, across scans —
    /// how a re-scan's key changes are classified as invalidations.
    seen: HashMap<(String, u8, u32), u64>,
    stats: HashMap<String, ScanStats>,
    totals: CacheTotals,
}

impl Inner {
    fn insert(&mut self, tag: u8, key: u64, rec: Record) {
        let map = if tag == 0 { &mut self.sym } else { &mut self.ddg };
        map.insert(key, rec);
    }

    /// Every held entry as `DTC2` parts: a 16-byte header (magic, entry
    /// count, FNV of the first 8 header bytes), then handles on the
    /// records, symex level first, each level key-sorted.
    fn snapshot(&self) -> CacheSnapshot {
        let count = (self.sym.len() + self.ddg.len()) as u32;
        let mut header = [0u8; 16];
        header[..4].copy_from_slice(&CACHE_MAGIC);
        header[4..8].copy_from_slice(&count.to_le_bytes());
        let head_check = fnv64(&header[..8]);
        header[8..].copy_from_slice(&head_check.to_le_bytes());
        CacheSnapshot {
            generation: self.totals.stores,
            header,
            records: self.sym.values().chain(self.ddg.values()).map(|r| r.0.clone()).collect(),
        }
    }
}

/// The shared blob store. All methods take `&self`; one instance serves
/// every worker thread of every concurrent scan.
#[derive(Debug, Default)]
pub struct SummaryCache {
    inner: Mutex<Inner>,
}

/// Magic bytes opening the current (`DTC2`) on-disk cache file.
pub const CACHE_MAGIC: [u8; 4] = *b"DTC2";

/// Marker bytes opening every `DTC2` record — the resync anchor the
/// salvaging parser scans for after a damaged record.
pub const RECORD_MARKER: [u8; 2] = [0xD7, 0xC2];

/// What format the loaded cache file turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheFormat {
    /// No file on disk.
    Missing,
    /// Current checksummed format.
    Dtc2,
    /// Not a `DTC2` file — a cold start.
    Unrecognized,
}

/// What a [`SummaryCache::load_with_report`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLoadReport {
    /// Detected file format.
    pub format: CacheFormat,
    /// Entries actually loaded into the cache.
    pub entries: usize,
    /// Entries recovered from a *damaged* `DTC2` file (0 for a clean
    /// load — salvage only counts what survived damage).
    pub salvaged: u64,
    /// Entries the header promised but the file no longer delivers
    /// (truncated or checksum-failed records). 0 when the header itself
    /// is damaged: the promise is unreadable.
    pub discarded: u64,
    /// Whether any damage was detected (header, records, or trailing
    /// garbage).
    pub damaged: bool,
}

impl CacheLoadReport {
    fn clean(format: CacheFormat, entries: usize) -> Self {
        CacheLoadReport { format, entries, salvaged: 0, discarded: 0, damaged: false }
    }
}

/// A `DTC2` snapshot tagged with the store generation it captures. It
/// holds the header plus shared handles on the records, so taking one
/// copies no record bytes.
#[derive(Debug, Clone)]
pub struct CacheSnapshot {
    /// [`CacheTotals::stores`] when the snapshot was taken: a later
    /// snapshot with the same generation holds the same entries.
    pub generation: u64,
    header: [u8; 16],
    records: Vec<Arc<[u8]>>,
}

impl CacheSnapshot {
    /// The serialized cache in file order, header first; concatenated,
    /// the parts are what [`SummaryCache::to_bytes`] returned when the
    /// snapshot was taken.
    pub fn parts(&self) -> Vec<&[u8]> {
        std::iter::once(&self.header[..]).chain(self.records.iter().map(|r| &r[..])).collect()
    }
}

impl SummaryCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the per-scan statistics for `scan` (the seen-key table
    /// survives, so invalidations across repeated scans keep counting).
    pub fn begin_scan(&self, scan: &str) {
        let mut g = self.inner.lock().unwrap();
        g.stats.insert(scan.to_owned(), ScanStats::default());
    }

    /// The record stored under `key`, if any, read as its blob in
    /// place. Pure lookup — call [`Self::settle`] once the decode
    /// attempt decides what actually happened.
    pub fn lookup_blob(&self, level: Level, key: u64) -> Option<Record> {
        let g = self.inner.lock().unwrap();
        let map = match level {
            Level::Symex => &g.sym,
            Level::Ddg => &g.ddg,
        };
        map.get(&key).cloned()
    }

    /// Settles one function's probe for `scan`: counts a `hit`, or
    /// counts a miss (an invalidation when `addr` had another key
    /// before) and, when the function has a `key` and `blob` yields
    /// bytes, stores them. `blob` runs only on a keyed miss and returns
    /// `None` for a function that must not be cached (a faulted or
    /// partial result), so an ineligible function is never stored.
    #[allow(clippy::too_many_arguments)]
    pub fn settle(
        &self,
        level: Level,
        scan: &str,
        addr: u32,
        name: &str,
        key: Option<u64>,
        hit: bool,
        blob: impl FnOnce() -> Option<Vec<u8>>,
    ) {
        if hit {
            if let Some(k) = key {
                self.note_hit(level, scan, addr, k);
            }
            return;
        }
        self.note_miss(level, scan, name, addr, key);
        if let Some((k, b)) = key.and_then(|k| Some((k, blob()?))) {
            self.store(level, scan, k, b);
        }
    }

    /// Records a served hit for `scan`.
    fn note_hit(&self, level: Level, scan: &str, addr: u32, key: u64) {
        let mut g = self.inner.lock().unwrap();
        g.seen.insert((scan.to_owned(), level_tag(level), addr), key);
        let st = g.stats.entry(scan.to_owned()).or_default();
        match level {
            Level::Symex => st.sym_hits += 1,
            Level::Ddg => st.ddg_hits += 1,
        }
        g.totals.hits += 1;
    }

    /// Records a miss for `scan`; a previously-seen different key for
    /// the same `(scan, level, addr)` also counts as an invalidation.
    fn note_miss(&self, level: Level, scan: &str, fn_name: &str, addr: u32, key: Option<u64>) {
        let mut g = self.inner.lock().unwrap();
        let mut invalidated = false;
        if let Some(k) = key {
            let prev = g.seen.insert((scan.to_owned(), level_tag(level), addr), k);
            invalidated = prev.is_some_and(|p| p != k);
        }
        let st = g.stats.entry(scan.to_owned()).or_default();
        match level {
            Level::Symex => {
                st.sym_misses += 1;
                st.sym_miss_fns.insert(fn_name.to_owned());
            }
            Level::Ddg => {
                st.ddg_misses += 1;
                st.ddg_miss_fns.insert(fn_name.to_owned());
            }
        }
        if invalidated {
            st.invalidations += 1;
        }
        g.totals.misses += 1;
        if invalidated {
            g.totals.invalidations += 1;
        }
    }

    /// Stores a blob under `key`, crediting `scan`.
    pub fn store(&self, level: Level, scan: &str, key: u64, blob: Vec<u8>) {
        let tag = level_tag(level);
        let rec = Record::frame(tag, key, &blob);
        let mut g = self.inner.lock().unwrap();
        g.insert(tag, key, rec);
        g.stats.entry(scan.to_owned()).or_default().stores += 1;
        g.totals.stores += 1;
    }

    /// The statistics accumulated for `scan` since its last
    /// [`Self::begin_scan`].
    pub fn scan_stats(&self, scan: &str) -> ScanStats {
        self.inner.lock().unwrap().stats.get(scan).cloned().unwrap_or_default()
    }

    /// Whole-cache totals.
    pub fn totals(&self) -> CacheTotals {
        let g = self.inner.lock().unwrap();
        CacheTotals { entries: g.sym.len() + g.ddg.len(), ..g.totals }
    }

    /// Serialises both levels as `DTC2` bytes: a 16-byte header (magic,
    /// entry count, FNV of the first 8 header bytes) then key-sorted,
    /// individually checksummed records. Statistics and the seen-key
    /// table are per-process and not persisted.
    pub fn to_bytes(&self) -> Vec<u8> {
        let snap = self.inner.lock().unwrap().snapshot();
        snap.parts().concat()
    }

    /// Takes a snapshot only if the store generation is newer than
    /// `durable`: the generation of the newest snapshot on disk, `None`
    /// when that file is missing or damaged. Checked and taken under one
    /// lock, so the records are exactly the entries of the generation
    /// they carry.
    pub fn snapshot_newer_than(&self, durable: Option<u64>) -> Option<CacheSnapshot> {
        let g = self.inner.lock().unwrap();
        durable.is_none_or(|d| g.totals.stores > d).then(|| g.snapshot())
    }

    /// Deserialises cache bytes, salvaging what survives damage. `DTC2`
    /// bytes recover every record whose checksum holds (resyncing on the
    /// record marker after damage); anything else is a cold start. Never
    /// an error: a cache is advisory.
    pub fn from_bytes(bytes: &[u8]) -> (Self, CacheLoadReport) {
        let cache = Self::new();
        if bytes.get(..4) == Some(&CACHE_MAGIC) {
            let report = parse_dtc2(bytes, &mut cache.inner.lock().unwrap());
            return (cache, report);
        }
        let format =
            if bytes.is_empty() { CacheFormat::Missing } else { CacheFormat::Unrecognized };
        let damaged = format == CacheFormat::Unrecognized;
        (cache, CacheLoadReport { damaged, ..CacheLoadReport::clean(format, 0) })
    }

    /// Loads the cache at `path` with a full [`CacheLoadReport`]. A
    /// missing file is an empty cache ([`CacheFormat::Missing`]).
    pub fn load_with_report(path: &Path) -> (Self, CacheLoadReport) {
        match std::fs::read(path) {
            Ok(bytes) => Self::from_bytes(&bytes),
            Err(_) => (Self::new(), CacheLoadReport::clean(CacheFormat::Missing, 0)),
        }
    }
}

/// Parses `DTC2` bytes into `inner`, salvaging intact records. The
/// header's entry count (when its own checksum holds) is the promise
/// that prices the damage: `discarded = promised − loaded`.
fn parse_dtc2(bytes: &[u8], inner: &mut Inner) -> CacheLoadReport {
    let header_ok = bytes.len() >= 16
        && fnv64(&bytes[..8]) == u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let promised: Option<u64> =
        header_ok.then(|| u64::from(u32::from_le_bytes(bytes[4..8].try_into().unwrap())));

    let mut loaded = 0u64;
    let mut damaged = !header_ok;
    let mut pos = 16.min(bytes.len());
    while pos < bytes.len() {
        match parse_record(bytes, pos) {
            Some((tag, key, next)) => {
                // Verified: keep the framed bytes, checksum included.
                inner.insert(tag, key, Record(bytes[pos..next].into()));
                loaded += 1;
                pos = next;
            }
            None => {
                // Damage: resync on the next record marker strictly
                // past this position (the marker here, if any, fronted
                // the bad record).
                damaged = true;
                match find_marker(bytes, pos + 1) {
                    Some(at) => pos = at,
                    None => break,
                }
            }
        }
    }
    if promised.is_some_and(|p| p != loaded) {
        damaged = true;
    }
    let entries = inner.sym.len() + inner.ddg.len();
    CacheLoadReport {
        format: CacheFormat::Dtc2,
        entries,
        salvaged: if damaged { loaded } else { 0 },
        discarded: promised.map_or(0, |p| p.saturating_sub(loaded)),
        damaged,
    }
}

/// Tries to parse one record at `pos`; returns `(level tag, key, next
/// pos)` only when the marker, bounds, level, and checksum all hold.
fn parse_record(bytes: &[u8], pos: usize) -> Option<(u8, u64, usize)> {
    if bytes.get(pos..pos + 2)? != RECORD_MARKER {
        return None;
    }
    let body = pos + 2;
    let tag = *bytes.get(body)?;
    if tag > 1 {
        return None;
    }
    let key = u64::from_le_bytes(bytes.get(body + 1..body + 9)?.try_into().ok()?);
    let len = u32::from_le_bytes(bytes.get(body + 9..body + 13)?.try_into().ok()?) as usize;
    let blob_end = (body + 13).checked_add(len)?;
    let check = u64::from_le_bytes(bytes.get(blob_end..blob_end + 8)?.try_into().ok()?);
    if fnv64(&bytes[body..blob_end]) != check {
        return None;
    }
    Some((tag, key, blob_end + 8))
}

/// First offset `>= from` where the record marker occurs.
fn find_marker(bytes: &[u8], from: usize) -> Option<usize> {
    (from..bytes.len().checked_sub(1)?).find(|&i| bytes[i..i + 2] == RECORD_MARKER)
}

fn level_tag(level: Level) -> u8 {
    match level {
        Level::Symex => 0,
        Level::Ddg => 1,
    }
}

/// A scan's handle on the shared cache, carried inside the stage
/// configs. Cloning shares the underlying store.
#[derive(Debug, Clone)]
pub struct CacheRef {
    /// The shared blob store.
    pub cache: Arc<SummaryCache>,
    /// Scan label (usually the image name) for statistics and
    /// invalidation tracking.
    pub scan: String,
}

impl CacheRef {
    /// A handle on `cache` for the scan labelled `scan`.
    pub fn new(cache: Arc<SummaryCache>, scan: impl Into<String>) -> Self {
        CacheRef { cache, scan: scan.into() }
    }
}

// --- Key derivation -------------------------------------------------

/// Digest of everything about the binary that is not one function's own
/// bytes: architecture, entry point, section layout (with the data of
/// every non-text section — rodata literals and globals feed the
/// analysis), the symbol table, and the import table.
pub fn env_digest(bin: &Binary) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("dtaint-env/v1");
    h.write_u8(bin.arch as u8);
    h.write_u32(bin.entry);
    h.write_u32(bin.sections.len() as u32);
    for s in &bin.sections {
        h.write_str(&s.name);
        h.write_u8(section_kind_tag(s.kind));
        h.write_u32(s.addr);
        h.write_u32(s.size);
        if s.kind != dtaint_fwbin::SectionKind::Text {
            h.write(&s.data);
        }
    }
    h.write_u32(bin.symbols.len() as u32);
    for s in &bin.symbols {
        h.write_str(&s.name);
        h.write_u32(s.addr);
        h.write_u32(s.size);
        h.write_u8(matches!(s.kind, dtaint_fwbin::SymbolKind::Function) as u8);
    }
    h.write_u32(bin.imports.len() as u32);
    for i in &bin.imports {
        h.write_str(&i.name);
        h.write_u32(i.stub_addr);
    }
    h.finish()
}

fn section_kind_tag(k: dtaint_fwbin::SectionKind) -> u8 {
    use dtaint_fwbin::SectionKind::*;
    match k {
        Text => 0,
        Plt => 1,
        RoData => 2,
        Data => 3,
        Bss => 4,
    }
}

/// Salt for symex-level keys: environment digest plus every
/// [`SymexConfig`] knob that can change a local summary. `panic_on` is
/// included so fault-drilled scans never hit healthy entries.
pub fn sym_salt(env: u64, cfg: &SymexConfig) -> u64 {
    let mut h = Fnv64::new();
    // v3: the blob carries the function's shape after the summary.
    h.write_str("dtaint-symex/v3");
    h.write_u64(env);
    h.write_u32(cfg.max_paths);
    h.write_u32(cfg.max_blocks_per_path);
    h.write_u8(STACK_ARGS);
    h.write_u32(cfg.max_fuel);
    write_opt_u32(&mut h, cfg.panic_on);
    h.finish()
}

/// Salt for DDG-level keys: environment digest plus every
/// [`DataflowConfig`] knob that can change a final summary, and the
/// sink list and cap the propagation is built with. Thread count and
/// tracing are observationally irrelevant and excluded.
pub fn ddg_salt(env: u64, cfg: &DataflowConfig) -> u64 {
    let mut h = Fnv64::new();
    // v2: alias mode/budget knobs joined the salt and the summary blob
    // encoding gained the SSE counters; v1 blobs must never match.
    h.write_str("dtaint-ddg/v2");
    h.write_u64(env);
    // An on/off byte, then the algorithm's tag, with off keeping the
    // SSE tag: the bytes every stored key was hashed with.
    let (on, tag) = match cfg.alias.mode {
        AliasMode::Off => (0, 1),
        AliasMode::Store => (1, 0),
        AliasMode::Sse => (1, 1),
    };
    h.write_u8(on);
    h.write_u8(tag);
    h.write_u32(cfg.alias.max_depth);
    h.write_u32(cfg.alias.max_rounds);
    h.write_u8(cfg.enable_indirect as u8);
    let mut sinks = SINK_NAMES;
    sinks.sort_unstable();
    h.write_u32(sinks.len() as u32);
    for s in sinks {
        h.write_str(s);
    }
    h.write_u8(cfg.loop_copy_sinks as u8);
    h.write_u64(MAX_SINKS_PER_FN as u64);
    // Only interval mode changes propagation (it prunes infeasible
    // paths); the other two judge the same final summaries.
    h.write_u8(u8::from(cfg.bounds == BoundsMode::Interval));
    h.write_u64(cfg.max_fuel);
    write_opt_u32(&mut h, cfg.panic_on);
    h.finish()
}

fn write_opt_u32(h: &mut Fnv64, v: Option<u32>) {
    match v {
        Some(x) => {
            h.write_u8(1);
            h.write_u32(x);
        }
        None => h.write_u8(0),
    }
}

/// Content hash of one function: salt, identity, and raw machine bytes
/// only. Deliberately *not* any rendering of the symbolic summary: the
/// local summary is a deterministic function of the bytes plus the
/// config (in the salt) and the rest-of-image context (in the
/// environment digest), while its pool *structure* varies with the
/// merge path that absorbed it (the parallel merge rebuilds expressions
/// through normalizing constructors), so hashing it would make keys
/// thread-count-dependent.
pub fn function_content_hash(salt: u64, addr: u32, name: &str, bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(salt);
    h.write_u32(addr);
    h.write_str(name);
    h.write_u32(bytes.len() as u32);
    h.write(bytes);
    h.finish()
}

/// [`function_content_hash`] of one function symbol over its own bytes,
/// `[addr, addr + size)` — not those of whichever symbol covers its
/// entry first, which differ when symbols overlap. `None` for an empty
/// symbol or unmapped bytes.
pub fn symbol_content_hash(salt: u64, bin: &Binary, sym: &Symbol) -> Option<u64> {
    if sym.size == 0 {
        return None;
    }
    let bytes = bin.bytes_at(sym.addr, sym.size)?;
    Some(function_content_hash(salt, sym.addr, &sym.name, &bytes))
}

/// Per-call-site marker kinds for [`compose_final_key`]. Encoded into
/// the key in call-site order, so the key captures exactly what
/// Algorithm 2's inner loop will consume at each site.
pub mod marker {
    use super::Fnv64;

    /// A call to an import (sink or benign) — keyed by name.
    pub fn import(name: &str) -> u64 {
        let mut h = Fnv64::new();
        h.write_u8(1);
        h.write_str(name);
        h.finish()
    }

    /// A callee inside the caller's own SCC (treated as opaque).
    pub fn same_scc() -> u64 {
        let mut h = Fnv64::new();
        h.write_u8(2);
        h.finish()
    }

    /// An indirect call the resolver left unresolved this scan.
    pub fn unresolved() -> u64 {
        let mut h = Fnv64::new();
        h.write_u8(3);
        h.finish()
    }

    /// A direct callee with no final summary (call into no known
    /// function) — keyed by target address.
    pub fn absent(addr: u32) -> u64 {
        let mut h = Fnv64::new();
        h.write_u8(4);
        h.write_u32(addr);
        h.finish()
    }
}

/// Composes a function's final scan key from its own content hash, the
/// combined hash of its SCC (multi-member components only: the sorted
/// member hashes, because members consume each other only as opaque
/// boundaries), and the per-call-site markers in call-site order.
pub fn compose_final_key(salt: u64, own: u64, scc_combined: Option<u64>, markers: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("dtaint-final/v1");
    h.write_u64(salt);
    h.write_u64(own);
    match scc_combined {
        Some(c) => {
            h.write_u8(1);
            h.write_u64(c);
        }
        None => h.write_u8(0),
    }
    h.write_u32(markers.len() as u32);
    for &m in markers {
        h.write_u64(m);
    }
    h.finish()
}

/// Combined hash of a multi-member SCC: the sorted `(addr, own hash)`
/// pairs of its members.
pub fn combine_scc(members: &[(u32, u64)]) -> u64 {
    let mut sorted = members.to_vec();
    sorted.sort_unstable();
    let mut h = Fnv64::new();
    h.write_str("dtaint-scc/v1");
    h.write_u32(sorted.len() as u32);
    for (addr, own) in sorted {
        h.write_u32(addr);
        h.write_u64(own);
    }
    h.finish()
}

// --- Summary blob codecs -------------------------------------------

use crate::interproc::{FinalSummary, SinkKind, SinkObservation};
use dtaint_cfg::FunctionShape;
use dtaint_symex::encode::{SummaryDecoder, SummaryEncoder};
use dtaint_symex::{canonical_encode, ExprPool, FuncSummary};

/// Encodes a symex-level blob: the canonical local summary, then the
/// function's compact shape ([`FunctionShape::encode_compact`]), so a
/// hit serves both without lifting the function. `None` when the
/// summary holds unknowns.
pub fn encode_local(pool: &ExprPool, s: &FuncSummary, shape: &FunctionShape) -> Option<Vec<u8>> {
    let mut blob = canonical_encode(pool, s)?;
    shape.encode_compact(&mut blob);
    Some(blob)
}

/// Decodes a blob written by [`encode_local`] into `pool`; the shape
/// takes its address and name from the summary. `None` when any part is
/// malformed or short — the caller rolls the pool back.
pub fn decode_local(blob: &[u8], pool: &mut ExprPool) -> Option<(FuncSummary, FunctionShape)> {
    let mut dec = SummaryDecoder::new(blob, pool, &mut |_, _| None)?;
    let s = dec.summary()?;
    let shape = FunctionShape::decode_compact(s.addr, s.name.clone(), dec.rest())?;
    Some((s, shape))
}

/// Encodes a final summary (plus the per-function infeasible-pruned
/// count a hit must re-credit) into a pool-free blob. `k_unknowns` is
/// the number of unknowns this function's propagation created;
/// rehydration re-allocates exactly that many up front.
pub fn encode_final(
    pool: &ExprPool,
    fin: &FinalSummary,
    pruned: u32,
    k_unknowns: u32,
    map_unknown: &mut dyn FnMut(u32) -> Option<(u32, u32)>,
) -> Option<Vec<u8>> {
    let mut enc = SummaryEncoder::new(pool, map_unknown);
    enc.u32(k_unknowns);
    enc.summary(&fin.summary);
    enc.u64(fin.local_constraints as u64);
    enc.u64(fin.fuel_used);
    enc.u32(pruned);
    enc.u32(fin.sinks.len() as u32);
    for sk in &fin.sinks {
        match &sk.kind {
            SinkKind::Import(n) => {
                enc.u8(0);
                enc.str(n);
            }
            SinkKind::LoopCopy => enc.u8(1),
        }
        enc.u32(sk.sink_ins);
        enc.u32(sk.sink_fn);
        enc.u32(sk.args.len() as u32);
        for &a in &sk.args {
            enc.expr(a);
        }
        enc.u32(sk.call_chain.len() as u32);
        for &c in &sk.call_chain {
            enc.u32(c);
        }
        enc.u32(sk.constraints.len() as u32);
        for &(op, l, r) in &sk.constraints {
            enc.u8(op as u8);
            enc.expr(l);
            enc.expr(r);
        }
    }
    let mut blob = enc.finish()?;
    // Trailer duplicate of k: the caller must allocate the function's
    // unknowns (to build the unmapper) *before* the node table can be
    // parsed, so k has to be readable without decoding anything.
    blob.extend_from_slice(&k_unknowns.to_le_bytes());
    Some(blob)
}

/// The number of unknowns a blob's function created, from the trailer —
/// readable before any decode, because the caller allocates them to
/// build the unknown unmapper the decoder needs.
pub fn blob_k_unknowns(blob: &[u8]) -> Option<u32> {
    blob.len()
        .checked_sub(4)
        .and_then(|s| blob.get(s..).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
}

/// Decodes a blob written by [`encode_final`] into `pool`. Returns the
/// summary plus the stored infeasible-pruned count.
pub fn decode_final(
    blob: &[u8],
    pool: &mut ExprPool,
    unmap: &mut dyn FnMut(u32, u32) -> Option<u32>,
) -> Option<(FinalSummary, u32)> {
    let body = blob.get(..blob.len().checked_sub(4)?)?;
    let mut dec = SummaryDecoder::new(body, pool, unmap)?;
    let _k = dec.u32()?;
    let summary = dec.summary()?;
    let local_constraints = dec.u64()? as usize;
    let fuel_used = dec.u64()?;
    let pruned = dec.u32()?;
    let sinks = dec.list(|d| {
        let kind = match d.u8()? {
            0 => SinkKind::Import(d.str()?),
            1 => SinkKind::LoopCopy,
            _ => return None,
        };
        let sink_ins = d.u32()?;
        let sink_fn = d.u32()?;
        let args = d.list(SummaryDecoder::expr)?;
        let call_chain = d.list(SummaryDecoder::u32)?;
        let constraints =
            d.list(|d| Some((dtaint_symex::CmpOp::from_tag(d.u8()?)?, d.expr()?, d.expr()?)))?;
        Some(SinkObservation { kind, sink_ins, sink_fn, args, call_chain, constraints })
    })?;
    if !dec.at_end() {
        return None;
    }
    Some((
        FinalSummary {
            summary,
            sinks,
            local_constraints,
            panicked: false,
            budget_exhausted: false,
            fuel_used,
        },
        pruned,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A corrupt sink count reserves no more than the blob holds: the
    /// list runs out of bytes and the decode refuses it.
    #[test]
    fn huge_sink_count_decodes_to_none() {
        let fin = FinalSummary {
            summary: FuncSummary::default(),
            sinks: Vec::new(),
            local_constraints: 0,
            panicked: false,
            budget_exhausted: false,
            fuel_used: 0,
        };
        let mut blob = encode_final(&ExprPool::new(), &fin, 0, 0, &mut |_| None).unwrap();
        assert!(decode_final(&blob, &mut ExprPool::new(), &mut |_, _| None).is_some());
        // With no sinks, the count is the last field before the trailer.
        let at = blob.len() - 8;
        blob[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_final(&blob, &mut ExprPool::new(), &mut |_, _| None).is_none());
    }

    #[test]
    fn store_lookup_and_stats() {
        let c = SummaryCache::new();
        c.begin_scan("img");
        assert!(c.lookup_blob(Level::Symex, 7).is_none());
        c.note_miss(Level::Symex, "img", "f", 0x100, Some(7));
        c.store(Level::Symex, "img", 7, vec![1, 2, 3]);
        assert_eq!(c.lookup_blob(Level::Symex, 7).as_deref(), Some(&[1u8, 2, 3][..]));
        c.note_hit(Level::Symex, "img", 0x100, 7);
        let st = c.scan_stats("img");
        assert_eq!((st.sym_hits, st.sym_misses, st.stores), (1, 1, 1));
        assert!(st.sym_miss_fns.contains("f"));
        assert_eq!(c.totals().entries, 1);
    }

    #[test]
    fn key_change_counts_as_invalidation() {
        let c = SummaryCache::new();
        c.begin_scan("img");
        c.note_miss(Level::Ddg, "img", "f", 0x100, Some(1));
        c.begin_scan("img");
        c.note_miss(Level::Ddg, "img", "f", 0x100, Some(2));
        let st = c.scan_stats("img");
        assert_eq!(st.invalidations, 1);
        // Same key again is a plain miss, not an invalidation.
        c.begin_scan("img");
        c.note_miss(Level::Ddg, "img", "f", 0x100, Some(2));
        assert_eq!(c.scan_stats("img").invalidations, 0);
    }

    #[test]
    fn begin_scan_resets_stats_not_entries() {
        let c = SummaryCache::new();
        c.begin_scan("a");
        c.store(Level::Ddg, "a", 9, vec![0]);
        c.begin_scan("a");
        assert_eq!(c.scan_stats("a"), ScanStats::default());
        assert!(c.lookup_blob(Level::Ddg, 9).is_some());
    }

    #[test]
    fn bytes_roundtrip() {
        let c = SummaryCache::new();
        c.store(Level::Symex, "s", 1, vec![10, 11]);
        c.store(Level::Ddg, "s", 2, vec![20]);
        let (back, report) = SummaryCache::from_bytes(&c.to_bytes());
        assert_eq!(back.lookup_blob(Level::Symex, 1).as_deref(), Some(&[10u8, 11][..]));
        assert_eq!(back.lookup_blob(Level::Ddg, 2).as_deref(), Some(&[20u8][..]));
        assert_eq!(back.totals().entries, 2);
        assert_eq!(report, CacheLoadReport::clean(CacheFormat::Dtc2, 2));
        // Corrupt bytes → cold start, no panic, damage reported.
        let (cold, report) = SummaryCache::from_bytes(b"garbage");
        assert_eq!(cold.totals().entries, 0);
        assert_eq!(report.format, CacheFormat::Unrecognized);
        assert!(report.damaged);
        // No bytes → cold start.
        let (cold, report) = SummaryCache::from_bytes(&[]);
        assert_eq!(cold.totals().entries, 0);
        assert_eq!(report, CacheLoadReport::clean(CacheFormat::Missing, 0));
        // A missing file is the same cold start.
        let missing = std::env::temp_dir().join(format!("dtc-missing-{}", std::process::id()));
        let (cold, report) = SummaryCache::load_with_report(&missing);
        assert_eq!(cold.totals().entries, 0);
        assert_eq!(report, CacheLoadReport::clean(CacheFormat::Missing, 0));
    }

    /// The `DTC2` encoding as a plain function of the entries: header,
    /// then per level the key-sorted records, each checksummed here.
    fn reference_dtc2(entries: &BTreeMap<(u8, u64), Vec<u8>>) -> Vec<u8> {
        let mut out = CACHE_MAGIC.to_vec();
        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv64(&out[..8]).to_le_bytes());
        for (&(tag, key), blob) in entries {
            let mut body = vec![tag];
            body.extend_from_slice(&key.to_le_bytes());
            body.extend_from_slice(&(blob.len() as u32).to_le_bytes());
            body.extend_from_slice(blob);
            out.extend_from_slice(&RECORD_MARKER);
            out.extend_from_slice(&body);
            out.extend_from_slice(&fnv64(&body).to_le_bytes());
        }
        out
    }

    /// Framing a record once — at store or on load — leaves `to_bytes`
    /// equal to encoding every entry afresh, for stored, loaded, and
    /// mixed caches, overwrites included.
    #[test]
    fn to_bytes_matches_the_reference_encoding() {
        let mut want: BTreeMap<(u8, u64), Vec<u8>> = BTreeMap::new();
        let stored = SummaryCache::new();
        for k in [9u64, 3, 250, 1 << 40, 7] {
            for (level, tag) in [(Level::Symex, 0u8), (Level::Ddg, 1)] {
                let blob = vec![k as u8 ^ tag; (k % 13) as usize + tag as usize];
                stored.store(level, "s", k, blob.clone());
                want.insert((tag, k), blob);
            }
        }
        let bytes = stored.to_bytes();
        assert_eq!(bytes, reference_dtc2(&want), "stored entries");

        let (mixed, report) = SummaryCache::from_bytes(&bytes);
        assert!(!report.damaged);
        assert_eq!(mixed.to_bytes(), bytes, "loaded entries");
        mixed.store(Level::Ddg, "s", 5, vec![1, 2, 3]);
        mixed.store(Level::Symex, "s", 250, vec![0xD7, 0xC2]);
        want.insert((1, 5), vec![1, 2, 3]);
        want.insert((0, 250), vec![0xD7, 0xC2]);
        assert_eq!(mixed.to_bytes(), reference_dtc2(&want), "loaded + stored + overwritten");
        let snap = mixed.snapshot_newer_than(None).unwrap();
        assert_eq!(snap.parts().concat(), mixed.to_bytes());
        // A snapshot keeps its generation's bytes after later stores.
        let before = mixed.to_bytes();
        mixed.store(Level::Symex, "s", 250, vec![9]);
        mixed.store(Level::Symex, "s", 4, vec![8]);
        assert_eq!(snap.parts().concat(), before, "records are shared, not aliased");
        assert_ne!(mixed.to_bytes(), before);
    }

    /// A snapshot is taken only when some store happened after the
    /// durable generation; an unknown (stale) disk always gets one.
    #[test]
    fn snapshot_only_when_the_store_generation_advanced() {
        let (c, _) = SummaryCache::from_bytes(&marker_free_cache(3).to_bytes());
        let snap = c.snapshot_newer_than(None).expect("stale disk takes a snapshot");
        assert_eq!(snap.generation, 0, "loaded entries are not stores");
        assert!(c.snapshot_newer_than(Some(0)).is_none());
        c.store(Level::Ddg, "s", 99, vec![4]);
        let snap = c.snapshot_newer_than(Some(0)).expect("a store advances the generation");
        assert_eq!(snap.generation, 1);
        assert!(c.snapshot_newer_than(Some(1)).is_none());
    }

    /// A cache with `n` entries whose blobs avoid the record marker's
    /// first byte, so damage can never fabricate a spurious record.
    fn marker_free_cache(n: u64) -> SummaryCache {
        let c = SummaryCache::new();
        for k in 0..n {
            let blob = vec![(k % 200) as u8; 5 + (k as usize % 7)];
            c.store(if k % 2 == 0 { Level::Symex } else { Level::Ddg }, "s", k, blob);
        }
        c
    }

    #[test]
    fn truncated_dtc2_salvages_the_intact_prefix() {
        let bytes = marker_free_cache(6).to_bytes();
        // Chop mid-way through the last record.
        let cut = bytes.len() - 3;
        let (back, report) = SummaryCache::from_bytes(&bytes[..cut]);
        assert!(report.damaged);
        assert_eq!(report.format, CacheFormat::Dtc2);
        assert_eq!(report.salvaged, 5, "five intact records survive");
        assert_eq!(report.discarded, 1, "the header promised one more");
        assert_eq!(back.totals().entries, 5);
    }

    #[test]
    fn bit_flipped_record_is_discarded_neighbors_survive() {
        let c = marker_free_cache(4);
        let mut bytes = c.to_bytes();
        // Flip a bit inside the second record's blob. Records start at
        // 16; record size = 23 + blob len. Find the second marker.
        let second = (17..bytes.len()).find(|&i| bytes[i..i + 2] == RECORD_MARKER).unwrap();
        bytes[second + 15] ^= 0x01;
        let (back, report) = SummaryCache::from_bytes(&bytes);
        assert!(report.damaged);
        assert_eq!(report.salvaged, 3);
        assert_eq!(report.discarded, 1);
        assert_eq!(back.totals().entries, 3);
    }

    #[test]
    fn damaged_header_still_salvages_records() {
        let mut bytes = marker_free_cache(3).to_bytes();
        bytes[5] ^= 0xFF; // corrupt the count field → header checksum fails
        let (back, report) = SummaryCache::from_bytes(&bytes);
        assert!(report.damaged);
        assert_eq!(report.salvaged, 3, "records are self-checksummed");
        assert_eq!(report.discarded, 0, "no trustworthy promise to price against");
        assert_eq!(back.totals().entries, 3);
    }

    #[test]
    fn retired_dtc1_bytes_are_an_unrecognized_cold_start() {
        let (back, report) = SummaryCache::from_bytes(b"DTC1\x01\x00\x00\x00");
        assert_eq!(back.totals().entries, 0);
        assert_eq!(report.format, CacheFormat::Unrecognized);
        assert!(report.damaged);
    }

    #[test]
    fn salts_separate_configs_and_drills() {
        let env = 42u64;
        let base = SymexConfig::default();
        let drilled = SymexConfig { panic_on: Some(0x8000), ..SymexConfig::default() };
        assert_ne!(sym_salt(env, &base), sym_salt(env, &drilled));
        assert_ne!(sym_salt(env, &base), sym_salt(env + 1, &base));
        let d = DataflowConfig::default();
        let d2 = DataflowConfig { bounds: BoundsMode::Interval, ..DataflowConfig::default() };
        assert_ne!(ddg_salt(env, &d), ddg_salt(env, &d2));
        // Thread count must NOT separate keys.
        let d3 = DataflowConfig { threads: 8, ..DataflowConfig::default() };
        assert_eq!(ddg_salt(env, &d), ddg_salt(env, &d3));
    }

    #[test]
    fn final_key_composition_is_sensitive() {
        let k = compose_final_key(1, 2, None, &[marker::import("recv")]);
        assert_ne!(k, compose_final_key(1, 3, None, &[marker::import("recv")]));
        assert_ne!(k, compose_final_key(1, 2, None, &[marker::import("read")]));
        assert_ne!(k, compose_final_key(1, 2, Some(9), &[marker::import("recv")]));
        assert_ne!(k, compose_final_key(1, 2, None, &[]));
        assert_ne!(marker::same_scc(), marker::unresolved());
        assert_ne!(marker::absent(4), marker::absent(5));
    }
}
