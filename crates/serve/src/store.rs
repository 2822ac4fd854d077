//! The disk-backed [`VerdictStore`]: a content-addressed map from
//! canonical `(question, spec)` keys to serialized verdicts, with
//! generational compaction.
//!
//! On-disk layout is two kinds of JSON-lines file. The **append log**
//! at `path` takes live solver misses, one flushed line per verdict:
//!
//! ```json
//! {"kind":"gsb-verdict-store","version":1}
//! {"key":{"question":{...},"spec":{...}},"verdict":{...}}
//! ```
//!
//! [`VerdictStore::compact`] rewrites the full in-memory map into a
//! sorted **generation file** at `path.gNNNNNN` — header, key-sorted
//! entry lines, and a closing manifest line carrying the entry count
//! and an FNV-1a checksum:
//!
//! ```json
//! {"kind":"gsb-verdict-generation","version":1,"generation":3}
//! {"key":...,"verdict":...}
//! {"kind":"gsb-verdict-manifest","generation":3,"entries":412,"checksum":"91ab..."}
//! ```
//!
//! The generation is written to a temp file, fsynced, renamed into
//! place, and the directory fsynced — so a generation either exists
//! completely (manifest verifies) or is ignored on reload. After the
//! rename the append log is atomically reset to just its header.
//! Reload prefers the newest *complete* generation, falls back past
//! torn or half-written ones, and overlays whatever the append log
//! holds on top. A torn trailing log line — a crash mid-append — is
//! skipped. Values are kept as pre-rendered compact JSON: a store hit
//! is a map lookup plus a string splice, never a re-render.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gsb_core::govern::fault::{self, IoFaultAction, IoSite};
use gsb_engine::{Batch, EngineCache, Json, Query, Question, Verdict};

use crate::proto::canonical_key;

/// Magic header object expected on the first line of a store file.
const HEADER: &str = "{\"kind\":\"gsb-verdict-store\",\"version\":1}";

/// `kind` of the first line of a generation file.
const GENERATION_KIND: &str = "gsb-verdict-generation";

/// `kind` of the closing manifest line of a generation file.
const MANIFEST_KIND: &str = "gsb-verdict-manifest";

/// Completed generations kept on disk after a compaction: the fresh
/// one plus its predecessor as a fallback target.
const KEEP_GENERATIONS: u64 = 2;

/// When the append log should be folded into a fresh generation.
/// Either threshold triggers; compaction cost is one sorted rewrite of
/// the in-memory map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Compact once this many entries sit in the append log.
    pub max_log_entries: u64,
    /// Compact once the append log grows past this many bytes.
    pub max_log_bytes: u64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            max_log_entries: 4096,
            max_log_bytes: 8 << 20, // 8 MiB
        }
    }
}

/// What one [`VerdictStore::compact`] call produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// The generation number written.
    pub generation: u64,
    /// Entries in the generation file.
    pub entries: usize,
    /// Size of the generation file in bytes.
    pub bytes: u64,
}

/// Counters of one [`VerdictStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that fell through to the engine.
    pub misses: u64,
    /// Entries currently held in memory.
    pub entries: usize,
    /// Entries appended since the store was opened.
    pub appended: u64,
    /// Successful compactions since the store was opened.
    pub compactions: u64,
    /// The current generation number (0 = no generation on disk).
    pub generation: u64,
    /// Torn or corrupt lines/generations skipped during load.
    pub torn_skipped: u64,
}

impl StoreStats {
    /// Serializes the counters for the metrics response.
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("hits".into(), Json::Num(self.hits as f64)),
            ("misses".into(), Json::Num(self.misses as f64)),
            ("entries".into(), Json::Num(self.entries as f64)),
            ("appended".into(), Json::Num(self.appended as f64)),
            ("compactions".into(), Json::Num(self.compactions as f64)),
            ("generation".into(), Json::Num(self.generation as f64)),
            ("torn_skipped".into(), Json::Num(self.torn_skipped as f64)),
        ])
    }
}

/// A content-addressed verdict map, optionally backed by an append-only
/// JSON-lines log plus compacted generation files.
#[derive(Debug)]
pub struct VerdictStore {
    entries: Mutex<HashMap<String, Arc<str>>>,
    appender: Mutex<Option<BufWriter<File>>>,
    path: Option<PathBuf>,
    auto_compact: Option<CompactionPolicy>,
    hits: AtomicU64,
    misses: AtomicU64,
    appended: AtomicU64,
    compactions: AtomicU64,
    generation: AtomicU64,
    log_entries: AtomicU64,
    log_bytes: AtomicU64,
    torn_skipped: AtomicU64,
}

impl VerdictStore {
    /// An empty, memory-only store (nothing is ever written to disk,
    /// and compaction is unavailable).
    #[must_use]
    pub fn in_memory() -> Self {
        VerdictStore {
            entries: Mutex::new(HashMap::new()),
            appender: Mutex::new(None),
            path: None,
            auto_compact: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            appended: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            log_entries: AtomicU64::new(0),
            log_bytes: AtomicU64::new(0),
            torn_skipped: AtomicU64::new(0),
        }
    }

    /// Opens (or creates) a disk-backed store at `path` with the
    /// default [`CompactionPolicy`]; see [`VerdictStore::open_with`].
    ///
    /// # Errors
    ///
    /// See [`VerdictStore::open_with`].
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::open_with(path, Some(CompactionPolicy::default()))
    }

    /// Opens (or creates) a disk-backed store at `path`.
    ///
    /// Load order: the newest *complete* generation file (header plus a
    /// verifying manifest) seeds the map — torn or half-written
    /// generations are skipped in favor of older ones — and the append
    /// log is overlaid on top. The log stays open for appends; when
    /// `auto_compact` is set, inserts that push the log past either
    /// threshold fold it into a fresh generation automatically.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the log cannot be read or created, or
    /// an [`std::io::ErrorKind::InvalidData`] error when it exists but
    /// does not start with the store header.
    pub fn open_with(
        path: impl AsRef<Path>,
        auto_compact: Option<CompactionPolicy>,
    ) -> std::io::Result<Self> {
        let path = path.as_ref();
        let mut entries = HashMap::new();
        let mut torn_skipped = 0u64;

        // Newest complete generation first; fall back past torn ones.
        let mut generation = 0u64;
        for (number, gen_path) in scan_generations(path) {
            if fault::io_poll(IoSite::StoreLoad) == Some(IoFaultAction::FailFsync) {
                torn_skipped += 1;
                continue; // injected unreadable generation
            }
            match load_generation(&gen_path, number) {
                Ok(loaded) => {
                    for (key, verdict) in loaded {
                        entries.insert(key, verdict);
                    }
                    generation = number;
                    break;
                }
                Err(_) => torn_skipped += 1,
            }
        }

        // Overlay the append log: its entries are newer than any
        // generation's.
        let mut log_entries = 0u64;
        let existed = path.exists();
        if existed {
            // Read raw byte lines, not `lines()`: a crash can tear a
            // line mid-UTF-8 sequence, and that must drop one line,
            // not fail the whole reload.
            let mut reader = BufReader::new(File::open(path)?);
            let mut raw = Vec::new();
            let mut first = true;
            loop {
                raw.clear();
                if reader.read_until(b'\n', &mut raw)? == 0 {
                    break;
                }
                if raw.last() == Some(&b'\n') {
                    raw.pop();
                }
                let line = std::str::from_utf8(&raw).ok();
                if first {
                    // An empty file is a fresh store; anything else
                    // must lead with the header line.
                    first = false;
                    if line.is_none_or(|l| Json::parse(l).is_err() || l.trim() != HEADER) {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("{} is not a gsb verdict store", path.display()),
                        ));
                    }
                    continue;
                }
                let Some(line) = line else {
                    torn_skipped += 1; // torn mid-UTF-8 sequence
                    continue;
                };
                if line.trim().is_empty() {
                    continue;
                }
                // Torn or corrupt lines are dropped, not fatal: the
                // store is a cache, and a crash mid-append must not
                // brick the server.
                if let Some((key, verdict)) = parse_entry(line) {
                    entries.insert(key, verdict);
                    log_entries += 1;
                } else {
                    torn_skipped += 1;
                }
            }
        }
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if !existed || file.metadata()?.len() == 0 {
            writeln!(file, "{HEADER}")?;
            file.flush()?;
        }
        let log_bytes = file.metadata()?.len();
        Ok(VerdictStore {
            entries: Mutex::new(entries),
            appender: Mutex::new(Some(BufWriter::new(file))),
            path: Some(path.to_path_buf()),
            auto_compact,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            appended: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            generation: AtomicU64::new(generation),
            log_entries: AtomicU64::new(log_entries),
            log_bytes: AtomicU64::new(log_bytes),
            torn_skipped: AtomicU64::new(torn_skipped),
        })
    }

    /// The backing file, when disk-backed.
    #[must_use]
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The auto-compaction policy this store was opened with.
    #[must_use]
    pub fn compaction_policy(&self) -> Option<CompactionPolicy> {
        self.auto_compact
    }

    /// Folds the append log into a fresh sorted generation file:
    /// temp-write → fsync → rename into place → directory fsync, then
    /// the log is atomically reset to its bare header (same dance) and
    /// generations older than the fallback window are pruned. The
    /// appender lock is held throughout, so concurrent inserts block
    /// (for milliseconds) rather than race the reset.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::Unsupported`] for memory-only stores;
    /// otherwise the first I/O failure. A failed compaction never
    /// corrupts the live store — the log keeps its entries and the
    /// half-written generation is ignored by reload.
    pub fn compact(&self) -> std::io::Result<CompactReport> {
        let Some(path) = self.path.clone() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "memory-only stores cannot be compacted",
            ));
        };
        let mut appender = self.appender.lock().unwrap_or_else(|p| p.into_inner());
        let mut snapshot: Vec<(String, Arc<str>)> = self
            .entries
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect();
        snapshot.sort_by(|a, b| a.0.cmp(&b.0));

        let number = self.generation.load(Ordering::SeqCst) + 1;
        let gen_path = generation_path(&path, number);
        let tmp_path = tmp_sibling(&gen_path);

        // Render the whole generation image: header, sorted entries,
        // closing manifest with count + checksum.
        let mut image =
            format!("{{\"kind\":\"{GENERATION_KIND}\",\"version\":1,\"generation\":{number}}}\n");
        let mut checksum = Fnv1a::new();
        for (key, verdict) in &snapshot {
            let line = format!("{{\"key\":{key},\"verdict\":{verdict}}}\n");
            checksum.update(line.as_bytes());
            image.push_str(&line);
        }
        image.push_str(&format!(
            "{{\"kind\":\"{MANIFEST_KIND}\",\"generation\":{number},\"entries\":{},\"checksum\":\"{:016x}\"}}\n",
            snapshot.len(),
            checksum.finish(),
        ));

        let injected = fault::io_poll(IoSite::StoreCompact);
        if injected == Some(IoFaultAction::TornWrite) {
            // Crash mid-write: a half image lands under the final name
            // with no manifest. Reload must fall back past it.
            std::fs::write(&gen_path, &image.as_bytes()[..image.len() / 2])?;
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected fault: torn generation write",
            ));
        }
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(image.as_bytes())?;
            if injected == Some(IoFaultAction::FailFsync) {
                drop(tmp);
                let _ = std::fs::remove_file(&tmp_path);
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "injected fault: generation fsync failed",
                ));
            }
            tmp.sync_all()?;
        }
        std::fs::rename(&tmp_path, &gen_path)?;
        sync_dir(&gen_path)?;

        // Atomically reset the append log to its bare header and point
        // the appender at the fresh file.
        let log_tmp = tmp_sibling(&path);
        {
            let mut tmp = File::create(&log_tmp)?;
            writeln!(tmp, "{HEADER}")?;
            tmp.sync_all()?;
        }
        std::fs::rename(&log_tmp, &path)?;
        sync_dir(&path)?;
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let log_bytes = file.metadata()?.len();
        *appender = Some(BufWriter::new(file));

        // Prune generations beyond the fallback window.
        for (old, old_path) in scan_generations(&path) {
            if number.saturating_sub(old) >= KEEP_GENERATIONS {
                let _ = std::fs::remove_file(old_path);
            }
        }

        self.generation.store(number, Ordering::SeqCst);
        self.compactions.fetch_add(1, Ordering::SeqCst);
        self.log_entries.store(0, Ordering::SeqCst);
        self.log_bytes.store(log_bytes, Ordering::SeqCst);
        let bytes = std::fs::metadata(&gen_path).map(|m| m.len()).unwrap_or(0);
        Ok(CompactReport {
            generation: number,
            entries: snapshot.len(),
            bytes,
        })
    }

    /// Looks up the canonical key of `query`, counting a hit or miss.
    /// The value is the verdict's compact JSON rendering.
    #[must_use]
    pub fn lookup(&self, query: &Query) -> Option<Arc<str>> {
        let key = canonical_key(query);
        let found = self
            .entries
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&key)
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts the verdict for `query`, appending to the backing file.
    /// Indeterminate verdicts (budget/deadline truncations) are never
    /// stored — a better-funded query must be able to retry. Returns
    /// whether the entry was new. When the append log crosses the
    /// auto-compaction thresholds, the log is folded into a fresh
    /// generation before returning (a failed fold is retried on a
    /// later insert, never surfaced here).
    pub fn insert(&self, query: &Query, verdict: &Verdict) -> bool {
        if verdict.is_indeterminate() {
            return false;
        }
        let key = canonical_key(query);
        let rendered: Arc<str> = verdict.to_json_value().render_compact().into();
        let new = self
            .entries
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(key.clone(), Arc::clone(&rendered))
            .is_none();
        if new {
            self.appended.fetch_add(1, Ordering::Relaxed);
            let mut appender = self.appender.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(file) = appender.as_mut() {
                let line = format!("{{\"key\":{key},\"verdict\":{rendered}}}\n");
                match fault::io_poll(IoSite::StoreAppend) {
                    Some(IoFaultAction::TornWrite) => {
                        // Crash mid-append: half the line, no newline.
                        // The in-memory entry survives; the disk image
                        // carries a torn line reload must skip.
                        let _ = file.write_all(&line.as_bytes()[..line.len() / 2]);
                        let _ = file.flush();
                    }
                    Some(IoFaultAction::FailFsync) => {
                        // The flush failed and the line was dropped:
                        // durability silently lost for this one entry.
                    }
                    _ => {
                        // One flushed line per verdict: a kill between
                        // lines loses nothing, a kill mid-line loses
                        // one entry.
                        let _ = file.write_all(line.as_bytes());
                        let _ = file.flush();
                    }
                }
                self.log_entries.fetch_add(1, Ordering::Relaxed);
                self.log_bytes
                    .fetch_add(line.len() as u64, Ordering::Relaxed);
            }
            drop(appender);
            if let Some(policy) = self.auto_compact {
                if self.log_entries.load(Ordering::Relaxed) >= policy.max_log_entries
                    || self.log_bytes.load(Ordering::Relaxed) >= policy.max_log_bytes
                {
                    let _ = self.compact();
                }
            }
        }
        new
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.lock().unwrap_or_else(|p| p.into_inner()).len(),
            appended: self.appended.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            generation: self.generation.load(Ordering::Relaxed),
            torn_skipped: self.torn_skipped.load(Ordering::Relaxed),
        }
    }

    /// Precomputes the symmetric-task universe through `max_n`
    /// processes: for every feasible symmetric task `SB(n, m, l, u)`
    /// with `m ≤ n ≤ max_n` **and** every task-zoo entry (which adds
    /// the asymmetric election variants), the classification and
    /// no-communication-witness verdicts are solved through `cache` and
    /// inserted. Returns the number of entries added.
    ///
    /// # Errors
    ///
    /// Returns the first engine error of the batch (the precompute runs
    /// under unlimited tickets, so errors are genuine bugs, not budget
    /// trips).
    pub fn build_atlas(
        &self,
        max_n: usize,
        cache: &EngineCache,
    ) -> Result<usize, gsb_engine::Error> {
        let mut specs = Vec::new();
        for n in 1..=max_n {
            for m in 1..=n {
                if let Ok(family) = gsb_core::order::feasible_family(n, m) {
                    specs.extend(family.into_iter().map(|task| task.to_spec()));
                }
            }
            if let Ok(entries) = gsb_core::zoo::catalog(n) {
                specs.extend(entries.into_iter().map(|entry| entry.spec));
            }
        }
        let mut seen = std::collections::HashSet::new();
        specs.retain(|spec| seen.insert(spec.clone()));
        let mut batch = Batch::new();
        for spec in &specs {
            batch.push(Query::new(spec.clone(), Question::Classify));
            batch.push(Query::new(spec.clone(), Question::NoCommWitness));
        }
        let mut added = 0;
        for (query, verdict) in batch.queries().iter().zip(batch.run_with(cache)) {
            if self.insert(query, &verdict?) {
                added += 1;
            }
        }
        Ok(added)
    }
}

/// Parses one `{"key":...,"verdict":...}` entry line; `None` on torn or
/// malformed lines. The key is re-rendered compact so look-ups match
/// byte-for-byte whatever whitespace the line used.
fn parse_entry(line: &str) -> Option<(String, Arc<str>)> {
    let value = Json::parse(line).ok()?;
    let key = value.get("key")?;
    key.get("question")?;
    let verdict = value.get("verdict")?;
    // Only load entries that still parse as verdicts: a corrupt or
    // stale-schema line must not be served back to clients.
    Verdict::from_json_value(verdict).ok()?;
    Some((key.render_compact(), verdict.render_compact().into()))
}

/// The generation file sibling of `path` for generation `number`
/// (`verdicts.jsonl` → `verdicts.jsonl.g000003`).
fn generation_path(path: &Path, number: u64) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(format!(".g{number:06}"));
    PathBuf::from(name)
}

/// The temp sibling a file is staged at before its atomic rename.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// fsyncs the directory holding `path`, making a just-renamed file
/// durable across a crash.
fn sync_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// Every `<path>.gNNNNNN` sibling of the store log, newest first.
/// Leftover `.tmp` stage files are ignored (and harmless: a fresh
/// compaction truncates them).
fn scan_generations(path: &Path) -> Vec<(u64, PathBuf)> {
    let Some(name) = path.file_name().and_then(|s| s.to_str()) else {
        return Vec::new();
    };
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let prefix = format!("{name}.g");
    let mut found = Vec::new();
    let Ok(dir) = std::fs::read_dir(&parent) else {
        return Vec::new();
    };
    for entry in dir.flatten() {
        let file_name = entry.file_name();
        let Some(file_name) = file_name.to_str() else {
            continue;
        };
        let Some(suffix) = file_name.strip_prefix(&prefix) else {
            continue;
        };
        if !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(number) = suffix.parse::<u64>() {
                found.push((number, parent.join(file_name)));
            }
        }
    }
    found.sort_by_key(|entry| std::cmp::Reverse(entry.0));
    found
}

/// Loads one generation file, verifying header, manifest presence,
/// entry count, and checksum. Any mismatch is an `InvalidData` error —
/// the caller falls back to an older generation.
fn load_generation(path: &Path, number: u64) -> std::io::Result<Vec<(String, Arc<str>)>> {
    let torn = |details: &str| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: {details}", path.display()),
        )
    };
    let reader = BufReader::new(File::open(path)?);
    let mut lines = reader.lines();
    let header = lines.next().ok_or_else(|| torn("empty generation"))??;
    let header = Json::parse(&header).map_err(|_| torn("unparseable generation header"))?;
    if header.get("kind").and_then(Json::as_str) != Some(GENERATION_KIND)
        || header.get("generation").and_then(Json::as_f64) != Some(number as f64)
    {
        return Err(torn("wrong generation header"));
    }
    let mut entries = Vec::new();
    let mut checksum = Fnv1a::new();
    for line in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let value = Json::parse(&line).map_err(|_| torn("corrupt generation line"))?;
        if value.get("kind").and_then(Json::as_str) == Some(MANIFEST_KIND) {
            // The closing manifest: the generation is complete iff the
            // count and checksum both verify.
            if value.get("generation").and_then(Json::as_f64) != Some(number as f64) {
                return Err(torn("manifest generation mismatch"));
            }
            if value.get("entries").and_then(Json::as_f64) != Some(entries.len() as f64) {
                return Err(torn("manifest entry count mismatch"));
            }
            let expect = format!("{:016x}", checksum.finish());
            if value.get("checksum").and_then(Json::as_str) != Some(expect.as_str()) {
                return Err(torn("manifest checksum mismatch"));
            }
            return Ok(entries);
        }
        let mut with_newline = line.clone();
        with_newline.push('\n');
        checksum.update(with_newline.as_bytes());
        let (key, verdict) = parse_entry(&line).ok_or_else(|| torn("malformed entry"))?;
        entries.push((key, verdict));
    }
    Err(torn("generation has no manifest (torn write)"))
}

/// FNV-1a 64: the tiny streaming checksum sealing a generation file.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classify(name: &str, n: usize) -> Query {
        Query::new(
            gsb_engine::named_task(name, n, None).unwrap(),
            Question::Classify,
        )
    }

    #[test]
    fn memory_store_round_trips_and_counts() {
        let store = VerdictStore::in_memory();
        let query = classify("wsb", 4);
        assert!(store.lookup(&query).is_none());
        let verdict = query.run_with(&EngineCache::new()).unwrap();
        assert!(store.insert(&query, &verdict));
        assert!(!store.insert(&query, &verdict), "idempotent");
        let served = store.lookup(&query).expect("stored");
        let parsed = Verdict::from_json(&served).unwrap();
        assert_eq!(parsed.solvability, verdict.solvability);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn disk_store_survives_reload_and_torn_tail() {
        let dir = std::env::temp_dir().join(format!(
            "gsb-store-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verdicts.jsonl");
        let _ = std::fs::remove_file(&path);

        let query = classify("wsb", 5);
        let verdict = query.run_with(&EngineCache::new()).unwrap();
        {
            let store = VerdictStore::open(&path).unwrap();
            assert!(store.insert(&query, &verdict));
        }
        // Simulate a crash mid-append: a torn half line at the tail.
        {
            use std::io::Write as _;
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            write!(file, "{{\"key\":{{\"question\"").unwrap();
        }
        let reloaded = VerdictStore::open(&path).unwrap();
        assert_eq!(reloaded.stats().entries, 1, "torn tail is skipped");
        let served = reloaded.lookup(&query).expect("survives reload");
        assert_eq!(
            Verdict::from_json(&served).unwrap().solvability,
            verdict.solvability
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_store_files_are_refused() {
        let dir = std::env::temp_dir().join(format!("gsb-store-refuse-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("not-a-store.jsonl");
        std::fs::write(&path, "not a store\n").unwrap();
        assert!(VerdictStore::open(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gsb-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Classify verdicts for a handful of zoo tasks — cheap to solve,
    /// distinct keys.
    fn seed_verdicts(count: usize) -> Vec<(Query, Verdict)> {
        let cache = EngineCache::new();
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        'outer: for n in 2..=4 {
            for entry in gsb_core::zoo::catalog(n).unwrap() {
                let query = Query::new(entry.spec, Question::Classify);
                // Zoo synonyms share canonical keys; keep distinct ones.
                if !seen.insert(canonical_key(&query)) {
                    continue;
                }
                let verdict = query.run_with(&cache).unwrap();
                out.push((query, verdict));
                if out.len() == count {
                    break 'outer;
                }
            }
        }
        out
    }

    #[test]
    fn compaction_writes_a_generation_and_resets_the_log() {
        let dir = temp_dir("compact");
        let path = dir.join("verdicts.jsonl");
        let seeds = seed_verdicts(6);
        let store = VerdictStore::open(&path).unwrap();
        for (query, verdict) in &seeds {
            assert!(store.insert(query, verdict));
        }
        let report = store.compact().unwrap();
        assert_eq!(report.generation, 1);
        assert_eq!(report.entries, seeds.len());

        // The log is back to its bare header; the generation is sorted
        // and sealed by a verifying manifest.
        let log = std::fs::read_to_string(&path).unwrap();
        assert_eq!(log.trim(), HEADER);
        let gen_file = std::fs::read_to_string(generation_path(&path, 1)).unwrap();
        let lines: Vec<&str> = gen_file.lines().collect();
        assert_eq!(lines.len(), seeds.len() + 2, "header + entries + manifest");
        assert!(lines[0].contains(GENERATION_KIND));
        assert!(lines[lines.len() - 1].contains(MANIFEST_KIND));
        let mut keys: Vec<String> = lines[1..lines.len() - 1]
            .iter()
            .map(|l| Json::parse(l).unwrap().get("key").unwrap().render_compact())
            .collect();
        let sorted = keys.clone();
        keys.sort();
        assert_eq!(keys, sorted, "generation entries are key-sorted");

        // Reload serves everything from the generation alone.
        let reloaded = VerdictStore::open(&path).unwrap();
        let stats = reloaded.stats();
        assert_eq!(stats.entries, seeds.len());
        assert_eq!(stats.generation, 1);
        for (query, verdict) in &seeds {
            let served = reloaded.lookup(query).expect("generation entry");
            assert_eq!(
                Verdict::from_json(&served).unwrap().solvability,
                verdict.solvability
            );
        }
        // Post-compaction inserts overlay the new log on the generation.
        drop(reloaded);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reload_falls_back_past_a_torn_generation() {
        let dir = temp_dir("torn-gen");
        let path = dir.join("verdicts.jsonl");
        let seeds = seed_verdicts(5);
        let store = VerdictStore::open(&path).unwrap();
        for (query, verdict) in &seeds[..3] {
            store.insert(query, verdict);
        }
        store.compact().unwrap(); // generation 1: 3 entries
        for (query, verdict) in &seeds[3..] {
            store.insert(query, verdict);
        }
        store.compact().unwrap(); // generation 2: all 5
        drop(store);

        // Tear generation 2: chop it mid-file (manifest gone).
        let gen2 = generation_path(&path, 2);
        let bytes = std::fs::read(&gen2).unwrap();
        std::fs::write(&gen2, &bytes[..bytes.len() / 2]).unwrap();

        let reloaded = VerdictStore::open(&path).unwrap();
        let stats = reloaded.stats();
        assert_eq!(stats.generation, 1, "fell back to the complete one");
        assert_eq!(stats.entries, 3);
        assert!(stats.torn_skipped >= 1);
        for (query, _) in &seeds[..3] {
            assert!(reloaded.lookup(query).is_some());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_manifests_are_rejected() {
        let dir = temp_dir("bad-manifest");
        let path = dir.join("verdicts.jsonl");
        let seeds = seed_verdicts(3);
        let store = VerdictStore::open(&path).unwrap();
        for (query, verdict) in &seeds {
            store.insert(query, verdict);
        }
        store.compact().unwrap();
        drop(store);
        // Flip one byte inside an entry line: count still matches, the
        // checksum doesn't.
        let gen1 = generation_path(&path, 1);
        let mut bytes = std::fs::read(&gen1).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        std::fs::write(&gen1, &bytes).unwrap();
        let reloaded = VerdictStore::open(&path).unwrap();
        assert_eq!(reloaded.stats().generation, 0, "checksum failure rejected");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_compaction_triggers_on_the_entry_threshold() {
        let dir = temp_dir("auto");
        let path = dir.join("verdicts.jsonl");
        let seeds = seed_verdicts(7);
        let store = VerdictStore::open_with(
            &path,
            Some(CompactionPolicy {
                max_log_entries: 3,
                max_log_bytes: u64::MAX,
            }),
        )
        .unwrap();
        for (query, verdict) in &seeds {
            store.insert(query, verdict);
        }
        let stats = store.stats();
        assert!(stats.compactions >= 2, "7 inserts at threshold 3");
        assert_eq!(stats.entries, seeds.len());
        // Older generations beyond the fallback window are pruned.
        let on_disk = scan_generations(&path);
        assert!(on_disk.len() <= KEEP_GENERATIONS as usize);
        assert_eq!(on_disk[0].0, stats.generation);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_stores_refuse_compaction() {
        let store = VerdictStore::in_memory();
        let err = store.compact().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
    }

    #[test]
    fn atlas_build_covers_the_zoo() {
        let store = VerdictStore::in_memory();
        let cache = EngineCache::new();
        let added = store.build_atlas(4, &cache).unwrap();
        assert!(added > 0);
        // catalog(1) errors (election needs two processes); the build
        // skips it, so coverage starts at n = 2.
        for n in 2..=4 {
            for entry in gsb_core::zoo::catalog(n).unwrap() {
                let query = Query::new(entry.spec.clone(), Question::Classify);
                assert!(
                    store.lookup(&query).is_some(),
                    "zoo entry {} (n={n}) must be precomputed",
                    entry.name
                );
            }
        }
    }
}
