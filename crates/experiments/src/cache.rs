//! Content-addressed persistent cache for sweep cells.
//!
//! Every simulated `(protocol, mode, n, w_rate)` cell is stored as one JSON
//! file under the cache directory, named by the FNV-1a hash of a canonical
//! key string that also covers everything the result depends on: event
//! count, seed count, base seed, size-model calibration, and
//! [`CACHE_FORMAT_VERSION`]. Bumping the version (or changing any key
//! ingredient) changes every hash, so stale entries are never read — they
//! are simply left behind and overwritten cell by cell.
//!
//! The f64 statistics are stored as IEEE-754 bit patterns (hex), so a warm
//! load reproduces the computed [`CellStats`] *bit-for-bit* and cached runs
//! stay byte-identical to cold ones. Human-readable decimal approximations
//! ride along for `jq`/eyeball use and are ignored on load. Loads are
//! fail-soft: any missing, truncated, or mismatched file is a cache miss,
//! and store errors are swallowed (a broken cache must never fail a run).

use crate::sweep::CellStats;
use std::fs;
use std::path::{Path, PathBuf};

/// Bump to invalidate every previously cached cell (e.g. after a change to
/// the simulator, the metrics, or this file's format).
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// Everything a cached cell's identity depends on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// Protocol display name (e.g. `Opt-Track`).
    pub protocol: String,
    /// Replication mode name (`partial` or `full`).
    pub mode: &'static str,
    /// System size.
    pub n: usize,
    /// Write rate in per-mille (`0.5` → `500`).
    pub w_per_mille: u64,
    /// Events per process.
    pub events: usize,
    /// Seeds averaged per cell.
    pub seeds: u64,
    /// Base seed the per-seed RNG seeds derive from.
    pub base_seed: u64,
    /// `Debug` fingerprint of the byte-accounting [`causal_types::SizeModel`].
    pub size_model: String,
}

impl CacheKey {
    /// The canonical one-line key string hashed into the file name and
    /// echoed inside the file for verification on load.
    pub fn canonical(&self) -> String {
        format!(
            "v{}|{}|{}|n={}|w={}|events={}|seeds={}|base={:#x}|{}",
            CACHE_FORMAT_VERSION,
            self.protocol,
            self.mode,
            self.n,
            self.w_per_mille,
            self.events,
            self.seeds,
            self.base_seed,
            self.size_model,
        )
    }

    /// FNV-1a hash of the canonical key — the content address.
    pub fn hash(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A directory of content-addressed cell files.
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskCache { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{:016x}.json", key.hash()))
    }

    /// Fetch the cell stored under `key`, or `None` on any miss —
    /// absent file, unparsable content, or a key echo that does not match
    /// (hash collision or hand-edited file).
    pub fn load(&self, key: &CacheKey) -> Option<CellStats> {
        let text = fs::read_to_string(self.path(key)).ok()?;
        if field(&text, "key")? != key.canonical() {
            return None;
        }
        Some(CellStats {
            total_count: f64_field(&text, "total_count_bits")?,
            total_bytes: f64_field(&text, "total_bytes_bits")?,
            avg_bytes: [
                opt_f64_field(&text, "avg_sm_bits")?,
                opt_f64_field(&text, "avg_fm_bits")?,
                opt_f64_field(&text, "avg_rm_bits")?,
            ],
            kind_bytes: [
                f64_field(&text, "kind_sm_bits")?,
                f64_field(&text, "kind_fm_bits")?,
                f64_field(&text, "kind_rm_bits")?,
            ],
            sm_entries: f64_field(&text, "sm_entries_bits")?,
            writes: f64_field(&text, "writes_bits")?,
            reads: f64_field(&text, "reads_bits")?,
            apply_latency_ms: f64_field(&text, "apply_latency_ms_bits")?,
            max_pending: field(&text, "max_pending")?.parse().ok()?,
            local_meta_mean: f64_field(&text, "local_meta_mean_bits")?,
        })
    }

    /// Persist `stats` under `key`, best-effort (write to a temp file, then
    /// rename, so readers never see a torn cell).
    pub fn store(&self, key: &CacheKey, stats: &CellStats) {
        if fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let path = self.path(key);
        let tmp = path.with_extension("json.tmp");
        if fs::write(&tmp, render(key, stats)).is_ok() {
            let _ = fs::rename(&tmp, &path);
        }
    }
}

fn render(key: &CacheKey, s: &CellStats) -> String {
    let bits = |v: f64| format!("\"{:016x}\"", v.to_bits());
    let opt_bits = |v: Option<f64>| match v {
        Some(v) => bits(v),
        None => "\"none\"".to_string(),
    };
    let approx = |v: f64| format!("\"{v}\"");
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    out.push_str(&format!("  \"key\": \"{}\",\n", key.canonical()));
    out.push_str(&format!(
        "  \"total_count_bits\": {},\n",
        bits(s.total_count)
    ));
    out.push_str(&format!(
        "  \"total_bytes_bits\": {},\n",
        bits(s.total_bytes)
    ));
    out.push_str(&format!(
        "  \"avg_sm_bits\": {},\n",
        opt_bits(s.avg_bytes[0])
    ));
    out.push_str(&format!(
        "  \"avg_fm_bits\": {},\n",
        opt_bits(s.avg_bytes[1])
    ));
    out.push_str(&format!(
        "  \"avg_rm_bits\": {},\n",
        opt_bits(s.avg_bytes[2])
    ));
    out.push_str(&format!("  \"kind_sm_bits\": {},\n", bits(s.kind_bytes[0])));
    out.push_str(&format!("  \"kind_fm_bits\": {},\n", bits(s.kind_bytes[1])));
    out.push_str(&format!("  \"kind_rm_bits\": {},\n", bits(s.kind_bytes[2])));
    out.push_str(&format!("  \"sm_entries_bits\": {},\n", bits(s.sm_entries)));
    out.push_str(&format!("  \"writes_bits\": {},\n", bits(s.writes)));
    out.push_str(&format!("  \"reads_bits\": {},\n", bits(s.reads)));
    out.push_str(&format!(
        "  \"apply_latency_ms_bits\": {},\n",
        bits(s.apply_latency_ms)
    ));
    out.push_str(&format!("  \"max_pending\": {},\n", s.max_pending));
    out.push_str(&format!(
        "  \"local_meta_mean_bits\": {},\n",
        bits(s.local_meta_mean)
    ));
    // Decimal mirrors for humans; never read back.
    out.push_str(&format!(
        "  \"approx_total_count\": {},\n",
        approx(s.total_count)
    ));
    out.push_str(&format!(
        "  \"approx_total_bytes\": {},\n",
        approx(s.total_bytes)
    ));
    out.push_str(&format!(
        "  \"approx_sm_entries\": {},\n",
        approx(s.sm_entries)
    ));
    out.push_str(&format!(
        "  \"approx_apply_latency_ms\": {}\n",
        approx(s.apply_latency_ms)
    ));
    out.push_str("}\n");
    out
}

/// The value of `"name": value` in our own flat JSON rendering: everything
/// between the colon and the end of line, commas and quotes stripped.
fn field<'a>(text: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("\"{name}\": ");
    let start = text.find(&pat)? + pat.len();
    let rest = &text[start..];
    let line = &rest[..rest.find('\n')?];
    Some(line.trim().trim_end_matches(',').trim_matches('"'))
}

fn f64_field(text: &str, name: &str) -> Option<f64> {
    let raw = field(text, name)?;
    Some(f64::from_bits(u64::from_str_radix(raw, 16).ok()?))
}

/// `Some(None)` for an explicit `"none"`, `None` on parse failure.
fn opt_f64_field(text: &str, name: &str) -> Option<Option<f64>> {
    let raw = field(text, name)?;
    if raw == "none" {
        return Some(None);
    }
    Some(Some(f64::from_bits(u64::from_str_radix(raw, 16).ok()?)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> CacheKey {
        CacheKey {
            protocol: "Opt-Track".into(),
            mode: "partial",
            n: 10,
            w_per_mille: 500,
            events: 120,
            seeds: 2,
            base_seed: 0xCA05_A11B,
            size_model: "SizeModel { test }".into(),
        }
    }

    fn stats() -> CellStats {
        CellStats {
            total_count: 1234.5,
            total_bytes: 1.0 / 3.0,
            avg_bytes: [Some(0.1 + 0.2), None, Some(f64::MIN_POSITIVE)],
            kind_bytes: [1e300, -0.0, 42.0],
            sm_entries: std::f64::consts::PI,
            writes: 600.0,
            reads: 600.0,
            apply_latency_ms: 1.5e-9,
            max_pending: 17,
            local_meta_mean: 9_999.25,
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let dir = std::env::temp_dir().join(format!("causal-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = DiskCache::new(&dir);
        let (k, s) = (key(), stats());
        assert!(cache.load(&k).is_none(), "cold cache must miss");
        cache.store(&k, &s);
        let loaded = cache.load(&k).expect("warm cache must hit");
        assert_eq!(loaded.fingerprint(), s.fingerprint());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_change_misses() {
        let dir = std::env::temp_dir().join(format!("causal-cache-test2-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = DiskCache::new(&dir);
        cache.store(&key(), &stats());
        let mut other = key();
        other.n = 11;
        assert!(cache.load(&other).is_none(), "different n must miss");
        let mut other = key();
        other.size_model = "SizeModel { changed }".into();
        assert!(
            cache.load(&other).is_none(),
            "size-model change must invalidate"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("causal-cache-test3-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = DiskCache::new(&dir);
        let k = key();
        cache.store(&k, &stats());
        let path = cache.path(&k);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(cache.load(&k).is_none(), "truncated file must miss");
        let _ = fs::remove_dir_all(&dir);
    }
}
