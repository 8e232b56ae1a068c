//! Each send-path mechanism exists once: lanes, batch framing, unbatching
//! and the parked-update record live in `causal_proto::driver`, and the
//! harnesses (simulator, runtime) call it. A second copy growing back in a
//! harness is how the two drifted apart before.

use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `crates/*/src`.
fn sources() -> Vec<(PathBuf, String)> {
    fn walk(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
        for entry in fs::read_dir(dir).expect("readable source tree") {
            let path = entry.expect("readable entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = fs::read_to_string(&path).expect("utf-8 source");
                out.push((path, text));
            }
        }
    }
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut out = Vec::new();
    for entry in fs::read_dir(crates).expect("crates/ exists") {
        let src = entry.expect("readable entry").path().join("src");
        if src.is_dir() {
            walk(&src, &mut out);
        }
    }
    out
}

/// Files containing `needle`, relative to the repository root.
fn files_with(sources: &[(PathBuf, String)], needle: &str) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let hit = |(path, text): &(PathBuf, String)| {
        let rel = path.strip_prefix(root).expect("under the root");
        text.contains(needle).then(|| rel.display().to_string())
    };
    sources.iter().filter_map(hit).collect()
}

#[test]
fn send_path_mechanisms_are_defined_once_and_lanes_are_built_only_by_the_driver() {
    let sources = sources();
    assert!(sources.len() > 50, "the walk found the workspace");
    let driver = ["crates/proto/src/driver.rs".to_string()];
    for definition in ["fn unbatch(", "struct PendingSm ", "fn flush_lane("] {
        let mut found = files_with(&sources, definition);
        // Each protocol keeps a private receive-side `PendingSm` (an update
        // awaiting its activation predicate) — not the lane record.
        let protocols = [
            "full_track",
            "hb_track",
            "opt_track",
            "opt_track_crp",
            "optp",
        ];
        found.retain(|f| {
            !protocols
                .iter()
                .any(|p| *f == format!("crates/proto/src/{p}.rs"))
        });
        assert_eq!(found, driver, "`{definition}` is defined once");
    }
    // `DestBatcher`'s own module constructs it in its unit tests.
    let mut built = files_with(&sources, "DestBatcher::new");
    built.retain(|f| f != "crates/clocks/src/batch.rs");
    assert_eq!(built, driver, "only the driver builds lanes");
}
