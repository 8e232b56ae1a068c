//! Each mechanism exists once. Send path: lanes, batch framing, unbatching
//! and the lane record live in `causal_proto::driver`, and the harnesses
//! (simulator, runtime) call it. Receive path: the site every protocol runs
//! in — the one `impl ProtocolSite`, the update parked on its activation
//! predicate, the drain loop — lives in `causal_proto::{replica, pending}`,
//! and the five protocol files hold only their `Tracker`. A second copy
//! growing back is how the copies drifted apart before.

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
        let found = files_with(&sources, definition);
        assert_eq!(found, driver, "`{definition}` is defined once");
    }
    // `DestBatcher`'s own module constructs it in its unit tests.
    let mut built = files_with(&sources, "DestBatcher::new");
    built.retain(|f| f != "crates/clocks/src/batch.rs");
    assert_eq!(built, driver, "only the driver builds lanes");
}

#[test]
fn the_replica_shell_is_the_only_protocol_site_and_parks_and_drains_once() {
    let sources = sources();
    let implementors: Vec<_> = sources
        .iter()
        .flat_map(|(path, text)| text.lines().map(move |line| (path, line)))
        .filter(|(_, line)| line.starts_with("impl") && line.contains(" ProtocolSite for "))
        .collect();
    assert_eq!(implementors.len(), 1, "{implementors:?}");
    assert!(implementors[0].0.ends_with("crates/proto/src/replica.rs"));

    let proto: Vec<_> = sources
        .into_iter()
        .filter(|(path, _)| path.to_string_lossy().contains("crates/proto/src/"))
        .collect();
    for (definition, home) in [
        ("struct Parked<", "crates/proto/src/replica.rs"),
        ("fn drain", "crates/proto/src/pending.rs"),
    ] {
        let found = files_with(&proto, definition);
        assert_eq!(found, [home], "`{definition}` is defined once");
    }
}
