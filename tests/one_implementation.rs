//! Each mechanism exists once. Send path: lanes, batch framing, unbatching
//! and the lane record live in `causal_proto::driver`, and the harnesses
//! (simulator, runtime) call it. Receive path: the site every protocol runs
//! in — the one `impl ProtocolSite`, the update parked on its activation
//! predicate, the offer and the drain loop — lives in
//! `causal_proto::{replica, pending}`, and the five protocol files hold
//! only their `Tracker`. Threads: a live run is its scheduler workers,
//! spawned in one place; the TCP fabric has none of its own, and a cluster
//! is deployed — fabric, transport, spawn, drive — in one place; frames
//! cross workers through one inbox per worker, counted on per-worker
//! tallies — no channel per site, no shared in-flight counter; both
//! fabrics split a send's own-shard half in one function and count a lost
//! copy in one function, and a TCP connection's state is a `Conn` that
//! holds no socket. KS log:
//! MERGE, the write-side record and the `LastWriteOn` materialization are
//! single passes in `causal_clocks::log`, and the protocols call them
//! instead of composing whole-log passes by hand. Benchmark: `bench/` is
//! the only one. Experiments: the paper's placement is chosen in one
//! function, and every simulated cell, the figures' included, runs on the
//! one loop in the extension harness. Metrics: every sampled statistic is
//! one mergeable histogram, folded like any other field. Matrix clock: one
//! merge, a key compare per row; the cell-wise maximum exists only as its
//! debug-build check. Sites: every harness gets its site from
//! `SiteDriver`, which alone builds it and reads its effects. Trace: each
//! event's schema is declared once, and the simulator records its history
//! through the one event→history mapping that also rebuilds it from a
//! trace. Wire: each wire type's encoder and decoder are one `Codec` impl,
//! declared once. Command line: each binary declares each flag once, as a
//! row of a table the one parser in `causal_experiments::cli` reads. Run
//! rules: every rule a simulation relies on is stated in
//! `SimConfig::check`, and `serve` and `repro serve` make a serving row in
//! one function. Per-message path: a multicast is counted once, by
//! `RunMetrics::record_sends`, in either harness, and a replica's
//! per-variable state is a dense `VarMap`, never a hash map; a worker
//! stamps and tallies the frames it delivers once per pass, not per frame,
//! and the KS log crosses the codec in one loop per direction. Artifacts:
//! each of `repro`'s subcommands is one row of `ARTIFACTS`, which names
//! the cells it reads, and the selection's cells run in one pass. Knobs:
//! the reliable transport's tuning is three constants and a fault plan is
//! two rates. Entry points: the simulator runs through `run` alone and
//! records its trace as it records its history, and a deployment, served
//! or replayed, returns one `ServeReport`. History: each site's ops and
//! applies are one byte stream each, decoded in order, never a `Vec` of
//! records per site. A second copy growing back is how the copies drifted
//! apart before.

use std::fs;
use std::path::{Path, PathBuf};

/// Add every `.rs` file under `dir` to `out`.
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

/// Every `.rs` file under `crates/*/src`.
fn sources() -> Vec<(PathBuf, String)> {
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

    // A delivery goes through `PendingQueues::offer`: outside the test
    // modules nothing else in the crate appends to a queue of parked
    // updates, and the shell has no push-then-drain of its own.
    let code: Vec<_> = proto
        .iter()
        .map(|(path, text)| (path.clone(), outside_test_modules(text)))
        .collect();
    let parks = files_with(&code, "push_back(");
    assert_eq!(parks, ["crates/proto/src/pending.rs"], "one place parks");
    let shell = code.iter().find(|(path, _)| path.ends_with("replica.rs"));
    let (_, shell) = shell.expect("replica.rs is in the walk");
    assert_eq!(shell.matches("pending.offer(").count(), 1, "one delivery");
    assert!(!shell.contains("pending.push("), "the shell parks nothing");
}

/// `text` without its top-level `#[cfg(test)]` items (the test modules).
fn outside_test_modules(text: &str) -> String {
    let mut kept = String::new();
    let (mut pending, mut skipping) = (false, false);
    for line in text.lines() {
        if skipping {
            skipping = !line.starts_with('}');
        } else if pending {
            pending = false;
            skipping = !line.trim_end().ends_with(';');
        } else if line.starts_with("#[cfg(test)]") {
            pending = true;
        } else {
            kept.push_str(line);
            kept.push('\n');
        }
    }
    kept
}

#[test]
fn the_worker_pool_is_the_only_thread_the_runtime_spawns() {
    let sources = sources();
    let spawns: Vec<_> = sources
        .iter()
        .filter(|(path, _)| path.to_string_lossy().contains("crates/runtime/src/"))
        .flat_map(|(path, text)| {
            let code = outside_test_modules(text);
            let hits = code.matches("thread::spawn").count();
            std::iter::repeat_n(path.clone(), hits)
        })
        .collect();
    assert_eq!(spawns.len(), 1, "{spawns:?}");
    assert!(spawns[0].ends_with("crates/runtime/src/runner.rs"));
    let runner = fs::read_to_string(&spawns[0]).expect("utf-8 source");
    let spawn_fn = runner.find("pub(crate) fn spawn(").expect("Fabric::spawn");
    let worker_loop = runner.find("\nfn worker_loop(").expect("worker_loop");
    let at = runner.find("thread::spawn").expect("counted above");
    assert!(
        (spawn_fn..worker_loop).contains(&at),
        "inside Fabric::spawn"
    );

    // The reader and writer thread bodies are gone from the whole workspace
    // (the root package and the benchmark included), not renamed or moved.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut everywhere = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "bench/src"] {
        walk(&root.join(dir), &mut everywhere);
    }
    for gone in [["fn writer", "_loop"], ["fn reader", "_loop"]].map(|h| h.concat()) {
        assert_eq!(files_with(&everywhere, &gone), [""; 0], "`{gone}`");
    }
}

#[test]
fn a_cluster_is_deployed_in_one_place() {
    let sources = sources();
    for call in ["build_fabric(", ".spawn(&transport", "drive(cluster"] {
        let callers: Vec<_> = sources
            .iter()
            .filter(|(path, _)| path.to_string_lossy().contains("crates/runtime/src/"))
            .flat_map(|(path, text)| {
                let code = outside_test_modules(text);
                let calls = code.lines().filter(|l| l.contains(call));
                // `fn build_fabric(` is the definition, not a deployment.
                let hits = calls.filter(|l| !l.contains("fn ")).count();
                std::iter::repeat_n(path.clone(), hits)
            })
            .collect();
        assert_eq!(callers.len(), 1, "`{call}`: {callers:?}");
        assert!(callers[0].ends_with("crates/runtime/src/runner.rs"));
    }
}

#[test]
fn frames_cross_workers_through_one_inbox_each_and_are_counted_per_worker() {
    let sources = sources();
    let runtime: Vec<_> = sources
        .iter()
        .filter(|(path, _)| path.to_string_lossy().contains("crates/runtime/src/"))
        .map(|(path, text)| (path.clone(), outside_test_modules(text)))
        .collect();
    assert!(runtime.len() >= 5, "the walk found the runtime");
    // The per-site channel mailboxes, their drain budget and the shared
    // signed in-flight counter are gone, not kept beside the inboxes.
    for gone in [
        "crossbeam::channel",
        "mpsc",
        "AtomicI64",
        "DRAIN_BUDGET",
        "fetch_sub",
    ] {
        assert_eq!(files_with(&runtime, gone), [""; 0], "`{gone}`");
    }
    // Sequentially consistent operations are left on `finished` alone: the
    // tallies pair `Release` with `Acquire` and no worker writes another's.
    for (path, code) in &runtime {
        for line in code.lines().filter(|l| l.contains("SeqCst")) {
            assert!(line.contains("finished"), "{}: {line}", path.display());
        }
    }

    let code_of = |file: &str| {
        let found = runtime.iter().find(|(path, _)| path.ends_with(file));
        &found.unwrap_or_else(|| panic!("{file} is in the walk")).1
    };
    // `Routes` holds one queue type — a worker's inbox — and nothing per site
    // but the owner table; per worker, its inbox, its shard and its wake.
    let runner = code_of("runner.rs");
    let routes = runner.find("pub(crate) struct Routes {").expect("Routes");
    let body = &runner[routes..][..runner[routes..].find("\n}").expect("its end")];
    let fields: Vec<_> = body
        .lines()
        .skip(1)
        .map(str::trim)
        .filter(|l| !l.starts_with("//"))
        .collect();
    assert_eq!(
        fields,
        [
            "inboxes: Vec<OwnLine<Mutex<Inbox>>>,",
            "owner: Vec<usize>,",
            "shards: Vec<DestSet>,",
            "wakes: Vec<WakeLatch>,"
        ]
    );
    // A send's destinations stay one `DestSet` from the driver's output to
    // the frame header, split by shard mask: no destination list is built
    // on the way, and the shard map is `shards` alone, not a modulus.
    for gone in ["Vec<SiteId>", "% workers"] {
        assert_eq!(files_with(&runtime, gone), [""; 0], "`{gone}`");
    }
    // Cross-worker copies move at the end of a pass, on both fabrics.
    let node = code_of("node.rs");
    let imp = node.find("impl Transport for ChannelTransport {");
    let imp = &node[imp.expect("the channel fabric")..];
    let imp = &imp[..imp.find("\n}").expect("its end")];
    assert!(imp.contains("fn flush("), "hand-over happens in flush");
}

#[test]
fn ks_log_operations_are_composed_in_the_log_not_by_its_callers() {
    let sources = sources();
    let code_of = |file: &str| {
        let found = sources.iter().find(|(path, _)| path.ends_with(file));
        outside_test_modules(&found.unwrap_or_else(|| panic!("{file} is in the walk")).1)
    };
    // The in-place primitives a multi-pass composition is made of. The one
    // use left is Opt-Track's recovery fast-forward, a lone
    // `prune_applied` that by design purges nothing.
    let primitives = [
        ".normalize(",
        ".purge(",
        ".prune_applied(",
        ".remove_site(",
        ".upsert(",
    ];
    let opt_track = code_of("crates/proto/src/opt_track.rs");
    let calls = primitives.map(|call| opt_track.matches(call).count());
    assert_eq!(calls, [0, 0, 1, 0, 0], "calls of {primitives:?}");
    let recovery = opt_track.find("fn peer_recovered(").expect("the hook");
    let departure = opt_track.find("fn peer_departed(").expect("the next hook");
    let at = opt_track.find(".prune_applied(").expect("counted above");
    assert!((recovery..departure).contains(&at), "in peer_recovered");
}

#[test]
fn a_site_is_built_and_its_effects_dispatched_by_the_driver_alone() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let code: Vec<_> = sources()
        .into_iter()
        .map(|(path, text)| {
            let code = outside_test_modules(&text);
            // Comments and the factory's own signature are not calls.
            let call =
                |l: &&str| !l.trim_start().starts_with("//") && !l.contains("fn build_site(");
            (
                path,
                code.lines().filter(call).collect::<Vec<_>>().join("\n"),
            )
        })
        .collect();
    // Every harness — simulator, runtime, `LocalCluster` — gets its site
    // from `SiteDriver::new` and hands effects to the driver unread.
    let builders = files_with(&code, "build_site(");
    assert_eq!(builders, ["crates/proto/src/driver.rs"], "`build_site(`");
    let mut readers = files_with(&code, "Effect::");
    readers.retain(|f| !f.starts_with("crates/proto/"));
    assert_eq!(readers, [""; 0], "`Effect::` outside the protocol crate");

    // The crates no harness reaches are gone; `causal-multicast` is the
    // re-export `bench/` still imports, nothing else.
    for gone in ["crates/store", "vendor/bytes"] {
        assert!(!root.join(gone).exists(), "{gone}");
    }
    let mut multicast = Vec::new();
    walk(&root.join("crates/multicast"), &mut multicast);
    let [(path, text)] = &multicast[..] else {
        panic!("crates/multicast holds one source file: {multicast:?}")
    };
    assert!(path.ends_with("crates/multicast/src/lib.rs"));
    let items: Vec<_> = text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with("#!["))
        .collect();
    assert_eq!(
        items,
        ["pub use causal_clocks::batch::{self, BatchPolicy, DestBatcher, Offer};"]
    );
}

/// Add every file under `dir` to `out`, build output excepted.
fn walk_all(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
    for entry in fs::read_dir(dir).expect("readable tree") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            if !path.ends_with("target") {
                walk_all(&path, out);
            }
        } else if let Ok(text) = fs::read_to_string(&path) {
            out.push((path, text));
        }
    }
}

#[test]
fn bench_is_the_only_benchmark() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "scripts", ".github", "vendor"] {
        walk_all(&root.join(dir), &mut files);
    }
    let manifest = root.join("Cargo.toml");
    let text = fs::read_to_string(&manifest).expect("root manifest");
    files.push((manifest, text));
    let rel = |path: &Path| path.strip_prefix(root).expect("under the root").to_owned();

    // No cargo bench target and no criterion outside `bench/`.
    for (path, text) in &files {
        assert!(
            !path.components().any(|c| c.as_os_str() == "benches"),
            "{}: a benches/ directory",
            rel(path).display()
        );
        if path.ends_with("Cargo.toml") {
            for gone in ["[[bench]]", "criterion", "[profile.bench]"] {
                assert!(!text.contains(gone), "{}: `{gone}`", rel(path).display());
            }
        }
    }
    // The superseded reports and the cross-machine baseline are not
    // written, read or gated on anywhere. (The needles are split so this
    // file does not match itself.)
    for gone in [["BENCH", "_PR"], ["bench-", "baseline"]].map(|h| h.concat()) {
        let hits: Vec<_> = files
            .iter()
            .filter(|(path, text)| text.contains(&gone) || path.to_string_lossy().contains(&gone))
            .map(|(path, _)| rel(path))
            .collect();
        assert!(hits.is_empty(), "`{gone}`: {hits:?}");
    }
}

#[test]
fn experiments_choose_placement_once_and_fan_out_through_one_loop() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crate_dir = root.join("crates/experiments");
    let mut sources = Vec::new();
    walk(&crate_dir.join("src"), &mut sources);
    assert!(sources.len() >= 10, "the walk found the experiments crate");
    let harness = "crates/experiments/src/harness.rs";

    // The paper's two settings are picked by protocol in `paper_cfg` alone.
    for call in ["paper_partial(", "paper_full("] {
        assert_eq!(files_with(&sources, call), [harness], "`{call}`");
    }
    let (_, text) = sources
        .iter()
        .find(|(p, _)| p.ends_with("harness.rs"))
        .unwrap();
    let body = &text[text.find("pub fn paper_cfg(").expect("paper_cfg")..];
    let body = &body[..body.find("\n}").expect("its end")];
    for call in ["paper_partial(", "paper_full("] {
        assert_eq!(text.matches(call).count(), 1, "`{call}` once");
        assert!(body.contains(call), "`{call}` inside paper_cfg");
    }
    // No protocol is paired with a placement flag by hand.
    assert_eq!(files_with(&sources, "(ProtocolKind, bool)"), [""; 0]);

    // Units fan out on the pool from the harness alone, and only the
    // harness and the one-run parity replay of `serve` call a simulator
    // entry point; `bin/simulate.rs` keeps its single traced run.
    let code: Vec<_> = sources
        .iter()
        .map(|(path, text)| (path.clone(), outside_test_modules(text)))
        .collect();
    assert_eq!(files_with(&code, "run_indexed("), [harness]);
    let library: Vec<_> = code
        .into_iter()
        .filter(|(path, _)| !path.to_string_lossy().contains("/src/bin/"))
        .collect();
    let allowed = [harness, "crates/experiments/src/serve.rs"];
    for call in ["causal_simnet::run", "run(&"] {
        let mut callers = files_with(&library, call);
        callers.retain(|f| !allowed.contains(&f.as_str()));
        assert!(callers.is_empty(), "`{call}` called in {callers:?}");
    }

    // Every `[dependencies]` line names a crate the sources import.
    let manifest = fs::read_to_string(crate_dir.join("Cargo.toml")).expect("manifest");
    let deps = &manifest[manifest.find("[dependencies]\n").expect("deps")..];
    let deps = deps.lines().skip(1).take_while(|l| !l.starts_with('['));
    for line in deps.filter(|l| !l.trim().is_empty()) {
        let name = line.split(['.', ' ', '=']).next().expect("a crate name");
        let import = format!("{}::", name.replace('-', "_"));
        assert!(
            !files_with(&sources, &import).is_empty(),
            "`{name}` is listed but never imported"
        );
    }
}

#[test]
fn every_sampled_statistic_is_one_mergeable_histogram() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    walk_all(&root.join("crates"), &mut files);
    assert!(files.len() > 100, "the walk found the crates");
    // No second estimator beside the histogram, and no recorder shared
    // across sites instead of merged from them.
    for gone in ["P2Quantile", "StatAccum", "Mutex<OpLatency>"] {
        assert_eq!(files_with(&files, gone), [""; 0], "`{gone}`");
    }
    // A metrics field folds as a counter, a peak or an exact merge: no rule
    // keeps one side and drops the other.
    let fold = fs::read_to_string(root.join("crates/metrics/src/fold.rs")).expect("fold.rs");
    let rules: Vec<_> = fold
        .lines()
        .filter_map(|line| line.trim().strip_prefix("(@"))
        .filter_map(|arm| arm.split(',').next())
        .collect();
    assert_eq!(rules, ["fold sum", "fold max", "fold merge"]);
}

/// `text` without the statements and items under `#[cfg(debug_assertions)]`.
fn outside_debug_only(text: &str) -> String {
    let mut kept = String::new();
    let (mut skipping, mut depth) = (false, 0i64);
    for line in text.lines() {
        if line.trim() == "#[cfg(debug_assertions)]" {
            skipping = true;
        } else if skipping {
            let opened = line.matches(['{', '(', '[']).count();
            let closed = line.matches(['}', ')', ']']).count();
            depth += opened as i64 - closed as i64;
            let end = line.trim_end();
            skipping = depth != 0 || !(end.ends_with(';') || end.ends_with('}'));
        } else {
            kept.push_str(line);
            kept.push('\n');
        }
    }
    kept
}

#[test]
fn the_matrix_clock_merges_by_row_key_and_keeps_the_cellwise_max_for_debug_builds() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = fs::read_to_string(root.join("crates/clocks/src/matrix.rs")).expect("matrix.rs");
    let code = outside_test_modules(&text);
    let release = outside_debug_only(&code);
    assert_eq!(release.matches("fn merge").count(), 1, "one merge");
    let body = &release[release.find("pub fn merge_max(").expect("merge_max")..];
    let body = &body[..body.find("\n    }\n").expect("its end")];
    assert!(body.contains("copy_from_slice"), "rows are copied whole");
    assert_eq!(body.matches(" > ").count(), 1, "one compare, of keys");
    // The cell-wise maximum is the debug build's oracle, nothing more.
    assert!(
        !release.contains(".max("),
        "a cell-wise max outside debug builds"
    );
    assert!(code.contains(".max("), "the debug-build oracle is there");
}

/// Every `ev` tag of the trace schema.
const EVENT_TAGS: [&str; 26] = [
    "write",
    "send",
    "deliver",
    "buffer",
    "apply",
    "read_local",
    "fetch_issue",
    "fetch_done",
    "fetch_failover",
    "degraded_read",
    "retransmit",
    "backoff",
    "wal_append",
    "checkpoint",
    "crash",
    "recover",
    "recovery_done",
    "sync_req",
    "sync_resp",
    "view_change",
    "leave",
    "log_prune",
    "frontier_advance",
    "gc_run",
    "buffered_overdue",
    "backpressure",
];

#[test]
fn the_trace_schema_is_declared_once() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = fs::read_to_string(root.join("crates/obs/src/lib.rs")).expect("obs lib.rs");
    let code = outside_test_modules(&text);
    // Declarations read `Variant = "tag" {` (or `,` for no fields).
    let declared: Vec<&str> = code
        .lines()
        .filter_map(|line| {
            let (variant, rest) = line.trim().split_once(" = \"")?;
            let tag = rest.split('"').next()?;
            variant.starts_with(char::is_uppercase).then_some(tag)
        })
        .collect();
    assert_eq!(declared, EVENT_TAGS, "the schema lists every event");
    for tag in EVENT_TAGS {
        let quoted = format!("\"{tag}\"");
        assert_eq!(code.matches(&quoted).count(), 1, "{quoted} is written once");
    }
}

#[test]
fn the_simulator_records_its_history_only_through_the_event_mapping() {
    let needles = [
        "record_write(",
        "record_read(",
        "record_apply(",
        "seal_site(",
    ];
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/simnet/src");
    let mut files = Vec::new();
    walk(&src, &mut files);
    let mut mapping = None;
    for (path, text) in &files {
        let mut code = outside_test_modules(text);
        if let Some(start) = code.find("pub fn record_event(") {
            let len = code[start..].find("\n}\n").expect("its end");
            mapping = Some(code[start..start + len].to_string());
            code.replace_range(start..start + len, "");
        }
        // `RunMetrics::record_apply` counts an apply; it records no history.
        let code = code.replace("metrics.record_apply(", "");
        for needle in needles {
            assert!(!code.contains(needle), "{}: {needle}", path.display());
        }
    }
    let mapping = mapping.expect("simnet defines `record_event`");
    for needle in needles {
        assert!(mapping.contains(needle), "the mapping calls {needle}");
    }
}

#[test]
fn every_trace_event_is_documented() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = fs::read_to_string(root.join("docs/OBSERVABILITY.md")).expect("the doc");
    for tag in EVENT_TAGS {
        let cell = format!("`{tag}`");
        let documented = doc
            .lines()
            .any(|l| l.starts_with("| `") && l.contains(&cell));
        assert!(documented, "docs/OBSERVABILITY.md has no row for {cell}");
    }
}

/// Every wire type, with the name a decoder method for it would carry.
const WIRE_TYPES: [(&str, &str); 24] = [
    ("u64", "varint"),
    ("u32", "u32"),
    ("SiteId", "site"),
    ("VarId", "var"),
    ("WriteId", "write_id"),
    ("VersionedValue", "value"),
    ("DestSet", "dests"),
    ("LogEntry", "log_entry"),
    ("Log", "log"),
    ("CrpLog", "crp_log"),
    ("MatrixClock", "matrix"),
    ("VectorClock", "vector"),
    ("Sm", "sm_body"),
    ("Fm", "fm"),
    ("Rm", "rm"),
    ("RmMeta", "rm_meta"),
    ("SmMeta", "sm_meta"),
    ("SmMetaDelta", "sm_meta_delta"),
    ("MatrixDelta", "matrix_delta"),
    ("VectorDelta", "vector_delta"),
    ("LogDelta", "log_delta"),
    ("CrpDelta", "crp_delta"),
    ("SmBatch", "batch"),
    ("Msg", "msg"),
];

#[test]
fn the_wire_format_is_declared_once() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = fs::read_to_string(root.join("crates/proto/src/wire.rs")).expect("wire.rs");
    let code = outside_test_modules(&text);
    assert!(
        !code
            .lines()
            .any(|l| l.contains("fn put_") && !l.starts_with(' ')),
        "no free encoder function: each type's `put` is its `Codec` impl"
    );
    let reader = code.split_once("impl Reader").expect("the decode walk").1;
    let reader = &reader[..reader.find("\n}\n").expect("its end")];
    for (ty, method) in WIRE_TYPES {
        let decoder = format!("fn {method}(");
        assert!(
            !reader.contains(&decoder),
            "`Reader::{method}` decodes {ty} outside its impl"
        );
    }
    // A declaration is `impl … Codec for Type`, or a `Type {` entry of a
    // `fields!` or `tagged!` table.
    let mut declared = Vec::new();
    let mut table = false;
    for line in code.lines() {
        if line.starts_with("fields! {") || line.starts_with("tagged! {") {
            table = true;
        } else if table && line == "}" {
            table = false;
        } else if table {
            // An entry may lead with its attribute: `#[inline] Type {`.
            let entry = line.strip_prefix("    ").filter(|l| !l.starts_with(' '));
            let entry = entry.map(|l| l.split_once("] ").map_or(l, |(_, rest)| rest));
            let name = entry.and_then(|l| l.split_whitespace().next());
            declared.extend(name.filter(|n| n.starts_with(char::is_uppercase)));
        } else if let Some((_, ty)) = line
            .split_once("Codec for ")
            .filter(|_| line.starts_with("impl"))
        {
            declared.extend(ty.split([' ', '<']).next());
        }
    }
    for (ty, _) in WIRE_TYPES {
        let impls = declared.iter().filter(|d| **d == ty).count();
        assert_eq!(impls, 1, "{ty} has {impls} codec declarations, not one");
    }
    for d in &declared {
        assert_eq!(
            declared.iter().filter(|e| e == &d).count(),
            1,
            "{d} declared twice"
        );
    }
}

#[test]
fn each_command_line_flag_is_declared_once() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    walk(&root.join("crates/experiments/src"), &mut sources);
    let code: Vec<_> = sources
        .iter()
        .map(|(path, text)| (path.clone(), outside_test_modules(text)))
        .collect();
    let cli = "crates/experiments/src/cli.rs";
    assert_eq!(files_with(&code, "std::env::args"), [cli], "one parser");
    let bins: Vec<_> = code
        .into_iter()
        .filter(|(path, _)| path.to_string_lossy().contains("/src/bin/"))
        .collect();
    assert_eq!(bins.len(), 3, "simulate, serve and repro");
    for copy in ["fn die(", "fn usage(", "SIM_ONLY"] {
        assert_eq!(files_with(&bins, copy), [""; 0], "`{copy}` in a binary");
    }
}

#[test]
fn each_rule_about_a_run_is_stated_once() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let code = |rel: &str| outside_test_modules(&fs::read_to_string(root.join(rel)).expect(rel));
    let config = code("crates/simnet/src/sim/config.rs");
    assert!(
        !config.contains("assert!"),
        "a rule asserted beside `check`"
    );
    let simulate = code("crates/experiments/src/bin/simulate.rs");
    assert!(
        !simulate.contains("fn validate("),
        "`simulate` restates the rules"
    );
    let serve = code("crates/experiments/src/bin/serve.rs");
    for copy in ["causal_checker", "final_pending", "push_row(vec!"] {
        assert!(!serve.contains(copy), "`serve` makes its own row: {copy}");
    }
}

#[test]
fn a_multicast_is_counted_once_and_per_variable_state_is_dense() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut proto = Vec::new();
    walk(&root.join("crates/proto/src"), &mut proto);
    let code: Vec<_> = proto
        .iter()
        .map(|(path, text)| (path.clone(), outside_test_modules(text)))
        .collect();
    assert!(code.len() > 10, "the walk found the protocol crate");
    let hashed = files_with(&code, "HashMap<VarId");
    assert_eq!(hashed, [""; 0], "per-variable state hashed, not a `VarMap`");
    for harness in ["crates/simnet/src/sim.rs", "crates/runtime/src/node.rs"] {
        let text = fs::read_to_string(root.join(harness)).expect(harness);
        let text = outside_test_modules(&text);
        assert!(
            !text.contains("record_send("),
            "{harness} counts a multicast copy by copy"
        );
        assert!(
            text.contains("record_sends("),
            "{harness} counts a multicast once"
        );
    }
}

/// The body of the item that starts with `head` in `code`, up to the
/// closing brace at `indent`.
fn item<'a>(code: &'a str, head: &str, indent: &str) -> &'a str {
    let at = code.find(head).unwrap_or_else(|| panic!("`{head}`"));
    let end = format!("\n{indent}}}\n");
    &code[at..][..code[at..].find(&end).expect("its end")]
}

#[test]
fn a_worker_stamps_and_tallies_per_pass_and_the_ks_log_codec_is_one_loop_each_way() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let code = |rel: &str| outside_test_modules(&fs::read_to_string(root.join(rel)).expect(rel));
    // A delivered frame is stamped with the instant its worker took the
    // inbox and counted done with the rest of the pass's frames.
    let node = code("crates/runtime/src/node.rs");
    let on_wire = item(&node, "pub(crate) fn on_wire(", "    ");
    for per_frame in ["Instant::now(", "frames_done("] {
        assert!(
            !on_wire.contains(per_frame),
            "`Node::on_wire` calls {per_frame}"
        );
    }
    let runner = code("crates/runtime/src/runner.rs");
    let deliver = item(&runner, "    fn deliver(&mut self)", "    ");
    for once in ["Instant::now(", "frames_done("] {
        let calls = deliver.matches(once).count();
        assert_eq!(calls, 1, "`Worker::deliver` calls {once} {calls} times");
    }
    // The KS log is encoded and decoded in one loop over its entries, not
    // through the generic sequence helpers.
    let wire = code("crates/proto/src/wire.rs");
    let log = item(&wire, "impl Codec for Log {", "");
    for generic in ["put_seq(", "take_seq("] {
        assert!(!log.contains(generic), "the `Log` codec calls {generic}");
    }
}

#[test]
fn each_paper_artifact_is_declared_once_and_its_cells_run_in_one_pass() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut experiments = Vec::new();
    walk(&root.join("crates/experiments/src"), &mut experiments);
    let code: Vec<_> = experiments
        .iter()
        .map(|(path, text)| (path.clone(), outside_test_modules(text)))
        .collect();
    // No dry pass over placeholder stats, no second path for `--jobs 1`,
    // no per-job flag, no settable seed and no paper values in a function.
    let gone = [
        "plan_begin",
        "fn zero(",
        "fn set_jobs(",
        "uses_cells",
        "base_seed",
        "_paper(",
    ];
    for copy in gone {
        assert_eq!(files_with(&code, copy), [""; 0], "`{copy}`");
    }
    // Each subcommand is named once, by its row of `ARTIFACTS`.
    let artifacts = ["crates/experiments/src/artifacts.rs"];
    let names = "fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 table2 table3 table4 eq2 \
        falseco logsize storage chaos durability churn batching soak serve scale";
    for name in names.split_whitespace() {
        let quoted = format!("\"{name}\"");
        assert_eq!(files_with(&code, &quoted), artifacts, "{quoted}");
    }
    // Functions no caller used.
    let everywhere = sources();
    for dead in [
        "fn with_crashes(",
        "fn with_batching(",
        "fn to_std(",
        "fn unbatched_size(",
        "fn empirical_w_rate(",
    ] {
        assert_eq!(files_with(&everywhere, dead), [""; 0], "`{dead}`");
    }
    let sweep = code.iter().find(|(path, _)| path.ends_with("sweep.rs"));
    let (_, sweep) = sweep.expect("sweep.rs is in the walk");
    assert!(
        !sweep.contains("fn fingerprint("),
        "`fingerprint` only for tests"
    );
}

#[test]
fn only_what_a_run_sets_calls_or_reads_is_defined() {
    // One transport tuning, two fault rates, no unread histogram and no
    // function only its own test called.
    let everywhere = sources();
    for dead in [
        "TransportTuning",
        "BurstWindow",
        "ChannelFault",
        "fn clear_dest",
        "fn fmt_bytes",
        "_sm_scalars",
        "fn batched",
        "pending_samples",
    ] {
        assert_eq!(files_with(&everywhere, dead), [""; 0], "`{dead}`");
    }
}

#[test]
fn each_harness_has_one_entry_point_and_one_result() {
    // The simulator records its trace through a config field, as it
    // records its history, not through a sink passed to a second entry
    // point; a replay and a serving run return the same report.
    let everywhere = sources();
    for second in [
        "trait Tracer",
        "struct NoopTracer",
        "struct BufTracer",
        "fn run_traced",
        "fn run_threaded",
        "fn run_tcp",
        "struct RunOutcome",
    ] {
        assert_eq!(files_with(&everywhere, second), [""; 0], "`{second}`");
    }
}

#[test]
fn a_recorded_history_is_byte_streams_not_record_vectors() {
    // A `Vec` of records costs 32 bytes per op and 16 per apply; the
    // streams cost a few (DESIGN.md, "Recording a history").
    let everywhere = sources();
    let history = everywhere
        .iter()
        .find(|(path, _)| path.ends_with("crates/checker/src/history.rs"));
    let (_, history) = history.expect("history.rs is in the walk");
    for layout in ["Vec<Vec<OpRecord>>", "Vec<Vec<WriteId>>"] {
        assert!(
            !outside_test_modules(history).contains(layout),
            "`{layout}` in history.rs"
        );
    }
}

#[test]
fn a_lost_copy_is_counted_in_one_place_and_a_connection_holds_no_socket() {
    // Either fabric loses a copy the same way — a connection error, and
    // done on the losing worker's tally — through `Quiesce::lost`: no
    // fabric, node or deployment keeps an error counter or counts a copy
    // done by itself.
    let runtime: Vec<_> = sources()
        .into_iter()
        .filter(|(path, _)| path.to_string_lossy().contains("crates/runtime/src/"))
        .map(|(path, text)| (path, outside_test_modules(&text)))
        .collect();
    assert!(runtime.len() >= 5, "the walk found the runtime");
    for counting in ["conn_errors", "frames_done("] {
        let found = files_with(&runtime, counting);
        assert_eq!(found, ["crates/runtime/src/runner.rs"], "`{counting}`");
    }
    // The framing, queueing and failure logic of a TCP connection run
    // without a socket, and time reaches them as an argument.
    let tcp = runtime.iter().find(|(path, _)| path.ends_with("tcp.rs"));
    let (_, tcp) = tcp.expect("tcp.rs is in the walk");
    let conn = item(tcp, "struct Conn {", "");
    assert!(!conn.contains("TcpStream"), "`Conn` holds a socket");
    assert!(
        !tcp.contains("write_timeout"),
        "the write timeout is a field"
    );
}
