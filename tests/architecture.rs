//! Architectural invariant: the protocol automaton lives in
//! `penelope-core` and nowhere else. The substrates (simulator, sharded
//! simulator, UDP daemon) and the CLI are *drivers* — they pump
//! `EngineInput`s and execute `EngineOutput`s, but they never branch on
//! protocol state themselves. This test denies the identifiers that
//! historically marked inlined protocol logic (escrow bookkeeping,
//! suspicion-gossip merging, seq-epoch staleness, grant dedup, and the
//! grant-delivery feedback every driver once fed back by hand) outside
//! the core crate, so the triplication the engine collapsed cannot creep
//! back in one convenient shortcut at a time. A second test holds the
//! daemon crate to a single socket loop, a third holds every crate but
//! core to zero hand-written output loops, a fourth holds what a node
//! knows about its peers to one table in `core::discovery`, a fifth
//! holds `TraceEvent` stamping to `penelope-trace`, a sixth holds the
//! repo to one perf harness, `benchmark/`, a seventh holds the daemon's
//! send path to one reused frame buffer and the shim's sockets, an
//! eighth holds a node's own work to what it holds, not the cluster's
//! size, a ninth and tenth hold a node's own *state* to the same: no
//! hash table inside an engine, and no copy of the cluster's
//! configuration in any struct an engine is made of, an eleventh holds
//! the repo to its four effect mappings and the facade to adapters that
//! start no engine threads, a twelfth holds it to one fault vocabulary
//! (`FaultAction`) and one conformance module, in the root crate, whose
//! `Scenario` nothing translates, a thirteenth holds `ShardedSim` to
//! one thread scope per run, and a fourteenth holds the workspace to one
//! property-test vocabulary, `penelope_testkit::prop`, and a fifteenth
//! holds the Fig. 4–8 metrics to one path: only `penelope-metrics` feeds
//! a turnaround, oscillation or redistribution sample, and a sixteenth
//! holds the fault script to one reading onto a `FaultPlane`: one shipped
//! function matches `FaultAction`'s connectivity arms, and a seventeenth
//! holds every per-node random stream to one derivation,
//! `penelope_testkit::rng::node_seed`, and an eighteenth holds every
//! crate's public surface to what is used: each `pub fn`, `pub const` and
//! `pub static` a library declares is named somewhere outside it.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Identifiers whose presence outside `penelope-core` means a driver has
/// re-grown protocol logic.
const DENIED: &[&str] = &[
    "GrantEscrow",
    "observe_digest",
    "is_stale_grant",
    "applied_seqs",
    // Only `NodeEngine::step` constructs the feedback for a sent grant
    // (but see `LATE_VERDICT`).
    "GrantOutcome",
];

/// The one driver file that may feed a grant's delivery status back
/// itself: the reactor's `tx` socket may hold a frame back to share a
/// datagram, so the kernel's verdict on a grant can come with a flush,
/// after the `step` that sent it has returned.
const LATE_VERDICT: (&str, &str) = ("GrantOutcome", "crates/daemon/src/reactor.rs");

/// Source trees that must stay protocol-free.
const DRIVER_TREES: &[&str] = &["crates/sim/src", "crates/daemon/src", "src", "examples"];

/// Every file under `dir` with one of the extensions `exts`, skipping
/// build output, the benchmark package and hidden directories other than
/// `.github`.
fn sources(dir: &Path, exts: &[&str], out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source tree exists") {
        let path = entry.expect("readable dir entry").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if path.is_dir() {
            let hidden = name.starts_with('.') && name != ".github";
            if !hidden && name != "target" && name != "benchmark" {
                sources(&path, exts, out);
            }
        } else if exts
            .iter()
            .any(|ext| path.extension().is_some_and(|e| e == *ext))
        {
            out.push(path);
        }
    }
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    sources(dir, &["rs"], out);
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whole-identifier search: `GrantEscrow` must not match `GrantEscrowed`
/// (the trace event drivers legitimately mention in comments and tests).
fn contains_identifier(haystack: &str, ident: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(ident) {
        let start = from + pos;
        let end = start + ident.len();
        let before_ok = haystack[..start]
            .chars()
            .next_back()
            .is_none_or(|c| !is_ident_char(c));
        let after_ok = haystack[end..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

#[test]
fn protocol_state_machinery_stays_inside_penelope_core() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for tree in DRIVER_TREES {
        rust_sources(&root.join(tree), &mut files);
    }
    assert!(
        files.len() >= 5,
        "suspiciously few driver sources found ({}); tree layout changed?",
        files.len()
    );

    let mut violations = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path).expect("readable source file");
        for ident in DENIED {
            if *ident == LATE_VERDICT.0 && path.ends_with(LATE_VERDICT.1) {
                continue;
            }
            for (lineno, line) in text.lines().enumerate() {
                if contains_identifier(line, ident) {
                    violations.push(format!(
                        "{}:{}: `{}`",
                        path.strip_prefix(root).unwrap_or(path).display(),
                        lineno + 1,
                        ident
                    ));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "protocol logic leaked out of penelope-core — route it through \
         NodeEngine::step instead:\n  {}",
        violations.join("\n  ")
    );
}

/// The daemon crate owns exactly one socket loop: one file receives
/// datagrams, and no engine sits behind a lock for a second thread to
/// share. (The per-node daemon and the multiplexed runtime used to be two
/// loops over the same engine; the daemon is now the N = 1 case of the
/// reactor.)
#[test]
fn the_daemon_crate_has_one_socket_loop() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root.join("crates/daemon/src"), &mut files);
    let mut receivers = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path).expect("readable source file");
        let name = path
            .strip_prefix(root)
            .unwrap_or(path)
            .display()
            .to_string();
        assert!(
            !text.contains("Mutex<NodeEngine>"),
            "{name} shares a NodeEngine behind a mutex — the reactor owns its engines outright"
        );
        if text.contains("recv_from(") {
            receivers.push(name);
        }
    }
    assert_eq!(
        receivers,
        ["crates/daemon/src/reactor.rs"],
        "exactly one file under crates/daemon/src may receive datagrams"
    );
}

/// The names a source file gives to `Vec<EngineOutput>` buffers: struct
/// fields, parameters and annotated locals.
fn output_buffer_names(text: &str) -> Vec<&str> {
    let mut names = Vec::new();
    for (pos, _) in text.match_indices("Vec<EngineOutput>") {
        let decl = text[..pos].trim_end();
        let decl = decl.strip_suffix("&mut").unwrap_or(decl).trim_end();
        let Some(decl) = decl.strip_suffix(':') else {
            continue;
        };
        let start = decl
            .rfind(|c| !is_ident_char(c))
            .map_or(0, |before| before + 1);
        if start < decl.len() {
            names.push(&decl[start..]);
        }
    }
    names
}

/// True iff `text` clones an element of buffer `name` by index
/// (`name[i].clone()`), the shape of a hand-written output loop.
fn clones_an_element_of(text: &str, name: &str) -> bool {
    let indexed = format!("{name}[");
    text.match_indices(&indexed).any(|(pos, _)| {
        let before_ok = text[..pos]
            .chars()
            .next_back()
            .is_none_or(|c| !is_ident_char(c));
        let after = &text[pos + indexed.len()..];
        before_ok
            && after
                .find(']')
                .is_some_and(|close| after[close + 1..].starts_with(".clone()"))
    })
}

/// The loop that executes engine outputs — walk the buffer, run each
/// effect, feed a sent grant's delivery status back — exists once, in
/// `NodeEngine::step`. Every other crate used to carry its own copy, and
/// each copy walked the buffer by index and cloned the element it was on.
#[test]
fn no_driver_walks_an_engine_output_buffer_by_hand() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root.join("src"), &mut files);
    for entry in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let krate = entry.expect("readable dir entry").path();
        if krate.file_name().is_some_and(|n| n != "core") {
            rust_sources(&krate.join("src"), &mut files);
        }
    }
    assert!(files.len() >= 50, "found only {} sources", files.len());
    let mut buffers = 0;
    for path in &files {
        let text = fs::read_to_string(path).expect("readable source file");
        for name in output_buffer_names(&text) {
            buffers += 1;
            assert!(
                !clones_an_element_of(&text, name),
                "{} clones elements of its EngineOutput buffer `{name}` — \
                 pass the buffer to NodeEngine::step and implement Effects",
                path.strip_prefix(root).unwrap_or(path).display()
            );
        }
    }
    assert!(
        buffers >= 4,
        "found only {buffers} output buffers; drivers renamed the type?"
    );
}

/// The part of a source file that ships: everything above its first
/// column-0 `#[cfg(test)]`.
fn non_test_part(text: &str) -> &str {
    match text.find("\n#[cfg(test)]") {
        Some(at) => &text[..at],
        None => text,
    }
}

/// What a node knows about its peers — timeout streaks, suspicions,
/// incarnations, the acked-seq floor — is one record per peer in
/// `discovery::PeerTable`. It used to be four `NodeId`-keyed maps spread
/// over the decider and the engine, which selection could only reach
/// through closures.
#[test]
fn per_peer_state_lives_in_core_discovery_only() {
    const KEYED_BY_PEER: &[&str] = &["HashMap<NodeId", "BTreeMap<NodeId", "Vec<(NodeId"];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root.join("crates/core/src"), &mut files);
    assert!(files.len() >= 8, "found only {} core sources", files.len());
    for path in &files {
        let text = fs::read_to_string(path).expect("readable source file");
        let name = path.file_name().unwrap().to_string_lossy();
        assert!(
            name == "discovery.rs" || !KEYED_BY_PEER.iter().any(|c| text.contains(c)),
            "crates/core/src/{name} keys a container by NodeId — per-peer state \
             belongs to discovery::PeerTable"
        );
    }
}

/// True iff `text` builds a `TraceEvent` literal (as opposed to naming
/// the type in a signature, an `impl` or its definition).
fn constructs_a_trace_event(text: &str) -> bool {
    text.match_indices("TraceEvent {").any(|(pos, _)| {
        let before = text[..pos].trim_end();
        !["->", "impl", "struct", "for"]
            .iter()
            .any(|word| before.ends_with(word))
    })
}

/// Stamping an event — time, node, `at / period`, behind an "is anyone
/// listening" check — happens once, in `penelope_trace::Stamper`. Six
/// sites used to do it by hand and disagreed on the fast path.
#[test]
fn only_penelope_trace_stamps_events() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root.join("src"), &mut files);
    rust_sources(&root.join("examples"), &mut files);
    for entry in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let krate = entry.expect("readable dir entry").path();
        if krate.file_name().is_some_and(|n| n != "trace") {
            rust_sources(&krate.join("src"), &mut files);
        }
    }
    assert!(files.len() >= 60, "found only {} sources", files.len());
    for path in &files {
        let text = fs::read_to_string(path).expect("readable source file");
        assert!(
            !constructs_a_trace_event(non_test_part(&text)),
            "{} builds a TraceEvent by hand — emit through penelope_trace::Stamper",
            path.strip_prefix(root).unwrap_or(path).display()
        );
    }
}

/// `benchmark/` is the only program that times this repo. The v1 harness
/// it replaced (`perf_report`, its schema and regression gate, a committed
/// baseline, a criterion package that had stopped compiling) measured
/// less, and every perf PR had to satisfy both.
#[test]
fn the_repo_has_one_perf_harness() {
    // Split so this file does not match itself.
    let denied = [
        concat!("penelope-bench", "/v1"),
        concat!("check_", "regression"),
        concat!("BENCH_", "baseline"),
        concat!("PENELOPE_PERF_", "TOLERANCE"),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    sources(root, &["rs", "yml", "toml"], &mut files);
    assert!(files.len() >= 100, "found only {} sources", files.len());
    for path in &files {
        let text = fs::read_to_string(path).expect("readable source file");
        for needle in denied {
            assert!(
                !text.contains(needle),
                "{} mentions `{needle}` — perf numbers come from `bash benchmark/run.sh`",
                path.strip_prefix(root).unwrap_or(path).display()
            );
        }
    }
    for gone in ["crates/bench/figures", concat!("BENCH_", "baseline.json")] {
        assert!(!root.join(gone).exists(), "{gone} is back");
    }
    let mut bench_src: Vec<String> = fs::read_dir(root.join("crates/bench/src"))
        .expect("crates/bench/src exists")
        .map(|e| {
            e.expect("readable dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    bench_src.sort();
    assert_eq!(
        bench_src,
        ["json.rs", "lib.rs"],
        "penelope-bench is the benchmark's JSON value and nothing else"
    );
}

/// True iff `text` calls `name(..)` as a free function: `frame(` but not
/// `deframe(`, `fn frame(` or `.frame(`.
fn calls_free_fn(text: &str, name: &str) -> bool {
    let call = format!("{name}(");
    text.match_indices(&call).any(|(pos, _)| {
        let before = &text[..pos];
        before
            .chars()
            .next_back()
            .is_none_or(|c| !is_ident_char(c) && c != '.')
            && !before.ends_with("fn ")
    })
}

/// A frame costs the daemon no heap acquisition: the reactor encodes it
/// into one reused buffer (`WireMsg::encode_into` under `frame_into`),
/// not through the allocating `WireMsg::encode()` and a `frame()` around
/// it, which cost two per frame. And every datagram this workspace puts
/// on a real socket leaves through `penelope_net::shim`, whose decorators
/// (fault plane, coalescing) a send that went around them would skip.
#[test]
fn the_daemon_send_path_reuses_its_buffers_and_the_shim_sockets() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root.join("crates/daemon/src"), &mut files);
    assert!(
        files.len() >= 6,
        "found only {} daemon sources",
        files.len()
    );
    for path in &files {
        let text = fs::read_to_string(path).expect("readable source file");
        let shipped = non_test_part(&text);
        assert!(
            !shipped.contains(".encode()") && !calls_free_fn(shipped, "frame"),
            "{} allocates a buffer per frame — encode into the reactor's \
             with `frame_into` / `WireMsg::encode_into`",
            path.strip_prefix(root).unwrap_or(path).display()
        );
    }

    let mut files = Vec::new();
    for tree in ["src", "crates", "examples"] {
        rust_sources(&root.join(tree), &mut files);
    }
    assert!(files.len() >= 80, "found only {} sources", files.len());
    let mut senders: Vec<String> = files
        .iter()
        .filter(|path| {
            let text = fs::read_to_string(path).expect("readable source file");
            !path.components().any(|c| c.as_os_str() == "tests")
                && non_test_part(&text).contains("send_to(")
        })
        .map(|path| {
            path.strip_prefix(root)
                .unwrap_or(path)
                .display()
                .to_string()
        })
        .collect();
    senders.sort();
    assert_eq!(
        senders,
        ["crates/daemon/src/reactor.rs", "crates/net/src/shim.rs"],
        "shipped code sends datagrams in two places: the reactor, on a \
         `DatagramSocket`, and the shim under it, on the `UdpSocket`"
    );
}

/// `ShardedSim` orders nothing before its round comes: a shard's pending
/// events sit in a calendar of lookahead buckets and a bucket is sorted
/// when it is delivered. The binary heap that calendar replaced was 45 %
/// of `shard_dense`; it does not come back beside it, for events or for
/// wake-ups.
#[test]
fn the_shard_keeps_no_binary_heap() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text =
        fs::read_to_string(root.join("crates/sim/src/shard.rs")).expect("readable source file");
    let shipped = non_test_part(&text);
    assert!(
        contains_identifier(shipped, "Calendar"),
        "crates/sim/src/shard.rs no longer names its calendar — was it moved?"
    );
    assert!(
        !contains_identifier(shipped, "BinaryHeap"),
        "shipped crates/sim/src/shard.rs names a BinaryHeap — file events under \
         the round that delivers them (`Calendar`) and wake-ups under their boundary"
    );
}

/// A node nobody has written to owns no engine: the shard keeps a slot per
/// node and a record per node that has been written to. A column with an
/// engine or an RNG for every node is the eager build come back — 74 % of
/// `shard_sparse`'s nodes never receive an input.
#[test]
fn the_shard_keeps_no_per_node_engine_column() {
    const PER_NODE: &[&str] = &["Vec<NodeEngine>", "Vec<TestRng>"];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text =
        fs::read_to_string(root.join("crates/sim/src/shard.rs")).expect("readable source file");
    let shipped = non_test_part(&text);
    assert!(
        shipped.contains("slot: Vec<u32>") && shipped.contains("live: Vec<Live>"),
        "crates/sim/src/shard.rs no longer names its slots and live records — were they moved?"
    );
    assert!(
        !PER_NODE.iter().any(|c| shipped.contains(c)),
        "shipped crates/sim/src/shard.rs holds an engine or RNG column — a node \
         gets both when it is first written to (`Shard::live_index`)"
    );
}

/// `ShardedSim` starts its threads once per run: one `thread::scope` whose
/// workers each own a run of shards from the first phase to the last. It
/// used to open a scope per phase — 387 of them on `shard_sparse`, two
/// spawns each — and a `thread::spawn` would be a thread nobody joins.
#[test]
fn the_shard_starts_its_threads_once_per_run() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text =
        fs::read_to_string(root.join("crates/sim/src/shard.rs")).expect("readable source file");
    let shipped = non_test_part(&text);
    assert_eq!(
        shipped.matches("thread::scope").count(),
        1,
        "shipped crates/sim/src/shard.rs must open exactly one thread scope — in \
         `ShardedSim::run`, around the whole run"
    );
    assert!(
        !shipped.contains("thread::spawn"),
        "shipped crates/sim/src/shard.rs spawns a thread outside the run's scope"
    );
}

/// True iff `line` is code that ranges over every node of the cluster:
/// `0..n`, `0..n as u32`, `0..self.cluster_size`.
fn ranges_over_the_cluster(line: &str) -> bool {
    !line.trim_start().starts_with("//")
        && line.match_indices("0..").any(|(pos, _)| {
            let from_zero = !line[..pos].ends_with(is_ident_char);
            let bound = &line[pos + 3..];
            let bound = bound.strip_prefix("self.").unwrap_or(bound);
            let ident = bound.find(|c| !is_ident_char(c)).unwrap_or(bound.len());
            from_zero && ["n", "cluster_size"].contains(&&bound[..ident])
        })
}

/// The paper's scaling argument (§3.1, §4.5) is that what one node does
/// in a period does not grow with the cluster: nothing a node runs may
/// loop over all n ids. Peer selection under suspicion used to — every
/// pick pushed all n − 1 candidates through the liveness filter into a
/// fresh `Vec` — and now walks the node's own records. The one scan left
/// is `choose_peer`'s: its caller names the suspects by predicate, which
/// can only be asked one id at a time. (`fair.rs` is exempt: the Fair
/// baseline *is* the cluster-wide assignment, computed once.)
#[test]
fn a_node_never_ranges_over_the_cluster() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root.join("crates/core/src"), &mut files);
    assert!(files.len() >= 8, "found only {} core sources", files.len());
    let mut scans = Vec::new();
    for path in files.iter().filter(|p| !p.ends_with("fair.rs")) {
        let text = fs::read_to_string(path).expect("readable source file");
        let mut inside = None;
        for line in non_test_part(&text).lines() {
            if line.starts_with("pub fn ") || line.starts_with("fn ") {
                inside = line.split(['(', '<']).next();
            } else if line == "}" {
                inside = None;
            }
            if ranges_over_the_cluster(line) {
                let file = path.file_name().unwrap().to_string_lossy();
                scans.push(format!("{file}: {}", inside.unwrap_or("")));
            }
        }
    }
    assert_eq!(
        scans,
        ["discovery.rs: pub fn choose_peer"],
        "shipped penelope-core ranges over the cluster outside `choose_peer`'s \
         predicate scan — walk what the node holds instead"
    );
}

/// The tables a node keeps for itself — unacknowledged grants, applied
/// seqs — hold a handful of entries, so they are `Vec`s matched linearly.
/// As std hash tables they cost SipHash on every request, grant and ack
/// (a fifth of `shard_dense`), 48 bytes and a `RandomState` draw per
/// engine each, and an expiry order that changed from run to run.
#[test]
fn an_engine_keeps_no_hash_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for file in ["escrow.rs", "decider.rs", "engine.rs"] {
        let text = fs::read_to_string(root.join("crates/core/src").join(file))
            .expect("readable source file");
        let shipped = non_test_part(&text);
        assert!(shipped.len() > 1_000, "{file} is suspiciously short");
        for table in ["HashMap", "HashSet"] {
            assert!(
                !contains_identifier(shipped, table),
                "shipped crates/core/src/{file} names a {table} — a node's own tables \
                 are small: keep them as arrays (see `GrantEscrow`)"
            );
        }
    }
}

/// The configuration types of `penelope-core`, outermost first: each
/// holds the next by value, so a field of any of them is a copy of
/// `DeciderConfig`'s 64 bytes or more.
const CONFIG_TYPES: &[&str] = &["EngineConfig", "NodeParams", "DeciderConfig", "PoolConfig"];

/// `(struct, field type)` for every field of a struct defined in `text`
/// that holds one of [`CONFIG_TYPES`] by value — `Option<_>` and friends
/// included, an `Arc<_>` or a reference not.
fn config_fields_by_value(text: &str) -> Vec<(&str, &str)> {
    let mut found = Vec::new();
    let mut inside = None;
    for line in text.lines() {
        let code = line.trim();
        if code.starts_with("//") {
            continue;
        }
        if let Some(at) = line.find("struct ").filter(|_| !line.starts_with(' ')) {
            let name = &line[at + "struct ".len()..];
            let name = &name[..name.find(|c| !is_ident_char(c)).unwrap_or(name.len())];
            inside = line.trim_end().ends_with('{').then_some(name);
            continue;
        }
        if line == "}" {
            inside = None;
        }
        let (Some(holder), Some((_, ty))) = (inside, code.split_once(':')) else {
            continue;
        };
        let shared = ty.contains("Arc<") || ty.contains('&');
        if !shared && CONFIG_TYPES.iter().any(|c| contains_identifier(ty, c)) {
            found.push((holder, ty.trim().trim_end_matches(',')));
        }
    }
    found
}

/// Configuration is a constant of the cluster, so it is stored once per
/// cluster: an engine holds an `Arc<EngineConfig>` (inside its `NodeCtx`)
/// and its parts read the knobs through the context each call is handed.
/// Every engine used to own a 152-byte `EngineConfig` of which the
/// decider, the pool and the peer table each kept their part again — 330
/// of 760 bytes, times half a million nodes. The one copy left is the
/// pool's 24-byte limiter: `PowerPool` is driven on its own, too.
#[test]
fn configuration_is_stored_once_per_cluster() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root.join("crates/core/src"), &mut files);
    assert!(files.len() >= 8, "found only {} core sources", files.len());
    let mut holders = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path).expect("readable source file");
        for (holder, ty) in config_fields_by_value(non_test_part(&text)) {
            holders.push(format!("{holder}: {ty}"));
        }
    }
    holders.sort();
    assert_eq!(
        holders,
        [
            "EngineConfig: NodeParams",
            "NodeParams: DeciderConfig",
            "NodeParams: PoolConfig",
            "PowerPool: PoolConfig",
        ],
        "a struct in crates/core/src holds configuration by value — read it \
         through the `NodeCtx` the engine lends instead"
    );
}

/// The lines of `text` that implement `penelope_core::Effects`.
fn effects_impls(text: &str) -> usize {
    text.lines()
        .filter(|line| line.starts_with("impl") && line.contains(" Effects<"))
        .count()
}

/// True iff `text` both starts threads and names the engine: the shape of
/// a thread-per-node driver.
fn spawns_engine_threads(text: &str) -> bool {
    ["thread::spawn", "thread::scope", "thread::Builder"]
        .iter()
        .any(|spawn| text.contains(spawn))
        && contains_identifier(text, "NodeEngine")
}

/// A substrate is an `Effects` mapping plus something that feeds the
/// engine inputs, and the repo keeps four mappings: the DES's, the
/// sharded DES's two (first tick and steady state), and the reactor's,
/// which the per-node daemon and the multiplexed daemon both run. A fifth
/// belonged to a thread-per-node lockstep harness that only the
/// conformance suite ran, and a sixth to a second thread-per-node driver
/// with wall-clock sleeps for a clock; the first of those lived inside
/// the facade crate's conformance module, which is adapters now and must
/// not grow a driver back.
#[test]
fn effects_are_mapped_in_four_places_and_the_facade_starts_no_engine_threads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for tree in ["src", "crates", "examples"] {
        rust_sources(&root.join(tree), &mut files);
    }
    assert!(files.len() >= 80, "found only {} sources", files.len());
    let mut impls = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path).expect("readable source file");
        let shipped = non_test_part(&text);
        let name = path
            .strip_prefix(root)
            .unwrap_or(path)
            .display()
            .to_string();
        if !path.components().any(|c| c.as_os_str() == "tests") {
            impls.extend(std::iter::repeat_n(name.clone(), effects_impls(shipped)));
        }
        assert!(
            !(name.starts_with("src/") && spawns_engine_threads(shipped)),
            "{name} starts threads that step engines — the facade only \
             adapts to the substrates' own drivers"
        );
    }
    impls.sort();
    assert_eq!(
        impls,
        [
            "crates/daemon/src/reactor.rs",
            "crates/sim/src/cluster.rs",
            "crates/sim/src/shard.rs",
            "crates/sim/src/shard.rs",
        ],
        "shipped code implements `Effects` somewhere new — a substrate is \
         one mapping; a fifth is a second driver for an existing one"
    );
}

/// `Enum::Variant` for every variant of an `enum` defined in `text`.
fn enum_variants(text: &str) -> Vec<(&str, &str)> {
    let mut found = Vec::new();
    let mut inside: Option<(&str, usize)> = None;
    for line in text.lines() {
        let code = line.trim();
        let indent = line.len() - line.trim_start().len();
        match inside {
            None => {
                let decl = code.strip_prefix("pub ").unwrap_or(code);
                if let Some(name) = decl.strip_prefix("enum ").filter(|_| code.ends_with('{')) {
                    let end = name.find(|c| !is_ident_char(c)).unwrap_or(name.len());
                    inside = Some((&name[..end], indent));
                }
            }
            Some((_, at)) if indent == at && code == "}" => inside = None,
            Some((name, at)) if indent == at + 4 && code.starts_with(char::is_uppercase) => {
                let end = code.find(|c| !is_ident_char(c)).unwrap_or(code.len());
                found.push((name, &code[..end]));
            }
            Some(_) => {}
        }
    }
    found
}

/// The enums of `text` that can say both "this node dies" and "these
/// nodes stop hearing each other": a fault vocabulary.
fn fault_vocabularies(text: &str) -> Vec<&str> {
    let variants = enum_variants(text);
    let says = |name: &str, arm: &str| {
        variants
            .iter()
            .any(|(e, variant)| *e == name && variant.starts_with(arm))
    };
    let mut names: Vec<&str> = variants.iter().map(|(name, _)| *name).collect();
    names.dedup();
    names.retain(|name| says(name, "Kill") && says(name, "Partition"));
    names
}

/// The functions of `text` that take a scenario and return its workloads
/// or its fault script: a translation step.
fn scenario_translators(text: &str) -> Vec<&str> {
    let mut found = Vec::new();
    for (at, _) in text.match_indices("fn ") {
        let rest = &text[at + 3..];
        let Some(body) = rest.find(['{', ';']) else {
            continue;
        };
        let Some((params, returns)) = rest[..body].split_once("->") else {
            continue;
        };
        let translates = (returns.contains("Vec<") && returns.contains("Profile>"))
            || contains_identifier(returns, "FaultScript");
        if contains_identifier(params, "Scenario") && translates {
            found.push(&rest[..rest.find('(').unwrap_or(body)]);
        }
    }
    found
}

/// A conformance scenario *is* what its substrates run: a `ClusterConfig`,
/// one `Profile` per node and a `FaultScript`. It used to be a second
/// vocabulary — a nine-variant fault enum, phase and workload specs — in
/// the test kit, under a layer in the root crate that translated it, and
/// every suite that needed the live simulator carried its own copy of the
/// translation.
#[test]
fn a_scenario_is_a_fault_script_and_nothing_translates_it() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for tree in ["src", "crates", "examples"] {
        rust_sources(&root.join(tree), &mut files);
    }
    assert!(files.len() >= 80, "found only {} sources", files.len());
    let mut vocabularies = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path).expect("readable source file");
        let name = path.strip_prefix(root).unwrap_or(path).display();
        if !path.components().any(|c| c.as_os_str() == "tests") {
            for vocabulary in fault_vocabularies(non_test_part(&text)) {
                vocabularies.push(format!("{name}: {vocabulary}"));
            }
        }
        let below_the_kit = path.starts_with(root.join("crates/sim/src"));
        assert!(
            !(below_the_kit && text.contains(concat!("testkit::", "conformance"))),
            "{name} imports a conformance type from the test kit — the cut \
             types live in `penelope_sim::ledger`"
        );
    }
    assert_eq!(
        vocabularies,
        ["crates/sim/src/faults.rs: FaultAction"],
        "shipped code spells faults a second way — a scenario carries a `FaultScript`"
    );

    let kit = root.join("crates/testkit/src");
    let kit_lib = fs::read_to_string(kit.join("lib.rs")).expect("readable source file");
    assert!(
        !kit.join("conformance.rs").exists()
            && !kit.join("conformance").exists()
            && !kit_lib.contains("mod conformance"),
        "penelope-testkit has a conformance module again — it is `penelope::conformance`"
    );

    let mut suites = Vec::new();
    rust_sources(&root.join("tests"), &mut suites);
    assert!(suites.len() >= 10, "found only {} suites", suites.len());
    // This file holds the shapes themselves, as its self-test's input.
    for path in suites.iter().filter(|p| !p.ends_with("architecture.rs")) {
        let text = fs::read_to_string(path).expect("readable source file");
        let translators = scenario_translators(&text);
        assert!(
            translators.is_empty(),
            "{} maps a scenario to its workloads or faults ({translators:?}) — \
             read `scenario.profiles` and `scenario.faults`",
            path.strip_prefix(root).unwrap_or(path).display()
        );
    }
}

/// `FaultAction`'s variants that a transport's fault plane carries out.
const CONNECTIVITY_ARMS: &[&str] = &[
    "Partition",
    "PartitionLink",
    "HealLink",
    "Heal",
    "SetDropRate",
];

/// The functions of `text` that match one of [`CONNECTIVITY_ARMS`]: a
/// `match` arm, an `if let`/`let … else` pattern (tuples included) or a
/// `matches!`. Building an action — as an argument, a value, an element —
/// is not a match. Each name is the nearest `fn` above the pattern.
fn connectivity_readers(text: &str) -> Vec<&str> {
    let mut found = Vec::new();
    for (at, _) in text.match_indices("FaultAction::") {
        let rest = &text[at + "FaultAction::".len()..];
        let arm = &rest[..rest.find(|c| !is_ident_char(c)).unwrap_or(rest.len())];
        if !CONNECTIVITY_ARMS.contains(&arm) {
            continue;
        }
        // Skip the arm's fields, then whatever closes around it.
        let mut after = rest[arm.len()..].trim_start();
        if let Some(open) = after.chars().next().filter(|c| *c == '(' || *c == '{') {
            let close = if open == '(' { ')' } else { '}' };
            let mut depth = 0;
            for (i, c) in after.char_indices() {
                depth += i32::from(c == open) - i32::from(c == close);
                if depth == 0 {
                    after = &after[i + 1..];
                    break;
                }
            }
        }
        let after = after.trim_start_matches(|c: char| c.is_whitespace() || c == ')' || c == ']');
        let line_start = text[..at].rfind('\n').map_or(0, |i| i + 1);
        let in_matches = text[line_start..at].contains("matches!(");
        let pattern = after.starts_with("=>")
            || after.starts_with('|')
            || after.starts_with("if ")
            || (after.starts_with('=') && !after.starts_with("=="))
            || in_matches;
        if pattern {
            let name = text[..at].rfind("fn ").map_or("", |f| {
                let name = &text[f + 3..];
                &name[..name.find(|c| !is_ident_char(c)).unwrap_or(name.len())]
            });
            if !found.contains(&name) {
                found.push(name);
            }
        }
    }
    found
}

/// A fault script reaches a transport in one place: `FaultAction::apply`
/// puts connectivity and loss on a `FaultPlane` and hands kills and
/// restarts back. The simulator, a lockstep coordinator and the daemon
/// adapter once each matched the arms themselves — the adapter by
/// refusing every one its socket shim could not express.
#[test]
fn a_fault_script_has_one_reading_onto_a_fault_plane() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for tree in ["src", "crates", "examples"] {
        rust_sources(&root.join(tree), &mut files);
    }
    assert!(files.len() >= 80, "found only {} sources", files.len());
    let mut readers = Vec::new();
    for path in &files {
        if path.components().any(|c| c.as_os_str() == "tests") {
            continue;
        }
        let text = fs::read_to_string(path).expect("readable source file");
        let name = path.strip_prefix(root).unwrap_or(path).display();
        for reader in connectivity_readers(non_test_part(&text)) {
            readers.push(format!("{name}: {reader}"));
        }
    }
    assert_eq!(
        readers,
        ["crates/sim/src/faults.rs: apply"],
        "shipped code reads a fault's connectivity arms outside `FaultAction::apply`"
    );
}

#[test]
fn connectivity_reader_detection_sees_the_shapes_it_replaced() {
    let old = "    fn handle_fault(&mut self, action: FaultAction) {\n        match action {\n            \
               FaultAction::Kill(id) => self.kill_node(id),\n            \
               FaultAction::PartitionLink { from, to } => {\n                \
               self.net.faults_mut().cut_link(from, to);\n            }\n        }\n    }\n\
               fn apply(&self, action: &FaultAction) {\n        match action {\n            \
               FaultAction::Heal => net.with_faults(|f| f.heal_partitions()),\n        }\n    }\n\
               fn run(&self, scenario: &Scenario) {\n            match action {\n                \
               FaultAction::SetDropRate(rate) if *at == SimTime::ZERO => {}\n            }\n    }\n\
               pub fn drop_rate_in(&self, period: u64) -> f64 {\n            \
               if let (true, FaultAction::SetDropRate(r)) = (at <= start, action) {\n            }\n    }\n\
               fn is_cut(action: &FaultAction) -> bool {\n    \
               matches!(action, FaultAction::Partition(_))\n}\n\
               fn split() -> FaultAction {\n    let FaultAction::Partition(groups) = a else { return };\n}";
    assert_eq!(
        connectivity_readers(old),
        [
            "handle_fault",
            "apply",
            "run",
            "drop_rate_in",
            "is_cut",
            "split"
        ]
    );
    // Building actions — as arguments, values and elements — and matching
    // only the lifecycle arms are not readings of connectivity.
    let new =
        "fn split(split_at: u32) -> FaultAction {\n    FaultAction::Partition(vec![\n        \
               (0..split_at).map(NodeId::new).collect(),\n    ])\n}\n\
               fn dropping(mut self) -> Scenario {\n        \
               self.faults = self.faults.at(SimTime::ZERO, FaultAction::SetDropRate(rate));\n}\n\
               fn heals() -> Vec<FaultAction> {\n    let heal = FaultAction::Heal;\n    \
               vec![FaultAction::Heal, FaultAction::HealLink { from, to }, heal]\n}\n\
               fn kills(&self) -> bool {\n    matches!(action, FaultAction::Kill(_))\n}";
    assert_eq!(connectivity_readers(new), [""; 0]);
}

/// The functions whose two-argument calls seed a generator in `text`,
/// `TestRng::seed_from_u64(derive(master, index))`: the shape of a
/// per-node stream derivation, by its last path segment. A one-argument
/// mix (`splitmix64(&mut s)`) or an expression is not one.
fn stream_derivations(text: &str) -> Vec<&str> {
    let mut found = Vec::new();
    for (at, call) in text.match_indices("seed_from_u64(") {
        let arg = &text[at + call.len()..];
        let path_len = arg
            .find(|c: char| !is_ident_char(c) && c != ':')
            .unwrap_or(arg.len());
        let (path, rest) = arg.split_at(path_len);
        let name = path.rsplit("::").next().unwrap_or("");
        if name.is_empty() || !rest.starts_with('(') {
            continue;
        }
        let (mut depth, mut commas) = (0, 0);
        for c in rest.chars() {
            match c {
                '(' => depth += 1,
                ')' if depth == 1 => break,
                ')' => depth -= 1,
                ',' if depth == 1 => commas += 1,
                _ => {}
            }
        }
        if commas == 1 {
            found.push(name);
        }
    }
    found
}

/// Every per-node random stream in the workspace is seeded by one
/// function, `penelope_testkit::rng::node_seed`. The simulators once used
/// a xor-multiply and the daemon code two SplitMix steps, so the two legs
/// of the conformance suite drew different streams for the same seed and
/// could not be held to equal protocol streams.
#[test]
fn per_node_streams_have_one_derivation() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for tree in ["src", "crates", "examples"] {
        rust_sources(&root.join(tree), &mut files);
    }
    assert!(files.len() >= 80, "found only {} sources", files.len());
    let (mut derivations, mut definitions) = (Vec::new(), Vec::new());
    for path in &files {
        let text = fs::read_to_string(path).expect("readable source file");
        let name = path.strip_prefix(root).unwrap_or(path).display();
        derivations.extend(stream_derivations(&text).into_iter().map(String::from));
        if contains_identifier(&text, "fn node_seed") {
            definitions.push(name.to_string());
        }
    }
    derivations.sort_unstable();
    derivations.dedup();
    assert_eq!(
        derivations,
        ["node_seed"],
        "a generator is seeded by a second per-node derivation"
    );
    assert_eq!(
        definitions,
        ["crates/testkit/src/rng.rs"],
        "`node_seed` is defined somewhere other than `penelope_testkit::rng`"
    );
}

#[test]
fn stream_derivation_detection_sees_the_shapes_it_replaced() {
    let old = "rng: TestRng::seed_from_u64(node_seed(cfg.seed, i as u64)),\n\
               .map(|i| TestRng::seed_from_u64(split_stream(seed, i as u64)))\n\
               TestRng::seed_from_u64(penelope_sim::node_seed(seed, i as u64))";
    assert_eq!(
        stream_derivations(old),
        ["node_seed", "split_stream", "node_seed"]
    );
    // A single-argument mix, a plain expression and a literal are seeds,
    // not per-node derivations.
    let new = "TestRng::seed_from_u64(splitmix64(&mut s))\n\
               TestRng::seed_from_u64(period ^ lambda)\n\
               TestRng::seed_from_u64(0x5E41)\n\
               pub fn seed_from_u64(seed: u64) -> Self {";
    assert!(stream_derivations(new).is_empty());
}

/// `(line, name)` for every `pub fn`, `pub const` and `pub static` that
/// `text` declares above its `#[cfg(test)]` module, methods included and
/// `pub(crate)` items not.
fn pub_items(text: &str) -> Vec<(usize, &str)> {
    // What may stand between `pub` and `fn`: `const fn`, `unsafe fn`,
    // `extern "C" fn`.
    const QUALIFIERS: [&str; 5] = ["const", "unsafe", "async", "extern", "\"C\""];
    let mut items = Vec::new();
    for (i, line) in non_test_part(text).lines().enumerate() {
        let Some(rest) = line.trim_start().strip_prefix("pub ") else {
            continue;
        };
        let words: Vec<&str> = rest.split_whitespace().collect();
        let quals = words.iter().take_while(|w| QUALIFIERS.contains(w)).count();
        let name = match (words.get(quals), quals) {
            (Some(&"fn"), _) => words.get(quals + 1),
            (Some(&"static"), 0) => words.get(1).filter(|w| **w != "mut").or(words.get(2)),
            (_, 1) if words[0] == "const" => words.get(1),
            _ => None,
        };
        let name = name.map_or("", |w| {
            &w[..w.find(|c: char| !is_ident_char(c)).unwrap_or(w.len())]
        });
        if !name.is_empty() {
            items.push((i + 1, name));
        }
    }
    items
}

/// Every identifier on a line of `text` that is not a comment.
fn named_identifiers(text: &str) -> HashSet<&str> {
    text.lines()
        .filter(|line| !line.trim_start().starts_with("//"))
        .flat_map(|line| line.split(|c: char| !is_ident_char(c)))
        .filter(|word| !word.is_empty())
        .collect()
}

/// The `pub` items of `lib` whose names `named` lacks.
fn unnamed_pub_items<'a>(lib: &'a str, named: &HashSet<&str>) -> Vec<(usize, &'a str)> {
    pub_items(lib)
        .into_iter()
        .filter(|(_, name)| !named.contains(name))
        .collect()
}

/// A library's public surface is what the rest of the repo uses. Every
/// `pub fn`, `pub const` and `pub static` in `crates/*/src` (the binaries
/// in `src/main.rs` and `src/bin/` aside) must be named, on a line that is
/// not a comment, in a `.rs` file outside that library: another crate,
/// the crate's own `tests/`, its binaries, the root package's `src/`,
/// `tests/` or `examples/`, or the benchmark harness. About ninety items
/// were named by nothing but their own crate — a text format for
/// profiles, a synthetic-profile generator, a builder over public fields
/// among them — and `unreachable_pub` sees none of that while every
/// module is a `pub mod`. This file is no witness: its fixtures name
/// items they do not use.
#[test]
fn every_pub_item_is_named_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for tree in ["crates", "src", "tests", "examples", "benchmark/src"] {
        rust_sources(&root.join(tree), &mut files);
    }
    let this_file = root.join("tests/architecture.rs");
    files.retain(|path| *path != this_file);
    let texts: Vec<String> = files
        .iter()
        .map(|path| fs::read_to_string(path).expect("readable source file"))
        .collect();
    let named: Vec<HashSet<&str>> = texts.iter().map(|text| named_identifiers(text)).collect();
    let (mut items, mut offenders) = (0, Vec::new());
    for entry in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let src = entry.expect("readable dir entry").path().join("src");
        let in_lib = |path: &Path| {
            path.starts_with(&src)
                && *path != src.join("main.rs")
                && !path.starts_with(src.join("bin"))
        };
        let elsewhere: HashSet<&str> = files
            .iter()
            .zip(&named)
            .filter(|(path, _)| !in_lib(path))
            .flat_map(|(_, idents)| idents.iter().copied())
            .collect();
        for (path, text) in files.iter().zip(&texts).filter(|(path, _)| in_lib(path)) {
            items += pub_items(text).len();
            let path = path.strip_prefix(root).unwrap_or(path).display();
            for (line, name) in unnamed_pub_items(text, &elsewhere) {
                offenders.push(format!("{path}:{line}: `{name}`"));
            }
        }
    }
    assert!(
        items >= 300,
        "found only {items} pub items; tree layout changed?"
    );
    assert!(
        offenders.is_empty(),
        "pub items named nowhere outside their crate — narrow each to \
         `pub(crate)` or private, or delete it:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn pub_item_census_flags_what_only_its_own_crate_names() {
    let lib = "pub fn used_elsewhere() {}\n\
               pub fn planted_helper() -> u8 {\n    1\n}\n\
               pub(crate) fn narrowed() {}\n\
               pub const fn also_used() -> u8 {\n    planted_helper()\n}\n\
               pub const LIMIT: usize = 4;\n\
               pub static mut COUNTER: u32 = 0;\n\
               pub struct S;\n\
               impl S {\n    pub unsafe fn method(&self) {}\n}\n\
               #[cfg(test)]\nmod tests {\n    pub fn only_in_tests() {}\n}";
    assert_eq!(
        pub_items(lib),
        [
            (1, "used_elsewhere"),
            (2, "planted_helper"),
            (6, "also_used"),
            (9, "LIMIT"),
            (10, "COUNTER"),
            (13, "method"),
        ]
    );
    // A use, a call and a method call name an item; a comment or a doc
    // line does not.
    let elsewhere = "use krate::{used_elsewhere, LIMIT};\n\
                     // planted_helper() is only mentioned in a comment\n\
                     /// and in docs: [`COUNTER`]\n\
                     fn f() { also_used(); s.method(); }";
    assert_eq!(
        unnamed_pub_items(lib, &named_identifiers(elsewhere)),
        [(2, "planted_helper"), (10, "COUNTER")]
    );
}

#[test]
fn fault_vocabulary_detection_sees_the_shapes_it_replaced() {
    let old = "pub enum FaultSpec {\n    /// No faults.\n    None,\n    KillNode {\n        \
               node: u32,\n    },\n    Partition {\n        split_at: u32,\n    },\n}\n\
               pub enum FaultAction {\n    Kill(NodeId),\n    Partition(Vec<Vec<NodeId>>),\n    \
               Heal,\n}\n\
               enum Lifecycle {\n    Kill(u32),\n    Restart(u32),\n}";
    assert_eq!(
        enum_variants(old)[..3],
        [
            ("FaultSpec", "None"),
            ("FaultSpec", "KillNode"),
            ("FaultSpec", "Partition")
        ]
    );
    assert_eq!(fault_vocabularies(old), ["FaultSpec", "FaultAction"]);
    let translators = "fn profiles(scenario: &Scenario) -> Vec<penelope_workload::Profile> {\n}\n\
                       fn fault_script(scenario: &Scenario) -> FaultScript {\n}\n\
                       fn probe_setup(\n    scenario: &Scenario,\n) -> (ClusterConfig, Vec<Profile>, FaultScript) {\n}";
    assert_eq!(
        scenario_translators(translators),
        ["profiles", "fault_script", "probe_setup"]
    );
    // Building a script, or a scenario from one, is not translating one;
    // neither is reading a scenario for something else.
    let new = "fn split_then_heal() -> FaultScript {\n}\n\
               fn cut_by(mut scenario: Scenario, faults: FaultScript) -> Scenario {\n}\n\
               fn observed_sim_run(scenario: &Scenario) -> Vec<TraceEvent> {\n}\n\
               fn assert_readmits_once(scenario: &Scenario, run: &SubstrateRun) {\n}";
    assert_eq!(scenario_translators(new), [""; 0]);
}

/// Every conformance run goes through `penelope::conformance`'s
/// `assert_conformant` on its `SUBSTRATES`. No test file keeps a list of
/// legs or a run-and-check helper taking a leg of its own (four private
/// copies of "run on a leg, check, panic with the seed" once grew here),
/// and `check_run` is called directly only by `tests/conformance.rs`,
/// whose planted double-grant substrate expects violations.
#[test]
fn conformance_tests_share_one_runner() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root.join("tests"), &mut files);
    files.retain(|path| *path != root.join("tests/architecture.rs"));
    let mut offenders = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path).expect("readable test file");
        let rel = path.strip_prefix(root).unwrap_or(path);
        let code = text
            .lines()
            .filter(|line| !line.trim_start().starts_with("//"));
        for line in code {
            let own_legs = line.contains("&dyn Substrate;") || line.contains("as &dyn Substrate");
            let helper = line.contains("fn ") && line.contains("&dyn Substrate");
            let direct = line.contains("check_run(") && rel != Path::new("tests/conformance.rs");
            if own_legs || helper || direct {
                offenders.push(format!("{}: {}", rel.display(), line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "run conformance scenarios with `assert_conformant(leg, &scenario)` \
         over `SUBSTRATES`:\n{}",
        offenders.join("\n")
    );
}

/// True iff `text` invokes one of the `proptest` crate's macros.
fn invokes_proptest_macros(text: &str) -> bool {
    let macros = [
        "proptest",
        "prop_assert",
        "prop_assert_eq",
        "prop_assert_ne",
        "prop_assume",
        "prop_oneof",
    ];
    macros.iter().any(|name| {
        text.match_indices(&format!("{name}!")).any(|(pos, _)| {
            text[..pos]
                .chars()
                .next_back()
                .is_none_or(|c| !is_ident_char(c))
        })
    })
}

/// The value of the `[workspace]` table's `members` key.
fn workspace_members(manifest: &str) -> Option<&str> {
    manifest.lines().find_map(|line| {
        let (key, value) = line.split_once('=')?;
        (key.trim() == "members").then(|| value.trim())
    })
}

/// Every property suite runs on `penelope_testkit::prop`. A vendored
/// `proptest` shim in `third_party/` used to run half of them through a
/// second DSL that forwarded to the same harness, and it was a second
/// workspace member the default `cargo test` never reached.
#[test]
fn the_workspace_has_one_property_test_vocabulary() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = Vec::new();
    sources(root, &["toml", "lock"], &mut manifests);
    manifests.retain(|p| p.ends_with("Cargo.toml") || p.ends_with("Cargo.lock"));
    assert!(
        manifests.len() >= 14,
        "found only {} manifests",
        manifests.len()
    );
    for path in &manifests {
        let text = fs::read_to_string(path).expect("readable manifest");
        assert!(
            !contains_identifier(&text, "proptest"),
            "{} names `proptest` — property tests call `penelope_testkit::prop::check`",
            path.strip_prefix(root).unwrap_or(path).display()
        );
    }
    let mut files = Vec::new();
    for tree in ["crates", "src", "tests", "examples"] {
        rust_sources(&root.join(tree), &mut files);
    }
    assert!(files.len() >= 100, "found only {} sources", files.len());
    for path in &files {
        let text = fs::read_to_string(path).expect("readable source file");
        assert!(
            !invokes_proptest_macros(&text),
            "{} invokes a `proptest` macro — write a `#[test]` that calls `prop::check`",
            path.strip_prefix(root).unwrap_or(path).display()
        );
    }
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("readable manifest");
    assert_eq!(
        workspace_members(&manifest),
        Some(r#"["crates/*"]"#),
        "the workspace is the root package and `crates/`, nothing vendored"
    );
}

/// Every `recv.record(` call in `text` whose receiver is not bare `self`,
/// and every `record_unanswered(` call. Outside the metrics crate the
/// only `record` method is `PeerTable`'s private one, called on `self`;
/// any other receiver is a `TurnaroundStats`, `OscillationStats` or
/// `RedistributionTracker`.
fn metric_record_calls(text: &str) -> Vec<&str> {
    let mut found = Vec::new();
    for (at, _) in text.match_indices(".record(") {
        let start = text[..at]
            .rfind(|c: char| !(is_ident_char(c) || c == '.' || c == '[' || c == ']'))
            .map_or(0, |p| p + 1);
        let receiver = &text[start..at];
        if receiver != "self" {
            found.push(&text[start..at + ".record(".len()]);
        }
    }
    for (at, _) in text.match_indices("record_unanswered(") {
        if !text[..at].ends_with("fn ") {
            found.push(&text[at..at + "record_unanswered(".len()]);
        }
    }
    found
}

/// Turnaround, redistribution and oscillation are computed once, by
/// `penelope_metrics::MetricsCollector`. The simulator used to keep its
/// own per-node collectors and pairing map beside a second set of slice
/// folds over the event stream, and the two disagreed on retransmits,
/// restarts and the whole SLURM arm.
#[test]
fn only_the_metrics_crate_records_a_metric_sample() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for tree in ["crates", "src", "tests", "examples"] {
        rust_sources(&root.join(tree), &mut files);
    }
    assert!(files.len() >= 100, "found only {} sources", files.len());
    let allowed = [
        root.join("crates/metrics/src"),
        // This file names the shapes it denies.
        root.join("tests/architecture.rs"),
    ];
    for path in files
        .iter()
        .filter(|p| !allowed.iter().any(|a| p.starts_with(a)))
    {
        let text = fs::read_to_string(path).expect("readable source file");
        let calls = metric_record_calls(&text);
        assert!(
            calls.is_empty(),
            "{} records a metric sample itself ({calls:?}) — call a \
             penelope_metrics::MetricsCollector entry point",
            path.strip_prefix(root).unwrap_or(path).display()
        );
    }
}

#[test]
fn metric_record_detection_sees_the_shapes_it_replaced() {
    let old = "self.nodes.turnaround[di].record(now.saturating_since(sent));\n\
               self.oscillation.record(cap);\n\
               tracker.record(now, amount);\n\
               turnaround.record_unanswered();";
    assert_eq!(
        metric_record_calls(old),
        [
            "self.nodes.turnaround[di].record(",
            "self.oscillation.record(",
            "tracker.record(",
            "record_unanswered("
        ]
    );
    let new = "let r = self.record(peer);\n\
               self.metrics.trip_closed(dst, g.seq, now, g.amount);\n\
               sim.record_traces();\n\
               pub fn record_unanswered(&mut self) {}";
    assert!(metric_record_calls(new).is_empty());
}

#[test]
fn prop_vocabulary_detection_sees_the_shapes_it_replaced() {
    // Split so this file does not itself invoke what it looks for.
    let old = concat!(
        "use proptest::prelude::*;\n",
        "proptest",
        "! {\n    #[test]\n    fn f(a in 0u8..4) {\n        ",
        "prop_assume",
        "!(a > 0);\n        ",
        "prop_assert_eq",
        "!(a, a);\n    }\n}"
    );
    assert!(invokes_proptest_macros(old));
    assert!(invokes_proptest_macros(concat!("prop_assert", "!(ok)")));
    // The harness, a helper that only shares a prefix, and prose are not
    // invocations.
    let new = concat!(
        "prop::check(\"f\", prop::Config::default(), 0u8..4, |a| assert_eq!(a, a));\n",
        "fn prop_assert_sorted(v: &[u64]) {}\n",
        "// ported from the proptest crate's DSL\n",
        "my_proptest",
        "!(x);"
    );
    assert!(!invokes_proptest_macros(new));

    let old_manifest = "[workspace]\nmembers = [\"crates/*\", \"third_party/*\"]\n\
                        [dev-dependencies]\nproptest = { workspace = true }\n";
    assert!(contains_identifier(old_manifest, "proptest"));
    assert_eq!(
        workspace_members(old_manifest),
        Some(r#"["crates/*", "third_party/*"]"#)
    );
    let new_manifest = "[workspace]\nmembers = [\"crates/*\"]\n\
                        default-members = [\".\", \"crates/*\"]\n\
                        [dev-dependencies]\npenelope-testkit = { workspace = true }\n";
    assert!(!contains_identifier(new_manifest, "proptest"));
    assert_eq!(workspace_members(new_manifest), Some(r#"["crates/*"]"#));
}

#[test]
fn driver_detection_sees_the_shapes_it_replaced() {
    let old = "struct Shared {\n    engines: Vec<Mutex<NodeEngine>>,\n}\n\
               impl Effects<TestRng> for BarrierFx<'_> {\n}\n\
               impl Effects<TestRng> for ThreadFx<'_> {\n}\n\
               fn run() {\n    threads.push(std::thread::spawn(move || node_loop(node)));\n}";
    assert_eq!(effects_impls(old), 2);
    assert!(spawns_engine_threads(old));
    // The adapter names the driver's entry point and nothing it is made of;
    // a generic bound or a doc line is not an implementation; threads that
    // never see an engine (the experiment sweeps) are not a driver.
    let new = "/// Conformance adapter for [`run_threads`].\n\
               pub struct ThreadedRuntime;\n\
               fn go() { run_threads(&cfg, profiles, &faults, 9); }\n\
               pub fn step<R>(fx: &mut impl Effects<R>) {}\n\
               //! implements [`Effects`], the substrate side";
    assert_eq!(effects_impls(new), 0);
    assert!(!spawns_engine_threads(new));
    assert!(!spawns_engine_threads(
        "std::thread::scope(|scope| sweep(scope, cells))"
    ));
}

#[test]
fn config_copy_detection_sees_the_shapes_it_replaced() {
    let old = "/// Keeps its DeciderConfig.\n\
               pub struct LocalDecider {\n    cfg: DeciderConfig,\n    cap: Power,\n}\n\
               pub struct NodeEngine {\n    id: NodeId,\n    cfg: EngineConfig,\n}\n\
               struct Lazy {\n    knobs: Option<NodeParams>,\n}";
    assert_eq!(
        config_fields_by_value(old),
        [
            ("LocalDecider", "DeciderConfig"),
            ("NodeEngine", "EngineConfig"),
            ("Lazy", "Option<NodeParams>"),
        ]
    );
    let new = "pub struct NodeCtx {\n    pub(crate) cfg: Arc<EngineConfig>,\n}\n\
               pub struct Borrowed<'a> {\n    knobs: &'a DeciderConfig,\n}\n\
               impl LocalDecider {\n    pub fn tick(&mut self, cfg: DeciderConfig) {\n    }\n}\n\
               pub struct DeciderConfigs {\n    /// cfg: DeciderConfig\n    n: usize,\n}";
    assert_eq!(config_fields_by_value(new), []);
    let hashed = "entries: HashMap<(K, u64), EscrowEntry<K>>,\n\
                  #[cfg(test)]\nmod tests { use std::collections::HashSet; }";
    assert!(contains_identifier(non_test_part(hashed), "HashMap"));
    assert!(!contains_identifier(non_test_part(hashed), "HashSet"));
    assert!(!contains_identifier(
        "the std hash table this replaced",
        "HashMap"
    ));
}

#[test]
fn binary_heap_detection_sees_the_shapes_it_replaced() {
    let old = "queue: BinaryHeap<Reverse<Ev>>,\n\
               wake_heap: BinaryHeap::with_capacity(len),\n\
               #[cfg(test)]\nmod tests { use std::collections::BinaryHeap; }";
    assert!(contains_identifier(non_test_part(old), "BinaryHeap"));
    // The calendar's oracle lives in the test module, and prose about a
    // heap is not one.
    let new = "//! the wake heap is gone\nqueue: Calendar,\n\
               #[cfg(test)]\nmod tests { use std::collections::BinaryHeap; }";
    assert!(!contains_identifier(non_test_part(new), "BinaryHeap"));
}

#[test]
fn cluster_range_detection_sees_the_shapes_it_replaced() {
    assert!(ranges_over_the_cluster(
        "let candidates: Vec<u32> = (0..n as u32)"
    ));
    assert!(ranges_over_the_cluster("for _ in 0..n {"));
    assert!(ranges_over_the_cluster("for p in 0..self.cluster_size {"));
    assert!(!ranges_over_the_cluster(
        "// candidates are 0..n but for self"
    ));
    assert!(!ranges_over_the_cluster("for i in 0..next {"));
    assert!(!ranges_over_the_cluster(
        "&self.records[..0]; let r = 10..n;"
    ));
}

#[test]
fn free_fn_call_detection_tells_a_call_from_its_neighbours() {
    assert!(calls_free_fn(
        "tx.send_to(&frame(dst, me, &wire), addr)",
        "frame"
    ));
    assert!(calls_free_fn("frame(a, b, c)", "frame"));
    assert!(!calls_free_fn("deframe(buf)", "frame"));
    assert!(!calls_free_fn("pub(crate) fn frame(dst: NodeId)", "frame"));
    assert!(!calls_free_fn("frame_into(buf, dst, src, msg)", "frame"));
    assert!(!calls_free_fn("self.frame(x)", "frame"));
}

#[test]
fn trace_event_detection_tells_construction_from_mention() {
    assert!(constructs_a_trace_event(
        "self.obs.on_event(&TraceEvent {\n at: now,"
    ));
    assert!(constructs_a_trace_event(
        "obs.emit(|| TraceEvent { at, node })"
    ));
    assert!(!constructs_a_trace_event("fn ev(seq: u64) -> TraceEvent {"));
    assert!(!constructs_a_trace_event("impl TraceEvent {"));
    assert!(!constructs_a_trace_event(
        "impl fmt::Display for TraceEvent {"
    ));
    assert!(!constructs_a_trace_event("pub struct TraceEvent {"));
    assert_eq!(non_test_part("a\n#[cfg(test)]\nmod t {}"), "a");
    assert_eq!(non_test_part("    #[cfg(test)]\nb"), "    #[cfg(test)]\nb");
}

#[test]
fn output_loop_detection_sees_the_shapes_it_replaced() {
    let old = "struct S { out_buf: Vec<EngineOutput> }\n\
               fn f(outputs: &mut Vec<EngineOutput>) {\n\
                   let out = outputs[i].clone();\n\
                   let o = self.out_buf[i + 1].clone();\n\
               }";
    assert_eq!(output_buffer_names(old), ["out_buf", "outputs"]);
    assert!(clones_an_element_of(old, "outputs"));
    assert!(clones_an_element_of(old, "out_buf"));
    let new = "let mut outputs: Vec<EngineOutput> = Vec::new();\n\
               let p = profiles[i].clone(); let n = my_outputs[0].clone();\n\
               engine.step(now, input, rng, &mut outputs, &mut fx);";
    assert_eq!(output_buffer_names(new), ["outputs"]);
    assert!(!clones_an_element_of(new, "outputs"));
}

#[test]
fn identifier_matching_respects_word_boundaries() {
    assert!(contains_identifier(
        "let e = GrantEscrow::new();",
        "GrantEscrow"
    ));
    assert!(!contains_identifier(
        "EventKind::GrantEscrowed { .. }",
        "GrantEscrow"
    ));
    assert!(contains_identifier(
        "x.observe_digest(now)",
        "observe_digest"
    ));
    assert!(!contains_identifier(
        "pre_observe_digest_hook()",
        "observe_digest"
    ));
    assert!(contains_identifier("applied_seqs", "applied_seqs"));
}
