//! Architectural invariant: the protocol automaton lives in
//! `penelope-core` and nowhere else. The substrates (simulator, lockstep
//! runtime, UDP daemon) and the CLI are *drivers* — they pump
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
//! the repo to its five effect mappings and one thread-per-node driver,
//! in `penelope-runtime`, a twelfth holds it to one fault vocabulary
//! (`FaultAction`) and one conformance module, in the root crate, whose
//! `Scenario` nothing translates, a thirteenth holds `ShardedSim` to
//! one thread scope per run, and a fourteenth holds the workspace to one
//! property-test vocabulary, `penelope_testkit::prop`, and a fifteenth
//! holds the Fig. 4–8 metrics to one path: only `penelope-metrics` feeds
//! a turnaround, oscillation or redistribution sample.

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
const DRIVER_TREES: &[&str] = &[
    "crates/sim/src",
    "crates/runtime/src",
    "crates/daemon/src",
    "src",
    "examples",
];

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
        buffers >= 5,
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
/// engine inputs, and the repo keeps five mappings: the DES's, the
/// sharded DES's two (first tick and steady state), the reactor's, and
/// the lockstep runtime's. The sixth, `ThreadFx`, belonged to a second
/// thread-per-node driver with wall-clock sleeps for a clock; the first
/// lived inside the facade crate's conformance module, which is adapters
/// now and must not grow a driver back.
#[test]
fn effects_are_mapped_in_five_places_and_threads_step_engines_in_one_crate() {
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
            "{name} starts threads that step engines — that driver is \
             `penelope_runtime::run_lockstep`; the facade only adapts to it"
        );
    }
    impls.sort();
    assert_eq!(
        impls,
        [
            "crates/daemon/src/reactor.rs",
            "crates/runtime/src/lib.rs",
            "crates/sim/src/cluster.rs",
            "crates/sim/src/shard.rs",
            "crates/sim/src/shard.rs",
        ],
        "shipped code implements `Effects` somewhere new — a substrate is \
         one mapping; a sixth is a second driver for an existing one"
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
        let below_the_kit = ["crates/sim/src", "crates/runtime/src"]
            .iter()
            .any(|tree| path.starts_with(root.join(tree)));
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
               fn assert_conserves(scenario: &Scenario, substrate: &dyn Substrate) {\n}";
    assert_eq!(scenario_translators(new), [""; 0]);
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
               impl Effects<TestRng> for LockstepFx {\n}\n\
               impl Effects<TestRng> for ThreadFx<'_> {\n}\n\
               fn run() {\n    threads.push(std::thread::spawn(move || node_loop(node)));\n}";
    assert_eq!(effects_impls(old), 2);
    assert!(spawns_engine_threads(old));
    // The adapter names the driver's entry point and nothing it is made of;
    // a generic bound or a doc line is not an implementation; threads that
    // never see an engine (the experiment sweeps) are not a driver.
    let new = "/// Conformance adapter for [`run_lockstep`].\n\
               pub struct LockstepRuntime;\n\
               fn go() { run_lockstep(&LockstepConfig::from(&cfg), profiles, &faults, 9); }\n\
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
