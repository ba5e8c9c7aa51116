//! Architectural invariant: the protocol automaton lives in
//! `penelope-core` and nowhere else. The substrates (simulator, threaded
//! runtime, UDP daemon) and the CLI are *drivers* — they pump
//! `EngineInput`s and execute `EngineOutput`s, but they never branch on
//! protocol state themselves. This test denies the four identifiers that
//! historically marked inlined protocol logic (escrow bookkeeping,
//! suspicion-gossip merging, seq-epoch staleness, grant dedup) outside
//! the core crate, so the triplication the engine collapsed cannot creep
//! back in one convenient shortcut at a time. A second test holds the
//! daemon crate to a single socket loop.

use std::fs;
use std::path::{Path, PathBuf};

/// Identifiers whose presence outside `penelope-core` means a driver has
/// re-grown protocol logic.
const DENIED: &[&str] = &[
    "GrantEscrow",
    "observe_digest",
    "is_stale_grant",
    "applied_seqs",
];

/// Source trees that must stay protocol-free.
const DRIVER_TREES: &[&str] = &[
    "crates/sim/src",
    "crates/runtime/src",
    "crates/daemon/src",
    "src",
    "examples",
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("driver source tree exists") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
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
         NodeEngine::handle instead:\n  {}",
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
