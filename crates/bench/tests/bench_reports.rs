//! Every committed `results/BENCH_*.json` is a release-build report in
//! the bench envelope: it parses, carries the `dare-bench-v1` schema and
//! `"build": "release"`, names the bench its file is named after, and
//! records the command that regenerates it. That command must run a
//! `--bench`, `--bin` or `--example` target that still exists, so a
//! report outlives its producer only by failing here.

use dare_simcore::json::{self, BENCH_SCHEMA};
use std::path::{Path, PathBuf};

/// The source file of the `--bench`, `--bin` or `--example` target that
/// `command` runs, if the workspace still has it.
fn target_source(command: &str) -> Option<PathBuf> {
    let cargo_args: Vec<&str> = command.split(" -- ").next()?.split_whitespace().collect();
    let (dir, name) = cargo_args.windows(2).find_map(|w| match w[0] {
        "--bench" => Some(("benches", w[1])),
        "--bin" => Some(("src/bin", w[1])),
        "--example" => Some(("examples", w[1])),
        _ => None,
    })?;
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let crates = std::fs::read_dir(root.join("crates")).ok()?.flatten();
    std::iter::once(root.clone())
        .chain(crates.map(|e| e.path()))
        .map(|pkg| pkg.join(dir).join(format!("{name}.rs")))
        .find(|path| path.is_file())
}

#[test]
fn committed_bench_reports_are_release_envelopes() {
    let dir = dare_bench::results_dir();
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("results directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let Some(bench) = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
        else {
            continue;
        };
        let text = std::fs::read_to_string(&path).expect("readable report");
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let field = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_str(key))
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        assert_eq!(field("schema"), BENCH_SCHEMA, "{name}");
        assert_eq!(field("build"), "release", "{name}");
        assert_eq!(field("bench"), bench, "{name}");
        let command = field("command");
        assert!(
            command.starts_with("cargo ") || command.starts_with("BENCH_QUICK=1 cargo "),
            "{name}"
        );
        assert!(
            target_source(command).is_some(),
            "{name}: `{command}` runs no --bench, --bin or --example target of the workspace"
        );
        seen += 1;
    }
    assert!(seen >= 7, "{seen} BENCH reports under {}", dir.display());
}
