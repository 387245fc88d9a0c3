//! The `repro` binary, driven as a user would: file arguments relative
//! to the working directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `repro` in `dir` with whitespace-separated `args`.
fn repro(dir: &Path, args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(args.split_whitespace())
        .output()
        .expect("repro runs")
}

#[test]
fn ingest_writes_a_bare_relative_file_name() {
    let dir = scratch("bare");
    let sample = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/traces/sample.csv");
    let out = repro(
        &dir,
        &format!(
            "ingest --format champsim {} --out bare.llcs",
            sample.display()
        ),
    );
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("bare.llcs").is_file(), "the stream was written");
    // The printed recording fingerprint is the one the header holds.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let printed = stdout
        .split("(recording ")
        .nth(1)
        .and_then(|rest| rest.get(..16))
        .expect("recording fingerprint printed");
    let bytes = std::fs::read(dir.join("bare.llcs")).expect("read the stream");
    let header = u64::from_le_bytes(bytes[40..48].try_into().expect("8 header bytes"));
    assert_eq!(printed, format!("{header:016x}"));
    let _ = std::fs::remove_dir_all(&dir);
}
