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

/// Sends one raw HTTP request to `addr` and returns the whole answer.
fn raw_request(addr: &str, method: &str, target: &str) -> String {
    use std::io::{Read, Write};
    let mut conn = std::net::TcpStream::connect(addr).expect("connect to the daemon");
    write!(
        conn,
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )
    .expect("send the request");
    let mut answer = String::new();
    conn.read_to_string(&mut answer).expect("read the answer");
    answer
}

/// `repro stop` against a live `repro serve` on an ephemeral port: the
/// client reads the daemon's answer and exits 0, and so does the
/// daemon, after logging its stop. A shutdown request the daemon
/// rejects first leaves it serving.
#[test]
fn stop_exits_zero_and_stops_the_daemon() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let dir = scratch("stop");
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(&dir)
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--store",
            "st",
            "--jobs",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("repro serve starts");
    let mut stdout = BufReader::new(daemon.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("listening line");
    let addr = banner
        .strip_prefix("llc-serve listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    for target in ["/shutdown?wait_ms=1", "/shutdown?x"] {
        let answer = raw_request(&addr, "POST", target);
        assert!(answer.starts_with("HTTP/1.1 400"), "{target}: {answer:?}");
    }
    assert!(daemon.try_wait().expect("poll the daemon").is_none());
    let health = raw_request(&addr, "GET", "/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "healthz: {health:?}");

    let stop = repro(&dir, &format!("stop --addr {addr}"));
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = daemon.try_wait().expect("poll the daemon") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = daemon.kill();
            panic!("the daemon did not exit after repro stop");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        stop.status.success(),
        "repro stop failed: {}",
        String::from_utf8_lossy(&stop.stderr)
    );
    assert!(String::from_utf8_lossy(&stop.stdout).contains("\"ok\":true"));
    assert!(status.success(), "daemon exit: {status}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("daemon output");
    assert!(
        rest.contains("llc-serve stopped"),
        "daemon printed {rest:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
