//! `flipper mine --timings` keeps worker-shard time off the phase table.
//!
//! Shards of one counting batch run at the same time on different lanes,
//! so their summed time can exceed the run's wall time. They are reported
//! on a `lanes:` line instead, and every row left in the phase table is a
//! span of the run itself, which must fit inside the process's wall time.

use std::path::Path;
use std::process::{Command, Output};
use std::time::Instant;

fn flipper(args: &[&str], input: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flipper"))
        .args(args)
        .arg(input)
        .output()
        .expect("spawn flipper")
}

#[test]
fn timings_phase_rows_never_exceed_wall_time() {
    let dir = std::env::temp_dir().join(format!("flipper-cli-timings-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("quest.fbin");
    let out = flipper(
        &[
            "generate",
            "--kind",
            "quest",
            "--transactions",
            "4000",
            "--seed",
            "7",
            "--out",
        ],
        &input,
    );
    assert!(out.status.success(), "generate failed: {out:?}");

    let start = Instant::now();
    let out = flipper(
        &[
            "mine",
            "--variant",
            "basic",
            "--threads",
            "2",
            "--timings",
            "--top",
            "0",
            "--input",
        ],
        &input,
    );
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(out.status.success(), "mine failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();

    let rows: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("phase "))
        .skip(1)
        .take_while(|l| !l.starts_with("lanes:"))
        .collect();
    assert!(!rows.is_empty(), "no phase table in:\n{stdout}");
    for row in rows {
        let fields: Vec<&str> = row.split_whitespace().collect();
        let (name, total_ms) = (fields[0], fields[2].parse::<f64>().unwrap());
        assert_ne!(name, "exec.shard", "shard time is not a phase");
        assert!(
            total_ms <= wall_ms,
            "phase {name} = {total_ms} ms exceeds the {wall_ms:.2} ms wall time"
        );
    }

    let lanes = stdout
        .lines()
        .find(|l| l.starts_with("lanes:"))
        .unwrap_or_else(|| panic!("no lanes line in:\n{stdout}"));
    let shards: u64 = lanes
        .split_whitespace()
        .find_map(|f| f.strip_prefix("shards="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no shard count in {lanes:?}"));
    assert!(
        shards > 0,
        "a 2-thread basic run shards its counting: {lanes}"
    );
    for key in ["busy=", "max=", "median=", "skew="] {
        assert!(lanes.contains(key), "{lanes:?} lacks {key}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
