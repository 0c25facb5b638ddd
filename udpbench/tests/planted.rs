//! A planted wrong verdict must fail the run: a stand-in server that
//! proves every goal contradicts the `joins` mismatches, which must not be
//! proved.

use std::process::Command;

#[cfg(unix)]
#[test]
fn a_server_that_proves_everything_fails_the_run() {
    use std::os::unix::fs::PermissionsExt;

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("planted");
    std::fs::create_dir_all(&dir).unwrap();
    let server = dir.join("prove-everything.sh");
    std::fs::write(
        &server,
        "#!/usr/bin/env bash\nn=0\nwhile IFS= read -r line; do\n  [ -z \"$line\" ] && continue\n  n=$((n+1))\n  echo \"goal $n: Proved\"\ndone\n",
    )
    .unwrap();
    std::fs::set_permissions(&server, std::fs::Permissions::from_mode(0o755)).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_udpbench"))
        .args([
            "--workload",
            "joins",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .arg("--serve-bin")
        .arg(&server)
        .arg("--work-dir")
        .arg(&dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap_or_default();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(last.starts_with("{\"correct\": false"), "{last}");
    assert!(!last.contains("\"failed\": 0,"), "{last}");
}
