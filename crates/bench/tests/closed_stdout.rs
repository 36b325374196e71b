//! A report binary whose stdout is already closed (`table2_params | true`)
//! must end cleanly, not panic on the first write.

use std::process::Command;

#[test]
fn a_report_to_a_closed_stdout_exits_cleanly() {
    // The read end is closed before the binary starts, so every write it
    // makes fails with a broken pipe.
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_table2_params"))
        .stdout(writer)
        .output()
        .expect("table2_params runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(output.status.code(), Some(0), "{stderr}");
}
