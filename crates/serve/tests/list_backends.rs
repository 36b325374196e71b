//! `difftune-serve --list-backends` piped into a reader that stops early
//! (`| head -1`) must end cleanly, not panic on the closed pipe.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn a_listing_whose_reader_closes_early_exits_cleanly() {
    // Closing before the first line is read makes the first write fail;
    // closing after it lets the rest of the listing race the close.
    for read_first_line in [false, true] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_difftune-serve"))
            .arg("--list-backends")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("difftune-serve starts");
        let stdout = child.stdout.take().expect("stdout is piped");
        if read_first_line {
            let mut line = String::new();
            BufReader::new(stdout)
                .read_line(&mut line)
                .expect("the listing has a first line");
            assert!(line.starts_with("default:"), "{line:?}");
        } else {
            drop(stdout);
        }
        let output = child.wait_with_output().expect("difftune-serve exits");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert_eq!(output.status.code(), Some(0), "{stderr}");
    }
}
